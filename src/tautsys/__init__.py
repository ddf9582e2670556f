"""Exact workbench for the differential systems of hypersurface periods.

Builds the tautological system attached to projective space with its
anticanonical bundle, the derived scalar and vector systems for p-th
derivatives of period integrals, verifies exact period expansions against
them, and certifies differential zeros through membership in the
divergence image.
"""

from .exact import (FamilyError, Inconsistent, LinearSystem, PoleError, Rat,
                    Solution, SparsePoly, as_rat, replay_witness, solve_exact)
from .membership import (Member, MembershipCertificate, MembershipQuery,
                         NonMember, SectionPoint, derivative_query,
                         filtration_generators, membership_test, scan_family,
                         section_polynomial, verify_certificate)
from .model import (LatticeRelation, LieGenerator, ModelSpec, SpanReport,
                    build_projective_model, fermat_point, lattice_relations,
                    lie_action, lie_entries, monomials_of_degree,
                    multiplication_surjectivity)
from .periods import (AnnihilationReport, PeriodFamily,
                      closed_form_series_p1, derivative_generating_series,
                      derivative_vector_solution, fermat_derivative_check_p1,
                      period_series, verify_annihilation)
from .series import LaurentSeries
from .systems import (DiffSystem, UnsupportedOrderError, VectorEquation,
                      VectorSolution, VectorSystem, build_scalar_system,
                      build_tautological_system, build_vector_system,
                      dual_generator_families, fourier_matches_dual,
                      scalarize, symmetry_matrix, symmetry_operator,
                      toric_operator, vector_residual, vectorize,
                      verify_vector_system)
from .weyl import (WeylOperator, commutator, compose, coord_a, coord_b, d_a,
                   d_b, euler_a, euler_b, fourier)

__version__ = "0.1.0"
