"""System builders, the scalar/vector equivalence, and the dual golden forms."""

import time
from fractions import Fraction

import pytest
from handcoded import mul_b_monomial, substitute_b
from hypothesis import given, settings
from hypothesis import strategies as st

from tautsys.model import (ResourceBoundError, build_projective_model,
                           lattice_relations)
from tautsys.periods import (derivative_generating_series,
                             derivative_vector_solution, period_series)
from tautsys.series import LaurentSeries
from tautsys.systems import (MAX_SYSTEM_OPERATORS, MAX_VECTOR_EQUATIONS,
                             UnsupportedOrderError,
                             VectorSolution, build_scalar_system,
                             build_tautological_system, build_vector_system,
                             dual_generator_families, fourier_matches_dual,
                             scalar_system_size, scalarize, symmetry_matrix,
                             symmetry_operator, vector_system_size,
                             vectorize, verify_vector_system)
from tautsys.weyl import (WeylOperator, compose, coord_a, d_a, euler_a,
                          euler_b, fourier)


@pytest.fixture(scope="module")
def line():
    spec = build_projective_model(1, ordering="interior-first")
    return spec, lattice_relations(spec, 2)


def test_base_system_operator_inventory(line):
    spec, rels = line
    system = build_tautological_system(spec, rels)
    n = spec.n
    by_label = dict(system.labelled())
    assert len(system.operators) == 6
    assert by_label["toric[2, -1, -1]"] == (
        d_a(n, 0) * d_a(n, 0) - d_a(n, 1) * d_a(n, 2))
    # dual-twisted symmetry operators; these are the forms that actually
    # annihilate the period expansion
    assert by_label["symmetry[0,0]"] == (
        coord_a(n, 1) * d_a(n, 1) - coord_a(n, 2) * d_a(n, 2))
    assert by_label["symmetry[1,1]"] == (
        coord_a(n, 2) * d_a(n, 2) - coord_a(n, 1) * d_a(n, 1))
    assert by_label["symmetry[0,1]"] == (
        coord_a(n, 0) * d_a(n, 2) + 2 * (coord_a(n, 1) * d_a(n, 0)))
    assert by_label["symmetry[1,0]"] == (
        coord_a(n, 0) * d_a(n, 1) + 2 * (coord_a(n, 2) * d_a(n, 0)))
    assert by_label["euler_a+1"] == euler_a(n) + 1
    assert system.beta_e == 1 and system.p == 0 and system.kind == "base"


def test_euler_annihilates_reciprocal(line):
    spec, rels = line
    system = build_tautological_system(spec, rels)
    inv = LaurentSeries(3, 0, {((-1, 0, 0), (0, 0, 0)): 1}, truncation=None)
    euler = dict(system.labelled())["euler_a+1"]
    assert euler.apply(inv).is_zero()


def test_scalar_system_p1_matches_hand_coded(line):
    from handcoded import canonical_multiset, hand_coded_first_derivative_system

    spec, rels = line
    built = build_scalar_system(spec, rels, 1)
    hand = hand_coded_first_derivative_system(spec, rels)
    assert canonical_multiset(built.operators) == canonical_multiset(hand)
    assert built.beta_e == 2 and built.p == 1


def test_scalar_system_p2_matches_hand_coded(line):
    from handcoded import canonical_multiset, hand_coded_second_derivative_system

    spec, rels = line
    built = build_scalar_system(spec, rels, 2)
    hand = hand_coded_second_derivative_system(spec, rels)
    assert canonical_multiset(built.operators) == canonical_multiset(hand)
    assert built.beta_e == 3


def test_scalar_system_p0_falls_back_to_base(line):
    spec, rels = line
    assert build_scalar_system(spec, rels, 0) == build_tautological_system(
        spec, rels)


def test_grading_operator_kills_bihomogeneous_monomials(line):
    spec, rels = line
    for p in (1, 2):
        system = build_scalar_system(spec, rels, p)
        grading = dict(system.labelled())[f"euler_a+{1 + p}"]
        # any monomial with a-degree -(1+p) and b-degree p
        a_exp = (-1 - p - 1, 1, 0)
        b_exp = tuple([p] + [0] * (spec.n - 1))
        monomial = LaurentSeries(spec.n, 0, {(a_exp, b_exp): 7},
                                 truncation=None)
        assert grading.apply(monomial).is_zero()
        b_grading = dict(system.labelled())[f"euler_b-{p}"]
        assert b_grading.apply(monomial).is_zero()


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_symmetry_matrix_matches_module_definition(d, ordering):
    """Entry (i, j) is (m_i)_k when m_j = m_i - e_k + e_l, minus delta_kl
    on the diagonal, exactly as the module docstring states."""
    spec = build_projective_model(d, ordering=ordering)
    for k in range(d + 1):
        for l in range(d + 1):
            expected = [[Fraction(0)] * spec.n for _ in range(spec.n)]
            for i, m in enumerate(spec.basis):
                if m[k]:
                    shifted = list(m)
                    shifted[k] -= 1
                    shifted[l] += 1
                    expected[i][spec.index_of(tuple(shifted))] += m[k]
                if k == l:
                    expected[i][i] -= 1
            got = symmetry_matrix(spec, k, l)
            assert got == tuple(tuple(row) for row in expected), (k, l)
            assert all(type(v) is Fraction for row in got for v in row)


# ---------------------------------------------------------------------------
# Vector systems
# ---------------------------------------------------------------------------


def test_vector_system_p1_symmetry_row_shape(line):
    spec, rels = line
    n = spec.n
    vsys = build_vector_system(spec, rels, 1)
    x = symmetry_matrix(spec, 0, 1)
    row = next(eq for eq in vsys.equations
               if eq.label == "symmetry[0,1]@0")
    parts = dict()
    for key, op in row.parts:
        parts.setdefault(key, WeylOperator.zero(n))
        parts[key] = parts[key] + op
    assert parts[0] - symmetry_operator(spec, 0, 1) == (
        WeylOperator.const(n, x[0][0]) if x[0][0] else WeylOperator.zero(n))
    for j in range(1, n):
        if x[0][j]:
            assert parts[j] == WeylOperator.const(n, x[0][j])


def test_vector_system_p1_grading_row(line):
    spec, rels = line
    vsys = build_vector_system(spec, rels, 1)
    row = next(eq for eq in vsys.equations if eq.label == "euler@1")
    assert row.parts == ((1, euler_a(spec.n) + 2),)


def test_vector_system_p2_transpose_rows(line):
    spec, rels = line
    vsys = build_vector_system(spec, rels, 2)
    labels = {eq.label for eq in vsys.equations}
    assert "transpose[0,1]" in labels
    row = next(eq for eq in vsys.equations if eq.label == "transpose[0,1]")
    keys = [key for key, _ in row.parts]
    assert keys == [(0, 1), (1, 0)]


def test_vector_system_p3_unsupported(line):
    spec, rels = line
    with pytest.raises(UnsupportedOrderError):
        build_vector_system(spec, rels, 3)


def test_vector_solutions_from_derivatives_have_zero_residuals(line):
    spec, rels = line
    base = period_series(spec, 8)
    for p in (1, 2):
        solution = derivative_vector_solution(base, p)
        residuals = verify_vector_system(
            build_vector_system(spec, rels, p), solution)
        assert all(r.is_zero() for r in residuals.values())


# ---------------------------------------------------------------------------
# Equivalence of presentations
# ---------------------------------------------------------------------------


def test_scalarize_single_component():
    n = 3
    series = LaurentSeries(n, 0, {((-2, 0, 0), (0, 0, 0)): Fraction(5, 3)},
                           truncation=4)
    components = {k: (series if k == 1 else series.scale(0))
                  for k in range(n)}
    phi = scalarize(VectorSolution(n=n, p=1, components=components))
    assert phi == mul_b_monomial(series, (0, 1, 0))


def test_scalarize_zero_vector():
    n = 3
    zero = LaurentSeries.zero(n, 0, truncation=5)
    phi = scalarize(VectorSolution(
        n=n, p=1, components={k: zero for k in range(n)}))
    assert phi.is_zero()


def test_vectorize_simple_extraction():
    n = 3
    phi = LaurentSeries(n, 0, {((-2, 0, 0), (0, 1, 0)): 1}, truncation=None)
    solution = vectorize(phi, 1)
    assert solution.components[1] == LaurentSeries(
        n, 0, {((-2, 0, 0), (0, 0, 0)): 1})
    assert solution.components[0].is_zero()
    assert solution.components[2].is_zero()


def test_vectorize_rejects_inhomogeneous_b():
    n = 3
    phi = LaurentSeries(
        n, 0,
        {((-2, 0, 0), (0, 1, 0)): 1, ((-1, 0, 0), (0, 0, 0)): 1},
        truncation=None)
    with pytest.raises(ValueError):
        vectorize(phi, 1)


@st.composite
def b_linear_solutions(draw, n=3):
    components = {}
    trunc = draw(st.integers(2, 5))
    for k in range(n):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            tail = tuple(draw(st.integers(0, 2)) for _ in range(n - 1))
            head = draw(st.integers(-3, 0))
            terms[((head,) + tail, (0,) * n)] = draw(
                st.fractions(min_value=-3, max_value=3, max_denominator=4))
        components[k] = LaurentSeries(n, 0, terms, truncation=trunc)
    return VectorSolution(n=n, p=1, components=components)


@settings(max_examples=40, deadline=None)
@given(b_linear_solutions())
def test_roundtrip_vectorize_scalarize(solution):
    back = vectorize(scalarize(solution), 1)
    for key, series in solution.components.items():
        assert back.components[key] == series


def test_roundtrip_p2_on_symmetric_input(line):
    spec, _ = line
    base = period_series(spec, 6)
    solution = derivative_vector_solution(base, 2)
    back = vectorize(scalarize(solution), 2)
    for key, series in solution.components.items():
        assert back.components[key] == series


@pytest.mark.parametrize("d, order", [(1, 6), (2, 3)])
def test_vectorize_p2_splits_the_generating_series(d, order):
    spec = build_projective_model(d, ordering="interior-first")
    base = period_series(spec, order + 2)
    solution = vectorize(derivative_generating_series(base, 2, order), 2)
    expected = derivative_vector_solution(base, 2)
    assert solution == expected
    assert solution.truncation == expected.truncation == order


# ---------------------------------------------------------------------------
# Deriving the vector rows by commutation
# ---------------------------------------------------------------------------


def test_vector_rows_arise_from_commutators(line):
    """Composing each base operator with d/da_k and re-normal-ordering
    reproduces the vector-system row exactly, as operator identities."""
    spec, rels = line
    n = spec.n
    base = build_tautological_system(spec, rels)
    for label, op in base.labelled():
        for k in range(n):
            left = compose(d_a(n, k), op)
            if label.startswith("toric"):
                assert left == compose(op, d_a(n, k))
            elif label.startswith("symmetry"):
                x = symmetry_matrix(
                    spec, int(label[9]), int(label[11]))
                correction = WeylOperator.zero(n)
                for j in range(n):
                    if x[k][j]:
                        correction = correction + x[k][j] * d_a(n, j)
                assert left == compose(op, d_a(n, k)) + correction
            else:
                assert left == compose(euler_a(n) + 2, d_a(n, k))


# ---------------------------------------------------------------------------
# Fourier golden forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_fourier_matches_dual_families(d):
    spec = build_projective_model(d, ordering="interior-first")
    rels = lattice_relations(spec, 3)
    ok, lines = fourier_matches_dual(spec, rels)
    assert ok, [line for line in lines if "MISMATCH" in line]


def test_dual_families_cover_the_whole_system(line):
    spec, rels = line
    system = build_scalar_system(spec, rels, 1)
    golden_labels = {label for label, _, _ in
                     dual_generator_families(spec, rels)}
    assert golden_labels == set(system.labels)


def test_dual_euler_forms_carry_the_stated_constants(line):
    spec, rels = line
    n = spec.n
    golden = dict(
        (label, op) for label, op, _ in dual_generator_families(spec, rels))
    zero = (0,) * n
    const_a = golden["euler_a+2"].terms.get((zero, zero, zero, zero))
    const_b = golden["euler_b-1"].terms.get((zero, zero, zero, zero))
    assert const_a == -n + 2
    assert const_b == -n - 1
    assert fourier(euler_a(n) + 2) == golden["euler_a+2"]
    assert fourier(euler_b(n) - 1) == golden["euler_b-1"]


# ---------------------------------------------------------------------------
# Specialization of the second family
# ---------------------------------------------------------------------------


def test_substituting_numeric_b_keeps_pure_a_operators_annihilating(line):
    spec, rels = line
    base = period_series(spec, 9)
    from tautsys.periods import derivative_generating_series
    phi = derivative_generating_series(base, 1, 8)
    special = substitute_b(phi, (Fraction(2, 3), Fraction(-1), Fraction(5)))
    system = build_scalar_system(spec, rels, 1)
    by_label = dict(system.labelled())
    toric = by_label["toric[2, -1, -1]"]
    grading = by_label["euler_a+2"]
    assert toric.apply(special).is_zero()
    assert grading.apply(special).is_zero()


@pytest.mark.parametrize("d,bounds,top_p", [(1, (2, 3, 4), 3),
                                            (2, (2, 3, 4), 3), (3, (2,), 1)])
def test_system_size_is_counted_before_building(d, bounds, top_p):
    """Every p the command line admits and the last p the operator cap
    admits (p = 44 in the library at d = 1); each relation gives one toric
    operator and no two operators coincide."""
    spec = build_projective_model(d)
    for bound in bounds:
        rels = lattice_relations(spec, bound)
        edge = top_p
        while (scalar_system_size(spec, len(rels), edge + 1)
               <= MAX_SYSTEM_OPERATORS):
            edge += 1
        for p in sorted({*range(top_p + 1), edge}):
            system = build_scalar_system(spec, rels, p)
            assert scalar_system_size(spec, len(rels), p) == len(
                system.operators) == len(set(system.operators))
    if d == 2:
        assert len(system.operators) == MAX_SYSTEM_OPERATORS
    if d == 3:
        with pytest.raises(ResourceBoundError, match="29834 operators"):
            build_scalar_system(spec, rels, 2)


@pytest.mark.parametrize("d,bounds,top_p", [(1, (2, 3, 4), 2),
                                            (2, (2, 3, 4), 2), (3, (2,), 1)])
def test_vector_system_size_is_counted_before_building(d, bounds, top_p):
    spec = build_projective_model(d)
    for bound in bounds:
        rels = lattice_relations(spec, bound)
        for p in range(1, top_p + 1):
            system = build_vector_system(spec, rels, p)
            assert vector_system_size(spec, len(rels), p) == len(
                system.equations)
    if d == 2:
        assert len(system.equations) == MAX_VECTOR_EQUATIONS
    if d == 3:
        started = time.perf_counter()
        with pytest.raises(ResourceBoundError, match="1537970 equations"):
            build_vector_system(spec, rels, 2)
        assert time.perf_counter() - started < 0.5
