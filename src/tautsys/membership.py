"""Exact membership certificates for differential zeros of periods.

For a section f_a of the anticanonical bundle on P^d and a homogeneous
polynomial p of degree divisible by d+1, decide exactly whether

    p = sum_i ( dq_i/dx_i + q_i * df_a/dx_i )

has a polynomial solution q_0, .., q_d.  A solution certifies that the
derivative of every period in the direction labelled by p vanishes at a;
refusals come with a replayable inconsistency witness for the underlying
linear system.

The unknowns q_i range over all polynomials of degree at most deg(p) - d:
the divergence term lowers degree by one and the gradient term raises it
by d, so higher graded pieces can never reach the target degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import (Inconsistent, LinearSystem, Rat, SparsePoly, as_rat,
                    exponents, grlex_key, solve_exact)
from .model import (ModelSpec, ResourceBoundError, SpanReport,
                    monomials_of_degree, multiplication_surjectivity)

_ZERO = Fraction(0)

#: largest certificate system, unknowns x equations, that membership_test
#: builds: the d=2 alpha-order-2 system (105 unknowns, 84 equations), about
#: 0.35 s for a CLI run at a dense point on a 2-core VM.  It admits d=1
#: order <= 5, d=2 order <= 2 and d=3 order 1.
MAX_SYSTEM_CELLS = 105 * 84
#: certificate cells summed over the parameters of one scan: four of the
#: largest systems, about 0.6 s for a CLI scan at d=2 alpha order 2
MAX_SCAN_CELLS = 4 * MAX_SYSTEM_CELLS


@dataclass(frozen=True)
class SectionPoint:
    """Coefficient vector picking the section f_a = sum a_i x^(m_i)."""

    a: tuple[Rat, ...]

    def __post_init__(self):
        if not any(self.a):
            raise ValueError("section point must not be identically zero")

    @classmethod
    def of(cls, values) -> "SectionPoint":
        return cls(tuple(as_rat(v) for v in values))


@dataclass(frozen=True)
class MembershipQuery:
    """Homogeneous direction polynomial, degree a multiple of d+1.

    `alpha` optionally records which derivative multi-index produced it.
    """

    poly: SparsePoly
    order: int                      # degree / (d+1)
    alpha: tuple[int, ...] | None = None

    @classmethod
    def of(cls, spec: ModelSpec, poly: SparsePoly,
           alpha: tuple[int, ...] | None = None) -> "MembershipQuery":
        if poly.family != "x" or poly.arity != spec.d + 1:
            raise ValueError("query must be a polynomial in the x-family")
        degree = poly.homogeneous_degree()
        if degree is None:
            return cls(poly=poly, order=0, alpha=alpha)
        if degree % (spec.d + 1) != 0:
            raise ValueError(
                f"degree {degree} is not a multiple of {spec.d + 1}")
        return cls(poly=poly, order=degree // (spec.d + 1), alpha=alpha)


@dataclass(frozen=True)
class MembershipCertificate:
    """Witness polynomials q_0..q_d for the divergence identity."""

    q: tuple[SparsePoly, ...]


@dataclass(frozen=True)
class Member:
    certificate: MembershipCertificate


@dataclass(frozen=True)
class NonMember:
    """Inconsistency witness for the certificate equations.

    `system` is the solved linear system and `witness` the row combination
    that reduces to 0 = nonzero.  The verdict implies a nonvanishing period
    derivative only under completeness of the ambient system, which holds
    for the homogeneous spaces treated here but is an external input.
    """

    system: LinearSystem
    witness: Inconsistent


def section_polynomial(spec: ModelSpec, point: SectionPoint) -> SparsePoly:
    """The section f_a as a polynomial in x."""
    if len(point.a) != spec.n:
        raise ValueError(f"point has length {len(point.a)}, expected {spec.n}")
    terms = {
        exp: coeff for exp, coeff in zip(spec.basis, point.a) if coeff}
    return SparsePoly("x", spec.d + 1, terms)


def derivative_query(spec: ModelSpec, alpha) -> MembershipQuery:
    """Direction polynomial of the derivative multi-index alpha.

    Differentiating exp(f_a) by a_i brings down the basis monomial x^(m_i);
    iterating gives the product of basis monomials with multiplicities
    alpha.
    """
    alpha = exponents(alpha, spec.n)
    if sum(alpha) < 1:
        raise ValueError("derivative multi-index must be nonempty")
    exponent = [0] * (spec.d + 1)
    for i, e in enumerate(alpha):
        if e:
            for row in range(spec.d + 1):
                exponent[row] += e * spec.basis[i][row]
    poly = SparsePoly.monomial("x", spec.d + 1, exponent)
    return MembershipQuery.of(spec, poly, alpha=alpha)


def _certificate_shape(spec: ModelSpec, degree: int) -> tuple[int, int]:
    """Equations and unknowns of the certificate system of a query of this
    degree: every monomial up to the degree, every q_i up to degree - d."""
    return (comb(degree + spec.d + 1, spec.d + 1),
            (spec.d + 1) * comb(degree + 1, spec.d + 1))


def membership_test(spec: ModelSpec, point: SectionPoint,
                    query: MembershipQuery) -> Member | NonMember:
    """Decide the divergence identity exactly.

    Builds the linear system matching every x-monomial of the identity over
    unknown coefficients of q_0..q_d (all monomials of degree up to
    deg(p) - d) and solves it fraction-free.  Membership always returns a
    re-audited certificate.
    """
    p = query.poly
    degree = 0 if p.is_zero() else p.homogeneous_degree()
    equations, unknowns = _certificate_shape(spec, degree)
    if unknowns * equations > MAX_SYSTEM_CELLS:
        raise ResourceBoundError(
            f"alpha order {query.order} at d={spec.d} needs a {equations} x "
            f"{unknowns} certificate system, beyond the supported "
            f"{MAX_SYSTEM_CELLS} entries")
    max_q_degree = degree - spec.d
    f = section_polynomial(spec, point)
    gradients = [f.partial_derivative(i) for i in range(spec.d + 1)]

    columns: list[tuple[int, tuple[int, ...]]] = []
    for i in range(spec.d + 1):
        for q_degree in range(max_q_degree + 1):
            for mono in monomials_of_degree(spec.d + 1, q_degree):
                columns.append((i, mono))

    contributions: list[dict[tuple[int, ...], Rat]] = []
    equations: set[tuple[int, ...]] = set(p.terms)
    for i, mono in columns:
        q = SparsePoly.monomial("x", spec.d + 1, mono)
        image = q.partial_derivative(i) + q * gradients[i]
        contributions.append(dict(image.terms))
        equations.update(image.terms)

    ordered = sorted(equations, key=grlex_key)
    rows = []
    for target in ordered:
        coeffs = tuple(c.get(target, _ZERO) for c in contributions)
        rows.append((coeffs, p.terms.get(target, _ZERO)))
    labels = tuple(f"q{i}[{','.join(map(str, mono))}]" for i, mono in columns)
    system = LinearSystem.build(labels, rows)

    outcome = solve_exact(system)
    if isinstance(outcome, Inconsistent):
        return NonMember(system=system, witness=outcome)
    parts = [dict() for _ in range(spec.d + 1)]
    for (i, mono), value in zip(columns, outcome.values):
        if value:
            parts[i][mono] = value
    certificate = MembershipCertificate(
        q=tuple(SparsePoly("x", spec.d + 1, part) for part in parts))
    if not verify_certificate(spec, point, query, certificate):
        raise AssertionError("solver produced a certificate that fails audit")
    return Member(certificate=certificate)


def verify_certificate(spec: ModelSpec, point: SectionPoint,
                       query: MembershipQuery,
                       certificate: MembershipCertificate) -> bool:
    """Recompute the divergence identity and compare exactly."""
    if len(certificate.q) != spec.d + 1:
        return False
    f = section_polynomial(spec, point)
    total = SparsePoly.zero("x", spec.d + 1).plus(*(
        term for i, q in enumerate(certificate.q)
        for term in (q.partial_derivative(i), q * f.partial_derivative(i))))
    return total == query.poly


def scan_family(spec: ModelSpec, query: MembershipQuery,
                base: SectionPoint, direction,
                parameters) -> list[tuple[Rat, Member | NonMember]]:
    """Run the membership test along the pencil a(t) = base + t * direction.

    The parameters times the certificate cells of the query may not exceed
    MAX_SCAN_CELLS; a larger scan is rejected before the first solve.
    """
    step = tuple(as_rat(v) for v in direction)
    if len(step) != spec.n:
        raise ValueError("direction has wrong length")
    if not any(step):
        raise ValueError("direction must be nonzero")
    parameters = [as_rat(t) for t in parameters]
    equations, unknowns = _certificate_shape(
        spec, query.poly.homogeneous_degree() or 0)
    cells = len(parameters) * equations * unknowns
    if cells > MAX_SCAN_CELLS:
        raise ResourceBoundError(
            f"a scan of {len(parameters)} parameters at alpha order "
            f"{query.order} and d={spec.d} needs {cells} certificate cells, "
            f"beyond the supported {MAX_SCAN_CELLS}")
    out = []
    for t in parameters:
        sample = SectionPoint.of(
            tuple(b + t * s for b, s in zip(base.a, step)))
        out.append((t, membership_test(spec, sample, query)))
    return out


def filtration_generators(spec: ModelSpec, p: int) -> SpanReport:
    """Do (p-1)-fold products of the basis monomials span their degree?

    Every monomial of degree (p-2)(d+1) is a product of p-2 basis
    monomials (cut its sorted variable word into blocks of d+1), so the
    (p-1)-fold products are the multiplication span for the powers
    (p-2, 1), with (0, 0) at p = 1.  That span's bound k + l <= 4 gives
    p <= 5.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if p > 5:
        raise ResourceBoundError(
            f"filtration p={p} exceeds the supported bound 5")
    return multiplication_surjectivity(spec, max(p - 2, 0), min(p - 1, 1))
