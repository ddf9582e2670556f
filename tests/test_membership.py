"""Membership certificates, their audits, and the span checks."""

from fractions import Fraction
from math import comb

import pytest

import tautsys.membership
from tautsys.exact import SparsePoly, replay_witness
from tautsys.membership import (Member, MembershipCertificate,
                                MembershipQuery, NonMember, SectionPoint,
                                derivative_query, filtration_generators,
                                membership_test, scan_family,
                                section_polynomial, verify_certificate)
from tautsys.model import (ResourceBoundError, build_projective_model,
                           fermat_point)
from tautsys.periods import fermat_derivative_check_p1


@pytest.fixture(scope="module")
def line():
    return build_projective_model(1, ordering="interior-first")


@pytest.fixture(scope="module")
def plane():
    return build_projective_model(2, ordering="interior-first")


@pytest.fixture(scope="module")
def line_fermat(line):
    return SectionPoint.of(fermat_point(line))


@pytest.fixture(scope="module")
def plane_fermat(plane):
    return SectionPoint.of(fermat_point(plane))


def test_section_polynomial_assembly(line):
    point = SectionPoint.of((Fraction(1, 2), 1, 0))
    f = section_polynomial(line, point)
    assert f == SparsePoly("x", 2, {(1, 1): Fraction(1, 2), (2, 0): 1})


def test_line_fermat_interior_direction_is_member(line, line_fermat):
    query = derivative_query(line, (1, 0, 0))
    assert query.poly == SparsePoly("x", 2, {(1, 1): 1})
    result = membership_test(line, line_fermat, query)
    assert isinstance(result, Member)
    assert verify_certificate(line, line_fermat, query, result.certificate)


def test_line_fermat_worked_certificate(line, line_fermat):
    # q0 = x1/2 alone realizes x0 x1: the divergence term vanishes and
    # q0 * df/dx0 = (x1/2)(2 x0) = x0 x1
    query = derivative_query(line, (1, 0, 0))
    certificate = MembershipCertificate(q=(
        SparsePoly("x", 2, {(0, 1): Fraction(1, 2)}),
        SparsePoly.zero("x", 2)))
    assert verify_certificate(line, line_fermat, query, certificate)


def test_line_fermat_quadric_direction_is_not_member(line, line_fermat):
    query = derivative_query(line, (0, 1, 0))
    result = membership_test(line, line_fermat, query)
    assert isinstance(result, NonMember)
    coeffs, rhs = replay_witness(result.system, result.witness)
    assert not any(coeffs)
    assert rhs != 0


def test_line_fermat_non_membership_sympy_oracle(line, line_fermat):
    """Full-stack independent oracle: expand the divergence identity with
    symbolic q coefficients and ask a second solver for solutions."""
    import sympy

    x0, x1 = sympy.symbols("x0 x1")
    f = x0 ** 2 + x1 ** 2
    unknowns = sympy.symbols("c0:8")
    q0 = unknowns[0] + unknowns[1] * x0 + unknowns[2] * x1
    q1 = unknowns[3] + unknowns[4] * x0 + unknowns[5] * x1
    target = x0 ** 2
    identity = (sympy.diff(q0, x0) + q0 * sympy.diff(f, x0)
                + sympy.diff(q1, x1) + q1 * sympy.diff(f, x1) - target)
    equations = sympy.Poly(identity, x0, x1).coeffs()
    assert sympy.linsolve(equations, unknowns[:6]) == sympy.EmptySet

    # and the member direction has a solution
    identity_member = (sympy.diff(q0, x0) + q0 * sympy.diff(f, x0)
                       + sympy.diff(q1, x1) + q1 * sympy.diff(f, x1)
                       - x0 * x1)
    equations = sympy.Poly(identity_member, x0, x1).coeffs()
    assert sympy.linsolve(equations, unknowns[:6]) != sympy.EmptySet


def test_non_membership_agrees_with_closed_form_derivative(line, line_fermat):
    # the quadric direction labels d/da1, whose closed-form prefactor is
    # nonzero at the Fermat point; the interior direction labels d/da0,
    # which vanishes there
    report = fermat_derivative_check_p1()
    interior = membership_test(line, line_fermat,
                               derivative_query(line, (1, 0, 0)))
    quadric = membership_test(line, line_fermat,
                              derivative_query(line, (0, 1, 0)))
    assert isinstance(interior, Member) == report.probes[0].vanishes
    assert isinstance(quadric, NonMember) == (not report.probes[1].vanishes)


def test_plane_fermat_double_interior_direction(plane, plane_fermat):
    query = derivative_query(plane, (2,) + (0,) * 9)
    assert query.poly == SparsePoly("x", 3, {(2, 2, 2): 1})
    result = membership_test(plane, plane_fermat, query)
    assert isinstance(result, Member)
    assert verify_certificate(plane, plane_fermat, query, result.certificate)


def test_plane_fermat_worked_certificate(plane, plane_fermat):
    # q0 = x1^2 x2^2 / 3 gives zero divergence and (x1^2 x2^2 / 3)(3 x0^2)
    query = derivative_query(plane, (2,) + (0,) * 9)
    certificate = MembershipCertificate(q=(
        SparsePoly("x", 3, {(0, 2, 2): Fraction(1, 3)}),
        SparsePoly.zero("x", 3),
        SparsePoly.zero("x", 3)))
    assert verify_certificate(plane, plane_fermat, query, certificate)


def test_verify_certificate_rejects_doubled_witness(line, line_fermat):
    query = derivative_query(line, (1, 0, 0))
    doubled = MembershipCertificate(q=(
        SparsePoly("x", 2, {(0, 1): 1}),
        SparsePoly.zero("x", 2)))
    assert not verify_certificate(line, line_fermat, query, doubled)


def test_verify_certificate_zero_against_zero(line, line_fermat):
    query = MembershipQuery.of(line, SparsePoly.zero("x", 2))
    certificate = MembershipCertificate(
        q=(SparsePoly.zero("x", 2), SparsePoly.zero("x", 2)))
    assert verify_certificate(line, line_fermat, query, certificate)
    result = membership_test(line, line_fermat, query)
    assert isinstance(result, Member)


def test_derivative_query_products(line, plane):
    q = derivative_query(line, (0, 1, 1))
    assert q.poly == SparsePoly("x", 2, {(2, 2): 1})
    assert q.order == 2
    with pytest.raises(ValueError):
        derivative_query(line, (0, 0, 0))


def test_query_degree_must_be_divisible(line):
    with pytest.raises(ValueError):
        MembershipQuery.of(line, SparsePoly("x", 2, {(1, 0): 1}))
    with pytest.raises(ValueError):
        MembershipQuery.of(line, SparsePoly("x", 2, {(1, 1): 1, (2, 0): 1,
                                                     (0, 0): 1}))


def test_constant_directions_are_never_members(line, line_fermat):
    query = MembershipQuery.of(line, SparsePoly.constant("x", 2, 1))
    result = membership_test(line, line_fermat, query)
    assert isinstance(result, NonMember)


def test_scan_along_the_interior_pencil(line):
    query = derivative_query(line, (1, 0, 0))
    results = scan_family(line, query, SectionPoint.of((0, 1, 1)),
                          (1, 0, 0), (0, 1, 2))
    verdicts = [(t, type(r).__name__) for t, r in results]
    assert verdicts == [(0, "Member"), (1, "NonMember"), (2, "NonMember")]


def test_scan_pencil_oracle_at_t_one(line):
    """Second solver confirms the pencil verdict away from the Fermat point."""
    import sympy

    x0, x1 = sympy.symbols("x0 x1")
    f = x0 * x1 + x0 ** 2 + x1 ** 2
    unknowns = sympy.symbols("c0:6")
    q0 = unknowns[0] + unknowns[1] * x0 + unknowns[2] * x1
    q1 = unknowns[3] + unknowns[4] * x0 + unknowns[5] * x1
    identity = (sympy.diff(q0, x0) + q0 * sympy.diff(f, x0)
                + sympy.diff(q1, x1) + q1 * sympy.diff(f, x1) - x0 * x1)
    equations = sympy.Poly(identity, x0, x1).coeffs()
    assert sympy.linsolve(equations, unknowns) == sympy.EmptySet


def test_scan_zero_query_member_everywhere(line):
    query = MembershipQuery.of(line, SparsePoly.zero("x", 2))
    results = scan_family(line, query, SectionPoint.of((0, 1, 1)),
                          (1, 0, 0), (0, 1, 2))
    assert all(isinstance(r, Member) for _, r in results)


def test_scan_constant_query_nonmember_everywhere(line):
    query = MembershipQuery.of(line, SparsePoly.constant("x", 2, 1))
    results = scan_family(line, query, SectionPoint.of((0, 1, 1)),
                          (1, 0, 0), (0, 1, 2))
    assert all(isinstance(r, NonMember) for _, r in results)


def test_degreewise_chain_matches_full_solve(line, line_fermat, plane,
                                             plane_fermat):
    """The certificate system is block-triangular by x-degree; restricting
    the unknowns to the single chain of degrees that can reach the target
    must not change the verdict."""
    from tautsys.exact import Inconsistent, LinearSystem, grlex_key, solve_exact
    from tautsys.model import monomials_of_degree

    def chain_solve(spec, point, query):
        p = query.poly
        degree = 0 if p.is_zero() else p.homogeneous_degree()
        top = degree - spec.d
        chain_degrees = []
        e = top
        while e >= 0:
            chain_degrees.append(e)
            e -= spec.d + 1
        f = section_polynomial(spec, point)
        columns, contributions = [], []
        equations = set(p.terms)
        for i in range(spec.d + 1):
            for qd in chain_degrees:
                for mono in monomials_of_degree(spec.d + 1, qd):
                    q = SparsePoly.monomial("x", spec.d + 1, mono)
                    image = (q.partial_derivative(i)
                             + q * f.partial_derivative(i))
                    columns.append((i, mono))
                    contributions.append(dict(image.terms))
                    equations.update(image.terms)
        rows = []
        for target in sorted(equations, key=grlex_key):
            rows.append((
                tuple(c.get(target, Fraction(0)) for c in contributions),
                p.terms.get(target, Fraction(0))))
        system = LinearSystem.build(
            [f"q{i}[{mono}]" for i, mono in columns], rows)
        return not isinstance(solve_exact(system), Inconsistent)

    cases = [
        (line, line_fermat, derivative_query(line, (1, 0, 0))),
        (line, line_fermat, derivative_query(line, (0, 1, 0))),
        (line, line_fermat, derivative_query(line, (1, 1, 0))),
        (plane, plane_fermat, derivative_query(plane, (2,) + (0,) * 9)),
    ]
    for spec, point, query in cases:
        full = isinstance(membership_test(spec, point, query), Member)
        assert chain_solve(spec, point, query) == full


def test_membership_soundness_random_points(line):
    for a in [(1, 1, 1), (2, Fraction(1, 3), -1), (0, 1, -2)]:
        point = SectionPoint.of(a)
        for alpha in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]:
            query = derivative_query(line, alpha)
            result = membership_test(line, point, query)
            if isinstance(result, Member):
                assert verify_certificate(line, point, query,
                                          result.certificate)


def test_filtration_generators_ladder(line, plane):
    report = filtration_generators(line, 2)
    assert report.surjective and report.rank == 3
    report = filtration_generators(line, 3)
    assert report.surjective and report.rank == 5
    report = filtration_generators(plane, 3)
    assert report.surjective and report.rank == 28
    for d in (1, 2, 3):
        spec = build_projective_model(d)
        for p in range(1, 6):
            report = filtration_generators(spec, p)
            expected = comb((p - 1) * (d + 1) + d, d)
            assert report.rank == report.expected == expected, (d, p)
        with pytest.raises(ResourceBoundError):
            filtration_generators(spec, 6)


@pytest.mark.parametrize("d,admitted", [(1, 5), (2, 2), (3, 1)])
def test_membership_rejects_oversized_systems_up_front(d, admitted):
    spec = build_projective_model(d)
    point = SectionPoint.of(fermat_point(spec))
    alpha = [0] * spec.n
    alpha[0] = admitted + 1
    with pytest.raises(ResourceBoundError, match=f"alpha order {admitted + 1}"):
        membership_test(spec, point, derivative_query(spec, alpha))
    direction = [1] + [0] * (spec.n - 1)
    with pytest.raises(ResourceBoundError):
        scan_family(spec, derivative_query(spec, alpha), point, direction,
                    [0, 1])


@pytest.mark.parametrize("order,admitted", [(1, 980), (2, 117), (3, 30)])
def test_scan_rejects_oversized_parameter_lists_up_front(monkeypatch, line,
                                                         order, admitted):
    """Parameters x certificate cells is bounded before the first solve;
    the benchmarked scans (d=1, up to 6 parameters at order 2 and 4 at
    order 3) stay well inside."""
    query = derivative_query(line, (order, 0, 0))
    point = SectionPoint.of((0, 1, 1))
    calls = []
    monkeypatch.setattr(tautsys.membership, "membership_test",
                        lambda *args: calls.append(args))
    scan_family(line, query, point, (1, 0, 0), range(admitted))
    assert len(calls) == admitted
    calls.clear()
    with pytest.raises(ResourceBoundError, match=f"{admitted + 1} parameters"):
        scan_family(line, query, point, (1, 0, 0), range(admitted + 1))
    assert calls == []


def test_section_point_must_be_nonzero():
    with pytest.raises(ValueError):
        SectionPoint.of((0, 0, 0))
