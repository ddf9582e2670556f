"""Period expansions, their derivatives, and residual verification."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from handcoded import b_coefficient, derivative_a, expansion_index, pruned_to

from tautsys.model import build_projective_model, lattice_relations
from tautsys.periods import (closed_form_series_p1,
                             derivative_generating_series,
                             fermat_derivative_check_p1, period_series,
                             verify_annihilation)
from tautsys.series import LaurentSeries
from tautsys.systems import build_scalar_system, build_tautological_system


@pytest.fixture(scope="module")
def line():
    spec = build_projective_model(1, ordering="interior-first")
    return spec, lattice_relations(spec, 2)


@pytest.fixture(scope="module")
def plane():
    spec = build_projective_model(2, ordering="interior-first")
    return spec, lattice_relations(spec, 3)


def brute_force_layer(spec, j):
    """Independent constant-term oracle: enumerate all degree-j products of
    the non-distinguished basis monomials and keep those whose exponents sum
    to j times the interior monomial, with explicit multinomial counts."""
    others = [i for i in range(spec.n) if i != spec.i0]
    layer = {}
    for combo in combinations_with_replacement(others, j):
        total = [0] * (spec.d + 1)
        for i in combo:
            for row in range(spec.d + 1):
                total[row] += spec.basis[i][row]
        if any(t != j for t in total):
            continue
        counts = [0] * spec.n
        for i in combo:
            counts[i] += 1
        weight = factorial(j)
        for c in counts:
            weight //= factorial(c)
        a_exp = list(counts)
        a_exp[spec.i0] -= j + 1
        coeff = Fraction(weight if j % 2 == 0 else -weight)
        layer[tuple(a_exp)] = layer.get(tuple(a_exp), Fraction(0)) + coeff
    return {k: v for k, v in layer.items() if v}


def test_line_series_low_order_coefficients(line):
    spec, _ = line
    series = period_series(spec, 6)
    zero_b = (0, 0, 0)
    expected = {
        ((-1, 0, 0), zero_b): 1,
        ((-3, 1, 1), zero_b): 2,
        ((-5, 2, 2), zero_b): 6,
        ((-7, 3, 3), zero_b): 20,
    }
    assert series.terms == {k: Fraction(v) for k, v in expected.items()}
    assert series.truncation == 6


def test_leading_term_is_always_the_reciprocal(line):
    spec, _ = line
    for order in (0, 1, 4):
        series = period_series(spec, order)
        lead = ((-1, 0, 0), (0, 0, 0))
        assert series.terms[lead] == 1


def test_plane_series_matches_brute_force_oracle(plane):
    spec, _ = plane
    series = period_series(spec, 6)
    zero_b = (0,) * spec.n
    for j in range(7):
        expected = brute_force_layer(spec, j)
        got = {
            a: c for (a, b), c in series.terms.items()
            if expansion_index(a, series.i0) == j}
        assert got == expected

    # degree-3 layer spot check, hand-enumerated: the products of three
    # boundary monomials summing to (3,3,3) each carry coefficient -3!
    spot = [0] * spec.n
    spot[spec.i0] = -4
    for i in (1, 4, 7):
        spot[i] += 1
    assert series.terms[(tuple(spot), zero_b)] == -6


def test_line_series_equals_closed_form(line):
    spec, _ = line
    series = period_series(spec, 12)
    closed = closed_form_series_p1(6)
    assert series == closed


def test_closed_form_coefficients_are_central_binomials():
    closed = closed_form_series_p1(20)
    zero_b = (0, 0, 0)
    for k in range(21):
        assert closed.terms[((-1 - 2 * k, k, k), zero_b)] == comb(2 * k, k)
    assert closed_form_series_p1(0).terms == {((-1, 0, 0), zero_b): 1}


def test_series_homogeneity(line, plane):
    for spec, _ in (line, plane):
        series = period_series(spec, 5)
        assert {sum(a) for a, _ in series.terms} == {-1}
        only_negative = {
            i for a, _ in series.terms.items()
            for i, e in enumerate(a[0]) if e < 0}
        assert only_negative <= {spec.i0}


# ---------------------------------------------------------------------------
# Derivative generating series
# ---------------------------------------------------------------------------


def test_first_derivative_of_reciprocal():
    inv = LaurentSeries(3, 0, {((-1, 0, 0), (0, 0, 0)): 1}, truncation=None)
    phi = derivative_generating_series(inv, 1, 10)
    assert phi.terms == {((-2, 0, 0), (1, 0, 0)): Fraction(-1)}


def test_first_derivative_matches_termwise_differentiation(line):
    spec, _ = line
    base = period_series(spec, 6)
    phi = derivative_generating_series(base, 1, 4)
    # oracle: differentiate the layer data directly
    oracle = pruned_to(derivative_a(base, 1), 4)
    assert b_coefficient(phi, (0, 1, 0)) == oracle
    # d/da1 of the closed expansion: a0^-3 (2 a2 + 12 a1 a2^2 / a0^2 + ...)
    assert oracle.terms[((-3, 0, 1), (0, 0, 0))] == 2
    assert oracle.terms[((-5, 1, 2), (0, 0, 0))] == 12


def test_second_derivative_is_symmetric(line):
    spec, _ = line
    base = period_series(spec, 6)
    phi = derivative_generating_series(base, 2, 4)
    mixed = pruned_to(derivative_a(derivative_a(base, 1), 2), 4)
    # coefficient of b1 b2 collects both derivative orders
    assert b_coefficient(phi, (0, 1, 1)) == mixed.scale(2)
    assert phi.b_degree() == 2
    assert {sum(a) for a, _ in phi.terms} == {-3}


@pytest.mark.parametrize("d,order", [(1, 10), (2, 5), (3, 3)])
def test_generating_series_coefficients_are_ints(d, order):
    """The period coefficients are ints, and so are their derivatives and
    the sums of those, printed and hashed as the equal Fractions would be."""
    base = period_series(build_projective_model(d), order)
    for p in (1, 2, 3):
        phi = derivative_generating_series(base, p, order - p)
        assert phi.terms
        assert all(type(c) is int for c in phi.terms.values())


def test_generating_series_requires_enough_truncation(line):
    spec, _ = line
    base = period_series(spec, 4)
    with pytest.raises(ValueError):
        derivative_generating_series(base, 2, 3)


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------


def test_line_system_annihilates_series(line):
    spec, rels = line
    system = build_tautological_system(spec, rels)
    report = verify_annihilation(system, period_series(spec, 10))
    assert report.all_zero
    assert report.verified_order == 8


def test_line_recurrence_oracle(line):
    """Independent check of the toric annihilation: the layer coefficients
    satisfy c_k * k^2 = c_{k-1} * 2k(2k-1)."""
    spec, _ = line
    series = period_series(spec, 20)
    zero_b = (0, 0, 0)
    coeff = {k: series.terms[((-1 - 2 * k, k, k), zero_b)] for k in range(11)}
    for k in range(1, 11):
        assert coeff[k] * k * k == coeff[k - 1] * 2 * k * (2 * k - 1)


def test_euler_residual_exactly_zero(line):
    spec, rels = line
    system = build_tautological_system(spec, rels)
    report = verify_annihilation(system, period_series(spec, 7))
    entry = report.entry("euler_a+1")
    assert entry.zero and entry.verified_order == 7


def test_first_derivative_system_pipeline(line):
    spec, rels = line
    base = period_series(spec, 11)
    phi = derivative_generating_series(base, 1, 10)
    report = verify_annihilation(build_scalar_system(spec, rels, 1), phi)
    assert report.all_zero
    assert report.verified_order == 8


def test_insufficient_truncation_is_reported_not_raised(line):
    spec, rels = line
    system = build_tautological_system(spec, rels)
    report = verify_annihilation(system, period_series(spec, 1))
    assert report.verified_order == -1  # toric needs two orders of headroom


# ---------------------------------------------------------------------------
# Closed-form derivative signs at the Fermat section
# ---------------------------------------------------------------------------


def test_fermat_derivative_report():
    report = fermat_derivative_check_p1()
    assert report.ok
    first, second, third = report.probes
    assert first.variable == 0 and first.vanishes
    assert first.prefactor_value == 0 and first.base_value == -4
    assert second.variable == 1 and not second.vanishes
    assert second.prefactor_value == 2
    # away from the Fermat point the derivative stops vanishing
    assert third.point[0] == 3
    assert third.prefactor_value == -3 and third.base_value == 5


# ---------------------------------------------------------------------------
# Cached period family
# ---------------------------------------------------------------------------


def test_period_family_caches_true_derivatives(line):
    from tautsys.periods import PeriodFamily

    spec, _ = line
    family = PeriodFamily(spec, 8)
    assert family.cycle == "torus"
    assert family.base == period_series(spec, 8)
    for alpha in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 1)]:
        cached = family.derivative(alpha)
        oracle = family.base
        for i, count in enumerate(alpha):
            for _ in range(count):
                oracle = derivative_a(oracle, i)
        assert cached == oracle
        assert family.derivative(alpha) is cached  # memoized
