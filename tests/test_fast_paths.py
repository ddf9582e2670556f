"""Fast paths cross-checked against the slow paths they replace.

`period_series` walks each fiber directly; the state-growth loop below is
the multiset enumeration it replaced, kept as an independent reference.
Internal series results skip the validating constructor; the seeded
battery checks that every such result is still canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautsys.model import build_projective_model
from tautsys.periods import period_series
from tautsys.serialize import series_to_obj
from tautsys.series import LaurentSeries
from tautsys.weyl import WeylOperator, apply_operator


def state_growth_period_series(spec, order):
    """Grow every degree-j multiset of non-distinguished basis monomials one
    factor at a time, keeping those that can still reach the interior
    exponent, and emit the ones that hit it with (-1)^j times their count."""
    n, i0, d = spec.n, spec.i0, spec.d
    others = [i for i in range(n) if i != i0]
    terms = {}
    zero_b = (0,) * n

    def emit(j, a_counts, count):
        a_exp = list(a_counts)
        a_exp[i0] -= j + 1
        terms[(tuple(a_exp), zero_b)] = count if j % 2 == 0 else -count

    state = {(0,) * n: 1}
    emit(0, (0,) * n, 1)
    for j in range(1, order + 1):
        grown = {}
        for a_counts, count in state.items():
            for i in others:
                key = a_counts[:i] + (a_counts[i] + 1,) + a_counts[i + 1:]
                grown[key] = grown.get(key, 0) + count
        remaining = order - j
        state = {}
        for a_counts, count in grown.items():
            torus = [-j] * (d + 1)
            for i, e in enumerate(a_counts):
                if e:
                    for row in range(d + 1):
                        torus[row] += e * spec.basis[i][row]
            if all(t == 0 for t in torus):
                emit(j, a_counts, count)
            if all(-remaining * d <= t <= remaining for t in torus):
                state[a_counts] = count
    return LaurentSeries(n, i0, terms, truncation=order)


def assert_canonical(series):
    """A raw-built series equals its re-validated copy, holds no zero and
    no key beyond its truncation."""
    again = LaurentSeries(series.n, series.i0, series.terms, series.truncation)
    assert series == again
    assert all(series.terms.values())
    if series.truncation is not None:
        assert all(series.index_of(a) <= series.truncation
                   for a, _ in series.terms)


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,top", [(1, 30), (2, 8), (3, 4)])
def test_period_series_matches_state_growth_reference(d, top, ordering):
    spec = build_projective_model(d, ordering=ordering)
    for order in range(top + 1):
        fast = period_series(spec, order)
        slow = state_growth_period_series(spec, order)
        assert fast == slow
        assert fast.truncation == slow.truncation == order
        assert series_to_obj(fast) == series_to_obj(slow)
        assert_canonical(fast)


# ---------------------------------------------------------------------------
# Seeded battery over the raw constructor
# ---------------------------------------------------------------------------

N = 3
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
truncations = st.one_of(st.none(), st.integers(0, 5))


@st.composite
def series(draw, i0=None, truncation=None):
    i0 = draw(st.integers(0, N - 1)) if i0 is None else i0
    keys = st.tuples(
        st.tuples(*(st.integers(-3, 1) if i == i0 else st.integers(0, 3)
                    for i in range(N))),
        st.tuples(*(st.integers(0, 2) for _ in range(N))))
    terms = draw(st.dictionaries(keys, rationals, max_size=8))
    trunc = draw(truncations) if truncation is None else truncation
    return LaurentSeries(N, i0, terms, trunc)


@st.composite
def series_pairs(draw):
    i0 = draw(st.integers(0, N - 1))
    first, second = draw(st.lists(st.integers(0, 5), min_size=2,
                                  max_size=2, unique=True))
    return (draw(series(i0=i0, truncation=first)),
            draw(series(i0=i0, truncation=second)))


battery = settings(max_examples=60, deadline=None, derandomize=True)


@battery
@given(series_pairs())
def test_add_with_unequal_truncations_is_canonical(pair):
    left, right = pair
    total = left + right
    assert_canonical(total)
    assert total.truncation == min(left.truncation, right.truncation)
    assert_canonical(left - left)
    assert (left - left).is_zero()


@battery
@given(series(), st.integers(0, N - 1))
def test_derivative_is_canonical_at_and_away_from_i0(s, index):
    derived = s.derivative_a(index)
    assert_canonical(derived)
    assert_canonical(s.derivative_a(s.i0))


@battery
@given(series(), st.lists(rationals, min_size=N, max_size=N))
def test_substitute_b_is_canonical(s, point):
    assert_canonical(s.substitute_b(point))


@battery
@given(series(), st.integers(0, N - 1), st.integers(0, N - 1), rationals)
def test_substitute_b_drops_cancelled_terms(s, k, l, value):
    assume(k != l)
    unit_k = [1 if i == k else 0 for i in range(N)]
    unit_l = [1 if i == l else 0 for i in range(N)]
    difference = s.mul_b_monomial(unit_k) - s.mul_b_monomial(unit_l)
    assert_canonical(difference)
    point = [Fraction(1)] * N
    point[k] = point[l] = value
    cancelled = difference.substitute_b(point)
    assert_canonical(cancelled)
    assert cancelled.is_zero()


@battery
@given(series(), truncations)
def test_pruned_and_sliced_series_are_canonical(s, truncation):
    assert_canonical(s.pruned_to(truncation))
    for b_exp in {b for _, b in s.terms}:
        assert_canonical(s.b_coefficient(b_exp))


@st.composite
def raising_operators(draw, i0):
    """Operators whose every term raises the expansion index."""
    others = [i for i in range(N) if i != i0]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        coord = [0] * N
        coord[draw(st.sampled_from(others))] += 1 + draw(st.integers(0, 1))
        coord[i0] = draw(st.integers(0, 2))
        deriv = [0] * N
        deriv[i0] = draw(st.integers(0, 2))
        b_deriv = [draw(st.integers(0, 1)) for _ in range(N)]
        key = (tuple(coord), (0,) * N, tuple(deriv), tuple(b_deriv))
        terms[key] = draw(rationals.filter(bool))
    return WeylOperator(N, terms)


@battery
@given(st.data())
def test_apply_operator_with_positive_shift_is_canonical(data):
    s = data.draw(series(truncation=data.draw(st.integers(0, 5))))
    op = data.draw(raising_operators(s.i0))
    out = apply_operator(op, s)
    assert out.truncation > s.truncation
    assert_canonical(out)
