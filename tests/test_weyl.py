"""Normal ordering, series action, and the Fourier transform."""

import pytest
from handcoded import pruned_to
from hypothesis import given, settings
from hypothesis import strategies as st

from tautsys import serialize
from tautsys.exact import FamilyError, SparsePoly
from tautsys.series import LaurentSeries
from tautsys.weyl import (WeylOperator, commutator, compose, coord_a, coord_b,
                          d_a, d_b, euler_a, euler_b, fourier)


def test_compose_canonical_commutator():
    n = 2
    # D_{a1} a1 = a1 D_{a1} + 1
    left = compose(d_a(n, 1), coord_a(n, 1))
    assert left == coord_a(n, 1) * d_a(n, 1) + 1
    # already normal ordered
    assert compose(coord_a(n, 1), d_a(n, 1)) == coord_a(n, 1) * d_a(n, 1)


def test_compose_euler_degree_shift():
    # [sum_i a_i D_i, D_1] = -D_1: differentiating shifts homogeneity by one
    n = 3
    assert commutator(euler_a(n), d_a(n, 1)) == -1 * d_a(n, 1)


def test_compose_kronecker_table():
    n = 2
    for i in range(n):
        for j in range(n):
            got = commutator(d_a(n, i), coord_a(n, j))
            assert got == WeylOperator.const(n, 1 if i == j else 0)
            got_b = commutator(d_b(n, i), coord_b(n, j))
            assert got_b == WeylOperator.const(n, 1 if i == j else 0)
            assert commutator(d_a(n, i), coord_b(n, j)).is_zero()


def test_operator_arity_is_an_int():
    """`n` goes through `operator.index`: a float is refused, not kept to
    fail later in JSON, and `True` is stored as the int 1."""
    term = {((1, 0), (0, 0), (0, 1), (0, 0)): 1}
    for wrong in (2.0, "2"):
        with pytest.raises(TypeError):
            WeylOperator(wrong, term)
    one = WeylOperator(True, {((1,), (0,), (0,), (2,)): 1})
    assert type(one.n) is int and one.n == 1
    assert one == WeylOperator(1, {((1,), (0,), (0,), (2,)): 1})
    assert serialize.dumps(one) == serialize.dumps(
        WeylOperator(1, {((1,), (0,), (0,), (2,)): 1}))


def a0_inverse(n=3):
    a_exp = tuple(-1 if i == 0 else 0 for i in range(n))
    return LaurentSeries(n, 0, {(a_exp, (0,) * n): 1}, truncation=None)


def test_apply_euler_annihilates_reciprocal():
    n = 3
    out = (euler_a(n) + 1).apply(a0_inverse(n))
    assert out.is_zero()
    assert out.truncation is None


def test_apply_second_derivatives_kill_reciprocal():
    n = 3
    op = d_a(n, 1) * d_a(n, 2)
    assert op.apply(a0_inverse(n)).is_zero()


def test_apply_toric_on_truncated_series():
    from tautsys.periods import closed_form_series_p1

    series = closed_form_series_p1(3)  # exact through expansion index 7
    n = 3
    op = d_a(n, 0) * d_a(n, 0) - d_a(n, 1) * d_a(n, 2)
    residual = op.apply(series)
    assert residual.is_zero()
    # two non-distinguished derivatives reduce the certified frontier by 2
    assert residual.truncation == series.truncation - 2


def test_apply_polynomial_input_is_exact():
    n = 2
    poly = SparsePoly("a", n, {(2, 0): 1})
    out = (euler_a(n)).apply(poly)
    assert out == LaurentSeries(n, 0, {((2, 0), (0, 0)): 2})
    assert out.truncation is None


def test_apply_rejects_foreign_families():
    with pytest.raises(FamilyError):
        euler_a(2).apply(SparsePoly("x", 2, {(1, 0): 1}))


def test_fourier_euler_a_constant():
    # sum a_i D_{a_i} + 2 maps to -sum z_i D_{z_i} - n + 2
    n = 3
    image = fourier(euler_a(n) + 2)
    dual = ("zeta", "xi")
    expected = WeylOperator.const(n, -n + 2, dual)
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        zero = (0,) * n
        expected = expected + WeylOperator(
            n, {(unit, zero, unit, zero): -1}, dual)
    assert image == expected


def test_fourier_euler_b_constant():
    # sum b_i D_{b_i} - 1 maps to -sum xi_i D_{xi_i} - n - 1
    n = 3
    image = fourier(euler_b(n) - 1)
    dual = ("zeta", "xi")
    expected = WeylOperator.const(n, -n - 1, dual)
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        zero = (0,) * n
        expected = expected + WeylOperator(
            n, {(zero, unit, zero, unit): -1}, dual)
    assert image == expected


def test_fourier_pure_derivative_to_symbol():
    n = 3
    op = d_a(n, 0) * d_a(n, 0) - d_a(n, 1) * d_a(n, 2)
    image = fourier(op)
    zero = (0,) * n
    expected = (WeylOperator(n, {((2, 0, 0), zero, zero, zero): 1},
                             ("zeta", "xi"))
                - WeylOperator(n, {((0, 1, 1), zero, zero, zero): 1},
                               ("zeta", "xi")))
    assert image == expected


@st.composite
def operators(draw, n=2):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = (
            tuple(draw(st.integers(0, 2)) for _ in range(n)),
            tuple(draw(st.integers(0, 1)) for _ in range(n)),
            tuple(draw(st.integers(0, 2)) for _ in range(n)),
            tuple(draw(st.integers(0, 1)) for _ in range(n)),
        )
        terms[key] = draw(st.fractions(min_value=-3, max_value=3,
                                       max_denominator=4))
    return WeylOperator(2, terms)


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), operators())
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=40, deadline=None)
@given(operators(), operators())
def test_fourier_is_an_algebra_map(a, b):
    assert fourier(compose(a, b)) == compose(fourier(a), fourier(b))


@settings(max_examples=40, deadline=None)
@given(operators())
def test_fourier_twice_is_parity(op):
    twice = fourier(fourier(op))
    expected_terms = {}
    for (c1, c2, e1, e2), coeff in op.terms.items():
        sign = -1 if (sum(c1) + sum(c2) + sum(e1) + sum(e2)) % 2 else 1
        expected_terms[(c1, c2, e1, e2)] = coeff * sign
    assert twice == WeylOperator(op.n, expected_terms, op.families)


@st.composite
def truncated_series(draw, n=2):
    terms = {}
    trunc = draw(st.integers(2, 5))
    for _ in range(draw(st.integers(0, 4))):
        tail = tuple(draw(st.integers(0, 2)) for _ in range(n - 1))
        head = draw(st.integers(-3, 1))
        b_exp = tuple(draw(st.integers(0, 1)) for _ in range(n))
        terms[((head,) + tail, b_exp)] = draw(
            st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return LaurentSeries(n, 0, terms, truncation=trunc)


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), truncated_series())
def test_apply_is_a_module_action(a, b, series):
    chained = a.apply(b.apply(series))
    direct = compose(a, b).apply(series)
    common = chained.truncation
    if direct.truncation is not None:
        common = (direct.truncation if common is None
                  else min(common, direct.truncation))
    assert pruned_to(chained, common) == pruned_to(direct, common)
