"""Exact arithmetic layer: polynomials and the fraction-free solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautsys.exact import (FamilyError, Inconsistent, LinearSystem, PoleError,
                           Solution, SparsePoly, add_term, replay_witness,
                           solve_exact)
from tautsys.membership import derivative_query
from tautsys.model import LatticeRelation, ModelSpec, build_projective_model
from tautsys.periods import (PeriodFamily, derivative_generating_series,
                             period_series)
from tautsys.series import LaurentSeries
from tautsys.weyl import WeylOperator


def x_poly(terms):
    return SparsePoly("x", 2, terms)


def test_add_term_keeps_ints_and_fractions_apart():
    """A sum of ints stays an int and a sum with a Fraction stays a
    Fraction; a key that cancels is dropped."""
    terms = {}
    for key, coeff in [("x", 3), ("y", -2), ("x", 4), ("y", 2)]:
        add_term(terms, key, coeff)
    assert terms == {"x": 7} and type(terms["x"]) is int
    add_term(terms, "z", Fraction(4, 2))
    add_term(terms, "x", Fraction(1, 2))
    assert terms == {"x": Fraction(15, 2), "z": 2}
    assert all(type(c) is Fraction for c in terms.values())


def test_monomial_product():
    p = x_poly({(2, 0): 1})
    q = x_poly({(0, 2): 1})
    assert p * q == x_poly({(2, 2): 1})


def test_additive_identity():
    p = x_poly({(2, 0): 3, (1, 1): Fraction(-1, 2)})
    assert p + SparsePoly.zero("x", 2) == p


def test_square_expansion():
    # (x0^2 + x1^2)^2 = x0^4 + 2 x0^2 x1^2 + x1^4, expanded by hand
    p = x_poly({(2, 0): 1, (0, 2): 1})
    assert p * p == x_poly({(4, 0): 1, (2, 2): 2, (0, 4): 1})
    assert p ** 2 == p * p


def test_family_mismatch_rejected():
    p = SparsePoly("x", 2, {(1, 0): 1})
    q = SparsePoly("b", 2, {(1, 0): 1})
    with pytest.raises(FamilyError):
        p + q
    with pytest.raises(FamilyError):
        p * q


def test_negative_exponent_only_in_a_family():
    SparsePoly("a", 2, {(-1, 0): 1})
    with pytest.raises(FamilyError):
        SparsePoly("x", 2, {(-1, 0): 1})
    with pytest.raises(FamilyError):
        SparsePoly("b", 2, {(-1, 0): 1})


LINE = build_projective_model(1)
ZERO = (0, 0, 0)

# entry point taking one length-3 exponent tuple, and the positions where
# it admits a negative entry
EXPONENT_ENTRY_POINTS = {
    "x polynomial": (lambda e: SparsePoly("x", 3, {e: 1}), ()),
    "a polynomial": (lambda e: SparsePoly("a", 3, {e: 1}), (0, 1, 2)),
    "series a-key": (lambda e: LaurentSeries(3, 1, {(e, ZERO): 1}), (1,)),
    "series b-key": (lambda e: LaurentSeries(3, 1, {(ZERO, e): 1}), ()),
    **{f"operator part {part}": (
        lambda e, part=part: WeylOperator(
            3, {tuple(e if i == part else ZERO for i in range(4)): 1}), ())
       for part in range(4)},
    "PeriodFamily.derivative": (PeriodFamily(LINE, 4).derivative, ()),
    "derivative_query": (lambda e: derivative_query(LINE, e), ()),
}


@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRY_POINTS))
def test_every_exponent_tuple_is_checked_alike(entry):
    """An exponent tuple is made of ints: a float or a Fraction is refused,
    never rounded; it has the length of its variable family; and it is
    negative only where the family allows it."""
    make, signed = EXPONENT_ENTRY_POINTS[entry]
    make((1, 0, 1))
    for wrong in (1.5, Fraction(3, 2)):
        with pytest.raises(TypeError):
            make((wrong, 0, 1))
    for length in (2, 4):
        with pytest.raises(ValueError):
            make((1, 0, 1, 0)[:length])
    for position in range(3):
        exponent = tuple(-1 if i == position else 1 for i in range(3))
        if position in signed:
            make(exponent)
        else:
            with pytest.raises(FamilyError):
                make(exponent)


def _model(**fields):
    return ModelSpec(**{"d": 1, "n": 3, "basis": LINE.basis, "i0": LINE.i0,
                        "ordering": LINE.ordering, **fields})


# entry point taking one shape field that 1 fits, and the field it stores
SHAPE_ENTRY_POINTS = {
    "series n": (lambda v: LaurentSeries(v, 0), "n"),
    "series i0": (lambda v: LaurentSeries(3, v), "i0"),
    "series truncation": (lambda v: LaurentSeries(3, 0, {}, v), "truncation"),
    "polynomial arity": (lambda v: SparsePoly("x", v), "arity"),
    "model d": (lambda v: _model(d=v), "d"),
    "model n": (lambda v: _model(n=v, basis=((1, 1),), i0=0), "n"),
    "model i0": (lambda v: _model(i0=v), "i0"),
}


@pytest.mark.parametrize("entry", sorted(SHAPE_ENTRY_POINTS))
def test_shape_fields_are_ints(entry):
    """A shape field goes through `operator.index`, as `WeylOperator.n`
    does: a float or a Fraction is refused, not kept to fail later or to
    reach JSON, and `True` is stored as the int 1."""
    make, field = SHAPE_ENTRY_POINTS[entry]
    assert getattr(make(1), field) == 1
    for wrong in (1.0, Fraction(1)):
        with pytest.raises(TypeError):
            make(wrong)
    stored = getattr(make(True), field)
    assert type(stored) is int and stored == 1


#: series builder taking one order that 1 fits: the period expansion's
#: order, and the generating series' order and derivative count p
ORDER_ENTRY_POINTS = {
    "period order": lambda v: period_series(LINE, v),
    "generating order": lambda v: derivative_generating_series(
        period_series(LINE, 4), 1, v),
    "generating p": lambda v: derivative_generating_series(
        period_series(LINE, 4), v, 1),
}


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRY_POINTS))
def test_series_orders_are_ints(entry):
    """An order goes through `operator.index` like a shape field: a float or
    a Fraction is refused, not stored as a truncation, and `True` builds
    the series of 1 with an int truncation."""
    make = ORDER_ENTRY_POINTS[entry]
    one = make(1)
    assert type(one.truncation) is int
    for wrong in (1.0, Fraction(1)):
        with pytest.raises(TypeError):
            make(wrong)
    stored = make(True)
    assert stored == one and type(stored.truncation) is int


def test_lattice_relation_vector_is_made_of_ints():
    assert LatticeRelation((1, -1, 0)).vector == (1, -1, 0)
    for wrong in (1.5, Fraction(3, 2)):
        with pytest.raises(TypeError):
            LatticeRelation((wrong, -wrong, 0))


def test_partial_derivative_basics():
    p = x_poly({(2, 0): 1})
    assert p.partial_derivative(0) == x_poly({(1, 0): 2})
    assert x_poly({(0, 1): 1}).partial_derivative(0).is_zero()


def test_partial_derivative_laurent_power_rule():
    inv = SparsePoly("a", 1, {(-1,): 1})
    assert inv.partial_derivative(0) == SparsePoly("a", 1, {(-2,): -1})


def test_evaluate_basics():
    p = x_poly({(2, 0): 1, (0, 2): 1})
    assert p.evaluate((1, 1)) == 2


def test_evaluate_fermat_discriminant_value():
    # a0^2 - 4 a1 a2 at the Fermat point (0, 1, 1)
    g = (SparsePoly.monomial("a", 3, (2, 0, 0))
         - 4 * SparsePoly.monomial("a", 3, (0, 1, 1)))
    assert g.evaluate((0, 1, 1)) == -4


def test_evaluate_pole():
    inv = SparsePoly("a", 2, {(-1, 0): 1})
    with pytest.raises(PoleError):
        inv.evaluate((0, 1))
    assert inv.evaluate((2, 0)) == Fraction(1, 2)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polys(draw, family="a", arity=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    low = -2 if family == "a" else 0
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(low, 3)) for _ in range(arity))
        terms[exp] = draw(small_rats)
    return SparsePoly(family, arity, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert (p + q) * r == p * r + q * r


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(0, 2))
def test_leibniz_rule(p, q, i):
    lhs = (p * q).partial_derivative(i)
    rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# solve_exact
# ---------------------------------------------------------------------------


def test_solve_one_by_one():
    system = LinearSystem.build(["q"], [((2,), 1)])
    outcome = solve_exact(system)
    assert isinstance(outcome, Solution)
    assert outcome.values == (Fraction(1, 2),)
    assert outcome.nullspace == ()


def test_solve_empty_system():
    outcome = solve_exact(LinearSystem.build([], []))
    assert isinstance(outcome, Solution)
    assert outcome.values == ()


@pytest.mark.parametrize("ncols", [1, 2, 3])
def test_solve_system_without_rows(ncols):
    """No rows: every value zero and the unit vectors span the nullspace."""
    outcome = solve_exact(LinearSystem.build(
        [f"c{j}" for j in range(ncols)], []))
    assert outcome == Solution(
        values=(Fraction(0),) * ncols,
        nullspace=tuple(tuple(Fraction(int(i == j)) for i in range(ncols))
                        for j in range(ncols)))


def test_solve_inconsistent_quadric_direction_system():
    # Certificate equations for the direction x0^2 at the Fermat section on
    # the projective line, with q restricted to its only contributing
    # graded piece: 2*alpha = 1, beta + gamma = 0, delta = 0, alpha + delta = 0.
    rows = [
        ((2, 0, 0, 0), 1),
        ((0, 1, 1, 0), 0),
        ((0, 0, 0, 1), 0),
        ((1, 0, 0, 1), 0),
    ]
    system = LinearSystem.build(["alpha", "beta", "gamma", "delta"], rows)
    outcome = solve_exact(system)
    assert isinstance(outcome, Inconsistent)
    coeffs, rhs = replay_witness(system, outcome)
    assert not any(coeffs)
    assert rhs != 0
    assert rhs == outcome.reduced_rhs


def test_solve_inconsistent_three_row_variant():
    # 2*alpha = 1, alpha + delta = 0, delta = 0 cannot hold together
    system = LinearSystem.build(
        ["alpha", "delta"],
        [((2, 0), 1), ((1, 1), 0), ((0, 1), 0)])
    outcome = solve_exact(system)
    assert isinstance(outcome, Inconsistent)
    coeffs, rhs = replay_witness(system, outcome)
    assert not any(coeffs) and rhs != 0


def test_solve_inconsistent_matches_independent_elimination():
    import sympy

    rows = [
        ((2, 0, 0, 0), 1),
        ((0, 1, 1, 0), 0),
        ((0, 0, 0, 1), 0),
        ((1, 0, 0, 1), 0),
    ]
    matrix = sympy.Matrix([list(r) for r, _ in rows])
    rhs = sympy.Matrix([b for _, b in rows])
    symbols = sympy.symbols("s0:4")
    assert sympy.linsolve((matrix, rhs), symbols) == sympy.EmptySet


def test_solve_underdetermined_returns_nullspace():
    # x + y = 1 has a line of solutions
    system = LinearSystem.build(["x", "y"], [((1, 1), 1)])
    outcome = solve_exact(system)
    assert isinstance(outcome, Solution)
    x, y = outcome.values
    assert x + y == 1
    assert len(outcome.nullspace) == 1
    vx, vy = outcome.nullspace[0]
    assert vx + vy == 0 and (vx, vy) != (0, 0)


@st.composite
def linear_systems(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    rows = []
    for _ in range(nrows):
        coeffs = tuple(draw(small_rats) for _ in range(ncols))
        rows.append((coeffs, draw(small_rats)))
    return LinearSystem.build([f"c{i}" for i in range(ncols)], rows)


@settings(max_examples=80, deadline=None)
@given(linear_systems())
def test_solve_soundness(system):
    outcome = solve_exact(system)
    if isinstance(outcome, Solution):
        for coeffs, rhs in system.rows:
            assert sum((c * v for c, v in zip(coeffs, outcome.values)),
                       start=Fraction(0)) == rhs
        for vec in outcome.nullspace:
            for coeffs, _ in system.rows:
                assert sum((c * v for c, v in zip(coeffs, vec)),
                           start=Fraction(0)) == 0
    else:
        coeffs, rhs = replay_witness(system, outcome)
        assert not any(coeffs)
        assert rhs != 0
