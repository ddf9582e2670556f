"""Fast paths cross-checked against the slow paths they replace.

`period_series` walks each fiber directly; the state-growth loop below is
the multiset enumeration it replaced, kept as an independent reference.
Internal series results skip the validating constructor; the seeded
battery checks that every such result is still canonical.  The system
builders write each operator's terms directly and treat every p in one
loop; the operator-arithmetic builders below, with one branch per p, are
the references they must reproduce label for label.  `fourier` normal
orders each term's image in one pass; the per-term composition it replaced
is the reference on every system operator and a seeded battery.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautsys.model import build_projective_model, lattice_relations
from tautsys.periods import derivative_vector_solution, period_series
from tautsys.serialize import series_to_obj
from tautsys.series import LaurentSeries
from tautsys.systems import (VectorSolution, build_scalar_system,
                             build_tautological_system, build_vector_system,
                             scalarize, symmetry_matrix, vectorize)
from tautsys.weyl import (DUAL_PAIR, WeylOperator, apply_operator, compose,
                          coord_a, coord_b, d_a, d_b, fourier)


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


# ---------------------------------------------------------------------------
# System builders against operator-arithmetic references
# ---------------------------------------------------------------------------


def ref_toric(n, rel):
    zero = (0,) * n
    return (WeylOperator(n, {(zero, zero, rel.positive, zero): 1})
            - WeylOperator(n, {(zero, zero, rel.negative, zero): 1}))


def ref_euler(n, coord, deriv):
    out = WeylOperator.zero(n)
    for i in range(n):
        out = out + coord(n, i) * deriv(n, i)
    return out


def ref_first_order(n, matrix, coord, deriv):
    out = WeylOperator.zero(n)
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                out = out + matrix[i][j] * (coord(n, i) * deriv(n, j))
    return out


def ref_symmetry(spec, k, l, couple_b=False):
    matrix = symmetry_matrix(spec, k, l)
    op = ref_first_order(spec.n, matrix, coord_a, d_a)
    if couple_b:
        op = op + ref_first_order(spec.n, matrix, coord_b, d_b)
    return op


def ref_dedup(pairs):
    seen, out = set(), []
    for label, op in pairs:
        key = (op.families, tuple(sorted(op.terms.items())))
        if key not in seen:
            seen.add(key)
            out.append((label, op))
    return out


def generators(d):
    return [(k, l) for k in range(d + 1) for l in range(d + 1)]


def ref_scalar_families(spec, p):
    """(kind, beta_e, [(label, operator)]) of every family but the toric
    one, which alone depends on the relations."""
    n = spec.n
    if p == 0:
        pairs = [(f"symmetry[{k},{l}]", ref_symmetry(spec, k, l))
                 for k, l in generators(spec.d)]
        pairs.append(("euler_a+1", ref_euler(n, coord_a, d_a) + 1))
        return "base", Fraction(1), pairs
    pairs = [(f"symmetry[{k},{l}]", ref_symmetry(spec, k, l, couple_b=True))
             for k, l in generators(spec.d)]
    pairs.append((f"euler_a+{1 + p}", ref_euler(n, coord_a, d_a) + (1 + p)))
    pairs.append((f"euler_b-{p}", ref_euler(n, coord_b, d_b) - p))
    for combo in combinations_with_replacement(range(n), p + 1):
        op = WeylOperator.const(n, 1)
        for i in combo:
            op = op * d_b(n, i)
        pairs.append((f"bder{list(combo)}", op))
    for u in range(n):
        for v in range(u + 1, n):
            for rest in combinations_with_replacement(range(n), p - 1):
                tail = WeylOperator.const(n, 1)
                for i in rest:
                    tail = tail * d_b(n, i)
                left = d_a(n, u) * d_b(n, v) * tail
                right = d_a(n, v) * d_b(n, u) * tail
                pairs.append((f"mixed[{u},{v}]{list(rest)}", left - right))
    return "scalar", Fraction(1 + p), pairs


def ref_vector_system(spec, rels, p):
    """(keys, [(label, parts)]) with one branch per p."""
    n = spec.n
    rows = []
    matrices = {g: symmetry_matrix(spec, *g) for g in generators(spec.d)}
    if p == 1:
        keys = tuple(range(n))
        for rel in rels:
            toric = ref_toric(n, rel)
            for k in keys:
                rows.append((f"toric{list(rel.vector)}@{k}", ((k, toric),)))
        for (gk, gl), matrix in matrices.items():
            sym = ref_symmetry(spec, gk, gl)
            for k in keys:
                parts = [(k, sym)]
                for j in range(n):
                    if matrix[k][j]:
                        parts.append((j, WeylOperator.const(n, matrix[k][j])))
                rows.append((f"symmetry[{gk},{gl}]@{k}", tuple(parts)))
        grading = ref_euler(n, coord_a, d_a) + 2
        for k in keys:
            rows.append((f"euler@{k}", ((k, grading),)))
        for i in range(n):
            for j in range(i + 1, n):
                rows.append((f"cross[{i},{j}]",
                             ((j, d_a(n, i)), (i, -1 * d_a(n, j)))))
        return keys, rows
    keys = tuple((l, k) for l in range(n) for k in range(n))
    for rel in rels:
        toric = ref_toric(n, rel)
        for key in keys:
            rows.append((f"toric{list(rel.vector)}@{key}", ((key, toric),)))
    for (gk, gl), matrix in matrices.items():
        sym = ref_symmetry(spec, gk, gl)
        for (l, k) in keys:
            parts = [((l, k), sym)]
            for j in range(n):
                if matrix[l][j]:
                    parts.append(((j, k), WeylOperator.const(n, matrix[l][j])))
                if matrix[k][j]:
                    parts.append(((l, j), WeylOperator.const(n, matrix[k][j])))
            rows.append((f"symmetry[{gk},{gl}]@{(l, k)}", tuple(parts)))
    grading = ref_euler(n, coord_a, d_a) + 3
    for key in keys:
        rows.append((f"euler@{key}", ((key, grading),)))
    one = WeylOperator.const(n, 1)
    for l in range(n):
        for k in range(l + 1, n):
            rows.append((f"transpose[{l},{k}]",
                         (((l, k), one), ((k, l), -1 * one))))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                rows.append((f"cross[{i},{j};{k}]",
                             (((j, k), d_a(n, i)), ((k, i), -1 * d_a(n, j)))))
    return keys, rows


def ref_scalarize(solution):
    n = solution.n
    total = None
    for key, series in solution.components.items():
        exponent = [0] * n
        for i in ((key,) if solution.p == 1 else key):
            exponent[i] += 1
        piece = series.mul_b_monomial(exponent)
        total = piece if total is None else total + piece
    return total


def ref_vectorize(series, p):
    n = series.n
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if p == 1:
        return {k: series.b_coefficient(unit[k]) for k in range(n)}
    out = {}
    for l in range(n):
        for k in range(n):
            coefficient = series.b_coefficient(
                [u + v for u, v in zip(unit[l], unit[k])])
            out[(l, k)] = (coefficient if l == k
                           else coefficient.scale(Fraction(1, 2)))
    return out


def ref_derivative_components(base, p):
    n = base.n
    if p == 1:
        return {k: base.derivative_a(k) for k in range(n)}
    return {(l, k): base.derivative_a(l).derivative_a(k)
            for l in range(n) for k in range(n)}


# (d, ordering, degree bounds, scalar orders p, vector orders p)
BUILDER_CASES = [(1, "grlex", (2, 3), range(4), (1, 2)),
                 (1, "interior-first", (2, 3), range(4), (1, 2)),
                 (2, "interior-first", (2, 3), range(4), (1, 2)),
                 (3, "grlex", (2,), range(2), (1,))]


@pytest.mark.parametrize("d,ordering,bounds,scalar_ps,vector_ps",
                         BUILDER_CASES)
def test_system_builders_match_operator_arithmetic_references(
        d, ordering, bounds, scalar_ps, vector_ps):
    spec = build_projective_model(d, ordering=ordering)
    relation_sets = [lattice_relations(spec, bound) for bound in bounds]
    for p in scalar_ps:
        kind, beta_e, families = ref_scalar_families(spec, p)
        for rels in relation_sets:
            system = build_scalar_system(spec, rels, p)
            toric = [(f"toric{list(rel.vector)}", ref_toric(spec.n, rel))
                     for rel in rels]
            assert (system.kind, system.p, system.beta_e) == (kind, p, beta_e)
            assert system.labelled() == ref_dedup(toric + families)
            if p == 0 and d == 1:
                assert build_tautological_system(spec, rels) == system
    for p in vector_ps:
        for rels in relation_sets:
            system = build_vector_system(spec, rels, p)
            keys, rows = ref_vector_system(spec, rels, p)
            assert (system.p, system.keys) == (p, keys)
            assert [(eq.label, eq.parts) for eq in system.equations] == rows


@pytest.mark.parametrize("d,order", [(1, 10), (2, 5)])
def test_component_maps_match_per_p_references(d, order):
    spec = build_projective_model(d, ordering="interior-first")
    base = period_series(spec, order).scale(Fraction(3, 7))
    for p in (1, 2):
        solution = derivative_vector_solution(base, p)
        reference = ref_derivative_components(base, p)
        common = min(s.truncation for s in reference.values())
        reference = {k: s.pruned_to(common) for k, s in reference.items()}
        assert list(solution.components) == list(reference)
        assert solution.components == reference
        phi = scalarize(solution)
        assert phi == ref_scalarize(solution)
        assert phi.truncation == ref_scalarize(solution).truncation
        assert vectorize(phi, p).components == ref_vectorize(phi, p)
        partial = VectorSolution(n=spec.n, p=p, components=dict(
            list(solution.components.items())[1::3]))
        assert scalarize(partial) == ref_scalarize(partial)


# ---------------------------------------------------------------------------
# Fourier transform against per-term composition
# ---------------------------------------------------------------------------


def ref_fourier(op):
    """Compose each term's dual derivative part with its dual coordinate
    part and add the images one at a time."""
    dual = DUAL_PAIR[op.families]
    n = op.n
    zero = (0,) * n
    out = WeylOperator.zero(n, dual)
    for (c1, c2, d1, d2), coeff in op.terms.items():
        sign = -1 if (sum(d1) + sum(d2)) % 2 else 1
        deriv_part = WeylOperator(n, {(zero, zero, c1, c2): coeff * sign},
                                  dual)
        coord_part = WeylOperator(n, {(d1, d2, zero, zero): 1}, dual)
        out = out + compose(deriv_part, coord_part)
    return out


# (d, degree bounds, scalar orders p)
FOURIER_CASES = [(1, (2, 3), range(4)), (2, (2, 3), range(4)),
                 (3, (2,), range(2))]


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,ps", FOURIER_CASES)
def test_fourier_matches_per_term_composition_on_systems(d, bounds, ps,
                                                         ordering):
    spec = build_projective_model(d, ordering=ordering)
    seen = set()
    for bound in bounds:
        relations = lattice_relations(spec, bound)
        for p in ps:
            seen.update(build_scalar_system(spec, relations, p).operators)
    for op in seen:
        image = fourier(op)
        assert image == ref_fourier(op)
        assert image.families == ("zeta", "xi")
        assert fourier(image) == ref_fourier(image)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    families = draw(st.sampled_from(sorted(DUAL_PAIR)))
    exponents = st.tuples(*(st.integers(0, 3) for _ in range(n)))
    terms = draw(st.dictionaries(
        st.tuples(exponents, exponents, exponents, exponents), rationals,
        max_size=5))
    return WeylOperator(n, terms, families)


@battery
@given(operators())
def test_fourier_matches_per_term_composition_on_random_operators(op):
    image = fourier(op)
    assert image == ref_fourier(op)
    assert image.families == DUAL_PAIR[op.families]
    assert fourier(image) == ref_fourier(ref_fourier(op))
