"""Fast paths cross-checked against the slow paths they replace.

`period_series` meets the fibers of all layers in the middle, from two
half lists joined by residue class; the depth-first fiber walk it replaced
and the state-growth multiset enumeration before that are kept as
independent references, on the projective models in both orderings and on
bases missing monomials.
Internal series results skip the validating constructor; the seeded
battery checks that every such result is still canonical.  The system
builders write each operator's terms directly and treat every p in one
loop; the operator-arithmetic builders below, with one branch per p, are
the references they must reproduce label for label.  `compose` and
`fourier` share one normal-ordering loop; a loop of each one's own, and for
`fourier` also the per-term composition, are the references on every system
operator (seeded pairs of them for `compose`), where every image must hold
`int` coefficients and serialize as its reference does, and on a seeded
battery of operators with fractional coefficients.  Period derivatives
are one falling-factorial pass per index multiset, shared by the permuted
slots of the vector components; `scalarize` adds every component into one
term map and `vectorize` splits by b-monomial in one pass.  The memo chain
of one-step derivatives (`handcoded.derivative_a`, the loop
`LaurentSeries.derivative_a` ran before it read the kernel), the
per-multiset and per-multi-index chains, the per-component contraction and
the per-slot scans are the references, on every period series of a grid
and on a seeded battery of series carrying b-terms, Fraction, int and mixed
coefficients and truncation None.
`TermMap.plus` sums any number of maps in one pass; the left fold of `+` is
its reference, and a scalar operand is a one-term series at the zero key.
`apply_operator` reads packed derivatives from a table shared by the
operators of a system; the pair-by-pair kernel it replaced is the
reference on every system operator and a seeded battery, and on every
vector equation, whose components share one table each.  The table skips
terms whose derivative is empty and settles a vanishing binomial row by
comparing its two derivatives; the accumulating loop it ran before is the
reference on every operator of every system the caps admit, on seeded
binomial rows that vanish or do not and on empty series, and maps that
count the passes over them show each vanishing toric and mixed row
settled without a sum; the memo holds each derivative one step past the
prefix that lowers its last nonzero slot.  `solve_exact`
carries the witness multipliers as integer columns of its Bareiss rows and
back-substitutes values and nullspace in one loop; the elimination with a
`Fraction` multiplier matrix and two back-substitutions is the reference on
a seeded battery of rational systems and on the certificate systems that
`membership_test` builds.  `serialize.dumps` writes indent-2 JSON in one
pass, operators and relations straight from the objects;
`json.dumps(..., indent=2)` of their `*_to_obj` forms, the call it
replaced, is the reference on the `build-system` payloads, on what the CLI
prints and writes for them, and on seeded batteries of nested values and
of checked operators and relations.
`lattice_relations` and the system builders make their relations and
operators without re-checking parts they built themselves; the validating
builders they replaced are the references on every system the caps admit,
relation by relation, operator by operator and byte for byte in JSON.
The gl action is read as the sparse entries of each generator; the dense
matrix loop `lie_action` ran before is the reference for those entries,
the matrix built from them and the symmetry entries and matrix, for every
generator at d = 1..3 in both orderings.
"""

import json
import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, lcm
from operator import add

import pytest
from handcoded import (b_coefficient, derivative_a, expansion_index,
                       mul_b_monomial, pruned_to)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tautsys.membership
from tautsys import cli, serialize
from tautsys.exact import (FamilyError, Inconsistent, LinearSystem, Solution,
                           SparsePoly, add_term, multiset, solve_exact)
from tautsys.membership import (SectionPoint, derivative_query,
                                membership_test)
from tautsys.model import (ORDERINGS, LatticeRelation, ModelSpec,
                           build_projective_model, fermat_point, lie_action,
                           lie_entries, lattice_relations)
from tautsys.periods import (PeriodFamily, derivative_generating_series,
                             derivative_vector_solution, period_series,
                             verify_annihilation)
from tautsys.serialize import operator_to_obj, series_to_obj
from tautsys.series import LaurentSeries, _raw_series
from tautsys.systems import (DiffSystem, VectorSolution, _orderings,
                             _symmetry_entries,
                             build_scalar_system, build_tautological_system,
                             build_vector_system, dual_generator_families,
                             scalarize, symmetry_matrix, vector_residual,
                             vectorize, verify_vector_system)
from tautsys.weyl import (DUAL_PAIR, DerivativeTable, WeylOperator,
                          _integral, _pack, apply_operator, compose, coord_a,
                          coord_b, d_a, d_b, euler_a, fourier, index_shift)


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


def ref_fiber_walk(spec, order):
    """Walk each layer's fiber depth first: pick the counts of the mixed
    monomials, sorted by support so that rows settle one after another,
    and let the pure powers x_r^(d+1) fill what is left of each row, which
    must be a multiple of d+1."""
    n, i0, degree = spec.n, spec.i0, spec.d + 1
    pure = [None] * degree
    mixed = []
    for i, exp in enumerate(spec.basis):
        if i == i0:
            continue
        if degree in exp:
            pure[exp.index(degree)] = i
        else:
            mixed.append((i, exp))
    # once the last mixed monomial using a row is chosen, that row's
    # remainder is final and must already be a multiple of d+1
    mixed.sort(key=lambda item: [not e for e in item[1]])
    last = [max((k + 1 for k, (_, exp) in enumerate(mixed) if exp[row]),
                default=0) for row in range(degree)]
    settled = [[row for row in range(degree) if last[row] == k]
               for k in range(len(mixed) + 1)]
    zero_b = (0,) * n
    terms = {}
    counts = [0] * n

    def walk(k, left, denominator, top):
        for row in settled[k]:
            if left[row] % degree or (left[row] and pure[row] is None):
                return
        if k == len(mixed):
            point = counts.copy()
            for row, rest in enumerate(left):
                if rest:
                    point[pure[row]] = rest // degree
                    denominator *= factorial(rest // degree)
            terms[(tuple(point), zero_b)] = top // denominator
            return
        i, exp = mixed[k]
        most = min(left[row] // e for row, e in enumerate(exp) if e)
        for c in range(most + 1):
            if c:
                left = [rest - e for rest, e in zip(left, exp)]
                denominator *= c
            counts[i] = c
            walk(k + 1, left, denominator, top)
        counts[i] = 0

    for j in range(order + 1):
        counts[i0] = -j - 1
        walk(0, [j] * degree, 1, (-1) ** j * factorial(j))
    return _raw_series(n, i0, terms, order)


def sub_bases(d):
    """Models of P^d keeping the interior monomial and some of the others,
    from the interior alone to the whole basis (every subset at d = 1,
    every seventh at d = 2): some miss pure powers, some mixed monomials."""
    full = build_projective_model(d)
    interior = (1,) * (d + 1)
    others = [exp for exp in full.basis if exp != interior]
    for size in range(len(others) + 1):
        for keep in list(combinations(others, size))[::7 ** (d - 1)]:
            basis = (interior,) + keep
            yield ModelSpec(d=d, n=len(basis), basis=basis, i0=0,
                            ordering="grlex")


def assert_same_period_series(fast, slow, order):
    assert fast == slow
    assert fast.truncation == slow.truncation == order
    assert type(fast.truncation) is int
    assert {type(c) for c in fast.terms.values()} <= {int}
    assert series_to_obj(fast) == series_to_obj(slow)
    assert_canonical(fast)


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,top", [(1, 30), (2, 14), (3, 6)])
def test_period_series_matches_fiber_walk(d, top, ordering):
    """The meet-in-the-middle join lists the terms, truncation and `int`
    coefficients of the fiber walk, layer for layer."""
    spec = build_projective_model(d, ordering=ordering)
    for order in range(top + 1):
        assert_same_period_series(period_series(spec, order),
                                  ref_fiber_walk(spec, order), order)


@pytest.mark.parametrize("d", [1, 2])
def test_period_series_matches_fiber_walk_on_sub_bases(d):
    """A row with no pure power takes only the layer its mixed use fills;
    with no mixed monomial both halves are empty, and a model of the
    interior monomial alone keeps its one-index key."""
    for spec in sub_bases(d):
        for order in range(9):
            assert_same_period_series(period_series(spec, order),
                                      ref_fiber_walk(spec, order), order)


def assert_canonical(series):
    """A raw-built series equals its re-validated copy, holds no zero and
    no key beyond its truncation."""
    again = LaurentSeries(series.n, series.i0, series.terms, series.truncation)
    assert series == again
    assert all(series.terms.values())
    if series.truncation is not None:
        assert all(expansion_index(a, series.i0) <= series.truncation
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
@given(series_pairs(), st.integers(-4, 4), rationals)
def test_add_with_unequal_truncations_is_canonical(pair, whole, fraction):
    left, right = pair
    total = left + right
    assert_canonical(total)
    assert total.truncation == min(left.truncation, right.truncation)
    assert_canonical(left - left)
    assert (left - left).is_zero()
    # a scalar adds at the zero key, cut like any index-0 term when the
    # truncation is negative, and kept when it is None
    zero = ((0,) * N,) * 2
    for s in (left, pruned_to(right, -1),
              _raw_series(N, left.i0, left.terms, None)):
        for c in (whole, fraction):
            constant = LaurentSeries(N, s.i0, {zero: c}, s.truncation)
            for result, expected in ((s + c, s.plus(constant)),
                                     (c + s, s.plus(constant)),
                                     (s - c, s.plus(-constant)),
                                     (c - s, (-s).plus(constant))):
                assert_canonical(result)
                assert result.truncation == s.truncation
                assert result == expected


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
        piece = mul_b_monomial(series, exponent)
        total = piece if total is None else total + piece
    return total


def ref_vectorize(series, p):
    n = series.n
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if p == 1:
        return {k: b_coefficient(series, unit[k]) for k in range(n)}
    out = {}
    for l in range(n):
        for k in range(n):
            coefficient = b_coefficient(
                series, [u + v for u, v in zip(unit[l], unit[k])])
            out[(l, k)] = (coefficient if l == k
                           else coefficient.scale(Fraction(1, 2)))
    return out


def ref_derivative_components(base, p):
    n = base.n
    if p == 1:
        return {k: derivative_a(base, k) for k in range(n)}
    return {(l, k): derivative_a(derivative_a(base, l), k)
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
            assert all(type(c) is int
                       for eq in system.equations
                       if eq.label.startswith("symmetry")
                       for _, op in eq.parts for c in op.terms.values())


@pytest.mark.parametrize("d,order", [(1, 10), (2, 5), (3, 3)])
def test_component_maps_match_per_p_references(d, order):
    spec = build_projective_model(d, ordering="interior-first")
    base = period_series(spec, order).scale(Fraction(3, 7))
    for p in (1, 2):
        solution = derivative_vector_solution(base, p)
        reference = ref_derivative_components(base, p)
        common = min(s.truncation for s in reference.values())
        reference = {k: pruned_to(s, common) for k, s in reference.items()}
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
# Composition and Fourier transform against their own loops
# ---------------------------------------------------------------------------


def ref_falling(value, count):
    out = 1
    for t in range(count):
        out *= value - t
    return out


def ref_commutations(deriv, coord):
    """Yield (k, scalar) over the expansion of D^deriv u^coord."""
    active = [i for i in range(len(deriv)) if deriv[i] and coord[i]]
    if not active:
        yield (0,) * len(deriv), 1
        return
    ranges = [range(min(deriv[i], coord[i]) + 1) for i in active]
    for choice in product(*ranges):
        k = [0] * len(deriv)
        scalar = 1
        for i, ki in zip(active, choice):
            k[i] = ki
            scalar *= comb(deriv[i], ki) * ref_falling(coord[i], ki)
        yield tuple(k), scalar


def ref_compose(left, right):
    """Normal order each pair of terms in a loop of its own."""
    assert left.n == right.n and left.families == right.families
    out = {}
    for (c1, c2, d1, d2), lc in left.terms.items():
        for (e1, e2, f1, f2), rc in right.terms.items():
            base = lc * rc
            for k1, s1 in ref_commutations(d1, e1):
                for k2, s2 in ref_commutations(d2, e2):
                    coeff = base * s1 * s2
                    if not coeff:
                        continue
                    key = (
                        tuple(a + b - k for a, b, k in zip(c1, e1, k1)),
                        tuple(a + b - k for a, b, k in zip(c2, e2, k2)),
                        tuple(a - k + b for a, b, k in zip(d1, f1, k1)),
                        tuple(a - k + b for a, b, k in zip(d2, f2, k2)),
                    )
                    add_term(out, key, coeff)
    return WeylOperator(left.n, out, left.families)


def ref_minus(exponents, k):
    return tuple(e - j for e, j in zip(exponents, k))


def ref_fourier(op):
    """Normal order each term's image in a loop of its own."""
    out = {}
    for (c1, c2, d1, d2), coeff in op.terms.items():
        if (sum(d1) + sum(d2)) % 2:
            coeff = -coeff
        for k1, s1 in ref_commutations(c1, d1):
            for k2, s2 in ref_commutations(c2, d2):
                key = (ref_minus(d1, k1), ref_minus(d2, k2),
                       ref_minus(c1, k1), ref_minus(c2, k2))
                add_term(out, key, coeff * s1 * s2)
    return WeylOperator(op.n, out, DUAL_PAIR[op.families])


def ref_fourier_by_composition(op):
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
        out = out + ref_compose(deriv_part, coord_part)
    return out


def assert_fourier_matches_references(op):
    image = fourier(op)
    assert image == ref_fourier(op)
    assert image == ref_fourier_by_composition(op)
    assert image.families == DUAL_PAIR[op.families]
    return image


@cache
def scalar_system(d, ordering, bound, p):
    """One build of each system for the tests that only read systems."""
    spec = build_projective_model(d, ordering=ordering)
    return build_scalar_system(spec, lattice_relations(spec, bound), p)


# (d, degree bounds, scalar orders p)
FOURIER_CASES = [(1, (2, 3), range(4)), (2, (2, 3), range(4)),
                 (3, (2,), range(2))]


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,ps", FOURIER_CASES)
def test_fourier_matches_per_term_composition_on_systems(d, bounds, ps,
                                                         ordering):
    for op in system_operators(d, ordering, bounds, ps):
        image = assert_fourier_matches_references(op)
        assert image.families == ("zeta", "xi")
        assert_int_image(image, ref_fourier(op))
        back = assert_fourier_matches_references(image)
        assert_int_image(back, ref_fourier(image))


def assert_int_image(image, reference):
    """An image of integral operators equals its reference, holds only int
    coefficients and serializes as the reference does."""
    assert image == reference
    assert all(type(c) is int for c in image.terms.values())
    assert operator_to_obj(image) == operator_to_obj(reference)


def system_operators(d, ordering, bounds, ps):
    """The distinct operators of the scalar systems, in a fixed order."""
    seen = {}
    for bound in bounds:
        for p in ps:
            system = scalar_system(d, ordering, bound, p)
            for label, op in zip(system.labels, system.operators):
                seen.setdefault((label, p), op)
    return list(seen.values())


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,ps", FOURIER_CASES)
def test_compose_matches_pair_loop_on_system_operators(d, bounds, ps,
                                                       ordering):
    ops = system_operators(d, ordering, bounds, ps)
    rng = random.Random(f"compose {d} {ordering}")
    for _ in range(200):
        left, right = rng.choice(ops), rng.choice(ops)
        assert_int_image(compose(left, right), ref_compose(left, right))
        left, right = fourier(left), fourier(right)
        assert_int_image(compose(left, right), ref_compose(left, right))


@st.composite
def operators(draw, n=None, families=None, coefficients=rationals):
    n = draw(st.integers(1, 3)) if n is None else n
    families = (draw(st.sampled_from(sorted(DUAL_PAIR))) if families is None
                else families)
    exponents = st.tuples(*(st.integers(0, 3) for _ in range(n)))
    terms = draw(st.dictionaries(
        st.tuples(exponents, exponents, exponents, exponents), coefficients,
        max_size=5))
    return WeylOperator(n, terms, families)


@battery
@given(operators())
def test_fourier_matches_per_term_composition_on_random_operators(op):
    image = assert_fourier_matches_references(op)
    assert fourier(image) == ref_fourier(image)


@battery
@given(st.data())
def test_compose_matches_pair_loop_on_random_operators(data):
    left = data.draw(operators())
    right = data.draw(operators(n=left.n, families=left.families))
    assert compose(left, right) == ref_compose(left, right)


# ---------------------------------------------------------------------------
# Period derivatives against per-chain references
# ---------------------------------------------------------------------------


def ref_generating_series(base, p, order):
    """One derivative chain per multiset, summed pairwise."""
    n = base.n
    total = None
    for combo in combinations_with_replacement(range(n), p):
        derived = base
        for i in combo:
            derived = derivative_a(derived, i)
        b_exp = multiset(n, combo)
        piece = mul_b_monomial(derived.scale(_orderings(b_exp)), b_exp)
        total = piece if total is None else total + piece
    return pruned_to(total, order)


def ref_derivative(base, alpha):
    """The chain by multi-index, one variable after another."""
    derived = base
    for i, count in enumerate(alpha):
        for _ in range(count):
            derived = derivative_a(derived, i)
    return derived


def coefficient_types(series):
    return {key: type(coeff) for key, coeff in series.terms.items()}


def assert_same_series(fast, slow):
    assert fast == slow
    assert fast.truncation == slow.truncation
    assert coefficient_types(fast) == coefficient_types(slow)
    assert series_to_obj(fast) == series_to_obj(slow)


# (d, base series order); the output order is the base order minus p
DERIVATIVE_CASES = [(1, 12), (2, 5), (3, 3)]


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,order", DERIVATIVE_CASES)
def test_generating_series_matches_per_multiset_chains(d, order, ordering):
    base = period_series(build_projective_model(d, ordering=ordering),
                         order)
    for p in (1, 2, 3):
        assert_same_series(derivative_generating_series(base, p, order - p),
                           ref_generating_series(base, p, order - p))


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,order", DERIVATIVE_CASES)
def test_period_family_derivatives_match_chains(d, order, ordering):
    family = PeriodFamily(build_projective_model(d, ordering=ordering),
                          order)
    rng = random.Random(d)
    for _ in range(12):
        alpha = [0] * family.spec.n
        for _ in range(rng.randint(0, 3)):
            alpha[rng.randrange(family.spec.n)] += 1
        assert_same_series(family.derivative(alpha),
                           ref_derivative(family.base, alpha))


# The memo-chain period derivatives and the per-component contraction and
# slicing that the falling-factorial kernel, the one-map `scalarize` and the
# one-pass `vectorize` replaced, as they were written.


def ref_memo_derivative(table, combo):
    """Derivative of `table[()]` by the sorted index tuple `combo`, one
    `derivative_a` step past each memoized prefix."""
    for stop in range(1, len(combo) + 1):
        if combo[:stop] not in table:
            table[combo[:stop]] = derivative_a(table[combo[:stop - 1]],
                                               combo[stop - 1])
    return table[combo]


def ref_memo_generating_series(base, p, order):
    n = base.n
    table = {(): base}
    pieces = []
    for combo in combinations_with_replacement(range(n), p):
        b_exp = multiset(n, combo)
        pieces.append(mul_b_monomial(
            ref_memo_derivative(table, combo).scale(_orderings(b_exp)),
            b_exp))
    return pruned_to(pieces[0].plus(*pieces[1:]), order)


def ref_memo_family_derivative(table, alpha):
    combo = tuple(i for i, count in enumerate(alpha) for _ in range(count))
    return ref_memo_derivative(table, combo)


def ref_memo_vector_solution(base, p):
    table = {(): base}
    components = {slot if p > 1 else slot[0]:
                  ref_memo_derivative(table, tuple(sorted(slot)))
                  for slot in product(range(base.n), repeat=p)}
    common = min((s.truncation for s in components.values()
                  if s.truncation is not None), default=None)
    return VectorSolution(n=base.n, p=p, components={
        key: pruned_to(s, common) for key, s in components.items()})


def ref_piecewise_scalarize(solution):
    pieces = [mul_b_monomial(
                  series, multiset(solution.n,
                                   key if solution.p > 1 else (key,)))
              for key, series in solution.components.items()]
    return pieces[0].plus(*pieces[1:])


def ref_sliced_vectorize(series, p):
    """One scan of the series per slot, each the filter `b_coefficient`
    was."""
    n = series.n
    if series.b_degree() not in (None, p):
        raise ValueError("not b-homogeneous of degree p")
    zero = (0,) * n
    components = {}
    for slot in product(range(n), repeat=p):
        exponent = multiset(n, slot)
        coefficient = series._like({
            (a, zero): c for (a, b), c in series.terms.items()
            if b == exponent})
        orderings = _orderings(exponent)
        components[slot if p > 1 else slot[0]] = (
            coefficient if orderings == 1
            else coefficient.scale(Fraction(1, orderings)))
    return VectorSolution(n=n, p=p, components=components)


def assert_same_solution(fast, slow):
    assert (fast.n, fast.p) == (slow.n, slow.p)
    assert list(fast.components) == list(slow.components)
    for key, series in fast.components.items():
        assert_canonical(series)
        assert_same_series(series, slow.components[key])


def exact_base(series):
    """The same terms, claimed exact at every order."""
    return _raw_series(series.n, series.i0, series.terms, None)


# d -> the base series orders of the grid
REFERENCE_ORDERS = {1: range(31), 2: range(9), 3: range(4)}


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d", sorted(REFERENCE_ORDERS))
def test_period_derivatives_match_memo_chains(d, ordering):
    """Generating series (p 1-3, cut at the base order minus p), vector
    components, scalarize and vectorize (p 1-2) and family derivatives
    (every multi-index up to order 2 and a seeded few of order 3) match
    the memo-chain references on every order of the grid, and on the base
    series claimed exact."""
    spec = build_projective_model(d, ordering=ordering)
    n = spec.n
    rng = random.Random(d)
    alphas = [multiset(n, combo) for q in (1, 2)
              for combo in combinations_with_replacement(range(n), q)]
    for order in REFERENCE_ORDERS[d]:
        family = PeriodFamily(spec, order)
        base = family.base
        for source in (base, exact_base(base)):
            for p in (1, 2, 3):
                generating = derivative_generating_series(source, p,
                                                          order - p)
                assert_canonical(generating)
                assert_same_series(
                    generating,
                    ref_memo_generating_series(source, p, order - p))
                if p == 3:
                    continue
                assert_same_solution(vectorize(generating, p),
                                     ref_sliced_vectorize(generating, p))
                solution = derivative_vector_solution(source, p)
                assert_same_solution(solution,
                                     ref_memo_vector_solution(source, p))
                scalar = scalarize(solution)
                assert_canonical(scalar)
                assert_same_series(scalar, ref_piecewise_scalarize(solution))
                assert_same_solution(vectorize(scalar, p),
                                     ref_sliced_vectorize(scalar, p))
        table = {(): base}
        extra = [multiset(n, [rng.randrange(n) for _ in range(3)])
                 for _ in range(4)]
        for alpha in [(0,) * n] + alphas + extra:
            derived = family.derivative(alpha)
            assert family.derivative(alpha) is derived
            assert_canonical(derived)
            assert_same_series(derived,
                               ref_memo_family_derivative(table, alpha))


@st.composite
def derivable_series(draw, i0=None, truncation="any"):
    """A seeded series with b-carrying terms and negative a_{i0} exponents
    whose coefficients are Fractions, ints or a mix of both; `truncation`
    may be given, None included."""
    i0 = draw(st.integers(0, N - 1)) if i0 is None else i0
    trunc = draw(truncations) if truncation == "any" else truncation
    keys = st.tuples(
        st.tuples(*(st.integers(-3, 1) if i == i0 else st.integers(0, 3)
                    for i in range(N))),
        st.tuples(*(st.integers(0, 2) for _ in range(N))))
    fractions = LaurentSeries(
        N, i0, draw(st.dictionaries(keys, rationals, max_size=8)), trunc)
    kind = draw(st.sampled_from(("fraction", "int", "mixed")))
    if kind == "fraction":
        return fractions
    ints = LaurentSeries(N, i0, draw(st.dictionaries(
        keys, st.integers(-4, 4), max_size=8)), trunc)
    ints = _raw_series(N, i0, {key: int(c) for key, c in ints.terms.items()},
                       trunc)
    return ints if kind == "int" else ints.plus(fractions)


@st.composite
def colliding_series(draw):
    """s b_l plus a copy of s moved from a_k to a_l, times b_k: d/da_k of
    the first and d/da_l of the second land on the same generating-series
    key, and with `cancel` their coefficients sum to zero there."""
    s = draw(derivable_series())
    k, l = (i for i in range(N) if i != s.i0)
    cancel = draw(st.booleans())
    moved = {}
    for (a, b), c in s.terms.items():
        if a[k]:
            key = (a[:k] + (a[k] - 1,) + a[k + 1:], b)
            key = (key[0][:l] + (a[l] + 1,) + key[0][l + 1:], b)
            moved[key] = (Fraction(-c * a[k], a[l] + 1) if cancel
                          else draw(rationals.filter(bool)))
    unit_k, unit_l = multiset(N, (k,)), multiset(N, (l,))
    return mul_b_monomial(s, unit_l).plus(mul_b_monomial(
        LaurentSeries(N, s.i0, moved, s.truncation), unit_k))


@battery
@given(derivable_series(), st.integers(0, N - 1), st.integers(-3, 0))
def test_derivative_is_canonical_at_and_away_from_i0(s, index, lower):
    """`derivative_a` is one call of the falling-factorial kernel; the
    one-step loop it replaced is the reference at i0 and away from it, on
    truncation None and on the series cut below zero."""
    for source in (s, pruned_to(s, lower)):
        for i in (index, source.i0):
            derived = source.derivative_a(i)
            assert_canonical(derived)
            assert_same_series(derived, derivative_a(source, i))


@battery
@given(derivable_series(), st.one_of(st.none(), st.integers(-3, 5)),
       rationals)
def test_pruned_and_sliced_series_are_canonical(s, truncation, value):
    """`scale` and `b_parts` wrap their results with no scan for the cut,
    since neither can reach past the truncation, None and negative ones
    included; each part is the one-scan slice by its b-monomial."""
    for source in (s, pruned_to(s, truncation)):
        for c in (value, 3, 0):
            assert_canonical(source.scale(c))
        parts = source.b_parts()
        assert set(parts) == {b for _, b in source.terms}
        for b_exp, part in parts.items():
            assert_canonical(part)
            assert_same_series(part, b_coefficient(source, b_exp))


ZERO_SERIES = [LaurentSeries.zero(N, 1), LaurentSeries.zero(N, 0, 3)]


@battery
@given(st.one_of(derivable_series(), colliding_series()), st.integers(1, 3),
       st.integers(0, 2))
@example(ZERO_SERIES[0], 2, 0)
@example(ZERO_SERIES[1], 1, 1)
def test_generating_series_matches_memo_chain_on_random_series(
        base, p, below):
    """Terms that land on one key, from a b-carrying base, accumulate and
    cancel as in the chain; an exact base yields a series cut at `order`."""
    top = 4 if base.truncation is None else base.truncation - p
    order = top - below
    assert_same_series(derivative_generating_series(base, p, order),
                       ref_memo_generating_series(base, p, order))
    assert_canonical(derivative_generating_series(base, p, order))
    if base.truncation is not None:
        with pytest.raises(ValueError):
            derivative_generating_series(base, p, top + 1)


@battery
@given(derivable_series(), st.integers(1, 2))
@example(ZERO_SERIES[0], 2)
@example(ZERO_SERIES[1], 1)
def test_vector_solution_matches_memo_chain_on_random_series(base, p):
    assert_same_solution(derivative_vector_solution(base, p),
                         ref_memo_vector_solution(base, p))


@battery
@given(st.data(), st.integers(1, 2), truncations)
def test_scalarize_and_vectorize_match_references_on_random_series(
        data, p, truncation):
    """Components carrying b-terms land on shared keys in `scalarize`; a
    b-homogeneous series splits as the per-slot scans did, and a series of
    mixed b-degree is refused by both."""
    i0 = data.draw(st.integers(0, N - 1))
    keys = [slot if p > 1 else slot[0]
            for slot in product(range(N), repeat=p)]
    solution = VectorSolution(n=N, p=p, components={
        key: data.draw(derivable_series(i0=i0, truncation=truncation))
        for key in keys})
    scalar = scalarize(solution)
    assert_canonical(scalar)
    assert_same_series(scalar, ref_piecewise_scalarize(solution))
    mixed = data.draw(derivable_series(i0=i0, truncation=truncation))
    graded = _raw_series(N, i0, {key: c for key, c in mixed.terms.items()
                                 if sum(key[1]) == p}, truncation)
    for source in (scalar, graded):
        if len(source.b_degrees()) > 1:
            with pytest.raises(ValueError):
                vectorize(source, p)
            with pytest.raises(ValueError):
                ref_sliced_vectorize(source, p)
        else:
            assert_same_solution(vectorize(source, p),
                                 ref_sliced_vectorize(source, p))


# ---------------------------------------------------------------------------
# One-pass sums against the left fold of +
# ---------------------------------------------------------------------------


@st.composite
def x_polys(draw, arity=N):
    exponents = st.tuples(*(st.integers(0, 3) for _ in range(arity)))
    return SparsePoly("x", arity,
                      draw(st.dictionaries(exponents, rationals, max_size=5)))


@st.composite
def summands(draw):
    """One to five maps of one shape, series (with unequal and None
    truncations), x-polynomials or operators over either family pair,
    plus one map of another shape."""
    kind = draw(st.sampled_from(["series", "poly", "operator"]))
    if kind == "series":
        i0 = draw(st.integers(0, N - 1))
        same, other = series(i0=i0), series(i0=(i0 + 1) % N)
    elif kind == "poly":
        same, other = x_polys(), x_polys(arity=N + 1)
    else:
        families, dual = draw(st.sampled_from(sorted(DUAL_PAIR.items())))
        same, other = operators(N, families), operators(N, dual)
    return draw(st.lists(same, min_size=1, max_size=5)), draw(other)


@battery
@given(summands(), st.data())
def test_plus_matches_left_fold_and_checks_every_operand(maps_and_stranger,
                                                         data):
    maps, stranger = maps_and_stranger
    total, fold = maps[0].plus(*maps[1:]), reduce(add, maps)
    assert total == fold
    assert (getattr(total, "truncation", None)
            == getattr(fold, "truncation", None))
    negated = [-m for m in maps]
    cancelled = maps[0].plus(*maps[1:], *negated)
    assert cancelled.is_zero()
    assert cancelled == reduce(add, maps + negated)
    if isinstance(total, LaurentSeries):
        assert_canonical(total)
        lowest = min((m.truncation for m in maps if m.truncation is not None),
                     default=None)
        assert total.truncation == cancelled.truncation == lowest
    at = data.draw(st.integers(0, len(maps)))
    operands = [*maps[:at], stranger, *maps[at:]]
    with pytest.raises(FamilyError):
        operands[0].plus(*operands[1:])


# ---------------------------------------------------------------------------
# Packed derivative tables against the pair-by-pair kernel
# ---------------------------------------------------------------------------


def ref_apply_operator(op, target):
    """Visit every (operator term, series term) pair, multiply the falling
    factors of the pair and accumulate under a fresh tuple key."""
    if isinstance(target, SparsePoly):
        target = LaurentSeries.from_poly(target)
    if not op.terms:
        return LaurentSeries.zero(target.n, target.i0, truncation=None)
    truncation = (None if target.truncation is None
                  else target.truncation + index_shift(op, target.i0))
    out = {}
    for (c1, c2, d1, d2), oc in op.terms.items():
        for (a_exp, b_exp), sc in target.terms.items():
            factor = 1
            for m, g in zip(a_exp, d1):
                if g:
                    factor *= ref_falling(m, g)
                    if not factor:
                        break
            if not factor:
                continue
            for q, g in zip(b_exp, d2):
                if g:
                    factor *= ref_falling(q, g)
                    if not factor:
                        break
            if not factor:
                continue
            key = (
                tuple(m - g + c for m, g, c in zip(a_exp, d1, c1)),
                tuple(q - g + c for q, g, c in zip(b_exp, d2, c2)),
            )
            add_term(out, key, oc * sc * factor)
    return pruned_to(_raw_series(target.n, target.i0, out, None), truncation)


def exact_copy(series):
    """The same terms claimed exact at every order, so no residual term is
    cut away before the comparison."""
    return _raw_series(series.n, series.i0, series.terms, None)


# (d, degree bounds, {p: order of the generating series}), every bound and
# p the caps admit
APPLY_CASES = [(1, (2, 3, 4), {0: 8, 1: 6, 2: 6, 3: 6}),
               (2, (2, 3, 4), {0: 3, 1: 1, 2: 1, 3: 0}),
               (3, (2,), {0: 2, 1: 0})]


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,orders", APPLY_CASES)
def test_system_operators_hold_int_coefficients(d, bounds, orders, ordering):
    """Every coefficient of every scalar system operator is an `int`, the
    grading constants of `euler_a+(1+p)` and `euler_b-p` included, and so
    is every part of the vector systems for p = 1 and 2."""
    spec = build_projective_model(d, ordering=ordering)
    for bound in bounds:
        for p in orders:
            for label, op in scalar_system(d, ordering, bound, p).labelled():
                assert {type(c) for c in op.terms.values()} == {int}, label
            if p in (1, 2):
                system = build_vector_system(
                    spec, lattice_relations(spec, bound), p)
                for equation in system.equations:
                    for _, op in equation.parts:
                        assert {type(c) for c in op.terms.values()} == {int}


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,orders", APPLY_CASES)
def test_apply_operator_matches_pair_kernel_on_systems(d, bounds, orders,
                                                       ordering):
    """Each residual of `verify_annihilation`, read from the table the
    system shares, is the pair kernel's residual on the exact copy of the
    series cut at the residual's order.  In the CLI's ordering a private
    table per operator gives the uncut residual too."""
    spec = build_projective_model(d, ordering=ordering)
    for p, order in orders.items():
        base = period_series(spec, order + p)
        data = derivative_generating_series(base, p, order) if p else base
        exact = exact_copy(data)
        systems = [scalar_system(d, ordering, bound, p) for bound in bounds]
        # a label names the same operator at every degree bound
        operators = {label: op for system in systems
                     for label, op in system.labelled()}
        full = {}
        for label, op in operators.items():
            full[label] = ref_apply_operator(op, exact)
            if ordering == "interior-first":
                assert_same_series(apply_operator(op, exact), full[label])
        for system in systems:
            report = verify_annihilation(system, data)
            for (label, op), entry in zip(system.labelled(), report.entries):
                assert entry.label == label and op == operators[label]
                cut = data.truncation + index_shift(op, spec.i0)
                assert_same_series(entry.residual, pruned_to(full[label], cut))


@st.composite
def apply_cases(draw, min_size=0):
    """A series, b-graded or not, with a_{i0} exponents down to -3, and an
    operator whose terms take up to three D_{a_{i0}}, coordinate powers at
    i0 and derivatives in b, with non-integral coefficients among them;
    each has at least `min_size` terms."""
    i0 = draw(st.integers(0, N - 1))
    small = st.tuples(*(st.integers(0, 1) for _ in range(N)))
    keys = st.tuples(st.tuples(*(st.integers(-3, 1) if i == i0
                                 else st.integers(0, 3) for i in range(N))),
                     small if draw(st.booleans()) else st.just((0,) * N))
    terms = draw(st.dictionaries(keys, rationals.filter(bool),
                                 min_size=min_size, max_size=8))
    target = LaurentSeries(N, i0, terms, draw(truncations))
    coord = st.tuples(*(st.integers(0, 2) for _ in range(N)))
    deriv = st.tuples(*(st.integers(0, 3 if i == i0 else 2)
                        for i in range(N)))
    op = WeylOperator(N, draw(st.dictionaries(
        st.tuples(coord, small, deriv, small), rationals.filter(bool),
        min_size=min_size, max_size=4)))
    return op, target


@battery
@given(apply_cases(), st.data())
def test_apply_operator_matches_pair_kernel_on_random_operators(case, data):
    op, target = case
    slow, fast = ref_apply_operator(op, target), apply_operator(op, target)
    assert_same_series(fast, slow)
    assert_canonical(fast)
    other, _ = data.draw(apply_cases())
    table = DerivativeTable(target, [other, op])
    assert_same_series(apply_operator(op, target, table), slow)
    assert_same_series(apply_operator(other, target, table),
                       ref_apply_operator(other, target))


@battery
@given(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in range(N))),
                       rationals, max_size=5),
       st.sampled_from(["a", "b"]), apply_cases())
def test_apply_operator_matches_pair_kernel_on_polynomials(terms, family,
                                                           case):
    poly = SparsePoly(family, N, terms)
    op = case[0]
    assert_same_series(apply_operator(op, poly), ref_apply_operator(op, poly))


@battery
@given(apply_cases(min_size=1), st.integers(-3, 3))
def test_cancelling_terms_leave_no_residual(case, degree):
    """On a series of a-degree k, any operator composed with E_a - k
    cancels term by term inside the accumulation."""
    op, target = case
    i0 = target.i0
    terms = {}
    for (a, b), coeff in target.terms.items():
        a = list(a)
        a[i0] = degree - (sum(a) - a[i0])
        terms[(tuple(a), b)] = coeff
    homogeneous = LaurentSeries(N, i0, terms, target.truncation)
    cancelling = compose(op, euler_a(N) - degree)
    fast = apply_operator(cancelling, homogeneous)
    assert fast.is_zero()
    assert_same_series(fast, ref_apply_operator(cancelling, homogeneous))


def test_packing_keeps_huge_exponents_apart():
    """Slots widen with the data: exponents past 2^20, and a_{i0} exponents
    below -2^20 under D_{a_{i0}}^3, come out as the pair kernel has them."""
    big = 2 ** 20
    target = LaurentSeries(3, 0, {
        ((-big - 7, big + 5, 3), (0, big + 1, 0)): 2,
        ((-1, 0, big), (1, 0, 0)): Fraction(-1, 3),
        ((2, 1, 0), (0, 0, 0)): 5}, truncation=2 * big)
    op = WeylOperator(3, {
        ((0, 0, 0), (0, 0, 0), (3, 0, 0), (0, 0, 0)): 1,
        ((1, 2, 0), (0, 0, 1), (0, 1, 2), (0, 1, 0)): Fraction(3, 2),
        ((2, 0, 0), (0, 0, 0), (3, 0, 1), (1, 0, 0)): -4})
    for s in (target, exact_copy(target)):
        assert_same_series(apply_operator(op, s), ref_apply_operator(op, s))
    table = DerivativeTable(target, [op])
    assert table.width > 20


def test_packing_refuses_what_does_not_fit():
    assert _pack([3, 0, 7], 3) == 3 | 7 << 6
    with pytest.raises(OverflowError):
        _pack([3, 8, 0], 3)
    with pytest.raises(OverflowError):
        _pack([3, -1, 0], 3)
    spec = build_projective_model(1)
    target = period_series(spec, 6)
    table = DerivativeTable(target, [d_a(3, spec.i0)])
    for op in (d_a(3, spec.i0) * d_a(3, spec.i0),
               coord_a(3, spec.i0) * coord_a(3, spec.i0)):
        with pytest.raises(OverflowError):
            apply_operator(op, target, table)
    with pytest.raises(ValueError):
        apply_operator(d_a(3, spec.i0), exact_copy(target), table)


# ---------------------------------------------------------------------------
# Binomial rows and empty derivatives against the accumulating loop
# ---------------------------------------------------------------------------


def ref_index_shift(op, i0):
    return min((sum(c1) - c1[i0]) - (sum(d1) - d1[i0])
               for (c1, _, d1, _) in op.terms)


def ref_accumulate(table, op, truncation):
    """The loop `DerivativeTable.apply` ran before it skipped empty
    derivatives and settled binomial rows by a comparison: every term's
    packed derivative is summed into one map, then unpacked and cut."""
    out = {}
    for (c1, c2, d1, d2), coeff in op.terms.items():
        coeff = _integral(coeff)
        derivative = table.derivative(d1 + d2)
        shift = table._shift(c1 + c2)
        if not out:
            out = {key + shift: coeff * c for key, c in derivative.items()}
            continue
        get = out.get
        for key, c in derivative.items():
            key += shift
            out[key] = get(key, 0) + coeff * c
    n, i0, width, top = table.series.n, table.series.i0, table.width, table._top
    mask = (1 << width) - 1
    ats = range(0, top, width)
    terms = {}
    for key, coeff in out.items():
        if coeff and (truncation is None or key >> top <= truncation):
            exponents = [key >> at & mask for at in ats]
            exponents[i0] -= table.offset
            terms[(tuple(exponents[:n]), tuple(exponents[n:]))] = coeff
    return terms


def ref_table_residual(op, target, table):
    """`apply_operator` over `table` with the accumulating loop."""
    truncation = (None if target.truncation is None
                  else target.truncation + ref_index_shift(op, target.i0))
    return _raw_series(target.n, target.i0,
                       ref_accumulate(table, op, truncation), truncation)


def counting_table(series, operators):
    """A table holding every derivative the operators take, whose maps
    count the passes made over their items."""
    table = DerivativeTable(series, operators)
    for op in operators:
        for _, _, d1, d2 in op.terms:
            table.derivative(d1 + d2)
    passes = []

    class Counted(dict):
        def items(self):
            passes.append(1)
            return super().items()

    table._maps = {orders: Counted(step)
                   for orders, step in table._maps.items()}
    return table, passes


def assert_settled_by_comparison(op, target, table, passes):
    """A vanishing binomial row sums nothing: at most one of its two
    derivatives is read, to cut it at the level of the comparison."""
    before = len(passes)
    residual = apply_operator(op, target, table)
    assert residual.is_zero()
    assert len(passes) - before <= 1
    return residual


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,orders", APPLY_CASES)
def test_table_apply_matches_accumulating_loop_on_systems(d, bounds, orders,
                                                          ordering):
    """Every operator of every system the caps admit, on the period and
    generating series at a few orders and on their exact copies, gives the
    accumulating loop's residual from one table shared by all of them.
    The toric and mixed rows vanish on the truncated series, each settled
    by one comparison."""
    spec = build_projective_model(d, ordering=ordering)
    for p, top in orders.items():
        operators = {label: op for bound in bounds
                     for label, op in scalar_system(d, ordering, bound,
                                                    p).labelled()}
        for order in range(max(top - 2, 0), top + 1):
            base = period_series(spec, order + p)
            data = derivative_generating_series(base, p, order) if p else base
            for target in (data, exact_copy(data)):
                table, passes = counting_table(target, operators.values())
                reference = DerivativeTable(target, operators.values())
                for label, op in operators.items():
                    if target is data and label.startswith(("toric",
                                                            "mixed")):
                        fast = assert_settled_by_comparison(op, target, table,
                                                            passes)
                    else:
                        fast = apply_operator(op, target, table)
                    assert_same_series(
                        fast, ref_table_residual(op, target, reference))


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,p", [(1, 2), (2, 1), (3, 1)])
def test_table_memoizes_each_derivative_one_step_past_its_prefix(d, p,
                                                                 ordering):
    """A new derivative is one step past its prefix, the orders with the
    last nonzero one lowered: once every operator's derivative is taken,
    the memo holds exactly the base map and those prefix chains, which the
    toric rows sharing leading slots share."""
    spec = build_projective_model(d, ordering=ordering)
    operators = scalar_system(d, ordering, 2, p).operators
    series = derivative_generating_series(period_series(spec, 2 + p), p, 2)
    table = DerivativeTable(series, operators)
    chains = {(0,) * (2 * spec.n)}
    for op in operators:
        for _, _, d1, d2 in op.terms:
            orders = d1 + d2
            table.derivative(orders)
            while orders not in chains:
                chains.add(orders)
                slot = max(i for i, e in enumerate(orders) if e)
                orders = _plus(orders, slot, -1)
    assert set(table._maps) == chains


def _plus(exponents, at, count):
    return exponents[:at] + (exponents[at] + count,) + exponents[at + 1:]


@st.composite
def binomial_cases(draw):
    """A series on which D_{a_j} and D_{a_k} agree, (a_j + a_k)^m times
    terms free of a_j and a_k, and coeff * a^c D^alpha + other * a^c'
    D^beta, where alpha and beta split r derivatives between a_j and a_k
    on top of a shared gamma.  Either of j, k may be i0, so the two terms
    drop the expansion index equally or not.  The row vanishes, with c = c'
    (zero or not) and opposite coefficients; or c != c'; or the
    coefficients do not cancel, (1, -2) among them; or the series has
    stray terms at its top index or anywhere.  Returns the operator, the
    series and whether the row must vanish."""
    i0 = draw(st.integers(0, N - 1))
    j, k, rest = draw(st.permutations(range(N)))
    # None and a negative truncation one time in eight each
    truncation = draw(st.integers(-1, 6).map(lambda t: None if t == 6
                                             else t))
    kind = draw(st.sampled_from(("vanish", "coordinates", "coefficients",
                                 "stray")))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(0, 5))
        b = draw(st.tuples(*(st.integers(0, 1) for _ in range(N))))
        e = draw(st.integers(-3, 1) if rest == i0 else st.integers(0, 2))
        coeff = draw(rationals.filter(bool))
        for s in range(m + 1):
            a = _plus(_plus(_plus((0,) * N, j, s), k, m - s), rest, e)
            add_term(terms, (a, b), coeff * comb(m, s))
    if kind == "stray":
        top = truncation is not None and draw(st.booleans())
        for (a, b), coeff in draw(st.dictionaries(
                st.tuples(st.tuples(*(st.integers(-3, 1) if i == i0
                                      else st.integers(0, 3)
                                      for i in range(N))),
                          st.tuples(*(st.integers(0, 1) for _ in range(N)))),
                rationals.filter(bool), min_size=1, max_size=3)).items():
            if top:
                # move the key to the top index along a non-i0 variable
                other = k if k != i0 else j
                lift = truncation - (sum(a) - a[i0])
                if a[other] + lift < 0:
                    continue
                a = _plus(a, other, lift)
            add_term(terms, (a, b), coeff)
    target = LaurentSeries(N, i0, terms, truncation)
    gamma_a = draw(st.tuples(*(st.integers(0, 1) for _ in range(N))))
    gamma_b = draw(st.tuples(*(st.integers(0, 1) for _ in range(N))))
    r = draw(st.integers(1, 2))
    s, t = draw(st.lists(st.integers(0, r), min_size=2, max_size=2,
                         unique=True))
    alpha = _plus(_plus(gamma_a, j, s), k, r - s)
    beta = _plus(_plus(gamma_a, j, t), k, r - t)
    coord = st.tuples(st.tuples(*(st.integers(0, 2) for _ in range(N))),
                      st.tuples(*(st.integers(0, 1) for _ in range(N))))
    first = draw(st.sampled_from([((0,) * N, (0,) * N), draw(coord)]))
    second = (draw(coord.filter(lambda c: c != first))
              if kind == "coordinates" else first)
    coeff = draw(rationals.filter(bool))
    other = (draw(st.sampled_from([-2 * coeff, draw(rationals.filter(
        lambda c: c and c != -coeff))])) if kind == "coefficients"
        else -coeff)
    op = WeylOperator(N, {(*first, alpha, gamma_b): coeff,
                          (*second, beta, gamma_b): other})
    return op, target, kind == "vanish"


@settings(battery, max_examples=200)
@given(binomial_cases())
# (a0 + a1)^3 cut at index 2: D_{a0} keeps 3 a1^2, which a2 lifts past the
# residual's order, and D_{a1} lost it with a1^3
@example((WeylOperator(3, {((0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0)): 1,
                           ((0, 0, 1), (0, 0, 0), (0, 1, 0), (0, 0, 0)): -1}),
          LaurentSeries(3, 0, {((3, 0, 0), (0, 0, 0)): 1,
                               ((2, 1, 0), (0, 0, 0)): 3,
                               ((1, 2, 0), (0, 0, 0)): 3,
                               ((0, 3, 0), (0, 0, 0)): 1}, 2), True))
@example((WeylOperator(3, {((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 0, 0)): 1,
                           ((0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)): -2}),
          LaurentSeries(3, 2, {((1, 0, -1), (0, 0, 0)): 1,
                               ((0, 1, -1), (0, 0, 0)): 1}, 3), False))
def test_binomial_rows_match_accumulating_loop(case):
    """A binomial row equals the accumulating loop and the pair kernel; one
    that must vanish is settled by one comparison."""
    op, target, vanishes = case
    table, passes = counting_table(target, [op])
    if vanishes:
        fast = assert_settled_by_comparison(op, target, table, passes)
    else:
        fast = apply_operator(op, target, table)
    assert_same_series(fast, ref_table_residual(
        op, target, DerivativeTable(target, [op])))
    assert_same_series(fast, ref_apply_operator(op, target))
    assert_same_series(apply_operator(op, target), fast)


EMPTY_SERIES = [LaurentSeries.zero(N, 0), LaurentSeries.zero(N, 1, 3),
                LaurentSeries.zero(N, 2, -2),
                LaurentSeries(N, 1, {((1, 0, 2), (0, 1, 0)): 3}, -1)]


@battery
@given(apply_cases(min_size=1), st.sampled_from(EMPTY_SERIES))
def test_empty_and_negatively_truncated_series_match_accumulating_loop(
        case, empty):
    """On a series with no terms, the truncation None, positive or
    negative, every operator leaves an empty residual at the loop's
    truncation."""
    op, target = case
    assert empty.is_zero()
    for series in (empty, target):
        fast = apply_operator(op, series)
        assert_same_series(fast, ref_table_residual(
            op, series, DerivativeTable(series, [op])))
    assert apply_operator(op, empty).is_zero()


def test_binomial_and_empty_rows_refuse_what_the_loop_refuses():
    """A foreign table, a coordinate power past the slots and D_{a_{i0}}
    past the offset raise for binomial rows and on empty series, where the
    loop raised, before any comparison."""
    spec = build_projective_model(1)
    i0 = spec.i0
    unit = [multiset(3, (i,)) for i in range(3)]
    zero = (0,) * 3
    other = next(i for i in range(3) if i != i0)
    for target in (period_series(spec, 6), LaurentSeries.zero(3, i0, 6),
                   LaurentSeries.zero(3, i0, -1)):
        table = DerivativeTable(target, [d_a(3, i0)])
        past_offset = WeylOperator(3, {
            (zero, zero, _plus(unit[i0], i0, 1), zero): 1,
            (zero, zero, _plus(unit[other], other, 1), zero): -1})
        past_slots = WeylOperator(3, {
            (_plus(unit[i0], i0, 1), zero, unit[other], zero): 1,
            (_plus(unit[i0], i0, 1), zero, unit[i0], zero): -1})
        empty_past_slots = WeylOperator(3, {
            (_plus(unit[i0], i0, 1), zero, _plus(unit[other], other, 9),
             zero): 1})
        for op in (past_offset, past_slots, empty_past_slots):
            with pytest.raises(OverflowError):
                ref_table_residual(op, target, table)
            with pytest.raises(OverflowError):
                apply_operator(op, target, table)
        with pytest.raises(ValueError):
            apply_operator(d_a(3, i0) - d_a(3, other), exact_copy(target),
                           table)


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds,order,ps", [(1, (2, 3, 4), 8, (1, 2)),
                                               (2, (2,), 4, (1,))])
def test_vector_residuals_from_shared_tables_match_one_off_residuals(
        d, bounds, order, ps, ordering):
    """`verify_vector_system` packs each component once for every equation;
    `vector_residual` packs per equation, and the pair kernel summed over
    the parts is the reference.  Components scaled apart from one another
    leave the coupling rows nonzero."""
    spec = build_projective_model(d, ordering=ordering)
    base = period_series(spec, order)
    for p in ps:
        exact = derivative_vector_solution(base, p)
        solution = VectorSolution(spec.n, p, {
            key: series.scale(Fraction(i + 2, 3))
            for i, (key, series) in enumerate(exact.components.items())})
        for bound in bounds:
            system = build_vector_system(spec, lattice_relations(spec, bound),
                                         p)
            shared = verify_vector_system(system, solution)
            assert list(shared) == [eq.label for eq in system.equations]
            assert any(not r.is_zero() for r in shared.values())
            for eq in system.equations:
                first, *rest = (ref_apply_operator(op,
                                                   solution.components[key])
                                for key, op in eq.parts)
                assert_same_series(shared[eq.label],
                                   vector_residual(eq, solution))
                assert_same_series(shared[eq.label], first.plus(*rest))


def ref_solve_exact(system):
    """Bareiss elimination with the witness multipliers kept in a second,
    dense `Fraction` matrix and two back-substitutions, one for the values
    and one for the nullspace."""
    nrows = len(system.rows)
    ncols = len(system.labels)
    mat = []
    trace = []
    for r, (coeffs, rhs) in enumerate(system.rows):
        denom_lcm = lcm(*(value.denominator for value in (*coeffs, rhs)))
        mat.append([int(c * denom_lcm) for c in (*coeffs, rhs)])
        row_t = [Fraction(0)] * nrows
        row_t[r] = Fraction(denom_lcm)
        trace.append(row_t)

    width = ncols + 1
    prev_pivot = 1
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        found = -1
        for r in range(pivot_row, nrows):
            if mat[r][col] != 0:
                found = r
                break
        if found < 0:
            continue
        if found != pivot_row:
            mat[pivot_row], mat[found] = mat[found], mat[pivot_row]
            trace[pivot_row], trace[found] = trace[found], trace[pivot_row]
        pivot = mat[pivot_row][col]
        for r in range(pivot_row + 1, nrows):
            factor = mat[r][col]
            row = mat[r]
            top = mat[pivot_row]
            for j in range(width):
                row[j] = (pivot * row[j] - factor * top[j]) // prev_pivot
            if factor or pivot != prev_pivot:
                trace[r] = [
                    (pivot * t - factor * p) / prev_pivot
                    for t, p in zip(trace[r], trace[pivot_row])]
        prev_pivot = pivot
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == nrows:
            break

    for r in range(pivot_row, nrows):
        if mat[r][ncols] != 0:
            if any(mat[r][j] for j in range(ncols)):
                raise AssertionError(
                    f"row {r} below the last pivot has nonzero coefficients")
            reduced = sum((m * b for m, (_, b) in zip(trace[r], system.rows)),
                          start=Fraction(0))
            return Inconsistent(combo=tuple(trace[r]), reduced_rhs=reduced)

    pivot_cols = {col for _, col in pivots}
    values = [Fraction(0)] * ncols
    for row_idx, col in reversed(pivots):
        acc = Fraction(mat[row_idx][ncols])
        for j in range(col + 1, ncols):
            if mat[row_idx][j]:
                acc -= mat[row_idx][j] * values[j]
        values[col] = acc / mat[row_idx][col]

    nullspace = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, col in reversed(pivots):
            if col >= free:
                continue
            acc = Fraction(0)
            for j in range(col + 1, ncols):
                if mat[row_idx][j]:
                    acc += mat[row_idx][j] * vec[j]
            vec[col] = -acc / mat[row_idx][col]
        nullspace.append(tuple(vec))
    return Solution(values=tuple(values), nullspace=tuple(nullspace))


def assert_same_outcome(system):
    """`solve_exact` and the reference agree on the verdict and on every
    value, nullspace vector and witness; witness multipliers are ints."""
    fast, slow = solve_exact(system), ref_solve_exact(system)
    assert type(fast) is type(slow)
    if isinstance(fast, Solution):
        assert fast.values == slow.values
        assert fast.nullspace == slow.nullspace
        assert all(type(v) is Fraction for v in fast.values)
        assert all(type(v) is Fraction
                   for vec in fast.nullspace for v in vec)
    else:
        assert fast.combo == slow.combo
        assert fast.reduced_rhs == slow.reduced_rhs
        assert all(type(m) is int for m in fast.combo)
    return fast


def random_rational(rng, nonzero=False):
    numerator = rng.randint(-9, 9)
    while nonzero and not numerator:
        numerator = rng.randint(-9, 9)
    return Fraction(numerator, rng.randint(1, 6))


def random_system(rng):
    """0-7 rows over 1-7 columns spanning a planted rank, consistent with a
    planted solution except for one perturbed right hand side in about a
    fifth of the systems."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    basis = [[random_rational(rng) for _ in range(ncols)]
             for _ in range(rng.randint(0, min(nrows, ncols)))]
    planted = [random_rational(rng) for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        weights = [random_rational(rng) for _ in basis]
        coeffs = [sum((w * b[j] for w, b in zip(weights, basis)),
                      start=Fraction(0)) for j in range(ncols)]
        rows.append([coeffs, sum((c * x for c, x in zip(coeffs, planted)),
                                 start=Fraction(0))])
    if rows and rng.random() < 0.2:
        rows[rng.randrange(nrows)][1] += random_rational(rng, nonzero=True)
    return LinearSystem.build([f"c{j}" for j in range(ncols)], rows)


def test_solve_exact_matches_reference_on_random_systems():
    rng = random.Random(20260)
    verdicts = {Solution: 0, Inconsistent: 0}
    for _ in range(600):
        verdicts[type(assert_same_outcome(random_system(rng)))] += 1
    assert min(verdicts.values()) > 50


def captured_certificate_systems(monkeypatch, spec, point, alphas):
    """The linear systems `membership_test` solves for these queries."""
    systems = []

    def capture(system):
        systems.append(system)
        return solve_exact(system)

    monkeypatch.setattr(tautsys.membership, "solve_exact", capture)
    for alpha in alphas:
        membership_test(spec, point, derivative_query(spec, alpha))
    return systems


def section_points(spec, rng):
    """The Fermat point, the Fermat point with two more coefficients set
    (sparse), and a point with every coefficient nonzero (dense)."""
    fermat = fermat_point(spec)
    sparse = list(fermat)
    for i in rng.sample(range(spec.n), 2):
        sparse[i] = random_rational(rng, nonzero=True)
    dense = [random_rational(rng, nonzero=True) for _ in range(spec.n)]
    return [SectionPoint.of(a) for a in (fermat, sparse, dense)]


def test_solve_exact_matches_reference_on_certificate_systems(monkeypatch):
    """The certificate systems of d=1 at alpha orders 1-5 and of d=2 and 3
    at order 1, at Fermat, sparse and dense points: the interior direction
    and, below order 4, three seeded directions more (the reference takes
    about 0.5 s a system at order 4 and 1.7 s at order 5)."""
    rng = random.Random(2026)
    verdicts = set()
    for d, top in ((1, 5), (2, 1), (3, 1)):
        spec = build_projective_model(d, ordering="interior-first")
        for order in range(1, top + 1):
            alphas = [multiset(spec.n, (spec.i0,) * order)]
            if order < 4:
                alphas += [multiset(spec.n, rng.choices(range(spec.n),
                                                        k=order))
                           for _ in range(3)]
            for point in section_points(spec, rng):
                for system in captured_certificate_systems(
                        monkeypatch, spec, point, alphas):
                    verdicts.add(type(assert_same_outcome(system)))
    assert verdicts == {Solution, Inconsistent}


def test_solve_exact_matches_reference_on_a_plane_order_two_system(
        monkeypatch):
    spec = build_projective_model(2, ordering="interior-first")
    point = SectionPoint.of(fermat_point(spec))
    [system] = captured_certificate_systems(
        monkeypatch, spec, point, [multiset(spec.n, (spec.i0, spec.i0))])
    assert (len(system.rows), len(system.labels)) == (84, 105)
    assert_same_outcome(system)


def ref_dumps(obj):
    """The pure-Python indent-2 encoder that `serialize.dumps` replaced."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_system_payload(d, ordering, bound, p):
    """The payload `tautsys build-system` writes for one row."""
    spec = build_projective_model(d, ordering=ordering)
    return {
        "model": serialize.model_to_obj(spec),
        "relations": [serialize.relation_to_obj(r)
                      for r in lattice_relations(spec, bound)],
        "system": serialize.system_to_obj(
            scalar_system(d, ordering, bound, p)),
    }


# (d, p, degree bound): every d = 1 row and the d = 2 rows the systems
# benchmark pool draws
DUMPS_ROWS = ([(1, p, bound) for p in range(4) for bound in (2, 3, 4)]
              + [(2, 0, 3), (2, 1, 2), (2, 0, 4), (2, 2, 3), (2, 1, 4)])


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
def test_dumps_matches_indent_encoder_on_build_system_payloads(ordering):
    for d, p, bound in DUMPS_ROWS:
        payload = build_system_payload(d, ordering, bound, p)
        assert serialize.dumps(payload) == ref_dumps(payload), (d, p, bound)


awkward_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té '
                                       '\U0001f600ab') | st.characters())
json_leaves = (st.none() | st.booleans() | awkward_text
               | st.integers() | st.integers(-2**80, 2**80))
int_lists = st.lists(st.integers(-3, 3) | st.integers(2**63, 2**70),
                     max_size=6)
mixed_int_lists = st.builds(
    lambda ints, tail: [*ints, *tail], int_lists.filter(bool),
    st.lists(st.none() | st.booleans() | awkward_text | int_lists,
             min_size=1, max_size=3))
json_values = st.recursive(
    json_leaves | int_lists | mixed_int_lists,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(awkward_text, inner, max_size=4)),
    max_leaves=30)


@battery
@given(json_values, json_values)
def test_dumps_matches_indent_encoder_on_nested_values(value, repeat):
    """The int-list memo is keyed by indent and values, so one list at two
    depths, and `True` beside an equal `1`, are written apart."""
    for obj in (value, {"a": value, "b": [value, {"c": repeat}],
                        "c": repeat, "": {}, "e": [[]], "f": {"g": []}}):
        assert serialize.dumps(obj) == ref_dumps(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, [[], {}], [1, 1, [1, 1]], {"a": [1, True]},
    {"a": [1, 1], "b": [1, True], "c": [True, 1], "d": [1, None]},
    [2**64, -2**64, 0], {"q\"\\\x01é": " \U0001f600"},
])
def test_dumps_matches_indent_encoder_on_edge_cases(obj):
    assert serialize.dumps(obj) == ref_dumps(obj)


@pytest.mark.parametrize("obj", [
    {"coeff": 0.5}, {"terms": [1, 2.0]}, {1: "one"}, {("a",): 1},
    {"a": {"b": {None: 1}}}, {"s": {1, 2}}, [frozenset()]])
def test_dumps_refuses_floats_non_str_keys_and_sets(obj):
    with pytest.raises(TypeError):
        serialize.dumps(obj)


def cli_json(capsys, tmp_path, d, ordering, bound, p):
    """The JSON `tautsys build-system` prints for one row, after checking
    that `--out` writes the same bytes."""
    argv = ["build-system", "--d", str(d), "--p", str(p), "--degree-bound",
            str(bound), "--ordering", ordering]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    text = out.split("system-json:\n", 1)[1].rsplit("\nverdict: PASS", 1)[0]
    target = tmp_path / "system.json"
    assert cli.main([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8") == text + "\n"
    return text + "\n"


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
def test_build_system_json_matches_indent_encoder(ordering, capsys,
                                                  tmp_path):
    """The CLI hands `dumps` the relations and operators themselves; what
    it prints and writes is the indent-2 encoding of their `*_to_obj`
    forms."""
    for d, p, bound in DUMPS_ROWS:
        assert (cli_json(capsys, tmp_path, d, ordering, bound, p)
                == ref_dumps(build_system_payload(d, ordering, bound, p))), (
            d, p, bound)


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("p", [0, 1])
def test_build_system_json_reads_back_to_the_system(ordering, p, capsys,
                                                    tmp_path):
    """Read back by `json.loads` alone, the d = 2 bound-4 JSON gives the
    built relations and, label by label, equal operators."""
    obj = json.loads(cli_json(capsys, tmp_path, 2, ordering, 4, p))
    spec = build_projective_model(2, ordering=ordering)
    assert ([tuple(rel["vector"]) for rel in obj["relations"]]
            == [rel.vector for rel in lattice_relations(spec, 4)])
    assert ([(entry["label"], serialize.operator_from_obj(entry["operator"]))
             for entry in obj["system"]["operators"]]
            == scalar_system(2, ordering, 4, p).labelled())


def as_objs(value):
    """`value` with every operator and relation in its `*_to_obj` form."""
    if type(value) is WeylOperator:
        return operator_to_obj(value)
    if type(value) is LatticeRelation:
        return serialize.relation_to_obj(value)
    if isinstance(value, dict):
        return {key: as_objs(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_objs(item) for item in value]
    return value


def nest(value, depth):
    """`value` `depth` levels down, in lists beside plain dicts."""
    for level in range(depth):
        value = ([{"exponents": [0, 1], "level": level}, value]
                 if level % 2 == 0 else {"inner": value, "plain": {}})
    return value


@st.composite
def relations(draw):
    """A checked relation: entries summing to zero, some beyond 64 bits."""
    head = draw(st.lists(st.integers(-3, 3) | st.integers(-2**70, 2**70),
                         min_size=1, max_size=4))
    assume(any(head))
    return LatticeRelation((*head, -sum(head)))


wide_rationals = (rationals | st.integers(2**63, 2**70)
                  | st.builds(Fraction, st.integers(-2**70, 2**70),
                              st.integers(1, 2**66)))


@battery
@given(st.lists(operators(coefficients=wide_rationals) | relations(),
                min_size=1, max_size=3))
def test_dumps_writes_operators_and_relations_as_their_objects(values):
    """At depths 0-3 and beside plain dicts, and in one call that meets
    each exponent tuple at several indents and beside its own `*_to_obj`
    form, `dumps` writes a checked operator or relation as the indent-2
    encoder writes that form."""
    for value in values:
        for depth in range(4):
            obj = nest(value, depth)
            assert serialize.dumps(obj) == ref_dumps(as_objs(obj))
    obj = [as_objs(values), *(nest(value, depth) for value in values
                               for depth in range(4))]
    assert serialize.dumps(obj) == ref_dumps(as_objs(obj))


class SubOperator(WeylOperator):
    __slots__ = ()


class SubRelation(LatticeRelation):
    pass


@pytest.mark.parametrize("value", [
    WeylOperator.zero(2), WeylOperator.zero(1, ("zeta", "xi")),
    WeylOperator(True, {((1,), (0,), (0,), (2,)): Fraction(-1, 2)}),
    LatticeRelation((1, -2, 1)), LatticeRelation((2**70, -2**70))])
def test_dumps_writes_edge_operators_and_relations(value):
    """The zero operator, an `n` of `True` (stored and written as 1) and
    wide relation entries."""
    for obj in (value, [value, {}], {"a": [value, as_objs(value)]}):
        assert serialize.dumps(obj) == ref_dumps(as_objs(obj))


def test_dumps_writes_only_exact_operators_and_relations_directly():
    """A subclass, and a plain dict shaped like a term, take the generic
    path: the subclass is refused, as by `json.dumps`, and the dict's
    tuple and `True` are written as a list and `true`."""
    op = WeylOperator(2, {((1, 0), (0, 0), (0, 1), (0, 0)): 3})
    for value in (SubOperator(2, op.terms), SubRelation((1, -1))):
        for obj in (value, [value], {"a": value}):
            with pytest.raises(TypeError):
                ref_dumps(obj)
            with pytest.raises(TypeError):
                serialize.dumps(obj)
    term = {"coeff": "3", "coord_1": [1, 0], "coord_2": (0, 0),
            "deriv_1": [True, 0], "deriv_2": [0, 0]}
    for obj in (term, operator_to_obj(op) | {"terms": [term]}, [op, term]):
        assert serialize.dumps(obj) == ref_dumps(as_objs(obj))


# ---------------------------------------------------------------------------


def ref_lattice_relations(spec, degree_bound):
    """Every relation through the validating constructor, its positive and
    negative parts read back from the vector."""
    fibers = []
    for size in range(2, degree_bound + 1):
        groups = {}
        for combo in combinations_with_replacement(range(spec.n), size):
            column_sum = tuple(map(sum, zip(*(spec.basis[j] for j in combo))))
            groups.setdefault(column_sum, []).append(multiset(spec.n, combo))
        fibers.extend(groups.values())
    out = [LatticeRelation(tuple(p - m for p, m in zip(plus, minus)))
           for members in fibers
           for idx, plus in enumerate(members)
           for minus in members[idx + 1:]
           if not any(p and m for p, m in zip(plus, minus))]
    out.sort(key=lambda rel: (rel.degree, rel.vector))
    return out


def ref_lie_matrix(spec, k, l):
    """The dense derivation matrix of E_kl, filled one column at a time, as
    `lie_action` was before it read the sparse entries."""
    rows = [[0] * spec.n for _ in range(spec.n)]
    for src, exp in enumerate(spec.basis):
        weight = exp[l]
        if weight == 0:
            continue
        shifted = list(exp)
        shifted[l] -= 1
        shifted[k] += 1
        dst = spec.index_of(tuple(shifted))
        rows[dst][src] += weight
    return tuple(tuple(row) for row in rows)


def ref_symmetry_matrix(spec, k, l):
    derivation = ref_lie_matrix(spec, l, k)
    return tuple(
        tuple(Fraction(derivation[j][i] - (1 if k == l and i == j else 0))
              for j in range(spec.n))
        for i in range(spec.n))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gl_action_matches_dense_loop(d, ordering):
    """`lie_entries`, the `lie_action` matrix built from them, and the
    symmetry entries and matrix read from them match the dense loop for
    every generator, values and key order alike."""
    spec = build_projective_model(d, ordering=ordering)
    for k, l in generators(d):
        dense = ref_lie_matrix(spec, k, l)
        assert lie_action(spec, k, l).matrix == dense
        assert list(lie_entries(spec, k, l).items()) == sorted(
            (((dst, src), weight) for dst, row in enumerate(dense)
             for src, weight in enumerate(row) if weight),
            key=lambda entry: entry[0][1])
        matrix = ref_symmetry_matrix(spec, k, l)
        assert symmetry_matrix(spec, k, l) == matrix
        entries = _symmetry_entries(spec, k, l)
        assert list(entries.items()) == [
            ((i, j), value) for i, row in enumerate(matrix)
            for j, value in enumerate(row) if value]
        assert all(type(value) is int for value in entries.values())


def ref_checked_symmetry(spec, k, l, couple_b):
    n = spec.n
    zero = (0,) * n
    units = [multiset(n, (i,)) for i in range(n)]
    terms = {}
    for i, row in enumerate(ref_symmetry_matrix(spec, k, l)):
        for j, value in enumerate(row):
            if value:
                terms[(units[i], zero, units[j], zero)] = value
                if couple_b:
                    terms[(zero, units[i], zero, units[j])] = value
    return WeylOperator(n, terms)


def ref_checked_scalar_system(spec, relations, p):
    """`build_scalar_system` with every operator made by the validating
    constructor, from the dense `Fraction` symmetry matrix."""
    n = spec.n
    zero = (0,) * n
    units = [multiset(n, (i,)) for i in range(n)]
    pairs = [(f"toric{list(rel.vector)}",
              WeylOperator(n, {(zero, zero, rel.positive, zero): 1,
                               (zero, zero, rel.negative, zero): -1}))
             for rel in relations]
    for k, l in generators(spec.d):
        pairs.append((f"symmetry[{k},{l}]",
                      ref_checked_symmetry(spec, k, l, p > 0)))
    euler_a = WeylOperator(n, {(u, zero, u, zero): 1 for u in units})
    pairs.append((f"euler_a+{1 + p}", euler_a + (1 + p)))
    if p:
        euler_b = WeylOperator(n, {(zero, u, zero, u): 1 for u in units})
        pairs.append((f"euler_b-{p}", euler_b - p))
        for combo in combinations_with_replacement(range(n), p + 1):
            op = WeylOperator(n, {(zero, zero, zero, multiset(n, combo)): 1})
            pairs.append((f"bder{list(combo)}", op))
        for u in range(n):
            for v in range(u + 1, n):
                for rest in combinations_with_replacement(range(n), p - 1):
                    op = WeylOperator(n, {
                        (zero, zero, units[u], multiset(n, (v, *rest))): 1,
                        (zero, zero, units[v], multiset(n, (u, *rest))): -1})
                    pairs.append((f"mixed[{u},{v}]{list(rest)}", op))
    labels, operators = zip(*pairs)
    return DiffSystem(kind="scalar" if p else "base", n=n, p=p,
                      beta_e=Fraction(1 + p), operators=operators,
                      labels=labels)


def ref_checked_dual(spec, relations):
    n = spec.n
    dual = ("zeta", "xi")
    zero = (0,) * n
    units = [multiset(n, (i,)) for i in range(n)]
    out = []
    for rel in relations:
        op = WeylOperator(n, {(rel.positive, zero, zero, zero): 1,
                              (rel.negative, zero, zero, zero): -1}, dual)
        out.append((f"toric{list(rel.vector)}", op, rel.degree % 2 == 0))
    for k, l in generators(spec.d):
        matrix = ref_symmetry_matrix(spec, k, l)
        terms = {(zero,) * 4: 2 * sum(matrix[i][i] for i in range(n))}
        for i in range(n):
            for j in range(n):
                if matrix[j][i]:
                    terms[(units[i], zero, units[j], zero)] = matrix[j][i]
                    terms[(zero, units[i], zero, units[j])] = matrix[j][i]
        out.append((f"symmetry[{k},{l}]", WeylOperator(n, terms, dual),
                    False))
    euler_zeta = WeylOperator(n, {(u, zero, u, zero): -1 for u in units}, dual)
    euler_xi = WeylOperator(n, {(zero, u, zero, u): -1 for u in units}, dual)
    out.append(("euler_a+2", euler_zeta + (2 - n), True))
    out.append(("euler_b-1", euler_xi + (-n - 1), True))
    for i in range(n):
        for j in range(i + 1, n):
            op = WeylOperator(n, {(units[i], units[j], zero, zero): 1,
                                  (units[j], units[i], zero, zero): -1}, dual)
            out.append((f"mixed[{i},{j}][]", op, True))
    for combo in combinations_with_replacement(range(n), 2):
        op = WeylOperator(n, {(zero, multiset(n, combo), zero, zero): 1},
                          dual)
        out.append((f"bder{list(combo)}", op, True))
    return out


# d: (degree bounds, orders p), every scalar system the caps admit
CHECKED_ROWS = {1: ((2, 3, 4), range(4)), 2: ((2, 3, 4), range(4)),
                3: ((2,), range(2))}


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("d", sorted(CHECKED_ROWS))
def test_trusted_builders_match_validating_builders(d, ordering):
    spec = build_projective_model(d, ordering=ordering)
    bounds, ps = CHECKED_ROWS[d]
    for bound in bounds:
        relations = lattice_relations(spec, bound)
        reference = ref_lattice_relations(spec, bound)
        assert relations == reference
        assert ([(r.positive, r.negative, r.degree) for r in relations]
                == [(r.positive, r.negative, r.degree) for r in reference])
        for p in ps:
            system = build_scalar_system(spec, relations, p)
            checked = ref_checked_scalar_system(spec, reference, p)
            assert system.labels == checked.labels
            assert system == checked, (bound, p)
            # the builders' coefficients stay ints; `+` makes the Euler
            # constant a Fraction
            assert all(type(c) is int for op in system.operators
                       for key, c in op.terms.items() if any(map(any, key)))
            assert (serialize.dumps(serialize.system_to_obj(system))
                    == serialize.dumps(serialize.system_to_obj(checked)))
        assert (dual_generator_families(spec, relations)
                == ref_checked_dual(spec, reference))
