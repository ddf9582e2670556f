"""Construction of the differential systems.

The base system attached to a model consists of one binomial (toric)
operator per lattice relation, one first-order symmetry operator per
gl(d+1) generator, and the grading operator "Euler + 1".  Its solutions
include the period integrals of the hypersurface family.

For the order-p derivative data the scalar system doubles the variables:
solutions are functions of (a, b), polynomial of degree p in b, built as

    phi(a, b) = sum over p-tuples K of  b_K * (d/da)^K phi(a).

The base system is the scalar system at p = 0.  For p = 1 and p = 2 an
equivalent vector-valued form is provided as well, with one component
phi_K = D_{k_1} .. D_{k_p} phi per slot tuple K (keyed k at p = 1 and
(l, k) at p = 2).  Its rows are the base rows commuted past the p
derivatives: a toric or grading row acts on each component alone, and a
symmetry row gains one matrix term per derivative slot.  The two
presentations are exchanged by `scalarize` and `vectorize`.

Symmetry convention.  A gl generator E_kl acts on sections through the
anticanonical bundle, i.e. as the coefficient-space dual of the derivation
action twisted by the volume character.  Concretely the first-order
operator is

    Z(E_kl) = sum_i (m_i)_k a_i D_{a_j(i)}  -  delta_kl * sum_i a_i D_{a_i}

where m_i runs over basis exponents with (m_i)_k >= 1 and j(i) labels the
monomial m_i - e_k + e_l.  With this convention (and only with it) the
operators annihilate the torus-cycle period series with no extra scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from operator import add

from .exact import Rat, add_term, multiset
from .model import LatticeRelation, ModelSpec, ResourceBoundError, lie_entries
from .series import LaurentSeries
from .weyl import (DerivativeTable, WeylOperator, _raw_operator,
                   apply_operator, d_a, euler_a, euler_b, fourier)

#: operators in the largest scalar system built up front: d = 2, degree
#: bound 4, p = 3; it keeps every d = 2 system and rejects d = 3 at p >= 2
MAX_SYSTEM_OPERATORS = 4125
#: equations in the largest vector system built up front: d = 2, degree
#: bound 4, p = 2 (0.15 s and about 32 MB to build on a 2-core VM); it keeps
#: every d = 2 system and d = 3 at p = 1, and rejects d = 3 at p = 2
MAX_VECTOR_EQUATIONS = 93_895


class UnsupportedOrderError(ValueError):
    """Requested derivative order has no vector presentation."""


# ---------------------------------------------------------------------------
# Operator building blocks
# ---------------------------------------------------------------------------


def toric_operator(n: int, relation: LatticeRelation) -> WeylOperator:
    """Binomial operator D^(positive part) - D^(negative part)."""
    if len(relation.vector) != n:
        raise ValueError("relation length does not match n")
    zero = (0,) * n
    return _raw_operator(n, {(zero, zero, relation.positive, zero): 1,
                             (zero, zero, relation.negative, zero): -1})


def _symmetry_entries(spec: ModelSpec, k: int,
                      l: int) -> dict[tuple[int, int], int]:
    """The nonzero entries of `symmetry_matrix`, as ints keyed (i, j) in
    row order: the `lie_entries` of E_lk keyed (src, dst), with no dense
    matrix.  Each row holds at most one entry; for k == l that is the
    diagonal entry m_k less 1, on every monomial."""
    entries = lie_entries(spec, l, k)
    if k == l:
        return {(i, i): value for i in range(spec.n)
                if (value := entries.get((i, i), 0) - 1)}
    return {(src, dst): weight for (dst, src), weight in entries.items()}


def symmetry_matrix(spec: ModelSpec, k: int, l: int) -> tuple[tuple[Rat, ...], ...]:
    """Matrix of the symmetry action on the coefficient space.

    Entry (i, j) multiplies a_i D_{a_j} in the first-order operator; see the
    module docstring for the convention.  It is the transpose of the
    derivation action of E_lk, minus the identity when k == l.
    """
    entries = _symmetry_entries(spec, k, l)
    return tuple(tuple(Fraction(entries.get((i, j), 0)) for j in range(spec.n))
                 for i in range(spec.n))


def symmetry_operator(spec: ModelSpec, k: int, l: int,
                      couple_b: bool = False) -> WeylOperator:
    """First-order symmetry operator for E_kl, optionally mirrored on b,
    with the integer entries of `symmetry_matrix` as coefficients."""
    n = spec.n
    zero = (0,) * n
    units = [multiset(n, (i,)) for i in range(n)]
    terms = {}
    for (i, j), value in _symmetry_entries(spec, k, l).items():
        terms[(units[i], zero, units[j], zero)] = value
        if couple_b:
            terms[(zero, units[i], zero, units[j])] = value
    return _raw_operator(n, terms)


def _orderings(exponent: tuple[int, ...]) -> int:
    """Distinct orderings of the multiset with this exponent vector, the
    multinomial (sum of e)! / prod of e!."""
    return factorial(sum(exponent)) // prod(map(factorial, exponent))


# ---------------------------------------------------------------------------
# Scalar systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffSystem:
    """Ordered, labelled operator list with its grading metadata."""

    kind: str           # "base" or "scalar"
    n: int
    p: int
    beta_e: Rat
    operators: tuple[WeylOperator, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.operators) != len(self.labels):
            raise ValueError("labels and operators differ in length")

    def labelled(self) -> list[tuple[str, WeylOperator]]:
        return list(zip(self.labels, self.operators))


def _generator_indices(d: int):
    return [(k, l) for k in range(d + 1) for l in range(d + 1)]


def scalar_system_size(spec: ModelSpec, relations: int, p: int) -> int:
    """Operators `build_scalar_system` emits, counted before building:
    toric, symmetry and a-grading, then for p > 0 the b-grading, bder and
    mixed families."""
    n = spec.n
    size = relations + (spec.d + 1) ** 2 + 1
    if p:
        size += 1 + comb(n + p, p + 1) + comb(n, 2) * comb(n + p - 2, p - 1)
    return size


def build_tautological_system(spec: ModelSpec,
                              relations: list[LatticeRelation]) -> DiffSystem:
    """Base system: toric operators, symmetry operators, Euler + 1."""
    return build_scalar_system(spec, relations, 0)


def build_scalar_system(spec: ModelSpec, relations: list[LatticeRelation],
                        p: int) -> DiffSystem:
    """Scalar system governing the order-p derivative generating function.

    Families emitted, in order: toric; symmetry, b-coupled when p > 0; the
    grading operator of a-degree -(1+p).  For p > 0 there follow the
    b-degree grading operator, all (p+1)-fold b-derivative annihilators and
    the transpositions exchanging the single a-derivative slot with each
    b-derivative slot.  At p = 0 this is the base system.  The relations
    are used as given, one toric operator each.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    if not relations:
        raise ValueError("at least one lattice relation is required")
    size = scalar_system_size(spec, len(relations), p)
    if size > MAX_SYSTEM_OPERATORS:
        raise ResourceBoundError(
            f"the p={p} system at d={spec.d} has {size} operators, above the "
            f"supported {MAX_SYSTEM_OPERATORS}")
    n = spec.n
    zero = (0,) * n
    pairs = [(f"toric{list(rel.vector)}", toric_operator(n, rel))
             for rel in relations]
    for k, l in _generator_indices(spec.d):
        pairs.append((f"symmetry[{k},{l}]",
                      symmetry_operator(spec, k, l, couple_b=p > 0)))
    # the grading constants are ints like every other part; `+` of an int
    # would store a Fraction
    constant = (zero,) * 4
    pairs.append((f"euler_a+{1 + p}",
                  _raw_operator(n, {**euler_a(n).terms, constant: 1 + p})))
    if p:
        units = [multiset(n, (i,)) for i in range(n)]
        pairs.append((f"euler_b-{p}",
                      _raw_operator(n, {**euler_b(n).terms, constant: -p})))
        for combo in combinations_with_replacement(range(n), p + 1):
            op = _raw_operator(n, {(zero, zero, zero, multiset(n, combo)): 1})
            pairs.append((f"bder{list(combo)}", op))
        for u in range(n):
            for v in range(u + 1, n):
                for rest in combinations_with_replacement(range(n), p - 1):
                    op = _raw_operator(n, {
                        (zero, zero, units[u], multiset(n, (v, *rest))): 1,
                        (zero, zero, units[v], multiset(n, (u, *rest))): -1})
                    pairs.append((f"mixed[{u},{v}]{list(rest)}", op))
    labels, operators = zip(*pairs)
    return DiffSystem(kind="scalar" if p else "base", n=n, p=p,
                      beta_e=Fraction(1 + p), operators=operators,
                      labels=labels)


# ---------------------------------------------------------------------------
# Vector systems (p = 1, 2)
# ---------------------------------------------------------------------------


ComponentKey = int | tuple[int, int]


@dataclass(frozen=True)
class VectorEquation:
    """One row: sum over (component, operator) parts must vanish."""

    label: str
    parts: tuple[tuple[ComponentKey, WeylOperator], ...]


@dataclass(frozen=True)
class VectorSystem:
    n: int
    p: int
    keys: tuple[ComponentKey, ...]
    equations: tuple[VectorEquation, ...]


def _component_key(slot: tuple[int, ...]) -> ComponentKey:
    """Key of the component phi_K: k for a one-slot K, else the tuple."""
    return slot if len(slot) > 1 else slot[0]


def vector_system_size(spec: ModelSpec, relations: int, p: int) -> int:
    """Equations `build_vector_system` emits, counted before building: one
    toric, symmetry and grading row per component, then the transpose rows
    (p = 2) and the cross rows."""
    n, pairs = spec.n, comb(spec.n, 2)
    return ((relations + (spec.d + 1) ** 2 + 1) * n ** p
            + (pairs if p == 2 else 0) + pairs * n ** (p - 1))


def build_vector_system(spec: ModelSpec, relations: list[LatticeRelation],
                        p: int) -> VectorSystem:
    """Vector presentation of the derivative system, one component per
    derivative multi-index.  Only p = 1 and p = 2 are written out; higher
    orders are served by the scalar systems.
    """
    if p not in (1, 2):
        raise UnsupportedOrderError(
            f"no vector presentation for p={p}; use build_scalar_system")
    if not relations:
        raise ValueError("at least one lattice relation is required")
    size = vector_system_size(spec, len(relations), p)
    if size > MAX_VECTOR_EQUATIONS:
        raise ResourceBoundError(
            f"the p={p} vector system at d={spec.d} has {size} equations, "
            f"above the supported {MAX_VECTOR_EQUATIONS}")
    n = spec.n
    constant = ((0,) * n,) * 4
    slots = list(product(range(n), repeat=p))
    keys = tuple(_component_key(slot) for slot in slots)
    equations: list[VectorEquation] = []
    for rel in relations:
        label, toric = f"toric{list(rel.vector)}", toric_operator(n, rel)
        for key in keys:
            equations.append(VectorEquation(f"{label}@{key}", ((key, toric),)))
    for gk, gl in _generator_indices(spec.d):
        consts = {entry: _raw_operator(n, {constant: value})
                  for entry, value in _symmetry_entries(spec, gk, gl).items()}
        sym = symmetry_operator(spec, gk, gl)
        for slot, key in zip(slots, keys):
            # D_k Z = Z D_k + sum_j matrix[k][j] D_j, once per slot
            parts: list[tuple[ComponentKey, WeylOperator]] = [(key, sym)]
            for j in range(n):
                for s, k in enumerate(slot):
                    if (k, j) in consts:
                        moved = _component_key(slot[:s] + (j,) + slot[s + 1:])
                        parts.append((moved, consts[k, j]))
            equations.append(VectorEquation(
                f"symmetry[{gk},{gl}]@{key}", tuple(parts)))
    grading = _raw_operator(n, {**euler_a(n).terms, constant: 1 + p})
    for key in keys:
        equations.append(VectorEquation(f"euler@{key}", ((key, grading),)))
    one = _raw_operator(n, {constant: 1})
    for slot, key in zip(slots, keys):
        # p = 1 has nothing to transpose: a one-slot tuple is its reverse
        if slot < slot[::-1]:
            equations.append(VectorEquation(
                f"transpose[{','.join(map(str, slot))}]",
                ((key, one), (_component_key(slot[::-1]), -one))))
    for i in range(n):
        for j in range(i + 1, n):
            for rest in product(range(n), repeat=p - 1):
                equations.append(VectorEquation(
                    f"cross[{i},{j}{''.join(f';{k}' for k in rest)}]",
                    ((_component_key((j, *rest)), d_a(n, i)),
                     (_component_key((*rest, i)), -d_a(n, j)))))
    return VectorSystem(n=n, p=p, keys=keys, equations=tuple(equations))


@dataclass
class VectorSolution:
    """Component series sharing one truncation order."""

    n: int
    p: int
    components: dict[ComponentKey, LaurentSeries]

    def __post_init__(self):
        truncs = {s.truncation for s in self.components.values()}
        if len(truncs) > 1:
            raise ValueError(f"components disagree on truncation: {truncs}")

    @property
    def truncation(self) -> int | None:
        for series in self.components.values():
            return series.truncation
        return None


def _residuals(equations: tuple[VectorEquation, ...],
               solution: VectorSolution) -> dict[str, LaurentSeries]:
    """Residual of each equation, by label.  Each component is packed once,
    into a derivative table sized by the operators that act on it."""
    operators: dict[ComponentKey, list[WeylOperator]] = {}
    for equation in equations:
        for key, op in equation.parts:
            operators.setdefault(key, []).append(op)
    tables = {key: DerivativeTable(solution.components[key], ops)
              for key, ops in operators.items()}
    out = {}
    for equation in equations:
        first, *rest = (
            apply_operator(op, solution.components[key], tables[key])
            for key, op in equation.parts)
        out[equation.label] = first.plus(*rest)
    return out


def vector_residual(equation: VectorEquation,
                    solution: VectorSolution) -> LaurentSeries:
    return _residuals((equation,), solution)[equation.label]


def verify_vector_system(system: VectorSystem,
                         solution: VectorSolution) -> dict[str, LaurentSeries]:
    """Residual of every equation; empty residual series means annihilated."""
    return _residuals(system.equations, solution)


# ---------------------------------------------------------------------------
# Equivalence of the two presentations
# ---------------------------------------------------------------------------


def scalarize(solution: VectorSolution) -> LaurentSeries:
    """Contract the component tuple with b-monomials.

    p = 1 sends (phi_k) to sum b_k phi_k; p = 2 sends (phi_lk) to
    sum b_l b_k phi_lk.  Every component adds into one term map.
    """
    components = list(solution.components.items())
    if not components:
        raise ValueError("empty vector solution")
    first = components[0][1]
    terms: dict = {}
    for key, series in components:
        first._check_compatible(series)
        shift = multiset(solution.n, key if solution.p > 1 else (key,))
        lifted: dict = {}
        for (a, b), coeff in series.terms.items():
            b_key = lifted.get(b)
            if b_key is None:
                b_key = lifted[b] = tuple(map(add, b, shift))
            add_term(terms, (a, b_key), coeff)
    return first._like(terms, *(series for _, series in components))


def vectorize(series: LaurentSeries, p: int) -> VectorSolution:
    """Split a scalar solution into derivative components.

    Requires the input to be homogeneous of degree p in b.  Component k
    (p = 1) is the coefficient of b_k; component (l, k) (p = 2) is the
    coefficient of b_l b_k, halved when l != k because a symmetric input
    contributes that monomial through both (l, k) and (k, l), so that
    vectorize(scalarize(v)) == v on symmetric inputs.  The series is split
    by b-monomial in one pass.
    """
    if p not in (1, 2):
        raise UnsupportedOrderError(f"no vector presentation for p={p}")
    degree = series.b_degree()
    if degree is None:
        degree = p  # the zero series is vacuously homogeneous
    if degree != p:
        raise ValueError(
            f"series is b-homogeneous of degree {degree}, expected {p}")
    n = series.n
    parts = series.b_parts()
    shares: dict[tuple[int, ...], LaurentSeries] = {}
    components: dict[ComponentKey, LaurentSeries] = {}
    for slot in product(range(n), repeat=p):
        exponent = multiset(n, slot)
        if exponent not in shares:
            coefficient = parts.get(exponent)
            if coefficient is None:
                coefficient = series._like({})
            # distinct orderings of the slot, all contributing this monomial
            orderings = _orderings(exponent)
            shares[exponent] = (
                coefficient if orderings == 1
                else coefficient.scale(Fraction(1, orderings)))
        components[_component_key(slot)] = shares[exponent]
    return VectorSolution(n=n, p=p, components=components)


# ---------------------------------------------------------------------------
# Fourier golden forms
# ---------------------------------------------------------------------------


def dual_generator_families(spec: ModelSpec,
                            relations: list[LatticeRelation]) -> list[tuple[str, WeylOperator, bool]]:
    """Hand-assembled dual forms of the p = 1 scalar system.

    Returns (label, operator over the dual families, exact) triples; `exact`
    marks generators whose Fourier image must match literally, the others
    match up to the unit -1 (an ideal has no preferred generator sign).
    """
    n = spec.n
    dual = ("zeta", "xi")
    zero = (0,) * n
    units = [multiset(n, (i,)) for i in range(n)]
    out: list[tuple[str, WeylOperator, bool]] = []
    for rel in relations:
        op = _raw_operator(n, {(rel.positive, zero, zero, zero): 1,
                               (rel.negative, zero, zero, zero): -1}, dual)
        out.append((f"toric{list(rel.vector)}", op, rel.degree % 2 == 0))
    for k, l in _generator_indices(spec.d):
        entries = _symmetry_entries(spec, k, l)
        trace = 2 * sum(entries.get((i, i), 0) for i in range(n))
        terms = {(zero,) * 4: trace} if trace else {}
        for (j, i), value in entries.items():
            terms[(units[i], zero, units[j], zero)] = value
            terms[(zero, units[i], zero, units[j])] = value
        out.append((f"symmetry[{k},{l}]", _raw_operator(n, terms, dual),
                    False))
    euler_zeta = _raw_operator(n, {(u, zero, u, zero): -1 for u in units},
                               dual)
    euler_xi = _raw_operator(n, {(zero, u, zero, u): -1 for u in units}, dual)
    out.append(("euler_a+2", euler_zeta + (2 - n), True))
    out.append(("euler_b-1", euler_xi + (-n - 1), True))
    for i in range(n):
        for j in range(i + 1, n):
            op = _raw_operator(n, {(units[i], units[j], zero, zero): 1,
                                   (units[j], units[i], zero, zero): -1}, dual)
            out.append((f"mixed[{i},{j}][]", op, True))
    for combo in combinations_with_replacement(range(n), 2):
        op = _raw_operator(n, {(zero, multiset(n, combo), zero, zero): 1},
                           dual)
        out.append((f"bder{list(combo)}", op, True))
    return out


def fourier_matches_dual(spec: ModelSpec,
                         relations: list[LatticeRelation]) -> tuple[bool, list[str]]:
    """Compare the transform of the p = 1 system with the golden dual forms.

    Returns the overall verdict plus one line per generator family.
    """
    system = build_scalar_system(spec, relations, 1)
    by_label = dict(system.labelled())
    lines: list[str] = []
    all_ok = True
    for label, expected, exact in dual_generator_families(spec, relations):
        source = by_label.get(label)
        if source is None:
            lines.append(f"{label}: missing source operator")
            all_ok = False
            continue
        image = fourier(source)
        if exact:
            ok = image == expected
        else:
            ok = (image == expected
                  or image == (-1 * expected))
        lines.append(f"{label}: {'match' if ok else 'MISMATCH'}")
        all_ok = all_ok and ok
    return all_ok, lines
