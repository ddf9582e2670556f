"""Geometric input datum for projective space.

For X = P^d with the anticanonical bundle O(d+1), the section space is
spanned by all degree-(d+1) monomials in x_0..x_d.  This module builds the
monomial basis, enumerates integer relations among the exponent columns
(sources of the toric operators), and realizes the gl(d+1) action on the
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb
from operator import add, index, itemgetter

from .exact import Rat, exponents, multiset

MAX_DIMENSION = 3
#: candidate pairs sum C(k, 2) over the fibers of k equal column sums; the
#: d = 2 degree-bound-4 count, the largest any test or benchmark uses
MAX_RELATION_PAIRS = 4764

#: basis orderings matching the worked P^1 and P^2 coefficient labels:
#: the interior monomial comes first, then the boundary monomials walked
#: along the perimeter of the Newton simplex.
_INTERIOR_FIRST_TABLES = {
    1: ((1, 1), (2, 0), (0, 2)),
    2: ((1, 1, 1), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 2, 1),
        (0, 1, 2), (0, 0, 3), (1, 0, 2), (2, 0, 1), (3, 0, 0)),
}

ORDERINGS = ("grlex", "interior-first")


class ResourceBoundError(ValueError):
    """A parameter exceeds the configured desk-scale bounds."""


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex order."""
    if degree < 0:
        return []
    return sorted((multiset(nvars, bars) for bars in
                   combinations_with_replacement(range(nvars), degree)),
                  reverse=True)


@dataclass(frozen=True)
class ModelSpec:
    """Monomial basis of the anticanonical sections of P^d."""

    d: int
    n: int
    basis: tuple[tuple[int, ...], ...]
    i0: int
    ordering: str

    def __post_init__(self):
        for name in ("d", "n", "i0"):  # a float raises; True becomes 1
            object.__setattr__(self, name, index(getattr(self, name)))
        degree = self.d + 1
        if len(self.basis) != self.n:
            raise ValueError("basis size does not match n")
        for exp in self.basis:
            if len(exp) != self.d + 1 or sum(exp) != degree:
                raise ValueError(f"bad basis exponent {exp}")
        if len(set(self.basis)) != self.n:
            raise ValueError("basis monomials must be pairwise distinct")
        if not 0 <= self.i0 < self.n or self.basis[self.i0] != (1,) * degree:
            raise ValueError("i0 must point at the interior monomial")
        object.__setattr__(
            self, "_position",
            {exp: i for i, exp in enumerate(self.basis)})

    def index_of(self, exponent: tuple[int, ...]) -> int:
        return self._position[tuple(exponent)]


def build_projective_model(d: int, ordering: str = "grlex") -> ModelSpec:
    """Basis of degree-(d+1) monomials on P^d.

    `ordering` picks the label convention: "grlex" sorts descending
    graded-lex; "interior-first" reproduces the P^1 / P^2 worked-example
    coefficient labels (interior monomial at index 0).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > MAX_DIMENSION:
        raise ResourceBoundError(
            f"d={d} exceeds the supported bound {MAX_DIMENSION}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    monos = monomials_of_degree(d + 1, d + 1)
    if ordering == "interior-first":
        if d in _INTERIOR_FIRST_TABLES:
            basis = _INTERIOR_FIRST_TABLES[d]
        else:
            interior = (1,) * (d + 1)
            basis = (interior,) + tuple(m for m in monos if m != interior)
    else:
        basis = tuple(monos)
    n = len(basis)
    if n != comb(2 * d + 1, d):
        raise AssertionError(f"basis of P^{d} has {n} monomials, "
                             f"expected {comb(2 * d + 1, d)}")
    i0 = basis.index((1,) * (d + 1))
    return ModelSpec(d=d, n=n, basis=basis, i0=i0, ordering=ordering)


def fermat_point(spec: ModelSpec) -> tuple[Rat, ...]:
    """Coefficient vector of x_0^(d+1) + ... + x_d^(d+1)."""
    degree = spec.d + 1
    powers = {tuple(degree if i == j else 0 for i in range(spec.d + 1))
              for j in range(spec.d + 1)}
    return tuple(
        Fraction(1) if exp in powers else Fraction(0) for exp in spec.basis)


# ---------------------------------------------------------------------------
# Lattice relations among basis exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeRelation:
    """Integer vector in the kernel of the exponent matrix.

    Positive and negative parts have disjoint support and, because every
    column has the same degree, equal total size.
    """

    vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", exponents(
            self.vector, len(self.vector), range(len(self.vector))))
        if not any(self.vector):
            raise ValueError("relation must be nonzero")
        if sum(e for e in self.vector if e > 0) != -sum(
                e for e in self.vector if e < 0):
            raise ValueError("positive and negative parts differ in size")

    @cached_property
    def positive(self) -> tuple[int, ...]:
        return tuple(max(e, 0) for e in self.vector)

    @cached_property
    def negative(self) -> tuple[int, ...]:
        return tuple(max(-e, 0) for e in self.vector)

    @property
    def degree(self) -> int:
        return sum(self.positive)


def lattice_relations(spec: ModelSpec, degree_bound: int) -> list[LatticeRelation]:
    """All kernel vectors with positive part of size at most the bound.

    Enumerates multisets of basis columns of equal size and equal column
    sum; pairs with common support are skipped since they reduce to a
    smaller relation already found.  The multisets of each size grow from
    those one smaller by one column at or after their last: the counts
    gain one at the new index, the column sum one basis column and the
    support bit mask one bit.  The relations are distinct up to sign by
    construction, each with a positive first nonzero entry, and come sorted
    by (degree, vector): each size's relations are sorted by vector and the
    sizes follow in ascending order.  The candidate pairs are counted
    before any is formed, and a count above MAX_RELATION_PAIRS raises
    `ResourceBoundError` naming the largest bound whose count fits.
    """
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    basis, n = spec.basis, spec.n
    # each multiset as (indices, counts, column sum, support bit mask), its
    # indices ascending, so each level comes in combinations_with_replacement
    # order: descending lex order of the counts
    level = [((), (0,) * n, (0,) * (spec.d + 1), 0)]
    sizes: list[list[list]] = []  # per size from 2, the fibers
    pairs = largest = 0
    for size in range(1, degree_bound + 1):
        grown = []
        for indices, counts, column_sum, support in level:
            for j in range(indices[-1] if indices else 0, n):
                bumped = list(counts)
                bumped[j] += 1
                grown.append((indices + (j,), tuple(bumped),
                              tuple(map(add, column_sum, basis[j])),
                              support | 1 << j))
        level = grown
        if size < 2:
            continue
        groups: dict[tuple[int, ...], list] = {}
        for member in level:
            groups.setdefault(member[2], []).append(member)
        sizes.append(list(groups.values()))
        pairs += sum(comb(len(members), 2) for members in groups.values())
        if pairs <= MAX_RELATION_PAIRS:
            largest = size
    if pairs > MAX_RELATION_PAIRS:
        raise ResourceBoundError(
            f"degree bound {degree_bound} at d={spec.d} gives {pairs} "
            f"candidate relations, above the supported {MAX_RELATION_PAIRS}; "
            f"the largest supported degree bound at d={spec.d} is {largest}")
    # members come in strictly descending lex order, so with disjoint
    # supports plus - minus has a positive first nonzero entry, and each
    # unordered pair, visited once, fixes the relation up to sign.  The
    # multisets are valid exponent vectors of one size and disjoint, so each
    # relation is made without the constructor's checks, with plus and
    # minus as its positive and negative parts.
    out = []
    for fibers in sizes:
        found = []
        for members in fibers:
            for idx, (_, plus, _, plus_support) in enumerate(members):
                for indices, minus, _, minus_support in members[idx + 1:]:
                    if plus_support & minus_support:
                        continue
                    vector = list(plus)
                    for j in indices:
                        vector[j] -= 1
                    found.append((tuple(vector), plus, minus))
        found.sort(key=itemgetter(0))
        for vector, plus, minus in found:
            rel = object.__new__(LatticeRelation)
            rel.__dict__.update(vector=vector, positive=plus, negative=minus)
            out.append(rel)
    return out


# ---------------------------------------------------------------------------
# gl(d+1) action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieGenerator:
    """Derivation action of E_kl = x_k d/dx_l on the monomial basis.

    The matrix carries entry m_l at (index of m - e_l + e_k, index of m)
    and zeros elsewhere.
    """

    k: int
    l: int
    matrix: tuple[tuple[int, ...], ...]


def lie_entries(spec: ModelSpec, k: int, l: int) -> dict[tuple[int, int], int]:
    """The nonzero entries of the `lie_action` matrix of E_kl, as ints keyed
    (dst, src) in ascending src: each monomial m with m_l >= 1 has the one
    image m - e_l + e_k, with weight m_l, and E_kk keeps every such m."""
    if not (0 <= k <= spec.d and 0 <= l <= spec.d):
        raise ValueError(f"generator indices ({k}, {l}) out of range")
    entries = {}
    for src, exp in enumerate(spec.basis):
        weight = exp[l]
        if weight:
            dst = src
            if k != l:
                shifted = list(exp)
                shifted[l] -= 1
                shifted[k] += 1
                dst = spec.index_of(shifted)
            entries[dst, src] = weight
    return entries


def lie_action(spec: ModelSpec, k: int, l: int) -> LieGenerator:
    """E_kl as a dense n x n matrix, built from its `lie_entries`."""
    rows = [[0] * spec.n for _ in range(spec.n)]
    for (dst, src), weight in lie_entries(spec, k, l).items():
        rows[dst][src] = weight
    return LieGenerator(k=k, l=l, matrix=tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Multiplication surjectivity of section powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanReport:
    surjective: bool
    rank: int
    expected: int


def multiplication_surjectivity(spec: ModelSpec, k: int, l: int) -> SpanReport:
    """Do products of degree-k(d+1) and degree-l(d+1) monomials span
    degree-(k+l)(d+1)?

    The span of a set of monomials is free on the distinct exponents, so the
    rank is the number of distinct pairwise products.
    """
    if k < 0 or l < 0:
        raise ValueError("powers must be non-negative")
    if k + l > 4:
        raise ResourceBoundError("k+l exceeds the supported bound 4")
    nvars = spec.d + 1
    degree = spec.d + 1
    left = monomials_of_degree(nvars, k * degree)
    right = monomials_of_degree(nvars, l * degree)
    products = {
        tuple(u + v for u, v in zip(p, q)) for p in left for q in right}
    expected = comb((k + l) * degree + spec.d, spec.d)
    return SpanReport(surjective=len(products) == expected,
                      rank=len(products), expected=expected)
