"""Exact period expansions for the torus cycle and their verification.

Around large a_{i0} the period of the hypersurface family expands as a
geometric series: writing u_i for the Laurent monomial x^(m_i - m_{i0}) on
the torus,

    Pi(a) = sum_{j >= 0} (-1)^j a_{i0}^(-j-1) * CT[ (sum_{i != i0} a_i u_i)^j ]

where CT extracts the constant term in the torus coordinates.  Every
coefficient is an exact multinomial count, so the series is computed and
verified with no rounding at any point.  Its derivative data is read from
the one derivative kernel, `series._derive_into`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from operator import add, index, itemgetter

from .exact import Rat, SparsePoly, exponents, multiset
from .model import ModelSpec
from .series import (LaurentSeries, _derivative, _derive_into, _raw_series,
                     _truncation, min_truncation)
from .systems import DiffSystem, VectorSolution, _component_key, _orderings
from .weyl import DerivativeTable, apply_operator


def _half_list(basis, members: list[int], order: int) -> dict:
    """Every count vector over the basis monomials `members` that uses each
    row at most `order` times, keyed by its row use A c: each use maps to
    its (counts, prod c_i!) pairs."""
    half: dict = {}

    def walk(k: int, use: tuple[int, ...], counts: tuple[int, ...],
             denominator: int):
        if k == len(members):
            half.setdefault(use, []).append((counts, denominator))
            return
        exp = basis[members[k]]
        c = 0
        while True:
            walk(k + 1, use, counts + (c,), denominator)
            use = tuple(map(add, use, exp))
            if max(use) > order:
                return
            c += 1
            denominator *= c

    walk(0, (0,) * len(basis[0]), (), 1)
    return half


def period_series(spec: ModelSpec, order: int) -> LaurentSeries:
    """Torus-cycle period expansion, exact through expansion index `order`.

    Layer j is the fiber A m = j (1, .., 1) of the exponent matrix: counts m
    of the non-distinguished basis monomials whose exponents sum to j times
    the interior monomial.  Each fiber point carries the integer
    (-1)^j j! / prod m_i! (Gelfand-Kapranov-Zelevinsky).  The fibers of all
    layers are met in the middle (Horowitz-Sahni): the mixed monomials,
    all but the interior one and the pure powers x_r^(d+1), are split into
    two halves, and each half lists once every count vector whose row use
    stays at most `order`.  A pair of entries joins when every row's total
    use u_r is congruent to one residue c mod d+1; the pair is then a fiber
    point of every layer j = c mod d+1 from max u_r up to `order`, the pure
    powers filling (j - u_r) / (d+1).  A row with no pure power in the
    basis takes only the layer j = u_r.  At d = 1 both halves are empty.
    """
    order = index(order)  # a float raises; True becomes 1
    if order < 0:
        raise ValueError("order must be non-negative")
    n, i0, degree = spec.n, spec.i0, spec.d + 1
    pure: list[int | None] = [None] * degree
    mixed: list[int] = []
    for i, exp in enumerate(spec.basis):
        if i == i0:
            continue
        if degree in exp:
            pure[exp.index(degree)] = i
        else:
            mixed.append(i)
    # split in descending exponent order, each half leans on the same rows
    # and its count vectors share fewer row uses: at d = 3 order 7 the
    # halves list 3941 and 3907 counts, against 11206 and 11199 alternated
    mixed.sort(key=spec.basis.__getitem__, reverse=True)
    split = len(mixed) // 2
    left = _half_list(spec.basis, mixed[:split], order)
    # right-half uses by residue class: left and right uses join when each
    # row's total use is congruent to row 0's
    right: dict = {}
    for use, entries in _half_list(spec.basis, mixed[split:], order).items():
        residues = tuple((use[0] - u) % degree for u in use)
        right.setdefault(residues, []).append((use, entries))
    fixed = [row for row in range(degree) if pure[row] is None]
    # a key is read off the left counts, the right counts, the pure-power
    # counts and the interior exponent, in that order; a row with no pure
    # power has a quota of 0 and no place in the key
    source = mixed + pure + [i0]
    positions = [source.index(i) for i in range(n)]
    # itemgetter of one index returns the item, not a 1-tuple
    place = (itemgetter(*positions) if n > 1
             else lambda values: (values[positions[0]],))
    factorials = [1]
    for j in range(1, order + 1):
        factorials.append(factorials[-1] * j)
    signed = [f if j % 2 == 0 else -f for j, f in enumerate(factorials)]
    zero_b = (0,) * n
    terms: dict = {}
    for use_left, entries_left in left.items():
        residues = tuple((u - use_left[0]) % degree for u in use_left)
        for use_right, entries_right in right.get(residues, ()):
            use = tuple(map(add, use_left, use_right))
            top = max(use)
            # a row with no pure power is filled by its mixed use alone
            if top > order or fixed and any(use[r] < top for r in fixed):
                continue
            layers = []
            for j in range(top + (use[0] - top) % degree,
                           (top if fixed else order) + 1, degree):
                quotas = tuple((j - u) // degree for u in use)
                denominator = 1
                for q in quotas:
                    denominator *= factorials[q]
                # j! / prod q! is a multinomial number, so exact
                layers.append((quotas + (-j - 1,), signed[j] // denominator))
            for counts_left, denominator_left in entries_left:
                for counts_right, denominator_right in entries_right:
                    counts = counts_left + counts_right
                    pair = denominator_left * denominator_right
                    for tail, numerator in layers:
                        terms[(place(counts + tail), zero_b)] = (
                            numerator // pair)
    return _raw_series(n, i0, terms, order)


def derivative_generating_series(base: LaurentSeries, p: int,
                                 order: int) -> LaurentSeries:
    """Generating function of the p-fold derivatives, contracted with b.

    Sums b_{k_1}..b_{k_p} times the corresponding iterated derivative of
    the base series over all index tuples; requires enough input truncation
    to certify the requested output order.
    """
    p, order = index(p), index(order)  # a float raises; True becomes 1
    if p < 1:
        raise ValueError("p must be at least 1")
    if base.truncation is not None and base.truncation < order + p:
        raise ValueError(
            f"base truncation {base.truncation} cannot certify order {order} "
            f"after {p} derivatives; need at least {order + p}")
    terms: dict = {}
    for combo in combinations_with_replacement(range(base.n), p):
        _derive_into(base, combo, order, terms,
                     _orderings(multiset(base.n, combo)), lift=True)
    return _raw_series(base.n, base.i0, terms, order)


class PeriodFamily:
    """Torus-cycle period data for one model, with cached derivatives.

    Derivative series are memoized by multi-index; a cached entry is always
    the literal iterated coefficientwise derivative of the base expansion.
    """

    cycle = "torus"

    def __init__(self, spec: ModelSpec, order: int):
        self.spec = spec
        self.base = period_series(spec, order)
        self._derivatives: dict[tuple[int, ...], LaurentSeries] = {}

    def derivative(self, alpha) -> LaurentSeries:
        """Iterated derivative of the base series by the multi-index alpha."""
        alpha = exponents(alpha, self.spec.n)
        if alpha not in self._derivatives:
            self._derivatives[alpha] = _derivative(self.base, tuple(
                i for i, count in enumerate(alpha) for _ in range(count)))
        return self._derivatives[alpha]


def derivative_vector_solution(base: LaurentSeries, p: int) -> VectorSolution:
    """Component form of the derivative data, all pruned to a shared order.
    The orderings of one index multiset share its series."""
    if p not in (1, 2):
        raise ValueError("vector components are kept for p = 1 and 2 only")
    slots = list(product(range(base.n), repeat=p))
    common = min_truncation(*(_truncation(base, slot) for slot in slots))
    series = {combo: _derivative(base, combo, common)
              for combo in combinations_with_replacement(range(base.n), p)}
    return VectorSolution(n=base.n, p=p, components={
        _component_key(slot): series[tuple(sorted(slot))] for slot in slots})


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualEntry:
    label: str
    residual: LaurentSeries
    zero: bool
    verified_order: int | None


@dataclass(frozen=True)
class AnnihilationReport:
    entries: tuple[ResidualEntry, ...]
    all_zero: bool
    verified_order: int | None

    def entry(self, label: str) -> ResidualEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


def verify_annihilation(system: DiffSystem,
                        series: LaurentSeries) -> AnnihilationReport:
    """Apply every operator and report the exact residuals.

    The operators read the derivatives of `series` from one shared
    `DerivativeTable`, dropped when the call returns.  `verified_order` is
    the expansion index through which vanishing is certified (None means
    exact at every order).  Insufficient input truncation is not an error;
    it only lowers the verified order, possibly below zero, in which case
    the zero flags are vacuous.
    """
    table = DerivativeTable(series, system.operators)
    entries = []
    for label, op in system.labelled():
        residual = apply_operator(op, series, table)
        entries.append(ResidualEntry(
            label=label,
            residual=residual,
            zero=residual.is_zero(),
            verified_order=residual.truncation))
    return AnnihilationReport(
        entries=tuple(entries),
        all_zero=all(e.zero for e in entries),
        verified_order=min_truncation(*(e.verified_order for e in entries)))


# ---------------------------------------------------------------------------
# Closed form on the projective line
# ---------------------------------------------------------------------------


def closed_form_series_p1(order: int) -> LaurentSeries:
    """Binomial expansion of (a0^2 - 4 a1 a2)^(-1/2) around large a0.

    The k-th coefficient is the central binomial number C(2k, k); `order`
    counts powers of the ratio a1 a2 / a0^2, so the result is exact through
    expansion index 2 * order + 1.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    zero_b = (0, 0, 0)
    terms = {((-1 - 2 * k, k, k), zero_b): comb(2 * k, k)
             for k in range(order + 1)}
    return LaurentSeries(3, 0, terms, truncation=2 * order + 1)


@dataclass(frozen=True)
class DerivativeProbe:
    """Sign of one partial derivative of the closed form at one point.

    The derivative of g^(-1/2) is prefactor * g^(-3/2) with the polynomial
    prefactor -(1/2) dg/da_i, so its vanishing at a point with g != 0 is
    decided by evaluating the prefactor exactly.
    """

    variable: int
    point: tuple[Rat, ...]
    prefactor: SparsePoly
    prefactor_value: Rat
    base_value: Rat
    vanishes: bool


@dataclass(frozen=True)
class FermatDerivativeReport:
    probes: tuple[DerivativeProbe, ...]
    ok: bool


def fermat_derivative_check_p1() -> FermatDerivativeReport:
    """Differential zeros of the closed form at and away from the Fermat point.

    Checks that d/da0 of (a0^2 - 4 a1 a2)^(-1/2) vanishes at (0, 1, 1), that
    d/da1 does not, and that d/da0 stops vanishing away from the Fermat
    point (probed at a0 = 3).
    """
    g = (SparsePoly.monomial("a", 3, (2, 0, 0))
         - 4 * SparsePoly.monomial("a", 3, (0, 1, 1)))

    def probe(variable: int, point: tuple[int, ...]) -> DerivativeProbe:
        prefactor = g.partial_derivative(variable) * Fraction(-1, 2)
        value = prefactor.evaluate(point)
        base = g.evaluate(point)
        return DerivativeProbe(
            variable=variable,
            point=tuple(Fraction(c) for c in point),
            prefactor=prefactor,
            prefactor_value=value,
            base_value=base,
            vanishes=(value == 0))

    fermat = (0, 1, 1)
    probes = (
        probe(0, fermat),
        probe(1, fermat),
        probe(0, (3, 1, 1)),
    )
    ok = (probes[0].vanishes
          and not probes[1].vanishes
          and not probes[2].vanishes
          and all(p.base_value != 0 for p in probes))
    return FermatDerivativeReport(probes=probes, ok=ok)
