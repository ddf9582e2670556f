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
from math import factorial

from .exact import Rat, SparsePoly, exponents, multiset
from .model import ModelSpec
from .series import (LaurentSeries, _derivative, _derive_into, _raw_series,
                     _truncation, min_truncation)
from .systems import DiffSystem, VectorSolution, _component_key, _orderings
from .weyl import DerivativeTable, apply_operator


def period_series(spec: ModelSpec, order: int) -> LaurentSeries:
    """Torus-cycle period expansion, exact through expansion index `order`.

    Layer j is the fiber A m = j (1, .., 1) of the exponent matrix: counts m
    of the non-distinguished basis monomials whose exponents sum to j times
    the interior monomial.  Each fiber point carries the integer
    (-1)^j j! / prod m_i! (Gelfand-Kapranov-Zelevinsky).  The walk picks the
    counts of the mixed monomials depth first; the pure powers x_r^(d+1)
    then fill what is left of each row, which must be a multiple of d+1, so
    the work follows the fiber rather than all degree-j products.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    n, i0, degree = spec.n, spec.i0, spec.d + 1
    pure: list[int | None] = [None] * degree
    mixed: list[tuple[int, tuple[int, ...]]] = []
    for i, exp in enumerate(spec.basis):
        if i == i0:
            continue
        if degree in exp:
            pure[exp.index(degree)] = i
        else:
            mixed.append((i, exp))
    # sort by support so that rows settle one after another: once the last
    # mixed monomial using a row is chosen, that row's remainder is final
    # and must already be a multiple of d+1
    mixed.sort(key=lambda item: [not e for e in item[1]])
    last = [max((k + 1 for k, (_, exp) in enumerate(mixed) if exp[row]),
                default=0) for row in range(degree)]
    settled = [[row for row in range(degree) if last[row] == k]
               for k in range(len(mixed) + 1)]
    zero_b = (0,) * n
    terms: dict = {}
    counts = [0] * n

    def walk(k: int, left: list[int], denominator: int, top: int):
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


def derivative_generating_series(base: LaurentSeries, p: int,
                                 order: int) -> LaurentSeries:
    """Generating function of the p-fold derivatives, contracted with b.

    Sums b_{k_1}..b_{k_p} times the corresponding iterated derivative of
    the base series over all index tuples; requires enough input truncation
    to certify the requested output order.
    """
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
    terms: dict = {}
    coeff = Fraction(1)
    zero_b = (0, 0, 0)
    for k in range(order + 1):
        terms[((-1 - 2 * k, k, k), zero_b)] = coeff
        coeff = coeff * 2 * (2 * k + 1) / (k + 1)
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
