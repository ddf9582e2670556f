"""Normal-ordered differential operators over paired variable families.

An operator acts on functions of two families of n variables each: the
section coefficients and their second copy ("a", "b"), or after a Fourier
transform the dual pair ("zeta", "xi").  Terms are kept in normal order,
all coordinate symbols to the left of all derivative symbols, so equality
of operators is literal equality of canonical forms.

A term is keyed by four exponent tuples

    (coord_1, coord_2, deriv_1, deriv_2)

representing  coeff * u^coord_1 * v^coord_2 * D_u^deriv_1 * D_v^deriv_2
for the current family pair (u, v).  Re-ordering products uses the
commutation rule

    D^g u^c = sum_k  binom(g, k) * falling(c, k) * u^(c-k) D^(g-k)

with multi-index k running below both g and c.
"""

from __future__ import annotations

from itertools import product
from math import comb, perm
from operator import add, index, lshift
from typing import Iterable, Mapping, Sequence

from .exact import (FamilyError, Rat, SparsePoly, TermMap, add_term, as_rat,
                    exponents, multiset)
from .series import LaurentSeries, _index, _raw_series

TermKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

FAMILY_PAIRS = (("a", "b"), ("zeta", "xi"))
DUAL_PAIR = {("a", "b"): ("zeta", "xi"), ("zeta", "xi"): ("a", "b")}


class WeylOperator(TermMap):
    __slots__ = ("n", "families", "terms")
    _SHAPE = ("n", "families")

    def __init__(self, n: int,
                 terms: Mapping[TermKey, int | str | Rat] | None = None,
                 families: tuple[str, str] = ("a", "b")):
        n = index(n)  # a float raises TypeError; True becomes 1
        if n < 1:
            raise ValueError("n must be positive")
        if tuple(families) not in DUAL_PAIR:
            raise FamilyError(f"unknown family pair {families!r}")
        canonical: dict[TermKey, Rat] = {}
        for key, coeff in (terms or {}).items():
            if len(key) != 4:
                raise ValueError("term key must hold four length-n tuples")
            add_term(canonical, tuple(exponents(part, n) for part in key),
                     as_rat(coeff))
        self.n = n
        self.families = tuple(families)
        self.terms = canonical

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, families=("a", "b")) -> "WeylOperator":
        return cls(n, {}, families)

    @classmethod
    def const(cls, n: int, value, families=("a", "b")) -> "WeylOperator":
        zero = (0,) * n
        return cls(n, {(zero, zero, zero, zero): value}, families)

    def _constant_key(self):
        return ((0,) * self.n,) * 4

    # -- queries ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Rat]]:
        return sorted(self.terms.items(), key=lambda kv: _term_order(kv[0]))

    # -- ring structure -------------------------------------------------------

    def _times(self, other):
        return compose(self, other)

    # -- actions --------------------------------------------------------------

    def apply(self, target: "LaurentSeries | SparsePoly") -> LaurentSeries:
        return apply_operator(self, target)

    def fourier(self) -> "WeylOperator":
        return fourier(self)

    def __repr__(self):
        return f"WeylOperator({self.format()})"

    def format(self) -> str:
        """Canonical human-readable form, ASCII only."""
        if not self.terms:
            return "0"
        f1, f2 = self.families
        pieces = []
        for (c1, c2, d1, d2), coeff in self.sorted_terms():
            symbols = (_format_vars(f1, c1) + _format_vars(f2, c2)
                       + _format_vars("D" + f1, d1) + _format_vars("D" + f2, d2))
            body = "*".join(symbols)
            if not body:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append("-" + body)
            else:
                pieces.append(f"{coeff}*{body}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out


def _raw_operator(n: int, terms: dict[TermKey, Rat],
                  families: tuple[str, str] = ("a", "b")) -> WeylOperator:
    """Wrap an already canonical term map, as `series._raw_series` does.

    The caller guarantees keys of four length-n tuples of non-negative
    ints and nonzero coefficients; integer coefficients stay ints.  Outside
    input goes through the validating constructor instead.
    """
    out = WeylOperator.__new__(WeylOperator)
    out.n, out.families, out.terms = n, families, terms
    return out


def _term_order(key: TermKey):
    c1, c2, d1, d2 = key
    return (sum(d1) + sum(d2), d1, d2, sum(c1) + sum(c2), c1, c2)


def _format_vars(name: str, exponents: tuple[int, ...]) -> list[str]:
    return [name + str(i) + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(exponents) if e]


# ---------------------------------------------------------------------------
# Normal-ordered composition
# ---------------------------------------------------------------------------


def _integral(coeff: Rat) -> int | Rat:
    """`coeff` as an int when it is integral, so its products stay ints."""
    return coeff.numerator if coeff.denominator == 1 else coeff


def _normal_order(out: dict[TermKey, Rat], coeff: Rat, left: TermKey,
                  right: TermKey) -> None:
    """Accumulate coeff times the product of the terms `left` and `right`
    into `out`, normal ordered by the commutation rule in one loop over
    both families (the falling factorial is `math.perm`).  An integral
    `coeff` multiplies as an int, so integral operators give ints."""
    (c1, c2, d1, d2), (e1, e2, f1, f2) = left, right
    n, deriv, coord = len(c1), d1 + d2, e1 + e2
    coords = list(map(add, c1 + c2, coord))
    derivs = list(map(add, deriv, f1 + f2))
    active = [i for i in range(2 * n) if deriv[i] and coord[i]]
    coeff = _integral(coeff)
    for choice in product(*(range(min(deriv[i], coord[i]) + 1)
                            for i in active)):
        u, v, scalar = coords[:], derivs[:], coeff
        for i, k in zip(active, choice):
            u[i] -= k
            v[i] -= k
            scalar *= comb(deriv[i], k) * perm(coord[i], k)
        add_term(out, (tuple(u[:n]), tuple(u[n:]), tuple(v[:n]),
                       tuple(v[n:])), scalar)


def compose(left: WeylOperator, right: WeylOperator) -> WeylOperator:
    """Operator product, re-normal-ordered exactly by `_normal_order`;
    integral coefficients multiply as ints and stay ints."""
    left._check_compatible(right)
    out: dict[TermKey, Rat] = {}
    for lkey, lc in left.terms.items():
        for rkey, rc in right.terms.items():
            _normal_order(out, lc * rc, lkey, rkey)
    return left._like(out)


def commutator(left: WeylOperator, right: WeylOperator) -> WeylOperator:
    return compose(left, right) - compose(right, left)


# ---------------------------------------------------------------------------
# Action on series
# ---------------------------------------------------------------------------


def index_shift(op: WeylOperator, i0: int) -> int:
    """Worst change of the expansion index among the operator's terms.

    A term a^c1 D_a^d1 moves an expansion index by |c1| - |d1|, counted
    without the distinguished index i0.  A series exact through order N is
    mapped to one exact through N + index_shift, so that is the order the
    result can certify.  The operator must be nonzero.
    """
    return min([sum(c1) - c1[i0] - sum(d1) + d1[i0]
                for c1, _, d1, _ in op.terms])


def apply_operator(op: WeylOperator, target: LaurentSeries | SparsePoly,
                   table: "DerivativeTable | None" = None) -> LaurentSeries:
    """Apply the operator to a series (or a polynomial viewed as one).

    The output truncation is the input truncation plus `index_shift`, so
    the result never claims orders it cannot certify.  `table` holds the
    derivatives of `target` shared by the operators of a system; without
    one, a private table is built for this operator alone.
    """
    if isinstance(target, SparsePoly):
        target = LaurentSeries.from_poly(target)
    if op.families != ("a", "b"):
        raise FamilyError(
            f"operators over {op.families} do not act on series in the "
            "section coefficients")
    if op.n != target.n:
        raise FamilyError(f"arity mismatch: operator n={op.n}, series n={target.n}")
    if not op.terms:
        return LaurentSeries.zero(target.n, target.i0, truncation=None)
    if table is None:
        table = DerivativeTable(target, (op,))
    elif table.series is not target:
        raise ValueError("the derivative table belongs to another series")

    truncation = (None if target.truncation is None
                  else target.truncation + index_shift(op, target.i0))
    return _raw_series(target.n, target.i0, table.apply(op, truncation),
                       truncation)


def _pack(exponents: Sequence[int], width: int) -> int:
    """One int holding each exponent in a `width`-bit slot, the first
    exponent in the lowest slot.  An exponent that does not fit its slot
    raises rather than spill into the next one."""
    if min(exponents) < 0 or max(exponents) >> width:
        raise OverflowError(
            f"exponents {tuple(exponents)} do not fit {width}-bit slots")
    return sum(map(lshift, exponents, range(0, len(exponents) * width, width)))


class DerivativeTable:
    """The derivatives of one series that a set of operators takes, packed.

    A series key (a, b) becomes one int with a slot per variable, a_0 ..
    a_{n-1} and then b_0 .. b_{n-1}; the a_{i0} slot holds its exponent
    plus `offset`, the largest D_{a_{i0}} order of the operators less the
    most negative a_{i0} exponent, so no slot goes negative.  Slots are
    wide enough for the largest exponent plus the largest coordinate power
    of the operators.  Above the last slot the key carries the expansion
    index, with no bound, so a truncation cut reads one shift.  A derivative
    step is then a shift, a mask and a subtraction, and a coordinate factor
    one addition, with no carry from slot to slot; an operator reaching past
    those bounds raises.

    Derivatives are memoized by their orders d1 + d2, each one step past
    its prefix (the orders with the last nonzero one lowered); a term whose
    falling factor vanishes is never stored, and the derivative of an empty
    prefix is empty with no pass.  Packed coordinate factors are memoized by
    c1 + c2.
    """

    __slots__ = ("series", "width", "offset", "shift", "order_i0", "_top",
                 "_reach", "_maps", "_shifts")

    def __init__(self, series: LaurentSeries,
                 operators: Iterable[WeylOperator]):
        i0 = series.i0
        zero = (0,) * series.n
        shift = order_i0 = 0
        for op in operators:
            for c1, c2, d1, _ in op.terms:
                if c1 != zero or c2 != zero:
                    shift = max(shift, *c1, *c2)
                if d1[i0] > order_i0:
                    order_i0 = d1[i0]
        keys = series.terms.keys()
        lowest = min((a[i0] for a, _ in keys), default=0)
        offset = order_i0 - min(lowest, 0)
        largest = max((max(*a, *b, a[i0] + offset) for a, b in keys),
                      default=offset)
        self.series = series
        self.width = (largest + shift).bit_length() or 1
        self.offset = offset
        self.shift = shift
        self.order_i0 = order_i0
        self._top = top = 2 * series.n * self.width
        packed = {}
        for (a, b), coeff in series.terms.items():
            exponents = [*a, *b]
            exponents[i0] += offset
            key = _pack(exponents, self.width) | _index(a, i0) << top
            packed[key] = coeff
        # the highest expansion index of the series, which a derivative
        # lowers by one per non-distinguished a-order
        self._reach = max(packed, default=0) >> top
        self._maps = {(0,) * (2 * series.n): packed}
        self._shifts: dict[tuple[int, ...], int] = {}

    def derivative(self, orders: tuple[int, ...]) -> dict[int, Rat]:
        """Packed map of the series differentiated `orders[k]` times in slot
        k (0 .. n-1 for a, n .. 2n-1 for b)."""
        maps = self._maps
        step = maps.get(orders)
        if step is None:
            slot = len(orders) - 1
            while not orders[slot]:
                slot -= 1
            offset = 0
            if slot == self.series.i0:
                if orders[slot] > self.order_i0:
                    raise OverflowError(
                        f"D_a{slot}^{orders[slot]} reaches past the a{slot} "
                        "slot of this derivative table")
                offset = self.offset
            prefix = self.derivative(
                orders[:slot] + (orders[slot] - 1,) + orders[slot + 1:])
            step = {}
            if prefix:
                width = self.width
                at = slot * width
                unit, mask = 1 << at, (1 << width) - 1
                if slot < self.series.n and slot != self.series.i0:
                    unit |= 1 << self._top
                for key, coeff in prefix.items():
                    e = (key >> at & mask) - offset
                    if e:
                        step[key - unit] = coeff * e
            maps[orders] = step
        return step

    def _shift(self, powers: tuple[int, ...]) -> int:
        """Packed coordinate factor with the exponents `powers`."""
        shift = self._shifts.get(powers)
        if shift is None:
            if max(powers) > self.shift:
                raise OverflowError(
                    f"coordinate powers {powers} reach past the slots of "
                    "this derivative table")
            a_powers = powers[:self.series.n]
            shift = self._shifts[powers] = (_pack(powers, self.width)
                                            | _index(a_powers, self.series.i0)
                                            << self._top)
        return shift

    def _below(self, derivative: dict[int, Rat], d1: tuple[int, ...],
               level: int) -> dict[int, Rat]:
        """The terms of `derivative`, taken `d1` in a, at expansion index
        `level` or below; the map itself when it reaches no higher."""
        if self._reach - sum(d1) + d1[self.series.i0] <= level:
            return derivative
        top = self._top
        return {key: c for key, c in derivative.items() if key >> top <= level}

    def apply(self, op: WeylOperator,
              truncation: int | None) -> dict[TermKey, Rat]:
        """The nonzero terms of the operator applied to the series up to
        expansion index `truncation` (None: all of them), unpacked.

        Only terms whose derivative is nonempty contribute.  Two of them
        with opposite coefficients and one coordinate factor (every toric
        and mixed row) leave no residual exactly when their derivatives
        agree up to the truncation less the factor's index; that is checked
        with one comparison before anything is summed."""
        parts = []
        for (c1, c2, d1, d2), coeff in op.terms.items():
            derivative = self.derivative(d1 + d2)
            shift = self._shift(c1 + c2)
            if derivative:
                parts.append((_integral(coeff), derivative, shift, d1))
        if not parts:
            return {}
        if len(parts) == 2:
            (coeff, first, shift, d1), (other, second, factor, e1) = parts
            if shift == factor and coeff == -other:
                if truncation is not None:
                    level = truncation - (shift >> self._top)
                    first = self._below(first, d1, level)
                    second = self._below(second, e1, level)
                if first == second:
                    return {}
        out: dict[int, Rat] = {}
        for coeff, derivative, shift, _ in parts:
            if not out:
                out = {key + shift: coeff * c for key, c in derivative.items()}
                continue
            get = out.get
            for key, c in derivative.items():
                key += shift
                out[key] = get(key, 0) + coeff * c
        n, i0, width, top = self.series.n, self.series.i0, self.width, self._top
        mask = (1 << width) - 1
        ats = range(0, top, width)
        terms = {}
        for key, coeff in out.items():
            if coeff and (truncation is None or key >> top <= truncation):
                exponents = [key >> at & mask for at in ats]
                exponents[i0] -= self.offset
                terms[(tuple(exponents[:n]), tuple(exponents[n:]))] = coeff
        return terms


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def fourier(op: WeylOperator) -> WeylOperator:
    """Algebraic Fourier transform.

    Coordinates map to dual derivatives and derivatives to minus the dual
    coordinates; the image is re-normal-ordered in the dual families.
    Applying the transform twice returns the operator with every coordinate
    and derivative negated.

    The term u^c1 v^c2 D_u^d1 D_v^d2 goes to (-1)^(|d1|+|d2|) times
    D^c1 D^c2 u^d1 v^d2 in the dual pair, normal ordered as in `compose`,
    so integral coefficients stay ints.
    """
    zero = (0,) * op.n
    out: dict[TermKey, Rat] = {}
    for (c1, c2, d1, d2), coeff in op.terms.items():
        if (sum(d1) + sum(d2)) % 2:
            coeff = -coeff
        _normal_order(out, coeff, (zero, zero, c1, c2), (d1, d2, zero, zero))
    return WeylOperator.zero(op.n, DUAL_PAIR[op.families])._like(out)


# ---------------------------------------------------------------------------
# Convenience builders for the first family ("a"-side) and the second
# ---------------------------------------------------------------------------


def _unit_term(n: int, part: int, index: int) -> WeylOperator:
    """The operator with one term, variable `index` to the first power in
    key part `part`: 0 and 1 the coordinates a and b, 2 and 3 the
    derivatives D_a and D_b."""
    key = [(0,) * n] * 4
    key[part] = multiset(n, (index,))
    return _raw_operator(n, {tuple(key): 1})


def coord_a(n: int, i: int) -> WeylOperator:
    return _unit_term(n, 0, i)


def coord_b(n: int, i: int) -> WeylOperator:
    return _unit_term(n, 1, i)


def d_a(n: int, i: int) -> WeylOperator:
    return _unit_term(n, 2, i)


def d_b(n: int, i: int) -> WeylOperator:
    return _unit_term(n, 3, i)


def euler_a(n: int) -> WeylOperator:
    """Sum of a_i D_{a_i}: the degree-reading operator on the first family."""
    zero = (0,) * n
    units = (multiset(n, (i,)) for i in range(n))
    return _raw_operator(n, {(u, zero, u, zero): 1 for u in units})


def euler_b(n: int) -> WeylOperator:
    zero = (0,) * n
    units = (multiset(n, (i,)) for i in range(n))
    return _raw_operator(n, {(zero, u, zero, u): 1 for u in units})
