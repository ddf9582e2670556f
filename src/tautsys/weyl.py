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

from fractions import Fraction
from itertools import product
from math import comb
from typing import Mapping

from .exact import FamilyError, Rat, SparsePoly, add_term, as_rat
from .series import LaurentSeries, _raw_series

TermKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

FAMILY_PAIRS = (("a", "b"), ("zeta", "xi"))
DUAL_PAIR = {("a", "b"): ("zeta", "xi"), ("zeta", "xi"): ("a", "b")}


class WeylOperator:
    __slots__ = ("n", "families", "terms")

    def __init__(self, n: int,
                 terms: Mapping[TermKey, int | str | Rat] | None = None,
                 families: tuple[str, str] = ("a", "b")):
        if n < 1:
            raise ValueError("n must be positive")
        if tuple(families) not in DUAL_PAIR:
            raise FamilyError(f"unknown family pair {families!r}")
        canonical: dict[TermKey, Rat] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(tuple(map(int, part)) for part in key)
            if len(key) != 4 or any(len(part) != n for part in key):
                raise ValueError("term key must hold four length-n tuples")
            if min(map(min, key)) < 0:
                raise ValueError("operator exponents must be non-negative")
            add_term(canonical, key, as_rat(coeff))
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

    @classmethod
    def term(cls, n: int, coeff, coord_1=None, coord_2=None,
             deriv_1=None, deriv_2=None, families=("a", "b")) -> "WeylOperator":
        zero = (0,) * n
        key = (tuple(coord_1 or zero), tuple(coord_2 or zero),
               tuple(deriv_1 or zero), tuple(deriv_2 or zero))
        return cls(n, {key: coeff}, families)

    @classmethod
    def coordinate(cls, n: int, slot: int, index: int,
                   families=("a", "b")) -> "WeylOperator":
        """The multiplication operator by variable `index` of family `slot`."""
        exp = _unit(n, index)
        if slot == 0:
            return cls.term(n, 1, coord_1=exp, families=families)
        return cls.term(n, 1, coord_2=exp, families=families)

    @classmethod
    def derivative(cls, n: int, slot: int, index: int,
                   families=("a", "b")) -> "WeylOperator":
        exp = _unit(n, index)
        if slot == 0:
            return cls.term(n, 1, deriv_1=exp, families=families)
        return cls.term(n, 1, deriv_2=exp, families=families)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[TermKey, Rat]]:
        return sorted(self.terms.items(), key=lambda kv: _term_order(kv[0]))

    def __eq__(self, other):
        return (isinstance(other, WeylOperator)
                and self.n == other.n
                and self.families == other.families
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.families, frozenset(self.terms.items())))

    # -- ring structure -------------------------------------------------------

    def _check_compatible(self, other: "WeylOperator"):
        if self.n != other.n:
            raise FamilyError(f"arity mismatch: {self.n} vs {other.n}")
        if self.families != other.families:
            raise FamilyError(
                f"family mismatch: {self.families} vs {other.families}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylOperator.const(self.n, other, self.families)
        self._check_compatible(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(merged, key, coeff)
        return _raw(self.n, self.families, merged)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.n, self.families,
                    {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylOperator.const(self.n, other, self.families)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = as_rat(other)
            if not scale:
                return WeylOperator.zero(self.n, self.families)
            return _raw(self.n, self.families,
                        {k: c * scale for k, c in self.terms.items()})
        return compose(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

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


def _raw(n: int, families: tuple[str, str],
         terms: dict[TermKey, Rat]) -> WeylOperator:
    op = WeylOperator.__new__(WeylOperator)
    op.n, op.families, op.terms = n, families, terms
    return op


def _unit(n: int, index: int) -> tuple[int, ...]:
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for n={n}")
    return tuple(1 if i == index else 0 for i in range(n))


def _term_order(key: TermKey):
    c1, c2, d1, d2 = key
    return (sum(d1) + sum(d2), d1, d2, sum(c1) + sum(c2), c1, c2)


def _format_vars(name: str, exponents: tuple[int, ...]) -> list[str]:
    return [name + str(i) + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(exponents) if e]


# ---------------------------------------------------------------------------
# Normal-ordered composition
# ---------------------------------------------------------------------------


def _falling(value: int, count: int) -> int:
    out = 1
    for t in range(count):
        out *= value - t
    return out


def _commutations(deriv: tuple[int, ...], coord: tuple[int, ...]):
    """Yield (k, scalar) over the expansion of D^deriv u^coord.

    Only positions where both exponents are positive contribute; the scalar
    is the product of binom(deriv_i, k_i) * falling(coord_i, k_i).
    """
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
            scalar *= comb(deriv[i], ki) * _falling(coord[i], ki)
        yield tuple(k), scalar


def compose(left: WeylOperator, right: WeylOperator) -> WeylOperator:
    """Operator product, re-normal-ordered exactly."""
    left._check_compatible(right)
    n = left.n
    out: dict[TermKey, Rat] = {}
    for (c1, c2, d1, d2), lc in left.terms.items():
        for (e1, e2, f1, f2), rc in right.terms.items():
            base = lc * rc
            for k1, s1 in _commutations(d1, e1):
                for k2, s2 in _commutations(d2, e2):
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
    return _raw(n, left.families, out)


def commutator(left: WeylOperator, right: WeylOperator) -> WeylOperator:
    return compose(left, right) - compose(right, left)


# ---------------------------------------------------------------------------
# Action on series
# ---------------------------------------------------------------------------


def apply_operator(op: WeylOperator,
                   target: LaurentSeries | SparsePoly) -> LaurentSeries:
    """Apply the operator to a series (or a polynomial viewed as one).

    The output truncation is the input truncation shifted by the worst
    expansion-index displacement among the operator terms, so the result
    never claims orders it cannot certify.
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

    i0 = target.i0
    shift = min(
        (sum(c1) - c1[i0]) - (sum(d1) - d1[i0])
        for (c1, _, d1, _) in op.terms)
    truncation = None if target.truncation is None else target.truncation + shift

    out: dict[TermKey, Rat] = {}
    for (c1, c2, d1, d2), oc in op.terms.items():
        for (a_exp, b_exp), sc in target.terms.items():
            factor = 1
            for m, g in zip(a_exp, d1):
                if g:
                    factor *= _falling(m, g)
                    if not factor:
                        break
            if not factor:
                continue
            for q, g in zip(b_exp, d2):
                if g:
                    factor *= _falling(q, g)
                    if not factor:
                        break
            if not factor:
                continue
            key = (
                tuple(m - g + c for m, g, c in zip(a_exp, d1, c1)),
                tuple(q - g + c for q, g, c in zip(b_exp, d2, c2)),
            )
            add_term(out, key, oc * sc * factor)
    return _raw_series(target.n, target.i0, out, truncation)


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def fourier(op: WeylOperator) -> WeylOperator:
    """Algebraic Fourier transform.

    Coordinates map to dual derivatives and derivatives to minus the dual
    coordinates; the image is re-normal-ordered in the dual families.
    Applying the transform twice returns the operator with every coordinate
    and derivative negated.
    """
    dual = DUAL_PAIR[op.families]
    n = op.n
    zero = (0,) * n
    out = WeylOperator.zero(n, dual)
    for (c1, c2, d1, d2), coeff in op.terms.items():
        sign = -1 if (sum(d1) + sum(d2)) % 2 else 1
        deriv_part = _raw(n, dual, {(zero, zero, c1, c2): coeff * sign})
        coord_part = _raw(n, dual, {(d1, d2, zero, zero): Fraction(1)})
        out = out + compose(deriv_part, coord_part)
    return out


# ---------------------------------------------------------------------------
# Convenience builders for the first family ("a"-side) and the second
# ---------------------------------------------------------------------------


def coord_a(n: int, i: int) -> WeylOperator:
    return WeylOperator.coordinate(n, 0, i)


def coord_b(n: int, i: int) -> WeylOperator:
    return WeylOperator.coordinate(n, 1, i)


def d_a(n: int, i: int) -> WeylOperator:
    return WeylOperator.derivative(n, 0, i)


def d_b(n: int, i: int) -> WeylOperator:
    return WeylOperator.derivative(n, 1, i)


def euler_a(n: int) -> WeylOperator:
    """Sum of a_i D_{a_i}: the degree-reading operator on the first family."""
    zero = (0,) * n
    return WeylOperator(n, {(_unit(n, i), zero, _unit(n, i), zero): 1
                            for i in range(n)})


def euler_b(n: int) -> WeylOperator:
    zero = (0,) * n
    return WeylOperator(n, {(zero, _unit(n, i), zero, _unit(n, i)): 1
                            for i in range(n)})
