"""Truncated Laurent series in the section coefficients.

A series lives in n variables a_0..a_{n-1}, polynomially extended by a
second copy b_0..b_{n-1}.  One distinguished index i0 (the coefficient of
the interior monomial) is the only position allowed to carry negative
exponents; every expansion we build is a power series in the remaining
variables divided by a power of a_{i0}.

The *expansion index* of a term is its total degree in the non-distinguished
a-variables.  `truncation` is the largest expansion index guaranteed to be
complete and exact: terms beyond it are discarded rather than stored as
unverified zeros.  `truncation=None` marks a series that is exact at every
order (for instance, a Laurent polynomial).  Every derivative is one pass
of the falling-factorial kernel `_derive_into`, which `derivative_a` and
the derivative data of `tautsys.periods` read.
"""

from __future__ import annotations

from operator import add, index, sub
from typing import Mapping

from .exact import (FamilyError, Rat, SparsePoly, TermMap, add_term, as_rat,
                    exponents, grlex_key, multiset)

TermKey = tuple[tuple[int, ...], tuple[int, ...]]


class LaurentSeries(TermMap):
    __slots__ = ("n", "i0", "terms", "truncation")
    _SHAPE = ("n", "i0")

    def __init__(self, n: int, i0: int,
                 terms: Mapping[TermKey, int | str | Rat] | None = None,
                 truncation: int | None = None):
        n, i0 = index(n), index(i0)  # a float raises; True becomes 1
        truncation = None if truncation is None else index(truncation)
        if not 0 <= i0 < n:
            raise ValueError(f"distinguished index {i0} out of range for n={n}")
        canonical: dict[TermKey, Rat] = {}
        for (a_exp, b_exp), coeff in (terms or {}).items():
            a_key = exponents(a_exp, n, (i0,))
            b_key = exponents(b_exp, n)
            if truncation is not None and _index(a_key, i0) > truncation:
                continue
            add_term(canonical, (a_key, b_key), as_rat(coeff))
        self.n = n
        self.i0 = i0
        self.terms = canonical
        self.truncation = truncation

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, i0: int = 0,
             truncation: int | None = None) -> "LaurentSeries":
        return cls(n, i0, {}, truncation)

    @classmethod
    def from_poly(cls, poly: SparsePoly, i0: int = 0) -> "LaurentSeries":
        """Lift a polynomial in the "a" or "b" family to an exact series."""
        n = poly.arity
        zero_exp = (0,) * n
        if poly.family == "a":
            terms = {(exp, zero_exp): c for exp, c in poly.terms.items()}
        elif poly.family == "b":
            terms = {(zero_exp, exp): c for exp, c in poly.terms.items()}
        else:
            raise FamilyError(
                f"cannot view a {poly.family!r}-family polynomial as a series "
                "in the section coefficients")
        return cls(n, i0, terms, truncation=None)

    def _like(self, terms, *operands):
        """A sum is exact only up to the lowest truncation of its operands
        and is cut there; with no operands, `terms` (a part or multiple of
        this series, or a scalar the sum then cuts) are wrapped unscanned."""
        if not operands:
            return _raw_series(self.n, self.i0, terms, self.truncation)
        truncation = min_truncation(self.truncation,
                                    *(s.truncation for s in operands))
        if truncation is not None and any(
                _index(a, self.i0) > truncation for a, _ in terms):
            terms = {key: c for key, c in terms.items()
                     if _index(key[0], self.i0) <= truncation}
        return _raw_series(self.n, self.i0, terms, truncation)

    def _constant_key(self):
        return ((0,) * self.n,) * 2

    # -- structure ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Rat]]:
        return sorted(
            self.terms.items(),
            key=lambda kv: (grlex_key(kv[0][1]), _index(kv[0][0], self.i0),
                            grlex_key(kv[0][0])))

    def b_degrees(self) -> set[int]:
        return {sum(b) for _, b in self.terms}

    def b_degree(self) -> int | None:
        """Common b-degree of all terms; None when zero, error when mixed."""
        degrees = self.b_degrees()
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"mixed b-degrees {sorted(degrees)}")
        return degrees.pop()

    # -- arithmetic ----------------------------------------------------------

    # in the class dict so that perfbench/spans.py can wrap series addition
    __add__ = TermMap.__add__

    def derivative_a(self, index: int) -> "LaurentSeries":
        """Termwise d/da_index, one pass of the derivative kernel."""
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range")
        return _derivative(self, (index,))

    def b_parts(self) -> dict[tuple[int, ...], "LaurentSeries"]:
        """The series multiplying each b-monomial that occurs, by its
        exponent (b-part of the keys zeroed), split in one pass."""
        zero_exp = (0,) * self.n
        parts: dict[tuple[int, ...], dict[TermKey, Rat]] = {}
        for (a, b), c in self.terms.items():
            part = parts.get(b)
            if part is None:
                part = parts[b] = {}
            part[(a, zero_exp)] = c
        return {b: self._like(part) for b, part in parts.items()}

    def __repr__(self):
        return (f"LaurentSeries(n={self.n}, i0={self.i0}, "
                f"terms={len(self.terms)}, truncation={self.truncation})")


def _raw_series(n: int, i0: int, terms: dict[TermKey, Rat],
                truncation: int | None) -> LaurentSeries:
    """Wrap an already canonical term map, with no scan.

    The caller guarantees valid keys, nonzero coefficients and no key past
    the truncation; outside input goes through the validating constructor
    instead, and sums that may reach past it through `LaurentSeries._like`.
    """
    out = LaurentSeries.__new__(LaurentSeries)
    out.n, out.i0, out.terms, out.truncation = n, i0, terms, truncation
    return out


def _derive_into(base: LaurentSeries, combo: tuple[int, ...],
                 target: int | None, terms: dict, weight: int = 1,
                 lift: bool = False) -> None:
    """Add `weight` times the derivative of `base` by the index multiset
    `combo` into `terms`, in one falling-factorial pass.

    A term c a^e b^f goes to c * weight * prod_k (e_k)(e_k - 1)..(e_k - K_k
    + 1) at a^(e - K), where K counts the indices of `combo`; the factor
    holds for a negative e_{i0} too, and a term whose factor vanishes is
    dropped.  With `lift` the image also gains b^K, the generating series'
    b-monomial.  Terms past expansion index `target` are cut as they go.
    """
    n, i0 = base.n, base.i0
    shift = multiset(n, combo)
    # the j-th repeat of index k contributes the factor e_k - j
    steps = [(k, combo[:at].count(k)) for at, k in enumerate(combo)]
    # a derivative by a non-distinguished variable lowers the expansion
    # index by one; only a base reaching past target + drop needs the cut
    drop = len(combo) - shift[i0]
    cut = target is not None and (base.truncation is None
                                  or base.truncation > target + drop)
    lifted: dict = {}
    for (a, b), coeff in base.terms.items():
        factor = weight
        for k, j in steps:
            factor *= a[k] - j
        if not factor or cut and sum(a) - a[i0] - drop > target:
            continue
        if lift:
            b_key = lifted.get(b)
            if b_key is None:
                b_key = lifted[b] = tuple(map(add, b, shift))
        else:
            b_key = b
        add_term(terms, (tuple(map(sub, a, shift)), b_key), coeff * factor)


def _truncation(base: LaurentSeries, combo: tuple[int, ...]) -> int | None:
    """Truncation of the derivative by `combo`: one lower per index other
    than the distinguished one."""
    if base.truncation is None:
        return None
    return base.truncation - len(combo) + combo.count(base.i0)


def _derivative(base: LaurentSeries, combo: tuple[int, ...],
                truncation: int | None = None) -> LaurentSeries:
    """The derivative of `base` by the index multiset `combo`, cut at
    `truncation` when that is lower than its own."""
    truncation = min_truncation(_truncation(base, combo), truncation)
    terms: dict = {}
    _derive_into(base, combo, truncation, terms)
    return _raw_series(base.n, base.i0, terms, truncation)


def _index(a_exp: tuple[int, ...], i0: int) -> int:
    return sum(a_exp) - a_exp[i0]


def min_truncation(*truncations: int | None) -> int | None:
    """Smallest truncation order; None (exact at every order) bounds nothing."""
    return min((t for t in truncations if t is not None), default=None)
