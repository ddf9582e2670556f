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
order (for instance, a Laurent polynomial).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exact import (FamilyError, Rat, SparsePoly, TermMap, add_term, as_rat,
                    grlex_key)

TermKey = tuple[tuple[int, ...], tuple[int, ...]]


class LaurentSeries(TermMap):
    __slots__ = ("n", "i0", "terms", "truncation")
    _SHAPE = ("n", "i0")

    def __init__(self, n: int, i0: int,
                 terms: Mapping[TermKey, int | str | Rat] | None = None,
                 truncation: int | None = None):
        if not 0 <= i0 < n:
            raise ValueError(f"distinguished index {i0} out of range for n={n}")
        canonical: dict[TermKey, Rat] = {}
        for (a_exp, b_exp), coeff in (terms or {}).items():
            a_key = tuple(int(e) for e in a_exp)
            b_key = tuple(int(e) for e in b_exp)
            if len(a_key) != n or len(b_key) != n:
                raise ValueError("exponent length does not match n")
            if any(e < 0 for i, e in enumerate(a_key) if i != i0):
                raise ValueError(
                    f"negative exponent outside the distinguished index: {a_key}")
            if any(e < 0 for e in b_key):
                raise ValueError(f"negative b-exponent: {b_key}")
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

    def _like(self, terms, other=None):
        """A sum is exact only up to the lower of its two truncations."""
        truncation = (self.truncation if other is None
                      else min_truncation(self.truncation, other.truncation))
        return _raw_series(self.n, self.i0, terms, truncation)

    # -- structure ----------------------------------------------------------

    def index_of(self, a_exp: Sequence[int]) -> int:
        return _index(tuple(a_exp), self.i0)

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

    def is_a_homogeneous(self, degree: int) -> bool:
        return all(sum(a) == degree for a, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    # in the class dict so that perfbench/spans.py can wrap series addition
    __add__ = TermMap.__add__

    def derivative_a(self, index: int) -> "LaurentSeries":
        """Termwise d/da_index.

        The truncation frontier drops by one unless the distinguished
        variable is differentiated, which leaves expansion indices alone.
        """
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range")
        out: dict[TermKey, Rat] = {}
        for (a_exp, b_exp), coeff in self.terms.items():
            e = a_exp[index]
            if e == 0:
                continue
            new_a = a_exp[:index] + (e - 1,) + a_exp[index + 1:]
            add_term(out, (new_a, b_exp), coeff * e)
        trunc = self.truncation
        if trunc is not None and index != self.i0:
            trunc -= 1
        return _raw_series(self.n, self.i0, out, trunc)

    def mul_b_monomial(self, b_exp: Sequence[int]) -> "LaurentSeries":
        shift = tuple(int(e) for e in b_exp)
        if len(shift) != self.n or any(e < 0 for e in shift):
            raise ValueError(f"bad b-monomial exponent {shift}")
        out = {
            (a, tuple(u + v for u, v in zip(b, shift))): c
            for (a, b), c in self.terms.items()}
        return self._like(out)

    def b_coefficient(self, b_exp: Sequence[int]) -> "LaurentSeries":
        """Series multiplying the given b-monomial (b-part of the keys zeroed)."""
        target = tuple(int(e) for e in b_exp)
        zero_exp = (0,) * self.n
        out = {
            (a, zero_exp): c
            for (a, b), c in self.terms.items() if b == target}
        return self._like(out)

    def substitute_b(self, point: Sequence[int | Rat]) -> "LaurentSeries":
        """Specialize the b-variables at an exact rational point."""
        coords = [as_rat(v) for v in point]
        if len(coords) != self.n:
            raise ValueError("point length does not match n")
        zero_exp = (0,) * self.n
        out: dict[TermKey, Rat] = {}
        for (a_exp, b_exp), coeff in self.terms.items():
            factor = coeff
            for value, e in zip(coords, b_exp):
                if e:
                    factor *= value ** e
            add_term(out, (a_exp, zero_exp), factor)
        return self._like(out)

    def pruned_to(self, truncation: int | None) -> "LaurentSeries":
        return _raw_series(self.n, self.i0, self.terms,
                           min_truncation(self.truncation, truncation))

    def __repr__(self):
        return (f"LaurentSeries(n={self.n}, i0={self.i0}, "
                f"terms={len(self.terms)}, truncation={self.truncation})")


def _raw_series(n: int, i0: int, terms: dict[TermKey, Rat],
                truncation: int | None) -> LaurentSeries:
    """Wrap an already canonical term map, applying only the truncation cut.

    The caller guarantees valid keys and nonzero coefficients; outside input
    goes through the validating constructor instead.
    """
    if truncation is not None and any(
            _index(a, i0) > truncation for a, _ in terms):
        terms = {key: c for key, c in terms.items()
                 if _index(key[0], i0) <= truncation}
    out = LaurentSeries.__new__(LaurentSeries)
    out.n, out.i0, out.terms, out.truncation = n, i0, terms, truncation
    return out


def _index(a_exp: tuple[int, ...], i0: int) -> int:
    return sum(a_exp) - a_exp[i0]


def min_truncation(*truncations: int | None) -> int | None:
    """Smallest truncation order; None (exact at every order) bounds nothing."""
    return min((t for t in truncations if t is not None), default=None)
