"""Exact arithmetic kernels.

Everything downstream is built on three pieces: arbitrary precision
rationals (`fractions.Fraction`, aliased `Rat`), sparse term maps (the
`TermMap` core shared by the Laurent polynomials over named variable
families below, the series of `tautsys.series` and the operators of
`tautsys.weyl`), and a fraction-free exact linear solver.  No floating
point enters anywhere; equality of results is always literal equality of
canonical forms.

Variable families
-----------------
"x"           homogeneous coordinates on projective space (polynomial)
"a", "b"      section coefficients and their second copy ("a" may carry
              negative exponents, which is where reciprocal powers live)
"zeta", "xi"  Fourier duals of "a" and "b" (polynomial)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Container, Hashable, Iterable, Mapping, Sequence

Rat = Fraction

_ZERO = Fraction(0)

POLYNOMIAL_FAMILIES = frozenset({"x", "b", "zeta", "xi"})
LAURENT_FAMILIES = frozenset({"a"})
KNOWN_FAMILIES = POLYNOMIAL_FAMILIES | LAURENT_FAMILIES


class FamilyError(ValueError):
    """Variable families were mixed or misused."""


class PoleError(ArithmeticError):
    """Evaluation hit a zero coordinate under a negative exponent."""


def as_rat(value: int | str | Rat) -> Rat:
    """Coerce an int, Fraction or "num/den" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def exponents(values: Iterable, length: int,
              signed: Container[int] = ()) -> tuple[int, ...]:
    """`values` as a checked exponent tuple of ints, the one check for the
    polynomial, series and operator keys and derivative multi-indices that
    callers pass in.

    Each entry goes through `operator.index`, so a float or a Fraction
    raises TypeError rather than round.  The tuple must have `length`
    entries (ValueError), and only the positions in `signed` may be
    negative (FamilyError).
    """
    key = tuple(map(operator.index, values))
    if len(key) != length:
        raise ValueError(f"exponent {key} has length {len(key)}, not {length}")
    if min(key, default=0) < 0 and any(
            e < 0 and i not in signed for i, e in enumerate(key)):
        raise FamilyError(f"negative exponent in {key}")
    return key


def multiset(n: int, indices: Iterable[int]) -> tuple[int, ...]:
    """Exponent vector of the multiset of variable indices, each in 0..n-1:
    the number of times each index occurs."""
    out = [0] * n
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for n={n}")
        out[i] += 1
    return tuple(out)


def grlex_key(exponents: Sequence[int]):
    """Graded lexicographic sort key: total degree first, then lex."""
    return (sum(exponents), tuple(exponents))


def add_term(terms: dict, key: Hashable, coeff: Rat) -> None:
    """Accumulate `coeff` into a sparse term map, in place.

    A key whose coefficient cancels to zero is dropped at once, so the map
    never holds zeros and never needs a pruning pass.  A new key takes the
    coefficient as it is, so sums of ints stay ints and no zero is added.
    """
    old = terms.get(key)
    value = coeff if old is None else old + coeff
    if value:
        terms[key] = value
    elif old is not None:
        del terms[key]


class TermMap:
    """Sparse map from hashable keys to nonzero exact coefficients.

    The common core of polynomials, series and operators.  A subclass sets
    `_SHAPE`, the attributes two maps must share to combine (and, with equal
    terms, to be equal), and defines `_constant_key`, the key of the
    constant term, where scalars add to it, and `_times`, the product of
    two maps, where there is one.  Results are made by `_like` from
    canonical term maps, skipping the validating constructor; a subclass
    whose results carry more than their shape overrides it.
    """

    __slots__ = ()
    _SHAPE: tuple[str, ...] = ()

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _like(self, terms: dict, *operands: "TermMap"):
        """A map of this shape holding the canonical `terms`; `operands` are
        the other operands of a sum."""
        out = object.__new__(type(self))
        for name in self._SHAPE:
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "terms", terms)
        return out

    def _times(self, other):
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "TermMap"):
        for name in self._SHAPE:
            mine, theirs = getattr(self, name), getattr(other, name, None)
            if mine != theirs:
                raise FamilyError(f"{name} mismatch: {mine!r} vs {theirs!r}")

    def plus(self, *others: "TermMap"):
        """This map plus every other map, accumulated in one pass into one
        term map."""
        merged = dict(self.terms)
        for other in others:
            self._check_compatible(other)
            for key, coeff in other.terms.items():
                add_term(merged, key, coeff)
        return self._like(merged, *others)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._like({self._constant_key(): as_rat(other)}
                               if other else {})
        return self.plus(other)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value: int | Rat):
        """Every coefficient times an exact scalar; an int stays an int."""
        if not isinstance(value, int):
            value = as_rat(value)
        if not value:
            return self._like({})
        return self._like({key: c * value for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        return (type(other) is type(self) and self._shape() == other._shape()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((*self._shape(), frozenset(self.terms.items())))


class SparsePoly(TermMap):
    """Sparse polynomial (Laurent in the "a" family) with Rat coefficients.

    Terms are stored as a map from exponent tuples to nonzero coefficients;
    the zero polynomial has no terms.  Instances are treated as immutable:
    all arithmetic returns fresh objects.
    """

    __slots__ = ("family", "arity", "terms")
    _SHAPE = ("family", "arity")

    def __init__(self, family: str, arity: int,
                 terms: Mapping[Sequence[int], int | str | Rat] | None = None):
        if family not in KNOWN_FAMILIES:
            raise FamilyError(f"unknown variable family {family!r}")
        arity = operator.index(arity)  # a float raises; True becomes 1
        if arity < 1:
            raise ValueError("arity must be positive")
        signed = range(arity) if family in LAURENT_FAMILIES else ()
        canonical: dict[tuple[int, ...], Rat] = {}
        for exp, coeff in (terms or {}).items():
            add_term(canonical, exponents(exp, arity, signed), as_rat(coeff))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, family: str, arity: int) -> "SparsePoly":
        return cls(family, arity, {})

    @classmethod
    def constant(cls, family: str, arity: int, value) -> "SparsePoly":
        return cls(family, arity, {(0,) * arity: value})

    @classmethod
    def monomial(cls, family: str, arity: int, exponents: Sequence[int],
                 coeff=1) -> "SparsePoly":
        return cls(family, arity, {tuple(exponents): coeff})

    def _constant_key(self):
        return (0,) * self.arity

    # -- queries -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        """Terms in canonical (graded lexicographic) order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def total_degree(self) -> int | None:
        """Largest total degree among terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(exp) for exp in self.terms)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms.

        Returns None for the zero polynomial and raises ValueError when the
        polynomial mixes degrees.
        """
        degrees = {sum(exp) for exp in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous, degrees {sorted(degrees)}")
        return degrees.pop()

    # -- arithmetic ---------------------------------------------------------

    def _times(self, other):
        self._check_compatible(other)
        out: dict[tuple[int, ...], Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(u + v for u, v in zip(e1, e2)), c1 * c2)
        return self._like(out)

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers")
        result = SparsePoly.constant(self.family, self.arity, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __repr__(self):
        if not self.terms:
            return f"SparsePoly({self.family}:0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            vars_part = "*".join(
                f"{self.family}{i}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exp) if e != 0)
            bits.append(f"{coeff}" + (f"*{vars_part}" if vars_part else ""))
        return f"SparsePoly({self.family}: " + " + ".join(bits) + ")"

    # -- calculus -----------------------------------------------------------

    def partial_derivative(self, index: int) -> "SparsePoly":
        """Exact partial derivative, termwise power rule.

        Laurent exponents follow the same rule: the derivative of a^-1 is
        -a^-2.
        """
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], Rat] = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            add_term(out, exp[:index] + (e - 1,) + exp[index + 1:], coeff * e)
        return self._like(out)

    def evaluate(self, point: Sequence[int | Rat]) -> Rat:
        """Exact value at a rational point.

        Raises PoleError when a coordinate is zero under a negative exponent.
        """
        coords = [as_rat(v) for v in point]
        if len(coords) != self.arity:
            raise ValueError(f"point has length {len(coords)}, need {self.arity}")
        total = _ZERO
        for exp, coeff in self.terms.items():
            term = coeff
            for value, e in zip(coords, exp):
                if e == 0:
                    continue
                if value == 0:
                    if e < 0:
                        raise PoleError(
                            f"zero coordinate raised to negative power {e}")
                    term = _ZERO
                    break
                term *= value ** e
            total += term
        return total


# ---------------------------------------------------------------------------
# Exact linear solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Rows of (coefficient vector, right hand side) over labelled columns."""

    labels: tuple[str, ...]
    rows: tuple[tuple[tuple[Rat, ...], Rat], ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("column labels must be unique")
        for coeffs, _ in self.rows:
            if len(coeffs) != len(self.labels):
                raise ValueError("row length does not match column count")

    @classmethod
    def build(cls, labels: Iterable[str],
              rows: Iterable[tuple[Sequence[int | Rat], int | Rat]]) -> "LinearSystem":
        labels = tuple(labels)
        packed = tuple(
            (tuple(as_rat(c) for c in coeffs), as_rat(rhs))
            for coeffs, rhs in rows)
        return cls(labels, packed)


@dataclass(frozen=True)
class Solution:
    """One exact solution plus a basis of the homogeneous nullspace."""

    values: tuple[Rat, ...]
    nullspace: tuple[tuple[Rat, ...], ...]


@dataclass(frozen=True)
class Inconsistent:
    """Certificate of inconsistency.

    `combo` holds one integer multiplier per input row; that combination of
    the input rows has an all-zero coefficient vector and the nonzero right
    hand side `reduced_rhs`.
    """

    combo: tuple[int, ...]
    reduced_rhs: Rat


def replay_witness(system: LinearSystem,
                   witness: Inconsistent) -> tuple[tuple[Rat, ...], Rat]:
    """Recombine the original rows with the witness multipliers."""
    ncols = len(system.labels)
    coeffs = [_ZERO] * ncols
    rhs = _ZERO
    for mult, (row, b) in zip(witness.combo, system.rows):
        if not mult:
            continue
        for j in range(ncols):
            coeffs[j] += mult * row[j]
        rhs += mult * b
    return tuple(coeffs), rhs


def solve_exact(system: LinearSystem) -> Solution | Inconsistent:
    """Fraction-free (Bareiss) Gaussian elimination over the rationals.

    Each row is scaled by its denominator lcm L and augmented to the integer
    row [L*a | L*b | L*e_r], so one sweep of two-by-two determinant updates
    with exact division also carries the multipliers that express every
    working row through the original rows: after k steps each entry is a
    (k+1)-minor of the augmented matrix (Sylvester's identity).  An
    inconsistent row's last nrows entries are its replayable witness.
    Underdetermined systems return one solution (free variables set to zero)
    together with a nullspace basis.
    """
    nrows = len(system.rows)
    ncols = len(system.labels)

    mat: list[list[int]] = []
    for r, (coeffs, rhs) in enumerate(system.rows):
        denom_lcm = lcm(*(value.denominator for value in (*coeffs, rhs)))
        unit = [0] * nrows
        unit[r] = denom_lcm
        mat.append([int(c * denom_lcm) for c in (*coeffs, rhs)] + unit)

    prev_pivot = 1
    pivot_row = 0
    pivots: list[tuple[int, int]] = []
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
        top = mat[pivot_row]
        pivot = top[col]
        for r in range(pivot_row + 1, nrows):
            row = mat[r]
            factor = row[col]
            if factor or pivot != prev_pivot:
                mat[r] = [(pivot * x - factor * y) // prev_pivot
                          for x, y in zip(row, top)]
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
            combo = tuple(mat[r][ncols + 1:])
            reduced = sum((m * b for m, (_, b) in zip(combo, system.rows)),
                          start=_ZERO)
            return Inconsistent(combo=combo, reduced_rhs=reduced)

    # Back-substitution.  The right hand side is column ncols with its
    # variable at -1, so the values and each nullspace vector (one free
    # column at 1, the others at 0) come from the same loop.
    pivot_cols = {col for _, col in pivots}
    vectors: list[tuple[Rat, ...]] = []
    for free in (ncols, *(c for c in range(ncols) if c not in pivot_cols)):
        vec: list[Rat] = [_ZERO] * (ncols + 1)
        vec[free] = Fraction(-1 if free == ncols else 1)
        for row_idx, col in reversed(pivots):
            if col < free:
                row = mat[row_idx]
                vec[col] = -sum((row[j] * vec[j]
                                 for j in range(col + 1, free + 1) if row[j]),
                                start=_ZERO) / row[col]
        vectors.append(tuple(vec[:ncols]))
    return Solution(values=vectors[0], nullspace=tuple(vectors[1:]))
