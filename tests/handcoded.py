"""Hand-assembled references used by several test modules.

The systems mirror the written-out first and second derivative systems
literally, family by family, independent of the general builder's loops.
The series helpers are the single-purpose loops the package once carried
as methods: one derivative step, a b-monomial shift, a cut, a slice by
b-monomial and a b-specialization, each written out term by term and
independent of the package's falling-factorial kernel and `b_parts`.
"""

from itertools import combinations_with_replacement

from tautsys.exact import add_term, as_rat, exponents
from tautsys.series import _raw_series, min_truncation
from tautsys.systems import symmetry_matrix, toric_operator
from tautsys.weyl import (WeylOperator, coord_a, coord_b, d_a, d_b, euler_a,
                          euler_b)


def coupled_symmetry(spec, k, l):
    n = spec.n
    x = symmetry_matrix(spec, k, l)
    op = WeylOperator.zero(n)
    for i in range(n):
        for j in range(n):
            if x[i][j]:
                op = op + x[i][j] * (coord_a(n, i) * d_a(n, j))
                op = op + x[i][j] * (coord_b(n, i) * d_b(n, j))
    return op


def hand_coded_first_derivative_system(spec, rels):
    """The six operator families for p = 1, written out one by one."""
    n = spec.n
    ops = [toric_operator(n, rel) for rel in rels]
    for k in range(spec.d + 1):
        for l in range(spec.d + 1):
            ops.append(coupled_symmetry(spec, k, l))
    ops.append(euler_a(n) + 2)
    ops.append(euler_b(n) - 1)
    for i in range(n):
        for j in range(i, n):
            ops.append(d_b(n, i) * d_b(n, j))
    for i in range(n):
        for j in range(i + 1, n):
            ops.append(d_a(n, i) * d_b(n, j) - d_a(n, j) * d_b(n, i))
    return ops


def hand_coded_second_derivative_system(spec, rels):
    n = spec.n
    ops = [toric_operator(n, rel) for rel in rels]
    for k in range(spec.d + 1):
        for l in range(spec.d + 1):
            ops.append(coupled_symmetry(spec, k, l))
    ops.append(euler_a(n) + 3)
    ops.append(euler_b(n) - 2)
    for combo in combinations_with_replacement(range(n), 3):
        op = WeylOperator.const(n, 1)
        for i in combo:
            op = op * d_b(n, i)
        ops.append(op)
    for u in range(n):
        for v in range(u + 1, n):
            for k in range(n):
                ops.append(d_a(n, u) * d_b(n, v) * d_b(n, k)
                           - d_a(n, v) * d_b(n, u) * d_b(n, k))
    return ops


def canonical_multiset(operators):
    return sorted(
        tuple(sorted(op.terms.items())) for op in operators if not op.is_zero())


def expansion_index(a_exp, i0):
    """Total degree in the non-distinguished a-variables."""
    return sum(a_exp) - a_exp[i0]


def exponent_matrix(spec):
    """(d+1) x n integer matrix whose columns are the basis exponents."""
    return tuple(tuple(exp[row] for exp in spec.basis)
                 for row in range(spec.d + 1))


def derivative_a(series, index):
    """Termwise d/da_index, one step; the truncation drops by one unless
    the distinguished variable is differentiated."""
    out = {}
    for (a_exp, b_exp), coeff in series.terms.items():
        e = a_exp[index]
        if e == 0:
            continue
        new_a = a_exp[:index] + (e - 1,) + a_exp[index + 1:]
        add_term(out, (new_a, b_exp), coeff * e)
    trunc = series.truncation
    if trunc is not None and index != series.i0:
        trunc -= 1
    return _raw_series(series.n, series.i0, out, trunc)


def mul_b_monomial(series, b_exp):
    shift = exponents(b_exp, series.n)
    out = {(a, tuple(u + v for u, v in zip(b, shift))): c
           for (a, b), c in series.terms.items()}
    return _raw_series(series.n, series.i0, out, series.truncation)


def pruned_to(series, truncation):
    """The series cut at `truncation` when that is below its own."""
    top = min_truncation(series.truncation, truncation)
    out = {(a, b): c for (a, b), c in series.terms.items()
           if top is None or expansion_index(a, series.i0) <= top}
    return _raw_series(series.n, series.i0, out, top)


def b_coefficient(series, b_exp):
    """Series multiplying the given b-monomial (b-part of the keys zeroed),
    one scan of the series."""
    b_exp = exponents(b_exp, series.n)
    zero = (0,) * series.n
    out = {(a, zero): c for (a, b), c in series.terms.items() if b == b_exp}
    return _raw_series(series.n, series.i0, out, series.truncation)


def substitute_b(series, point):
    """Specialize the b-variables at an exact rational point."""
    coords = [as_rat(v) for v in point]
    zero = (0,) * series.n
    out = {}
    for (a_exp, b_exp), coeff in series.terms.items():
        factor = coeff
        for value, e in zip(coords, b_exp):
            if e:
                factor *= value ** e
        add_term(out, (a_exp, zero), factor)
    return _raw_series(series.n, series.i0, out, series.truncation)
