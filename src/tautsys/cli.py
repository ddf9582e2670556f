"""Command line driver.

Reports are plain text with exact rational values only and are
byte-deterministic for a fixed configuration (timing goes to stderr).
The exit status is 1 exactly when a verification verdict is negative and
2 for bad parameters, reported as one `error:` line on stderr.

Bounds enforced here keep every invocation at desk scale:
d <= 3, p <= 3, truncation order <= 30, relation degree bound <= 4, and a
verify-periods cost (operator terms x series terms) of at most 200 000,
checked before the series is built, as is the least verify-periods order
that certifies anything (the degree bound or less).  The library adds
k + l <= 4 for spans, filtration p <= 5, membership systems of at most
8820 entries (alpha order <= 5, 2, 1 at d = 1, 2, 3), scans of at most
35 280 entries over all their parameters, at most 4764 candidate relation
pairs (degree bound 2 at d = 3), scalar systems of at most 4125 operators
(p <= 1 at d = 3) and vector systems of at most 93 895 equations (p = 1
at d = 3).
"""

import argparse
import math
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import serialize
from .exact import LinearSystem, SparsePoly, solve_exact, Solution, replay_witness
from .membership import (Member, MembershipQuery, NonMember, SectionPoint,
                         derivative_query, membership_test, scan_family,
                         filtration_generators, verify_certificate)
from .model import (ModelSpec, ResourceBoundError, build_projective_model,
                    fermat_point, lattice_relations,
                    multiplication_surjectivity)
from .periods import (derivative_generating_series,
                      derivative_vector_solution, period_series,
                      verify_annihilation)
from .systems import (build_scalar_system, fourier_matches_dual, scalarize,
                      vectorize)
from .weyl import (WeylOperator, commutator, compose, coord_a, d_a, fourier,
                   index_shift)

MAX_ORDER = 30
MAX_P = 3
DEGREE_BOUNDS = (2, 4)
#: operator terms x period series terms that verify-periods admits; the
#: costliest admitted runs take up to about 5 s on a 2-core VM (Python 3.11)
MAX_VERIFY_COST = 200_000
#: terms of the period series at d = 2 and 3 by order 0, 1, ..; one order
#: more exceeds MAX_VERIFY_COST even with the smallest system (at d = 1 the
#: series has one term per even order)
PERIOD_TERMS = {2: (1, 1, 4, 10, 25, 49, 103, 184, 331, 554, 911, 1424),
                3: (1, 1, 10, 70)}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError, so that it exits 2 with
    one `error:` line like every other bad input."""

    def error(self, message):
        raise UsageError(message)


def _check_bounds(args):
    if getattr(args, "d", None) is not None and not 1 <= args.d <= 3:
        raise UsageError(f"d={args.d} outside supported range 1..3")
    if getattr(args, "p", None) is not None and not 0 <= args.p <= MAX_P:
        raise UsageError(f"p={args.p} outside supported range 0..{MAX_P}")
    order = getattr(args, "order", None)
    if order is not None and not 0 <= order <= MAX_ORDER:
        raise UsageError(f"order={order} outside supported range 0..{MAX_ORDER}")
    bound = getattr(args, "degree_bound", None)
    if bound is not None and not DEGREE_BOUNDS[0] <= bound <= DEGREE_BOUNDS[1]:
        raise UsageError(
            f"degree bound {bound} outside supported range "
            f"{DEGREE_BOUNDS[0]}..{DEGREE_BOUNDS[1]}")


def _check_verify_order(spec: ModelSpec, system, order: int, bound: int):
    """Reject an order too low to certify anything: the residuals are exact
    through `order` plus the system's worst index shift, which must not be
    negative."""
    least = -min(index_shift(op, spec.i0) for op in system.operators)
    if order < least:
        raise UsageError(
            f"order {order} certifies nothing at d={spec.d} p={system.p} "
            f"degree bound {bound}; the minimum order is {least}")


def _check_verify_cost(spec: ModelSpec, system, order: int):
    """Reject a verify-periods run before its series is built when operator
    terms x series terms exceeds MAX_VERIFY_COST.  The order-p data is
    derived from the series of order `order + p`."""
    top = order + system.p
    if spec.d == 1:
        terms = top // 2 + 1
    elif top < len(PERIOD_TERMS[spec.d]):
        terms = PERIOD_TERMS[spec.d][top]
    else:
        terms = math.inf
    if sum(len(op.terms) for op in system.operators) * terms > MAX_VERIFY_COST:
        raise ResourceBoundError(
            f"verify-periods at d={spec.d} p={system.p} order {order} exceeds "
            f"the supported cost {MAX_VERIFY_COST} "
            "(operator terms x series terms)")


def _parse_alpha(text: str, n: int) -> tuple[int, ...]:
    """Parse a derivative multi-index like "2e0" or "e1+e2"."""
    alpha = [0] * n
    for token in text.split("+"):
        match = re.fullmatch(r"\s*(\d*)e(\d+)\s*", token)
        if not match:
            raise UsageError(f"cannot parse multi-index term {token!r}")
        count = int(match.group(1) or "1")
        index = int(match.group(2))
        if not 0 <= index < n:
            raise UsageError(f"index {index} out of range for n={n}")
        alpha[index] += count
    if sum(alpha) == 0:
        raise UsageError("empty derivative multi-index")
    return tuple(alpha)


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational vector {text!r}: {exc}")


def _model(args) -> ModelSpec:
    return build_projective_model(args.d, ordering=args.ordering)


def _header(args, lines: list[str]):
    lines.append("tautsys report")
    lines.append(f"command: {args.command}")
    for key in ("d", "p", "order", "degree_bound", "ordering", "k", "l"):
        value = getattr(args, key, None)
        if value is not None:
            lines.append(f"option {key.replace('_', '-')}: {value}")
    lines.append(f"seed: {getattr(args, 'seed', None) or 'none'}")


# ---------------------------------------------------------------------------
# Subcommands: each returns (lines, ok)
# ---------------------------------------------------------------------------


def cmd_build_system(args):
    spec = _model(args)
    relations = lattice_relations(spec, args.degree_bound)
    system = build_scalar_system(spec, relations, args.p)
    payload = {
        "model": serialize.model_to_obj(spec),
        "relations": [serialize.relation_to_obj(r) for r in relations],
        "system": serialize.system_to_obj(system),
    }
    text = serialize.dumps(payload)
    lines: list[str] = []
    _header(args, lines)
    lines.append(f"model: d={spec.d} n={spec.n} i0={spec.i0}")
    lines.append(f"relations: {len(relations)}")
    lines.append(f"operators: {len(system.operators)}")
    if args.out:
        path = args.out
        out_dir = os.environ.get("TAUTSYS_OUT")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        lines.append(f"wrote: {path}")
    else:
        lines.append("system-json:")
        lines.extend(text.rstrip("\n").split("\n"))
    lines.append("verdict: PASS")
    return lines, True


def cmd_verify_periods(args):
    spec = _model(args)
    relations = lattice_relations(spec, args.degree_bound)
    system = build_scalar_system(spec, relations, args.p)
    _check_verify_order(spec, system, args.order, args.degree_bound)
    _check_verify_cost(spec, system, args.order)
    series = period_series(spec, args.order + args.p)
    if args.p:
        series = derivative_generating_series(series, args.p, args.order)
    report = verify_annihilation(system, series)
    lines: list[str] = []
    _header(args, lines)
    lines.append(f"model: d={spec.d} n={spec.n} i0={spec.i0}")
    lines.append(f"series: terms={len(series.terms)} "
                 f"truncation={series.truncation}")
    for entry in report.entries:
        status = "zero" if entry.zero else "NONZERO"
        lines.append(f"residual[{entry.label}]: {status} "
                     f"(verified to order {entry.verified_order})")
    lines.append(f"all-zero: {'yes' if report.all_zero else 'no'}")
    lines.append(f"verified-order: {report.verified_order}")
    ok = report.all_zero and (report.verified_order is None
                              or report.verified_order >= 0)
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return lines, ok


def cmd_fourier(args):
    spec = _model(args)
    relations = lattice_relations(spec, args.degree_bound)
    ok, detail = fourier_matches_dual(spec, relations)
    lines: list[str] = []
    _header(args, lines)
    for line in detail:
        lines.append(f"generator {line}")
    lines.append(
        f"fourier image matches dual golden forms: {'yes' if ok else 'no'}")
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return lines, ok


def _resolve_point(args, spec) -> SectionPoint:
    if args.fermat:
        return SectionPoint.of(fermat_point(spec))
    if not args.point:
        raise UsageError("give --point or --fermat")
    vector = _parse_vector(args.point)
    if len(vector) != spec.n:
        raise UsageError(f"point must have length {spec.n}")
    return SectionPoint.of(vector)


def _resolve_query(args, spec) -> MembershipQuery:
    if args.alpha:
        return derivative_query(spec, _parse_alpha(args.alpha, spec.n))
    if args.monomial:
        exponent = tuple(int(tok) for tok in args.monomial.split(","))
        if len(exponent) != spec.d + 1:
            raise UsageError(f"monomial must have {spec.d + 1} exponents")
        poly = SparsePoly.monomial("x", spec.d + 1, exponent)
        return MembershipQuery.of(spec, poly)
    raise UsageError("give --alpha or --monomial")


def _describe_result(result, lines):
    if isinstance(result, Member):
        lines.append("result: member")
        for i, q in enumerate(result.certificate.q):
            body = serialize.poly_to_obj(q)["terms"]
            rendered = " + ".join(
                f"{t['coeff']}*x^{t['exponents']}" for t in body) or "0"
            lines.append(f"certificate q{i}: {rendered}")
    else:
        lines.append("result: non-member")
        lines.append(
            "witness: row combination reduces to 0 = "
            f"{serialize.rat_str(result.witness.reduced_rhs)}")
        lines.append(
            "note: non-membership certifies a nonvanishing derivative only "
            "under completeness of the ambient system")


def _audit(spec, point, query, result) -> bool:
    """Re-check a verdict without trusting the solver that produced it.

    A member's certificate must satisfy the divergence identity; a
    non-member's witness, replayed on the original rows, must reduce to
    0 = nonzero with the right hand side the report prints.
    """
    if isinstance(result, Member):
        return verify_certificate(spec, point, query, result.certificate)
    coeffs, rhs = replay_witness(result.system, result.witness)
    return not any(coeffs) and rhs != 0 and rhs == result.witness.reduced_rhs


def cmd_membership(args):
    spec = _model(args)
    point = _resolve_point(args, spec)
    query = _resolve_query(args, spec)
    result = membership_test(spec, point, query)
    lines: list[str] = []
    _header(args, lines)
    lines.append(
        f"point: {','.join(serialize.rat_str(v) for v in point.a)}")
    lines.append(
        f"query: degree {query.poly.total_degree() or 0} "
        f"(order {query.order})")
    _describe_result(result, lines)
    audited = _audit(spec, point, query, result)
    lines.append(f"certificate-audit: {'pass' if audited else 'FAIL'}")
    lines.append(f"verdict: {'PASS' if audited else 'FAIL'}")
    return lines, audited


def cmd_scan(args):
    spec = _model(args)
    query = _resolve_query(args, spec)
    try:
        base_text, dir_text, params_text = args.line.split(";")
    except ValueError:
        raise UsageError("line format: base;direction;t1,t2,...")
    base = _parse_vector(base_text)
    direction = _parse_vector(dir_text)
    params = _parse_vector(params_text)
    if len(base) != spec.n or len(direction) != spec.n:
        raise UsageError(f"base and direction must have length {spec.n}")
    results = scan_family(spec, query, SectionPoint.of(base), direction,
                          params)
    lines: list[str] = []
    _header(args, lines)
    ok = True
    for t, result in results:
        verdict = "member" if isinstance(result, Member) else "non-member"
        point = SectionPoint.of(
            tuple(b + t * s for b, s in zip(base, direction)))
        ok = ok and _audit(spec, point, query, result)
        lines.append(f"t={serialize.rat_str(t)}: {verdict}")
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return lines, ok


def cmd_surjectivity(args):
    spec = _model(args)
    report = multiplication_surjectivity(spec, args.k, args.l)
    lines: list[str] = []
    _header(args, lines)
    lines.append(f"product span rank: {report.rank} / {report.expected}")
    ok = report.surjective
    if args.filtration is not None:
        filt = filtration_generators(spec, args.filtration)
        lines.append(
            f"filtration generators (p={args.filtration}): "
            f"{filt.rank} / {filt.expected}")
        ok = ok and filt.surjective
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return lines, ok


# ---------------------------------------------------------------------------
# Self test battery
# ---------------------------------------------------------------------------


def _random_poly(rng, arity=3, family="a"):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, 2) for _ in range(arity))
        terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
    return SparsePoly(family, arity, terms)


def _random_operator(rng, n=2):
    op = WeylOperator.zero(n)
    zero = (0,) * n
    for _ in range(rng.randint(1, 3)):
        coord = tuple(rng.randint(0, 1) for _ in range(n))
        deriv = tuple(rng.randint(0, 1) for _ in range(n))
        coeff = rng.randint(-2, 2) or 1
        op = op + WeylOperator(n, {(coord, zero, deriv, zero): coeff})
    return op


def cmd_selftest(args):
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool]] = []

    ok = True
    for _ in range(20):
        p, q, r = (_random_poly(rng) for _ in range(3))
        ok = ok and (p + q) * r == p * r + q * r
        ok = ok and (p * q) * r == p * (q * r)
        ok = ok and p * q == q * p
        i = rng.randrange(3)
        ok = ok and ((p * q).partial_derivative(i)
                     == p.partial_derivative(i) * q
                     + p * q.partial_derivative(i))
    checks.append(("polynomial ring and Leibniz", ok))

    ok = True
    for _ in range(20):
        a, b, c = (_random_operator(rng) for _ in range(3))
        ok = ok and compose(compose(a, b), c) == compose(a, compose(b, c))
        ok = ok and fourier(compose(a, b)) == compose(fourier(a), fourier(b))
    n = 2
    for i in range(n):
        for j in range(n):
            expected = WeylOperator.const(n, 1 if i == j else 0)
            got = commutator(d_a(n, i), coord_a(n, j))
            ok = ok and got == expected
    checks.append(("operator composition and fourier", ok))

    ok = True
    for _ in range(10):
        rows = []
        ncols = rng.randint(1, 3)
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ncols))
            rows.append((coeffs, Fraction(rng.randint(-3, 3))))
        system = LinearSystem.build([f"c{i}" for i in range(ncols)], rows)
        outcome = solve_exact(system)
        if isinstance(outcome, Solution):
            for coeffs, rhs in system.rows:
                lhs = sum((c * v for c, v in zip(coeffs, outcome.values)),
                          start=Fraction(0))
                ok = ok and lhs == rhs
            for vec in outcome.nullspace:
                for coeffs, _ in system.rows:
                    ok = ok and sum(
                        (c * v for c, v in zip(coeffs, vec)),
                        start=Fraction(0)) == 0
        else:
            coeffs, rhs = replay_witness(system, outcome)
            ok = ok and not any(coeffs) and rhs != 0
    checks.append(("exact linear solving", ok))

    spec = build_projective_model(1, ordering="interior-first")
    relations = lattice_relations(spec, 2)
    system = build_scalar_system(spec, relations, 0)
    series = period_series(spec, 8)
    report = verify_annihilation(system, series)
    checks.append(("projective line pipeline", report.all_zero))

    ok = True
    for _ in range(10):
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = period_series(spec, rng.randint(3, 6)).scale(scale)
        vec = derivative_vector_solution(base, 1)
        back = vectorize(scalarize(vec), 1)
        ok = ok and all(back.components[k] == vec.components[k]
                        for k in vec.components)
    checks.append(("scalarize/vectorize roundtrip", ok))

    point = SectionPoint.of(fermat_point(spec))
    member = membership_test(spec, point, derivative_query(spec, (1, 0, 0)))
    non = membership_test(spec, point, derivative_query(spec, (0, 1, 0)))
    checks.append(("membership worked example",
                   isinstance(member, Member) and isinstance(non, NonMember)))

    lines: list[str] = []
    _header(args, lines)
    all_ok = True
    for name, good in checks:
        lines.append(f"check {name}: {'ok' if good else 'FAIL'}")
        all_ok = all_ok and good
    lines.append(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    return lines, all_ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tautsys",
        description="exact differential systems for hypersurface periods")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_p=True):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--ordering", choices=("grlex", "interior-first"),
                       default="interior-first")
        p.add_argument("--degree-bound", dest="degree_bound", type=int,
                       default=3)
        if with_p:
            p.add_argument("--p", type=int, default=0)

    p = sub.add_parser("build-system", help="emit a system as exact JSON")
    common(p)
    p.add_argument("--out", help="write JSON here (TAUTSYS_OUT prefixes)")

    p = sub.add_parser("verify-periods",
                       help="residuals of the period data under its system")
    common(p)
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("fourier",
                       help="compare the transformed p=1 system with golden forms")
    common(p, with_p=False)

    p = sub.add_parser("membership", help="decide one divergence identity")
    common(p, with_p=False)
    p.add_argument("--point", help="comma separated rationals")
    p.add_argument("--fermat", action="store_true")
    p.add_argument("--alpha", help="derivative multi-index, e.g. 2e0 or e1+e2")
    p.add_argument("--monomial", help="x-exponents, comma separated")

    p = sub.add_parser("scan", help="membership along a pencil of sections")
    common(p, with_p=False)
    p.add_argument("--alpha")
    p.add_argument("--monomial")
    p.add_argument("--line", required=True,
                   help="format base;direction;t1,t2,...")

    p = sub.add_parser("surjectivity", help="section multiplication spans")
    common(p, with_p=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--filtration", type=int)

    p = sub.add_parser("selftest", help="seeded property battery")
    p.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "build-system": cmd_build_system,
    "verify-periods": cmd_verify_periods,
    "fourier": cmd_fourier,
    "membership": cmd_membership,
    "scan": cmd_scan,
    "surjectivity": cmd_surjectivity,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        _check_bounds(args)
        lines, ok = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        # UsageError, ResourceBoundError and every other rejection of a
        # parameter are ValueErrors; invariant failures use other types
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
