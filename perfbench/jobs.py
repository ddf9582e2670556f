"""Running one job in-process, and checking its output.

CLI jobs call `tautsys.cli.main(argv)` with stdout captured; expand jobs
call the exported library functions.  Every call is looked up through the
module attribute at call time, so the tracer's patched bindings are used.
The checks use oracles outside the timed path: closed forms, certificate
audits, witness replay and values recorded at the commit that defined the
benchmark (`expected.json`, written by `record.py`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")


class ProgramMissing(RuntimeError):
    pass


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so no handler in the
    program under test swallows it."""


def load_program():
    """Import tautsys from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tautsys", "__init__.py")):
        raise ProgramMissing(f"no tautsys package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tautsys
    import tautsys.cli
    if not os.path.abspath(tautsys.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"tautsys imported from {tautsys.__file__}")
    return tautsys


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def key(*parts) -> str:
    return ",".join(str(p) for p in parts)


@dataclass
class Outcome:
    seconds: float
    rc: int | None = None
    stdout: str = ""
    value: object = None
    captured: list | None = None
    error: str | None = None      # raised, exited or timed out
    timed_out: bool = False


def _on_alarm(signum, frame):
    raise JobTimeout()


class Runner:
    """Runs jobs against one imported tautsys, each under a wall-clock cap."""

    def __init__(self, tautsys, cap: float):
        self.t = tautsys
        self.cap = cap
        self.specs: dict = {}
        self._sink: list | None = None

    def spec(self, d: int, ordering: str):
        found = self.specs.get((d, ordering))
        if found is None:
            found = self.t.build_projective_model(d, ordering=ordering)
            self.specs[(d, ordering)] = found
        return found

    @contextlib.contextmanager
    def capturing(self):
        """Record the results the CLI's membership commands compute.

        Wraps whatever `tautsys.cli` binds at entry (the tracer may already
        have wrapped it), so the checks can audit the certificate or replay
        the witness behind each printed verdict.
        """
        cli = self.t.cli
        saved = {name: getattr(cli, name)
                 for name in ("membership_test", "scan_family")}

        def recorder(inner):
            def call(*args, **kwargs):
                result = inner(*args, **kwargs)
                if self._sink is not None:
                    self._sink.append(result)
                return result
            return call

        for name, inner in saved.items():
            setattr(cli, name, recorder(inner))
        try:
            yield
        finally:
            for name, inner in saved.items():
                setattr(cli, name, inner)

    def run(self, job, on_start=None, on_end=None) -> Outcome:
        """Run one job; `on_start`/`on_end` bracket exactly the timed part."""
        out = Outcome(seconds=0.0)
        self._sink = captured = []
        stdout = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        if on_start:
            on_start(job)
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap)
            if job.is_cli:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    out.rc = self.t.cli.main(list(job.argv))
            else:
                out.value = self._library(job)
        except JobTimeout:
            out.error = f"exceeded the {self.cap:g} s cap"
            out.timed_out = True
        except SystemExit as exc:
            out.error = f"exited with {exc.code!r}"
        except Exception:
            out.error = traceback.format_exc(limit=4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            out.seconds = time.perf_counter() - started
            if on_end:
                on_end(job)
            signal.signal(signal.SIGALRM, previous)
            self._sink = None
        out.stdout = stdout.getvalue()
        out.captured = captured
        return out

    def _library(self, job):
        t, p = self.t, job.params
        spec = self.spec(p["d"], p["ordering"])
        if job.command == "series":
            return t.period_series(spec, p["order"])
        if job.command == "derivative":
            family = t.PeriodFamily(spec, p["order"])
            return family.base, family.derivative(p["alpha"])
        if job.command == "generating":
            base = t.period_series(spec, p["order"] + p["p"])
            return base, t.derivative_generating_series(base, p["p"],
                                                        p["order"])
        if job.command == "roundtrip":
            base = t.period_series(spec, p["order"])
            vector = t.derivative_vector_solution(base, p["p"])
            return base, vector, t.vectorize(t.scalarize(vector), p["p"])
        raise ValueError(f"unknown job kind {job.command}")


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, runner: Runner, expected: dict):
        self.runner = runner
        self.t = runner.t
        self.expected = expected

    def check(self, job, out: Outcome) -> str | None:
        if out.error:
            return out.error
        if job.is_cli:
            if out.rc != 0:
                return f"exit status {out.rc}"
            lines = out.stdout.splitlines()
            if not lines or lines[-1] != "verdict: PASS":
                return "no PASS verdict"
        method = getattr(self, "_" + job.command.replace("-", "_"))
        try:
            return method(job, out)
        except Exception as exc:  # malformed output is a failed check
            return f"output check raised {exc!r}"

    # -- annihilate ----------------------------------------------------------

    def _verify_periods(self, job, out):
        p = job.params
        lines = out.stdout.splitlines()
        if "all-zero: yes" not in lines:
            return "a residual is nonzero"
        want = self.expected["verify"].get(
            key(p["d"], p["p"], p["order"], p["bound"], p["ordering"]))
        if want is None:
            return "no verified order recorded for this job"
        if f"verified-order: {want}" not in lines:
            return f"verified order differs from the recorded {want}"
        return None

    # -- systems -------------------------------------------------------------

    def _build_system(self, job, out):
        p = job.params
        lines = out.stdout.splitlines()
        start = lines.index("system-json:") + 1
        text = "\n".join(lines[start:-1]) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        want = self.expected["build"].get(
            key(p["d"], p["p"], p["bound"], p["ordering"]))
        if want is None:
            return "no digest recorded for this job"
        return None if digest == want else "system JSON digest differs"

    def _fourier(self, job, out):
        lines = out.stdout.splitlines()
        generators = [l for l in lines if l.startswith("generator ")]
        if not generators or not all(l.endswith(": match")
                                     for l in generators):
            return "a generator does not match its golden form"
        if "fourier image matches dual golden forms: yes" not in lines:
            return "fourier verdict line missing"
        return None

    def _surjectivity(self, job, out):
        p = job.params
        d = p["d"]
        want = comb((p["k"] + p["l"]) * (d + 1) + d, d)
        lines = out.stdout.splitlines()
        if f"product span rank: {want} / {want}" not in lines:
            return f"product span rank is not {want}"
        if p["filtration"] is not None:
            f = p["filtration"]
            want = comb((f - 1) * (d + 1) + d, d)
            line = f"filtration generators (p={f}): {want} / {want}"
            if line not in lines:
                return f"filtration rank is not {want}"
        return None

    def _selftest(self, job, out):
        checks = [l for l in out.stdout.splitlines() if l.startswith("check ")]
        if len(checks) < 6 or not all(l.endswith(": ok") for l in checks):
            return "a self-test check failed"
        return None

    # -- membership ----------------------------------------------------------

    def _audit(self, spec, point, query, result) -> tuple[str | None, str]:
        t = self.t
        if isinstance(result, t.Member):
            if not t.verify_certificate(spec, point, query,
                                        result.certificate):
                return "certificate fails the audit", "member"
            return None, "member"
        if not isinstance(result, t.NonMember):
            return f"unexpected result {type(result).__name__}", "?"
        coeffs, rhs = t.replay_witness(result.system, result.witness)
        if any(coeffs) or rhs == 0:
            return "witness does not reduce to 0 = nonzero", "non-member"
        return None, "non-member"

    def _membership(self, job, out):
        t, p = self.t, job.params
        spec = self.runner.spec(p["d"], "interior-first")
        if p["point_kind"] == "fermat":
            point = t.SectionPoint.of(t.fermat_point(spec))
        else:
            point = t.SectionPoint.of(p["point"])
        query = t.derivative_query(spec, p["alpha"])
        if len(out.captured) != 1:
            return "expected exactly one membership result"
        problem, verdict = self._audit(spec, point, query, out.captured[0])
        if problem:
            return problem
        if f"result: {verdict}" not in out.stdout.splitlines():
            return "printed verdict differs from the computed one"
        return None

    def _scan(self, job, out):
        t, p = self.t, job.params
        spec = self.runner.spec(p["d"], "interior-first")
        query = t.derivative_query(spec, p["alpha"])
        if len(out.captured) != 1 or len(out.captured[0]) != len(p["ts"]):
            return "expected one result per pencil parameter"
        printed = [l for l in out.stdout.splitlines() if l.startswith("t=")]
        for (tv, result), want_t, line in zip(out.captured[0], p["ts"],
                                              printed):
            if tv != want_t:
                return "pencil parameters out of order"
            point = t.SectionPoint.of(tuple(
                b + tv * s for b, s in zip(p["base"], p["direction"])))
            problem, verdict = self._audit(spec, point, query, result)
            if problem:
                return problem
            if not line.endswith(f": {verdict}"):
                return "printed verdict differs from the computed one"
        return None

    # -- expand --------------------------------------------------------------

    def _base(self, job, series, order) -> str | None:
        """Every coefficient is (-1)^j j!/prod m_i! and the count matches."""
        p = job.params
        spec = self.runner.spec(p["d"], p["ordering"])
        i0 = spec.i0
        if series.truncation != order:
            return "base truncation differs"
        zero_b = (0,) * spec.n
        for (a_exp, b_exp), coeff in series.terms.items():
            m = [e for i, e in enumerate(a_exp) if i != i0]
            j = sum(m)
            weight = factorial(j)
            for e in m:
                weight //= factorial(e)
            if (b_exp != zero_b or a_exp[i0] != -(j + 1) or j > order
                    or coeff != (-weight if j % 2 else weight)):
                return f"base coefficient at {a_exp} is not the closed form"
        want = self.expected["series"].get(key(p["d"], order, p["ordering"]))
        if len(series.terms) != want:
            return f"base has {len(series.terms)} terms, recorded {want}"
        if p["d"] == 1 and p["ordering"] == "interior-first":
            closed = self.t.closed_form_series_p1(order // 2)
            if series.terms != closed.terms:
                return "line series differs from the binomial closed form"
        return None

    def _series(self, job, out):
        return self._base(job, out.value, job.params["order"])

    def _derivative(self, job, out):
        p = job.params
        base, derived = out.value
        problem = self._base(job, base, p["order"])
        if problem:
            return problem
        alpha = p["alpha"]
        want = {}
        for (a_exp, b_exp), coeff in base.terms.items():
            factor = 1
            for e, g in zip(a_exp, alpha):
                factor *= _falling(e, g)
            if factor:
                new = tuple(e - g for e, g in zip(a_exp, alpha))
                want[(new, b_exp)] = coeff * factor
        lost = sum(g for i, g in enumerate(alpha) if i != base.i0)
        if derived.terms != want or derived.truncation != p["order"] - lost:
            return "derivative differs from the termwise oracle"
        return None

    def _generating(self, job, out):
        p = job.params
        base, series = out.value
        order, power = p["order"], p["p"]
        problem = self._base(job, base, order + power)
        if problem:
            return problem
        n, i0 = base.n, base.i0
        betas = []
        for combo in combinations_with_replacement(range(n), power):
            beta = [0] * n
            for i in combo:
                beta[i] += 1
            weight = factorial(power)
            for e in beta:
                weight //= factorial(e)
            betas.append((tuple(beta), weight))
        want = {}
        for (a_exp, _), coeff in base.terms.items():
            for beta, weight in betas:
                factor = weight
                for e, g in zip(a_exp, beta):
                    factor *= _falling(e, g)
                new = tuple(e - g for e, g in zip(a_exp, beta))
                if factor and sum(new) - new[i0] <= order:
                    want[(new, beta)] = coeff * factor
        if series.terms != want or series.truncation != order:
            return "generating series differs from the termwise oracle"
        return None

    def _roundtrip(self, job, out):
        p = job.params
        base, vector, back = out.value
        problem = self._base(job, base, p["order"])
        if problem:
            return problem
        if (back.p != vector.p or back.components.keys()
                != vector.components.keys()):
            return "round trip changed the component keys"
        for k, series in vector.components.items():
            other = back.components[k]
            if other != series or other.truncation != series.truncation:
                return f"round trip changed component {k}"
        return None


def _falling(value: int, count: int) -> int:
    out = 1
    for t in range(count):
        out *= value - t
    return out


def stdout_digest(out: Outcome) -> str:
    return hashlib.sha256(out.stdout.encode("utf-8")).hexdigest()
