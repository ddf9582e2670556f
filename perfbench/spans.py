"""Spans around the public functions of every tautsys module.

The tracer patches each module's binding of a traced function from outside
(for example `tautsys.cli.period_series` as well as
`tautsys.periods.period_series`), so calls made through any import path are
seen.  Spans are kept in memory as [name, start, end, parent, job, tag] and
written out when the run ends; counters are taken at the same boundaries.
Outside a job (set-up, output checks) the wrappers call straight through.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute); "Class.method" patches the class attribute
TARGETS = [
    ("tautsys.exact", "solve_exact"),
    ("tautsys.exact", "replay_witness"),
    ("tautsys.membership", "membership_test"),
    ("tautsys.membership", "verify_certificate"),
    ("tautsys.membership", "scan_family"),
    ("tautsys.weyl", "apply_operator"),
    ("tautsys.weyl", "compose"),
    ("tautsys.weyl", "fourier"),
    ("tautsys.series", "LaurentSeries.__add__"),
    ("tautsys.series", "LaurentSeries.derivative_a"),
    ("tautsys.periods", "period_series"),
    ("tautsys.periods", "derivative_generating_series"),
    ("tautsys.periods", "derivative_vector_solution"),
    ("tautsys.periods", "verify_annihilation"),
    ("tautsys.model", "lattice_relations"),
    ("tautsys.systems", "build_tautological_system"),
    ("tautsys.systems", "build_scalar_system"),
    ("tautsys.systems", "fourier_matches_dual"),
    ("tautsys.systems", "scalarize"),
    ("tautsys.systems", "vectorize"),
    ("tautsys.serialize", "system_to_obj"),
    ("tautsys.serialize", "dumps"),
    ("tautsys.cli", "main"),
]
LAYERS = ("exact", "membership", "weyl", "series", "periods", "model",
          "systems", "serialize", "cli")
FAMILIES = ("toric", "symmetry", "grading", "bder", "mixed")
BUILDERS = ("systems.build_tautological_system", "systems.build_scalar_system")

# the span sets each workload was built to load, as (workload, names)
DESIGN = {
    "annihilate": ("weyl.apply_operator",),
    "expand": ("periods.*", "series.*"),
    "membership": ("exact.solve_exact",),
    "systems": ("weyl.compose", "weyl.fourier") + BUILDERS
               + ("serialize.*",),
}


def family_of(label: str) -> str:
    if label.startswith("toric"):
        return "toric"
    if label.startswith("symmetry"):
        return "symmetry"
    if label.startswith("euler"):
        return "grading"
    if label.startswith("bder"):
        return "bder"
    if label.startswith("mixed"):
        return "mixed"
    return "other"


def _span_name(module: str, attribute: str) -> str:
    layer = module.split(".")[-1]
    method = attribute.split(".")[-1]
    return f"{layer}.{'add' if method == '__add__' else method}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._families: dict[int, str] = {}
        self._restore: list = []

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job_id: int, label: str):
        self.job = job_id
        self.stack = [len(self.spans)]
        self.spans.append(["job", time.perf_counter(), 0.0, None, job_id,
                           label])

    def end_job(self):
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.job = None

    # -- patching ------------------------------------------------------------

    def install(self):
        hooks = {
            "exact.solve_exact": (self._before_solve, self._after_solve),
            "membership.membership_test": (None, self._after_membership),
            "weyl.apply_operator": (self._before_apply, None),
            "periods.period_series": (None, self._after_period_series),
            "periods.verify_annihilation": (self._before_verify,
                                            self._after_verify),
            "model.lattice_relations": (None, self._after_relations),
            "systems.build_tautological_system": (None, self._after_build),
            "systems.build_scalar_system": (None, self._after_build),
            "serialize.dumps": (None, self._after_dumps),
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tautsys"
                                         or name.startswith("tautsys."))]
        for module_name, attribute in TARGETS:
            module = sys.modules[module_name]
            name = _span_name(module_name, attribute)
            before, after = hooks.get(name, (None, None))
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original, before, after))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            tag = before(args) if before else None
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1], tracer.job, tag]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after:
                after(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _before_solve(self, args):
        system = args[0]
        self.counts["exact.solve.cells"] += len(system.rows) * len(system.labels)

    def _after_solve(self, args, result):
        combo = getattr(result, "combo", None)
        if combo:
            bits = max(max(abs(m.numerator).bit_length(),
                           m.denominator.bit_length()) for m in combo)
            self.maxima["exact.witness.bits.max"] = max(
                self.maxima["exact.witness.bits.max"], bits)

    def _after_membership(self, args, result):
        self.counts["membership.tests"] += 1
        if hasattr(result, "certificate"):
            self.counts["membership.members"] += 1

    def _before_apply(self, args):
        op, target = args[0], args[1]
        self.counts["weyl.apply.term_pairs"] += len(op.terms) * len(target.terms)
        return self._families.get(id(op), "other")

    def _before_verify(self, args):
        self._families = {id(op): family_of(label)
                          for label, op in args[0].labelled()}

    def _after_verify(self, args, result):
        self._families = {}

    def _after_period_series(self, args, result):
        self.counts["periods.period_series.terms"] += len(result.terms)

    def _after_relations(self, args, result):
        self.counts["model.relations.count"] += len(result)

    def _after_build(self, args, result):
        parent = self.spans[self.stack[-1]][0]
        if parent not in BUILDERS:
            self.counts["systems.operators.count"] += len(result.operators)

    def _after_dumps(self, args, result):
        self.counts["serialize.bytes"] += len(result)

    # -- output --------------------------------------------------------------

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self, reuse_share: float) -> dict[str, float]:
        """Per-layer metrics: times and counts per job, shares of job time."""
        spans = self.spans
        n = len(spans)
        duration = [s[2] - s[1] for s in spans]
        children = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] is not None:
                children[s[3]] += duration[i]

        def outermost(i, match):
            parent = spans[i][3]
            while parent is not None:
                if match(spans[parent][0]):
                    return False
                parent = spans[parent][3]
            return True

        def matcher(patterns):
            exact = {p for p in patterns if not p.endswith(".*")}
            prefixes = tuple(p[:-1] for p in patterns if p.endswith(".*"))
            return lambda name: name in exact or name.startswith(prefixes)

        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        layer_time = defaultdict(float)
        design_time = defaultdict(float)
        design_match = {w: matcher(p) for w, p in DESIGN.items()}
        jobs, job_time = 0, 0.0
        for i, s in enumerate(spans):
            name = s[0]
            if name == "job":
                jobs += 1
                job_time += duration[i]
                continue
            calls[name] += 1
            self_time[name] += duration[i] - children[i]
            if outermost(i, lambda other: other == name):
                inclusive[name] += duration[i]
            if name == "weyl.apply_operator":
                inclusive[f"weyl.apply_operator.{s[5]}"] += duration[i]
                calls[f"weyl.apply_operator.{s[5]}"] += 1
            layer = name.split(".")[0]
            if outermost(i, lambda other: other.split(".")[0] == layer):
                layer_time[layer] += duration[i]
            for workload, match in design_match.items():
                if match(name) and outermost(i, match):
                    design_time[workload] += duration[i]

        per = 1.0 / jobs if jobs else 0.0
        share = 1.0 / job_time if job_time else 0.0
        out = {
            "trace.jobs_per_s": jobs / job_time if job_time else 0.0,
            "trace.job_s.mean": job_time * per,
        }
        for name in ("exact.solve_exact", "exact.replay_witness",
                     "membership.verify_certificate", "weyl.apply_operator",
                     "weyl.compose", "series.add", "series.derivative_a",
                     "periods.period_series", "model.lattice_relations",
                     "systems.scalarize", "systems.vectorize",
                     "serialize.system_to_obj", "serialize.dumps"):
            out[f"{name}.s"] = inclusive[name] * per
        for name in ("exact.solve_exact", "membership.membership_test",
                     "weyl.apply_operator", "weyl.compose", "weyl.fourier",
                     "series.add", "series.derivative_a"):
            out[f"{name}.calls"] = calls[name] * per
        for family in FAMILIES:
            out[f"weyl.apply_operator.{family}.s"] = inclusive[
                f"weyl.apply_operator.{family}"] * per
            out[f"weyl.apply_operator.{family}.calls"] = calls[
                f"weyl.apply_operator.{family}"] * per
        for name in ("membership.membership_test", "weyl.fourier",
                     "periods.derivative_generating_series",
                     "periods.verify_annihilation",
                     "systems.fourier_matches_dual", "cli.main"):
            out[f"{name}.self_s"] = self_time[name] * per
        out["systems.build.s"] = sum(inclusive[b] for b in BUILDERS) * per
        for name in ("exact.solve.cells", "weyl.apply.term_pairs",
                     "periods.period_series.terms", "model.relations.count",
                     "systems.operators.count", "serialize.bytes"):
            out[name] = self.counts[name] * per
        out["exact.witness.bits.max"] = self.maxima["exact.witness.bits.max"]
        tests = self.counts["membership.tests"]
        out["membership.member_share"] = (
            self.counts["membership.members"] / tests if tests else 0.0)
        out["systems.reuse_share"] = reuse_share
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_time[layer] * share
        for workload in DESIGN:
            out[f"design.{workload}.share"] = design_time[workload] * share
        return out
