#!/usr/bin/env python3
"""Closed-loop benchmark of the tautsys workbench.

    python3 perfbench/run.py --workload annihilate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One client in one process on one thread runs a seeded job stream
(see streams.py) and starts each job only after the previous verdict.  The
loop runs whole decks of jobs until `--seconds` have passed and at least
MIN_DECKS decks are done, so every run holds the same job mix and at least
100 jobs.  Each job's output is checked outside its timed interval.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the public functions of every tautsys module are wrapped from
outside and the metrics are the per-layer ones (spans are written to
.bench_out/).  `--all` runs every workload both ways in child processes and
prints every metric by name with its unit, the tracing overhead and the
design checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()

import jobs  # noqa: E402
import streams  # noqa: E402

MIN_DECKS = 10
JOB_CAP_S = 10.0          # per-job wall-clock cap; the slowest seed job is ~1 s
HARD_LIMIT_S = 140.0      # no job starts after this much process time
SETUP_PROBES = 3
TAIL = 0.90               # job_s.tail percentile; >= 10 jobs lie beyond it
OUT_DIR = os.path.join(jobs.ROOT, ".bench_out")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(RuntimeError):
    pass


class Bench:
    """Everything a run prepares before its first timed job."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        tautsys = jobs.load_program()
        self.runner = jobs.Runner(tautsys, JOB_CAP_S)
        self.checker = jobs.Checker(self.runner, jobs.load_expected())
        for d in (1, 2, 3):
            for ordering in streams.ORDERINGS:
                self.runner.spec(d, ordering)
        self.decks = [streams.deck(workload, seed, k) for k in range(4 * MIN_DECKS)]
        with self.runner.capturing():
            for job in streams.warmups(workload):
                problem = self.checker.check(job, self.runner.run(job))
                if problem:
                    raise SetupError(f"warm-up {' '.join(job.argv)}: {problem}")

    def deck(self, k: int):
        while len(self.decks) <= k:
            self.decks.append(streams.deck(self.workload, self.seed, len(self.decks)))
        return self.decks[k]


def timed_loop(bench: Bench, seconds: float, min_decks: int,
               max_decks: int | None, tracer=None) -> list[dict]:
    on_start = on_end = None
    if tracer is not None:
        counter = iter(range(1 << 30))
        on_start = lambda job: tracer.begin_job(next(counter),
                                                f"{job.tier} {job.command}")
        on_end = lambda job: tracer.end_job()
    records = []
    started = time.perf_counter()
    k = 0
    with bench.runner.capturing():
        while max_decks is None or k < max_decks:
            if k >= min_decks and time.perf_counter() - started >= seconds:
                break
            for job in bench.deck(k):
                if time.perf_counter() - PROCESS_START > HARD_LIMIT_S:
                    return records
                out = bench.runner.run(job, on_start, on_end)
                problem = bench.checker.check(job, out)
                records.append(dict(
                    job=job, seconds=out.seconds, problem=problem,
                    timed_out=out.timed_out,
                    digest=jobs.stdout_digest(out) if job.is_cli else None))
            k += 1
    return records


def reuse_share(records) -> float:
    seen, reused, counted = set(), 0, 0
    for r in records:
        key = r["job"].system_key
        if key is None:
            continue
        counted += 1
        reused += key in seen
        seen.add(key)
    return reused / counted if counted else 0.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed job."""
    command = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          cwd=jobs.ROOT) as child:
        try:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            _, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise SetupError("set-up probe did not finish")
    if line != "ready" or child.returncode != 0:
        raise SetupError(f"set-up probe failed: {err.strip()[-400:]}")
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_decks: int = MIN_DECKS, max_decks: int | None = None,
                 probes: int = SETUP_PROBES, span_path: str | None = None):
    """One benchmark run; returns (result line, records)."""
    bench = Bench(workload, seed)
    setups = [probe_setup(workload, seed) for _ in range(probes)]
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        records = timed_loop(bench, seconds, min_decks, max_decks, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = [r["seconds"] for r in records]
    failed = sum(r["problem"] is not None for r in records)
    wrong = sum(r["problem"] is not None and not r["timed_out"]
                for r in records)
    if trace:
        values = tracer.summary(reuse_share(records))
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        if span_path:
            os.makedirs(os.path.dirname(span_path), exist_ok=True)
            tracer.write(span_path)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "jobs_per_s": len(times) / sum(times),
            "job_s.p50": statistics.median(times),
            "job_s.tail": statistics.quantiles(
                times, n=100, method="inclusive")[round(TAIL * 100) - 1],
            "ok_ratio": 1.0 - failed / len(times),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        if setups:
            values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    line = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return line, records


def per_layer_spec() -> list[dict]:
    path = os.path.join(jobs.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["per_layer"]


def report(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, print every metric."""
    traced = {}
    status = 0
    for workload in streams.WORKLOADS:
        untraced_rate = None
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=jobs.ROOT, timeout=300)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}")
                status = 1
                continue
            line = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = line["metrics"]
            if trace:
                traced[workload] = metrics
                print(f"\n{workload} (traced): attempted={line['attempted']} "
                      f"failed={line['failed']}")
            else:
                print(f"\n{workload}: attempted={line['attempted']} "
                      f"failed={line['failed']} correct={line['correct']} "
                      f"fail_ratio={line['failed'] / line['attempted']:.4f}")
                untraced_rate = metrics["jobs_per_s"]["value"]
            for name, m in metrics.items():
                print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
            if trace and untraced_rate:
                rate = metrics["trace.jobs_per_s"]["value"]
                print(f"  tracing overhead: jobs_per_s {untraced_rate:.4g} "
                      f"-> {rate:.4g} ({rate / untraced_rate - 1:+.1%})")
    print("\ndesign checks (share of traced job time):")
    for workload in streams.WORKLOADS:
        if workload not in traced:
            continue
        key = f"design.{workload}.share"
        own = traced[workload][key]["value"]
        others = {w: m[key]["value"] for w, m in traced.items()
                  if w != workload}
        low = min(others.values()) if others else float("nan")
        verdict = "ok" if own >= 0.5 and low < 0.1 else "NOT MET"
        print(f"  {workload:11s} own {own:6.1%}  lowest elsewhere {low:6.1%}"
              f"  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload both ways and print a report")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.probe:
            Bench(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        span_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz")
        line, _ = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), span_path=span_path,
                               probes=0 if args.trace else SETUP_PROBES)
    except (jobs.ProgramMissing, SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
