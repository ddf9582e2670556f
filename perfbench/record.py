#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Walks every parameter set the streams can draw and writes expected.json:
the verified order of each verify-periods job, the SHA-256 of each
build-system JSON, and the term count of each base period series.  Run it
only on a commit whose outputs are trusted; the benchmark compares later
commits with these values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import jobs
import streams


def _cli(tautsys, argv) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = tautsys.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return out.getvalue().splitlines()


def main() -> int:
    tautsys = jobs.load_program()
    expected = {"verify": {}, "build": {}, "series": {}}
    for d, p, order, bound, ordering in streams.verify_space():
        lines = _cli(tautsys, ["verify-periods", "--d", str(d), "--p", str(p),
                               "--order", str(order), "--degree-bound",
                               str(bound), "--ordering", ordering])
        if "all-zero: yes" not in lines:
            raise RuntimeError(f"nonzero residual at {d, p, order, bound}")
        (line,) = [l for l in lines if l.startswith("verified-order: ")]
        expected["verify"][jobs.key(d, p, order, bound, ordering)] = int(
            line.split(": ")[1])
    for d, p, bound, ordering in streams.build_space():
        lines = _cli(tautsys, ["build-system", "--d", str(d), "--p", str(p),
                               "--degree-bound", str(bound), "--ordering",
                               ordering])
        text = "\n".join(lines[lines.index("system-json:") + 1:-1]) + "\n"
        expected["build"][jobs.key(d, p, bound, ordering)] = hashlib.sha256(
            text.encode("utf-8")).hexdigest()
    for d, order, ordering in streams.series_space():
        spec = tautsys.build_projective_model(d, ordering=ordering)
        expected["series"][jobs.key(d, order, ordering)] = len(
            tautsys.period_series(spec, order).terms)
    with open(jobs.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {jobs.EXPECTED_PATH}: "
          + ", ".join(f"{len(v)} {k}" for k, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
