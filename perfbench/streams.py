"""Seeded job streams, one per workload.

A stream is a sequence of decks of DECK_SIZE jobs.  Every deck fills the
same slots from three cost tiers (TIERS): light, medium and heavy.  Each
tier deals its pool in a seeded order, every entry once per cycle, and each
pool lists configurations of similar cost, so every seed runs the same mix:
the median job falls inside the medium tier and the p90 inside the heavy
tier.  The seed picks the dealing order, the points, multi-indices and
orderings inside each job, and the order of each deck.  Deck k depends only
on (workload, seed, k).

`record.py` walks the pools (`verify_space`, `build_space`, `series_space`)
to record the expected outputs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

WORKLOADS = ("annihilate", "expand", "membership", "systems")
TIERS = (("light", 3), ("medium", 5), ("heavy", 2))
DECK_SIZE = sum(count for _, count in TIERS)
ORDERINGS = ("interior-first", "grlex")
LIBRARY_KINDS = ("series", "derivative", "generating", "roundtrip")


@dataclass(frozen=True)
class Job:
    """One unit of work.

    `command` is a CLI subcommand, run as `tautsys.cli.main(argv)`, or one
    of LIBRARY_KINDS, run through the exported library functions.  `params`
    holds what the output check needs; `system_key` is (d, p, bound,
    ordering) for jobs that build a differential system.
    """

    command: str
    argv: tuple[str, ...]
    params: dict = field(hash=False, compare=False)
    tier: str = "light"
    system_key: tuple | None = None

    @property
    def is_cli(self) -> bool:
        return self.command not in LIBRARY_KINDS


def _n(d: int) -> int:
    return comb(2 * d + 1, d)


# ---------------------------------------------------------------------------
# Job makers: maker(rng, tier, *config) -> Job
# ---------------------------------------------------------------------------


def verify(rng, tier, d, p, order, bound, ordering=None):
    ordering = ordering or rng.choice(ORDERINGS)
    argv = ("verify-periods", "--d", str(d), "--p", str(p), "--order",
            str(order), "--degree-bound", str(bound), "--ordering", ordering)
    return Job("verify-periods", argv,
               dict(d=d, p=p, order=order, bound=bound, ordering=ordering),
               tier, (d, p, bound, ordering))


def expand(rng, tier, kind, d, order, extra, ordering=None):
    """`extra` is p for generating/roundtrip, the alpha order for derivative."""
    params = dict(d=d, order=order, ordering=ordering or rng.choice(ORDERINGS))
    if kind == "derivative":
        params["alpha"] = tuple(_alpha(rng, _n(d), extra))
    elif kind in ("generating", "roundtrip"):
        params["p"] = extra
    argv = tuple(f"{k}={params[k]}" for k in sorted(params))
    return Job(kind, argv, params, tier)


def _point(rng, kind, n):
    if kind == "sparse":
        values = [0] * n
        for i in rng.sample(range(n), rng.randint(1, 3)):
            values[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        return [Fraction(v) for v in values]
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
            for _ in range(n)]


def _alpha(rng, n, order):
    counts = [0] * n
    for _ in range(order):
        counts[rng.randrange(n)] += 1
    return counts


def _alpha_text(counts):
    return "+".join(f"{c if c > 1 else ''}e{i}"
                    for i, c in enumerate(counts) if c)


def _vector_text(values):
    return ",".join(str(v) for v in values)


def member(rng, tier, d, order, kinds=("fermat", "sparse", "dense")):
    """A membership query at a Fermat, sparse integer or dense rational point."""
    n = _n(d)
    kind = rng.choice(kinds)
    alpha = _alpha(rng, n, order)
    argv = ["membership", "--d", str(d), f"--alpha={_alpha_text(alpha)}"]
    params = dict(d=d, alpha=tuple(alpha), point_kind=kind)
    if kind == "fermat":
        argv.append("--fermat")
    else:
        point = _point(rng, kind, n)
        argv.append(f"--point={_vector_text(point)}")
        params["point"] = tuple(point)
    return Job("membership", tuple(argv), params, tier)


def scan(rng, tier, d, order, sizes):
    """Membership along a pencil with a number of parameters from `sizes`."""
    n = _n(d)
    while True:
        base = _point(rng, rng.choice(("sparse", "dense")), n)
        direction = _point(rng, "sparse", n)
        ts = sorted(rng.sample(range(-4, 5), rng.choice(sizes)))
        # every section on the pencil must be nonzero
        if all(any(b + t * s for b, s in zip(base, direction)) for t in ts):
            break
    alpha = _alpha(rng, n, order)
    line = ";".join((_vector_text(base), _vector_text(direction),
                     _vector_text(ts)))
    argv = ("scan", "--d", str(d), f"--alpha={_alpha_text(alpha)}",
            f"--line={line}")
    params = dict(d=d, alpha=tuple(alpha), base=tuple(base),
                  direction=tuple(direction),
                  ts=tuple(Fraction(t) for t in ts))
    return Job("scan", argv, params, tier)


def system(rng, tier, command, d, p=1, bound=2, ordering=None):
    if command == "selftest":
        seed = rng.randint(0, 999)
        return Job(command, ("selftest", "--seed", str(seed)),
                   dict(seed=seed), tier)
    ordering = ordering or rng.choice(ORDERINGS)
    argv = [command, "--d", str(d), "--ordering", ordering]
    params = dict(d=d, ordering=ordering)
    if command == "surjectivity":
        k, l = rng.choice([(1, 1), (1, 2), (2, 1)])
        argv += ["--k", str(k), "--l", str(l)]
        params.update(k=k, l=l, filtration=None)
        if rng.random() < 0.5:
            params["filtration"] = rng.randint(1, 3)
            argv += ["--filtration", str(params["filtration"])]
        return Job(command, tuple(argv), params, tier)
    argv += ["--degree-bound", str(bound)]
    params.update(p=p, bound=bound)
    if command == "build-system":
        argv += ["--p", str(p)]
    return Job(command, tuple(argv), params, tier, (d, p, bound, ordering))


# ---------------------------------------------------------------------------
# Pools: workload -> tier -> [(maker, *config)]
# ---------------------------------------------------------------------------

POOLS = {
    "annihilate": {
        "light": [(verify, 1, p, order, bound) for p in range(4)
                  for order in range(10, 31 if p < 3 else 15)
                  for bound in (2, 3, 4)],
        "medium": [(verify, 2, 0, 5, 2), (verify, 2, 0, 4, 3),
                   (verify, 2, 1, 2, 2)],
        "heavy": [(verify, 2, 0, 8, 2), (verify, 2, 1, 4, 2),
                  (verify, 3, 0, 2, 2)],
    },
    "expand": {
        "light": [(expand, "series", 1, order, 0) for order in (10, 20, 30)]
                 + [(expand, "series", 2, 6, 0), (expand, "series", 3, 3, 0),
                    (expand, "derivative", 2, 6, 1),
                    (expand, "derivative", 2, 7, 2),
                    (expand, "generating", 2, 4, 1),
                    (expand, "roundtrip", 2, 5, 1)],
        "medium": [(expand, "generating", 2, 5, 1),
                   (expand, "roundtrip", 2, 6, 1)],
        "heavy": [(expand, "series", 2, 10, 0), (expand, "series", 3, 4, 0),
                  (expand, "generating", 2, 4, 2),
                  (expand, "generating", 2, 8, 1),
                  (expand, "roundtrip", 2, 5, 2)],
    },
    "membership": {
        "light": [(member, 1, 1), (member, 1, 2), (member, 2, 1),
                  (member, 3, 1, ("fermat", "sparse")),
                  (scan, 1, 1, (3, 4, 5, 6))],
        "medium": [(member, 1, 3, ("fermat",)), (scan, 1, 2, (6,))],
        "heavy": [(member, 1, 4), (member, 3, 1, ("dense",)),
                  (scan, 1, 3, (3, 4))],
    },
    "systems": {
        "light": [(system, "surjectivity", d) for d in (1, 2, 3)]
                 + [(system, "build-system", 1, p, b) for p in range(4)
                    for b in (2, 3, 4)]
                 + [(system, "fourier", 1, 1, b) for b in (2, 3, 4)]
                 + [(system, "fourier", 2, 1, 2), (system, "selftest", 0)],
        "medium": [(system, "build-system", 2, 0, 3),
                   (system, "build-system", 2, 1, 2)],
        "heavy": [(system, "build-system", 2, 0, 4),
                  (system, "build-system", 2, 2, 3),
                  (system, "build-system", 2, 1, 4)],
    },
}

# one small untimed job per distinct command, run during set-up
WARMUPS = {
    "annihilate": [(verify, 1, 0, 10, 2, "grlex")],
    "expand": [(expand, kind, 1, 10, 1, "grlex") for kind in LIBRARY_KINDS],
    "membership": [(member, 1, 1, ("fermat",)), (scan, 1, 1, (3,))],
    "systems": [(system, "build-system", 1, 0, 2, "grlex"),
                (system, "fourier", 1, 1, 2, "grlex"),
                (system, "surjectivity", 1, 1, 2, "grlex"),
                (system, "selftest", 0)],
}


def _make(rng, tier, entry):
    maker, *config = entry
    return maker(rng, tier, *config)


@functools.lru_cache(maxsize=64)
def _cycle(workload, seed, tier, cycle):
    order = list(POOLS[workload][tier])
    random.Random(f"{workload}/{seed}/{tier}/{cycle}").shuffle(order)
    return order


def _dealt(workload, seed, tier, slot):
    """Entry `slot` of a tier's stream: the pool in a fresh seeded order
    per cycle, so every entry runs equally often within one cycle."""
    cycle, position = divmod(slot, len(POOLS[workload][tier]))
    return _cycle(workload, seed, tier, cycle)[position]


def deck(workload: str, seed: int, index: int) -> list[Job]:
    """Deck `index` of the stream for (workload, seed), in run order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = [_make(rng, tier, _dealt(workload, seed, tier, index * count + i))
            for tier, count in TIERS for i in range(count)]
    rng.shuffle(jobs)
    return jobs


def warmups(workload: str) -> list[Job]:
    rng = random.Random(workload)
    return [_make(rng, "warmup", entry) for entry in WARMUPS[workload]]


def _entries(workload, maker):
    pools = list(POOLS[workload].values()) + [WARMUPS[workload]]
    return [entry[1:] for pool in pools for entry in pool if entry[0] is maker]


def verify_space():
    """(d, p, order, bound, ordering) of every verify-periods job."""
    return sorted({(*config[:4], o) for config in _entries("annihilate", verify)
                   for o in ORDERINGS})


def build_space():
    """(d, p, bound, ordering) of every build-system job."""
    return sorted({(*config[1:4], o) for config in _entries("systems", system)
                   if config[0] == "build-system" for o in ORDERINGS})


def series_space():
    """(d, order, ordering) of every base series an expand job builds."""
    out = set()
    for kind, d, order, extra, *_ in _entries("expand", expand):
        base = order + extra if kind == "generating" else order
        out.update((d, base, o) for o in ORDERINGS)
    return sorted(out)
