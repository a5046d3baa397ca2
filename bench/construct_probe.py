"""Time ``construction_steps`` on seeded interval pairs of growing size.

Two kinds of pair, each correlated and logically independent:

* ``grid``: every endpoint is k/den for one denominator den drawn near
  10**6 per pair, as in the interval-pipeline benchmark workload;
* ``diverse``: every endpoint draws its own denominator uniformly from
  2..10**6, so almost no two endpoints share one.

Each row is the median (and the fastest) of ``--repeats`` timed calls on
one pair, 31 by default: with 5, runs on one tree spread 40-80% on the
grid sizes, too wide to resolve a change of a few tenths of a millisecond
there.  The ``verify_*`` columns time ``verify_rccs`` alone on the
partition that construction built, which shows how a construction splits
between building the cells and the one verification it includes.  Those
timed calls and the construction's are cold: where the engine memoizes
the split of a pair (``rccs.engine._pair``), that memo is cleared before
each call, and with it the table of the last verified cells that its
entry holds, so the probe times the same work on checkouts with and
without them.  The ``verify_warm_*`` columns time the same verification
right after an untimed construction on the pair, as a round trip
verifies it, so they show what the memos save.  The inputs depend only
on the kind, the size and ``--seed``, so two checkouts can be compared
on identical pairs:

    python3 bench/construct_probe.py --src src > after.json
    python3 bench/construct_probe.py --src ../parent/src > before.json

Output is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SIZES = {"grid": (10, 100, 1000), "diverse": (40, 150, 1000)}


def _grid_points(rng: random.Random, count: int) -> list[Fraction]:
    den = rng.randint(999_000, 1_001_000)
    return [Fraction(k, den) for k in sorted(rng.sample(range(1, den), count))]


def _diverse_points(rng: random.Random, count: int) -> list[Fraction]:
    points: set[Fraction] = set()
    while len(points) < count:
        den = rng.randint(2, 10**6)
        points.add(Fraction(rng.randint(1, den - 1), den))
    return sorted(points)


def probe_pair(kind: str, count: int, seed: int):
    """A correlated, logically independent pair with ``count`` intervals per event."""
    from rccs import IntervalEvent, correlation, logically_independent

    rng = random.Random(f"construct-probe/{kind}/{count}/{seed}")
    draw = _grid_points if kind == "grid" else _diverse_points
    while True:
        a, b = (
            IntervalEvent(tuple(zip(pts[0::2], pts[1::2])))
            for pts in (draw(rng, 2 * count), draw(rng, 2 * count))
        )
        if correlation(a, b) < 0:
            b = b.complement()
        if correlation(a, b) > 0 and logically_independent(a, b):
            return a, b


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=31)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import rccs.engine
    from rccs.engine import construction_steps, verify_rccs

    clear_pair_memo = getattr(getattr(rccs.engine, "_pair", None), "cache_clear", lambda: None)

    def timed(call, before=clear_pair_memo) -> list[float]:
        times = []
        for _ in range(args.repeats):
            before()
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return times

    rows = []
    for kind, sizes in SIZES.items():
        for count in sizes:
            a, b = probe_pair(kind, count, args.seed)
            times = timed(lambda: construction_steps(a, b))
            cells = construction_steps(a, b).system.cells
            verify_times = timed(lambda: verify_rccs(a, b, cells))
            warm_times = timed(
                lambda: verify_rccs(a, b, cells), before=lambda: (clear_pair_memo(), construction_steps(a, b))
            )
            rows.append(
                {
                    "kind": kind,
                    "intervals": count,
                    "median_ms": statistics.median(times) * 1e3,
                    "min_ms": min(times) * 1e3,
                    "verify_median_ms": statistics.median(verify_times) * 1e3,
                    "verify_min_ms": min(verify_times) * 1e3,
                    "verify_warm_median_ms": statistics.median(warm_times) * 1e3,
                    "verify_warm_min_ms": min(warm_times) * 1e3,
                }
            )
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(
        json.dumps(
            {"python": platform.python_version(), "seed": args.seed, "repeats": args.repeats, "rows": rows}
        )
    )


if __name__ == "__main__":
    main()
