"""Compare two source trees on one pass of a benchmark workload's pool, outside the harness.

For ``--pairs`` alternating pairs, one fresh subprocess runs per tree
(which tree goes first alternates from pair to pair).  Each subprocess
puts its tree's ``src`` first on ``sys.path`` and then:

* builds the seed-1 workload from ``perfbench/workloads.py``, which it
  only reads;
* warms up with one pass of ``execute`` over the whole pool;
* times one more pass;
* runs the workload's ``check`` on every output of the timed pass,
  untimed, against ``perfbench/reference.json``, so a wrong answer
  fails the probe.

Workloads are ``interval-pipeline``, ``finite-search`` and ``cli-cold``.
A ``cli-cold`` operation is one fresh ``python -m rccs`` process; the
probe points those processes at the tree under test by setting the
workload's ``PYTHONPATH`` to its ``src``.

    python3 bench/pool_probe.py ../parent/src src --workload interval-pipeline --pairs 12
    python3 bench/pool_probe.py ../parent/src src --workload cli-cold --pairs 10

Prints, per tree, the median ms/op, the quartiles and the number of
pairs in which it was the faster; each pair's times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("interval-pipeline", "finite-search", "cli-cold")
SEED = 1


def run_pass(src: str, name: str) -> float:
    """Time one pass of ``execute`` over the pool, after a warm-up pass; check every output; return ms/op."""
    src = str(Path(src).resolve())
    sys.path[:0] = [src, str(PERFBENCH)]
    from workloads import WORKLOADS as ALL

    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    wl = ALL[name](SEED, reference)
    if name == "cli-cold":
        wl.env["PYTHONPATH"] = src  # its children run this tree, not the checkout perfbench sits in
    ops = range(len(wl.pool))
    for k in ops:
        wl.execute(k)
    start = time.perf_counter()
    outs = [wl.execute(k) for k in ops]
    elapsed = time.perf_counter() - start
    for k, out in zip(ops, outs):
        wl.check(k, out)
    return elapsed * 1e3 / len(ops)


def child(src: str, name: str) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", src, name]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"pool probe child for {src} failed:\n{done.stderr}")
    return float(done.stdout)


def summary(label: str, times: list[float], wins: int) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"{label}: median {median:.3f} ms/op, quartiles {q1:.3f}-{q3:.3f}, faster in {wins} of {len(times)} pairs"


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(run_pass(sys.argv[2], sys.argv[3]))
        return
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the src directory of the tree to compare against")
    parser.add_argument("head", help="the src directory of the tree under test")
    parser.add_argument("--workload", choices=WORKLOADS, default="interval-pipeline")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    base, head = [], []
    for pair in range(args.pairs):
        order = ((base, args.base), (head, args.head))
        for times, src in order if pair % 2 == 0 else reversed(order):
            times.append(child(src, args.workload))
        print(f"pair {pair}: base {base[-1]:.3f}, head {head[-1]:.3f} ms/op", file=sys.stderr)
    print(f"{args.workload}, seed {SEED}, {args.pairs} pairs")
    print(summary(f"base {args.base}", base, sum(b < h for b, h in zip(base, head))))
    print(summary(f"head {args.head}", head, sum(h < b for b, h in zip(base, head))))


if __name__ == "__main__":
    main()
