"""Compare two source trees on one pass of a benchmark workload's pool, outside the harness.

For ``--pairs`` alternating pairs, one fresh subprocess runs per tree
(which tree goes first alternates from pair to pair).  Each subprocess
puts its tree's ``src`` first on ``sys.path`` and then:

* builds the workload at ``--seed`` (default 1) from
  ``perfbench/workloads.py``, which it only reads;
* warms up with one pass of ``execute`` over the whole pool;
* times ``PASSES`` more passes, operation by operation, and reports the
  median pass (by mean ms/op), so one pass slowed by the host does not
  decide a pair;
* runs the workload's ``check`` on every output of every timed pass,
  untimed, so a wrong answer fails the probe.  At seed 1 the check also
  compares each output's digest with ``perfbench/reference.json``, which
  holds seed-1 digests only.

Workloads are ``interval-pipeline``, ``finite-search`` and ``cli-cold``.
A ``cli-cold`` operation is one fresh ``python -m rccs`` process; the
probe points those processes at the tree under test by setting the
workload's ``PYTHONPATH`` to its ``src``.

    python3 bench/pool_probe.py ../parent/src src --workload interval-pipeline --pairs 12
    python3 bench/pool_probe.py ../parent/src src --workload cli-cold --pairs 10
    python3 bench/pool_probe.py ../parent/src src --workload finite-search --seed 7919
    python3 bench/pool_probe.py ../parent/src src --workload cli-cold --compiled

Every child runs with ``PYTHONDONTWRITEBYTECODE=1``, so by default each
``cli-cold`` process compiles the package from source, as the benchmark's
children do when that variable is set, and no run writes ``__pycache__``
into a tree it measures: bytecode left there would speed up later runs of
that checkout.  With ``--compiled`` each tree is first copied, without its
``__pycache__``, into a temporary directory and byte-compiled there, and
the probe measures the copies; the trees themselves are only read.  A
``cli-cold`` gain measured both ways splits into the part that is compile
time and the part that an installed, compiled package keeps.

Prints, per tree, the median over pairs of the median pass's mean ms/op,
with its quartiles and the number of pairs in which the tree was the
faster, and the medians over pairs of that pass's per-operation p50 and
p90 (the latency metrics the benchmark reads), and the median and quartiles
over pairs of head/base, the ratio of the two trees' mean ms/op in one
pair: the two children of a pair run back to back, so the ratio cancels
most of a drift in host speed that the per-tree medians keep.  Each
pair's figures go to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("interval-pipeline", "finite-search", "cli-cold")
REFERENCE_SEED = 1  # the seed of the digests in perfbench/reference.json
PASSES = 3  # timed passes per child; the median one is reported


def run_pass(src: str, name: str, seed: int) -> dict[str, float]:
    """Time ``PASSES`` passes of ``execute`` over the pool, after a warm-up pass; check every output.

    Returns the median pass's mean ms/op and its per-operation p50 and p90 in ms.
    """
    src = str(Path(src).resolve())
    sys.path[:0] = [src, str(PERFBENCH)]
    from workloads import WORKLOADS as ALL

    reference = json.loads((PERFBENCH / "reference.json").read_text())[name] if seed == REFERENCE_SEED else None
    wl = ALL[name](seed, reference)
    if name == "cli-cold":
        wl.env["PYTHONPATH"] = src  # its children run this tree, not the checkout perfbench sits in
    ops = range(len(wl.pool))
    for k in ops:
        wl.execute(k)
    passes = []
    for _ in range(PASSES):
        outs, lat_ms = [], []
        for k in ops:
            start = time.perf_counter()
            outs.append(wl.execute(k))
            lat_ms.append((time.perf_counter() - start) * 1e3)
        for k, out in zip(ops, outs):
            wl.check(k, out)
        deciles = statistics.quantiles(lat_ms, n=10)
        passes.append({"mean": statistics.fmean(lat_ms), "p50": statistics.median(lat_ms), "p90": deciles[8]})
    return sorted(passes, key=lambda p: p["mean"])[PASSES // 2]


def compiled_copy(src: str, dest: Path) -> str:
    """Copy the tree ``src`` to ``dest`` without its ``__pycache__``, byte-compile the copy and return its path."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest, quiet=1):
        raise SystemExit(f"cannot byte-compile the copy of {src}")
    return str(dest)


def child(src: str, name: str, seed: int) -> dict[str, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", src, name, str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # inherited by the cli-cold processes too
    done = subprocess.run(cmd, capture_output=True, text=True, check=False, env=env)
    if done.returncode:
        raise SystemExit(f"pool probe child for {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def summary(label: str, passes: list[dict[str, float]], wins: int) -> str:
    means = [p["mean"] for p in passes]
    q1, median, q3 = statistics.quantiles(means, n=4) if len(means) > 1 else means * 3
    p50, p90 = (statistics.median(p[key] for p in passes) for key in ("p50", "p90"))
    return (
        f"{label}: median {median:.3f} ms/op, quartiles {q1:.3f}-{q3:.3f}, "
        f"faster in {wins} of {len(means)} pairs; p50 {p50:.3f} ms, p90 {p90:.3f} ms"
    )


def compare(args: argparse.Namespace, base_src: str, head_src: str) -> tuple[list, list]:
    """Run ``args.pairs`` alternating pairs of children; return each tree's median passes."""
    base, head = [], []
    for pair in range(args.pairs):
        order = ((base, base_src), (head, head_src))
        for passes, src in order if pair % 2 == 0 else reversed(order):
            passes.append(child(src, args.workload, args.seed))
        b, h = base[-1], head[-1]
        print(
            f"pair {pair}: base {b['mean']:.3f} (p50 {b['p50']:.3f}, p90 {b['p90']:.3f}), "
            f"head {h['mean']:.3f} (p50 {h['p50']:.3f}, p90 {h['p90']:.3f}) ms/op",
            file=sys.stderr,
        )
    return base, head


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_pass(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
        return
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the src directory of the tree to compare against")
    parser.add_argument("head", help="the src directory of the tree under test")
    parser.add_argument("--workload", choices=WORKLOADS, default="interval-pipeline")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--compiled", action="store_true", help="measure byte-compiled copies of the two trees")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trees = (args.base, args.head)
        if args.compiled:
            trees = tuple(compiled_copy(src, Path(tmp) / side) for src, side in zip(trees, ("base", "head")))
        base, head = compare(args, *trees)
    label = ", byte-compiled copies" if args.compiled else ""
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs{label}")
    print(summary(f"base {args.base}", base, sum(b["mean"] < h["mean"] for b, h in zip(base, head))))
    print(summary(f"head {args.head}", head, sum(h["mean"] < b["mean"] for b, h in zip(base, head))))
    ratios = [h["mean"] / b["mean"] for b, h in zip(base, head)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"head/base per pair: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}")


if __name__ == "__main__":
    main()
