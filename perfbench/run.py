"""Benchmark for the rccs toolkit: one workload per run, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload interval-pipeline --seed 1 --seconds 36 --trace 0

Workloads are ``interval-pipeline``, ``finite-search`` and ``cli-cold``
(see ``workloads.py``).  With ``--trace 0`` the run times operations in a
closed loop for ``--seconds`` (and at least 100 operations, so p90 has ten
samples beyond it) and reports the end-to-end metrics.  With ``--trace 1``
it runs operations untraced for part of the time, runs the same operations
again with spans around every public library call, checks that both
passes produce identical output digests, and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the error rate and the share of each case kind, with its base.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CLI_CASES,
    DEFAULT_SEED,
    ROOT,
    SRC,
    WORKLOADS,
    CheckError,
    child_env,
    digest,
    run_child,
)

MIN_OPS = 100  # p90 needs ten samples beyond it
MAX_RUN_S = 150.0  # hard stop for the minimum-operations rule
SETUP_REPEATS = 5
WARMUP_OPS = 1
TRACE_SHARE = 0.45  # share of --seconds given to the untraced pass of a traced run
PROBE_REPEATS = 5
PROBE_WINDOW = 8  # probes around an operation whose median scales it
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"  # spans and the traced child's output

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls_per_op") or name.endswith(".yielded_per_op") or name.endswith("hits_per_op"):
        return "calls/op"
    if name.endswith("_ms_per_op"):
        return "ms/op"
    if name.endswith("bytes_per_op"):
        return "B/op"
    if name.endswith(".ms") or "_ms" in name:
        return "ms"
    return "ratio"


def make_workload(name: str, seed: int):
    reference = json.loads(REFERENCE.read_text()).get(name) if REFERENCE.exists() else None
    return WORKLOADS[name](seed, reference)


class _Cell:
    __slots__ = ("members",)

    def __init__(self, members) -> None:
        self.members = tuple(sorted(members))


def _cpu_kernel() -> None:
    acc, kept = Fraction(0), []
    for i in range(1, 60):
        cell = set(range(i % 7, i % 7 + 9)) & set(range(3, 14))
        kept.append(_Cell(cell))
        acc += Fraction(len(cell), 999_983 + i)


def _bare_interpreter() -> None:
    code, _, err = run_child([sys.executable, "-c", "pass"])
    if code:
        raise RuntimeError(f"python -c pass failed: {err!r}")


class HostProbe:
    """A fixed piece of work that never touches the library, timed best of ``repeats``.

    On shared hosts the speed of a CPU swings by up to 2x for seconds at a
    time.  Timing the probe around each operation tracks those swings, and
    a change to the library cannot move it.  ``ref_s`` is the probe time
    that reported times are scaled to.
    """

    def __init__(self, work, ref_s: float, repeats: int) -> None:
        self.work, self.ref_s, self.repeats = work, ref_s, repeats

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(self.repeats):
            t = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t)
        return best

    def scale(self, seconds: float, probe_s: float) -> float:
        return seconds * self.ref_s / probe_s


# set algebra, small objects and Fraction sums, like the in-process operations
CPU_PROBE = HostProbe(_cpu_kernel, ref_s=0.0005, repeats=3)
# cli-cold time tracks process start, not the CPU kernel: start a bare interpreter
SPAWN_PROBE = HostProbe(_bare_interpreter, ref_s=0.08, repeats=1)


def probe_for(name: str) -> HostProbe:
    return SPAWN_PROBE if name == "cli-cold" else CPU_PROBE


def setup(name: str, seed: int):
    """Import the library, generate inputs and warm up; return the workload and setup_s.

    Input generation and warm-up are repeated and the median taken, each
    scaled by the workload's probe like the operation latencies.  The
    one-time import is added to it, scaled by ``SPAWN_PROBE``: loading
    modules tracks process start-up, not the CPU kernel.
    """
    import_s = 0.0
    if name != "cli-cold":
        before = SPAWN_PROBE()
        t0 = time.perf_counter()
        import rccs  # noqa: F401

        import_s = time.perf_counter() - t0
        import_s = SPAWN_PROBE.scale(import_s, (before + SPAWN_PROBE()) / 2)
    probe = probe_for(name)
    after = probe()
    times = []
    for _ in range(SETUP_REPEATS):
        before = after
        t = time.perf_counter()
        wl = make_workload(name, seed)
        for k in range(WARMUP_OPS):
            wl.check(k, wl.execute(k))
        elapsed = time.perf_counter() - t
        after = probe()
        times.append(probe.scale(elapsed, (before + after) / 2))
    return wl, import_s + statistics.median(times)


class Pass:
    """Outcome of running operations 0..n-1 once."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.latency_ns: list[int] = []
        self.probes: list[float] = []  # probe before operation i, and one after the last
        self.digests: list[str | None] = []
        self.tags: Counter = Counter()
        self.errors: dict[int, str] = {}

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    def scaled_ms(self) -> list[float]:
        """Latencies scaled to the reference host speed.

        Operation i is scaled by the median of the probes taken from
        ``PROBE_WINDOW // 2`` operations before it to as many after it;
        the median keeps a single slow probe from skewing an operation.
        """
        half = PROBE_WINDOW // 2
        return [
            self.probe.scale(ns / 1e6, statistics.median(self.probes[max(0, i - half) : i + half + 2]))
            for i, ns in enumerate(self.latency_ns)
        ]


def run_ops(
    wl,
    probe: HostProbe,
    *,
    seconds: float = 0.0,
    min_ops: int = 1,
    ops: int | None = None,
    tracer: Tracer | None = None,
) -> Pass:
    """Closed loop: run operations until the clock and the minimum allow a stop, or ``ops`` of them."""
    result = Pass(probe)
    by_item: dict[int, str] = {}
    child_spans = getattr(wl, "spans_path", None) if tracer is not None else None
    start = time.perf_counter()
    k = 0
    while True:
        if ops is not None:
            if k >= ops:
                break
        else:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_RUN_S or (elapsed >= seconds and k >= min_ops):
                break
        if child_spans is not None:
            child_spans.unlink(missing_ok=True)
        result.probes.append(probe())
        root = tracer.begin_op(k) if tracer is not None else None
        t0 = time.perf_counter_ns()
        try:
            out = wl.execute(k)
            failure = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, failure = None, f"{type(exc).__name__}: {exc}"
        result.latency_ns.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            if child_spans is not None and child_spans.exists():
                data = json.loads(child_spans.read_text())
                tracer.adopt(data["spans"], root)
                tracer.counts.update(data["counts"])
            tracer.end_op(root)
        out_digest = None
        if failure is None:
            try:
                out_digest, tags = wl.check(k, out)
                result.tags.update(tags)
                item = k % len(wl.pool)
                if by_item.setdefault(item, out_digest) != out_digest:
                    raise CheckError(f"operation {k}: output differs from an earlier run of the same input")
            except Exception as exc:  # a wrong output of any kind is a failed operation
                failure = str(exc) if isinstance(exc, CheckError) else f"{type(exc).__name__}: {exc}"
        if failure is not None:
            result.errors[k] = failure
        result.digests.append(out_digest)
        k += 1
    result.probes.append(probe())
    return result


def latency_metrics(lat_ms: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def end_to_end(name: str, p: Pass, setup_s: float) -> dict[str, float]:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    metrics = latency_metrics(p.scaled_ms())
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return metrics


def _timed_child(code: str) -> float:
    """Seconds a child reports for ``code``; the child prints its own timing."""
    status, out, err = run_child([sys.executable, "-c", code], child_env())
    if status:
        raise RuntimeError(f"probe child failed: {err!r}")
    return float(out)


def cli_probes(wl, untraced: Pass) -> tuple[dict[str, float], list[str]]:
    """Interpreter and import probes, warm in-process ``main`` and cold p50 per subcommand."""
    metrics: dict[str, float] = {}
    problems: list[str] = []
    metrics["cli.interpreter_start_ms"] = statistics.median(SPAWN_PROBE() for _ in range(PROBE_REPEATS)) * 1e3
    for label, module in (("numpy", "numpy"), ("rccs", "rccs")):
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        metrics[f"cli.import_{label}_ms"] = statistics.median(_timed_child(code) for _ in range(PROBE_REPEATS)) * 1e3

    from rccs.cli import main

    for kind, argv, _ in CLI_CASES:
        times = []
        for rep in range(PROBE_REPEATS + 1):
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            if rep:
                times.append(time.perf_counter() - t)
        metrics[f"cli.main_ms.{kind}"] = statistics.median(times) * 1e3
        want = wl.reference.get(kind)
        if want is not None and digest(code, out.getvalue().encode()) != want:
            problems.append(f"in-process main: {kind} output differs from the cold process")

    for kind, _, _ in CLI_CASES:
        lat = [ns / 1e6 for k, ns in enumerate(untraced.latency_ns) if wl.kind(k) == kind]
        metrics[f"cli.cold_p50_ms.{kind}"] = statistics.median(lat) if lat else 0.0
    return metrics, problems


def cli_metric_names() -> list[str]:
    names = ["cli.interpreter_start_ms", "cli.import_numpy_ms", "cli.import_rccs_ms"]
    names += [f"cli.main_ms.{kind}" for kind, _, _ in CLI_CASES]
    names += [f"cli.cold_p50_ms.{kind}" for kind, _, _ in CLI_CASES]
    return names


def traced_run(name: str, wl, seconds: float):
    probe = probe_for(name)
    untraced = run_ops(wl, probe, seconds=seconds * TRACE_SHARE)
    tracer = Tracer()
    if name == "cli-cold":
        WORK.mkdir(exist_ok=True)
        wl.spans_path = WORK / "child-spans.json"
    else:
        tracer.install()
    try:
        traced = run_ops(wl, probe, ops=untraced.ops, tracer=tracer)
    finally:
        tracer.uninstall()
        if name == "cli-cold":
            wl.spans_path = None
    tracer.dump(WORK / f"trace-{name}.json")

    metrics = layer_metrics(tracer.spans, tracer.counts, traced.ops)
    problems: list[str] = []
    if name == "cli-cold":
        probe_metrics, problems = cli_probes(wl, untraced)
        metrics.update(probe_metrics)
    else:
        # a layer a workload does not exercise reports 0
        metrics.update({key: 0.0 for key in cli_metric_names()})
    metrics["trace.overhead_ratio"] = sum(traced.scaled_ms()) / sum(untraced.scaled_ms())

    errors = dict(untraced.errors)
    errors.update(traced.errors)
    for k, (d0, d1) in enumerate(zip(untraced.digests, traced.digests)):
        if d0 != d1 and k not in errors:
            errors[k] = f"operation {k}: traced output digest differs from the untraced one"
    return traced, metrics, errors, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rccs" / "__init__.py").is_file():
        print(f"perfbench: no rccs sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "cli-cold":
        # children inherit the affinity, so each runs on the CPU the probe has just measured
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wl, setup_s = setup(args.workload, args.seed)
    problems: list[str] = []
    if args.trace:
        p, metrics, errors, problems = traced_run(args.workload, wl, args.seconds)
        units = {key: layer_unit(key) for key in metrics}
    else:
        p = run_ops(wl, probe_for(args.workload), seconds=args.seconds, min_ops=MIN_OPS)
        metrics, errors = end_to_end(args.workload, p, setup_s), p.errors
        units = END_TO_END_UNITS

    for k, message in sorted(errors.items())[:20]:
        print(f"perfbench: operation {k} failed: {message}", file=sys.stderr)
    for message in problems:
        print(f"perfbench: {message}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": len(errors) / p.ops,
        "shares": {tag: count / p.ops for tag, count in sorted(p.tags.items())},
        "base_ops": p.ops,
        "probe_ms": statistics.median(p.probes) * 1e3,
    }
    if not args.trace:
        summary["unscaled"] = latency_metrics([ns / 1e6 for ns in p.latency_ns])
    print(json.dumps(summary))
    result = {
        "correct": not errors and not problems,
        "attempted": p.ops,
        "failed": len(errors),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
