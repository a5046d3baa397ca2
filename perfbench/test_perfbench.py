"""Self-tests for the benchmark.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They
take about half a minute, most of it one cycle of the finite search.
"""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import OP, Tracer, layer_metrics  # noqa: E402
from workloads import CLI_CASES, DEFAULT_SEED, SRC, CliCold, FiniteSearch, IntervalPipeline  # noqa: E402

sys.path.insert(0, str(SRC))

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _pool_key(wl):
    return [tuple(map(str, item)) for item in wl.pool]


@pytest.mark.parametrize("cls", [IntervalPipeline, FiniteSearch, CliCold])
def test_generators_are_deterministic_per_seed(cls):
    assert _pool_key(cls(5)) == _pool_key(cls(5))
    assert _pool_key(cls(5)) != _pool_key(cls(6))


def test_cli_pool_cycles_every_case_once():
    assert sorted(kind for kind, _, _ in CliCold(3).pool) == sorted(kind for kind, _, _ in CLI_CASES)


def test_interval_pool_spreads_sizes_in_every_prefix():
    sizes = [len(a.intervals) for a, _ in IntervalPipeline(2).pool]
    assert min(sizes) >= 10 and max(sizes) <= 151
    # the first eighth already covers the whole range
    head = sizes[: len(sizes) // 8]
    assert min(head) < 30 and max(head) > 120


def test_run_continues_until_min_ops():
    class Fake:
        pool = [0]

        def execute(self, k):
            return k

        def check(self, k, out):
            return "same", set()

    assert bench.run_ops(Fake(), bench.CPU_PROBE, seconds=0.0, min_ops=bench.MIN_OPS).ops == bench.MIN_OPS
    assert bench.run_ops(Fake(), bench.CPU_PROBE, ops=7).ops == 7


@pytest.mark.parametrize("probe", [bench.CPU_PROBE, bench.SPAWN_PROBE])
def test_latencies_scale_by_the_probes_around_each_operation(probe):
    p = bench.Pass(probe)
    p.latency_ns = [10_000_000] * 3
    p.probes = [probe.ref_s, probe.ref_s, 3 * probe.ref_s, 3 * probe.ref_s]
    assert p.scaled_ms() == [10.0 / 2, 10.0 / 2, 10.0 / 2]  # median of 1, 1, 3, 3 probe units
    p.probes = [probe.ref_s, 2 * probe.ref_s, 9 * probe.ref_s, 2 * probe.ref_s]
    assert p.scaled_ms() == [5.0, 5.0, 5.0]  # one slow probe does not skew the scale
    assert 0 < probe() < 1


def _timed_ops(wl, count):
    start = time.perf_counter()
    p = bench.run_ops(wl, bench.probe_for(wl.name), ops=count)
    return p, (time.perf_counter() - start) / count


@pytest.mark.parametrize(
    "cls, count",
    [(IntervalPipeline, 16), (FiniteSearch, len(FiniteSearch.SHAPES)), (CliCold, len(CLI_CASES))],
)
def test_min_ops_fit_before_the_hard_stop(cls, count):
    wl = bench.make_workload(cls.name, DEFAULT_SEED)
    p, mean_s = _timed_ops(wl, count)
    assert not p.errors
    # the minimum number of operations is reached long before the hard stop
    assert bench.MIN_OPS * mean_s < bench.MAX_RUN_S / 2
    assert BENCHMARK["run_seconds"] * 3 < bench.MAX_RUN_S


def test_finite_search_has_hit_heavy_and_provably_empty_cases():
    wl = bench.make_workload(FiniteSearch.name, DEFAULT_SEED)
    p = bench.run_ops(wl, bench.CPU_PROBE, ops=len(FiniteSearch.SHAPES))
    assert not p.errors
    assert p.tags["hit_heavy"] == len(FiniteSearch.SHAPES) // 2
    assert p.tags["with_hits"] > 0
    dependent_big = [k for k, (_, _, _, n, _, dep) in enumerate(wl.pool[: p.ops]) if dep and n >= 3]
    assert dependent_big, "the first cycle has no logically dependent pair with n >= 3"
    assert all(p.digests[k] == p.digests[dependent_big[0]] for k in dependent_big)  # all empty


def test_checks_catch_a_wrong_answer():
    wl = bench.make_workload(IntervalPipeline.name, DEFAULT_SEED)
    steps, text, partition, accept, merged = wl.execute(0)
    with pytest.raises(bench.CheckError):
        wl.check(0, (steps, text, partition, merged, merged))
    with pytest.raises(bench.CheckError):
        wl.check(1, (steps, text, partition, accept, merged))  # digest of another input


def test_tracing_changes_no_output_and_restores_bindings():
    import rccs.engine
    import rccs.lattice

    original = rccs.lattice.compatible
    wl = bench.make_workload(IntervalPipeline.name, DEFAULT_SEED)
    plain = bench.run_ops(wl, bench.CPU_PROBE, ops=3)
    tracer = Tracer()
    tracer.install()
    try:
        assert rccs.engine.compatible is rccs.lattice.compatible is not original
        traced = bench.run_ops(wl, bench.CPU_PROBE, ops=3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rccs.engine.compatible is rccs.lattice.compatible is original
    assert plain.digests == traced.digests and not traced.errors
    metrics = layer_metrics(tracer.spans, tracer.counts, traced.ops)
    assert metrics["engine.verify_rccs.calls_per_op"] == 3
    assert metrics["events.meet.calls_per_op"] > 0
    assert 0 < metrics["events.self_share"] < 1


def test_self_time_subtracts_direct_children():
    spans = [
        [OP, 0, 100, -1, 0],
        ["engine.verify_rccs", 10, 60, 0, 0],
        ["lattice.compatible", 20, 50, 1, 0],
        ["events.meet", 25, 35, 2, 0],
    ]
    m = layer_metrics(spans, Counter(), 1)
    assert m["engine.verify_rccs.self_ms_per_op"] == 20 / 1e6
    assert m["lattice.compatible.self_ms_per_op"] == 20 / 1e6
    assert m["lattice.compatible.incl_ms_per_op"] == 30 / 1e6
    assert m["events.meet.self_ms_per_op"] == 10 / 1e6
    assert m["engine.self_share"] == 0.2


def test_benchmark_json_lists_exactly_the_reported_metrics():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == bench.END_TO_END_UNITS
    layer_names = list(layer_metrics([], Counter(), 1)) + bench.cli_metric_names() + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {n: bench.layer_unit(n) for n in layer_names}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
