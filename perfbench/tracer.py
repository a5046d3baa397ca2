"""Spans around the library's public calls, installed from outside the library.

``Tracer.install()`` wraps the functions, methods and constructors listed
in ``TARGETS``.  Modules import names with ``from .x import y``, so a
function is replaced in every ``rccs`` module that holds a binding to it
(``rccs.engine.compatible`` as well as ``rccs.lattice.compatible``);
methods and constructors are replaced on their class.  Spans are recorded
only while an operation is open (``tracer.op`` is set), so output checks
run between operations stay out of the trace.

A span is ``[name, start_ns, end_ns, parent_index, op]``.  Self time is a
span's duration minus the durations of its direct children: the process
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path, kind); kind is "function", "generator" or "method"
TARGETS = (
    ("events.meet", "rccs.events", "IntervalEvent.meet", "method"),
    ("events.join", "rccs.events", "IntervalEvent.join", "method"),
    ("events.complement", "rccs.events", "IntervalEvent.complement", "method"),
    ("events.carve", "rccs.events", "IntervalEvent.carve", "method"),
    ("events.measure", "rccs.events", "IntervalEvent.measure", "method"),
    ("lattice.compatible", "rccs.lattice", "compatible", "function"),
    ("lattice.correlation", "rccs.lattice", "correlation", "function"),
    ("lattice.logically_independent", "rccs.lattice", "logically_independent", "function"),
    ("lattice.Partition", "rccs.lattice", "Partition.__init__", "method"),
    ("engine.construction_steps", "rccs.engine", "construction_steps", "function"),
    ("engine.verify_rccs", "rccs.engine", "verify_rccs", "function"),
    ("engine.CommonCauseSystem", "rccs.engine", "CommonCauseSystem.__init__", "method"),
    ("finite.search_rccs", "rccs.finite", "search_rccs", "function"),
    ("finite.enumerate_partitions", "rccs.finite", "enumerate_partitions", "generator"),
    ("serialize.dumps", "rccs.serialize", "dumps", "function"),
    ("serialize.loads", "rccs.serialize", "loads", "function"),
    ("serialize.steps_to_obj", "rccs.serialize", "steps_to_obj", "function"),
    ("serialize.interval_partition_from_obj", "rccs.serialize", "interval_partition_from_obj", "function"),
    ("bell.build_witness", "rccs.bell", "build_witness", "function"),
    ("bell.bell_expectations", "rccs.bell", "bell_expectations", "function"),
    ("bell.no_common_ccs_demo", "rccs.bell", "no_common_ccs_demo", "function"),
)

# Counters taken from a call's result: name -> (counter, result -> amount)
RESULT_COUNTERS = {
    "finite.search_rccs": ("finite.hits", len),
    "serialize.dumps": ("serialize.bytes", lambda text: len(text.encode())),
}

OP = "op"  # name of the root span of one benchmark operation


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open(OP)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = None

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for name, start, end, p, _ in child_spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, self.op])

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        if kind == "generator":

            def traced_items(it):
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.op is None:
                    return fn(*args, **kwargs)
                return traced_items(iter(fn(*args, **kwargs)))

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        for module in sorted({t[1] for t in TARGETS}):
            importlib.import_module(module)
        loaded = [m for key, m in sys.modules.items() if key == "rccs" or key.startswith("rccs.")]
        for name, module, attr, kind in TARGETS:
            owner = sys.modules[module]
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, kind))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, kind)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def layer_metrics(spans: list[list], counts: Counter, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations."""
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    for idx, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[idx]
        durations[name].append(end - start)
    op_ns = sum(durations[OP]) or 1
    ops = max(ops, 1)

    def per_op_calls(name):
        return calls[name] / ops

    def per_op_ms(name):
        return self_ns[name] / 1e6 / ops

    def share(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / op_ns

    out: dict[str, float] = {}
    for op in ("meet", "join", "complement", "carve", "measure"):
        out[f"events.{op}.calls_per_op"] = per_op_calls(f"events.{op}")
        out[f"events.{op}.self_ms_per_op"] = per_op_ms(f"events.{op}")
    out["events.self_share"] = share("events")
    out["lattice.compatible.calls_per_op"] = per_op_calls("lattice.compatible")
    out["lattice.compatible.self_ms_per_op"] = per_op_ms("lattice.compatible")
    # inclusive: the event operations compatible() calls are its children
    out["lattice.compatible.incl_ms_per_op"] = sum(durations["lattice.compatible"]) / 1e6 / ops
    out["lattice.correlation.calls_per_op"] = per_op_calls("lattice.correlation")
    out["lattice.logically_independent.calls_per_op"] = per_op_calls("lattice.logically_independent")
    out["lattice.Partition.calls_per_op"] = per_op_calls("lattice.Partition")
    out["lattice.Partition.self_ms_per_op"] = per_op_ms("lattice.Partition")
    out["lattice.self_share"] = share("lattice")
    out["engine.construction_steps.self_ms_per_op"] = per_op_ms("engine.construction_steps")
    out["engine.verify_rccs.calls_per_op"] = per_op_calls("engine.verify_rccs")
    out["engine.verify_rccs.self_ms_per_op"] = per_op_ms("engine.verify_rccs")
    out["engine.CommonCauseSystem.calls_per_op"] = per_op_calls("engine.CommonCauseSystem")
    out["engine.self_share"] = share("engine")
    yielded = counts["finite.enumerate_partitions.yielded"]
    out["finite.search_rccs.self_ms_per_op"] = per_op_ms("finite.search_rccs")
    out["finite.enumerate_partitions.yielded_per_op"] = yielded / ops
    out["finite.enumerate_partitions.self_ms_per_op"] = per_op_ms("finite.enumerate_partitions")
    out["finite.hits_per_op"] = counts["finite.hits"] / ops
    # hits over candidates yielded; 0 when nothing was enumerated
    out["finite.hit_ratio"] = counts["finite.hits"] / yielded if yielded else 0.0
    out["finite.self_share"] = share("finite")
    for fn in ("dumps", "loads", "steps_to_obj", "interval_partition_from_obj"):
        out[f"serialize.{fn}.self_ms_per_op"] = per_op_ms(f"serialize.{fn}")
    out["serialize.bytes_per_op"] = counts["serialize.bytes"] / ops
    for fn in ("build_witness", "bell_expectations", "no_common_ccs_demo"):
        d = durations.get(f"bell.{fn}")
        out[f"bell.{fn}.ms"] = statistics.median(d) / 1e6 if d else 0.0
    return out
