"""The three benchmark workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop driven by one client.  ``Workload(seed)``
generates a pool of inputs from the seed alone; operation ``k`` runs on
``pool[k % len(pool)]``.  ``execute(k)`` is the timed part and calls only
the library (or, for ``cli-cold``, one ``python -m rccs`` child).
``check(k, out)`` runs untimed, raises :class:`CheckError` on any wrong
output and returns ``(digest, tags)``: a digest of the operation's output
and the set of case kinds it belongs to (``must_reject``, ``empty_proof``,
``hit_heavy``, ``with_hits``).

Pools are ordered so that every prefix has the same mix of input sizes
as the whole pool: a run stops on a clock, and the median and p90 must
not depend on where it stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Never used while tuning the benchmark; reserve it for confirming gain claims.
HELD_OUT_SEED = 7919


class CheckError(Exception):
    """An operation's output is wrong."""


class _Pooled:
    """Digest check against the reference recorded for the default seed."""

    def _against_reference(self, k: int, out_digest: str) -> str:
        if self.reference is not None:
            want = self.reference[k % len(self.pool)]
            _require(out_digest == want, f"operation {k}: output differs from the reference")
        return out_digest


def digest(*parts) -> str:
    """Short hash of the reprs of an operation's outputs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _bit_reversed(count: int) -> list[int]:
    """0..count-1 in bit-reversed order, so every prefix spreads evenly."""
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in order if i < count]


def _report_key(report) -> tuple:
    return (
        report.verdict,
        report.failure,
        report.screening_off_ok,
        report.cross_ok,
        tuple(map(str, report.cell_measures)),
        tuple(map(str, report.cond_a)),
        tuple(map(str, report.cond_b)),
        tuple(map(str, report.cond_ab)),
        str(report.decomposition_lhs),
        str(report.decomposition_rhs),
    )


def _overlap(x: list[tuple[int, int]], y: list[tuple[int, int]]) -> int:
    """Total length shared by two sorted lists of disjoint integer intervals."""
    total = i = j = 0
    while i < len(x) and j < len(y):
        total += max(0, min(x[i][1], y[j][1]) - max(x[i][0], y[j][0]))
        if x[i][1] <= y[j][1]:
            i += 1
        else:
            j += 1
    return total


def interval_pair(rng: random.Random, count_a: int, count_b: int):
    """A correlated, logically independent pair of interval events.

    Endpoints are k/den on a grid whose denominator is drawn near 10**6,
    so the library's Fraction arithmetic does real gcd work.  Correlation
    and logical independence are decided here in integers on the grid;
    if the draw is anticorrelated, ``b`` is replaced by its complement,
    which flips the sign.
    """
    from rccs.events import IntervalEvent

    den = rng.randint(999_000, 1_001_000)

    def draw(count: int) -> list[tuple[int, int]]:
        pts = sorted(rng.sample(range(1, den), 2 * count))
        return [(pts[2 * i], pts[2 * i + 1]) for i in range(count)]

    def length(x):
        return sum(hi - lo for lo, hi in x)

    while True:
        a, b = draw(count_a), draw(count_b)
        excess = _overlap(a, b) * den - length(a) * length(b)
        if excess < 0:
            edges = [0] + [p for iv in b for p in iv] + [den]
            b = [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi]
            excess = -excess
        both = _overlap(a, b)
        if excess and both < min(length(a), length(b)) and length(a) + length(b) - both < den:
            break
    return tuple(
        IntervalEvent(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in x)) for x in (a, b)
    )


def finite_case(rng: random.Random, m: int, uniform: bool, sizes: tuple[int, int, int]):
    """A finite space and a correlated pair with |a & b|, |a - b|, |b - a| = sizes.

    With |a - b| = 0 the pair is logically dependent (a inside b);
    otherwise every quadrant is nonempty.  The seed only permutes the
    points and draws integer weights 1..9, so for uniform weights the
    search cost and hit count do not depend on the seed.
    """
    from rccs.finite import FiniteSpace

    both, a_only, b_only = sizes
    while True:
        ints = [1] * m if uniform else [rng.randint(1, 9) for _ in range(m)]
        points = rng.sample(range(m), both + a_only + b_only)
        a = points[: both + a_only]
        b = points[:both] + points[both + a_only :]
        w = sum(ints)
        if w * sum(ints[i] for i in points[:both]) > sum(ints[i] for i in a) * sum(ints[i] for i in b):
            break
    space = FiniteSpace(tuple(Fraction(x, w) for x in ints))
    return space, space.event(a), space.event(b)


class IntervalPipeline(_Pooled):
    """The README flow on one correlated, logically independent interval pair.

    construct -> dumps(steps_to_obj) -> loads -> interval_partition_from_obj
    -> verify (must accept) -> verify the partition whose first cell merges
    the first two constructed cells (must reject on cell 0).
    """

    name = "interval-pipeline"
    POOL = 256  # more than a run uses, so each operation sees a new pair
    MIN_INTERVALS, MAX_INTERVALS = 10, 150

    def __init__(self, seed: int, reference: list | None = None) -> None:
        self.reference = reference if seed == DEFAULT_SEED else None
        rng = random.Random(f"{self.name}/{seed}")
        span = self.MAX_INTERVALS - self.MIN_INTERVALS
        levels = [self.MIN_INTERVALS + span * i / (self.POOL - 1) for i in range(self.POOL)]

        def count(level: float) -> int:
            jittered = round(level * rng.uniform(0.9, 1.1))
            return min(self.MAX_INTERVALS, max(self.MIN_INTERVALS, jittered))

        self.pool = [interval_pair(rng, count(levels[i]), count(levels[i])) for i in _bit_reversed(self.POOL)]

    def execute(self, k: int):
        from rccs import serialize
        from rccs.engine import construction_steps, verify_rccs
        from rccs.lattice import Partition

        a, b = self.pool[k % self.POOL]
        steps = construction_steps(a, b)
        text = serialize.dumps(serialize.steps_to_obj(steps))
        partition = serialize.interval_partition_from_obj(serialize.loads(text)["cells"])
        accept = verify_rccs(a, b, partition)
        c = partition.cells
        merged = verify_rccs(a, b, Partition((c[0].join(c[1]), c[2])))
        return steps, text, partition, accept, merged

    def check(self, k: int, out) -> tuple[str, set]:
        steps, text, partition, accept, merged = out
        _require(steps.report.verdict, "constructed system not accepted by the construction's own verify")
        _require(partition.cells == steps.system.cells.cells, "partition does not survive the JSON round trip")
        _require(accept.verdict, f"round-tripped system rejected: {accept.failure}")
        _require(accept.decomposition_lhs == accept.decomposition_rhs, "decomposition sides differ")
        _require(
            steps.report.decomposition_lhs == steps.report.decomposition_rhs,
            "decomposition sides differ in the construction report",
        )
        _require(
            not merged.verdict and merged.failure == "screening-off fails on cell 0",
            f"merged-cell candidate not rejected on cell 0: {merged.failure}",
        )
        out_digest = digest(text, _report_key(accept), _report_key(merged))
        return self._against_reference(k, out_digest), {"must_reject"}


class FiniteSearch(_Pooled):
    """One exhaustive ``search_rccs`` call on a seeded finite space.

    Shapes (m points, n cells) follow a fixed 20-slot cycle, so every run
    has the same cost mix: 8 fast n=2 searches, then 4, 2, 3 and 3 slots of
    roughly 0.1, 0.25, 0.4 and 1 s.  The median lands mid-way in the
    0.1 s group and p90 inside the 1 s group.  (10, 4) is left out: one
    search there takes 3-5 s.  Within each cycle half the spaces have
    uniform weights (many screening subsets, many hits) and half integer
    weights 1..9; a quarter of the pairs are correlated but logically
    dependent (a inside b), whose answer for n >= 3 is provably empty.
    The pair's shape (quadrant sizes) is fixed by the slot, not the seed.
    """

    name = "finite-search"
    SHAPES = (
        (8, 2), (8, 3), (9, 3), (10, 3), (9, 2), (8, 3), (8, 4), (10, 2), (8, 2), (9, 3),
        (9, 4), (8, 3), (9, 2), (8, 4), (10, 2), (8, 3), (10, 3), (8, 2), (9, 3), (9, 2),
    )
    CYCLES = 8

    # (|a & b|, |a - b|, |b - a|); the dependent ones have a inside b
    INDEPENDENT = ((2, 1, 1), (3, 2, 1))
    DEPENDENT = ((2, 0, 2), (1, 0, 2))

    def __init__(self, seed: int, reference: list | None = None) -> None:
        self.reference = reference if seed == DEFAULT_SEED else None
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = []
        for cycle in range(self.CYCLES):
            for slot, (m, n) in enumerate(self.SHAPES):
                # per cycle: half uniform, a quarter dependent, rotating over slots
                uniform = (slot // 2 + cycle) % 2 == 0
                dependent = slot % 4 == cycle % 4
                sizes = (self.DEPENDENT if dependent else self.INDEPENDENT)[(cycle // 2) % 2]
                space, a, b = finite_case(rng, m, uniform, sizes)
                self.pool.append((space, a, b, n, uniform, dependent))

    def execute(self, k: int):
        from rccs.finite import search_rccs

        space, a, b, n, _, _ = self.pool[k % len(self.pool)]
        return search_rccs(space, a, b, n)

    def check(self, k: int, hits) -> tuple[str, set]:
        from rccs.engine import verify_rccs

        space, a, b, n, uniform, dependent = self.pool[k % len(self.pool)]
        m = len(space)
        labels_seen = []
        for p in hits:
            _require(p.size == n, f"hit has {p.size} cells, expected {n}")
            labels = [None] * m
            for lab, cell in enumerate(p.cells):
                for point in cell.members:
                    _require(labels[point] is None, "hit cells overlap")
                    labels[point] = lab
            _require(None not in labels, "hit cells do not cover the space")
            firsts = [cell.members[0] for cell in p.cells]
            _require(firsts == sorted(firsts), "hit cells are not ordered by smallest member")
            labels_seen.append(labels)
            report = verify_rccs(a, b, p)
            _require(report.verdict, f"search hit rejected by verify_rccs: {report.failure}")
        _require(
            all(x < y for x, y in zip(labels_seen, labels_seen[1:])),
            "hits are not in enumeration order",
        )
        tags = {"hit_heavy"} if uniform else set()
        if hits:
            tags.add("with_hits")
        else:
            tags.add("empty_proof")
        if dependent and n >= 3:
            _require(not hits, "a logically dependent pair got a system of size >= 3")
        out_digest = digest([[c.members for c in p.cells] for p in hits])
        return self._against_reference(k, out_digest), tags


_WORKED_A = {"intervals": [["0", "1/2"]]}
_WORKED_B = {"intervals": [["1/10", "1/2"], ["9/10", "1"]]}
_WORKED_CELLS = [
    {"intervals": [["1/10", "23/80"]]},
    {"intervals": [["1/2", "29/34"]]},
    {"intervals": [["0", "1/10"], ["23/80", "1/2"], ["29/34", "1"]]},
]
_SEARCH_6 = {"space": {"weights": ["1/6"] * 6}, "a": {"members": [0]}, "b": {"members": [0, 1]}, "n": 3}

# (kind, argv, expected exit code)
CLI_CASES = (
    ("construct", ["construct", json.dumps({"a": _WORKED_A, "b": _WORKED_B}), "--json"], 0),
    ("verify", ["verify", json.dumps({"a": _WORKED_A, "b": _WORKED_B, "partition": _WORKED_CELLS}), "--json"], 0),
    ("search", ["search", json.dumps(_SEARCH_6), "--json"], 0),
    ("bell", ["bell", "--json"], 0),
    ("demo", ["demo", "--json"], 0),
    ("input_error", ["construct", json.dumps({"a": {"intervals": [["0", "1/0"]]}, "b": _WORKED_B}), "--json"], 1),
)


CHILD_TIMEOUT_S = 60


def run_child(cmd: list[str], env: dict | None = None) -> tuple[int, bytes, bytes]:
    """Run a child to completion; return its exit code, stdout and stderr.

    ``subprocess.run(timeout=...)`` reaps the child by polling with sleeps
    of up to 50 ms, which would land in the measured time; here the wait
    blocks, and a timer kills a child that hangs.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, stdout, stderr


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliCold:
    """One fresh ``python -m rccs`` process per operation, one child at a time.

    The six fixed inputs are cycled in an order drawn from the seed.
    Outputs do not depend on the seed, so stdout and exit codes are checked
    against the reference on every seed.
    """

    name = "cli-cold"

    def __init__(self, seed: int, reference: dict | None = None) -> None:
        order = list(range(len(CLI_CASES)))
        random.Random(f"{self.name}/{seed}").shuffle(order)
        self.pool = [CLI_CASES[i] for i in order]
        self.reference = reference or {}
        self.spans_path = None  # set by the tracer: run traced children instead
        self.env = child_env()

    def kind(self, k: int) -> str:
        return self.pool[k % len(self.pool)][0]

    def execute(self, k: int):
        _, argv, _ = self.pool[k % len(self.pool)]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "rccs", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(self.spans_path), *argv]
        return run_child(cmd, self.env)

    def check(self, k: int, out) -> tuple[str, set]:
        kind, _, want_code = self.pool[k % len(self.pool)]
        code, stdout, stderr = out
        _require(b"Traceback" not in stderr, f"{kind}: traceback on stderr")
        _require(code == want_code, f"{kind}: exit code {code}, expected {want_code}")
        tags = set()
        if kind == "input_error":
            lines = stderr.decode().splitlines()
            _require(not stdout, "input error printed to stdout")
            _require(
                len(lines) == 1 and lines[0].startswith("input error:"),
                f"input error diagnostic is not one 'input error:' line: {stderr!r}",
            )
            tags.add("must_reject")
        else:
            _require(not stderr, f"{kind}: unexpected stderr {stderr[:200]!r}")
            try:
                report = json.loads(stdout)
            except ValueError:
                raise CheckError(f"{kind}: stdout is not JSON") from None
            if kind == "search":
                tags.add("with_hits" if report["count"] else "empty_proof")
        out_digest = digest(code, stdout)
        want = self.reference.get(kind)
        _require(want is None or out_digest == want, f"{kind}: output differs from the reference")
        return out_digest, tags


WORKLOADS = {w.name: w for w in (IntervalPipeline, FiniteSearch, CliCold)}
