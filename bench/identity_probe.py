"""Digest the answers of the public API and the command line on seeded inputs.

Prints one sha256 per family of answers, so that two checkouts can be
compared answer for answer: run the same script against each source tree
and diff the output.  ``family_records`` returns the records of all
seven families; the tier-1 test ``tests/test_identity_probe.py`` pins
their digests in ``tests/data/identity_digests.json``.

    PYTHONPATH=src python3 bench/identity_probe.py > after.txt
    PYTHONPATH=../parent/src python3 bench/identity_probe.py > before.txt

Families:

* ``construct``: the ``serialize.steps_to_obj`` text of ``construction_steps``
  at lambda 1/2, 1/3 and 99/100 on seeded correlated, logically
  independent interval pairs;
* ``verify``: the ``verify_rccs`` report on each constructed partition
  (accepted) and on it with its first two cells merged (rejected);
* ``interval-outcomes``: for random small interval pairs, the outcome or
  the error text of the predicates, the size-2 check with a random
  one-interval cause and the construction;
* ``finite-outcomes``: the same for random small finite pairs, with the
  search at every cell count from 0 to one past the number of points;
* ``search``: the hits of ``search_rccs`` on seeded weighted spaces and on
  hit-heavy uniform spaces;
* ``decomposition``: the outcome or the error text of
  ``correlation_decomposition`` on random small interval pairs, with a
  random partition, the trivial partition and the constructed partition
  where there is one, and on random finite pairs of 3 to 5 points, with
  every partition of the space;
* ``cli``: exit code, stdout and stderr of a fixed list of invocations of
  ``rccs.cli.main``.  Its ``bell`` and ``demo`` lines print the Bell
  witness's floats, which come from the pure-Python kernel in
  ``rccs.bell`` and are the same on every platform, so they are pinned
  with the rest.

Only the public API is used.  The inputs depend on nothing but the
constants below.  A run takes a few seconds; the digests go to stdout,
the source tree and the time to stderr.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import rccs
from rccs import (
    FULL,
    FiniteSpace,
    IntervalEvent,
    Partition,
    PreconditionError,
    construction_steps,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    finite_measure,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)
from rccs.cli import main
from rccs.serialize import dumps, report_to_obj, steps_to_obj

SEED = "identity-probe/1"
LAMBDAS = (Fraction(1, 2), Fraction(1, 3), Fraction(99, 100))


def outcome(call) -> str:
    """The value of ``call()`` as text, or the type and text of the error it raised."""
    try:
        return repr(call())
    except Exception as exc:  # every error is an answer here
        return f"{type(exc).__name__}: {exc}"


def interval_event(rng: random.Random, count: int, den: int) -> IntervalEvent:
    ends = sorted(rng.sample(range(den + 1), 2 * count))
    return IntervalEvent(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in zip(ends[0::2], ends[1::2])))


def construct_pair(rng: random.Random, count: int) -> tuple[IntervalEvent, IntervalEvent]:
    """A correlated, logically independent pair of ``count`` intervals per event."""
    while True:
        den = rng.randint(10 * count, 1000 * count)
        a, b = interval_event(rng, count, den), interval_event(rng, count, den)
        if correlation(a, b) < 0:
            b = b.complement()
        if correlation(a, b) > 0 and logically_independent(a, b):
            return a, b


def construct_and_verify(rng: random.Random) -> tuple[list[str], list[str]]:
    constructed, verified = [], []
    pairs = [construct_pair(rng, count) for count in (1, 2, 3, 5, 10, 20, 40) for _ in range(3)]
    for a, b in pairs:
        for lam in LAMBDAS:
            steps = construction_steps(a, b, lam)
            constructed.append(dumps(steps_to_obj(steps)))
            cells = steps.system.cells.cells
            verified.append(dumps(report_to_obj(verify_rccs(a, b, steps.system.cells))))
            merged = Partition((cells[0] | cells[1], *cells[2:]))
            verified.append(outcome(lambda: dumps(report_to_obj(verify_rccs(a, b, merged)))))
    return constructed, verified


def interval_outcomes(rng: random.Random) -> list[str]:
    records = []
    for _ in range(400):
        den = rng.randint(2, 12)
        a, b = (interval_event(rng, rng.randint(0, min(3, (den + 1) // 2)), den) for _ in range(2))
        records.append(f"{a} ; {b}")
        records.append(outcome(lambda: correlation(a, b)))
        records.append(outcome(lambda: logically_independent(a, b)))
        cut = interval_event(rng, 1, den)
        records.append(outcome(lambda: verify_common_cause(a, b, cut)))
        records.append(outcome(lambda: dumps(steps_to_obj(construction_steps(a, b)))))
    return records


def random_space(rng: random.Random, m: int) -> FiniteSpace:
    raw = [rng.randint(1, 6) for _ in range(m)]
    return FiniteSpace(tuple(Fraction(w, sum(raw)) for w in raw))


def hits_text(hits: list[Partition]) -> str:
    return " | ".join(" / ".join(str(cell) for cell in p.cells) for p in hits)


def finite_outcomes(rng: random.Random) -> list[str]:
    records = []
    for _ in range(300):
        m = rng.randint(1, 6)
        space = random_space(rng, m)
        a, b = (space.event(rng.sample(range(m), rng.randint(0, m))) for _ in range(2))
        records.append(f"{space.weights} ; {a} ; {b}")
        records.append(outcome(lambda: finite_measure(space, a)))
        records.append(outcome(lambda: correlation(a, b)))
        records.append(outcome(lambda: logically_independent(a, b)))
        for n in range(m + 2):
            records.append(outcome(lambda: hits_text(search_rccs(space, a, b, n))))
    return records


def search_hits(rng: random.Random) -> list[str]:
    records = []
    for m in range(5, 13):  # uniform spaces: a = the first m/2 points, b = points m/4 .. m/2
        space = FiniteSpace((Fraction(1, m),) * m)
        a, b = space.event(range(m // 2)), space.event(range(m // 4, m // 2 + 1))
        for n in range(2, 5):
            records.append(f"uniform {m} n={n}: " + outcome(lambda: hits_text(search_rccs(space, a, b, n))))
    while len(records) < 60:  # correlated pairs on weighted spaces of 6 to 10 points
        m = rng.randint(6, 10)
        space = random_space(rng, m)
        a, b = (space.event(rng.sample(range(m), rng.randint(2, m - 2))) for _ in range(2))
        if correlation(a, b) > 0:
            for n in range(2, 5):
                records.append(f"{space.weights} ; {a} ; {b} ; n={n}: " + hits_text(search_rccs(space, a, b, n)))
    return records


def interval_partition(rng: random.Random, den: int) -> Partition:
    """The pieces between up to four random cut points, each given to one of up to three cells."""
    ends = [0, *sorted(rng.sample(range(1, den), rng.randint(0, min(4, den - 1)))), den]
    cells: dict[int, IntervalEvent] = {}
    for lo, hi in zip(ends, ends[1:]):
        piece = IntervalEvent(((Fraction(lo, den), Fraction(hi, den)),))
        k = rng.randrange(3)
        cells[k] = cells[k] | piece if k in cells else piece
    return Partition(tuple(cells.values()))


def decomposition_outcomes(rng: random.Random) -> list[str]:
    records = []
    for _ in range(150):
        den = rng.randint(2, 12)
        a, b = (interval_event(rng, rng.randint(0, min(3, (den + 1) // 2)), den) for _ in range(2))
        partitions = [interval_partition(rng, den), Partition((FULL,))]
        try:
            partitions.append(construction_steps(a, b).system.cells)
        except PreconditionError:
            pass
        records.append(f"{a} ; {b}")
        for partition in partitions:
            records.append(outcome(lambda: correlation_decomposition(a, b, partition)))
    for _ in range(40):
        m = rng.randint(3, 5)
        space = random_space(rng, m)
        a, b = (space.event(rng.sample(range(m), rng.randint(0, m))) for _ in range(2))
        records.append(f"{space.weights} ; {a} ; {b}")
        for n in range(1, m + 1):
            for partition in enumerate_partitions(space, n):
                records.append(outcome(lambda: correlation_decomposition(a, b, partition)))
    return records


WORKED = {"a": {"intervals": [["0", "1/2"]]}, "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]}}
SEARCH = {"space": {"weights": ["1/6"] * 6}, "a": {"members": [0, 1, 2]}, "b": {"members": [1, 2, 3]}, "n": 3}
CLI_INVOCATIONS = [
    ["construct", json.dumps(WORKED)],
    ["construct", json.dumps(WORKED), "--json"],
    ["construct", json.dumps(WORKED), "--explain", "--lambda", "1/3"],
    ["construct", json.dumps({"a": {"intervals": [["1/2", "1"], ["0", "1/4"]]}, "b": WORKED["b"]}), "--normalize"],
    ["construct", json.dumps({"a": {"intervals": [["0", "1/4"]]}, "b": {"intervals": [["0", "1/2"]]}})],
    ["construct", json.dumps({"a": {"intervals": [["0", "1/2"]]}, "b": {"intervals": [["1/4", "3/4"]]}})],
    ["construct", json.dumps({"a": {"intervals": [["0", "1/0"]]}, "b": WORKED["b"]})],
    ["construct", json.dumps(WORKED), "--lambda", "2"],
    ["construct", '{"a": '],
    ["construct", "{}"],
    ["verify", json.dumps({**WORKED, "partition": [{"intervals": [["0", "1/2"]]}, {"intervals": [["1/2", "1"]]}]})],
    ["verify", json.dumps({**WORKED, "partition": [{"intervals": [["0", "1/2"]]}, {"intervals": [["1/4", "1"]]}]})],
    ["search", json.dumps(SEARCH)],
    ["search", json.dumps(SEARCH), "--json"],
    ["search", json.dumps({**SEARCH, "n": 7})],
    ["search", json.dumps({**SEARCH, "n": "3"})],
    ["search", json.dumps({**SEARCH, "b": {"members": [0]}})],
    ["search", json.dumps({**SEARCH, "b": {"members": [3, 4]}})],
    ["search", json.dumps({**SEARCH, "a": {"members": [0, 9]}})],
    ["search", json.dumps(SEARCH), "--max-points", "5"],
    ["bell"],
    ["bell", "--json"],
    ["demo"],
    ["demo", "--json", "--lambda", "1/3"],
    ["frobnicate"],
]


def cli_outcomes() -> list[str]:
    records = []
    for argv in CLI_INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        records.append(json.dumps([argv, code, out.getvalue(), err.getvalue()]))
    return records


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def family_records() -> dict[str, list[str]]:
    """The records of the seven families, by name."""
    rng = random.Random(SEED)
    constructed, verified = construct_and_verify(rng)
    return {
        "construct": constructed,
        "verify": verified,
        "interval-outcomes": interval_outcomes(rng),
        "finite-outcomes": finite_outcomes(rng),
        "search": search_hits(rng),
        "decomposition": decomposition_outcomes(rng),
        "cli": cli_outcomes(),
    }


def main_probe() -> None:
    start = time.perf_counter()
    for name, records in family_records().items():
        print(f"{name:18} {digest(records)}  ({len(records)} records)")
    print(f"source {rccs.__file__}, {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main_probe()
