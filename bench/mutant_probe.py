"""Mutation probe: plant one fault at a time in the exact kernels and see whether the tests notice.

Each entry of ``MUTANTS`` names a file of ``src/rccs``, a text that occurs
exactly once in it, the text that replaces it, and the test modules that
should catch the change.  For each mutant the probe copies ``src``,
``tests``, ``docs`` (the CLI tests read the report schema there) and
``pyproject.toml`` into a temporary directory, applies the mutant there
and runs the named modules with ``pytest -x`` and
``PYTHONDONTWRITEBYTECODE=1``.  The repository itself is only read.
First it runs every module the chosen mutants name on an unmutated copy:
if that fails, no mutant could survive, so the probe stops with exit 1.

A mutant is killed when the run fails, and survives when it passes.  A
mutant marked equivalent changes no answer, and the table gives the
reason; it is expected to survive.  The probe prints one line per mutant
(killed or survived, the seconds taken, and the reason for an equivalent
one), then the score.  It exits 1 if a mutant that is not marked
equivalent survives, or one that is marked equivalent is killed.

    python3 bench/mutant_probe.py                 # every mutant, a few minutes
    python3 bench/mutant_probe.py cover-prune     # the named mutants only
    python3 bench/mutant_probe.py --check         # each old text occurs once; runs no test

``--check`` is what the tier-1 test ``tests/test_mutant_probe.py`` runs, so
an edit that moves a kernel's text cannot leave the table silently stale.

Reference: DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rccs"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/rccs
    old: str
    new: str
    tests: tuple[str, ...]  # modules under tests/, run in this order
    equivalent: str | None = None  # why the mutant changes no answer


_EVENTS = ("test_events",)
_LATTICE = ("test_lattice", "test_engine")
_ENGINE = ("test_engine", "test_cross_model")
_FINITE = ("test_finite", "test_cross_model")
_SERIALIZE = ("test_serialize", "test_cli")
_CLI = ("test_cli",)
_BELL = ("test_bell",)

MUTANTS = (
    # events: the sweeps, the measure, the canonical-form check, the trusted constructor, the atoms and the carve
    Mutant(
        "meet-tie-end", "events.py",
        "            if a_hn * b_hd <= b_hn * a_hd:", "            if a_hn * b_hd < b_hn * a_hd:", _EVENTS,
        equivalent="on a tie both intervals end at the same reduced pair, so using up b's instead of a's "
        "adds the same ints, and the one kept ends before the other's next interval starts",
    ),
    Mutant(
        "meet-touching", "events.py",
        "                elif b_ln * a_hd < a_hn * b_ld:", "                elif b_ln * a_hd <= a_hn * b_ld:", _EVENTS,
    ),
    Mutant(
        "complement-leading-zero", "events.py",
        "    ends = (0, 1) + e if e[0] > 0 else e[2:]", "    ends = (0, 1) + e if e[0] >= 0 else e[2:]", _EVENTS,
    ),
    Mutant(
        "complement-trailing-one", "events.py",
        "    return ends + (1, 1) if e[-2] < e[-1] else ends[:-2]",
        "    return ends + (1, 1) if e[-2] <= e[-1] else ends[:-2]", _EVENTS,
    ),
    Mutant(
        "measure-lower-end", "events.py",
        "            by_den[lo_d] = by_den.get(lo_d, 0) - lo_n",
        "            by_den[lo_d] = by_den.get(lo_d, 0) + lo_n", _EVENTS,
    ),
    Mutant("checked-lower-bound", "events.py", "        nums[0] >= 0", "        nums[0] > 0", _EVENTS),
    Mutant("atoms-tie", "events.py", "        if x <= y:  # the cut", "        if x < y:  # the cut", _EVENTS),
    Mutant("atoms-flip", "events.py", "            state ^= 1\n", "            state ^= 2\n", _EVENTS),
    Mutant("atoms-closing", "events.py", "    if at_n < at_d:", "    if at_n <= at_d:", _EVENTS),
    Mutant(
        "atoms-start", "events.py",
        "    i, j = (2 if a and not a[0] else 0),", "    i, j = (2 if a and a[0] else 0),", _EVENTS,
    ),
    Mutant("carve-fit-sign", "events.py", "                if diff < 0 or", "                if diff > 0 or", _EVENTS),
    Mutant(
        "carve-exact-fit", "events.py",
        "                if diff < 0 or diff == 0 and k < len(e) - 4:", "                if diff < 0:", _EVENTS,
    ),
    Mutant(
        "carve-last-interval", "events.py", "diff == 0 and k < len(e) - 4:", "diff == 0 and k <= len(e) - 4:", _EVENTS,
    ),
    Mutant(
        "carve-residual", "events.py",
        "                p, q = diff, q * hi_d * lo_d", "                p, q = diff, q * hi_d", _EVENTS,
    ),
    Mutant(
        "trusted-shifted-fields", "events.py",
        "zip(cls.__slots__, fields)", "zip(cls.__slots__[1:], fields)", ("test_events", "test_finite"),
    ),
    Mutant(
        "checked-rising", "events.py",
        "all(map(lt, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))",
        "all(map(lambda x, y: x <= y, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))", _EVENTS,
    ),
    # lattice: the two-sided compatibility test, logical independence and the partition check
    Mutant(
        "split-b-side", "lattice.py",
        "    b_side = a_and_b.join(not_a_b) == b", "    b_side = a_and_b.join(not_a_b) == a", _LATTICE,
    ),
    Mutant(
        "independent-last-atom", "lattice.py",
        "        or not_a.meet(not_b).is_zero", "        or not_a.meet(b).is_zero", _LATTICE,
    ),
    Mutant(
        "partition-overlap", "lattice.py",
        "                if not cells[i].meet(cells[j]).is_zero:", "                if cells[i].meet(cells[j]).is_one:",
        _LATTICE,
    ),
    Mutant("partition-two-models", "lattice.py", "            _require_one_model(cells[0], cell)\n", "", _LATTICE),
    # engine: the integer kernel, the verification core and the pair's cell table, the preconditions and the pair gate
    Mutant(
        "screening-equality", "engine.py",
        "    screening = tuple(m * m_ab == m_a * m_b for", "    screening = tuple(m * m_ab >= m_a * m_b for", _ENGINE,
    ),
    Mutant(
        "cross-strict", "engine.py",
        "            cross.append((i, j, product > 0))", "            cross.append((i, j, product >= 0))", _ENGINE,
    ),
    Mutant(
        "cross-sign", "engine.py",
        "            product = (a_i * m_j - a_j * m_i) *", "            product = (a_i * m_j + a_j * m_i) *", _ENGINE,
    ),
    Mutant(
        "row-scaling", "engine.py",
        "[x.numerator * (d // x.denominator) for x in quad]", "[x.numerator for x in quad]", _ENGINE,
    ),
    Mutant(
        "rhs-sign", "engine.py",
        "tail, run = tail * w_j + product * run,", "tail, run = tail * w_j - product * run,", _ENGINE,
    ),
    Mutant("rhs-prefix", "engine.py", "        num += tail * prefix\n", "        num += tail\n", _ENGINE),
    Mutant(
        "conditional-swap", "engine.py",
        "tuple(Fraction(m_b, m) for _, m, _, m_b, _ in rows)", "tuple(Fraction(m_a, m) for _, m, m_a, _, _ in rows)",
        _ENGINE,
    ),
    Mutant(
        "first-failure-cross", "engine.py",
        "    for i, j, ok in cross:\n        if not ok:", "    for i, j, ok in cross:\n        if ok is None:", _ENGINE,
    ),
    Mutant("verify-zero-cell", "engine.py", "            if weight == 0:", "            if weight < 0:", _ENGINE),
    Mutant(
        "memo-across-pairs", "engine.py",
        "m_ab - m_a * m_b), {}", 'm_ab - m_a * m_b), globals().setdefault("_shared_table", {})', _ENGINE,
    ),
    Mutant(
        "memo-wrong-cell", "engine.py", "        quad = table.get(cell)", "        quad = table.get(cells[0])", _ENGINE,
    ),
    Mutant("memo-grows", "engine.py", "    table.clear()\n", "", _ENGINE),
    Mutant("correlated-strict", "engine.py", "    if excess <= 0:", "    if excess < 0:", _ENGINE),
    Mutant(
        "construction-independence", "engine.py",
        "    if not (m_ab < m_a and m_ab < m_b):", "    if not (m_ab <= m_a and m_ab < m_b):", _ENGINE,
    ),
    Mutant(
        "checked-pair-one-model", "engine.py",
        "    _require_one_model(a, b)\n    return _pair(a, b)", "    return _pair(a, b)", _ENGINE,
    ),
    Mutant(
        "system-float", "engine.py",
        "                if not isinstance(value, Rational):", "                if isinstance(value, str):", _ENGINE,
    ),
    # finite: the screening-off join, the edge cells, the cover, its cross test, the hit order, the correlation test
    # and the cutoff
    Mutant(
        "screening-remainder", "finite.py",
        "                    tail = () if r else by_x4.get(x4, ())", "                    tail = by_x4.get(x4, ())",
        _FINITE,
    ),
    Mutant(
        "screening-zero-class", "finite.py",
        "                    tail = () if x2 * x3 else sums4", "                    tail = () if x2 + x3 else sums4",
        _FINITE,
    ),
    Mutant("edge-top-mask", "finite.py", "| (k == 3) << 1)]", "| (k == 0) << 1)]", _FINITE),
    Mutant("edge-top-flag-last-joined", "finite.py", "(k == 3) << 1)]", "(k == big) << 1)]", _FINITE),
    Mutant("edge-bottom-flag-dropped", "finite.py", "0, (k == 0) | (k == 3) << 1)]", "0, (k == 3) << 1)]", _FINITE),
    Mutant("edge-both-kept", "finite.py", "if (kind := f | g) < 3:", "if (kind := f | g) <= 3:", _FINITE),
    Mutant(
        "no-interior-guard", "finite.py",
        "    if n >= 3 and not any(by_lowest[0]):", "    if not any(by_lowest[0]):", _FINITE,
    ),
    Mutant(
        "cover-prune", "finite.py",
        "            elif r.bit_count() >= need - 1 and", "            elif r.bit_count() >= need and", _FINITE,
    ),
    Mutant(
        "cover-prune-loose", "finite.py",
        "            elif r.bit_count() >= need - 1 and", "            elif r.bit_count() >= need - 2 and", _FINITE,
        equivalent="a rest with fewer points than the cells still to fill has no cover, so the looser prune "
        "only enters branches that find nothing",
    ),
    Mutant(
        "cover-last-cross", "finite.py",
        "crosses(r, chosen + [s]):", "crosses(r, chosen):", _FINITE,
    ),
    Mutant(
        "crosses-strict", "finite.py",
        "            if (wa * v - va * w) * (wb * v - vb * w) <= 0:",
        "            if (wa * v - va * w) * (wb * v - vb * w) < 0:", _FINITE,
    ),
    Mutant(
        "label-skip-cell-one", "finite.py", "        for k in range(1, n):", "        for k in range(2, n):", _FINITE,
    ),
    Mutant("correlation-strict", "finite.py", "    if scaled_excess <= 0:", "    if scaled_excess < 0:", _FINITE),
    Mutant("cutoff", "finite.py", "    if m > max_points:", "    if m >= max_points:", ("test_finite", "test_cli")),
    # serialize: the rational parser and the list fields
    Mutant(
        "rational-anchor", "serialize.py",
        '_RATIONAL_RE = re.compile(r"^([+-]?\\d+)(?:/(\\d+))?$")', '_RATIONAL_RE = re.compile(r"^([+-]?\\d+)(?:/(\\d+))?")',
        _SERIALIZE,
    ),
    Mutant(
        "rational-zero-denominator", "serialize.py",
        "not any(map(int, denominator)):", "not any(map(int, denominator)) and False:", _SERIALIZE,
    ),
    Mutant(
        "rational-ascii-zero", "serialize.py",
        "not any(map(int, denominator)):", 'not denominator.strip("0"):', _SERIALIZE,
    ),
    Mutant(
        "list-field-type", "serialize.py",
        "    if not isinstance(raw, list):", "    if not isinstance(raw, (list, str)):", _SERIALIZE,
    ),
    # bell: the Kronecker product, the Bell combination, the scalar identity and its tolerance test
    Mutant(
        "kron-row-order", "bell.py",
        "for p in xrow for q in yrow) for xrow in x for yrow in y)",
        "for p in xrow for q in yrow) for yrow in y for xrow in x)", _BELL,
    ),
    Mutant(
        "combination-sign", "bell.py",
        'e["a1"] + e["a2"] + e["b1b2"] - e["a1a2"]', 'e["a1"] + e["a2"] + e["b1b2"] + e["a1a2"]', _BELL,
    ),
    Mutant(
        "identity-rhs", "bell.py",
        "(1 - b1) * (1 - b2)) + (1 - a1)", "(1 - b1) * b2) + (1 - a1)", _BELL,
    ),
    Mutant(
        "classical-bound-tolerance", "bell.py",
        "    if abs(lhs - rhs) >= IDENTITY_TOLERANCE:", "    if abs(lhs - rhs) >= 0:", _BELL,
    ),
    # cli: the flag readers, the exit code of a failed precondition and the --json switch
    Mutant("max-points-reader", "cli.py", "    if value < 1:", "    if value < 0:", _CLI),
    Mutant("lambda-reader", "cli.py", "    if not 0 < lam < 1:", "    if not 0 < lam <= 1:", _CLI),
    Mutant(
        "precondition-exit-code", "cli.py",
        'print(f"precondition failed: {exc}", file=sys.stderr)\n        return 2',
        'print(f"precondition failed: {exc}", file=sys.stderr)\n        return 1', _CLI,
    ),
    Mutant(
        "json-switch", "cli.py",
        'verify.add_argument("--json", action="store_true")', 'verify.add_argument("--json", action="store_false")',
        _CLI,
    ),
)


def check_table(package: Path = PACKAGE) -> list[str]:
    """The faults of the table: a name used twice, a mutant that changes nothing, or an old text not found once."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"{name}: name used twice" for name in sorted({n for n in names if names.count(n) > 1})]
    for m in MUTANTS:
        count = (package / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.name}: new text equals old text")
    return problems


def run_tests(modules: tuple[str, ...], m: Mutant | None = None) -> tuple[bool, float]:
    """Run ``modules`` on a temporary copy of the tree, with ``m`` applied if given; return (failed, seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "docs"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if m is not None:
            target = copy / "src" / "rccs" / m.file
            target.write_text(target.read_text().replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        cmd += [f"tests/{module}.py" for module in modules]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, check=False)
        return done.returncode != 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--check", action="store_true", help="check the table only; run no test")
    args = parser.parse_args(argv)
    problems = check_table()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems or args.check:
        return 1 if problems else 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    modules = tuple(dict.fromkeys(module for m in chosen for module in m.tests))
    failed, seconds = run_tests(modules)
    if failed:
        print(f"the unmutated tree fails {', '.join(modules)} ({seconds:.1f} s); no mutant can be judged", file=sys.stderr)
        return 1
    wrong = []  # a survivor not marked equivalent, or a killed one that is
    for m in chosen:
        dead, seconds = run_tests(m.tests, m)
        note = ""
        if m.equivalent:
            note = "  marked equivalent, yet killed" if dead else f"  equivalent: {m.equivalent}"
        if dead == bool(m.equivalent):
            wrong.append(m.name)
        print(f"{'killed' if dead else 'survived':8} {m.name:26} {m.file:13} {seconds:6.1f} s{note}", flush=True)
    meant = [m for m in chosen if not m.equivalent]
    killed = sum(m.name not in wrong for m in meant)
    print(f"score: {killed} of {len(meant)} mutants killed, {len(chosen) - len(meant)} equivalent ones survive")
    if wrong:
        print(f"unexpected: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
