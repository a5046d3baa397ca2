"""Command line front end.

Subcommands: construct, verify, search, bell, demo.  Inputs are JSON,
given as a file path, as ``-`` for stdin, or inline as a literal JSON
object.  Reports go to stdout, diagnostics to stderr.

Exit codes are a stable contract:

* 0  success, or candidate accepted
* 1  input error (malformed JSON, bad rational, non-partition, input past a
     limit in docs/formats.md, bad flags)
* 2  precondition failure (not correlated, not logically independent, ...)
* 3  verification rejected a structurally valid candidate
* 4  internal error: a bug in the package (InternalInvariantError or any
     other unexpected exception), reported on one line

A report that cannot be written to stdout ends in 1 with one line; a reader
that closes stdout early ends it quietly in 141, as SIGPIPE would.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import DEFAULT_MAX_POINTS, serialize
from .errors import InputError, PreconditionError, echo
from .events import IntervalEvent

DEMO_A = IntervalEvent((("0", "1/2"),))
DEMO_B = IntervalEvent((("1/10", "1/2"), ("9/10", "1")))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _fmt(value: Fraction) -> str:
    return f"{serialize.format_rational(value)} ~ {float(value):.6f}"


def _read_payload(source: str):
    # inline JSON first: a long literal is not a valid path and must not reach the filesystem
    if source.lstrip().startswith("{"):
        text = source
    elif source == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(source).read_text()
        except FileNotFoundError:
            raise InputError(f"no such input file: {source}") from None
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InputError("input file is not text in the locale's encoding") from None
    return serialize.loads(text)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_lam(raw: str | None) -> Fraction:
    if raw is None:
        return Fraction(1, 2)
    lam = serialize.parse_rational(raw)
    if not 0 < lam < 1:
        raise InputError(f"--lambda must lie strictly between 0 and 1, got {lam}")
    return lam


def _print_report_human(report) -> None:
    for k, ok in enumerate(report.screening_off_ok):
        print(
            f"  cell {k + 1}: measure {_fmt(report.cell_measures[k])}; "
            f"P(a|cell) = {_fmt(report.cond_a[k])}; P(b|cell) = {_fmt(report.cond_b[k])}; "
            f"screening-off {'holds' if ok else 'FAILS'}"
        )
    for i, j, ok in report.cross_ok:
        print(f"  cells ({i + 1}, {j + 1}): cross-difference condition {'holds' if ok else 'FAILS'}")
    print(
        f"  decomposition identity: {_fmt(report.decomposition_lhs)} "
        f"vs {_fmt(report.decomposition_rhs)}"
    )
    print(f"  verdict: {'accepted' if report.verdict else 'rejected'}")
    if report.failure:
        print(f"  first failing condition: {report.failure}")


def _print_system_human(steps) -> None:
    for k, cell in enumerate(steps.system.cells.cells):
        print(f"  cell {k + 1}: {cell}")
    _print_report_human(steps.report)


def _read_pair(args):
    payload = _read_payload(args.input)
    a, b = (serialize.interval_event_from_obj(serialize._field(payload, k), normalize=args.normalize) for k in "ab")
    return payload, a, b


def _run_construct(args) -> int:
    _, a, b = _read_pair(args)
    lam = _parse_lam(args.lam)
    # the engine is loaded only by the subcommands that run it, after their input is read
    from .engine import construction_steps

    steps = construction_steps(a, b, lam)
    if args.json:
        print(serialize.dumps(serialize.steps_to_obj(steps)))
        return 0
    print(f"a = {a}")
    print(f"b = {b}")
    if args.explain:
        print(f"joint excess (the correlation to explain): {_fmt(steps.joint_excess)}")
        print(f"admissible first-cell measure bound: {_fmt(steps.carve_bound)}")
        print(f"lambda: {_fmt(steps.lam)}")
        print(f"first cell carved from a & b with measure {_fmt(steps.full_cell_measure)}")
        print(f"second cell measure forced by screening-off: {_fmt(steps.null_cell_measure)}")
        print("third cell is the complement of the union of the first two")
    print("size-3 common cause system:")
    _print_system_human(steps)
    return 0


def _run_verify(args) -> int:
    payload, a, b = _read_pair(args)
    partition = serialize.interval_partition_from_obj(
        serialize._field(payload, "partition"), normalize=args.normalize
    )
    from .engine import verify_rccs

    report = verify_rccs(a, b, partition)
    if args.json:
        print(serialize.dumps(serialize.report_to_obj(report)))
    else:
        print(f"a = {a}")
        print(f"b = {b}")
        _print_report_human(report)
    if not report.verdict:
        print(f"rejected: {report.failure}", file=sys.stderr)
        return 3
    return 0


def _run_search(args) -> int:
    from .finite import search_rccs

    payload = _read_payload(args.input)
    space = serialize.finite_space_from_obj(serialize._field(payload, "space"))
    a = serialize.finite_event_from_obj(serialize._field(payload, "a"), space)
    b = serialize.finite_event_from_obj(serialize._field(payload, "b"), space)
    n = serialize._field(payload, "n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"'n' must be an integer, got {echo(n)}")
    hits = search_rccs(space, a, b, n, max_points=args.max_points)
    if args.json:
        obj = {
            "points": len(space),
            "n": n,
            "count": len(hits),
            "partitions": [[serialize.finite_event_to_obj(c) for c in p.cells] for p in hits],
        }
        print(serialize.dumps(obj))
    else:
        print(f"{len(hits)} size-{n} common cause system(s) found")
        for p in hits:
            print("  " + " / ".join(str(c) for c in p.cells))
    return 0


def _bell_obj() -> dict:
    from . import bell  # loaded only by the bell and demo subcommands

    expectations, value = bell._default_bell()
    return {"expectations": dict(expectations), "bell_value": value}


def _print_bell_human(obj: dict) -> None:
    e = obj["expectations"]
    print("witness expectations in the entangled state:")
    print(f"  E[A1]    = {e['a1']:.17g}")
    print(f"  E[A2]    = {e['a2']:.17g}")
    print(f"  E[B1 B2] = {e['b1b2']:.17g}")
    print(f"  E[A1 A2] = {e['a1a2']:.17g}")
    print(f"  E[B1 A2] = {e['b1a2']:.17g}")
    print(f"  E[A1 B2] = {e['a1b2']:.17g}")
    value = obj["bell_value"]
    print(f"combination E[A1]+E[A2]+E[B1 B2]-E[A1 A2]-E[B1 A2]-E[A1 B2] = {value:.17g} (= -1/8)")
    print("below the classical lower bound 0: no single partition can screen off all four pairs")


def _run_bell(args) -> int:
    obj = _bell_obj()
    if args.json:
        print(serialize.dumps(obj))
    else:
        _print_bell_human(obj)
    return 0


def _run_demo(args) -> int:
    lam = _parse_lam(args.lam)
    from . import bell
    from .engine import construction_steps

    steps = construction_steps(DEMO_A, DEMO_B, lam)
    bell_obj = _bell_obj()
    impossibility = bell.no_common_ccs_demo(samples=10_000)
    if args.json:
        print(
            serialize.dumps(
                {
                    "construction": serialize.steps_to_obj(steps),
                    "bell": bell_obj,
                    "impossibility": impossibility,
                }
            )
        )
        return 0
    print("== size-3 construction on the worked example ==")
    print(f"a = {DEMO_A}")
    print(f"b = {DEMO_B}")
    print(f"joint excess: {_fmt(steps.joint_excess)}")
    print(f"first-cell measure bound: {_fmt(steps.carve_bound)}, lambda = {steps.lam}")
    _print_system_human(steps)
    print()
    print("== Bell witness ==")
    _print_bell_human(bell_obj)
    print()
    print("== all-pairs ('common') common cause system ==")
    print(f"verdict: {impossibility['verdict']}")
    print(f"commutation requirement: {impossibility['commutation_requirement']}")
    for line in impossibility["argument"]:
        print(f"  - {line}")
    print(f"note: {impossibility['per_pair_note']}")
    print(f"note: {impossibility['scope_note']}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rccs", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a size-3 common cause system for two interval events")
    construct.add_argument("input", help="JSON with fields 'a' and 'b' (path, '-', or inline)")
    construct.add_argument("--json", action="store_true")
    construct.add_argument("--explain", action="store_true", help="print the intermediate quantities")
    construct.add_argument("--normalize", action="store_true", help="accept non-canonical interval lists")
    construct.add_argument("--lambda", dest="lam", metavar="P/Q", help="first-cell fraction in (0, 1), default 1/2")
    construct.set_defaults(handler=_run_construct)

    verify = sub.add_parser("verify", help="verify a partition as a common cause system")
    verify.add_argument("input", help="JSON with fields 'a', 'b', 'partition'")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--normalize", action="store_true")
    verify.set_defaults(handler=_run_verify)

    search = sub.add_parser("search", help="exhaustively search a finite space for size-n systems")
    search.add_argument("input", help="JSON with fields 'space', 'a', 'b', 'n'")
    search.add_argument("--json", action="store_true")
    search.add_argument(
        "--max-points",
        type=_positive_int,
        default=DEFAULT_MAX_POINTS,
        help=f"refuse larger spaces (default {DEFAULT_MAX_POINTS})",
    )
    search.set_defaults(handler=_run_search)

    bell = sub.add_parser("bell", help="evaluate the Bell witness")
    bell.add_argument("--json", action="store_true")
    bell.set_defaults(handler=_run_bell)

    demo = sub.add_parser("demo", help="worked construction plus the Bell impossibility report")
    demo.add_argument("--json", action="store_true")
    demo.add_argument("--lambda", dest="lam", metavar="P/Q")
    demo.set_defaults(handler=_run_demo)

    return parser


def _join_lambda(argv: list[str]) -> list[str]:
    """``argv`` with ``--lambda -1/3`` joined into ``--lambda=-1/3``, which argparse would take for two options."""
    joined: list[str] = []
    for arg in argv:
        if joined[-1:] == ["--lambda"] and arg[:1] == "-" and arg[1:2].isdecimal():
            joined[-1] += "=" + arg  # so the reader, not the parser, refuses the value
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_lambda(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a failed write surfaces here also when stdout is block-buffered
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed write to stdout: unreadable inputs are InputError
        # the rest of the report goes to the null device, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader has gone, as in `rccs demo --json | head -1`
            return 141
        print(f"output error: cannot write the report to stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, never a bad input: keep it apart from codes 1-3
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
