"""JSON encoding and strict parsing for events, spaces, and reports.

Rationals travel as strings, "p/q" or a bare integer "n", because JSON
numbers cannot hold them losslessly.  Interval lists are rejected unless
they are already canonical; pass ``normalize=True`` (the command line
flag ``--normalize``) to accept and merge arbitrary interval lists.

A round trip is one pass each way.  ``dumps`` writes each container's
parts in one recursive walk, byte for byte what
``json.dumps(obj, indent=2, sort_keys=True)`` gives.  The interval reader
parses each endpoint text straight to a reduced int pair and checks the
event's canonical form once, on the flat endpoint tuple; its partition
is then checked by the model's tiling test.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import TYPE_CHECKING, Any

from .errors import InputError, echo
from .events import IntervalEvent, format_rational

if TYPE_CHECKING:  # annotations only: each reader loads the model it builds, and none loads the engine
    from .engine import ConstructionSteps, VerificationReport
    from .finite import FiniteEvent, FiniteSpace
    from .lattice import Partition

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _rational_pair(text: Any) -> tuple[int, int]:
    """Parse a 'p/q' or integer string to its reduced ``(numerator, denominator)`` int pair.

    The pattern's digits are any Unicode decimal digits, as ``int``
    reads them.  A denominator that reads as 0, or a number too long to
    read, is looked at digit by digit: ``"1/٠"`` is a zero denominator,
    whatever the script of its zeros and however many there are.
    """
    if not isinstance(text, str):
        raise InputError(f"rationals must be JSON strings, got {echo(text)}")
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise InputError(f"malformed rational {echo(text)}; expected 'p/q' or an integer string")
    numerator, denominator = match.groups()
    try:
        num, den = int(numerator), int(denominator or 1)
    except ValueError:  # past the interpreter's int-string limit (sys.get_int_max_str_digits(), 4300 by default)
        num = den = None
    if not den and denominator is not None and not any(map(int, denominator)):
        raise InputError(f"zero denominator in rational {echo(text)}")
    if den is None:
        raise InputError(
            f"rational {text[:20]}... has a numerator or denominator longer than "
            f"{sys.get_int_max_str_digits()} digits"
        )
    g = gcd(num, den)
    return num // g, den // g


def parse_rational(text: Any) -> Fraction:
    """Parse a 'p/q' or integer string, rejecting anything else, to an exact Fraction."""
    return Fraction(*_rational_pair(text))


def loads(text: str) -> Any:
    """json.loads with position info folded into the diagnostic."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError(
            f"JSON nested too deeply; the limit is about {sys.getrecursionlimit()} levels"
        ) from None
    except ValueError:  # an integer literal past the interpreter's int-string limit
        raise InputError(f"JSON number longer than {sys.get_int_max_str_digits()} digits") from None


def _field(obj: Any, key: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object with a {key!r} field, got {type(obj).__name__}")
    if key not in obj:
        raise InputError(f"missing {key!r} field")
    return obj[key]


def _list_field(obj: Any, key: str, items: str) -> list:
    raw = _field(obj, key)
    if not isinstance(raw, list):
        raise InputError(f"{key!r} must be a list of {items}")
    return raw


def interval_event_to_obj(event: IntervalEvent) -> dict:
    return {"intervals": event._texts()}


def interval_event_from_obj(obj: Any, *, normalize: bool = False) -> IntervalEvent:
    raw = _list_field(obj, "intervals", "[lo, hi] pairs")
    ends: list[int] = []
    for k, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"interval {k} must be a [lo, hi] pair")
        ends += (*_rational_pair(item[0]), *_rational_pair(item[1]))
    if normalize:
        return IntervalEvent.normalized(
            (Fraction(ends[k], ends[k + 1]), Fraction(ends[k + 2], ends[k + 3])) for k in range(0, len(ends), 4)
        )
    return IntervalEvent._of_ends(tuple(ends))


def interval_partition_from_obj(obj: Any, *, normalize: bool = False) -> Partition:
    from .lattice import Partition

    if not isinstance(obj, list):
        raise InputError("a partition must be a JSON list of events")
    cells = tuple(interval_event_from_obj(cell, normalize=normalize) for cell in obj)
    return Partition(cells)


def partition_to_obj(partition: Partition) -> list:
    return [interval_event_to_obj(cell) for cell in partition.cells]


def finite_space_to_obj(space: FiniteSpace) -> dict:
    return {"weights": [format_rational(w) for w in space.weights]}


def finite_space_from_obj(obj: Any) -> FiniteSpace:
    from .finite import FiniteSpace

    raw = _list_field(obj, "weights", "rational strings")
    return FiniteSpace(tuple(parse_rational(w) for w in raw))


def finite_event_to_obj(event: FiniteEvent) -> dict:
    return {"members": list(event.members)}


def finite_event_from_obj(obj: Any, space: FiniteSpace) -> FiniteEvent:
    raw = _list_field(obj, "members", "sample point indices")
    event = space.event(raw)  # checks each member's type and range, before any set lookup
    seen = set()
    for idx in raw:
        if idx in seen:
            raise InputError(f"duplicate sample point index {idx}")
        seen.add(idx)
    return event


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "accepted": report.verdict,
        "screening_off_ok": list(report.screening_off_ok),
        "cross_ok": [{"i": i, "j": j, "ok": ok} for i, j, ok in report.cross_ok],
        "cell_measures": [format_rational(m) for m in report.cell_measures],
        "cond_a": [format_rational(x) for x in report.cond_a],
        "cond_b": [format_rational(x) for x in report.cond_b],
        "cond_ab": [format_rational(x) for x in report.cond_ab],
        "decomposition_lhs": format_rational(report.decomposition_lhs),
        "decomposition_rhs": format_rational(report.decomposition_rhs),
        "failure": report.failure,
    }


def steps_to_obj(steps: ConstructionSteps) -> dict:
    report = report_to_obj(steps.report)
    return {
        "accepted": True,
        "joint_excess": format_rational(steps.joint_excess),
        "carve_bound": format_rational(steps.carve_bound),
        "lambda": format_rational(steps.lam),
        "full_cell_measure": format_rational(steps.full_cell_measure),
        "null_cell_measure": format_rational(steps.null_cell_measure),
        "null_cell_is_whole_remainder": steps.null_cell_is_whole_remainder,
        "report": report,
        "cells": partition_to_obj(steps.system.cells),
        **{key: report[key] for key in ("cell_measures", "cond_a", "cond_b", "cond_ab")},
    }


def _key_text(key: Any) -> str:
    """A dict key as ``json`` converts it: a string as it is; a float, int, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # a bool is an int
        return _write(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value: Any, newline: str) -> str:
    """The JSON text of ``value``, its lines after the first starting with ``newline`` (a newline and the indent).

    A container's string items, the bulk of every output here, are quoted in place, without a call of their own.
    """
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_quote(item) if type(item) is str else _write(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            _quote(_key_text(key)) + ": " + (_quote(item) if type(item) is str else _write(item, inner))
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, in one recursive pass.

    The standard encoder ignores its C accelerator when it indents and
    builds the text through nested generators; this writer joins each
    container's parts directly, quoting strings with ``json``'s C quoter
    and handing each float to ``json.dumps``, so its text, NaN and the
    infinities included, is the module's own.  Keys are sorted before
    they are converted, as ``json`` sorts them.  A value that contains
    itself is not looked for: it ends in RecursionError where ``json``
    raises ValueError.
    """
    return _write(obj, "\n")
