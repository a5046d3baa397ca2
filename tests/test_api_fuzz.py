"""Seeded fuzz of the public API: every call returns or raises an RccsError.

Arguments come from interval events, finite events of two spaces, partitions of both models, the
fake events of ``helpers`` and plain values, and for the constructors and scalar entries from
interval lists, weights, member lists, cell lists and scalars.  Most arguments of one call are of
one model, so that calls reach past the entry checks; the rest are drawn from everything at once.
Plain values at the constructors and scalar entries are also refused in a table of their own.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rccs import (
    FULL,
    CommonCauseSystem,
    FiniteEvent,
    FiniteSpace,
    InputError,
    IntervalEvent,
    Partition,
    RccsError,
    check_product_inequality,
    classical_bound_check,
    compatible,
    construct_size3,
    construction_steps,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    finite_measure,
    logical_independence_equiv,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)

from .helpers import Absorbing, Incompatible, IncompatibleZero, iv

_SPACES = (FiniteSpace(("1/4",) * 4), FiniteSpace(("1/2", "1/3", "1/6")))


def _all_partitions(space, n) -> list:
    return list(enumerate_partitions(space, n))


def _aligned_system(partition, *rows) -> CommonCauseSystem:
    """A system whose rows of conditionals are cut to the size of the partition, so that its values are checked."""
    n = len(getattr(partition, "cells", ()))
    return CommonCauseSystem(partition, *(row[:n] if isinstance(row, tuple) else row for row in rows))


def _search_with_cutoff(space, a, b, n, max_points):
    """``search_rccs`` with its keyword-only cutoff as a fifth positional argument."""
    return search_rccs(space, a, b, n, max_points=max_points)


# each entry point with the roles of its positional arguments: an event, a partition, a space, a cell count,
# a search cutoff, a list of cells, of intervals, of weights or of members, a scalar, or a row of scalars;
# construction_steps and construct_size3 take their lambda from anything, if at all
_ENTRY_POINTS = [
    (compatible, "ee"),
    (correlation, "ee"),
    (logically_independent, "ee"),
    (logical_independence_equiv, "ee"),
    (check_product_inequality, "eee"),
    (verify_rccs, "eep"),
    (verify_common_cause, "eee"),
    (correlation_decomposition, "eep"),
    (construction_steps, "ee"),
    (construction_steps, "ee?"),
    (construct_size3, "ee"),
    (construct_size3, "ee?"),
    (search_rccs, "seen"),
    (_search_with_cutoff, "seenk"),
    (finite_measure, "se"),
]
# the constructors and the scalar entry, given lists and scalars
_CONSTRUCTORS = [
    (IntervalEvent, "I"),
    (IntervalEvent.normalized, "I"),
    (FiniteSpace, "w"),
    (FiniteEvent, "sm"),
    (Partition, "c"),
    (_all_partitions, "sn"),
    (CommonCauseSystem, "pqqq"),
    (_aligned_system, "pqqq"),
    (classical_bound_check, "xxxx"),
]

_POINTS = st.fractions(min_value=0, max_value=1, max_denominator=8)
# the worked pair, correlated and logically independent, lets the construction run to its end
_INTERVAL_EVENTS = st.sampled_from([iv("0", "1/2"), iv("1/10", "1/2", "9/10", "1")]) | st.lists(
    _POINTS, unique=True, max_size=6
).map(lambda ps: IntervalEvent(zip(sorted(ps)[0::2], sorted(ps)[1::2])))


@st.composite
def _interval_partitions(draw) -> Partition:
    """The pieces between random cut points, each given to one of up to four cells."""
    cuts = draw(st.lists(_POINTS.filter(lambda x: 0 < x < 1), unique=True, max_size=5))
    ends = [Fraction(0), *sorted(cuts), Fraction(1)]
    cells: dict[int, list] = {}
    for piece in zip(ends, ends[1:]):
        cells.setdefault(draw(st.integers(0, 3)), []).append(piece)
    return Partition(IntervalEvent.normalized(pieces) for pieces in cells.values())


def _finite_events(space: FiniteSpace):
    return st.sets(st.integers(0, len(space) - 1)).map(space.event)


def _finite_partitions(space: FiniteSpace):
    def build(labels: list[int]) -> Partition:
        cells = {}
        for point, label in enumerate(labels):
            cells.setdefault(label, []).append(point)
        return Partition(space.event(members) for members in cells.values())

    return st.lists(st.integers(0, 3), min_size=len(space), max_size=len(space)).map(build)


_FAKES = st.sampled_from([Incompatible, IncompatibleZero, Absorbing]).map(lambda fake: fake())
_PLAIN = st.one_of(
    st.integers(-2, 5),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_SPACE = st.sampled_from(_SPACES)
_COUNT = st.integers(1, 4)
_SCALARS = st.one_of(_POINTS, st.floats(), st.integers(-1, 2), st.text(max_size=2))
# the roles that take no event, alike in every model
_SHARED = {
    "I": st.lists(st.tuples(_POINTS, _POINTS), max_size=3),
    "w": st.sampled_from([space.weights for space in _SPACES]) | st.lists(_SCALARS, max_size=4),
    "m": st.lists(st.integers(-1, 4), max_size=4),
    "x": _SCALARS,
    "k": st.one_of(st.integers(-2, 5), st.booleans(), st.none(), st.floats(), st.text(max_size=2)),
    "q": st.lists(_SCALARS, min_size=2, max_size=4).map(tuple),
}
# per model, the value of each role that it shapes
_MODELS = [{"e": _INTERVAL_EVENTS, "p": _interval_partitions(), "s": _SPACE, "n": _COUNT}] + [
    {"e": _finite_events(space), "p": _finite_partitions(space), "s": st.just(space), "n": _COUNT}
    for space in _SPACES
]
_PARTITIONS = st.one_of(*(model["p"] for model in _MODELS))
for model in _MODELS:  # its events, or the cells of one of its partitions with the last cell from any partition
    model["c"] = st.lists(model["e"], min_size=1, max_size=3) | st.tuples(model["p"], _PARTITIONS).map(
        lambda pair: [*pair[0].cells[:-1], pair[1].cells[-1]]
    )
_ANYTHING = st.one_of(*(role for model in _MODELS for role in model.values()), *_SHARED.values(), _FAKES, _PLAIN)


@st.composite
def _calls(draw, entry_points):
    """An entry point and its arguments: each the model's value of its role seven times in eight, else anything."""
    entry, roles = draw(st.sampled_from(entry_points))
    model = {**_SHARED, **draw(st.sampled_from(_MODELS))}
    rare = st.integers(0, 7).map(lambda k: k == 7)
    return entry, [draw(_ANYTHING if role == "?" or draw(rare) else model[role]) for role in roles]


def _returns_or_raises_an_rccs_error(call) -> None:
    entry, args = call
    try:
        entry(*args)
    except RccsError:
        pass


class TestPublicApiFuzz:
    @seed(2004)
    @settings(max_examples=1000, deadline=None, database=None)
    @given(call=_calls(_ENTRY_POINTS))
    def test_every_call_returns_or_raises_an_rccs_error(self, call):
        _returns_or_raises_an_rccs_error(call)

    @seed(2006)
    @settings(max_examples=250, deadline=None, database=None)
    @given(call=_calls(_CONSTRUCTORS))
    def test_every_constructor_call_returns_or_raises_an_rccs_error(self, call):
        _returns_or_raises_an_rccs_error(call)


_HALVES = Partition((iv("0", "1/2"), iv("1/2", "1")))

# a plain value where a constructor or scalar entry takes an iterable, a space or a number, each refused
# at the call; and a float conditional out of range, whose diagnostic is written without format_rational
_PLAIN_CALLS = [
    ("IntervalEvent", lambda: IntervalEvent(5), "the intervals must be iterable, got 5"),
    ("IntervalEvent.normalized", lambda: IntervalEvent.normalized(5), "the intervals must be iterable, got 5"),
    ("FiniteSpace", lambda: FiniteSpace(5), "the weights must be iterable, got 5"),
    ("Partition", lambda: Partition(5), "the cells must be iterable, got 5"),
    ("FiniteEvent-members", lambda: FiniteEvent(_SPACES[0], 5), "the members must be iterable, got 5"),
    ("FiniteEvent-space", lambda: FiniteEvent(5, [0]), "expected a FiniteSpace, got 5"),
    ("enumerate_partitions", lambda: enumerate_partitions(5, 2), "expected a FiniteSpace, got 5"),
    ("CommonCauseSystem", lambda: CommonCauseSystem(_HALVES, 5, 5, 5), "cond_a must be a tuple of conditionals, got 5"),
    (
        "CommonCauseSystem-value",
        lambda: CommonCauseSystem(_HALVES, (1, 0), (1, "0"), (1, 0)),
        "cond_b[1] = '0' is not a number",
    ),
    (
        "CommonCauseSystem-float",
        lambda: CommonCauseSystem(_HALVES, (1.5, 0), (1, 0), (1, 0)),
        "cond_a[0] = 1.5 is outside [0, 1]",
    ),
    ("classical_bound_check", lambda: classical_bound_check(FULL, 0, 0, 0), f"a1 = {FULL!r} is not a number"),
    ("classical_bound_check-text", lambda: classical_bound_check(0, 0, 0, "1"), "b2 = '1' is not a number"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in _PLAIN_CALLS], ids=[case[0] for case in _PLAIN_CALLS])
def test_plain_values_are_refused_on_one_line(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_a_generator_that_fails_inside_keeps_its_own_error():
    # only a value that cannot be iterated at all is called plain; an error raised while iterating is kept
    def pairs():
        yield ("0", "1/2")
        raise TypeError("from inside the generator")

    with pytest.raises(TypeError, match="from inside the generator"):
        IntervalEvent(pairs())
