"""Interval event algebra: canonical form, Boolean laws, measure, carve."""

import ast
import copy
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rccs import EMPTY, FULL, InputError, IntervalEvent, PreconditionError

from .helpers import (
    MIXED_DENOMINATORS,
    assert_canonical,
    endpoint_input,
    fraction_carve,
    iv,
    random_event,
    random_nonzero_event,
    set_oracle,
    two_sided_split,
    unlimited_int_digits,
)

_MIXED_ENDPOINT = st.sampled_from(MIXED_DENOMINATORS).flatmap(
    lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
)


@st.composite
def interval_events(draw, max_parts=3, mixed=False):
    """Canonical events on one denominator, or with ``mixed=True`` one per
    endpoint, given as Fractions or as unreduced strings such as "2/4"."""
    if mixed:
        count = draw(st.integers(min_value=0, max_value=max_parts))
        points = sorted(
            draw(st.lists(_MIXED_ENDPOINT, min_size=2 * count, max_size=2 * count, unique=True))
        )
        ends = [endpoint_input(x, draw(st.integers(1, 3)), draw(st.booleans())) for x in points]
        return IntervalEvent(tuple(zip(ends[0::2], ends[1::2])))
    den = draw(st.sampled_from([8, 12, 16, 24, 32, 60]))
    count = draw(st.integers(min_value=0, max_value=max_parts))
    points = sorted(
        draw(
            st.lists(
                st.integers(0, den), min_size=2 * count, max_size=2 * count, unique=True
            )
        )
    )
    pairs = tuple(
        (Fraction(points[2 * k], den), Fraction(points[2 * k + 1], den)) for k in range(count)
    )
    return IntervalEvent(pairs)


def _sort_and_merge(pairs) -> tuple[tuple[Fraction, Fraction], ...]:
    """Reference for ``normalized``: sort the nonempty pairs, then merge each that overlaps or touches."""
    merged: list[list[Fraction]] = []
    for lo, hi in sorted((Fraction(lo), Fraction(hi)) for lo, hi in pairs):
        if lo == hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _seeded_interval_lists() -> list[list]:
    """300 short lists with mixed denominators and degenerate pairs, and one of 6664 shuffled overlaps."""
    rng = random.Random(1729)
    lists = []
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(0, 12)):
            ends = []
            for _ in range(2):
                den = rng.choice(MIXED_DENOMINATORS)
                point = Fraction(rng.randint(0, den), den)
                ends.append(endpoint_input(point, rng.randint(1, 3), rng.random() < 0.5))
            pairs.append(tuple(sorted(ends, key=Fraction)))
        lists.append(pairs)
    big = []
    for _ in range(6664):
        lo = rng.randint(0, 9990)
        big.append((Fraction(lo, 10_000), Fraction(lo + rng.randint(0, 10), 10_000)))
    rng.shuffle(big)
    lists.append(big)
    return lists


class TestCanonicalForm:
    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            IntervalEvent((("0", "1/2"), ("1/4", "3/4")))

    def test_rejects_touching(self):
        with pytest.raises(InputError):
            IntervalEvent((("0", "1/2"), ("1/2", "1")))

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            IntervalEvent((("1/2", "3/4"), ("0", "1/4")))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            IntervalEvent((("1/2", "3/2"),))
        with pytest.raises(InputError):
            IntervalEvent((("-1/2", "1/2"),))

    def test_rejects_degenerate(self):
        with pytest.raises(InputError):
            IntervalEvent((("1/2", "1/2"),))

    def test_rejects_float_endpoint(self):
        with pytest.raises(InputError):
            IntervalEvent(((0.0, 0.5),))

    def test_rejects_zero_denominator_string(self):
        with pytest.raises(InputError):
            IntervalEvent((("0", "1/0"),))

    def test_normalized_merges_adjacent(self):
        assert IntervalEvent.normalized([("0", "1/2"), ("1/2", "1")]) == FULL

    def test_normalized_merges_overlap_and_sorts(self):
        ev = IntervalEvent.normalized([("1/2", "3/4"), ("0", "1/4"), ("1/8", "5/8")])
        assert ev == iv("0", "3/4")
        for pairs in _seeded_interval_lists():
            assert assert_canonical(IntervalEvent.normalized(pairs)).intervals == _sort_and_merge(pairs)

    def test_normalized_drops_degenerate(self):
        assert IntervalEvent.normalized([("1/3", "1/3")]) == EMPTY

    def test_normalized_still_rejects_reversed(self):
        with pytest.raises(InputError):
            IntervalEvent.normalized([("3/4", "1/4")])

    def test_normalized_diagnostic_past_digit_limit(self):
        lo = Fraction(1, 10**5000)
        with pytest.raises(InputError) as err:
            IntervalEvent.normalized([(lo, Fraction(0))])
        with unlimited_int_digits():
            assert str(err.value) == f"interval 0 must satisfy 0 <= lo <= hi <= 1, got [{lo}, 0)"

    @given(interval_events())
    def test_split_and_rejoin_is_identity(self, ev):
        # canonical uniqueness: rebuilding the same point set yields the same representation
        halves = []
        for lo, hi in ev.intervals:
            mid = (lo + hi) / 2
            halves.append((lo, mid))
            halves.append((mid, hi))
        assert assert_canonical(IntervalEvent.normalized(halves)) == ev


class TestOperations:
    def test_meet_direct_overlap(self):
        assert iv("0", "1/2").meet(iv("1/4", "3/4")) == iv("1/4", "1/2")

    def test_meet_with_complement_is_zero(self):
        a = iv("1/8", "3/8", "1/2", "5/8")
        assert a.meet(a.complement()) == EMPTY

    def test_meet_multi_interval(self):
        a = iv("0", "1/10", "1/2", "9/10")
        assert a.meet(iv("0", "1/2")) == iv("0", "1/10")
        assert a.meet(iv("0", "1/2")) == set_oracle(a, iv("0", "1/2"), lambda x, y: x and y)

    def test_join_adjacent_merge(self):
        assert iv("0", "1/2").join(iv("1/2", "1")) == FULL

    def test_join_identity(self):
        a = iv("1/8", "3/8")
        assert a.join(EMPTY) == a

    def test_join_multi_interval(self):
        a = iv("0", "1/2")
        b = iv("1/10", "1/2", "9/10", "1")
        expected = iv("0", "1/2", "9/10", "1")
        assert a.join(b) == expected
        assert a.join(b) == set_oracle(a, b, lambda x, y: x or y)

    def test_complement_top_bottom(self):
        assert FULL.complement() == EMPTY
        assert EMPTY.complement() == FULL

    def test_complement_single(self):
        assert iv("1/4", "1/2").complement() == iv("0", "1/4", "1/2", "1")

    def test_complement_multi(self):
        a = iv("0", "1/10", "1/2", "9/10")
        expected = iv("1/10", "1/2", "9/10", "1")
        assert a.complement() == expected
        assert a.complement() == set_oracle(a, None, lambda x, _: not x)

    def test_measure_examples(self):
        assert FULL.measure() == 1
        assert EMPTY.measure() == 0
        assert iv("1/10", "1/2", "9/10", "1").measure() == Fraction(1, 2)

    def test_leq_examples(self):
        assert iv("1/4", "1/2").leq(iv("0", "1/2"))
        assert not iv("0", "1/2").leq(iv("1/4", "1/2"))
        assert EMPTY.leq(iv("1/3", "2/3"))
        assert EMPTY.leq(EMPTY)

    def test_operator_sugar(self):
        a, b = iv("0", "1/2"), iv("1/4", "3/4")
        assert (a & b) == a.meet(b)
        assert (a | b) == a.join(b)
        assert ~a == a.complement()

    def test_fuzz_against_set_oracle(self):
        rng = random.Random(101)
        for _ in range(300):
            a = random_event(rng)
            b = random_event(rng)
            assert assert_canonical(a.meet(b)) == set_oracle(a, b, lambda x, y: x and y)
            assert assert_canonical(a.join(b)) == set_oracle(a, b, lambda x, y: x or y)
            assert assert_canonical(a.complement()) == set_oracle(a, None, lambda x, _: not x)


class TestBooleanLaws:
    @given(interval_events(), interval_events(), interval_events())
    @settings(deadline=None)
    def test_distributivity(self, a, b, c):
        ok = assert_canonical
        assert ok(a.join(ok(b.meet(c)))) == ok(ok(a.join(b)).meet(ok(a.join(c))))
        assert ok(a.meet(ok(b.join(c)))) == ok(ok(a.meet(b)).join(ok(a.meet(c))))

    @given(interval_events(), interval_events())
    def test_de_morgan(self, a, b):
        ok = assert_canonical
        assert ok(ok(a.meet(b)).complement()) == ok(ok(a.complement()).join(ok(b.complement())))
        assert ok(ok(a.join(b)).complement()) == ok(a.complement().meet(b.complement()))

    @given(interval_events())
    def test_double_complement(self, a):
        assert assert_canonical(assert_canonical(a.complement()).complement()) == a

    @given(interval_events(), interval_events())
    def test_absorption(self, a, b):
        ok = assert_canonical
        assert ok(a.join(ok(a.meet(b)))) == a
        assert ok(a.meet(ok(a.join(b)))) == a

    @given(interval_events(), interval_events())
    def test_exact_additivity(self, a, b):
        joined, met = assert_canonical(a.join(b)), assert_canonical(a.meet(b))
        assert joined.measure() + met.measure() == a.measure() + b.measure()

    @given(interval_events())
    def test_complement_measure(self, a):
        assert a.measure() + assert_canonical(a.complement()).measure() == 1

    @given(interval_events())
    def test_faithfulness(self, a):
        assert (a.measure() == 0) == a.is_zero


class TestCarve:
    def test_single_interval(self):
        assert iv("0", "1/2").carve("1/4") == iv("0", "1/4")

    def test_left_sweep_across_gap(self):
        a = iv("0", "1/10", "1/2", "9/10")
        assert a.carve("1/5") == iv("0", "1/10", "1/2", "3/5")

    def test_whole_prefix_interval(self):
        a = iv("0", "1/10", "1/2", "9/10")
        assert a.carve("1/10") == iv("0", "1/10")

    def test_rejects_full_measure(self):
        with pytest.raises(PreconditionError):
            iv("0", "1/2").carve("1/2")

    def test_rejects_nonpositive_and_excessive(self):
        a = iv("0", "1/2")
        for bad in ("0", "-1/8", "2/3"):
            with pytest.raises(PreconditionError) as err:
                a.carve(bad)
            assert "1/2" in str(err.value)  # error carries the event measure

    def test_contract_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_nonzero_event(rng)
            total = a.measure()
            x = total * Fraction(rng.randint(1, 15), 16)
            if x == 0 or x >= total:
                continue
            piece = assert_canonical(a.carve(x))
            assert piece.measure() == x
            assert piece.leq(a)
            assert piece != a
            assert not piece.is_zero

    def test_contract_on_mixed_denominators(self):
        rng = random.Random(17)
        for _ in range(200):
            a = random_nonzero_event(rng, mixed=True)
            total = a.measure()
            x = total * Fraction(rng.randint(1, 15), 16)
            piece = assert_canonical(a.carve(x))
            assert piece.measure() == x
            assert piece.leq(a)
            assert piece != a


def _endpoint_pairs(event: IntervalEvent) -> set[tuple[int, int]]:
    """The stored (numerator, denominator) pairs of an event's endpoints."""
    ends = event._ends
    return set(zip(ends[0::2], ends[1::2]))


class TestIntegerKernel:
    """The integer-pair kernel against Fraction oracles, on events whose
    endpoints each have their own denominator."""

    def test_fuzz_mixed_against_set_oracle(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = random_event(rng, max_parts=5, mixed=True)
            b = random_event(rng, max_parts=5, mixed=True)
            assert assert_canonical(a.meet(b)) == set_oracle(a, b, lambda x, y: x and y)
            assert assert_canonical(a.join(b)) == set_oracle(a, b, lambda x, y: x or y)
            assert assert_canonical(a.complement()) == set_oracle(a, None, lambda x, _: not x)

    @given(interval_events(mixed=True), interval_events(mixed=True))
    @settings(deadline=None)
    def test_set_operations_match_oracle(self, a, b):
        assert assert_canonical(a.meet(b)) == set_oracle(a, b, lambda x, y: x and y)
        assert assert_canonical(a.join(b)) == set_oracle(a, b, lambda x, y: x or y)
        assert assert_canonical(a.complement()) == set_oracle(a, None, lambda x, _: not x)

    @given(interval_events(max_parts=6, mixed=True))
    def test_measure_matches_plain_sum(self, a):
        expected = sum((hi - lo for lo, hi in a.intervals), Fraction(0))
        got = a.measure()
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    @given(interval_events(mixed=True), interval_events(mixed=True))
    def test_equality_and_hash_match_oracle(self, a, b):
        same_points = set_oracle(a, b, lambda x, y: x != y).is_zero
        assert (a == b) == same_points == (a.intervals == b.intervals)
        if a == b:
            assert hash(a) == hash(b)
        rebuilt = IntervalEvent(
            tuple((endpoint_input(lo, 2, True), endpoint_input(hi, 3, True)) for lo, hi in a.intervals)
        )
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)

    def test_unreduced_strings_equal_reduced(self):
        half = IntervalEvent((("2/4", "6/8"),))
        assert half == IntervalEvent((("1/2", "3/4"),))
        assert half == IntervalEvent(((Fraction(1, 2), Fraction(3, 4)),))
        assert hash(half) == hash(IntervalEvent((("1/2", "3/4"),)))
        assert IntervalEvent(((0, "7/7"),)) == FULL
        assert hash(IntervalEvent((("0/5", 1),))) == hash(FULL)
        assert half.intervals == ((Fraction(1, 2), Fraction(3, 4)),)

    def test_results_reuse_operand_endpoints(self):
        # the set operations copy endpoints; they never rescale to a shared denominator
        rng = random.Random(99)
        bounds = {(0, 1), (1, 1)}
        for _ in range(300):
            a = random_event(rng, max_parts=6, mixed=True)
            b = random_event(rng, max_parts=6, mixed=True)
            operands = _endpoint_pairs(a) | _endpoint_pairs(b) | bounds
            assert _endpoint_pairs(assert_canonical(a.meet(b))) <= operands
            assert _endpoint_pairs(assert_canonical(a.join(b))) <= operands
            assert _endpoint_pairs(assert_canonical(a.complement())) <= _endpoint_pairs(a) | bounds
            for num, den in _endpoint_pairs(a):
                assert den > 0 and gcd(num, den) == 1

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ((("1/2", "3/2"),), "interval 0 must satisfy 0 <= lo < hi <= 1, got [1/2, 3/2)"),
            ((("-1/2", "1/2"),), "interval 0 must satisfy 0 <= lo < hi <= 1, got [-1/2, 1/2)"),
            ((("2/4", "1/2"),), "interval 0 must satisfy 0 <= lo < hi <= 1, got [1/2, 1/2)"),
            ((("3/4", "1/4"),), "interval 0 must satisfy 0 <= lo < hi <= 1, got [3/4, 1/4)"),
            ((("0", "1/4"), ("1/2", "5/4")), "interval 1 must satisfy 0 <= lo < hi <= 1, got [1/2, 5/4)"),
            # the range check of interval 1 comes before its order check
            ((("1/2", "3/4"), ("1/4", "2")), "interval 1 must satisfy 0 <= lo < hi <= 1, got [1/4, 2)"),
            (
                (("0", "2/4"), ("1/2", "1")),
                "intervals 0 and 1 overlap, touch, or are out of order; "
                "canonical form needs strictly separated ascending intervals",
            ),
            (
                (("0", "1/7"), ("1/11", "1/2"), ("3/4", "1")),
                "intervals 0 and 1 overlap, touch, or are out of order; "
                "canonical form needs strictly separated ascending intervals",
            ),
            (
                (("0", "1/8"), ("1/4", "1/2"), ("1/3", "1")),
                "intervals 1 and 2 overlap, touch, or are out of order; "
                "canonical form needs strictly separated ascending intervals",
            ),
            (((0.0, 0.5),), "float value 0.0 rejected: scalars must be exact; pass a Fraction or a 'p/q' string"),
            ((("0", "1/0"),), "zero denominator in rational '1/0'"),
            ((("0", "a/b"),), "malformed rational 'a/b'"),
            (((True, "1/2"),), "booleans are not rational scalars"),
            ((("1/2",),), "each interval must be a (lo, hi) pair"),
            ((([1], "1/2"),), "cannot interpret list as a rational scalar"),
        ],
    )
    def test_constructor_rejections_keep_their_messages(self, pairs, message):
        with pytest.raises(InputError) as err:
            IntervalEvent(pairs)
        assert str(err.value) == message

    def test_repr_str_and_read_only_intervals(self):
        ev = iv("0", "1/2", "9/10", "1")
        assert repr(ev) == (
            "IntervalEvent(intervals=((Fraction(0, 1), Fraction(1, 2)), (Fraction(9, 10), Fraction(1, 1))))"
        )
        assert repr(EMPTY) == "IntervalEvent(intervals=())"
        assert str(ev) == "[0, 1/2) | [9/10, 1)"
        assert IntervalEvent(intervals=ev.intervals) == ev
        with pytest.raises(AttributeError):
            ev.intervals = ()
        with pytest.raises(AttributeError):
            ev._ends = ()

    def test_copy_and_pickle_round_trip(self):
        ev = iv("1/7", "1/2", "999982/999983", "1")
        for clone in (copy.copy(ev), copy.deepcopy(ev), pickle.loads(pickle.dumps(ev))):
            assert clone == ev and hash(clone) == hash(ev)


def _point_source(rng: random.Random, mixed: bool):
    """Draw endpoints in [0, 1]: on one grid k/den with den near 10**6, or each on a denominator of its own."""
    if not mixed:
        den = rng.randint(999_000, 1_001_000)
        return lambda: Fraction(rng.randint(0, den), den)

    def draw() -> Fraction:
        own = rng.choice(MIXED_DENOMINATORS) if rng.random() < 0.5 else rng.randint(999_000, 1_001_000)
        return Fraction(rng.randint(0, own), own)

    return draw


def _event_on(draw, count: int, shared: tuple[Fraction, ...] = ()) -> IntervalEvent:
    """An event of ``count`` intervals whose endpoints are ``shared`` and fresh draws."""
    points = set(shared[: 2 * count])
    while len(points) < 2 * count:
        points.add(draw())
    ends = sorted(points)
    return IntervalEvent(tuple(zip(ends[0::2], ends[1::2])))


class TestJoinAtBenchmarkSize:
    """``join`` and ``normalized`` against independent oracles on events as large as the
    benchmark's: 20-150 intervals, endpoints on one denominator near 10**6 or each on its own,
    and pairs that share endpoints, so that their pieces touch."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_join_matches_set_oracle(self, mixed):
        rng = random.Random(f"join-benchmark-size/{mixed}")
        for _ in range(14):
            draw = _point_source(rng, mixed)
            a = _event_on(draw, rng.randint(20, 150))
            a_ends = [x for pair in a.intervals for x in pair]
            shared = tuple(rng.sample(a_ends, rng.randint(0, len(a_ends))))
            b = _event_on(draw, rng.randint(20, 150), shared)
            for x, y in ((a, b), (b, a), (a, b.complement())):
                assert assert_canonical(x.join(y)) == set_oracle(x, y, lambda p, q: p or q)

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_normalized_merges_hundreds_of_overlapping_pieces(self, mixed):
        rng = random.Random(f"normalized-benchmark-size/{mixed}")
        for _ in range(3):
            draw = _point_source(rng, mixed)
            starts = [draw() for _ in range(rng.randint(200, 400))]
            # pieces of up to about 1/100, some degenerate, many starting where an earlier one ends
            pairs = []
            for lo in starts:
                if pairs and rng.random() < 0.3:
                    lo = rng.choice(pairs)[1]
                pairs.append((lo, min(Fraction(1), lo + rng.randint(0, 10_000) * Fraction(1, 10**6))))
            assert assert_canonical(IntervalEvent.normalized(pairs)).intervals == _sort_and_merge(pairs)


_ATOM_OPS = (
    lambda x, y: x and y,
    lambda x, y: x and not y,
    lambda x, y: not x and y,
    lambda x, y: not x and not y,
)


def _check_atoms(a: IntervalEvent, b: IntervalEvent) -> None:
    """The one-sweep atoms of (a, b) are canonical, and equal the set oracle's and the two-sided split's."""
    atoms = a._atoms(b)
    assert type(atoms) is tuple and len(atoms) == 4
    for atom in atoms:
        assert type(assert_canonical(atom)) is IntervalEvent
    assert atoms == tuple(set_oracle(a, b, op) for op in _ATOM_OPS)
    a_side, b_side, split = two_sided_split(a, b)
    assert a_side and b_side and atoms == split


def _special_pairs(a: IntervalEvent, b: IntervalEvent) -> list[tuple[IntervalEvent, IntervalEvent]]:
    """(a, b), and pairs built from them: equal, complementary (every endpoint shared, every piece
    touching), nested, and with the empty and the full event."""
    return [
        (a, b), (b, a), (a, a), (a, a.complement()), (a.complement(), a),
        (a, a.meet(b)), (a.meet(b), a), (a.join(b), b), (a, a.join(b).complement()),
        (a, EMPTY), (EMPTY, a), (a, FULL), (FULL, a), (EMPTY, EMPTY), (FULL, FULL), (EMPTY, FULL), (FULL, EMPTY),
    ]


class TestAtoms:
    """``_atoms``, the one sweep that splits a pair into a&b, a&~b, ~a&b and ~a&~b, against the set
    oracle and the two-sided split built from meets, joins and complements."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_small_pairs(self, mixed):
        # small grids share and touch endpoints often, and reach 0 and 1
        rng = random.Random(f"atoms-small/{mixed}")
        for _ in range(60):
            a, b = random_event(rng, max_parts=4, mixed=mixed), random_event(rng, max_parts=4, mixed=mixed)
            for x, y in _special_pairs(a, b):
                _check_atoms(x, y)

    def test_hand_cases(self):
        a = iv("0", "1/4", "1/2", "3/4")
        for b in (
            iv("1/4", "1/2", "3/4", "1"),  # touching a at every endpoint: a&b is empty, ~a&~b too
            iv("0", "1/4"),  # sharing a's first interval
            iv("1/8", "5/8"),  # crossing a gap
            iv("0", "2/8", "4/8", "6/8"),  # a itself, written unreduced
            iv("1/4", "3/4"),  # starting where a's first interval ends, ending where its last ends
        ):
            _check_atoms(a, b)
            _check_atoms(b, a)
        both, a_only, b_only, neither = a._atoms(iv("1/4", "1/2", "3/4", "1"))
        assert (both, a_only, b_only, neither) == (EMPTY, a, a.complement(), EMPTY)
        assert FULL._atoms(FULL) == (FULL, EMPTY, EMPTY, EMPTY)
        assert EMPTY._atoms(EMPTY) == (EMPTY, EMPTY, EMPTY, FULL)

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_benchmark_size(self, mixed):
        rng = random.Random(f"atoms-benchmark-size/{mixed}")
        for _ in range(8):
            draw = _point_source(rng, mixed)
            a = _event_on(draw, rng.randint(20, 150))
            a_ends = [x for pair in a.intervals for x in pair]
            b = _event_on(draw, rng.randint(20, 150), tuple(rng.sample(a_ends, rng.randint(0, len(a_ends)))))
            for x, y in ((a, b), (b, a), (a, b.complement()), (a, a.meet(b))):
                _check_atoms(x, y)


def _prefix_sums(event: IntervalEvent) -> list[Fraction]:
    """The measures of the event's first 1, 2, ... intervals: the targets that end exactly on an interval's end."""
    sums, total = [], Fraction(0)
    for lo, hi in event.intervals:
        total += hi - lo
        sums.append(total)
    return sums


def _refusal(target: Fraction, measure: Fraction) -> str:
    return (
        "carve target must lie strictly between 0 and the event measure: "
        f"got target {target} for measure {measure}"
    )


class TestIntegerCarve:
    """``carve`` against the Fraction carve, on targets inside intervals and exactly on their ends,
    and its refusals, word for word."""

    def _check(self, a: IntervalEvent, target: Fraction) -> None:
        want = fraction_carve(a, target)
        if want is None:
            with pytest.raises(PreconditionError) as err:
                a.carve(target)
            assert str(err.value) == _refusal(target, a.measure())
        else:
            got = assert_canonical(a.carve(target))
            assert got == want and got.measure() == target

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_matches_fraction_carve(self, mixed):
        rng = random.Random(f"integer-carve/{mixed}")
        for _ in range(150):
            a = random_event(rng, max_parts=4, mixed=mixed)
            sums = _prefix_sums(a)
            total = sums[-1] if sums else Fraction(0)
            targets = [*sums, Fraction(0), -total, total * Fraction(17, 16) or Fraction(1, 3)]
            targets += [total * Fraction(rng.randint(1, 15), 16) for _ in range(3)]
            # a target just past an interval's end, and one just short of it
            targets += [x + sign * Fraction(1, 10**9) for x in sums for sign in (-1, 1)]
            for target in targets:
                self._check(a, target)

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_benchmark_size(self, mixed):
        rng = random.Random(f"integer-carve-benchmark-size/{mixed}")
        for _ in range(6):
            a = _event_on(_point_source(rng, mixed), rng.randint(20, 150))
            sums = _prefix_sums(a)
            for target in rng.sample(sums, 5) + [sums[-1] * Fraction(rng.randint(1, 999), 1000) for _ in range(5)]:
                self._check(a, target)

    @pytest.mark.parametrize(
        "event, target, measure",
        [
            (iv("0", "1/4", "1/2", "7/8"), "0", "5/8"),
            (iv("0", "1/4", "1/2", "7/8"), "-1/8", "5/8"),
            (iv("0", "1/4", "1/2", "7/8"), "5/8", "5/8"),
            (iv("0", "1/4", "1/2", "7/8"), "10/16", "5/8"),
            (iv("0", "1/4", "1/2", "7/8"), "2/3", "5/8"),
            (iv("0", "1/4", "1/2", "7/8"), 1, "5/8"),
            (iv("1/7", "1/3", "999982/999983", "1"), "3999953/20999643", "3999953/20999643"),
            (EMPTY, "1/2", "0"),
            (EMPTY, "0", "0"),
            (FULL, "1", "1"),
        ],
    )
    def test_refusals_keep_their_text(self, event, target, measure):
        with pytest.raises(PreconditionError) as err:
            event.carve(target)
        assert str(err.value) == _refusal(Fraction(target), Fraction(measure))

    def test_target_on_an_inner_end(self):
        # 1/6 + 1/12 = 1/4 ends exactly on the second of three intervals, which is taken whole
        assert iv("1/3", "1/2", "2/3", "3/4", "4/5", "1").carve("1/4") == iv("1/3", "1/2", "2/3", "3/4")


class TestTrustBoundary:
    """Kernel results skip the canonical-form check; every way in from outside keeps it."""

    @pytest.mark.parametrize(
        "ends",
        [
            (0, 1, 1, 2, 1, 2, 1, 1),  # touching
            (0, 1, 3, 4, 1, 2, 1, 1),  # overlapping
            (1, 2, 3, 4, 0, 1, 1, 4),  # out of order
            (1, 2, 3, 2),  # hi above 1
            (-1, 2, 1, 2),  # lo below 0
            (3, 4, 1, 4),  # reversed
            (1, 2, 1, 2),  # degenerate
            (2, 4, 3, 4),  # unreduced
            (1, -2, 1, 1),  # negative denominator
            (0, 1, 1),  # not four ints per interval
        ],
    )
    def test_assert_canonical_rejects(self, ends):
        with pytest.raises(AssertionError):
            assert_canonical(IntervalEvent._trusted(ends))

    def test_assert_canonical_accepts(self):
        for ends in ((), (0, 1, 1, 1), (0, 1, 1, 7, 1, 2, 999982, 999983)):
            event = IntervalEvent._trusted(ends)
            assert assert_canonical(event) is event

    @pytest.mark.parametrize(
        "ends, pairs",
        [
            ((0, 1, 1, 2, 1, 2, 1, 1), (("0", "1/2"), ("1/2", "1"))),
            ((3, 4, 1, 4), (("3/4", "1/4"),)),
            ((1, 2, 3, 2), (("1/2", "3/2"),)),
        ],
    )
    def test_unpickling_and_copy_check_canonical_form(self, ends, pairs):
        with pytest.raises(InputError) as expected:
            IntervalEvent(pairs)
        tampered = iv("1/4", "1/2")
        object.__setattr__(tampered, "_ends", ends)
        for rebuild in (copy.copy, copy.deepcopy, lambda ev: pickle.loads(pickle.dumps(ev))):
            with pytest.raises(InputError) as err:
                rebuild(tampered)
            assert str(err.value) == str(expected.value)


_STORED_FORM = {"_ends", "_quads", "_rational_str"}


class TestStoredFormIsPrivate:
    """Only ``rccs.events`` reads an interval event's stored int endpoints; the others go through its methods."""

    def test_no_other_module_names_the_stored_form(self):
        sources = sorted((Path(__file__).parents[1] / "src" / "rccs").glob("*.py"))
        assert "events.py" in [path.name for path in sources]
        found = []
        for path in sources:
            if path.name == "events.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name in _STORED_FORM:
                    found.append(f"{path.name}:{node.lineno} {name}")
        assert found == []
