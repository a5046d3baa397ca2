"""JSON boundary: strict rational strings and canonical-form enforcement."""

import random
import sys
from fractions import Fraction

import pytest

from rccs import FiniteSpace, InputError, Partition
from rccs.serialize import (
    dumps,
    finite_event_from_obj,
    finite_space_from_obj,
    finite_space_to_obj,
    format_rational,
    interval_event_from_obj,
    interval_event_to_obj,
    interval_partition_from_obj,
    loads,
    parse_rational,
    partition_to_obj,
    report_to_obj,
)

from .helpers import iv, random_event, unlimited_int_digits


class TestRationals:
    def test_round_trip(self):
        for text in ("0", "1", "-3/5", "17/80", "125/272"):
            assert format_rational(parse_rational(text)) == text

    def test_format_is_exact_past_the_int_string_limit(self):
        # the limit guards parsing only: numbers print in full, in either sign
        rng = random.Random(4300)
        values = [Fraction(n) for n in (10**4300, -(10**5000) - 1)]
        values += [Fraction(rng.getrandbits(bits), rng.getrandbits(bits) | 1) for bits in (15_000, 40_000, 90_000)]
        values.append(-values[-1])
        with unlimited_int_digits():
            expected = [str(value) for value in values]
        assert max(map(len, expected)) > 2 * sys.get_int_max_str_digits()
        assert [format_rational(value) for value in values] == expected

    def test_integer_and_fraction_forms(self):
        assert parse_rational("2") == Fraction(2)
        assert parse_rational("6/17") == Fraction(6, 17)

    def test_zero_denominator(self):
        with pytest.raises(InputError) as err:
            parse_rational("1/0")
        assert "denominator" in str(err.value)

    def test_zero_denominator_in_any_digits_and_length(self):
        # the pattern takes any Unicode decimal digit, so a zero may be written in any script
        arabic_zero, devanagari_zero = "\u0660", "\u0966"
        for den in ("0", "00", arabic_zero, arabic_zero * 2, "0" + devanagari_zero, arabic_zero * 5000, "0" * 5000):
            with pytest.raises(InputError) as err:
                parse_rational("1/" + den)
            assert str(err.value).startswith("zero denominator in rational '1/")

    def test_unicode_digits_read_as_their_values(self):
        assert parse_rational("\u0661/\u0662") == Fraction(1, 2)  # ARABIC-INDIC ONE and TWO
        assert parse_rational("-\u0663/\u0664") == Fraction(-3, 4)
        assert parse_rational("\u0967\u0966") == Fraction(10)  # DEVANAGARI ONE ZERO

    def test_parsed_value_equals_the_fraction_of_the_text(self):
        rng = random.Random(2802)
        for _ in range(2000):
            num = rng.choice(["", "+", "-"]) + "0" * rng.randint(0, 2) + str(rng.randrange(10 ** rng.randint(1, 40)))
            den = "0" * rng.randint(0, 2) + str(rng.randrange(1, 10 ** rng.randint(1, 40)))
            text = rng.choice([num, f"{num}/{den}"])
            value = parse_rational(rng.choice(["", " ", "\n"]) + text)
            assert type(value) is Fraction
            assert (value.numerator, value.denominator) == (Fraction(text).numerator, Fraction(text).denominator)

    def test_rejects_decimals_and_junk(self):
        for bad in ("0.5", "1/2/3", "a", "", "1.0", "1e-3"):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_rejects_non_strings(self):
        with pytest.raises(InputError):
            parse_rational(0.5)


class TestEvents:
    def test_round_trip(self):
        ev = iv("1/10", "1/2", "9/10", "1")
        assert interval_event_from_obj(interval_event_to_obj(ev)) == ev

    def test_endpoints_are_written_as_fraction_text(self):
        rng = random.Random(7103)
        for _ in range(300):
            ev = random_event(rng, max_parts=6, mixed=True)
            expected = [[str(lo), str(hi)] for lo, hi in ev.intervals]
            assert interval_event_to_obj(ev) == {"intervals": expected}

    def test_strict_parse_rejects_overlap(self):
        obj = {"intervals": [["0", "1/2"], ["1/4", "3/4"]]}
        with pytest.raises(InputError):
            interval_event_from_obj(obj)

    def test_strict_parse_rejects_unsorted(self):
        obj = {"intervals": [["1/2", "1"], ["0", "1/4"]]}
        with pytest.raises(InputError):
            interval_event_from_obj(obj)

    def test_normalize_accepts_and_merges(self):
        obj = {"intervals": [["1/2", "1"], ["0", "1/2"]]}
        assert interval_event_from_obj(obj, normalize=True) == iv("0", "1")

    def test_missing_field(self):
        with pytest.raises(InputError):
            interval_event_from_obj({"wrong": []})

    def test_malformed_pair(self):
        with pytest.raises(InputError):
            interval_event_from_obj({"intervals": [["0", "1/2", "extra"]]})


class TestSpaces:
    def test_round_trip(self):
        space = FiniteSpace(("1/4", "1/4", "1/4", "1/4"))
        assert finite_space_from_obj(finite_space_to_obj(space)) == space

    def test_event_parse(self):
        space = FiniteSpace(("1/4", "1/4", "1/4", "1/4"))
        ev = finite_event_from_obj({"members": [2, 0]}, space)
        assert ev.members == (0, 2)

    def test_event_duplicate_rejected(self):
        space = FiniteSpace(("1/2", "1/2"))
        with pytest.raises(InputError):
            finite_event_from_obj({"members": [0, 0]}, space)

    def test_event_non_integer_rejected(self):
        space = FiniteSpace(("1/2", "1/2"))
        with pytest.raises(InputError):
            finite_event_from_obj({"members": [0, "1"]}, space)


class TestListFields:
    @pytest.mark.parametrize(
        "read, obj, message",
        [
            (interval_event_from_obj, {"intervals": "0 1/2"}, "'intervals' must be a list of [lo, hi] pairs"),
            (finite_space_from_obj, {"weights": {"0": "1"}}, "'weights' must be a list of rational strings"),
            (
                lambda obj: finite_event_from_obj(obj, FiniteSpace(("1/2", "1/2"))),
                {"members": 0},
                "'members' must be a list of sample point indices",
            ),
        ],
        ids=["intervals", "weights", "members"],
    )
    def test_a_field_that_is_not_a_list_is_refused_by_name(self, read, obj, message):
        with pytest.raises(InputError) as err:
            read(obj)
        assert str(err.value) == message


class TestPartitionsAndReports:
    def test_partition_round_trip(self):
        p = Partition((iv("0", "1/3"), iv("1/3", "1")))
        assert interval_partition_from_obj(partition_to_obj(p)) == p

    def test_non_partition_rejected(self):
        obj = [
            {"intervals": [["0", "1/2"]]},
            {"intervals": [["1/4", "1"]]},
        ]
        with pytest.raises(InputError):
            interval_partition_from_obj(obj)

    def test_report_serialization_uses_rational_strings(self):
        from rccs import construct_size3, verify_rccs
        from .test_engine import WORKED_A, WORKED_B

        system = construct_size3(WORKED_A, WORKED_B)
        obj = report_to_obj(verify_rccs(WORKED_A, WORKED_B, system.cells))
        assert obj["accepted"] is True
        assert obj["cell_measures"] == ["3/16", "6/17", "125/272"]
        assert obj["cond_a"] == ["1", "0", "17/25"]
        assert obj["decomposition_lhs"] == obj["decomposition_rhs"] == "3/20"

    def test_loads_reports_position(self):
        with pytest.raises(InputError) as err:
            loads('{"a": 1,}')
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_dumps_is_deterministic(self):
        obj = {"b": 1, "a": [2, 3]}
        assert dumps(obj) == dumps({"a": [2, 3], "b": 1})
