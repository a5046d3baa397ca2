"""JSON boundary: strict rational strings and canonical-form enforcement."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rccs import FiniteSpace, InputError, Partition, as_fraction
from rccs.cli import _parse_lam
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

from .helpers import MIXED_DENOMINATORS, fraction_interval_event, iv, random_event, unlimited_int_digits


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

    def test_the_library_and_the_json_grammars_differ(self):
        # as_fraction reads any string fractions.Fraction reads; JSON and --lambda take only "p/q" or "n"
        for text, value in (("0.25", Fraction(1, 4)), ("1e-3", Fraction(1, 1000)), ("1_000/3_000", Fraction(1, 3))):
            assert as_fraction(text) == value
            assert FiniteSpace((text, 1 - value)).weights == (value, 1 - value)
            for read in (parse_rational, _parse_lam):
                with pytest.raises(InputError, match=r"^malformed rational '.+'; expected 'p/q' or an integer string$"):
                    read(text)
            with pytest.raises(InputError, match=r"^malformed rational"):
                finite_space_from_obj({"weights": [text, str(1 - value)]})
        for text in ("3/4", " 3/4 ", "-2", "06/08", "+1/3"):
            assert as_fraction(text) == parse_rational(text)
        for text in ("1/0", "x", "", "1/2/3"):
            with pytest.raises(InputError):
                as_fraction(text)


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


def _outcome(call):
    """The value of ``call()``, or the type and text of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # every exception is an answer here
        return type(exc), str(exc)


_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(lambda n: n * 10**4400),  # past the int-string limit unless 0: ValueError both ways
    st.floats(),  # NaN and the infinities included
    st.text(),
    st.text(st.characters(codec="utf-8")),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3),  # mixed key types fail to sort both ways
        st.sets(st.integers(), max_size=2),  # not JSON: TypeError both ways
    )


class TestWriter:
    """``dumps`` is ``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, and raises where it raises."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.recursive(_SCALARS, _containers, max_leaves=20))
    def test_matches_json_dumps_on_random_trees(self, tree):
        want = _outcome(lambda: json.dumps(tree, indent=2, sort_keys=True))
        got = _outcome(lambda: dumps(tree))
        if isinstance(want, tuple):  # an exception: the same type
            assert isinstance(got, tuple) and got[0] is want[0], (got, want)
        else:
            assert got == want

    def test_edge_values(self):
        values = [
            float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 10**4000, -(10**40), True, None,
            "\x00\x1f\u007f\u00e9\u2028\U0001f600\ud800\"\\", [], {}, (), [[]], {"": {}},
            {3: "int", 2.5: "float", 1: "one"}, {True: 1, False: 0}, {None: []}, {float("nan"): 1, float("inf"): 2},
            {"b": (1, [2.0, {"c": None}]), "a": ["x", ("y",)]},
        ]
        for value in values:
            assert dumps(value) == json.dumps(value, indent=2, sort_keys=True), value

    @pytest.mark.parametrize(
        "value, error",
        [({1, 2}, TypeError), ({"a": 1, 2: "b"}, TypeError), ({(1,): 2}, TypeError), ([object()], TypeError),
         (10**5000, ValueError), ({"k": [1, frozenset()]}, TypeError)],
        ids=["set", "mixed-keys", "tuple-key", "object", "long-int", "nested-frozenset"],
    )
    def test_refuses_what_json_refuses(self, value, error):
        with pytest.raises(error) as want:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(error) as got:
            dumps(value)
        assert str(got.value) == str(want.value)

    def test_command_line_json_outputs_are_json_dumps(self):
        # the five --json outputs: construct, verify, search, bell and demo
        from .test_cli import WORKED_INPUT, run_cli

        worked = json.loads(WORKED_INPUT)
        cells = json.loads(run_cli(["construct", WORKED_INPUT, "--json"])[1])["cells"]
        search = {"space": {"weights": ["1/6"] * 6}, "a": {"members": [0, 1, 2]}, "b": {"members": [1, 2, 3]}, "n": 3}
        argvs = [
            ["construct", WORKED_INPUT, "--json"],
            ["verify", json.dumps({**worked, "partition": cells}), "--json"],
            ["search", json.dumps(search), "--json"],
            ["bell", "--json"],
            ["demo", "--json"],
        ]
        for argv in argvs:
            code, out, _ = run_cli(argv)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv[0]


# the decimal digits of ASCII, Arabic-Indic, Devanagari and fullwidth forms: int() reads each
_SCRIPTS = tuple("".join(map(chr, range(zero, zero + 10))) for zero in (0x30, 0x660, 0x966, 0xFF10))


def _endpoint_text(rng: random.Random, value: Fraction):
    """A text for ``value``, or now and then for something that is no valid endpoint."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(["1/2.0", "", "half", " ", "1//2", "+-1", 0.5, 1, None, ["1"]])
    if roll < 0.08:  # a zero denominator, in any script and length
        zeros = rng.choice(_SCRIPTS)[0] * rng.choice([1, 2, 7, 4301, 5000])
        return rng.choice(["1", "0", "-3", "9" * 5000]) + "/" + zeros
    if roll < 0.1:  # past the int-string limit
        return rng.choice(["1" * 4301 + "/2", "1/" + "7" * 4301, "0" * 4301 + "1"])
    scale = rng.choice([1, 1, 2, 3, 10, 999983])
    num, den = value.numerator * scale, value.denominator * scale
    text = str(num) if den == 1 and rng.random() < 0.5 else f"{num}/{den}"
    if rng.random() < 0.2:
        text = rng.choice(["+", "-", "00"]) + text
    if rng.random() < 0.2:
        script = rng.choice(_SCRIPTS)
        text = text.translate(str.maketrans("0123456789", script))
    if rng.random() < 0.2:
        text = rng.choice([" ", "\t", "\n", "\u3000"]) + text + rng.choice(["", " ", "\n"])
    return text


def _interval_list(rng: random.Random) -> list:
    """A list of [lo, hi] texts: canonical, or unsorted, overlapping, touching, reversed, empty or out of range."""
    count = rng.randint(0, 6)
    points = sorted({Fraction(rng.randint(0, d), d) for d in rng.choices(MIXED_DENOMINATORS, k=2 * count)})
    if len(points) % 2:
        points.pop()
    pairs = [[lo, hi] for lo, hi in zip(points[0::2], points[1::2])]
    roll = rng.random()
    if pairs and roll < 0.1:
        rng.shuffle(pairs)
    elif pairs and roll < 0.2:
        pairs.append(list(pairs[-1]))  # a duplicate, so an overlap
    elif pairs and roll < 0.3:
        pairs[0] = pairs[0][::-1]
    elif len(pairs) > 1 and roll < 0.4:
        pairs[1][0] = pairs[0][1]  # touching
    elif roll < 0.45:
        pairs.append([Fraction(1), Fraction(3, 2)])
    obj = [[_endpoint_text(rng, x) for x in pair] for pair in pairs]
    if obj and rng.random() < 0.03:
        obj[rng.randrange(len(obj))] = rng.choice([["0"], ["0", "1", "1"], "01", {"lo": "0"}])
    return obj


class TestReaderOracle:
    """The int-pair reader gives the event, or the error text, that the Fraction reader gives."""

    def test_matches_the_fraction_reader(self):
        rng = random.Random(3030)
        for _ in range(1500):
            obj = {"intervals": _interval_list(rng)}
            normalize = rng.random() < 0.25
            got = _outcome(lambda: interval_event_from_obj(obj, normalize=normalize))
            want = _outcome(lambda: fraction_interval_event(obj, normalize=normalize))
            assert got == want, obj
            if not isinstance(got, tuple):
                assert got._ends == want._ends
