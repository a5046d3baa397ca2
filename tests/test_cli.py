"""Command line contract: exit codes, golden round trip, output shapes."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rccs.cli
import rccs.engine
from rccs import FiniteSpace, InputError, InternalInvariantError, construction_steps, correlation
from rccs.cli import main
from rccs.serialize import interval_event_from_obj

from .helpers import unlimited_int_digits

DATA = Path(__file__).parent / "data"

WORKED_INPUT = json.dumps(
    {
        "a": {"intervals": [["0", "1/2"]]},
        "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
    }
)

# Semantic oracle for the worked example, derived by hand from the raw
# measures (see test_engine); the golden file must agree with these.
WORKED_VALUES = {
    "joint_excess": "3/20",
    "carve_bound": "3/8",
    "cell_measures": ["3/16", "6/17", "125/272"],
    "cond_a": ["1", "0", "17/25"],
    "cond_b": ["1", "0", "17/25"],
    "cond_ab": ["1", "0", "289/625"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGoldenRoundTrip:
    def test_construct_matches_golden_and_oracle(self):
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json"])
        assert code == 0
        assert out.encode() == (DATA / "construct_worked.golden.json").read_bytes()
        payload = json.loads(out)
        for key, expected in WORKED_VALUES.items():
            assert payload[key] == expected, key
        assert payload["report"]["decomposition_lhs"] == "3/20"
        assert payload["report"]["decomposition_rhs"] == "3/20"

    def test_verify_round_trip_byte_identical(self):
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json"])
        construct = json.loads(out)
        verify_input = json.dumps(
            {
                "a": {"intervals": [["0", "1/2"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
                "partition": construct["cells"],
            }
        )
        code, out, _ = run_cli(["verify", verify_input, "--json"])
        assert code == 0
        assert out.encode() == (DATA / "verify_worked.golden.json").read_bytes()
        verify = json.loads(out)
        assert verify["accepted"] is True
        # rationals survive the round trip byte-for-byte
        assert verify["cell_measures"] == construct["cell_measures"]
        assert verify["cond_a"] == construct["cond_a"]
        assert verify["decomposition_lhs"] == construct["report"]["decomposition_lhs"]


class TestExitCodes:
    def test_construct_accepted_is_0(self):
        assert run_cli(["construct", WORKED_INPUT])[0] == 0

    def test_contained_pair_is_2(self):
        payload = json.dumps(
            {"a": {"intervals": [["0", "1/4"]]}, "b": {"intervals": [["0", "1/2"]]}}
        )
        code, _, err = run_cli(["construct", payload])
        assert code == 2
        assert "logically independent" in err

    def test_uncorrelated_pair_is_2(self):
        payload = json.dumps(
            {"a": {"intervals": [["0", "1/2"]]}, "b": {"intervals": [["1/4", "3/4"]]}}
        )
        code, _, err = run_cli(["construct", payload])
        assert code == 2
        assert "not correlated" in err

    def test_malformed_rational_is_1(self):
        payload = json.dumps(
            {"a": {"intervals": [["0", "1/0"]]}, "b": {"intervals": [["0", "1/2"]]}}
        )
        assert run_cli(["construct", payload])[0] == 1

    def test_malformed_json_is_1_with_position(self):
        code, _, err = run_cli(["construct", '{"a": '])
        assert code == 1
        assert "line" in err

    def test_missing_file_is_1(self):
        assert run_cli(["construct", "does_not_exist.json"])[0] == 1

    def test_verify_accepted_is_0(self):
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json"])
        cells = json.loads(out)["cells"]
        verify_input = json.dumps(
            {
                "a": {"intervals": [["0", "1/2"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
                "partition": cells,
            }
        )
        assert run_cli(["verify", verify_input])[0] == 0

    def test_tampered_partition_is_3(self):
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json"])
        cells = json.loads(out)["cells"]
        # move a sliver of cell 1 into cell 3
        sliver_hi = "11/80"  # [1/10, 11/80) out of [1/10, 23/80)
        cells[0] = {"intervals": [[sliver_hi, "23/80"]]}
        cells[2] = {"intervals": [["0", sliver_hi]] + cells[2]["intervals"][1:]}
        verify_input = json.dumps(
            {
                "a": {"intervals": [["0", "1/2"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
                "partition": cells,
            }
        )
        code, _, err = run_cli(["verify", verify_input])
        assert code == 3
        assert "screening-off" in err

    def test_non_partition_is_1(self):
        verify_input = json.dumps(
            {
                "a": {"intervals": [["0", "1/2"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
                "partition": [
                    {"intervals": [["0", "1/2"]]},
                    {"intervals": [["1/4", "1"]]},
                ],
            }
        )
        assert run_cli(["verify", verify_input])[0] == 1

    def test_search_empty_result_is_0(self):
        payload = json.dumps(
            {
                "space": {"weights": ["1/6"] * 6,},
                "a": {"members": [0]},
                "b": {"members": [0, 1]},
                "n": 3,
            }
        )
        code, out, _ = run_cli(["search", payload, "--json"])
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_search_n_above_points_is_1(self):
        payload = json.dumps(
            {
                "space": {"weights": ["1/4"] * 4},
                "a": {"members": [0]},
                "b": {"members": [0, 1]},
                "n": 5,
            }
        )
        assert run_cli(["search", payload])[0] == 1

    def test_search_uncorrelated_is_2(self):
        payload = json.dumps(
            {
                "space": {"weights": ["1/4"] * 4},
                "a": {"members": [0, 1]},
                "b": {"members": [0, 2]},
                "n": 2,
            }
        )
        assert run_cli(["search", payload])[0] == 2

    def test_bad_lambda_is_1(self):
        assert run_cli(["construct", WORKED_INPUT, "--lambda", "2"])[0] == 1
        assert run_cli(["construct", WORKED_INPUT, "--lambda", "0.5"])[0] == 1

    def test_lambda_out_of_range_is_refused_by_the_reader(self):
        # the flag's reader names the flag; the engine's own range check would name its parameter
        for command in (["construct", WORKED_INPUT], ["demo"]):
            for bad in ("0", "1", "2", "3/2"):
                code, out, err = run_cli([*command, "--lambda", bad])
                assert (code, out) == (1, "")
                assert err == f"input error: --lambda must lie strictly between 0 and 1, got {bad}\n"

    def test_negative_lambda_reaches_the_reader_spaced_or_joined(self):
        # argparse alone takes -1/3 for an option and ends in a usage error naming the wrong fault
        for command in (["construct", WORKED_INPUT], ["demo"]):
            for flag, bad in ((["--lambda", "-1/3"], "-1/3"), (["--lambda=-1/3"], "-1/3"), (["--lambda", "-2"], "-2")):
                code, out, err = run_cli([*command, *flag, "--json"])
                assert (code, out) == (1, "")
                assert err == f"input error: --lambda must lie strictly between 0 and 1, got {bad}\n"
            # a following flag is still not taken for the value
            code, out, err = run_cli([*command, "--lambda", "--json"])
            assert (code, out) == (1, "")
            assert err == "usage error: argument --lambda: expected one argument\n"

    def test_unicode_zero_denominator_is_an_input_error(self):
        # "1/\u0660" (ARABIC-INDIC DIGIT ZERO) passes the rational pattern; it must not reach Fraction(1, 0)
        zero = "1/\u0660"
        worked = json.loads(WORKED_INPUT)
        cases = {
            "verify": ["verify", json.dumps(worked | {"partition": [{"intervals": [["0", zero]]}]})],
            "search": ["search", json.dumps(
                {"space": {"weights": [zero, "1/2"]}, "a": {"members": [0]}, "b": {"members": [0]}, "n": 2}
            )],
            "demo": ["demo", f"--lambda={zero}"],
        }
        for name, argv in cases.items():
            assert run_cli(argv) == (1, "", f"input error: zero denominator in rational '{zero}'\n"), name
        # a rational in other digits is still read: --lambda=\u0661/\u0662 is --lambda=1/2
        assert run_cli(["demo", "--lambda=\u0661/\u0662", "--json"]) == run_cli(["demo", "--lambda=1/2", "--json"])

    def test_unknown_subcommand_is_1(self):
        assert run_cli(["frobnicate"])[0] == 1

    def test_bell_is_0(self):
        assert run_cli(["bell"])[0] == 0

    def test_demo_is_0(self):
        assert run_cli(["demo"])[0] == 0


class TestOutputs:
    def test_construct_normalize_flag(self):
        payload = json.dumps(
            {
                "a": {"intervals": [["1/4", "1/2"], ["0", "1/4"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
            }
        )
        assert run_cli(["construct", payload])[0] == 1
        assert run_cli(["construct", payload, "--normalize"])[0] == 0

    @pytest.mark.parametrize(
        "extra, golden",
        [
            ([], "construct_worked_explain.golden.txt"),
            (["--lambda", "1/3"], "construct_worked_explain_lambda_1_3.golden.txt"),
        ],
        ids=["default-lambda", "lambda-1-3"],
    )
    def test_construct_explain_matches_golden(self, extra, golden):
        # byte for byte: the trace lines (bound 3/8, lambda, both forced measures) and the report
        code, out, err = run_cli(["construct", WORKED_INPUT, "--explain", *extra])
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / golden).read_bytes()

    def test_construct_lambda_variant(self):
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json", "--lambda", "1/3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["full_cell_measure"] == "1/8"
        assert payload["report"]["accepted"] is True

    def test_stdin_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(WORKED_INPUT))
        assert run_cli(["construct", "-"])[0] == 0

    def test_file_input(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(WORKED_INPUT)
        assert run_cli(["construct", str(path)])[0] == 0

    def test_bell_json_values(self):
        code, out, _ = run_cli(["bell", "--json"])
        payload = json.loads(out)
        assert abs(payload["bell_value"] + 0.125) < 1e-12
        assert set(payload["expectations"]) == {"a1", "a2", "b1b2", "a1a2", "b1a2", "a1b2"}

    def test_bell_human_mentions_minus_one_eighth(self):
        _, out, _ = run_cli(["bell"])
        assert "-0.125" in out and "-1/8" in out

    def test_demo_mentions_minus_one_eighth(self):
        _, out, _ = run_cli(["demo"])
        assert "-1/8" in out
        assert "common CCS impossible" in out

    def test_demo_lambda_variant(self):
        code, out, _ = run_cli(["demo", "--lambda", "1/3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["construction"]["full_cell_measure"] == "1/8"
        assert payload["construction"]["report"]["accepted"] is True

    def test_search_max_points_flag(self):
        payload = json.dumps(
            {
                "space": {"weights": ["1/15"] * 15},
                "a": {"members": [0]},
                "b": {"members": [0, 1]},
                "n": 15,
            }
        )
        assert run_cli(["search", payload])[0] == 1
        assert run_cli(["search", payload, "--max-points", "15"])[0] == 0

    def test_search_over_a_raised_cutoff_writes_nothing_to_stderr(self):
        # one limit, and no warning tier above the default: a&b = {0, 1}, a&~b = {2}, ~a&b = {3}, 11 points in neither
        payload = json.dumps(
            {"space": {"weights": ["1/15"] * 15}, "a": {"members": [0, 1, 2]}, "b": {"members": [0, 1, 3]}, "n": 3}
        )
        code, out, err = run_cli(["search", payload, "--json", "--max-points", "15"])
        assert (code, err) == (0, "")
        space = rccs.FiniteSpace(("1/15",) * 15)
        hits = rccs.search_rccs(space, space.event([0, 1, 2]), space.event([0, 1, 3]), 3, max_points=15)
        report = json.loads(out)
        assert report["count"] == len(hits) == 22
        assert report["partitions"] == [[{"members": list(c.members)} for c in p.cells] for p in hits]

    def test_search_human_output_lists_hits(self):
        payload = json.dumps(
            {
                "space": {
                    "weights": ["3/16", "6/17", "17/80", "1/10", "1/10", "4/85"]
                },
                "a": {"members": [0, 2, 3]},
                "b": {"members": [0, 2, 4]},
                "n": 3,
            }
        )
        code, out, _ = run_cli(["search", payload])
        assert code == 0
        assert "{0}" in out and "{1}" in out

    def test_json_outputs_validate_against_shipped_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(__file__).parents[1] / "docs" / "report.schema.json").read_text())
        outputs = []
        code, out, _ = run_cli(["construct", WORKED_INPUT, "--json"])
        assert code == 0
        outputs.append(json.loads(out))
        construct = outputs[0]
        verify_input = json.dumps(
            {
                "a": {"intervals": [["0", "1/2"]]},
                "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
                "partition": construct["cells"],
            }
        )
        for argv in (["verify", verify_input, "--json"], ["bell", "--json"]):
            code, out, _ = run_cli(argv)
            assert code == 0
            outputs.append(json.loads(out))
        search_input = json.dumps(
            {
                "space": {"weights": ["1/6"] * 6},
                "a": {"members": [0]},
                "b": {"members": [0, 1]},
                "n": 3,
            }
        )
        code, out, _ = run_cli(["search", search_input, "--json"])
        assert code == 0
        outputs.append(json.loads(out))
        for obj in outputs:
            jsonschema.validate(obj, schema)


class TestSearchSymmetry:
    """``search --json`` prints the same bytes for (a, b), (b, a), (~a, ~b) and (~b, ~a): a partition is a
    system for one form exactly when it is one for all four, and the hits come in one order."""

    def test_four_forms_print_the_same_bytes(self):
        rng = random.Random("cli-search-symmetry")
        cases = hits = 0
        while cases < 40:
            m = rng.randint(6, 9)
            raw = [1] * m if cases % 2 else [rng.randint(1, 3) for _ in range(m)]
            weights = [str(Fraction(w, sum(raw))) for w in raw]
            a, b = ({i for i in range(m) if rng.random() < 0.5} for _ in range(2))
            space = FiniteSpace(weights)
            if correlation(space.event(a), space.event(b)) <= 0:
                continue
            not_a, not_b = set(range(m)) - a, set(range(m)) - b
            outputs = []
            for x, y in ((a, b), (b, a), (not_a, not_b), (not_b, not_a)):
                payload = {"space": {"weights": weights}, "a": {"members": sorted(x)}, "b": {"members": sorted(y)}}
                outputs.append(run_cli(["search", json.dumps(payload | {"n": 2 + cases % 3}), "--json"]))
            assert outputs[0][0] == 0 and outputs[1:] == outputs[:1] * 3, outputs
            cases += 1
            hits += json.loads(outputs[0][1])["count"]
        assert hits > 200, hits


def _one_line(err: str, prefix: str) -> bool:
    return err.startswith(prefix) and err.count("\n") == 1


class TestResourceLimits:
    """Inputs past the documented limits end in exit 1 and one diagnostic line."""

    def test_inline_json_longer_than_path_limit(self):
        bad = {"a": {"intervals": [["0", "1/0"]]}, "b": {"intervals": [["0", "1/2"]]}, "pad": "x" * 5000}
        code, out, err = run_cli(["construct", json.dumps(bad)])
        assert code == 1 and not out
        assert _one_line(err, "input error: zero denominator")
        good = json.loads(WORKED_INPUT) | {"pad": "x" * 5000}
        assert run_cli(["construct", json.dumps(good), "--json"])[0] == 0

    def test_rational_past_digit_limit(self):
        payload = {"a": {"intervals": [["0", "1/" + "3" * 5000]]}, "b": {"intervals": [["0", "1/2"]]}}
        code, out, err = run_cli(["construct", json.dumps(payload)])
        assert code == 1 and not out
        assert _one_line(err, "input error: rational 1/33333")
        assert "digits" in err

    def test_zero_denominator_is_reported_before_digit_limit(self):
        for den in ("00", "0" * 5000):
            payload = {"a": {"intervals": [["0", "1/" + den]]}, "b": {"intervals": [["0", "1/2"]]}}
            code, _, err = run_cli(["construct", json.dumps(payload)])
            assert code == 1
            assert _one_line(err, "input error: zero denominator in rational")

    def test_deeply_nested_json(self):
        code, out, err = run_cli(["construct", '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"])
        assert code == 1 and not out
        assert _one_line(err, "input error: JSON nested too deeply")

    def test_unreadable_input_path(self, tmp_path):
        code, _, err = run_cli(["construct", str(tmp_path)])
        assert code == 1
        assert _one_line(err, "input error: cannot read input file")
        binary = tmp_path / "payload.bin"
        binary.write_bytes(b"\xff\xfe\x00{")
        code, _, err = run_cli(["construct", str(binary)])
        assert code == 1
        assert _one_line(err, "input error: input file is not text")

    def test_json_integer_past_digit_limit(self):
        payload = '{"space": {"weights": ["1/2", "1/2"]}, "a": {"members": [0]}, "b": {"members": [0]}, "n": '
        code, out, err = run_cli(["search", payload + "9" * 5000 + "}"])
        assert code == 1 and not out
        assert _one_line(err, "input error: JSON number longer than")

    def test_max_points_below_one_is_a_usage_error(self):
        payload = json.dumps(
            {"space": {"weights": ["1/2", "1/2"]}, "a": {"members": [0]}, "b": {"members": [0]}, "n": 2}
        )
        for bad in ("0", "-1"):
            code, out, err = run_cli(["search", payload, "--max-points", bad])
            assert code == 1 and not out
            assert _one_line(err, "usage error: argument --max-points: must be at least 1")

    def test_max_points_not_an_integer_is_a_usage_error(self):
        payload = json.dumps(
            {"space": {"weights": ["1/2", "1/2"]}, "a": {"members": [0]}, "b": {"members": [0]}, "n": 2}
        )
        code, out, err = run_cli(["search", payload, "--max-points", "abc"])
        assert code == 1 and not out
        assert _one_line(err, "usage error: argument --max-points: invalid int value: 'abc'")


class TestExactOutput:
    """Reports and diagnostics print exact rationals past the int-string limit, which guards parsing only."""

    def test_construct_report_past_digit_limit_reads_back(self):
        q = 10**1500 + 7
        payload = json.loads(WORKED_INPUT)
        payload["b"]["intervals"][1][0] = f"{q - q // 10}/{q}"
        code, out, err = run_cli(["construct", json.dumps(payload), "--json"])
        assert code == 0 and not err
        construct = json.loads(out)
        steps = construction_steps(interval_event_from_obj(payload["a"]), interval_event_from_obj(payload["b"]))
        with unlimited_int_digits():
            expected = [str(m) for m in steps.report.cell_measures]
        assert construct["cell_measures"] == expected
        assert max(map(len, expected)) > sys.get_int_max_str_digits()
        code, human, err = run_cli(["construct", json.dumps(payload)])
        assert code == 0 and not err
        assert f"cell 3: measure {expected[2]} ~ " in human
        # every number in the cells is within the limit, so verify reads the report back
        code, out, err = run_cli(["verify", json.dumps(payload | {"partition": construct["cells"]}), "--json"])
        assert code == 0 and not err
        assert json.loads(out) == construct["report"]

    def test_diagnostic_past_digit_limit(self):
        p1, p2 = 10**2500 + 1, 10**2500 + 3  # each denominator is within the limit, their product is not
        s, t = p1 // 2, p2 // 2 + 1  # a = [0, s/p1) and b = [t/p2, 1) are disjoint
        disjoint = {"a": {"intervals": [["0", f"{s}/{p1}"]]}, "b": {"intervals": [[f"{t}/{p2}", "1"]]}}
        weights = [f"1/{p1}", f"1/{p2}", f"{p1 - 2}/{2 * p1}", f"{p2 - 2}/{2 * p2}"]
        points = {"space": {"weights": weights}, "a": {"members": [0]}, "b": {"members": [1]}, "n": 3}
        cases = [
            (["construct", disjoint], 2, -Fraction(s, p1) * (1 - Fraction(t, p2)),
             "precondition failed: events are not correlated (joint excess {}); "
             "there is no correlation to explain"),
            (["search", points], 2, -Fraction(1, p1 * p2),
             "precondition failed: events are not correlated (joint excess {}); "
             "a common cause system explains only positive correlations"),
            (["search", points | {"space": {"weights": weights[:2]}}], 1, Fraction(1, p1) + Fraction(1, p2),
             "input error: weights must sum to exactly 1, got {}"),
        ]
        for (command, payload), status, value, template in cases:
            code, out, err = run_cli([command, json.dumps(payload)])
            with unlimited_int_digits():
                line = template.format(value)
            assert (code, out, err) == (status, "", line + "\n")


class TestStdout:
    """A closed or full stdout ends in a documented code, whether stdout is block-buffered or not."""

    @staticmethod
    def _run(stdout, unbuffered: bool) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "rccs", "construct", WORKED_INPUT, "--json"]
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_is_141_and_quiet(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            done = self._run(write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_is_1_on_one_line(self, unbuffered):
        with open("/dev/full", "wb") as full:
            done = self._run(full, unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode() == "output error: cannot write the report to stdout: No space left on device\n"


def _nested(depth: int):
    value = "0"
    for _ in range(depth):
        value = [value]
    return value


_SPACE2 = '{"space": {"weights": ["1/2", "1/2"]}, '
_B = {"intervals": [["0", "1/2"]]}


class TestLongInputEcho:
    """A diagnostic quotes at most the first 60 characters of a long input value."""

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["construct", json.dumps({"a": {"intervals": [["0", "1/" + "0" * 5000]]}, "b": _B})],
             "input error: zero denominator in rational '1/000"),
            (["construct", json.dumps({"a": {"intervals": [[_nested(900), "1/2"]]}, "b": _B})],
             "input error: rationals must be JSON strings, got [[[["),
            (["construct", json.dumps({"a": {"intervals": [["0", "x" * 5000]]}, "b": _B})],
             "input error: malformed rational 'xxx"),
            (["search", _SPACE2 + '"a": {"members": [0]}, "b": {"members": [0]}, "n": "' + "9" * 3000 + '"}'],
             "input error: 'n' must be an integer, got '999"),
            (["search", _SPACE2 + '"a": {"members": [0]}, "b": {"members": [0]}, "n": ' + "9" * 3000 + "}"],
             "input error: cell count 999"),
            (["search", _SPACE2 + '"a": {"members": ["' + "7" * 3000 + '"]}, "b": {"members": [0]}, "n": 2}'],
             "input error: sample point indices must be integers, got '777"),
            (["search", _SPACE2 + '"a": {"members": [' + "7" * 3000 + ']}, "b": {"members": [0]}, "n": 2}'],
             "input error: sample point 777"),
        ],
        ids=["zero-denominator", "nested-endpoint", "malformed-rational", "n-string", "n-integer",
             "member-string", "member-integer"],
    )
    def test_long_value_is_cut(self, argv, prefix):
        code, out, err = run_cli(argv)
        assert code == 1 and not out
        assert _one_line(err, prefix)
        assert len(err) < 200
        assert "characters)" in err

    def test_short_value_keeps_its_exact_text(self):
        payload = json.dumps({"a": {"intervals": [["0", "1/0"]]}, "b": _B})
        assert run_cli(["construct", payload]) == (1, "", "input error: zero denominator in rational '1/0'\n")
        with pytest.raises(InputError) as library:  # a member of the wrong type reads as in the library
            FiniteSpace(("1/2", "1/2")).event(["x"])
        assert str(library.value) == "sample point indices must be integers, got 'x'"
        payload = _SPACE2 + '"a": {"members": ["x"]}, "b": {"members": [0]}, "n": 2}'
        assert run_cli(["search", payload]) == (1, "", f"input error: {library.value}\n")


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc",
        [InternalInvariantError("constructed system failed verification"), ZeroDivisionError("line one\nline two")],
        ids=["invariant", "unexpected"],
    )
    def test_internal_error_is_4_on_one_line(self, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(rccs.engine, "construction_steps", broken)
        code, out, err = run_cli(["construct", WORKED_INPUT, "--json"])
        assert code == 4 and not out
        assert _one_line(err, f"internal error: {type(exc).__name__}: ")
        assert "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_POINTS = st.fractions(min_value=0, max_value=1, max_denominator=12)
_RARELY = st.sampled_from(range(8)).map(lambda k: k == 7)  # integers() would favour a bound


def _mostly(well_formed):
    """``well_formed`` seven times in eight, otherwise arbitrary JSON."""
    return _RARELY.flatmap(lambda rare: _JSON if rare else well_formed)


def _intervals(points) -> list:
    ends = sorted(points)[: len(points) // 2 * 2]
    return [[str(ends[k]), str(ends[k + 1])] for k in range(0, len(ends), 2)]


@st.composite
def _partitions(draw) -> list:
    """The pieces between random cut points, each given to one of up to four cells."""
    cuts = draw(st.lists(_POINTS.filter(lambda x: 0 < x < 1), unique=True, max_size=5))
    ends = [Fraction(0), *sorted(cuts), Fraction(1)]
    cells: dict[int, list] = {}
    for lo, hi in zip(ends, ends[1:]):
        pieces = cells.setdefault(draw(st.sampled_from(range(4))), [])
        if pieces and pieces[-1][1] == lo:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi])
    return [{"intervals": [[str(lo), str(hi)] for lo, hi in pieces]} for pieces in cells.values()]


_EVENTS = st.lists(_POINTS, unique=True, max_size=6).map(lambda ps: {"intervals": _intervals(ps)})
_WORKED_PAIR = json.loads(WORKED_INPUT)  # correlated and logically independent


@st.composite
def _payloads(draw, command: str) -> dict:
    if command == "search":
        m = draw(st.integers(1, 6))  # at most 6 points, so that a search takes milliseconds
        members = st.lists(st.integers(0, m - 1), min_size=1, unique=True).map(lambda ms: {"members": ms})
        fields = {"space": st.just({"weights": [f"1/{m}"] * m}), "a": members, "b": members,
                  "n": st.integers(0, m + 1)}
    else:
        worked = not draw(_RARELY)
        fields = {"a": st.just(_WORKED_PAIR["a"]) if worked else _EVENTS,
                  "b": st.just(_WORKED_PAIR["b"]) if worked else _EVENTS}
        if command == "verify":
            fields["partition"] = _partitions() | st.lists(_EVENTS, max_size=3)
    payload = draw(st.fixed_dictionaries({key: _mostly(value) for key, value in fields.items()}))
    if draw(_RARELY):
        payload.pop(draw(st.sampled_from(sorted(payload))))
    if draw(_RARELY):
        payload = draw(st.dictionaries(st.text(max_size=8), _JSON, max_size=4))
    return payload


_LAMBDAS = _RARELY.flatmap(
    lambda rare: st.sampled_from(["0", "1", "2", "-1/3", "4/3", "1/0", "0.5", "x", ""]) if rare
    else st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: 0 < x < 1).map(str)
)
_FLAGS = {
    "construct": ["--json", "--explain", "--normalize", "--lambda"],
    "verify": ["--json", "--normalize"],
    "search": ["--json", "--max-points=3"],
    "bell": ["--json"],
    "demo": ["--json", "--lambda"],
}
_BAD_FLAGS = ["--bogus", "--lambda=2", "--lambda=x", "--max-points=0", "--explain", "stray"]


@st.composite
def _invocations(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command not in ("bell", "demo"):  # the subcommands that read a JSON input
        argv.append(json.dumps(draw(_payloads(command))))
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=3, unique=True)):
        argv.append(f"--lambda={draw(_LAMBDAS)}" if flag == "--lambda" else flag)
    if draw(_RARELY):
        argv.append(draw(st.sampled_from(_BAD_FLAGS)))
    return argv


class TestFuzz:
    @settings(max_examples=500, deadline=None, database=None)
    @given(argv=_invocations())
    def test_every_input_ends_in_a_documented_code(self, argv):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        assert err.count("\n") <= 1
        if code in (1, 2):
            assert not out
        elif "--json" in argv:
            json.loads(out)


def _fresh_interpreter(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter with this checkout's ``src`` on the path; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


_EVERY_COMMAND = ["cli", "errors", "events", "serialize"]
_SEARCH_INPUT = json.dumps(
    {"space": {"weights": ["1/4"] * 4}, "a": {"members": [0, 1]}, "b": {"members": [0, 1, 2]}, "n": 2}
)


class TestImportBudget:
    """``import rccs`` loads no submodule; each subcommand and name loads only the modules it uses."""

    PUBLIC_NAMES = [
        "BellWitness", "CommonCauseSystem", "ConstructionSteps", "DEFAULT_MAX_POINTS", "EMPTY", "FULL",
        "FiniteEvent", "FiniteSpace", "InputError", "InternalInvariantError", "IntervalEvent", "LatticeEvent",
        "Partition", "PreconditionError", "RccsError", "VerificationReport", "as_fraction", "basis_product_state",
        "bell_expectations", "bell_value", "build_witness", "check_product_inequality", "classical_bound_check",
        "commutator_norm", "compatible", "construct_size3", "construction_steps", "correlation",
        "correlation_decomposition", "enumerate_partitions", "finite_measure", "is_partial_isometry",
        "is_projection", "logical_independence_equiv", "logically_independent", "no_common_ccs_demo",
        "search_rccs", "verify_common_cause", "verify_rccs",
    ]

    def test_public_names_are_pinned(self):
        assert sorted(rccs.__all__) == self.PUBLIC_NAMES

    def test_import_rccs_loads_no_submodule(self):
        code = """
import json, sys
import rccs
watched = lambda: sorted(m for m in sys.modules if m.startswith("rccs") or m in ("dataclasses", "numpy"))
before = watched()
engine = rccs.engine
print(json.dumps([before, engine is sys.modules["rccs.engine"] and "engine" in dir(rccs), watched()]))
"""
        assert json.loads(_fresh_interpreter(code)) == [
            ["rccs"],
            True,
            ["rccs", "rccs.engine", "rccs.errors", "rccs.events", "rccs.lattice"],
        ]

    def test_import_events_loads_no_dataclasses(self):
        code = """
import json, sys
import rccs.events
print(json.dumps(sorted(m for m in sys.modules if m.startswith("rccs") or m in ("dataclasses", "inspect"))))
"""
        assert json.loads(_fresh_interpreter(code)) == ["rccs", "rccs.errors", "rccs.events"]

    def test_import_serialize_loads_no_model(self):
        # reading and writing JSON loads only the interval model; each reader loads the model it builds
        code = """
import json, sys
import rccs.serialize
print(json.dumps(sorted(m for m in sys.modules if m.startswith("rccs"))))
"""
        assert json.loads(_fresh_interpreter(code)) == ["rccs", "rccs.errors", "rccs.events", "rccs.serialize"]

    # the modules each command line loads beyond the four that every one loads (_EVERY_COMMAND); the
    # input error is the sixth kind of perfbench's cli-cold workload, a bad rational in 'construct'
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("search", ["finite", "lattice"]),
            ("bell", ["bell"]),
            ("construct", ["engine", "lattice"]),
            ("verify", ["engine", "lattice"]),
            ("demo", ["bell", "engine", "lattice"]),
            ("input_error", []),
            ("usage_error", []),
        ],
    )
    def test_each_subcommand_loads_only_what_it_runs(self, command, extra):
        worked = json.loads(WORKED_INPUT)
        if command == "verify":
            cells = json.loads(run_cli(["construct", WORKED_INPUT, "--json"])[1])["cells"]
            argv = [command, json.dumps({**worked, "partition": cells})]
        else:
            argv = {
                "search": ["search", _SEARCH_INPUT],
                "construct": ["construct", WORKED_INPUT],
                "input_error": ["construct", json.dumps({**worked, "a": {"intervals": [["0", "1/0"]]}}), "--json"],
                "usage_error": ["construct", "--bogus"],
            }.get(command, [command])
        code = """
import contextlib, io, json, sys
from rccs.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("rccs."))]))
"""
        expected_code = 1 if command.endswith("_error") else 0
        loaded = sorted(f"rccs.{name}" for name in _EVERY_COMMAND + extra)
        assert json.loads(_fresh_interpreter(code, json.dumps(argv))) == [expected_code, loaded]

    def test_numpy_is_loaded_only_for_bell(self):
        # numpy is loaded only by the array API of rccs.bell, never by a subcommand, and no subcommand
        # loads dataclasses or inspect; the six command lines are the six kinds of perfbench's cli-cold workload
        worked = json.loads(WORKED_INPUT)
        cells = json.loads(run_cli(["construct", WORKED_INPUT, "--json"])[1])["cells"]
        argvs = [
            ["construct", WORKED_INPUT, "--json"],
            ["verify", json.dumps({**worked, "partition": cells}), "--json"],
            ["search", _SEARCH_INPUT, "--json"],
            ["bell", "--json"],
            ["demo", "--json"],
            ["construct", json.dumps({**worked, "a": {"intervals": [["0", "1/0"]]}}), "--json"],
        ]
        code = """
import contextlib, io, json, sys
import rccs.bell
loaded = ["numpy" in sys.modules]
from rccs.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        loaded.append([main(argv), [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]])
import numpy
witness = rccs.bell.build_witness()
fields = ("v1", "v2", "a1", "b1", "a2", "b2", "phi")
loaded.append(all(type(getattr(witness, f)) is numpy.ndarray and getattr(witness, f).dtype == complex for f in fields))
print(json.dumps(loaded))
"""
        assert json.loads(_fresh_interpreter(code, json.dumps(argvs))) == [
            False, [0, []], [0, []], [0, []], [0, []], [0, []], [1, []], True,
        ]

    def test_every_public_name_resolves(self):
        code = """
import json, sys
import rccs
listed = set(dir(rccs))
before = "numpy" in sys.modules
namespace = {}
exec("from rccs import *", namespace)
print(json.dumps({
    "before": before,
    "missing_from_dir": sorted(set(rccs.__all__) - listed),
    "unbound": sorted(name for name in rccs.__all__ if namespace.get(name) is not getattr(rccs, name)),
    "bell_module": rccs.bell is sys.modules["rccs.bell"] and "bell" in listed,
    "same_objects": rccs.build_witness is rccs.bell.build_witness and rccs.BellWitness is rccs.bell.BellWitness,
}))
"""
        assert json.loads(_fresh_interpreter(code)) == {
            "before": False,
            "missing_from_dir": [],
            "unbound": [],
            "bell_module": True,
            "same_objects": True,
        }
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            rccs.no_such_name  # noqa: B018
