"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric expectation here was either derived by an independent
oracle (step-by-step exact evaluation of the construction formulas,
elementary set arithmetic, the Stirling recurrence) or verified by hand
before the engine was written.  Classical checks are exact with zero
tolerance; the Bell module uses its documented float tolerances.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rccs import (
    FiniteSpace,
    Partition,
    bell_value,
    build_witness,
    check_product_inequality,
    classical_bound_check,
    commutator_norm,
    construct_size3,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    is_projection,
    logical_independence_equiv,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)
from rccs.bell import IDENTITY_TOLERANCE, TOLERANCE, _identity_sides
from rccs.cli import main as cli_main

from .helpers import iv, random_correlated_independent_pair, random_event, stirling2

WORKED_A = iv("0", "1/2")
WORKED_B = iv("1/10", "1/2", "9/10", "1")

DATA = Path(__file__).parent / "data"


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def random_constructions():
    """500 random valid pairs with their constructed, verified systems."""
    rng = random.Random(20260808)
    start = time.perf_counter()
    results = []
    while len(results) < 500:
        a, b = random_correlated_independent_pair(rng)
        system = construct_size3(a, b)
        report = verify_rccs(a, b, system.cells)
        results.append((a, b, system, report))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_worked_construction_exact():
    start = time.perf_counter()

    # independent oracle: evaluate the construction formulas step by step
    # from the raw measures, without touching the engine
    ma, mb = WORKED_A.measure(), WORKED_B.measure()
    mab = WORKED_A.meet(WORKED_B).measure()
    maub = WORKED_A.join(WORKED_B).measure()
    excess = mab - ma * mb
    bound = excess / (1 - maub)
    c1 = bound / 2
    c1p = 1 - c1
    x2 = c1p - (ma - c1) * (mb - c1) / (mab - c1)
    c3 = 1 - c1 - x2
    cond3 = (ma - c1) / c3

    assert (c1, x2, c3) == (Fraction(3, 16), Fraction(6, 17), Fraction(125, 272))
    assert cond3 == Fraction(17, 25)

    system = construct_size3(WORKED_A, WORKED_B)
    assert system.cell_measures == (c1, x2, c3)
    assert system.cond_a == (Fraction(1), Fraction(0), cond3)
    assert system.cond_b == (Fraction(1), Fraction(0), cond3)
    report = verify_rccs(WORKED_A, WORKED_B, system.cells)
    assert report.verdict and report.failure is None

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print("ACCEPTANCE 1 (worked size-3 construction, exact): PASS")


def test_criterion_2_randomized_causal_3_closedness(random_constructions):
    results, elapsed = random_constructions
    assert len(results) == 500
    for a, b, system, report in results:
        assert report.verdict, f"construction failed verification for a={a}, b={b}"
        assert system.size == 3
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 (500 random constructions verify exactly, {elapsed:.2f}s): PASS")


def test_criterion_3_decomposition_identity(random_constructions):
    results, _ = random_constructions
    for a, b, system, report in results:
        assert report.decomposition_lhs == report.decomposition_rhs
        lhs, rhs = correlation_decomposition(a, b, system.cells)
        assert lhs == rhs

    # worked example and a hand-built size-2 common cause
    system = construct_size3(WORKED_A, WORKED_B)
    lhs, rhs = correlation_decomposition(WORKED_A, WORKED_B, system.cells)
    assert lhs == rhs == Fraction(3, 20)

    cc_a = iv("0", "3/8", "1/2", "5/8")
    cc_b = iv("3/32", "15/32", "19/32", "23/32")
    cause = iv("0", "1/2")
    assert verify_common_cause(cc_a, cc_b, cause).verdict
    lhs, rhs = correlation_decomposition(cc_a, cc_b, Partition((cause, cause.complement())))
    assert lhs == rhs == Fraction(1, 16)
    print("ACCEPTANCE 3 (decomposition identity, zero tolerance): PASS")


def test_criterion_4_product_inequality_and_correlation_bounds():
    rng = random.Random(404)
    for _ in range(1000):
        a, b, c = random_event(rng), random_event(rng), random_event(rng)
        assert check_product_inequality(a, b, c)
    checked = 0
    while checked < 200:
        a, b = random_event(rng), random_event(rng)
        if correlation(a, b) > 0:
            checked += 1
            assert a.join(b).measure() < 1
            assert a.meet(b).measure() > 0
    print("ACCEPTANCE 4 (product inequality on 1000 triples, correlation bounds): PASS")


def test_criterion_5_no_go_exhaustive_search():
    start = time.perf_counter()
    sixth = Fraction(1, 6)
    instances = [
        (FiniteSpace(tuple(Fraction(1, 5) for _ in range(5))), (0,), (0, 1)),
        (FiniteSpace(tuple(sixth for _ in range(6))), (0,), (0, 1)),
        (FiniteSpace(("1/12", "1/12", "1/6", "1/6", "1/4", "1/4")), (0, 1), (0, 1, 2)),
        (FiniteSpace(tuple(Fraction(1, 7) for _ in range(7))), (0, 1), (0, 1, 2)),
        (
            FiniteSpace(("1/16", "1/16", "1/8", "1/8", "1/8", "1/8", "1/4", "1/8")),
            (0, 2),
            (0, 2, 4, 6),
        ),
    ]
    for space, a_members, b_members in instances:
        a, b = space.event(a_members), space.event(b_members)
        assert a.leq(b) and a != b
        assert correlation(a, b) > 0
        m = len(space)
        for n in (3, 4):
            # exhaustiveness cross-check: the enumeration that the brute-force
            # search oracle filters yields exactly the Stirling count
            assert len(list(enumerate_partitions(space, n))) == stirling2(m, n)
            assert search_rccs(space, a, b, n) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 (no-go: contained pairs admit no size-3/4 system, {elapsed:.2f}s): PASS")


def test_criterion_6_independence_equivalence():
    rng = random.Random(606)
    for _ in range(1000):
        a, b = random_event(rng), random_event(rng)
        assert logical_independence_equiv(a, b) == logically_independent(a, b)
    print("ACCEPTANCE 6 (order characterization of logical independence, 1000 pairs): PASS")


def test_criterion_7_bell_witness():
    start = time.perf_counter()
    witness = build_witness()
    assert abs(bell_value(witness.phi, witness) + 0.125) < 1e-12
    for op in (witness.a1, witness.b1, witness.a2, witness.b2):
        assert is_projection(op, 1e-12)
    for site1 in (witness.a1, witness.b1):
        for site2 in (witness.a2, witness.b2):
            assert commutator_norm(site1, site2) < 1e-12
    assert TOLERANCE == 1e-12 and IDENTITY_TOLERANCE == 1e-15

    rng = random.Random(707)
    for _ in range(100_000):
        quad = (rng.random(), rng.random(), rng.random(), rng.random())
        assert classical_bound_check(*quad)
        lhs, rhs = _identity_sides(*quad)
        assert abs(lhs - rhs) < 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 (Bell value -1/8, bound identity on 1e5 quadruples, {elapsed:.2f}s): PASS")


def test_criterion_8_cli_contract():
    worked = json.dumps(
        {
            "a": {"intervals": [["0", "1/2"]]},
            "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
        }
    )
    code, out, _ = _cli(["construct", worked, "--json"])
    assert code == 0
    assert out.encode() == (DATA / "construct_worked.golden.json").read_bytes()
    construct = json.loads(out)
    verify_input = json.dumps(
        {
            "a": {"intervals": [["0", "1/2"]]},
            "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
            "partition": construct["cells"],
        }
    )
    code, out, _ = _cli(["verify", verify_input, "--json"])
    assert code == 0
    assert out.encode() == (DATA / "verify_worked.golden.json").read_bytes()
    assert json.loads(out)["cell_measures"] == construct["cell_measures"]

    contained = json.dumps(
        {"a": {"intervals": [["0", "1/4"]]}, "b": {"intervals": [["0", "1/2"]]}}
    )
    uncorrelated = json.dumps(
        {"a": {"intervals": [["0", "1/2"]]}, "b": {"intervals": [["1/4", "3/4"]]}}
    )
    bad_rational = json.dumps(
        {"a": {"intervals": [["0", "1/0"]]}, "b": {"intervals": [["0", "1/2"]]}}
    )
    bad_partition = json.dumps(
        {
            "a": {"intervals": [["0", "1/2"]]},
            "b": {"intervals": [["1/10", "1/2"], ["9/10", "1"]]},
            "partition": [
                {"intervals": [["0", "1/2"]]},
                {"intervals": [["1/4", "1"]]},
            ],
        }
    )
    no_go_search = json.dumps(
        {
            "space": {"weights": ["1/6"] * 6},
            "a": {"members": [0]},
            "b": {"members": [0, 1]},
            "n": 3,
        }
    )
    n_too_big = json.dumps(
        {
            "space": {"weights": ["1/4"] * 4},
            "a": {"members": [0]},
            "b": {"members": [0, 1]},
            "n": 5,
        }
    )
    scenarios = [
        (["construct", worked], 0),
        (["construct", contained], 2),
        (["construct", uncorrelated], 2),
        (["construct", bad_rational], 1),
        (["construct", '{"a": '], 1),
        (["construct", worked, "--lambda", "3/2"], 1),
        (["verify", bad_partition], 1),
        (["search", no_go_search], 0),
        (["search", n_too_big], 1),
        (["bell"], 0),
        (["demo"], 0),
        (["demo", "--lambda", "1/3"], 0),
    ]
    for argv, expected in scenarios:
        code, _, _ = _cli(argv)
        assert code == expected, f"{argv} -> {code}, expected {expected}"
    print(f"ACCEPTANCE 8 (golden round trip, {len(scenarios) + 2} exit-code scenarios): PASS")
