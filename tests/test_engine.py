"""Verification and the size-3 construction, pinned to hand-derived values."""

import pickle
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from rccs import (
    FULL,
    CommonCauseSystem,
    FiniteSpace,
    InputError,
    InternalInvariantError,
    IntervalEvent,
    Partition,
    PreconditionError,
    compatible,
    construct_size3,
    construction_steps,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)
from rccs import events
from rccs.engine import _conditions, _pair
from rccs.serialize import (
    dumps,
    interval_event_from_obj,
    interval_event_to_obj,
    interval_partition_from_obj,
    loads,
    partition_to_obj,
    steps_to_obj,
)

from .helpers import (
    MIXED_DENOMINATORS,
    Absorbing,
    Incompatible,
    assert_canonical,
    fraction_conditions,
    iv,
    oracle_conditions,
    oracle_score,
    random_correlated_independent_pair,
    random_nonzero_event,
    random_space,
    random_subset,
    unlimited_int_digits,
)

WORKED_A = iv("0", "1/2")
WORKED_B = iv("1/10", "1/2", "9/10", "1")

# Expected values for the worked pair, each recomputed by hand from the
# raw measures before this suite was written:
#   measure(a) = measure(b) = 1/2, measure(a&b) = 2/5, measure(a|b) = 3/5
#   excess = 2/5 - 1/4 = 3/20, bound = (3/20) / (2/5) = 3/8
#   cell 1 = 3/16 carved at [1/10, 23/80)
#   cell 2 = 13/16 - (5/16 * 5/16) / (17/80) = 6/17 carved at [1/2, 29/34)
#   cell 3 = 1 - 3/16 - 6/17 = 125/272, conditionals (5/16) / (125/272) = 17/25
WORKED = {
    "excess": Fraction(3, 20),
    "bound": Fraction(3, 8),
    "cell_measures": (Fraction(3, 16), Fraction(6, 17), Fraction(125, 272)),
    "cond_a": (Fraction(1), Fraction(0), Fraction(17, 25)),
    "cond_ab": (Fraction(1), Fraction(0), Fraction(289, 625)),
    "cell1": iv("1/10", "23/80"),
    "cell2": iv("1/2", "29/34"),
}

NOT_INDEPENDENT = (
    "events are not logically independent; a correlation between such events admits no common cause "
    "system of size 3 or more (the no-go result for logically dependent events), so the construction "
    "cannot succeed"
)

# Hand-built size-2 common cause: conditionals (3/4, 3/4) on the cause and
# (1/4, 1/4) on its complement, independence inside each cell.
CC_A = iv("0", "3/8", "1/2", "5/8")
CC_B = iv("3/32", "15/32", "19/32", "23/32")
CC_CAUSE = iv("0", "1/2")


class TestVerifyCommonCause:
    def test_perfect_self_case_accepted(self):
        a = iv("0", "1/2")
        report = verify_common_cause(a, a, a)
        assert report.verdict
        assert report.screening_off_ok == (True, True)
        assert report.cond_a == (Fraction(1), Fraction(0))

    def test_hand_built_cause_accepted(self):
        report = verify_common_cause(CC_A, CC_B, CC_CAUSE)
        assert report.verdict
        assert report.cond_a == (Fraction(3, 4), Fraction(1, 4))
        assert report.cond_b == (Fraction(3, 4), Fraction(1, 4))
        assert report.decomposition_lhs == Fraction(1, 16)
        assert report.decomposition_rhs == Fraction(1, 16)

    def test_independent_cause_rejected(self):
        # c = [1/4, 3/4) against the worked pair: on c the conditional of
        # a&b is 1/2 while the product of conditionals is 1/4
        report = verify_common_cause(WORKED_A, WORKED_B, iv("1/4", "3/4"))
        assert not report.verdict
        assert report.screening_off_ok[0] is False
        assert "screening-off" in report.failure

    def test_first_construction_cell_alone_is_not_a_common_cause(self):
        # screening holds on the cell itself but fails on its complement:
        # (5/13)^2 = 25/169 versus (17/80) / (13/16) = 17/65
        cell1 = WORKED["cell1"]
        report = verify_common_cause(WORKED_A, WORKED_B, cell1)
        assert not report.verdict
        assert report.screening_off_ok == (True, False)
        assert report.cond_a[0] == 1
        assert report.cond_a[1] == Fraction(5, 13)
        assert report.cond_ab[1] == Fraction(17, 65)

    def test_zero_or_full_cause_rejected(self):
        with pytest.raises(PreconditionError):
            verify_common_cause(WORKED_A, WORKED_B, FULL)
        with pytest.raises(PreconditionError):
            verify_common_cause(WORKED_A, WORKED_B, FULL.complement())

    def test_uncorrelated_pair_rejected(self):
        with pytest.raises(PreconditionError):
            verify_common_cause(iv("0", "1/2"), iv("1/4", "3/4"), iv("0", "1/4"))


class TestVerifySystem:
    def test_worked_partition_accepted(self):
        system = construct_size3(WORKED_A, WORKED_B)
        report = verify_rccs(WORKED_A, WORKED_B, system.cells)
        assert report.verdict
        assert report.failure is None
        assert all(report.screening_off_ok)
        assert all(ok for _, _, ok in report.cross_ok)

    def test_size_one_partition_rejected_with_diagnostic(self):
        report = verify_rccs(WORKED_A, WORKED_B, Partition((FULL,)))
        assert not report.verdict
        assert "size < 2" in report.failure

    def test_uncorrelated_pair_is_precondition_error(self):
        a, b = iv("0", "1/2"), iv("1/4", "3/4")
        quadrants = Partition(
            (a.meet(b), a.meet(b.complement()), a.complement().meet(b),
             a.complement().meet(b.complement()))
        )
        with pytest.raises(PreconditionError):
            verify_rccs(a, b, quadrants)

    def test_tampered_partition_rejected_on_screening(self):
        system = construct_size3(WORKED_A, WORKED_B)
        c1, c2, c3 = system.cells.cells
        sliver = c1.carve(Fraction(1, 64))
        tampered = Partition((c1.meet(sliver.complement()), c2, c3.join(sliver)))
        report = verify_rccs(WORKED_A, WORKED_B, tampered)
        assert not report.verdict
        assert report.failure == "screening-off fails on cell 2"

    def test_equal_conditionals_rejected_exactly(self):
        # two cells with identical conditionals give a zero cross product,
        # which strict comparison must reject
        a = iv("0", "1/2")
        p = Partition((iv("0", "1/4"), iv("1/4", "1/2"), iv("1/2", "1")))
        report = verify_rccs(a, a, p)
        assert not report.verdict
        assert report.cross_ok[0] == (0, 1, False)
        assert "cells (0, 1)" in report.failure

    def test_cell_of_measure_zero_is_a_precondition_error(self):
        # the shipped models are faithful; a space with a point of weight 0 has a null event that is not empty
        space = FiniteSpace._trusted((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        a = space.event([0])
        partition = Partition((space.event([0]), space.event([1]), space.event([2])))
        with pytest.raises(PreconditionError, match=r"^cell 2 has measure zero; conditionals are undefined$"):
            verify_rccs(a, a, partition)

    def test_size2_report_matches_common_cause_verdict(self):
        two_cell = Partition((CC_CAUSE, CC_CAUSE.complement()))
        assert verify_rccs(CC_A, CC_B, two_cell).verdict == verify_common_cause(
            CC_A, CC_B, CC_CAUSE
        ).verdict


def _entry_points(a, b):
    """Each public engine call on the pair (a, b), ready to run."""
    partition = Partition((FULL,))
    return (
        lambda: verify_rccs(a, b, partition),
        lambda: verify_common_cause(a, b, a),
        lambda: correlation_decomposition(a, b, partition),
        lambda: construction_steps(a, b),
    )


class TestCompatibilityChecked:
    # the shipped models are Boolean, so only a fake model can fail the test every call runs first;
    # a refusal is never memoized, so a repeated identical call is refused again

    def test_incompatible_pair_refused(self):
        _pair.cache_clear()
        a, b = Incompatible(), Incompatible()
        for _ in range(3):
            for call in _entry_points(a, b):
                with pytest.raises(PreconditionError, match=r"^events are not compatible$"):
                    call()
        assert _pair.cache_info().currsize == 0

    def test_asymmetric_test_is_an_invariant_failure(self):
        _pair.cache_clear()
        a, b = Absorbing(), Incompatible()
        for _ in range(3):
            for call in _entry_points(a, b):
                with pytest.raises(InternalInvariantError, match="asymmetric"):
                    call()
        assert _pair.cache_info().currsize == 0


class TestWrongModelCells:
    """A cell from the other model than the pair's is refused before it is measured."""

    def test_interval_cells_for_a_finite_pair(self):
        space = FiniteSpace((Fraction(1, 4),) * 4)
        a, b = space.event((0, 1)), space.event((0, 1, 2))
        assert correlation(a, b) > 0
        halves = Partition((iv("0", "1/2"), iv("1/2", "1")))
        for call in (verify_rccs, correlation_decomposition):
            with pytest.raises(InputError, match=r"^cell 0 is not an event of the same model as the pair$"):
                call(a, b, halves)

    def test_finite_cells_for_an_interval_pair(self):
        space = FiniteSpace((Fraction(1, 2),) * 2)
        with pytest.raises(InputError, match=r"^cell 0 is not an event of the same model as the pair$"):
            verify_rccs(WORKED_A, WORKED_B, Partition((space.event((0,)), space.event((1,)))))


_QUARTERS = FiniteSpace((Fraction(1, 4),) * 4)
_FINITE_A, _FINITE_B = _QUARTERS.event((0, 1)), _QUARTERS.event((0, 1, 2))


class TestTwoModelPair:
    """A pair of events of two models is refused with InputError wherever it comes in."""

    @pytest.mark.parametrize(
        "call, first, second",
        [
            (lambda: verify_rccs(WORKED_A, _FINITE_B, Partition((FULL,))), "IntervalEvent", "FiniteEvent"),
            (lambda: verify_rccs(_FINITE_A, WORKED_B, Partition((FULL,))), "FiniteEvent", "IntervalEvent"),
            (lambda: correlation_decomposition(WORKED_A, _FINITE_B, Partition((FULL,))), "IntervalEvent", "FiniteEvent"),
            (lambda: verify_common_cause(WORKED_A, WORKED_B, _FINITE_A), "IntervalEvent", "FiniteEvent"),
            (lambda: verify_common_cause(_FINITE_A, _FINITE_B, WORKED_A), "FiniteEvent", "IntervalEvent"),
            (lambda: compatible(WORKED_A, _FINITE_B), "IntervalEvent", "FiniteEvent"),
            (lambda: construction_steps(_FINITE_A, WORKED_B), "FiniteEvent", "IntervalEvent"),
            (lambda: correlation(WORKED_A, _FINITE_B), "IntervalEvent", "FiniteEvent"),
            (lambda: logically_independent(_FINITE_A, WORKED_B), "FiniteEvent", "IntervalEvent"),
        ],
        ids=[
            "verify_rccs-interval-finite",
            "verify_rccs-finite-interval",
            "correlation_decomposition",
            "verify_common_cause-finite-cause",
            "verify_common_cause-interval-cause",
            "compatible",
            "construction_steps",
            "correlation",
            "logically_independent",
        ],
    )
    def test_refused_at_one_gate(self, call, first, second):
        with pytest.raises(InputError, match=rf"^events of different models: {first} and {second}$"):
            call()

    def test_finite_pair_of_two_spaces_keeps_its_refusal(self):
        other = FiniteSpace((Fraction(1, 2),) * 2).event((0,))
        for call in (lambda: compatible(_FINITE_A, other), lambda: verify_common_cause(_FINITE_A, _FINITE_B, other)):
            with pytest.raises(InputError, match=r"^events belong to different spaces$"):
                call()


class TestPlainValues:
    """A value that is not an event, or not a Partition, is refused with InputError at the public entry."""

    def test_correlation_of_two_ints(self):
        with pytest.raises(InputError, match=r"^not an event: 1$"):
            correlation(1, 2)

    def test_compatible_of_two_strings(self):
        with pytest.raises(InputError, match=r"^not an event: 'x'$"):
            compatible("x", "y")

    def test_list_in_place_of_a_partition(self):
        with pytest.raises(InputError, match=r"^expected a Partition, got list$"):
            verify_rccs(WORKED_A, WORKED_B, [FULL, FULL])

    def test_list_in_place_of_a_partition_in_the_decomposition(self):
        with pytest.raises(InputError, match=r"^expected a Partition, got tuple$"):
            correlation_decomposition(WORKED_A, WORKED_B, (FULL,))

    def test_list_in_place_of_a_partition_in_a_system(self):
        cells = iv("0", "1/2"), iv("1/2", "1")
        with pytest.raises(InputError, match=r"^expected a Partition, got list$"):
            CommonCauseSystem(list(cells), (1, 0), (1, 0), (1, 0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: correlation(WORKED_A, 3),
            lambda: logically_independent(3, WORKED_B),
            lambda: verify_rccs(WORKED_A, 3, Partition((FULL,))),
            lambda: verify_common_cause(WORKED_A, WORKED_B, 3),
        ],
        ids=["correlation", "logically_independent", "verify_rccs", "verify_common_cause-cause"],
    )
    def test_event_paired_with_a_non_event(self, call):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "not an event: 3"

    @pytest.mark.parametrize(
        "call, value",
        [
            (lambda: verify_rccs(WORKED_A, [1], Partition((FULL,))), "[1]"),
            (lambda: verify_common_cause({}, WORKED_B, CC_CAUSE), "{}"),
            (lambda: correlation_decomposition(WORKED_A, [], Partition((FULL,))), "[]"),
            (lambda: construction_steps([], WORKED_B), "[]"),
            (lambda: construct_size3(WORKED_A, {}), "{}"),
        ],
        ids=[
            "verify_rccs", "verify_common_cause", "correlation_decomposition", "construction_steps", "construct_size3"
        ],
    )
    def test_unhashable_non_event_refused_before_the_pair_memo(self, call, value):
        # the memo hashes its arguments, so the gate must run first or a list ends in a raw TypeError
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == f"not an event: {value}"


class TestDecomposition:
    def test_worked_example(self):
        system = construct_size3(WORKED_A, WORKED_B)
        lhs, rhs = correlation_decomposition(WORKED_A, WORKED_B, system.cells)
        assert lhs == rhs == Fraction(3, 20)

    def test_size2_specialization(self):
        p = Partition((CC_CAUSE, CC_CAUSE.complement()))
        lhs, rhs = correlation_decomposition(CC_A, CC_B, p)
        assert lhs == rhs == Fraction(1, 16)

    def test_independent_pair_trivial_partition(self):
        a, b = iv("0", "1/2"), iv("1/4", "3/4")
        lhs, rhs = correlation_decomposition(a, b, Partition((FULL,)))
        assert lhs == rhs == 0

    def test_screening_failure_names_cell(self):
        p = Partition((iv("1/4", "3/4"), iv("0", "1/4", "3/4", "1")))
        with pytest.raises(PreconditionError) as err:
            correlation_decomposition(WORKED_A, WORKED_B, p)
        assert "cell 0" in str(err.value)


def _counted_event_calls(monkeypatch, model: type) -> Counter:
    """A counter, by name, of the calls to the model's meet, join, measure, complement and _atoms from now on."""
    calls = Counter()
    for name in ("meet", "join", "measure", "complement", "_atoms"):
        def counted(self, *args, _name=name, _original=getattr(model, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(model, name, counted)
    return calls


class TestConstruction:
    def test_worked_example_every_quantity(self):
        steps = construction_steps(WORKED_A, WORKED_B)
        assert steps.joint_excess == WORKED["excess"]
        assert steps.carve_bound == WORKED["bound"]
        assert steps.full_cell_measure == WORKED["cell_measures"][0]
        assert steps.null_cell_measure == WORKED["cell_measures"][1]
        assert not steps.null_cell_is_whole_remainder
        system = steps.system
        assert system.cell_measures == WORKED["cell_measures"]
        assert system.cond_a == WORKED["cond_a"]
        assert system.cond_b == WORKED["cond_a"]
        assert system.cond_ab == WORKED["cond_ab"]
        assert system.cells.cells[0] == WORKED["cell1"]
        assert system.cells.cells[1] == WORKED["cell2"]
        assert steps.report.verdict

    def test_event_operation_budget(self, monkeypatch):
        # the model splits the pair into its four atoms in one _atoms call, with no meet, join or
        # complement, and a&b, a&~b, ~a&b are measured once each; the trace, both preconditions and
        # the joint excess come from those three measures, the two carves measure nothing, every
        # cell is met with the three atoms, and one join and one complement build the third cell
        _pair.cache_clear()
        calls = _counted_event_calls(monkeypatch, IntervalEvent)
        steps = construction_steps(WORKED_A, WORKED_B)
        assert calls == Counter(_atoms=1, meet=9, measure=15, join=1, complement=1), calls
        calls.clear()
        steps_to_obj(steps)
        assert calls["measure"] == 0
        # the construction split the pair and measured its cells, so verifying them meets and measures nothing
        calls.clear()
        verify_rccs(WORKED_A, WORKED_B, steps.system.cells)
        assert calls == Counter(), calls
        # a candidate that keeps a verified cell meets and measures only its new cell: 3 meets, 4 measures
        cells = steps.system.cells.cells
        merged = Partition((cells[0].join(cells[1]), cells[2]))
        calls.clear()
        verify_rccs(WORKED_A, WORKED_B, merged)
        assert calls == Counter(meet=3, measure=4), calls
        # a cold verification splits the pair once and measures three atoms as well
        _pair.cache_clear()
        calls.clear()
        verify_rccs(WORKED_A, WORKED_B, steps.system.cells)
        assert calls == Counter(_atoms=1, meet=9, measure=15), calls
        # the compatibility test of an interval pair is the model's split alone
        calls.clear()
        assert compatible(WORKED_A, WORKED_B)
        assert calls == Counter(_atoms=1), calls

    def test_kernel_results_skip_the_canonical_check(self, monkeypatch):
        # the canonical-form check runs where endpoints come in from outside, never on kernel results
        _pair.cache_clear()
        calls = Counter()

        def counted(ends, _original=events._checked):
            calls["checked"] += 1
            return _original(ends)

        monkeypatch.setattr(events, "_checked", counted)
        steps = construction_steps(WORKED_A, WORKED_B)
        assert verify_rccs(WORKED_A, WORKED_B, steps.system.cells).verdict
        assert calls["checked"] == 0
        cells = interval_partition_from_obj(partition_to_obj(steps.system.cells))
        assert cells == steps.system.cells
        assert calls["checked"] == 3

    def test_construction_partition_is_valid(self):
        # the construction skips the partition's validation; validating its cells again must pass,
        # and each carved cell must lie inside the event it was carved from
        rng = random.Random(81)
        pairs = [random_correlated_independent_pair(rng) for _ in range(200)]
        while len(pairs) < 400:
            a, b = random_nonzero_event(rng, mixed=True), random_nonzero_event(rng, mixed=True)
            if correlation(a, b) > 0 and logically_independent(a, b):
                pairs.append((a, b))
        for a, b in pairs:
            joint, neither = a.meet(b), a.join(b).complement()
            for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(99, 100)):
                cells = construction_steps(a, b, lam).system.cells.cells
                assert Partition(cells).cells == cells
                for cell in cells:
                    assert_canonical(cell)
                assert cells[0].leq(joint) and cells[1].leq(neither)

    def test_finite_events_refused_with_input_error(self):
        # a finite space has atoms; a pair that passes every precondition is still refused
        space = FiniteSpace((Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)))
        a, b = space.event((0, 1)), space.event((0, 2))
        assert correlation(a, b) > 0 and logically_independent(a, b)
        for call in (construction_steps, construct_size3):
            with pytest.raises(InputError, match=r"atomless model.*search_rccs"):
                call(a, b)

    def test_lambda_scales_first_cell(self):
        for lam, expected in (("1/3", Fraction(1, 8)), ("9/10", Fraction(27, 80))):
            system = construct_size3(WORKED_A, WORKED_B, lam)
            assert system.cell_measures[0] == expected
            assert verify_rccs(WORKED_A, WORKED_B, system.cells).verdict

    def test_lambda_out_of_range(self):
        for lam in ("0", "1", "2", "-1/2"):
            with pytest.raises(InputError):
                construct_size3(WORKED_A, WORKED_B, lam)

    def test_logical_independence_from_three_measures(self):
        # construction_steps decides logical independence from m(a), m(b), m(a&b); the four-meet
        # lattice predicate is the oracle, on correlated pairs, nested and equal ones among them
        rng = random.Random(79)
        pairs = []
        for mixed in (False, True):
            for _ in range(120):
                a, b = random_nonzero_event(rng, mixed=mixed), random_nonzero_event(rng, mixed=mixed)
                pairs += [(a, b), (a, b.complement()), (a.meet(b), a), (a, a.meet(b)), (a, a)]
        pairs = [(a, b) for a, b in pairs if correlation(a, b) > 0]
        refused = 0
        for a, b in pairs:
            if logically_independent(a, b):
                assert construction_steps(a, b).report.verdict
                continue
            refused += 1
            with pytest.raises(PreconditionError) as err:
                construction_steps(a, b)
            assert str(err.value) == NOT_INDEPENDENT
        assert refused > 300 and len(pairs) - refused > 100, (refused, len(pairs))

    def test_contained_pair_refused(self):
        a, b = iv("0", "1/4"), iv("0", "1/2")
        with pytest.raises(PreconditionError) as err:
            construct_size3(a, b)
        assert "logically independent" in str(err.value)

    def test_uncorrelated_pair_refused(self):
        with pytest.raises(PreconditionError) as err:
            construct_size3(iv("0", "1/2"), iv("1/4", "3/4"))
        assert "no correlation to explain" in str(err.value)

    def test_proof_shape_invariants_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(100):
            a, b = random_correlated_independent_pair(rng)
            steps = construction_steps(a, b)
            c1, c2, c3 = steps.system.cells.cells
            joint = a.meet(b)
            neither = a.join(b).complement()
            assert c1.measure() < joint.measure()
            assert c1.leq(joint) and c1 != joint
            assert c2.leq(neither)
            mixed_floor = (
                a.meet(b.complement()).measure() + a.complement().meet(b).measure()
            )
            assert c3.measure() > mixed_floor
            assert steps.system.cond_a[0] == 1 and steps.system.cond_b[0] == 1
            assert steps.system.cond_a[1] == 0 and steps.system.cond_b[1] == 0
            assert 0 < steps.system.cond_a[2] < 1
            assert 0 < steps.system.cond_b[2] < 1

    def test_closed_form_cells_at_extreme_lambdas(self):
        # the construction carries no range check of its own on the forced second cell; its closed
        # form, recomputed here from the pair's four atoms, keeps both cells strictly inside
        rng = random.Random(80)
        lams = (Fraction(1, 10**6), Fraction(1, 3), Fraction(1, 2), 1 - Fraction(1, 10**6))
        for mixed in (False, True):
            checked = 0
            while checked < 250:
                a, b = random_nonzero_event(rng, mixed=mixed), random_nonzero_event(rng, mixed=mixed)
                if correlation(a, b) < 0:
                    b = b.complement()
                excess = correlation(a, b)
                if not (excess > 0 and logically_independent(a, b)):
                    continue
                m_ab, m_a_only = a.meet(b).measure(), a.meet(b.complement()).measure()
                m_b_only, m_neither = a.complement().meet(b).measure(), a.join(b).complement().measure()
                for lam in lams:
                    steps = construction_steps(a, b, lam)
                    f = lam * excess / m_neither
                    assert steps.carve_bound * lam == f
                    assert 0 < steps.full_cell_measure == f < m_ab
                    assert 0 < steps.null_cell_measure < m_neither
                    assert steps.null_cell_measure == (1 - lam) * excess / (m_ab - f)
                    assert steps.null_cell_measure == m_neither - m_a_only * m_b_only / (m_ab - f)
                    assert steps.null_cell_is_whole_remainder is False
                checked += 1

    def test_soundness_on_random_pairs(self):
        rng = random.Random(78)
        for _ in range(100):
            a, b = random_correlated_independent_pair(rng)
            system = construct_size3(a, b)
            report = verify_rccs(a, b, system.cells)
            assert report.verdict
            assert report.decomposition_lhs == report.decomposition_rhs


class TestSystemType:
    def test_out_of_range_conditional_past_digit_limit(self):
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        value = Fraction(10**5000 + 1, 10**5000)
        with pytest.raises(InputError) as err:
            CommonCauseSystem(cells=cells, cond_a=(value, Fraction(0)), cond_b=(1, 0), cond_ab=(1, 0))
        with unlimited_int_digits():
            assert str(err.value) == f"cond_a[0] = {value} is outside [0, 1]"

    def test_rejects_float_conditionals(self):
        # in floats 0.1 * 0.2 == 0.020000000000000004 passes screening-off; the same values made exact fail it
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        rows = ((0.1, 0.0), (0.2, 0.0), (0.1 * 0.2, 0.0))
        with pytest.raises(InputError) as err:
            CommonCauseSystem(cells, *rows)
        assert str(err.value) == "cond_a[0] = 0.1 is not exact; pass a Fraction or an int"
        with pytest.raises(InputError, match=r"^screening-off fails on cell 0$"):
            CommonCauseSystem(cells, *(tuple(map(Fraction, row)) for row in rows))
        with pytest.raises(InputError, match=r"^cond_ab\[1\] = 0.0 is not exact; pass a Fraction or an int$"):
            CommonCauseSystem(cells, (1, 0), (1, 0), (1, 0.0))

    def test_rejects_bool_conditionals(self):
        # bool is a numbers.Rational, so the exactness check alone would build a system of True and False
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        with pytest.raises(InputError) as err:
            CommonCauseSystem(cells, (True, False), (True, False), (True, False))
        assert str(err.value) == "cond_a[0] = True: booleans are not rational scalars"
        with pytest.raises(InputError, match=r"^cond_ab\[1\] = False: booleans are not rational scalars$"):
            CommonCauseSystem(cells, (1, 0), (1, 0), (1, False))
        assert CommonCauseSystem(cells, (1, 0), (1, 0), (1, 0)).cond_ab == (1, 0)

    def test_rejects_screening_violation(self):
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        with pytest.raises(InputError):
            CommonCauseSystem(
                cells=cells,
                cond_a=(Fraction(1, 2), Fraction(1, 4)),
                cond_b=(Fraction(1, 2), Fraction(1, 4)),
                cond_ab=(Fraction(1, 2), Fraction(1, 4)),
            )

    def test_rejects_zero_cross_product(self):
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        with pytest.raises(InputError):
            CommonCauseSystem(
                cells=cells,
                cond_a=(Fraction(1, 2), Fraction(1, 2)),
                cond_b=(Fraction(3, 4), Fraction(1, 4)),
                cond_ab=(Fraction(3, 8), Fraction(1, 8)),
            )

    def test_rejects_conditionals_not_aligned_with_the_cells(self):
        cells = Partition((iv("0", "1/2"), iv("1/2", "1")))
        with pytest.raises(InputError, match=r"^conditional lists must align with the partition cells$"):
            CommonCauseSystem(cells=cells, cond_a=(1, 0), cond_b=(1, 0), cond_ab=(1, 0, 0))

    def test_rejects_single_cell(self):
        with pytest.raises(InputError):
            CommonCauseSystem(
                cells=Partition((FULL,)),
                cond_a=(Fraction(1, 2),),
                cond_b=(Fraction(1, 2),),
                cond_ab=(Fraction(1, 4),),
            )


def _expected_failure(screening, cross, size_note=None):
    if size_note is not None:
        return size_note
    for k, ok in enumerate(screening):
        if not ok:
            return f"screening-off fails on cell {k}"
    for i, j, ok in cross:
        if not ok:
            return f"cross-difference condition fails for cells ({i}, {j})"
    return None


def _joint_excess(a, b):
    return a.meet(b).measure() - a.measure() * b.measure()


def check_against_oracle(a, b, partition) -> bool:
    """Every field of verify_rccs and correlation_decomposition against the Fraction oracle.

    Returns the oracle's verdict (False for an uncorrelated pair).
    """
    score = oracle_score(a, b, partition.cells)
    screening, cross = score.screening, score.cross
    lhs = _joint_excess(a, b)
    if all(screening):
        assert correlation_decomposition(a, b, partition) == (lhs, score.rhs)
    else:
        bad = screening.index(False)
        with pytest.raises(PreconditionError, match=rf"^screening-off fails on cell {bad};"):
            correlation_decomposition(a, b, partition)
    if lhs <= 0:
        with pytest.raises(PreconditionError, match="not correlated"):
            verify_rccs(a, b, partition)
        return False
    report = verify_rccs(a, b, partition)
    size_note = "size < 2: a single cell admits no cross-difference condition" if partition.size < 2 else None
    failure = _expected_failure(screening, cross, size_note)
    assert report.cell_measures == score.measures
    assert (report.cond_a, report.cond_b, report.cond_ab) == (score.cond_a, score.cond_b, score.cond_ab)
    assert report.screening_off_ok == screening
    assert report.cross_ok == cross
    assert (report.decomposition_lhs, report.decomposition_rhs) == (lhs, score.rhs)
    assert report.failure == failure
    assert report.verdict is (failure is None)
    return report.verdict


def check_common_cause_against_oracle(a, b, cause) -> None:
    """Every field of verify_common_cause against the Fraction oracle."""
    if not 0 < cause.measure() < 1 or _joint_excess(a, b) <= 0:
        with pytest.raises(PreconditionError):
            verify_common_cause(a, b, cause)
        return
    score = oracle_score(a, b, (cause, cause.complement()))
    screening = score.screening
    raises_a = score.cond_a[0] > score.cond_a[1]
    raises_b = score.cond_b[0] > score.cond_b[1]
    failure = _expected_failure(screening, ())
    if failure is None and not raises_a:
        failure = "the cause does not raise the conditional probability of the first event"
    elif failure is None and not raises_b:
        failure = "the cause does not raise the conditional probability of the second event"
    report = verify_common_cause(a, b, cause)
    assert report.cell_measures == score.measures
    assert (report.cond_a, report.cond_b, report.cond_ab) == (score.cond_a, score.cond_b, score.cond_ab)
    assert report.screening_off_ok == screening
    assert report.cross_ok == ((0, 1, raises_a and raises_b),)
    assert (report.decomposition_lhs, report.decomposition_rhs) == (_joint_excess(a, b), score.rhs)
    assert report.failure == failure
    assert report.verdict is (failure is None)


FIRST_EVENT = "the cause does not raise the conditional probability of the first event"


class TestSize2Orientation:
    """A size-2 cause that screens off raises both events or lowers both.

    With screening-off on the cause c and on ~c, the decomposition identity
    reads excess = m(c) m(~c) (P(a|c) - P(a|~c)) (P(b|c) - P(b|~c)), and
    the excess of a correlated pair is positive, so the two differences
    share a sign.  The orientation is then decided by the first event
    alone: the test on the second event can never be the one that fails.
    """

    def test_a_screening_cause_raises_both_events_or_neither(self):
        rng = random.Random(420)
        accepted = 0
        for m in range(2, 7):
            for space in (FiniteSpace((Fraction(1, m),) * m), random_space(rng, m), random_space(rng, m)):
                for _ in range(10):
                    a, b = random_subset(rng, space), random_subset(rng, space)
                    while correlation(a, b) <= 0:
                        a, b = random_subset(rng, space), random_subset(rng, space)
                    for mask in range(1, (1 << m) - 1):
                        cause = space.event(k for k in range(m) if mask >> k & 1)
                        check_common_cause_against_oracle(a, b, cause)
                        report = verify_common_cause(a, b, cause)
                        assert report.failure is None or "second event" not in report.failure
                        if report.verdict:
                            accepted += 1
                            flipped = verify_common_cause(a, b, cause.complement())
                            assert flipped.failure == FIRST_EVENT
                            assert flipped.cross_ok == ((0, 1, False),)
        assert accepted >= 300


def random_interval_partition(rng: random.Random, mixed: bool) -> Partition:
    """The pieces between up to six random cut points, each given to one of up to four cells."""
    count = rng.randint(0, 6)
    if mixed:
        cuts = set()
        while len(cuts) < count:
            den = rng.choice(MIXED_DENOMINATORS[1:])
            cuts.add(Fraction(rng.randint(1, den - 1), den))
    else:
        cuts = {Fraction(k, 24) for k in rng.sample(range(1, 24), count)}
    ends = [Fraction(0), *sorted(cuts), Fraction(1)]
    pieces: dict[int, list] = {}
    for lo, hi in zip(ends, ends[1:]):
        pieces.setdefault(rng.randrange(4), []).append((lo, hi))
    return Partition(tuple(IntervalEvent.normalized(p) for p in pieces.values()))


def tamper(rng: random.Random, partition: Partition) -> Partition:
    """Move a sliver of one cell into another."""
    cells = list(partition.cells)
    i, j = rng.sample(range(len(cells)), 2)
    sliver = cells[i].carve(cells[i].measure() * Fraction(1, rng.choice([2, 3, 64])))
    cells[i] = cells[i].meet(sliver.complement())
    cells[j] = cells[j].join(sliver)
    return Partition(tuple(cells))


class TestKernelAgainstOracle:
    """The integer conditions kernel against Fraction quotients, on both models."""

    def test_constructed_and_tampered_systems(self):
        rng = random.Random(401)
        rejected = 0
        for _ in range(40):
            a, b = random_correlated_independent_pair(rng)
            system = construct_size3(a, b, rng.choice(["1/3", "1/2", "9/10"]))
            assert check_against_oracle(a, b, system.cells)
            rejected += not check_against_oracle(a, b, tamper(rng, system.cells))
            cells = list(system.cells.cells)
            rng.shuffle(cells)
            assert check_against_oracle(a, b, Partition(tuple(cells)))
            for cause in cells:
                check_common_cause_against_oracle(a, b, cause)
        assert rejected >= 30

    @pytest.mark.parametrize("mixed", [False, True])
    def test_random_interval_partitions(self, mixed):
        rng = random.Random(402 + mixed)
        verdicts = []
        for _ in range(150):
            a = random_nonzero_event(rng, mixed=mixed)
            b = random_nonzero_event(rng, mixed=mixed)
            partition = random_interval_partition(rng, mixed)
            verdicts.append(check_against_oracle(a, b, partition))
            check_common_cause_against_oracle(a, b, partition.cells[0])
            check_common_cause_against_oracle(a, b, a)
        assert not all(verdicts)

    def test_all_partitions_of_small_uniform_spaces(self):
        # uniform weights make many cells screen off and many conditionals tie; integer weights
        # 1..9 give cells of unequal weight, on which the engine's atom sums such as
        # m(a&b&c) + m(a&~b&c) must still equal the oracle's m(a&c)
        def check_all_partitions(rng, space):
            a, b = random_subset(rng, space), random_subset(rng, space)
            accepted = 0
            for n in range(1, len(space) + 1):
                for partition in enumerate_partitions(space, n):
                    accepted += check_against_oracle(a, b, partition)
                    check_common_cause_against_oracle(a, b, partition.cells[0])
            return accepted

        rng = random.Random(404)
        accepted = 0
        for m in (3, 4, 5):
            space = FiniteSpace((Fraction(1, m),) * m)
            for _ in range(8):
                accepted += check_all_partitions(rng, space)
        assert accepted >= 20
        rng = random.Random(406)
        accepted = sum(check_all_partitions(rng, random_space(rng, m)) for m in (3, 4, 5, 6) for _ in range(8))
        assert accepted >= 40

    def test_system_type_accepts_exactly_what_the_oracle_accepts(self):
        rng = random.Random(405)
        values = [Fraction(k, 12) for k in (0, 3, 4, 6, 8, 9, 12)]
        accepted = 0
        for _ in range(600):
            n = rng.randint(2, 4)
            cond_a = tuple(rng.choice(values) for _ in range(n))
            cond_b = tuple(rng.choice(values) for _ in range(n))
            cond_ab = tuple(
                x * y if rng.random() < 0.9 else rng.choice(values) for x, y in zip(cond_a, cond_b)
            )
            cells = Partition(tuple(iv(str(Fraction(k, n)), str(Fraction(k + 1, n))) for k in range(n)))
            failure = _expected_failure(*oracle_conditions(cond_a, cond_b, cond_ab))
            if failure is None:
                CommonCauseSystem(cells=cells, cond_a=cond_a, cond_b=cond_b, cond_ab=cond_ab)
                accepted += 1
            else:
                with pytest.raises(InputError) as err:
                    CommonCauseSystem(cells=cells, cond_a=cond_a, cond_b=cond_b, cond_ab=cond_ab)
                assert str(err.value) == failure
        assert accepted >= 50


def _denominators(rng: random.Random, kind: str, count: int) -> list[int]:
    """``count`` denominators: small, near 10**6 as on the benchmark's grids, or pairwise coprime of 200 bits."""
    if kind == "small":
        return [rng.randint(1, 12) for _ in range(count)]
    if kind == "grid":
        return [rng.randint(999_000, 1_001_000) for _ in range(count)]
    dens: list[int] = []
    while len(dens) < count:
        den = rng.getrandbits(200) | 1 << 199
        if all(gcd(den, other) == 1 for other in dens):
            dens.append(den)
    return dens


def _quad(rng: random.Random, kind: str) -> tuple:
    """A cell's ``(m, m_a, m_b, m_ab)`` from four atom measures, each on its own denominator; some atoms empty."""
    both, a_only, b_only, rest = (
        Fraction(rng.randrange(den + 1) if rng.random() < 0.8 else 0, den) for den in _denominators(rng, kind, 4)
    )
    if both + a_only + b_only + rest == 0:
        rest = Fraction(1, _denominators(rng, kind, 1)[0])
    return both + a_only + b_only + rest, both + a_only, both + b_only, both


def _screening_quad(rng: random.Random, kind: str) -> tuple:
    """A cell on which a and b are exactly independent: m_ab = m_a m_b / m."""
    m, p, q = (Fraction(rng.randint(1, den), den) for den in _denominators(rng, kind, 3))
    return m, m * p, m * q, m * p * q


def _equal_cell(rng: random.Random, quad: tuple, kind: str) -> tuple:
    """A cell with the conditionals of ``quad`` and another measure, so the cross product with it is zero."""
    scale = Fraction(rng.randint(1, 10**6), _denominators(rng, kind, 1)[0])
    return tuple(x * scale for x in quad)


def _exact(value) -> tuple:
    return type(value), value.numerator, value.denominator


def check_kernel(quads) -> tuple:
    """``_conditions`` on ``quads`` against the Fraction oracle, field by field; returns the kernel's answer."""
    answer = _conditions(quads)
    screening, cross, rhs, conditionals = answer
    expected = fraction_conditions(quads)
    assert screening == expected[0] and all(type(ok) is bool for ok in screening)
    assert cross == expected[1] and all(type(ok) is bool for _, _, ok in cross)
    assert _exact(rhs) == (Fraction, expected[2].numerator, expected[2].denominator)
    assert [[_exact(x) for x in row] for row in conditionals] == [
        [(Fraction, x.numerator, x.denominator) for x in row] for row in expected[3]
    ]
    return answer


class TestConditionsKernel:
    """``_conditions`` decides in integers exactly what Fraction arithmetic decides, on seeded quadruples."""

    @pytest.mark.parametrize("kind", ["small", "grid", "coprime-200-bit"])
    def test_random_cells(self, kind):
        rng = random.Random(f"kernel/{kind}")
        draws = {"random": _quad, "screening": _screening_quad}
        for n in range(1, 7):
            for _ in range(40):
                quads = [draws[rng.choice(["random", "random", "screening"])](rng, kind) for _ in range(n)]
                check_kernel(quads)

    def test_screening_cells_and_equal_cells(self):
        rng = random.Random(2004)
        zero_products = 0
        for kind in ("small", "grid", "coprime-200-bit"):
            for n in range(2, 7):
                quads = [_screening_quad(rng, kind) for _ in range(n - 1)]
                quads.insert(rng.randrange(n), _equal_cell(rng, quads[0], kind))
                screening, cross, _, _ = check_kernel(quads)
                assert all(screening)
                zero_products += sum(not ok for _, _, ok in cross)
        assert zero_products >= 15  # every drawn list has a pair of equal cells

    def test_cells_straddling_one_denominator(self):
        # the lcm of a cell's denominators cancels: cells on one shared denominator and cells whose
        # four measures each have another give the same conditions as their Fraction values
        rng = random.Random(2005)
        for kind in ("small", "grid", "coprime-200-bit"):
            for n in range(1, 7):
                den = _denominators(rng, kind, 1)[0]
                quads = [tuple(Fraction(k, den) for k in sorted((rng.randint(1, den) for _ in range(4)), reverse=True))
                         for _ in range(n)]
                check_kernel(quads + [_quad(rng, kind)])

    def test_system_rows_of_ints_and_fractions(self):
        # CommonCauseSystem hands the kernel rows (1, P(a|c), P(b|c), P(a&b|c)), whose entries may be the ints 0 and 1
        values = (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1))
        rng = random.Random(2006)
        accepted = 0
        for n in range(1, 7):
            for _ in range(60):
                rows = []
                for _ in range(n):
                    x, y = rng.choice(values), rng.choice(values)
                    rows.append((1, x, y, x * y if rng.random() < 0.8 else rng.choice(values)))
                screening, cross, _, _ = check_kernel(rows)
                accepted += n > 1 and all(screening) and all(ok for _, _, ok in cross)
        assert accepted >= 10
        assert check_kernel([(1, 1, 1, 1), (1, 0, 0, 0)])[:3] == ((True, True), ((0, 1, True),), Fraction(1))


def _answers(a, b, partition, cold: bool = False) -> list:
    """Each public engine call on the pair and the partition: its result, or its precondition text.

    With ``cold`` the memoized split is cleared before every call.
    """
    calls = (
        lambda: construction_steps(a, b),
        lambda: verify_rccs(a, b, partition),
        lambda: verify_common_cause(a, b, partition.cells[0]),
        lambda: correlation_decomposition(a, b, partition),
    )
    answers = []
    for call in calls:
        if cold:
            _pair.cache_clear()
        try:
            answers.append(call())
        except PreconditionError as err:
            answers.append(str(err))
    return answers


class TestPairCache:
    """The memoized split of a pair gives every answer a fresh split gives."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_cold_warm_and_rebuilt_pairs_agree(self, mixed):
        rng = random.Random(410 + mixed)
        constructed = 0
        for _ in range(50):
            a = random_nonzero_event(rng, mixed=mixed)
            b = random_nonzero_event(rng, mixed=mixed)
            partitions = [random_interval_partition(rng, mixed)]
            if logically_independent(a, b) and correlation(a, b) > 0:
                partitions.append(construct_size3(a, b).cells)
                constructed += 1
            # equal to the originals, but new objects, as a JSON round trip gives them
            rebuilt_a, rebuilt_b = (interval_event_from_obj(loads(dumps(interval_event_to_obj(x)))) for x in (a, b))
            assert (rebuilt_a, rebuilt_b) == (a, b) and rebuilt_a is not a and rebuilt_b is not b
            # pairs that share an event, so a memo that mixed them up would answer for the wrong one
            pairs = ((a, b), (b, a), (a, b.complement()))
            for partition in partitions:
                cold = [_answers(x, y, partition, cold=True) for x, y in pairs]
                for (x, y), answers in zip(pairs, cold):
                    assert _answers(x, y, partition) == answers
                    hits, misses = _pair.cache_info()[:2]
                    assert _answers(x, y, partition) == answers
                    assert _pair.cache_info()[:2] == (hits + 4, misses)
                assert _answers(a, b, partition) == cold[0]
                hits, misses = _pair.cache_info()[:2]
                assert _answers(rebuilt_a, rebuilt_b, partition) == cold[0]
                assert _pair.cache_info()[:2] == (hits + 4, misses)
                steps = cold[0][0]
                if not isinstance(steps, str) and steps.system.cells == partition:
                    assert steps.report == cold[0][1]
                    assert steps.joint_excess == correlation(a, b)
                    assert steps.carve_bound == steps.joint_excess / a.join(b).complement().measure()
                # the warm answers, field by field, against the Fraction oracle
                for x, y in pairs:
                    check_against_oracle(x, y, partition)
                    check_common_cause_against_oracle(x, y, partition.cells[0])
        assert constructed >= 10


def _report(call):
    """What ``call`` returns, or the type and text of its refusal."""
    try:
        return call()
    except (InputError, PreconditionError) as err:
        return type(err).__name__, str(err)


def _finite_partition(rng: random.Random, space: FiniteSpace) -> Partition:
    """Each point given to one of up to four cells."""
    cells: dict[int, list[int]] = {}
    for i in range(len(space)):
        cells.setdefault(rng.randrange(4), []).append(i)
    return Partition(tuple(space.event(members) for members in cells.values()))


def _sharing(partition: Partition) -> list[Partition]:
    """``partition``, then candidates that keep its cells: the first two merged, and all of them reversed."""
    cells = partition.cells
    merged = [Partition((cells[0].join(cells[1]), *cells[2:]))] if len(cells) > 1 else []
    return [partition, *merged, Partition(cells[::-1])]


def _correlated(rng: random.Random, draw) -> tuple:
    a, b = draw(), draw()
    while correlation(a, b) == 0:
        a, b = draw(), draw()
    return (a, b) if correlation(a, b) > 0 else (a, b.complement())


class TestCellMemo:
    """Reusing a cell's measures against the pair's atoms gives every report a cold verification gives."""

    @staticmethod
    def check(a, b, partitions) -> None:
        """Engine calls on (a, b), on (b, a) and on an equal rebuilt pair, warm in a row and each cold."""
        twin_a, twin_b = (pickle.loads(pickle.dumps(x)) for x in (a, b))
        assert (twin_a, twin_b) == (a, b) and twin_a is not a
        calls = [lambda: construction_steps(a, b)]
        for p in partitions:
            calls += [
                lambda p=p: verify_rccs(a, b, p),
                lambda p=p: verify_rccs(twin_a, twin_b, p),
                lambda p=p: verify_rccs(b, a, p),  # the same cells against another pair's atoms
                lambda p=p: verify_common_cause(a, b, p.cells[0]),
                lambda p=p: correlation_decomposition(a, b, p),
                lambda p=p: verify_rccs(a, b, p),
            ]
        warm = [_report(call) for call in calls]
        cold = []
        for call in reversed(calls):  # so a memo that outlived the clear would hold other cells
            _pair.cache_clear()
            cold.append(_report(call))
        assert warm == cold[::-1]
        for p in partitions:
            verify_rccs(a, b, p)
            check_against_oracle(b, a, p)  # right after the same cells were measured for (a, b)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_interval_reports_warm_and_cold_agree(self, mixed):
        rng = random.Random(2600 + mixed)
        constructed = 0
        for _ in range(40):
            a, b = _correlated(rng, lambda: random_nonzero_event(rng, mixed=mixed))
            partitions = _sharing(random_interval_partition(rng, mixed))
            if logically_independent(a, b):
                # the README flow: the construction's cells, then candidates that keep some of them
                partitions = _sharing(construction_steps(a, b).system.cells) + partitions
                constructed += 1
            self.check(a, b, partitions)
        assert constructed >= 10

    def test_finite_reports_warm_and_cold_agree(self):
        rng = random.Random(2602)
        accepted = 0
        for case in range(60):
            space = random_space(rng, rng.randint(2, 7))
            a, b = _correlated(rng, lambda: random_subset(rng, space))
            partitions = _sharing(_finite_partition(rng, space))
            hits = search_rccs(space, a, b, 2 + case % 2) if len(space) > 2 else []
            if hits:
                partitions = _sharing(hits[0]) + partitions
                accepted += 1
            self.check(a, b, partitions)
        assert accepted >= 10

    def test_cached_cells_do_not_pass_a_wrong_model_cell(self):
        _pair.cache_clear()
        steps = construction_steps(WORKED_A, WORKED_B)
        cells = steps.system.cells.cells
        stray = Partition._trusted((cells[0], cells[1], _QUARTERS.event((0,))))
        for _ in range(2):
            with pytest.raises(InputError, match=r"^cell 2 is not an event of the same model as the pair$"):
                verify_rccs(WORKED_A, WORKED_B, stray)
        assert verify_rccs(WORKED_A, WORKED_B, steps.system.cells) == steps.report

    def test_cached_cells_do_not_pass_a_cell_of_measure_zero(self):
        # a point of weight 0 makes a nonempty null cell, as in the faithfulness test above
        space = FiniteSpace._trusted((Fraction(1, 4),) * 4 + (Fraction(0),))
        a, b = space.event((0, 1)), space.event((0, 1, 2))
        first = Partition((space.event((0,)), space.event((1,)), space.event((2, 3, 4))))
        _pair.cache_clear()
        report = verify_rccs(a, b, first)
        null = Partition((space.event((0,)), space.event((1,)), space.event((2, 3)), space.event((4,))))
        for _ in range(2):
            with pytest.raises(PreconditionError, match=r"^cell 3 has measure zero; conditionals are undefined$"):
                verify_rccs(a, b, null)
        assert verify_rccs(a, b, first) == report

    @pytest.mark.parametrize("model", ["interval", "finite"])
    def test_table_holds_only_the_last_partition(self, model, monkeypatch):
        # verify P, then Q that keeps some of P's cells, then P again: the table then holds Q's cells
        # only, so the third call meets and measures exactly P's cells that Q lacks, 3 meets and 4 measures each
        if model == "interval":
            a, b = WORKED_A, WORKED_B
            _pair.cache_clear()
            p = construction_steps(a, b).system.cells
            q = Partition((p.cells[0].join(p.cells[1]), p.cells[2]))
        else:
            space = FiniteSpace._trusted((Fraction(1, 6),) * 6)
            a, b = space.event((0, 1, 2)), space.event((0, 1, 3))
            p = Partition(tuple(space.event(cell) for cell in ((0,), (1,), (2, 3), (4, 5))))
            q = Partition(tuple(space.event(cell) for cell in ((0,), (1, 2, 3), (4, 5))))
        dropped = len(set(p.cells) - set(q.cells))
        assert 0 < dropped < len(p.cells)
        cold = verify_rccs(a, b, p)
        calls = _counted_event_calls(monkeypatch, type(a))
        verify_rccs(a, b, q)
        calls.clear()
        assert verify_rccs(a, b, p) == cold
        assert calls == Counter(meet=3 * dropped, measure=4 * dropped), calls

    def test_threads_sharing_the_memo_get_their_own_reports(self):
        # each pair's entry has its own table, and every quadruple in it is right for that pair: a thread that
        # verifies (a, b) while another verifies the same cells for (b, a) never reads the other pair's quadruples
        rng = random.Random(2603)
        jobs = []
        for _ in range(2):
            a, b = random_correlated_independent_pair(rng)
            cells = construction_steps(a, b).system.cells.cells
            partitions = (Partition(cells), Partition((cells[0].join(cells[1]), cells[2])))
            jobs += [(a, b, partitions), (b, a, partitions)]
        expected = []
        for a, b, partitions in jobs:
            _pair.cache_clear()
            expected.append([verify_rccs(a, b, p) for p in partitions])
        failures = []

        def work(k: int) -> None:
            a, b, partitions = jobs[k]
            for _ in range(500):
                if [verify_rccs(a, b, p) for p in partitions] != expected[k]:
                    failures.append(k)
                    return

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
