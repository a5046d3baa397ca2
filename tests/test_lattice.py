"""Structural predicates and the shared lattice contract, on both models."""

import random
from fractions import Fraction

import pytest

from rccs import (
    EMPTY,
    FULL,
    FiniteSpace,
    InputError,
    InternalInvariantError,
    Partition,
    PreconditionError,
    check_product_inequality,
    compatible,
    correlation,
    logical_independence_equiv,
    logically_independent,
)
from rccs import lattice

from .helpers import (
    Absorbing,
    Incompatible,
    iv,
    random_event,
    random_space,
    random_subset,
    unlimited_int_digits,
)


class TestCompatibility:
    # With test_finite_pairs, this carries the Boolean-model guarantee that
    # lets the engine check compatibility once per call rather than per cell.
    def test_any_interval_pair(self):
        rng = random.Random(3)
        for mixed in (False, True):
            for _ in range(100):
                assert compatible(random_event(rng, mixed=mixed), random_event(rng, mixed=mixed))

    def test_contained_pair(self):
        assert compatible(iv("1/4", "1/2"), iv("0", "1/2"))

    def test_event_and_complement(self):
        a = iv("1/8", "5/8")
        assert compatible(a, a.complement())

    def test_finite_pairs(self):
        rng = random.Random(4)
        space = random_space(rng, 6)
        for _ in range(100):
            assert compatible(random_subset(rng, space), random_subset(rng, space))

    def test_broken_models(self):
        # a symmetric failure is a verdict; sides that disagree mean the model is broken
        assert not compatible(Incompatible(), Incompatible())
        with pytest.raises(InternalInvariantError, match="asymmetric"):
            compatible(Absorbing(), Incompatible())


class TestOrthomodularLaw:
    def test_interval_model(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = random_event(rng)
            b = a.join(random_event(rng))
            assert a.leq(b)
            assert b == a.join(a.complement().meet(b))

    def test_finite_model(self):
        rng = random.Random(12)
        space = random_space(rng, 7)
        for _ in range(1000):
            a = random_subset(rng, space)
            b = a.join(random_subset(rng, space))
            assert b == a.join(a.complement().meet(b))


class TestLogicalIndependence:
    def test_crossing_pair(self):
        assert logically_independent(iv("0", "1/2"), iv("1/4", "3/4"))

    def test_contained_pair_fails(self):
        assert not logically_independent(iv("0", "1/4"), iv("0", "1/2"))

    def test_self_fails(self):
        a = iv("0", "1/2")
        assert not logically_independent(a, a)

    def test_equiv_on_crossing_pair(self):
        a, b = iv("0", "1/2"), iv("1/4", "3/4")
        assert logical_independence_equiv(a, b)
        assert logical_independence_equiv(a, b) == logically_independent(a, b)

    def test_equiv_on_contained_pair(self):
        a, b = iv("0", "1/4"), iv("0", "1/2")
        assert not logical_independence_equiv(a, b)
        assert not logically_independent(a, b)

    def test_equiv_with_top(self):
        assert not logical_independence_equiv(FULL, iv("1/4", "1/2"))

    def test_equivalence_fuzz_both_models(self):
        rng = random.Random(21)
        for _ in range(500):
            a, b = random_event(rng), random_event(rng)
            assert logical_independence_equiv(a, b) == logically_independent(a, b)
        space = random_space(rng, 6)
        for _ in range(500):
            a, b = random_subset(rng, space), random_subset(rng, space)
            assert logical_independence_equiv(a, b) == logically_independent(a, b)


class TestCorrelation:
    def test_worked_pair(self):
        a = iv("0", "1/2")
        b = iv("1/10", "1/2", "9/10", "1")
        assert correlation(a, b) == Fraction(3, 20)

    def test_product_pair_is_zero(self):
        assert correlation(iv("0", "1/2"), iv("1/4", "3/4")) == 0

    def test_complement_anticorrelates(self):
        a = iv("0", "1/2")
        assert correlation(a, a.complement()) == -a.measure() * a.complement().measure()

    def test_correlated_pair_strict_bounds(self):
        # any correlated pair leaves the union short of 1 and the meet above 0
        rng = random.Random(31)
        found = 0
        while found < 300:
            a, b = random_event(rng), random_event(rng)
            if correlation(a, b) > 0:
                found += 1
                assert a.join(b).measure() < 1
                assert a.meet(b).measure() > 0


class TestProductInequality:
    def test_with_full_condition(self):
        # conditioning on the whole space reduces to measure(a)measure(b) >= measure(a&b)measure(a|b)
        a, b = iv("0", "1/2"), iv("1/10", "1/2", "9/10", "1")
        assert check_product_inequality(a, b, FULL)
        assert a.measure() * b.measure() >= a.meet(b).measure() * a.join(b).measure()

    def test_with_zero_condition(self):
        assert check_product_inequality(iv("0", "1/2"), iv("1/4", "3/4"), EMPTY)

    def test_fuzz_interval_triples(self):
        rng = random.Random(41)
        for _ in range(500):
            assert check_product_inequality(
                random_event(rng), random_event(rng), random_event(rng)
            )

    def test_fuzz_finite_triples(self):
        rng = random.Random(42)
        space = random_space(rng, 6)
        for _ in range(500):
            assert check_product_inequality(
                random_subset(rng, space), random_subset(rng, space), random_subset(rng, space)
            )

    def test_incompatible_pair_refused(self):
        # an inequality over a triple that is not mutually compatible would be no theorem at all
        a, b = Incompatible(), Incompatible()
        with pytest.raises(PreconditionError, match=r"^events .+ and .+ are not compatible$"):
            check_product_inequality(a, b, FULL)

    def test_violation_diagnostic_past_digit_limit(self, monkeypatch):
        # a broken model whose measures violate the inequality by numbers past the int-string limit
        monkeypatch.setattr(lattice, "compatible", lambda x, y: True)
        tiny = Fraction(1, 10**5000)
        with pytest.raises(InternalInvariantError) as err:
            check_product_inequality(_Named("a"), _Named("b"), _Named("c", {"(a&c)": tiny, "(b&c)": tiny}))
        with unlimited_int_digits():
            expected = f"measure product inequality violated: {tiny * tiny} < 1/4; the model is broken"
        assert str(err.value) == expected


class TestPartition:
    def test_valid_partition(self):
        p = Partition((iv("0", "1/3"), iv("1/3", "2/3"), iv("2/3", "1")))
        assert p.size == 3

    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            Partition((iv("0", "1/2"), iv("1/4", "1")))

    def test_rejects_gap(self):
        with pytest.raises(InputError):
            Partition((iv("0", "1/3"), iv("2/3", "1")))

    def test_rejects_empty_cell(self):
        with pytest.raises(InputError):
            Partition((iv("0", "1/2"), EMPTY, iv("1/2", "1")))

    def test_rejects_no_cells(self):
        with pytest.raises(InputError):
            Partition(())

    def test_rejects_a_cell_that_is_not_an_event(self):
        with pytest.raises(InputError, match=r"^partition cell 0 is not an event$"):
            Partition((1, 2))

    def test_rejects_cells_of_two_models(self):
        halves = FiniteSpace(("1/2", "1/2"))
        for cells in ((iv("0", "1/2"), halves.event([1])), (halves.event([1]), iv("0", "1/2"))):
            names = " and ".join(type(cell).__name__ for cell in cells)
            with pytest.raises(InputError) as err:
                Partition(cells)
            assert str(err.value) == f"events of different models: {names}"

    def test_precondition_error_on_incompatible_claim(self):
        # logical_independence_equiv demands compatibility up front
        with pytest.raises(PreconditionError):
            logical_independence_equiv(Incompatible(), Incompatible())


class _Named:
    """Fake event named by the expression that built it; its measure is looked up by that name, else 1/2."""

    def __init__(self, name, measures=None):
        self.name, self.measures = name, measures or {}

    def meet(self, other):
        return _Named(f"({self.name}&{other.name})", self.measures | other.measures)

    def join(self, other):
        return _Named(f"({self.name}|{other.name})", self.measures | other.measures)

    def measure(self):
        return self.measures.get(self.name, Fraction(1, 2))
