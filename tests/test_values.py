"""The value classes: their reprs, immutability, copies that go through the checking constructor, and ``_trusted``."""

import copy
import pickle
from fractions import Fraction

import pytest

from rccs import (
    CommonCauseSystem,
    FiniteSpace,
    InputError,
    Partition,
    build_witness,
    construction_steps,
)

from .helpers import iv

WORKED_A = iv("0", "1/2")
WORKED_B = iv("1/10", "1/2", "9/10", "1")

SPACE_REPR = "FiniteSpace(weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))"
CELLS_REPR = (
    "Partition(cells=(IntervalEvent(intervals=((Fraction(1, 10), Fraction(23, 80)),)), "
    "IntervalEvent(intervals=((Fraction(1, 2), Fraction(29, 34)),)), "
    "IntervalEvent(intervals=((Fraction(0, 1), Fraction(1, 10)), (Fraction(23, 80), Fraction(1, 2)), "
    "(Fraction(29, 34), Fraction(1, 1))))))"
)
CONDS_REPR = (
    "cond_a=(Fraction(1, 1), Fraction(0, 1), Fraction(17, 25)), "
    "cond_b=(Fraction(1, 1), Fraction(0, 1), Fraction(17, 25)), "
    "cond_ab=(Fraction(1, 1), Fraction(0, 1), Fraction(289, 625))"
)
SYSTEM_REPR = f"CommonCauseSystem(cells={CELLS_REPR}, {CONDS_REPR})"
REPORT_REPR = (
    "VerificationReport(screening_off_ok=(True, True, True), cross_ok=((0, 1, True), (0, 2, True), (1, 2, True)), "
    f"cell_measures=(Fraction(3, 16), Fraction(6, 17), Fraction(125, 272)), {CONDS_REPR}, "
    "decomposition_lhs=Fraction(3, 20), decomposition_rhs=Fraction(3, 20), verdict=True, failure=None)"
)
STEPS_REPR = (
    "ConstructionSteps(joint_excess=Fraction(3, 20), carve_bound=Fraction(3, 8), lam=Fraction(1, 2), "
    f"full_cell_measure=Fraction(3, 16), null_cell_measure=Fraction(6, 17), system={SYSTEM_REPR}, "
    f"report={REPORT_REPR})"
)


def _space():
    return FiniteSpace(("1/2", "1/4", "1/4"))


def _values():
    """One instance of each value class, by name."""
    steps = construction_steps(WORKED_A, WORKED_B)
    space = _space()
    return {
        "IntervalEvent": WORKED_A,
        "FiniteSpace": space,
        "FiniteEvent": space.event([0, 2]),
        "Partition": steps.system.cells,
        "CommonCauseSystem": steps.system,
        "VerificationReport": steps.report,
        "ConstructionSteps": steps,
    }


class TestRepr:
    """Every field by name, in order; the identity probe's digests read the report's repr."""

    def test_finite_values(self):
        space = _space()
        assert repr(space) == SPACE_REPR
        assert repr(space.event([0, 2])) == f"FiniteEvent(space={SPACE_REPR}, mask=5)"
        assert repr(Partition((space.event([0]), space.event([1, 2])))) == (
            f"Partition(cells=(FiniteEvent(space={SPACE_REPR}, mask=1), FiniteEvent(space={SPACE_REPR}, mask=6)))"
        )

    def test_construction_values(self):
        steps = construction_steps(WORKED_A, WORKED_B)
        assert repr(steps.system.cells) == CELLS_REPR
        assert repr(steps.system) == SYSTEM_REPR
        assert repr(steps.report) == REPORT_REPR
        assert repr(steps) == STEPS_REPR


class TestImmutable:
    @pytest.mark.parametrize("name", list(_values()) + ["BellWitness"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = build_witness() if name == "BellWitness" else _values()[name]
        fields = value._fields if isinstance(value, tuple) else value.__slots__
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None

    def test_bell_witness_is_equal_only_to_itself(self):
        witness = build_witness()
        twin = copy.copy(witness)
        assert witness == witness and witness != twin and hash(witness) != hash(twin)
        assert {witness: 1}[witness] == 1


def _rebuilds():
    return [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


class TestCopies:
    @pytest.mark.parametrize("name", ["Partition", "CommonCauseSystem", "VerificationReport", "ConstructionSteps"])
    def test_round_trip(self, name):
        original = _values()[name]
        for rebuild in _rebuilds():
            clone = rebuild(original)
            assert type(clone) is type(original)
            assert clone == original and hash(clone) == hash(original)

    def _refused_like(self, tampered, build, rebuilds=None):
        with pytest.raises(InputError) as expected:
            build()
        for rebuild in rebuilds or _rebuilds():
            with pytest.raises(InputError) as err:
                rebuild(tampered)
            assert str(err.value) == str(expected.value)

    def test_tampered_partition_is_refused(self):
        cells = construction_steps(WORKED_A, WORKED_B).system.cells
        overlapping = (cells.cells[0].join(cells.cells[1]),) + cells.cells[1:]
        object.__setattr__(cells, "cells", overlapping)
        self._refused_like(cells, lambda: Partition(overlapping))

    def test_tampered_system_is_refused(self):
        system = construction_steps(WORKED_A, WORKED_B).system
        cond_a = (Fraction(0),) + system.cond_a[1:]
        object.__setattr__(system, "cond_a", cond_a)
        self._refused_like(system, lambda: CommonCauseSystem(system.cells, cond_a, system.cond_b, system.cond_ab))

    def test_system_with_a_tampered_partition_is_refused(self):
        # a shallow copy shares the partition; a deep copy and unpickling rebuild it
        system = construction_steps(WORKED_A, WORKED_B).system
        cells = system.cells.cells
        object.__setattr__(system.cells, "cells", (cells[0], cells[0]) + cells[2:])
        self._refused_like(system, lambda: Partition((cells[0], cells[0]) + cells[2:]), _rebuilds()[1:])


def _trusted_cases():
    """Per value class: a checked construction, and the fields ``_trusted`` takes for the same value."""
    space, half, quarter = _space(), Fraction(1, 2), Fraction(1, 4)
    cells = (space.event([1]), space.event([0, 2]))
    system = construction_steps(WORKED_A, WORKED_B).system
    conds = (system.cond_a, system.cond_b, system.cond_ab)
    return {
        "FiniteSpace": (_space, ((half, quarter, quarter),)),
        "FiniteEvent": (lambda: space.event([2, 0, 2]), (space, 0b101)),
        "IntervalEvent": (lambda: iv("1/10", "2/4", "9/10", "1"), ((1, 10, 1, 2, 9, 10, 1, 1),)),
        "Partition": (lambda: Partition(list(cells)), (cells,)),
        "CommonCauseSystem": (lambda: CommonCauseSystem(system.cells, *conds), (system.cells, *conds)),
    }


class TestTrusted:
    @pytest.mark.parametrize("name", list(_trusted_cases()))
    def test_trusted_value_equals_the_checked_one(self, name):
        build, fields = _trusted_cases()[name]
        checked = build()
        trusted = type(checked)._trusted(*fields)
        assert type(checked).__name__ == name and type(trusted) is type(checked)
        assert tuple(getattr(trusted, field) for field in trusted.__slots__) == fields
        assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
        for rebuild in _rebuilds():
            clone = rebuild(trusted)
            assert type(clone) is type(checked) and clone == checked and hash(clone) == hash(checked)
        for field in trusted.__slots__:
            with pytest.raises(AttributeError):
                setattr(trusted, field, None)
