"""Structural predicates and the shared lattice contract, on both models."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rccs import (
    EMPTY,
    FULL,
    FiniteSpace,
    InputError,
    InternalInvariantError,
    IntervalEvent,
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
    MIXED_DENOMINATORS,
    MO2,
    Absorbing,
    GluedIntervals,
    Greechie,
    Incompatible,
    four_meet_independent,
    iv,
    pairwise_partition_fault,
    random_event,
    random_space,
    random_subset,
    two_sided_split,
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


class TestCompatibilityCrossCheck:
    """``compatible`` and the lattice's split agree with the generic two-sided test, kept in the
    test helpers, on random pairs of both models and on the fakes that fail it."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_interval_pairs(self, mixed):
        rng = random.Random(f"compatibility-cross-check/{mixed}")
        for _ in range(200):
            a, b = random_event(rng, max_parts=4, mixed=mixed), random_event(rng, max_parts=4, mixed=mixed)
            for x, y in ((a, b), (a, a.complement()), (a, a.meet(b))):
                a_side, b_side, atoms = two_sided_split(x, y)
                assert compatible(x, y) is a_side is b_side is True
                assert lattice._split(x, y) == (True, *atoms)

    def test_finite_pairs(self):
        rng = random.Random(5)
        for _ in range(300):
            space = random_space(rng, rng.randint(1, 10))
            a, b = random_subset(rng, space), random_subset(rng, space)
            a_side, b_side, atoms = two_sided_split(a, b)
            assert compatible(a, b) is a_side is b_side is True
            assert lattice._split(a, b) == (True, *atoms)

    def test_other_models_get_the_two_sided_test(self):
        a_side, b_side, atoms = two_sided_split(Incompatible(), Incompatible())
        assert compatible(Incompatible(), Incompatible()) is a_side is b_side is False
        assert lattice._split(Incompatible(), Incompatible()) == (False, *atoms)
        assert two_sided_split(Absorbing(), Incompatible())[:2] == (True, False)


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

    def test_a_tiling_check_that_refuses_a_partition_is_an_internal_error(self, monkeypatch):
        # the pairwise loop words every refusal; a refusal it cannot word means the model's one-pass check is wrong
        monkeypatch.setattr(IntervalEvent, "_tiles", lambda self, cells: False)
        with pytest.raises(InternalInvariantError, match="tiling check refused cells that the pairwise check accepts"):
            Partition((iv("0", "1/3"), iv("1/3", "1")))
        with pytest.raises(InputError, match=r"^partition cells 0 and 1 overlap$"):
            Partition((iv("0", "1/2"), iv("1/3", "1")))

    def test_precondition_error_on_incompatible_claim(self):
        # logical_independence_equiv demands compatibility up front
        with pytest.raises(PreconditionError):
            logical_independence_equiv(Incompatible(), Incompatible())


def _refusal(cells):
    """The text of the InputError ``Partition(cells)`` raises, or None where it accepts them."""
    try:
        Partition(cells)
    except InputError as exc:
        return str(exc)
    return None


def _interval_cells(rng: random.Random) -> list:
    """2-6 cells that partition [0, 1), cut at endpoints of mixed denominators; some cells have several pieces."""
    n = rng.randint(2, 6)
    cuts, count = set(), n - 1 + rng.randint(0, 4)
    while len(cuts) < count:
        den = rng.choice(MIXED_DENOMINATORS[1:])
        cuts.add(Fraction(rng.randint(1, den - 1), den))
    points = [Fraction(0), *sorted(cuts), Fraction(1)]
    owner = list(range(n)) + [rng.randrange(n) for _ in range(len(points) - 1 - n)]
    rng.shuffle(owner)
    pieces = [[] for _ in range(n)]
    for k, lo, hi in zip(owner, points, points[1:]):
        pieces[k].append((lo, hi))
    return [IntervalEvent.normalized(p) for p in pieces]


def _finite_cells(rng: random.Random, space: FiniteSpace) -> list:
    """Cells that partition the space: each point given to one of 1 to m cells, none left empty."""
    m = len(space)
    n = rng.randint(1, m)
    owner = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    rng.shuffle(owner)
    return [space.event([i for i in range(m) if owner[i] == k]) for k in range(n)]


def _spoiled(rng: random.Random, cells: list, pick_piece) -> list:
    """``cells`` as given, or spoiled in one of the ways a partition can fail, or reshaped into another partition."""
    cells = list(cells)
    n, roll = len(cells), rng.randrange(8)
    i, j = rng.randrange(n), rng.randrange(n)
    if roll == 1:  # a duplicated cell
        cells.insert(rng.randrange(n + 1), cells[i])
    elif roll == 2 and n > 1:  # a missing cell, so a missing piece
        del cells[i]
    elif roll == 3 and i != j:  # a piece of another cell added: an overlap
        cells[i] = cells[i] | pick_piece(cells[j])
    elif roll == 4:  # a piece taken away: a gap, unless it empties the cell
        rest = cells[i].meet(pick_piece(cells[i]).complement())
        if not rest.is_zero:
            cells[i] = rest
    elif roll == 5 and i != j:  # two cells merged into one: still a partition
        cells[i] = cells[i] | cells[j]
        del cells[j]
    elif roll == 6:  # the order shuffled: still a partition
        rng.shuffle(cells)
    elif roll == 7 and i != j:  # a cell replaced by a piece of another: an overlap and a gap at once
        cells[i] = pick_piece(cells[j])
    return cells


def _nudged(rng: random.Random, cell: IntervalEvent) -> IntervalEvent:
    """``cell`` with one endpoint moved a little either way, so it overlaps or leaves a gap beside a neighbour."""
    ends = [x for pair in cell.intervals for x in pair]
    k = rng.randrange(len(ends))
    ends[k] += rng.choice([-1, 1]) * Fraction(1, rng.choice([97, 1000, 999983]))
    ends[k] = min(max(ends[k], Fraction(0)), Fraction(1))
    pairs = list(zip(ends[0::2], ends[1::2]))
    return IntervalEvent.normalized(pairs) if all(lo <= hi for lo, hi in pairs) else cell


class TestPartitionOracle:
    """The one-pass tiling check refuses what the pairwise check refused, with the same text, and accepts the rest."""

    def test_interval_partitions(self):
        rng = random.Random(3001)
        first_piece = lambda cell: IntervalEvent((cell.intervals[0],))  # noqa: E731
        refusals = set()
        for _ in range(1500):
            cells = _spoiled(rng, _interval_cells(rng), first_piece)
            if rng.random() < 0.2:
                k = rng.randrange(len(cells))
                cells[k] = _nudged(rng, cells[k])
            cells = [cell for cell in cells if not cell.is_zero]
            want = pairwise_partition_fault(cells)
            assert _refusal(cells) == want, cells
            refusals.add(want and want.split(" ")[-1])
        assert refusals == {None, "overlap", "space"}

    def test_touching_pieces_of_one_cell_and_of_two(self):
        # pieces of different cells may touch; the pieces of one cell are merged by its canonical form
        cells = (iv("0", "1/3", "2/3", "1"), iv("1/3", "2/3"))
        assert _refusal(cells) is None
        assert _refusal((iv("0", "1/3"), iv("1/3", "1/2"), iv("1/2", "1"))) is None
        assert _refusal((iv("0", "1/3"), iv("1/3", "1/2"), iv("1/3", "1"))) == "partition cells 1 and 2 overlap"
        assert _refusal((iv("0", "1/2"), iv("0", "1/2"), iv("1/2", "1"))) == "partition cells 0 and 1 overlap"

    def test_finite_partitions(self):
        rng = random.Random(3002)
        lowest_point = lambda cell: cell.space.event([cell.members[0]])  # noqa: E731
        refusals = set()
        for _ in range(1500):
            space = random_space(rng, rng.randint(1, 7))
            cells = _spoiled(rng, _finite_cells(rng, space), lowest_point)
            if rng.random() < 0.1:  # a cell of another space, of the same size or not
                other = random_space(rng, len(space) if rng.random() < 0.5 else rng.randint(1, 7))
                k = rng.randrange(len(cells))
                cells[k] = other.event([i for i in cells[k].members if i < len(other)] or [0])
            if rng.random() < 0.05:  # an equal space that is another object
                twin = FiniteSpace(space.weights)
                cells = [twin.event(cell.members) for cell in cells[:1]] + cells[1:]
            want = pairwise_partition_fault(cells)
            assert _refusal(cells) == want, cells
            refusals.add(want and want.split(" ")[-1])
        assert {None, "overlap", "space", "spaces"} <= refusals


class TestLogicalIndependenceOracle:
    """``logically_independent`` reads the four atoms of the compatibility split; the four-meet test it
    replaced, kept in the helpers, is its oracle on both shipped models and on both non-Boolean ones.  On
    compatible pairs of the non-Boolean models it also agrees with the order characterization."""

    @staticmethod
    def _with_edge_pairs(a, b) -> list:
        return [(a, b), (a, a), (a, a.complement()), (a.meet(b), a), (a, a.join(b)), (a, b.complement())]

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-denominator", "mixed-denominators"])
    def test_interval_pairs(self, mixed):
        rng = random.Random(f"independence-oracle/{mixed}")
        answers = set()
        for _ in range(150):
            a, b = random_event(rng, max_parts=4, mixed=mixed), random_event(rng, max_parts=4, mixed=mixed)
            for x, y in self._with_edge_pairs(a, b):
                answers.add(logically_independent(x, y))
                assert logically_independent(x, y) == four_meet_independent(x, y), (x, y)
        assert answers == {False, True}

    def test_finite_pairs(self):
        rng = random.Random("independence-oracle/finite")
        answers = set()
        for _ in range(300):
            space = random_space(rng, rng.randint(1, 10))
            for x, y in self._with_edge_pairs(random_subset(rng, space), random_subset(rng, space)):
                answers.add(logically_independent(x, y))
                assert logically_independent(x, y) == four_meet_independent(x, y), (x, y)
        assert answers == {False, True}

    def test_mo2_pairs(self):
        elements = [MO2(name) for name in ("0", "1", "p", "p'", "q", "q'")]
        for x in elements:
            for y in elements:
                assert logically_independent(x, y) is four_meet_independent(x, y) is False
                if compatible(x, y):
                    assert logical_independence_equiv(x, y) is False

    def test_glued_interval_pairs(self):
        rng = random.Random("independence-oracle/glued")
        seen = set()
        for _ in range(300):
            x, y = (GluedIntervals(rng.randint(0, 1), random_event(rng, max_parts=3)) for _ in range(2))
            independent = logically_independent(x, y)
            assert independent == four_meet_independent(x, y), (x, y)
            if compatible(x, y):
                assert logical_independence_equiv(x, y) == independent, (x, y)
            seen.add((x.block == y.block, compatible(x, y), independent))
        assert {(True, True, True), (True, True, False), (False, False, False)} <= seen

    def test_a_broken_model_is_refused_where_the_four_meets_said_no(self):
        # the split's sides disagree for Absorbing against Incompatible; the four meets never asked
        assert four_meet_independent(Absorbing(), Incompatible()) is False
        with pytest.raises(InternalInvariantError, match="asymmetric"):
            logically_independent(Absorbing(), Incompatible())
        assert logically_independent(Incompatible(), Incompatible()) is four_meet_independent(
            Incompatible(), Incompatible()
        ) is False


class TestNonBooleanModel:
    """MO2, the smallest orthomodular lattice that is not Boolean: the predicates and the partition check on it."""

    p, p_, q, q_, zero, one = (MO2(name) for name in ("p", "p'", "q", "q'", "0", "1"))

    def test_compatible_within_a_block_not_across(self):
        blocks = ((self.p, self.p_), (self.q, self.q_))
        for block in blocks:
            for x in (*block, self.zero, self.one):
                for y in (*block, self.zero, self.one):
                    assert compatible(x, y)
        for x in blocks[0]:
            for y in blocks[1]:
                assert not compatible(x, y) and not compatible(y, x)

    def test_split_is_symmetric(self):
        elements = (self.p, self.p_, self.q, self.q_, self.zero, self.one)
        for x in elements:
            for y in elements:
                assert compatible(x, y) == compatible(y, x)

    def test_orthogonal_cells_are_a_partition(self):
        assert Partition((self.p, self.p_)).size == 2
        assert Partition((self.q_, self.q)).size == 2
        assert Partition((self.one,)).size == 1

    def test_disjoint_cells_that_are_not_orthogonal_are_refused(self):
        # p and q meet in 0 and join to 1, yet q is not below p' = not-p; their measures sum to 7/12, not 1
        assert pairwise_partition_fault((self.p, self.q)) is None  # the meet test took them for a partition
        assert self.p.measure() + self.q.measure() == Fraction(7, 12)
        with pytest.raises(InputError, match=r"^partition cells 0 and 1 overlap$"):
            Partition((self.p, self.q))
        with pytest.raises(InputError, match=r"^partition cells 0 and 2 overlap$"):
            Partition((self.p, self.p_, self.q))

    def test_orthogonal_cells_that_do_not_cover_are_refused(self):
        with pytest.raises(InputError, match=r"^partition cells do not cover the whole space$"):
            Partition((self.p,))


_GREECHIE_BLOCKS = tuple(
    tuple(e for e in Greechie.ELEMENTS if any(form <= block for form in e._forms())) for block in Greechie.BLOCKS
)


class TestGreechieLattice:
    """Two 8-element Boolean blocks sharing the atom z (``helpers.Greechie``): the lattice itself, then the
    predicates and the partition check on it."""

    elements, blocks = Greechie.ELEMENTS, _GREECHIE_BLOCKS
    only_a, only_b = (tuple(e for e in _GREECHIE_BLOCKS[k] if e not in _GREECHIE_BLOCKS[1 - k]) for k in (0, 1))

    def test_an_orthomodular_lattice_with_a_faithful_state(self):
        assert len(self.elements) == 12 and [len(block) for block in self.blocks] == [8, 8]
        assert len(self.only_a) == len(self.only_b) == 4
        for x in self.elements:
            assert x.complement().complement() == x and x.meet(x.complement()).is_zero
            assert x.join(x.complement()).is_one and x.measure() + x.complement().measure() == 1
            assert (x.measure() > 0) != x.is_zero
            for y in self.elements:
                assert x.meet(y).leq(x) and x.leq(x.join(y)) and (x.leq(y) == (x.meet(y) == x))
                assert x.meet(y).complement() == x.complement().join(y.complement())  # De Morgan
                if x.leq(y):  # the orthomodular law
                    assert y == x.join(x.complement().meet(y))
                if x.leq(y.complement()):  # the state is additive on orthogonal pairs
                    assert x.join(y).measure() == x.measure() + y.measure()

    def test_compatible_within_a_block_not_across(self):
        for block in self.blocks:
            for x in block:
                for y in block:
                    assert compatible(x, y)
        for x in self.only_a:
            for y in self.only_b:
                assert not compatible(x, y) and not compatible(y, x)

    def test_partition_takes_a_block_atom_triple_and_refuses_a_mixed_one(self):
        atoms = {name: Greechie(name) for name in "xyzuv"}
        for names in itertools.permutations("xyzuv", 3):
            cells = tuple(atoms[name] for name in names)
            if set(names) in ({"x", "y", "z"}, {"z", "u", "v"}):
                assert Partition(cells).cells == cells
            else:
                with pytest.raises(InputError, match=r"^partition cells \d and \d overlap$"):
                    Partition(cells)
        # x and u meet in 0 and, with z, join to 1, yet u is not below x' = {y, z}
        assert pairwise_partition_fault((atoms["x"], atoms["u"], atoms["z"])) is None
        with pytest.raises(InputError, match=r"^partition cells do not cover the whole space$"):
            Partition((atoms["x"], atoms["y"]))

    def test_product_inequality_on_compatible_triples(self):
        mo2 = [MO2(name) for name in ("0", "1", "p", "p'", "q", "q'")]
        rng = random.Random("product-inequality/glued")
        glued = []
        for _ in range(3000):  # mostly three events of one block; an event may also be 0 or 1, which both hold
            block = rng.randint(0, 1)
            blocks = [block if rng.random() < 0.9 else 1 - block for _ in range(3)]
            glued.append([GluedIntervals(k, random_event(rng)) for k in blocks])
        counts = []
        for triples in (itertools.product(self.elements, repeat=3), itertools.product(mo2, repeat=3), glued):
            counts.append(0)
            for x, y, z in triples:
                if compatible(x, y) and compatible(x, z) and compatible(y, z):
                    assert check_product_inequality(x, y, z)
                    counts[-1] += 1
        # a compatible triple lies in one block: 2 * 8^3 less the 4^3 in both, and 2 * 4^3 less the 2^3 in both
        assert counts[:2] == [960, 120] and counts[2] > 2000, counts


@pytest.mark.parametrize(
    "module, banned",
    [("lattice", {"IntervalEvent", "FiniteEvent", "_Event"}), ("engine", {"IntervalEvent", "FiniteEvent"})],
)
def test_the_lattice_and_the_engine_name_no_event_model(module, banned):
    # both dispatch on what a model offers, never on its class; the engine's Boolean gate names only the shared base
    tree = ast.parse((Path(lattice.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for alias in node.names for name in (alias.name, alias.asname))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "_require_one_model" in names  # the walk reads the names the module uses
    assert not names & banned, names & banned


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
