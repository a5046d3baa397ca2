"""Finite spaces: measures, exhaustive partition enumeration, search."""

import copy
import itertools
import pickle
import random
import warnings
from fractions import Fraction

import pytest

from rccs import (
    FiniteEvent,
    FiniteSpace,
    InputError,
    Partition,
    PreconditionError,
    correlation,
    enumerate_partitions,
    finite_measure,
    logically_independent,
    search_rccs,
    verify_rccs,
)

from rccs.events import format_rational
from rccs.finite import _screening_cells

from .helpers import (
    brute_force_search,
    integer_brute_force,
    iv,
    label_vector,
    orbit_count,
    random_space,
    random_subset,
    screening_cells_oracle,
    two_sided_split,
    stirling2,
)


def uniform_space(m: int) -> FiniteSpace:
    return FiniteSpace(tuple(Fraction(1, m) for _ in range(m)))


# 6-point image of a size-3 interval construction: atom 0 carries the cell
# inside a&b, atom 1 the cell inside neither, atoms 2..5 the mixed cell
# split along the four quadrant meets of (a, b).
EMBEDDED_WEIGHTS = ("3/16", "6/17", "17/80", "1/10", "1/10", "4/85")
EMBEDDED_A = (0, 2, 3)
EMBEDDED_B = (0, 2, 4)


def assert_relabeling_invariant(space, a, b, n, seed):
    """Search, search again with the points permuted, compare; return the hits."""
    m = len(space)
    perm = list(range(m))
    random.Random(seed).shuffle(perm)
    # perm maps old index k to new index perm[k]
    perm_space = FiniteSpace(tuple(space.weights[perm.index(i)] for i in range(m)))
    pa = perm_space.event([perm[i] for i in a.members])
    pb = perm_space.event([perm[i] for i in b.members])
    base = search_rccs(space, a, b, n)
    relabeled = search_rccs(perm_space, pa, pb, n)

    def canon(parts, mapping):
        return {
            tuple(sorted(tuple(sorted(mapping[i] for i in c.members)) for c in p.cells))
            for p in parts
        }

    assert canon(base, perm) == canon(relabeled, range(m))
    return base


class TestSpaceAndEvents:
    def test_measure_examples(self):
        space = FiniteSpace(("1/2", "1/4", "1/4"))
        assert finite_measure(space, space.event([0, 1])) == Fraction(3, 4)
        assert finite_measure(space, space.full) == 1
        assert finite_measure(space, space.empty) == 0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            FiniteSpace(("1/2", "1/4"))

    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            FiniteSpace(("1/2", "1/2", "0"))

    def test_empty_space_rejected(self):
        with pytest.raises(InputError):
            FiniteSpace(())

    def test_event_index_out_of_range(self):
        space = uniform_space(3)
        with pytest.raises(InputError):
            space.event([0, 5])

    def test_constructor_diagnostics(self):
        space = uniform_space(3)
        cases = (
            ([0, True], "sample point indices must be integers, got True"),
            ([0, "1"], "sample point indices must be integers, got '1'"),
            ([0, 1.0], "sample point indices must be integers, got 1.0"),
            ([0, 5], "sample point 5 out of range for a 3-point space"),
            ([-1], "sample point -1 out of range for a 3-point space"),
        )
        for members, text in cases:
            for build in (lambda: FiniteEvent(space, members), lambda: space.event(members)):
                with pytest.raises(InputError) as info:
                    build()
                assert str(info.value) == text

    def test_members_ascend_without_duplicates(self):
        space = uniform_space(6)
        for build in (lambda ms: FiniteEvent(space, ms), space.event):
            assert build([4, 1, 4, 0, 1]).members == (0, 1, 4)
            assert build(iter([5, 2, 2])).members == (2, 5)
            assert build([]).members == ()
            assert build([3, 1, 3]) == build([1, 3])

    def test_interval_event_measured_in_a_space_is_refused(self):
        with pytest.raises(InputError, match="^event does not belong to the given space$"):
            finite_measure(uniform_space(3), iv("0", "1/2"))

    def test_cross_space_operations_rejected(self):
        s1, s2 = uniform_space(3), uniform_space(4)
        with pytest.raises(InputError):
            s1.event([0]).meet(s2.event([0]))

    def test_boolean_ops(self):
        space = FiniteSpace(("1/2", "1/4", "1/4"))
        a, b = space.event([0, 1]), space.event([1, 2])
        assert a.meet(b) == space.event([1])
        assert a.join(b) == space.full
        assert a.complement() == space.event([2])
        assert space.event([1]).leq(a)

    def test_copy_and_pickle_round_trip(self):
        space = FiniteSpace(("1/2", "1/3", "1/6"))
        for original in (space, space.event([0, 2]), space.empty, space.full):
            for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
                assert clone == original and hash(clone) == hash(original)

    @pytest.mark.parametrize(
        "field, value, build",
        [
            ("mask", 1 << 7, lambda: FiniteEvent(uniform_space(3), [7])),
            ("weights", (Fraction(3), Fraction(-2)), lambda: FiniteSpace((3, -2))),
        ],
        ids=["event-mask", "space-weights"],
    )
    def test_unpickling_and_copy_go_through_the_constructor(self, field, value, build):
        with pytest.raises(InputError) as expected:
            build()
        tampered = uniform_space(3).event([0]) if field == "mask" else uniform_space(2)
        object.__setattr__(tampered, field, value)
        for rebuild in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
            with pytest.raises(InputError) as err:
                rebuild(tampered)
            assert str(err.value) == str(expected.value)


class TestEnumeration:
    def test_singleton_partition(self):
        parts = list(enumerate_partitions(uniform_space(3), 3))
        assert len(parts) == 1
        assert [cell.members for cell in parts[0].cells] == [(0,), (1,), (2,)]

    def test_stirling_counts_small(self):
        assert len(list(enumerate_partitions(uniform_space(4), 2))) == 7
        assert len(list(enumerate_partitions(uniform_space(4), 3))) == 6

    def test_stirling_counts_sweep(self):
        for m in range(1, 11):
            space = uniform_space(m)
            for n in range(1, m + 1):
                assert len(list(enumerate_partitions(space, n))) == stirling2(m, n), (m, n)

    def test_no_duplicates_and_canonical_cell_order(self):
        space = uniform_space(8)
        for n in (2, 3, 4):
            seen = set()
            for p in enumerate_partitions(space, n):
                key = tuple(cell.members for cell in p.cells)
                assert key not in seen
                seen.add(key)
                smallest = [cell.members[0] for cell in p.cells]
                assert smallest == sorted(smallest)
            assert len(seen) == stirling2(8, n)

    def test_yielded_partitions_satisfy_invariants(self):
        space = uniform_space(7)
        for n in range(1, 8):
            for p in enumerate_partitions(space, n):
                assert all(not cell.is_zero for cell in p.cells)
                for i in range(p.size):
                    for j in range(i + 1, p.size):
                        assert p.cells[i].meet(p.cells[j]).is_zero
                whole = p.cells[0]
                for cell in p.cells[1:]:
                    whole = whole.join(cell)
                assert whole.is_one
                assert Partition(p.cells) == p

    def test_cell_count_out_of_range(self):
        space = uniform_space(4)
        with pytest.raises(InputError):
            list(enumerate_partitions(space, 0))
        with pytest.raises(InputError):
            list(enumerate_partitions(space, 5))

    @pytest.mark.parametrize("n", [2.0, Fraction(2)], ids=["float", "fraction"])
    def test_cell_count_must_be_an_integer(self, n):
        with pytest.raises(InputError) as err:
            list(enumerate_partitions(uniform_space(6), n))
        assert str(err.value) == f"cell count must be an integer, got {n!r}"


class TestSearch:
    def test_uncorrelated_pair_rejected(self):
        space = uniform_space(4)
        a, b = space.event([0, 1]), space.event([0, 2])
        with pytest.raises(PreconditionError):
            search_rccs(space, a, b, 2)

    def test_contained_pair_has_no_size3_system(self):
        space = uniform_space(6)
        a, b = space.event([0]), space.event([0, 1])
        assert search_rccs(space, a, b, 3) == []
        assert search_rccs(space, a, b, 4) == []

    def test_reverse_containment_has_no_size3_system(self):
        space = uniform_space(6)
        a, b = space.event([0, 1]), space.event([0])
        assert search_rccs(space, a, b, 3) == []

    def test_no_go_census_of_uniform_spaces(self):
        # every correlated, logically dependent pair on 2..9 equally weighted points, one per
        # vector of quadrant counts (|a&b|, |a&~b|, |~a&b|, |~a&~b|): the pair up to relabeling
        pairs = searches = 0
        for m in range(2, 10):
            space = uniform_space(m)
            for counts in itertools.product(range(m + 1), repeat=4):
                both, a_only, b_only, _ = counts
                if sum(counts) != m or 0 not in counts or both * m <= (both + a_only) * (both + b_only):
                    continue
                a = space.event(range(both + a_only))
                b = space.event([*range(both), *range(both + a_only, both + a_only + b_only)])
                assert correlation(a, b) > 0 and not logically_independent(a, b)
                pairs += 1
                for n in range(3, m + 1):
                    assert search_rccs(space, a, b, n) == [], (counts, n)
                    searches += 1
        assert (pairs, searches) == (204, 1092)

    def test_embedded_system_is_found_and_cross_verified(self):
        space = FiniteSpace(EMBEDDED_WEIGHTS)
        a, b = space.event(EMBEDDED_A), space.event(EMBEDDED_B)
        hits = search_rccs(space, a, b, 3)
        assert hits, "the embedded size-3 system must be found"
        keys = [tuple(cell.members for cell in p.cells) for p in hits]
        assert ((0,), (1,), (2, 3, 4, 5)) in keys
        for p in hits:
            assert verify_rccs(a, b, p).verdict

    def test_search_results_invariant_under_relabeling(self):
        space = FiniteSpace(("1/16", "3/16", "5/16", "2/16", "4/16", "1/16"))
        a, b = space.event([0, 1, 2]), space.event([1, 2, 3])
        assert_relabeling_invariant(space, a, b, 3, seed=55)

    def test_cutoff_refuses_large_space(self):
        space = uniform_space(15)
        a, b = space.event([0]), space.event([0, 1])
        with pytest.raises(InputError):
            search_rccs(space, a, b, 3)

    @pytest.mark.parametrize(
        "limit, message",
        [
            ("x", "max_points must be an integer, got 'x'"),
            (None, "max_points must be an integer, got None"),
            (True, "max_points must be an integer, got True"),
            (2.5, "max_points must be an integer, got 2.5"),
            (0, "max_points must be at least 1, got 0"),
            (-1, "max_points must be at least 1, got -1"),
        ],
        ids=["text", "none", "bool", "float", "zero", "negative"],
    )
    def test_bad_cutoff_is_refused_as_the_cli_refuses_it(self, limit, message):
        # a bool, a float or a number below 1 is not a cutoff, though comparing m with it would not fail
        space = uniform_space(4)
        with pytest.raises(InputError) as err:
            search_rccs(space, space.event([0, 1]), space.event([0, 1, 2]), 2, max_points=limit)
        assert str(err.value) == message

    def test_bad_cutoff_is_refused_after_the_events_and_before_the_correlation(self):
        space = uniform_space(4)
        with pytest.raises(InputError, match="^events do not belong to the given space$"):
            search_rccs(space, iv("0", "1/2"), space.event([0]), 2, max_points=None)
        with pytest.raises(InputError, match="^max_points must be at least 1, got 0$"):
            search_rccs(space, space.event([0, 1]), space.event([0, 2]), 9, max_points=0)  # uncorrelated, bad count

    def test_cutoff_override_searches_without_a_warning(self):
        space = uniform_space(15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sizes, n in (((1, 0, 1, 13), 15), ((2, 1, 1, 11), 3)):
                k1, k2, k3, _ = sizes
                a, b = space.event(range(k1 + k2)), space.event([*range(k1), *range(k1 + k2, k1 + k2 + k3)])
                assert len(search_rccs(space, a, b, n, max_points=15)) == orbit_count(sizes, n)
        assert orbit_count((2, 1, 1, 11), 3) == 22

    def test_contained_pair_at_fifteen_points_is_empty(self):
        # a inside b leaves no cell meeting both a&b and ~a&~b, so no cover is needed to prove it
        space = uniform_space(15)
        a, b = space.event([0]), space.event([0, 1])
        assert search_rccs(space, a, b, 4, max_points=15) == []

    def test_interval_events_are_refused(self):
        a, b = iv("0", "1/2"), iv("0", "1/4")
        for space_a, space_b in ((a, b), (uniform_space(4).event([0]), b)):
            with pytest.raises(InputError, match="^events do not belong to the given space$"):
                search_rccs(uniform_space(4), space_a, space_b, 2)

    def test_cell_count_out_of_range(self):
        space = uniform_space(4)
        a, b = space.event([0, 1]), space.event([0, 1, 2])
        for n in (0, 5):
            with pytest.raises(InputError):
                search_rccs(space, a, b, n)

    @pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
    def test_cell_count_must_be_an_integer(self, n):
        # at 2.5 an empty list would be a false proof that no system exists; True would run as n=1
        space = uniform_space(6)
        with pytest.raises(InputError) as err:
            search_rccs(space, space.event([0, 1, 2]), space.event([1, 2, 3]), n)
        assert str(err.value) == f"cell count must be an integer, got {n!r}"

    def test_uncorrelated_pair_checked_before_cell_count(self):
        space = uniform_space(4)
        a, b = space.event([0, 1]), space.event([0, 2])
        for n in (0, 5):
            with pytest.raises(PreconditionError):
                search_rccs(space, a, b, n)

    def test_refusals_come_before_the_subset_table(self):
        # a 2^64-entry table cannot even be requested ([0] * 2**64 raises OverflowError),
        # so these answers show that neither refusal waits for the table
        space = uniform_space(64)
        a = space.event(range(32))
        with pytest.raises(PreconditionError, match=r"joint excess 0\)"):
            search_rccs(space, a, space.event([*range(16), *range(32, 48)]), 3, max_points=64)
        with pytest.raises(InputError, match="^cell count 65 out of range 1..64$"):
            search_rccs(space, a, space.event(range(16, 40)), 65, max_points=64)

    def test_correlation_refusal_against_the_lattice_oracle(self):
        # the search reads the joint excess off its integer subset table; lattice.correlation is the oracle
        rng = random.Random(1414)
        signs = set()
        for m in range(1, 9):
            for _ in range(12):
                space = random_space(rng, m)
                x = random_subset(rng, space)
                pairs = [(random_subset(rng, space), random_subset(rng, space)), (space.empty, x), (x, space.full),
                         (x, ~x), (x, x)]
                if m in (4, 8):  # independent halves of a uniform space
                    pairs.append((uniform_space(m).event(range(m // 2)), uniform_space(m).event([0, m - 1])))
                for a, b in pairs:
                    excess = correlation(a, b)
                    signs.add((excess > 0) - (excess < 0))
                    for n in (0, 1, 2.5, m + 1):
                        if excess <= 0:
                            with pytest.raises(PreconditionError) as err:
                                search_rccs(a.space, a, b, n)
                            assert str(err.value) == (
                                f"events are not correlated (joint excess {format_rational(excess)}); "
                                "a common cause system explains only positive correlations"
                            )
                        elif n == 1:
                            assert search_rccs(a.space, a, b, n) == []
                        else:  # the cell count is checked only after the correlation
                            with pytest.raises(InputError, match="^cell count"):
                                search_rccs(a.space, a, b, n)
        assert signs == {-1, 0, 1}

    def test_single_cell_never_screens_off_a_correlation(self):
        space = uniform_space(6)
        a, b = space.event([0, 1, 2]), space.event([1, 2, 3])
        assert search_rccs(space, a, b, 1) == []

    def test_relabeling_invariance_beyond_brute_force_reach(self):
        # S(12, 3) = 86526 candidates: too many to score in the suite, so
        # the search is checked against itself under a permutation.
        space = uniform_space(12)
        a, b = space.event(range(0, 6)), space.event(range(2, 8))
        assert assert_relabeling_invariant(space, a, b, 3, seed=12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(2004)
        cases = nonempty = 0
        while cases < 300:
            m = rng.randint(2, 8)
            space = uniform_space(m) if cases % 2 else random_space(rng, m)
            a = space.event([i for i in range(m) if rng.random() < 0.5])
            b = space.event([i for i in range(m) if rng.random() < 0.5])
            if correlation(a, b) <= 0:
                continue
            n = rng.randint(1, min(4, m))
            hits = search_rccs(space, a, b, n)
            assert all(Partition(p.cells) == p for p in hits)
            got = [[c.members for c in p.cells] for p in hits]
            want = [[c.members for c in p.cells] for p in brute_force_search(space, a, b, n)]
            assert got == want, (space.weights, a.members, b.members, n)
            cases += 1
            nonempty += bool(want)
        assert nonempty >= 50


def planted_distinct_weights(rng: random.Random, m: int, quadruples: int) -> tuple[list[int], int, int]:
    """m distinct integer weights and the masks of a and b, in a seeded shuffled order.

    Each planted quadruple pr, ps, qr, qs puts one point in each atom a&b,
    a&~b, ~a&b, ~a&~b, so those four points make a cell that screens off
    (pr qs == ps qr): without them distinct weights almost never give a
    system of three or more cells.  The other points fall in random atoms.
    """
    while True:
        weights, atoms = [], []
        for _ in range(quadruples):
            p, q = rng.sample(range(1, 8), 2)
            r, s = rng.sample(range(1, 8), 2)
            weights += [p * r, p * s, q * r, q * s]
            atoms += [0, 1, 2, 3]
        weights += rng.sample(range(1, 50), m - len(weights))
        if len(set(weights)) == m:
            break
    atoms += [rng.randrange(4) for _ in range(m - len(atoms))]
    order = rng.sample(range(m), m)
    mask_a = sum(1 << i for i, k in enumerate(order) if atoms[k] < 2)
    mask_b = sum(1 << i for i, k in enumerate(order) if atoms[k] in (0, 2))
    return [weights[k] for k in order], mask_a, mask_b


class TestIntegerBruteForce:
    """Beyond the Fraction brute force's reach: every hit and its order against an integer walk of all labellings."""

    def test_matches_search_on_distinct_weights(self):
        rng = random.Random(2611)
        cases = hits = with_hits = 0
        while cases < 30:
            m, n = 9 + cases % 3, (2, 3, 3, 4, 4)[cases % 5]
            weights, mask_a, mask_b = planted_distinct_weights(rng, m, max(1, n - 2))
            space = FiniteSpace(tuple(Fraction(w, sum(weights)) for w in weights))
            a, b = (space.event(i for i in range(m) if mask >> i & 1) for mask in (mask_a, mask_b))
            if correlation(a, b) <= 0:
                continue
            want = integer_brute_force(weights, mask_a, mask_b, n)
            assert [label_vector(p) for p in search_rccs(space, a, b, n)] == want, (weights, mask_a, mask_b, n)
            cases += 1
            hits += len(want)
            with_hits += n >= 3 and bool(want)
        assert with_hits >= 5 and hits >= 30


class TestScreeningCells:
    """The atom join lists exactly the cells that a scan of all 2^m subsets finds, each filed once by kind."""

    @staticmethod
    def pairs(rng: random.Random, m: int):
        full = (1 << m) - 1
        x, y = rng.getrandbits(m), rng.getrandbits(m)
        return {
            "random": (x, y),
            "a = b": (x, x),
            "a inside b": (x & y, y),
            "b inside a": (x, x & y),
            "a&b empty": (x & ~y, y),
            "a or b is everything": (x | ~y & full, y),
            "a empty": (0, y),
            "a full": (full, y),
            "one point each": (1 << rng.randrange(m), 1 << rng.randrange(m)),
        }

    def test_matches_the_subset_scan(self):
        rng = random.Random(1974)
        zero_heavy, largest = 0, set()
        for case in range(192):
            m = case % 12 + 1
            weights = [1] * m if case % 3 == 0 else [rng.randint(1, 9) for _ in range(m)]
            for kind, (mask_a, mask_b) in self.pairs(rng, m).items():
                want = screening_cells_oracle(weights, mask_a, mask_b, m)
                a_b, rest = mask_a & mask_b, ((1 << m) - 1) & ~(mask_a | mask_b)
                edge = {s: (not s & a_b) | (not s & rest) << 1 for s in want}  # 1 misses a&b, 2 misses ~a&~b
                cells, by_lowest = _screening_cells(weights, mask_a, mask_b, m)
                case_id = (kind, weights, mask_a, mask_b)
                # key for key and weight for weight, without the cells that are both bottom and top
                assert {s: v[:3] for s, v in cells.items()} == {s: v for s, v in want.items() if edge[s] < 3}, case_id
                assert all(v[3] == edge[s] for s, v in cells.items()), case_id
                filed = [(k, i, s) for k, row in enumerate(by_lowest) for i, lows in enumerate(row) for s in lows]
                assert sorted(filed) == sorted((v[3], (s & -s).bit_length() - 1, s) for s, v in cells.items()), case_id
                assert len(by_lowest) == 3 and all(len(row) == m for row in by_lowest)
                # the join puts the largest atom (the first of the largest) last; its flags must follow the atom
                sizes = [x.bit_count() for x in (a_b, mask_a & ~mask_b, mask_b & ~mask_a, rest)]
                largest.add((sizes.index(max(sizes)), sizes.count(max(sizes)) > 1))
                zero = sum(
                    (not s & a_b or not s & rest) and (not s & mask_a & ~mask_b or not s & mask_b & ~mask_a)
                    for s in want
                )
                if a_b and rest and mask_a != mask_b and 2 * zero > len(want):
                    zero_heavy += 1
        assert zero_heavy >= 300  # pairs whose zero-product class is most of the answer
        assert {big for big, _ in largest} == {0, 1, 2, 3}
        assert {big for big, tie in largest if tie} == {0, 1, 2}  # a tie goes to the first: never to ~a&~b


class TestEdgeCells:
    """A system has at most one cell missing a&b, at most one missing ~a&~b, and none missing both.

    Checked on the partitions that ``verify_rccs`` accepts, independently of ``search_rccs``.
    """

    def test_accepted_partitions_have_one_edge_cell_of_each_kind_at_most(self):
        rng = random.Random(2317)
        accepted, edges = 0, {"bottom": 0, "top": 0}
        for case in range(100):
            m = rng.randint(3, 7)
            space = uniform_space(m) if case % 2 else random_space(rng, m)
            a, b = random_subset(rng, space), random_subset(rng, space)
            if correlation(a, b) <= 0:
                continue
            both, neither = a & b, ~a & ~b
            for n in range(2, min(4, m) + 1):
                for p in enumerate_partitions(space, n):
                    if not verify_rccs(a, b, p).verdict:
                        continue
                    bottom = [c.meet(both).is_zero for c in p.cells]
                    top = [c.meet(neither).is_zero for c in p.cells]
                    assert sum(bottom) <= 1 and sum(top) <= 1, (space.weights, a, b, p)
                    assert not any(x and y for x, y in zip(bottom, top)), (space.weights, a, b, p)
                    accepted += 1
                    edges["bottom"] += any(bottom)
                    edges["top"] += any(top)
        assert (accepted, edges) == (127, {"bottom": 123, "top": 114})

    def test_dependent_pair_has_no_interior_screening_cell(self):
        rng = random.Random(1923)
        edge_cells = 0
        for case in range(200):
            m = rng.randint(2, 9)
            weights = [rng.randint(1, 9) for _ in range(m)]
            a, b = rng.getrandbits(m), rng.getrandbits(m)
            full = (1 << m) - 1
            a, b = ((a & ~b, b), (a & b, b), (a, a & b), (a | ~b & full, b))[case % 4]  # one atom emptied
            both, neither = a & b, full & ~(a | b)
            cells = screening_cells_oracle(weights, a, b, m)
            assert not [s for s in cells if s & both and s & neither], (weights, a, b)
            edge_cells += sum(bool(s & (both | neither)) for s in cells)
        assert edge_cells == 7246  # screening cells meeting a&b or ~a&~b, each checked above


class TestOrbitOracle:
    """In a uniform space the number of hits follows from the cells' count vectors."""

    @staticmethod
    def search_count(sizes, n, seed, **kwargs) -> int:
        m = sum(sizes)
        space = uniform_space(m)
        points = list(range(m))
        random.Random(seed).shuffle(points)
        k1, k2, k3, _ = sizes
        a = space.event(points[: k1 + k2])
        b = space.event(points[:k1] + points[k1 + k2 : k1 + k2 + k3])
        return len(search_rccs(space, a, b, n, **kwargs))

    def test_every_correlated_shape_up_to_nine_points(self):
        searches = hits = 0
        for m in range(2, 10):
            for sizes in itertools.product(range(m + 1), repeat=4):
                k1, k2, k3, _ = sizes
                if sum(sizes) != m or k1 * m <= (k1 + k2) * (k1 + k3):
                    continue
                for n in range(2, min(4, m) + 1):
                    want = orbit_count(sizes, n)
                    assert self.search_count(sizes, n, seed=searches) == want, (sizes, n)
                    searches += 1
                    hits += want
        assert (searches, hits) == (774, 2943)

    @pytest.mark.parametrize(
        "sizes, n, want",
        [((4, 2, 2, 4), 4, 0), ((4, 3, 2, 5), 3, 1990), ((5, 3, 3, 5), 3, 8950), ((4, 3, 3, 6), 4, 3240)],
    )
    def test_beyond_the_cutoff(self, sizes, n, want):
        assert orbit_count(sizes, n) == want
        if sum(sizes) > 14:
            assert self.search_count(sizes, n, seed=16, max_points=16) == want
        else:
            assert self.search_count(sizes, n, seed=16) == want


class TestHitOrder:
    """Hits come in restricted growth order of their label vectors, also beyond brute-force reach."""

    @staticmethod
    def assert_label_order(hits, n):
        vectors = [label_vector(p) for p in hits]
        assert all(len(p.cells) == n for p in hits)
        assert all(v < w for v, w in zip(vectors, vectors[1:]))
        assert all(list(dict.fromkeys(v)) == list(range(n)) for v in vectors)  # cells by smallest member

    def test_label_vectors_strictly_increase(self):
        # S(14, 3) = 788970 partitions: too many to score in the suite
        space = uniform_space(14)
        a, b = space.event(range(7)), space.event([0, 1, 2, 3, 7, 8])  # sizes (4, 3, 2, 5)
        hits = search_rccs(space, a, b, 3)
        assert len(hits) == orbit_count((4, 3, 2, 5), 3) == 1990
        self.assert_label_order(hits, 3)

        rng = random.Random(35)
        space = random_space(rng, rng.randint(12, 14))
        a, b = random_subset(rng, space), random_subset(rng, space)
        hits = search_rccs(space, a, b, 3)
        assert (len(space), len(hits)) == (14, 643)
        self.assert_label_order(hits, 3)


def scrambled(rng, points: set) -> list:
    """The points in random order, some of them repeated."""
    members = [*points, *rng.choices(sorted(points), k=len(points))] if points else []
    rng.shuffle(members)
    return members


class TestBitmaskKernel:
    """Kernel results and search cells are built from masks, unchecked; these tests check them."""

    def test_kernel_matches_set_oracle(self):
        rng = random.Random(1212)
        for _ in range(1000):
            m = rng.randint(1, 14)
            space = random_space(rng, m)
            universe = set(range(m))
            sx, sy = ({i for i in range(m) if rng.random() < p} for p in (rng.random(), rng.random()))
            x, y = (space.event(scrambled(rng, s)) for s in (sx, sy))
            assert x.members == tuple(sorted(sx))
            cases = (
                (x, sx),
                (x.meet(y), sx & sy),
                (x.join(y), sx | sy),
                (x.complement(), universe - sx),
                (x.complement().join(y), (universe - sx) | sy),
                (y.complement().meet(x.complement()), universe - sx - sy),
                (x & ~y | ~x & y, sx ^ sy),
            )
            for event, want in cases:
                expected = tuple(sorted(want))
                rebuilt = FiniteEvent(space, reversed(expected))
                assert event.members == expected
                assert event == rebuilt and hash(event) == hash(rebuilt)
                assert str(event) == "{" + ", ".join(map(str, expected)) + "}"
                assert event.measure() == sum((space.weights[i] for i in want), Fraction(0))
                assert event.is_zero == (not want)
                assert event.is_one == (want == universe)
                assert event.leq(x) == (want <= sx) and x.leq(event) == (sx <= want)
            assert (x == y) == (sx == sy)

    def test_atoms_match_set_oracle(self):
        # the four masks against sets, and against the two-sided split from meets, joins and complements
        rng = random.Random(1213)
        for _ in range(400):
            m = rng.randint(1, 12)
            space = random_space(rng, m)
            universe = set(range(m))
            sx, sy = ({i for i in range(m) if rng.random() < p} for p in (rng.random(), rng.random()))
            sy = rng.choice((sy, sx, universe - sx, sx & sy, set(), universe))
            x, y = space.event(sx), space.event(sy)
            atoms = x._atoms(y)
            assert [atom.members for atom in atoms] == [
                tuple(sorted(want)) for want in (sx & sy, sx - sy, sy - sx, universe - sx - sy)
            ]
            assert all(atom.space is space for atom in atoms)
            a_side, b_side, split = two_sided_split(x, y)
            assert a_side and b_side and atoms == split

    def test_atoms_of_two_spaces_refused(self):
        a, other = uniform_space(4).event((0, 1)), uniform_space(2).event((0,))
        for x, y in ((a, other), (other, a)):
            with pytest.raises(InputError, match=r"^events belong to different spaces$"):
                x._atoms(y)

    def test_trusted_paths_run_no_member_check(self, monkeypatch):
        space = uniform_space(8)
        a, b = space.event(range(0, 4)), space.event(range(2, 5))
        checked = []
        original = FiniteEvent.__init__

        def counting(self, *args, **kwargs):
            checked.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(FiniteEvent, "__init__", counting)
        runs = {
            "kernel": lambda: a.meet(b).join(a.complement()).complement().members,
            "search": lambda: len(search_rccs(space, a, b, 3)),
            "enumerate": lambda: sum(1 for _ in enumerate_partitions(uniform_space(6), 3)),
        }
        results, counts = {}, {}
        for name, run in runs.items():
            before = len(checked)
            results[name] = run()
            counts[name] = len(checked) - before
        assert results == {"kernel": (0, 1), "search": 18, "enumerate": stirling2(6, 3)}
        assert counts == {"kernel": 0, "search": 0, "enumerate": 0}
        space.event([0])
        assert len(checked) == 1
