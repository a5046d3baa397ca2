"""The engine and the lattice answer alike on a finite space and on its interval twin.

Point i of a space with weights w_0..w_{m-1} maps to [s_i, s_i + w_i), where s_i is the sum of
the weights before i.  That map is a measure-preserving Boolean embedding, so every answer on a
finite input must equal the answer on its image, refusal texts included.  A fault that both
models share would pass that comparison, so the finite answers are also checked against
``helpers.oracle_score``, which scores the cells with Fraction quotients, and the verdicts against
``search_rccs``, whose integer cover shares no code with the engine.
"""

import random
from fractions import Fraction

import pytest

from rccs import (
    EMPTY,
    FiniteSpace,
    IntervalEvent,
    Partition,
    PreconditionError,
    RccsError,
    compatible,
    construction_steps,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)

from .helpers import (
    oracle_score,
    random_correlated_independent_pair,
    random_nonzero_event,
    random_space,
    random_subset,
)


def _twin(event, starts: list[Fraction]) -> IntervalEvent:
    weights = event.space.weights
    return IntervalEvent.normalized([(starts[i], starts[i] + weights[i]) for i in event.members])


def _outcome(entry, *args):
    """The value of ``entry(*args)``, or the type and text of the error it raises."""
    try:
        return entry(*args)
    except RccsError as exc:
        return type(exc).__name__, str(exc)


class TestIntervalTwin:
    CASES = 250
    PARTITIONS_PER_CASE = 4

    def test_every_answer_equals_its_twins(self):
        rng = random.Random(2006)
        accepted = refused = hits_seen = 0
        for _ in range(self.CASES):
            space = random_space(rng, rng.randint(1, 8))
            starts = [sum(space.weights[:i], Fraction(0)) for i in range(len(space))]
            a, b, cause = (random_subset(rng, space) for _ in range(3))
            twin_a, twin_b, twin_cause = (_twin(e, starts) for e in (a, b, cause))
            for entry in (correlation, compatible, logically_independent):
                assert _outcome(entry, a, b) == _outcome(entry, twin_a, twin_b), entry.__name__
            common = _outcome(verify_common_cause, a, b, cause)
            assert common == _outcome(verify_common_cause, twin_a, twin_b, twin_cause)

            n = rng.randint(1, min(len(space), 4))
            correlated = correlation(a, b) > 0
            hits = search_rccs(space, a, b, n) if correlated else []
            hits_seen += len(hits)
            every = list(enumerate_partitions(space, n))
            drawn = rng.sample(every, min(len(every), self.PARTITIONS_PER_CASE)) + hits[:2]
            for partition in drawn:
                twin = Partition(tuple(_twin(cell, starts) for cell in partition.cells))
                report = _outcome(verify_rccs, a, b, partition)
                assert report == _outcome(verify_rccs, twin_a, twin_b, twin)
                sides = _outcome(correlation_decomposition, a, b, partition)
                assert sides == _outcome(correlation_decomposition, twin_a, twin_b, twin)

                score = oracle_score(a, b, partition.cells)
                if not correlated:
                    assert report[0] == "PreconditionError"
                    refused += 1
                    continue
                assert (report.screening_off_ok, report.cross_ok) == (score.screening, score.cross)
                assert (report.cond_a, report.cond_b, report.cond_ab) == (score.cond_a, score.cond_b, score.cond_ab)
                assert report.verdict == (n > 1 and score.accepted) == (partition in hits)
                accepted += report.verdict
                if all(score.screening):
                    assert sides == (correlation(a, b), score.rhs)
                else:
                    assert sides[0] == "PreconditionError"
        # the draw reaches accepted systems, refusals and search hits alike
        assert accepted >= 30 and refused >= 200 and hits_seen >= 30, (accepted, refused, hits_seen)


def _shares(rng: random.Random, weight: Fraction, parts: int) -> list[Fraction]:
    """``weight`` cut into ``parts`` positive shares at seeded tenths."""
    cuts = [0, *sorted(rng.sample(range(1, 10), parts - 1)), 10]
    return [weight * Fraction(hi - lo, 10) for lo, hi in zip(cuts, cuts[1:])]


def _discretized(rng: random.Random, pieces: list[tuple[int, int, Fraction]], most: int):
    """A finite space with one or more points per piece ``(atom, cell, measure)``, in seeded order.

    Atoms are numbered a&b, a&~b, ~a&b, ~a&~b.  Each piece becomes 1-3 points that share its
    measure, within ``most`` points in all.  Returns the space, the images of a and b, and the
    cell of each point.
    """
    points, spare = [], most - len(pieces)
    for atom, cell, measure in pieces:
        parts = min(rng.choice((1, 2, 3)), spare + 1)
        spare -= parts - 1
        points += [(atom, cell, w) for w in _shares(rng, measure, parts)]
    rng.shuffle(points)
    space = FiniteSpace(w for _, _, w in points)
    a = space.event(i for i, (atom, _, _) in enumerate(points) if atom < 2)
    b = space.event(i for i, (atom, _, _) in enumerate(points) if atom % 2 == 0)
    return space, a, b, [cell for _, cell, _ in points]


class TestSearchFindsTheConstruction:
    """Check 2: the exhaustive search finds each size-3 construction, coarse-grained to a finite space.

    The construction's cells meet the four atoms of the pair in six nonempty pieces: its first cell
    lies in a&b, its second in ~a&~b, and its third meets all four atoms.  One point per piece, some
    split further, carries the construction over as a partition that must be among the hits.
    """

    CASES = 24
    LAMBDAS = (Fraction(1, 3), Fraction(1, 2), Fraction(99, 100))

    def test_the_construction_is_among_the_hits(self):
        rng = random.Random(2006)
        sizes, hits_seen, small = set(), 0, 0
        for case in range(self.CASES):
            a, b = random_correlated_independent_pair(rng)
            cells = construction_steps(a, b, self.LAMBDAS[case % 3]).system.cells.cells
            atoms = (a & b, a & ~b, ~a & b, ~a & ~b)
            pieces = [(k, c, (atom & cell).measure()) for k, atom in enumerate(atoms) for c, cell in enumerate(cells)]
            pieces = [piece for piece in pieces if piece[2]]
            assert [(k, c) for k, c, _ in pieces] == [(0, 0), (0, 2), (1, 2), (2, 2), (3, 1), (3, 2)]
            space, fa, fb, cell_of = _discretized(rng, pieces, 6 + case % 9)  # within 6 to 14 points
            mapped = [space.event(i for i, c in enumerate(cell_of) if c == k) for k in range(3)]
            hits = search_rccs(space, fa, fb, 3)
            assert Partition(sorted(mapped, key=lambda cell: cell.members[0])) in hits, (case, cell_of)
            starts = [sum(space.weights[:i], Fraction(0)) for i in range(len(space))]
            twin_a, twin_b = _twin(fa, starts), _twin(fb, starts)
            for hit in hits:
                assert verify_rccs(fa, fb, hit).verdict
                assert verify_rccs(twin_a, twin_b, Partition(_twin(cell, starts) for cell in hit.cells)).verdict
            if len(space) <= 8:  # and the engine accepts no other partition
                assert [p for p in enumerate_partitions(space, 3) if verify_rccs(fa, fb, p).verdict] == hits
                small += 1
            sizes.add(len(space))
            hits_seen += len(hits)
        assert min(sizes) == 6 and max(sizes) == 14 and hits_seen >= 48 and small >= 8, (sizes, hits_seen, small)


class TestNoGoAcrossModels:
    """Check 3: a correlated pair that is not logically independent has no system of size 3 or more.

    The pairs are interval events, one inside the other; their weighted discretizations are
    searched for every size from 3 up, and the engine rejects every such partition as well.
    """

    CASES = 16

    def test_dependent_pairs_have_no_system_of_size_three_or_more(self):
        rng = random.Random(2015)
        searches = 0
        for case in range(self.CASES):
            a = b = EMPTY
            while correlation(a, b) <= 0:
                b = random_nonzero_event(rng)
                a = b & random_nonzero_event(rng)
            if case % 2:  # either event may be the one inside the other
                a, b = b, a
            with pytest.raises(PreconditionError, match="^events are not logically independent;"):
                construction_steps(a, b)
            atoms = (a & b, a & ~b, ~a & b, ~a & ~b)
            pieces = [(k, 0, atom.measure()) for k, atom in enumerate(atoms) if not atom.is_zero]
            space, fa, fb, _ = _discretized(rng, pieces, 7)
            assert correlation(fa, fb) == correlation(a, b) and not logically_independent(fa, fb)
            starts = [sum(space.weights[:i], Fraction(0)) for i in range(len(space))]
            twin_a, twin_b = _twin(fa, starts), _twin(fb, starts)
            for n in range(3, len(space) + 1):
                assert search_rccs(space, fa, fb, n) == [], (case, n)
                searches += 1
                for partition in enumerate_partitions(space, n):
                    report = verify_rccs(fa, fb, partition)
                    assert not report.verdict
                    if all(report.screening_off_ok):  # the twin must reject it on the cross condition too
                        twin = Partition(_twin(cell, starts) for cell in partition.cells)
                        assert verify_rccs(twin_a, twin_b, twin) == report
        assert searches >= 40, searches
