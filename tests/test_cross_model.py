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

from rccs import (
    IntervalEvent,
    Partition,
    RccsError,
    compatible,
    correlation,
    correlation_decomposition,
    enumerate_partitions,
    logically_independent,
    search_rccs,
    verify_common_cause,
    verify_rccs,
)

from .helpers import oracle_score, random_space, random_subset


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
