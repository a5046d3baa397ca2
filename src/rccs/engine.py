"""Verification and construction of common cause systems.

A common cause system for a correlated pair (a, b) is a partition whose
cells all screen off the correlation (conditional on any cell, a and b
are independent) while the conditional probabilities of a and of b move
in the same direction between any two cells.  Size 2 recovers the
classic common cause.

The centerpiece is :func:`construct_size3`: for any correlated, logically
independent pair of events that ``carve`` (interval events ship) it
builds, deterministically and in exact arithmetic, a three-cell system

* one cell inside the joint event, where both conditionals are 1,
* one cell inside the complement of the union, where both are 0,
* the remaining cell, where both conditionals are strictly between.

Every verification here is exact; reports carry rationals, never floats,
so serialized results are bit-stable.  The defining conditions are
polynomial in each cell's four measures, so one kernel,
:func:`_conditions`, puts each cell's measures over one denominator and
decides them on integers.  Its gcds are one lcm per cell and the
reductions of the rationals a report carries.  Each entry point has the
lattice check its pair's surface and model once, before the memo.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational
from typing import NamedTuple

from .errors import InputError, InternalInvariantError, PreconditionError, echo
from .events import _Event, _outside_unit, _Value, as_fraction, format_rational
from .lattice import LatticeEvent, Partition, _require_one_model, _split, compatible

# the atoms a&b, a&~b, ~a&b, ~a&~b of a compatible pair (a, b)
_Atoms = tuple[LatticeEvent, LatticeEvent, LatticeEvent, LatticeEvent]
_Measures = tuple[Fraction, Fraction, Fraction, Fraction]
_Entry = tuple[_Atoms, _Measures, dict]


@lru_cache(maxsize=1)
def _pair(a: LatticeEvent, b: LatticeEvent) -> _Entry:
    """The atoms of a compatible pair (a, b), m(a), m(b), m(a&b) and the joint excess, and its cell table.

    The lattice's compatibility split gives the pair's atoms a&b, a&~b,
    ~a&b and ~a&~b, from the model's ``_atoms`` where it has one.  a is
    the disjoint join of a&b and a&~b, and b that of a&b and ~a&b, so m(a)
    and m(b) are sums of three atom measures, and the excess is
    m(a&b) - m(a)m(b).

    Memoized for the last pair: events are immutable and hashable, so an
    equal pair has equal atoms and measures, and repeated engine calls on
    one pair split and measure it once.  One entry serves a construction
    and the verifications that follow it; a larger memo only holds on to
    more events.  The entry's table maps each cell of the last partition
    :func:`_verify` checked on this pair to its quadruple
    ``(m, m_a, m_b, m_ab)``, so a later verification meets and measures
    only cells it has not just seen.  The table belongs to this pair
    alone and holds one partition's cells; ``_pair.cache_clear()`` drops
    it with the split.  An exception is never cached, so a pair that
    fails the test is tested again, and refused, on every call.
    """
    is_compatible, *atoms = _split(a, b)
    if not is_compatible:
        raise PreconditionError("events are not compatible")
    m_ab, m_a_only, m_b_only = (atom.measure() for atom in atoms[:3])
    m_a, m_b = m_ab + m_a_only, m_ab + m_b_only
    return tuple(atoms), (m_a, m_b, m_ab, m_ab - m_a * m_b), {}


def _checked_pair(a: LatticeEvent, b: LatticeEvent) -> _Entry:
    """:func:`_pair`, after the lattice refuses a non-event or a pair of two models: before the memo hashes it."""
    _require_one_model(a, b)
    return _pair(a, b)


def _require_correlated(pair: _Entry) -> _Entry:
    """A pair's :func:`_pair` entry, after checking that the joint excess is positive."""
    excess = pair[1][3]
    if excess <= 0:
        raise PreconditionError(
            f"events are not correlated (joint excess {format_rational(excess)}); "
            "there is no correlation to explain"
        )
    return pair


_Quads = Sequence[tuple[Rational, Rational, Rational, Rational]]
_Cross = tuple[tuple[int, int, bool], ...]


def _conditions(quads: _Quads) -> tuple[tuple[bool, ...], _Cross, Fraction, tuple[tuple[Fraction, ...], ...]]:
    """The defining conditions on per-cell quadruples ``(m, m_a, m_b, m_ab)``, decided in integers.

    Each quadruple is put over d, the lcm of its four denominators, as the
    integer row ``(m, m_a, m_b, m_ab)`` times d.  With P(x|c) = m_x / m
    and every m > 0, d cancels from each test: screening-off is
    ``m m_ab == m_a m_b``; for cells i < j, ``da = a_i m_j - a_j m_i`` is
    m_i m_j (P(a|c_i) - P(a|c_j)) and ``db`` likewise, so the cross
    condition is ``da db > 0`` and the decomposition right-hand side is
    the sum of ``da db / (m_i m_j d_i d_j)``.  That sum is accumulated
    as one unreduced numerator over the product of the ``m d``, without
    a division, and reduced once.  Returns the screening-off flags,
    ``(i, j, ok)`` per pair, that right-hand side and the conditionals
    of a, b and a&b per cell, each ``m_x / m`` built reduced from its
    row, since d cancels from it too.
    """
    rows = []
    for quad in quads:
        d = lcm(*[x.denominator for x in quad])
        m, m_a, m_b, m_ab = [x.numerator * (d // x.denominator) for x in quad]
        rows.append((m * d, m, m_a, m_b, m_ab))
    screening = tuple(m * m_ab == m_a * m_b for _, m, m_a, m_b, m_ab in rows)
    cross = []
    # with w = m d per row the right-hand side is the sum over i < j of product / (w_i w_j).  Over j > i,
    # tail / run is the sum of product / w_j and run the product of those w_j, so cell i adds tail / (w_i run):
    # tail times the product of the w before it, over the product of all the w
    num, prefix = 0, 1
    for i, (w_i, m_i, a_i, b_i, _) in enumerate(rows):
        tail, run = 0, 1
        for j in range(i + 1, len(rows)):
            w_j, m_j, a_j, b_j, _ = rows[j]
            product = (a_i * m_j - a_j * m_i) * (b_i * m_j - b_j * m_i)
            cross.append((i, j, product > 0))
            tail, run = tail * w_j + product * run, run * w_j
        num += tail * prefix
        prefix *= w_i
    conditionals = (
        tuple(Fraction(m_a, m) for _, m, m_a, _, _ in rows),
        tuple(Fraction(m_b, m) for _, m, _, m_b, _ in rows),
        tuple(Fraction(m_ab, m) for _, m, _, _, m_ab in rows),
    )
    return screening, tuple(cross), Fraction(num, prefix), conditionals


class CommonCauseSystem(_Value):
    """A verified common cause system: a partition plus its conditionals.

    The constructor and unpickling enforce the defining conditions exactly,
    so an instance of this type is always a genuine system: ``cond_ab``
    equals the cellwise product of ``cond_a`` and ``cond_b``, and the
    cross-differences have a strictly positive product on every pair of
    cells.  Only :func:`construction_steps` skips them, with ``_trusted``.
    """

    __slots__ = ("cells", "cond_a", "cond_b", "cond_ab")

    def __init__(self, cells: Partition, cond_a: tuple, cond_b: tuple, cond_ab: tuple) -> None:
        n = len(_cells(cells))
        rows = (("cond_a", cond_a), ("cond_b", cond_b), ("cond_ab", cond_ab))
        for name, row in rows:
            if not isinstance(row, (tuple, list)):
                raise InputError(f"{name} must be a tuple of conditionals, got {echo(row)}")
        if not (len(cond_a) == len(cond_b) == len(cond_ab) == n):
            raise InputError("conditional lists must align with the partition cells")
        if n < 2:
            raise InputError("a common cause system needs at least two cells")
        for name, row in rows:
            for k, value in enumerate(row):
                failure = _outside_unit(f"{name}[{k}]", value)
                if failure:
                    raise InputError(failure)
                if isinstance(value, bool):  # a numbers.Rational, but never a probability here
                    raise InputError(f"{name}[{k}] = {value!r}: booleans are not rational scalars")
                if not isinstance(value, Rational):  # a float's rounding could pass an exact test it fails
                    raise InputError(f"{name}[{k}] = {value!r} is not exact; pass a Fraction or an int")
        screening, cross, _, _ = _conditions(tuple(zip((1,) * n, cond_a, cond_b, cond_ab)))
        failure = _first_failure(screening, cross)
        if failure is not None:
            raise InputError(failure)
        super().__init__(cells, cond_a, cond_b, cond_ab)

    @property
    def size(self) -> int:
        return self.cells.size

    @property
    def cell_measures(self) -> tuple[Fraction, ...]:
        return tuple(cell.measure() for cell in self.cells.cells)


class VerificationReport(NamedTuple):
    """Outcome of checking the defining conditions on a candidate.

    ``screening_off_ok`` has one flag per cell, ``cross_ok`` one entry
    per unordered cell pair as ``(i, j, ok)``.  Both sides of the
    correlation decomposition identity are always included; they agree
    whenever screening-off holds on every cell.  ``verdict`` is True only
    if every flag is, and ``failure`` names the first condition that
    failed.
    """

    screening_off_ok: tuple[bool, ...]
    cross_ok: tuple[tuple[int, int, bool], ...]
    cell_measures: tuple[Fraction, ...]
    cond_a: tuple[Fraction, ...]
    cond_b: tuple[Fraction, ...]
    cond_ab: tuple[Fraction, ...]
    decomposition_lhs: Fraction
    decomposition_rhs: Fraction
    verdict: bool
    failure: str | None = None


def _first_failure(screening: tuple[bool, ...], cross: _Cross) -> str | None:
    for k, ok in enumerate(screening):
        if not ok:
            return f"screening-off fails on cell {k}"
    for i, j, ok in cross:
        if not ok:
            return f"cross-difference condition fails for cells ({i}, {j})"
    return None


def _cells(partition: Partition) -> tuple[LatticeEvent, ...]:
    """The cells of ``partition``, after refusing anything that is not a :class:`Partition`."""
    if not isinstance(partition, Partition):
        raise InputError(f"expected a Partition, got {type(partition).__name__}")
    return partition.cells


def _verify(a: LatticeEvent, b: LatticeEvent, pair: _Entry, cells: tuple[LatticeEvent, ...]) -> VerificationReport:
    """The report on ``cells`` for the pair (a, b), given its :func:`_pair` entry.

    The one verification core: every engine entry point reads its answer off
    this report, and passes the a and b it holds.  One walk over the cells
    refuses, in turn, a cell of another model than the atoms', a cell not
    compatible with a and b, and a cell of measure zero.  The conditions
    assume every cell compatible with a and b; a Boolean model's cells
    always are, so only a pair of another model has its cells tested.  Each
    cell is met with the three atoms: m(a&b&cell), plus m(a&~b&cell) for a
    and m(~a&b&cell) for b.  An equal pair reuses its split and the
    last-verified cells' measures from the entry's table, which then holds
    this call's cells (a refused cell is never stored), and every condition
    is decided on every call.
    """
    (both, a_only, b_only, _), measures, table = pair
    boolean, quads = isinstance(both, _Event), []
    for k, cell in enumerate(cells):
        if not isinstance(cell, both.__class__):
            raise InputError(f"cell {k} is not an event of the same model as the pair")
        if not (boolean or compatible(a, cell) and compatible(b, cell)):
            raise PreconditionError(
                f"cell {k} is not compatible with a and b; the defining conditions need every cell compatible"
            )
        quad = table.get(cell)
        if quad is None:
            weight = cell.measure()
            if weight == 0:
                raise PreconditionError(f"cell {k} has measure zero; conditionals are undefined")
            m_ab = both.meet(cell).measure()
            quad = (weight, m_ab + a_only.meet(cell).measure(), m_ab + b_only.meet(cell).measure(), m_ab)
        quads.append(quad)
    table.clear()
    table.update(zip(cells, quads))
    screening, cross, rhs, (cond_a, cond_b, cond_ab) = _conditions(quads)
    size_note = "size < 2: a single cell admits no cross-difference condition" if len(cells) < 2 else None
    failure = size_note or _first_failure(screening, cross)
    return VerificationReport(
        screening_off_ok=screening,
        cross_ok=cross,
        cell_measures=tuple(m for m, _, _, _ in quads),
        cond_a=cond_a,
        cond_b=cond_b,
        cond_ab=cond_ab,
        decomposition_lhs=measures[3],
        decomposition_rhs=rhs,
        verdict=failure is None,
        failure=failure,
    )


def verify_rccs(a: LatticeEvent, b: LatticeEvent, partition: Partition) -> VerificationReport:
    """Check, exactly, whether a partition is a common cause system for (a, b).

    The pair must be compatible and correlated, and every cell must have
    positive measure.  Partitions of size 1 are structurally valid but
    are rejected with a "size < 2" diagnostic, since the cross-difference
    condition quantifies over distinct pairs.

    The compatibility test splits the pair into its atoms a&b, a&~b and
    ~a&b; the joint excess and every cell's measures are taken from them,
    so a is never met with b again.  An equal pair reuses its split and
    the last-verified cells' measures (see :func:`_pair`), and every
    precondition and condition is decided on every call.
    """
    return _verify(a, b, _require_correlated(_checked_pair(a, b)), _cells(partition))


def verify_common_cause(a: LatticeEvent, b: LatticeEvent, cause: LatticeEvent) -> VerificationReport:
    """Check the classic two-cell common cause conditions for (a, b).

    Conditional on the cause and on its complement, a and b must be
    independent, and the cause must raise the probability of each event:
    P(a | cause) > P(a | not-cause) and likewise for b.  These are the
    size-2 system conditions with a fixed orientation.

    A cause that screens off a correlated pair raises both events or
    lowers both: the joint excess is then m(c) m(~c) times the product of
    the two differences.  So only the first event's test can fail.  The
    cause is split against a only, which also refuses one from another
    finite space; :func:`_verify` tests it against b with every cell, and
    in a Boolean model that test cannot fail.
    """
    pair = _checked_pair(a, b)
    if not compatible(a, cause):
        raise PreconditionError("events are not compatible")
    cause_measure = cause.measure()
    if not 0 < cause_measure < 1:
        raise PreconditionError(
            f"a common cause must have measure strictly between 0 and 1, got {format_rational(cause_measure)}"
        )
    report = _verify(a, b, _require_correlated(pair), (cause, cause.complement()))
    raises_a, raises_b = (cond[0] > cond[1] for cond in (report.cond_a, report.cond_b))
    # with screening-off on both cells the report's identity reads excess = m(c) m(~c) *
    # (P(a|c) - P(a|~c)) (P(b|c) - P(b|~c)) > 0, so a cause that raises a raises b too
    failure = _first_failure(report.screening_off_ok, ())
    if failure is None and not raises_a:
        failure = "the cause does not raise the conditional probability of the first event"
    return report._replace(cross_ok=((0, 1, raises_a and raises_b),), verdict=failure is None, failure=failure)


def correlation_decomposition(
    a: LatticeEvent, b: LatticeEvent, partition: Partition
) -> tuple[Fraction, Fraction]:
    """Both sides of the identity decomposing the joint excess over a partition.

    For a partition that screens off on every cell,

        measure(a&b) - measure(a)measure(b)
            = 1/2 * sum over i != j of
              m_i m_j (P(a|c_i) - P(a|c_j)) (P(b|c_i) - P(b|c_j))

    The two sides are computed independently and returned as a pair; they
    must be equal exactly.  The left side comes from the measures of the
    atoms a&b, a&~b and ~a&b that the compatibility test splits the pair
    into, the right side from the cells' meets with those atoms.
    Screening-off is a precondition and its failure raises, naming the
    offending cell.
    """
    report = _verify(a, b, _checked_pair(a, b), _cells(partition))
    for k, ok in enumerate(report.screening_off_ok):
        if not ok:
            raise PreconditionError(
                f"screening-off fails on cell {k}; the decomposition identity needs it on every cell"
            )
    return report.decomposition_lhs, report.decomposition_rhs


class ConstructionSteps(NamedTuple):
    """Trace of the size-3 construction, for explanation and debugging.

    ``carve_bound`` is the admissible upper bound for the first cell's
    measure, joint excess divided by the measure of the complement of the
    union.  The first cell takes ``lam`` times that bound.  The second
    cell's measure is forced by requiring screening-off on the third
    cell, and it always falls strictly inside the complement of the
    union (see :func:`construction_steps`).  Both cell measures are those
    ``report`` found on the carved cells.
    """

    joint_excess: Fraction
    carve_bound: Fraction
    lam: Fraction
    full_cell_measure: Fraction
    null_cell_measure: Fraction
    system: CommonCauseSystem
    report: VerificationReport

    @property
    def null_cell_is_whole_remainder(self) -> bool:
        """Always False: the forced second cell never exhausts ~a & ~b.

        Its measure is m(~a&~b) - m(a&~b)m(~a&b)/(m(a&b) - lam*bound), and
        both atoms of the product are non-empty for a logically independent
        pair.  The attribute and its report key stay for format stability.
        """
        return False


def construction_steps(
    a: LatticeEvent, b: LatticeEvent, lam: Fraction | int | str = Fraction(1, 2)
) -> ConstructionSteps:
    """Run the deterministic size-3 construction and keep its intermediate values.

    Preconditions, in the order they are checked: the events are of one
    model with the lattice surface, compatible, correlated and logically
    independent, and both ``carve``.  A correlated pair that is not
    logically independent admits no system of size 3 or more at all, so
    it is refused.  Both are decided from m(a), m(b) and m(a&b) alone,
    taken from the atoms a&b, a&~b and ~a&b that the compatibility test
    splits the pair into: the excess m(a&b) - m(a)m(b) must be positive,
    and then, the measure being faithful, the pair is logically
    independent exactly when m(a&b) is below both m(a) and m(b).  The
    last gate names no model: ``carve`` is the one operation past the
    lattice surface that the recipe calls, so a finite space, which has
    atoms, is refused.  A later :func:`verify_rccs` on an equal pair
    reuses its split and the three cells' measures (see :func:`_pair`),
    and every precondition and condition is decided on every call.

    The recipe, all in exact arithmetic:

    1. Carve a first cell of measure lam * bound out of the atom a&b,
       where bound = excess / measure(~(a|b)) and 0 < lam < 1.
       Conditional on it, both events are certain.
    2. Forcing screening-off on the remainder fixes the second cell's
       measure; carve it out of the atom ~a & ~b.  Conditional on it,
       both events are impossible.
    3. The third cell is the complement of the union of the first two;
       its conditionals land strictly between 0 and 1.

    Every measure in the trace is closed-form in m(a), m(b), m(a&b) and
    f = lam * bound, and that closed form puts both carved measures
    strictly inside the events they are carved from, so there is no
    boundary case.  The interval model carves left to right, so the
    construction is reproducible.  The cells partition the space by
    construction, so the partition is not validated again.  The runtime
    checks are both carves' own range checks and one exact verification
    of the cells, the one :func:`verify_rccs` runs, on the same atoms;
    it gives the cell measures and decides the system, built by ``_trusted``.
    """
    lam = as_fraction(lam)
    if not 0 < lam < 1:
        raise InputError(f"lam must lie strictly between 0 and 1, got {format_rational(lam)}")
    pair = _require_correlated(_checked_pair(a, b))
    atoms, (m_a, m_b, m_ab, excess), _ = pair
    # with m(a&b) > m(a)m(b) >= 0 and m(~a&~b) = (1 - m(a))(1 - m(b)) + excess > 0, only
    # a&~b and ~a&b can be empty, and each is empty exactly when m(a) - m(a&b) or m(b) - m(a&b) is 0
    if not (m_ab < m_a and m_ab < m_b):
        raise PreconditionError(
            "events are not logically independent; a correlation between such events "
            "admits no common cause system of size 3 or more (the no-go result for "
            "logically dependent events), so the construction cannot succeed"
        )
    if not (hasattr(a, "carve") and hasattr(b, "carve")):
        raise InputError(
            "the size-3 construction needs an atomless model such as interval events; "
            "a finite space has atoms, so search it with search_rccs"
        )
    # No boundary case: with f = lam * bound and both of those atoms non-empty,
    # (m(a&b) - f) m(~a&~b) > (m(a) - m(a&b))(m(b) - m(a&b)) > 0, so 0 < f < m(a&b).
    # Screening-off on the rest of the space, which meets a, b and a&b in their measures
    # less f, forces the second cell's measure (1 - lam) excess / (m(a&b) - f), which is
    # m(~a&~b) - m(a&~b) m(~a&b) / (m(a&b) - f): strictly inside (0, m(~a&~b)).
    bound = excess / (1 - m_a - m_b + m_ab)
    full_measure = lam * bound
    full_cell = atoms[0].carve(full_measure)
    null_cell = atoms[3].carve((1 - lam) * excess / (m_ab - full_measure))
    mixed_cell = full_cell.join(null_cell).complement()
    cells = Partition._trusted((full_cell, null_cell, mixed_cell))
    report = _verify(a, b, pair, cells.cells)
    if not report.verdict:
        raise InternalInvariantError(f"constructed system failed verification: {report.failure}")
    return ConstructionSteps(
        joint_excess=excess,
        carve_bound=bound,
        lam=lam,
        full_cell_measure=report.cell_measures[0],
        null_cell_measure=report.cell_measures[1],
        system=CommonCauseSystem._trusted(cells, report.cond_a, report.cond_b, report.cond_ab),
        report=report,
    )


def construct_size3(
    a: LatticeEvent, b: LatticeEvent, lam: Fraction | int | str = Fraction(1, 2)
) -> CommonCauseSystem:
    """Build a verified size-3 common cause system for a correlated pair.

    See :func:`construction_steps` for the recipe and the preconditions;
    this wrapper returns only the finished system.
    """
    return construction_steps(a, b, lam).system
