"""Finite weighted probability spaces and exhaustive partition search.

A :class:`FiniteSpace` is a list of strictly positive rational weights
summing to one; an event is a subset of the sample points, stored as a
bitmask with bit i for point i.  Only ``FiniteEvent(space, members)``
checks member indices; kernel results, enumerated cells and search hits
are built from masks (``_trusted``); the tests check them against a set oracle.
This is the exhaustive instrument of the package: every partition into a
given number of cells can be enumerated, and ``search_rccs`` covers all
of them, which turns nonexistence claims about small common cause
systems into finite checks.  Its cells, the subsets that screen off, are
listed and filed by kind in one join over the four atoms of the pair, not
a scan of all 2^m.  A system has at most one cell missing a&b and one
missing ~a&~b, so the cover spends each kind once; for three or more
cells, no screening-off cell meeting both atoms means no system.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from . import DEFAULT_MAX_POINTS
from .errors import InputError, PreconditionError, echo
from .events import _Event, _require_iterable, _Value, as_fraction, format_rational
from .lattice import Partition


class FiniteSpace(_Value):
    """A finite sample space with one strictly positive weight per point.

    Weights must sum to exactly one, so the induced measure is faithful:
    only the empty event has measure zero.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Iterable) -> None:
        _require_iterable(weights, "the weights")
        cleaned = tuple(as_fraction(w) for w in weights)
        if not cleaned:
            raise InputError("a finite space needs at least one point")
        for k, w in enumerate(cleaned):
            if w <= 0:
                raise InputError(f"weight {k} must be strictly positive, got {format_rational(w)}")
        total = sum(cleaned)
        if total != 1:
            raise InputError(f"weights must sum to exactly 1, got {format_rational(total)}")
        super().__init__(cleaned)

    def __len__(self) -> int:
        return len(self.weights)

    def event(self, members: Iterable[int]) -> "FiniteEvent":
        return FiniteEvent(self, members)

    @property
    def empty(self) -> "FiniteEvent":
        return FiniteEvent._trusted(self, 0)

    @property
    def full(self) -> "FiniteEvent":
        return FiniteEvent._trusted(self, (1 << len(self.weights)) - 1)


def _require_space(space: object) -> None:
    if not isinstance(space, FiniteSpace):
        raise InputError(f"expected a FiniteSpace, got {echo(space)}")


class FiniteEvent(_Event):
    """A subset of the sample points of a :class:`FiniteSpace`: bit i of ``mask`` is point i.

    The constructor and unpickling check the member indices; kernel results skip it (``_trusted``).
    """

    __slots__ = ("space", "mask")

    def __init__(self, space: FiniteSpace, members: Iterable[int]) -> None:
        _require_space(space)
        _require_iterable(members, "the members")
        mask = 0
        for idx in members:
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise InputError(f"sample point indices must be integers, got {echo(idx)}")
            if not 0 <= idx < len(space):
                raise InputError(f"sample point {echo(idx)} out of range for a {len(space)}-point space")
            mask |= 1 << idx
        super().__init__(space, mask)

    def __reduce__(self):
        return (FiniteEvent, (self.space, self.members))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def _require_same_space(self, other: "FiniteEvent") -> None:
        if self.space != other.space:
            raise InputError("events belong to different spaces")

    @property
    def is_zero(self) -> bool:
        return not self.mask

    @property
    def is_one(self) -> bool:
        return self.mask == (1 << len(self.space)) - 1

    def measure(self) -> Fraction:
        return sum((self.space.weights[i] for i in self.members), Fraction(0))

    def meet(self, other: "FiniteEvent") -> "FiniteEvent":
        self._require_same_space(other)
        return FiniteEvent._trusted(self.space, self.mask & other.mask)

    def join(self, other: "FiniteEvent") -> "FiniteEvent":
        self._require_same_space(other)
        return FiniteEvent._trusted(self.space, self.mask | other.mask)

    def complement(self) -> "FiniteEvent":
        return FiniteEvent._trusted(self.space, self.mask ^ ((1 << len(self.space)) - 1))

    def leq(self, other: "FiniteEvent") -> bool:
        self._require_same_space(other)
        return self.mask & ~other.mask == 0

    def _atoms(self, other: "FiniteEvent") -> tuple["FiniteEvent", ...]:
        """The atoms self&other, self&~other, ~self&other and ~self&~other, as four masks."""
        self._require_same_space(other)
        a, b, full = self.mask, other.mask, (1 << len(self.space)) - 1
        return tuple(FiniteEvent._trusted(self.space, m) for m in (a & b, a & ~b, b & ~a, full ^ (a | b)))

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.members) + "}"


def finite_measure(space: FiniteSpace, event: FiniteEvent) -> Fraction:
    """Exact measure of an event: the sum of its member weights."""
    if not isinstance(event, FiniteEvent) or event.space != space:
        raise InputError("event does not belong to the given space")
    return event.measure()


def _require_cell_count(n: int, m: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"cell count must be an integer, got {echo(n)}")
    if not 1 <= n <= m:
        raise InputError(f"cell count {echo(n)} out of range 1..{m}")


def enumerate_partitions(space: FiniteSpace, n: int) -> Iterator[Partition]:
    """Yield every partition of the sample points into exactly n nonempty cells.

    Cells are unlabeled; each partition appears exactly once, with its
    cells ordered by smallest member.  The stream is deterministic
    (lexicographic in the cell assignment of the points) and its length
    is the Stirling number of the second kind S(m, n).  The space and the
    count are checked at the call, before the first partition is asked for.
    """
    _require_space(space)
    m = len(space)
    _require_cell_count(n, m)
    masks = [0] * n  # masks[k] holds the points assigned to cell k so far

    def walk(i: int, used: int) -> Iterator[Partition]:
        if used + (m - i) < n:
            return
        if i == m:  # the test above leaves only used == n here
            yield Partition._trusted(tuple(FiniteEvent._trusted(space, s) for s in masks))
            return
        for lab in range(min(used + 1, n)):
            masks[lab] |= 1 << i
            yield from walk(i + 1, used + 1 if lab == used else used)
            masks[lab] ^= 1 << i

    return walk(0, 0)


def _screening_cells(point_weight: list[int], mask_a: int, mask_b: int, m: int) -> tuple[dict, list]:
    """The subsets that screen off (a, b), filed by kind and lowest point as the join finds them.

    Returns ``cells``, mask -> scaled ``(w, w_a, w_b, kind)``, and
    ``by_lowest[kind][i]``, the masks of that kind with lowest point i.  A
    subset screens off when x1 * x4 == x2 * x3 for its weights in the
    atoms; with x4 in the largest atom (k points), x4 = x2 * x3 / x1 is
    looked up for each of the 2^(m - k) triples of subsets of the other
    three, and at x1 = 0 every x4 fits or none.  Kinds 0 interior, 1 bottom
    (misses a&b) and 2 top (misses ~a&~b) are the OR of flags on the empty
    subsets of a&b (1) and ~a&~b (2); kind 3, the empty set too, is dropped.
    """
    atoms = [mask_a & mask_b, mask_a & ~mask_b, mask_b & ~mask_a, ((1 << m) - 1) & ~(mask_a | mask_b)]
    big = max(range(4), key=lambda k: atoms[k].bit_count())
    listed = []
    for k in (big ^ 3, big ^ 2, big ^ 1, big):  # atom k lies in a when k < 2, in b when k is even
        sums = [(0, 0, 0, 0, (k == 0) | (k == 3) << 1)]  # (subset, w, w_a, w_b, kind flags), by doubling
        for i, x in enumerate(point_weight):
            if atoms[k] >> i & 1:
                sums += [(s | 1 << i, w + x, wa + x * (k < 2), wb + x * (k % 2 == 0), 0) for s, w, wa, wb, _ in sums]
        listed.append(sums)
    (sums1, sums2, sums3, sums4), by_x4, cells, by_lowest = listed, {}, {}, [[[] for _ in range(m)] for _ in range(3)]
    for t in sums4:
        by_x4.setdefault(t[1], []).append(t)
    for s1, x1, a1, b1, f1 in sums1:
        for s2, x2, a2, b2, f2 in sums2:
            for s3, x3, a3, b3, f3 in sums3:
                if x1:
                    x4, r = divmod(x2 * x3, x1)
                    tail = () if r else by_x4.get(x4, ())
                else:  # the zero-product class
                    tail = () if x2 * x3 else sums4
                if not tail:
                    continue
                s, w, wa, wb, f = s1 | s2 | s3, x1 + x2 + x3, a1 + a2 + a3, b1 + b2 + b3, f1 | f2 | f3
                for t, x, xa, xb, g in tail:
                    if (kind := f | g) < 3:  # a cell both bottom and top lies inside a&~b or ~a&b: never kept
                        u = s | t
                        cells[u] = (w + x, wa + xa, wb + xb, kind)
                        by_lowest[kind][(u & -u).bit_length() - 1].append(u)
    return cells, by_lowest


def search_rccs(
    space: FiniteSpace,
    a: FiniteEvent,
    b: FiniteEvent,
    n: int,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
) -> list[Partition]:
    """Exhaustively find every size-n common cause system for a correlated pair.

    Solves an exact-cover problem over the screening-off subsets of the
    points, with the weights scaled to integers, listed and filed by kind
    in one join over the atoms of the pair (:func:`_screening_cells`).
    Partitions are built cell by cell, always covering the lowest
    unassigned point next, and a cell is kept only if it meets the strict
    same-sign cross-difference condition against every cell already
    chosen.  All decisions are exact integer comparisons, and every
    partition of the space into n cells is covered, so an empty result is
    a proof that no such system exists in the space.

    The cover spends a budget of edge cells.  Call a screening-off cell C
    *bottom* when P(a|C) = 0 or P(b|C) = 0, and *top* when P(a|C) = 1 or
    P(b|C) = 1.  With x1..x4 its weights in a&b, a&~b, ~a&b and ~a&~b and
    x1 * x4 == x2 * x3, C is bottom exactly when x1 = 0 (then x2 = 0 or
    x3 = 0) and top exactly when x4 = 0.  The strict cross condition makes
    every two cells of a system differ in the same direction in P(a|.)
    and in P(b|.), so a bottom cell lies strictly below every other cell
    (no other cell can be lower in the coordinate that is 0) and a top
    cell strictly above.  Hence a system of two or more cells has at most
    one bottom cell, at most one top cell and no cell that is both; the
    last lie inside a&~b or ~a&b and are dropped.  A system of three or
    more cells therefore has an interior cell, one that meets both a&b
    and ~a&~b, and without one the answer is [] before any cover.  Every
    logically dependent pair is such a case (an empty a&b or ~a&~b
    leaves no cell meeting both, an empty a&~b or ~a&b forces x1 * x4 =
    0), which is the no-go theorem for systems of size three or more.

    Hits come in the order of :func:`enumerate_partitions` (restricted
    growth order of the cell labels), cells ordered by smallest member.

    The pair must be correlated (positive joint excess), decided in the
    same integers before any cell is listed.  Spaces larger than
    ``max_points`` are refused: the screening-off subsets, and the cover's
    work with them, can still number about 2^m.
    """
    if not all(isinstance(e, FiniteEvent) and e.space == space for e in (a, b)):
        raise InputError("events do not belong to the given space")
    m = len(space)
    if isinstance(max_points, bool) or not isinstance(max_points, int):
        raise InputError(f"max_points must be an integer, got {echo(max_points)}")
    if max_points < 1:
        raise InputError(f"max_points must be at least 1, got {max_points}")
    if m > max_points:
        raise InputError(f"space has {m} points, above the cutoff {max_points}; raise max_points to force the search")

    scale = lcm(*(w.denominator for w in space.weights))
    point_weight = [w.numerator * (scale // w.denominator) for w in space.weights]
    mask_a, mask_b = a.mask, b.mask
    mask_ab = mask_a & mask_b
    w_a, w_b, w_ab = (sum(w for i, w in enumerate(point_weight) if s >> i & 1) for s in (mask_a, mask_b, mask_ab))
    scaled_excess = scale * w_ab - w_a * w_b  # scale^2 * joint excess
    if scaled_excess <= 0:
        excess = Fraction(scaled_excess, scale * scale)
        raise PreconditionError(
            f"events are not correlated (joint excess {format_rational(excess)}); "
            "a common cause system explains only positive correlations"
        )
    _require_cell_count(n, m)

    cell, by_lowest = _screening_cells(point_weight, mask_a, mask_b, m)
    if n >= 3 and not any(by_lowest[0]):  # at most one bottom and one top cell: no room for a third
        return []

    def crosses(s: int, chosen: list[int]) -> bool:
        w, wa, wb, _ = cell[s]
        for t in chosen:
            v, va, vb, _ = cell[t]
            if (wa * v - va * w) * (wb * v - vb * w) <= 0:
                return False
        return True

    found: list[list[int]] = []

    def cover(rest: int, chosen: list[int], free: int) -> None:  # free: the edges not yet spent
        need = n - len(chosen)  # at least 2: the last two cells are decided together
        low = (rest & -rest).bit_length() - 1
        for k in ((0,), (0, 1), (0, 2), (0, 1, 2))[free]:  # the kinds whose edges are free
            left = free & ~k
            for s in by_lowest[k][low]:
                if s & rest != s:
                    continue
                r = rest ^ s
                if need == 2:  # the rest is the last cell
                    if r in cell and not cell[r][3] & ~left and crosses(s, chosen) and crosses(r, chosen + [s]):
                        found.append(chosen + [s, r])
                elif r.bit_count() >= need - 1 and crosses(s, chosen):
                    cover(r, chosen + [s], left)

    if n > 1:  # one cell, the whole space, never screens off a correlated pair
        cover((1 << m) - 1, [], 3)

    def labels(cells: list[int]) -> list[int]:  # the cell of each point, in point order
        lab = [0] * m  # cell 0 holds the points no other cell claims
        for k in range(1, n):
            s = cells[k]
            while s:
                lab[(s & -s).bit_length() - 1] = k
                s &= s - 1
        return lab

    found.sort(key=labels)  # total: no two hits share a label vector
    return [Partition._trusted(tuple(FiniteEvent._trusted(space, s) for s in cells)) for cells in found]
