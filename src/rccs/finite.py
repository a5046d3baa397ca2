"""Finite weighted probability spaces and exhaustive partition search.

A :class:`FiniteSpace` is a list of strictly positive rational weights
summing to one; an event is a subset of the sample points, stored as a
bitmask with bit i for point i.  Only ``FiniteEvent(space, members)``
checks member indices; kernel results, enumerated cells and search hits
are built from masks, and the tests check them against a set oracle.
This is the exhaustive instrument of the package: every partition into a
given number of cells can be enumerated, and ``search_rccs`` covers all
of them, which turns nonexistence claims about small common cause
systems into finite checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .errors import InputError, PreconditionError, echo
from .events import as_fraction, format_rational
from .lattice import Partition

DEFAULT_MAX_POINTS = 14  # the search tabulates all 2^m subsets of the points


@dataclass(frozen=True)
class FiniteSpace:
    """A finite sample space with one strictly positive weight per point.

    Weights must sum to exactly one, so the induced measure is faithful:
    only the empty event has measure zero.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", cleaned)
        if not cleaned:
            raise InputError("a finite space needs at least one point")
        for k, w in enumerate(cleaned):
            if w <= 0:
                raise InputError(f"weight {k} must be strictly positive, got {format_rational(w)}")
        total = sum(cleaned)
        if total != 1:
            raise InputError(f"weights must sum to exactly 1, got {format_rational(total)}")

    def __len__(self) -> int:
        return len(self.weights)

    def __reduce__(self):
        return (FiniteSpace, (self.weights,))

    def event(self, members: Iterable[int]) -> "FiniteEvent":
        return FiniteEvent(self, members)

    @property
    def empty(self) -> "FiniteEvent":
        return FiniteEvent._from_mask(self, 0)

    @property
    def full(self) -> "FiniteEvent":
        return FiniteEvent._from_mask(self, (1 << len(self.weights)) - 1)


@dataclass(frozen=True, init=False)
class FiniteEvent:
    """A subset of the sample points of a :class:`FiniteSpace`: bit i of ``mask`` is point i.

    The constructor checks the member indices; kernel results skip the check.
    """

    space: FiniteSpace
    mask: int

    def __init__(self, space: FiniteSpace, members: Iterable[int]) -> None:
        mask = 0
        for idx in members:
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise InputError(f"sample point indices must be integers, got {echo(idx)}")
            if not 0 <= idx < len(space):
                raise InputError(f"sample point {echo(idx)} out of range for a {len(space)}-point space")
            mask |= 1 << idx
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, space: FiniteSpace, mask: int) -> "FiniteEvent":
        event = object.__new__(cls)
        object.__setattr__(event, "space", space)
        object.__setattr__(event, "mask", mask)
        return event

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
        return FiniteEvent._from_mask(self.space, self.mask & other.mask)

    def join(self, other: "FiniteEvent") -> "FiniteEvent":
        self._require_same_space(other)
        return FiniteEvent._from_mask(self.space, self.mask | other.mask)

    def complement(self) -> "FiniteEvent":
        return FiniteEvent._from_mask(self.space, self.mask ^ ((1 << len(self.space)) - 1))

    def leq(self, other: "FiniteEvent") -> bool:
        self._require_same_space(other)
        return self.mask & ~other.mask == 0

    def __and__(self, other: "FiniteEvent") -> "FiniteEvent":
        return self.meet(other)

    def __or__(self, other: "FiniteEvent") -> "FiniteEvent":
        return self.join(other)

    def __invert__(self) -> "FiniteEvent":
        return self.complement()

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
    is the Stirling number of the second kind S(m, n).
    """
    m = len(space)
    _require_cell_count(n, m)
    masks = [0] * n  # masks[k] holds the points assigned to cell k so far

    def walk(i: int, used: int) -> Iterator[Partition]:
        if used + (m - i) < n:
            return
        if i == m:  # the test above leaves only used == n here
            yield Partition._from_cells(tuple(FiniteEvent._from_mask(space, s) for s in masks))
            return
        for lab in range(min(used + 1, n)):
            masks[lab] |= 1 << i
            yield from walk(i + 1, used + 1 if lab == used else used)
            masks[lab] ^= 1 << i

    yield from walk(0, 0)


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
    points.  With the weights scaled to integers, the measure of every
    subset is tabulated, so its meets with a, b and a&b are lookups too;
    only subsets that screen off (``w * w_ab == w_a * w_b``) can be
    cells.  Partitions are then built cell by cell, always covering the
    lowest unassigned point next, and a cell is kept only if it meets the
    strict same-sign cross-difference condition against every cell
    already chosen.  All decisions are exact integer comparisons, and
    every partition of the space into n cells is covered, so an empty
    result is a proof that no such system exists in the space.

    Hits come in the order of :func:`enumerate_partitions` (restricted
    growth order of the cell labels), cells ordered by smallest member.

    The pair must be correlated (positive joint excess), which is decided
    in the same integers before the table is built: ``scale * w_ab - w_a *
    w_b`` is scale^2 times the joint excess.  Spaces larger than
    ``max_points`` are refused because the subset table has 2^m entries.
    """
    if not all(isinstance(e, FiniteEvent) and e.space == space for e in (a, b)):
        raise InputError("events do not belong to the given space")
    m = len(space)
    if m > max_points:
        raise InputError(
            f"space has {m} points, above the cutoff {max_points}; "
            "raise max_points to force the search"
        )
    if m > DEFAULT_MAX_POINTS:
        warnings.warn(
            f"exhaustive search over {m} points tabulates all 2^{m} subsets "
            "and may take a very long time",
            stacklevel=2,
        )

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

    full = (1 << m) - 1
    # weight[s] is the scaled measure of subset s; a meet is a mask away
    weight = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        weight[s] = weight[s ^ low] + point_weight[low.bit_length() - 1]
    cell: list[tuple[int, int, int] | None] = [None] * (full + 1)
    by_lowest: list[list[int]] = [[] for _ in range(m)]
    for s in range(1, full + 1):
        w, wa, wb = weight[s], weight[s & mask_a], weight[s & mask_b]
        if w * weight[s & mask_ab] == wa * wb:
            cell[s] = (w, wa, wb)
            by_lowest[(s & -s).bit_length() - 1].append(s)

    def crosses(s: int, chosen: list[int]) -> bool:
        w, wa, wb = cell[s]
        for t in chosen:
            v, va, vb = cell[t]
            if (wa * v - va * w) * (wb * v - vb * w) <= 0:
                return False
        return True

    found: list[list[int]] = []

    def cover(rest: int, chosen: list[int]) -> None:
        need = n - len(chosen)
        if need == 1:
            if cell[rest] is not None and crosses(rest, chosen):
                found.append(chosen + [rest])
            return
        for s in by_lowest[(rest & -rest).bit_length() - 1]:
            if s & rest == s and (rest ^ s).bit_count() >= need - 1 and crosses(s, chosen):
                cover(rest ^ s, chosen + [s])

    cover(full, [])

    def labels(cells: list[int]) -> list[int]:
        out = [0] * m
        for k, s in enumerate(cells):
            for i in range(m):
                if s >> i & 1:
                    out[i] = k
        return out

    found.sort(key=labels)
    return [Partition._from_cells(tuple(FiniteEvent._from_mask(space, s) for s in cells)) for cells in found]
