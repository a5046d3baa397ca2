"""Shared test utilities: independent oracles, random generators and fake events.

The oracles here deliberately avoid the code paths they are used to
check.  The set-operation oracle works pointwise on the elementary
subintervals induced by all endpoints; the Stirling numbers come from the
standard recurrence; the two-sided split is the lattice's generic
compatibility test, which the shipped models' one-sweep atoms are checked
against, and the Fraction carve the left-to-right carve in Fraction
arithmetic; the conditions oracle scores a list of cells with
Fraction conditionals, and the search oracle applies it to every
enumerated partition.  The quadruple oracle decides the conditions on
per-cell measures in Fraction arithmetic, as the engine did before its
integer kernel.  The screening-cell oracle scans all 2^m subsets of
a finite space, and the orbit oracle counts the search's hits in a
uniform space from the cells' count vectors alone.  With the int-string
limit lifted, ``str`` is the oracle for exact output of any size.  The fake events at the end are
models in which the compatibility test fails, which no shipped model does;
like the shipped events they are hashable, since the engine memoizes the
split of each pair.  The exact Bell witness at the very end has its
entries in Q(sqrt 3), so its identities hold as equalities, not within a
tolerance.
"""

from __future__ import annotations

import itertools
import random
import sys
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod, sqrt

from rccs import FiniteSpace, IntervalEvent, enumerate_partitions


def iv(*points: str) -> IntervalEvent:
    """Build an event from an even list of endpoint strings."""
    pairs = [(points[k], points[k + 1]) for k in range(0, len(points), 2)]
    return IntervalEvent(tuple(pairs))


@lru_cache(maxsize=None)
def stirling2(m: int, n: int) -> int:
    """Stirling number of the second kind via the standard recurrence."""
    if m == n:
        return 1
    if n == 0 or n > m:
        return 0
    return n * stirling2(m - 1, n) + stirling2(m - 1, n - 1)


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int-string limit for the block, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def assert_canonical(event: IntervalEvent) -> IntervalEvent:
    """Check the stored endpoints of ``event`` against canonical form, and return the event.

    Kernel results skip the library's own check, so this is their guard,
    written independently of it in Fractions: four ints per interval, each
    endpoint a reduced pair with a positive denominator, 0 <= lo < hi <= 1
    for every interval, and each interval starting strictly after the
    previous one ends.
    """
    ends = event._ends
    assert type(ends) is tuple and len(ends) % 4 == 0, ends
    prev_hi = None
    for k in range(0, len(ends), 4):
        num_lo, den_lo, num_hi, den_hi = ends[k : k + 4]
        for num, den in ((num_lo, den_lo), (num_hi, den_hi)):
            assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1, ends
        lo, hi = Fraction(num_lo, den_lo), Fraction(num_hi, den_hi)
        assert 0 <= lo < hi <= 1, ends
        assert prev_hi is None or prev_hi < lo, ends
        prev_hi = hi
    return event


def _membership(event: IntervalEvent | None):
    """Point membership in ``event`` (none in ``None``), by binary search on its ascending starts."""
    intervals = event.intervals if event is not None else ()
    starts = [lo for lo, _ in intervals]

    def contains(point: Fraction) -> bool:
        k = bisect_right(starts, point) - 1
        return k >= 0 and point < intervals[k][1]

    return contains


def set_oracle(a: IntervalEvent, b: IntervalEvent | None, op) -> IntervalEvent:
    """Recompute a set operation by membership on elementary pieces.

    Collects every endpoint of both operands plus 0 and 1, then decides
    membership of each elementary piece by a binary search for its
    midpoint among each operand's intervals, and finally merges contiguous
    pieces.  Independent of the two-pointer sweeps in the implementation.
    """
    points = {Fraction(0), Fraction(1)}
    for ev in (a, b):
        if ev is None:
            continue
        for lo, hi in ev.intervals:
            points.add(lo)
            points.add(hi)
    grid = sorted(points)
    in_a, in_b = _membership(a), _membership(b)
    pieces = []
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        if op(in_a(mid), in_b(mid)):
            pieces.append((lo, hi))
    merged: list[list[Fraction]] = []
    for lo, hi in pieces:
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return IntervalEvent(tuple((lo, hi) for lo, hi in merged))


def two_sided_split(a, b):
    """The generic two-sided compatibility test, and the four atoms, from meets, joins and complements alone.

    Returns the verdicts of a = (a&b) | (a&~b) and b = (a&b) | (~a&b),
    and the atoms a&b, a&~b, ~a&b and ~a&~b, each from one meet.  This is
    the test the lattice keeps for a model that does not split its own
    pairs.
    """
    not_a, not_b = a.complement(), b.complement()
    a_and_b, a_not_b, not_a_b = a.meet(b), a.meet(not_b), b.meet(not_a)
    a_side = a_and_b.join(a_not_b) == a
    b_side = a_and_b.join(not_a_b) == b
    return a_side, b_side, (a_and_b, a_not_b, not_a_b, not_a.meet(not_b))


def fraction_carve(event: IntervalEvent, target: Fraction) -> IntervalEvent | None:
    """``carve`` in Fraction arithmetic on the event's intervals, or None where it must refuse.

    Whole intervals are taken from the left while they fit, then the first
    that does not is cut to the rest.  A target that is not strictly
    between 0 and the sum of the interval lengths is refused.
    """
    intervals = event.intervals
    if not 0 < target < sum((hi - lo for lo, hi in intervals), Fraction(0)):
        return None
    pieces, remaining = [], target
    for lo, hi in intervals:
        pieces.append((lo, min(hi, lo + remaining)))
        remaining -= pieces[-1][1] - lo
        if remaining == 0:
            return IntervalEvent(tuple(pieces))
    raise AssertionError("a target below the measure ran past the last interval")


# Denominators for mixed-denominator events: small ones, the primes 7, 11
# and 13, and the large prime 999983, so endpoints rarely share one.
MIXED_DENOMINATORS = (1, 2, 3, 4, 6, 7, 8, 11, 12, 13, 16, 60, 999983)


def endpoint_input(value: Fraction, scale: int, as_text: bool):
    """``value`` as a constructor input: a Fraction, or a possibly unreduced 'p/q' string."""
    if not as_text:
        return value
    return f"{value.numerator * scale}/{value.denominator * scale}"


def random_event(rng: random.Random, max_parts: int = 3, mixed: bool = False) -> IntervalEvent:
    """A random canonical event.

    By default all endpoints share one denominator.  With ``mixed=True``
    each endpoint draws its own denominator from ``MIXED_DENOMINATORS``
    and is passed to the constructor either as a Fraction or as an
    unreduced string such as ``"2/4"``.
    """
    if mixed:
        count = rng.randint(0, max_parts)
        drawn: set[Fraction] = set()
        while len(drawn) < 2 * count:
            den = rng.choice(MIXED_DENOMINATORS)
            drawn.add(Fraction(rng.randint(0, den), den))
        ends = [endpoint_input(x, rng.randint(1, 3), rng.random() < 0.5) for x in sorted(drawn)]
        return IntervalEvent(tuple(zip(ends[0::2], ends[1::2])))
    den = rng.choice([8, 12, 16, 24, 32, 60])
    count = rng.randint(0, max_parts)
    if count == 0:
        return IntervalEvent(())
    points = sorted(rng.sample(range(den + 1), 2 * count))
    pairs = tuple(
        (Fraction(points[2 * k], den), Fraction(points[2 * k + 1], den)) for k in range(count)
    )
    return IntervalEvent(pairs)


def random_nonzero_event(rng: random.Random, max_parts: int = 3, mixed: bool = False) -> IntervalEvent:
    while True:
        ev = random_event(rng, max_parts, mixed)
        if not ev.is_zero and not ev.is_one:
            return ev


def random_correlated_independent_pair(rng: random.Random) -> tuple[IntervalEvent, IntervalEvent]:
    """Rejection-sample a compatible, logically independent, correlated pair."""
    from rccs import correlation, logically_independent

    while True:
        a = random_nonzero_event(rng)
        b = random_nonzero_event(rng)
        if logically_independent(a, b) and correlation(a, b) > 0:
            return a, b


def random_space(rng: random.Random, points: int) -> FiniteSpace:
    raw = [rng.randint(1, 9) for _ in range(points)]
    total = sum(raw)
    return FiniteSpace(tuple(Fraction(w, total) for w in raw))


def random_subset(rng: random.Random, space: FiniteSpace):
    members = [i for i in range(len(space)) if rng.random() < 0.5]
    return space.event(members)


@dataclass(frozen=True)
class OracleScore:
    """The defining conditions on a list of cells, scored with Fraction quotients.

    Deliberately independent of the engine's integer kernel: each
    conditional is a Fraction quotient of event measures, and ``rhs`` is
    the textbook decomposition sum over ordered pairs i != j of
    m_i m_j (P(a|c_i) - P(a|c_j)) (P(b|c_i) - P(b|c_j)), halved.
    """

    measures: tuple[Fraction, ...]
    cond_a: tuple[Fraction, ...]
    cond_b: tuple[Fraction, ...]
    cond_ab: tuple[Fraction, ...]

    @property
    def screening(self) -> tuple[bool, ...]:
        return oracle_conditions(self.cond_a, self.cond_b, self.cond_ab)[0]

    @property
    def cross(self) -> tuple[tuple[int, int, bool], ...]:
        return oracle_conditions(self.cond_a, self.cond_b, self.cond_ab)[1]

    @property
    def accepted(self) -> bool:
        return all(self.screening) and all(ok for _, _, ok in self.cross)

    @property
    def rhs(self) -> Fraction:
        m, ca, cb, n = self.measures, self.cond_a, self.cond_b, len(self.measures)
        pairs = (m[i] * m[j] * (ca[i] - ca[j]) * (cb[i] - cb[j]) for i in range(n) for j in range(n) if i != j)
        return sum(pairs, Fraction(0)) / 2


def oracle_conditions(cond_a, cond_b, cond_ab) -> tuple[tuple[bool, ...], tuple[tuple[int, int, bool], ...]]:
    """Screening-off flags and cross-difference flags, straight from the conditionals."""
    n = len(cond_a)
    screening = tuple(cond_ab[k] == cond_a[k] * cond_b[k] for k in range(n))
    cross = tuple(
        (i, j, (cond_a[i] - cond_a[j]) * (cond_b[i] - cond_b[j]) > 0)
        for i in range(n)
        for j in range(i + 1, n)
    )
    return screening, cross


def fraction_conditions(quads):
    """The engine's conditions on per-cell quadruples ``(m, m_a, m_b, m_ab)``, in Fraction arithmetic.

    The same formulas as the engine's kernel, with every product,
    difference and quotient a Fraction operation: screening-off is
    ``m m_ab == m_a m_b``; for cells i < j the cross product is
    ``(a_i m_j - a_j m_i)(b_i m_j - b_j m_i)``, positive for a cross, and
    the decomposition right-hand side sums it over ``m_i m_j``; each
    conditional is a Fraction quotient.  Returns what the kernel returns:
    the flags, the ``(i, j, ok)`` triples, that sum and the rows of
    conditionals of a, b and a&b.
    """
    quads = [tuple(map(Fraction, quad)) for quad in quads]
    screening = tuple(m * m_ab == m_a * m_b for m, m_a, m_b, m_ab in quads)
    cross = []
    rhs = Fraction(0)
    for i, (m_i, a_i, b_i, _) in enumerate(quads):
        for j in range(i + 1, len(quads)):
            m_j, a_j, b_j, _ = quads[j]
            product = (a_i * m_j - a_j * m_i) * (b_i * m_j - b_j * m_i)
            cross.append((i, j, product > 0))
            rhs += product / (m_i * m_j)
    conditionals = tuple(tuple(quad[k] / quad[0] for quad in quads) for k in (1, 2, 3))
    return screening, tuple(cross), rhs, conditionals


def oracle_score(a, b, cells) -> OracleScore:
    """Measures and Fraction conditionals of ``cells`` for the pair (a, b)."""
    a_and_b = a.meet(b)
    measures = tuple(cell.measure() for cell in cells)
    return OracleScore(
        measures,
        tuple(a.meet(cell).measure() / m for cell, m in zip(cells, measures)),
        tuple(b.meet(cell).measure() / m for cell, m in zip(cells, measures)),
        tuple(a_and_b.meet(cell).measure() / m for cell, m in zip(cells, measures)),
    )


class Incompatible:
    """Minimal fake event whose compatibility test fails symmetrically."""

    is_zero = False
    is_one = False

    def meet(self, other):
        return IncompatibleZero()

    def join(self, other):
        return self

    def complement(self):
        return IncompatibleZero()

    def leq(self, other):
        return False

    def measure(self):
        return Fraction(1, 2)

    def __eq__(self, other):
        return isinstance(other, Incompatible)

    def __hash__(self):
        return 0  # equal fakes must hash alike; one constant serves this class and IncompatibleZero


class IncompatibleZero(Incompatible):
    is_zero = True

    def __eq__(self, other):
        return isinstance(other, IncompatibleZero)

    __hash__ = Incompatible.__hash__


class Absorbing(Incompatible):
    """Fake event that absorbs every meet and join and equals only itself.

    Against an ``Incompatible`` b, the a side of the compatibility test
    holds (a&b and a&~b are both a) while the b side fails (a | (~a&b) is
    a, not b): the asymmetry only a broken model can show.
    """

    def meet(self, other):
        return self

    def join(self, other):
        return self

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__


def brute_force_search(space: FiniteSpace, a, b, n: int) -> list:
    """Every size-n common cause system, by scoring all S(m, n) partitions.

    Deliberately independent of the engine verifier and of the integer
    exact-cover search in ``search_rccs``: each partition is scored by
    :func:`oracle_score`.
    """
    return [p for p in enumerate_partitions(space, n) if oracle_score(a, b, p.cells).accepted]


def integer_brute_force(point_weight: list[int], mask_a: int, mask_b: int, n: int) -> list[list[int]]:
    """The label vector of every size-n system, from all restricted-growth labellings of the points.

    Point i takes a label from 0 up to the number of cells opened so far,
    at most n - 1, so each partition into n cells comes once, and in
    lexicographic order of its labels.  Each cell keeps its integer weights
    ``(w, w_a, w_b, w_ab)`` as points join and leave it, and a complete
    labelling is scored with integer products: screening-off
    ``w w_ab == w_a w_b`` on every cell and a positive cross product on
    every pair.  Deliberately independent of ``enumerate_partitions``, of
    the engine and of the search's cell listing and cover.
    """
    m = len(point_weight)
    cells = [[0, 0, 0, 0] for _ in range(n)]
    labels = [0] * m
    hits = []

    def accepted() -> bool:
        if any(w * w_ab != w_a * w_b for w, w_a, w_b, w_ab in cells):
            return False
        return all(
            (a_i * w_j - a_j * w_i) * (b_i * w_j - b_j * w_i) > 0
            for i, (w_i, a_i, b_i, _) in enumerate(cells)
            for w_j, a_j, b_j, _ in cells[i + 1:]
        )

    def walk(i: int, opened: int) -> None:
        if m - i < n - opened:  # too few points left to open the other cells
            return
        if i == m:
            if accepted():
                hits.append(labels.copy())
            return
        w = point_weight[i]
        w_a, w_b = w * (mask_a >> i & 1), w * (mask_b >> i & 1)
        w_ab = w_a and w_b
        for k in range(min(opened + 1, n)):
            cell = cells[k]
            cell[0] += w
            cell[1] += w_a
            cell[2] += w_b
            cell[3] += w_ab
            labels[i] = k
            walk(i + 1, max(opened, k + 1))
            cell[0] -= w
            cell[1] -= w_a
            cell[2] -= w_b
            cell[3] -= w_ab

    walk(0, 0)
    return hits


def label_vector(partition) -> list[int]:
    """The index of the cell holding each point, in point order, by scanning every cell for every point."""
    m = len(partition.cells[0].space)
    return [k for i in range(m) for k, cell in enumerate(partition.cells) if cell.mask >> i & 1]


def screening_cells_oracle(point_weight: list[int], mask_a: int, mask_b: int, m: int) -> dict:
    """Every nonempty subset s with ``w * w_ab == w_a * w_b``, mapped to ``(w, w_a, w_b)``.

    A scan of all 2^m subsets over a table of their integer weights, each
    entry built from the entry with its lowest bit cleared; a meet with a,
    b or a&b is a mask away.
    """
    full = (1 << m) - 1
    weight = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        weight[s] = weight[s ^ low] + point_weight[low.bit_length() - 1]
    cells = {}
    for s in range(1, full + 1):
        w, wa, wb = weight[s], weight[s & mask_a], weight[s & mask_b]
        if w * weight[s & mask_a & mask_b] == wa * wb:
            cells[s] = (w, wa, wb)
    return cells


def orbit_count(sizes: tuple[int, int, int, int], n: int) -> int:
    """The number of size-n systems in a uniform space, from count vectors alone.

    ``sizes`` are the point counts of the atoms a&b, a&~b, ~a&b and ~a&~b.
    With equal weights a cell's conditions depend only on its count vector
    (k1, k2, k3, k4): it screens off when k1 k4 == k2 k3, and two cells meet
    the strict cross condition when their differences in P(a|c) and P(b|c)
    have a positive product, so no two cells of a system share a vector.
    Each set of n distinct vectors that passes and adds up to ``sizes``
    stands for prod K_i! / prod over cells of prod k_i! partitions: the
    ways to deal each atom's points out to the cells.
    """
    vectors = [
        k for k in itertools.product(*(range(size + 1) for size in sizes))
        if any(k) and k[0] * k[3] == k[1] * k[2]
    ]

    def crosses(u, v) -> bool:
        (wu, au, bu), (wv, av, bv) = ((sum(k), k[0] + k[1], k[0] + k[2]) for k in (u, v))
        return (au * wv - av * wu) * (bu * wv - bv * wu) > 0

    def count(start: int, rest: tuple[int, ...], chosen: list) -> int:
        if len(chosen) == n:
            return prod(map(factorial, sizes)) // prod(factorial(x) for k in chosen for x in k) if not any(rest) else 0
        total = 0
        for j in range(start, len(vectors)):
            k = vectors[j]
            if all(x <= r for x, r in zip(k, rest)) and all(crosses(k, c) for c in chosen):
                total += count(j + 1, tuple(r - x for x, r in zip(k, rest)), chosen + [k])
        return total

    return count(0, tuple(sizes), [])


class Q3:
    """The exact number p + q*sqrt(3), for rationals p and q.

    sqrt(3) is irrational, so the pair (p, q) is unique and equality is
    equality of pairs.
    """

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0) -> None:
        self.p, self.q = Fraction(p), Fraction(q)

    def __add__(self, other: "Q3") -> "Q3":
        return Q3(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Q3") -> "Q3":
        return Q3(self.p - other.p, self.q - other.q)

    def __mul__(self, other: "Q3") -> "Q3":
        return Q3(self.p * other.p + 3 * self.q * other.q, self.p * other.q + self.q * other.p)

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Q3) else Q3(other)
        return (self.p, self.q) == (other.p, other.q)

    __hash__ = None

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * sqrt(3)

    def __repr__(self) -> str:
        return f"Q3({self.p}, {self.q})"


def _q3_matrix(rows) -> tuple[tuple[Q3, ...], ...]:
    return tuple(tuple(x if isinstance(x, Q3) else Q3(x) for x in row) for row in rows)


def q3_adjoint(x) -> tuple[tuple[Q3, ...], ...]:
    """Every entry is real, so the adjoint is the transpose."""
    return tuple(zip(*x))


def q3_matmul(x, y) -> tuple[tuple[Q3, ...], ...]:
    columns = q3_adjoint(y)
    return tuple(tuple(sum((p * q for p, q in zip(row, col)), Q3()) for col in columns) for row in x)


def _q3_kron(x, y) -> tuple[tuple[Q3, ...], ...]:
    # index 2i + j of C^2 (x) C^2 is e_i (x) e_j
    return tuple(tuple(x[i][k] * y[j][l] for k in (0, 1) for l in (0, 1)) for i in (0, 1) for j in (0, 1))


_ID2 = _q3_matrix(((1, 0), (0, 1)))
_LOWER = _q3_matrix(((0, 1), (0, 0)))  # e1 -> e0, e0 -> 0
_ON_E1 = _q3_matrix(((0, 0), (0, 1)))  # projection onto e1
_Q = Fraction(1, 4)
_ON_PLUS_60 = _q3_matrix(((_Q, Q3(0, _Q)), (Q3(0, _Q), 3 * _Q)))  # onto (1/2, sqrt(3)/2)
_ON_MINUS_60 = _q3_matrix(((_Q, Q3(0, -_Q)), (Q3(0, -_Q), 3 * _Q)))  # onto (1/2, -sqrt(3)/2)

EXACT_WITNESS = {
    "v1": _q3_kron(_LOWER, _ID2),
    "v2": _q3_kron(_ID2, _LOWER),
    "a1": _q3_kron(_ON_E1, _ID2),
    "b1": _q3_kron(_ON_PLUS_60, _ID2),
    "a2": _q3_kron(_ID2, _ON_E1),
    "b2": _q3_kron(_ID2, _ON_MINUS_60),
}
EXACT_PHI = tuple(Q3(x) for x in (1, 0, 0, 1))  # e00 + e11, squared norm 2


def exact_expectation(op) -> Q3:
    """<phi|op|phi> in the normalised witness state (e00 + e11)/sqrt(2), exactly."""
    phi = EXACT_PHI
    total = sum((phi[i] * op[i][j] * phi[j] for i in range(4) for j in range(4)), Q3())
    return total * Q3(Fraction(1, 2))
