"""Shared test utilities: independent oracles, random generators and fake events.

The oracles here deliberately avoid the code paths they are used to
check.  The set-operation oracle works pointwise on the elementary
subintervals induced by all endpoints; the Stirling numbers come from
the standard recurrence; the two-sided split is the lattice's generic
compatibility test, which the interval model's one-sweep atoms and the
lattice's split of finite pairs are checked against, and the Fraction
carve the left-to-right carve in Fraction arithmetic; the conditions
oracle scores a list of cells with Fraction conditionals, and the search
oracle applies it to every enumerated partition.  The quadruple oracle
decides the conditions on per-cell measures in Fraction arithmetic, as
the engine did before its integer kernel.  The screening-cell oracle
scans all 2^m subsets of a finite space, and the orbit oracles count the
search's hits from the cells' count vectors alone: over the atoms of a
uniform space, or over classes of equal-weight points within an atom.
With the int-string limit lifted, ``str`` is the oracle for exact output
of any size.  The Fraction reader and the pairwise partition check are
the JSON read path and the partition check as they were before their
one-pass versions: a ``Fraction`` per endpoint and the constructor's
check, and a meet per pair of cells and a join of all.  The fake events
at the end are models in which the compatibility test fails, which no
shipped model does; like the shipped events they are hashable, since the
engine memoizes the split of each pair.  ``MO2`` is a genuine
orthomodular lattice that is not Boolean, the smallest one, ``Greechie``
a larger finite one, two 8-element Boolean blocks sharing an atom, and
``GluedIntervals`` an atomless one that carves.  The four-meet test is
logical independence as the lattice decided it before it read the atoms
of its split.  The exact Bell witness at the very end has its entries in
Q(sqrt 3), so its identities hold as equalities, not within a tolerance.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, prod, sqrt

from rccs import EMPTY, FULL, FiniteSpace, InputError, IntervalEvent, enumerate_partitions
from rccs.errors import echo
from rccs.serialize import _list_field


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


_RATIONAL_TEXT = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def fraction_rational(text) -> Fraction:
    """A rational string read as the JSON reader did before it parsed to int pairs: one ``Fraction`` each."""
    if not isinstance(text, str):
        raise InputError(f"rationals must be JSON strings, got {echo(text)}")
    match = _RATIONAL_TEXT.match(text.strip())
    if not match:
        raise InputError(f"malformed rational {echo(text)}; expected 'p/q' or an integer string")
    numerator, denominator = match.groups()
    if denominator is not None and not any(map(int, denominator)):
        raise InputError(f"zero denominator in rational {echo(text)}")
    try:
        return Fraction(int(numerator), int(denominator) if denominator else 1)
    except ValueError:
        raise InputError(
            f"rational {text[:20]}... has a numerator or denominator longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def fraction_interval_event(obj, normalize: bool = False) -> IntervalEvent:
    """``interval_event_from_obj`` as it was: each endpoint a Fraction, then the event's constructor."""
    raw = _list_field(obj, "intervals", "[lo, hi] pairs")
    pairs = []
    for k, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InputError(f"interval {k} must be a [lo, hi] pair")
        pairs.append((fraction_rational(item[0]), fraction_rational(item[1])))
    return IntervalEvent.normalized(pairs) if normalize else IntervalEvent(tuple(pairs))


def pairwise_partition_fault(cells) -> str | None:
    """The refusal of nonzero cells of one model by the partition check as it was, or None where it accepted them.

    Cells overlap when their meet is nonzero, tried pair by pair; then the
    join of all must be 1.  An error the model raises on the way, such as
    events of two finite spaces, is the refusal.
    """
    try:
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if not cells[i].meet(cells[j]).is_zero:
                    return f"partition cells {i} and {j} overlap"
        if not reduce(lambda x, y: x.join(y), cells).is_one:
            return "partition cells do not cover the whole space"
    except InputError as exc:
        return str(exc)
    return None


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


# Rejection samplers give up after this many draws, so a broken kernel that refuses every draw fails a test
# with an AssertionError instead of hanging it.
DRAW_BUDGET = 10_000


def random_nonzero_event(rng: random.Random, max_parts: int = 3, mixed: bool = False) -> IntervalEvent:
    for _ in range(DRAW_BUDGET):
        ev = random_event(rng, max_parts, mixed)
        if not ev.is_zero and not ev.is_one:
            return ev
    raise AssertionError(f"no event other than 0 and 1 in {DRAW_BUDGET} draws")


def random_correlated_independent_pair(rng: random.Random) -> tuple[IntervalEvent, IntervalEvent]:
    """Rejection-sample a compatible, logically independent, correlated pair."""
    from rccs import correlation, logically_independent

    for _ in range(DRAW_BUDGET):
        a = random_nonzero_event(rng)
        b = random_nonzero_event(rng)
        if logically_independent(a, b) and correlation(a, b) > 0:
            return a, b
    raise AssertionError(f"no correlated, logically independent pair in {DRAW_BUDGET} draws")


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


class MO2:
    """An element of MO2, the horizontal sum of the Boolean blocks {0, p, p', 1} and {0, q, q', 1}.

    The atoms p, p', q and q' are pairwise incomparable, so two distinct
    atoms meet in 0 and join to 1, and only an atom and its own complement
    are orthogonal.  The lattice is orthomodular but not distributive:
    p and q are not compatible.  The state gives p measure 1/3 and q 1/4,
    their complements the rest; it is additive within each block only.
    """

    _COMPLEMENT = {"0": "1", "1": "0", "p": "p'", "p'": "p", "q": "q'", "q'": "q"}
    _MEASURE = {
        "0": Fraction(0), "1": Fraction(1),
        "p": Fraction(1, 3), "p'": Fraction(2, 3),
        "q": Fraction(1, 4), "q'": Fraction(3, 4),
    }

    def __init__(self, name: str) -> None:
        self.name = name

    def leq(self, other: "MO2") -> bool:
        return self.name == "0" or other.name == "1" or self.name == other.name

    def meet(self, other: "MO2") -> "MO2":
        if self.leq(other):
            return self
        return other if other.leq(self) else MO2("0")

    def join(self, other: "MO2") -> "MO2":
        if self.leq(other):
            return other
        return self if other.leq(self) else MO2("1")

    def complement(self) -> "MO2":
        return MO2(self._COMPLEMENT[self.name])

    def measure(self) -> Fraction:
        return self._MEASURE[self.name]

    @property
    def is_zero(self) -> bool:
        return self.name == "0"

    @property
    def is_one(self) -> bool:
        return self.name == "1"

    def __eq__(self, other) -> bool:
        return isinstance(other, MO2) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"MO2({self.name!r})"


class GluedIntervals:
    """An event of the horizontal sum of two interval algebras on [0, 1), glued at 0 and 1.

    An event is a block, 0 or 1, and an ``IntervalEvent``.  The empty and
    the full event belong to both blocks and are stored with block None,
    so each element has one form.  Within a block the operations are the
    interval ones, and ``carve`` carves within the block (the glued 1 in
    block 0).  Two events of different blocks, neither 0 nor 1, meet in 0
    and join to 1, so events of two blocks are not compatible.  The
    lattice is orthomodular and atomless, but not Boolean: the atomless
    analogue of ``MO2`` (Kalmbach, Orthomodular Lattices, 1983).  The
    state is Lebesgue measure in each block; every orthogonal family lies
    in one block, so it is faithful and additive.
    """

    __slots__ = ("block", "event")

    def __init__(self, block: int | None, event: IntervalEvent) -> None:
        self.block = None if event.is_zero or event.is_one else block
        self.event = event

    def _within(self, other: "GluedIntervals", op, across: IntervalEvent) -> "GluedIntervals":
        """``op`` on the two intervals when the events share a block or one is 0 or 1, else ``across``."""
        if self.block is None or other.block is None or self.block == other.block:
            return GluedIntervals(other.block if self.block is None else self.block, op(self.event, other.event))
        return GluedIntervals(None, across)

    def meet(self, other: "GluedIntervals") -> "GluedIntervals":
        return self._within(other, IntervalEvent.meet, EMPTY)

    def join(self, other: "GluedIntervals") -> "GluedIntervals":
        return self._within(other, IntervalEvent.join, FULL)

    def complement(self) -> "GluedIntervals":
        return GluedIntervals(self.block, self.event.complement())

    def leq(self, other: "GluedIntervals") -> bool:
        return self.meet(other) == self

    def measure(self) -> Fraction:
        return self.event.measure()

    def carve(self, target) -> "GluedIntervals":
        return GluedIntervals(self.block or 0, self.event.carve(target))

    @property
    def is_zero(self) -> bool:
        return self.event.is_zero

    @property
    def is_one(self) -> bool:
        return self.event.is_one

    def __eq__(self, other) -> bool:
        return isinstance(other, GluedIntervals) and (self.block, self.event) == (other.block, other.event)

    def __hash__(self) -> int:
        return hash((self.block, self.event))

    def __repr__(self) -> str:
        return f"GluedIntervals({self.block!r}, {self.event})"


class Greechie:
    """An element of the pasting of two 8-element Boolean blocks that share one atom.

    Block A has the atoms x, y, z and block B the atoms z, u, v, and an
    element is the set of atoms below it in a block that holds it.  The
    blocks share 0, z, z' and 1, where z' is {x, y} in A and {u, v} in B;
    a shared element is stored in its A form, so each of the 12 elements
    has one form.  The order is containment within a block, and meets and
    joins are read off it by a scan of all 12 elements, so no rule for
    elements of two blocks is assumed.  The Greechie diagram is two lines
    meeting in the point z, with no loop, so the lattice is orthomodular;
    it is not Boolean, since x and u are not compatible.  The state weighs
    x, y, z as 1/6, 1/3, 1/2 and u, v as 1/5, 3/10: each block sums to 1
    and z' weighs 1/2 in both, so it is faithful and additive on every
    orthogonal family, which lies in one block (Kalmbach, Orthomodular
    Lattices, 1983).
    """

    BLOCKS = (frozenset("xyz"), frozenset("zuv"))
    _WEIGHT = {"x": Fraction(1, 6), "y": Fraction(1, 3), "z": Fraction(1, 2), "u": Fraction(1, 5), "v": Fraction(3, 10)}
    _B_FORM = {frozenset("xy"): frozenset("uv"), frozenset("xyz"): frozenset("zuv")}
    _A_FORM = {b: a for a, b in _B_FORM.items()}
    ELEMENTS: tuple["Greechie", ...] = ()

    __slots__ = ("atoms",)

    def __init__(self, atoms) -> None:
        atoms = frozenset(atoms)
        if not any(atoms <= block for block in self.BLOCKS):
            raise ValueError(f"atoms {sorted(atoms)} lie in no block")
        self.atoms = self._A_FORM.get(atoms, atoms)

    def _forms(self) -> tuple[frozenset, ...]:
        """The element's atom set in each block that holds it."""
        return (self.atoms, self._B_FORM[self.atoms]) if self.atoms in self._B_FORM else (self.atoms,)

    def leq(self, other: "Greechie") -> bool:
        return any(s <= t and t <= block for block in self.BLOCKS for s in self._forms() for t in other._forms())

    def meet(self, other: "Greechie") -> "Greechie":
        lower = [e for e in self.ELEMENTS if e.leq(self) and e.leq(other)]
        return next(e for e in lower if all(f.leq(e) for f in lower))

    def join(self, other: "Greechie") -> "Greechie":
        upper = [e for e in self.ELEMENTS if self.leq(e) and other.leq(e)]
        return next(e for e in upper if all(e.leq(f) for f in upper))

    def complement(self) -> "Greechie":
        block = next(block for block in self.BLOCKS if self.atoms <= block)
        return Greechie(block - self.atoms)

    def measure(self) -> Fraction:
        return sum((self._WEIGHT[atom] for atom in self.atoms), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def is_one(self) -> bool:
        return self.atoms == self.BLOCKS[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Greechie) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Greechie({''.join(sorted(self.atoms))!r})"


Greechie.ELEMENTS = tuple(
    dict.fromkeys(
        Greechie(s) for block in Greechie.BLOCKS for r in range(4) for s in itertools.combinations(sorted(block), r)
    )
)


def four_meet_independent(a, b) -> bool:
    """Logical independence from four meets of its own: a&b, a&~b, ~a&b and ~a&~b all nonzero."""
    not_a, not_b = a.complement(), b.complement()
    return not (
        a.meet(b).is_zero or a.meet(not_b).is_zero or not_a.meet(b).is_zero or not_a.meet(not_b).is_zero
    )


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

    ``sizes`` are the point counts of the atoms a&b, a&~b, ~a&b and ~a&~b:
    :func:`class_orbit_count` with one class of weight 1 per atom.
    """
    return class_orbit_count(tuple(((size, 1),) for size in sizes), n)


def class_orbit_count(classes, n: int) -> int:
    """The number of size-n systems in a space whose points fall into classes of equal weight within one atom.

    ``classes`` has one entry per atom a&b, a&~b, ~a&b and ~a&~b: pairs
    ``(K, w)``, K points of integer weight w each (any common scale).  A
    cell is a count vector k over the classes, and its weight x_i in atom
    i is the sum of k_c w_c over that atom's classes, so its conditions
    depend on k alone: it screens off when x1 x4 == x2 x3.  The strict
    cross condition asks every two cells to differ in P(a|c) and P(b|c) in
    the same direction, so the cells of a system form a chain, each
    strictly above the one before in both, and no two share a vector.
    Each such chain of n vectors that adds up to the class sizes stands
    for prod K_c! / prod over cells of prod k_c! partitions: the ways to
    deal each class's points out to the cells.  The chain is grown from
    its lowest cell; the cells still to come lie above the last one taken,
    and so does their sum, which prunes the growth, and the last cell is
    the rest, looked up, not searched for.
    """
    flat = [(i, size, w) for i, entry in enumerate(classes) for size, w in entry]
    sizes = tuple(size for _, size, _ in flat)

    def profile(k) -> tuple[int, int, int, int]:  # (w, w_a, w_b, w_ab)
        x = [0, 0, 0, 0]
        for (i, _, w), count in zip(flat, k):
            x[i] += count * w
        return sum(x), x[0] + x[1], x[0] + x[2], x[0]

    def below(u, v) -> bool:  # P(a|u) < P(a|v) and P(b|u) < P(b|v), from (w, w_a, w_b) profiles
        return u[1] * v[0] < v[1] * u[0] and u[2] * v[0] < v[2] * u[0]

    vectors = {}
    for k in itertools.product(*(range(size + 1) for size in sizes)):
        w, w_a, w_b, w_ab = profile(k)
        if w and w * w_ab == w_a * w_b:
            vectors[k] = (w, w_a, w_b)

    def count(rest: tuple[int, ...], last, need: int) -> int:
        if need == 1:  # the rest is the last cell
            top = vectors.get(rest)
            return int(top is not None and (last is None or below(last, top)))
        total = 0
        for k, here in vectors.items():
            if (last is None or below(last, here)) and all(x <= r for x, r in zip(k, rest)):
                left = tuple(r - x for x, r in zip(k, rest))
                if any(left) and below(here, profile(left)):
                    ways = prod(comb(r, x) for x, r in zip(k, rest))
                    total += ways * count(left, here, need - 1)
        return total

    return count(sizes, None, n)


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
