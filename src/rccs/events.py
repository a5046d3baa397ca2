"""Exact event algebra on the unit interval.

Events are finite unions of half-open rational subintervals of ``[0, 1)``
kept in a unique canonical form: intervals are sorted, pairwise disjoint,
and separated by gaps of positive length.  Under Lebesgue measure this is
an atomless classical probability space with a faithful measure, and every
operation is exact: no rounding happens anywhere.

An event stores its endpoints as one flat tuple of Python ints, four per
interval: ``(lo_num, lo_den, hi_num, hi_den)``, each endpoint a reduced
fraction with a positive denominator of its own.  Endpoints are never
rescaled to a common denominator, so their size does not grow with the
number of distinct denominators in play.  Meet, complement and a pair's
split into its four atoms are the sweeps; ``join`` is the complement of
the meet of the complements (De Morgan), which gives the tuple a direct
merge would, as canonical form is unique.  The sweeps compare by
cross-multiplying and copy endpoint pairs from their operands (or use 0
and 1), so they create no new rationals.  ``measure`` returns an exact
:class:`fractions.Fraction`; ``intervals`` gives Fraction pairs.

Half-open intervals make the representation closed under complement and
union, and merged adjacent intervals make equal point sets equal
representations.  The constructor and unpickling check canonical form;
kernel results, built by ``_trusted``, are canonical by construction; the tests check them.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from operator import lt, mul
from typing import Iterable

from .errors import InputError, InternalInvariantError, PreconditionError, echo

RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or any string ``fractions.Fraction`` reads ('p/q', '0.25', '1e-3') to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"float value {value!r} rejected: scalars must be exact; "
            "pass a Fraction or a 'p/q' string"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in rational {echo(value)}") from None
        except ValueError:
            raise InputError(f"malformed rational {echo(value)}") from None
    raise InputError(f"cannot interpret {type(value).__name__} as a rational scalar")


def _outside_unit(name: str, value: object) -> str | None:
    """The diagnostic for a number outside [0, 1], None for one inside; a value that is no number is refused."""
    try:
        inside = 0 <= value <= 1
    except TypeError:
        raise InputError(f"{name} = {echo(value)} is not a number") from None
    if inside:
        return None
    return f"{name} = {format_rational(value) if isinstance(value, Rational) else value} is outside [0, 1]"


def _require_iterable(value: object, what: str) -> None:
    """Refuse a value that cannot be iterated, such as a plain number, with InputError."""
    try:
        iter(value)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {echo(value)}") from None


def _coerce_pairs(pairs: Iterable) -> tuple[tuple[Fraction, Fraction], ...]:
    out = []
    try:  # the read path of every event: a plain value is refused only once its iteration fails
        for item in pairs:
            try:
                lo, hi = item
            except (TypeError, ValueError):
                raise InputError("each interval must be a (lo, hi) pair") from None
            out.append((as_fraction(lo), as_fraction(hi)))
    except TypeError:
        _require_iterable(pairs, "the intervals")
        raise
    return tuple(out)


def _rational_str(num: int, den: int) -> str:
    """The text ``str(Fraction(num, den))`` gives for a reduced pair, whatever its size."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # the int-string limit guards the parsing of input only; Decimal prints past it
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def format_rational(value: Fraction) -> str:
    """``str(value)``: "p/q", or "n" for a whole number, exact whatever its size."""
    return _rational_str(value.numerator, value.denominator)


def _quads(ends: tuple[int, ...]):
    """Iterate ``(lo_num, lo_den, hi_num, hi_den)`` over the intervals of a flat endpoint tuple."""
    return zip(ends[0::4], ends[1::4], ends[2::4], ends[3::4])


def _checked(ends: tuple[int, ...]) -> tuple[int, ...]:
    """Return ``ends`` if it is canonical, else raise InputError.

    Canonical means 0 <= lo < hi <= 1 for every interval and every
    interval starts strictly after the previous one ends, that is, the
    whole endpoint sequence rises strictly from at least 0 to at most 1.
    """
    nums, dens = ends[0::2], ends[1::2]
    if not ends or (
        nums[0] >= 0
        and nums[-1] <= dens[-1]
        and all(map(lt, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))
    ):
        return ends
    # find the first violation, interval by interval, to name it
    prev_num, prev_den = -1, 1  # below any valid lo
    for k, (lo_n, lo_d, hi_n, hi_d) in enumerate(_quads(ends)):
        if lo_n < 0 or hi_n * lo_d <= lo_n * hi_d or hi_n > hi_d:
            raise InputError(
                f"interval {k} must satisfy 0 <= lo < hi <= 1, "
                f"got [{_rational_str(lo_n, lo_d)}, {_rational_str(hi_n, hi_d)})"
            )
        if lo_n * prev_den <= prev_num * lo_d:
            raise InputError(
                f"intervals {k - 1} and {k} overlap, touch, or are out of order; "
                "canonical form needs strictly separated ascending intervals"
            )
        prev_num, prev_den = hi_n, hi_d
    raise InternalInvariantError("endpoint sequence not rising, yet no interval is at fault")


def _meet(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The intersection of two canonical endpoint tuples, in canonical form."""
    len_a, len_b = len(a), len(b)
    res: list[int] = []
    if len_a and len_b:
        i = j = 0
        a_ln, a_ld, a_hn, a_hd = a[0:4]
        b_ln, b_ld, b_hn, b_hd = b[0:4]
        while True:
            # the interval that ends first bounds the overlap and is used up
            if a_hn * b_hd <= b_hn * a_hd:
                if a_ln * b_ld >= b_ln * a_ld:
                    res += (a_ln, a_ld, a_hn, a_hd)
                elif b_ln * a_hd < a_hn * b_ld:
                    res += (b_ln, b_ld, a_hn, a_hd)
                i += 4
                if i == len_a:
                    break
                a_ln, a_ld, a_hn, a_hd = a[i : i + 4]
            else:
                if b_ln * a_ld >= a_ln * b_ld:
                    res += (b_ln, b_ld, b_hn, b_hd)
                elif a_ln * b_hd < b_hn * a_ld:
                    res += (a_ln, a_ld, b_hn, b_hd)
                j += 4
                if j == len_b:
                    break
                b_ln, b_ld, b_hn, b_hd = b[j : j + 4]
    return tuple(res)


def _atoms(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The atoms a&b, a&~b, ~a&b and ~a&~b of two canonical endpoint tuples, in canonical form, in one sweep.

    The endpoints of both, merged in ascending order, cut [0, 1) into
    pieces on which membership in a and in b is fixed, and each piece is
    filed under the atom those memberships name.  At every cut at least one
    membership flips, so no two pieces of one atom touch.
    """
    atoms: list[list[int]] = [[], [], [], []]
    # the atom's index is 2 * (not in a) + (not in b); an event that starts at 0 is entered before the sweep
    i, j = (2 if a and not a[0] else 0), (2 if b and not b[0] else 0)
    state, at_n, at_d = 3 ^ i ^ j // 2, 0, 1
    # past its last endpoint an event reads 1/0, which cross-multiplies above every point of [0, 1]
    a, b = a + (1, 0), b + (1, 0)
    a_n, a_d, b_n, b_d = a[i], a[i + 1], b[j], b[j + 1]
    while a_d or b_d:
        x, y = a_n * b_d, b_n * a_d
        if x <= y:  # the cut is a's endpoint, alone or with b's
            atoms[state] += (at_n, at_d, a_n, a_d)
            at_n, at_d = a_n, a_d
            state ^= 2
            i += 2
            a_n, a_d = a[i], a[i + 1]
        else:
            atoms[state] += (at_n, at_d, b_n, b_d)
            at_n, at_d = b_n, b_d
        if y <= x:  # the cut is b's endpoint, alone or with a's
            state ^= 1
            j += 2
            b_n, b_d = b[j], b[j + 1]
    if at_n < at_d:  # the closing piece, up to 1
        atoms[state] += (at_n, at_d, 1, 1)
    return tuple(map(tuple, atoms))


def _complement(e: tuple[int, ...]) -> tuple[int, ...]:
    """The complement in [0, 1) of a canonical endpoint tuple, in canonical form.

    Its endpoints are 0, the event's endpoints, and 1, less a 0 or 1
    that the event already starts or ends at.
    """
    if not e:
        return (0, 1, 1, 1)
    ends = (0, 1) + e if e[0] > 0 else e[2:]
    return ends + (1, 1) if e[-2] < e[-1] else ends[:-2]


class _Value:
    """An immutable value whose fields are its ``__slots__``.

    Here live ``__eq__``, ``__hash__`` and ``__repr__`` over the fields, ``__reduce__``, and the
    ``__setattr__`` and ``__delattr__`` that refuse.  A subclass's constructor checks its arguments,
    then sets the fields with ``super().__init__``; copying and unpickling call it again.
    ``_trusted``, the one trusted constructor, checks nothing.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, field in zip(self.__slots__, fields):
            object.__setattr__(self, name, field)

    @classmethod
    def _trusted(cls, *fields):
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Event(_Value):
    """An event of either shipped model: ``&``, ``|``, ``~`` are ``meet``, ``join``, ``complement``.

    The engine reads this class as the mark of a Boolean model, whose
    cells it need not test for compatibility.
    """

    __slots__ = ()

    def __and__(self, other):
        return self.meet(other)

    def __or__(self, other):
        return self.join(other)

    def __invert__(self):
        return self.complement()


class IntervalEvent(_Event):
    """A canonical finite union of half-open intervals [lo, hi) inside [0, 1).

    The constructor is strict: it coerces endpoints to fractions but
    rejects any list that is not already canonical (unsorted, overlapping,
    touching, empty, or out-of-range intervals); so does unpickling.  Use
    :meth:`normalized` for an arbitrary interval list.  Kernel results
    skip the check.  Instances are immutable and hashable.

    Every checked event passes one canonical check, on its flat endpoint
    tuple: the constructor coerces its pairs to that tuple first, and the
    JSON reader, which parses each endpoint text straight to a reduced int
    pair, builds its events through ``_of_ends``.
    """

    __slots__ = ("_ends",)

    def __init__(self, intervals: Iterable = ()) -> None:
        ends: list[int] = []
        for lo, hi in _coerce_pairs(intervals):
            ends += (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        super().__init__(_checked(tuple(ends)))

    @classmethod
    def _of_ends(cls, ends: tuple[int, ...]) -> "IntervalEvent":
        """The event of a flat tuple of reduced endpoint pairs, checked for canonical form as the constructor is."""
        return cls._trusted(_checked(ends))

    @classmethod
    def normalized(cls, pairs: Iterable) -> "IntervalEvent":
        """Build an event from any interval list, merging and sorting as needed.

        Degenerate pairs with lo == hi are dropped; overlapping and adjacent
        intervals are merged.  Pairs with lo > hi or endpoints outside [0, 1]
        are still rejected.
        """
        pieces = []
        for k, (lo, hi) in enumerate(_coerce_pairs(pairs)):
            if not 0 <= lo <= hi <= 1:
                raise InputError(
                    f"interval {k} must satisfy 0 <= lo <= hi <= 1, "
                    f"got [{format_rational(lo)}, {format_rational(hi)})"
                )
            if lo < hi:
                pieces.append(cls._trusted((lo.numerator, lo.denominator, hi.numerator, hi.denominator)))
        # join pairwise, level by level: each level is linear in the intervals, so O(n log n) in all
        while len(pieces) > 1:
            pieces = [x.join(y) for x, y in zip(pieces[0::2], pieces[1::2])] + pieces[len(pieces) // 2 * 2 :]
        return pieces[0] if pieces else cls()

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The intervals as ``(lo, hi)`` Fraction pairs, in ascending order."""
        e = self._ends
        return tuple(
            (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))
            for lo_n, lo_d, hi_n, hi_d in _quads(e)
        )

    @property
    def is_zero(self) -> bool:
        return not self._ends

    @property
    def is_one(self) -> bool:
        return self._ends == (0, 1, 1, 1)

    def measure(self) -> Fraction:
        """Exact Lebesgue measure: the sum of the interval lengths.

        Numerators are summed per denominator, then the per-denominator
        terms are added pairwise, level by level, without reducing, and one
        Fraction is built at the end.  With many distinct denominators the
        balanced sum keeps the big-int operands of similar size, where a
        running sum would redo its whole growing numerator at every term.
        """
        e = self._ends
        by_den: dict[int, int] = {}
        for lo_n, lo_d, hi_n, hi_d in _quads(e):
            by_den[hi_d] = by_den.get(hi_d, 0) + hi_n
            by_den[lo_d] = by_den.get(lo_d, 0) - lo_n
        terms = [(n, d) for d, n in by_den.items()] or [(0, 1)]
        while len(terms) > 1:
            paired = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(terms[0::2], terms[1::2])]
            if len(terms) % 2:
                paired.append(terms[-1])
            terms = paired
        num, den = terms[0]
        return Fraction(num, den)

    def meet(self, other: "IntervalEvent") -> "IntervalEvent":
        """Set intersection, returned in canonical form."""
        return IntervalEvent._trusted(_meet(self._ends, other._ends))

    def join(self, other: "IntervalEvent") -> "IntervalEvent":
        """Set union in canonical form: the complement of the meet of the complements (De Morgan).

        Canonical form is unique, so a direct merge of the two would give the same tuple.
        """
        return IntervalEvent._trusted(_complement(_meet(_complement(self._ends), _complement(other._ends))))

    def complement(self) -> "IntervalEvent":
        """Complement inside [0, 1)."""
        return IntervalEvent._trusted(_complement(self._ends))

    def leq(self, other: "IntervalEvent") -> bool:
        """Containment as point sets: true iff meet(self, other) == self."""
        return self.meet(other) == self

    def _atoms(self, other: "IntervalEvent") -> tuple["IntervalEvent", ...]:
        """The atoms self&other, self&~other, ~self&other and ~self&~other, from one sweep."""
        return tuple(map(IntervalEvent._trusted, _atoms(self._ends, other._ends)))

    def _tiles(self, cells: tuple["IntervalEvent", ...]) -> bool:
        """Whether nonzero cells, this one among them, partition [0, 1), from their intervals' endpoint sets.

        They do exactly when no two intervals share a lower endpoint or an
        upper one, and every endpoint but 0 and 1 is both a lower and an
        upper one.  Endpoints are reduced pairs, so equal points are equal
        pairs; each interval has lo < hi, so from 0 the next interval is
        forced at every step and the chain rises to 1, with no interval left
        off it.
        """
        los, his, size = set(), set(), 0
        for cell in cells:
            e = cell._ends
            los.update(zip(e[0::4], e[1::4]))
            his.update(zip(e[2::4], e[3::4]))
            size += len(e)
        return len(los) == len(his) == size // 4 and los ^ his == {(0, 1), (1, 1)}

    def carve(self, target: RationalLike) -> "IntervalEvent":
        """Return a strict subevent of exactly the requested measure.

        Requires 0 < target < measure(self).  The choice is deterministic,
        a left-to-right sweep: whole intervals are taken from the left
        while they fit, then the first interval that does not fit is
        truncated to the residual length.  The sweep runs in integers on an
        unreduced residual p/q, and reduces only the truncated endpoint; the
        event is measured only to word a refusal.
        """
        want = as_fraction(target)
        e = self._ends
        p, q = want.numerator, want.denominator
        if p > 0:
            for k in range(0, len(e), 4):
                lo_n, lo_d, hi_n, hi_d = e[k : k + 4]
                # the residual less this interval's length, times q * hi_d * lo_d; the last one fits exactly only
                # when the target is the whole event
                diff = p * hi_d * lo_d - (hi_n * lo_d - lo_n * hi_d) * q
                if diff < 0 or diff == 0 and k < len(e) - 4:
                    hi = Fraction(lo_n * q + p * lo_d, lo_d * q)
                    return IntervalEvent._trusted(e[:k] + (lo_n, lo_d, hi.numerator, hi.denominator))
                p, q = diff, q * hi_d * lo_d
        raise PreconditionError(
            f"carve target must lie strictly between 0 and the event measure: "
            f"got target {format_rational(want)} for measure {format_rational(self.measure())}"
        )

    def __reduce__(self):
        return (IntervalEvent, (self.intervals,))

    def __repr__(self) -> str:
        return f"IntervalEvent(intervals={self.intervals!r})"

    def _texts(self) -> list[list[str]]:
        """The intervals as ``[lo, hi]`` endpoint texts, straight from the stored reduced int pairs."""
        return [
            [_rational_str(lo_n, lo_d), _rational_str(hi_n, hi_d)] for lo_n, lo_d, hi_n, hi_d in _quads(self._ends)
        ]

    def __str__(self) -> str:
        return " | ".join(f"[{lo}, {hi})" for lo, hi in self._texts()) or "(empty)"


EMPTY = IntervalEvent(())
FULL = IntervalEvent(((Fraction(0), Fraction(1)),))
