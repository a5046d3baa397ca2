"""Shared event-lattice contract and structural predicates.

Both concrete models (interval events on [0, 1) and atom-set events on a
finite weighted space) are Boolean algebras presented through the same
small surface: ``meet``, ``join``, ``complement``, the induced order
``leq``, an exact ``measure``, and the ``is_zero`` / ``is_one`` flags.
Everything here is written against that surface only, so the predicates
work for either model and any other, orthomodular ones included.  Each
public predicate refuses a non-event or a pair of two models once, then
splits the pair with the two-sided compatibility test, and a partition's
cells are tested pair by pair for orthogonality.  A model whose events
offer the optional one-pass hooks of :class:`LatticeEvent` (the interval
model does) gets those in their place.

Only finite lattice operations appear in the contract.  Every algorithm
in the package manipulates finitely many events, so countable joins are
deliberately not part of the interface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Protocol, TypeVar

from .errors import InputError, InternalInvariantError, PreconditionError, echo
from .events import _require_iterable, _Value, format_rational


class LatticeEvent(Protocol):
    """Structural protocol for the events of a probability model.

    Events are immutable and hashable, with equal events hashing alike:
    the engine memoizes work on a pair keyed on the two events.  A model
    may add two optional one-pass hooks that the lattice calls in place of
    its generic paths: ``a._atoms(b)``, the atoms a&b, a&~b, ~a&b and ~a&~b
    of a pair of a Boolean model, and ``cell._tiles(cells)``, whether
    nonzero cells of the model partition the space.  The interval model
    has both.  The engine assumes every cell of a partition compatible
    with both events of the pair, as in a Boolean model; in any other
    model it tests each cell.
    """

    def meet(self, other): ...

    def join(self, other): ...

    def complement(self): ...

    def leq(self, other) -> bool: ...

    def measure(self) -> Fraction: ...

    @property
    def is_zero(self) -> bool: ...

    @property
    def is_one(self) -> bool: ...


E = TypeVar("E", bound=LatticeEvent)


# the surface of LatticeEvent, which is not a runtime-checkable protocol
_SURFACE = tuple(name for name in vars(LatticeEvent) if not name.startswith("_"))


def _require_one_model(a: E, b: E) -> None:
    """Refuse a value without the event surface, then a pair of two models.

    A pair is of one model when one event is an instance of the other's class.
    """
    for x in (a, b):
        if not all(hasattr(x, name) for name in _SURFACE):
            raise InputError(f"not an event: {echo(x)}")
    if not (isinstance(a, b.__class__) or isinstance(b, a.__class__)):
        raise InputError(f"events of different models: {type(a).__name__} and {type(b).__name__}")


def _split(a: E, b: E) -> tuple[bool, E, E, E, E]:
    """The compatibility verdict on a pair, with its atoms a&b, a&~b, ~a&b and ~a&~b.

    The caller has refused a pair of two models.  A model whose events
    offer ``_atoms`` is Boolean, so every pair is compatible: the verdict
    is True and the atoms are those ``_atoms`` gives.  Any other model,
    the finite one included, gets the two-sided test, a = (a and b) or
    (a and not-b) and its mirror b = (a and b) or (not-a and b), with a&b
    serving both sides.  It is symmetric in any orthomodular lattice, so a
    disagreement between the sides is raised as an internal invariant
    failure.
    """
    atoms = getattr(a, "_atoms", None)
    if atoms is not None:
        return (True, *atoms(b))
    not_b, not_a = b.complement(), a.complement()
    a_and_b, a_not_b, not_a_b = a.meet(b), a.meet(not_b), b.meet(not_a)
    a_side = a_and_b.join(a_not_b) == a
    b_side = a_and_b.join(not_a_b) == b
    if a_side != b_side:
        raise InternalInvariantError(
            "compatibility test came out asymmetric; the event model is broken"
        )
    return a_side, a_and_b, a_not_b, not_a_b, not_a.meet(not_b)


def compatible(a: E, b: E) -> bool:
    """Check a = (a and b) or (a and not-b), the two-sided compatibility test.

    After the surface check, a model with the ``_atoms`` hook only splits
    the pair, and the result is always True.  For any other model both
    sides are evaluated, and a disagreement is raised as an internal
    invariant failure.
    """
    _require_one_model(a, b)
    return _split(a, b)[0]


def logically_independent(a: E, b: E) -> bool:
    """True when all four meets a&b, a&~b, ~a&b, ~a&~b are nonzero.

    Logical independence formalizes the absence of any structural
    constraint between the events: no truth value of one forces a truth
    value of the other.  The meets are the atoms of the compatibility
    split, so a model it finds broken is refused as in :func:`compatible`.
    """
    _require_one_model(a, b)
    return not any(atom.is_zero for atom in _split(a, b)[1:])


def _strictly_below(x: E, y: E) -> bool:
    return x.leq(y) and x != y


def logical_independence_equiv(a: E, b: E) -> bool:
    """Order-theoretic characterization of logical independence.

    Evaluates the four strict-order conditions

        a < a or b,   b < a or b,   a < a or not-b,   not-b < a or not-b

    which, for compatible events, hold exactly when ``logically_independent``
    does.  Exposed separately so the equivalence can be cross-validated.
    """
    if not compatible(a, b):
        raise PreconditionError("the order characterization needs compatible events")
    not_b = b.complement()
    a_or_b = a.join(b)
    a_or_not_b = a.join(not_b)
    return (
        _strictly_below(a, a_or_b)
        and _strictly_below(b, a_or_b)
        and _strictly_below(a, a_or_not_b)
        and _strictly_below(not_b, a_or_not_b)
    )


def correlation(a: E, b: E) -> Fraction:
    """Exact joint excess measure(a and b) - measure(a) * measure(b).

    A strictly positive value means the events are correlated.
    """
    _require_one_model(a, b)
    return a.meet(b).measure() - a.measure() * b.measure()


def check_product_inequality(a: E, b: E, c: E) -> bool:
    """Verify measure(a&c) * measure(b&c) >= measure(a&b&c) * measure((a|b)&c).

    This inequality is a theorem for mutually compatible triples, so a
    violation is raised loudly as an internal invariant failure.  The
    boolean return exists for property-test harnesses that assert it.
    """
    for x, y in ((a, b), (a, c), (b, c)):
        if not compatible(x, y):
            raise PreconditionError(f"events {x} and {y} are not compatible")
    lhs = a.meet(c).measure() * b.meet(c).measure()
    rhs = a.meet(b).meet(c).measure() * a.join(b).meet(c).measure()
    if lhs < rhs:
        raise InternalInvariantError(
            f"measure product inequality violated: {format_rational(lhs)} < {format_rational(rhs)}; "
            "the model is broken"
        )
    return True


def _require_orthogonal_cover(cells: tuple) -> None:
    """Refuse nonzero cells of one model unless they are pairwise orthogonal and their join is 1."""
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if not cells[i].leq(cells[j].complement()):
                raise InputError(f"partition cells {i} and {j} overlap")
    whole = reduce(lambda x, y: x.join(y), cells)
    if not whole.is_one:
        raise InputError("partition cells do not cover the whole space")


class Partition(_Value):
    """An ordered tuple of pairwise orthogonal nonzero events whose join is the whole space.

    The constructor always checks the cells, and refuses a cell that is
    not an event at all; so does unpickling.  Partitions that are valid by
    construction are built by ``_trusted``, which skips the check.

    After the per-cell checks, the cells are compared pair by pair: cell i
    must lie below the complement of cell j (orthogonality, which is
    disjointness in a Boolean algebra), and their join must be 1.  A model
    with the ``_tiles`` hook decides in one pass instead, and only when it
    says no does the loop run, to word the refusal.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[LatticeEvent]) -> None:
        _require_iterable(cells, "the cells")
        cells = tuple(cells)
        if not cells:
            raise InputError("a partition needs at least one cell")
        for k, cell in enumerate(cells):
            if not hasattr(cell, "is_zero"):
                raise InputError(f"partition cell {k} is not an event")
            _require_one_model(cells[0], cell)
            if cell.is_zero:
                raise InputError(f"partition cell {k} is empty")
        tiles = getattr(cells[0], "_tiles", None)
        if not (tiles and tiles(cells)):
            _require_orthogonal_cover(cells)
            if tiles:
                raise InternalInvariantError(
                    "the tiling check refused cells that the pairwise check accepts; the event model is broken"
                )
        super().__init__(cells)

    @property
    def size(self) -> int:
        return len(self.cells)
