"""Finite-dimensional Bell-inequality witness.

The classical modules of this package are exact; this one is numeric on
purpose.  It builds, on the four-dimensional space C^2 (x) C^2, a pair of
local partial isometries, four commuting-pair projections, and an
entangled state in which the Clauser-Horne combination

    E[A1] + E[A2] + E[B1 B2] - E[A1 A2] - E[B1 A2] - E[A1 B2]

evaluates to -1/8, strictly below the classical lower bound 0.  A scalar
identity shows that the combination must land in [0, 1] whenever a single
partition screens off all four observable pairs at once, so the negative
value rules out such a "common" common cause system.  Per-pair systems
are untouched by this argument.

Every number comes from one private kernel over plain Python ``complex``:
a matrix is a tuple of rows, each a tuple of complex numbers, and a state
is a tuple of complex numbers.  Its sums run left to right from their
first term, and a norm is the sum of the squared real parts plus the sum
of the squared imaginary parts, as in numpy, so the printed floats are
numpy's, bit for bit; the tests pin them.  numpy appears only at the
public array boundary: ``BellWitness`` holds numpy arrays, and
``build_witness``, ``bell_expectations``, ``bell_value``,
``is_projection``, ``is_partial_isometry``, ``commutator_norm`` and
``basis_product_state`` take or return them and import numpy inside the
call, so the ``bell`` and ``demo`` subcommands never load it.  numpy is
the optional ``array`` extra: without it those calls raise a one-line
ImportError that names the extra, and everything else runs.  All
tolerances live in the two module constants below, chosen because the
entries involve sqrt(3) and 1/sqrt(2) rather than rationals.
"""

from __future__ import annotations

import math
import random
from functools import cache, reduce
from operator import add, mul, sub
from typing import TYPE_CHECKING

from .errors import InternalInvariantError, PreconditionError
from .events import _outside_unit, _Value

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-12  # matrix and state identities
IDENTITY_TOLERANCE = 1e-15  # scalar algebraic identity residuals

# The kernel.  ``reduce`` sums left to right from the first term; ``sum``
# would start from 0, and newer Pythons compensate its float rounding.


def _matmul(x: tuple, y: tuple) -> tuple:
    cols = tuple(zip(*y))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols) for row in x)


def _apply(x: tuple, v: tuple) -> tuple:
    return tuple(reduce(add, map(mul, row, v)) for row in x)


def _adjoint(x: tuple) -> tuple:
    return tuple(tuple(z.conjugate() for z in col) for col in zip(*x))


def _kron(x: tuple, y: tuple) -> tuple:
    return tuple(tuple(p * q for p in xrow for q in yrow) for xrow in x for yrow in y)


def _entrywise(op, x: tuple, y: tuple) -> tuple:
    return tuple(tuple(map(op, p, q)) for p, q in zip(x, y))


def _scale(s: float, x: tuple) -> tuple:
    return tuple(tuple(s * z for z in row) for row in x)


def _vdot(u: tuple, v: tuple) -> complex:
    return reduce(add, (p.conjugate() * q for p, q in zip(u, v)))


def _norm(v: tuple) -> float:
    return math.sqrt(reduce(add, (z.real * z.real for z in v)) + reduce(add, (z.imag * z.imag for z in v)))


def _normalized(v: tuple, norm: float) -> tuple:
    scale = 1.0 / norm  # numpy divides by a real scalar by multiplying with its reciprocal
    return tuple(scale * z for z in v)


def _sup_norm(x: tuple) -> float:
    return max(abs(z) for row in x for z in row)


def _is_projection(op: tuple, tol: float) -> bool:
    return _sup_norm(_entrywise(sub, _matmul(op, op), op)) < tol and _sup_norm(_entrywise(sub, op, _adjoint(op))) < tol


def _commutator_norm(x: tuple, y: tuple) -> float:
    return _sup_norm(_entrywise(sub, _matmul(x, y), _matmul(y, x)))


_LOWERING = ((0j, 1 + 0j), (0j, 0j))  # e1 -> e0, e0 -> 0
_IDENTITY2 = ((1 + 0j, 0j), (0j, 1 + 0j))
_E11 = (0j, 0j, 0j, 1 + 0j)  # e1 (x) e1, the default seed


def _observable(v: tuple, sign) -> tuple:
    """3/4 V* V + 1/4 V V* (+ or -) sqrt(3)/4 (V + V*): scaled first, then multiplied, then summed left to right."""
    vh = _adjoint(v)
    diagonal = _entrywise(add, _matmul(_scale(0.75, vh), v), _matmul(_scale(0.25, v), vh))
    return _entrywise(sign, diagonal, _scale(math.sqrt(3) / 4, _entrywise(add, v, vh)))


def _witness(psi: tuple) -> tuple:
    """v1, v2, a1, b1, a2, b2 and the state phi built from the seed psi, in the order of ``BellWitness``."""
    v1, v2 = _kron(_LOWERING, _IDENTITY2), _kron(_IDENTITY2, _LOWERING)
    a1, a2 = _matmul(_adjoint(v1), v1), _matmul(_adjoint(v2), v2)
    b1, b2 = _observable(v1, add), _observable(v2, sub)
    norm = _norm(psi)
    if norm < TOLERANCE:
        raise PreconditionError("seed state must be nonzero")
    psi = _normalized(psi, norm)
    if _norm(_apply(_matmul(a1, a2), psi)) < TOLERANCE:
        raise PreconditionError(
            "seed state has no component along e1 (x) e1, so the entangled combination degenerates"
        )
    raw_phi = tuple(map(add, psi, _apply(_matmul(v1, v2), psi)))
    return v1, v2, a1, b1, a2, b2, _normalized(raw_phi, _norm(raw_phi))


def _expect(state: tuple, op: tuple) -> float:
    value = _vdot(state, _apply(op, state))
    if abs(value.imag) >= TOLERANCE:
        raise InternalInvariantError(f"expectation of a projection came out non-real: {value}")
    return value.real


def _expectations(state: tuple, a1: tuple, b1: tuple, a2: tuple, b2: tuple) -> dict[str, float]:
    """The six expectations, after checking the state's norm, the projections and the cross-site commutation."""
    if abs(_norm(state) - 1.0) >= TOLERANCE:
        raise PreconditionError("state vector must have unit norm")
    for name, op in (("A1", a1), ("B1", b1), ("A2", a2), ("B2", b2)):
        if not _is_projection(op, TOLERANCE):
            raise PreconditionError(f"{name} is not a projection")
    for n1, site1 in (("A1", a1), ("B1", b1)):
        for n2, site2 in (("A2", a2), ("B2", b2)):
            if _commutator_norm(site1, site2) >= TOLERANCE:
                raise PreconditionError(f"{n1} does not commute with {n2}")
    return {
        "a1": _expect(state, a1),
        "a2": _expect(state, a2),
        "b1b2": _expect(state, _matmul(b1, b2)),
        "a1a2": _expect(state, _matmul(a1, a2)),
        "b1a2": _expect(state, _matmul(b1, a2)),
        "a1b2": _expect(state, _matmul(a1, b2)),
    }


def _combination(e: dict[str, float]) -> float:
    return e["a1"] + e["a2"] + e["b1b2"] - e["a1a2"] - e["b1a2"] - e["a1b2"]


@cache
def _default_bell() -> tuple[tuple[tuple[str, float], ...], float]:
    """The six expectations of the default witness in its own state, and their combination; built once."""
    _, _, a1, b1, a2, b2, phi = _witness(_E11)
    e = _expectations(phi, a1, b1, a2, b2)
    return tuple(e.items()), _combination(e)


# The public array boundary.


def _numpy():
    """The numpy module, or a one-line ImportError that names the extra which installs it."""
    try:
        import numpy
    except ImportError:
        raise ImportError(
            "rccs.bell's array functions need numpy; install the 'array' extra: pip install 'rccs-toolkit[array]'"
        ) from None
    return numpy


def _operators(*ops) -> list[tuple]:
    """The arrays ``ops`` as kernel matrices; they must be square and of one size."""
    np = _numpy()

    arrays = [np.asarray(op, dtype=complex) for op in ops]
    if any(a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != arrays[0].shape for a in arrays):
        raise PreconditionError("operators must be square matrices of one size")
    return [tuple(map(tuple, a.tolist())) for a in arrays]


def is_projection(op: np.ndarray, tol: float = TOLERANCE) -> bool:
    """True when op is self-adjoint and idempotent within tol (sup norm)."""
    return _is_projection(*_operators(op), tol)


def is_partial_isometry(op: np.ndarray, tol: float = TOLERANCE) -> bool:
    """True when both op* op and op op* are projections within tol."""
    (op,) = _operators(op)
    adj = _adjoint(op)
    return _is_projection(_matmul(adj, op), tol) and _is_projection(_matmul(op, adj), tol)


def commutator_norm(x: np.ndarray, y: np.ndarray) -> float:
    return _commutator_norm(*_operators(x, y))


class BellWitness(_Value):
    """The two partial isometries, four observables, and the entangled state; equal only to itself."""

    __slots__ = ("v1", "v2", "a1", "b1", "a2", "b2", "phi")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, v1, v2, a1, b1, a2, b2, phi) -> None:
        super().__init__(v1, v2, a1, b1, a2, b2, phi)


def basis_product_state(i: int, j: int) -> np.ndarray:
    """The product basis vector e_i (x) e_j of C^2 (x) C^2."""
    np = _numpy()

    if i not in (0, 1) or j not in (0, 1):
        raise PreconditionError("basis labels must be 0 or 1")
    vec = np.zeros(4, dtype=complex)
    vec[2 * i + j] = 1.0
    return vec


def build_witness(psi: np.ndarray | None = None) -> BellWitness:
    """Construct the default witness, optionally seeding it with another state.

    The partial isometries are the one-site lowering operators, V1 on the
    first factor and V2 on the second, so V1^2 = V2^2 = 0.  The seed
    state must have a nonzero component along e1 (x) e1 (equivalently,
    (V1* V1)(V2* V2) psi != 0); the default seed e1 (x) e1 turns the
    final state (psi + V1 V2 psi), normalized, into the standard
    maximally entangled combination.

    Only the seed is checked here.  The operators are the same constant
    matrices on every call; the tests prove their identities exactly, and
    ``bell_expectations`` checks the projections and the cross-site
    commutation on every call.  For a unit seed, psi + V1 V2 psi has norm
    at least (sqrt(5) - 1)/2, so it never vanishes.
    """
    np = _numpy()

    seed = _E11 if psi is None else tuple(np.asarray(psi, dtype=complex).reshape(4).tolist())
    return BellWitness(*(np.array(x, dtype=complex) for x in _witness(seed)))


def bell_expectations(state: np.ndarray, witness: BellWitness) -> dict[str, float]:
    """The six expectation values entering the Clauser-Horne combination."""
    np = _numpy()

    state = tuple(np.asarray(state, dtype=complex).reshape(-1).tolist())
    ops = _operators(witness.a1, witness.b1, witness.a2, witness.b2)
    if len(state) != len(ops[0]):
        raise PreconditionError("state and operators differ in dimension")
    return _expectations(state, *ops)


def bell_value(state: np.ndarray, witness: BellWitness) -> float:
    """Clauser-Horne combination in the given vector state.

    For the default witness state this is -1/8; any value outside [0, 1]
    is impossible under a single all-pairs screening partition.
    """
    return _combination(bell_expectations(state, witness))


def _identity_sides(a1: float, a2: float, b1: float, b2: float) -> tuple[float, float]:
    lhs = a1 + a2 + b1 * b2 - a1 * a2 - b1 * a2 - a1 * b2
    rhs = a1 * (b1 * (1 - a2) + (1 - b1) * (1 - b2)) + (1 - a1) * (b1 * b2 + (1 - b1) * a2)
    return lhs, rhs


def classical_bound_check(a1: float, a2: float, b1: float, b2: float) -> bool:
    """Confirm the scalar identity that pins the combination inside [0, 1].

    For numbers in [0, 1] the combination
    a1 + a2 + b1 b2 - a1 a2 - b1 a2 - a1 b2 rewrites as a convex-style sum
    of products of nonnegative factors, which places it in [0, 1].  This
    is the step that makes any all-pairs screening partition obey the
    classical bound.  Returns True when the two forms agree within
    IDENTITY_TOLERANCE and the value lies in [0, 1] (up to TOLERANCE of
    float slack on the upper end).
    """
    for name, v in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
        failure = _outside_unit(name, v)
        if failure:
            raise PreconditionError(failure)
    lhs, rhs = _identity_sides(a1, a2, b1, b2)
    if abs(lhs - rhs) >= IDENTITY_TOLERANCE:
        return False
    return 0.0 <= rhs <= 1.0 + TOLERANCE


def no_common_ccs_demo(samples: int = 100_000, seed: int = 20260808) -> dict:
    """Structured impossibility report for an all-pairs common cause system.

    The argument has two numeric legs and one analytic step:

    1. the default witness state gives the combination the value -1/8;
    2. the scalar identity keeps the combination inside [0, 1] under any
       single partition that screens off all four pairs and commutes with
       all four observables (fuzzed here on random quadruples);
    3. therefore no such partition exists.

    The impossibility is analytic, so it is reported, not searched for.
    """
    value = _default_bell()[1]
    rng = random.Random(seed)
    max_residual = 0.0
    all_in_bounds = True
    for _ in range(samples):
        quad = (rng.random(), rng.random(), rng.random(), rng.random())
        lhs, rhs = _identity_sides(*quad)
        max_residual = max(max_residual, abs(lhs - rhs))
        if not 0.0 <= rhs <= 1.0 + TOLERANCE:
            all_in_bounds = False
    bound_ok = all_in_bounds and max_residual < IDENTITY_TOLERANCE
    return {
        "bell_value": value,
        "bell_value_exact_form": "-1/8",
        "violates_classical_lower_bound": value < 0,
        "classical_bound_samples": samples,
        "classical_bound_max_identity_residual": max_residual,
        "classical_bound_holds": bound_ok,
        "commutation_requirement": "[A1,Cj] = [A2,Cj] = [B1,Cj] = [B2,Cj] = 0 for every cell Cj",
        "verdict": "common CCS impossible",
        "argument": [
            "the combination E[A1]+E[A2]+E[B1 B2]-E[A1 A2]-E[B1 A2]-E[A1 B2] "
            "evaluates to -1/8 in the witness state",
            "under a single partition that screens off all four observable pairs "
            "and commutes with all four observables, the combination is a "
            "cell-weighted average of scalar values that provably lie in [0, 1]",
            "a value of -1/8 is below 0, so no such partition exists",
        ],
        "per_pair_note": (
            "each of the four observable pairs, taken alone, can still receive a "
            "size-3 common cause system in an atomless classical model; see "
            "construct_size3 for the explicit construction"
        ),
        "scope_note": (
            "the size-3 construction works in the atomless classical interval model; "
            "no construction inside the quantum projection lattice itself is claimed here"
        ),
    }
