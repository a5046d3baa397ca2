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

Operators are plain complex numpy arrays; states are complex vectors.
All tolerances live in the two module constants below, chosen because the
entries involve sqrt(3) and 1/sqrt(2) rather than rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from numbers import Rational

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .events import format_rational

TOLERANCE = 1e-12  # matrix and state identities
IDENTITY_TOLERANCE = 1e-15  # scalar algebraic identity residuals

_LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)  # e1 -> e0, e0 -> 0
_IDENTITY2 = np.eye(2, dtype=complex)


def _sup_norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def is_projection(op: np.ndarray, tol: float = TOLERANCE) -> bool:
    """True when op is self-adjoint and idempotent within tol (sup norm)."""
    return _sup_norm(op @ op - op) < tol and _sup_norm(op - op.conj().T) < tol


def is_partial_isometry(op: np.ndarray, tol: float = TOLERANCE) -> bool:
    """True when both op* op and op op* are projections within tol."""
    adj = op.conj().T
    return is_projection(adj @ op, tol) and is_projection(op @ adj, tol)


def commutator_norm(x: np.ndarray, y: np.ndarray) -> float:
    return _sup_norm(x @ y - y @ x)


@dataclass(frozen=True, eq=False)
class BellWitness:
    """The two partial isometries, four observables, and the entangled state."""

    v1: np.ndarray
    v2: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    phi: np.ndarray


def basis_product_state(i: int, j: int) -> np.ndarray:
    """The product basis vector e_i (x) e_j of C^2 (x) C^2."""
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
    v1 = np.kron(_LOWERING, _IDENTITY2)
    v2 = np.kron(_IDENTITY2, _LOWERING)
    a1 = v1.conj().T @ v1
    a2 = v2.conj().T @ v2
    root3_over_4 = np.sqrt(3) / 4
    b1 = 0.75 * v1.conj().T @ v1 + 0.25 * v1 @ v1.conj().T + root3_over_4 * (v1 + v1.conj().T)
    b2 = 0.75 * v2.conj().T @ v2 + 0.25 * v2 @ v2.conj().T - root3_over_4 * (v2 + v2.conj().T)

    if psi is None:
        psi = basis_product_state(1, 1)
    psi = np.asarray(psi, dtype=complex).reshape(4)
    norm = np.linalg.norm(psi)
    if norm < TOLERANCE:
        raise PreconditionError("seed state must be nonzero")
    psi = psi / norm
    if np.linalg.norm(a1 @ a2 @ psi) < TOLERANCE:
        raise PreconditionError(
            "seed state has no component along e1 (x) e1, so the entangled combination degenerates"
        )
    raw_phi = psi + v1 @ v2 @ psi
    phi = raw_phi / np.linalg.norm(raw_phi)
    return BellWitness(v1=v1, v2=v2, a1=a1, b1=b1, a2=a2, b2=b2, phi=phi)


def _expect(state: np.ndarray, op: np.ndarray) -> float:
    value = complex(np.vdot(state, op @ state))
    if abs(value.imag) >= TOLERANCE:
        raise InternalInvariantError(f"expectation of a projection came out non-real: {value}")
    return value.real


def _require_unit(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(state) - 1.0) >= TOLERANCE:
        raise PreconditionError("state vector must have unit norm")
    return state


def _require_witness_ops(witness: BellWitness) -> None:
    for name, op in (("A1", witness.a1), ("B1", witness.b1), ("A2", witness.a2), ("B2", witness.b2)):
        if not is_projection(op):
            raise PreconditionError(f"{name} is not a projection")
    for n1, site1 in (("A1", witness.a1), ("B1", witness.b1)):
        for n2, site2 in (("A2", witness.a2), ("B2", witness.b2)):
            if commutator_norm(site1, site2) >= TOLERANCE:
                raise PreconditionError(f"{n1} does not commute with {n2}")


def bell_expectations(state: np.ndarray, witness: BellWitness) -> dict[str, float]:
    """The six expectation values entering the Clauser-Horne combination."""
    state = _require_unit(state)
    _require_witness_ops(witness)
    a1, b1, a2, b2 = witness.a1, witness.b1, witness.a2, witness.b2
    return {
        "a1": _expect(state, a1),
        "a2": _expect(state, a2),
        "b1b2": _expect(state, b1 @ b2),
        "a1a2": _expect(state, a1 @ a2),
        "b1a2": _expect(state, b1 @ a2),
        "a1b2": _expect(state, a1 @ b2),
    }


def bell_value(state: np.ndarray, witness: BellWitness) -> float:
    """Clauser-Horne combination in the given vector state.

    For the default witness state this is -1/8; any value outside [0, 1]
    is impossible under a single all-pairs screening partition.
    """
    e = bell_expectations(state, witness)
    return e["a1"] + e["a2"] + e["b1b2"] - e["a1a2"] - e["b1a2"] - e["a1b2"]


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
        if not 0 <= v <= 1:
            text = format_rational(v) if isinstance(v, Rational) else v
            raise PreconditionError(f"{name} = {text} is outside [0, 1]")
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
    witness = build_witness()
    value = bell_value(witness.phi, witness)
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
