"""Bell witness: operator invariants, the -1/8 value, the classical bound."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from rccs import (
    BellWitness,
    CommonCauseSystem,
    InternalInvariantError,
    PreconditionError,
    basis_product_state,
    bell_expectations,
    bell_value,
    build_witness,
    classical_bound_check,
    commutator_norm,
    construct_size3,
    is_partial_isometry,
    is_projection,
    no_common_ccs_demo,
)
from rccs.bell import IDENTITY_TOLERANCE, TOLERANCE, _expect, _identity_sides
from rccs.cli import _bell_obj

from .helpers import (
    EXACT_PHI,
    EXACT_WITNESS,
    Q3,
    exact_expectation,
    iv,
    q3_adjoint,
    q3_matmul,
    unlimited_int_digits,
)

# the six expectations of the Clauser-Horne combination in the witness state
EXACT_EXPECTATIONS = {
    "a1": Fraction(1, 2),
    "a2": Fraction(1, 2),
    "b1b2": Fraction(1, 8),
    "a1a2": Fraction(1, 2),
    "b1a2": Fraction(3, 8),
    "a1b2": Fraction(3, 8),
}


@pytest.fixture(scope="module")
def witness():
    return build_witness()


class TestWitnessInvariants:
    def test_isometries_square_to_zero(self, witness):
        assert np.max(np.abs(witness.v1 @ witness.v1)) < TOLERANCE
        assert np.max(np.abs(witness.v2 @ witness.v2)) < TOLERANCE

    def test_isometries_are_partial_isometries(self, witness):
        assert is_partial_isometry(witness.v1)
        assert is_partial_isometry(witness.v2)

    def test_first_observable_is_rank_two_diagonal_projection(self, witness):
        a1 = witness.a1
        expected = np.diag([0, 0, 1, 1]).astype(complex)  # span{e1} (x) C^2
        assert np.max(np.abs(a1 - expected)) < TOLERANCE
        assert abs(np.trace(a1).real - 2) < TOLERANCE

    def test_all_observables_are_projections(self, witness):
        for op in (witness.a1, witness.b1, witness.a2, witness.b2):
            assert is_projection(op)
            assert np.max(np.abs(op @ op - op)) < TOLERANCE
            assert np.max(np.abs(op - op.conj().T)) < TOLERANCE

    def test_cross_site_commutators_vanish(self, witness):
        for site1 in (witness.a1, witness.b1):
            for site2 in (witness.a2, witness.b2):
                assert commutator_norm(site1, site2) < TOLERANCE

    def test_state_is_unit(self, witness):
        assert abs(np.linalg.norm(witness.phi) - 1) < TOLERANCE

    def test_expectation_two_ways_agree(self, witness):
        # operator product versus explicit basis expansion
        op = witness.a1 @ witness.a2
        direct = np.vdot(witness.phi, op @ witness.phi).real
        expanded = 0.0
        for k in range(4):
            for l in range(4):
                expanded += (np.conj(witness.phi[k]) * op[k, l] * witness.phi[l]).real
        assert abs(direct - expanded) < TOLERANCE


def _exact_operator(key: str):
    """The exact operator named by ``key``: one observable, or a product of two, as in "b1a2"."""
    ops = [EXACT_WITNESS[key[k : k + 2]] for k in range(0, len(key), 2)]
    return ops[0] if len(ops) == 1 else q3_matmul(*ops)


def _is_exact_projection(op) -> bool:
    return q3_matmul(op, op) == op and q3_adjoint(op) == op


def _as_array(exact) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in exact], dtype=complex)


class TestExactWitness:
    """The witness with entries p + q sqrt(3) (tests/helpers.py): its identities hold exactly.

    ``build_witness`` builds the same constant matrices on every call and
    does not re-check them; these tests prove their identities instead
    (Clauser & Horne, PRD 10, 1974).
    """

    def test_isometries_exactly(self):
        for name in ("v1", "v2"):
            v = EXACT_WITNESS[name]
            assert all(x == 0 for row in q3_matmul(v, v) for x in row)
            assert _is_exact_projection(q3_matmul(q3_adjoint(v), v))
            assert _is_exact_projection(q3_matmul(v, q3_adjoint(v)))

    def test_observables_exactly(self):
        for name in ("a1", "b1", "a2", "b2"):
            assert _is_exact_projection(EXACT_WITNESS[name])
        for x in ("a1", "b1"):
            for y in ("a2", "b2"):
                assert _exact_operator(x + y) == _exact_operator(y + x)

    def test_expectations_exactly(self):
        v = {key: exact_expectation(_exact_operator(key)) for key in EXACT_EXPECTATIONS}
        assert v == EXACT_EXPECTATIONS
        assert v["a1"] + v["a2"] + v["b1b2"] - v["a1a2"] - v["b1a2"] - v["a1b2"] == Fraction(-1, 8)

    def test_numeric_witness_matches_the_exact_one(self):
        witness = build_witness()
        for name, exact in EXACT_WITNESS.items():
            assert np.max(np.abs(getattr(witness, name) - _as_array(exact))) < TOLERANCE
        assert np.max(np.abs(witness.phi - _as_array([EXACT_PHI])[0] / np.sqrt(2))) < TOLERANCE
        e = bell_expectations(witness.phi, witness)
        assert e.keys() == EXACT_EXPECTATIONS.keys()
        for key, value in EXACT_EXPECTATIONS.items():
            assert abs(e[key] - float(value)) < TOLERANCE
        assert abs(bell_value(witness.phi, witness) + 0.125) < TOLERANCE

    def test_expectations_refuse_a_non_projection(self):
        w = build_witness()
        bad = BellWitness(v1=w.v1, v2=w.v2, a1=2 * w.a1, b1=w.b1, a2=w.a2, b2=w.b2, phi=w.phi)
        with pytest.raises(PreconditionError, match=r"^A1 is not a projection$"):
            bell_expectations(w.phi, bad)

    def test_expectations_refuse_a_non_commuting_cross_site_pair(self):
        w = build_witness()
        # B1 is a projection, but it acts on the first site, where it does not commute with A1
        bad = BellWitness(v1=w.v1, v2=w.v2, a1=w.a1, b1=w.b1, a2=w.b1, b2=w.b2, phi=w.phi)
        with pytest.raises(PreconditionError, match=r"^A1 does not commute with A2$"):
            bell_expectations(w.phi, bad)


# The floats the witness printed when it was computed with numpy, by float.hex; the kernel keeps them.
PINNED_HEX = {
    "a1": "0x1.ffffffffffffep-2",
    "a2": "0x1.ffffffffffffep-2",
    "b1b2": "0x1.0000000000001p-3",
    "a1a2": "0x1.ffffffffffffep-2",
    "b1a2": "0x1.7ffffffffffffp-2",
    "a1b2": "0x1.7ffffffffffffp-2",
}
PINNED_VALUE_HEX = "-0x1.0000000000000p-3"


class TestPinnedFloats:
    """The six expectations and the combination, bit for bit, on the CLI's path and on the public one."""

    def test_cli_path(self):
        obj = _bell_obj()
        assert {key: value.hex() for key, value in obj["expectations"].items()} == PINNED_HEX
        assert list(obj["expectations"]) == list(PINNED_HEX)
        assert obj["bell_value"].hex() == PINNED_VALUE_HEX

    def test_public_path(self):
        witness = build_witness()
        e = bell_expectations(build_witness().phi, witness)
        assert {key: value.hex() for key, value in e.items()} == PINNED_HEX
        assert bell_value(witness.phi, witness).hex() == PINNED_VALUE_HEX
        assert no_common_ccs_demo(samples=1)["bell_value"].hex() == PINNED_VALUE_HEX


def _numpy_witness(psi: np.ndarray) -> dict[str, np.ndarray]:
    """The witness built with numpy's own operations: the reference for the kernel."""
    lowering, eye = np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2, dtype=complex)
    v1, v2 = np.kron(lowering, eye), np.kron(eye, lowering)
    r = np.sqrt(3) / 4
    psi = psi / np.linalg.norm(psi)
    raw = psi + v1 @ v2 @ psi
    return {
        "v1": v1,
        "v2": v2,
        "a1": v1.conj().T @ v1,
        "b1": 0.75 * v1.conj().T @ v1 + 0.25 * v1 @ v1.conj().T + r * (v1 + v1.conj().T),
        "a2": v2.conj().T @ v2,
        "b2": 0.75 * v2.conj().T @ v2 + 0.25 * v2 @ v2.conj().T - r * (v2 + v2.conj().T),
        "phi": raw / np.linalg.norm(raw),
    }


def _numpy_expectations(state: np.ndarray, w: dict[str, np.ndarray]) -> dict[str, float]:
    """The six expectations by ``@`` and ``np.vdot``; a key such as "b1a2" names the product B1 A2."""
    ops = {key: w[key[:2]] @ w[key[2:]] if key[2:] else w[key] for key in EXACT_EXPECTATIONS}
    return {key: np.vdot(state, op @ state).real for key, op in ops.items()}


def _random_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=4) + 1j * rng.normal(size=4)


def _random_state(rng: np.random.Generator) -> np.ndarray:
    z = _random_vector(rng)
    return z / np.linalg.norm(z)


class TestNumpyOracle:
    """The kernel against numpy's ``@`` and ``np.vdot`` on seeded random seeds and states.

    An expectation of a projection in a unit state lies in [0, 1], and the
    rounding of its terms scales with 1, not with the value, so the
    tolerance is relative to that scale; the combination's is relative to
    the sum of its six terms' sizes.  numpy's BLAS may add in another
    order or fuse a multiply-add, so the two can differ in the last bit.
    """

    REL = 1e-15

    def _check(self, state: np.ndarray, witness, reference: dict[str, np.ndarray]) -> None:
        e, want = bell_expectations(state, witness), _numpy_expectations(state, reference)
        assert e.keys() == want.keys()
        for key in want:
            assert abs(e[key] - want[key]) <= self.REL * max(1.0, abs(want[key])), key
        scale = sum(abs(v) for v in want.values())
        combination = want["a1"] + want["a2"] + want["b1b2"] - want["a1a2"] - want["b1a2"] - want["a1b2"]
        assert abs(bell_value(state, witness) - combination) <= self.REL * scale

    def test_random_seeds_and_states(self):
        rng = np.random.default_rng(20261019)
        for trial in range(120):
            psi = _random_vector(rng)  # not normalized: build_witness normalizes its seed
            if trial % 3 == 0:
                psi = psi.real  # real seeds too
            witness, reference = build_witness(psi), _numpy_witness(psi)
            for name, op in reference.items():
                assert np.max(np.abs(getattr(witness, name) - op)) <= self.REL, name
            for state in (witness.phi, _random_state(rng)):
                self._check(state, witness, reference)

    def test_product_states(self, witness):
        reference = _numpy_witness(basis_product_state(1, 1))
        for i, j in itertools.product((0, 1), repeat=2):
            self._check(basis_product_state(i, j), witness, reference)

    def test_shapes_are_checked_at_the_array_boundary(self, witness):
        with pytest.raises(PreconditionError, match=r"^state and operators differ in dimension$"):
            bell_expectations(np.ones(3) / math.sqrt(3), witness)
        with pytest.raises(PreconditionError, match=r"^operators must be square matrices of one size$"):
            is_projection(np.ones((2, 3)))
        with pytest.raises(PreconditionError, match=r"^operators must be square matrices of one size$"):
            commutator_norm(witness.a1, np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda w: build_witness(),
        lambda w: bell_expectations(w.phi, w),
        lambda w: bell_value(w.phi, w),
        lambda w: basis_product_state(0, 1),
        lambda w: is_projection(w.a1),
        lambda w: is_partial_isometry(w.v1),
        lambda w: commutator_norm(w.a1, w.b2),
    ],
    ids=["build_witness", "bell_expectations", "bell_value", "basis_product_state", "is_projection",
         "is_partial_isometry", "commutator_norm"],
)
def test_array_boundary_without_numpy_names_the_extra(witness, monkeypatch, call):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails, as where it is not installed
    with pytest.raises(ImportError) as err:
        call(witness)
    assert "\n" not in str(err.value) and "'array' extra" in str(err.value)


def test_non_real_expectation_is_an_internal_error():
    # the projection checks keep a non-self-adjoint operator from reaching _expect; called directly, it refuses one
    lowering = ((0j, 1 + 0j), (0j, 0j))
    with pytest.raises(InternalInvariantError, match=r"^expectation of a projection came out non-real: 1j$"):
        _expect((1 + 0j, 1j), lowering)


def _pair_statistics(x: str, y: str) -> tuple[Q3, Q3, Q3]:
    """P(X), P(Y) and P(X and Y) in the witness state, exactly; "~b2" is the complement of B2."""
    px, py, pxy = (exact_expectation(_exact_operator(key)) for key in (x, y.lstrip("~"), x + y.lstrip("~")))
    if y.startswith("~"):
        py, pxy = Q3(1) - py, px - pxy
    return px, py, pxy


class TestPerPairStatistics:
    """Each witness pair's statistics, realised by interval events, meets the size-3 construction.

    a = [0, 1/2) stands for the first observable of every pair.
    """

    @pytest.mark.parametrize(
        "x, y, b, refusal",
        [
            ("a1", "a2", iv("0", "1/2"), r"not logically independent"),
            ("a1", "b2", iv("1/8", "5/8"), None),
            ("b1", "a2", iv("1/8", "5/8"), None),
            ("b1", "b2", iv("3/8", "7/8"), r"not correlated \(joint excess -1/8\)"),
            ("b1", "~b2", ~iv("3/8", "7/8"), None),
        ],
        ids=["A1-A2", "A1-B2", "B1-A2", "B1-B2", "B1-notB2"],
    )
    def test_construction_on_each_pair(self, x, y, b, refusal):
        a = iv("0", "1/2")
        assert _pair_statistics(x, y) == (a.measure(), b.measure(), (a & b).measure())
        if refusal is None:
            assert isinstance(construct_size3(a, b), CommonCauseSystem)
        else:
            with pytest.raises(PreconditionError, match=refusal):
                construct_size3(a, b)


class TestBellValue:
    def test_default_witness_hits_minus_one_eighth(self, witness):
        assert abs(bell_value(witness.phi, witness) + 0.125) < TOLERANCE

    def test_expectations_of_default_witness(self, witness):
        e = bell_expectations(witness.phi, witness)
        assert abs(e["a1"] - 0.5) < TOLERANCE
        assert abs(e["a2"] - 0.5) < TOLERANCE
        assert abs(e["b1b2"] - 0.125) < TOLERANCE
        assert abs(e["a1a2"] - 0.5) < TOLERANCE
        assert abs(e["b1a2"] - 0.375) < TOLERANCE
        assert abs(e["a1b2"] - 0.375) < TOLERANCE

    def test_product_state_obeys_classical_bound(self, witness):
        psi = basis_product_state(1, 1)
        value = bell_value(psi, witness)
        assert abs(value - 0.0625) < TOLERANCE  # 1 + 1 + 9/16 - 1 - 3/4 - 3/4
        assert -TOLERANCE <= value <= 1 + TOLERANCE

    def test_mixed_surrogate_obeys_classical_bound(self, witness):
        values = [
            bell_value(basis_product_state(i, j), witness) for i in (0, 1) for j in (0, 1)
        ]
        average = sum(values) / 4
        assert -TOLERANCE <= average <= 1 + TOLERANCE
        for v in values:
            assert -TOLERANCE <= v <= 1 + TOLERANCE

    def test_non_unit_state_rejected(self, witness):
        with pytest.raises(PreconditionError):
            bell_value(2 * witness.phi, witness)

    def test_custom_seed_state(self):
        seed = (basis_product_state(1, 1) + basis_product_state(0, 1)) / np.sqrt(2)
        witness = build_witness(seed)
        e = bell_expectations(witness.phi, witness)
        for value in e.values():
            assert -TOLERANCE <= value <= 1 + TOLERANCE

    def test_seed_without_joint_component_rejected(self):
        with pytest.raises(PreconditionError):
            build_witness(basis_product_state(0, 0))

    def test_zero_seed_rejected(self):
        with pytest.raises(PreconditionError, match=r"^seed state must be nonzero$"):
            build_witness(np.zeros(4, dtype=complex))

    def test_basis_label_out_of_range_rejected(self):
        with pytest.raises(PreconditionError, match=r"^basis labels must be 0 or 1$"):
            basis_product_state(2, 0)


class TestClassicalBound:
    def test_corners(self):
        assert classical_bound_check(0, 0, 0, 0)
        assert classical_bound_check(1, 1, 1, 1)
        lhs, _ = _identity_sides(1, 1, 1, 1)
        assert lhs == 0

    def test_exact_at_the_sixteen_vertices(self):
        # Both sides are multilinear in (a1, a2, b1, b2): agreeing at the 16
        # vertices of [0, 1]^4 makes them one polynomial, and a multilinear
        # function takes its extremes on the box at vertices, so values of 0
        # or 1 there prove the bound 0 <= combination <= 1 exactly.
        for vertex in itertools.product((Fraction(0), Fraction(1)), repeat=4):
            lhs, rhs = _identity_sides(*vertex)
            assert type(lhs) is Fraction and type(rhs) is Fraction
            assert lhs == rhs
            assert lhs in (0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            classical_bound_check(1.5, 0, 0, 0)
        with pytest.raises(PreconditionError):
            classical_bound_check(0, 0, -0.1, 0)

    def test_out_of_range_diagnostic_past_digit_limit(self):
        # a rational past the int-string limit is named exactly; a float keeps its usual text
        big = Fraction(10**5000 + 1, 10**5000)
        with pytest.raises(PreconditionError) as err:
            classical_bound_check(0, big, 0, 0)
        with unlimited_int_digits():
            assert str(err.value) == f"a2 = {big} is outside [0, 1]"
        with pytest.raises(PreconditionError, match=r"^b1 = -0\.1 is outside \[0, 1\]$"):
            classical_bound_check(0, 0, -0.1, 0)

    def test_random_quadruples(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            quad = (rng.random(), rng.random(), rng.random(), rng.random())
            assert classical_bound_check(*quad)
            lhs, rhs = _identity_sides(*quad)
            assert abs(lhs - rhs) < IDENTITY_TOLERANCE


class TestImpossibilityReport:
    def test_report_contents(self):
        report = no_common_ccs_demo(samples=2_000)
        assert abs(report["bell_value"] + 0.125) < TOLERANCE
        assert report["bell_value_exact_form"] == "-1/8"
        assert report["violates_classical_lower_bound"]
        assert report["classical_bound_holds"]
        assert report["classical_bound_max_identity_residual"] < IDENTITY_TOLERANCE
        assert report["verdict"] == "common CCS impossible"
        assert "[A1,Cj] = [A2,Cj] = [B1,Cj] = [B2,Cj] = 0" in report["commutation_requirement"]
        assert "construct_size3" in report["per_pair_note"]
        assert "quantum" in report["scope_note"]
