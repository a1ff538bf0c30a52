"""Dense numeric verification layer."""

from __future__ import annotations

import numpy as np
import pytest

import denseref
from frustgraph import (
    EvenDimension,
    GFMatrix,
    InvalidOption,
    GroupSpec,
    OptimizerConfig,
    PauliOperator,
    SiteSubset,
    TooLarge,
    builtin_code,
    concrete_elements,
    dense_pauli,
    lagrange_extremum,
    max_product_overlap,
    max_sos,
    max_sum_eigenvalue,
    sos_bound,
    stabilizer_projector,
    sum_bound,
    theta_energy,
    theta_state,
    verify_swap_identity,
)
from frustgraph.gf import is_prime
from frustgraph.oracle import (
    BOUND_TOLERANCE,
    FAITHFULNESS_TOLERANCE,
    SWAP_TOLERANCE,
)
from frustgraph.stabilizer import Stabilizer

CFG = OptimizerConfig(seed=7)


def pauli_pair_spec(d):
    return GroupSpec.from_generators([PauliOperator.x(d), PauliOperator.z(d)])


def two_qubit_spec():
    d = 2
    return GroupSpec.from_generators(
        [
            PauliOperator(d, (1, 0), (0, 0)),
            PauliOperator(d, (0, 0), (1, 0)),
            PauliOperator(d, (0, 1), (0, 0)),
            PauliOperator(d, (0, 0), (0, 1)),
        ]
    )


def test_dense_pauli_shift_qubit():
    assert np.array_equal(dense_pauli(PauliOperator.x(2)), [[0, 1], [1, 0]])


def test_dense_pauli_clock_qutrit():
    omega = np.exp(2j * np.pi / 3)
    expected = np.diag([1, omega, omega ** 2])
    assert np.max(np.abs(dense_pauli(PauliOperator.z(3)) - expected)) < 1e-15


def test_dense_pauli_quarter_turn_is_third_pauli():
    y = PauliOperator(2, (1,), (1,)).canonical_unit_phase()
    assert np.max(np.abs(dense_pauli(y) - [[0, -1j], [1j, 0]])) < 1e-15


def test_dense_pauli_cap():
    with pytest.raises(TooLarge):
        dense_pauli(PauliOperator.identity(2, 13))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_swap_identity(d):
    assert verify_swap_identity(d) < SWAP_TOLERANCE


def test_swap_identity_cap():
    with pytest.raises(TooLarge):
        verify_swap_identity(13)


def test_max_sos_pauli_pair():
    spec = pauli_pair_spec(2)
    value = max_sos(spec, CFG)
    assert value == pytest.approx(2.0, abs=1e-9)


def test_max_sos_two_qubit():
    value = max_sos(two_qubit_spec(), CFG)
    assert value == pytest.approx(4.0, abs=1e-9)


def test_max_sos_trivial_group():
    spec = GroupSpec(2, GFMatrix(np.zeros((0, 0), dtype=int), 2), generators=())
    assert max_sos(spec, CFG) == 1.0


def test_max_sos_sandwich_random():
    # heuristic route stays at or below the bound, witness route attains it
    rng = np.random.default_rng(51)
    cfg = OptimizerConfig(restarts=8, seed=3)
    done = 0
    while done < 10:
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 4))
        gens = [
            PauliOperator(
                d,
                tuple(int(v) for v in rng.integers(0, d, size=2)),
                tuple(int(v) for v in rng.integers(0, d, size=2)),
            ).canonical_unit_phase()
            for _ in range(k)
        ]
        spec = GroupSpec.from_generators(gens)
        done += 1
        value = max_sos(spec, cfg)
        bound = sos_bound(spec)
        assert value <= bound + BOUND_TOLERANCE
        assert value == pytest.approx(bound, abs=1e-6)


@pytest.mark.parametrize("d", [3, 5])
def test_energy_maximum_saturates_bound(d):
    spec = pauli_pair_spec(d)
    top = max_sum_eigenvalue(spec)
    assert top == pytest.approx(sum_bound(spec), abs=1e-9)
    assert top == pytest.approx(d * (1 + np.sqrt(d)), abs=1e-9)


def test_energy_maximum_diagonal_group():
    spec = GroupSpec.from_generators([PauliOperator.z(3)])
    assert max_sum_eigenvalue(spec) == pytest.approx(6.0, abs=1e-12)


def test_energy_maximum_even_dimension():
    with pytest.raises(EvenDimension):
        max_sum_eigenvalue(pauli_pair_spec(2))


def test_dimension_caps():
    wide = GroupSpec.from_generators([PauliOperator(3, (1,) * 7, (0,) * 7)])
    with pytest.raises(TooLarge):
        max_sum_eigenvalue(wide)  # 3^7 = 2187 exceeds the energy cap
    huge = GroupSpec.from_generators([PauliOperator(2, (1,) * 13, (0,) * 13)])
    with pytest.raises(TooLarge):
        max_sos(huge, CFG)
    chain = Stabilizer(
        [PauliOperator.single(2, 11, s, z_exp=1) for s in range(1, 12)]
    )
    with pytest.raises(TooLarge):
        max_product_overlap(chain, SiteSubset((1,), 11), CFG)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)


@pytest.mark.parametrize(
    "field",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1e-9},
        {"max_iters": 0},
        {"restarts": 2.0},
    ],
    ids=repr,
)
def test_optimizer_config_rejects_every_bad_field(field):
    with pytest.raises(InvalidOption):
        OptimizerConfig(**field)


def test_energy_eigensolver_residual():
    spec = pauli_pair_spec(5)
    half = sum(dense_pauli(op) for _, op in concrete_elements(spec))
    ham = half + half.conj().T
    vals, vecs = np.linalg.eigh(ham)
    scale = np.linalg.norm(ham)
    for idx in (0, len(vals) - 1):
        residual = np.linalg.norm(ham @ vecs[:, idx] - vals[idx] * vecs[:, idx])
        assert residual < 1e-9 * scale


def test_product_overlap_ghz():
    ghz = builtin_code("ghz", 2, 3)
    value = max_product_overlap(ghz, SiteSubset((1,), 3), CFG)
    assert value == pytest.approx(0.5, abs=1e-9)


def test_product_overlap_product_state():
    stab = Stabilizer(
        [PauliOperator(2, (0, 0), (1, 0)), PauliOperator(2, (0, 0), (0, 1))]
    )
    value = max_product_overlap(stab, SiteSubset((1,), 2), CFG)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_product_overlap_five_qudit():
    code = builtin_code("five_qudit", 2, 5)
    value = max_product_overlap(code, SiteSubset((1, 2), 5), CFG)
    assert value == pytest.approx(0.25, abs=1e-6)


def test_product_overlap_below_top_eigenvalue():
    code = builtin_code("ghz", 2, 3)
    proj = stabilizer_projector(code)
    top = np.linalg.eigvalsh(proj)[-1]
    value = max_product_overlap(code, SiteSubset((2,), 3), CFG)
    assert value <= top + 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_lagrange_extremum(d):
    expected = (1 + 1 / np.sqrt(d)) / 2
    assert lagrange_extremum(d) == pytest.approx(expected, abs=1e-6)


def test_lagrange_extremum_is_the_closed_form_for_every_prime_to_97():
    for d in filter(is_prime, range(3, 98)):
        assert abs(lagrange_extremum(d) - (1 + 1 / np.sqrt(d)) / 2) < 1e-12


def test_lagrange_even_dimension():
    with pytest.raises(EvenDimension):
        lagrange_extremum(2)


def test_theta_state_coefficients():
    vec = theta_state(3)
    assert np.max(np.abs(vec - np.array([0.8881, 0.3251, 0.3251]))) < 1e-4
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EvenDimension):
        theta_state(2)


def test_theta_state_weyl_sum():
    # the dense route, d^2 matrices, is the reference for theta_energy's group sum
    for d in (3, 5, 11):
        vec = theta_state(d)
        total = sum(
            np.vdot(vec, dense_pauli(PauliOperator(d, (i,), (j,))) @ vec)
            for i in range(d)
            for j in range(d)
        )
        assert np.real(total) == pytest.approx(d * (1 + np.sqrt(d)) / 2, abs=1e-9)
        assert abs(np.imag(total)) < 1e-9
        assert theta_energy(d) == pytest.approx(np.real(total), rel=1e-13)


def test_dense_realisation_faithful_to_symbolic_products():
    rng = np.random.default_rng(53)
    for d in (2, 3, 5):
        for n_sites in (1, 2):
            for _ in range(20):
                p = PauliOperator(
                    d,
                    tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
                    tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
                    int(rng.integers(0, 4 if d == 2 else d)),
                )
                q = PauliOperator(
                    d,
                    tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
                    tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
                    int(rng.integers(0, 4 if d == 2 else d)),
                )
                lhs = dense_pauli(p * q)
                rhs = dense_pauli(p) @ dense_pauli(q)
                assert np.max(np.abs(lhs - rhs)) < FAITHFULNESS_TOLERANCE
                m = int(rng.integers(0, 2 * d))
                lhs = dense_pauli(p ** m)
                rhs = np.linalg.matrix_power(dense_pauli(p), m)
                assert np.max(np.abs(lhs - rhs)) < FAITHFULNESS_TOLERANCE
                # the independent reference construction agrees as well
                assert np.max(np.abs(dense_pauli(p) - denseref.dense(p))) < FAITHFULNESS_TOLERANCE
