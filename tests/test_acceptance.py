"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with ``pytest -s`` or ``-rA``
to see them inline).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from frustgraph import (
    GFMatrix,
    GroupSpec,
    OptimizerConfig,
    PauliOperator,
    SiteSubset,
    builtin_code,
    canonical_form,
    chromatic_number_exact,
    clique_number_bruteforce,
    commutation_graph,
    dense_pauli,
    element_indices,
    lagrange_extremum,
    max_product_overlaps,
    max_sos,
    max_sum_eigenvalue,
    rank,
    sos_bound,
    verify_swap_identity,
)
from frustgraph.symplectic import pair_block_matrix
from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12


def _report(number: int, text: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (cap {budget}s)"
    print(f"ACCEPTANCE PASS [{number:02d}] {text} ({elapsed:.2f}s)")


def random_antisymmetric(rng, d, k):
    upper = np.triu(rng.integers(0, d, size=(k, k)), 1)
    return GFMatrix(upper - upper.T, d)


def test_c01_fixture_matrix_ranks():
    started = time.perf_counter()
    assert rank(GFMatrix(FIVE_QUDIT_CUT_1, 2)) == 2
    assert rank(GFMatrix(FIVE_QUDIT_CUT_12, 2)) == 4
    _report(1, "4x4 cut matrices have GF(2) ranks 2 and 4", started, 1.0)


def test_c02_pauli_pair_sum_of_squares():
    started = time.perf_counter()
    spec = GroupSpec.from_generators([PauliOperator.x(2), PauliOperator.z(2)])
    assert sos_bound(spec) == 2
    value = max_sos(spec, OptimizerConfig(seed=2))
    assert abs(value - 2.0) <= 1e-9
    # with the identity contributing exactly 1, the three single-qubit
    # expectations obey |<X>|^2 + |<Y>|^2 + |<Z>|^2 <= 1 at the maximiser
    _report(2, "qubit pair group: bound 2 attained by max_sos", started, 1.0)


def test_c03_two_qubit_graph_is_not_perfect():
    started = time.perf_counter()
    spec = GroupSpec.from_generators(
        [
            PauliOperator(2, (1, 0), (0, 0)),
            PauliOperator(2, (0, 0), (1, 0)),
            PauliOperator(2, (0, 1), (0, 0)),
            PauliOperator(2, (0, 0), (0, 1)),
        ]
    )
    graph = commutation_graph(spec)
    assert graph.n_vertices == 16
    assert clique_number_bruteforce(graph) == 4
    assert chromatic_number_exact(graph) == 5
    _report(3, "16-vertex graph: clique 4 but chromatic number 5", started, 5.0)


def test_c04_central_subgroup_size_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260809)
    for _ in range(200):
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 5))
        gamma = random_antisymmetric(rng, d, k)
        spec = GroupSpec.from_gamma(d, gamma)
        indices = np.array(element_indices(d, k), dtype=np.int64).reshape(d ** k, k)
        form = (indices @ gamma.entries @ indices.T) % d
        commuting_with_all = int(np.sum(~np.any(form, axis=1)))
        nullity = k - rank(gamma)
        assert commuting_with_all == d ** nullity
    _report(4, "200 random specs: exhaustive central count is d^nullity", started, 30.0)


def test_c05_canonical_form_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(1000):
        d = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(1, 9))
        gamma = random_antisymmetric(rng, d, k)
        form = canonical_form(gamma)
        assert rank(form.O) == k
        assert form.O.T @ gamma @ form.O == pair_block_matrix(k, form.m, d)
        r = rank(gamma)
        assert r % 2 == 0
        assert form.m == r // 2
    _report(5, "1000 random reductions reach exact pair-block form", started, 10.0)


def test_c06_swap_identity():
    started = time.perf_counter()
    for d in (2, 3, 5):
        assert verify_swap_identity(d) < 1e-12
    _report(6, "swap equals its Weyl-sum form for d in {2, 3, 5}", started, 1.0)


def test_c07_energy_bound_saturation():
    started = time.perf_counter()
    for d in (3, 5):
        spec = GroupSpec.from_generators([PauliOperator.x(d), PauliOperator.z(d)])
        top = max_sum_eigenvalue(spec)
        expected = 2 * d * ((1 + np.sqrt(d)) / 2)
        assert abs(top - expected) <= 1e-9
    _report(7, "qudit pair Hamiltonian reaches 2d(1+sqrt(d))/2", started, 2.0)


def test_c08_entanglement_measures():
    started = time.perf_counter()
    cfg = OptimizerConfig(seed=8)

    ghz2 = builtin_code("ghz", 2, 3)
    assert ghz2.gm_measure(SiteSubset((1,), 3)).gm_exact == Fraction(1, 2)
    assert ghz2.ggm_measure() == 0.5

    ghz3 = builtin_code("ghz", 3, 3)
    assert ghz3.ggm_measure() == float(Fraction(2, 3))

    code = builtin_code("five_qudit", 2, 5)
    values = {
        1: code.gm_measure(SiteSubset((1,), 5)).gm_value,
        2: code.gm_measure(SiteSubset((1, 2), 5)).gm_value,
        3: code.gm_measure(SiteSubset((1, 3), 5)).gm_value,
    }
    assert values == {1: 0.5, 2: 0.75, 3: 0.75}

    # numeric cross-check for the d=2 cases (dimensions 8 and 32)
    for stab, subsets in (
        (ghz2, [SiteSubset((1,), 3), SiteSubset((1, 2), 3)]),
        (code, [SiteSubset((1,), 5), SiteSubset((1, 2), 5), SiteSubset((1, 3), 5)]),
    ):
        for q, overlap in zip(subsets, max_product_overlaps(stab, subsets, cfg)):
            closed = stab.gm_measure(q).gm_value
            numeric = 1.0 - overlap
            assert abs(numeric - closed) <= 1e-6
    _report(8, "closed-form measures match the product-state search", started, 30.0)


def test_c09_lagrange_extremum():
    started = time.perf_counter()
    for d in (3, 5, 7):
        expected = (1 + 1 / np.sqrt(d)) / 2
        assert abs(lagrange_extremum(d) - expected) <= 1e-6
    _report(9, "scalar extremum equals (1 + 1/sqrt(d))/2", started, 5.0)


def test_c10_symbolic_dense_faithfulness():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(500):
        d = int(rng.choice([2, 3, 5]))
        n_sites = int(rng.choice([1, 2]))
        phase_mod = 4 if d == 2 else d
        p = PauliOperator(
            d,
            tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
            tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
            int(rng.integers(0, phase_mod)),
        )
        q = PauliOperator(
            d,
            tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
            tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
            int(rng.integers(0, phase_mod)),
        )
        assert np.max(np.abs(dense_pauli(p * q) - dense_pauli(p) @ dense_pauli(q))) < 1e-12
        m = int(rng.integers(0, 2 * d))
        assert np.max(
            np.abs(dense_pauli(p ** m) - np.linalg.matrix_power(dense_pauli(p), m))
        ) < 1e-12
    _report(10, "500 random products and powers are dense-faithful", started, 10.0)
