"""Matrix-free oracle routes against dense matrices.

The oracle applies X^a Z^b as a gather plus a phase and works on a cached
orthonormal basis of each code space; ``denseref`` builds the same
operators, sums and optimiser loops from full d^n x d^n matrices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denseref
from frustgraph import (
    GroupSpec,
    OptimizerConfig,
    PauliOperator,
    Stabilizer,
    bipartitions,
    builtin_code,
    concrete_elements,
    dense_pauli,
    max_product_overlap,
    max_sos,
    stabilizer_projector,
)
from frustgraph import oracle
from frustgraph.oracle import _action_tables, _code_basis, _element_sum
from frustgraph.pauli import phase_modulus

TIGHT = 1e-12
AGREE = 1e-9


@st.composite
def operators(draw, d=None, n=None):
    d = d or draw(st.sampled_from([2, 3, 5]))
    n = n or draw(st.integers(1, 4))
    residues = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    phase = st.integers(0, phase_modulus(d) - 1)
    return PauliOperator(d, tuple(draw(residues)), tuple(draw(residues)), draw(phase))


@st.composite
def operator_lists(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    return draw(st.lists(operators(d, n), min_size=1, max_size=4))


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@settings(max_examples=60, deadline=None)
@given(operator_lists(), st.integers(0, 2 ** 32 - 1))
def test_action_tables_apply_the_dense_operator(ops, seed):
    d, n = ops[0].d, ops[0].n_sites
    idx, ph = _action_tables(ops, d, n)
    assert idx.shape == ph.shape == (len(ops), d ** n)
    psi = random_state(d ** n, seed)
    for i, op in enumerate(ops):
        assert np.max(np.abs(ph[i] * psi[idx[i]] - denseref.dense(op) @ psi)) < TIGHT


@pytest.mark.parametrize("d", [2, 3, 5])
def test_action_tables_cover_every_phase(d):
    ops = [
        PauliOperator(d, (1, 0, d - 1), (d - 1, 1, 1), p) for p in range(phase_modulus(d))
    ]
    idx, ph = _action_tables(ops, d, 3)
    eye = np.eye(d ** 3)
    for i, op in enumerate(ops):  # column j of A is A applied to basis state j
        assert np.max(np.abs(ph[i][:, None] * eye[idx[i]] - denseref.dense(op))) < TIGHT


@pytest.mark.parametrize("entries", [None, 8])
@settings(max_examples=30, deadline=None)
@given(ops=operator_lists())
def test_element_sum_scatters_the_dense_sum(entries, ops):
    spec = GroupSpec.from_generators([op.canonical_unit_phase() for op in ops[:3]])
    dim = spec.d ** ops[0].n_sites
    want = sum(dense_pauli(op) for _, op in concrete_elements(spec))
    saved = oracle._TABLE_ENTRIES
    try:
        if entries is not None:  # one element per block
            oracle._TABLE_ENTRIES = entries
        got = _element_sum(spec, dim)
    finally:
        oracle._TABLE_ENTRIES = saved
    assert np.max(np.abs(got - want)) < TIGHT


def graph_code(d: int, n: int, k: int, rng: np.random.Generator) -> Stabilizer:
    """The first k generators X_i Z^{A_i} of a random graph state."""
    adj = np.triu(rng.integers(0, d, size=(n, n)), 1)
    adj = adj + adj.T
    return Stabilizer(
        PauliOperator(d, tuple(int(s == i) for s in range(n)), tuple(int(v) for v in adj[i]))
        for i in range(k)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.data(),
)
def test_code_basis_spans_the_stabilized_subspace(d, n, data):
    k = data.draw(st.integers(1, n))
    stab = graph_code(d, n, k, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    basis = _code_basis(stab)
    assert basis.shape == (d ** n, d ** (n - k))
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(d ** (n - k)))) < TIGHT
    assert np.max(np.abs(basis @ basis.conj().T - stabilizer_projector(stab))) < TIGHT
    assert _code_basis(stab) is basis  # built once per stabilizer


@pytest.mark.parametrize("name,d,n", [("ghz", 2, 3), ("ghz", 3, 3), ("five_qudit", 2, 5)])
def test_code_basis_of_builtin_codes(name, d, n):
    stab = builtin_code(name, d, n)
    basis = _code_basis(stab)
    assert basis.shape[1] == d ** (n - stab.k)
    assert np.max(np.abs(basis @ basis.conj().T - denseref.projector(stab))) < TIGHT


CFG = OptimizerConfig(restarts=4, seed=11)


def assert_routes_agree(stab: Stabilizer) -> None:
    spec = GroupSpec.from_generators(stab.generators)
    assert max_sos(spec, CFG) == pytest.approx(denseref.max_sos(spec, CFG), abs=AGREE)
    for q in bipartitions(stab.n_sites):
        got = max_product_overlap(stab, q, CFG)
        want = denseref.max_product_overlap(stab, q, CFG)
        assert got == pytest.approx(want, abs=AGREE)


@pytest.mark.parametrize(
    "name,d,n", [("ghz", 2, 4), ("ghz", 3, 3), ("five_qudit", 2, 5), ("five_qudit", 3, 5)]
)
def test_matrix_free_routes_agree_with_dense_on_builtins(name, d, n):
    assert_routes_agree(builtin_code(name, d, n))


@pytest.mark.parametrize("seed", range(6))
def test_matrix_free_routes_agree_with_dense_on_graph_codes(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 3]))
    n = int(rng.integers(3, 5))
    assert_routes_agree(graph_code(d, n, int(rng.integers(1, n)), rng))
