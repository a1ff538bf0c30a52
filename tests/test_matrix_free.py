"""Matrix-free oracle routes against dense matrices.

The oracle applies X^a Z^b as a gather plus a phase and works on a cached
orthonormal basis of each code space; ``denseref`` builds the same
operators, sums and optimiser loops from full d^n x d^n matrices.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import denseref
from frustgraph import (
    GroupSpec,
    OptimizerConfig,
    PauliOperator,
    SiteSubset,
    Stabilizer,
    bipartitions,
    builtin_code,
    canonical_form,
    dense_pauli,
    max_product_overlap,
    max_product_overlaps,
    max_sos,
    max_sum_eigenvalue,
    sos_bound,
    stabilizer_projector,
    sum_bound,
)
from frustgraph import oracle, pauli
from frustgraph.errors import BadSubset
from frustgraph.oracle import (
    FAITHFULNESS_TOLERANCE,
    _action_tables,
    _code_basis,
    _group_sum,
    _power_tables,
)
from frustgraph.pauli import ordered_products, phase_modulus

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
    idx, ph = _action_tables(*denseref.tableau(ops), d)
    assert idx.shape == ph.shape == (len(ops), d ** n)
    psi = random_state(d ** n, seed)
    for i, op in enumerate(ops):
        assert np.max(np.abs(ph[i] * psi[idx[i]] - denseref.dense(op) @ psi)) < TIGHT


@pytest.mark.parametrize("d", [2, 3, 5])
def test_action_tables_cover_every_phase(d):
    ops = [
        PauliOperator(d, (1, 0, d - 1), (d - 1, 1, 1), p) for p in range(phase_modulus(d))
    ]
    idx, ph = _action_tables(*denseref.tableau(ops), d)
    eye = np.eye(d ** 3)
    for i, op in enumerate(ops):  # column j of A is A applied to basis state j
        assert np.max(np.abs(ph[i][:, None] * eye[idx[i]] - denseref.dense(op))) < TIGHT


@pytest.mark.parametrize("d", [2, 3, 5])
def test_zero_site_operator_is_its_phase(d):
    # the trivial group's one concrete element acts on the single basis state
    for p in range(phase_modulus(d)):
        zeta = np.exp(2j * np.pi * p / phase_modulus(d))
        assert np.max(np.abs(dense_pauli(PauliOperator(d, (), (), p)) - [[zeta]])) < TIGHT
    assert dense_pauli(PauliOperator(d, (), ())).tolist() == [[1]]


def test_zero_site_energy_is_the_sum_bound():
    spec = GroupSpec.from_generators([PauliOperator(3, (), ())])
    assert max_sum_eigenvalue(spec) == sum_bound(spec) == 6.0


def test_action_tables_peak_at_32_bytes_an_entry():
    # int64 idx, dot, one digit y and its product while building; idx, the
    # phase units and the complex phases at the end.  A table left alive
    # past its use would add 8 bytes an entry, 32 a state at m = 4
    d, n, m = 2, 14, 4
    A, B = np.random.default_rng(3).integers(0, d, size=(2, m, n))
    tracemalloc.start()
    try:
        _action_tables(A, B, np.zeros(m, dtype=np.int64), d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * m * d ** n + 16 * d ** n  # and the (d^n,) states with their digit


@settings(max_examples=40, deadline=None)
@given(ops=operator_lists())
@example(ops=[PauliOperator(2, (1,), (0,)), PauliOperator(2, (0,), (1,))])
@example(ops=[PauliOperator(3, (1, 0), (0, 1)), PauliOperator(3, (1, 1), (0, 0))])
def test_group_sum_is_the_dense_element_sum(ops):
    # for non-commuting generators the sum is not Hermitian, and applying
    # the factors F_1 first would give its adjoint instead
    spec = GroupSpec.from_generators([op.canonical_unit_phase() for op in ops[:3]])
    want = sum(denseref.dense(op) for op in denseref.group_elements(spec))
    eye = np.eye(want.shape[0], dtype=np.complex128)
    got = _group_sum(_power_tables(spec.generators, spec.d), eye)
    assert np.max(np.abs(got - want)) < TIGHT


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
def test_dense_pauli_scatters_the_reference_matrix(d, n, data):
    op = data.draw(operators(d, n))
    for p in range(phase_modulus(d)):
        op = PauliOperator(d, op.a, op.b, p)
        assert np.max(np.abs(dense_pauli(op) - denseref.dense(op))) < FAITHFULNESS_TOLERANCE


@settings(max_examples=40, deadline=None)
@given(operator_lists())
def test_power_tables_stack_the_per_operator_tables(ops):
    d = ops[0].d
    idx, ph = _power_tables(ops, d)
    assert idx.shape == ph.shape == (len(ops), d, d ** ops[0].n_sites)
    for i, op in enumerate(ops):
        want_idx, want_ph = _action_tables(*ordered_products([op], np.arange(d)[:, None]), d)
        assert np.array_equal(idx[i], want_idx)
        assert np.array_equal(ph[i], want_ph)


def graph_code(d: int, n: int, k: int, rng: np.random.Generator) -> Stabilizer:
    """The first k generators X_i Z^{A_i} of a random graph state."""
    adj = np.triu(rng.integers(0, d, size=(n, n)), 1)
    adj = adj + adj.T
    return Stabilizer(
        PauliOperator(d, tuple(int(s == i) for s in range(n)), tuple(int(v) for v in adj[i]))
        for i in range(k)
    )


@st.composite
def code_sizes(draw, min_n=1):
    """(d, n, k) with d^n within the dense reference: n <= 5, and n <= 4 at d = 5."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_n, 4 if d == 5 else 5))
    return d, n, draw(st.integers(1, n))


# a single X Z^3 Z^2 Z^3 at d=5 (also seeds 47, 62 and 213): its code basis
# once failed an absolute 1e-12 check that P V = V, at 1.06e-12
D5_REPRODUCER = (5, 4, 1), 23


@settings(max_examples=40, deadline=None)
@given(code_sizes(), st.integers(0, 2 ** 32 - 1))
@example(*D5_REPRODUCER)
def test_code_basis_spans_the_stabilized_subspace(sizes, seed):
    d, n, k = sizes
    stab = graph_code(d, n, k, np.random.default_rng(seed))
    basis = _code_basis(stab)
    assert basis.shape == (d ** n, d ** (n - k)) and basis.flags.c_contiguous
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(d ** (n - k)))) < TIGHT
    assert np.max(np.abs(basis @ basis.conj().T - denseref.projector(stab))) < TIGHT
    assert _code_basis(stab) is basis  # built once per stabilizer
    # no random draw: a fresh stabilizer gives the same bits
    assert np.array_equal(_code_basis(graph_code(d, n, k, np.random.default_rng(seed))), basis)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
def test_stabilizer_projector_is_the_dense_projector(d, n, data):
    k = data.draw(st.integers(1, n))
    stab = graph_code(d, n, k, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    assert np.max(np.abs(stabilizer_projector(stab) - denseref.projector(stab))) < TIGHT


@pytest.mark.parametrize(
    "name,d,n", [("ghz", 2, 3), ("ghz", 3, 3), ("five_qudit", 2, 5), ("ghz", 2, 10)]
)
def test_code_basis_of_builtin_codes(name, d, n):
    stab = builtin_code(name, d, n)
    basis = _code_basis(stab)
    assert basis.shape == (d ** n, d ** (n - stab.k)) and basis.flags.c_contiguous
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))) < TIGHT
    # orthonormal, of the code dimension and fixed by every generator: it spans the code
    for g in stab.generators:
        assert np.max(np.abs(denseref.dense(g) @ basis - basis)) < TIGHT
    if d ** n <= 243:  # denseref.projector sums d^k dense matrices: 24 s at ghz d=2 n=10
        assert np.max(np.abs(basis @ basis.conj().T - denseref.projector(stab))) < TIGHT


CFG = OptimizerConfig(restarts=4, seed=11)
BLOCKS = [1, 15, 17]


@st.composite
def overlap_cases(draw):
    """A graph code with d^n within OVERLAP_DIM_CAP, one side of a cut and a budget."""
    (d, n, k), seed = draw(code_sizes(min_n=2)), draw(st.integers(0, 2 ** 32 - 1))
    side = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    cfg = OptimizerConfig(
        restarts=draw(st.sampled_from(BLOCKS)),
        max_iters=draw(st.sampled_from([1, 2, 500])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )
    return (d, n, k), seed, tuple(sorted(side)), cfg


def smaller_side(q: SiteSubset) -> SiteSubset:
    """The side a cut is keyed by: the smaller one, on a tie the one holding site 1."""
    return min(q, q.complement(), key=lambda side: (side.size, side.indices[0]))


@settings(max_examples=40, deadline=None)
@given(overlap_cases())
@example((*D5_REPRODUCER, (1,), CFG))
@example((*D5_REPRODUCER, (2, 3), CFG))
def test_batched_overlap_matches_the_per_restart_loop(case):
    (d, n, k), seed, side, cfg = case
    stab = graph_code(d, n, k, np.random.default_rng(seed))
    q = SiteSubset(side, n)
    got = max_product_overlap(stab, q, cfg)
    # the cut is keyed by its smaller side and the random starts fall on the other side
    assert max_product_overlaps(stab, [q.complement()], cfg) == [got]
    assert abs(got - denseref.overlap_per_restart(stab, smaller_side(q), cfg)) < TIGHT


def test_stacked_starts_are_successive_unit_draws():
    rng = OptimizerConfig(seed=5).rng()
    stacked = np.vstack([oracle._random_units(rng, 3, 9), oracle._random_units(rng, 4, 9)])
    again = OptimizerConfig(seed=5).rng()
    assert np.array_equal(stacked, [oracle._random_unit(again, 9) for _ in range(7)])
    # row by row, the real and then the imaginary parts of one Philox stream
    rows = OptimizerConfig(seed=5).rng()
    for row in stacked:
        v = rows.normal(size=9) + 1j * rows.normal(size=9)
        assert np.max(np.abs(row - v / np.linalg.norm(v))) < TIGHT


def unit_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))[0]


def gram_case(kind: str, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A rows x cols matrix w whose Gram matrix w w^dagger is of the given kind."""
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.complex128)
    if kind == "generic":
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    # flat: w w^dagger = c U U^dagger, a multiple of a rank-r projector.  A
    # 1e-8 change of w splits the top eigenvalue only if r > 1: for r = 1 the
    # rest of the spectrum moves by 1e-16 and the Gram matrix stays flat.
    size = min(rows, cols)
    r = int(rng.integers(min(2, size) if kind == "near" else 1, size + 1))
    c = rng.uniform(0.1, 10.0)
    w = np.sqrt(c) * unit_columns(rng, rows, r) @ unit_columns(rng, cols, r).conj().T
    if kind == "near":
        w = w + 1e-8 * (rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))
    return w


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.sampled_from(["flat", "generic", "near", "zero"]), min_size=1, max_size=8),
    st.integers(0, 2 ** 32 - 1),
)
def test_top_left_reads_flat_grams_and_diagonalises_the_rest(rows, cols, kinds, seed):
    rng = np.random.default_rng(seed)
    w = np.stack([gram_case(kind, rows, cols, rng) for kind in kinds])
    eigh = np.linalg.eigh
    sent = []

    def counted(a):
        sent.append(len(a))
        return eigh(a)

    with mock.patch.object(np.linalg, "eigh", counted):
        vals, vecs = oracle._top_left(w)
    # a Gram of size 1 is always flat; a perturbed or generic larger one never is
    eigh_kinds = ("generic", "near") if min(rows, cols) > 1 else ()
    assert sum(sent) == sum(kind == "zero" or kind in eigh_kinds for kind in kinds)
    for m, value, vec in zip(w, vals, vecs):
        gram = m @ m.conj().T
        assert abs(value - np.linalg.eigvalsh(gram)[-1]) < TIGHT
        assert abs(np.linalg.norm(vec) - 1) < TIGHT
        assert np.linalg.norm(gram @ vec - value * vec) < TIGHT


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_overlaps_of_many_cuts_equal_one_cut_at_a_time(d, data):
    n = data.draw(st.integers(2, 4 if d == 5 else 5))
    k = data.draw(st.integers(1, n))
    stab = graph_code(d, n, k, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    sides = st.sets(st.integers(1, n), min_size=1, max_size=n - 1)
    cuts = [SiteSubset(tuple(side), n) for side in data.draw(st.lists(sides, max_size=8))]
    cfg = OptimizerConfig(
        restarts=data.draw(st.sampled_from([1, 3, 17])),
        max_iters=data.draw(st.sampled_from([1, 2, 500])),
        seed=data.draw(st.integers(0, 2 ** 32 - 1)),
    )
    assert max_product_overlaps(stab, cuts, cfg) == [max_product_overlap(stab, q, cfg) for q in cuts]


@pytest.mark.parametrize("entries", [1, 2 ** 12, 2 ** 14])
def test_overlaps_agree_across_chunks(entries, monkeypatch):
    # one (cut, restart) pair per chunk; restarts in blocks; a few cuts per
    # chunk.  d=2 n=6 k=3: the budget holds every cut of a size in one chunk,
    # in restart 0 and again for the cuts below 1 in restarts 1..4
    stab = graph_code(2, 6, 3, np.random.default_rng(7))
    cuts = list(bipartitions(6))[::-1]
    cfg = OptimizerConfig(restarts=5, seed=3)
    calls = ascents(monkeypatch)
    max_product_overlaps(stab, cuts, cfg)
    unpatched, calls[:] = len(calls), []
    monkeypatch.setattr(oracle, "_OVERLAP_ENTRIES", entries)
    chunked = max_product_overlaps(stab, cuts, cfg)
    assert len(calls) > unpatched
    assert chunked == [max_product_overlap(stab, q, cfg) for q in cuts]
    for q, value in zip(cuts, chunked):
        assert abs(value - denseref.overlap_per_restart(stab, smaller_side(q), cfg)) < TIGHT


@pytest.mark.parametrize(
    "stab",
    [builtin_code("ghz", 2, 10), graph_code(3, 6, 4, np.random.default_rng(2))],
    ids=["ghz-d2-n10", "graph-d3-n6-k4"],
)
def test_overlap_check_stays_within_the_chunk_budget(stab):
    cuts = list(bipartitions(stab.n_sites))
    basis = _code_basis(stab)  # built once per stabilizer, before the check
    tracemalloc.start()
    try:
        max_product_overlaps(stab, cuts, OptimizerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= basis.nbytes + oracle._OVERLAP_ENTRIES * 16  # complex128 entries


@given(st.integers(1, 2 ** 20), st.integers(1, 2 ** 10), st.integers(1, 2 ** 10), st.integers(1, 64))
def test_overlap_chunks_of_several_restart_blocks_hold_one_cut(dim, big, width, restarts):
    # so a chunk whose cut reaches overlap 1 skips its later blocks, and no
    # cut is run again once at 1
    block, step, _ = oracle._overlap_chunk(dim, big, width, restarts)
    assert block == restarts or step == 1


def test_overlap_check_of_one_codeword_exceeds_the_budget_by_one_cut_and_restart():
    # k = 1, d^n = 729: one cut's two layouts of the 729 x 243 code basis and
    # one restart's 243 x 243 W and Gram matrices do not fit the budget, so
    # each chunk holds one of each and allocates what _overlap_chunk counts
    stab = graph_code(3, 6, 1, np.random.default_rng(2))
    basis = _code_basis(stab)
    dim, width = basis.shape
    chunks = [
        oracle._overlap_chunk(dim, dim // 3 ** size, width, OptimizerConfig().restarts)
        for size in (1, 2, 3)
    ]
    assert all(block == step == 1 for block, step, _ in chunks)
    tracemalloc.start()
    try:
        max_product_overlaps(stab, list(bipartitions(6)), OptimizerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= max(entries for _, _, entries in chunks) * 16


def test_overlap_check_frees_each_chunks_layouts():
    # d = 5, k = 1: two chunks' layouts of the 625 x 125 code basis (5.0 MB)
    # exceed the largest chunk _overlap_chunk counts (4.0 MB), so a chunk's
    # layouts must be freed before the next chunk builds its own
    stab = graph_code(5, 4, 1, np.random.default_rng(2))
    basis = _code_basis(stab)
    dim, width = basis.shape
    restarts = OptimizerConfig().restarts
    entries = max(oracle._overlap_chunk(dim, dim // 5 ** size, width, restarts)[2] for size in (1, 2))
    assert 2 * basis.size * 2 > entries
    cuts = list(bipartitions(4))
    tracemalloc.start()
    try:
        max_product_overlaps(stab, cuts, OptimizerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= entries * 16


def test_overlaps_of_no_cut_and_refused_cuts():
    stab = builtin_code("ghz", 2, 3)
    assert max_product_overlaps(stab, [], CFG) == []
    with pytest.raises(BadSubset):
        max_product_overlaps(stab, [SiteSubset((1,), 3), SiteSubset((1, 2, 3), 3)], CFG)
    with pytest.raises(BadSubset):
        max_product_overlaps(stab, [SiteSubset((1,), 4)], CFG)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_state_overlap_is_the_dense_schmidt_weight(d, data):
    # k = n: exact whatever the restarts, and no restart of the ascent beats it
    n = data.draw(st.integers(2, 4 if d == 5 else 5))
    stab = graph_code(d, n, n, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    q = SiteSubset(tuple(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))), n)
    cfg = OptimizerConfig(
        restarts=data.draw(st.integers(1, 4)),
        max_iters=data.draw(st.sampled_from([1, 2, 500])),
        seed=data.draw(st.integers(0, 2 ** 32 - 1)),
    )
    top = denseref.schmidt_weight(stab, q)
    assert abs(max_product_overlap(stab, q, cfg) - top) < TIGHT
    assert denseref.overlap_per_restart(stab, q, cfg) <= top + TIGHT


def assert_overlap_is_top_schmidt_weight(stab: Stabilizer) -> None:
    # k = n: the code space is one state, read off a column of the dense
    # projector |s><s|; its best product overlap is the top Schmidt weight
    d, n = stab.d, stab.n_sites
    assert stab.k == n
    proj = stabilizer_projector(stab)
    j = int(np.argmax(np.abs(np.diagonal(proj))))
    state = proj[:, j] / np.sqrt(proj[j, j].real)
    for q in bipartitions(n):
        q_axes = [i - 1 for i in q.indices]
        rest = [i for i in range(n) if i not in q_axes]
        schmidt = state.reshape((d,) * n).transpose(q_axes + rest).reshape(d ** q.size, -1)
        top = np.linalg.svd(schmidt, compute_uv=False)[0] ** 2
        assert abs(max_product_overlap(stab, q, CFG) - top) < TIGHT


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3) for n in range(2, 7)])
def test_ghz_overlap_is_top_schmidt_weight(d, n):
    assert_overlap_is_top_schmidt_weight(builtin_code("ghz", d, n))


@pytest.mark.parametrize("seed", range(6))
def test_graph_state_overlap_is_top_schmidt_weight(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 3, 5]))
    n = int(rng.integers(2, 5 if d == 5 else 6))
    assert_overlap_is_top_schmidt_weight(graph_code(d, n, n, rng))


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


@st.composite
def dependent_generators(draw):
    """Products of a few base operators with extra phases: repeats and dependencies, d^k <= 81."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, {2: 6, 3: 4, 5: 2}[d]))
    base = draw(st.lists(operators(d, n), min_size=1, max_size=k))
    exponents = st.lists(st.integers(0, d - 1), min_size=len(base), max_size=len(base))
    gens = []
    for _ in range(k):
        op = pauli.ordered_product(base, draw(exponents)).canonical_unit_phase()
        phase = op.phase_exp + pauli.omega_units(d, draw(st.integers(0, d - 1)))
        gens.append(PauliOperator(d, op.a, op.b, phase))
    return gens


@settings(max_examples=40, deadline=None)
@given(gens=dependent_generators())
@example(gens=[PauliOperator(3, (0,), (0,), 1), PauliOperator(3, (0,), (0,), 2)])  # r = 0
@example(gens=[PauliOperator(2, (0, 0), (0, 0), 2)] * 3)  # -1, three times: r = 0
@example(gens=[PauliOperator(5, (1,), (0,)), PauliOperator(5, (2,), (0,), 3)])
@example(gens=[PauliOperator(2, (1,), (0,)), PauliOperator(2, (0,), (1,))] * 3)
def test_sos_of_dependent_generators_is_the_full_element_sum(gens):
    # max_sos multiplies out the d^r products of the independent generators
    # and weighs them by d^(k-r); the reference sums all d^k elements
    spec = GroupSpec.from_generators(gens)
    assert max_sos(spec, CFG) == pytest.approx(denseref.max_sos(spec, CFG), rel=TIGHT, abs=0)


def witness_spec(name: str, d: int, n: int) -> GroupSpec:
    if name == "scalar":  # XZ and X^(d-1) Z^(d-1) commute; their product is a scalar
        gens = [PauliOperator(d, (1,), (1,)), PauliOperator(d, (d - 1,), (d - 1,))]
    else:
        gens = builtin_code(name, d, n).generators
    return GroupSpec.from_generators(gens)


def sos_at(spec: GroupSpec, psi: np.ndarray) -> float:
    idx, ph = _action_tables(*denseref.tableau(denseref.group_elements(spec)), spec.d)
    return float(np.sum(np.abs((ph * psi[idx]) @ psi.conj()) ** 2))


@pytest.mark.parametrize(
    "name,d,n",
    [
        ("ghz", 2, 3),
        ("ghz", 3, 3),
        ("five_qudit", 2, 5),
        ("five_qudit", 3, 5),
        ("ghz", 2, 10),
        ("scalar", 3, 1),
        ("scalar", 5, 1),
    ],
)
def test_commuting_witness_is_a_unit_joint_eigenvector(name, d, n):
    spec = witness_spec(name, d, n)
    vec = oracle._commuting_witness(spec)
    assert vec.shape == (spec.d ** spec.generators[0].n_sites,)
    assert abs(np.linalg.norm(vec) - 1) < TIGHT
    cf = canonical_form(spec.gamma)
    cols = [2 * i for i in range(cf.m)] + list(range(2 * cf.m, spec.k))
    for c in cols:
        op = denseref.product(spec.generators, cf.O.entries[:, c]).canonical_unit_phase()
        assert abs(abs(np.vdot(vec, denseref.dense(op) @ vec)) - 1) < TIGHT
    bound = sos_bound(spec)
    assert abs(sos_at(spec, vec) - bound) < oracle.BOUND_TOLERANCE
    assert abs(sos_at(spec, denseref.commuting_witness(spec)) - bound) < oracle.BOUND_TOLERANCE


def test_commuting_witness_allocates_no_square_array():
    spec = witness_spec("ghz", 2, 10)
    dim = 2 ** 10
    tracemalloc.start()
    try:
        oracle._commuting_witness(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 16 // 8  # one complex d^n x d^n array is 16 MiB here


def test_group_is_multiplied_out_once_per_spec(monkeypatch):
    original = pauli.ordered_products
    rows = []

    def counted(ops, exponents):
        out = original(ops, exponents)
        rows.append(len(out[2]))
        return out

    patched = [
        name
        for name, module in sorted(sys.modules.items())
        if name.startswith("frustgraph")
        and getattr(module, "ordered_products", None) is original
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "ordered_products", counted)
    assert {"frustgraph.group", "frustgraph.oracle"} <= set(patched)
    gens = builtin_code("five_qudit", 3, 5).generators
    products = tuple(pauli.ordered_product(gens, e) for e in [(1, 2, 0, 1), (0, 0, 2, 2)])
    # with two products of the generators, 3^2 elements share each Pauli part
    for spec in GroupSpec.from_generators(gens), GroupSpec.from_generators(gens + products):
        rows.clear()
        max_sos(spec, CFG)
        max_sum_eigenvalue(spec)
        # the span's 3^4 products once; the witness and the power tables fewer
        assert rows.count(81) == 1 and max(rows) == 81
    assert spec.n_elements == 729


def test_dense_routes_multiply_no_operators(monkeypatch):
    gens = builtin_code("five_qudit", 3, 5).generators

    def refuse(self, other):
        raise AssertionError("PauliOperator.multiply called")

    monkeypatch.setattr(PauliOperator, "multiply", refuse)
    monkeypatch.setattr(PauliOperator, "__mul__", refuse)
    stab = Stabilizer(gens)  # validated here, under the patch
    spec = GroupSpec.from_generators(gens)
    assert max_sos(spec, CFG) == pytest.approx(sos_bound(spec), abs=oracle.BOUND_TOLERANCE)
    assert max_sum_eigenvalue(spec) > 0
    assert 0 < max_product_overlap(stab, SiteSubset((1, 2), 5), CFG) <= 1 + AGREE


@st.composite
def coset_specs(draw):
    """(spec, r): a group-mode spec, d in {3, 5} and d^n <= 243, whose X parts span rank r.

    Commuting specs are graph-state generators X_s Z^(A_s) on r sites plus
    Z_s on some others.  The rest carry random Z parts, and X parts with a
    nonzero pivot on each of r sites plus random combinations of those
    rows.  Rank 0 splits H into 1 x 1 blocks, rank n leaves one block; at
    most 5 (d = 3) or 3 (d = 5) generators keep d^k <= 243.
    """
    d = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 5 if d == 3 else 3))
    most = 5 if d == 3 else 3
    r = draw(st.integers(0, n))
    sites = draw(st.permutations(range(n)))
    pivots, others = sites[:r], sites[r:]
    residues = st.integers(0, d - 1)
    unit = np.eye(n, dtype=int)
    if draw(st.booleans()):  # commuting
        adj = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                adj[i, j] = adj[j, i] = draw(residues)
        rows = [(unit[s], adj[s]) for s in pivots]
        if others:
            z_sites = draw(st.lists(st.sampled_from(others), unique=True, max_size=most - r))
            rows += [(0 * unit[s], unit[s]) for s in z_sites]
        rows = rows or [(0 * unit[0], unit[0])]  # at least one generator
    else:
        rows = []
        for s in pivots:
            a = np.zeros(n, dtype=int)
            a[s] = draw(st.integers(1, d - 1))
            a[list(others)] = draw(st.lists(residues, min_size=n - r, max_size=n - r))
            rows.append(a)
        for _ in range(draw(st.integers(0 if r else 1, min(2, most - r)))):
            mix = draw(st.lists(residues, min_size=r, max_size=r))
            rows.append(sum((c * row for c, row in zip(mix, rows[:r])), np.zeros(n, dtype=int)) % d)
        rows = [(a, np.array(draw(st.lists(residues, min_size=n, max_size=n)))) for a in rows]
    ops = [PauliOperator(d, tuple(int(v) for v in a), tuple(int(v) for v in b)) for a, b in rows]
    return GroupSpec.from_generators(ops), r


@settings(max_examples=40, deadline=None)
@given(coset_specs())
def test_energy_blocks_match_the_dense_maximum(case):
    spec, rank = case
    d, n = spec.d, spec.generators[0].n_sites
    assert spec.k <= (5 if d == 3 else 3)
    want = denseref.max_sum(spec)
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def recorded(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    # two disjoint X/Z pairs reach d^2 (1 + d), above sum_bound: the value
    # is returned as found, and the verify check reports the excess
    with mock.patch.object(np.linalg, "eigvalsh", recorded):
        got = max_sum_eigenvalue(spec)
    assert shapes == [(d ** (n - rank), d ** rank, d ** rank)]
    assert abs(got - want) < AGREE
    assert max_sum_eigenvalue(spec) == got


def test_energy_blocks_stay_within_the_power_tables():
    # d^k d^n = 19683 * 243 element-table entries; the factor route holds
    # only the k d d^n power-table entries (32 bytes each while built) and
    # a few complex (d^n, 27) stacks: the identity, the running sum, its d
    # gathered copies and the next sum, with room for one more
    rng = np.random.default_rng(5)
    d, n, rank = 3, 5, 3
    a = np.zeros((9, n), dtype=int)
    a[:, :rank] = rng.integers(0, d, size=(9, rank))
    b = rng.integers(0, d, size=(9, n))
    spec = GroupSpec.from_generators(
        [PauliOperator(d, tuple(int(v) for v in x), tuple(int(v) for v in z)) for x, z in zip(a, b)]
    )
    tables = spec.k * d * d ** n
    stack = d ** n * d ** rank * 16  # 9 complex blocks of 27 x 27
    tracemalloc.start()
    try:
        max_sum_eigenvalue(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * tables + 7 * stack


def test_energy_of_a_repeated_generator_is_the_sum_bound():
    # 14 copies of X Z: 3^14 ordered products, one commuting class, so
    # H = 2 * 3^13 * sum_s (X Z)^s and the top eigenvalue is 2 * 3^14
    spec = GroupSpec.from_generators([PauliOperator(3, (1, 0), (0, 1))] * 14)
    start = time.perf_counter()
    top = max_sum_eigenvalue(spec)
    assert time.perf_counter() - start < 0.5
    assert top == sum_bound(spec) == 2 * 3 ** 14


def draws(monkeypatch) -> list[int]:
    """Dimensions of the random starts drawn from now on, one per row."""
    seen = []
    units = oracle._random_units

    def counted(rng, count, dim):
        seen.extend([dim] * count)
        return units(rng, count, dim)

    monkeypatch.setattr(oracle, "_random_units", counted)
    return seen


def ascents(monkeypatch) -> list[tuple[int, int]]:
    """(cuts, restarts) of every ``_overlap_ascent`` call from now on."""
    calls = []
    ascent = oracle._overlap_ascent

    def counted(by_q, by_rest, starts, cfg):
        calls.append((len(by_q), len(starts)))
        return ascent(by_q, by_rest, starts, cfg)

    monkeypatch.setattr(oracle, "_overlap_ascent", counted)
    return calls


@pytest.mark.parametrize(
    "stab",
    [builtin_code("ghz", 2, 5), builtin_code("five_qudit", 3, 5),
     graph_code(3, 5, 2, np.random.default_rng(1))],
    ids=["ghz-d2-n5", "five_qudit-d3", "graph-d3-n5-k2"],
)
def test_sos_of_a_stabilizer_group_stops_after_one_restart(stab, monkeypatch):
    # a commuting group reaches the cap d^k, so the first restart ends the run
    spec = GroupSpec.from_generators(stab.generators)
    seen = draws(monkeypatch)
    value = max_sos(spec, OptimizerConfig())
    assert seen == [spec.d ** stab.n_sites]
    assert abs(value - spec.n_elements) < oracle.BOUND_TOLERANCE


@pytest.mark.parametrize("d", [2, 3])
def test_sos_of_a_non_commuting_group_runs_every_restart(d, monkeypatch):
    # an X, Z pair on site 1 beside X Z on site 2: no state reaches d^k
    spec = GroupSpec.from_generators([
        PauliOperator(d, (1, 0), (0, 0)), PauliOperator(d, (0, 0), (1, 0)),
        PauliOperator(d, (0, 1), (0, 1)).canonical_unit_phase(),
    ])
    cfg = OptimizerConfig(restarts=6, seed=2)
    seen = draws(monkeypatch)
    value = max_sos(spec, cfg)
    assert len(seen) == cfg.restarts
    assert value < spec.n_elements - 1
    assert abs(value - denseref.max_sos(spec, cfg)) < AGREE


@pytest.mark.parametrize("entries", [None, 1], ids=["budget", "one-restart-blocks"])
@pytest.mark.parametrize(
    "stab", [builtin_code("ghz", 3, 5), builtin_code("five_qudit", 3, 5)], ids=["ghz", "five_qudit"]
)
def test_overlaps_below_one_run_every_restart_block(stab, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(oracle, "_OVERLAP_ENTRIES", entries)
    cfg = OptimizerConfig(restarts=5, seed=4)
    seen, calls = draws(monkeypatch), ascents(monkeypatch)
    cuts = list(bipartitions(5))
    values = max_product_overlaps(stab, cuts, cfg)
    assert max(values) < 1 - cfg.tol
    if stab.k == stab.n_sites:
        # a state: its Schmidt weights, with no draw and no ascent
        assert seen == [] and calls == []
        for q, value in zip(cuts, values):
            assert abs(value - denseref.schmidt_weight(stab, q)) < TIGHT
        return
    # sides of sizes 1 and 2 key every cut; the starts fall on the larger
    # side, and every cut runs every restart
    assert sorted(seen) == [27] * cfg.restarts + [81] * cfg.restarts
    assert sum(c * r for c, r in calls) == len(cuts) * cfg.restarts
    for q, value in zip(cuts, values):
        assert abs(value - denseref.overlap_per_restart(stab, smaller_side(q), cfg)) < TIGHT


def test_overlaps_at_one_skip_later_restart_blocks(monkeypatch):
    # the code |0000> (x) C^3: every cut reaches overlap 1 at restart 0
    stab = Stabilizer(PauliOperator.single(3, 5, s, z_exp=1) for s in range(1, 5))
    halves = []
    top_left = oracle._top_left

    def counted(w):
        halves.append(len(w))
        return top_left(w)

    monkeypatch.setattr(oracle, "_top_left", counted)
    cfg = OptimizerConfig(restarts=5, seed=4)
    seen, calls = draws(monkeypatch), ascents(monkeypatch)
    cuts = list(bipartitions(5))
    values = max_product_overlaps(stab, cuts, cfg)
    assert all(abs(value - 1) < cfg.tol for value in values)
    # restart 0 only: one draw per cut size, each call stacking every cut of
    # that size, and one ascent step per cut as the first value is at the cap
    assert sorted(seen) == [27, 81]
    assert sorted(calls) == [(5, 1), (10, 1)]
    assert sum(halves) == 2 * len(cuts)
    for q, value in zip(cuts, values):
        assert abs(value - denseref.overlap_per_restart(stab, smaller_side(q), cfg)) < TIGHT


def test_overlap_grams_span_the_smaller_side(monkeypatch):
    # graph d=3 n=5 k=2: starts on the larger side leave Gram matrices of
    # at most 9 x 9; starts on the smaller side would diagonalise 27 x 27 ones
    stab = graph_code(3, 5, 2, np.random.default_rng(1))
    eigh = np.linalg.eigh
    widths = []

    def recorded(a):
        widths.append(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    cuts = list(bipartitions(5))
    values = max_product_overlaps(stab, cuts, OptimizerConfig())
    assert widths and max(widths) <= 9
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    cfg = OptimizerConfig()
    for q, value in zip(cuts, values):
        assert abs(value - denseref.overlap_per_restart(stab, smaller_side(q), cfg)) < TIGHT
