"""Symplectic reduction: pair-block normal form and two-block shape."""

from __future__ import annotations

import numpy as np
import pytest

from frustgraph import (
    GFMatrix,
    NotAntisymmetric,
    block_reduce,
    canonical_form,
    rank,
)
from frustgraph import symplectic
from frustgraph.symplectic import pair_block_matrix


def random_antisymmetric(rng, d, k):
    upper = np.triu(rng.integers(0, d, size=(k, k)), 1)
    return GFMatrix(upper - upper.T, d)


def assert_normal_form(gamma, form):
    k = gamma.rows
    assert rank(form.O) == k
    assert form.O.T @ gamma @ form.O == pair_block_matrix(k, form.m, gamma.d)
    assert 2 * form.m == rank(gamma)
    assert form.residual_dim == k - 2 * form.m


def test_canonical_form_single_pair():
    gamma = GFMatrix([[0, 1], [-1, 0]], 3)
    form = canonical_form(gamma)
    assert form.m == 1
    assert form.residual_dim == 0
    assert_normal_form(gamma, form)


def test_canonical_form_zero_matrix():
    gamma = GFMatrix.zeros(3, 3, 5)
    form = canonical_form(gamma)
    assert form.m == 0
    assert form.O == GFMatrix.identity(3, 5)


def test_canonical_form_five_qudit_cuts():
    from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12

    form = canonical_form(GFMatrix(FIVE_QUDIT_CUT_1, 2))
    assert form.m == 1 and form.residual_dim == 2
    form = canonical_form(GFMatrix(FIVE_QUDIT_CUT_12, 2))
    assert form.m == 2 and form.residual_dim == 0


def test_canonical_form_idempotent():
    already = pair_block_matrix(6, 2, 5)
    form = canonical_form(already)
    assert form.m == 2
    assert_normal_form(already, form)


def _recorded_rank_shapes(monkeypatch):
    shapes = []

    def recording(matrix):
        shapes.append(matrix.shape)
        return rank(matrix)

    monkeypatch.setattr(symplectic, "rank", recording)
    return shapes


def test_canonical_form_certifies_only_the_residual_block(monkeypatch):
    shapes = _recorded_rank_shapes(monkeypatch)
    rng = np.random.default_rng(61)
    for d, k in ((2, 12), (3, 8), (7, 6)):
        while True:  # full rank: every column is in a pair, no k x k rank
            gamma = random_antisymmetric(rng, d, k)
            if rank(gamma) == k:
                break
        shapes.clear()
        form = canonical_form(gamma)
        assert (form.m, form.residual_dim) == (k // 2, 0)
        assert shapes == [(k, 0)]
    gamma = GFMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 5)
    shapes.clear()
    assert canonical_form(gamma).residual_dim == 2
    assert shapes == [(4, 2)]


def test_canonical_form_rejects_a_dependent_residual_column(monkeypatch):
    # the residual columns lie in the kernel of gamma, so a repeated one still
    # passes O^T g O == P; only the residual rank check catches it
    gamma = GFMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 5)
    real = symplectic.GFMatrix
    patched = []

    def dependent_last_column(entries, d):
        entries = np.array(entries)
        if not patched and entries.shape == (4, 4):
            entries[:, 3] = 2 * entries[:, 2]
            patched.append(entries)
        return real(entries, d)

    monkeypatch.setattr(symplectic, "GFMatrix", dependent_last_column)
    with pytest.raises(RuntimeError, match="normal form"):
        canonical_form(gamma)
    O = real(patched[0], 5)
    assert O.T @ gamma @ O == pair_block_matrix(4, 1, 5)


def test_canonical_rejects_bad_input():
    with pytest.raises(NotAntisymmetric):
        canonical_form(GFMatrix([[1]], 3))
    with pytest.raises(NotAntisymmetric):
        canonical_form(GFMatrix([[0, 1], [1, 0]], 3))
    with pytest.raises(NotAntisymmetric):
        canonical_form(GFMatrix.zeros(2, 3, 3))


def test_block_reduce_already_reduced():
    gamma = GFMatrix([[0, -1], [1, 0]], 3)
    O, n, D, E = block_reduce(gamma)
    assert n == 1
    assert D.shape == (1, 1)
    assert D.entries[0, 0] == (-1) % 3
    assert E.shape == (1, 1) and not np.any(E.entries)


def test_block_reduce_zero_matrix():
    gamma = GFMatrix.zeros(4, 4, 2)
    O, n, D, E = block_reduce(gamma)
    assert n == 4
    assert D.shape == (4, 0)


def test_block_reduce_five_qudit_cut():
    from ref_data import FIVE_QUDIT_CUT_1

    gamma = GFMatrix(FIVE_QUDIT_CUT_1, 2)
    O, n, D, E = block_reduce(gamma)
    assert n == 3
    assert D.shape == (3, 1)
    assert rank(D) == 1
    # zero block and coupling shape replay
    reduced = (O.T @ gamma @ O).entries
    assert not np.any(reduced[:n, :n])


def test_block_reduce_shape_replay_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(1, 9))
        gamma = random_antisymmetric(rng, d, k)
        O, n, D, E = block_reduce(gamma)
        m = k - n
        assert rank(O) == k
        assert rank(D) == m
        nullity = k - rank(gamma)
        assert n - m == nullity
        reduced = (O.T @ gamma @ O).entries
        assert not np.any(reduced[:n, :n])
        assert np.array_equal(reduced[n:, :n], (-D.entries.T) % d)
        assert np.array_equal(reduced[n:, n:], E.entries)


def test_canonical_form_random_replay():
    rng = np.random.default_rng(47)
    for _ in range(200):
        d = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(1, 9))
        gamma = random_antisymmetric(rng, d, k)
        assert_normal_form(gamma, canonical_form(gamma))
