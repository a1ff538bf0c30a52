"""Exact Z_d linear algebra: reduction, rank, nullspace, matrix inverse."""

from __future__ import annotations

import numpy as np
import pytest

from frustgraph import (
    DimensionMismatch,
    GFMatrix,
    NonPrimeModulus,
    PauliOperator,
    Singular,
    invert,
    nullspace_basis,
    rank,
)
from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12

def test_scalar_reduction_and_primality():
    assert GFMatrix([[-1, 12]], 5).to_lists() == [[4, 2]]
    assert PauliOperator(5, (-1,), (12,), -1) == PauliOperator(5, (4,), (2,), 4)
    with pytest.raises(NonPrimeModulus):
        PauliOperator(4, (1,), (0,))
    with pytest.raises(NonPrimeModulus):
        GFMatrix([[0]], 1)


def test_rank_of_five_qudit_cut_matrices():
    assert rank(GFMatrix(FIVE_QUDIT_CUT_1, 2)) == 2
    assert rank(GFMatrix(FIVE_QUDIT_CUT_12, 2)) == 4


def test_rank_zero_matrix():
    assert rank(GFMatrix.zeros(4, 4, 2)) == 0


def test_nullspace_examples():
    assert nullspace_basis(GFMatrix([[0, -1], [1, 0]], 3)) == []
    basis = nullspace_basis(GFMatrix.zeros(2, 2, 2))
    assert len(basis) == 2
    cut1 = GFMatrix(FIVE_QUDIT_CUT_1, 2)
    assert len(nullspace_basis(cut1)) == 2


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5, 7):
        for _ in range(25):
            rows, cols = rng.integers(1, 7, size=2)
            m = GFMatrix(rng.integers(0, d, size=(rows, cols)), d)
            basis = nullspace_basis(m)
            assert rank(m) + len(basis) == cols
            for v in basis:
                assert not np.any((m.entries @ v) % d)


def test_invert_examples():
    eye = GFMatrix.identity(3, 5)
    assert invert(eye) == eye
    swap = GFMatrix([[0, 1], [1, 0]], 3)
    assert invert(swap) == swap
    with pytest.raises(Singular):
        invert(GFMatrix.zeros(2, 2, 3))
    with pytest.raises(DimensionMismatch):
        invert(GFMatrix.zeros(2, 3, 3))


def test_invert_random_round_trip():
    rng = np.random.default_rng(11)
    eye_hits = 0
    for d in (2, 3, 5, 7):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = GFMatrix(rng.integers(0, d, size=(n, n)), d)
            if rank(m) == n:
                assert invert(m) @ m == GFMatrix.identity(n, d)
                eye_hits += 1
            else:
                with pytest.raises(Singular):
                    invert(m)
    assert eye_hits > 20  # the sample actually exercised the success path


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        GFMatrix(np.zeros((2, 2, 2)), 3)
    m = GFMatrix([[5, -1], [3, 9]], 3)
    assert m.to_lists() == [[2, 2], [0, 0]]
