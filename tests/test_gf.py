"""Exact Z_d linear algebra: reduction, rank, nullspace, matrix inverse."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustgraph import (
    DimensionMismatch,
    GFMatrix,
    NonPrimeModulus,
    PauliOperator,
    Singular,
    TooLarge,
    invert,
    is_prime,
    nullspace_basis,
    rank,
)
from frustgraph.gf import MILLER_RABIN_BOUND, check_modulus
from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


@settings(max_examples=2000, deadline=None)
@given(st.integers(min_value=-5, max_value=2 * 10 ** 5 - 1))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division(n)


def test_is_prime_exhaustive_below_ten_thousand():
    assert [n for n in range(10 ** 4) if is_prime(n)] == [
        n for n in range(10 ** 4) if trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
        561,  # Carmichael numbers
        41041,
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)
    with pytest.raises(NonPrimeModulus):
        check_modulus(n)


@pytest.mark.parametrize(
    "p", [2 ** 31 - 1, 4294967311, 2 ** 61 - 1, 10 ** 18 + 3]
)
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p)
    assert check_modulus(p) == p


def test_is_prime_refuses_beyond_its_proven_range():
    assert isinstance(is_prime(MILLER_RABIN_BOUND - 2), bool)
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 2 ** 89 - 1):
        with pytest.raises(TooLarge):
            is_prime(n)
        with pytest.raises(TooLarge):
            check_modulus(n)

def test_scalar_reduction_and_primality():
    assert GFMatrix([[-1, 12]], 5).to_lists() == [[4, 2]]
    assert PauliOperator(5, (-1,), (12,), -1) == PauliOperator(5, (4,), (2,), 4)
    with pytest.raises(NonPrimeModulus):
        PauliOperator(4, (1,), (0,))
    with pytest.raises(NonPrimeModulus):
        GFMatrix([[0]], 1)


@pytest.mark.parametrize("d", [7, 2 ** 61 - 1])  # int64 entries, then Python ints
def test_to_lists_gives_python_ints(d):
    m = GFMatrix([[-1, 12, d + 3], [0, d - 1, 2 ** 40]], d)
    out = m.to_lists()
    assert out == [[int(v) for v in row] for row in m.entries]
    assert all(type(v) is int for row in out for v in row)
    assert GFMatrix.zeros(3, 0, d).to_lists() == [[], [], []]
    assert GFMatrix.zeros(0, 3, d).to_lists() == []


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
