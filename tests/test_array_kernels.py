"""Array kernels of elimination and the symplectic pass against their scalar loops.

``gf._row_echelon`` clears a pivot column from all rows in one update and
``canonical_form`` keeps the remaining basis as one array; both must give
exactly what the row-by-row and vector-by-vector loops of
``tests/denseref.py`` give, at int64 and at Python-int (object) dtype.
``gf.matmul_mod`` and the kernels built on it must stay exact on both
sides of its float64 bound, terms (d-1)^2 = 2^53.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustgraph import GFMatrix, Singular, canonical_form, invert, nullspace_basis, rank
from frustgraph.gf import FLOAT_EXACT, FLOAT_MIN_WORK, _row_echelon, matmul_mod
from frustgraph.pauli import commutator_matrix

from denseref import row_echelon, symplectic_pass

# 2^31 - 1 is the largest modulus with int64 storage; above it, at
# 4294967311, every array is object dtype
PRIMES = [2, 3, 5, 7, 2 ** 31 - 1, 4294967311]


@st.composite
def matrices(draw, antisymmetric=False):
    """A (rows, cols) matrix over Z_d of random rank, entries in Python ints."""
    d = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 40))
    cols = rows if antisymmetric else draw(st.integers(0, 40))
    inner = draw(st.integers(0, max(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.integers(0, d, size=(rows, inner)).astype(object)
    if antisymmetric:
        upper = np.triu(rng.integers(0, d, size=(inner, inner)), 1).astype(object)
        return GFMatrix(X @ (upper - upper.T) @ X.T % d, d)
    Y = rng.integers(0, d, size=(inner, cols)).astype(object)
    return GFMatrix(X @ Y % d, d)


def times(a: GFMatrix, b: np.ndarray) -> np.ndarray:
    return a.entries.astype(object) @ np.asarray(b).astype(object) % a.d


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_row_echelon_matches_the_row_loop(matrix):
    R, pivots = _row_echelon(matrix)
    R_ref, pivots_ref = row_echelon(matrix)
    assert pivots == pivots_ref
    assert R.dtype == R_ref.dtype and np.array_equal(R, R_ref)
    assert rank(matrix) == len(pivots)
    basis = nullspace_basis(matrix)
    assert len(basis) == matrix.cols - len(pivots)
    for v in basis:
        assert not np.any(times(matrix, v))
    if basis:
        assert rank(GFMatrix(np.array(basis), matrix.d)) == len(basis)


@settings(max_examples=40, deadline=None)
@given(matrices().filter(lambda m: m.rows == m.cols) | matrices(antisymmetric=True))
def test_invert_matches_the_row_loop(matrix):
    k, d = matrix.rows, matrix.d
    aug = GFMatrix(np.hstack([matrix.entries, np.eye(k, dtype=matrix.entries.dtype)]), d)
    R_ref, pivots_ref = row_echelon(aug, pivot_cols=k)
    R, pivots = _row_echelon(aug, pivot_cols=k)
    assert pivots == pivots_ref and np.array_equal(R, R_ref)
    if len(pivots_ref) < k:
        with pytest.raises(Singular):
            invert(matrix)
        return
    inverse = invert(matrix)
    assert np.array_equal(inverse.entries, R_ref[:, k:])
    assert np.array_equal(times(matrix, inverse.entries), np.eye(k, dtype=int))


@settings(max_examples=60, deadline=None)
@given(matrices(antisymmetric=True))
def test_canonical_form_matches_the_vector_loop(gamma):
    form = canonical_form(gamma)
    O_ref, m_ref = symplectic_pass(gamma)
    assert form.m == m_ref
    assert form.O == GFMatrix(O_ref, gamma.d)
    assert 2 * form.m == rank(gamma)


@pytest.mark.parametrize("d", PRIMES)
def test_kernels_at_the_size_ends(d):
    rng = np.random.default_rng(d % 1000)
    for k in (0, 1, 40):
        upper = np.triu(rng.integers(0, d, size=(k, k)), 1).astype(object)
        gamma = GFMatrix((upper - upper.T) % d, d)
        form = canonical_form(gamma)
        O_ref, m_ref = symplectic_pass(gamma)
        assert form.m == m_ref and form.O == GFMatrix(O_ref, d)
        rect = GFMatrix(rng.integers(0, d, size=(k, 40 - k)), d)
        for matrix in (gamma, rect, form.O):
            R, pivots = _row_echelon(matrix)
            R_ref, pivots_ref = row_echelon(matrix)
            assert pivots == pivots_ref and np.array_equal(R, R_ref)
        assert np.array_equal(times(form.O, invert(form.O).entries), np.eye(k, dtype=int))


# (below, above, terms): sums of `terms` products of residues mod `below`
# stay below 2^53, so products with FLOAT_MIN_WORK multiply-adds run in
# float64; mod `above` they reach it and every product runs in int64
FLOAT_EDGE = [(67108859, 67108879, 2), (23726561, 23726569, 16), (8388593, 8388617, 128)]
EDGE_CASES = [(d, terms) for below, above, terms in FLOAT_EDGE for d in (below, above)]


def test_edge_primes_straddle_the_float_bound():
    for below, above, terms in FLOAT_EDGE:
        assert terms * (below - 1) ** 2 < FLOAT_EXACT <= terms * (above - 1) ** 2


def edge_entries(rng, d: int, shape, extreme: bool) -> np.ndarray:
    """Entries in (-d, d).

    ``extreme`` draws d-1 or d-2 with one sign for the whole array: the sums
    then come within terms (2d-3) of terms (d-1)^2, and are odd about half
    the time, so a float64 sum past 2^53 would round.
    """
    if extreme:
        return int(rng.choice([-1, 1])) * rng.choice([d - 2, d - 1], size=shape)
    return rng.integers(-(d - 1), d, size=shape)


def edge_side(terms: int) -> int:
    """A side n with n^2 terms = 4 FLOAT_MIN_WORK: n x terms x n products reach float64."""
    return math.isqrt(4 * FLOAT_MIN_WORK // terms)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(EDGE_CASES), data=st.data(), extreme=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_mod_exact_at_the_float_edge(case, data, extreme, seed):
    d, terms = case
    rows, cols = (data.draw(st.integers(0, edge_side(terms))) for _ in range(2))
    rng = np.random.default_rng(seed)
    a = edge_entries(rng, d, (rows, terms), extreme)
    b = edge_entries(rng, d, (terms, cols), extreme)
    got = matmul_mod(a, b, d)
    assert got.dtype == np.int64
    assert np.array_equal(got, a.astype(object) @ b.astype(object) % d)
    if rows:  # a 1-d left factor, as canonical_form's form rows are
        assert np.array_equal(matmul_mod(a[0], b, d), a[0].astype(object) @ b.astype(object) % d)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(EDGE_CASES), data=st.data(), extreme=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_commutator_matrix_exact_at_the_float_edge(case, data, extreme, seed):
    d, terms = case  # B A^T - A B^T is one product of 2n terms
    k = data.draw(st.integers(1, edge_side(terms)))
    rng = np.random.default_rng(seed)
    A, B = (edge_entries(rng, d, (k, terms // 2), extreme) % d for _ in range(2))
    A_, B_ = A.astype(object), B.astype(object)
    assert np.array_equal(commutator_matrix(A, B, d), (B_ @ A_.T - A_ @ B_.T) % d)


@st.composite
def edge_gammas(draw):
    """An antisymmetric k x k gamma mod d with k = terms, of random rank."""
    d, k = draw(st.sampled_from(EDGE_CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inner = draw(st.sampled_from([k, k // 2, 1]))
    X = rng.integers(0, d, size=(k, inner)).astype(object)
    upper = np.triu(rng.integers(0, d, size=(inner, inner)), 1).astype(object)
    return GFMatrix(X @ (upper - upper.T) @ X.T % d, d)


@settings(max_examples=12, deadline=None)
@given(edge_gammas())
def test_canonical_form_matches_the_vector_loop_at_the_float_edge(gamma):
    # form values and pair coefficients are sums of k products; at k = 128
    # they, and the certificate O^T g O, are large enough for float64
    form = canonical_form(gamma)
    O_ref, m_ref = symplectic_pass(gamma)
    assert form.m == m_ref
    assert form.O == GFMatrix(O_ref, gamma.d)
