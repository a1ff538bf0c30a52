"""Array kernels of elimination and the symplectic pass against their scalar loops.

``gf._row_echelon`` clears a pivot column from all rows in one update and
``canonical_form`` keeps the remaining basis as one array; both must give
exactly what the row-by-row and vector-by-vector loops of
``tests/denseref.py`` give, at int64 and at Python-int (object) dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustgraph import GFMatrix, Singular, canonical_form, invert, nullspace_basis, rank
from frustgraph.gf import _row_echelon

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
