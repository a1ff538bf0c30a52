"""Constructive canonical forms of antisymmetric matrices over Z_d.

``canonical_form`` runs a symplectic Gram-Schmidt pass: take the lowest
index basis vector with a nonzero form row, pair it with its lowest-index
partner, rescale the partner so the pair's form value is -1, then clear
both directions out of every remaining vector.  Left-over vectors span
the kernel and land in a trailing zero block.  ``block_reduce`` reorders
the same basis into the coarser two-block shape with a maximal zero block
and a full-column-rank coupling block.

Both functions return the explicit invertible change of basis O and check
O^T g O against the claimed shape before returning; ties are always broken
by lowest index, so O is deterministic.  The pass holds its work rows in
the narrow ``gf.block_dtype`` and forms every sum of products through
``gf.matmul_mod`` (float64 BLAS while exact); ``GroupSpec.normal_form``
keeps one such form per group, and its 2m is the group's certified rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAntisymmetric
from .gf import GFMatrix, block_dtype, matmul_mod, rank, reduce_mod


def check_antisymmetric(gamma: GFMatrix) -> None:
    """Raise unless gamma^T = -gamma mod d with a zero diagonal."""
    if gamma.rows != gamma.cols:
        raise NotAntisymmetric(f"matrix is {gamma.shape}, not square")
    e = gamma.entries
    if e.size and np.any(np.diagonal(e)):
        raise NotAntisymmetric("diagonal entries must all be zero")
    if e.size and np.any((e + e.T) % gamma.d):
        raise NotAntisymmetric("matrix is not antisymmetric mod d")


@dataclass(frozen=True)
class CanonicalForm:
    """Basis change O with O^T g O = pair blocks [[0,-1],[1,0]] then zeros."""

    O: GFMatrix
    m: int
    residual_dim: int


def pair_block_matrix(k: int, m: int, d: int) -> GFMatrix:
    """m copies of [[0,-1],[1,0]] followed by a (k-2m) zero block."""
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(m):
        out[2 * i, 2 * i + 1] = -1
        out[2 * i + 1, 2 * i] = 1
    return GFMatrix(out, d)


def canonical_form(gamma: GFMatrix) -> CanonicalForm:
    """Symplectic normal form of an antisymmetric matrix over Z_d.

    The remaining vectors and their form rows are the rows of one work
    array W = [V | V g], held in ``block_dtype(d, 1)``: int16 up to
    d = 103, where a residue plus two products of residues, which the
    rank-2 row update holds before it reduces, stays below 3 (d-1)^2
    < 2^15; int64, then Python ints, above.  Form values and pair
    coefficients are products through ``matmul_mod``.

    O is certified by O^T g O == P, the pair blocks then zeros, and by the
    full column rank of its residual block O[:, 2m:] alone.  Over a prime
    field the two imply that O is invertible: if O c = 0, then
    P c = O^T g O c = 0, and P c lists (-c[2i+1], c[2i]) for pair i, so
    the pair part of c is 0 and O[:, 2m:] c_res = O c = 0 forces c_res = 0.
    """
    check_antisymmetric(gamma)
    d = gamma.d
    k = gamma.rows
    dtype = block_dtype(d, 1)
    # rows 0..r-1 of W = [V | V g mod d] are the remaining basis vectors
    # and their form rows; O's columns fill with the pairs, then the rest
    W = np.hstack([np.eye(k, dtype=dtype), gamma.entries.astype(dtype)])
    V, VG = W[:, :k], W[:, k:]
    O = np.zeros((k, k), dtype=dtype)
    r, m, i = k, 0, 0
    while True:
        # a vector whose form row vanishes on the rest keeps it vanishing,
        # since later vectors are combinations of the rest: the search for
        # the next pair resumes at the last pair's first member
        for i in range(i, r):
            form = matmul_mod(VG[i], V[:r].T, d)  # u^T g v for every v
            nonzero = np.flatnonzero(form)
            if nonzero.size:
                break
        else:
            break
        j = int(nonzero[0])  # j > i: row j would have hit first otherwise
        # rescale the partner so the pair's form value is exactly -1
        scale = -pow(int(form[j]), -1, d) % d
        x, y = W[i].copy(), W[j] * scale % d  # [u | u g] and [w | w g]
        O[:, 2 * m], O[:, 2 * m + 1] = x[:k], y[:k]
        m, r = m + 1, r - 2
        W[i:j - 1] = W[i + 1:j]  # drop rows i and j, keeping the order
        W[j - 1:r] = W[j + 1:r + 2]
        # v += (vg.w) u - (vg.u) w clears both directions, and vg follows
        coef = matmul_mod(VG[:r], np.stack([y[:k], x[:k]], axis=1), d).astype(dtype)
        W[:r] += coef[:, :1] * x
        W[:r] -= coef[:, 1:] * y
        W[:r] = reduce_mod(W[:r], d)
    O[:, 2 * m:] = V[:r].T
    O = GFMatrix(O, d)

    expected = pair_block_matrix(k, m, d)
    if (O.T @ gamma @ O) != expected or rank(GFMatrix(O.entries[:, 2 * m:], d)) != r:
        raise RuntimeError("symplectic reduction failed to reach normal form")
    return CanonicalForm(O=O, m=m, residual_dim=k - 2 * m)


def block_reduce(gamma: GFMatrix) -> tuple[GFMatrix, int, GFMatrix, GFMatrix]:
    """Two-block reduction [[0, D], [-D^T, E]] with D of full column rank.

    Returns (O, n, D, E) where the zero block is n x n and n - m equals
    the nullity of gamma (m = number of D columns = rank/2).  Derived from
    the full normal form by listing first members of every pair, then the
    kernel directions, then the second members.
    """
    cf = canonical_form(gamma)
    d = gamma.d
    k = gamma.rows
    m = cf.m
    order = (
        [2 * i for i in range(m)]
        + list(range(2 * m, k))
        + [2 * i + 1 for i in range(m)]
    )
    O = GFMatrix(cf.O.entries[:, order], d) if k else cf.O
    reduced = (O.T @ gamma @ O).entries
    n = k - m
    D = GFMatrix(reduced[:n, n:], d)
    E = GFMatrix(reduced[n:, n:], d)
    if np.any(reduced[:n, :n]) or rank(D) != m:
        raise RuntimeError("block reduction failed to reach the stated shape")
    return O, n, D, E
