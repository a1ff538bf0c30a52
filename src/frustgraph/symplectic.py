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
by lowest index, so O is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAntisymmetric
from .gf import GFMatrix, exact_dtype, rank


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

    O is certified by O^T g O == P, the pair blocks then zeros, and by the
    full column rank of its residual block O[:, 2m:] alone.  Over a prime
    field the two imply that O is invertible: if O c = 0, then
    P c = O^T g O c = 0, and P c lists (-c[2i+1], c[2i]) for pair i, so
    the pair part of c is 0 and O[:, 2m:] c_res = O c = 0 forces c_res = 0.
    """
    check_antisymmetric(gamma)
    d = gamma.d
    k = gamma.rows
    # form value u^T g v = ((u^T g) mod d) v: k products of residues twice
    dtype = exact_dtype(d, k)
    g = gamma.entries.astype(dtype)
    # rows 0..r-1 of W = [V | V g mod d] are the remaining basis vectors
    # and their form rows; O's columns fill with the pairs, then the rest
    W = np.hstack([np.eye(k, dtype=dtype), g])
    V, VG = W[:, :k], W[:, k:]
    O = np.zeros((k, k), dtype=dtype)
    coef = np.zeros((k, 2), dtype=dtype)
    step = np.zeros((k, 2 * k), dtype=dtype)
    r, m = k, 0
    while True:
        for i in range(r):
            nonzero = np.flatnonzero(VG[i] @ V[:r].T % d)
            if nonzero.size:
                break
        else:
            break
        j = int(nonzero[0])  # j > i: row j would have hit first otherwise
        # rescale the partner so the pair's form value is exactly -1
        scale = -pow(int(VG[i] @ V[j]) % d, -1, d) % d
        x, y = W[i].copy(), W[j] * scale % d  # [u | u g] and [w | w g]
        O[:, 2 * m], O[:, 2 * m + 1] = x[:k], y[:k]
        m, r = m + 1, r - 2
        W[i:j - 1] = W[i + 1:j]  # drop rows i and j, keeping the order
        W[j - 1:r] = W[j + 1:r + 2]
        # v += (vg.w) u - (vg.u) w clears both directions, and vg follows
        np.matmul(VG[:r], np.stack([y[:k], x[:k]], axis=1), out=coef[:r])
        coef[:r] %= d
        np.matmul(coef[:r], np.stack([x, -y]), out=step[:r])
        W[:r] += step[:r]
        W[:r] %= d
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
