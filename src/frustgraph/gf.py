"""Exact dense linear algebra over the prime field Z_d.

Everything here is integer arithmetic: elimination uses modular inverses,
so ranks, nullspaces and matrix inverses are exact rather than floating
point.  Matrices are tiny (generator counts, never Hilbert-space
dimensions); pivots are always the first row with a nonzero entry, which
keeps every derived basis reproducible.  ``alternating_ranks`` ranks a
stack of alternating matrices by pair-block elimination, without inverses.

Scalars of Z_d are plain Python ints.  Integer arrays follow one rule,
``exact_dtype``: int64 while no sum they hold can overflow it, Python ints
(object dtype) beyond that, so every result is exact whatever d is; the
stacks of ``alternating_ranks`` and the work rows of
``symplectic.canonical_form`` are int16 where that fits (``block_dtype``).
Every matrix product over Z_d goes through ``matmul_mod``, which adds a
float64 tier in front of that rule: while each sum stays below 2^53, a
product large enough to repay the conversions runs on float64 BLAS and is
still exact.
Moduli are proven prime by deterministic Miller-Rabin (``is_prime``),
which is exact below MILLER_RABIN_BOUND; a larger d is refused.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonPrimeModulus, NotAntisymmetric, Singular, TooLarge


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# Miller-Rabin with the 13 bases _SMALL_PRIMES is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2017)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test for n below MILLER_RABIN_BOUND.

    Trial division by the primes up to 41, then deterministic
    Miller-Rabin with those primes as bases.  Larger n is refused with
    ``TooLarge``, since no answer could be proven.
    """
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        raise TooLarge(
            f"cannot prove {n} prime: moduli must be below {MILLER_RABIN_BOUND}"
        )
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _SMALL_PRIMES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(d: int) -> int:
    """Return ``d`` as a plain int, rejecting non-prime moduli."""
    d = int(d)
    if d not in _SMALL_PRIME_SET and not is_prime(d):  # the common moduli skip the call
        raise NonPrimeModulus(f"modulus must be a prime, got {d}")
    return d


def exact_dtype(d: int, terms: int = 1):
    """int64 when a sum of ``terms`` products of two residues fits, else object.

    Such a sum is at most terms (d-1)^2 in magnitude.  One term covers
    storage and elimination (a residue minus a product of two).
    """
    return np.int64 if terms * (d - 1) ** 2 < 2 ** 63 else object


def block_dtype(d: int, terms: int):
    """int16 when 3 (d-1)^2 and a sum of ``terms`` residues fit, else ``exact_dtype(d, 3)``."""
    small = 3 * (d - 1) ** 2 < 2 ** 15 and terms * (d - 1) < 2 ** 15  # d <= 103 at 16 sites
    return np.int16 if small else exact_dtype(d, 3)


def reduce_mod(x: np.ndarray, d: int) -> np.ndarray:
    """``x % d``: numpy floor-divides by a scalar without a hardware division."""
    return x - x // d * d


FLOAT_EXACT = 2 ** 53  # float64 holds every integer of smaller magnitude
# multiply-adds below which numpy's int64 loop is as fast as converting
# both factors for one BLAS call: a 12 x 24 x 12 product ties
FLOAT_MIN_WORK = 2 ** 13


def matmul_mod(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Exact ``a @ b mod d`` for integer arrays with entries in (-d, d).

    Each entry is a sum of ``terms = a.shape[-1]`` products, at most
    terms (d-1)^2 in magnitude.  Below 2^53 every partial sum is an integer
    that float64 holds exactly, whatever order BLAS adds in, so the product
    runs in float64 (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS
    35(3), 2008); numpy has no BLAS for integer dtypes.  Products of fewer
    than FLOAT_MIN_WORK multiply-adds, which the conversions to and from
    float64 would slow down, and products past 2^53 take the
    ``exact_dtype`` route: int64, then Python ints.  Stacks of matrices
    multiply pairwise.  Returns residues in [0, d), int64 unless the
    Python-int route was taken.
    """
    terms = a.shape[-1]
    work = a.size * (b.shape[-1] if b.ndim > 1 else 1)  # multiply-adds
    if terms * (d - 1) ** 2 < FLOAT_EXACT and work >= FLOAT_MIN_WORK:
        product = a.astype(np.float64) @ b.astype(np.float64)
        return reduce_mod(product.astype(np.int64), d)
    dtype = exact_dtype(d, terms)
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False) % d


_python_ints = np.frompyfunc(int, 1, 1)  # object array -> Python int entries


class GFMatrix:
    """Dense matrix over Z_d; reduced entries in an ``exact_dtype(d)`` array."""

    __slots__ = ("entries", "d")

    def __init__(self, entries, d: int):
        self.d = check_modulus(d)
        dtype = exact_dtype(self.d)
        arr = np.array(entries, dtype=dtype)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
        if dtype is object:
            self.entries = _python_ints(arr) % self.d
        else:
            self.entries = reduce_mod(arr, self.d)

    @classmethod
    def zeros(cls, rows: int, cols: int, d: int) -> "GFMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), d)

    @classmethod
    def identity(cls, n: int, d: int) -> "GFMatrix":
        return cls(np.eye(n, dtype=np.int64), d)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def T(self) -> "GFMatrix":
        return GFMatrix(self.entries.T, self.d)

    def to_lists(self) -> list[list[int]]:
        return self.entries.tolist()

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        if not isinstance(other, GFMatrix):
            return NotImplemented
        if self.d != other.d:
            raise DimensionMismatch(f"moduli differ: {self.d} vs {other.d}")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return GFMatrix(matmul_mod(self.entries, other.entries, self.d), self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.entries, other.entries)

    __hash__ = None

    def __repr__(self) -> str:
        return f"GFMatrix({self.to_lists()!r}, d={self.d})"


def _row_echelon(matrix: GFMatrix, pivot_cols: int | None = None):
    """Reduced row echelon form over Z_d.

    Pivot rule: first row at or below the cursor with a nonzero entry.
    Returns the reduced array and the list of pivot column indices; only
    the first ``pivot_cols`` columns are eligible for pivots (row
    operations still apply to the full width, which is what inversion via
    an augmented block needs).
    """
    d = matrix.d
    R = matrix.entries.copy()
    n_rows, n_cols = R.shape
    limit = n_cols if pivot_cols is None else pivot_cols
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        nonzero = np.flatnonzero(R[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, d)) % d
        # columns left of c are zero in row r: clear column c in one update
        rows = np.flatnonzero(R[:, c])
        rows = rows[rows != r]
        R[rows, c:] = (R[rows, c:] - R[rows, c:c + 1] * R[r, c:]) % d
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return R, pivots


def rank(matrix: GFMatrix) -> int:
    """Rank over Z_d via Gaussian elimination with modular inverses."""
    _, pivots = _row_echelon(matrix)
    return len(pivots)


def nullspace_basis(matrix: GFMatrix) -> list[np.ndarray]:
    """Basis of the right kernel {v : M v = 0 mod d}.

    Free variables are set to unit values in column-index order, so the
    returned basis is reproducible across runs.
    """
    R, pivots = _row_echelon(matrix)
    d = matrix.d
    n_cols = matrix.cols
    pivot_set = set(pivots)
    basis: list[np.ndarray] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = np.zeros(n_cols, dtype=R.dtype)
        v[free] = 1
        for row_idx, p in enumerate(pivots):
            v[p] = (-R[row_idx, free]) % d
        basis.append(v)
    return basis


def invert(matrix: GFMatrix) -> GFMatrix:
    """Matrix inverse over Z_d; raises Singular on rank deficiency."""
    if matrix.rows != matrix.cols:
        raise DimensionMismatch(f"cannot invert a {matrix.shape} matrix")
    n = matrix.rows
    aug = GFMatrix(
        np.hstack([matrix.entries, np.eye(n, dtype=matrix.entries.dtype)]), matrix.d
    )
    R, pivots = _row_echelon(aug, pivot_cols=n)
    if len(pivots) < n:
        raise Singular(f"matrix has rank {len(pivots)} < {n}")
    return GFMatrix(R[:, n:], matrix.d)


def alternating_ranks(stack: np.ndarray, d: int) -> np.ndarray:
    """Ranks over Z_d of a (C, k, k) stack of alternating matrices.

    Each step takes every matrix's first nonzero entry g = G[i, j] and sets
    G <- g G - r_i^T r_j + r_j^T r_i mod d (r_i is row i): g times the Schur
    complement of the pair block on rows and columns i, j, so the rank drops
    by 2.  All-zero matrices leave the stack.  Entries are residues and no
    inverse is taken, so object entries stay exact; other dtypes must hold
    3 (d-1)^2 (``block_dtype``).
    """
    G = np.asarray(stack)
    ranks = np.zeros(len(G), dtype=np.int64)
    members = np.arange(len(G))
    for _ in range(G.shape[-1] // 2 + 1):  # k // 2 pair steps, then all are zero
        nonzero = (G != 0).reshape(-1, G.shape[1] ** 2)
        live = nonzero.any(axis=1)
        if not live.all():
            G, members, nonzero = G[live], members[live], nonzero[live]
        if not len(G):
            return ranks
        ranks[members] += 2
        at = np.arange(len(G))
        i, j = np.divmod(nonzero.argmax(axis=1), G.shape[1])
        g, r_i, r_j = G[at, i, j], G[at, i], G[at, j]
        G = reduce_mod(g[:, None, None] * G - np.einsum("ca,cb->cab", r_i, r_j)
                       + np.einsum("ca,cb->cab", r_j, r_i), d)
    raise NotAntisymmetric("a matrix of the stack is not alternating")
