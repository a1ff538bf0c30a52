"""Symbolic generalized Pauli (Weyl) operators with exact phase arithmetic.

An operator on N prime-dimensional sites is stored as a phase exponent
plus two exponent vectors,

    zeta^p * (X^{a_1} Z^{b_1})  x  ...  x  (X^{a_N} Z^{b_N}),

with X kept to the left of Z on every site.  Reordering a Z past an X on
one site costs a factor omega = exp(2*pi*i/d), so products, powers and
inverses reduce to integer bookkeeping on (p, a, b) in plain Python ints,
and ``ordered_products`` is their closed form over the exponent tableau.
Tableau arrays take their dtype from the one rule, ``gf.exact_dtype``, and
every product of them goes through ``gf.matmul_mod``: float64 BLAS while
its sums stay below 2^53, then int64, then Python ints.

The phase unit zeta is omega itself for odd d and the quarter turn i for
d = 2.  For odd d the reachable phases are exactly the powers of omega;
for d = 2 the unit-phase normalisation introduces factors of i, and since
omega = -1 = i^2 a single exponent modulo 4 covers everything.  No other
moduli occur, so the symbolic layer never touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadSubset, DimensionMismatch
from .gf import _python_ints, check_modulus, exact_dtype, matmul_mod


def phase_modulus(d: int) -> int:
    """Order of the phase group: d for odd d, 4 (powers of i) for d = 2."""
    return 4 if d == 2 else d


def omega_units(d: int, t: int) -> int:
    """Exponent of the phase omega^t in zeta units."""
    if d == 2:
        return (2 * t) % 4
    return t % d


@dataclass(frozen=True)
class PauliOperator:
    """zeta^phase_exp times a tensor product of X^a Z^b site factors."""

    d: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    phase_exp: int = 0

    def __post_init__(self) -> None:
        d = check_modulus(self.d)
        a = tuple(int(v) % d for v in self.a)
        b = tuple(int(v) % d for v in self.b)
        if len(a) != len(b):
            raise DimensionMismatch(
                f"X and Z exponent vectors differ in length: {len(a)} vs {len(b)}"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phase_exp", int(self.phase_exp) % phase_modulus(d))

    @classmethod
    def _trusted(cls, d: int, a: tuple[int, ...], b: tuple[int, ...],
                 phase_exp: int) -> "PauliOperator":
        """An operator from fields that already hold the checked normal form.

        For callers that have proven d prime and reduced every exponent
        themselves, such as the document parser: no check or reduction runs.
        """
        op = object.__new__(cls)
        op.__dict__.update(d=d, a=a, b=b, phase_exp=phase_exp)
        return op

    @classmethod
    def identity(cls, d: int, n_sites: int) -> "PauliOperator":
        return cls(d, (0,) * n_sites, (0,) * n_sites)

    @classmethod
    def x(cls, d: int) -> "PauliOperator":
        """Single-site shift operator X."""
        return cls(d, (1,), (0,))

    @classmethod
    def z(cls, d: int) -> "PauliOperator":
        """Single-site clock operator Z."""
        return cls(d, (0,), (1,))

    @classmethod
    def single(
        cls, d: int, n_sites: int, site: int, x_exp: int = 0, z_exp: int = 0
    ) -> "PauliOperator":
        """Operator acting as X^x_exp Z^z_exp on one 1-based site."""
        if not 1 <= site <= n_sites:
            raise BadSubset(f"site {site} outside 1..{n_sites}")
        a = [0] * n_sites
        b = [0] * n_sites
        a[site - 1] = x_exp
        b[site - 1] = z_exp
        return cls(d, tuple(a), tuple(b))

    @property
    def n_sites(self) -> int:
        return len(self.a)

    @property
    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not any(self.a) and not any(self.b)

    @property
    def has_unit_order(self) -> bool:
        """Whether self ** d is the identity, in closed form.

        Always for odd d, where (X^a Z^b)^d = omega^(d(d-1)/2 a.b) = 1; for
        d = 2 the square is i^(2p) (-1)^(a.b), so p + a.b must be even.
        """
        if self.d != 2:
            return True
        return (self.phase_exp + sum(x * y for x, y in zip(self.a, self.b))) % 2 == 0

    def _check_compatible(self, other: "PauliOperator") -> None:
        if self.d != other.d:
            raise DimensionMismatch(f"moduli differ: {self.d} vs {other.d}")
        if self.n_sites != other.n_sites:
            raise DimensionMismatch(
                f"site counts differ: {self.n_sites} vs {other.n_sites}"
            )

    def multiply(self, other: "PauliOperator") -> "PauliOperator":
        """Exact operator product self * other.

        Per site, X^a Z^b X^a' Z^b' = omega^{b a'} X^{a+a'} Z^{b+b'}; the
        reordering phases accumulate into phase_exp.
        """
        self._check_compatible(other)
        d = self.d
        cross = sum(bj * aj for bj, aj in zip(self.b, other.a)) % d
        return PauliOperator(
            d,
            tuple((x + y) % d for x, y in zip(self.a, other.a)),
            tuple((x + y) % d for x, y in zip(self.b, other.b)),
            self.phase_exp + other.phase_exp + omega_units(d, cross),
        )

    __mul__ = multiply

    def inverse(self) -> "PauliOperator":
        """The unique operator Q with self * Q equal to the identity."""
        return self.power(-1)

    def power(self, m: int) -> "PauliOperator":
        """Exact m-th power for any integer m, phases included.

        Every operator's ``phase_modulus(d)``-th power is the identity, so m
        is reduced modulo it first and the square-and-multiply runs on a
        non-negative exponent.
        """
        m = int(m) % phase_modulus(self.d)
        base, result = self, PauliOperator.identity(self.d, self.n_sites)
        while m:
            if m & 1:
                result = result.multiply(base)
            m >>= 1
            if m:
                base = base.multiply(base)
        return result

    __pow__ = power

    def canonical_unit_phase(self) -> "PauliOperator":
        """Replace the phase by the unique choice making the d-th power 1.

        For odd d the bare tensor product already has (X^a Z^b)^d = 1, so
        the phase is simply dropped.  For d = 2 a factor i is needed
        exactly when an odd number of sites carry both an X and a Z.
        """
        if self.d == 2:
            phase = sum(x * y for x, y in zip(self.a, self.b)) % 2
        else:
            phase = 0
        return replace(self, phase_exp=phase)

    def restrict(self, subset: "SiteSubset") -> "PauliOperator":
        """Factor acting on the given sites, unit-phase normalised.

        The returned operator lives on len(subset) sites, reindexed in
        ascending order of the original labels.  Any overall phase of the
        full operator is left implicitly with the complementary factor;
        commutation exponents never see it.
        """
        if subset.n_sites != self.n_sites:
            raise BadSubset(
                f"subset is over {subset.n_sites} sites, operator has {self.n_sites}"
            )
        picked = [i - 1 for i in subset.indices]
        return PauliOperator(
            self.d,
            tuple(self.a[i] for i in picked),
            tuple(self.b[i] for i in picked),
        ).canonical_unit_phase()


def ordered_products(ops, exponents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, phase units) of ops[0]^I_0 * ... * ops[k-1]^I_{k-1}, one row per I.

    With T_i = zeta^p_i X^a_i Z^b_i and C = B A^T, the product has Pauli
    part I [A | B] mod d and phase zeta^(I.p) omega^t, for the quadratic form
    t = sum_{i<j} I_i I_j C_ij + sum_i C(I_i, 2) C_ii.  Every T_i has
    T_i^m = 1 for m = phase_modulus(d), so I is first reduced mod m.
    """
    ops = tuple(ops)
    A, B = exponent_tableau(ops)  # non-empty, one d, one n
    d, k, m = ops[0].d, len(ops), phase_modulus(ops[0].d)
    E = np.array(exponents, dtype=object)
    if E.ndim != 2 or E.shape[1] != k:
        raise DimensionMismatch(f"need rows of {k} exponents, got shape {E.shape}")
    dtype = exact_dtype(d, k)  # the row sums below add k products
    E = (_python_ints(E) % m).astype(dtype)
    Ed = E % d if m != d else E  # the Pauli part and the cross terms see I mod d
    p = np.array([op.phase_exp for op in ops], dtype=dtype)
    C = matmul_mod(B, A.T, d)
    t = ((Ed * matmul_mod(Ed, np.triu(C, 1).T, d)).sum(axis=1) % d
         + ((E * (E - 1) // 2 % d) * np.diagonal(C)).sum(axis=1) % d)
    units = (matmul_mod(E, p, m) + omega_units(d, t)) % m
    return matmul_mod(Ed, A, d), matmul_mod(Ed, B, d), units


def ordered_product(ops, exponents) -> PauliOperator:
    """Exact ops[0]^e_0 * ... * ops[k-1]^e_{k-1}, one row of ordered_products."""
    ops = tuple(ops)
    A, B, units = ordered_products(ops, [exponents])
    return PauliOperator(ops[0].d, tuple(A[0]), tuple(B[0]), units[0])


def commutator_exponent(p: PauliOperator, q: PauliOperator) -> int:
    """Exponent sigma in [0, d) with p q p^-1 q^-1 = omega^sigma 1.

    Equals b_p . a_q - a_p . b_q mod d; the operators' phases are scalars
    and cancel, so they never influence the result.
    """
    p._check_compatible(q)
    d = p.d
    value = sum(x * y for x, y in zip(p.b, q.a)) - sum(
        x * y for x, y in zip(p.a, q.b)
    )
    return value % d


def exponent_tableau(ops) -> tuple[np.ndarray, np.ndarray]:
    """X and Z exponents of operators sharing d and n as (k, n) arrays A, B.

    Row i of A (of B) is the X (the Z) exponent vector of the i-th
    operator; phases are dropped, since commutators never see them.  This
    is the one check that a generator list is non-empty and shares one d
    and one site count.
    """
    ops = tuple(ops)
    if not ops:
        raise DimensionMismatch("need at least one generator")
    first = ops[0]
    for op in ops[1:]:
        first._check_compatible(op)
    dtype = exact_dtype(first.d, 2 * first.n_sites)  # B A^T - A B^T: 2n terms
    A = np.array([op.a for op in ops], dtype=dtype)
    B = np.array([op.b for op in ops], dtype=dtype)
    return A, B


def commutator_matrix(A: np.ndarray, B: np.ndarray, d: int) -> np.ndarray:
    """All commutator exponents of a tableau at once: B A^T - A B^T mod d.

    Entry (i, j) is commutator_exponent of rows i and j; selecting columns
    of A and B first gives the commutators of the restricted operators.
    It is one product of 2n terms, [B | -A] [A | B]^T, and a stack of
    (..., k, n) tableaux gives the stack of their matrices.
    """
    left = np.concatenate([B, -A], axis=-1)
    right = np.concatenate([A, B], axis=-1).swapaxes(-1, -2)
    return matmul_mod(left, right, d)


def tensor(*ops: PauliOperator) -> PauliOperator:
    """Tensor product of operators sharing one modulus; phases multiply."""
    if not ops:
        raise DimensionMismatch("tensor() needs at least one operator")
    d = ops[0].d
    a: list[int] = []
    b: list[int] = []
    phase = 0
    for op in ops:
        if op.d != d:
            raise DimensionMismatch(f"moduli differ: {d} vs {op.d}")
        a.extend(op.a)
        b.extend(op.b)
        phase += op.phase_exp
    return PauliOperator(d, tuple(a), tuple(b), phase)


@dataclass(frozen=True)
class SiteSubset:
    """A non-empty set of 1-based site labels out of n_sites."""

    indices: tuple[int, ...]
    n_sites: int

    def __post_init__(self) -> None:
        n = int(self.n_sites)
        if n < 1:
            raise BadSubset(f"n_sites must be at least 1, got {n}")
        idx = tuple(sorted({int(i) for i in self.indices}))
        if not idx:
            raise BadSubset("site subset must be non-empty")
        if idx[0] < 1 or idx[-1] > n:
            raise BadSubset(f"site labels {idx} outside 1..{n}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "n_sites", n)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_proper(self) -> bool:
        return self.size < self.n_sites

    def complement(self) -> "SiteSubset":
        rest = tuple(
            i for i in range(1, self.n_sites + 1) if i not in set(self.indices)
        )
        if not rest:
            raise BadSubset("complement of the full site set is empty")
        return SiteSubset(rest, self.n_sites)
