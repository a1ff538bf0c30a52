"""Qudit stabilizers and closed-form entanglement of their subspaces.

A stabilizer is an abelian subgroup of the N-site Pauli group containing
no nontrivial scalar multiple of the identity, described by k independent
generators; ``Stabilizer`` checks all three when it is built (``validate``).
Restricting the generators to one side Q of a bipartition gives a reduced
generating graph gamma_Q whose rank alone fixes the geometric measure of
entanglement of the stabilized subspace across that cut:

    E_Q = 1 - d^(-rank(gamma_Q)/2),

equivalently 1 - d^(-k) times the clique number of the reduced
commutation graph.  The minimum over all bipartitions is (d-1)/d whenever
the subspace is genuinely multipartite entangled, and that value is
asserted, not just returned.

The generators are held as a k x 2n exponent tableau (A | B), X exponents
in A and Z exponents in B, built once per stabilizer.  The generating
graph is B A^T - A B^T mod d, and gamma_Q is the same product over the
columns of the sites in Q, a sum of per-site forms gamma_s = b_s a_s^T -
a_s b_s^T of rank at most 2.  The bipartition scan forms them once; per
block of cuts, one product with the 0/1 site indicators gives every
gamma_Q, and ``gf.alternating_ranks`` ranks them by pair-block
elimination.  Only the ranks are kept, as one list in a
``BipartitionScan`` with the exact measure of each distinct rank; a
``BipartitionReport`` (Q, rank_Q, the exact measure gm_exact and its
float gm_value) is built when the scan is indexed, and
``Stabilizer.reduced_generating_graph(Q)`` gives the matrix gamma_Q of
one cut.  ``_cut_sides`` lists the sides Q by doubling, as site lists
or, for the report writers, as rendered text.  The tableau dtype comes
from ``gf.exact_dtype``: int64 when 2 n (d-1)^2 < 2^63, so that no sum
of exponent products can overflow, and exact Python ints otherwise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    BadSubset,
    DependentGenerators,
    DimensionMismatch,
    InternalParity,
    NonCommuting,
    PhaseViolation,
    TooManyBipartitions,
    UnknownCode,
)
from .gf import GFMatrix, alternating_ranks, block_dtype, nullspace_basis, rank, reduce_mod
from .limits import DEFAULT_BIPARTITION_CAP, check_size
from .pauli import (
    PauliOperator,
    SiteSubset,
    commutator_matrix,
    exponent_tableau,
    ordered_products,
)

# cuts per batched step of the scan in int16, fewer in wider dtypes: its
# temporaries stay at 2 SCAN_BLOCK k^2 bytes whatever the number of cuts
SCAN_BLOCK = 1024


def _cut_sides(first, tails) -> list:
    """Side Q of every cut, in ``bipartitions`` order, as ``first`` plus tails.

    Doubling on each tail appends the sides holding its site after those
    without it, which is binary counting over sites 2..n.  Lists of site
    ints and rendered report rows are built the same way.
    """
    qs = [first]
    for tail in tails:
        qs += [q + tail for q in qs]
    return qs[:-1]  # the last side holds every site: not a cut


def _cut_sites(n_sites: int) -> list[list[int]]:
    """Side Q of every cut as a sorted site list."""
    return _cut_sides([1], [[s] for s in range(2, n_sites + 1)])


def bipartitions(n_sites: int) -> Iterator[SiteSubset]:
    """All 2^(n-1) - 1 bipartition halves Q, with site 1 always in Q.

    Enumeration order is fixed (binary counting over sites 2..n, as
    ``_cut_sides`` lists them), so any scan over bipartitions is
    reproducible.  Refused below one site (``BadSubset``) and past
    ``DEFAULT_BIPARTITION_CAP`` cuts, before any is listed.
    """
    _check_cuts(n_sites)
    return (SiteSubset(tuple(q), n_sites) for q in _cut_sites(n_sites))


def _check_cuts(n_sites: int) -> int:
    if n_sites < 1:
        raise BadSubset(f"n_sites must be at least 1, got {n_sites}")
    return check_size((1 << (n_sites - 1)) - 1, DEFAULT_BIPARTITION_CAP,
                      "bipartitions", TooManyBipartitions)


class Stabilizer:
    """N-site qudit stabilizer given by k generator operators."""

    def __init__(self, generators):
        gens = tuple(generators)
        self._A, self._B = exponent_tableau(gens)  # non-empty, one d, one n
        self.d = gens[0].d
        self.n_sites = gens[0].n_sites
        self.generators = gens
        self._code_basis = None  # dense code-space basis, built by the oracle
        self.validate()

    @property
    def k(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"Stabilizer(d={self.d}, n_sites={self.n_sites}, k={self.k})"

    def validate(self) -> None:
        """Check the three stabilizer invariants, raising on the first failure.

        Order matters: commutation first, then the scalar rule (so a
        generator like -1 reports a phase violation rather than a rank
        defect), then exponent-row independence.  The constructor runs it.
        """
        gens = self.generators
        d, k = self.d, self.k
        gamma = commutator_matrix(self._A, self._B, d)
        rows, cols = np.nonzero(np.triu(gamma, 1))
        if len(rows):
            raise NonCommuting(int(rows[0]) + 1, int(cols[0]) + 1)
        for i, g in enumerate(gens):
            if not g.has_unit_order:
                raise PhaseViolation(
                    f"generator {i + 1} raised to the power {d} is a "
                    "nontrivial scalar"
                )
        # combinations with identity Pauli part must multiply to exactly 1
        combos = nullspace_basis(GFMatrix(np.hstack([self._A, self._B]).T, d))
        if combos:
            units = ordered_products(gens, combos)[2]
            if units.any():
                raise PhaseViolation(
                    "a generator product with identity Pauli part has "
                    f"phase exponent {units[units != 0][0]}"
                )
            raise DependentGenerators(
                f"generator exponent rows span only {k - len(combos)} of "
                f"{k} dimensions"
            )

    def reduced_generating_graph(self, subset: SiteSubset) -> GFMatrix:
        """Pairwise commutator exponents of the generators restricted to Q."""
        if subset.n_sites != self.n_sites:
            raise BadSubset(
                f"subset is over {subset.n_sites} sites, stabilizer has "
                f"{self.n_sites}"
            )
        if not subset.is_proper:
            raise BadSubset("bipartition side must be a proper subset")
        sites = [i - 1 for i in subset.indices]
        return GFMatrix(
            commutator_matrix(self._A[:, sites], self._B[:, sites], self.d), self.d
        )

    def is_gme(self) -> bool:
        """Whether the stabilized subspace is genuinely multipartite entangled, by its scan."""
        return self.bipartition_reports().is_gme

    def gm_measure(self, subset: SiteSubset) -> "BipartitionReport":
        """Geometric entanglement of the subspace across one bipartition."""
        r = rank(self.reduced_generating_graph(subset))
        return BipartitionReport(subset, r, self._measure(r))

    def bipartition_reports(self) -> "BipartitionScan":
        """Every bipartition's rank and measure, in ``bipartitions`` order."""
        count = _check_cuts(self.n_sites)
        d, n, k = self.d, self.n_sites, self.k
        # gamma_Q is the sum over s in Q of the per-site forms gamma_s
        per_site = commutator_matrix(self._A.T[:, :, None], self._B.T[:, :, None], d)
        per_site = per_site.astype(block_dtype(d, n)).reshape(n, k * k)
        block = SCAN_BLOCK * 2 // per_site.itemsize
        ranks: list[int] = []
        for start in range(0, count, block):
            # bit s of 2 mask + 1 is 1 iff site s + 1 is in Q: site 1 always is
            masks = 2 * np.arange(start, min(start + block, count)) + 1
            sides = ((masks[:, None] >> np.arange(n)) & 1).astype(per_site.dtype)
            gammas = reduce_mod(np.einsum("cs,sq->cq", sides, per_site), d)
            ranks += alternating_ranks(gammas.reshape(-1, k, k), d).tolist()
        measures = {r: self._measure(r) for r in sorted(set(ranks))}
        return BipartitionScan(d, n, ranks, measures)

    def ggm_measure(self) -> float:
        """Minimum geometric measure over all bipartitions, by its scan."""
        return float(self.bipartition_reports().ggm)

    def _measure(self, r: int) -> Fraction:
        """Exact measure across a cut whose reduced graph has rank r."""
        if r % 2:
            raise InternalParity("reduced generating graph has odd rank")
        scale = self.d ** (r // 2)
        gm = Fraction(scale - 1, scale)
        # equivalent clique-number form, asserted equal
        nullity = self.k - r
        clique = self.d ** ((nullity + self.k) // 2)
        if gm != Fraction(self.d ** self.k - clique, self.d ** self.k):
            raise RuntimeError("rank form and clique form disagree")
        return gm


class BipartitionScan(Sequence):
    """A full bipartition scan, one cut per item in ``bipartitions`` order.

    ``ranks`` holds rank(gamma_Q) per cut, ``sites`` the sorted side Q per
    cut (built on first use), and ``measures`` the exact measure of each
    rank that occurs.  Indexing or iterating builds ``BipartitionReport``s.
    """

    def __init__(self, d: int, n_sites: int, ranks: list[int], measures: dict[int, Fraction]):
        self.d = d
        self.n_sites = n_sites
        self.ranks = ranks
        self.measures = measures

    @cached_property
    def sites(self) -> list[list[int]]:
        return _cut_sites(self.n_sites)

    @property
    def is_gme(self) -> bool:
        """Genuine multipartite entanglement: at least one cut, and no
        cut whose reduced generating graph vanishes.  A single site has
        no cut and is never entangled."""
        return min(self.ranks, default=0) > 0

    @property
    def ggm(self) -> Fraction:
        """Exact minimum measure over the cuts, 0 with no cut.

        The measure grows with the rank, so the minimum is the measure of
        the least rank.  When the scan shows genuine multipartite
        entanglement it is exactly (d-1)/d, and that equality is asserted.
        """
        least = self.measures[min(self.ranks)] if self.ranks else Fraction(0)
        if self.is_gme and least != Fraction(self.d - 1, self.d):
            raise RuntimeError(f"entangled subspace has minimum measure {least}, "
                               f"expected {self.d - 1}/{self.d}")
        return least

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        r = self.ranks[i]
        q = SiteSubset(tuple(self.sites[i]), self.n_sites)
        return BipartitionReport(q, r, self.measures[r])


@dataclass(frozen=True)
class BipartitionReport:
    """Entanglement data for one bipartition Q | complement.

    Holds the side Q, the rank of gamma_Q and the exact measure; the
    matrix gamma_Q itself is ``Stabilizer.reduced_generating_graph(Q)``.
    """

    Q: SiteSubset
    rank_Q: int
    gm_exact: Fraction

    @property
    def gm_value(self) -> float:
        return float(self.gm_exact)


def builtin_code(name: str, d: int, n: int) -> Stabilizer:
    """Construct a named example stabilizer.

    ``ghz``: the n-site GHZ state at prime d, generated by the all-sites
    shift together with clock pairs Z_i Z_{i+1}^{-1}.

    ``five_qudit``: the five-site code whose four generators are the
    cyclic shifts of X (x) Z (x) Z^-1 (x) X^-1 (x) 1; at d = 2 this is the
    familiar X Z Z X 1 pattern.  Its reduced generating graphs have rank
    2 for single-site cuts and rank 4 for every two-site cut.
    """
    if name == "ghz":
        if n < 2:
            raise DimensionMismatch("ghz needs at least 2 sites")
        gens = [PauliOperator(d, (1,) * n, (0,) * n)]
        for i in range(1, n):
            b = [0] * n
            b[i - 1] = 1
            b[i] = -1
            gens.append(PauliOperator(d, (0,) * n, tuple(b)))
        return Stabilizer(gens)
    if name == "five_qudit":
        if n != 5:
            raise DimensionMismatch("the five-qudit code needs exactly 5 sites")
        base_a = np.array([1, 0, 0, -1, 0], dtype=np.int64)
        base_b = np.array([0, 1, -1, 0, 0], dtype=np.int64)
        gens = [
            PauliOperator(
                d,
                tuple(np.roll(base_a, shift)),
                tuple(np.roll(base_b, shift)),
            )
            for shift in range(4)
        ]
        return Stabilizer(gens)
    raise UnknownCode(f"no builtin code named {name!r}")
