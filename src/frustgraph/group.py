"""Groups of omega-commuting unitaries described by their generating graph.

A group element is indexed by an exponent vector I over Z_d, standing for
the ordered product of generators T_1^{I_1} ... T_k^{I_k}, multiplied out
by ``pauli.ordered_products`` where a routine needs it; no spec holds its
d^k elements.  ``element_indices`` is the one enumeration of the vectors,
a (d^k, k) array that each caller first sizes against a cap of ``limits``.
The pairwise commutation data of the generators, an antisymmetric
adjacency matrix gamma with [T_i, T_j] = omega^{gamma_ij} 1 as a group
commutator, fixes the commutation phase of every pair of elements
through the bilinear form

    Gamma(I, J) = sum_ij I_i J_j gamma_ij  mod d.

Bounds that depend only on gamma (clique number of the commutation graph,
sum-of-squares bound, energy bound for odd d) are computed in exact
integer arithmetic, form values as plain ints in [0, d); the brute-force
clique and coloring searches here are the independent cross-checks, refused
past the vertex caps of ``limits``.  Every routine takes a ``Stabilizer``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EvenDimension, GammaMismatch, PhaseViolation
from .gf import GFMatrix, check_modulus, matmul_mod, nullspace_basis
from .limits import COLORING_VERTEX_CAP, VERTEX_CAP, check_size
from .pauli import PauliOperator, commutator_matrix, exponent_tableau, ordered_products
from .symplectic import CanonicalForm, canonical_form, check_antisymmetric

Index = tuple[int, ...]


def generating_graph(generators) -> GFMatrix:
    """Antisymmetric matrix of pairwise commutator exponents."""
    generators = tuple(generators)
    A, B = exponent_tableau(generators)
    d = generators[0].d
    return GFMatrix(commutator_matrix(A, B, d), d)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Prime d plus a generating graph, optionally with concrete generators.

    The closed-form bounds depend only on gamma, so abstract specs (no
    generators) are first class; concrete generators are needed only by
    the dense oracle routines.  Given generators, gamma may be None: it is
    then derived from them, as ``from_generators`` does, and otherwise
    checked against them; each generator must have unit order.
    ``normal_form``, the certified symplectic normal form of gamma, is
    computed once; every closed form reads the rank of gamma off it, as
    twice its pair count.  Specs compare and hash by identity.
    """

    d: int
    gamma: GFMatrix | None
    generators: tuple[PauliOperator, ...] | None = None

    def __post_init__(self) -> None:
        d = check_modulus(self.d)
        object.__setattr__(self, "d", d)
        gens = None if self.generators is None else tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        derived = generating_graph(gens) if gens else None
        if self.gamma is None:
            if derived is None:
                raise DimensionMismatch("a spec without generators needs gamma")
            object.__setattr__(self, "gamma", derived)
        if self.gamma.d != d:
            raise DimensionMismatch(
                f"gamma modulus {self.gamma.d} differs from spec d {d}"
            )
        check_antisymmetric(self.gamma)
        if gens is not None:
            if len(gens) != self.gamma.rows:
                raise DimensionMismatch(
                    f"{len(gens)} generators but gamma is {self.gamma.shape}"
                )
            for i, t in enumerate(gens, start=1):
                if not t.has_unit_order:
                    raise PhaseViolation(f"generator {i} raised to the power {d} "
                                         "is a nontrivial scalar")
            if derived is not None and derived != self.gamma:
                raise GammaMismatch(
                    "gamma disagrees with the generators' commutators"
                )

    @classmethod
    def from_generators(cls, generators) -> "GroupSpec":
        gens = tuple(generators)
        if not gens:
            raise DimensionMismatch(
                "from_generators needs generators; use from_gamma for "
                "abstract specs"
            )
        return cls(gens[0].d, None, gens)

    @classmethod
    def from_gamma(cls, d: int, gamma) -> "GroupSpec":
        if not isinstance(gamma, GFMatrix):
            gamma = GFMatrix(gamma, d)
        return cls(d, gamma)

    @property
    def k(self) -> int:
        return self.gamma.rows

    @property
    def n_elements(self) -> int:
        return self.d ** self.k

    @functools.cached_property
    def normal_form(self) -> CanonicalForm:
        return canonical_form(self.gamma)

    @property
    def gamma_rank(self) -> int:
        """rank(gamma) = 2m, certified by O^T gamma O = m pair blocks, O invertible."""
        return 2 * self.normal_form.m


def frustration_exponent(I, J, gamma: GFMatrix) -> int:
    """Bilinear form value Gamma(I, J) = I . gamma . J mod d, in Python ints."""
    Iv, Jv = np.asarray(I).astype(object), np.asarray(J).astype(object)
    if Iv.shape != (gamma.rows,) or Jv.shape != (gamma.cols,):
        raise DimensionMismatch(
            f"index lengths {Iv.shape}, {Jv.shape} do not match gamma "
            f"{gamma.shape}"
        )
    return int(Iv @ gamma.entries.astype(object) @ Jv) % gamma.d


def element_indices(d: int, k: int) -> np.ndarray:
    """All d^k exponent vectors as the rows of a (d^k, k) int64 array, in lexicographic order."""
    return np.indices((d,) * k, dtype=np.int64).reshape(k, d ** k).T


@dataclass(frozen=True)
class CommutationGraph:
    """Simple graph on element indices; edge iff distinct and commuting.

    Adjacency is stored as one integer bitmask per vertex, which keeps the
    branch-and-bound searches below allocation-free.
    """

    labels: tuple[Index, ...]
    adjacency: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adjacency[i] >> j) & 1)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def commutation_graph(spec: GroupSpec) -> CommutationGraph:
    """Graph on all d^k element indices; edges where the form vanishes."""
    check_size(spec.n_elements, VERTEX_CAP, "vertices")
    V = element_indices(spec.d, spec.k)
    d = spec.d
    edges = matmul_mod(matmul_mod(V, spec.gamma.entries, d), V.T, d) == 0
    np.fill_diagonal(edges, False)
    rows = np.packbits(edges, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
    return CommutationGraph(tuple(map(tuple, V.tolist())), masks)


def central_subgroup_indices(spec: GroupSpec) -> list[Index]:
    """Indices of the elements commuting with the whole group.

    These are exactly the kernel vectors of gamma, enumerated as all
    Z_d combinations of the kernel basis; the count is d^nullity, refused
    past ``VERTEX_CAP`` as they are vertices of the commutation graph.
    """
    basis = nullspace_basis(spec.gamma)
    check_size(spec.d ** len(basis), VERTEX_CAP, "central elements")
    coeffs = element_indices(spec.d, len(basis))
    basis = np.array(basis, dtype=object).reshape(len(basis), spec.k)
    return list(map(tuple, matmul_mod(coeffs, basis, spec.d).tolist()))


def clique_number(spec: GroupSpec) -> int:
    """Closed-form clique number d^((nullity + k)/2) of the commutation graph."""
    nullity = spec.k - spec.gamma_rank
    return spec.d ** ((nullity + spec.k) // 2)


def clique_number_bruteforce(graph: CommutationGraph) -> int:
    """Exact maximum clique size by branch and bound on a coloring bound.

    Each node colors its candidates greedily into independent classes
    (MCQ, Tomita & Seki 2003): a clique takes at most one vertex per class,
    so a vertex of color c adds at most c.  Vertices are expanded in
    reverse color order until size + color <= best.  Candidate sets and
    color classes are bitboards (BBMC, San Segundo et al. 2011); the
    classes a node cannot use are removed without being listed.
    """
    n = check_size(graph.n_vertices, VERTEX_CAP, "vertices")
    adj = graph.adjacency
    others = _non_neighbours(adj)
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        for v, color in reversed(_color_classes(cand, others, best - size)):
            if size + color <= best:
                return
            child = cand & adj[v]
            if child:
                expand(size + 1, child)
            elif size >= best:  # no candidates left: the clique ends at v
                best = size + 1
            cand ^= 1 << v

    expand(0, (1 << n) - 1)
    return best


def _non_neighbours(adj) -> list[int]:
    """Per vertex, the mask of every vertex but itself and its neighbours."""
    return [~(mask | 1 << v) for v, mask in enumerate(adj)]


def _color_classes(cand: int, others, skip: int = 0) -> list[tuple[int, int]]:
    """Greedy coloring of ``cand`` as (vertex, color) pairs, colors from 1.

    Each class repeatedly takes the lowest remaining vertex and keeps only
    its non-neighbours ``others[v]``.  The first ``skip`` classes are
    removed without being listed, and nothing is listed when they use up
    ``cand``.
    """
    for _ in range(skip):
        q = cand
        while q:
            low = q & -q
            cand ^= low
            q &= others[low.bit_length() - 1]
        if not cand:
            return []
    order, color = [], max(skip, 0)
    while cand:
        color += 1
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cand ^= low
            q &= others[v]
            order.append((v, color))
    return order


def chromatic_number_exact(graph: CommutationGraph) -> int:
    """Exact chromatic number by backtracking between two coloring bounds.

    The clique number bounds it below and the greedy coloring of
    ``_color_classes`` above, so only the counts in between are searched.
    """
    n = check_size(graph.n_vertices, COLORING_VERTEX_CAP, "vertices of the coloring search")
    if n == 0:
        return 0
    adj = graph.adjacency
    lower = clique_number_bruteforce(graph)
    upper = _color_classes((1 << n) - 1, _non_neighbours(adj))[-1][1]

    def colorable(n_colors: int) -> bool:
        classes = [0] * n_colors  # bitmask of the vertices of each color

        def solve(uncolored: int, used: int) -> bool:
            if not uncolored:
                return True
            # most saturated uncolored vertex first, ties by degree
            v_best, key_best = -1, (-1, -1)
            for v in _bits(uncolored):
                seen = sum(1 for c in range(used) if classes[c] & adj[v])
                key = (seen, adj[v].bit_count())
                if key > key_best:
                    v_best, key_best = v, key
            v, bit = v_best, 1 << v_best
            # allow at most one previously unused color to break symmetry
            for c in range(min(used + 1, n_colors)):
                if classes[c] & adj[v]:
                    continue
                classes[c] |= bit
                if solve(uncolored ^ bit, max(used, c + 1)):
                    return True
                classes[c] ^= bit
            return False

        return solve((1 << n) - 1, 0)

    for t in range(max(lower, 1), upper):
        if colorable(t):
            return t
    return upper


def _bits(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def sos_bound(spec: GroupSpec) -> int:
    """Tight bound on the sum of squared expectation moduli over the group.

    The bound equals the clique number; this alias keeps the paper's name
    for it, and the ``analyze`` report (and its goldens) carries both
    fields.
    """
    return clique_number(spec)


def sum_bound(spec: GroupSpec) -> float:
    """Bound on the summed expectations of all elements and their adjoints.

    Only defined for odd prime d: equals twice the clique number times
    ((1 + sqrt(d))/2)^(rank/2).
    """
    if spec.d == 2:
        raise EvenDimension("the expectation-sum bound requires odd prime d")
    half_rank = spec.gamma_rank // 2
    return 2.0 * clique_number(spec) * ((1.0 + math.sqrt(spec.d)) / 2.0) ** half_rank


def concrete_elements(spec: GroupSpec) -> list[tuple[Index, PauliOperator]]:
    """All d^k elements as ordered generator products, phases exact.

    Element I is T_1^{I_1} * ... * T_k^{I_k} with ascending generator
    index, multiplied out by ``ordered_products``; for odd d they have d-th
    power one.  Refused past ``VERTEX_CAP`` elements.
    """
    if spec.generators is None:
        raise ValueError("concrete generators are required")
    check_size(spec.n_elements, VERTEX_CAP, "group elements")
    if not spec.generators:  # the trivial group: the identity on no sites
        return [((), PauliOperator(spec.d, (), ()))]
    indices = element_indices(spec.d, spec.k)
    A, B, units = ordered_products(spec.generators, indices)
    return [
        (tuple(I), PauliOperator(spec.d, tuple(a), tuple(b), u))
        for I, a, b, u in zip(indices.tolist(), A, B, units)
    ]
