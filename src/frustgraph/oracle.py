"""Dense complex-matrix brute force for verifying every closed form.

Nothing in this module is needed to compute the bounds or the
entanglement measures; it exists to check them numerically at desk scale.
The symbolic layer predicts phases, commutators, extremal eigenvalues and
product-state overlaps, and the routines here rebuild the same quantities
from explicit complex vectors and matrices:

* ``dense_pauli``       faithful matrix realisation of a symbolic operator
* ``verify_swap_identity``  the two-qudit swap as a normalised Weyl sum
* ``max_sos``           maximise sum |<A>|^2 over the group, two ways
* ``max_sum_eigenvalue``    top eigenvalue of sum (A + A^dagger)
* ``max_product_overlap``   alternating product-state ascent on the code space
* ``max_product_overlaps``  the same ascent for many cuts, stacked per cut size
* ``lagrange_extremum`` the scalar maximum (1 + 1/sqrt(d))/2, an eigenvalue
* ``theta_state``       the single-site state saturating the energy bound
* ``theta_energy``      its Weyl sum sum_ij <X^i Z^j>, the bound it attains

The optimisers never build an operator's d^n x d^n matrix.  X^a Z^b maps
basis state |y> to omega^{b.y} |y + a>, so on a vector it is a gather
plus a phase, A psi = ph * psi[idx], at O(d^n) cost; ``_action_tables``
is the one place that turns exponent arrays into idx and exact phases,
for many operators at once.  ``max_sos`` applies that way the d^r
products of the r independent generators, one per Pauli part of the
group, each weighed by the d^(k-r) elements that share it;
``dense_pauli`` scatters one operator's row.  ``_power_tables`` holds
every power g^s of a list of operators.  ``max_sos`` refines a single
vector into its commuting witness through them, and ``_group_sum`` forms
every group sum from them: the sum over all d^k ordered products
T_1^I_1 ... T_k^I_k is the product of the k factors sum_s T_i^s, each d
gathers.  ``stabilizer_projector`` applies
it to the identity, ``theta_energy`` to the theta state over the powers
of X and Z; ``max_sum_eigenvalue`` applies it to one identity
column per place in a coset of the span of the X parts, which gives the
diagonal coset blocks as one stack; ``max_product_overlaps`` runs
stacked cuts and restarts on an exact orthonormal basis of the code
space, the normalised group sums of the least states of the d^(n-k)
cosets where every zero-X element has phase 1, cached per ``Stabilizer``.
Its random starts are drawn on the larger side of each cut.

The optimisers stop at the trivial caps: every |<A>| <= 1, so sum |<A>|^2
is at most the number of elements, and P <= I, so no product overlap
exceeds 1.  A restart within ``tol`` of its cap stops, and the restarts
after it are skipped (for an overlap, a chunk of cuts skips its later
restart blocks once all its cuts are there).
No closed form enters the stop, so a wrong one still shows up as a
mismatch.  Random restarts use a counter-based Philox generator, so
every optimizer run is reproducible from its seed.  Every size cap comes
from ``limits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSubset, EvenDimension, InvalidOption
from .gf import GFMatrix, _row_echelon, check_modulus, nullspace_basis
from .group import GroupSpec, element_indices
from .limits import DENSE_DIM_CAP, ENERGY_DIM_CAP, OVERLAP_DIM_CAP, SWAP_D_CAP, check_size
from .pauli import (
    PauliOperator,
    SiteSubset,
    exponent_tableau,
    omega_units,
    ordered_products,
    phase_modulus,
)
from .stabilizer import Stabilizer

# complex entries one chunk of the stacked overlap ascent may allocate
_OVERLAP_ENTRIES = 2 ** 16

# named tolerances, also surfaced by the test suite
SWAP_TOLERANCE = 1e-12
FAITHFULNESS_TOLERANCE = 1e-12
HERMITICITY_TOLERANCE = 1e-12
BOUND_TOLERANCE = 1e-9
OVERLAP_TOLERANCE = 1e-6
LAGRANGE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart/iteration budget for the numeric maximisations."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (self.restarts, self.max_iters, self.seed)
        if not all(isinstance(v, (int, np.integer)) for v in counts):
            raise InvalidOption("restarts, max_iters and seed must be integers")
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidOption("restarts and max_iters must be at least 1")
        if self.seed < 0:
            raise InvalidOption("seed must be non-negative")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidOption("tol must be finite and positive")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))


def dense_pauli(op: PauliOperator) -> np.ndarray:
    """Exact tensor-product matrix of a symbolic operator, phase included."""
    dim = check_size(op.d ** op.n_sites, DENSE_DIM_CAP, "basis states")
    idx, ph = _action_tables(*exponent_tableau([op]), [op.phase_exp], op.d)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[np.arange(dim), idx[0]] = ph[0]
    return out


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count successive ``_random_unit`` draws, stacked as rows."""
    return np.stack([_random_unit(rng, dim) for _ in range(count)])


def verify_swap_identity(d: int) -> float:
    """Max entrywise deviation of the Weyl sum (1/d) sum X^i Z^j (x) (X^i Z^j)^dagger
    from the two-qudit swap; exact up to rounding, so the result should be
    below SWAP_TOLERANCE."""
    d = check_size(check_modulus(d), SWAP_D_CAP, "levels per site of the swap check")
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            w = dense_pauli(PauliOperator(d, (i,), (j,)))
            acc += np.kron(w, w.conj().T)
    acc /= d
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, -1)  # ab -> ba
    return float(np.max(np.abs(acc - swap)))


def _action_tables(A, B, units, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and phases of operators on the d^n basis states.

    Operator i is zeta^units[i] X^A[i] Z^B[i], with (m, n) exponent arrays
    A and B.  Returns (m, d^n) arrays idx and ph with A_i psi ==
    ph[i] * psi[idx[i]], site 1 the most significant digit as in a
    Kronecker product.  Output state x comes from y = x - a; its phase is
    zeta^t with t = units[i] + omega_units(d, b.y) reduced exactly mod
    ``phase_modulus(d)`` and then looked up in one table of zeta powers.
    The (m, d^n) work arrays are updated in place, so building the tables
    peaks at 32 bytes per entry.
    """
    m, n = A.shape
    states = np.arange(d ** n)
    idx = np.zeros((m, d ** n), dtype=np.int64)
    dot = np.zeros_like(idx)
    for j in range(n):
        y = states // d ** (n - 1 - j) - A[:, j : j + 1]
        y %= d
        idx *= d
        idx += y
        dot += B[:, j : j + 1] * y
        dot %= d
    del y
    modulus = phase_modulus(d)
    dot = omega_units(d, dot)
    dot += np.asarray(units, dtype=np.int64)[:, None]
    dot %= modulus
    zeta = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    return idx, zeta[dot]


def _power_tables(ops, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Action tables of every power: [i, s] of the (len(ops), d, d^n) idx and ph is ops[i]^s."""
    k = len(ops)
    powers = np.kron(np.eye(k, dtype=np.int64), np.arange(d)[:, None])  # row i*d + s
    idx, ph = _action_tables(*ordered_products(ops, powers), d)
    return idx.reshape(k, d, -1), ph.reshape(k, d, -1)


def _group_sum(tables, cols: np.ndarray) -> np.ndarray:
    """Sum over the group of A @ cols, from the ``_power_tables`` of its generators.

    The elements are the ordered products T_1^I_1 ... T_k^I_k, so the sum
    is F_1 F_2 ... F_k with F_i = sum_s T_i^s, d gathers each.  F_k acts
    first: starting from F_1 would give the adjoint of the sum instead.
    """
    for gather, phase in zip(*(t[::-1] for t in tables)):
        cols = np.einsum("sx,sx...->x...", phase, cols[gather])  # sum_s T^s cols
    return cols


def _commuting_witness(spec: GroupSpec) -> np.ndarray:
    """A joint eigenvector of a maximal mutually commuting subgroup.

    The subgroup is generated by the first member of every canonical-form
    pair together with the kernel directions.  Starting from the first
    basis state, each generator B in turn splits the vector into its parts
    in the d eigenspaces, through the exact eigenprojectors
    (1/d) sum_s omega^{-ts} B^s applied by the action tables, and the
    largest part is kept.  The parts are orthogonal and sum to the vector,
    so the largest has norm at least 1/sqrt(d); the generators commute, so
    later projections keep the earlier eigenvalues.
    """
    d = spec.d
    cf = spec.normal_form
    cols = [2 * i for i in range(cf.m)] + list(range(2 * cf.m, spec.k))
    A, B, _ = ordered_products(spec.generators, cf.O.entries[:, cols].T)
    ops = [PauliOperator(d, tuple(a), tuple(b)).canonical_unit_phase() for a, b in zip(A, B)]

    vec = np.zeros(d ** A.shape[1], dtype=np.complex128)
    vec[0] = 1.0
    for idx, ph in zip(*_power_tables(ops, d)):
        # row t = sum_s omega^{-ts} op^s vec / d, the eigenvalue omega^t part
        parts = np.fft.fft(ph * vec[idx], axis=0) / d
        norms = np.linalg.norm(parts, axis=1)
        t = int(np.argmax(norms))
        vec = parts[t] / norms[t]
    return vec


def max_sos(spec: GroupSpec, cfg: OptimizerConfig | None = None) -> float:
    """Largest found value of sum over all group elements of |<A>|^2.

    Returns the better of (a) a self-consistent fixed-point iteration
    psi <- normalize(sum <A>* A psi) over random restarts, and (b) the
    exact value at a joint eigenvector of a maximal commuting subgroup.
    Route (b) attains the clique-number bound, so the result equals it up
    to rounding; route (a) is the independent heuristic check from below.
    A phase never changes |<A>|, and d^(k-r) elements share each Pauli part,
    so only the d^r products of the r independent generators (the pivots of
    eliminating [A | B]^T) act, through tables refused past d^r d^n =
    DENSE_DIM_CAP^2 entries; the value is d^(k-r) times theirs, the
    fixed-point step the same direction.  No state beats the element count
    d^k, as |<A>| <= 1: a restart stops once its value moves less than
    ``cfg.tol`` or comes within it of that cap, and one at the cap ends the run.
    """
    cfg = cfg or OptimizerConfig()
    if spec.generators is None:
        raise ValueError("max_sos needs concrete generators")
    d, gens = spec.d, spec.generators
    pivots = _row_echelon(GFMatrix(np.hstack(exponent_tableau(gens)).T, d))[1] if gens else []
    if not pivots:  # every element is a phase times 1, and <1> = 1 in any state
        return float(spec.n_elements)
    dim = check_size(d ** gens[0].n_sites, DENSE_DIM_CAP, "basis states")
    r = len(pivots)
    check_size(d ** r * dim, DENSE_DIM_CAP ** 2, "action-table entries")
    span = [gens[i] for i in pivots]
    idx, ph = _action_tables(*ordered_products(span, element_indices(d, r)), d)
    weight = d ** (spec.k - r)  # elements per Pauli part
    at_cap = spec.n_elements - cfg.tol  # a value this high certifies the maximum

    def evaluate(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Rows A psi, expectations <psi|A|psi> and the weighted sum of squares."""
        applied = ph * psi[idx]
        ev = applied @ psi.conj()
        return applied, ev, weight * float(np.sum(np.abs(ev) ** 2))

    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        applied, ev, value = evaluate(_random_unit(rng, dim))
        for _ in range(cfg.max_iters):
            if value >= at_cap:
                break
            phi = ev.conj() @ applied
            norm = np.linalg.norm(phi)
            if norm < 1e-300:
                break
            applied, ev, new_value = evaluate(phi / norm)
            moved, value = abs(new_value - value), new_value
            if moved < cfg.tol:
                break
        best = max(best, value)
        if best >= at_cap:
            break
    return float(max(best, evaluate(_commuting_witness(spec))[2]))


def _coset_labels(gathers: np.ndarray) -> np.ndarray:
    """Least state in each state's coset of the X span, a running min over the power gathers."""
    label = np.arange(gathers.shape[-1])
    for shifts in gathers:  # [s] gathers x - s a
        label = label[shifts].min(axis=0)
    return label


def max_sum_eigenvalue(spec: GroupSpec) -> float:
    """Top eigenvalue of H = sum over the group of (A + A^dagger), odd d.

    Elements carry their exact product phases, so H is Hermitian by
    construction.  X^a Z^b maps the coset y + span(X parts) to itself, so
    H is block diagonal: each basis state is labelled by the least state
    of its coset (``_coset_labels``).  Column j of the identity stack
    holds the j-th state of every coset; every factor of ``_group_sum``
    keeps each coset to itself, so the sum applied to it reads off every
    coset block at once, and one ``eigvalsh`` diagonalises the (cosets, s,
    s) stack.  The value is returned as found, also where it exceeds
    ``sum_bound``.
    """
    if spec.d == 2:
        raise EvenDimension("the expectation-sum Hamiltonian requires odd d")
    if spec.generators is None:
        raise ValueError("max_sum_eigenvalue needs concrete generators")
    if spec.k == 0:
        return 2.0
    d = spec.d
    dim = check_size(d ** spec.generators[0].n_sites, ENERGY_DIM_CAP,
                     "basis states of the energy check")
    tables = _power_tables(spec.generators, d)
    label = _coset_labels(tables[0])
    size = dim // int(np.count_nonzero(label == np.arange(dim)))
    order = np.argsort(label, kind="stable")  # coset by coset, each in state order
    eye = np.zeros((dim, size), dtype=np.complex128)
    eye[order, np.arange(dim) % size] = 1.0
    half = _group_sum(tables, eye)[order].reshape(-1, size, size)
    return float(np.linalg.eigvalsh(half + half.conj().transpose(0, 2, 1))[:, -1].max())


def stabilizer_projector(stab: Stabilizer) -> np.ndarray:
    """Dense projector onto the stabilized subspace, ``_group_sum`` of the identity over d^k."""
    stab.validate()
    dim = check_size(stab.d ** stab.n_sites, DENSE_DIM_CAP, "basis states")
    tables = _power_tables(stab.generators, stab.d)
    proj = _group_sum(tables, np.eye(dim, dtype=np.complex128)) / stab.d ** stab.k
    if np.max(np.abs(proj - proj.conj().T)) > HERMITICITY_TOLERANCE:
        raise RuntimeError("stabilizer projector is not Hermitian")
    if np.max(np.abs(proj @ proj - proj)) > HERMITICITY_TOLERANCE:
        raise RuntimeError("stabilizer projector is not idempotent")
    return proj


def _code_basis(stab: Stabilizer) -> np.ndarray:
    """Exact orthonormal d^n x d^(n-k) code-space basis, C-contiguous, cached on ``stab``.

    X^a Z^b maps e_x to a phase times e_{x+a}, so the group sum of e_x is a
    phase times that of the least state y of its coset, and is nonzero
    exactly when every zero-X element (the products over the kernel of
    A^T) acts on y with phase 1.  Cosets have disjoint supports, so these
    sums, normalised, are the basis; refused unless there are d^(n-k).
    """
    stab.validate()
    if stab._code_basis is None:
        d, k = stab.d, stab.k
        dim = check_size(d ** stab.n_sites, DENSE_DIM_CAP, "basis states")
        tables = _power_tables(stab.generators, d)
        kernel = np.array(nullspace_basis(GFMatrix(stab._A.T, d)), dtype=np.int64).reshape(-1, k)
        _, ph = _action_tables(*ordered_products(stab.generators, kernel), d)
        reps = np.flatnonzero(_coset_labels(tables[0]) == np.arange(dim))
        reps = reps[np.all(ph[:, reps] == 1, axis=0)]  # zeta^0 is exactly 1
        if reps.size != dim // d ** k:
            raise RuntimeError(f"{reps.size} coset vectors span the code, expected {dim // d ** k}")
        cols = np.zeros((dim, reps.size), dtype=np.complex128)
        cols[reps, np.arange(reps.size)] = 1.0
        basis = _group_sum(tables, cols)
        stab._code_basis = np.ascontiguousarray(basis / np.linalg.norm(basis, axis=0))
    return stab._code_basis


def _top_left(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalues of w w^dagger over a stack w, and unit eigenvectors.

    Works on the smaller Gram matrix g of w w^dagger and w^dagger w (w maps
    eigenvectors of the second to the first).  If tr g > 0 and g g = c g for
    c = ||g||_F^2 / tr g, g is c times a projector: c is its top eigenvalue
    and its column of largest diagonal a top eigenvector.  Only the other
    members of the stack go to one ``eigh``.
    """
    small = w.shape[2] < w.shape[1]
    g = w.conj().transpose(0, 2, 1) @ w if small else w @ w.conj().transpose(0, 2, 1)
    diag = np.einsum("sii->si", g).real
    trace = diag.sum(axis=1)
    slack = g @ g  # g is Hermitian, so tr(g g) = ||g||_F^2
    vals = np.einsum("sii->s", slack).real / np.where(trace > 0, trace, 1)
    vecs = g[np.arange(len(g)), :, np.argmax(diag, axis=1)]
    slack -= vals[:, None, None] * g
    slack = np.abs(slack).max(axis=(1, 2))
    rest = np.flatnonzero((trace <= 0) | (slack > 1e-13 * np.maximum(vals, 1) ** 2))
    if rest.size:
        top, eigvecs = np.linalg.eigh(g[rest])
        vals[rest], vecs[rest] = top[:, -1], eigvecs[:, :, -1]
    if small:
        vecs = (w @ vecs[:, :, None])[:, :, 0]
    pairs = vecs.view(np.float64)  # real and imaginary parts, without a copy
    norms = np.sqrt(np.einsum("si,si->s", pairs, pairs))
    vecs[norms == 0, 0] = 1.0  # w = 0: every unit vector is a top eigenvector
    vecs /= np.where(norms > 0, norms, 1.0)[:, None]
    return vals, vecs


def max_product_overlap(
    stab: Stabilizer, subset: SiteSubset, cfg: OptimizerConfig | None = None
) -> float:
    """Best overlap <psi|P|psi> over states product across Q | complement.

    Alternating maximisation: with one factor fixed, the optimum of the
    other is the top eigenvector of the partially contracted projector.
    With P = V V^dagger for the cached code basis V, contracting V with
    the fixed factor gives a matrix W whose W W^dagger is that contracted
    projector.  P <= I, so no overlap exceeds 1: each restart stops once
    its value moves less than ``cfg.tol`` or comes within ``cfg.tol`` of
    1.  The result is a certified lower bound on the true maximum; with
    restarts it reaches it for the desk-scale cases tested here.
    """
    return max_product_overlaps(stab, [subset], cfg)[0]


def max_product_overlaps(
    stab: Stabilizer, subsets: list[SiteSubset], cfg: OptimizerConfig | None = None
) -> list[float]:
    """``max_product_overlap`` of every cut, one stacked ascent per cut size.

    The Q | Q^c problem is symmetric, so each cut is keyed by its smaller
    side and the random starts are drawn on the larger one; cuts of sizes
    s and n - s share one ascent.  Every cut size restarts ``cfg.rng()``,
    so cuts of one size share their starts and advance together.  A chunk
    holds as many cuts and restarts as fit in _OVERLAP_ENTRIES complex
    entries, and at least one of each (``_overlap_chunk``).  So beside V
    it allocates at most that budget, or, where one cut and one restart
    do not fit in it, one cut's two layouts of V (2 d^n width entries)
    plus one restart's W and Gram matrices: 9.6 MB against the 1 MiB
    budget at d = 3, n = 6, k = 1.  A chunk's layouts are built once
    (``_overlap_layouts``) and serve its restarts block by block; each
    block's starts are drawn once per cut size.  A chunk stops once the
    overlaps of all its cuts have come within ``cfg.tol`` of 1.
    """
    cfg = cfg or OptimizerConfig()
    stab.validate()
    d, n = stab.d, stab.n_sites
    dim = check_size(d ** n, OVERLAP_DIM_CAP, "basis states of the overlap check")
    for subset in subsets:
        if subset.n_sites != n:
            raise BadSubset(f"subset is over {subset.n_sites} sites, need {n}")
        if not subset.is_proper:
            raise BadSubset("bipartition side must be a proper subset")

    basis = _code_basis(stab)
    width = basis.shape[1]
    # key each cut by its smaller side (on a tie, the one holding site 1)
    sides = [min(q, q.complement(), key=lambda s: (s.size, s.indices[0])) for q in subsets]
    best = [0.0] * len(subsets)
    for size in sorted({side.size for side in sides}):
        big = dim // d ** size
        block, step, _ = _overlap_chunk(dim, big, width, cfg.restarts)
        cuts = [i for i, side in enumerate(sides) if side.size == size]
        rng, starts = cfg.rng(), []  # each block's starts, drawn when first needed
        for chunk in (cuts[i : i + step] for i in range(0, len(cuts), step)):
            layouts = _overlap_layouts(basis, d, [sides[i] for i in chunk])
            # a chunk of several blocks holds one cut: at 1 it skips the rest
            for b, first in enumerate(range(0, cfg.restarts, block)):
                if all(best[i] >= 1 - cfg.tol for i in chunk):
                    break
                if b == len(starts):
                    starts.append(_random_units(rng, min(block, cfg.restarts - first), big))
                values = _overlap_ascent(*layouts, starts[b], cfg)
                for i, value in zip(chunk, values.max(axis=1)):
                    best[i] = max(best[i], float(value))
    return best


def _overlap_chunk(dim: int, big: int, width: int, restarts: int) -> tuple[int, int, int]:
    """Restarts per block, cuts per chunk and the complex entries one chunk allocates.

    ``big`` is the dimension of a cut's larger side and ``width`` that of
    the code space.  The count is within _OVERLAP_ENTRIES unless one cut
    and one restart alone exceed it.
    """
    # a cut's two code layouts; a restart's larger W, its conjugate,
    # four Gram-sized arrays and four factor vectors
    per_cut = 2 * dim * width
    per_restart = 2 * big * (width + 2) + 4 * min(big, width) ** 2
    block = min(restarts, max(1, (_OVERLAP_ENTRIES - per_cut) // per_restart))
    step = max(1, _OVERLAP_ENTRIES // (per_cut + block * per_restart))
    return block, step, step * (per_cut + block * per_restart)


def _overlap_layouts(basis, d: int, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Each cut's two permuted copies of the code basis, for cuts of one size.

    by_q is (cut, dim_q, dim_rest * width) with the sites of Q leading, and
    by_rest is (cut, dim_rest, dim_q * width) with the other sites leading.
    """
    n = subsets[0].n_sites
    dim_q = d ** subsets[0].size
    dim_rest = d ** n // dim_q
    tensor = basis.reshape((d,) * n + (-1,))
    by_q = np.empty((len(subsets), dim_q, basis.size // dim_q), dtype=np.complex128)
    by_rest = np.empty((len(subsets), dim_rest, basis.size // dim_rest), dtype=np.complex128)
    for c, subset in enumerate(subsets):
        q_axes = [j - 1 for j in subset.indices]
        rest_axes = [j for j in range(n) if j not in q_axes]
        by_q[c].reshape(tensor.shape)[...] = tensor.transpose(q_axes + rest_axes + [n])
        by_rest[c].reshape(tensor.shape)[...] = tensor.transpose(rest_axes + q_axes + [n])
    return by_q, by_rest


def _overlap_ascent(by_q, by_rest, starts, cfg: OptimizerConfig) -> np.ndarray:
    """Final (cut, restart) values of the ascent from ``starts`` on the ``_overlap_layouts``.

    Each half-step is one batched matrix product over the layouts.  An
    entry stops once its value moves less than ``cfg.tol`` or comes within
    ``cfg.tol`` of 1.
    """
    (cuts, dim_q, _), (count, dim_rest) = by_q.shape, starts.shape
    chi = np.repeat(starts[None], cuts, axis=0)
    value = np.full((cuts, count), -1.0)
    live = np.ones((cuts, count), dtype=bool)
    for _ in range(cfg.max_iters):
        _, phi = _top_left((chi.conj() @ by_rest).reshape(cuts * count, dim_q, -1))
        phi = phi.reshape(cuts, count, dim_q).conj()
        new_value, new_chi = _top_left((phi @ by_q).reshape(cuts * count, dim_rest, -1))
        new_value = new_value.reshape(cuts, count)
        done = (np.abs(new_value - value) < cfg.tol) | (new_value >= 1 - cfg.tol)
        np.copyto(value, new_value, where=live)  # a stopped entry's chi no longer counts
        chi = new_chi.reshape(chi.shape)
        live &= ~done
        if not live.any():
            break
    return value


def lagrange_extremum(d: int) -> float:
    """Maximum of (1/sqrt(d)) sum_i |a_i| |a_0| over unit vectors a.

    The objective is r^T Q r / sqrt(d) in r = |a|, with the quadratic form
    Q = (e_0 1^T + 1 e_0^T) / 2; the top eigenvector of Q is nonnegative, so
    the maximum is its top eigenvalue over sqrt(d), (1 + 1/sqrt(d))/2.
    """
    d = check_size(check_modulus(d), DENSE_DIM_CAP, "levels per site of the lagrange check")
    if d == 2:
        raise EvenDimension("the extremum is used for odd d only")
    quad = np.zeros((d, d))
    quad[0] += 0.5
    quad[:, 0] += 0.5
    return float(np.linalg.eigvalsh(quad)[-1] / math.sqrt(d))


def theta_state(d: int) -> np.ndarray:
    """Single-site unit vector saturating the odd-d energy bound.

    Coefficient sqrt((1 + sqrt(d)) / (2 sqrt(d))) on the first basis
    state and 1/sqrt(2 sqrt(d) (1 + sqrt(d))) on each of the others; the
    full Weyl sum sum_ij <X^i Z^j> evaluates to (d/2)(1 + sqrt(d)) on it.
    Refused past ``ENERGY_DIM_CAP`` levels, as its energy check is.
    """
    d = check_size(check_modulus(d), ENERGY_DIM_CAP, "levels per site of the theta check")
    if d == 2:
        raise EvenDimension("the saturating state exists for odd d only")
    root = math.sqrt(d)
    vec = np.full(d, 1.0 / math.sqrt(2 * root * (1 + root)), dtype=np.complex128)
    vec[0] = math.sqrt((1 + root) / (2 * root))
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise RuntimeError("saturating state failed its normalisation check")
    return vec


def theta_energy(d: int) -> float:
    """The Weyl sum sum_ij <X^i Z^j> at ``theta_state(d)``, by ``_group_sum`` over X and Z."""
    vec = theta_state(d)
    tables = _power_tables([PauliOperator.x(d), PauliOperator.z(d)], d)
    return float(np.vdot(vec, _group_sum(tables, vec)).real)
