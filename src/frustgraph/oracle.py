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
* ``max_product_overlap``   top Schmidt weight of a state, product-state ascent on a code
* ``max_product_overlaps``  the same for many cuts, stacked per cut size
* ``lagrange_extremum`` the scalar maximum (1 + 1/sqrt(d))/2, an eigenvalue
* ``theta_state``       the single-site state saturating the energy bound
* ``theta_energy``      its Weyl sum sum_ij <X^i Z^j>, the bound it attains

The optimisers never build an operator's d^n x d^n matrix.  X^a Z^b maps
basis state |y> to omega^{b.y} |y + a>, so on a vector it is a gather plus
a phase, A psi = ph * psi[idx], at O(d^n) cost; ``_action_tables`` is the
one place that turns exponent arrays into idx and exact phases, for many
operators at once.  ``max_sos`` applies that way the d^r products of the r
independent generators, one per Pauli part of the group, each weighed by
the d^(k-r) elements that share it; ``dense_pauli`` scatters one
operator's row.  ``_power_tables`` holds every power g^s of a list of
operators.  ``max_sos`` refines a single vector into its commuting witness
through them, and ``_group_sum`` forms every group sum from them: the sum
over all d^k ordered products T_1^I_1 ... T_k^I_k is the product of the k
factors sum_s T_i^s, each d gathers.  ``stabilizer_projector`` applies it
to the identity, ``theta_energy`` to the theta state over the powers of X
and Z; ``max_sum_eigenvalue`` applies it to one identity column per place
in a coset of the span of the X parts, which gives the diagonal coset
blocks as one stack; ``max_product_overlaps`` works on an exact
orthonormal basis of the code space, cached per ``Stabilizer``
(``_code_basis``).  For a state (k = n) it reads every cut's top Schmidt
weight off that one column, with no restart or seed; for a code it runs
stacked cuts and restarts in two phases, restart 0 of every cut and then
the others of the cuts still below 1.

The optimisers stop at the trivial caps: every |<A>| <= 1, so sum |<A>|^2
is at most the number of elements, and P <= I, so no product overlap
exceeds 1.  A restart within ``tol`` of its cap stops, and the restarts
after it are skipped.  No closed form enters the stop, so a wrong one
still shows up as a mismatch.  Random restarts use a counter-based Philox
generator, so every optimizer run is reproducible from its seed.  Every
size cap comes from ``limits``.
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


def _random_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count random unit rows of one draw, each its real and then its imaginary parts."""
    parts = rng.normal(size=(count, 2, dim))
    rows = parts[:, 0] + 1j * parts[:, 1]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _random_units(rng, 1, dim)[0]


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


def _power_tables(ops, d: int, products=None):
    """Action tables of every power: [i, s] of the (len(ops), d, d^n) idx and ph is ops[i]^s.

    The phases of ``products``, exponent rows over ops, come third from the same table call.
    """
    k = len(ops)
    rows = np.kron(np.eye(k, dtype=np.int64), np.arange(d)[:, None])  # row i*d + s
    rows = rows if products is None else np.vstack([rows, products])
    idx, ph = _action_tables(*ordered_products(ops, rows), d)
    tables = idx[: k * d].reshape(k, d, -1), ph[: k * d].reshape(k, d, -1)
    return tables if products is None else (tables, ph[k * d :])


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
    if stab._code_basis is None:
        d, k = stab.d, stab.k
        dim = check_size(d ** stab.n_sites, DENSE_DIM_CAP, "basis states")
        kernel = np.array(nullspace_basis(GFMatrix(stab._A.T, d)), dtype=np.int64).reshape(-1, k)
        tables, ph = _power_tables(stab.generators, d, kernel)
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

    For a state (k = n, P = |s><s|) it is the exact top squared Schmidt
    coefficient of s, and ``cfg`` does not enter.  For a code it is an
    alternating maximisation: with one factor fixed, the other is the top
    eigenvector of W W^dagger, W the code basis V (P = V V^dagger)
    contracted with it.  P <= I, so a restart stops within ``cfg.tol`` of
    1 or once its value moves less than that.  The result is a certified
    lower bound; restarts bring it to the maximum in the cases tested here.
    """
    return max_product_overlaps(stab, [subset], cfg)[0]


def max_product_overlaps(
    stab: Stabilizer, subsets: list[SiteSubset], cfg: OptimizerConfig | None = None
) -> list[float]:
    """``max_product_overlap`` of every cut, stacked per cut size.

    Each cut is keyed by its smaller side.  A state's value is the top
    eigenvalue of w w^dagger, w the cut's by_q layout of its one column.
    For a code, restart r starts from the r-th draw, on the larger side,
    of one ``cfg.rng()`` stream per cut size: restart 0 runs for every
    cut, restarts 1 .. R-1 for the cuts still below 1 - ``cfg.tol``.  A
    chunk holds as many cuts and restarts as fit in _OVERLAP_ENTRIES
    complex entries, and at least one of each (``_overlap_chunk``), so one
    cut at d=3, n=6, k=1 takes 9.6 MB.  It builds its two layouts once and
    runs its restarts on them block by block until all its cuts are at 1.
    """
    cfg = cfg or OptimizerConfig()
    d, n = stab.d, stab.n_sites
    dim = check_size(d ** n, OVERLAP_DIM_CAP, "basis states of the overlap check")
    for subset in subsets:
        if subset.n_sites != n:
            raise BadSubset(f"subset is over {subset.n_sites} sites, need {n}")
        if not subset.is_proper:
            raise BadSubset("bipartition side must be a proper subset")

    basis = _code_basis(stab)
    width, tensor = basis.shape[1], basis.reshape((d,) * n + (-1,))
    # the sites of each cut's smaller side (on a tie, the one holding site 1)
    sides = [min(q.indices, q.complement().indices, key=lambda s: (len(s), s[0])) for q in subsets]
    best = np.zeros(len(subsets))
    for size in sorted({len(side) for side in sides}):
        big = dim // d ** size
        cuts = [i for i, side in enumerate(sides) if len(side) == size]
        if width == 1:  # a state: its by_q layout is one restart's W, and no V layout is built
            step = _overlap_chunk(0, d ** size, big, 1)[1]
            for chunk in (cuts[i : i + step] for i in range(0, len(cuts), step)):
                best[chunk] = _top_left(_overlap_layout(tensor, [sides[i] for i in chunk]))[0]
            continue
        rng = cfg.rng()
        for count in (1, cfg.restarts - 1):  # restart 0 of every cut, then the rest below 1
            cuts = [i for i in cuts if best[i] < 1 - cfg.tol]
            if not (count and cuts):
                break
            block, step, _ = _overlap_chunk(dim, big, width, count)
            starts = []  # each block's starts, drawn when first needed
            for chunk in (cuts[i : i + step] for i in range(0, len(cuts), step)):
                by_q = _overlap_layout(tensor, [sides[i] for i in chunk])
                by_rest = by_q.reshape(len(chunk), dim // big, big, width).transpose(0, 2, 1, 3)
                by_rest = by_rest.reshape(len(chunk), big, -1)  # a copy, the other sites first
                # a chunk of several blocks holds one cut: at 1 it skips the rest
                for b, first in enumerate(range(0, count, block)):
                    if np.all(best[chunk] >= 1 - cfg.tol):
                        break
                    if b == len(starts):
                        starts.append(_random_units(rng, min(block, count - first), big))
                    values = _overlap_ascent(by_q, by_rest, starts[b], cfg).max(axis=1)
                    best[chunk] = np.maximum(best[chunk], values)
                del by_q, by_rest  # freed before the next chunk builds its own
    return best.tolist()


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


def _overlap_layout(tensor, sides) -> np.ndarray:
    """by_q of cuts Q of one size, listed by sites: the (d,)*n + (width,) basis with Q first."""
    n, dim_q = tensor.ndim - 1, tensor.shape[0] ** len(sides[0])
    by_q = np.empty((len(sides), dim_q, tensor.size // dim_q), dtype=np.complex128)
    for layout, side in zip(by_q, sides):
        q_axes = [j - 1 for j in side]
        rest_axes = [j for j in range(n) if j not in q_axes]
        layout.reshape(tensor.shape)[...] = tensor.transpose(q_axes + rest_axes + [n])
    return by_q


def _overlap_ascent(by_q, by_rest, starts, cfg: OptimizerConfig) -> np.ndarray:
    """Final (cut, restart) values of the ascent from ``starts`` on the by_q and by_rest layouts.

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
