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
* ``lagrange_extremum`` the scalar maximum (1 + 1/sqrt(d))/2 found numerically
* ``theta_state``       the single-site state saturating the energy bound

The optimisers never build an operator's d^n x d^n matrix.  X^a Z^b maps
basis state |y> to omega^{b.y} |y + a>, so on a vector it is a gather
plus a phase, A psi = ph * psi[idx], at O(d^n) cost; ``_action_tables``
derives idx and the exact phase exponents of many operators at once from
their integer exponents.  ``max_sos`` applies every group element that
way, ``max_sum_eigenvalue`` and ``stabilizer_projector`` scatter the same
tables into one dense sum, and ``max_product_overlap`` works on an
orthonormal basis of the code space, the unit-eigenvalue eigenvectors of
``stabilizer_projector``, built once per ``Stabilizer`` and cached on it.

Random restarts use a counter-based Philox generator, so every optimizer
run is reproducible from its seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSubset, EvenDimension, InvalidOption, TooLarge
from .gf import check_modulus
from .group import GroupSpec, concrete_elements, sum_bound
from .pauli import (
    PauliOperator,
    SiteSubset,
    omega_units,
    ordered_product,
    phase_modulus,
)
from .stabilizer import Stabilizer
from .symplectic import canonical_form

DENSE_DIM_CAP = 4096
ENERGY_DIM_CAP = 1024
OVERLAP_DIM_CAP = 1024
SWAP_D_CAP = 11
# entries per block of action tables scattered into a dense element sum
_TABLE_ENTRIES = 2 ** 20

# named tolerances, also surfaced by the test suite
SWAP_TOLERANCE = 1e-12
FAITHFULNESS_TOLERANCE = 1e-12
HERMITICITY_TOLERANCE = 1e-12
EIGEN_RESIDUAL_TOLERANCE = 1e-9
BOUND_TOLERANCE = 1e-9
OVERLAP_TOLERANCE = 1e-6
LAGRANGE_TOLERANCE = 1e-6
RANK_CUTOFF = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart/iteration budget for the numeric maximisations."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise InvalidOption("restarts must be at least 1")
        if self.tol <= 0:
            raise InvalidOption("tol must be positive")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))


@functools.lru_cache(maxsize=None)
def _site_matrix(d: int, a: int, b: int) -> np.ndarray:
    """Dense d x d matrix of X^a Z^b; cached and marked read-only."""
    out = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        out[(j + a) % d, j] = np.exp(2j * np.pi * ((b * j) % d) / d)
    out.setflags(write=False)
    return out


def dense_pauli(op: PauliOperator) -> np.ndarray:
    """Exact tensor-product matrix of a symbolic operator, phase included."""
    dim = op.d ** op.n_sites
    if dim > DENSE_DIM_CAP:
        raise TooLarge(f"dense dimension {dim} exceeds {DENSE_DIM_CAP}")
    out = np.ones((1, 1), dtype=np.complex128)
    for a_j, b_j in zip(op.a, op.b):
        out = np.kron(out, _site_matrix(op.d, a_j, b_j))
    return op.phase * out


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def verify_swap_identity(d: int) -> float:
    """Max entrywise deviation of the Weyl sum (1/d) sum X^i Z^j (x) (X^i Z^j)^dagger
    from the two-qudit swap; exact up to rounding, so the result should be
    below SWAP_TOLERANCE."""
    d = check_modulus(d)
    if d > SWAP_D_CAP:
        raise TooLarge(f"d = {d} exceeds the swap-check cap of {SWAP_D_CAP}")
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            w = _site_matrix(d, i, j)
            acc += np.kron(w, w.conj().T)
    acc /= d
    swap = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            swap[b * d + a, a * d + b] = 1.0
    return float(np.max(np.abs(acc - swap)))


def _action_tables(ops, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and phases of operators on the d^n basis states.

    Returns (m, d^n) arrays idx and ph with A_i psi == ph[i] * psi[idx[i]]
    for the i-th of m operators, site 1 the most significant digit as in
    ``dense_pauli``.  Output state x comes from y = x - a; its phase is
    zeta^t with t = phase_exp + omega_units(d, b.y) reduced exactly mod
    ``phase_modulus(d)`` and then looked up in one table of zeta powers.
    """
    ops = tuple(ops)
    A = np.array([op.a for op in ops], dtype=np.int64).reshape(len(ops), n)
    B = np.array([op.b for op in ops], dtype=np.int64).reshape(len(ops), n)
    states = np.arange(d ** n)
    idx = np.zeros((len(ops), d ** n), dtype=np.int64)
    dot = np.zeros_like(idx)
    for j in range(n):
        y = (states // d ** (n - 1 - j) - A[:, j : j + 1]) % d
        idx = idx * d + y
        dot = (dot + B[:, j : j + 1] * y) % d
    modulus = phase_modulus(d)
    units = np.array([op.phase_exp for op in ops], dtype=np.int64)[:, None]
    zeta = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    return idx, zeta[(units + omega_units(d, dot)) % modulus]


def _element_sum(spec: GroupSpec, dim: int) -> np.ndarray:
    """Dense sum of all elements, scattered from their action tables.

    Elements are taken in concrete_elements order, _TABLE_ENTRIES // dim
    at a time, so the tables stay small however many elements there are.
    """
    elements = (op for _, op in concrete_elements(spec))
    total = np.zeros((dim, dim), dtype=np.complex128)
    while chunk := list(itertools.islice(elements, max(1, _TABLE_ENTRIES // dim))):
        idx, ph = _action_tables(chunk, spec.d, spec.generators[0].n_sites)
        np.add.at(total, (np.broadcast_to(np.arange(dim), idx.shape), idx), ph)
    return total


def _commuting_witness(spec: GroupSpec) -> np.ndarray:
    """A joint eigenvector of a maximal mutually commuting subgroup.

    The subgroup is generated by the first member of every canonical-form
    pair together with the kernel directions; the vector is refined
    through the exact eigenprojectors (1/d) sum_s omega^{-ts} B^s of each
    generator in turn, applied through the action tables.
    """
    gens = spec.generators
    d = spec.d
    n = gens[0].n_sites if gens else 0
    dim = d ** n
    cf = canonical_form(spec.gamma)
    cols = [2 * i for i in range(cf.m)] + list(range(2 * cf.m, spec.k))
    subgroup = [
        ordered_product(gens, cf.O.entries[:, c]).canonical_unit_phase()
        for c in cols
    ]

    basis = np.eye(dim, dtype=np.complex128)
    omega = np.exp(2j * np.pi / d)
    for op in subgroup:
        idx, ph = _action_tables([op ** s for s in range(d)], d, n)
        powers = ph[:, :, None] * basis[idx]  # op^s applied to the basis, s in [0, d)
        for t in range(d):
            candidate = np.tensordot(omega ** (-t * np.arange(d)) / d, powers, axes=1)
            u, sing, _ = np.linalg.svd(candidate, full_matrices=False)
            keep = int(np.sum(sing > RANK_CUTOFF))
            if keep:
                basis = u[:, :keep]
                break
        else:
            raise RuntimeError("operator with d-th power 1 has no eigenspace")
    return basis[:, 0]


def max_sos(spec: GroupSpec, cfg: OptimizerConfig | None = None) -> float:
    """Largest found value of sum over all group elements of |<A>|^2.

    Returns the better of (a) a self-consistent fixed-point iteration
    psi <- normalize(sum <A>* A psi) over random restarts, and (b) the
    exact value at a joint eigenvector of a maximal commuting subgroup.
    Route (b) attains the clique-number bound, so the result equals it up
    to rounding; route (a) is the independent heuristic check from below.
    Every element acts through its action table: one gather gives all
    A psi, from which the expectations, the value and the next iterate
    follow.
    """
    cfg = cfg or OptimizerConfig()
    if spec.generators is None:
        raise ValueError("max_sos needs concrete generators")
    if spec.k == 0:
        return 1.0  # only the identity element; <1> = 1 in any state
    n = spec.generators[0].n_sites
    dim = spec.d ** n
    if dim > DENSE_DIM_CAP:
        raise TooLarge(f"dense dimension {dim} exceeds {DENSE_DIM_CAP}")
    idx, ph = _action_tables([op for _, op in concrete_elements(spec)], spec.d, n)

    def evaluate(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Rows A psi, expectations <psi|A|psi> and their sum of squares."""
        applied = ph * psi[idx]
        ev = applied @ psi.conj()
        return applied, ev, float(np.sum(np.abs(ev) ** 2))

    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        applied, ev, value = evaluate(_random_unit(rng, dim))
        for _ in range(cfg.max_iters):
            phi = ev.conj() @ applied
            norm = np.linalg.norm(phi)
            if norm < 1e-300:
                break
            applied, ev, new_value = evaluate(phi / norm)
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return float(max(best, evaluate(_commuting_witness(spec))[2]))


def max_sum_eigenvalue(spec: GroupSpec) -> float:
    """Top eigenvalue of H = sum over the group of (A + A^dagger), odd d.

    Elements carry their exact product phases; H is Hermitian by
    construction and diagonalised densely.
    """
    if spec.d == 2:
        raise EvenDimension("the expectation-sum Hamiltonian requires odd d")
    if spec.generators is None:
        raise ValueError("max_sum_eigenvalue needs concrete generators")
    if spec.k == 0:
        return 2.0
    dim = spec.d ** spec.generators[0].n_sites
    if dim > ENERGY_DIM_CAP:
        raise TooLarge(f"dense dimension {dim} exceeds {ENERGY_DIM_CAP}")
    half = _element_sum(spec, dim)
    ham = half + half.conj().T
    top = float(np.linalg.eigvalsh(ham)[-1])
    if top > sum_bound(spec) + BOUND_TOLERANCE:
        raise RuntimeError(
            f"top eigenvalue {top} exceeds the closed-form bound "
            f"{sum_bound(spec)}"
        )
    return top


def stabilizer_projector(stab: Stabilizer) -> np.ndarray:
    """Dense projector onto the stabilized subspace, (1/d^k) sum of elements."""
    stab.validate()
    dim = stab.d ** stab.n_sites
    if dim > DENSE_DIM_CAP:
        raise TooLarge(f"dense dimension {dim} exceeds {DENSE_DIM_CAP}")
    spec = GroupSpec.from_generators(stab.generators)
    proj = _element_sum(spec, dim) / stab.d ** stab.k
    if np.max(np.abs(proj - proj.conj().T)) > HERMITICITY_TOLERANCE:
        raise RuntimeError("stabilizer projector is not Hermitian")
    if np.max(np.abs(proj @ proj - proj)) > HERMITICITY_TOLERANCE:
        raise RuntimeError("stabilizer projector is not idempotent")
    return proj


def _code_basis(stab: Stabilizer) -> np.ndarray:
    """Orthonormal d^n x d^(n-k) basis of the stabilized subspace.

    Built once per stabilizer and cached on it: the eigenvectors of
    ``stabilizer_projector`` with eigenvalue above 1/2 span the code space.
    """
    stab.validate()
    if stab._code_basis is None:
        vals, vecs = np.linalg.eigh(stabilizer_projector(stab))
        basis = vecs[:, vals > 0.5]
        want = stab.d ** (stab.n_sites - stab.k)
        if basis.shape[1] != want:
            raise RuntimeError(
                f"code projector has {basis.shape[1]} unit eigenvalues, "
                f"expected {want}"
            )
        stab._code_basis = basis
    return stab._code_basis


def _top_left(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue of w w^dagger and a unit eigenvector of it.

    Diagonalises the smaller of w w^dagger and w^dagger w; both share
    their nonzero eigenvalues, and w maps eigenvectors of the second to
    those of the first.
    """
    if w.shape[1] < w.shape[0]:
        vals, vecs = np.linalg.eigh(w.conj().T @ w)
        vec = w @ vecs[:, -1]
        return float(vals[-1]), vec / np.linalg.norm(vec)
    vals, vecs = np.linalg.eigh(w @ w.conj().T)
    return float(vals[-1]), vecs[:, -1]


def max_product_overlap(
    stab: Stabilizer, subset: SiteSubset, cfg: OptimizerConfig | None = None
) -> float:
    """Best overlap <psi|P|psi> over states product across Q | complement.

    Alternating maximisation: with one factor fixed, the optimum of the
    other is the top eigenvector of the partially contracted projector.
    With P = V V^dagger for the cached code basis V, contracting V with
    the fixed factor gives a matrix W whose W W^dagger is that contracted
    projector.  The result is a certified lower bound on the true
    maximum; with restarts it reaches it for the desk-scale cases tested
    here.
    """
    cfg = cfg or OptimizerConfig()
    stab.validate()
    d, n = stab.d, stab.n_sites
    dim = d ** n
    if dim > OVERLAP_DIM_CAP:
        raise TooLarge(f"dense dimension {dim} exceeds {OVERLAP_DIM_CAP}")
    if subset.n_sites != n:
        raise BadSubset(f"subset is over {subset.n_sites} sites, need {n}")
    if not subset.is_proper:
        raise BadSubset("bipartition side must be a proper subset")

    q_axes = [i - 1 for i in subset.indices]
    rest_axes = [i for i in range(n) if i not in set(q_axes)]
    dim_q = d ** len(q_axes)
    code = (
        _code_basis(stab)
        .reshape((d,) * n + (-1,))
        .transpose(q_axes + rest_axes + [n])
        .reshape(dim_q, dim // dim_q, -1)
    )

    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        chi = _random_unit(rng, dim // dim_q)
        value = -1.0
        for _ in range(cfg.max_iters):
            _, phi = _top_left(chi.conj() @ code)
            new_value, chi = _top_left(phi.conj() @ code.transpose(1, 0, 2))
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return float(best)


def lagrange_extremum(d: int, cfg: OptimizerConfig | None = None) -> float:
    """Numeric maximum of (1/sqrt(d)) sum_i |a_i| |a_0| over unit vectors.

    The objective is a nonnegative quadratic form, so projected power
    iteration over random restarts converges to its largest eigenvalue,
    which equals (1 + 1/sqrt(d))/2.
    """
    d = check_modulus(d)
    if d == 2:
        raise EvenDimension("the extremum is used for odd d only")
    cfg = cfg or OptimizerConfig()
    e0 = np.zeros(d)
    e0[0] = 1.0
    ones = np.ones(d)
    quad = (np.outer(e0, ones) + np.outer(ones, e0)) / 2
    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        r = np.abs(rng.normal(size=d)) + 1e-3
        r /= np.linalg.norm(r)
        value = 0.0
        for _ in range(cfg.max_iters):
            nxt = quad @ r
            nxt /= np.linalg.norm(nxt)
            new_value = float(nxt @ quad @ nxt)
            r = nxt
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value / math.sqrt(d))
    return float(best)


def theta_state(d: int) -> np.ndarray:
    """Single-site unit vector saturating the odd-d energy bound.

    Coefficient sqrt((1 + sqrt(d)) / (2 sqrt(d))) on the first basis
    state and 1/sqrt(2 sqrt(d) (1 + sqrt(d))) on each of the others; the
    full Weyl sum sum_ij <X^i Z^j> evaluates to (d/2)(1 + sqrt(d)) on it.
    """
    d = check_modulus(d)
    if d == 2:
        raise EvenDimension("the saturating state exists for odd d only")
    root = math.sqrt(d)
    vec = np.full(d, 1.0 / math.sqrt(2 * root * (1 + root)), dtype=np.complex128)
    vec[0] = math.sqrt((1 + root) / (2 * root))
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise RuntimeError("saturating state failed its normalisation check")
    return vec
