"""Independent dense reference matrices and optimisers for cross-checking.

Deliberately built by a different route than the library's own dense
realisation: single-site matrices come from explicit matrix powers of the
bare shift and clock, and tensor products are accumulated left to right.
The optimisers at the end keep the matrix-by-matrix form of the oracle's
``max_sos`` and ``max_product_overlap``.
"""

from __future__ import annotations

import numpy as np

from frustgraph import GroupSpec, canonical_form, concrete_elements, ordered_product
from frustgraph.oracle import RANK_CUTOFF


def shift(d: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        out[(j + 1) % d, j] = 1.0
    return out


def clock(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag([omega ** j for j in range(d)])


def site(d: int, a: int, b: int) -> np.ndarray:
    return np.linalg.matrix_power(shift(d), a) @ np.linalg.matrix_power(clock(d), b)


def dense(op) -> np.ndarray:
    """Dense matrix of a symbolic operator, built from first principles."""
    out = np.eye(1, dtype=np.complex128)
    for a_j, b_j in zip(op.a, op.b):
        out = np.kron(out, site(op.d, a_j, b_j))
    zeta = 1j if op.d == 2 else np.exp(2j * np.pi / op.d)
    return zeta ** op.phase_exp * out


# The optimiser loops below are the dense matrix-by-matrix routes that the
# oracle's matrix-free ones replaced: every element is a full d^n x d^n
# matrix, and the overlap ascent contracts the full projector.  The same
# RNG stream, restarts and stopping rule make their results comparable.


def group_matrices(spec) -> list[np.ndarray]:
    return [dense(op) for _, op in concrete_elements(spec)]


def sos_value(mats, psi) -> float:
    return float(sum(abs(np.vdot(psi, m @ psi)) ** 2 for m in mats))


def commuting_witness(spec) -> np.ndarray:
    """Joint eigenvector of a maximal commuting subgroup, via dense powers."""
    gens, d = spec.generators, spec.d
    dim = d ** gens[0].n_sites
    cf = canonical_form(spec.gamma)
    cols = [2 * i for i in range(cf.m)] + list(range(2 * cf.m, spec.k))
    basis = np.eye(dim, dtype=np.complex128)
    omega = np.exp(2j * np.pi / d)
    for c in cols:
        op = ordered_product(gens, cf.O.entries[:, c]).canonical_unit_phase()
        powers = [np.linalg.matrix_power(dense(op), s) for s in range(d)]
        for t in range(d):
            projector = sum(omega ** (-t * s) * powers[s] for s in range(d)) / d
            u, sing, _ = np.linalg.svd(projector @ basis, full_matrices=False)
            keep = int(np.sum(sing > RANK_CUTOFF))
            if keep:
                basis = u[:, :keep]
                break
        else:
            raise RuntimeError("operator with d-th power 1 has no eigenspace")
    return basis[:, 0]


def max_sos(spec, cfg) -> float:
    """Fixed-point ascent psi <- normalize(sum <A>* A psi) on dense matrices."""
    mats = group_matrices(spec)
    dim = mats[0].shape[0]
    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = v / np.linalg.norm(v)
        value = sos_value(mats, psi)
        for _ in range(cfg.max_iters):
            phi = np.zeros(dim, dtype=np.complex128)
            for m in mats:
                phi += np.conj(np.vdot(psi, m @ psi)) * (m @ psi)
            norm = np.linalg.norm(phi)
            if norm < 1e-300:
                break
            psi = phi / norm
            new_value = sos_value(mats, psi)
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return float(max(best, sos_value(mats, commuting_witness(spec))))


def projector(stab) -> np.ndarray:
    """(1/d^k) times the sum of the dense matrices of all stabilizer elements."""
    mats = group_matrices(GroupSpec.from_generators(stab.generators))
    return sum(mats) / stab.d ** stab.k


def max_product_overlap(stab, subset, cfg) -> float:
    """Alternating product-state ascent on the full dense projector."""
    d, n = stab.d, stab.n_sites
    q_axes = [i - 1 for i in subset.indices]
    rest_axes = [i for i in range(n) if i not in set(q_axes)]
    perm = q_axes + rest_axes
    dim_q = d ** len(q_axes)
    dim_rest = d ** n // dim_q
    tensor = (
        projector(stab)
        .reshape((d,) * (2 * n))
        .transpose(perm + [n + p for p in perm])
        .reshape(dim_q, dim_rest, dim_q, dim_rest)
    )
    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        v = rng.normal(size=dim_rest) + 1j * rng.normal(size=dim_rest)
        chi = v / np.linalg.norm(v)
        value = -1.0
        for _ in range(cfg.max_iters):
            m_phi = np.einsum("a,iajb,b->ij", chi.conj(), tensor, chi)
            m_phi = (m_phi + m_phi.conj().T) / 2
            _, vecs = np.linalg.eigh(m_phi)
            phi = vecs[:, -1]
            m_chi = np.einsum("i,iajb,j->ab", phi.conj(), tensor, phi)
            m_chi = (m_chi + m_chi.conj().T) / 2
            vals, vecs = np.linalg.eigh(m_chi)
            chi = vecs[:, -1]
            new_value = float(vals[-1])
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return float(best)
