"""Independent dense reference matrices and optimisers for cross-checking.

Deliberately built by a different route than the library's own dense
realisation: single-site matrices come from explicit matrix powers of the
bare shift and clock, and tensor products are accumulated left to right.
Group elements are chains of ``PauliOperator.multiply`` and ``power``, not
the library's closed-form ``ordered_products``.  The optimisers at the end
keep the matrix-by-matrix form of the oracle's ``max_sos`` and
``max_product_overlap``, the energy maximum on the full d^n x d^n matrix
rather than its coset blocks, and the overlap ascent one restart at a time
on an ``eigh`` code basis of ``projector``, the sum of the dense element
matrices, not the oracle's ``_group_sum``: the oracle's power half-step and
restart blocks, and the exact two-sided half-step it replaced; for a state
(k = n), the top Schmidt weight of that basis by a full SVD.  The exact kernels after them
are the scalar loops that the library's array kernels replaced: the
pivoting clique search, row-by-row elimination and the vector-by-vector
symplectic pass.  Last come the report writers that the bulk ones
replaced: the text report rendered row by row from ``Report.to_dict()``,
and reals split into digits and a decimal point by hand.
"""

from __future__ import annotations

import functools

import numpy as np

from frustgraph import (
    GroupSpec,
    PauliOperator,
    canonical_form,
    element_indices,
)
from frustgraph.gf import exact_dtype
from frustgraph.oracle import _PLATEAU

RANK_CUTOFF = 1e-9  # singular values above this span the kept eigenspace


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


def product(ops, exponents):
    """ops[0]^e_0 * ... * ops[k-1]^e_{k-1}, multiplied out one power at a time."""
    out = PauliOperator.identity(ops[0].d, ops[0].n_sites)
    for op, e in zip(ops, exponents):
        out = out * op ** int(e)
    return out


def group_elements(spec) -> list:
    """All d^k elements T_1^{I_1} ... T_k^{I_k}, in element_indices order."""
    return [product(spec.generators, I) for I in element_indices(spec.d, spec.k)]


def tableau(ops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent arrays A, B and phase exponents of operators, read field by field."""
    return (
        np.array([op.a for op in ops]).reshape(len(ops), -1),
        np.array([op.b for op in ops]).reshape(len(ops), -1),
        np.array([op.phase_exp for op in ops]),
    )


def group_matrices(spec) -> list[np.ndarray]:
    return [dense(op) for op in group_elements(spec)]


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
        op = product(gens, cf.O.entries[:, c]).canonical_unit_phase()
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


def max_sum(spec) -> float:
    """Top eigenvalue of sum (A + A^dagger) over the group, on the full dense matrix."""
    half = sum(dense(op) for op in group_elements(spec))  # group_matrices, one at a time
    return float(np.linalg.eigvalsh(half + half.conj().T)[-1])


def projector(stab) -> np.ndarray:
    """(1/d^k) times the sum of the dense matrices of all stabilizer elements."""
    elements = group_elements(stab)
    # group_matrices one at a time: all d^k at once are 3.9 GB at d=5, n=k=4
    return sum(dense(op) for op in elements) / stab.d ** stab.k


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


def code_basis_eigh(stab) -> np.ndarray:
    """Code basis as the eigenvectors of ``projector`` with eigenvalue above 1/2.

    Memoised on the generators, so the references of every cut of one
    stabilizer share one dense projector and one ``eigh``; read-only.
    """
    return _code_basis_eigh(stab.generators)


@functools.lru_cache(maxsize=8)
def _code_basis_eigh(generators) -> np.ndarray:
    group = GroupSpec.from_generators(generators)
    vals, vecs = np.linalg.eigh(projector(group))
    basis = vecs[:, vals > 0.5]
    if basis.shape[1] != group.d ** (generators[0].n_sites - group.k):
        raise RuntimeError(f"code projector has {basis.shape[1]} unit eigenvalues")
    basis.flags.writeable = False
    return basis


def top_left(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue of w w^dagger and a unit eigenvector, via the smaller Gram matrix."""
    if w.shape[1] < w.shape[0]:
        vals, vecs = np.linalg.eigh(w.conj().T @ w)
        vec = w @ vecs[:, -1]
        return float(vals[-1]), vec / np.linalg.norm(vec)
    vals, vecs = np.linalg.eigh(w @ w.conj().T)
    return float(vals[-1]), vecs[:, -1]


def schmidt_weight(stab, subset) -> float:
    """Top squared Schmidt coefficient across the cut of the k = n state, by a dense SVD."""
    d, n = stab.d, stab.n_sites
    q_axes = [i - 1 for i in subset.indices]
    rest_axes = [i for i in range(n) if i not in set(q_axes)]
    (state,) = code_basis_eigh(stab).T
    schmidt = state.reshape((d,) * n).transpose(q_axes + rest_axes).reshape(d ** len(q_axes), -1)
    return float(np.linalg.svd(schmidt, compute_uv=False)[0] ** 2)


def _code_by_side(stab, subset) -> np.ndarray:
    """The eigh code basis as a (d^|Q|, d^(n-|Q|), width) tensor, the sites of ``subset`` first."""
    d, n = stab.d, stab.n_sites
    q_axes = [i - 1 for i in subset.indices]
    rest_axes = [i for i in range(n) if i not in set(q_axes)]
    dim_q = d ** len(q_axes)
    return (
        code_basis_eigh(stab)
        .reshape((d,) * n + (-1,))
        .transpose(q_axes + rest_axes + [n])
        .reshape(dim_q, d ** n // dim_q, -1)
    )


def overlap_replay(stab, subset, cfg) -> tuple[float, int, int]:
    """The oracle's code-overlap schedule one restart at a time: (best, restarts run, iterations).

    Each iteration takes the top eigenpair of M M^dagger, M the code
    contracted with the larger-side factor chi, and then the power step
    chi <- W W^dagger chi, as the code contracted with conj(p) and M^dagger p.
    A restart stops once its value moves less than ``cfg.tol`` or comes
    within it of 1.  Restart 0 runs first, then blocks of ``_PLATEAU``
    restarts, until a block leaves the best within ``cfg.tol`` of 1 or
    raises it by less than ``cfg.tol``, or ``cfg.restarts`` have run.
    A state (k = n) runs no restart: its value is ``schmidt_weight``.
    """
    if stab.k == stab.n_sites:
        return schmidt_weight(stab, subset), 0, 0
    code = _code_by_side(stab, subset)
    rng = cfg.rng()
    best, run, iterations = -np.inf, 0, 0
    blocks = [1] + [min(_PLATEAU, cfg.restarts - r) for r in range(1, cfg.restarts, _PLATEAU)]
    for size in blocks:
        before = best
        for _ in range(size):
            v = rng.normal(size=code.shape[1]) + 1j * rng.normal(size=code.shape[1])
            chi = v / np.linalg.norm(v)
            value = -1.0
            for _ in range(cfg.max_iters):
                m = chi.conj() @ code
                new_value, p = top_left(m)
                chi = np.einsum("q,qxc,c->x", p.conj(), code, m.conj().T @ p)
                chi /= np.linalg.norm(chi)
                iterations += 1
                moved, value = abs(new_value - value), new_value
                if moved < cfg.tol or value >= 1 - cfg.tol:
                    break
            best = max(best, value)
        run += size
        if best >= 1 - cfg.tol or best - before < cfg.tol:
            break
    return float(best), run, iterations


def overlap_per_restart(stab, subset, cfg) -> float:
    """Best value of ``overlap_replay``, the oracle's ascent on an eigh code basis."""
    return overlap_replay(stab, subset, cfg)[0]


def overlap_exact_ascent(stab, subset, cfg) -> float:
    """Alternating ascent with an exact top eigenvector on both sides, every restart.

    The two-sided half-step the power step replaced, on the eigh code
    basis: with chi fixed, phi is the top eigenvector of M M^dagger; with
    phi fixed, chi that of W W^dagger.
    """
    code = _code_by_side(stab, subset)
    rng = cfg.rng()
    best = 0.0
    for _ in range(cfg.restarts):
        v = rng.normal(size=code.shape[1]) + 1j * rng.normal(size=code.shape[1])
        chi = v / np.linalg.norm(v)
        value = -1.0
        for _ in range(cfg.max_iters):
            _, phi = top_left(chi.conj() @ code)
            new_value, chi = top_left(phi.conj() @ code.transpose(1, 0, 2))
            if abs(new_value - value) < cfg.tol:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return float(best)


# Exact kernels, kept as the scalar loops the library's array kernels
# replaced; the library must reproduce them exactly.


def clique_number_pivoting(adj) -> int:
    """Maximum clique size by branch and bound with pivoting, over bitmasks."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not cand or size + cand.bit_count() <= best:
            return
        # pivot on the candidate with the most candidate neighbours
        pivot, pivot_score, scan = -1, -1, cand
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            score = (cand & adj[v]).bit_count()
            if score > pivot_score:
                pivot, pivot_score = v, score
        ext = cand & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            expand(size + 1, cand & adj[v])
            cand &= ~bit
            ext &= ~bit
            if size + cand.bit_count() <= best:
                return

    expand(0, (1 << len(adj)) - 1)
    return best


def row_echelon(matrix, pivot_cols=None):
    """Reduced row echelon form of a GFMatrix, one row operation at a time."""
    d = matrix.d
    R = matrix.entries.copy()
    n_rows, n_cols = R.shape
    limit = n_cols if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(limit):
        pivot = None
        for i in range(r, n_rows):
            if R[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, d)) % d
        for i in range(n_rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % d
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return R, pivots


def symplectic_pass(gamma):
    """(O, m) of the symplectic Gram-Schmidt pass, vector by vector.

    The lowest-index vector with a nonzero form row pairs with its
    lowest-index partner, rescaled to form value -1, and both directions
    are cleared from every other vector; O lists the pairs, then the rest.
    """
    d, k = gamma.d, gamma.rows
    dtype = exact_dtype(d, k)
    g = gamma.entries.astype(dtype)
    vectors = list(np.eye(k, dtype=dtype))
    pairs = []
    while True:
        hit = None
        for i, u in enumerate(vectors):
            ug = (u @ g) % d
            for j, v in enumerate(vectors):
                c = int(ug @ v) % d if j != i else 0
                if c:
                    hit = (i, j, c)
                    break
            if hit:
                break
        if hit is None:
            break
        i, j, c = hit
        u = vectors[i]
        w = (vectors[j] * ((-pow(c, -1, d)) % d)) % d
        rest = []
        for t, v in enumerate(vectors):
            if t in (i, j):
                continue
            vg = (v @ g) % d
            rest.append((v + int(vg @ w) % d * u - int(vg @ u) % d * w) % d)
        pairs.append((u, w))
        vectors = rest
    cols = [x for pair in pairs for x in pair] + vectors
    O = np.column_stack(cols) if cols else np.zeros((0, 0), dtype=np.int64)
    return O, len(pairs)


def real_str(x: float) -> str:
    """Positional decimal rendering with 12 significant digits kept."""
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        return str(x)
    if x == 0:
        return "0.000000000000"
    mantissa, exp_text = f"{x:.11e}".split("e")
    neg = mantissa.startswith("-")
    digits = mantissa.lstrip("-").replace(".", "")
    point = int(exp_text) + 1
    if point <= 0:
        out = "0." + "0" * (-point) + digits
    elif point >= len(digits):
        out = digits + "0" * (point - len(digits))
    else:
        out = digits[:point] + "." + digits[point:]
    return ("-" if neg else "") + out


def report_text(report: dict) -> str:
    """The text report of a ``Report.to_dict()``, one row dict at a time."""
    lines = [
        f"frustgraph {report['command']} (schema {report['schema']}, version {report['version']})",
        f"input: {report['input_digest'] or '-'}",
    ]

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            if set(value) == {"num", "den", "real"}:
                lines.append(f"{prefix}: {value['num']}/{value['den']} = {value['real']}")
                return
            lines.append(f"{prefix}:")
            for key, sub in value.items():
                emit(f"  {key}", sub)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{prefix}:")
            for row in value:
                lines.append("  " + " ".join(str(v) for v in row))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}:")
            for item in value:
                parts = ", ".join(
                    f"{k}={v['real'] if isinstance(v, dict) and 'real' in v else v}"
                    for k, v in item.items()
                )
                lines.append(f"  - {parts}")
        else:
            lines.append(f"{prefix}: {value}")

    for key, value in report["result"].items():
        emit(key, value)
    return "\n".join(lines)
