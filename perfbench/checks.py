"""Independent correctness checks for benchmark job results.

Nothing here imports frustgraph.  The expected answers come from the
generator's exponent rows through this module's own modular elimination:

* GHZ stabilizers: every cut has rank 2 and ggm = (d-1)/d.
* Graph states: rank_Q = 2 rank_d(A[Q, Q^c]), the graph-state cut-rank
  identity (Fattal et al., quant-ph/0406168).
* verify: every default check present and passing, with the sos/sum
  bounds recomputed from gamma.
* analyze/canonical: gamma, rank and bounds recomputed, O^T gamma O equal
  to the pair-block form, and the brute-force clique number equal to the
  closed form on the small specs.

``check`` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction

import numpy as np

from workloads import Job


def rank_mod(matrix, d: int) -> int:
    """Rank over Z_d (d prime) by row reduction."""
    m = np.array(matrix, dtype=np.int64).reshape(len(matrix), -1) % d
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nonzero = np.flatnonzero(m[r:, c])
        if nonzero.size == 0:
            continue
        p = r + int(nonzero[0])
        m[[r, p]] = m[[p, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, d) % d
        m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, c], m[r])) % d
        r += 1
    return r


def gamma_of(job: Job) -> np.ndarray:
    """Commutator exponents b_i . a_j - a_i . b_j mod d of the generators."""
    a = np.array([row[0] for row in job.rows], dtype=np.int64)
    b = np.array([row[1] for row in job.rows], dtype=np.int64)
    return (b @ a.T - a @ b.T) % job.d


def cuts(n: int) -> list[list[int]]:
    """Bipartition sides in frustgraph's documented order: site 1 always in Q."""
    return [
        [1] + [i + 2 for i in range(n - 1) if (mask >> i) & 1]
        for mask in range((1 << (n - 1)) - 1)
    ]


def cut_rank(job: Job, q: list[int]) -> int:
    if job.kind == "ghz":
        return 2
    if job.kind == "graph" and job.k == job.n:
        adj = [row[1] for row in job.rows]
        rest = [s for s in range(1, job.n + 1) if s not in q]
        return 2 * rank_mod([[adj[i - 1][j - 1] for j in rest] for i in q], job.d)
    raise ValueError(f"no independent cut rank for {job.name}")


def _bounds(d: int, k: int, r: int) -> tuple[int, float | None]:
    clique = d ** ((2 * k - r) // 2)
    if d == 2:
        return clique, None
    return clique, 2.0 * clique * ((1.0 + math.sqrt(d)) / 2.0) ** (r // 2)


def _close(text, want: float) -> bool:
    return abs(float(text) - want) <= 1e-9 * max(1.0, abs(want))


def expect(job: Job) -> dict:
    """The answers a correct run must produce, computed once per job."""
    if job.command == "entanglement":
        qs = cuts(job.n)
        return {"cuts": qs, "ranks": [cut_rank(job, q) for q in qs]}
    gamma = gamma_of(job)
    r = rank_mod(gamma, job.d)
    out = {"gamma": gamma.tolist(), "rank": r}
    if job.command == "bounds" and job.brute_force:
        vectors = np.indices((job.d,) * job.k).reshape(job.k, -1).T
        form = vectors @ gamma @ vectors.T % job.d
        out["edges"] = int((np.count_nonzero(form == 0) - len(vectors)) // 2)
    return out


def _check_entanglement(job: Job, res: dict, exp: dict) -> list[str]:
    d = job.d
    problems = []
    got = res["bipartitions"]
    if [b["Q"] for b in got] != exp["cuts"]:
        return [f"cut list differs from the {len(exp['cuts'])} expected cuts"]
    least = None
    for b, want in zip(got, exp["ranks"]):
        if b["rank"] != want:
            problems.append(f"Q={b['Q']}: rank {b['rank']}, expected {want}")
            continue
        scale = d ** (want // 2)
        gm = Fraction(scale - 1, scale)
        if (b["gm"]["num"], b["gm"]["den"]) != (gm.numerator, gm.denominator):
            problems.append(f"Q={b['Q']}: gm {b['gm']}, expected {gm}")
        least = gm if least is None else min(least, gm)
    if problems:
        return problems[:5]
    if (res["ggm"]["num"], res["ggm"]["den"]) != (least.numerator, least.denominator):
        problems.append(f"ggm {res['ggm']}, expected {least}")
    if res["is_gme"] != all(r > 0 for r in exp["ranks"]):
        problems.append(f"is_gme {res['is_gme']} disagrees with the cut ranks")
    if job.kind == "ghz" and least != Fraction(d - 1, d):
        problems.append(f"GHZ ggm {least}, expected {d - 1}/{d}")
    return problems


def _check_verify(job: Job, res: dict, exp: dict) -> list[str]:
    names = [c["name"] for c in res["checks"]]
    want_names = ["sos"] + (["sum"] if job.d != 2 else []) + ["overlap"]
    if names != want_names:
        return [f"checks {names}, expected {want_names}"]
    problems = [f"check {c['name']} failed" for c in res["checks"] if not c["pass"]]
    if not res["all_pass"]:
        problems.append("all_pass is false")
    clique, energy = _bounds(job.d, job.k, exp["rank"])
    by_name = {c["name"]: c for c in res["checks"]}
    if not _close(by_name["sos"]["bound"], clique):
        problems.append(f"sos bound {by_name['sos']['bound']}, expected {clique}")
    if energy is not None and not _close(by_name["sum"]["bound"], energy):
        problems.append(f"sum bound {by_name['sum']['bound']}, expected {energy}")
    return problems


def _check_bounds(job: Job, res: dict, exp: dict) -> list[str]:
    d, k, r = job.d, job.k, exp["rank"]
    an, can = res["analyze"], res["canonical"]
    problems = []
    if an["gamma"] != exp["gamma"] or can["gamma"] != exp["gamma"]:
        problems.append("gamma differs from the generators' commutators")
    if an["rank"] != r or an["nullity"] != k - r:
        problems.append(f"analyze rank {an['rank']}, expected {r}")
    if can["rank"] != an["rank"] or 2 * can["pair_blocks"] != r or can["residual_dim"] != k - r:
        problems.append(f"canonical rank {can['rank']} differs from analyze rank {an['rank']}")
    clique, energy = _bounds(d, k, r)
    if an["clique_number"] != clique or an["sos_bound"] != clique:
        problems.append(f"clique number {an['clique_number']}, expected {clique}")
    if (energy is None) != (an["sum_bound"] is None) or (
        energy is not None and not _close(an["sum_bound"], energy)
    ):
        problems.append(f"sum bound {an['sum_bound']}, expected {energy}")
    o = np.array(can["O"], dtype=np.int64).reshape(k, k)
    blocks = np.zeros((k, k), dtype=np.int64)
    for i in range(can["pair_blocks"]):
        blocks[2 * i, 2 * i + 1] = d - 1
        blocks[2 * i + 1, 2 * i] = 1
    if not np.array_equal(o.T @ np.array(exp["gamma"], dtype=np.int64) @ o % d, blocks):
        problems.append("O^T gamma O is not the pair-block form")
    if rank_mod(o, d) != k:
        problems.append("O is not invertible")
    if job.brute_force:
        if an["graph"] != {"vertices": d ** k, "edges": exp["edges"]}:
            problems.append(f"graph {an['graph']}, expected {d ** k} vertices, {exp['edges']} edges")
        if res["clique_bruteforce"] != an["clique_number"]:
            problems.append(
                f"brute-force clique {res['clique_bruteforce']} != closed form {an['clique_number']}"
            )
    return problems


_CHECKERS = {
    "entanglement": _check_entanglement,
    "verify": _check_verify,
    "bounds": _check_bounds,
}


def check(job: Job, result: dict, exp: dict) -> list[str]:
    """Problems with one job's result; a malformed result is a problem too."""
    try:
        return _CHECKERS[job.command](job, result, exp)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed result: {exc!r}"]


def corrupt(job: Job, result: dict) -> dict:
    """A copy of a correct result with one answer changed, for the self-test."""
    bad = copy.deepcopy(result)
    if job.command == "entanglement":
        bad["bipartitions"][-1]["rank"] += 2
    elif job.command == "verify":
        bad["checks"][-1]["pass"] = False
    else:
        bad["canonical"]["rank"] += 2
    return bad
