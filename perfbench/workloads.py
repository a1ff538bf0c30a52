"""Seeded generator documents for the three benchmark workloads.

Every job reaches frustgraph only as document text in the grammar of
``docs/input-format.md``.  The generator keeps the exponent rows next to
the text so that the checks in ``checks.py`` can recompute the expected
answers without going through frustgraph.  Only ``random.Random(seed)``
is used, so the same seed gives the same documents on every machine.

The sizes of every job are fixed per workload; the seed changes only the
content (graph adjacency, GHZ tree and exponents, group generators), so
the cost of a pass barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Job:
    """One closed-loop job: a command over one generated document."""

    name: str
    command: str  # "entanglement", "verify" or "bounds" (analyze + canonical)
    kind: str  # "ghz", "graph", "five_qudit" or "group"
    d: int
    n: int
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (a, b) per generator
    text: str
    brute_force: bool = False  # also run commutation_graph + clique_number_bruteforce

    @property
    def k(self) -> int:
        return len(self.rows)


def _site_token(a: int, b: int) -> str:
    if a and b:
        return f"X^{a}Z^{b}"
    if a:
        return f"X^{a}"
    if b:
        return f"Z^{b}"
    return "I"


def _document(d: int, n: int, mode: str, rows) -> str:
    lines = [f"d={d} n={n} mode={mode}"]
    for i, (a, b) in enumerate(rows, start=1):
        tokens = [_site_token(x, z) for x, z in zip(a, b)]
        # for d = 2, X^a Z^b squares to (-1)^(a.b); the factor i undoes it
        if d == 2 and sum(x * z for x, z in zip(a, b)) % 2:
            tokens.insert(0, "w^1/2")
        lines.append(f"g{i}: " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def _job(name, command, kind, d, n, rows, mode="stabilizer", brute_force=False) -> Job:
    rows = tuple((tuple(a), tuple(b)) for a, b in rows)
    return Job(name, command, kind, d, n, rows, _document(d, n, mode, rows), brute_force)


def ghz_rows(d: int, n: int, rng: random.Random):
    """GHZ generators on a random spanning tree with random nonzero exponents.

    X^c on every site, plus Z^e Z^-e across each tree edge; sites are
    relabelled at random and the generators shuffled.  Every bipartition
    cuts at least one tree edge, so every reduced graph has rank 2.
    """
    order = list(range(n))
    rng.shuffle(order)
    c = rng.randrange(1, d)
    rows = [([c] * n, [0] * n)]
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        e = rng.randrange(1, d)
        b = [0] * n
        b[u], b[v] = e, (-e) % d
        rows.append(([0] * n, b))
    rng.shuffle(rows)
    return rows


def graph_adjacency(d: int, n: int, rng: random.Random) -> list[list[int]]:
    """Random symmetric matrix over Z_d with zero diagonal."""
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = rng.randrange(d)
    return adj


def graph_rows(d: int, n: int, rng: random.Random, k: int | None = None):
    """Graph-state generators g_i = X_i Z^{A_i}; the first k of them if given."""
    adj = graph_adjacency(d, n, rng)
    rows = [([1 if s == i else 0 for s in range(n)], adj[i]) for i in range(n)]
    return rows[: n if k is None else k]


def five_qudit_rows(d: int):
    """Cyclic shifts of X (x) Z (x) Z^-1 (x) X^-1 (x) 1, as in ``builtin_code``."""
    base_a = [1, 0, 0, -1, 0]
    base_b = [0, 1, -1, 0, 0]
    return [
        ([base_a[(s - t) % 5] % d for s in range(5)], [base_b[(s - t) % 5] % d for s in range(5)])
        for t in range(4)
    ]


def group_rows(d: int, k: int, n: int, rng: random.Random):
    """k uniformly random generators X^a Z^b on n sites."""
    return [
        ([rng.randrange(d) for _ in range(n)], [rng.randrange(d) for _ in range(n)])
        for _ in range(k)
    ]


def basis_rows(d: int, k: int, n: int, rng: random.Random):
    """The first k rows of a random basis of Z_d^(2n), as generators on n sites.

    Random row additions applied to the identity keep the rows a basis, so
    gamma has the same rank for every seed (2n when k = 2n, 2n - 2 when
    k = 2n - 1), and the commutation graphs of two seeds are isomorphic.
    The brute-force clique search then costs about the same on every seed.
    """
    m = 2 * n
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(20 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.randrange(1, d)
        rows[i] = [(x + c * y) % d for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return [(row[:n], row[n:]) for row in rows[:k]]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one workload, with content drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cut_scan":
        jobs = [_job("ghz-d3-n12", "entanglement", "ghz", 3, 12, ghz_rows(3, 12, rng))]
        for d, n in ((2, 11), (3, 11), (5, 11)):
            jobs.append(_job(f"graph-d{d}-n{n}", "entanglement", "graph", d, n, graph_rows(d, n, rng)))
        return jobs
    if workload == "dense_verify":
        # every stabilizer has n = 5, so each verify scans the same 15 cuts;
        # the three jobs differ enough in cost that the median job is fixed
        return [
            _job("ghz-d2-n5", "verify", "ghz", 2, 5, ghz_rows(2, 5, rng)),
            _job("graph-d3-n5-k2", "verify", "graph", 3, 5, graph_rows(3, 5, rng, k=2)),
            _job("five_qudit-d3", "verify", "five_qudit", 3, 5, five_qudit_rows(3)),
        ]
    if workload == "group_bounds":
        jobs = []
        for d, k in ((7, 32), (3, 64), (2, 128)):
            jobs.append(_job(f"group-d{d}-k{k}", "bounds", "group", d, k // 2,
                             group_rows(d, k, k // 2, rng), mode="group"))
        # d^k <= 256: small enough for the brute-force clique search
        for d, k, n in ((2, 8, 4), (3, 5, 3)):
            jobs.append(_job(f"group-d{d}-k{k}", "bounds", "group", d, n,
                             basis_rows(d, k, n, rng), mode="group", brute_force=True))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
