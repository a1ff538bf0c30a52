"""Exponent-tableau fast paths against the scalar per-operator route.

The scalar route restricts each generator with ``PauliOperator.restrict``,
pairs them with ``commutator_exponent`` and ranks with ``gf.rank``; the
tableau route must reproduce it exactly, cut by cut.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frustgraph import (
    GFMatrix,
    PauliOperator,
    Stabilizer,
    bipartitions,
    builtin_code,
    commutator_exponent,
    generating_graph,
    rank,
)
from frustgraph.cli import parse_document
from frustgraph.errors import NotAntisymmetric
from frustgraph.gf import alternating_ranks, block_dtype, exact_dtype
from frustgraph.pauli import commutator_matrix, exponent_tableau
from frustgraph.stabilizer import SCAN_BLOCK, BipartitionScan

BIG_PRIME = 2 ** 31 - 1  # int64 products of two residues fit, sums of three do not


def scalar_graph(ops) -> list[list[int]]:
    return [[commutator_exponent(p, q) for q in ops] for p in ops]


def assert_scan_matches_scalar(stab: Stabilizer) -> None:
    assert generating_graph(stab.generators).to_lists() == scalar_graph(stab.generators)
    reports = stab.bipartition_reports()
    assert [r.Q for r in reports] == list(bipartitions(stab.n_sites))
    for report in reports:
        gamma = scalar_graph([g.restrict(report.Q) for g in stab.generators])
        assert report.rank_Q == rank(GFMatrix(gamma, stab.d))
        assert stab.reduced_generating_graph(report.Q).to_lists() == gamma


def graph_state(d: int, adjacency) -> Stabilizer:
    n = len(adjacency)
    return Stabilizer(
        PauliOperator(d, tuple(int(s == i) for s in range(n)), tuple(adjacency[i]))
        for i in range(n)
    )


@st.composite
def stabilizers(draw):
    """Graph states, random-tree GHZ and builtin codes, then mixed.

    Replacing g_i by g_i g_j^c keeps the stabilizer group; at d = 2 the
    products carry the quarter-turn phases written w^1/2 in documents.
    """
    d = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["graph", "ghz_tree", "ghz", "five_qudit"]))
    n = 5 if kind == "five_qudit" else draw(st.integers(2, 7))
    residue = st.integers(0, d - 1)
    unit = st.integers(1, d - 1)
    if kind == "graph":
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = draw(residue)
        gens = list(graph_state(d, adj).generators)
    elif kind == "ghz_tree":
        gens = [PauliOperator(d, (draw(unit),) * n, (0,) * n)]
        for i in range(1, n):
            b = [0] * n
            e = draw(unit)
            b[i] = e
            b[draw(st.integers(0, i - 1))] = -e  # edge to an earlier site
            gens.append(PauliOperator(d, (0,) * n, tuple(b)))
    else:
        gens = list(builtin_code(kind, d, n).generators)
    k = len(gens)
    moves = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), unit)
    for i, j, c in draw(st.lists(moves, max_size=4)):
        if i != j:
            gens[i] = gens[i] * gens[j] ** c
    return Stabilizer(gens)


@settings(max_examples=40, deadline=None)
@given(stabilizers())
def test_scan_matches_scalar_path(stab):
    assert_scan_matches_scalar(stab)


def test_scan_with_quarter_turn_phases():
    doc = parse_document(
        "d=2 n=3 mode=stabilizer\n"
        "g1: w^1/2 X^1Z^1 X I\n"
        "g2: w^1/2 X X^1Z^1 I\n"
        "g3: Z Z Z\n"
    )
    assert [g.phase_exp for g in doc.generators] == [1, 1, 0]
    assert_scan_matches_scalar(Stabilizer(doc.generators))


def test_scan_spanning_several_blocks():
    rng = random.Random(0)
    n = 12
    assert block_dtype(3, n) is np.int16  # int16 blocks hold SCAN_BLOCK cuts
    assert (2 ** (n - 1) - 1) % SCAN_BLOCK
    assert 2 ** (n - 1) - 1 > SCAN_BLOCK
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = rng.randrange(3)
    assert_scan_matches_scalar(graph_state(3, adj))


@pytest.mark.parametrize("d, dtype", [(103, np.int16), (107, np.int64)])
def test_scan_at_the_int16_boundary(d, dtype):
    # every adjacency entry d - 1 drives the sums and the elimination steps
    # to their extremes; at d = 107 the int64 blocks of SCAN_BLOCK / 4 cuts
    # split the 511 cuts of 10 sites
    n = 10
    assert block_dtype(d, n) is dtype
    assert_scan_matches_scalar(graph_state(d, [[(d - 1) * (i != j) for j in range(n)]
                                               for i in range(n)]))


@pytest.mark.parametrize("n", range(1, 13))
def test_scan_sites_follow_bipartitions(n):
    scan = BipartitionScan(2, n, [], {})
    assert scan.sites == [list(q.indices) for q in bipartitions(n)]
    assert (n == 1) == (scan.sites == [])


def seeded_graph_state(d: int, n: int, seed: int, density: float = 0.5) -> Stabilizer:
    rng = random.Random(seed)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i][j] = adj[j][i] = rng.randrange(1, d)
    return graph_state(d, adj)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scan_items_are_the_per_cut_measures(d):
    for seed in range(3):
        stab = seeded_graph_state(d, 6, seed)
        scan = stab.bipartition_reports()
        want = [stab.gm_measure(q) for q in bipartitions(stab.n_sites)]
        assert len(scan) == len(want) == 31
        assert list(scan) == want
        assert scan[-1] == want[-1] and scan[3:7] == want[3:7]
        assert scan.ranks == [r.rank_Q for r in want]


def test_gme_and_ggm_from_the_least_rank():
    # old rule: every cut read as a report, the least Fraction kept
    def per_report(scan, d):
        reports = list(scan)
        gme = bool(reports) and all(r.rank_Q > 0 for r in reports)
        return gme, min((r.gm_exact for r in reports), default=Fraction(0))

    single_site = Stabilizer([PauliOperator(3, (1,), (0,))])
    cases = [
        single_site,  # no cut
        seeded_graph_state(3, 5, 0, density=0.0),  # product state: every rank 0
        graph_state(2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),  # some cuts rank 0
        builtin_code("five_qudit", 5, 5),
        builtin_code("ghz", 3, 6),
    ] + [seeded_graph_state(d, 5, seed) for d in (2, 3, 5) for seed in range(4)]
    seen = set()
    for stab in cases:
        scan = stab.bipartition_reports()
        gme, ggm = per_report(scan, stab.d)
        assert scan.is_gme == gme == stab.is_gme()
        assert scan.ggm == ggm
        assert stab.ggm_measure() == float(ggm)
        seen.add((len(scan) > 0, min(scan.ranks, default=None) == 0, gme))
    assert {(False, False, False), (True, True, False), (True, False, True)} <= seen


def test_scan_exact_at_large_prime():
    # n = 3 at d = 2^31 - 1 puts the tableau in object dtype
    big = BIG_PRIME - 1
    stab = graph_state(BIG_PRIME, [[0, big, big - 1], [big, 0, big], [big - 1, big, 0]])
    assert exponent_tableau(stab.generators)[0].dtype == object
    assert_scan_matches_scalar(stab)


P32 = 4294967311  # first prime above 2^32: object dtype everywhere


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7, 103, 107, BIG_PRIME, P32]),
    k=st.integers(1, 9),
    count=st.integers(3, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(d=103, k=9, count=SCAN_BLOCK + 1, seed=0)
@example(d=P32, k=8, count=5, seed=1)
def test_alternating_ranks_match_scalar_rank(d, k, count, seed):
    rng = np.random.default_rng(seed)
    dtype = block_dtype(d, 1)

    def alternating(upper):
        upper = np.triu(upper, 1)
        return (upper - upper.T) % d

    uppers = rng.integers(0, d, (count, k, k)).astype(object)
    uppers[::3] *= rng.random(uppers[::3].shape) < 0.2  # sparse, so low ranks occur
    stack = np.stack([alternating(upper) for upper in uppers])
    stack[0] = 0
    stack[1] = alternating(np.full((k, k), d - 1, dtype=object))
    # full rank: T^T J T with J unit pair blocks and T unit upper triangular
    pairs = np.zeros((k, k), dtype=object)
    for i in range(0, k - 1, 2):
        pairs[i, i + 1] = int(rng.integers(1, d))
    T = np.triu(rng.integers(0, d, (k, k)), 1).astype(object) + np.eye(k, dtype=int)
    stack[-1] = (T.T @ alternating(pairs) @ T) % d
    got = alternating_ranks(stack.astype(dtype), d)
    assert got.tolist() == [rank(GFMatrix(m, d)) for m in stack]
    assert got[0] == 0
    assert got[-1] == k - k % 2


def test_alternating_ranks_refuse_other_matrices():
    # a nonzero diagonal entry is never cleared: refused, not looped on
    with pytest.raises(NotAntisymmetric):
        alternating_ranks(np.eye(3, dtype=np.int16)[None], 5)


exponent = st.one_of(st.integers(0, BIG_PRIME - 1), st.just(BIG_PRIME - 1))
site_row = st.tuples(exponent, exponent, exponent)
TOP = (BIG_PRIME - 1,) * 3


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(site_row, site_row), min_size=2, max_size=4))
@example([(TOP, TOP), (TOP, (1, 1, 1))])
def test_generating_graph_exact_at_int64_boundary(rows):
    ops = [PauliOperator(BIG_PRIME, a, b) for a, b in rows]
    assert generating_graph(ops).to_lists() == scalar_graph(ops)


@pytest.mark.parametrize("n", [1, 3, 16])
def test_tableau_dtype_switches_where_int64_would_overflow(n):
    # the largest d - 1 with 2 n (d-1)^2 < 2^63, then one more
    top = math.isqrt((2 ** 63 - 1) // (2 * n))
    assert 2 * n * top ** 2 < 2 ** 63 <= 2 * n * (top + 1) ** 2
    for d, dtype in ((top + 1, np.int64), (top + 2, object)):
        assert exact_dtype(d, 2 * n) is dtype
        A = np.full((2, n), d - 1, dtype=dtype)
        B = A.copy()
        B[1] = 1
        want = (n * (d - 1) ** 2 - n * (d - 1)) % d
        assert commutator_matrix(A, B, d).tolist() == [[0, want], [(-want) % d, 0]]
