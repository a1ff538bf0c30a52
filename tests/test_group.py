"""Group layer: generating graphs, commutation graphs, bounds, oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from frustgraph import (
    EvenDimension,
    FrustGraphError,
    GFMatrix,
    GammaMismatch,
    GroupSpec,
    NotAntisymmetric,
    PauliOperator,
    TooLarge,
    central_subgroup_indices,
    chromatic_number_exact,
    clique_number,
    clique_number_bruteforce,
    commutation_graph,
    concrete_elements,
    element_indices,
    frustration_exponent,
    generating_graph,
    invert,
    rank,
    sos_bound,
    sum_bound,
)
from frustgraph.group import CommutationGraph

from denseref import clique_number_pivoting


def pauli_pair_spec(d):
    return GroupSpec.from_generators([PauliOperator.x(d), PauliOperator.z(d)])


def two_qubit_spec():
    d = 2
    return GroupSpec.from_generators(
        [
            PauliOperator(d, (1, 0), (0, 0)),
            PauliOperator(d, (0, 0), (1, 0)),
            PauliOperator(d, (0, 1), (0, 0)),
            PauliOperator(d, (0, 0), (0, 1)),
        ]
    )


def random_antisymmetric(rng, d, k):
    upper = np.triu(rng.integers(0, d, size=(k, k)), 1)
    return GFMatrix(upper - upper.T, d)


def test_generating_graph_of_shift_and_clock():
    for d in (2, 3, 5):
        gamma = generating_graph([PauliOperator.x(d), PauliOperator.z(d)])
        assert gamma == GFMatrix([[0, -1], [1, 0]], d)


def test_generating_graph_single_generator():
    gamma = generating_graph([PauliOperator.x(3)])
    assert gamma == GFMatrix.zeros(1, 1, 3)


def test_frustration_exponent_examples():
    gamma = GFMatrix([[0, -1], [1, 0]], 2)
    assert frustration_exponent((1, 0), (1, 1), gamma) == 1
    assert frustration_exponent((1, 1), (1, 1), gamma) == 0
    assert frustration_exponent((0, 0), (1, 1), gamma) == 0


def test_frustration_exponent_matches_dense_commutator():
    # dense check of the (X, Y) pair at d=2: X Y = -Y X
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    assert np.allclose(x @ y, -(y @ x))


def test_commutation_graph_of_pauli_pair():
    graph = commutation_graph(pauli_pair_spec(2))
    assert graph.n_vertices == 4
    ident = graph.labels.index((0, 0))
    edges = {
        tuple(sorted((i, j)))
        for i in range(4)
        for j in range(4)
        if i != j and graph.has_edge(i, j)
    }
    expected = {tuple(sorted((ident, v))) for v in range(4) if v != ident}
    assert edges == expected


def test_commutation_graph_two_qubit_size():
    assert commutation_graph(two_qubit_spec()).n_vertices == 16


def test_commutation_graph_single_generator_complete():
    # powers of one operator all commute: complete graph on d^k vertices
    spec = GroupSpec.from_gamma(3, GFMatrix.zeros(1, 1, 3))
    graph = commutation_graph(spec)
    assert graph.n_vertices == 3
    assert graph.edge_count == 3
    assert clique_number_bruteforce(graph) == 3


def test_commutation_graph_cap():
    spec = GroupSpec.from_gamma(3, GFMatrix.zeros(6, 6, 3))
    with pytest.raises(TooLarge):
        commutation_graph(spec)


def test_central_indices_full_rank():
    spec = pauli_pair_spec(3)
    assert central_subgroup_indices(spec) == [(0, 0)]


def test_central_indices_cyclic_group():
    spec = GroupSpec.from_generators([PauliOperator.x(2)])
    assert sorted(central_subgroup_indices(spec)) == [(0,), (1,)]


def test_central_indices_five_qudit_cut():
    from ref_data import FIVE_QUDIT_CUT_1

    spec = GroupSpec.from_gamma(2, GFMatrix(FIVE_QUDIT_CUT_1, 2))
    assert len(central_subgroup_indices(spec)) == 4


def test_central_indices_commute_with_everything():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 5))
        spec = GroupSpec.from_gamma(d, random_antisymmetric(rng, d, k))
        central = set(central_subgroup_indices(spec))
        everything = element_indices(d, k)
        brute = {
            I
            for I in everything
            if all(
                frustration_exponent(I, J, spec.gamma) == 0
                for J in everything
            )
        }
        assert central == brute


def test_clique_number_examples():
    assert clique_number(pauli_pair_spec(2)) == 2
    assert clique_number(two_qubit_spec()) == 4
    spec = GroupSpec.from_gamma(3, GFMatrix.zeros(3, 3, 3))
    assert clique_number(spec) == 27


def test_clique_number_parity_guard():
    # a broken gamma (not antisymmetric) can only be smuggled in past
    # validation; the normal form that carries the rank still refuses it
    odd = GroupSpec.__new__(GroupSpec)
    object.__setattr__(odd, "d", 3)
    object.__setattr__(odd, "gamma", GFMatrix([[1]], 3))
    object.__setattr__(odd, "generators", None)
    with pytest.raises(NotAntisymmetric):
        clique_number(odd)


def test_bruteforce_clique_examples():
    assert clique_number_bruteforce(commutation_graph(pauli_pair_spec(2))) == 2
    assert clique_number_bruteforce(commutation_graph(two_qubit_spec())) == 4
    full = (1 << 9) - 1
    complete = CommutationGraph(
        tuple((i,) for i in range(9)),
        tuple(full & ~(1 << i) for i in range(9)),
    )
    assert clique_number_bruteforce(complete) == 9


def test_bruteforce_clique_exhaustive_cross_check():
    # independent oracle: scan all vertex subsets of the 4-vertex graph
    graph = commutation_graph(pauli_pair_spec(2))
    best = 0
    for size in range(1, graph.n_vertices + 1):
        for combo in itertools.combinations(range(graph.n_vertices), size):
            if all(graph.has_edge(i, j) for i, j in itertools.combinations(combo, 2)):
                best = max(best, size)
    assert clique_number_bruteforce(graph) == best == 2


def mask_graph(rows) -> CommutationGraph:
    """Graph from a boolean adjacency matrix, one bitmask per vertex."""
    masks = tuple(sum(1 << int(j) for j in np.flatnonzero(row)) for row in rows)
    return CommutationGraph(tuple((i,) for i in range(len(masks))), masks)


def random_graph(rng, n, p) -> CommutationGraph:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return mask_graph(upper | upper.T)


def exhaustive_clique(graph) -> int:
    """Largest vertex subset whose members are pairwise adjacent."""
    adj = graph.adjacency
    closed = [a | 1 << v for v, a in enumerate(adj)]
    return max(
        bin(s).count("1")
        for s in range(1 << graph.n_vertices)
        if all(closed[v] & s == s for v in range(graph.n_vertices) if s >> v & 1)
    )


def exhaustive_chromatic(graph) -> int:
    """Fewest independent sets covering the graph, by dynamic programming over subsets."""
    n, adj = graph.n_vertices, graph.adjacency
    independent = [all(not adj[v] & s for v in range(n) if s >> v & 1) for s in range(1 << n)]
    chi = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest, best, sub = s ^ low, n, s ^ low
        while True:  # independent sets within s that hold its lowest vertex
            if independent[sub | low]:
                best = min(best, 1 + chi[rest ^ sub])
            if not sub:
                break
            sub = (sub - 1) & rest
        chi[s] = best
    return chi[-1]


def test_bruteforce_clique_matches_pivoting_search_on_random_graphs():
    rng = np.random.default_rng(43)
    for n in range(0, 61, 3):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            graph = random_graph(rng, n, p)
            assert clique_number_bruteforce(graph) == clique_number_pivoting(graph.adjacency)


def with_universal_vertices(graph, positions) -> CommutationGraph:
    """``graph`` with a vertex adjacent to every other inserted at each position."""
    m = graph.n_vertices
    old = [v for v in range(m + len(positions)) if v not in positions]
    rows = np.zeros((m + len(positions),) * 2, dtype=bool)
    rows[np.ix_(old, old)] = [[graph.has_edge(i, j) for j in range(m)] for i in range(m)]
    rows[positions, :] = True
    rows[:, positions] = True
    np.fill_diagonal(rows, False)
    return mask_graph(rows)


def test_bruteforce_clique_matches_pivoting_search_with_universal_vertices():
    # a universal vertex joins every maximum clique, so each one adds exactly 1
    rng = np.random.default_rng(59)
    for n in range(0, 41, 4):
        for p in (0.2, 0.5, 0.8):
            graph = random_graph(rng, n, p)
            base = clique_number_pivoting(graph.adjacency)
            for u in (1, 3):
                positions = sorted(rng.choice(n + u, size=u, replace=False).tolist())
                bigger = with_universal_vertices(graph, positions)
                assert clique_number_bruteforce(bigger) == base + u
                assert clique_number_pivoting(bigger.adjacency) == base + u


@pytest.mark.parametrize("n", [0, 1, 2, 17, 64, 256])
def test_bruteforce_clique_on_edgeless_and_complete_graphs(n):
    labels = tuple((i,) for i in range(n))
    full = (1 << n) - 1
    edgeless = CommutationGraph(labels, (0,) * n)
    complete = CommutationGraph(labels, tuple(full ^ (1 << i) for i in range(n)))
    assert clique_number_bruteforce(edgeless) == clique_number_pivoting(edgeless.adjacency) == min(n, 1)
    assert clique_number_bruteforce(complete) == clique_number_pivoting(complete.adjacency) == n


def test_bruteforce_clique_on_the_benchmark_specs():
    # the two brute-force jobs of perfbench group_bounds, from their document text
    from test_cli import _load_workloads
    from frustgraph.cli import parse_document

    jobs = [job for job in _load_workloads().make_jobs("group_bounds", 1) if job.brute_force]
    assert [(job.d, job.k) for job in jobs] == [(2, 8), (3, 5)]
    for job in jobs:
        spec = GroupSpec.from_generators(parse_document(job.text).generators)
        graph = commutation_graph(spec)
        expected = clique_number(spec)
        assert clique_number_bruteforce(graph) == clique_number_pivoting(graph.adjacency) == expected


def test_bruteforce_clique_matches_subset_enumeration():
    rng = np.random.default_rng(47)
    for n in range(0, 13):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):  # edgeless and complete at the ends
            graph = random_graph(rng, n, p)
            expected = {0.0: min(n, 1), 1.0: n}.get(p, exhaustive_clique(graph))
            assert exhaustive_clique(graph) == expected
            assert clique_number_bruteforce(graph) == expected


def full_rank_basis_spec(d, k, n, seed):
    """The first k rows of a random basis of Z_d^(2n), as generators on n sites."""
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, d, size=(k, 2 * n))
        if rank(GFMatrix(rows, d)) == k:
            break
    return GroupSpec.from_generators(
        PauliOperator(d, tuple(int(v) for v in row[:n]), tuple(int(v) for v in row[n:]))
        .canonical_unit_phase()
        for row in rows
    )


@pytest.mark.parametrize("d, k, n, expected", [(2, 8, 4, 16), (3, 5, 3, 27)])
def test_bruteforce_clique_on_benchmark_sized_specs(d, k, n, expected):
    for seed in (1, 2):
        spec = full_rank_basis_spec(d, k, n, seed)
        graph = commutation_graph(spec)
        assert graph.n_vertices == d ** k
        assert clique_number_bruteforce(graph) == clique_number(spec) == expected


def test_chromatic_matches_subset_dynamic_programming():
    # covers graphs whose greedy coloring overshoots and graphs whose
    # chromatic number exceeds the clique number
    rng = np.random.default_rng(53)
    for n in range(0, 11):
        for p in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0):
            for _ in range(2):
                graph = random_graph(rng, n, p)
                assert chromatic_number_exact(graph) == exhaustive_chromatic(graph)
    for n in (5, 7):  # odd cycles: clique number 2, chromatic number 3
        cycle = mask_graph(np.roll(np.eye(n, dtype=bool), 1, 1) | np.roll(np.eye(n, dtype=bool), -1, 1))
        assert chromatic_number_exact(cycle) == exhaustive_chromatic(cycle) == 3


def test_bruteforce_clique_cap():
    labels = tuple((i,) for i in range(257))
    graph = CommutationGraph(labels, tuple(0 for _ in labels))
    with pytest.raises(TooLarge):
        clique_number_bruteforce(graph)


def test_chromatic_examples():
    assert chromatic_number_exact(commutation_graph(two_qubit_spec())) == 5
    edgeless = CommutationGraph(tuple((i,) for i in range(5)), (0,) * 5)
    assert chromatic_number_exact(edgeless) == 1
    full = (1 << 6) - 1
    complete = CommutationGraph(
        tuple((i,) for i in range(6)),
        tuple(full & ~(1 << i) for i in range(6)),
    )
    assert chromatic_number_exact(complete) == 6
    big = CommutationGraph(tuple((i,) for i in range(65)), (0,) * 65)
    with pytest.raises(TooLarge):
        chromatic_number_exact(big)


def test_sos_bound_examples():
    from ref_data import FIVE_QUDIT_CUT_12

    assert sos_bound(pauli_pair_spec(2)) == 2
    assert sos_bound(GroupSpec.from_gamma(2, GFMatrix(FIVE_QUDIT_CUT_12, 2))) == 4
    assert sos_bound(GroupSpec.from_gamma(2, GFMatrix.zeros(3, 3, 2))) == 8


def test_sum_bound_examples():
    value = sum_bound(pauli_pair_spec(3))
    assert value == pytest.approx(3 + 3 * np.sqrt(3), abs=1e-12)
    trivial = GroupSpec.from_gamma(3, GFMatrix.zeros(1, 1, 3))
    assert sum_bound(trivial) == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(EvenDimension):
        sum_bound(pauli_pair_spec(2))


def test_frustration_antisymmetry_random():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 5))
        gamma = random_antisymmetric(rng, d, k)
        for _ in range(10):
            I = tuple(int(v) for v in rng.integers(0, d, size=k))
            J = tuple(int(v) for v in rng.integers(0, d, size=k))
            total = (
                frustration_exponent(I, J, gamma)
                + frustration_exponent(J, I, gamma)
            )
            assert total % d == 0


def test_clique_closed_form_matches_bruteforce_random():
    rng = np.random.default_rng(31)
    done = 0
    while done < 25:
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 5))
        if d ** k > 81:
            continue
        done += 1
        spec = GroupSpec.from_gamma(d, random_antisymmetric(rng, d, k))
        assert clique_number(spec) == clique_number_bruteforce(commutation_graph(spec))


def test_nullity_plus_k_even_random():
    rng = np.random.default_rng(37)
    for _ in range(60):
        d = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(1, 8))
        gamma = random_antisymmetric(rng, d, k)
        nullity = k - rank(gamma)
        assert (nullity + k) % 2 == 0


def test_generator_change_of_basis_transforms_gamma():
    # rebuilding generators through an invertible exponent matrix O turns
    # the generating graph into O^T gamma O
    rng = np.random.default_rng(41)
    for _ in range(15):
        d = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        gens = [
            PauliOperator(
                d,
                tuple(int(v) for v in rng.integers(0, d, size=2)),
                tuple(int(v) for v in rng.integers(0, d, size=2)),
            ).canonical_unit_phase()
            for _ in range(k)
        ]
        gamma = generating_graph(gens)
        while True:
            O = GFMatrix(rng.integers(0, d, size=(k, k)), d)
            if rank(O) == k:
                break
        invert(O)  # sanity: truly invertible
        new_gens = []
        for col in range(k):
            op = PauliOperator.identity(d, 2)
            for row in range(k):
                e = int(O.entries[row, col])
                if e:
                    op = op * (gens[row] ** e)
            new_gens.append(op.canonical_unit_phase())
        assert generating_graph(new_gens) == O.T @ gamma @ O


def test_spec_validation():
    with pytest.raises(Exception):
        GroupSpec.from_gamma(2, GFMatrix([[1, 0], [0, 0]], 2))
    # gamma disagreeing with generators is rejected
    with pytest.raises(ValueError):
        GroupSpec(
            2,
            GFMatrix.zeros(2, 2, 2),
            (PauliOperator.x(2), PauliOperator.z(2)),
        )


def test_spec_gamma_mismatch_is_a_library_error():
    with pytest.raises(GammaMismatch) as err:
        GroupSpec(2, GFMatrix.zeros(2, 2, 2), (PauliOperator.x(2), PauliOperator.z(2)))
    assert isinstance(err.value, FrustGraphError)
    assert isinstance(err.value, ValueError)
    assert err.value.code == "gamma-mismatch"


def test_concrete_elements_of_the_trivial_group():
    spec = GroupSpec(3, GFMatrix.zeros(0, 0, 3), generators=())
    assert concrete_elements(spec) == [((), PauliOperator.identity(3, 0))]
