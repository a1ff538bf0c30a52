"""Stabilizer validation, reduced graphs, and entanglement measures."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustgraph import (
    BadSubset,
    DependentGenerators,
    DimensionMismatch,
    GFMatrix,
    GroupSpec,
    NonCommuting,
    OptimizerConfig,
    PauliOperator,
    PhaseViolation,
    SiteSubset,
    Stabilizer,
    TooManyBipartitions,
    UnknownCode,
    bipartitions,
    builtin_code,
    clique_number,
    commutation_graph,
    max_sos,
    max_sum_eigenvalue,
    rank,
    sos_bound,
    sum_bound,
)
from frustgraph.limits import ENERGY_DIM_CAP, VERTEX_CAP
from frustgraph.stabilizer import DEFAULT_BIPARTITION_CAP
from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12
from test_matrix_free import graph_code


def ghz2_product_stabilizer():
    return Stabilizer(
        [PauliOperator(2, (0, 0), (1, 0)), PauliOperator(2, (0, 0), (0, 1))]
    )


def test_validate_ghz_ok():
    builtin_code("ghz", 2, 3).validate()


def test_validate_noncommuting():
    # the constructor validates, so no invalid Stabilizer is ever built
    with pytest.raises(NonCommuting) as err:
        Stabilizer([PauliOperator.x(2), PauliOperator.z(2)])
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_scalar_generator_is_phase_violation():
    minus_one = PauliOperator(2, (0,), (0,), phase_exp=2)
    with pytest.raises(PhaseViolation):
        Stabilizer([PauliOperator.x(2), minus_one])


def test_validate_quarter_phase_generator():
    # i X squares to -1, a scalar the group may not contain
    with pytest.raises(PhaseViolation):
        Stabilizer([PauliOperator(2, (1,), (0,), phase_exp=1)])


@pytest.mark.parametrize("build", [GroupSpec.from_generators, Stabilizer], ids=["group", "stabilizer"])
def test_phase_violation_names_the_generator(build):
    # i X squares to -1, so generator 2 has no unit order
    gens = [PauliOperator(2, (0, 1), (0, 0)), PauliOperator(2, (1, 0), (0, 0), phase_exp=1)]
    with pytest.raises(PhaseViolation, match="^generator 2 raised to the power 2 is a nontrivial scalar$"):
        build(gens)


def test_unit_order_is_checked_before_commutation():
    # Z and i X neither commute nor have i X of unit order: the group's rule comes first
    with pytest.raises(PhaseViolation, match="^generator 2 "):
        Stabilizer([PauliOperator.z(2), PauliOperator(2, (1,), (0,), phase_exp=1)])


@st.composite
def stabilizers(draw):
    """A random graph code with d in {2, 3, 5} and n <= 4, or a ghz or five-qudit builtin."""
    d = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["graph", "ghz", "five_qudit"]))
    if kind == "graph":
        n = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return graph_code(d, n, draw(st.integers(1, n)), rng)
    return builtin_code(kind, d, 5 if kind == "five_qudit" else draw(st.integers(2, 4)))


@settings(max_examples=30, deadline=None)
@given(stabilizers())
def test_a_stabilizer_is_its_group(stab):
    # every group routine gives the same value on the stabilizer as on its group
    group = GroupSpec.from_generators(stab.generators)
    assert isinstance(stab, GroupSpec)
    assert stab.gamma == group.gamma and stab.gamma_rank == group.gamma_rank == 0
    assert clique_number(stab) == clique_number(group)
    assert sos_bound(stab) == sos_bound(group)
    if stab.n_elements <= VERTEX_CAP:
        assert commutation_graph(stab) == commutation_graph(group)
    cfg = OptimizerConfig(restarts=3, seed=5)
    assert max_sos(stab, cfg) == max_sos(group, cfg)
    if stab.d != 2:
        assert sum_bound(stab) == sum_bound(group)
        if stab.d ** stab.n_sites <= ENERGY_DIM_CAP:
            assert max_sum_eigenvalue(stab) == max_sum_eigenvalue(group)
    # equality and hashing by identity
    assert hash(stab) == hash(stab) and stab == stab
    assert stab != Stabilizer(stab.generators)


def test_validate_dependent_generators():
    xx = PauliOperator(2, (1, 1), (0, 0))
    with pytest.raises(DependentGenerators):
        Stabilizer([xx, xx])


def test_reduced_graph_five_qudit_single_site():
    code = builtin_code("five_qudit", 2, 5)
    reduced = code.reduced_generating_graph(SiteSubset((1,), 5))
    assert reduced == GFMatrix(FIVE_QUDIT_CUT_1, 2)


def test_reduced_graph_five_qudit_two_site():
    code = builtin_code("five_qudit", 2, 5)
    reduced = code.reduced_generating_graph(SiteSubset((1, 2), 5))
    assert reduced == GFMatrix(FIVE_QUDIT_CUT_12, 2)


def test_reduced_graph_product_stabilizer_vanishes():
    stab = ghz2_product_stabilizer()
    reduced = stab.reduced_generating_graph(SiteSubset((1,), 2))
    assert not np.any(reduced.entries)


def test_reduced_graph_ghz_single_site():
    ghz = builtin_code("ghz", 2, 3)
    reduced = ghz.reduced_generating_graph(SiteSubset((1,), 3))
    assert rank(reduced) == 2
    # the clash is between the all-X generator and the first clock pair
    assert reduced.entries[0, 1] == 1
    assert reduced.entries[0, 1] == (-reduced.entries[1, 0]) % 2


def test_reduced_graph_bad_subset():
    ghz = builtin_code("ghz", 2, 3)
    with pytest.raises(BadSubset):
        ghz.reduced_generating_graph(SiteSubset((1, 2, 3), 3))
    with pytest.raises(BadSubset):
        ghz.reduced_generating_graph(SiteSubset((1,), 4))


def test_is_gme():
    assert builtin_code("ghz", 2, 3).is_gme() is True
    assert builtin_code("five_qudit", 2, 5).is_gme() is True
    assert ghz2_product_stabilizer().is_gme() is False


def test_is_gme_cap(monkeypatch):
    # 17 sites have 2^16 - 1 = 65535 cuts, above DEFAULT_BIPARTITION_CAP;
    # the refusal comes before any cut is ranked
    def no_scan(*_args):
        raise AssertionError("the scan started")

    monkeypatch.setattr("frustgraph.stabilizer.alternating_ranks", no_scan)
    stab = builtin_code("ghz", 2, 17)
    assert 2 ** 16 - 1 > DEFAULT_BIPARTITION_CAP
    with pytest.raises(TooManyBipartitions, match="65535 bipartitions"):
        stab.is_gme()


def test_gm_measure_five_qudit():
    code = builtin_code("five_qudit", 2, 5)
    assert code.gm_measure(SiteSubset((1,), 5)).gm_exact == Fraction(1, 2)
    assert code.gm_measure(SiteSubset((1, 2), 5)).gm_exact == Fraction(3, 4)
    assert code.gm_measure(SiteSubset((1, 3), 5)).gm_exact == Fraction(3, 4)


def test_gm_measure_unentangled_cut():
    stab = ghz2_product_stabilizer()
    report = stab.gm_measure(SiteSubset((1,), 2))
    assert report.gm_exact == 0
    assert report.gm_value == 0.0


def test_ggm_values():
    assert builtin_code("ghz", 2, 3).ggm_measure() == pytest.approx(0.5)
    assert builtin_code("ghz", 3, 3).ggm_measure() == pytest.approx(2 / 3)
    assert ghz2_product_stabilizer().ggm_measure() == 0.0
    assert builtin_code("five_qudit", 3, 5).ggm_measure() == pytest.approx(2 / 3)


def test_builtin_codes():
    ghz = builtin_code("ghz", 2, 3)
    assert ghz.k == 3 and ghz.n_sites == 3
    code = builtin_code("five_qudit", 2, 5)
    assert code.k == 4
    ranks = {
        1: rank(code.reduced_generating_graph(SiteSubset((1,), 5))),
        2: rank(code.reduced_generating_graph(SiteSubset((1, 2), 5))),
        3: rank(code.reduced_generating_graph(SiteSubset((1, 3), 5))),
    }
    assert ranks == {1: 2, 2: 4, 3: 4}
    with pytest.raises(UnknownCode):
        builtin_code("nope", 2, 5)
    with pytest.raises(DimensionMismatch):
        builtin_code("five_qudit", 2, 4)
    # qudit variants validate too
    builtin_code("five_qudit", 5, 5).validate()
    builtin_code("ghz", 5, 4).validate()


def test_rank_even_and_balanced_across_cuts():
    for code in (builtin_code("five_qudit", 3, 5), builtin_code("ghz", 2, 4)):
        for q in bipartitions(code.n_sites):
            r_q = rank(code.reduced_generating_graph(q))
            r_o = rank(code.reduced_generating_graph(q.complement()))
            assert r_q % 2 == 0
            assert r_q == r_o


def test_gme_iff_positive_ggm():
    for stab in (
        builtin_code("ghz", 2, 3),
        builtin_code("five_qudit", 2, 5),
        ghz2_product_stabilizer(),
    ):
        assert (stab.ggm_measure() > 0) == stab.is_gme()


def test_single_site_cut_rank_two_for_gme():
    for stab in (builtin_code("ghz", 3, 4), builtin_code("five_qudit", 2, 5)):
        assert stab.is_gme()
        for site in range(1, stab.n_sites + 1):
            q = SiteSubset((site,), stab.n_sites)
            assert rank(stab.reduced_generating_graph(q)) == 2


def test_bipartition_enumeration():
    subsets = list(bipartitions(4))
    assert len(subsets) == 2 ** 3 - 1
    assert all(1 in q.indices for q in subsets)
    assert all(q.is_proper for q in subsets)
    assert len({q.indices for q in subsets}) == len(subsets)
    assert list(bipartitions(1)) == []


@pytest.mark.parametrize("n", [0, -1])
def test_bipartitions_need_a_site(n):
    with pytest.raises(BadSubset, match="at least 1"):
        bipartitions(n)
