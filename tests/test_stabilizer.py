"""Stabilizer validation, reduced graphs, and entanglement measures."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from frustgraph import (
    BadSubset,
    DependentGenerators,
    DimensionMismatch,
    GFMatrix,
    NonCommuting,
    PauliOperator,
    PhaseViolation,
    SiteSubset,
    Stabilizer,
    TooManyBipartitions,
    UnknownCode,
    bipartitions,
    builtin_code,
    rank,
)
from frustgraph.stabilizer import DEFAULT_BIPARTITION_CAP
from ref_data import FIVE_QUDIT_CUT_1, FIVE_QUDIT_CUT_12


def ghz2_product_stabilizer():
    return Stabilizer(
        [PauliOperator(2, (0, 0), (1, 0)), PauliOperator(2, (0, 0), (0, 1))]
    )


def test_validate_ghz_ok():
    builtin_code("ghz", 2, 3).validate()


def test_validate_noncommuting():
    stab = Stabilizer([PauliOperator.x(2), PauliOperator.z(2)])
    with pytest.raises(NonCommuting) as err:
        stab.validate()
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_scalar_generator_is_phase_violation():
    minus_one = PauliOperator(2, (0,), (0,), phase_exp=2)
    with pytest.raises(PhaseViolation):
        Stabilizer([PauliOperator.x(2), minus_one]).validate()


def test_validate_quarter_phase_generator():
    # i X squares to -1, a scalar the group may not contain
    with pytest.raises(PhaseViolation):
        Stabilizer([PauliOperator(2, (1,), (0,), phase_exp=1)]).validate()


def test_validate_dependent_generators():
    xx = PauliOperator(2, (1, 1), (0, 0))
    with pytest.raises(DependentGenerators):
        Stabilizer([xx, xx]).validate()


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
