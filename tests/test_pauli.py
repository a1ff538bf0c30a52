"""Symbolic operator layer: products, powers, phases, restrictions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denseref
from frustgraph import (
    BadSubset,
    DimensionMismatch,
    PauliOperator,
    SiteSubset,
    commutator_exponent,
    ordered_product,
    tensor,
)
from frustgraph.gf import exact_dtype
from frustgraph.pauli import ordered_products, phase_modulus

FAITHFUL_TOL = 1e-12


def random_operator(rng, d, n_sites):
    return PauliOperator(
        d,
        tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
        tuple(int(v) for v in rng.integers(0, d, size=n_sites)),
        int(rng.integers(0, 4 if d == 2 else d)),
    )


def test_multiply_clock_past_shift():
    # single site, d=3: Z X = omega X Z
    z, x = PauliOperator.z(3), PauliOperator.x(3)
    prod = z * x
    assert (prod.a, prod.b, prod.phase_exp) == ((1,), (1,), 1)


def test_multiply_shift_squares_to_identity():
    x = PauliOperator.x(2)
    assert (x * x).is_identity


def test_multiply_xz_squared_is_minus_identity():
    xz = PauliOperator(2, (1,), (1,))
    sq = xz * xz
    assert (sq.a, sq.b) == ((0,), (0,))
    assert sq.phase_exp == 2  # i^2 = -1
    dense = denseref.dense(xz)
    assert np.max(np.abs(dense @ dense - (-np.eye(2)))) < FAITHFUL_TOL


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        PauliOperator.x(2).multiply(PauliOperator.x(3))
    with pytest.raises(DimensionMismatch):
        PauliOperator.x(2).multiply(PauliOperator.identity(2, 2))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_commutator_shift_vs_clock(d):
    sigma = commutator_exponent(PauliOperator.x(d), PauliOperator.z(d))
    assert sigma == d - 1  # -1 mod d


def test_commutator_self_is_zero():
    x = PauliOperator.x(3)
    assert commutator_exponent(x, x) == 0


def test_commutator_matches_first_cut_entry():
    # restrictions of the first and fourth five-qudit generators to site 1
    # are X and Z; their exponent is -1, the (1, 4) adjacency entry
    sigma = commutator_exponent(PauliOperator.x(2), PauliOperator.z(2))
    assert sigma == (-1) % 2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_power_shift_to_the_d(d):
    assert (PauliOperator.x(d) ** d).is_identity


def test_power_examples():
    xz = PauliOperator(2, (1,), (1,))
    assert (xz ** 2).phase_exp == 2
    assert (xz ** 0).is_identity
    # dense oracle for the square
    dense = denseref.dense(xz)
    assert np.max(np.abs(denseref.dense(xz ** 2) - dense @ dense)) < FAITHFUL_TOL


def test_power_negative_is_inverse():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        for _ in range(20):
            p = random_operator(rng, d, 2)
            assert (p ** -1).multiply(p).is_identity
            assert ((p ** -3) * (p ** 3)).is_identity
            # power reduces m mod phase_modulus(d); a chain of products checks it
            chain = PauliOperator.identity(d, p.n_sites)
            for m in range(1, 2 * phase_modulus(d) + 1):
                chain = chain * p
                assert p ** m == chain
                assert ((p ** -m) * chain).is_identity
            assert chain.is_identity


def test_canonical_unit_phase_xz_is_quarter_turn():
    y = PauliOperator(2, (1,), (1,)).canonical_unit_phase()
    assert y.phase_exp == 1
    assert np.max(np.abs(denseref.dense(y) - np.array([[0, -1j], [1j, 0]]))) < FAITHFUL_TOL


def test_canonical_unit_phase_keeps_shift():
    for d in (2, 3, 5):
        x = PauliOperator.x(d)
        assert x.canonical_unit_phase() == x


def test_canonical_unit_phase_xz_odd_dimension():
    xz = PauliOperator(3, (1,), (1,))
    assert xz.canonical_unit_phase().phase_exp == 0
    dense = denseref.dense(xz)
    cube = dense @ dense @ dense
    assert np.max(np.abs(cube - np.eye(3))) < FAITHFUL_TOL


def test_canonical_power_d_is_identity():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        for _ in range(30):
            p = random_operator(rng, d, 2).canonical_unit_phase()
            assert (p ** d).is_identity


def test_restrict_picks_sites():
    g1 = tensor(
        PauliOperator.x(2),
        PauliOperator.z(2),
        PauliOperator.z(2),
        PauliOperator.z(2),
        PauliOperator.identity(2, 1),
    )
    restricted = g1.restrict(SiteSubset((1,), 5))
    assert restricted == PauliOperator.x(2)


def test_restrict_full_set_is_canonical():
    p = PauliOperator(3, (1, 2), (2, 0), phase_exp=2)
    full = SiteSubset((1, 2), 2)
    assert p.restrict(full) == p.canonical_unit_phase()


def test_restrict_identity():
    ident = PauliOperator.identity(3, 4)
    assert ident.restrict(SiteSubset((2, 3), 4)) == PauliOperator.identity(3, 2)


def test_restrict_bad_subset():
    with pytest.raises(BadSubset):
        PauliOperator.x(2).restrict(SiteSubset((1,), 3))


def test_commutator_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        for _ in range(40):
            p = random_operator(rng, d, 2)
            q = random_operator(rng, d, 2)
            r = random_operator(rng, d, 2)
            s_pq = commutator_exponent(p, q)
            s_qp = commutator_exponent(q, p)
            assert (s_pq + s_qp) % d == 0
            combined = commutator_exponent(p * r, q)
            parts = commutator_exponent(p, q) + commutator_exponent(r, q)
            assert combined % d == parts % d


def test_commutator_matches_dense_relation():
    # p q = omega^sigma q p as dense matrices, for random one- and two-site pairs
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        omega = np.exp(2j * np.pi / d)
        for n_sites in (1, 2):
            for _ in range(25):
                p = random_operator(rng, d, n_sites)
                q = random_operator(rng, d, n_sites)
                sigma = commutator_exponent(p, q)
                mp, mq = denseref.dense(p), denseref.dense(q)
                assert np.max(np.abs(mp @ mq - omega ** sigma * (mq @ mp))) < FAITHFUL_TOL


def test_restriction_exponents_balance_across_cut():
    # for commuting p, q the cut exponents satisfy tau_Q = -tau_complement
    rng = np.random.default_rng(17)
    for d in (2, 3):
        found = 0
        while found < 20:
            p = random_operator(rng, d, 4)
            q = random_operator(rng, d, 4)
            if commutator_exponent(p, q):
                continue
            found += 1
            q_side = SiteSubset((1, 3), 4)
            other = q_side.complement()
            tau_q = commutator_exponent(p.restrict(q_side), q.restrict(q_side))
            tau_o = commutator_exponent(p.restrict(other), q.restrict(other))
            assert (tau_q + tau_o) % d == 0


def test_site_subset_invariants():
    s = SiteSubset((3, 1), 4)
    assert s.indices == (1, 3)
    assert s.complement().indices == (2, 4)
    assert s.is_proper
    with pytest.raises(BadSubset):
        SiteSubset((), 3)
    with pytest.raises(BadSubset):
        SiteSubset((0,), 3)
    with pytest.raises(BadSubset):
        SiteSubset((4,), 3)
    with pytest.raises(BadSubset):
        SiteSubset((1, 2), 2).complement()


def test_ordered_product_is_left_to_right_power_product():
    rng = np.random.default_rng(29)
    for d in (2, 3, 5):
        ops = [random_operator(rng, d, 3) for _ in range(3)]
        for exponents in ((0, 0, 0), (1, 0, 2), (d - 1, 1, 1), (0, 2, 0)):
            want = PauliOperator.identity(d, 3)
            for op, e in zip(ops, exponents):
                want = want * op.power(e)
            assert ordered_product(ops, exponents) == want
        assert ordered_product(ops, np.array([1, 1, 0])) == ops[0] * ops[1]
    with pytest.raises(DimensionMismatch):
        ordered_product([], [])


def assert_rows_are_power_chains(ops, rows) -> None:
    A, B, units = ordered_products(ops, rows)
    assert len(A) == len(B) == len(units) == len(rows)
    for row, a, b, unit in zip(rows, A, B, units):
        want = denseref.product(ops, row)  # raw outputs: already reduced, exact ints
        assert ([int(v) for v in a], [int(v) for v in b]) == (list(want.a), list(want.b))
        assert int(unit) == want.phase_exp


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3, 5, 7, 2 ** 31 - 1]))
def test_ordered_products_match_power_chains(data, d):
    # every phase exponent, so d = 2 operators without unit order are drawn too
    m = phase_modulus(d)
    n = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(1, 4))
    residues = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    ops = [
        PauliOperator(d, tuple(data.draw(residues)), tuple(data.draw(residues)), p)
        for p in data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    ]
    row = st.lists(st.integers(-2 * m, 2 * m), min_size=k, max_size=k)
    assert_rows_are_power_chains(ops, data.draw(st.lists(row, min_size=1, max_size=4)))


def test_ordered_products_exact_when_k_exceeds_2n():
    # d = 2^31 - 1, n = 1: sums of 2n products fit int64, sums of k = 4 do not
    d = 2 ** 31 - 1
    assert exact_dtype(d, 2) is np.int64 and exact_dtype(d, 4) is object
    ops = [PauliOperator(d, (d - 1,), (d - 1 - i,), d - 1 - i) for i in range(4)]
    rows = [[d - 1] * 4, [d - 2, -1, d - 1, 2 * d - 3], [0, 0, 0, 0]]
    assert_rows_are_power_chains(ops, rows)


def test_ordered_products_rejects_bad_exponent_rows():
    ops = [PauliOperator.x(3), PauliOperator.z(3)]
    for rows in ([[1, 2, 0]], [1, 2]):
        with pytest.raises(DimensionMismatch):
            ordered_products(ops, rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3, 5, 7, 2 ** 31 - 1]))
def test_unit_order_closed_form_matches_power(data, d):
    n = data.draw(st.integers(0, 4))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    a, b = tuple(data.draw(exps)), tuple(data.draw(exps))
    modulus = phase_modulus(d)
    if modulus <= 7:
        phases = range(modulus)
    else:
        phases = [0, 1, modulus - 1, data.draw(st.integers(0, modulus - 1))]
    for p in phases:
        op = PauliOperator(d, a, b, p)
        assert op.has_unit_order == (op ** d).is_identity
