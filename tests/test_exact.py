"""Exact Z_d arithmetic above the int64 range, against pure-Python references.

At d = 2^31 - 1 a product of two residues still fits int64 but a sum of
two does not; at d = 4294967311, the first prime above 2^32, not even one
product fits.  ``gf.exact_dtype`` must move every array that would
overflow to Python ints, so each result here is compared with plain
integer arithmetic that cannot overflow.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frustgraph import (
    GFMatrix,
    Singular,
    canonical_form,
    frustration_exponent,
    invert,
    rank,
)
from frustgraph.cli import main
from frustgraph.gf import exact_dtype
from frustgraph.symplectic import pair_block_matrix

P31 = 2 ** 31 - 1
P32 = 4294967311
BIG = [P31, P32]


def ref_matmul(a, b, d):
    return [[sum(x * y for x, y in zip(row, col)) % d for col in zip(*b)] for row in a]


def ref_echelon(m, d, pivot_cols=None):
    """Reduced row echelon form in Python ints; returns rows and pivots."""
    rows = [[v % d for v in row] for row in m]
    limit = len(rows[0]) if pivot_cols is None else pivot_cols
    pivots, r = [], 0
    for c in range(limit):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = pow(rows[r][c], -1, d)
        rows[r] = [v * inv % d for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % d for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_rank(m, d):
    return len(ref_echelon(m, d)[1])


def residue_matrices(d, rows, cols):
    entry = st.one_of(st.integers(0, d - 1), st.sampled_from([0, 1, d - 1]))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def matmul_cases(draw):
    d = draw(st.sampled_from(BIG))
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    return d, draw(residue_matrices(d, r, k)), draw(residue_matrices(d, k, c))


@st.composite
def low_rank_cases(draw):
    """A rows x cols matrix that is a product through an inner dimension."""
    d = draw(st.sampled_from(BIG))
    rows, cols, inner = (draw(st.integers(1, 5)) for _ in range(3))
    left = draw(residue_matrices(d, rows, inner))
    right = draw(residue_matrices(d, inner, cols))
    return d, ref_matmul(left, right, d)


def test_dtype_rule_picks_python_ints_where_int64_overflows():
    assert exact_dtype(7, 2 * 64) is np.int64  # benchmark-sized tableaux
    assert exact_dtype(P31) is exact_dtype(P31, 2) is np.int64
    assert exact_dtype(P31, 3) is exact_dtype(P32) is object
    assert GFMatrix([[6]], 7).entries.dtype == np.int64
    assert GFMatrix([[P32 - 1]], P32).entries.dtype == object


@settings(max_examples=25, deadline=None)
@given(matmul_cases())
@example((P31, [[P31 - 1] * 4], [[P31 - 1]] * 4))
@example((P32, [[P32 - 1] * 4], [[P32 - 1]] * 4))
def test_matmul_exact(case):
    d, a, b = case
    assert (GFMatrix(a, d) @ GFMatrix(b, d)).to_lists() == ref_matmul(a, b, d)


@settings(max_examples=25, deadline=None)
@given(low_rank_cases())
def test_rank_exact(case):
    d, m = case
    assert rank(GFMatrix(m, d)) == ref_rank(m, d)


@st.composite
def square_cases(draw):
    d = draw(st.sampled_from(BIG))
    n = draw(st.integers(1, 4))
    return d, draw(residue_matrices(d, n, n))


@settings(max_examples=25, deadline=None)
@given(square_cases())
def test_invert_exact(case):
    d, m = case
    n = len(m)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    aug, pivots = ref_echelon([row + e for row, e in zip(m, identity)], d, pivot_cols=n)
    if len(pivots) < n:
        with pytest.raises(Singular):
            invert(GFMatrix(m, d))
        return
    inverse = invert(GFMatrix(m, d))
    assert inverse.to_lists() == [row[n:] for row in aug]
    assert ref_matmul(inverse.to_lists(), m, d) == identity


@st.composite
def antisymmetric_cases(draw):
    d = draw(st.sampled_from(BIG))
    k = draw(st.integers(1, 5))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g[i][j] = draw(st.one_of(st.integers(0, d - 1), st.sampled_from([0, 1, d - 1])))
            g[j][i] = (-g[i][j]) % d
    return d, g


@settings(max_examples=20, deadline=None)
@given(antisymmetric_cases())
def test_canonical_form_exact(case):
    d, g = case
    k = len(g)
    form = canonical_form(GFMatrix(g, d))
    O = form.O.to_lists()
    Ot = [list(col) for col in zip(*O)]
    assert ref_matmul(ref_matmul(Ot, g, d), O, d) == pair_block_matrix(k, form.m, d).to_lists()
    assert 2 * form.m == ref_rank(g, d)
    assert ref_rank(O, d) == k


def test_frustration_exponent_exact():
    d = P31
    gamma = GFMatrix([[0, d - 1], [1, 0]], d)
    assert frustration_exponent((d - 1, d - 1), (d - 1, d - 1), gamma) == 0
    assert frustration_exponent((1, 0), (0, d - 1), gamma) == 1
    assert type(frustration_exponent((1, 0), (0, 1), gamma)) is int


BIG_DOCUMENT = f"""d={P32} n=2 mode=group
g1: X^{P32 - 1}Z^{P32 - 2} X^{P32 - 3}Z^{P32 - 1}
g2: X^{P32 - 2}Z^{P32 - 1} Z^{P32 - 5}
g3: X^{P32 - 7} X^{P32 - 1}Z^{P32 - 3}
"""


def test_cli_exact_above_two_to_the_32(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(BIG_DOCUMENT, encoding="utf-8")
    assert main(["analyze", str(path), "--format", "json"]) == 0
    analyze = json.loads(capsys.readouterr().out)["result"]
    assert analyze["rank"] == 2
    assert analyze["rank"] == ref_rank(analyze["gamma"], P32)
    assert main(["canonical", str(path), "--format", "json"]) == 0
    canonical = json.loads(capsys.readouterr().out)["result"]
    assert canonical["rank"] == 2
    O, g = canonical["O"], canonical["gamma"]
    Ot = [list(col) for col in zip(*O)]
    assert ref_matmul(ref_matmul(Ot, g, P32), O, P32) == pair_block_matrix(3, 1, P32).to_lists()
