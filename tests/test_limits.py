"""The size caps of ``frustgraph.limits``, each at its boundary.

Each case shrinks one cap, in the module that reads it, to the size of a
small input: the routine runs at the cap and refuses one past it with the
cap's error code and both numbers in the message.  ``CASES`` holds one
routine per cap, ``CALL_SITES`` every further routine that reads one.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from frustgraph import (
    FrustGraphError,
    GFMatrix,
    GroupSpec,
    PauliOperator,
    SiteSubset,
    bipartitions,
    builtin_code,
    central_subgroup_indices,
    chromatic_number_exact,
    commutation_graph,
    concrete_elements,
    dense_pauli,
    lagrange_extremum,
    max_product_overlap,
    max_sum_eigenvalue,
    theta_state,
    verify_swap_identity,
)
from frustgraph import group, limits, oracle, stabilizer

SRC = pathlib.Path(limits.__file__).parent

# (module that reads the cap, cap, size of the input, the call, error code)
CASES = [
    (oracle, "DENSE_DIM_CAP", 9, lambda: dense_pauli(PauliOperator.identity(3, 2)), "too-large"),
    (oracle, "ENERGY_DIM_CAP", 9,
     lambda: max_sum_eigenvalue(GroupSpec.from_generators([PauliOperator(3, (1, 0), (0, 1))])),
     "too-large"),
    (oracle, "OVERLAP_DIM_CAP", 9,
     lambda: max_product_overlap(builtin_code("ghz", 3, 2), SiteSubset((1,), 2)), "too-large"),
    (oracle, "SWAP_D_CAP", 3, lambda: verify_swap_identity(3), "too-large"),
    (group, "VERTEX_CAP", 9,
     lambda: commutation_graph(GroupSpec.from_gamma(3, GFMatrix.zeros(2, 2, 3))), "too-large"),
    (group, "COLORING_VERTEX_CAP", 9,
     lambda: chromatic_number_exact(commutation_graph(GroupSpec.from_gamma(3, [[0, 1], [2, 0]]))),
     "too-large"),
    (stabilizer, "DEFAULT_BIPARTITION_CAP", 3,
     lambda: builtin_code("ghz", 2, 3).bipartition_reports(), "too-many-bipartitions"),
]

# the same fields, keyed by the routine: d^2 = 9 elements and d^nullity = 9
# central elements at d = 3, the d of the single-site checks, 2^2 - 1 cuts
PAIR = [PauliOperator(3, (1,), (0,)), PauliOperator(3, (0,), (1,))]
CALL_SITES = {
    "concrete_elements": (group, "VERTEX_CAP", 9,
                          lambda: concrete_elements(GroupSpec.from_generators(PAIR)), "too-large"),
    "central_subgroup_indices": (group, "VERTEX_CAP", 9,
                                 lambda: central_subgroup_indices(
                                     GroupSpec.from_gamma(3, GFMatrix.zeros(2, 2, 3))),
                                 "too-large"),
    "theta_state": (oracle, "ENERGY_DIM_CAP", 3, lambda: theta_state(3), "too-large"),
    "lagrange_extremum": (oracle, "DENSE_DIM_CAP", 3, lambda: lagrange_extremum(3), "too-large"),
    "bipartitions": (stabilizer, "DEFAULT_BIPARTITION_CAP", 3, lambda: bipartitions(3),
                     "too-many-bipartitions"),
}


@pytest.mark.parametrize("module,cap,size,call,code", CASES + list(CALL_SITES.values()),
                         ids=[case[1] for case in CASES] + list(CALL_SITES))
def test_every_cap_refuses_one_past_it(module, cap, size, call, code, monkeypatch):
    monkeypatch.setattr(module, cap, size)
    call()  # at the cap: admitted
    monkeypatch.setattr(module, cap, size - 1)
    with pytest.raises(FrustGraphError) as info:
        call()
    assert info.value.code == code
    assert str(info.value).startswith(f"{size} ")
    assert str(info.value).endswith(f"exceed the cap of {size - 1}")


def test_every_cap_has_a_case_and_lives_in_limits():
    caps = {name for name in vars(limits) if name.endswith("_CAP")}
    assert caps == {case[1] for case in CASES}
    for case in CASES + list(CALL_SITES.values()):  # the reader holds the limits value itself
        assert getattr(case[0], case[1]) is getattr(limits, case[1])
    for path in SRC.glob("*.py"):
        if path.name != "limits.py":
            assert not re.search(r"^\w*_CAP\s*=", path.read_text(encoding="utf-8"), re.M), path
