"""The energy bound for odd d and the state that saturates it.

For odd prime d the sum of all group elements and their adjoints is a
Hamiltonian whose top eigenvalue cannot exceed

    2 * clique_number * ((1 + sqrt(d)) / 2)^(rank/2).

For the single-site shift/clock pair the whole Weyl sum collapses to
d^(3/2) |+><0|, the bound becomes d (1 + sqrt(d)), and the explicit
single-site state built by theta_state attains it.
"""

import numpy as np

import frustgraph as fg

for d in (3, 5, 7):
    spec = fg.GroupSpec.from_generators([fg.PauliOperator.x(d), fg.PauliOperator.z(d)])
    bound = fg.sum_bound(spec)
    top = fg.max_sum_eigenvalue(spec)
    print(f"d={d}:  bound = {bound:.9f}   top eigenvalue = {top:.9f}")

    # the scalar extremum behind the bound
    extremum = fg.lagrange_extremum(d)
    print(f"       scalar extremum = {extremum:.9f}  (= (1 + 1/sqrt(d))/2)")

    # the saturating single-site state: evaluate the full Weyl sum on it
    theta = fg.theta_state(d)
    total = sum(
        np.vdot(theta, fg.dense_pauli(fg.PauliOperator(d, (i,), (j,))) @ theta)
        for i in range(d)
        for j in range(d)
    )
    print(f"       Weyl sum at theta = {total.real:.9f}  (= d(1+sqrt(d))/2)")
