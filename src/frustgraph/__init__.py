"""Commutation-graph bounds and stabilizer entanglement for qudit observables.

The library has three layers:

* exact symbolic machinery: Z_d linear algebra (``gf``), generalized
  Pauli operators with integer phase bookkeeping (``pauli``), groups of
  omega-commuting unitaries and their graphs (``group``), symplectic
  canonical forms (``symplectic``), and stabilizers with closed-form
  geometric entanglement (``stabilizer``);
* a dense numeric oracle (``oracle``) that re-derives every closed form
  from explicit complex matrices at desk scale;
* a command-line front end (``cli``) with a small input grammar and
  deterministic JSON/text reports.
"""

__version__ = "0.1.0"

from .errors import (
    BadSubset,
    DependentGenerators,
    DimensionMismatch,
    EvenDimension,
    ExponentOutOfRange,
    FrustGraphError,
    GammaMismatch,
    InternalParity,
    InvalidMode,
    InvalidOption,
    NonCommuting,
    NonPrimeModulus,
    NotAntisymmetric,
    ParseError,
    PhaseViolation,
    Singular,
    TooLarge,
    TooManyBipartitions,
    UnknownCode,
)
from .gf import GFMatrix, invert, is_prime, nullspace_basis, rank
from .pauli import PauliOperator, SiteSubset, commutator_exponent, ordered_product, tensor
from .group import (
    CommutationGraph,
    GroupSpec,
    central_subgroup_indices,
    chromatic_number_exact,
    clique_number,
    clique_number_bruteforce,
    commutation_graph,
    concrete_elements,
    element_indices,
    frustration_exponent,
    generating_graph,
    sos_bound,
    sum_bound,
)
from .symplectic import CanonicalForm, block_reduce, canonical_form
from .stabilizer import (
    BipartitionReport,
    Stabilizer,
    bipartitions,
    builtin_code,
)
from .oracle import (
    OptimizerConfig,
    dense_pauli,
    lagrange_extremum,
    max_product_overlap,
    max_product_overlaps,
    max_sos,
    max_sum_eigenvalue,
    stabilizer_projector,
    theta_state,
    verify_swap_identity,
)

__all__ = [
    "__version__",
    "BadSubset",
    "BipartitionReport",
    "CanonicalForm",
    "CommutationGraph",
    "DependentGenerators",
    "DimensionMismatch",
    "EvenDimension",
    "ExponentOutOfRange",
    "FrustGraphError",
    "GFMatrix",
    "GammaMismatch",
    "GroupSpec",
    "InternalParity",
    "InvalidMode",
    "InvalidOption",
    "NonCommuting",
    "NonPrimeModulus",
    "NotAntisymmetric",
    "OptimizerConfig",
    "ParseError",
    "PauliOperator",
    "PhaseViolation",
    "Singular",
    "SiteSubset",
    "Stabilizer",
    "TooLarge",
    "TooManyBipartitions",
    "UnknownCode",
    "bipartitions",
    "block_reduce",
    "builtin_code",
    "canonical_form",
    "central_subgroup_indices",
    "chromatic_number_exact",
    "clique_number",
    "clique_number_bruteforce",
    "commutation_graph",
    "commutator_exponent",
    "concrete_elements",
    "dense_pauli",
    "element_indices",
    "frustration_exponent",
    "generating_graph",
    "invert",
    "is_prime",
    "lagrange_extremum",
    "max_product_overlap",
    "max_product_overlaps",
    "max_sos",
    "max_sum_eigenvalue",
    "nullspace_basis",
    "ordered_product",
    "rank",
    "sos_bound",
    "stabilizer_projector",
    "sum_bound",
    "tensor",
    "theta_state",
    "verify_swap_identity",
]
