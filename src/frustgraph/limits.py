"""Every size cap of the package, each bounding a d^n, d^k or 2^(n-1) exponential.

The cost at each cap is a fresh process on one core of a 2-vCPU KVM guest
with one BLAS thread, or in-process where marked.
"""

from .errors import TooLarge

DENSE_DIM_CAP = 4096  # d^n of a dense state: verify ghz d=2 n=12 --sos, 5.0-6.5 s, 935 MB;
#   also d of the lagrange check's d x d form: verify --lagrange --d 4093, 10 s
ENERGY_DIM_CAP = 1024  # d^n of the energy check: verify ghz d=3 n=6 --sum (729), 0.25 s;
#   also d of theta_state and its Weyl sum: verify --theta --d 1021, 0.35 s
OVERLAP_DIM_CAP = 1024  # d^n of the overlap ascent: verify ghz d=2 n=10 --overlap, 0.32-0.33 s;
#   its slowest check, two generators at d=2 n=10 (1024 x 256 code basis): verify --overlap,
#   26-29 s; the widest basis, one generator at d=2 n=10 (1024 x 512): 3.6-3.7 s
SWAP_D_CAP = 11  # d of the swap check's d^2 dense Weyl terms: verify --swap --d 11, 0.44 s
VERTEX_CAP = 256  # commutation-graph vertices: clique search at d=2 k=8, 0.14 s in-process;
#   also d^k concrete elements and d^nullity central elements
COLORING_VERTEX_CAP = 32  # exact coloring in-process: worst of 40 random d=2 k=5 graphs 2 ms,
#   of 20 random G(32, p) 24 ms; at 40 vertices 0.14 s, at 64 (d=2 k=6, rank 6) over 60 s
DEFAULT_BIPARTITION_CAP = 2 ** 15 - 1  # cuts, n <= 16: ghz d=3 n=16 JSON scan, 0.84 s, 71 MB;
#   also the site lists of bipartitions(n), built eagerly: 6.8 s and 219 MB at n = 21


def check_size(size: int, cap: int, what: str, error: type = TooLarge) -> int:
    """Return ``size``; past ``cap`` raise ``error`` ("<size> <what> exceed the cap of <cap>")."""
    if size > cap:
        raise error(f"{size} {what} exceed the cap of {cap}")
    return size
