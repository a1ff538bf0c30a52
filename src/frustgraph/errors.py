"""Exception types shared across the library.

Every error carries a stable ``code`` string so the command-line front end
can render machine-readable error identifiers without string matching.
"""

from __future__ import annotations


class FrustGraphError(Exception):
    """Base class for all library errors."""

    code = "internal"


class NonPrimeModulus(FrustGraphError):
    """The modulus d failed the primality check."""

    code = "non-prime-modulus"


class Singular(FrustGraphError):
    """Matrix inverse requested for a rank-deficient matrix."""

    code = "singular"


class DimensionMismatch(FrustGraphError):
    """Operands disagree in modulus, shape or site count."""

    code = "dimension-mismatch"


class NotAntisymmetric(FrustGraphError):
    """A generating-graph adjacency must satisfy M^T = -M with zero diagonal."""

    code = "not-antisymmetric"


class InternalParity(FrustGraphError):
    """An alternating matrix's rank came out odd, which only broken input can cause."""

    code = "internal-parity"


class InvalidOption(FrustGraphError, ValueError):
    """A configuration value lies outside its valid range."""

    code = "invalid-option"


class GammaMismatch(FrustGraphError, ValueError):
    """A group spec's gamma disagrees with its generators' commutators."""

    code = "gamma-mismatch"


class TooLarge(FrustGraphError):
    """Requested object exceeds the configured size cap."""

    code = "too-large"


class TooManyBipartitions(FrustGraphError):
    """Bipartition scan would exceed the configured cap."""

    code = "too-many-bipartitions"


class BadSubset(FrustGraphError):
    """Site subset is empty, out of range, or not proper where required."""

    code = "bad-subset"


class NonCommuting(FrustGraphError):
    """Two stabilizer generators fail to commute.

    ``i`` and ``j`` are the 1-based indices of the offending pair.
    """

    code = "non-commuting"

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"generators {i} and {j} do not commute")


class DependentGenerators(FrustGraphError):
    """Stabilizer generator exponent rows are linearly dependent over Z_d."""

    code = "dependent-generators"


class PhaseViolation(FrustGraphError):
    """A product with identity Pauli part carries a phase other than 1."""

    code = "phase-violation"


class UnknownCode(FrustGraphError):
    """Requested builtin code name is not recognised."""

    code = "unknown-code"


class EvenDimension(FrustGraphError):
    """Operation only defined for odd prime d."""

    code = "even-dimension"


class InvalidMode(FrustGraphError):
    """Input document mode does not fit the requested command."""

    code = "invalid-mode"


class ParseError(FrustGraphError):
    """Input document is malformed; carries 1-based line and column."""

    code = "parse-error"

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ExponentOutOfRange(FrustGraphError):
    """A site-token exponent lies outside [0, d)."""

    code = "exponent-out-of-range"
