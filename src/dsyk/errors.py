"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: bad input (2),
resource guards (3), and violated numerical contracts (4).
"""


class DsykError(Exception):
    """Base class for all package errors."""


class ValidationError(DsykError):
    """Invalid parameters or malformed inputs. CLI exit code 2."""


class IncompatibleOperatorsError(ValidationError):
    """Operators live on different Majorana spaces (mismatched N)."""


class ResourceLimitError(DsykError):
    """A configured resource guard was exceeded. CLI exit code 3."""


class NumericalContractError(DsykError):
    """A numerical postcondition failed. CLI exit code 4."""


class MomentDegeneracyError(NumericalContractError):
    """Division by a vanishing pivot in the moment recursion.

    Attributes n, k identify the failing recursion entry.
    """

    def __init__(self, n, k, message=None):
        self.n = n
        self.k = k
        super().__init__(message or f"vanishing pivot at recursion entry (n={n}, k={k})")


class TruncationError(NumericalContractError):
    """Chain truncation contaminated the result; retry with larger n_trunc."""


class FitError(NumericalContractError):
    """A requested fit window is too small or the data violate fit assumptions."""
