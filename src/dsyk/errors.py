"""Exception hierarchy, and the memory guard behind exit code 3.

Three top-level families map onto the CLI exit codes: bad input (2),
resource guards (3), and violated numerical contracts (4).
"""

import os


class DsykError(Exception):
    """Base class for all package errors."""


class ValidationError(DsykError):
    """Invalid parameters or malformed inputs. CLI exit code 2."""


class ResourceLimitError(DsykError):
    """A run would need more memory than is available. CLI exit code 3."""


def require_memory(need, what, detail):
    """Raise ResourceLimitError if need bytes exceed the memory the
    operating system reports available."""
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > free:
        # the need rounded up and the memory rounded down, so that the
        # printed need is always the larger
        raise ResourceLimitError(
            f"{what} needs about {-(-need // 2 ** 20):,} MiB ({detail}); "
            f"{free // 2 ** 20:,} MiB is available")


class NumericalContractError(DsykError):
    """A numerical postcondition failed. CLI exit code 4."""


class MomentDegeneracyError(NumericalContractError):
    """Division by a vanishing pivot in the moment recursion."""


class TruncationError(NumericalContractError):
    """Chain truncation contaminated the result; retry with larger n_trunc."""


class FitError(NumericalContractError):
    """A requested fit window is too small or the data violate fit assumptions."""
