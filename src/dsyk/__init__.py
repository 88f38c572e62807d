"""Operator growth and Krylov complexity in the dissipative SYK model.

Three computational regimes, cross-validated:

* exact finite-N Lindbladian algebra on Jordan-Wigner matrices plus
  Arnoldi iteration (``majorana``, ``lindblad``, ``krylov``),
* large-N diagrammatic operator calculus on rooted trees with a Lanczos
  driver (``trees``, ``largen``),
* moment-method and closed-form large-q analytics with Krylov-chain
  dynamics (``moments``, ``analytic``, ``dynamics``).
"""

from .errors import (
    DsykError,
    ValidationError,
    ResourceLimitError,
    NumericalContractError,
)

__all__ = [
    "DsykError",
    "ValidationError",
    "ResourceLimitError",
    "NumericalContractError",
]

__version__ = "0.1.0"
