"""Exact-arithmetic Morse index iteration for closed geodesics on spheres.

The library has six layers: the trusted certificate checker (`checker`),
which imports nothing from the package; exact quadratic-field arithmetic
(`exact`), the model-file reader of normal-form blocks (`symplectic`), case
classification and index iteration (`iteration`), Betti/Morse bookkeeping
(`morse`), and the mechanical single-geodesic case-analysis replayer (`prover`).
"""

from .exact import ExactReal
from .iteration import (
    GeodesicModel,
    analytic_period,
    critical_type,
    index_of_iterate,
    mean_index,
)
from .morse import (
    betti,
    euler_limit,
    mean_index_identity_lhs,
    morse_numbers,
)
from .checker import verify_certificate, verify_trace
from .prover import replay

__version__ = "0.1.0"

__all__ = [
    "ExactReal",
    "GeodesicModel",
    "index_of_iterate",
    "mean_index",
    "analytic_period",
    "critical_type",
    "betti",
    "morse_numbers",
    "euler_limit",
    "mean_index_identity_lhs",
    "replay",
    "verify_certificate",
    "verify_trace",
]
