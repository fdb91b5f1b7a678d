"""Exact-arithmetic Morse index iteration for closed geodesics on spheres.

The library has six layers: exact quadratic-field arithmetic (`exact`),
symplectic normal-form blocks (`symplectic`), case classification and
index iteration (`iteration`), Betti/Morse bookkeeping (`morse`), the
trusted checker of single-geodesic certificates (`checker`), and the
mechanical single-geodesic case-analysis replayer (`prover`).
"""

from .exact import ExactReal, FieldMismatchError, floor_scaled
from .symplectic import Hyp, NBlock, NormalFormDecomposition, Rot
from .iteration import (
    Case,
    GeodesicModel,
    analytic_period,
    classify,
    critical_type,
    index_of_iterate,
    mean_index,
)
from .morse import (
    MorseTable,
    betti,
    check_morse_inequalities,
    euler_limit,
    mean_index_identity_lhs,
    morse_numbers,
)
from .checker import verify_certificate, verify_trace
from .prover import replay

__version__ = "0.1.0"

__all__ = [
    "ExactReal",
    "FieldMismatchError",
    "floor_scaled",
    "Rot",
    "NBlock",
    "Hyp",
    "NormalFormDecomposition",
    "Case",
    "GeodesicModel",
    "classify",
    "index_of_iterate",
    "mean_index",
    "analytic_period",
    "critical_type",
    "MorseTable",
    "betti",
    "morse_numbers",
    "check_morse_inequalities",
    "euler_limit",
    "mean_index_identity_lhs",
    "replay",
    "verify_certificate",
    "verify_trace",
]
