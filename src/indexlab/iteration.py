"""Case classification and index iteration for completely non-degenerate maps.

A geodesic model is a normal-form decomposition of total dimension 2(n-1)
together with the free integer parameter p of its homotopy class.  The five
case shapes determine closed iteration formulas for the Morse index of
every iterate; the nullity vanishes identically (bumpy hypothesis).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .exact import ExactReal, floor_scaled
from .symplectic import (
    Hyp,
    NBlock,
    NormalFormDecomposition,
    Rot,
    decomposition_from_json,
)


class Case(enum.Enum):
    NCG1 = "NCG1"
    NCG2 = "NCG2"
    NCG3 = "NCG3"
    NCG4 = "NCG4"
    NCG5 = "NCG5"


class ModelInvariantError(ValueError):
    """Model data violates its case shape or parameter constraints."""


def classify(n: int, dec: NormalFormDecomposition) -> Case:
    """Determine the case tag from the non-N block census.

    With k rotations and h hyperbolic blocks among the 2x2 blocks:
    h = 0 with k > 0 is NCG1 (a rotation-only tail, including the k = 1
    boundary, where the NCG1 and NCG4 formulas agree); h = 0 with k = 0
    is NCG5 with an empty hyperbolic tail; otherwise k = 0 -> NCG5,
    k = 1 -> NCG4, k even -> NCG2, k odd -> NCG3.
    """
    if dec.total_dim != 2 * (n - 1):
        raise ModelInvariantError(
            f"decomposition has dimension {dec.total_dim}, expected {2 * (n - 1)}"
        )
    k = dec.count(Rot)
    h = dec.count(Hyp)
    if h == 0:
        return Case.NCG1 if k > 0 else Case.NCG5
    if k == 0:
        return Case.NCG5
    if k == 1:
        return Case.NCG4
    return Case.NCG2 if k % 2 == 0 else Case.NCG3


@dataclass(frozen=True)
class GeodesicModel:
    """One hypothetical prime closed geodesic: blocks + homotopy parameter p.

    Every case shape iterates as i(c^m) = slope*m + 2*sum floor(m*rho_j) + const
    over its rotation numbers rho_j; the model fixes (slope, const) when built.
    """

    n: int
    dec: NormalFormDecomposition
    p: int
    case: Case = field(init=False)
    rotation_numbers: tuple[ExactReal, ...] = field(init=False, repr=False, compare=False)
    slope: int = field(init=False, repr=False, compare=False)
    const: int = field(init=False, repr=False, compare=False)
    _last: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ModelInvariantError("sphere dimension n must be >= 2")
        n, p = self.n, self.p
        case = classify(n, self.dec)
        k, r = self.dec.count(Rot), self.dec.count(NBlock)
        slope, const = {
            Case.NCG1: (2 * p, n - 2 * r - 1),
            Case.NCG2: (p - k, k),
            Case.NCG3: (p - k, k),
            Case.NCG4: (p - 1, 1),
            Case.NCG5: (p, 0),
        }[case]
        for name, value in (("case", case),
                            ("rotation_numbers", tuple(b.rho for b in self.dec.rotations)),
                            ("slope", slope), ("const", const), ("_last", [(0, None)])):
            object.__setattr__(self, name, value)
        if case is Case.NCG1:
            if self.initial_index < 0:
                raise ModelInvariantError(
                    f"NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got {self.initial_index}"
                )
        else:
            if self.p < 0:
                raise ModelInvariantError(f"{case.value} requires p >= 0, got {self.p}")
        if case is Case.NCG2 and not (2 <= k <= self.n - 2 * r - 2):
            raise ModelInvariantError(f"NCG2 needs even k with 2 <= k <= n-2r-2, got k={k}")
        if case is Case.NCG3 and not (3 <= k <= self.n - 2 * r - 2):
            raise ModelInvariantError(f"NCG3 needs odd k with 3 <= k <= n-2r-2, got k={k}")

    @property
    def initial_index(self) -> int:
        """i(c) = i(c^1) = slope + const: the floors vanish at m = 1, as 0 < rho < 1."""
        return self.slope + self.const


def index_of_iterate(g: GeodesicModel, m: int) -> tuple[int, int]:
    """(i(c^m), nu(c^m)) = (slope*m + 2*sum floor(m*rho_j) + const, 0).

    The floors vanish at m = 1, as 0 < rho_j < 1, so i(c^1) = initial_index.
    Each model caches its last result only: every repeated query asks for the
    iterate just asked for (critical_type(g, m) follows index_of_iterate(g, m)),
    so one entry serves every hit and memory stays O(1) per model.  The entry,
    (0, None) before any query, is one (m, result) pair replaced by a single
    assignment, so a concurrent reader never sees one m with another's result.
    """
    if m < 1:
        raise ValueError("iterate m must be positive")
    last = g._last
    cached_m, result = last[0]
    if cached_m == m:
        return result
    floors = 0
    for rho in g.rotation_numbers:
        floors += floor_scaled(rho, m)
    result = (g.slope * m + 2 * floors + g.const, 0)
    last[0] = (m, result)
    return result


def mean_index(g: GeodesicModel) -> ExactReal:
    """Exact mean index slope + 2*sum rho_j: the per-iterate slope of i(c^m)."""
    rho_sum = ExactReal(0)
    for rho in g.rotation_numbers:
        rho_sum = rho_sum + rho
    return ExactReal(g.slope) + ExactReal(2) * rho_sum


def analytic_period(g: GeodesicModel) -> int:
    """Minimal period N of the critical-type sequence (always 1 or 2).

    N = 1 iff i(c^m) - i(c) is even for every m; 2*floor(m*rho) is even and
    the floors vanish at m = 1, so that difference has the parity of slope*(m - 1).
    """
    return 1 if g.slope % 2 == 0 else 2


def critical_type(g: GeodesicModel, m: int) -> tuple[int, int]:
    """(epsilon, k0) at the m-th iterate.

    epsilon = (-1)^(i(c^m) - i(c)), where i(c) = slope + const; in the
    non-degenerate case the local homology contributes exactly when
    epsilon = +1, so k0 = 1 iff epsilon = +1.
    """
    if (index_of_iterate(g, m)[0] - g.slope - g.const) % 2:
        return -1, 0
    return 1, 1


# -- JSON input ------------------------------------------------------------

def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:  # bool, float and str are refused, never truncated
        raise ModelInvariantError(f"{key} must be an integer, got {value!r}")
    return value


def model_from_json(obj: dict) -> GeodesicModel:
    g = GeodesicModel(n=_int_field(obj, "n"), dec=decomposition_from_json(obj["dec"]),
                      p=_int_field(obj, "p"))
    declared = obj.get("case")
    if declared is not None and declared != g.case.value:
        raise ModelInvariantError(
            f"declared case {declared} does not match classified case {g.case.value}"
        )
    return g
