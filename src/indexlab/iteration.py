"""Case classification and index iteration for completely non-degenerate maps.

A geodesic model is a normal-form decomposition of total dimension 2(n-1)
together with the free integer parameter p of its homotopy class.  The five
case shapes determine closed iteration formulas for the Morse index of
every iterate; the nullity vanishes identically (bumpy hypothesis).
"""

from __future__ import annotations

from .checker import case_of
from .exact import ExactReal, floor_scaled
from .symplectic import Hyp, NBlock, NormalFormDecomposition, Rot, decomposition_from_json


class ModelInvariantError(ValueError):
    """Model data violates its case shape or parameter constraints."""


def classify(n: int, dec: NormalFormDecomposition) -> str:
    """The case tag "NCG1" to "NCG5" of the non-N block census: `checker.case_of` of its k
    rotations and h hyperbolic blocks, for a decomposition of dimension 2(n-1)."""
    if dec.total_dim != 2 * (n - 1):
        raise ModelInvariantError(
            f"decomposition has dimension {dec.total_dim}, expected {2 * (n - 1)}"
        )
    return case_of(dec.count(Rot), dec.count(Hyp))


class GeodesicModel:
    """One hypothetical prime closed geodesic: blocks + homotopy parameter p.

    Every case shape iterates as i(c^m) = slope*m + 2*sum floor(m*rho_j) + const
    over its rotation numbers rho_j; the model fixes (slope, const) when built.
    Instances are immutable, and equal and hashed by (n, dec, p).
    """

    __slots__ = ("n", "dec", "p", "case", "rotation_numbers", "slope", "const", "_last")

    def __init__(self, n: int, dec: NormalFormDecomposition, p: int):
        if n < 2:
            raise ModelInvariantError("sphere dimension n must be >= 2")
        case = classify(n, dec)
        k, r = dec.count(Rot), dec.count(NBlock)
        slope, const = {
            "NCG1": (2 * p, n - 2 * r - 1),
            "NCG2": (p - k, k),
            "NCG3": (p - k, k),
            "NCG4": (p - 1, 1),
            "NCG5": (p, 0),
        }[case]
        for name, value in (("n", n), ("dec", dec), ("p", p), ("case", case),
                            ("rotation_numbers", tuple(b.rho for b in dec.rotations)),
                            ("slope", slope), ("const", const), ("_last", [(0, None)])):
            object.__setattr__(self, name, value)
        if case == "NCG1":
            if self.initial_index < 0:
                raise ModelInvariantError(
                    f"NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got {self.initial_index}"
                )
        elif p < 0:
            raise ModelInvariantError(f"{case} requires p >= 0, got {p}")

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicModel is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.dec, self.p) == (other.n, other.dec, other.p)

    def __hash__(self):
        return hash((self.n, self.dec, self.p))

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return (GeodesicModel, (self.n, self.dec, self.p))

    def __repr__(self):
        return f"GeodesicModel(n={self.n!r}, dec={self.dec!r}, p={self.p!r}, case={self.case!r})"

    @property
    def initial_index(self) -> int:
        """i(c) = i(c^1) = slope + const: the floors vanish at m = 1, as 0 < rho < 1."""
        return self.slope + self.const


def index_of_iterate(g: GeodesicModel, m: int) -> int:
    """i(c^m) = slope*m + 2*sum floor(m*rho_j) + const; the nullity nu(c^m) is 0.

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
    result = g.slope * m + 2 * floors + g.const
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
    if (index_of_iterate(g, m) - g.slope - g.const) % 2:
        return -1, 0
    return 1, 1


# -- JSON input ------------------------------------------------------------

def _int_field(obj: dict, key: str) -> int:
    value = obj.get(key)
    if type(value) is not int:  # bool, float and str are refused, never truncated
        raise ModelInvariantError(f"{key} must be an integer, got {value!r}")
    return value


def model_from_json(obj: dict) -> GeodesicModel:
    if type(obj) is not dict:
        raise ModelInvariantError(f"a model must be an object with n, p and dec, got {obj!r}")
    g = GeodesicModel(n=_int_field(obj, "n"), dec=decomposition_from_json(obj.get("dec")),
                      p=_int_field(obj, "p"))
    declared = obj.get("case")
    if declared is not None and declared != g.case:
        raise ModelInvariantError(f"declared case {declared} does not match classified case "
                                  f"{g.case}")
    # mean_index sums the rotation numbers, so they must share one field
    rots = [(i, b.rho.D) for i, b in enumerate(g.dec.blocks) if isinstance(b, Rot)]
    for i, D in rots:
        if D != rots[0][1]:
            raise ModelInvariantError(f"dec.blocks[{rots[0][0]}].rho and dec.blocks[{i}].rho "
                                      f"lie in Q(sqrt({rots[0][1]})) and Q(sqrt({D}))")
    return g
