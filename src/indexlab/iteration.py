"""Case classification and index iteration for completely non-degenerate maps.

A geodesic model is a normal-form decomposition of total dimension 2(n-1)
together with the free integer parameter p of its homotopy class.  One formula
in i(c) and the rotation numbers gives the Morse index of every iterate of all
five case shapes; the nullity vanishes identically (bumpy hypothesis).
"""

from __future__ import annotations

from .checker import case_of
from .exact import ExactReal, floor_scaled, same_field
from .symplectic import Hyp, NormalFormDecomposition, Rot, decomposition_from_json


class ModelInvariantError(ValueError):
    """Model data violates its case shape or parameter constraints."""


def classify(n: int, dec: NormalFormDecomposition) -> str:
    """The case tag "NCG1" to "NCG5" of the non-N block census: `checker.case_of` of its k
    rotations and h hyperbolic blocks, for a decomposition of dimension 2(n-1)."""
    dim = sum(b.dim for b in dec.blocks)
    if dim != 2 * (n - 1):
        raise ModelInvariantError(f"decomposition has dimension {dim}, expected "
                                  f"{2 * (n - 1)!s:.40}")
    return case_of(sum(isinstance(b, Rot) for b in dec.blocks),
                   sum(isinstance(b, Hyp) for b in dec.blocks))


class GeodesicModel:
    """One hypothetical prime closed geodesic: blocks + homotopy parameter p.

    Every case shape iterates by Bott's formula over its k rotation numbers rho_j,
    i(c^m) = (i(c) - k)*m + 2*sum floor(m*rho_j) + k, with i(c) = 2p + k for NCG1
    (where k = n - 2r - 1) and i(c) = p otherwise; slope = i(c) - k, const = k.
    Valid when i(c) >= 0, which is p >= 0 outside NCG1.  Instances are immutable,
    and equal and hashed by (n, dec, p).
    """

    __slots__ = ("n", "dec", "p", "case", "rotation_numbers", "slope", "const", "_last")

    def __init__(self, n: int, dec: NormalFormDecomposition, p: int):
        if n < 2:
            raise ModelInvariantError("sphere dimension n must be >= 2")
        case = classify(n, dec)
        rhos = tuple(b.rho for b in dec.blocks if isinstance(b, Rot))
        k = len(rhos)
        i_c = 2 * p + k if case == "NCG1" else p
        if i_c < 0:
            raise ModelInvariantError(
                f"NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got {i_c!s:.40}"
                if case == "NCG1" else f"{case} requires p >= 0, got {p!s:.40}")
        for name, value in (("n", n), ("dec", dec), ("p", p), ("case", case),
                            ("rotation_numbers", rhos), ("slope", i_c - k), ("const", k),
                            ("_last", [(0, None)])):
            object.__setattr__(self, name, value)

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
    """i(c^m) = (i(c) - k)*m + 2*sum floor(m*rho_j) + k; the nullity nu(c^m) is 0.

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

    N = 1 iff i(c^m) - i(c) is even for every m; in (i(c) - k)*m + 2*sum floor(m*rho_j) + k
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
        raise ModelInvariantError(f"{key} must be an integer, got {value!r:.40}")
    return value


def model_from_json(obj: dict) -> GeodesicModel:
    if type(obj) is not dict:
        raise ModelInvariantError(f"a model must be an object with n, p and dec, got {obj!r:.40}")
    g = GeodesicModel(n=_int_field(obj, "n"), dec=decomposition_from_json(obj.get("dec")),
                      p=_int_field(obj, "p"))
    declared = obj.get("case")
    if declared is not None and declared != g.case:
        raise ModelInvariantError(f"declared case {declared!s:.40} does not match classified case "
                                  f"{g.case}")
    # mean_index sums the rotation numbers, so they must share one field
    rots = [(i, b.rho.D) for i, b in enumerate(g.dec.blocks) if isinstance(b, Rot)]
    for i, D in rots:
        if not same_field(D, rots[0][1]):
            raise ModelInvariantError(f"dec.blocks[{rots[0][0]}].rho and dec.blocks[{i}].rho "
                                      f"lie in Q(sqrt({rots[0][1]!s:.40})) and Q(sqrt({D!s:.40}))")
    return g
