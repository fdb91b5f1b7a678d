"""Case classification and index iteration for completely non-degenerate maps.

A geodesic model is the census of a normal form of dimension 2(n-1), its k rotation
numbers and its counts r of N and h of hyperbolic blocks, with the free integer parameter p
of its homotopy class.  One formula in i(c) and the rotation numbers gives the Morse index
of every iterate of all five case shapes; the nullity vanishes (bumpy hypothesis).
"""

from __future__ import annotations

from collections.abc import Iterable

from .checker import quote
from .exact import ExactReal, floor_scaled, same_field
from .symplectic import check_rho, decomposition_from_json


def case_of(k: int, h: int) -> str:
    """The case shape of k rotation and h hyperbolic blocks (Long's normal forms):
    h = 0 gives NCG1 if k > 0, else NCG5; otherwise k = 0, 1, even, odd give
    NCG5, NCG4, NCG2, NCG3 (at k = 1 the NCG1 and NCG4 formulas agree)."""
    if h == 0:
        return "NCG1" if k else "NCG5"
    if k < 2:
        return "NCG4" if k else "NCG5"
    return "NCG3" if k % 2 else "NCG2"


class GeodesicModel:
    """One hypothetical prime closed geodesic: the census of its normal form, and p.

    The census is the rotation numbers rho_j of the k rotation blocks, in block order, and
    the counts r of N blocks and h of hyperbolic blocks, of dimension 2k + 4r + 2h = 2(n-1)
    and case `case_of(k, h)`.  Every case shape iterates by Bott's formula,
    i(c^m) = (i(c) - k)*m + 2*sum floor(m*rho_j) + k, with i(c) = 2p + k for NCG1
    (where k = n - 2r - 1) and i(c) = p otherwise; slope = i(c) - k, const = k.
    Valid when i(c) >= 0, which is p >= 0 outside NCG1.  Instances are immutable,
    and equal, hashed, pickled and shown by (n, p, rotation_numbers, r, h).
    """

    __slots__ = ("n", "p", "rotation_numbers", "r", "h", "case", "slope", "const", "_last",
                 "_census")

    def __init__(self, n: int, p: int, rotation_numbers: Iterable[ExactReal] = (), r: int = 0,
                 h: int = 0):
        rhos = tuple(rotation_numbers)
        for rho in rhos:
            check_rho(rho, "R-block")
        if n < 2:
            raise ValueError("sphere dimension n must be >= 2")
        if r < 0 or h < 0:
            raise ValueError(f"r and h must be >= 0, got r = {quote(r)} and "
                             f"h = {quote(h)}")
        if (dim := 2 * len(rhos) + 4 * r + 2 * h) != 2 * (n - 1):
            raise ValueError(f"decomposition has dimension {quote(dim)}, expected "
                             f"{quote(2 * (n - 1))}")
        k, case = len(rhos), case_of(len(rhos), h)
        i_c = 2 * p + k if case == "NCG1" else p
        if i_c < 0:
            raise ValueError(
                f"NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got {quote(i_c, str)}"
                if case == "NCG1" else f"{case} requires p >= 0, got {quote(p, str)}")
        for name, value in (("n", n), ("p", p), ("rotation_numbers", rhos), ("r", r), ("h", h),
                            ("case", case), ("slope", i_c - k), ("const", k),
                            ("_last", [(None, None)]), ("_census", (n, p, rhos, r, h))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("GeodesicModel is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._census == other._census

    def __hash__(self):
        return hash(self._census)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return (GeodesicModel, self._census)

    def __repr__(self):
        return "GeodesicModel(n={!r}, p={!r}, rotation_numbers={!r}, r={!r}, h={!r})".format(
            *self._census)

    @property
    def initial_index(self) -> int:
        """i(c) = i(c^1) = slope + const: the floors vanish at m = 1, as 0 < rho < 1."""
        return self.slope + self.const


def index_of_iterate(g: GeodesicModel, m: int) -> int:
    """i(c^m) = (i(c) - k)*m + 2*sum floor(m*rho_j) + k; the nullity nu(c^m) is 0.

    The floors vanish at m = 1, as 0 < rho_j < 1, so i(c^1) = initial_index.
    Each model caches its last result only: every repeated query asks for the
    iterate just asked for (morse_numbers and critical_type ask again for the m
    they have just asked for), so one entry serves every hit and memory stays O(1)
    per model.  The entry, (None, None) before any query so that no m matches it,
    is one (m, result) pair replaced by a single assignment, so a concurrent reader
    never sees one m with another's result.  A hit is answered before m is checked:
    only an m >= 1 is ever stored.
    """
    last = g._last
    cached_m, result = last[0]
    if cached_m == m:
        return result
    if m < 1:
        raise ValueError("iterate m must be positive")
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
        raise ValueError(f"{key} must be an integer, got {quote(value)}")
    return value


def model_from_json(obj: dict) -> GeodesicModel:
    if type(obj) is not dict:
        raise ValueError(f"a model must be an object with n, p and dec, got {quote(obj)}")
    n, census = _int_field(obj, "n"), decomposition_from_json(obj.get("dec"))
    g = GeodesicModel(n, _int_field(obj, "p"), *census)
    declared = obj.get("case")
    if declared is not None and declared != g.case:
        raise ValueError(f"declared case {quote(declared, str)} does not match "
                         f"classified case {g.case}")
    # mean_index sums the rotation numbers, so they must share one field
    rhos = g.rotation_numbers
    for j, rho in enumerate(rhos):
        if not same_field(rho.D, rhos[0].D):
            at = [i for i, b in enumerate(obj["dec"]["blocks"]) if b["type"] == "rot"]
            raise ValueError(f"dec.blocks[{at[0]}].rho and dec.blocks[{at[j]}].rho lie in "
                             f"Q(sqrt({quote(rhos[0].D)})) and Q(sqrt({quote(rho.D)}))")
    return g
