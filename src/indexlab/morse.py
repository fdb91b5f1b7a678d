"""Betti numbers of the quotient loop-space pair of a sphere, Morse tables,
and the exact bookkeeping connecting them.

Everything here is integer/rational arithmetic: Betti numbers come from a
closed form, Morse-type numbers from certified finite enumeration over
iterates, and the mean-index identity from exact quadratic-field values.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import NamedTuple

from .exact import ExactReal
from .iteration import (
    GeodesicModel,
    analytic_period,
    critical_type,
    index_of_iterate,
    mean_index,
)


class NonTerminatingSumError(ValueError):
    """A model with non-positive mean index makes the iterate sum infinite."""


# -- Betti numbers ---------------------------------------------------------

def betti(n: int, q: int) -> int:
    """b_q of the quotient free-loop-space pair of the n-sphere.

    b_q = A_q + A_{q-1} for the alternating sums A of alternating_betti_sum,
    as A_q = b_q - A_{q-1}.
    """
    return alternating_betti_sum(n, q) + alternating_betti_sum(n, q - 1)


def betti_values(n: int, horizon: int) -> list[int]:
    """[betti(n, q) for q in range(horizon + 1)], as one period repeated in place."""
    if n < 2:
        raise ValueError("n must be >= 2")
    step = 2 * (n - 1) if n % 2 == 0 else n - 1  # the spacing of the doubling set K
    # from q = 0: 1 on the ray's parity (n-1's), 2 on K's (q = n-1 mod step, q > n-1)
    b = [0 if (j - n + 1) % 2 else 1 + (j == (n - 1) % step) for j in range(step)]
    b *= -(-(horizon + 1) // step)  # refused at once when too large
    del b[horizon + 1:]
    b[:n] = ([0] * (n - 1) + [1])[:horizon + 1]  # 0 below the ray, and 1, not 2, at its start
    return b


# -- Morse-type numbers ----------------------------------------------------

def iterate_cutoff(g: GeodesicModel, horizon: int) -> int:
    """Largest m that can contribute at degree <= horizon, certified.

    From |i(c^m) - m * ihat| <= n - 1: once m * ihat > horizon + n - 1 the
    index exceeds the horizon for every later iterate.
    """
    ihat = mean_index(g)
    if ihat.sign() <= 0:
        raise NonTerminatingSumError(
            "mean index must be positive for a finite Morse sum"
        )
    # the largest m with m * ihat <= horizon + n - 1
    return (ExactReal(horizon + g.n - 1) / ihat).floor()


# The most iterates morse_numbers enumerates for one model: two to three
# minutes at the 1.1-1.8 us an iterate of a model with one to three rotation
# blocks took (2-core x86_64, Python 3.11.7).  A tiny mean index can ask for
# 10^41 iterates, which would never finish.
MAX_ITERATES = 10**8


@dataclass(frozen=True)
class MorseTable:
    values: tuple[int, ...]  # M_0..M_horizon


def morse_numbers(models: list[GeodesicModel], horizon: int) -> MorseTable:
    """M_q for 0 <= q <= horizon by certified finite enumeration.

    Raises ValueError before any enumeration when a model's iterate cutoff
    exceeds MAX_ITERATES.
    """
    values = [0] * (horizon + 1)  # first, so that a horizon too large for memory says so
    cutoffs = [iterate_cutoff(g, horizon) for g in models]
    for idx, cut in enumerate(cutoffs):
        if cut > MAX_ITERATES:
            raise ValueError(f"model #{idx}: iterate cutoff {cut} at horizon {horizon} "
                             f"exceeds the limit of {MAX_ITERATES} iterates")
    for g, cut in zip(models, cutoffs):
        for m in range(1, cut + 1):
            i_m, _ = index_of_iterate(g, m)
            if 0 <= i_m <= horizon:
                values[i_m] += critical_type(g, m)[1]
    return MorseTable(tuple(values))


class Violation(NamedTuple):
    q: int
    kind: str  # "alternating" for the partial-sum inequality, "pointwise" for M_q >= b_q
    lhs: int
    rhs: int

    def __str__(self):
        return f"q={self.q} {self.kind}: {self.lhs} >= {self.rhs} fails"


def inequality_failures(
    M: MorseTable | list[int], b: list[int], horizon: int
) -> Iterator[tuple[int, str, int, int]]:
    """Each failure of the Morse inequalities up to the horizon, as a plain
    (q, kind, lhs, rhs) tuple yielded when found: by degree, the alternating
    partial sum M_q - M_{q-1} + ... >= b_q - b_{q-1} + ... before the pointwise
    M_q >= b_q.  A caller that writes each one as it comes holds none."""
    values = M.values if isinstance(M, MorseTable) else M
    alt_m = alt_b = 0
    # read in place: 0 past the table's end, nothing past the horizon
    for q, m_q in enumerate(islice(chain(values, repeat(0)), horizon + 1)):
        b_q = b[q]
        alt_m = m_q - alt_m
        alt_b = b_q - alt_b
        if alt_m < alt_b:
            yield q, "alternating", alt_m, alt_b
        if m_q < b_q:
            yield q, "pointwise", m_q, b_q


def check_morse_inequalities(
    M: MorseTable | list[int], b: list[int], horizon: int
) -> list[Violation]:
    """All failures of the Morse inequalities up to the horizon, in the order
    of inequality_failures; an empty report means consistency."""
    return list(map(Violation._make, inequality_failures(M, b, horizon)))


def alternating_betti_sum(n: int, q: int) -> int:
    """A_q = b_q - b_{q-1} + b_{q-2} - ... - (+-)b_0, in closed form.

    b_j is 2 on the doubling set K (odd multiples k(n-1), k >= 3, for even n;
    all multiples k(n-1), k >= 2, for odd n), 1 on the arithmetic ray
    n-1 + 2N_0 off K, else 0.  Every nonzero b_j has the parity of n-1 (the
    ray holds K), so each enters with the sign (-1)^(q-n+1), and the sum is
    that sign times (#ray points <= q + #K points <= q).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if q < n - 1:
        return 0
    ray = (q - (n - 1)) // 2 + 1
    k_max = q // (n - 1)  # the multiples k(n-1) <= q
    doubled = (k_max - 1) // 2 if n % 2 == 0 else k_max - 1  # odd k >= 3, resp. k >= 2
    return (ray + doubled) * (1 if (q - n + 1) % 2 == 0 else -1)


# -- averaged Euler value --------------------------------------------------

def euler_limit(n: int) -> Fraction:
    """Limit of P^m(-1)/m for the sphere loop-space pair."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return Fraction(-n, 2 * (n - 1))
    return Fraction(n + 1, 2 * (n - 1))


# -- mean index identity ---------------------------------------------------

def mean_index_identity_lhs(models: list[GeodesicModel]) -> ExactReal:
    """Sum over models of sum_{m<=N} (-1)^i(c^m) k0(c^m) / (N * ihat(c)).

    Callers must pass only homologically visible models; an invisible model
    contributes 0 and is legal but pointless.  Comparing the result with
    euler_limit(n) is the identity check.
    """
    total = ExactReal(0)
    for g in models:
        ihat = mean_index(g)
        if ihat.sign() <= 0:
            raise NonTerminatingSumError("identity requires positive mean index")
        N = analytic_period(g)
        s = 0
        for m in range(1, N + 1):
            i_m, _ = index_of_iterate(g, m)
            _, k0 = critical_type(g, m)
            s += (1 if i_m % 2 == 0 else -1) * k0
        total = total + ExactReal(s) / (ihat * N)
    return total
