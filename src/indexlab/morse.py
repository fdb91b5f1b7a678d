"""Betti numbers of the quotient loop-space pair of a sphere, Morse tables,
and the exact bookkeeping connecting them.

Everything here is integer/rational arithmetic: Betti numbers come from a
closed form, Morse-type numbers from certified finite enumeration over
iterates, and the mean-index identity from exact quadratic-field values.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, islice, repeat

from .checker import alternating_betti_sum, betti, euler_limit, quote  # the kernel's closed forms
from .exact import ExactReal, same_field
from .iteration import (
    GeodesicModel,
    analytic_period,
    index_of_iterate,
    mean_index,
)


# -- Betti numbers ---------------------------------------------------------

def betti_values(n: int, horizon: int) -> list[int]:
    """[betti(n, q) for q in range(horizon + 1)], filled in place in one list of that length."""
    if n < 2:
        raise ValueError("n must be >= 2")
    step = 2 * (n - 1) if n % 2 == 0 else n - 1  # the spacing of the doubling set K
    b = [0] * (horizon + 1)
    # 1 on the ray n-1 + 2N_0, then 2 on K = n-1 + step*N_1, written 256 entries at a
    # time: nothing else grows with the horizon, and nothing at all with n
    for first, stride, value in ((n - 1, 2, 1), (n - 1 + step, step, 2)):
        for start in range(first, horizon + 1, 256 * stride):
            count = min(256, len(range(start, horizon + 1, stride)))
            b[start:start + count * stride:stride] = [value] * count
    return b


# -- Morse-type numbers ----------------------------------------------------

def iterate_cutoff(g: GeodesicModel, horizon: int) -> int:
    """Largest m that can contribute at degree <= horizon, certified.

    From |i(c^m) - m * ihat| <= n - 1: once m * ihat > horizon + n - 1 the
    index exceeds the horizon for every later iterate.
    """
    ihat = mean_index(g)
    if ihat.sign() <= 0:
        raise ValueError(
            "mean index must be positive for a finite Morse sum"
        )
    # the largest m with m * ihat <= horizon + n - 1
    return (ExactReal(horizon + g.n - 1) / ihat).floor()


# The most iterates morse_numbers enumerates for one model: one to two
# minutes at the 0.6-1.2 us an iterate of a model with one to three rotation
# blocks took (2-core x86_64, Python 3.11.7).  A tiny mean index can ask for
# 10^41 iterates, which would never finish.
MAX_ITERATES = 10**8


MorseTable = namedtuple("MorseTable", "values")  # values: M_0..M_horizon


def morse_numbers(models: list[GeodesicModel], horizon: int) -> MorseTable:
    """M_q for 0 <= q <= horizon by certified finite enumeration.

    Raises ValueError before any enumeration when a model's iterate cutoff
    exceeds MAX_ITERATES.
    """
    values = [0] * (horizon + 1)  # first, so that a horizon too large for memory says so
    cutoffs = [iterate_cutoff(g, horizon) for g in models]
    for idx, cut in enumerate(cutoffs):
        if cut > MAX_ITERATES:
            raise ValueError(f"model #{idx}: iterate cutoff {quote(cut)} at horizon {horizon} "
                             f"exceeds the limit of {MAX_ITERATES} iterates")
    for g, cut in zip(models, cutoffs):
        i_c = g.initial_index
        for m in range(1, cut + 1):
            i_m = index_of_iterate(g, m)
            # k0 = 1 iff i(c^m) - i(c) is even, critical_type's test inlined.  The repeated
            # query, answered by the model's one-entry cache, stays until the benchmark's
            # pinned call counts (one more index_of_iterate per in-range iterate) change
            if 0 <= i_m <= horizon and (index_of_iterate(g, m) - i_c) % 2 == 0:
                values[i_m] += 1
    return MorseTable(tuple(values))


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
) -> list[tuple[int, str, int, int]]:
    """All failures of the Morse inequalities up to the horizon, the (q, kind, lhs, rhs) tuples
    of inequality_failures in its order; an empty list means consistency.  Nothing in the
    package calls it: it stays while the benchmark's tracer (bench/tracing.py) times it by name."""
    return list(inequality_failures(M, b, horizon))


# -- mean index identity ---------------------------------------------------

def mean_index_identity_lhs(models: list[GeodesicModel]) -> ExactReal:
    """Sum over models of (-1)^i(c) / (N * ihat(c)), the closed form of the sum over
    one period of (-1)^i(c^m) k0(c^m) / (N * ihat(c)): c is its only iterate with k0 = 1,
    as when N = 2, i(c^2) - i(c) has the parity of the odd slope.  Callers must pass only
    homologically visible models; an invisible model contributes 0 and is legal but
    pointless.  Comparing the result with euler_limit(n) is the identity check.  A set whose
    irrational terms lie in two fields is refused, whatever the order of its models, naming
    the first model with an irrational term and the first whose term lies in another field.
    """
    terms = []
    for g in models:
        ihat = mean_index(g)
        if ihat.sign() <= 0:
            raise ValueError("identity requires positive mean index")
        s = -1 if g.initial_index % 2 else 1
        terms.append(ExactReal(s) / (ihat * analytic_period(g)))
    fields = [(idx, term.D) for idx, term in enumerate(terms) if term.is_irrational]
    for idx, D in fields:
        if not same_field(fields[0][1], D):
            raise ValueError(f"model #{fields[0][0]} and model #{idx} lie in "
                             f"Q(sqrt({quote(fields[0][1])})) and Q(sqrt({quote(D)}))")
    return sum(terms, ExactReal(0))
