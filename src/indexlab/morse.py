"""Betti numbers of the quotient loop-space pair of a sphere, Morse tables,
and the exact bookkeeping connecting them.

Everything here is integer/rational arithmetic: Betti numbers come from a
closed form, Morse-type numbers from certified finite enumeration over
iterates, and the mean-index identity from exact quadratic-field values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactReal
from .iteration import (
    GeodesicModel,
    analytic_period,
    critical_module_dim,
    critical_type,
    index_of_iterate,
    mean_index,
)


class NonTerminatingSumError(ValueError):
    """A model with non-positive mean index makes the iterate sum infinite."""


# -- Betti numbers ---------------------------------------------------------

def betti(n: int, q: int) -> int:
    """b_q of the quotient free-loop-space pair of the n-sphere.

    Value 2 on the doubling set K (odd multiples k(n-1), k >= 3, for even n;
    all multiples k(n-1), k >= 2, for odd n), 1 on the arithmetic ray
    n-1 + 2N_0 off K, else 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if q < 0:
        return 0
    if n % 2 == 0:
        in_k = q % (n - 1) == 0 and (q // (n - 1)) >= 3 and (q // (n - 1)) % 2 == 1
    else:
        in_k = q % (n - 1) == 0 and (q // (n - 1)) >= 2
    if in_k:
        return 2
    if q >= n - 1 and (q - (n - 1)) % 2 == 0:
        return 1
    return 0


@dataclass(frozen=True)
class BettiTable:
    n: int
    horizon: int

    def __getitem__(self, q: int) -> int:
        return betti(self.n, q)

    def values(self) -> list[int]:
        return [betti(self.n, q) for q in range(self.horizon + 1)]


# -- formal power series ---------------------------------------------------

@dataclass(frozen=True)
class SeriesPolynomial:
    """Truncated formal power series with integer coefficients."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, q: int) -> int:
        return self.coefficients[q] if 0 <= q <= self.degree else 0

    def truncated_at_minus_one(self, m: int) -> int:
        """Value at t = -1 of the degree-m truncation."""
        if m > self.degree:
            raise IndexError(f"truncation {m} exceeds stored degree {self.degree}")
        return sum(c if q % 2 == 0 else -c for q, c in enumerate(self.coefficients[: m + 1]))


def _geometric_expand(shift: int, step: int, degree: int, out: list[int]) -> None:
    """Add t^shift / (1 - t^step) = sum t^(shift + j*step) into out."""
    e = shift
    while e <= degree:
        out[e] += 1
        e += step


def poincare_series_truncated(n: int, degree: int) -> SeriesPolynomial:
    """Coefficient extraction of the loop-space Poincare series up to degree.

    Even n: t^(n-1) * (1/(1-t^2) + t^(2n-2)/(1-t^(2n-2))).
    Odd n:  t^(n-1) * (1/(1-t^2) + t^(n-1)/(1-t^(n-1))).
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [0] * (degree + 1)
    _geometric_expand(n - 1, 2, degree, coeffs)
    if n % 2 == 0:
        _geometric_expand(3 * (n - 1), 2 * (n - 1), degree, coeffs)
    else:
        _geometric_expand(2 * (n - 1), n - 1, degree, coeffs)
    return SeriesPolynomial(tuple(coeffs))


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


@dataclass(frozen=True)
class MorseTable:
    values: tuple[int, ...]
    models: tuple[GeodesicModel, ...] = ()

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, q: int) -> int:
        return self.values[q] if 0 <= q <= self.horizon else 0


def morse_numbers(
    models: list[GeodesicModel], horizon: int, cutoff_factor: int = 1
) -> MorseTable:
    """M_q for 0 <= q <= horizon by certified finite enumeration.

    cutoff_factor inflates the per-model iterate bound; the table is
    provably invariant under any factor >= 1 (completeness of the cutoff).
    """
    values = [0] * (horizon + 1)
    for g in models:
        mmax = iterate_cutoff(g, horizon) * cutoff_factor
        for m in range(1, mmax + 1):
            i_m, _ = index_of_iterate(g, m)
            if 0 <= i_m <= horizon:
                values[i_m] += critical_module_dim(g, m, i_m)
    return MorseTable(tuple(values), tuple(models))


@dataclass(frozen=True)
class Violation:
    q: int
    kind: str  # "alternating" for the partial-sum inequality, "pointwise" for M_q >= b_q
    lhs: int
    rhs: int

    def __str__(self):
        return f"q={self.q} {self.kind}: {self.lhs} >= {self.rhs} fails"


def check_morse_inequalities(
    M: MorseTable | list[int], b: BettiTable | list[int], horizon: int
) -> list[Violation]:
    """All failures of the Morse inequalities up to the horizon.

    Checks the alternating partial sums M_q - M_{q-1} + ... >= b_q - b_{q-1} + ...
    and the pointwise M_q >= b_q; an empty report means consistency.
    """
    def mv(q):
        return M[q] if q >= 0 else 0

    def bv(q):
        return b[q] if q >= 0 else 0

    violations: list[Violation] = []
    alt_m = alt_b = 0
    for q in range(horizon + 1):
        alt_m = mv(q) - alt_m
        alt_b = bv(q) - alt_b
        if alt_m < alt_b:
            violations.append(Violation(q, "alternating", alt_m, alt_b))
        if mv(q) < bv(q):
            violations.append(Violation(q, "pointwise", mv(q), bv(q)))
    return violations


# -- averaged Euler value --------------------------------------------------

def euler_limit(n: int) -> Fraction:
    """Limit of P^m(-1)/m for the sphere loop-space pair."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return Fraction(-n, 2 * (n - 1))
    return Fraction(n + 1, 2 * (n - 1))


def averaged_alternating_sum(s: SeriesPolynomial, m: int) -> Fraction:
    """s^m(-1) / m for the degree-m truncation s^m."""
    if m < 1:
        raise ValueError("m must be positive")
    return Fraction(s.truncated_at_minus_one(m), m)


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
