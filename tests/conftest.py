import random
from fractions import Fraction
from math import isqrt

import pytest

from indexlab import GeodesicModel, Hyp, NBlock, NormalFormDecomposition, Rot
from indexlab.exact import ExactReal

NONSQUARE_D = [2, 3, 5, 6, 7, 10, 11, 13, 17, 19]


def sqrt_lower_bound(D: int, digits: int = 40) -> Fraction:
    """Rational lower bound for sqrt(D) accurate to `digits` decimals.

    Independent of ExactReal: plain integer square root of a scaled D.
    """
    scale = 10 ** digits
    return Fraction(isqrt(D * scale * scale), scale)


def approx(x: ExactReal, digits: int = 40) -> Fraction:
    """Rational approximation of x, off by less than 10**-(digits-1)."""
    lo = sqrt_lower_bound(x.D, digits) if x.D else Fraction(0)
    return (Fraction(x.a) + x.b * lo) / x.c


def random_rho(rng: random.Random, D: int) -> ExactReal:
    """Random irrational rotation number in (0, 1) within Q(sqrt(D))."""
    b = rng.randint(1, 9)
    c = rng.randint(2, 12)
    x = ExactReal(0, b, c, D)
    return x - x.floor()


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def decomposition_json(dec: NormalFormDecomposition) -> dict:
    """The model-file object of a decomposition: each block's type and data, in order."""
    blocks = []
    for b in dec.blocks:
        if isinstance(b, Hyp):
            blocks.append({"type": "hyp", "d": _ratio(b.d)})
        elif isinstance(b, Rot):
            blocks.append({"type": "rot", "rho": b.rho.serialize()})
        else:
            blocks.append({"type": "n", "rho": b.rho.serialize(),
                           "B": [[_ratio(x) for x in row] for row in b.B]})
    return {"blocks": blocks}


def model_json(g: GeodesicModel) -> dict:
    """The model-file object that `iterate` and `morse-check` read back as g."""
    return {"n": g.n, "p": g.p, "case": g.case.value, "dec": decomposition_json(g.dec)}


def random_model(rng: random.Random, n: int | None = None) -> GeodesicModel:
    """A random valid model; every case shape is reachable."""
    if n is None:
        n = rng.randint(2, 8)
    D = rng.choice(NONSQUARE_D)
    r = rng.randint(0, (n - 1) // 2)
    slots = n - 1 - 2 * r
    blocks = [NBlock(random_rho(rng, D)) for _ in range(r)]
    n_rot = rng.randint(0, slots)
    blocks += [Rot(random_rho(rng, D)) for _ in range(n_rot)]
    blocks += [Hyp(Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 7]))) for _ in range(slots - n_rot)]
    rng.shuffle(blocks)
    p = rng.randint(0, 4)
    return GeodesicModel(n, NormalFormDecomposition(blocks), p)


def poincare_series(n: int, degree: int) -> list[int]:
    """Coefficients t^0..t^degree of the loop-space Poincare series, each
    geometric series expanded term by term: the Betti oracle of the tests.

    Even n: t^(n-1) * (1/(1-t^2) + t^(2n-2)/(1-t^(2n-2))).
    Odd n:  t^(n-1) * (1/(1-t^2) + t^(n-1)/(1-t^(n-1))).
    """
    coeffs = [0] * (degree + 1)
    if n % 2 == 0:
        terms = ((n - 1, 2), (3 * (n - 1), 2 * (n - 1)))
    else:
        terms = ((n - 1, 2), (2 * (n - 1), n - 1))
    for shift, step in terms:  # t^shift / (1 - t^step)
        for e in range(shift, degree + 1, step):
            coeffs[e] += 1
    return coeffs


def at_minus_one(coeffs: list[int], m: int) -> int:
    """Value at t = -1 of the degree-m truncation of a series with these coefficients."""
    return sum(c if q % 2 == 0 else -c for q, c in enumerate(coeffs[: m + 1]))


@pytest.fixture
def rng():
    return random.Random(20260824)
