import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import strategies as st

from indexlab import GeodesicModel, checker
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


def sign_of_difference(x, y) -> int:
    """Sign of x - y, from ExactReal's +, * and sign() alone."""
    return (x + (-1) * y).sign()


def random_rho(rng: random.Random, D: int) -> ExactReal:
    """Random irrational rotation number in (0, 1) within Q(sqrt(D))."""
    b = rng.randint(1, 9)
    c = rng.randint(2, 12)
    x = ExactReal(0, b, c, D)
    return x + (-x.floor())


# the rho of every N block that model_json writes: no output reads an N block's data
N_RHO = "(-1+1*sqrt(2))/1"


def model_json(g: GeodesicModel) -> dict:
    """The model-file object that `iterate` and `morse-check` read back as g: its rotation
    blocks in order, then r N blocks with one fixed rho and no B, then h hyp blocks with d = 2,
    as no output reads those values."""
    blocks = ([{"type": "rot", "rho": rho.serialize()} for rho in g.rotation_numbers]
              + [{"type": "n", "rho": N_RHO} for _ in range(g.r)]
              + [{"type": "hyp", "d": 2} for _ in range(g.h)])
    return {"n": g.n, "p": g.p, "case": g.case, "dec": {"blocks": blocks}}


def random_model(rng: random.Random, n: int | None = None) -> GeodesicModel:
    """A random valid model; every case shape is reachable."""
    if n is None:
        n = rng.randint(2, 8)
    D = rng.choice(NONSQUARE_D)
    r = rng.randint(0, (n - 1) // 2)
    k = rng.randint(0, n - 1 - 2 * r)
    rhos = [random_rho(rng, D) for _ in range(k)]
    return GeodesicModel(n, rng.randint(0, 4), rhos, r, n - 1 - 2 * r - k)


def katok_models(n: int, alpha: ExactReal, weights: list[int]) -> list[GeodesicModel]:
    """The Katok-type model set of the n-sphere: 2 * ceil(n/2) NCG1 models with no N block,
    from an irrational alpha and ceil(n/2) distinct positive weights with alpha * weight < 1.

    Model (j, sigma) has the raw rotation values x = (1 + tau*l_i*alpha) / (1 + sigma*l_j*alpha)
    for i != j and tau = +-1, and 1 / (1 + sigma*l_j*alpha) when n is even; its p is the sum
    of their floors and its rotation numbers their fractional parts.  So every index has the
    parity of n - 1 and ihat = 2(n - 1) / (1 + sigma*l_j*alpha).  Written with ExactReal's +,
    *, / and floor() alone.
    """
    models = []
    for j, l_j in enumerate(weights):
        for sigma in (1, -1):
            den = alpha * (sigma * l_j) + 1
            xs = [(alpha * (tau * l_i) + 1) / den for i, l_i in enumerate(weights) if i != j
                  for tau in (1, -1)] + ([ExactReal(1) / den] if n % 2 == 0 else [])
            models.append(GeodesicModel(n, sum(x.floor() for x in xs),
                                        [x + (-x.floor()) for x in xs]))
    return models


SHAPES = ["NCG1", "NCG2", "NCG3", "NCG4", "NCG5"]
# (sqrt(2) - 1)/4, about 0.10: with p = 0 the slope -k outruns the floors, so indices go negative
SMALL_RHO = ExactReal(-1, 1, 4, 2)
SQRT2_RHOS = [ExactReal(-1, 1, 1, 2), ExactReal(7, -4, 8, 2), SMALL_RHO, ExactReal(2, -1, 1, 2)]


@st.composite
def shaped_models(draw):
    """A model of any case shape, with k rotations, h hyperbolic and r N blocks: its census."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "NCG1":
        k, h = draw(st.integers(1, 3)), 0
    else:
        k = {"NCG3": 3, "NCG4": 1, "NCG5": 0}.get(shape)
        k = draw(st.sampled_from([2, 4])) if k is None else k
        h = draw(st.integers(0 if shape == "NCG5" else 1, 2))
    r = draw(st.integers(0 if k + h else 1, 1))
    p = draw(st.integers(-(k // 2) if shape == "NCG1" else 0, 3))  # NCG1: i(c) = 2p + k >= 0
    rhos = [draw(st.sampled_from(SQRT2_RHOS)) for _ in range(k)]
    g = GeodesicModel(1 + k + h + 2 * r, p, rhos, r, h)
    assert g.case == shape
    return g


def ref_floor(a: int, b: int, c: int, D: int) -> int:
    """floor((a + b*sqrt(D))/c) for c > 0, non-square D, from integer squares only."""

    def at_most(N: int) -> bool:  # N <= (a + b*sqrt(D))/c, i.e. N*c - a <= b*sqrt(D)
        lhs = N * c - a
        if b >= 0:
            return lhs <= 0 or lhs * lhs < b * b * D
        return lhs < 0 and lhs * lhs > b * b * D

    N = (a + (isqrt(b * b * D) if b >= 0 else -isqrt(b * b * D))) // c
    while at_most(N + 1):
        N += 1
    while not at_most(N):
        N -= 1
    return N


def ref_case(g) -> str:
    k, h = len(g.rotation_numbers), g.h
    if h == 0:
        return "NCG1" if k else "NCG5"
    return {0: "NCG5", 1: "NCG4"}.get(k, "NCG2" if k % 2 == 0 else "NCG3")


def ref_index(g, m: int) -> int:
    """i(c^m) by the case formulas of Long's iteration theory, spelled out."""
    rhos, r = g.rotation_numbers, g.r
    k, n, p = len(rhos), g.n, g.p
    floors = sum(ref_floor(m * x.a, m * x.b, x.c, x.D) for x in rhos)
    case = ref_case(g)
    if case == "NCG1":
        return 2 * m * p + 2 * floors + n - 2 * r - 1
    if case in ("NCG2", "NCG3"):
        return m * (p - k) + 2 * floors + k
    if case == "NCG4":
        return m * (p - 1) + 2 * floors + 1
    return m * p


def exceeds(u: int, v: int, D: int) -> bool:
    """u > v*sqrt(D) for non-square D, from integer squares only."""
    return u > 0 and u * u > v * v * D if v >= 0 else u >= 0 or u * u < v * v * D


def bott_index(g, m: int) -> int:
    """i(c^m) by Bott's iteration formula: the sum over the m-th roots of unity w of
    the w-index i_w(c), read from the splitting numbers of each block (Long 2002).

    Going round the unit circle from 1 to w = e^{2*pi*i*j/m}, j = 1..m-1, i_w(c) moves
    from i_1(c) = i(c) by S+ - S- at each eigenvalue passed:
    - a rotation block with rotation number rho has (S+, S-) = (0, 1) at e^{2*pi*i*rho}
      and (1, 0) at e^{-2*pi*i*rho}, so it adds [j/m > 1 - rho] - [j/m > rho];
    - an N block has S+ - S- = 0 at both of its eigenvalues, and no root of unity meets
      them, as its rho is irrational: it adds nothing;
    - a hyperbolic block has no eigenvalue on the unit circle, and adds nothing.

    So i(c^m) = m*i(c) + the sum over rotation blocks and j of those brackets.  Each
    comparison of j/m with rho = (a + b*sqrt(D))/c, c > 0, is an integer-square test;
    i(c) is the paper's per-case statement, 2p + n - 2r - 1 for NCG1 and p otherwise.
    No floor, no slope or const and no ExactReal arithmetic.
    """
    index = m * (2 * g.p + g.n - 2 * g.r - 1 if ref_case(g) == "NCG1" else g.p)
    for x in g.rotation_numbers:
        for j in range(1, m):  # j/m > 1 - rho, then j/m > rho, each times m*c
            index += exceeds(j * x.c - m * x.c + m * x.a, -m * x.b, x.D)
            index -= exceeds(j * x.c - m * x.a, m * x.b, x.D)
    return index


def premises(steps: list) -> list[list[int]]:
    """Each step's premises as the kernel's builder links them, for steps in any order:
    per slot of its row, the latest earlier step of its rules, or -1."""
    latest, links = {}, []
    for i, step in enumerate(steps):
        slots = checker._TABLE[step["rule"], step["values"].get("contradiction_kind")][1]
        links.append([max(latest.get(rule, -1) for rule in slot) for slot in slots])
        latest[step["rule"]] = i
    return links


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
