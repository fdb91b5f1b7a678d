import copy
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from indexlab import (
    GeodesicModel,
    betti,
    euler_limit,
    mean_index,
    mean_index_identity_lhs,
    morse_numbers,
)
from indexlab import iteration, morse
from indexlab.exact import ExactReal, floor_scaled
from indexlab.morse import (
    MorseTable,
    alternating_betti_sum,
    betti_values,
    check_morse_inequalities,
    iterate_cutoff,
)

from conftest import (
    NONSQUARE_D,
    at_minus_one,
    katok_models,
    poincare_series,
    random_model,
    sign_of_difference,
)

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1


class TestBetti:
    @pytest.mark.parametrize(
        "n,q,expected",
        [
            (2, 1, 1),
            (2, 3, 2),
            (2, 0, 0),
            (3, 2, 1),
            (3, 4, 2),
            (3, 6, 2),
            (5, 0, 0),
            (5, 4, 1),
            (5, 8, 2),
            (4, 9, 2),
            (4, 6, 0),
        ],
    )
    def test_closed_form(self, n, q, expected):
        assert betti(n, q) == expected

    def test_vanishes_below_n_minus_1(self):
        for n in range(2, 10):
            for q in range(n - 1):
                assert betti(n, q) == 0

    def test_values_bounded_by_two(self):
        for n in range(2, 9):
            for q in range(120):
                assert betti(n, q) in (0, 1, 2)


class TestPoincareSeries:
    def test_n2_prefix(self):
        assert poincare_series(2, 7) == [0, 1, 0, 2, 0, 2, 0, 2]

    def test_n3_prefix(self):
        assert poincare_series(3, 6) == [0, 0, 1, 0, 2, 0, 2]

    def test_matches_closed_form(self):
        for n in range(2, 13):
            s = poincare_series(n, 200)
            for q in range(201):
                assert s[q] == betti(n, q)


class TestMorseNumbers:
    def test_single_ncg1_model(self):
        g = GeodesicModel(2, 0, [RHO])
        M = morse_numbers([g], 3)
        # i(c^m) = 1, 1, 3, 3, 5, ... so m in {1, 2} land at q = 1
        assert M.values[1] == 2
        assert M.values[3] >= 1

    def test_empty_model_list(self):
        M = morse_numbers([], 10)
        assert M.values == (0,) * 11

    def test_single_ncg5_even_p(self):
        g = GeodesicModel(3, 2, h=2)
        M = morse_numbers([g], 6)
        assert M.values == (0, 0, 1, 0, 1, 0, 1)

    def test_zero_mean_index_rejected(self):
        g = GeodesicModel(3, 0, h=2)
        message = "mean index must be positive for a finite Morse sum"
        with pytest.raises(ValueError, match=f"^{message}$"):
            morse_numbers([g], 5)

    def test_a_cutoff_above_the_limit_is_refused_before_any_enumeration(self, monkeypatch):
        # the limit is inclusive: a cutoff equal to it runs, one above it is refused, and
        # the refusal names the model, its cutoff and the limit before any iterate is made
        small, large = (GeodesicModel(2, 0, [rho]) for rho in (RHO, ExactReal(1, 1, 100, 2)))
        horizon = 9
        cut = iterate_cutoff(large, horizon)  # floor(10 / (2 (1 + sqrt(2))/100)) = 207
        assert iterate_cutoff(small, horizon) < cut
        expected = morse_numbers([small, large], horizon)
        monkeypatch.setattr(morse, "MAX_ITERATES", cut)
        assert morse_numbers([small, large], horizon) == expected
        monkeypatch.setattr(morse, "MAX_ITERATES", cut - 1)
        calls = Counter()
        monkeypatch.setattr(morse, "index_of_iterate", lambda g, m: calls.update([m]))
        with pytest.raises(ValueError, match=f"^model #1: iterate cutoff {cut} at horizon 9 "
                                             f"exceeds the limit of {cut - 1} iterates$"):
            morse_numbers([small, large], horizon)
        assert not calls

    def test_the_limit_is_10_to_the_8_iterates(self):
        # the limit as shipped, not patched: a tiny mean index is refused naming it, and so
        # is rho = 1/N - (sqrt(2) - 1)/10**20 at N = 10**8 + 1, whose cutoff at H = 1 is N
        N = 10**8 + 1
        tiny = GeodesicModel(2, 0, [ExactReal(1, 1, 10**41, 2)])
        edge = GeodesicModel(2, 0, [ExactReal(10**20 + N, -N, N * 10**20, 2)])
        assert iterate_cutoff(edge, 1) == N
        for g in (tiny, edge):
            with pytest.raises(ValueError, match="exceeds the limit of 100000000 iterates$"):
                morse_numbers([g], 1)

    def test_cutoff_is_certified(self, rng):
        for _ in range(30):
            g = random_model(rng)
            if mean_index(g).sign() <= 0:
                continue
            horizon = rng.randint(3, 25)
            mmax = iterate_cutoff(g, horizon)
            # no iterate past the cutoff reaches the horizon
            from indexlab import index_of_iterate

            for m in range(mmax + 1, mmax + 10):
                assert index_of_iterate(g, m) > horizon
            # and the cutoff is the smallest such bound: no extra iterates
            ihat = mean_index(g)
            assert sign_of_difference(mmax * ihat, horizon + g.n - 1) <= 0
            assert sign_of_difference((mmax + 1) * ihat, horizon + g.n - 1) > 0


# -- an oracle for whole Morse tables: math.isqrt floors and the case formulas

def _floor(a: int, b: int, c: int, D: int) -> int:
    """floor((a + b*sqrt(D))/c) for c > 0, by math.isqrt alone."""
    t = isqrt(b * b * D)
    return (a + (t if b >= 0 else -t - 1)) // c


def _rho(rng: random.Random, D: int) -> tuple[int, int, int, int]:
    """(a, b, c, D) with (a + b*sqrt(D))/c irrational and in (0, 1)."""
    b, c = rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 12)
    f = _floor(0, b, 1, D)  # a in [-f, c-f-1] puts a + b*sqrt(D) in (0, c)
    return rng.randint(-f, c - f - 1), b, c, D


# each shape: the fewest 2x2 blocks (rotations and hyperbolic) it needs, and
# (n, r, k, p) -> (slope, const) of i(c^m) = slope*m + 2*sum floor(m*rho_j) + const
SHAPES = {
    "NCG1": (1, lambda n, r, k, p: (2 * p, n - 2 * r - 1)),
    "NCG2": (3, lambda n, r, k, p: (p - k, k)),
    "NCG3": (4, lambda n, r, k, p: (p - k, k)),
    "NCG4": (2, lambda n, r, k, p: (p - 1, 1)),
    "NCG5": (0, lambda n, r, k, p: (p, 0)),
}


def _mean_index(slope: int, rhos) -> tuple[int, int, int, int]:
    """slope + 2*sum rho_j as (A, B, C, D), the value (A + B*sqrt(D))/C with C > 0."""
    A, B, C, D = slope, 0, 1, 0
    for a, b, c, D in rhos:
        A, B, C = A * c + 2 * a * C, B * c + 2 * b * C, C * c
    return A, B, C, D


def _shaped_model(rng: random.Random, n: int, shape: str):
    """A model of the shape at n: (model, (slope, const), rotation numbers as integers)."""
    r = rng.randint(0, (n - 1 - SHAPES[shape][0]) // 2)  # N blocks, of dimension 4
    free = n - 1 - 2 * r  # the 2x2 blocks: k rotations and free - k hyperbolic ones
    if shape in ("NCG2", "NCG3"):  # k of the shape's parity, 2 or 3 <= k <= free - 1
        k = rng.randrange(2 if shape == "NCG2" else 3, free, 2)
    else:
        k = {"NCG1": free, "NCG4": 1, "NCG5": 0}[shape]
    D = rng.choice(NONSQUARE_D)
    rhos = [_rho(rng, D) for _ in range(k)]
    if shape in ("NCG2", "NCG3"):
        # p < k, near the least p with ihat = p - k + 2*sum rho_j > 0: a small mean
        # index lets the floors pull some indices below zero
        p = max(0, k - _floor(*_mean_index(0, rhos))) + rng.randint(0, 1)
    else:
        p = rng.randint(-(free // 2) if shape == "NCG1" else 0, 3)  # NCG1: i(c) >= 0
    g = GeodesicModel(n, p, [ExactReal(*x) for x in rhos], r, free - k)
    assert g.case == shape
    return g, SHAPES[shape][1](n, r, k, p), rhos


def _oracle_index(slope: int, const: int, rhos, m: int) -> int:
    return slope * m + 2 * sum(_floor(m * a, m * b, c, D) for a, b, c, D in rhos) + const


def _oracle_cutoff(n: int, slope: int, rhos, horizon: int) -> int | None:
    """The largest m with m*ihat <= horizon + n - 1, or None unless ihat > 0 and
    that m is below 20000."""
    A, B, C, D = _mean_index(slope, rhos)
    bound = (horizon + n - 1) * C

    def beyond(m):  # m*ihat > horizon + n - 1; an irrational never equals the bound
        return m * A > bound if B == 0 else _floor(m * A, m * B, 1, D) >= bound

    if not beyond(20000):
        return None
    m = 0
    while not beyond(m + 1):
        m += 1
    return m


def _draw(rng: random.Random, horizon: int):
    """1-3 models of one n, each with positive mean index, as (model, slope, const,
    rotation numbers, cutoff)."""
    n, count, drawn = rng.randint(2, 12), rng.randint(1, 3), []
    while len(drawn) < count:
        shape = rng.choice([s for s, (least, _) in SHAPES.items() if n - 1 >= least])
        g, (slope, const), rhos = _shaped_model(rng, n, shape)
        cut = _oracle_cutoff(n, slope, rhos, horizon)
        if cut is not None:
            drawn.append((g, slope, const, rhos, cut))
    return drawn


class TestMorseTableOracle:
    def test_tables_match_the_isqrt_oracle(self, rng):
        # models and negative indices per shape, and models per shape and slope parity
        shapes, negative, parities = Counter(), Counter(), set()
        for _ in range(120):
            horizon = rng.randint(0, 300)
            drawn = _draw(rng, horizon)
            table = [0] * (horizon + 1)
            for g, slope, const, rhos, cut in drawn:
                shapes[g.case] += 1
                parities.add((g.case, slope % 2))
                assert iterate_cutoff(g, horizon) == cut
                for m in range(1, cut + 4):
                    i = _oracle_index(slope, const, rhos, m)
                    negative[g.case] += i < 0
                    if m > cut:
                        assert i > horizon  # the cutoff is certified
                    elif 0 <= i <= horizon and (i - slope - const) % 2 == 0:
                        table[i] += 1
            assert list(morse_numbers([g for g, *_ in drawn], horizon).values) == table
        assert set(shapes) == set(SHAPES) and negative["NCG2"] + negative["NCG3"] > 0
        # k0 alternates with an odd slope, which every shape but NCG1 (slope 2p) can have
        assert parities == {(shape, s) for shape in SHAPES for s in (0, 1)} - {("NCG1", 1)}

    def test_morse_numbers_keeps_the_benchmark_call_counts(self, rng, monkeypatch):
        # a traced benchmark run counts, per model, one index_of_iterate call per
        # iterate up to the cutoff and a second for each in range (morse_numbers' own
        # repeated query, answered by the model's one-entry cache), and k floors per
        # iterate
        for _ in range(40):
            horizon = rng.randint(0, 300)
            drawn = _draw(rng, horizon)
            calls = Counter()

            def counted(name, fn):
                def wrapper(*args):
                    calls[name] += 1
                    return fn(*args)
                return wrapper

            for module, name in ((morse, "index_of_iterate"), (iteration, "index_of_iterate"),
                                 (iteration, "floor_scaled")):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
            morse_numbers([g for g, *_ in drawn], horizon)
            monkeypatch.undo()
            want = Counter()
            for g, slope, const, rhos, cut in drawn:
                in_range = sum(0 <= _oracle_index(slope, const, rhos, m) <= horizon
                               for m in range(1, cut + 1))
                want["index_of_iterate"] += cut + in_range
                want["floor_scaled"] += len(rhos) * cut
            assert calls == want


class TestIterateCache:
    """Each model caches only the iterate it was last asked for."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32),
           queries=st.lists(st.tuples(st.integers(0, 1),
                                      st.integers(1, 4) | st.integers(1, 10**9)), max_size=60))
    @example(seed=0, queries=[(0, 3), (0, 3), (1, 3), (0, 3), (0, 2), (1, 3), (0, 3)])
    def test_any_query_order_matches_the_isqrt_oracle(self, seed, queries):
        # two models queried in turn, in any order of m and with repeats: every answer
        # is the oracle's, and only a repeat of the model's last m skips its k floors
        rng = random.Random(seed)
        n = rng.randint(5, 12)  # n - 1 >= 4 blocks: room for every shape
        drawn = [_shaped_model(rng, n, rng.choice(list(SHAPES))) for _ in range(2)]
        floors, last = [0], [None, None]

        def counted(rho, m):
            floors[0] += 1
            return floor_scaled(rho, m)

        with mock.patch.object(iteration, "floor_scaled", counted):
            for j, m in queries:
                g, (slope, const), rhos = drawn[j]
                before = floors[0]
                assert iteration.index_of_iterate(g, m) == _oracle_index(slope, const, rhos, m)
                assert floors[0] - before == (0 if last[j] == m else len(rhos))
                last[j] = m

    @pytest.mark.parametrize("m", [0, -1, -10**9])
    def test_an_iterate_below_one_is_refused_before_and_after_a_query(self, m):
        # the cache is read before m is checked: its entry before any query, (None, None),
        # matches no m, and it only ever holds an m >= 1
        g = GeodesicModel(2, 0, [RHO])
        for _ in range(2):
            with pytest.raises(ValueError, match="^iterate m must be positive$"):
                iteration.index_of_iterate(g, m)
            iteration.index_of_iterate(g, 1)

    def test_memory_stays_bounded_per_degree(self):
        # one NCG1 model with mean index 2*sqrt(2)/3 ~ 0.94, so its 21214 iterates fill
        # degrees 0..H: the table costs about 16 bytes per degree, where a cache entry
        # per iterate would cost about 140 more
        horizon = 20000
        g = GeodesicModel(2, 0, [ExactReal(0, 1, 3, 2)])
        assert iterate_cutoff(g, horizon) > horizon
        tracemalloc.start()
        try:
            morse_numbers([g], horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * (horizon + 1)


class TestMorseInequalities:
    def test_equality_is_consistent(self):
        b = betti_values(2, 10)
        M = MorseTable(tuple(b))
        assert check_morse_inequalities(M, b, 10) == []

    def test_zero_table_fails_pointwise(self):
        b = betti_values(2, 1)
        M = MorseTable((0, 0))
        violations = check_morse_inequalities(M, b, 1)
        assert (1, "pointwise", 0, 1) in violations

    def test_odd_concentrated_configuration_fails_alternating(self):
        # one class in degree 1 < n-1 with all even degrees empty (n = 4)
        M = MorseTable((0, 1, 0))
        b = betti_values(4, 2)
        violations = check_morse_inequalities(M, b, 2)
        assert (2, "alternating", -1, 0) in violations

    def test_violations_carry_exact_sides(self):
        M = MorseTable((0, 0, 0, 0))
        violations = check_morse_inequalities(M, betti_values(3, 3), 3)
        for _, _, lhs, rhs in violations:
            assert isinstance(lhs, int) and isinstance(rhs, int)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_explicit_partial_sums(self, data):
        # reference: every partial sum written out, Betti numbers read off the
        # Poincare series; the Betti list may run past the check's horizon, and the
        # table may end before it (reading 0 past its end) or run past it (ignored)
        n = data.draw(st.integers(2, 12))
        horizon = data.draw(st.integers(0, 40))
        table = data.draw(st.lists(st.integers(0, 3), max_size=horizon + 4))
        values = (table + [0] * (horizon + 1))[:horizon + 1]
        b_horizon = horizon + data.draw(st.integers(0, 3))
        b = poincare_series(n, horizon)
        expected = []
        for q in range(horizon + 1):
            alt_m = sum((-1) ** (q - j) * values[j] for j in range(q + 1))
            alt_b = sum((-1) ** (q - j) * b[j] for j in range(q + 1))
            if alt_m < alt_b:
                expected.append((q, "alternating", alt_m, alt_b))
            if values[q] < b[q]:
                expected.append((q, "pointwise", values[q], b[q]))
        for M in (table, MorseTable(tuple(table))):
            for betti_table in (betti_values(n, b_horizon), list(b)):
                assert check_morse_inequalities(M, betti_table, horizon) == expected


def _parity_pure(g: GeodesicModel) -> bool:
    """Whether every index of g has the parity of n - 1 and every iterate counts in M: an
    NCG1 model, or one with an even slope p - k and k = n - 1 (mod 2)."""
    k = len(g.rotation_numbers)
    return g.case == "NCG1" or g.slope % 2 == 0 and k % 2 == (g.n - 1) % 2


@st.composite
def _parity_pure_model(draw, n: int, D: int):
    """A parity-pure model of the n-sphere with positive mean index, its rotation numbers
    in Q(sqrt(D)): r N blocks, k = n - 1 - 2r - h rotations and an even number h of
    hyperbolic ones (so k = n - 1 mod 2), and p of k's parity unless h = 0 < k (NCG1)."""
    def rho():
        x = ExactReal(draw(st.integers(-20, 20)), draw(st.integers(1, 9)),
                      draw(st.integers(2, 12)), D)
        return x + (-x.floor())

    r = draw(st.integers(0, (n - 1) // 2))
    h = draw(st.sampled_from(range(0, n - 2 * r, 2)))
    k = n - 1 - 2 * r - h
    rhos = [rho() for _ in range(k)]
    # NCG1: i(c) = 2p + k >= 0; otherwise i(c) = p >= 0
    p = draw(st.integers(-(k // 2), 3)) if h == 0 < k else k + 2 * draw(st.integers(-1, 2))
    assume(p >= 0 or h == 0 < k)
    g = GeodesicModel(n, p, rhos, r, h)
    assume(mean_index(g).sign() > 0)
    return g


class TestParityPureLemma:
    """For a parity-pure set, the Morse inequalities up to H hold exactly when M = b below
    H and M_H >= b_H.

    Every index has the parity of n - 1 and every iterate counts (an even slope puts every
    iterate at k0 = 1), and so does every degree with b_q > 0
    (`alternating_betti_sum`'s docstring).  At a degree q <= H of the other parity,
    M_q = b_q = 0, so the alternating inequality at q reads A_M(q-1) <= A_b(q-1), while at
    q - 1 it reads A_M(q-1) >= A_b(q-1): the alternating sums agree there.  As they agree
    two degrees apart, with nothing between, M_j = b_j at each j < H; at H only
    M_H >= b_H is asked.  Conversely, M = b below H and M_H >= b_H satisfy every
    inequality.  The Katok-type sets are the passing case.
    """

    @staticmethod
    def agree(models, horizon):
        """Whether the inequality scan and the lemma's criterion give one verdict, and it."""
        n = models[0].n
        M, b = list(morse_numbers(models, horizon).values), betti_values(n, horizon)
        passes = check_morse_inequalities(M, b, horizon) == []
        assert passes == (M[:horizon] == b[:horizon] and M[horizon] >= b[horizon])
        return passes

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_the_inequalities_hold_iff_m_equals_b_below_the_horizon(self, data):
        n, D = data.draw(st.integers(2, 6)), data.draw(st.sampled_from(NONSQUARE_D))
        models = data.draw(st.lists(_parity_pure_model(n, D), min_size=1, max_size=3))
        assert all(_parity_pure(g) for g in models)
        self.agree(models, data.draw(st.integers(0, 120)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_katok_type_sets_and_their_drop_one_sets(self, n):
        # sqrt(5) - 2 and weights 1, ..., ceil(n/2): the set passes at every horizon up to
        # 120, and without any one model c_d it fails from H = i(c_d) on
        models = katok_models(n, ExactReal(-2, 1, 1, 5), list(range(1, (n + 3) // 2)))
        assert all(_parity_pure(g) for g in models)
        for horizon in range(121):
            assert self.agree(models, horizon)
            for d, g in enumerate(models):
                rest = models[:d] + models[d + 1:]
                assert self.agree(rest, horizon) == (horizon < g.initial_index)


class TestResultValueSemantics:
    VALUES = [(lambda: MorseTable((1, 0, 2)), "MorseTable(values=(1, 0, 2))"),
              (lambda: MorseTable(values=()), "MorseTable(values=())")]

    @pytest.mark.parametrize("make, text", VALUES)
    def test_equal_values_copy_pickle_and_stay_fixed(self, make, text):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y) and repr(x) == text
        for z in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(z) is type(x) and z == x and hash(z) == hash(x) and repr(z) == text
        for attr in ("values", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 0)
        assert repr(x) == text


class TestBettiValues:
    @pytest.mark.parametrize("n", [*range(2, 41), 1500, 1501, 4000])
    def test_matches_betti_and_the_series(self, n):
        # horizons from 0 through n - 1 (before the ray starts) up to 300, and then
        # past the blocks of 256 entries in which the ray and K are written
        horizons = [*range(301), 511, 512, 513, n - 2, n - 1, n, 3 * n, 5001]
        reference = [betti(n, q) for q in range(max(horizons) + 1)]
        for h in horizons:
            values = betti_values(n, h)
            assert values == reference[: h + 1]
            assert values == poincare_series(n, h)

    def test_the_list_is_the_only_large_allocation(self):
        # 8 bytes per degree for the list's pointers (small ints are shared), no second
        # list of the same length as it is built, and nothing that grows with n, so at
        # horizon 5 the peak is a few hundred bytes at any n
        for n, horizon in ((2, 10**6), (10**6, 5), (10**6, 10**5), (10**9, 5), (10**9, 10**5),
                           (10**9 + 1, 10**5)):
            tracemalloc.start()
            try:
                values = betti_values(n, horizon)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(values) == horizon + 1 and peak <= max(9 * horizon, 1024), (n, peak)
            if n >= 10**9:
                assert values == [betti(n, q) for q in range(horizon + 1)]



class TestAlternatingBettiSum:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_the_series_partial_sums(self, n):
        # b_q - b_{q-1} + ... read off the generating function, q up to 8n
        coefficients = poincare_series(n, 8 * n)
        alt = 0
        for q, b_q in enumerate(coefficients):
            alt = b_q - alt
            assert alternating_betti_sum(n, q) == alt, q
        assert alternating_betti_sum(n, -1) == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            alternating_betti_sum(1, 3)


class TestEulerLimit:
    @pytest.mark.parametrize("n,expected", [(2, Fraction(-1)), (3, Fraction(1)), (4, Fraction(-2, 3))])
    def test_values(self, n, expected):
        assert euler_limit(n) == expected

    def test_convergence_of_averaged_sums(self):
        for n in (2, 3):
            got = Fraction(at_minus_one(poincare_series(n, 1000), 1000), 1000)
            assert abs(got - euler_limit(n)) < Fraction(1, 100)


class TestMeanIndexIdentity:
    def test_single_ncg1_even_n_matches_euler_value(self):
        # three rotations in Q(sqrt(2)) summing to 3/4: mean index 3/2
        rhos = [ExactReal(-1, 1, 1, 2), ExactReal(7, -4, 8, 2), ExactReal(7, -4, 8, 2)]
        g = GeodesicModel(4, 0, rhos)
        assert mean_index(g) == ExactReal.from_fraction(Fraction(3, 2))
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(euler_limit(4))

    def test_two_geodesic_configuration_on_the_2_sphere(self):
        # 1/(2*rho1) + 1/(2*(1+rho2)) = 1 exactly in Q(sqrt(5))
        g1 = GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)])
        g2 = GeodesicModel(2, 1, [ExactReal(-1, 1, 4, 5)])
        lhs = mean_index_identity_lhs([g1, g2])
        assert lhs == ExactReal.from_fraction(euler_limit(2))

    def test_ncg5_even_p_has_wrong_sign_for_even_n(self):
        g = GeodesicModel(3, 2, h=2)
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(Fraction(1, 2))  # 1/p, positive

    def test_ncg5_odd_p_halves_the_weight(self):
        g = GeodesicModel(3, 3, h=2)
        # N = 2 and the second iterate is invisible: only -1/(N*ihat) remains
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(Fraction(-1, 6))

    def test_nonpositive_mean_index_rejected(self):
        g = GeodesicModel(3, 0, h=2)
        with pytest.raises(ValueError, match="^identity requires positive mean index$"):
            mean_index_identity_lhs([g])

    @staticmethod
    def by_iterates(g):
        """The reference term of one model: sum_{m<=N} (-1)^i(c^m) k0(c^m) / (N * ihat) over
        its period, with k0 = 1 exactly where i(c^m) - i(c) is even."""
        N, i_1 = iteration.analytic_period(g), iteration.index_of_iterate(g, 1)
        s = 0
        for m in range(1, N + 1):
            i_m = iteration.index_of_iterate(g, m)
            s += (1 if i_m % 2 == 0 else -1) * ((i_m - i_1) % 2 == 0)
        return ExactReal(s) / (mean_index(g) * N)

    def test_the_closed_form_equals_the_sum_over_one_period(self):
        rng, seen = random.Random(36), Counter()
        for _ in range(600):
            g = random_model(rng)
            if mean_index(g).sign() > 0:
                assert mean_index_identity_lhs([g]) == self.by_iterates(g)
                seen[g.case, iteration.analytic_period(g)] += 1
        # every shape at N = 1, and every shape but NCG1, whose slope 2p is even, at N = 2
        assert set(seen) == {(f"NCG{k}", N) for k in range(1, 6) for N in (1, 2)} - {("NCG1", 2)}

    def test_no_iterate_is_evaluated(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the identity's closed form evaluates no iterate")

        for module, name in ((morse, "index_of_iterate"), (iteration, "critical_type"),
                             (iteration, "floor_scaled")):
            monkeypatch.setattr(module, name, refused)
        g1 = GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)])
        g2 = GeodesicModel(2, 1, [ExactReal(-1, 1, 4, 5)])
        odd = GeodesicModel(3, 3, h=2)
        assert mean_index_identity_lhs([g1, g2]) == ExactReal.from_fraction(euler_limit(2))
        assert mean_index_identity_lhs([odd]) == ExactReal.from_fraction(Fraction(-1, 6))
