import copy
import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest

from indexlab import (
    GeodesicModel,
    Hyp,
    NBlock,
    NormalFormDecomposition,
    Rot,
    analytic_period,
    classify,
    critical_type,
    index_of_iterate,
    mean_index,
)
from indexlab.checker import _CLOSINGS, case_of
from indexlab.cli import _iterate_rows
from indexlab.exact import ExactReal
from indexlab.iteration import ModelInvariantError, model_from_json

from conftest import model_json, random_model, sign_of_difference

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
H2 = Hyp(Fraction(2))


def dec(*blocks):
    return NormalFormDecomposition(blocks)


class TestClassify:
    def test_rotation_only(self):
        assert classify(2, dec(Rot(RHO))) == "NCG1"

    def test_two_rotations_one_hyperbolic(self):
        assert classify(4, dec(Rot(RHO), Rot(RHO), H2)) == "NCG2"

    def test_all_hyperbolic(self):
        assert classify(3, dec(H2, Hyp(Fraction(-2)))) == "NCG5"

    def test_three_rotations_one_hyperbolic(self):
        assert classify(5, dec(Rot(RHO), Rot(RHO), Rot(RHO), H2)) == "NCG3"

    def test_single_rotation_with_hyperbolic(self):
        assert classify(3, dec(Rot(RHO), H2)) == "NCG4"

    def test_pure_n_blocks(self):
        assert classify(3, dec(NBlock(RHO))) == "NCG5"

    def test_dimension_mismatch(self):
        with pytest.raises(ModelInvariantError):
            classify(3, dec(Rot(RHO)))

    # Long's normal forms by census: row h, column k = 0..5 rotation blocks.  No
    # hyperbolic block: NCG1 with a rotation, NCG5 without; with one: no rotation
    # NCG5, one NCG4, an even number NCG2, an odd number >= 3 NCG3
    SHAPES = {
        0: ["NCG5", "NCG1", "NCG1", "NCG1", "NCG1", "NCG1"],
        1: ["NCG5", "NCG4", "NCG2", "NCG3", "NCG2", "NCG3"],
        2: ["NCG5", "NCG4", "NCG2", "NCG3", "NCG2", "NCG3"],
        3: ["NCG5", "NCG4", "NCG2", "NCG3", "NCG2", "NCG3"],
    }

    def test_case_of_is_the_table_of_the_normal_forms(self):
        assert {(k, h): case_of(k, h) for h in range(4) for k in range(6)} == {
            (k, h): case for h, row in self.SHAPES.items() for k, case in enumerate(row)}

    def test_classify_reads_the_census_through_case_of(self):
        # every census of k rotations, r N-blocks and h hyperbolic blocks at n = 2..6
        for n in range(2, 7):
            for r in range((n - 1) // 2 + 1):
                for k in range(n - 2 * r):
                    h = n - 1 - 2 * r - k
                    blocks = [Rot(RHO)] * k + [NBlock(RHO)] * r + [H2] * h
                    assert classify(n, dec(*blocks)) == self.SHAPES[min(h, 3)][min(k, 5)]


class TestModelInvariants:
    def test_ncg1_negative_initial_index_rejected(self):
        with pytest.raises(ModelInvariantError):
            GeodesicModel(2, dec(Rot(RHO)), p=-1)

    def test_negative_p_rejected_elsewhere(self):
        with pytest.raises(ModelInvariantError):
            GeodesicModel(3, dec(H2, H2), p=-2)

    def test_initial_index(self):
        assert GeodesicModel(2, dec(Rot(RHO)), 0).initial_index == 1
        assert GeodesicModel(3, dec(H2, H2), 3).initial_index == 3


class TestModelValueSemantics:
    TEXT = ("GeodesicModel(n=4, dec=NormalFormDecomposition(blocks=("
            "Rot(rho=ExactReal(-1, 1, 1, 2)), Hyp(d=Fraction(2, 1)), "
            "Rot(rho=ExactReal(-1, 1, 1, 3)))), p=3, case='NCG2')")

    @staticmethod
    def make():
        return GeodesicModel(n=4, dec=dec(Rot(RHO), H2, Rot(ExactReal(-1, 1, 1, 3))), p=3)

    def test_equal_inputs_give_equal_models_that_copy_and_pickle(self):
        g, h = self.make(), self.make()
        assert g is not h and g == h and hash(g) == hash(h) and repr(g) == self.TEXT
        index_of_iterate(g, 7)  # a filled cache is not part of the value
        for z in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert type(z) is GeodesicModel and z == g and hash(z) == hash(g)
            assert repr(z) == self.TEXT
            assert (z.case, z.rotation_numbers, z.slope, z.const) == (
                g.case, g.rotation_numbers, g.slope, g.const)

    def test_equality_reads_n_dec_and_p(self):
        g = GeodesicModel(2, dec(Rot(RHO)), 1)
        assert g == GeodesicModel(2, dec(Rot(RHO)), p=1)
        assert g != GeodesicModel(2, dec(Rot(RHO)), 2)
        assert g != GeodesicModel(2, dec(Rot(ExactReal(-1, 1, 1, 3))), 1)
        assert g != GeodesicModel(3, dec(Rot(RHO), Rot(RHO)), 1)
        assert g != (2, dec(Rot(RHO)), 1) and g != g.dec

    def test_assignment_raises(self):
        g = self.make()
        for attr in ("n", "dec", "p", "case", "rotation_numbers", "slope", "const", "_last",
                     "extra"):
            with pytest.raises(AttributeError):
                setattr(g, attr, 0)
        assert repr(g) == self.TEXT

    @pytest.mark.parametrize("n, blocks, p, message", [
        (1, (), 0, "sphere dimension n must be >= 2"),
        (3, (Rot(RHO),), 0, "decomposition has dimension 2, expected 4"),
        (2, (Rot(RHO),), -1, "NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got -1"),
        (2, (H2,), -1, "NCG5 requires p >= 0, got -1"),
        (4, (Rot(RHO), Rot(RHO), H2), -1, "NCG2 requires p >= 0, got -1"),
        (5, (Rot(RHO), Rot(RHO), Rot(RHO), H2), -2, "NCG3 requires p >= 0, got -2"),
        (3, (Rot(RHO), H2), -3, "NCG4 requires p >= 0, got -3"),
    ])
    def test_each_bad_input_has_its_message(self, n, blocks, p, message):
        with pytest.raises(ModelInvariantError) as info:
            GeodesicModel(n, dec(*blocks), p)
        assert str(info.value) == message


class TestIndexOfIterate:
    def test_ncg5_linear(self):
        g = GeodesicModel(3, dec(H2, H2), p=2)
        assert index_of_iterate(g, 3) == 6

    def test_ncg1_floor_formula(self):
        g = GeodesicModel(2, dec(Rot(RHO)), p=0)
        assert index_of_iterate(g, 3) == 3  # floor(3(sqrt(2)-1)) = 1

    def test_first_iterate_matches_initial_index(self, rng):
        for _ in range(100):
            g = random_model(rng)
            assert index_of_iterate(g, 1) == g.initial_index

    def test_ncg1_ncg4_boundary_agreement(self):
        # a single rotation with no hyperbolic blocks classifies as NCG1,
        # and the NCG4 formula evaluates identically there with p' = i(c)
        g = GeodesicModel(2, dec(Rot(RHO)), p=1)
        for m in range(1, 30):
            i_ncg1 = index_of_iterate(g, m)
            p4 = g.initial_index
            i_ncg4 = m * (p4 - 1) + 2 * ((RHO * m).floor()) + 1
            assert i_ncg1 == i_ncg4

    def test_nullity_vanishes(self, rng):
        # bumpy: the index is the one int per iterate, and the iterate table's nu is 0
        for _ in range(50):
            g = random_model(rng)
            m = rng.randint(1, 40)
            assert type(index_of_iterate(g, m)) is int
            assert [row[2] for row in _iterate_rows(g, m, False)] == [0] * m


class TestMeanIndex:
    def test_ncg5(self):
        assert mean_index(GeodesicModel(3, dec(H2, H2), 2)) == ExactReal(2)

    def test_ncg1_value(self):
        assert mean_index(GeodesicModel(2, dec(Rot(RHO)), 0)) == ExactReal(-2, 2, 1, 2)

    def test_ncg4_value(self):
        g = GeodesicModel(3, dec(Rot(RHO), H2), 1)
        assert mean_index(g) == ExactReal(-2, 2, 1, 2)  # (p-1) + 2 rho

    def test_is_the_limit_slope(self):
        g = GeodesicModel(2, dec(Rot(RHO)), 0)
        ihat = mean_index(g)
        m = 10 ** 4
        i_m = index_of_iterate(g, m)
        # |i(c^m)/m - ihat| <= (n-1)/m, exactly
        assert sign_of_difference(ihat * m, i_m - (g.n - 1)) >= 0
        assert sign_of_difference(ihat * m, i_m + (g.n - 1)) <= 0

    def test_index_bound_sample(self, rng):
        for _ in range(50):
            g = random_model(rng)
            ihat = mean_index(g)
            for m in (1, 2, 17):
                i_m = index_of_iterate(g, m)
                assert sign_of_difference(ihat * m, i_m - (g.n - 1)) >= 0
                assert sign_of_difference(ihat * m, i_m + (g.n - 1)) <= 0


class TestAnalyticPeriod:
    @pytest.mark.parametrize(
        "blocks,n,p,expected",
        [
            ((Rot(RHO),), 2, 0, 1),  # NCG1
            ((Rot(RHO), Rot(RHO), H2), 4, 1, 2),  # NCG2, p odd
            ((Rot(RHO), Rot(RHO), H2), 4, 2, 1),  # NCG2, p even
            ((Rot(RHO),) * 3 + (H2,), 5, 2, 2),  # NCG3, p even
            ((Rot(RHO),) * 3 + (H2,), 5, 1, 1),  # NCG3, p odd
            ((Rot(RHO), H2), 3, 2, 2),  # NCG4, p even
            ((Rot(RHO), H2), 3, 1, 1),  # NCG4, p odd
            ((H2, H2), 3, 2, 1),  # NCG5, p even
            ((H2, H2), 3, 1, 2),  # NCG5, p odd
        ],
    )
    def test_period_table(self, blocks, n, p, expected):
        assert analytic_period(GeodesicModel(n, dec(*blocks), p)) == expected

    def test_periodicity_and_minimality(self, rng):
        for _ in range(60):
            g = random_model(rng)
            N = analytic_period(g)
            for m in range(1, 30):
                assert critical_type(g, m) == critical_type(g, m + N)
            if N == 2:
                assert critical_type(g, 1) != critical_type(g, 2)


class TestCriticalType:
    def test_first_iterate(self, rng):
        for _ in range(20):
            assert critical_type(random_model(rng), 1) == (1, 1)

    def test_ncg5_odd_p_second_iterate(self):
        g = GeodesicModel(3, dec(H2, H2), p=1)
        assert critical_type(g, 2) == (-1, 0)

    def test_ncg1_always_positive(self):
        g = GeodesicModel(2, dec(Rot(RHO)), 0)
        for m in range(1, 50):
            assert critical_type(g, m) == (1, 1)


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(40):
            g = random_model(rng)
            g2 = model_from_json(model_json(g))
            assert (g2.n, g2.p, g2.case, g2.dec.blocks) == (g.n, g.p, g.case, g.dec.blocks)

    def test_case_mismatch_rejected(self):
        obj = model_json(GeodesicModel(2, dec(Rot(RHO)), 0))
        obj["case"] = "NCG5"
        with pytest.raises(ModelInvariantError):
            model_from_json(obj)

    def test_pickle_and_deepcopy_round_trip(self, rng):
        for _ in range(40):
            g = random_model(rng)
            for g2 in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
                assert g2 == g and hash(g2) == hash(g)
                assert index_of_iterate(g2, 10) == index_of_iterate(g, 10)


# -- independent reference for the five iteration formulas ------------------

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
    k = sum(isinstance(b, Rot) for b in g.dec.blocks)
    h = sum(isinstance(b, Hyp) for b in g.dec.blocks)
    if h == 0:
        return "NCG1" if k else "NCG5"
    return {0: "NCG5", 1: "NCG4"}.get(k, "NCG2" if k % 2 == 0 else "NCG3")


def ref_index(g, m: int) -> int:
    """i(c^m) by the case formulas of Long's iteration theory, spelled out."""
    rhos = [b.rho for b in g.dec.blocks if isinstance(b, Rot)]
    r = sum(isinstance(b, NBlock) for b in g.dec.blocks)
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


def ref_period(g) -> int:
    case = ref_case(g)
    if case == "NCG1":
        return 1
    if case in ("NCG2", "NCG5"):
        return 1 if g.p % 2 == 0 else 2
    return 2 if g.p % 2 == 0 else 1


def ref_mean_index(g) -> tuple[Fraction, Fraction]:
    """(rational part, sqrt(D) coefficient) of the mean index, per case."""
    rhos = [b.rho for b in g.dec.blocks if isinstance(b, Rot)]
    k, p = len(rhos), g.p
    slope = {"NCG1": 2 * p, "NCG2": p - k, "NCG3": p - k, "NCG4": p - 1, "NCG5": p}[ref_case(g)]
    return (slope + 2 * sum(Fraction(x.a, x.c) for x in rhos),
            2 * sum(Fraction(x.b, x.c) for x in rhos))


class TestAgainstReference:
    def test_ref_floor_brackets(self):
        # floor(m*(sqrt(2) - 1)) against known values
        assert [ref_floor(-m, m, 1, 2) for m in (1, 2, 3, 10, 100)] == [0, 0, 1, 4, 41]

    def test_all_formulas_on_random_models(self):
        rng = random.Random(4)
        seen = set()
        for _ in range(300):
            g = random_model(rng)
            seen.add(ref_case(g))
            assert g.case == ref_case(g)
            assert [index_of_iterate(g, m) for m in range(1, 61)] == [
                ref_index(g, m) for m in range(1, 61)
            ]
            assert g.initial_index == ref_index(g, 1)
            assert analytic_period(g) == ref_period(g)
            ihat = mean_index(g)
            rational, coefficient = ref_mean_index(g)
            assert Fraction(ihat.a, ihat.c) == rational
            assert Fraction(ihat.b, ihat.c) == coefficient
        assert seen == set(_CLOSINGS)
