import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from indexlab import (
    GeodesicModel,
    analytic_period,
    critical_type,
    index_of_iterate,
    mean_index,
)
from indexlab.checker import _CLOSINGS
from indexlab.cli import _iterate_rows
from indexlab.exact import ExactReal
from indexlab.iteration import case_of, model_from_json

from conftest import (bott_index, katok_models, model_json, random_model, ref_case, ref_floor,
                      ref_index, shaped_models, sign_of_difference)

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
SMALL = ExactReal(-1, 1, 4, 2)  # (sqrt(2) - 1)/4


class TestCaseShape:
    def test_rotation_only(self):
        assert GeodesicModel(2, 0, [RHO]).case == "NCG1"

    def test_two_rotations_one_hyperbolic(self):
        assert GeodesicModel(4, 0, [RHO, RHO], h=1).case == "NCG2"

    def test_all_hyperbolic(self):
        assert GeodesicModel(3, 0, h=2).case == "NCG5"

    def test_three_rotations_one_hyperbolic(self):
        assert GeodesicModel(5, 0, [RHO] * 3, h=1).case == "NCG3"

    def test_single_rotation_with_hyperbolic(self):
        assert GeodesicModel(3, 0, [RHO], h=1).case == "NCG4"

    def test_pure_n_blocks(self):
        assert GeodesicModel(3, 0, r=1).case == "NCG5"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^decomposition has dimension 2, expected 4$"):
            GeodesicModel(3, 0, [RHO])

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

    def test_a_model_takes_its_case_from_case_of(self):
        # every census of k rotations, r N-blocks and h hyperbolic blocks at n = 2..6
        for n in range(2, 7):
            for r in range((n - 1) // 2 + 1):
                for k in range(n - 2 * r):
                    h = n - 1 - 2 * r - k
                    g = GeodesicModel(n, k, [RHO] * k, r, h)
                    assert g.case == self.SHAPES[min(h, 3)][min(k, 5)]


class TestModelInvariants:
    def test_ncg1_negative_initial_index_rejected(self):
        message = "NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeodesicModel(2, -1, [RHO])

    def test_negative_p_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="^NCG5 requires p >= 0, got -2$"):
            GeodesicModel(3, -2, h=2)

    def test_initial_index(self):
        assert GeodesicModel(2, 0, [RHO]).initial_index == 1
        assert GeodesicModel(3, 3, h=2).initial_index == 3


class TestModelValueSemantics:
    TEXT = ("GeodesicModel(n=4, p=3, rotation_numbers=(ExactReal(-1, 1, 1, 2), "
            "ExactReal(-1, 1, 1, 3)), r=0, h=1)")

    @staticmethod
    def make():
        return GeodesicModel(n=4, p=3, rotation_numbers=iter([RHO, ExactReal(-1, 1, 1, 3)]), h=1)

    def test_equal_inputs_give_equal_models_that_copy_and_pickle(self):
        g, h = self.make(), self.make()
        assert g is not h and g == h and hash(g) == hash(h) and repr(g) == self.TEXT
        index_of_iterate(g, 7)  # a filled cache is not part of the value
        for z in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert type(z) is GeodesicModel and z == g and hash(z) == hash(g)
            assert repr(z) == self.TEXT
            assert (z.case, z.rotation_numbers, z.slope, z.const) == (
                g.case, g.rotation_numbers, g.slope, g.const)

    def test_equality_reads_n_p_and_the_census(self):
        g = GeodesicModel(2, 1, [RHO])
        assert g == GeodesicModel(2, p=1, rotation_numbers=(RHO,), r=0, h=0)
        assert g != GeodesicModel(2, 2, [RHO])
        assert g != GeodesicModel(2, 1, [ExactReal(-1, 1, 1, 3)])
        assert g != GeodesicModel(3, 1, [RHO, RHO])
        assert g != GeodesicModel(4, 1, [RHO], r=1)
        assert GeodesicModel(3, 1, r=1) != GeodesicModel(3, 1, h=2)
        # the rotation numbers are a sequence: mean_index keeps the first one's D
        x, y = ExactReal(-1, 1, 1, 2), ExactReal(-2, 1, 2, 8)  # sqrt(2) - 1 over D = 2 and 8
        assert x == y and GeodesicModel(3, 0, [x, RHO]) == GeodesicModel(3, 0, [y, RHO])
        assert GeodesicModel(3, 0, [RHO, SMALL]) != GeodesicModel(3, 0, [SMALL, RHO])
        assert g != (2, 1, (RHO,), 0, 0) and g != g.rotation_numbers

    def test_assignment_raises(self):
        g = self.make()
        for attr in ("n", "p", "rotation_numbers", "r", "h", "case", "slope", "const", "_last",
                     "_census", "extra"):
            with pytest.raises(AttributeError, match="^GeodesicModel is immutable$"):
                setattr(g, attr, 0)
        assert repr(g) == self.TEXT

    def test_deletion_raises(self):
        g = self.make()
        for attr in ("n", "p", "rotation_numbers", "r", "h", "case", "slope", "const", "_last",
                     "_census", "extra"):
            with pytest.raises(AttributeError, match="^GeodesicModel is immutable$"):
                delattr(g, attr)
        assert repr(g) == self.TEXT and g == self.make()
        assert index_of_iterate(g, 3) == index_of_iterate(self.make(), 3)

    @pytest.mark.parametrize("n, census, p, message", [
        (1, ((), 0, 0), 0, "sphere dimension n must be >= 2"),
        (3, ((RHO,), 0, 0), 0, "decomposition has dimension 2, expected 4"),
        (2, ((RHO,), 0, 0), -1, "NCG1 requires i(c) = 2p + (n - 2r - 1) >= 0, got -1"),
        (2, ((), 0, 1), -1, "NCG5 requires p >= 0, got -1"),
        (4, ((RHO, RHO), 0, 1), -1, "NCG2 requires p >= 0, got -1"),
        (5, ((RHO,) * 3, 0, 1), -2, "NCG3 requires p >= 0, got -2"),
        (3, ((RHO,), 0, 1), -3, "NCG4 requires p >= 0, got -3"),
        (3, ((), -1, 6), 0, "r and h must be >= 0, got r = -1 and h = 6"),
        (3, ((), 2, -2), 0, "r and h must be >= 0, got r = 2 and h = -2"),
        (3, ((), 0, 10**50), 0,
         "decomposition has dimension 200000000000000000000000000000…(51 digits), expected 4"),
    ])
    def test_each_bad_input_has_its_message(self, n, census, p, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeodesicModel(n, p, *census)

    @pytest.mark.parametrize("rho, message", [
        (ExactReal(1, 0, 3), "R-block rotation number must be irrational, got (1+0*sqrt(0))/3"),
        (ExactReal(1, 1, 1, 2), "R-block rotation number must lie in (0, 1), got (1+1*sqrt(2))/1"),
        (ExactReal(-3, 1, 1, 2),
         "R-block rotation number must lie in (0, 1), got (-3+1*sqrt(2))/1"),
    ])
    def test_each_rotation_number_is_checked(self, rho, message):
        # before n and the census: a rotation block was built, and checked, first
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeodesicModel(1, -5, [RHO, rho], -1)


class TestIndexOfIterate:
    def test_ncg5_linear(self):
        g = GeodesicModel(3, 2, h=2)
        assert index_of_iterate(g, 3) == 6

    def test_ncg1_floor_formula(self):
        g = GeodesicModel(2, 0, [RHO])
        assert index_of_iterate(g, 3) == 3  # floor(3(sqrt(2)-1)) = 1

    def test_first_iterate_matches_initial_index(self, rng):
        for _ in range(100):
            g = random_model(rng)
            assert index_of_iterate(g, 1) == g.initial_index

    def test_ncg1_ncg4_boundary_agreement(self):
        # a single rotation with no hyperbolic blocks classifies as NCG1,
        # and the NCG4 formula evaluates identically there with p' = i(c)
        g = GeodesicModel(2, 1, [RHO])
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
        assert mean_index(GeodesicModel(3, 2, h=2)) == ExactReal(2)

    def test_ncg1_value(self):
        assert mean_index(GeodesicModel(2, 0, [RHO])) == ExactReal(-2, 2, 1, 2)

    def test_ncg4_value(self):
        g = GeodesicModel(3, 1, [RHO], h=1)
        assert mean_index(g) == ExactReal(-2, 2, 1, 2)  # (p-1) + 2 rho

    def test_is_the_limit_slope(self):
        g = GeodesicModel(2, 0, [RHO])
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
        "census,n,p,expected",
        [
            (((RHO,), 0, 0), 2, 0, 1),  # NCG1
            (((RHO, RHO), 0, 1), 4, 1, 2),  # NCG2, p odd
            (((RHO, RHO), 0, 1), 4, 2, 1),  # NCG2, p even
            (((RHO,) * 3, 0, 1), 5, 2, 2),  # NCG3, p even
            (((RHO,) * 3, 0, 1), 5, 1, 1),  # NCG3, p odd
            (((RHO,), 0, 1), 3, 2, 2),  # NCG4, p even
            (((RHO,), 0, 1), 3, 1, 1),  # NCG4, p odd
            (((), 0, 2), 3, 2, 1),  # NCG5, p even
            (((), 0, 2), 3, 1, 2),  # NCG5, p odd
        ],
    )
    def test_period_table(self, census, n, p, expected):
        assert analytic_period(GeodesicModel(n, p, *census)) == expected

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
        g = GeodesicModel(3, 1, h=2)
        assert critical_type(g, 2) == (-1, 0)

    def test_ncg1_always_positive(self):
        g = GeodesicModel(2, 0, [RHO])
        for m in range(1, 50):
            assert critical_type(g, m) == (1, 1)


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(40):
            g = random_model(rng)
            g2 = model_from_json(model_json(g))
            assert (g2.n, g2.p, g2.case, g2.rotation_numbers, g2.r, g2.h) == (
                g.n, g.p, g.case, g.rotation_numbers, g.r, g.h)
            assert g2 == g and hash(g2) == hash(g)

    def test_files_that_differ_only_in_n_and_hyp_blocks_give_one_model(self):
        # a hyp block's d, an N block's rho and B, and where those blocks stand among the
        # rotation blocks: no output reads them, so they are not part of the model
        r2, r3 = ({"type": "rot", "rho": x} for x in ("(-1+1*sqrt(2))/1", "(7-4*sqrt(2))/8"))
        files = [[r2, r3, {"type": "hyp", "d": 2}, {"type": "n", "rho": "(-1+1*sqrt(2))/1"}],
                 [{"type": "hyp", "d": "-3/7"}, r2, {"type": "n", "rho": "(1+1*sqrt(5))/4",
                                                     "B": [[1, "1/2"], [0, -3]]}, r3],
                 [r2, {"type": "n", "rho": "(-2+1*sqrt(5))/1", "B": [[0, 0], [0, 5]]}, r3,
                  {"type": "hyp", "d": 5}]]
        models = [model_from_json({"n": 6, "p": 3, "dec": {"blocks": b}}) for b in files]
        want = GeodesicModel(6, 3, [RHO, ExactReal(7, -4, 8, 2)], r=1, h=1)
        assert all(g == want and hash(g) == hash(want) and repr(g) == repr(want) for g in models)
        # the rotation numbers keep their order
        swapped = model_from_json({"n": 6, "p": 3, "dec": {"blocks": [r3, r2] + files[0][2:]}})
        assert swapped != want and swapped.rotation_numbers == want.rotation_numbers[::-1]

    def test_refusals_come_in_the_reader_order(self):
        # n, every block, p, the model's checks, the declared case, then the shared field
        doc = {"n": "x", "p": "x", "case": "NCG5", "dec": {"blocks": [
            {"type": "rot", "rho": "(-1+1*sqrt(2))/1"}, {"type": "hyp", "d": 1},
            {"type": "rot", "rho": "(-1+1*sqrt(3))/1"}]}}
        steps = [("n", 4, "n must be an integer, got 'x'"),
                 ("d", 2, "dec.blocks[1].d = 1: hyperbolic parameter must avoid {0, 1, -1}, "
                  "got 1"),
                 ("p", -1, "p must be an integer, got 'x'"),
                 ("p", 1, "NCG2 requires p >= 0, got -1"),
                 ("case", "NCG2", "declared case NCG5 does not match classified case NCG2"),
                 (None, None, "dec.blocks[0].rho and dec.blocks[2].rho lie in Q(sqrt(2)) and "
                  "Q(sqrt(3))")]
        for key, fix, message in steps:
            with pytest.raises(ValueError) as info:
                model_from_json(doc)
            assert str(info.value) == message
            if key == "d":
                doc["dec"]["blocks"][1]["d"] = fix
            elif key:
                doc[key] = fix

    def test_case_mismatch_rejected(self):
        obj = model_json(GeodesicModel(2, 0, [RHO]))
        obj["case"] = "NCG5"
        message = "declared case NCG5 does not match classified case NCG1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            model_from_json(obj)

    def test_pickle_and_deepcopy_round_trip(self, rng):
        for _ in range(40):
            g = random_model(rng)
            for g2 in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
                assert g2 == g and hash(g2) == hash(g)
                assert index_of_iterate(g2, 10) == index_of_iterate(g, 10)


# -- independent reference for the five iteration formulas: ref_index is in conftest --

def ref_period(g) -> int:
    case = ref_case(g)
    if case == "NCG1":
        return 1
    if case in ("NCG2", "NCG5"):
        return 1 if g.p % 2 == 0 else 2
    return 2 if g.p % 2 == 0 else 1


def ref_mean_index(g) -> tuple[Fraction, Fraction]:
    """(rational part, sqrt(D) coefficient) of the mean index, per case."""
    rhos = g.rotation_numbers
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


def assert_bott(g, mmax):
    """index_of_iterate, initial_index, critical_type, analytic_period and mean_index
    of g against Bott's formula, at m = 1..mmax."""
    bott = [bott_index(g, m) for m in range(1, mmax + 1)]
    assert [index_of_iterate(g, m) for m in range(1, mmax + 1)] == bott
    assert g.initial_index == bott[0]
    even = [(i - bott[0]) % 2 == 0 for i in bott]
    assert [critical_type(g, m) for m in range(1, mmax + 1)] == [
        (1, 1) if e else (-1, 0) for e in even]
    assert analytic_period(g) == (1 if all(even) else 2)
    # each rotation's brackets average rho - (1 - rho) over the circle: the mean index
    # is i(c) + sum (2*rho - 1), here as its rational part and its sqrt(D) coefficient
    rhos = g.rotation_numbers
    ihat = mean_index(g)
    assert (Fraction(ihat.a, ihat.c), Fraction(ihat.b, ihat.c)) == (
        bott[0] + sum(2 * Fraction(x.a, x.c) - 1 for x in rhos),
        sum(2 * Fraction(x.b, x.c) for x in rhos))


class TestBott:
    """Bott's iteration formula, an oracle that shares no formula with the index layer."""

    @settings(max_examples=150, deadline=None)
    @given(shaped_models())
    # NCG1 with p < 0 and two N blocks: i(c) = 2p + n - 2r - 1 = 0
    @example(GeodesicModel(7, -1, [RHO, RHO], r=2))
    def test_every_shape(self, g):
        assert_bott(g, 60)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_katok_models(self, n):
        for g in katok_models(n, ExactReal(-2, 1, 1, 5), list(range(1, (n + 3) // 2))):
            assert_bott(g, 59)
