from fractions import Fraction

import pytest

from indexlab import (
    BettiTable,
    GeodesicModel,
    Hyp,
    NormalFormDecomposition,
    Rot,
    averaged_alternating_sum,
    betti,
    check_morse_inequalities,
    euler_limit,
    make,
    mean_index,
    mean_index_identity_lhs,
    morse_numbers,
    poincare_series_truncated,
)
from indexlab.exact import ExactReal
from indexlab.morse import MorseTable, NonTerminatingSumError, iterate_cutoff

from conftest import random_model

RHO = make(-1, 1, 1, 2)  # sqrt(2) - 1


def dec(*blocks):
    return NormalFormDecomposition(blocks)


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
        s = poincare_series_truncated(2, 7)
        assert list(s.coefficients) == [0, 1, 0, 2, 0, 2, 0, 2]

    def test_n3_prefix(self):
        s = poincare_series_truncated(3, 6)
        assert list(s.coefficients) == [0, 0, 1, 0, 2, 0, 2]

    def test_matches_closed_form(self):
        for n in range(2, 13):
            s = poincare_series_truncated(n, 200)
            for q in range(201):
                assert s[q] == betti(n, q)


class TestMorseNumbers:
    def test_single_ncg1_model(self):
        g = GeodesicModel(2, dec(Rot(RHO)), 0)
        M = morse_numbers([g], 3)
        # i(c^m) = 1, 1, 3, 3, 5, ... so m in {1, 2} land at q = 1
        assert M[1] == 2
        assert M[3] >= 1

    def test_empty_model_list(self):
        M = morse_numbers([], 10)
        assert all(M[q] == 0 for q in range(11))

    def test_single_ncg5_even_p(self):
        g = GeodesicModel(3, dec(Hyp(Fraction(2)), Hyp(Fraction(2))), 2)
        M = morse_numbers([g], 6)
        assert [M[q] for q in range(7)] == [0, 0, 1, 0, 1, 0, 1]

    def test_zero_mean_index_rejected(self):
        g = GeodesicModel(3, dec(Hyp(Fraction(2)), Hyp(Fraction(2))), 0)
        with pytest.raises(NonTerminatingSumError):
            morse_numbers([g], 5)

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
                assert index_of_iterate(g, m)[0] > horizon
            # and the cutoff is the smallest such bound: no extra iterates
            ihat = mean_index(g)
            assert mmax * ihat <= horizon + g.n - 1 < (mmax + 1) * ihat


class TestMorseInequalities:
    def test_equality_is_consistent(self):
        b = BettiTable(2, 10)
        M = MorseTable(tuple(b.values()))
        assert check_morse_inequalities(M, b, 10) == []

    def test_zero_table_fails_pointwise(self):
        b = BettiTable(2, 1)
        M = MorseTable((0, 0))
        violations = check_morse_inequalities(M, b, 1)
        assert any(v.kind == "pointwise" and v.q == 1 and (v.lhs, v.rhs) == (0, 1) for v in violations)

    def test_odd_concentrated_configuration_fails_alternating(self):
        # one class in degree 1 < n-1 with all even degrees empty (n = 4)
        M = MorseTable((0, 1, 0))
        b = BettiTable(4, 2)
        violations = check_morse_inequalities(M, b, 2)
        assert any(v.kind == "alternating" and v.q == 2 and (v.lhs, v.rhs) == (-1, 0) for v in violations)

    def test_violations_carry_exact_sides(self):
        M = MorseTable((0, 0, 0, 0))
        violations = check_morse_inequalities(M, BettiTable(3, 3), 3)
        for v in violations:
            assert isinstance(v.lhs, int) and isinstance(v.rhs, int)


class TestEulerLimit:
    @pytest.mark.parametrize("n,expected", [(2, Fraction(-1)), (3, Fraction(1)), (4, Fraction(-2, 3))])
    def test_values(self, n, expected):
        assert euler_limit(n) == expected

    def test_convergence_of_averaged_sums(self):
        for n in (2, 3):
            s = poincare_series_truncated(n, 1000)
            got = averaged_alternating_sum(s, 1000)
            assert abs(got - euler_limit(n)) < Fraction(1, 100)

    def test_zero_polynomial(self):
        from indexlab import SeriesPolynomial

        assert averaged_alternating_sum(SeriesPolynomial((0, 0, 0)), 2) == 0

    def test_truncation_range_error(self):
        s = poincare_series_truncated(2, 5)
        with pytest.raises(IndexError):
            averaged_alternating_sum(s, 6)


class TestMeanIndexIdentity:
    def test_single_ncg1_even_n_matches_euler_value(self):
        # three rotations in Q(sqrt(2)) summing to 3/4: mean index 3/2
        rhos = [make(-1, 1, 1, 2), make(7, -4, 8, 2), make(7, -4, 8, 2)]
        g = GeodesicModel(4, dec(*[Rot(r) for r in rhos]), 0)
        assert mean_index(g) == ExactReal.from_fraction(Fraction(3, 2))
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(euler_limit(4))

    def test_two_geodesic_configuration_on_the_2_sphere(self):
        # 1/(2*rho1) + 1/(2*(1+rho2)) = 1 exactly in Q(sqrt(5))
        g1 = GeodesicModel(2, dec(Rot(make(1, 1, 4, 5))), 0)
        g2 = GeodesicModel(2, dec(Rot(make(-1, 1, 4, 5))), 1)
        lhs = mean_index_identity_lhs([g1, g2])
        assert lhs == ExactReal.from_fraction(euler_limit(2))

    def test_ncg5_even_p_has_wrong_sign_for_even_n(self):
        g = GeodesicModel(3, dec(Hyp(Fraction(2)), Hyp(Fraction(2))), 2)
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(Fraction(1, 2))  # 1/p, positive

    def test_ncg5_odd_p_halves_the_weight(self):
        g = GeodesicModel(3, dec(Hyp(Fraction(2)), Hyp(Fraction(2))), 3)
        # N = 2 and the second iterate is invisible: only -1/(N*ihat) remains
        lhs = mean_index_identity_lhs([g])
        assert lhs == ExactReal.from_fraction(Fraction(-1, 6))

    def test_nonpositive_mean_index_rejected(self):
        g = GeodesicModel(3, dec(Hyp(Fraction(2)), Hyp(Fraction(2))), 0)
        with pytest.raises(NonTerminatingSumError):
            mean_index_identity_lhs([g])
