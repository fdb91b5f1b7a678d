import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexlab.exact import ExactReal, FieldMismatchError, floor_scaled

from conftest import NONSQUARE_D, approx, sign_of_difference

SQRT2_M1 = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1


class TestMake:
    def test_irrational_value(self):
        x = SQRT2_M1
        assert (x.a, x.b, x.c, x.D) == (-1, 1, 1, 2)
        assert x.is_irrational

    def test_gcd_normalization(self):
        x = ExactReal(2, 0, 4, 0)
        assert (x.a, x.b, x.c, x.D) == (1, 0, 2, 0)
        assert not x.is_irrational

    def test_perfect_square_folds(self):
        # (0 + 2*sqrt(4))/2 = 2; cross-checked against the rational approximation
        x = ExactReal(0, 2, 2, 4)
        assert (x.a, x.b, x.c, x.D) == (2, 0, 1, 0)
        assert approx(x) == 2

    def test_negative_denominator_absorbed(self):
        x = ExactReal(1, 1, -2, 2)
        assert x.c == 2 and x.a == -1 and x.b == -1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ExactReal(1, 0, 0, 0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExactReal(0, 1, 1, -2)


class TestIsIrrational:
    def test_quadratic_irrational(self):
        assert SQRT2_M1.is_irrational

    def test_rational(self):
        assert not ExactReal(1, 0, 2, 0).is_irrational

    def test_perfect_square_radicand(self):
        assert not ExactReal(0, 3, 1, 9).is_irrational


class TestCompare:
    def test_cross_field_examples(self):
        # (sqrt(2)-1)^2 = 3 - 2 sqrt(2) < 1/4 by integer cross-multiplication
        assert sign_of_difference(SQRT2_M1, ExactReal(1, 0, 2, 0)) < 0
        assert sign_of_difference(ExactReal(3, 0, 2, 0), ExactReal(0, 1, 1, 2)) > 0

    def test_reflexive(self):
        assert sign_of_difference(SQRT2_M1, SQRT2_M1) == 0

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            ExactReal(0, 1, 1, 2) + ExactReal(0, 1, 1, 3)
        with pytest.raises(FieldMismatchError):
            ExactReal(0, 1, 1, 2) * ExactReal(0, 1, 1, 3)

    def test_rational_mixes_with_any_field(self):
        assert sign_of_difference(ExactReal(1, 0, 1, 0), ExactReal(0, 1, 1, 3)) < 0


class TestFloorScaled:
    def test_unit_interval(self):
        assert floor_scaled(SQRT2_M1, 1) == 0

    def test_three_times(self):
        # 16 < 18 < 25 so 4 < 3 sqrt(2) < 5, hence floor(3 sqrt(2) - 3) = 1
        assert floor_scaled(SQRT2_M1, 3) == 1

    def test_rational_exact(self):
        assert floor_scaled(ExactReal(1, 0, 2, 0), 4) == 2

    def test_negative_value(self):
        assert floor_scaled(ExactReal(1, -1, 1, 2), 1) == -1  # 1 - sqrt(2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_multiple_rejected(self, m):
        with pytest.raises(ValueError, match="m must be positive"):
            floor_scaled(SQRT2_M1, m)

    def test_against_rational_approximation(self):
        for m in (1, 7, 99, 12345):
            got = floor_scaled(SQRT2_M1, m)
            a = m * approx(SQRT2_M1)
            # approximation error way below the distance to any integer here
            assert got == a.numerator // a.denominator


def _sign_plus_sqrt(u: int, v: int, D: int) -> int:
    """Sign of u + v*sqrt(D) for v != 0 and non-square D, in integers only."""
    if u >= 0 and v > 0:
        return 1
    if u <= 0 and v < 0:
        return -1
    # opposite signs: compare |u| with |v|*sqrt(D) by squaring
    if u > 0:
        return 1 if u * u > v * v * D else -1
    return 1 if v * v * D > u * u else -1


exact_reals = st.builds(
    ExactReal,
    st.integers(-50, 50),
    st.integers(-20, 20),
    st.integers(1, 30),
    st.just(7),
)


class TestProperties:
    @given(exact_reals, st.integers(1, 10 ** 5))
    def test_floor_brackets_value(self, x, m):
        f = floor_scaled(x, m)
        mx = x * m
        assert sign_of_difference(mx, ExactReal(f)) >= 0
        assert sign_of_difference(mx, ExactReal(f + 1)) < 0

    @given(
        st.integers(-10 ** 6, 10 ** 6),
        st.integers(-10 ** 6, 10 ** 6).filter(bool),
        st.integers(1, 10 ** 6),
        st.sampled_from(NONSQUARE_D + [2 ** 61 - 1]),
        st.integers(1, 10 ** 7),
    )
    def test_floor_against_integer_oracle(self, a, b, c, D, m):
        x = ExactReal(a, b, c, D)
        f = floor_scaled(x, m)
        a, b, c = x.a, x.b, x.c
        # f*c <= a*m + b*m*sqrt(D) < (f+1)*c, with signs decided by squaring
        assert _sign_plus_sqrt(a * m - f * c, b * m, D) > 0
        assert _sign_plus_sqrt(a * m - (f + 1) * c, b * m, D) < 0
        assert x.floor() == floor_scaled(x, 1)

    @given(exact_reals, exact_reals, exact_reals)
    def test_total_order(self, x, y, z):
        assert sign_of_difference(x, x) == 0
        assert (sign_of_difference(x, y) == 0) == (x == y)
        assert sign_of_difference(x, y) == -sign_of_difference(y, x)
        if sign_of_difference(x, y) <= 0 and sign_of_difference(y, z) <= 0:
            assert sign_of_difference(x, z) <= 0

    @given(exact_reals, st.integers(1, 10 ** 5))
    def test_strict_fractional_part_when_irrational(self, x, m):
        if x.is_irrational:
            assert (x * m + (-(x * m).floor())).sign() > 0

    @given(exact_reals, exact_reals, st.fractions())
    def test_arithmetic_closure_and_canonical_form(self, x, y, q):
        for z in (x + y, x + (-1) * y, x * q, x * y):
            assert z.c > 0
            if z.b == 0:
                assert z.D == 0
            else:
                import math

                g = math.gcd(math.gcd(abs(z.a), abs(z.b)), z.c)
                assert g == 1

    @given(exact_reals)
    def test_serialization_round_trip(self, x):
        assert ExactReal.parse(x.serialize()) == x

    @given(exact_reals)
    def test_pickle_and_deepcopy_round_trip(self, x):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x)
            assert (y.a, y.b, y.c, y.D) == (x.a, x.b, x.c, x.D)
            assert floor_scaled(y, 10) == floor_scaled(x, 10)

    @given(
        st.integers(-10 ** 6, 10 ** 6),
        st.integers(-10 ** 6, 10 ** 6),
        st.integers(1, 10 ** 6),
        st.sampled_from(NONSQUARE_D + [2 ** 61 - 1]),
    )
    # numerators sqrt(2) - 1 in (0, 1), 1 - sqrt(2) in (-1, 0), and zero
    @example(-1, 1, 1, 2)
    @example(1, -1, 1, 2)
    @example(0, 0, 1, 2)
    def test_sign_against_integer_oracle(self, a, b, c, D):
        expected = _sign_plus_sqrt(a, b, D) if b else (a > 0) - (a < 0)
        assert ExactReal(a, b, c, D).sign() == expected

    @given(st.one_of(st.integers(), st.fractions()))
    def test_rational_values_hash_as_their_equals(self, q):
        x = ExactReal.from_fraction(q)
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1

    @given(exact_reals)
    def test_inverse(self, x):
        if x.sign() != 0:
            assert x * x.inverse() == ExactReal(1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ExactReal.parse("3.14")


def test_division_by_rational():
    assert SQRT2_M1 / 2 == ExactReal(-1, 1, 2, 2)
