import copy
import itertools
import json
import pickle
import random
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indexlab import ExactReal, Hyp, NBlock, NormalFormDecomposition, Rot
from indexlab.symplectic import BlockInvariantError, decomposition_from_json

from conftest import decomposition_json, random_rho

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
RHO2 = ExactReal(-1, 1, 1, 3)  # sqrt(3) - 1


def dumps(d: NormalFormDecomposition) -> str:
    """The canonical JSON text of a decomposition's document."""
    return json.dumps(decomposition_json(d), sort_keys=True, separators=(",", ":"))


class TestBlockInvariants:
    def test_rational_rotation_rejected(self):
        with pytest.raises(BlockInvariantError):
            Rot(ExactReal(1, 0, 3, 0))

    def test_rotation_outside_unit_interval_rejected(self):
        with pytest.raises(BlockInvariantError):
            Rot(ExactReal(1, 1, 1, 2))  # 1 + sqrt(2) > 1

    @given(st.integers(-60, 60), st.integers(-12, 12),
           st.integers(-40, 40).filter(bool), st.integers(0, 50))
    def test_rotation_range_against_integer_squares(self, a, b, c, D):
        def exceeds(t: int) -> bool:  # a + b*sqrt(D) > t, with b != 0 and D not a square
            s = t - a  # compare b*sqrt(D) with s by the signs and the squares b^2 D, s^2
            if b > 0:
                return s < 0 or b * b * D > s * s
            return s < 0 and b * b * D < s * s

        lo, hi = min(0, c), max(0, c)  # 0 < (a + b*sqrt(D))/c < 1 iff lo < a + b*sqrt(D) < hi
        if b == 0 or isqrt(D) ** 2 == D:
            needle = "irrational"
        elif exceeds(lo) and not exceeds(hi):
            needle = None
        else:
            needle = "(0, 1)"
        if needle is None:
            Rot(ExactReal(a, b, c, D))
        else:
            with pytest.raises(BlockInvariantError, match=re.escape(needle)):
                Rot(ExactReal(a, b, c, D))

    def test_hyperbolic_forbidden_parameters(self):
        for d in (0, 1, -1):
            with pytest.raises(BlockInvariantError):
                Hyp(Fraction(d))
        Hyp(Fraction(2))
        Hyp(Fraction(-3, 7))

    def test_nblock_matrix_shape(self):
        with pytest.raises(BlockInvariantError):
            NBlock(RHO, ((1, 2, 3),))  # type: ignore[arg-type]

    def test_dimensions(self):
        assert Rot(RHO).dim == 2
        assert Hyp(Fraction(2)).dim == 2
        assert NBlock(RHO).dim == 4


# one value of each block kind and of a decomposition, built twice from equal inputs,
# with the repr each keeps
_B = "B=((Fraction(1, 1), Fraction(2, 1)), (Fraction(1, 3), Fraction(0, 1)))"
_ZERO_B = "B=((Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1)))"
VALUES = {
    "Rot": (lambda: Rot(RHO), "Rot(rho=ExactReal(-1, 1, 1, 2))"),
    "NBlock": (lambda: NBlock(RHO, ((1, 2), (Fraction(1, 3), 0))),
               f"NBlock(rho=ExactReal(-1, 1, 1, 2), {_B})"),
    "NBlock default B": (lambda: NBlock(rho=RHO2),
                         f"NBlock(rho=ExactReal(-1, 1, 1, 3), {_ZERO_B})"),
    "Hyp": (lambda: Hyp(d=-3), "Hyp(d=Fraction(-3, 1))"),
    "empty sum": (lambda: NormalFormDecomposition(), "NormalFormDecomposition(blocks=())"),
    "sum": (lambda: NormalFormDecomposition(blocks=iter([Rot(RHO), Hyp("1/2")])),
            "NormalFormDecomposition(blocks=(Rot(rho=ExactReal(-1, 1, 1, 2)), "
            "Hyp(d=Fraction(1, 2))))"),
}


class TestValueSemantics:
    @pytest.mark.parametrize("name", VALUES)
    def test_equal_inputs_give_equal_values_that_copy_and_pickle(self, name):
        make, text = VALUES[name]
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y) and repr(x) == text
        for z in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(z) is type(x) and z == x and hash(z) == hash(x) and repr(z) == text

    @pytest.mark.parametrize("name", VALUES)
    def test_assignment_raises(self, name):
        make, text = VALUES[name]
        x = make()
        for attr in ("rho", "B", "d", "blocks", "dim", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 0)
        assert repr(x) == text

    def test_a_block_equals_only_a_block_of_its_kind_and_data(self):
        blocks = [Rot(RHO), Rot(RHO2), NBlock(RHO), NBlock(RHO2), NBlock(RHO, ((1, 0), (0, 1))),
                  Hyp(2), Hyp(Fraction(-1, 3))]
        for (i, a), (j, b) in itertools.product(enumerate(blocks), repeat=2):
            assert (a == b) is (i == j) and (a != b) is (i != j), (a, b)
            assert NormalFormDecomposition([a]) != b
        assert NBlock(RHO) == NBlock(RHO, [[0, 0], ["0", Fraction(0)]])
        assert Hyp(2) == Hyp("4/2") == Hyp(Fraction(2)) and hash(Hyp(2)) == hash(Hyp("4/2"))

    @pytest.mark.parametrize("make, message", [
        (lambda: Rot(ExactReal(1, 0, 3)),
         "R-block rotation number must be irrational, got (1+0*sqrt(0))/3"),
        (lambda: Rot(ExactReal(1, 1, 1, 2)),
         "R-block rotation number must lie in (0, 1), got (1+1*sqrt(2))/1"),
        (lambda: NBlock(ExactReal(1, 0, 2)),
         "N-block rotation number must be irrational, got (1+0*sqrt(0))/2"),
        (lambda: NBlock(ExactReal(-3, 1, 1, 2)),
         "N-block rotation number must lie in (0, 1), got (-3+1*sqrt(2))/1"),
        (lambda: NBlock(RHO, ((1, 2),)), "B must be a 2x2 matrix"),
        (lambda: NBlock(RHO, ((1, 2), (3, 4), (5, 6))), "B must be a 2x2 matrix"),
        (lambda: NBlock(RHO, ((1, 2), (3,))), "B must be a 2x2 matrix"),
        (lambda: Hyp(1), "hyperbolic parameter must avoid {0, 1, -1}, got 1"),
        (lambda: Hyp(Fraction(-2, 2)), "hyperbolic parameter must avoid {0, 1, -1}, got -1"),
        (lambda: Hyp("0/5"), "hyperbolic parameter must avoid {0, 1, -1}, got 0"),
    ])
    def test_each_bad_input_has_its_message(self, make, message):
        with pytest.raises(BlockInvariantError) as info:
            make()
        assert str(info.value) == message


class TestDiamondSum:
    def test_dim_census(self):
        d = NormalFormDecomposition([Rot(RHO), Hyp(Fraction(2)), NBlock(RHO)])
        assert d.total_dim == 2 * (d.count(Rot) + d.count(Hyp)) + 4 * d.count(NBlock)


def _random_dec(rng: random.Random) -> NormalFormDecomposition:
    blocks = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["rot", "hyp", "n"])
        if kind == "rot":
            blocks.append(Rot(random_rho(rng, 5)))
        elif kind == "hyp":
            blocks.append(Hyp(Fraction(rng.choice([2, -2, 3]))))
        else:
            blocks.append(NBlock(random_rho(rng, 5)))
    return NormalFormDecomposition(blocks)


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(30):
            d = _random_dec(rng)
            assert decomposition_from_json(decomposition_json(d)).blocks == d.blocks

    def test_deterministic_dump(self):
        d = NormalFormDecomposition([Rot(RHO), Hyp(Fraction(-3, 7)), NBlock(RHO2)])
        assert dumps(d) == dumps(decomposition_from_json(decomposition_json(d)))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decomposition_from_json({"blocks": [{"type": "spiral"}]})

    def test_integers_and_fraction_strings_stay_exact(self):
        rho = RHO.serialize()
        d = decomposition_from_json({"blocks": [
            {"type": "hyp", "d": 2}, {"type": "hyp", "d": "-3/7"},
            {"type": "n", "rho": rho, "B": [[1, "1/2"], [0, "-3"]]}]})
        assert dumps(d) == ('{"blocks":[{"d":"2/1","type":"hyp"},{"d":"-3/7","type":"hyp"},'
                            '{"B":[["1/1","1/2"],["0/1","-3/1"]],"rho":"%s","type":"n"}]}' % rho)

    @pytest.mark.parametrize("block", [
        {"type": "hyp", "d": 2.5}, {"type": "hyp", "d": 2.0}, {"type": "hyp", "d": True},
        {"type": "n", "rho": RHO.serialize(), "B": [[0.1, True], [0, 0]]},
        {"type": "n", "rho": RHO.serialize(), "B": [[0, 0], [0, False]]},
    ])
    def test_floats_and_booleans_are_refused(self, block):
        field = "d" if "d" in block else "B entry"
        with pytest.raises(BlockInvariantError, match=f"^{field} must be an integer or a fraction"):
            decomposition_from_json({"blocks": [block]})
