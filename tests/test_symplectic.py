import ast
import random
import re
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import indexlab
from indexlab import ExactReal, GeodesicModel, symplectic
from indexlab.iteration import model_from_json
from indexlab.symplectic import decomposition_from_json

from conftest import random_rho

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1


def rot(rho) -> dict:
    """A rot block of an ExactReal, or of any other JSON value as written."""
    return {"type": "rot", "rho": rho.serialize() if isinstance(rho, ExactReal) else rho}


def read(*blocks):
    """The census of a decomposition of these JSON blocks."""
    return decomposition_from_json({"blocks": list(blocks)})


def refusal(*blocks) -> str:
    """The refusal of a decomposition of these JSON blocks, which names the refused block."""
    with pytest.raises(ValueError, match=r"^dec\.blocks\[\d+\]") as info:
        read(*blocks)
    return str(info.value)


class TestBlockInvariants:
    def test_rational_rotation_rejected(self):
        assert "irrational" in refusal(rot(ExactReal(1, 0, 3, 0)))

    def test_rotation_outside_unit_interval_rejected(self):
        assert "(0, 1)" in refusal(rot(ExactReal(1, 1, 1, 2)))  # 1 + sqrt(2) > 1

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
            needle = "rotation number must be irrational, got "
        elif exceeds(lo) and not exceeds(hi):
            needle = None
        else:
            needle = "rotation number must lie in (0, 1), got "
        x = ExactReal(a, b, c, D)  # as a rot block, an N block and a model's rotation number
        for check in (lambda: read(rot(x)), lambda: read({"type": "n", "rho": x.serialize()}),
                      lambda: GeodesicModel(2, 0, [x])):
            if needle is None:
                check()
            else:
                with pytest.raises(ValueError, match=re.escape(needle)):
                    check()

    def test_hyperbolic_forbidden_parameters(self):
        for d in (0, 1, -1, "0", "1", "-1", "-1/1", "7/7"):
            assert "must avoid {0, 1, -1}" in refusal({"type": "hyp", "d": d})
        assert read({"type": "hyp", "d": 2}, {"type": "hyp", "d": "-3/7"}) == ((), 0, 2)

    def test_nblock_matrix_shape(self):
        assert refusal({"type": "n", "rho": RHO.serialize(), "B": [[1, 2, 3]]}) == (
            "dec.blocks[0].B must be a 2x2 matrix, got [[1, 2, 3]]")


# each block that a reader refuses for its value, and the refusal: the path and the value,
# then the reason the block gives
REFUSALS = [
    (rot("(1+0*sqrt(0))/3"), "dec.blocks[0].rho = '(1+0*sqrt(0))/3': "
     "R-block rotation number must be irrational, got (1+0*sqrt(0))/3"),
    (rot("(1+1*sqrt(2))/1"), "dec.blocks[0].rho = '(1+1*sqrt(2))/1': "
     "R-block rotation number must lie in (0, 1), got (1+1*sqrt(2))/1"),
    ({"type": "n", "rho": "(1+0*sqrt(0))/2"}, "dec.blocks[0].rho = '(1+0*sqrt(0))/2': "
     "N-block rotation number must be irrational, got (1+0*sqrt(0))/2"),
    ({"type": "n", "rho": "(-3+1*sqrt(2))/1"}, "dec.blocks[0].rho = '(-3+1*sqrt(2))/1': "
     "N-block rotation number must lie in (0, 1), got (-3+1*sqrt(2))/1"),
    ({"type": "n", "rho": "(-1+1*sqrt(2))/1", "B": [[1, 2]]},
     "dec.blocks[0].B must be a 2x2 matrix, got [[1, 2]]"),
    ({"type": "n", "rho": "(-1+1*sqrt(2))/1", "B": [[1, 2], [3, 4], [5, 6]]},
     "dec.blocks[0].B must be a 2x2 matrix, got [[1, 2], [3, 4], [5, 6]]"),
    ({"type": "n", "rho": "(-1+1*sqrt(2))/1", "B": [[1, 2], [3]]},
     "dec.blocks[0].B must be a 2x2 matrix, got [[1, 2], [3]]"),
    ({"type": "hyp", "d": 1}, "dec.blocks[0].d = 1: hyperbolic parameter must avoid "
     "{0, 1, -1}, got 1"),
    ({"type": "hyp", "d": "-2/2"}, "dec.blocks[0].d = '-2/2': hyperbolic parameter must avoid "
     "{0, 1, -1}, got -1"),
    ({"type": "hyp", "d": "0/5"}, "dec.blocks[0].d = '0/5': hyperbolic parameter must avoid "
     "{0, 1, -1}, got 0"),
]


class TestRefusals:
    @pytest.mark.parametrize("block, message", REFUSALS)
    def test_each_bad_block_has_its_message(self, block, message):
        assert refusal(block) == message

    def test_the_checks_of_an_n_block_take_b_then_rho_then_the_entries(self):
        bad_rho, bad_entry = "(1+0*sqrt(0))/2", [[0.5, 0], [0, 0]]
        assert refusal({"type": "n", "rho": "x", "B": [[1]]}).startswith("dec.blocks[0].B ")
        assert refusal({"type": "n", "rho": "x", "B": bad_entry}).startswith("dec.blocks[0].rho ")
        assert refusal({"type": "n", "rho": bad_rho, "B": bad_entry}).startswith(
            "dec.blocks[0].B[0][0] ")
        # every block in order: the first bad block is named, whatever follows it
        assert refusal(rot(RHO), {"type": "hyp", "d": 1}, rot("x")).startswith(
            "dec.blocks[1].d = 1: ")

    def test_a_rho_of_another_type_is_refused_before_it_is_parsed(self):
        # bytes, a list or a number: never handed to ExactReal.parse, whose strip a bytes value
        # would pass on to a TypeError
        for value in (b"x", b"(-1+1*sqrt(2))/1", ["x"], 1, None):
            assert refusal(rot(value)) == ('dec.blocks[0].rho must be a string '
                                           f'"(a+b*sqrt(D))/c", got {value!r}')

    def test_a_long_integer_is_quoted_with_its_digit_count(self):
        assert refusal(rot(10**50)) == ('dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", '
                                        'got 100000000000000000000000000000…(51 digits)')
        assert refusal(rot(10**39)).endswith(", got 1" + "0" * 39)  # 40 characters, whole


class TestDiamondSum:
    def test_dim_census(self):
        # a rotation and a hyperbolic block add 2 dimensions each, an N block 4: the census
        # k = h = 1, r = 1 has dimension 8 = 2(n - 1) at n = 5 only, and is NCG4 there
        assert GeodesicModel(5, 0, [RHO], r=1, h=1).case == "NCG4"
        for n in (2, 3, 4, 6, 7):
            with pytest.raises(ValueError,
                               match=f"^decomposition has dimension 8, expected {2 * (n - 1)}$"):
                GeodesicModel(n, 0, [RHO], r=1, h=1)


def _random_blocks(rng: random.Random) -> tuple[list[dict], tuple]:
    """Random JSON blocks, and the census they read as."""
    blocks, rhos, r, h = [], [], 0, 0
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["rot", "hyp", "n"])
        if kind == "rot":
            rhos.append(random_rho(rng, 5))
            blocks.append(rot(rhos[-1]))
        elif kind == "hyp":
            blocks.append({"type": "hyp", "d": rng.choice([2, -2, "3", "-1/3"])})
            h += 1
        else:
            blocks.append({"type": "n", "rho": random_rho(rng, 5).serialize(),
                           "B": [[rng.randint(-3, 3), "1/2"], [0, "-7/3"]]})
            r += 1
    return blocks, (tuple(rhos), r, h)


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(30):
            blocks, census = _random_blocks(rng)
            assert read(*blocks) == census

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decomposition_from_json({"blocks": [{"type": "spiral"}]})

    def test_integers_and_fraction_strings_stay_exact(self):
        # read exactly, never as floats: 1 + 10^-18 is no 1, and -9/9 is -1
        assert read({"type": "hyp", "d": 2}, {"type": "hyp", "d": "-3/7"},
                    {"type": "hyp", "d": "1000000000000000001/1000000000000000000"},
                    {"type": "n", "rho": RHO.serialize(), "B": [[1, "1/2"], [0, "-3"]]}) == (
            (), 1, 3)
        assert refusal({"type": "hyp", "d": "-9/9"}).endswith("got -1")

    def test_an_n_block_without_b_reads_as_the_zero_matrix(self):
        # B may be left out of a model file's N-block: the model reads as with B = 0
        def model(**b):
            blocks = [rot(RHO), {"type": "n", "rho": RHO.serialize(), **b}]
            return model_from_json({"n": 4, "p": 1, "dec": {"blocks": blocks}})

        without, zero = model(), model(B=[[0, 0], [0, 0]])
        assert without == zero and hash(without) == hash(zero)
        assert without == GeodesicModel(4, 1, [RHO], r=1)

    @pytest.mark.parametrize("block", [
        {"type": "hyp", "d": 2.5}, {"type": "hyp", "d": 2.0}, {"type": "hyp", "d": True},
        {"type": "n", "rho": RHO.serialize(), "B": [[0.1, True], [0, 0]]},
        {"type": "n", "rho": RHO.serialize(), "B": [[0, 0], [0, False]]},
    ])
    def test_floats_and_booleans_are_refused(self, block):
        # the message names the path of the first inexact number
        field = "d" if "d" in block else next(f"B[{i}][{j}]" for i, row in enumerate(block["B"])
                                              for j, x in enumerate(row) if type(x) is not int)
        needle = re.escape(f"dec.blocks[0].{field} must be an integer or a fraction")
        with pytest.raises(ValueError, match=f"^{needle} string, got "):
            decomposition_from_json({"blocks": [block]})


REMOVED = ["Rot", "NBlock", "Hyp", "NormalFormDecomposition", "Block", "classify"]


def test_the_block_classes_are_gone():
    # the reader returns the census; the model is its census, so no block value remains, and
    # a refused block raises ValueError like every other reader
    tree = ast.parse(Path(symplectic.__file__).read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []
    for name in REMOVED:
        assert name not in indexlab.__all__
        assert not any(hasattr(module, name) for module in (indexlab, indexlab.symplectic,
                                                            indexlab.iteration))


def test_the_reader_reads_every_block_in_one_loop_and_builds_no_fraction():
    # decomposition_from_json checks each block inside its own loop, with no reader per block,
    # and checks a number as its integer pair (a, b) without building a Fraction
    tree = ast.parse(Path(symplectic.__file__).read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)] == [
        "check_rho", "_exact_number", "decomposition_from_json"]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) and "fractions" in
                   {getattr(node, "module", None), *(alias.name for alias in node.names)}
                   for node in ast.walk(tree))
    assert symplectic._exact_number("-6/4", "x") == (-6, 4)
    assert symplectic._exact_number(7, "x") == (7, 1)
