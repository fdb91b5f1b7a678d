"""Symplectic normal-form blocks and their ordered diamond sum.

A linearized return map is represented by its factored normal form only:
an ordered list of rotation blocks R(theta), twisted 4-dimensional blocks
N(alpha, B), and hyperbolic blocks H(d).  The big matrix is never
materialized -- every downstream formula consumes block data.

Rotation angles are stored normalized as rho = theta/(2*pi), an ExactReal
in (0, 1) \\ {1/2} that must be irrational.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .exact import ExactReal


class BlockInvariantError(ValueError):
    """A block violates its defining constraints."""


def _check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational:
        raise BlockInvariantError(f"{what} rotation number must be irrational, got {rho!s:.40}")
    if rho.floor() != 0:  # rho is irrational, so it is never 0 or 1
        raise BlockInvariantError(f"{what} rotation number must lie in (0, 1), got {rho!s:.40}")


class Rot(namedtuple("Rot", "rho")):
    """Rotation block R(theta); rho = theta/(2*pi).  Symplectic dimension 2."""

    __slots__ = ()
    dim = 2

    def __new__(cls, rho: ExactReal):
        _check_rho(rho, "R-block")
        return super().__new__(cls, rho)


class NBlock(namedtuple("NBlock", "rho B")):
    """Twisted block N(alpha, B); rho = alpha/(2*pi).  Symplectic dimension 4.

    B is an arbitrary rational 2x2 matrix; it does not influence the index
    iteration and is checked when a block is built, then never read.
    """

    __slots__ = ()
    dim = 4

    def __new__(cls, rho: ExactReal, B=((0, 0), (0, 0))):
        _check_rho(rho, "N-block")
        B = tuple(tuple(Fraction(x) for x in row) for row in B)
        if len(B) != 2 or any(len(row) != 2 for row in B):
            raise BlockInvariantError("B must be a 2x2 matrix")
        return super().__new__(cls, rho, B)


class Hyp(namedtuple("Hyp", "d")):
    """Hyperbolic block H(d) = diag(d, 1/d), d not in {0, +1, -1}.  Dimension 2."""

    __slots__ = ()
    dim = 2

    def __new__(cls, d: Fraction):
        d = Fraction(d)
        if d in (0, 1, -1):
            raise BlockInvariantError(f"hyperbolic parameter must avoid {{0, 1, -1}}, got {d}")
        return super().__new__(cls, d)


Block = Rot | NBlock | Hyp


class NormalFormDecomposition(namedtuple("NormalFormDecomposition", "blocks")):
    """Ordered diamond-sum of normal-form blocks."""

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Block] = ()):
        return super().__new__(cls, tuple(blocks))


# -- JSON input ------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _exact_number(value, name: str) -> Fraction:
    """value, an int or a string "a" or "a/b" of integers a and b != 0, as a Fraction: a JSON
    float or bool is refused, never rounded, and so is any other string ("1/0", "0.5", "1e9")."""
    try:
        if type(value) is int:
            return Fraction(value)
        if type(value) is str and (m := _NUMBER.fullmatch(value)):
            return Fraction(int(m[1]), int(m[2] or 1))
    except ValueError:  # more digits than int() converts
        pass
    raise BlockInvariantError(f"{name} must be an integer or a fraction string, got {value!r:.40}")


def _exact_real(value, path: str) -> ExactReal:
    try:
        if type(value) is str:
            return ExactReal.parse(value)
    except ValueError:  # no literal of the form, or more digits than int() converts
        pass
    raise BlockInvariantError(f'{path} must be a string "(a+b*sqrt(D))/c", got {value!r:.40}')


def block_from_json(obj: dict, path: str) -> Block:
    """The block of a JSON object; each error names the path of its field and its value."""
    if type(obj) is not dict:
        raise BlockInvariantError(f'{path} must be an object with a "type", got {obj!r:.40}')
    kind = obj.get("type")
    if kind == "rot":
        field, block, args = "rho", Rot, [_exact_real(obj.get("rho"), f"{path}.rho")]
    elif kind == "hyp":
        field, block, args = "d", Hyp, [_exact_number(obj.get("d"), f"{path}.d")]
    elif kind == "n":
        B = obj.get("B", [[0, 0], [0, 0]])
        if type(B) is not list or len(B) != 2 or any(type(r) is not list or len(r) != 2 for r in B):
            raise BlockInvariantError(f"{path}.B must be a 2x2 matrix, got {B!r:.40}")
        field, block, args = "rho", NBlock, [_exact_real(obj.get("rho"), f"{path}.rho"), [
            [_exact_number(x, f"{path}.B[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(B)]]
    else:
        raise ValueError(f"{path}.type must be \"rot\", \"n\" or \"hyp\", got {kind!r:.40}")
    try:
        return block(*args)
    except BlockInvariantError as e:  # a value of the right type that the block refuses
        raise BlockInvariantError(f"{path}.{field} = {obj[field]!r:.40}: {e}") from None


def decomposition_from_json(obj: dict) -> NormalFormDecomposition:
    if type(obj) is not dict:
        raise BlockInvariantError(f'dec must be an object {{"blocks": [...]}}, got {obj!r:.40}')
    if type(blocks := obj.get("blocks")) is not list:
        raise BlockInvariantError(f"dec.blocks must be a list of blocks, got {blocks!r:.40}")
    return NormalFormDecomposition(block_from_json(b, f"dec.blocks[{i}]")
                                   for i, b in enumerate(blocks))
