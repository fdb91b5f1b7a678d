"""Symplectic normal-form blocks and their ordered diamond sum.

A linearized return map is represented by its factored normal form only:
an ordered list of rotation blocks R(theta), twisted 4-dimensional blocks
N(alpha, B), and hyperbolic blocks H(d).  The big matrix is never
materialized -- every downstream formula consumes block data.

Rotation angles are stored normalized as rho = theta/(2*pi), an ExactReal
in (0, 1) \\ {1/2} that must be irrational.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .exact import ExactReal


class BlockInvariantError(ValueError):
    """A block violates its defining constraints."""


def _check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational:
        raise BlockInvariantError(f"{what} rotation number must be irrational, got {rho}")
    if rho.floor() != 0:  # rho is irrational, so it is never 0 or 1
        raise BlockInvariantError(f"{what} rotation number must lie in (0, 1), got {rho}")


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

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def count(self, kind: type) -> int:
        return sum(1 for b in self.blocks if isinstance(b, kind))

    @property
    def rotations(self) -> tuple[Rot, ...]:
        return tuple(b for b in self.blocks if isinstance(b, Rot))


# -- JSON input ------------------------------------------------------------

def _exact_number(value, name: str) -> Fraction:
    """value, an int or a fraction string, as a Fraction: a JSON float or boolean is
    refused, never rounded, and so is a string that is no fraction, such as "1/0"."""
    try:
        if type(value) in (int, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise BlockInvariantError(f"{name} must be an integer or a fraction string, got {value!r}")


def block_from_json(obj: dict) -> Block:
    kind = obj.get("type")
    if kind == "rot":
        return Rot(ExactReal.parse(obj["rho"]))
    if kind == "hyp":
        return Hyp(_exact_number(obj["d"], "d"))
    if kind == "n":
        B = [[_exact_number(x, "B entry") for x in row] for row in obj.get("B", [[0, 0], [0, 0]])]
        return NBlock(ExactReal.parse(obj["rho"]), B)
    raise ValueError(f"unknown block type: {kind!r}")


def decomposition_from_json(obj: dict) -> NormalFormDecomposition:
    return NormalFormDecomposition(block_from_json(b) for b in obj["blocks"])

