"""Symplectic normal-form blocks and their ordered diamond sum.

A linearized return map is represented by its factored normal form only:
an ordered list of rotation blocks R(theta), twisted 4-dimensional blocks
N(alpha, B), and hyperbolic blocks H(d).  The big matrix is never
materialized -- every downstream formula consumes block data.

Rotation angles are stored normalized as rho = theta/(2*pi), an ExactReal
in (0, 1) \\ {1/2} that must be irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .exact import ExactReal


class BlockInvariantError(ValueError):
    """A block violates its defining constraints."""


def _check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational:
        raise BlockInvariantError(f"{what} rotation number must be irrational, got {rho}")
    if rho.floor() != 0:  # rho is irrational, so it is never 0 or 1
        raise BlockInvariantError(f"{what} rotation number must lie in (0, 1), got {rho}")


@dataclass(frozen=True)
class Rot:
    """Rotation block R(theta); rho = theta/(2*pi).  Symplectic dimension 2."""

    rho: ExactReal

    def __post_init__(self):
        _check_rho(self.rho, "R-block")

    dim = 2


@dataclass(frozen=True)
class NBlock:
    """Twisted block N(alpha, B); rho = alpha/(2*pi).  Symplectic dimension 4.

    B is an arbitrary rational 2x2 matrix; it does not influence the index
    iteration and is checked when a block is built, then never read.
    """

    rho: ExactReal
    B: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] = (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )

    def __post_init__(self):
        _check_rho(self.rho, "N-block")
        B = tuple(tuple(Fraction(x) for x in row) for row in self.B)
        if len(B) != 2 or any(len(row) != 2 for row in B):
            raise BlockInvariantError("B must be a 2x2 matrix")
        object.__setattr__(self, "B", B)

    dim = 4


@dataclass(frozen=True)
class Hyp:
    """Hyperbolic block H(d) = diag(d, 1/d), d not in {0, +1, -1}.  Dimension 2."""

    d: Fraction

    def __post_init__(self):
        d = Fraction(self.d)
        if d in (0, 1, -1):
            raise BlockInvariantError(f"hyperbolic parameter must avoid {{0, 1, -1}}, got {d}")
        object.__setattr__(self, "d", d)

    dim = 2


Block = Union[Rot, NBlock, Hyp]


@dataclass(frozen=True, init=False)
class NormalFormDecomposition:
    """Ordered diamond-sum of normal-form blocks."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks: Iterable[Block] = ()):
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def count(self, kind: type) -> int:
        return sum(1 for b in self.blocks if isinstance(b, kind))

    @property
    def rotations(self) -> tuple[Rot, ...]:
        return tuple(b for b in self.blocks if isinstance(b, Rot))


# -- JSON input ------------------------------------------------------------

def _exact_number(value, name: str):
    """value if it is an int or a string; a JSON float or boolean is refused, never rounded."""
    if type(value) not in (int, str):
        raise BlockInvariantError(f"{name} must be an integer or a fraction string, got {value!r}")
    return value


def block_from_json(obj: dict) -> Block:
    kind = obj.get("type")
    if kind == "rot":
        return Rot(ExactReal.parse(obj["rho"]))
    if kind == "hyp":
        return Hyp(_exact_number(obj["d"], "d"))
    if kind == "n":
        B = obj.get("B", [[0, 0], [0, 0]])
        for row in B:
            for x in row:
                _exact_number(x, "B entry")
        return NBlock(ExactReal.parse(obj["rho"]), B)  # NBlock makes the Fractions
    raise ValueError(f"unknown block type: {kind!r}")


def decomposition_from_json(obj: dict) -> NormalFormDecomposition:
    return NormalFormDecomposition(block_from_json(b) for b in obj["blocks"])

