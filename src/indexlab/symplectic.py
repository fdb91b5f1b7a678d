"""Symplectic normal-form blocks and their diamond-sum composition.

A linearized return map is represented by its factored normal form only:
an ordered list of rotation blocks R(theta), twisted 4-dimensional blocks
N(alpha, B), and hyperbolic blocks H(d).  The big matrix is never
materialized -- every downstream formula consumes block data.

Rotation angles are stored normalized as rho = theta/(2*pi), an ExactReal
in (0, 1) \\ {1/2} that must be irrational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .exact import ExactReal, compare

Rational = Union[int, Fraction]


class BlockInvariantError(ValueError):
    """A block violates its defining constraints."""


def _check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational:
        raise BlockInvariantError(f"{what} rotation number must be irrational, got {rho}")
    if not (compare(rho, ExactReal(0)) > 0 and compare(rho, ExactReal(1)) < 0):
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
    iteration and is carried only for faithful serialization.
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

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


def diamond_sum(
    d1: NormalFormDecomposition, d2: NormalFormDecomposition
) -> NormalFormDecomposition:
    """Concatenate block lists; dimensions add."""
    return NormalFormDecomposition(d1.blocks + d2.blocks)


@dataclass(frozen=True, init=False)
class OmegaSignature:
    """Unit-circle spectral data: rotation number -> geometric multiplicity.

    Each key rho stands for the conjugate eigenvalue pair e^{+-2*pi*i*rho};
    the multiplicity applies to each member of the pair.
    """

    nu: tuple[tuple[ExactReal, int], ...]

    def __init__(self, nu: dict[ExactReal, int] | Iterable[tuple[ExactReal, int]] = ()):
        items = nu.items() if isinstance(nu, dict) else nu
        canon = tuple(sorted(items, key=lambda kv: (kv[0].a, kv[0].b, kv[0].c, kv[0].D)))
        object.__setattr__(self, "nu", canon)

    def as_dict(self) -> dict[ExactReal, int]:
        return dict(self.nu)

    @property
    def gamma(self) -> frozenset[ExactReal]:
        return frozenset(rho for rho, _ in self.nu)


def omega_signature(d: NormalFormDecomposition) -> OmegaSignature:
    """Unit-circle spectrum of the decomposition.

    R(rho) and N(rho, B) each contribute the eigenvalue pair e^{+-2*pi*i*rho}
    with geometric multiplicity 1 per block (for N-blocks this multiplicity
    is structural in the normal form, not recomputed by linear algebra).
    Hyperbolic blocks contribute nothing.  Coincident rotation numbers
    accumulate.
    """
    nu: dict[ExactReal, int] = {}
    for b in d.blocks:
        if isinstance(b, (Rot, NBlock)):
            nu[b.rho] = nu.get(b.rho, 0) + 1
    return OmegaSignature(nu)


def same_omega_component_data(
    d1: NormalFormDecomposition, d2: NormalFormDecomposition
) -> bool:
    """Equality of unit-circle spectral data.

    This is the necessary data for two maps to share a homotopy set Omega;
    path-connectivity of the component is a topological question outside
    this library's scope.
    """
    return omega_signature(d1) == omega_signature(d2)


# -- JSON serialization ----------------------------------------------------

def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_frac(s: str) -> Fraction:
    return Fraction(s)


def block_to_json(b: Block) -> dict:
    if isinstance(b, Rot):
        return {"type": "rot", "rho": b.rho.serialize()}
    if isinstance(b, Hyp):
        return {"type": "hyp", "d": _frac_str(b.d)}
    return {
        "type": "n",
        "rho": b.rho.serialize(),
        "B": [[_frac_str(x) for x in row] for row in b.B],
    }


def block_from_json(obj: dict) -> Block:
    kind = obj.get("type")
    if kind == "rot":
        return Rot(ExactReal.parse(obj["rho"]))
    if kind == "hyp":
        return Hyp(_parse_frac(obj["d"]))
    if kind == "n":
        B = tuple(tuple(_parse_frac(x) for x in row) for row in obj.get("B", [[0, 0], [0, 0]]))
        return NBlock(ExactReal.parse(obj["rho"]), B)
    raise ValueError(f"unknown block type: {kind!r}")


def decomposition_to_json(d: NormalFormDecomposition) -> dict:
    return {"blocks": [block_to_json(b) for b in d.blocks]}


def decomposition_from_json(obj: dict) -> NormalFormDecomposition:
    return NormalFormDecomposition(block_from_json(b) for b in obj["blocks"])


def dumps(d: NormalFormDecomposition) -> str:
    return json.dumps(decomposition_to_json(d), sort_keys=True, separators=(",", ":"))
