"""Symplectic normal-form blocks, read from a model file down to their census.

A model file gives the normal form of a linearized return map as an ordered list of rotation
blocks R(theta), twisted 4-dimensional blocks N(alpha, B) and hyperbolic blocks H(d).  The
reader checks every field of every block and keeps the census: the rotation numbers
rho = theta/(2*pi) of the R blocks in block order, each an irrational ExactReal in (0, 1),
and the counts r of N blocks and h of H blocks.  By Bott's formula and Long's splitting
numbers, N and H blocks add nothing to the index of any iterate.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .checker import quote
from .exact import ExactReal


def check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational or rho.floor() != 0:  # an irrational rho is never 0 or 1
        why = "lie in (0, 1)" if rho.is_irrational else "be irrational"
        raise ValueError(f"{what} rotation number must {why}, got {quote(rho, str)}")


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
    raise ValueError(f"{name} must be an integer or a fraction string, got {quote(value)}")


def _exact_real(value, path: str) -> ExactReal:
    try:
        if type(value) is str:
            return ExactReal.parse(value)
    except ValueError:  # no literal of the form, or more digits than int() converts
        pass
    raise ValueError(f'{path} must be a string "(a+b*sqrt(D))/c", got {quote(value)}')


def block_from_json(obj: dict, path: str) -> tuple[str, ExactReal | None]:
    """The type of a JSON block and its rotation number, None for a hyp block.  Every field is
    checked, B of an N block before rho and its entries after; each error names the path of
    its field and its value."""
    if type(obj) is not dict:
        raise ValueError(f'{path} must be an object with a "type", got {quote(obj)}')
    kind = obj.get("type")
    if kind == "hyp":
        if (d := _exact_number(obj.get("d"), f"{path}.d")) in (0, 1, -1):
            raise ValueError(f"{path}.d = {quote(obj['d'])}: hyperbolic parameter must "
                             f"avoid {{0, 1, -1}}, got {d}")
        return kind, None
    if kind == "n":
        B = obj.get("B", [[0, 0], [0, 0]])
        if type(B) is not list or len(B) != 2 or any(type(r) is not list or len(r) != 2 for r in B):
            raise ValueError(f"{path}.B must be a 2x2 matrix, got {quote(B)}")
    elif kind != "rot":
        raise ValueError(f"{path}.type must be \"rot\", \"n\" or \"hyp\", got {quote(kind)}")
    rho = _exact_real(obj.get("rho"), f"{path}.rho")
    if kind == "n":
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            _exact_number(B[i][j], f"{path}.B[{i}][{j}]")
    try:
        check_rho(rho, "R-block" if kind == "rot" else "N-block")
    except ValueError as e:  # a value of the right type that the block refuses
        raise ValueError(f"{path}.rho = {quote(obj['rho'])}: {e}") from None
    return kind, rho


def decomposition_from_json(obj: dict) -> tuple[tuple[ExactReal, ...], int, int]:
    """The census of a JSON decomposition, each block checked in order: the rotation numbers
    of its rot blocks in block order, then its counts r of N blocks and h of hyp blocks."""
    if type(obj) is not dict:
        raise ValueError(f'dec must be an object {{"blocks": [...]}}, got {quote(obj)}')
    if type(blocks := obj.get("blocks")) is not list:
        raise ValueError(f"dec.blocks must be a list of blocks, got {quote(blocks)}")
    read = [block_from_json(b, f"dec.blocks[{i}]") for i, b in enumerate(blocks)]
    return (tuple(rho for kind, rho in read if kind == "rot"),
            sum(kind == "n" for kind, _ in read), sum(kind == "hyp" for kind, _ in read))
