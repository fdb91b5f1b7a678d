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

from .checker import quote
from .exact import ExactReal


def check_rho(rho: ExactReal, what: str) -> None:
    if not rho.is_irrational or rho.floor() != 0:  # an irrational rho is never 0 or 1
        why = "lie in (0, 1)" if rho.is_irrational else "be irrational"
        raise ValueError(f"{what} rotation number must {why}, got {quote(rho, str)}")


# -- JSON input ------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _exact_number(value, name: str) -> tuple[int, int]:
    """value, an int or a string "a" or "a/b" of integers a and b > 0, as the pair (a, b): a JSON
    float or bool is refused, never rounded, and so is any other string ("1/0", "0.5", "1e9")."""
    try:
        if type(value) is int:
            return value, 1
        if type(value) is str and (m := _NUMBER.fullmatch(value)):
            return int(m[1]), int(m[2] or 1)
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"{name} must be an integer or a fraction string, got {quote(value)}")


def decomposition_from_json(obj: dict) -> tuple[tuple[ExactReal, ...], int, int]:
    """The census of a JSON decomposition: the rotation numbers of its rot blocks in block
    order, then its counts r of N blocks and h of hyp blocks.  Every field of every block is
    checked, in block order and B of an N block before rho and its entries after; each error
    names the path of its field and its value."""
    if type(obj) is not dict:
        raise ValueError(f'dec must be an object {{"blocks": [...]}}, got {quote(obj)}')
    if type(blocks := obj.get("blocks")) is not list:
        raise ValueError(f"dec.blocks must be a list of blocks, got {quote(blocks)}")
    rhos, r, h = [], 0, 0
    for i, block in enumerate(blocks):
        path = f"dec.blocks[{i}]"
        if type(block) is not dict:
            raise ValueError(f'{path} must be an object with a "type", got {quote(block)}')
        kind = block.get("type")
        if kind == "hyp":
            a, b = _exact_number(block.get("d"), f"{path}.d")
            if a == 0 or abs(a) == b:  # d = a/b with b > 0 is 0, 1 or -1, and a // b says which
                raise ValueError(f"{path}.d = {quote(block['d'])}: hyperbolic parameter must "
                                 f"avoid {{0, 1, -1}}, got {a // b}")
            h += 1
            continue
        if kind == "n":
            B = block.get("B", [[0, 0], [0, 0]])
            if type(B) is not list or len(B) != 2 or any(type(row) is not list or len(row) != 2
                                                          for row in B):
                raise ValueError(f"{path}.B must be a 2x2 matrix, got {quote(B)}")
        elif kind != "rot":
            raise ValueError(f"{path}.type must be \"rot\", \"n\" or \"hyp\", got {quote(kind)}")
        text = block.get("rho")
        try:  # a rho of another type, bytes too, is refused here and never reaches parse
            rho = ExactReal.parse(text) if type(text) is str else None
        except ValueError:  # no literal of the form, or more digits than int() converts
            rho = None
        if rho is None:
            raise ValueError(f'{path}.rho must be a string "(a+b*sqrt(D))/c", got {quote(text)}')
        if kind == "n":
            for row, col in ((0, 0), (0, 1), (1, 0), (1, 1)):
                _exact_number(B[row][col], f"{path}.B[{row}][{col}]")
        try:
            check_rho(rho, "R-block" if kind == "rot" else "N-block")
        except ValueError as e:  # a value of the right type that the block refuses
            raise ValueError(f"{path}.rho = {quote(text)}: {e}") from None
        if kind == "rot":
            rhos.append(rho)
        else:
            r += 1
    return tuple(rhos), r, h
