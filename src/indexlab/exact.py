"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

Values are stored as (a + b*sqrt(D))/c with arbitrary-precision integers,
so every comparison and every floor is decided by integer arithmetic alone.
This is the substrate for irrational rotation numbers: the index iteration
formulas need certified floors of m*rho for m into the tens of thousands,
and a floating-point fallback could silently round an m*rho that sits close
to an integer onto the wrong side.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when combining values from distinct quadratic fields."""


def _is_perfect_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _floor(a: int, b: int, c: int, D: int) -> int:
    """floor((a + b*sqrt(D))/c) for c > 0 and, when b != 0, non-square D.

    b*sqrt(D) is then irrational, so its floor is isqrt(b^2 D) for b > 0 and
    -isqrt(b^2 D) - 1 for b < 0; with N that integer and 0 < f < 1 its
    fractional part, floor((a + N + f)/c) = (a + N) // c exactly.
    """
    if b == 0:
        return a // c
    t = math.isqrt(b * b * D)
    return (a + (t if b > 0 else -t - 1)) // c


class ExactReal:
    """(a + b*sqrt(D))/c in canonical form.

    Canonical means: c > 0, gcd(a, b, c) = 1, and the irrational part is
    genuine -- if D is a perfect square (or b = 0) the value is folded into
    a plain rational with b = 0, D = 0.  Instances are immutable and
    hashable; equal values have identical component tuples.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, a: int, b: int = 0, c: int = 1, D: int = 0):
        if c == 0:
            raise ZeroDivisionError("denominator c must be nonzero")
        if D < 0:
            raise ValueError("D must be non-negative")
        if b != 0 and _is_perfect_square(D):
            a, b, D = a + b * math.isqrt(D), 0, 0
        if b == 0:
            D = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("ExactReal is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return (ExactReal, (self.a, self.b, self.c, self.D))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "ExactReal":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 0)

    # -- predicates --------------------------------------------------------

    @property
    def is_irrational(self) -> bool:
        return self.b != 0

    # -- field compatibility ----------------------------------------------

    def _join_field(self, other: "ExactReal") -> int:
        """Common D for self and other, or raise FieldMismatchError."""
        if self.b == 0:
            return other.D
        if other.b == 0:
            return self.D
        if self.D != other.D:
            raise FieldMismatchError(
                f"cannot combine sqrt({self.D}) with sqrt({other.D})"
            )
        return self.D

    @staticmethod
    def _coerce(x) -> "ExactReal":
        if isinstance(x, ExactReal):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactReal.from_fraction(x)
        return NotImplemented

    # -- arithmetic (closed in one field) ---------------------------------

    def __add__(self, other) -> "ExactReal":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D = self._join_field(other)
        a = self.a * other.c + other.a * self.c
        b = self.b * other.c + other.b * self.c
        return ExactReal(a, b, self.c * other.c, D)

    __radd__ = __add__

    def __mul__(self, other) -> "ExactReal":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D = self._join_field(other)
        a = self.a * other.a + self.b * other.b * D
        b = self.a * other.b + self.b * other.a
        return ExactReal(a, b, self.c * other.c, D)

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        """1/x via the conjugate: c*(a - b*sqrt(D)) / (a^2 - b^2 D)."""
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return ExactReal(self.a * self.c, -self.b * self.c, norm, self.D)

    def __truediv__(self, other) -> "ExactReal":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- exact sign and equality -------------------------------------------

    def sign(self) -> int:
        """Sign of (a + b*sqrt(D))/c, by the floor identity.

        With c > 0 only the numerator matters.  For b != 0 it is irrational,
        so it is positive exactly when its floor is >= 0.
        """
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        return 1 if _floor(self.a, self.b, 1, self.D) >= 0 else -1

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.c, self.D) == (other.a, other.b, other.c, other.D)

    def __hash__(self):
        # a rational value hashes as the equal Fraction (and int), as __eq__ coerces them
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.D))

    # -- certified floor ---------------------------------------------------

    def floor(self) -> int:
        """Exact floor.  Never ambiguous: irrational values miss the grid."""
        return _floor(self.a, self.b, self.c, self.D)

    # -- serialization: "(a+b*sqrt(D))/c" ---------------------------------

    def serialize(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.D}))/{self.c}"

    _PATTERN = re.compile(
        r"^\((-?[0-9]+)([+-][0-9]+)\*sqrt\(([0-9]+)\)\)/(0*[1-9][0-9]*)$"
    )

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        m = cls._PATTERN.match(text.strip().replace(" ", ""))
        if m is None:
            raise ValueError(f"not an exact-real literal: {text!r}")
        a, b, D, c = (int(m.group(i)) for i in (1, 2, 3, 4))
        return cls(a, b, c, D)

    def __repr__(self) -> str:
        return f"ExactReal({self.a}, {self.b}, {self.c}, {self.D})"

    def __str__(self) -> str:
        return self.serialize()


def floor_scaled(x: ExactReal, m: int) -> int:
    """floor(m * x), exact.  For irrational x, m*x is never an integer."""
    if m <= 0:
        raise ValueError("m must be positive")
    # _floor inlined, as this is the hottest call of every iteration; ExactReal.floor keeps
    # _floor, so the range checks and cutoffs never count as floor_scaled calls
    b = x.b * m
    if b == 0:
        return x.a * m // x.c
    t = math.isqrt(b * b * x.D)
    return (x.a * m + (t if b > 0 else -t - 1)) // x.c
