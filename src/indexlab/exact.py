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

from .checker import quote


def _is_perfect_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def same_field(D1: int, D2: int) -> bool:
    """Whether Q(sqrt(D1)) = Q(sqrt(D2)) for non-square D1 and D2: sqrt(D2) is then
    sqrt(D1*D2)/sqrt(D1), a rational multiple of sqrt(D1) iff D1*D2 is a perfect square."""
    return _is_perfect_square(D1 * D2)


class ExactReal:
    """(a + b*sqrt(D))/c in canonical form.

    Canonical means: c > 0, gcd(a, b, c) = 1, and the irrational part is
    genuine -- if D is a perfect square (or b = 0) the value is folded into
    a plain rational with b = 0, D = 0.  D keeps the spelling it was given, so
    2*sqrt(2) over D = 2 and sqrt(8) over D = 8 are two component tuples of one
    value: they compare, hash and combine as equal.  Instances are immutable.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, a: int, b: int = 0, c: int = 1, D: int = 0):
        if c == 0:
            raise ZeroDivisionError("denominator c must be nonzero")
        if D < 0:
            raise ValueError("D must be non-negative")
        if b != 0 and _is_perfect_square(D):
            a, b = a + b * math.isqrt(D), 0
        if b == 0:
            D = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value=None):
        raise AttributeError("ExactReal is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return (ExactReal, (self.a, self.b, self.c, self.D))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "ExactReal":
        q = Fraction(q)
        return cls(q.numerator, c=q.denominator)

    # -- predicates --------------------------------------------------------

    @property
    def is_irrational(self) -> bool:
        return self.b != 0

    # -- field compatibility ----------------------------------------------

    def _join_field(self, other: "ExactReal") -> tuple[int, "ExactReal"]:
        """Common D for self and other, and other spelled over it; or raise
        ValueError.  Over self's D1, (a + b*sqrt(D2))/c is
        (a*D1 + b*k*sqrt(D1))/(c*D1) with k = sqrt(D1*D2)."""
        if self.b == 0:
            return other.D, other
        if other.b == 0 or other.D == self.D:
            return self.D, other
        if not same_field(self.D, other.D):
            raise ValueError(
                f"cannot combine sqrt({self.D}) with sqrt({other.D})"
            )
        D = self.D
        return D, ExactReal(other.a * D, other.b * math.isqrt(D * other.D), other.c * D, D)

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
        D, other = self._join_field(other)
        a = self.a * other.c + other.a * self.c
        b = self.b * other.c + other.b * self.c
        return ExactReal(a, b, self.c * other.c, D)

    __radd__ = __add__

    def __mul__(self, other) -> "ExactReal":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D, other = self._join_field(other)
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
        return 1 if self.floor() >= 0 else -1

    def _value(self) -> Fraction | tuple:
        """The key its spellings share and no other value has: a rational's Fraction, which
        hashes as an equal int does, or an irrational's a/c, (b/c)^2 * D and the sign of b."""
        q = Fraction(self.a, self.c)
        return (q, Fraction(self.b * self.b * self.D, self.c * self.c), self.b > 0) if self.b else q

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    # -- certified floor ---------------------------------------------------

    def floor(self) -> int:
        """Exact floor.  Never ambiguous: irrational values miss the grid.  With c > 0 and
        b*sqrt(D) irrational, its floor N is isqrt(b^2 D) or -isqrt(b^2 D) - 1 by b's sign,
        and floor((a + N + f)/c) = (a + N) // c for its fractional part 0 < f < 1."""
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return a // c
        t = math.isqrt(b * b * self.D)
        return (a + (t if b > 0 else -t - 1)) // c

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
            raise ValueError(f"not an exact-real literal: {quote(text)}")
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
    # ExactReal.floor of m * x inlined, as this is the hottest call of every iteration; the
    # range checks and cutoffs call ExactReal.floor, so they never count as floor_scaled calls
    b = x.b * m
    if b == 0:
        return x.a * m // x.c
    t = math.isqrt(b * b * x.D)
    return (x.a * m + (t if b > 0 else -t - 1)) // x.c
