"""Certified arithmetic in a real quadratic field.

Every number is (a + b*sqrt(D))/c with integer entries; comparisons and
floors are decided by integer case analysis, never by floating point.
"""

from fractions import Fraction

from indexlab.exact import ExactReal, floor_scaled

rho = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
print(f"rho = {rho.serialize()}  (irrational: {rho.is_irrational})")

# floors of m * rho drive every index formula in the package
for m in (1, 2, 3, 10, 100, 10 ** 6):
    print(f"floor({m} * rho) = {floor_scaled(rho, m)}")

# the fractional part of an irrational multiple is never zero
x = rho * 12345 - (rho * 12345).floor()
print(f"frac(12345 * rho) has sign {x.sign()} (certified nonzero)")

# exact comparison across a field and the rationals
half = ExactReal.from_fraction(Fraction(1, 2))
print(f"sign(rho - 1/2) = {(rho - half).sign()}  (rho < 1/2 since 2*2^2 < 3^2)")

# arithmetic stays in the field and in canonical form
y = (rho * rho + rho / 3).inverse()
print(f"(rho^2 + rho/3)^-1 = {y.serialize()}")
assert ExactReal.parse(y.serialize()) == y
print("serialization round-trips exactly")
