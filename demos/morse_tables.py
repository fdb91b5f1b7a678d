"""Betti numbers, Morse tables, and the mean index identity.

Shows the two-sided bookkeeping: a single geodesic cannot satisfy the Morse
inequalities of the sphere's loop-space pair, while a well-chosen pair
matches the Betti table degree by degree and satisfies the exact identity.
"""

from indexlab import (
    GeodesicModel,
    euler_limit,
    mean_index,
    mean_index_identity_lhs,
    morse_numbers,
)
from indexlab.exact import ExactReal
from indexlab.morse import betti_values, inequality_failures

HORIZON = 13

print("Betti numbers of the loop-space pair (n = 2):", betti_values(2, HORIZON))
print("averaged Euler value: P^m(-1)/m ->", euler_limit(2))

# one geodesic alone: the table under-fills and over-fills at once
solo = GeodesicModel(2, 0, [ExactReal(-1, 1, 1, 2)])
M = morse_numbers([solo], HORIZON)
print("\nsolo geodesic Morse table:", list(M.values))
for q, kind, lhs, rhs in inequality_failures(M, betti_values(2, HORIZON), HORIZON):
    print(f"  violation: q={q} {kind}: {lhs} >= {rhs} fails")

# a two-geodesic configuration with 1/(2 rho1) + 1/(2 (1 + rho2)) = 1
g1 = GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)])
g2 = GeodesicModel(2, 1, [ExactReal(-1, 1, 4, 5)])
pair = [g1, g2]
M2 = morse_numbers(pair, HORIZON)
print("\npair Morse table:        ", list(M2.values))
print("violations:", list(inequality_failures(M2, betti_values(2, HORIZON), HORIZON)))
lhs = mean_index_identity_lhs(pair)
print("identity: sum of -1/ihat =", lhs.serialize(), "= averaged Euler value", euler_limit(2))
assert lhs == ExactReal.from_fraction(euler_limit(2))
for g in pair:
    print("  ihat =", mean_index(g).serialize())
