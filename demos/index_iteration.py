"""Index iteration for the five completely non-degenerate normal-form shapes.

Each model pairs a symplectic normal-form decomposition with a free integer
parameter p; the case tag and all iterated Morse indices follow exactly, and
the nullity of every iterate is 0 (complete non-degeneracy).
"""

from fractions import Fraction

from indexlab import (
    GeodesicModel,
    Hyp,
    NBlock,
    NormalFormDecomposition,
    Rot,
    analytic_period,
    critical_type,
    index_of_iterate,
    mean_index,
)
from indexlab.exact import ExactReal

rho = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
rho2 = ExactReal(-4, 3, 2, 2)  # (3*sqrt(2) - 4)/2, same field as rho

MODELS = [
    ("all rotations (NCG1)", GeodesicModel(4, NormalFormDecomposition([Rot(rho), Rot(rho), Rot(rho2)]), 0)),
    ("even rotation count (NCG2)", GeodesicModel(4, NormalFormDecomposition([Rot(rho), Rot(rho2), Hyp(Fraction(2))]), 3)),
    ("odd rotation count (NCG3)", GeodesicModel(5, NormalFormDecomposition([Rot(rho), Rot(rho), Rot(rho2), Hyp(Fraction(-2))]), 4)),
    ("single rotation (NCG4)", GeodesicModel(3, NormalFormDecomposition([Rot(rho), Hyp(Fraction(3))]), 2)),
    ("no invariant-form-positive rotation (NCG5)", GeodesicModel(4, NormalFormDecomposition([Hyp(Fraction(2)), NBlock(rho)]), 2)),
]

for label, g in MODELS:
    print(f"\n{label}: n = {g.n}, case = {g.case}, p = {g.p}")
    print(f"  mean index ihat = {mean_index(g).serialize()}")
    print(f"  analytic period N = {analytic_period(g)}")
    row = []
    for m in range(1, 11):
        i_m = index_of_iterate(g, m)
        eps, k0 = critical_type(g, m)
        row.append(f"{i_m}({'+' if eps > 0 else '-'}{k0})")
    print("  i(c^m), m = 1..10:", "  ".join(row))
