"""Katok-type model sets: an exact positive control at every n.

Katok's bumpy Finsler n-spheres have exactly 2 * ceil(n/2) prime closed
geodesics (Ziller 1983).  Each set below has that many NCG1 models, built from
alpha = sqrt(5) - 2 and the weights l = 1..ceil(n/2): model (j, sigma) has the
raw rotation values (1 + tau*l_i*alpha) / (1 + sigma*l_j*alpha), i != j and
tau = +-1, and 1 / (1 + sigma*l_j*alpha) when n is even.  These values were not
checked against Ziller's paper, so the sets are "Katok-type".  At n = 2 the set
is the complementary Beatty pair of demos/morse_tables.py.

For every set the mean-index identity holds, the Morse table equals the Betti
table at every degree up to H = 2 max i(c) + 2(n - 1), and without any one
geodesic c_d the Morse inequalities fail first at q = i(c_d).
"""

from indexlab import (
    GeodesicModel,
    check_morse_inequalities,
    euler_limit,
    mean_index_identity_lhs,
    morse_numbers,
)
from indexlab.exact import ExactReal
from indexlab.morse import betti_values

ALPHA = ExactReal(-2, 1, 1, 5)  # sqrt(5) - 2


def katok_set(n: int) -> list[GeodesicModel]:
    weights = range(1, (n + 1) // 2 + 1)
    models = []
    for l_j in weights:
        for sigma in (1, -1):
            den = ALPHA * (sigma * l_j) + 1
            xs = [(ALPHA * (tau * l_i) + 1) / den for l_i in weights if l_i != l_j
                  for tau in (1, -1)] + ([ExactReal(1) / den] if n % 2 == 0 else [])
            models.append(GeodesicModel(n, sum(x.floor() for x in xs),
                                        [x + (-x.floor()) for x in xs]))
    return models


print(" n  geodesics  lhs = rhs    H  M = b  i(c_d)                   first failure without c_d")
for n in range(2, 9):
    models = katok_set(n)
    assert mean_index_identity_lhs(models) == ExactReal.from_fraction(euler_limit(n))
    first = [g.initial_index for g in models]
    H = 2 * max(first) + 2 * (n - 1)
    b = betti_values(n, H)
    M = morse_numbers(models, H)
    assert list(M.values) == b and not check_morse_inequalities(M, b, H)
    drops = [check_morse_inequalities(morse_numbers(models[:d] + models[d + 1:], H), b, H)[0][0]
             for d in range(len(models))]
    assert drops == first
    print(f"{n:2d}  {len(models):9d}  {str(euler_limit(n)):>9s}  {H:3d}  yes    "
          f"{' '.join(map(str, first)):23s}  {' '.join(map(str, drops))}")
