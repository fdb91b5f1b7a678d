"""Seeded, stratified inputs for the benchmark workloads.

Every workload is a list of CLI operations.  The list is built from a fixed
design grid (which shapes, how many models, which stratum of K, H or n) and
the seed only fills in the free values inside each cell: rotation numbers,
fields D, p, and the exact K, H or n within its stratum.  So every seed gives
a different input set whose cost profile is nearly the same, which keeps the
end-to-end figures comparable across seeds.

Rotation numbers are built here with integer square roots only, as
(a + b*sqrt(D))/c with b > 0 and D non-square, and handed to the program as
JSON text; the benchmark keeps the same numbers for its oracle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

NONSQUARE_D = (2, 3, 5, 6, 7, 10, 11, 13, 17, 19)

WORKLOADS = ("iterate_sweep", "morse_deep", "prove_certify")


@dataclass(frozen=True)
class Rho:
    """The irrational rotation number (a + b*sqrt(D))/c, with b, c > 0."""

    a: int
    b: int
    c: int
    D: int

    def text(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.D}))/{self.c}"


@dataclass(frozen=True)
class Model:
    """A model as the benchmark generated it: the oracle reads these fields,
    the program reads only `to_json()`."""

    n: int
    p: int
    case: str
    rotations: tuple[Rho, ...]
    nblocks: tuple[Rho, ...]
    hyps: tuple[Fraction, ...]
    order: tuple[int, ...]  # permutation of the JSON block list

    @property
    def k(self) -> int:
        return len(self.rotations)

    @property
    def r(self) -> int:
        return len(self.nblocks)

    def to_json(self) -> dict:
        blocks = [{"type": "rot", "rho": x.text()} for x in self.rotations]
        blocks += [
            {"type": "n", "rho": x.text(), "B": [["0/1", "0/1"], ["0/1", "0/1"]]}
            for x in self.nblocks
        ]
        blocks += [{"type": "hyp", "d": f"{d.numerator}/{d.denominator}"} for d in self.hyps]
        return {
            "n": self.n,
            "p": self.p,
            "case": self.case,
            "dec": {"blocks": [blocks[i] for i in self.order]},
        }


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `command` with its input document and parameter."""

    name: str
    command: str  # "iterate", "morse-check" or "prove"
    param: int  # --mmax K, --horizon H or --n N
    models: tuple[Model, ...] = ()
    cell: int = 0  # position in the design grid, before the seeded shuffle

    def document(self) -> bytes | None:
        if self.command == "iterate":
            obj = self.models[0].to_json()
        elif self.command == "morse-check":
            obj = {"models": [g.to_json() for g in self.models]}
        else:
            return None
        return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

    def argv(self, workdir: str) -> list[str]:
        if self.command == "iterate":
            return ["iterate", "--model", f"{workdir}/{self.name}.json", "--mmax", str(self.param)]
        if self.command == "morse-check":
            return ["morse-check", "--models", f"{workdir}/{self.name}.json",
                    "--horizon", str(self.param)]
        return ["prove", "--n", str(self.param)]


def case_of(k: int, h: int) -> str:
    """The case shape of k rotation and h hyperbolic blocks, as the paper
    defines NCG1-NCG5."""
    if h == 0:
        return "NCG1" if k > 0 else "NCG5"
    if k == 0:
        return "NCG5"
    if k == 1:
        return "NCG4"
    return "NCG2" if k % 2 == 0 else "NCG3"


def rho_in_field(rng: random.Random, D: int) -> Rho:
    """The fractional part of b*sqrt(D)/c for small random b, c."""
    b, c = rng.randint(1, 9), rng.randint(2, 12)
    return Rho(-c * (math.isqrt(b * b * D) // c), b, c, D)


def rho_near(rng: random.Random, x: float, D: int, c: int = 997) -> Rho:
    """A rotation number in Q(sqrt(D)) within 1/c above x: it lies in
    (T/c, (T+1)/c) with T = floor(x*c)."""
    b = rng.randint(1, 9)
    T = min(max(int(x * c), 0), c - 1)
    return Rho(T - math.isqrt(b * b * D), b, c, D)


def _hyp(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 7]))


def _model(rng, n, p, rotations, nblocks, h) -> Model:
    order = list(range(len(rotations) + len(nblocks) + h))
    rng.shuffle(order)
    return Model(n, p, case_of(len(rotations), h), tuple(rotations), tuple(nblocks),
                 tuple(_hyp(rng) for _ in range(h)), tuple(order))


# -- iterate_sweep ------------------------------------------------------------

def structures() -> list[tuple[int, int, int]]:
    """Every valid (n, r, k) for n in 2..8: r N-blocks, k rotations, the rest
    hyperbolic.  All five shapes occur."""
    out = []
    for n in range(2, 9):
        for r in range((n - 1) // 2 + 1):
            for k in range(n - 1 - 2 * r + 1):
                out.append((n, r, k))
    return out


K_MAX = 200
K_STRATA = 6


def iterate_sweep(rng: random.Random) -> list[Op]:
    """Each structure once in each of K_STRATA strata of K in [1, K_MAX]."""
    ops = []
    for n, r, k in structures():
        for s in range(K_STRATA):
            K = 1 + int((s + rng.random()) * (K_MAX - 1) / K_STRATA)
            # every rotation number of one model lies in one field
            D = rng.choice(NONSQUARE_D)
            rots = [rho_in_field(rng, D) for _ in range(k)]
            nbs = [rho_in_field(rng, D) for _ in range(r)]
            g = _model(rng, n, rng.randint(0, 4), rots, nbs, n - 1 - 2 * r - k)
            ops.append(Op("", "iterate", K, (g,)))
    return _name_and_shuffle(ops, rng)


# -- morse_deep -----------------------------------------------------------------

# Per n, the shapes a morse_deep op draws its models from, as (r, k, h, p):
# n = 2: NCG1, NCG5; n = 3: NCG1, NCG4, NCG5; n = 4: NCG1, NCG4, NCG2.  p is
# chosen so that the mean index is 2 * sum(rho), or p = 1 for NCG5; with
# sum(rho) near (H + n - 1) / (2 T) a model enumerates about T iterates.
MORSE_SHAPES = {
    2: ((0, 1, 0, 0), (0, 0, 1, 1)),
    3: ((0, 2, 0, 0), (0, 1, 1, 1), (0, 0, 2, 1)),
    4: ((1, 1, 0, 0), (0, 1, 2, 1), (0, 2, 1, 2)),
}
MORSE_OPS = 27  # 3 values of n x 1..3 models, three times over
H_LOW, H_HIGH = 9000, 11000
T_LOW, T_HIGH = 10_000, 15_000


def morse_deep(rng: random.Random) -> list[Op]:
    """The grid fixes each op's n, shapes, H and per-model iterate count T,
    up to a jitter under 1%, so the ops rank by cost alike for every seed."""
    models_total = sum(1 + (j // 3) % 3 for j in range(MORSE_OPS))
    ops, idx = [], 0
    for j in range(MORSE_OPS):
        n, count = 2 + j % 3, 1 + (j // 3) % 3
        # 10 and 17 are coprime to MORSE_OPS and models_total: H and T sweep
        # their ranges independently of n and count
        H = H_LOW + (H_HIGH - H_LOW) * (10 * j % MORSE_OPS) // MORSE_OPS + rng.randrange(20)
        shapes = MORSE_SHAPES[n]
        models = []
        for i in range(count):
            r, k, h, p = shapes[(j // 9 + i) % len(shapes)]
            T = T_LOW + (T_HIGH - T_LOW) * (17 * idx % models_total) // models_total
            T += rng.randrange(100)
            idx += 1
            half_ihat = (H + n - 1) / (2 * T)
            D = rng.choice(NONSQUARE_D)
            rots = [rho_near(rng, half_ihat / k, D) for _ in range(k)]
            nbs = [rho_in_field(rng, D) for _ in range(r)]
            models.append(_model(rng, n, p, rots, nbs, h))
        ops.append(Op("", "morse-check", H, tuple(models)))
    return _name_and_shuffle(ops, rng)


# -- prove_certify --------------------------------------------------------------

# Certificates of n <= 320 keep each op near 0.1 s and its heap small; with
# n up to 500 the run-to-run spread of the timings doubled on a shared host.
PROVE_OPS = 48
N_LOW, N_HIGH = 80, 320


def prove_certify(rng: random.Random) -> list[Op]:
    """One n near the start of each of PROVE_OPS equal strata of
    [N_LOW, N_HIGH), even and odd n alternating: the NCG1 derivation, and so
    the certificate, is about twice as long for even n."""
    ops = []
    for s in range(PROVE_OPS):
        n = N_LOW + (N_HIGH - N_LOW) * s // PROVE_OPS + rng.randrange(4)
        n += (n - s) % 2
        ops.append(Op("", "prove", n))
    return _name_and_shuffle(ops, rng)


def _name_and_shuffle(ops: list[Op], rng: random.Random) -> list[Op]:
    cells = list(range(len(ops)))
    rng.shuffle(cells)
    return [Op(f"op{i:04d}", ops[c].command, ops[c].param, ops[c].models, c)
            for i, c in enumerate(cells)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; the same seed gives the same list."""
    builders = {"iterate_sweep": iterate_sweep, "morse_deep": morse_deep,
                "prove_certify": prove_certify}
    return builders[workload](random.Random(f"{workload}:{seed}"))


def write_inputs(ops: list[Op], workdir: str) -> None:
    for op in ops:
        doc = op.document()
        if doc is not None:
            with open(f"{workdir}/{op.name}.json", "wb") as fh:
                fh.write(doc)


def warmup_ops(ops: list[Op], count: int) -> list[Op]:
    """The ops of `count` grid cells spread evenly over the grid.  The cells
    are the same for every seed, and the grid fixes their cost up to the
    seed's jitter, so the warm-up costs nearly the same for every seed."""
    by_cell = sorted(ops, key=lambda o: o.cell)
    step = len(ops) // count
    return [by_cell[i * step + step // 2] for i in range(count)]
