"""An oracle for the benchmark that shares no code with indexlab.

Floors come from `math.isqrt`, indices from the NCG1-NCG5 iteration
formulas, Betti numbers from coefficient extraction of the loop-space
Poincare series, and the Morse inequalities from their partial sums.  Each
`check_*` function takes an op, its exit code and its stdout, and returns
the list of mismatches (empty when the output is right) together with the
layer counts that the op implies.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from gen import Model, Op, Rho


def floor_qf(a: int, b: int, c: int, D: int) -> int:
    """floor((a + b*sqrt(D))/c) for c != 0 and D not a perfect square."""
    if c < 0:
        a, b, c = -a, -b, -c
    t = math.isqrt(b * b * D)
    return (a + (t if b >= 0 else -t - 1)) // c


def floor_mul(x: Rho, m: int) -> int:
    """floor(m * x)."""
    return floor_qf(x.a * m, x.b * m, x.c, x.D)


def _slope_const(g: Model) -> tuple[int, int]:
    """i(c^m) = slope*m + 2*sum_j floor(m*rho_j) + const, per case shape."""
    if g.case == "NCG1":
        return 2 * g.p, g.n - 2 * g.r - 1
    if g.case in ("NCG2", "NCG3"):
        return g.p - g.k, g.k
    if g.case == "NCG4":
        return g.p - 1, 1
    return g.p, 0  # NCG5: no rotations


def index(g: Model, m: int) -> int:
    slope, const = _slope_const(g)
    return slope * m + 2 * sum(floor_mul(x, m) for x in g.rotations) + const


def mean_index(g: Model) -> tuple[int, int, int, int]:
    """slope + 2*sum(rho) as a canonical (a, b, c, D): c > 0, gcd 1, and
    b = D = 0 for a rational value."""
    slope, _ = _slope_const(g)
    a, b, c, D = slope, 0, 1, 0
    for x in g.rotations:
        a, b, c, D = a * x.c + 2 * x.a * c, b * x.c + 2 * x.b * c, c * x.c, x.D
    if b == 0:
        D = 0
    k = math.gcd(a, b, c)
    return a // k, b // k, c // k, D


def serialize(v: tuple[int, int, int, int]) -> str:
    a, b, c, D = v
    return f"({a}{b:+d}*sqrt({D}))/{c}"


def period(g: Model) -> int:
    """The critical type (-1)^(i(c^m) - i(c)) flips each iterate iff the
    slope is odd, as the floor terms are doubled."""
    return 1 if _slope_const(g)[0] % 2 == 0 else 2


def cutoff(g: Model, horizon: int) -> int:
    """Largest m with m * ihat <= horizon + n - 1: floor(bound / ihat)."""
    a, b, c, D = mean_index(g)
    bound = horizon + g.n - 1
    if b == 0:
        return bound * c // a
    # bound*c / (a + b sqrt D) = bound*c*(a - b sqrt D) / (a^2 - b^2 D)
    return floor_qf(bound * c * a, -bound * c * b, a * a - b * b * D, D)


def betti(n: int, degree: int) -> list[int]:
    """b_0..b_degree: coefficients of t^(n-1) * (1/(1-t^2) + t^s/(1-t^s)),
    s = 2n-2 for even n and n-1 for odd n."""
    s = 2 * n - 2 if n % 2 == 0 else n - 1
    series = [0] * (degree + 1)
    for q in range(degree + 1):
        series[q] = (q % 2 == 0) + (q >= s and (q - s) % s == 0)
    shift = n - 1
    return [series[q - shift] if q >= shift else 0 for q in range(degree + 1)]


def violations(M: list[int], b: list[int]) -> list[dict]:
    """Failures of the alternating partial-sum and pointwise Morse
    inequalities, in degree order, alternating before pointwise."""
    out = []
    alt_m = alt_b = 0
    for q, (mq, bq) in enumerate(zip(M, b)):
        alt_m, alt_b = mq - alt_m, bq - alt_b
        if alt_m < alt_b:
            out.append({"q": q, "kind": "alternating", "lhs": alt_m, "rhs": alt_b})
        if mq < bq:
            out.append({"q": q, "kind": "pointwise", "lhs": mq, "rhs": bq})
    return out


def _parse(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def check_iterate(op: Op, rc, stdout: str) -> tuple[list[str], Counter]:
    g, K = op.models[0], op.param
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit {rc}, expected 0")
    out = _parse(stdout, problems)
    if out is not None:
        i1 = index(g, 1)
        rows = []
        for m in range(1, K + 1):
            i = index(g, m)
            eps = 1 if (i - i1) % 2 == 0 else -1
            rows.append({"m": m, "i": i, "nu": 0, "epsilon": eps, "k0": int(eps == 1)})
        want = {"case": g.case, "mean_index": serialize(mean_index(g)),
                "period": period(g), "rows": rows}
        problems += [f"{key}: got {out.get(key)!r:.80}, expected {v!r:.80}"
                     for key, v in want.items() if out.get(key) != v]
    # cli calls index_of_iterate twice per row (the row, then critical_type)
    counts = Counter({"iteration.index_of_iterate.calls": 2 * K,
                      "exact.floor_scaled.calls": g.k * K,
                      "symplectic.decomposition_from_json.calls": 1})
    return problems, counts


def morse_table(models: tuple[Model, ...], horizon: int) -> tuple[list[int], Counter]:
    M = [0] * (horizon + 1)
    counts = Counter()
    for g in models:
        i1 = index(g, 1)
        cut = cutoff(g, horizon)
        in_range = 0
        for m in range(1, cut + 1):
            i = index(g, m)
            if 0 <= i <= horizon:
                in_range += 1
                if (i - i1) % 2 == 0:
                    M[i] += 1
        counts["morse.morse_numbers.iterates"] += cut
        counts["exact.floor_scaled.calls"] += g.k * cut
        # one call per iterate, and a second for each iterate in range
        counts["iteration.index_of_iterate.calls"] += cut + in_range
        counts["symplectic.decomposition_from_json.calls"] += 1
    return M, counts


def check_morse(op: Op, rc, stdout: str) -> tuple[list[str], Counter]:
    H = op.param
    M, counts = morse_table(op.models, H)
    b = betti(op.models[0].n, H)
    viol = violations(M, b)
    problems: list[str] = []
    if rc != (1 if viol else 0):
        problems.append(f"exit {rc}, expected {1 if viol else 0}")
    out = _parse(stdout, problems)
    if out is not None:
        want = {"horizon": H, "M": M, "b": b, "violations": viol}
        problems += [f"{key} differs" for key, v in want.items() if out.get(key) != v]
    return problems, counts


def coverage(n: int) -> list[tuple[str, str]]:
    """The (case, subcase) pairs a certificate for n must hold, in order."""
    vacuous = {"NCG2": n < 4, "NCG3": n < 5, "NCG4": n < 3}
    pairs = [("NCG1", "")]
    for case in ("NCG2", "NCG3", "NCG4", "NCG5"):
        pairs += [(case, "")] if vacuous.get(case) else [(case, "p even"), (case, "p odd")]
    return pairs


def pinned_mean_index(n: int) -> Fraction:
    return Fraction(2 * (n - 1), n) if n % 2 == 0 else Fraction(2 * (n - 1), n + 1)


def check_prove(op: Op, rc, stdout: str) -> tuple[list[str], Counter]:
    n = op.param
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit {rc}, expected 0")
    out = _parse(stdout, problems)
    facts = 0
    if out is not None:
        traces = out.get("traces", [])
        if out.get("n") != n:
            problems.append(f"certificate is for n = {out.get('n')}")
        got = [(t.get("case"), t.get("subcase")) for t in traces]
        if got != coverage(n):
            problems.append(f"coverage {got} != {coverage(n)}")
        for t in traces:
            steps = t.get("steps", [])
            facts += len(steps)
            closed = (t.get("verdict") == "vacuous" and not steps) or (
                t.get("verdict") == "contradiction" and steps
                and steps[-1].get("kind") == "Contradiction")
            if not closed:
                problems.append(f"{t.get('case')} {t.get('subcase')}: trace not closed")
        pins = [Fraction(s["values"]["value"]) for t in traces if t.get("case") == "NCG1"
                for s in t.get("steps", []) if s.get("rule") == "Eq(5.5)"]
        if pins != [pinned_mean_index(n)]:
            problems.append(f"NCG1 pinned mean index {pins} != {pinned_mean_index(n)}")
    counts = Counter({"prover.facts": facts})
    return problems, counts


CHECKS = {"iterate": check_iterate, "morse-check": check_morse, "prove": check_prove}


def check(op: Op, rc, stdout: str) -> tuple[list[str], Counter]:
    return CHECKS[op.command](op, rc, stdout)
