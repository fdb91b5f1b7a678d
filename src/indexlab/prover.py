"""Mechanical replay of the single-geodesic case analysis.

Under the hypothesis that exactly one prime closed geodesic exists on the
bumpy n-sphere, every case shape and parity subcase of its linearized
return map leads to a contradiction.  This module derives each
contradiction as an ordered list of justified facts over exact rationals,
and an independent checker re-validates every numeric step of a trace.

The engine works symbolically: a constraint like "the rotation numbers sum
to a rational" is a fact about the model family, never an instantiated
choice of rotation numbers -- several contradictions hinge on a rational
sum of irrationals, which no concrete choice could exhibit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .iteration import Case
from .morse import BettiTable, Violation, check_morse_inequalities, euler_limit


class FactKind(enum.Enum):
    IndexEquals = "IndexEquals"
    IndexRange = "IndexRange"
    MeanIndexEquals = "MeanIndexEquals"
    MorseZeroParity = "MorseZeroParity"
    FloorSumRange = "FloorSumRange"
    Contradiction = "Contradiction"


@dataclass(frozen=True)
class SymbolicFact:
    kind: FactKind
    statement: str
    rule: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind.value,
            "statement": self.statement,
            "values": _jsonable(self.payload),
        }


def _jsonable(obj):
    if type(obj) in (int, str):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [v if type(v) is int else _jsonable(v) for v in items]
    if isinstance(obj, Violation):
        return {"q": obj.q, "kind": obj.kind, "lhs": obj.lhs, "rhs": obj.rhs}
    return obj


class Verdict(enum.Enum):
    CONTRADICTION = "contradiction"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class ProofTrace:
    n: int
    case: Case
    subcase: str  # "", "p even", "p odd"
    steps: tuple[SymbolicFact, ...]
    verdict: Verdict
    detail: str  # contradiction kind or vacuity reason

    def to_json(self) -> dict:
        return {
            "case": self.case.value,
            "subcase": self.subcase,
            "steps": [s.to_json() for s in self.steps],
            "verdict": self.verdict.value,
            "detail": self.detail,
        }

    @property
    def contradiction(self) -> SymbolicFact | None:
        if self.verdict is Verdict.CONTRADICTION:
            return self.steps[-1]
        return None


class TraceError(ValueError):
    """A replayed trace failed re-validation."""


class PreconditionError(ValueError):
    """A named hypothesis of a lemma check does not hold."""


@dataclass(frozen=True)
class ThetaSet:
    """Degrees available before the Betti numbers first reach 2."""

    n: int
    members: frozenset[int]


def theta_set(n: int) -> ThetaSet:
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        members = frozenset(j for j in range(n - 1, 3 * n - 4) if j % 2 == 1)
    else:
        members = frozenset(j for j in range(n - 1, 2 * n - 3) if j % 2 == 0)
    return ThetaSet(n, members)


def floor_sum_range(m: int, terms: int, total: Fraction) -> set[int]:
    """Possible values of a sum of `terms` floors of m*rho_i.

    Each rho_i is irrational in (0, 1) and the exact values m*rho_i sum to
    `total`.  Each fractional part lies strictly in (0, 1), so the floor sum
    lies strictly inside (total - terms, total); floors of positive numbers
    are also >= 0.  This is the sharpest derivable set and is contained in
    the looser sets quoted in the source derivations.
    """
    if m < 1 or terms < 1:
        raise ValueError("m and terms must be positive")
    total = Fraction(total)
    if total <= 0 or total >= m * terms:
        raise ValueError(
            f"inconsistent constraint: total {total} outside (0, {m * terms})"
        )
    lo = total - terms  # exclusive
    hi = total  # exclusive
    first = max(0, math.floor(lo) + 1)
    last = math.ceil(hi) - 1
    return set(range(first, last + 1))


# -- lemma checks: each derives a fact by exhibiting Morse violations ------

def _violation_at(M: list[int], n: int, q: int, kind: str) -> Violation:
    b = BettiTable(n, len(M) - 1)
    for v in check_morse_inequalities(M, b, len(M) - 1):
        if v.kind == kind and v.q == q:
            return v
    raise TraceError(f"expected {kind} violation at q={q} not found")


def check_lemma_6_1(n: int) -> SymbolicFact:
    """Positive mean index is forced: zero mean index concentrates every
    local module in degree 0, leaving M_{n-1} = 0 below b_{n-1} = 1."""
    M = [0] * n  # degrees 0..n-1 under the zero-mean-index hypothesis
    v = _violation_at(M, n, n - 1, "pointwise")
    return SymbolicFact(
        FactKind.MeanIndexEquals,
        f"mean index > 0 (else M_{n - 1} = {v.lhs} >= b_{n - 1} = {v.rhs} fails)",
        "L6.1",
        {"relation": ">", "value": Fraction(0), "evidence": v, "hypothetical_M": M},
    )


def check_lemma_6_2(n: int) -> SymbolicFact:
    """i(c) <= n-1 is forced: a larger initial index empties every degree
    up to n-1, again contradicting b_{n-1} = 1."""
    M = [0] * n  # degrees 0..n-1 under the i(c) > n-1 hypothesis
    v = _violation_at(M, n, n - 1, "pointwise")
    return SymbolicFact(
        FactKind.IndexRange,
        f"i(c) <= {n - 1} (else M_{n - 1} = {v.lhs} >= b_{n - 1} = {v.rhs} fails)",
        "L6.2",
        {"max": n - 1, "evidence": v, "hypothetical_M": M},
    )


def check_lemma_6_3(n: int, parity_config: str) -> SymbolicFact:
    """i(c) >= n-1 under the one-sided Morse vanishing configuration.

    parity_config "even-n": n even, i(c) odd, all even-degree M vanish;
    "odd-n": n odd, i(c) even, all odd-degree M vanish.  Every admissible
    hypothetical i(c) < n-1 is refuted by an exact alternating-sum failure.
    """
    if parity_config == "even-n":
        if n % 2 != 0:
            raise PreconditionError("config 'even-n' requires even n")
        hypotheticals = [i0 for i0 in range(1, n - 2) if i0 % 2 == 1]
    elif parity_config == "odd-n":
        if n % 2 != 1:
            raise PreconditionError("config 'odd-n' requires odd n")
        hypotheticals = [i0 for i0 in range(2, n - 2) if i0 % 2 == 0]
    else:
        raise PreconditionError(f"unknown parity config {parity_config!r}")

    if not hypotheticals:
        return SymbolicFact(
            FactKind.IndexRange,
            f"i(c) >= {n - 1} (hypothesis range below n-1 is empty)",
            "L6.3",
            {"min": n - 1, "vacuous_hypothesis": True, "refuted": []},
        )

    refuted = []
    for i0 in hypotheticals:
        M = [0] * (i0 + 2)
        M[i0] = 1
        v = _violation_at(M, n, i0 + 1, "alternating")
        refuted.append({"i_c": i0, "evidence": v, "hypothetical_M": M})
    return SymbolicFact(
        FactKind.IndexRange,
        f"i(c) >= {n - 1} (each hypothetical below fails the alternating sum: -1 >= 0)",
        "L6.3",
        {"min": n - 1, "vacuous_hypothesis": False, "refuted": refuted},
    )


def check_lemma_6_5(n: int, index_values: dict[int, int], k: int) -> SymbolicFact:
    """Uniqueness of the iterate hitting each degree n-1+2t on Theta(n), t <= k.

    Preconditions: i(c) = n-1 and (i(c^m) - i(c))/2 in {0, ..., m-1} for all
    supplied m.  A duplicated degree reproduces the exact alternating-sum
    contradiction, which is returned as a Contradiction fact.
    """
    if index_values.get(1) != n - 1:
        raise PreconditionError("requires i(c) = n - 1")
    for m, i_m in index_values.items():
        d = i_m - (n - 1)
        if d % 2 != 0 or not (0 <= d // 2 <= m - 1):
            raise PreconditionError(
                f"(i(c^{m}) - i(c))/2 = {Fraction(d, 2)} outside {{0..{m - 1}}}"
            )
    theta = theta_set(n)
    assignments: dict[int, list[int]] = {}
    for m, i_m in sorted(index_values.items()):
        assignments.setdefault(i_m, []).append(m)
    for t in range(0, k + 1):
        q = n - 1 + 2 * t
        if q not in theta.members:
            continue
        hits = assignments.get(q, [])
        if len(hits) > 1:
            # reproduce the exact contradiction for a duplicated degree
            if q == n - 1:
                M = [0] * (n + 1)
                M[n - 1] = 2
                v = _violation_at(M, n, n, "alternating")
                return SymbolicFact(
                    FactKind.Contradiction,
                    f"two iterates {hits[:2]} share i = {q}: "
                    f"{v.lhs} >= {v.rhs} fails at q = {n}",
                    "L6.5",
                    {"degree": q, "iterates": hits, "evidence": v, "hypothetical_M": M},
                )
            kappa = q
            M = [0] * (kappa + 2)
            for t2 in range((kappa - (n - 1)) // 2):
                M[n - 1 + 2 * t2] = 1
            M[kappa] = 2
            v = _violation_at(M, n, kappa + 1, "alternating")
            return SymbolicFact(
                FactKind.Contradiction,
                f"two iterates {hits[:2]} share i = {kappa}: "
                f"{v.lhs} >= {v.rhs} fails at q = {kappa + 1}",
                "L6.5",
                {"degree": kappa, "iterates": hits, "evidence": v, "hypothetical_M": M},
            )
    return SymbolicFact(
        FactKind.IndexEquals,
        f"each degree of Theta({n}) up to n-1+2*{k} is hit by exactly one iterate",
        "L6.5",
        {"unique": True, "degrees": sorted(q for q in theta.members if q <= n - 1 + 2 * k)},
    )


# -- identity pin-down -----------------------------------------------------

def _period_and_sign(case: Case, p_parity: int, n: int) -> tuple[int, int]:
    """Analytic period N and the identity numerator s = (-1)^i(c).

    For NCG1 the initial index has the parity of n-1 and the period is 1;
    for the other cases i(c) = p and the period follows the parity table.
    Over one period the m = 2 term vanishes whenever N = 2 (its type number
    is 0), so the identity numerator is always (-1)^i(c).
    """
    if case is Case.NCG1:
        return 1, (1 if (n - 1) % 2 == 0 else -1)
    s = 1 if p_parity % 2 == 0 else -1
    if case in (Case.NCG2, Case.NCG5):
        N = 1 if p_parity % 2 == 0 else 2
    else:
        N = 2 if p_parity % 2 == 0 else 1
    return N, s


def pinned_mean_index(n: int, case: Case = Case.NCG1, p_parity: int = 0) -> Fraction:
    """Solve the mean-index identity for a single geodesic of the given case.

    Returns the exact rational value the identity forces on ihat(c).  For a
    single NCG1 geodesic this is 2(n-1)/n (n even) or 2(n-1)/(n+1) (n odd).
    The value may be non-positive; drawing the consequences is the
    replayer's job.
    """
    N, s = _period_and_sign(case, p_parity, n)
    return Fraction(s) / (N * euler_limit(n))


# -- the replay engine -----------------------------------------------------

def _shape_vacuity(n: int, case: Case) -> str | None:
    """Reason the case shape is unsatisfiable at this n, or None."""
    if case is Case.NCG2 and n < 4:
        return f"even k with 2 <= k <= n-2r-2 unsatisfiable for n = {n}"
    if case is Case.NCG3 and n < 5:
        return f"odd k with 3 <= k <= n-2r-2 unsatisfiable for n = {n}"
    if case is Case.NCG4 and n < 3:
        return f"one rotation plus a hyperbolic block needs n - 2r - 1 >= 2, impossible for n = {n}"
    return None


def _fact_identity_pin(n: int, case: Case, p_parity: int) -> tuple[SymbolicFact, Fraction]:
    N, s = _period_and_sign(case, p_parity, n)
    R = euler_limit(n)
    ihat = pinned_mean_index(n, case, p_parity)
    fact = SymbolicFact(
        FactKind.MeanIndexEquals,
        f"identity forces {s:+d}/({N}*ihat) = {R}, i.e. ihat = {ihat}",
        "Eq(5.5)",
        {"relation": "=", "value": ihat, "s": s, "N": N, "rhs": R},
    )
    return fact, ihat


def _morse_parity_fact(n: int, i1_parity: int) -> SymbolicFact:
    dead = "even" if i1_parity % 2 == 1 else "odd"
    return SymbolicFact(
        FactKind.MorseZeroParity,
        f"every contributing iterate has index of the parity of i(c); M_q = 0 for {dead} q >= 1",
        "Prop2.1",
        {"zero_parity": dead, "i1_parity": i1_parity % 2},
    )


def _corollary_6_4(n: int) -> list[SymbolicFact]:
    cfg = "even-n" if n % 2 == 0 else "odd-n"
    upper = check_lemma_6_2(n)
    lower = check_lemma_6_3(n, cfg)
    pin = SymbolicFact(
        FactKind.IndexEquals,
        f"i(c) = {n - 1}",
        "Cor6.4",
        {"i_c": n - 1},
    )
    return [upper, lower, pin]


def _contradiction(statement: str, kind: str, rule: str, payload: dict) -> SymbolicFact:
    payload = dict(payload)
    payload["contradiction_kind"] = kind
    return SymbolicFact(FactKind.Contradiction, statement, rule, payload)


def _replay_ncg1(n: int) -> ProofTrace:
    steps: list[SymbolicFact] = [check_lemma_6_1(n)]
    pin_fact, ihat = _fact_identity_pin(n, Case.NCG1, 0)
    steps.append(pin_fact)
    steps.append(_morse_parity_fact(n, (n - 1) % 2))
    steps.extend(_corollary_6_4(n))
    # i(c) = n-1 forces 2p + (n-2r-1) = n-1, so p = r; ihat < 2 with at
    # least one rotation contributing strictly positive angle forces p = 0.
    steps.append(
        SymbolicFact(
            FactKind.IndexEquals,
            f"2p + (n-2r-1) = {n - 1} gives p = r; ihat = {ihat} < 2 forces p = r = 0",
            "Eq(6.7)" if n % 2 == 0 else "Eq(6.19)",
            {"p": 0, "r": 0, "ihat": ihat},
        )
    )
    terms = n - 1
    rho_sum = ihat / 2  # sum of rotation numbers theta_i/(2 pi)
    steps.append(
        SymbolicFact(
            FactKind.MeanIndexEquals,
            f"sum of the {terms} rotation numbers = ihat/2 = {rho_sum}, a rational",
            "Eq(6.9)" if n % 2 == 0 else "Eq(6.21)",
            {"relation": "=", "value": rho_sum, "terms": terms},
        )
    )

    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    m_star = n if n % 2 == 0 else (n + 1) // 2
    index_values = {1: n - 1}
    for m in range(2, m1 + 1):
        total = m * rho_sum
        admissible = floor_sum_range(m, terms, total)
        steps.append(
            SymbolicFact(
                FactKind.FloorSumRange,
                f"floor sum at m = {m} lies in {sorted(admissible)}",
                "Eq(6.11)" if n % 2 == 0 else "Eq(6.23)",
                {"m": m, "terms": terms, "total": total, "set": sorted(admissible)},
            )
        )
        # uniqueness of the lower degrees forces the top value
        index_values[m] = n - 1 + 2 * (m - 1)
        steps.append(
            SymbolicFact(
                FactKind.IndexEquals,
                f"i(c^{m}) = {index_values[m]} (lower values collide with earlier iterates)",
                "Claim1",
                {"m": m, "i": index_values[m]},
            )
        )
    # a failure in any prefix of the table is also one in the full table
    unique = check_lemma_6_5(n, index_values, m1 - 1)
    if unique.kind is FactKind.Contradiction:
        steps.append(unique)
        return ProofTrace(n, Case.NCG1, "", tuple(steps), Verdict.CONTRADICTION, "pigeonhole")

    # pigeonhole iterate: the exact rotation sum is an integer there
    total = m_star * rho_sum
    label = f"m = {m_star}" if n % 2 == 0 else f"m2 = {m_star}"
    admissible = floor_sum_range(m_star, terms, total)
    steps.append(
        SymbolicFact(
            FactKind.FloorSumRange,
            f"floor sum at {label} lies in {sorted(admissible)} (exact total {total})",
            "Eq(6.14)" if n % 2 == 0 else "Eq(6.27)",
            {"m": m_star, "terms": terms, "total": total, "set": sorted(admissible)},
        )
    )
    taken = {n - 1 + 2 * (m - 1): m for m in range(1, m1 + 1)}
    candidates = {n - 1 + 2 * s for s in admissible}
    if not admissible:
        steps.append(
            _contradiction(
                f"pigeonhole at {label}: no admissible floor sum exists, yet the "
                f"irrational rotation numbers must realize the exact total {total}",
                "pigeonhole",
                "Eq(6.14)" if n % 2 == 0 else "Eq(6.27)",
                {"m": m_star, "total": total, "set": []},
            )
        )
        return ProofTrace(n, Case.NCG1, "", tuple(steps), Verdict.CONTRADICTION, "pigeonhole")
    if not candidates <= set(taken):
        raise TraceError("pigeonhole range escaped the occupied degrees")
    collisions = {q: taken[q] for q in sorted(candidates)}
    steps.append(
        _contradiction(
            f"pigeonhole at {label}: i(c^{m_star}) must equal i(c^r) for some "
            f"r in {sorted(collisions.values())}, contradicting uniqueness",
            "pigeonhole",
            "L6.5",
            {"m": m_star, "candidates": sorted(candidates), "collisions": collisions},
        )
    )
    return ProofTrace(n, Case.NCG1, "", tuple(steps), Verdict.CONTRADICTION, "pigeonhole")


def _replay_subcase(n: int, case: Case, p_parity: int) -> ProofTrace:
    subcase = "p even" if p_parity % 2 == 0 else "p odd"
    steps: list[SymbolicFact] = []
    pin_fact, ihat = _fact_identity_pin(n, case, p_parity)
    steps.append(pin_fact)

    if ihat <= 0:
        steps.append(check_lemma_6_1(n))
        steps.append(
            _contradiction(
                f"pinned ihat = {ihat} <= 0 contradicts ihat > 0",
                "sign",
                "L6.1",
                {"ihat": ihat},
            )
        )
        return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "sign")

    if case is Case.NCG4:
        steps.append(
            _contradiction(
                f"ihat = (p-1) + theta_1/pi is irrational, but the identity pins "
                f"ihat = {ihat}, a rational",
                "irrationality",
                "Eq(5.5)",
                {"ihat": ihat},
            )
        )
        return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "irrationality")

    if case is Case.NCG5:
        # ihat = p, a non-negative integer of the assumed parity
        if n % 2 == 1 and p_parity % 2 == 0:
            steps.append(
                _contradiction(
                    f"p is a positive even integer, so 1 > (n-1)/(n+1) = p/2 >= 1",
                    "integrality",
                    "Step2-Subcase5.1",
                    {"ihat": ihat, "p_half": ihat / 2},
                )
            )
            return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "integrality")
        if ihat.denominator != 1 or (ihat.numerator - p_parity) % 2 != 0:
            steps.append(
                _contradiction(
                    f"ihat = p must be an integer with p {subcase.split()[1]}, "
                    f"but the identity pins p = {ihat}",
                    "integrality",
                    "Eq(5.5)",
                    {"ihat": ihat},
                )
            )
            return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "integrality")
        raise TraceError(f"NCG5 subcase with consistent integer p = {ihat} left open")

    # NCG2 / NCG3 with positive pinned ihat: pin i(c) = p = n-1, then bound k
    steps.append(_morse_parity_fact(n, p_parity))
    steps.extend(_corollary_6_4(n))
    k_parity = 0 if case is Case.NCG2 else 1
    delta_even = (p_parity - k_parity) % 2 == 0
    if delta_even:
        if ihat >= 2:
            raise TraceError("expected pinned ihat < 2")
        steps.append(
            _contradiction(
                f"p - k is even and p - k <= ihat = {ihat} < 2 gives p <= k, so "
                f"n-1 = p <= k contradicts k <= n-2r-2 <= {n - 2}",
                "rotation-count",
                "Eq(6.18)" if n % 2 == 0 else "Eq(6.29)",
                {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2},
            )
        )
    else:
        if ihat >= 1:
            raise TraceError("expected pinned ihat < 1")
        steps.append(
            _contradiction(
                f"p - k = n-1-k < ihat = {ihat} < 1 yields n-2 < k, which "
                f"contradicts k <= n-2r-2 <= {n - 2}",
                "rotation-count",
                "Eq(6.17)" if n % 2 == 0 else "Eq(6.31)",
                {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2},
            )
        )
    return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "rotation-count")


def replay(n: int) -> list[ProofTrace]:
    """All case/parity traces for dimension n, each ending in a verdict."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [t for case in Case for t in _replay_case(n, case)]


def _replay_case(n: int, case: Case) -> list[ProofTrace]:
    """The traces of one case shape: one per parity subcase, or one verdict."""
    reason = _shape_vacuity(n, case)
    if reason is not None:
        return [ProofTrace(n, case, "", (), Verdict.VACUOUS, reason)]
    if case is Case.NCG1:
        return [_replay_ncg1(n)]
    return [_replay_subcase(n, case, p_parity) for p_parity in (0, 1)]


# -- independent trace checker ---------------------------------------------

def verify_trace(trace: ProofTrace) -> bool:
    """Re-validate every numeric claim of a trace with exact arithmetic.

    Raises TraceError on the first failed re-check; returns True otherwise.
    The checker recomputes each quantity from the payload inputs rather
    than trusting the recorded statement strings.
    """
    n = trace.n
    if trace.verdict is Verdict.VACUOUS:
        if trace.steps:
            raise TraceError("vacuous trace must carry no derivation steps")
        if _shape_vacuity(n, trace.case) is None:
            raise TraceError(f"case {trace.case.value} is not vacuous for n = {n}")
        return True
    if not trace.steps or trace.steps[-1].kind is not FactKind.Contradiction:
        raise TraceError("contradiction trace must end in a Contradiction fact")
    for fact in trace.steps:
        _verify_fact(n, fact)
    return True


def _verify_fact(n: int, fact: SymbolicFact) -> None:
    p = fact.payload
    if fact.kind is FactKind.MeanIndexEquals and "s" in p:
        # identity instantiation: s/(N * ihat) must equal the Euler value
        if Fraction(p["s"]) / (p["N"] * Fraction(p["value"])) != euler_limit(n):
            raise TraceError(f"identity re-check failed: {fact.statement}")
    if fact.kind is FactKind.FloorSumRange:
        expected = floor_sum_range(p["m"], p["terms"], Fraction(p["total"]))
        if set(p["set"]) != expected:
            raise TraceError(f"floor-sum range re-check failed: {fact.statement}")
    if "evidence" in p:
        _verify_violation(n, p["evidence"], p.get("hypothetical_M"))
    for entry in p.get("refuted", []):
        _verify_violation(n, entry["evidence"], entry.get("hypothetical_M"))
    if fact.kind is FactKind.IndexEquals and "i" in p:
        if (p["i"] - (n - 1)) % 2 != 0 or not (0 <= (p["i"] - (n - 1)) // 2 <= p["m"] - 1):
            raise TraceError(f"iterate index re-check failed: {fact.statement}")
    if fact.kind is FactKind.Contradiction:
        _verify_contradiction(n, fact)


def _verify_violation(n: int, v: Violation, M: list[int] | None) -> None:
    if v.lhs >= v.rhs:
        raise TraceError(f"cited violation is not a violation: {v}")
    if M is not None and v not in check_morse_inequalities(M, BettiTable(n, len(M) - 1), len(M) - 1):
        raise TraceError(f"cited violation not reproduced from its table: {v}")


def _verify_contradiction(n: int, fact: SymbolicFact) -> None:
    p = fact.payload
    kind = p.get("contradiction_kind")
    if kind == "sign":
        if Fraction(p["ihat"]) > 0:
            raise TraceError("sign contradiction cites a positive mean index")
    elif kind == "irrationality":
        ihat = Fraction(p["ihat"])  # must be rational and positive for the clash
        if ihat <= 0:
            raise TraceError("irrationality contradiction needs a positive pinned value")
    elif kind == "integrality":
        ihat = Fraction(p["ihat"])
        if "p_half" in p:
            if not (Fraction(p["p_half"]) < 1):
                raise TraceError("p/2 contradiction needs p/2 < 1")
        elif ihat.denominator == 1:
            raise TraceError("integrality contradiction cites an integer value")
    elif kind == "rotation-count":
        if not p["k_lower"] > p["k_upper"]:
            raise TraceError("rotation-count contradiction bounds do not clash")
    elif kind == "pigeonhole":
        if "collisions" in p:
            if not p["collisions"]:
                raise TraceError("pigeonhole contradiction cites no collision")
        else:
            expected = floor_sum_range(p["m"], n - 1, Fraction(p["total"]))
            if expected:
                raise TraceError("empty-range pigeonhole re-check found admissible values")
    elif fact.rule == "L6.5":
        pass  # evidence already re-validated via the violation table
    else:
        raise TraceError(f"unknown contradiction kind: {kind!r}")


# -- certificate serialization ---------------------------------------------

def certificate(n: int, traces: list[ProofTrace] | None = None) -> dict:
    if traces is None:
        traces = replay(n)
    return {"n": n, "traces": [t.to_json() for t in traces]}


def certificate_json(n: int) -> str:
    return json.dumps(certificate(n), sort_keys=True, separators=(",", ":"))
