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

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .iteration import Case
from .morse import Violation, alternating_betti_sum, betti, euler_limit


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
    premises: tuple[int, ...] = ()  # indices of the earlier steps whose values it reads

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind.value,
            "statement": self.statement,
            "values": self.payload,
            "premises": self.premises,
        }


def json_default(obj):
    """`default=` hook of json.dumps for the payload values JSON has no type for."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Violation):
        return {"q": obj.q, "kind": obj.kind, "lhs": obj.lhs, "rhs": obj.rhs}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


def theta_set(n: int) -> frozenset[int]:
    """Theta(n): the degrees available before the Betti numbers first reach 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return frozenset(j for j in range(n - 1, 3 * n - 4) if j % 2 == 1)
    return frozenset(j for j in range(n - 1, 2 * n - 3) if j % 2 == 0)


def floor_sum_range(m: int, terms: int, total: Fraction) -> range:
    """Possible values of a sum of `terms` floors of m*rho_i.

    Each rho_i is irrational in (0, 1) and the exact values m*rho_i sum to
    `total`.  Each fractional part lies strictly in (0, 1), so the floor sum
    lies strictly inside (total - terms, total); floors of positive numbers
    are also >= 0.  This is the sharpest derivable set and is contained in
    the looser sets quoted in the source derivations.  The set is a range of
    consecutive integers, possibly empty.
    """
    if m < 1 or terms < 1:
        raise ValueError("m and terms must be positive")
    num, den = total.as_integer_ratio()
    if num <= 0 or num >= m * terms * den:
        raise ValueError(
            f"inconsistent constraint: total {total} outside (0, {m * terms})"
        )
    first = max(0, num // den - terms + 1)  # floor(total - terms) + 1
    last = -(-num // den) - 1  # ceil(total) - 1
    return range(first, last + 1)


def _ends(r: range) -> list[int]:
    """A range as a certificate carries it: [first, last], or [] when empty."""
    return [r[0], r[-1]] if r else []


# -- lemma checks: each derives a fact by exhibiting Morse violations ------

def _table_fault(M) -> str | None:
    """Why M is not a hypothetical Morse table {"length": L, "entries": [[q, v], ...]}, or None.

    The table stands for M_0..M_{L-1}: the entries list the nonzero values by
    strictly increasing degree q in 0..L-1, and every other M_q is 0.
    """
    if not (isinstance(M, dict) and M.keys() == {"length", "entries"}):
        return "not a {length, entries} dict"
    length, entries = M["length"], M["entries"]
    if type(length) is not int or length < 1:
        return f"length {length!r} is not an int >= 1"
    if type(entries) is not list:
        return "entries are not a list"
    prev = -1
    for e in entries:
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
                and prev < e[0] < length and e[1] != 0):
            return f"entry {e!r} is not a nonzero [q, M_q] with q increasing in 0..{length - 1}"
        prev = e[0]
    return None


def _violation_at(M: dict, n: int, q: int, kind: str) -> Violation:
    """The failure of sparse table M's `kind` Morse inequality at degree q."""
    fault = _table_fault(M)
    if (fault is None and type(q) is int and 0 <= q < M["length"]
            and kind in ("pointwise", "alternating")):
        entries = M["entries"]
        if kind == "pointwise":
            lhs, rhs = dict(entries).get(q, 0), betti(n, q)
        else:  # M_q - M_{q-1} + M_{q-2} - ..., over the nonzero entries
            lhs = sum(v if (q - j) % 2 == 0 else -v for j, v in entries if j <= q)
            rhs = alternating_betti_sum(n, q)
        if lhs < rhs:
            return Violation(q, kind, lhs, rhs)
    raise TraceError(f"{kind} violation at q={q} not reproduced from its table"
                     + (f": table {fault}" if fault else ""))


def _lemma_6_1_failure(n: int) -> tuple[dict, Violation]:
    """The zero table of length n that Lemmas 6.1 and 6.2 suppose, and its failure at q = n-1."""
    M = {"length": n, "entries": []}
    return M, _violation_at(M, n, n - 1, "pointwise")


def _lemma_6_3_refutations(n: int) -> list[dict]:
    """One refutation per hypothetical i(c) < n-1 of the parity of n-1, in order.

    The table puts 1 at degree i(c); its alternating sum fails at i(c) + 1.
    """
    refuted = []
    for i0 in range(1 + n % 2, n - 2, 2):
        M = {"length": i0 + 2, "entries": [[i0, 1]]}
        refuted.append({"i_c": i0, "evidence": _violation_at(M, n, i0 + 1, "alternating"),
                        "hypothetical_M": M})
    return refuted


def check_lemma_6_1(n: int) -> SymbolicFact:
    """Positive mean index is forced: zero mean index concentrates every
    local module in degree 0, leaving M_{n-1} = 0 below b_{n-1} = 1."""
    M, v = _lemma_6_1_failure(n)
    return SymbolicFact(
        FactKind.MeanIndexEquals,
        f"mean index > 0 (else M_{n - 1} = {v.lhs} >= b_{n - 1} = {v.rhs} fails)",
        "L6.1",
        {"relation": ">", "value": Fraction(0), "evidence": v, "hypothetical_M": M},
    )


def check_lemma_6_2(n: int) -> SymbolicFact:
    """i(c) <= n-1 is forced: a larger initial index empties every degree
    up to n-1, again contradicting b_{n-1} = 1."""
    M, v = _lemma_6_1_failure(n)
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
    if parity_config not in ("even-n", "odd-n"):
        raise PreconditionError(f"unknown parity config {parity_config!r}")
    if parity_config != ("even-n" if n % 2 == 0 else "odd-n"):
        raise PreconditionError(f"config {parity_config!r} requires {parity_config[:-2]} n")
    refuted = _lemma_6_3_refutations(n)
    reason = ("each hypothetical below fails the alternating sum: -1 >= 0" if refuted
              else "hypothesis range below n-1 is empty")
    return SymbolicFact(
        FactKind.IndexRange,
        f"i(c) >= {n - 1} ({reason})",
        "L6.3",
        {"min": n - 1, "vacuous_hypothesis": not refuted, "refuted": refuted},
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
        if q not in theta:
            continue
        hits = assignments.get(q, [])
        if len(hits) > 1:
            # reproduce the exact contradiction for a duplicated degree
            M = {"length": q + 2, "entries": [[n - 1 + 2 * t2, 1] for t2 in range(t)] + [[q, 2]]}
            v = _violation_at(M, n, q + 1, "alternating")
            return SymbolicFact(
                FactKind.Contradiction,
                f"two iterates {hits[:2]} share i = {q}: {v.lhs} >= {v.rhs} fails at q = {q + 1}",
                "L6.5",
                {"degree": q, "iterates": hits, "evidence": v, "hypothetical_M": M},
            )
    return SymbolicFact(
        FactKind.IndexEquals,
        f"each degree of Theta({n}) up to n-1+2*{k} is hit by exactly one iterate",
        "L6.5",
        {"unique": True, "degrees": sorted(q for q in theta if q <= n - 1 + 2 * k)},
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

# the odd-n numbers of the equations that even n cites as the keys
_ODD_RULE = {"Eq(6.7)": "Eq(6.19)", "Eq(6.9)": "Eq(6.21)", "Eq(6.11)": "Eq(6.23)",
             "Eq(6.14)": "Eq(6.27)", "Eq(6.17)": "Eq(6.31)", "Eq(6.18)": "Eq(6.29)"}


def _rule(n: int, even_rule: str) -> str:
    return even_rule if n % 2 == 0 else _ODD_RULE.get(even_rule, even_rule)


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


def _corollary_6_4(n: int, parity_step: int) -> list[SymbolicFact]:
    """The L6.2, L6.3 and Cor6.4 steps, to follow the Prop2.1 step at index parity_step."""
    cfg = "even-n" if n % 2 == 0 else "odd-n"
    upper = check_lemma_6_2(n)
    lower = dataclasses.replace(check_lemma_6_3(n, cfg), premises=(parity_step,))
    pin = SymbolicFact(
        FactKind.IndexEquals,
        f"i(c) = {n - 1}",
        "Cor6.4",
        {"i_c": n - 1},
        (parity_step + 1, parity_step + 2),
    )
    return [upper, lower, pin]


def _contradiction(statement: str, kind: str, rule: str, payload: dict,
                   premises: tuple[int, ...]) -> SymbolicFact:
    payload = dict(payload)
    payload["contradiction_kind"] = kind
    return SymbolicFact(FactKind.Contradiction, statement, rule, payload, premises)


def _replay_ncg1(n: int) -> ProofTrace:
    steps: list[SymbolicFact] = [check_lemma_6_1(n)]
    pin_fact, ihat = _fact_identity_pin(n, Case.NCG1, 0)
    steps.append(pin_fact)
    pin = len(steps) - 1
    steps.append(_morse_parity_fact(n, (n - 1) % 2))
    steps.extend(_corollary_6_4(n, len(steps) - 1))
    cor = len(steps) - 1
    # i(c) = n-1 forces 2p + (n-2r-1) = n-1, so p = r; ihat < 2 with at
    # least one rotation contributing strictly positive angle forces p = 0.
    steps.append(
        SymbolicFact(
            FactKind.IndexEquals,
            f"2p + (n-2r-1) = {n - 1} gives p = r; ihat = {ihat} < 2 forces p = r = 0",
            _rule(n, "Eq(6.7)"),
            {"p": 0, "r": 0, "ihat": ihat},
            (pin, cor),
        )
    )
    terms = n - 1
    rho_sum = ihat / 2  # sum of rotation numbers theta_i/(2 pi)
    steps.append(
        SymbolicFact(
            FactKind.MeanIndexEquals,
            f"sum of the {terms} rotation numbers = ihat/2 = {rho_sum}, a rational",
            _rule(n, "Eq(6.9)"),
            {"relation": "=", "value": rho_sum, "terms": terms},
            (len(steps) - 1,),
        )
    )
    rho_step = len(steps) - 1

    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    m_star = n if n % 2 == 0 else (n + 1) // 2
    index_values = {1: n - 1}
    previous = cor  # the step that fixes i(c^(m-1))
    for m in range(2, m1 + 1):
        total = m * rho_sum
        ends = _ends(floor_sum_range(m, terms, total))
        steps.append(
            SymbolicFact(
                FactKind.FloorSumRange,
                f"floor sum at m = {m} lies in {ends}",
                _rule(n, "Eq(6.11)"),
                {"m": m, "terms": terms, "total": total, "set": ends},
                (rho_step,),
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
                (len(steps) - 1, previous),
            )
        )
        previous = len(steps) - 1
    # a failure in any prefix of the table is also one in the full table
    unique = check_lemma_6_5(n, index_values, m1 - 1)
    if unique.kind is FactKind.Contradiction:
        steps.append(dataclasses.replace(unique, premises=(cor, previous)))
        return ProofTrace(n, Case.NCG1, "", tuple(steps), Verdict.CONTRADICTION, "pigeonhole")

    # pigeonhole iterate: the exact rotation sum is an integer there
    total = m_star * rho_sum
    label = f"m = {m_star}" if n % 2 == 0 else f"m2 = {m_star}"
    admissible = floor_sum_range(m_star, terms, total)
    ends = _ends(admissible)
    steps.append(
        SymbolicFact(
            FactKind.FloorSumRange,
            f"floor sum at {label} lies in {ends} (exact total {total})",
            _rule(n, "Eq(6.14)"),
            {"m": m_star, "terms": terms, "total": total, "set": ends},
            (rho_step,),
        )
    )
    floor_step = len(steps) - 1
    if not admissible:
        steps.append(
            _contradiction(
                f"pigeonhole at {label}: no admissible floor sum exists, yet the "
                f"irrational rotation numbers must realize the exact total {total}",
                "pigeonhole",
                _rule(n, "Eq(6.14)"),
                {"m": m_star, "total": total, "set": []},
                (pin, floor_step),
            )
        )
        return ProofTrace(n, Case.NCG1, "", tuple(steps), Verdict.CONTRADICTION, "pigeonhole")
    taken = {n - 1 + 2 * (m - 1): m for m in range(1, m1 + 1)}
    candidates = [n - 1 + 2 * s for s in admissible]
    if not set(candidates) <= taken.keys():
        raise TraceError("pigeonhole range escaped the occupied degrees")
    collisions = {q: taken[q] for q in candidates}
    steps.append(
        _contradiction(
            f"pigeonhole at {label}: i(c^{m_star}) must equal i(c^r) for some "
            f"r in {sorted(collisions.values())}, contradicting uniqueness",
            "pigeonhole",
            "L6.5",
            {"m": m_star, "candidates": candidates, "collisions": collisions},
            (pin, floor_step),
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
                (0, 1),
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
                (0,),
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
                    (0,),
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
                    (0,),
                )
            )
            return ProofTrace(n, case, subcase, tuple(steps), Verdict.CONTRADICTION, "integrality")
        raise TraceError(f"NCG5 subcase with consistent integer p = {ihat} left open")

    # NCG2 / NCG3 with positive pinned ihat: pin i(c) = p = n-1, then bound k
    steps.append(_morse_parity_fact(n, p_parity))
    steps.extend(_corollary_6_4(n, len(steps) - 1))
    cor = len(steps) - 1
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
                _rule(n, "Eq(6.18)"),
                {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2},
                (0, cor),
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
                _rule(n, "Eq(6.17)"),
                {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2},
                (0, cor),
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

# Every rule a trace may cite, keyed by (rule, contradiction kind), with the
# rules of the earlier steps whose values it reads, in premise order; "a|b"
# admits a step of either rule.  Even-n names; _PREMISES[n % 2] is the table.
_PREMISE_RULES = {
    ("L6.1", None): (),
    ("Eq(5.5)", None): (),
    ("Prop2.1", None): (),
    ("L6.2", None): (),
    ("L6.3", None): ("Prop2.1",),
    ("Cor6.4", None): ("L6.2", "L6.3"),
    ("Eq(6.7)", None): ("Eq(5.5)", "Cor6.4"),
    ("Eq(6.9)", None): ("Eq(6.7)",),
    ("Eq(6.11)", None): ("Eq(6.9)",),
    ("Claim1", None): ("Eq(6.11)", "Claim1|Cor6.4"),  # its floor sum, the iterate before
    ("Eq(6.14)", None): ("Eq(6.9)",),
    ("L6.5", None): ("Cor6.4", "Claim1"),
    ("L6.5", "pigeonhole"): ("Eq(5.5)", "Eq(6.14)"),
    ("Eq(6.14)", "pigeonhole"): ("Eq(5.5)", "Eq(6.14)"),
    ("L6.1", "sign"): ("Eq(5.5)", "L6.1"),
    ("Eq(5.5)", "irrationality"): ("Eq(5.5)",),
    ("Eq(5.5)", "integrality"): ("Eq(5.5)",),
    ("Step2-Subcase5.1", "integrality"): ("Eq(5.5)",),
    ("Eq(6.17)", "rotation-count"): ("Eq(5.5)", "Cor6.4"),
    ("Eq(6.18)", "rotation-count"): ("Eq(5.5)", "Cor6.4"),
}
_PREMISES = tuple(
    {(_rule(parity, rule), kind): tuple(tuple(_rule(parity, r) for r in slot.split("|"))
                                        for slot in slots)
     for (rule, kind), slots in _PREMISE_RULES.items()}
    for parity in (0, 1)
)


def verify_trace(trace: ProofTrace) -> bool:
    """Re-validate every numeric claim of a trace with exact arithmetic.

    Raises TraceError on the first failed re-check; returns True otherwise.
    The checker recomputes each quantity from the payload inputs rather
    than trusting the recorded statement strings, and requires each step's
    premises to be earlier steps of the rules its own rule reads.
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
    pinned = None  # the ihat this trace's own Eq(5.5) step pins
    for i, fact in enumerate(trace.steps):
        _verify_premises(n, trace.steps, i)
        _verify_fact(n, fact)
        p = fact.payload
        if fact.kind is FactKind.MeanIndexEquals and "s" in p:
            if (p["N"], p["s"]) != _period_and_sign(trace.case, int(trace.subcase == "p odd"), n):
                raise TraceError(f"(N, s) of the identity do not fit the case: {fact.statement}")
            pinned = p["value"]
        elif "ihat" in p and p["ihat"] != pinned:
            raise TraceError(f"ihat = {p['ihat']} is not the pinned mean index {pinned}")
    return True


def _verify_premises(n: int, steps: tuple[SymbolicFact, ...], i: int) -> None:
    fact = steps[i]
    slots = _PREMISES[n % 2].get((fact.rule, fact.payload.get("contradiction_kind")))
    if slots is None:
        raise TraceError(f"rule {fact.rule!r} is not a step of the derivation at n = {n}")
    premises = fact.premises
    if not (isinstance(premises, tuple) and len(premises) == len(slots) and all(
            type(j) is int and 0 <= j < i and steps[j].rule in slot
            for j, slot in zip(premises, slots))):
        raise TraceError(f"premises {premises!r} of step {i} ({fact.rule}) are not earlier "
                         f"steps of the rules {[' or '.join(s) for s in slots]}")
    if fact.rule == "Claim1":  # its own floor sum, and the iterate just before it
        m = fact.payload["m"]
        if [steps[j].payload.get("m") for j in premises] != [m, m - 1 if m > 2 else None]:
            raise TraceError(f"Claim1 at m = {m} must rest on its floor sum and on i(c^{m - 1})")


def _verify_fact(n: int, fact: SymbolicFact) -> None:
    p = fact.payload
    if fact.kind is FactKind.MeanIndexEquals and "s" in p:
        # identity instantiation: s/(N * ihat) must equal the Euler value
        if Fraction(p["s"]) / (p["N"] * Fraction(p["value"])) != euler_limit(n):
            raise TraceError(f"identity re-check failed: {fact.statement}")
    if fact.kind is FactKind.FloorSumRange:
        expected = floor_sum_range(p["m"], p["terms"], Fraction(p["total"]))
        if p["set"] != _ends(expected):
            raise TraceError(f"floor-sum range re-check failed: {fact.statement}")
    if fact.rule == "L6.2" or (fact.rule == "L6.1" and fact.kind is not FactKind.Contradiction):
        # the evidence is required, and it is the one failure of the zero table
        M, v = _lemma_6_1_failure(n)
        if p.get("hypothetical_M") != M or p.get("evidence") != v:
            raise TraceError(f"{fact.rule} evidence not reproduced: expected {v} of {M}")
    elif "evidence" in p:
        _verify_violation(n, p["evidence"], p.get("hypothetical_M"))
    if fact.rule == "L6.3":
        refuted = _lemma_6_3_refutations(n)
        if p.get("refuted") != refuted or p.get("vacuous_hypothesis") is not (not refuted):
            raise TraceError("L6.3 refutations not reproduced: each i(c) < n-1 of the "
                             "parity of n-1 needs its table and failure, in order")
    if fact.kind is FactKind.IndexEquals and "i" in p:
        if (p["i"] - (n - 1)) % 2 != 0 or not (0 <= (p["i"] - (n - 1)) // 2 <= p["m"] - 1):
            raise TraceError(f"iterate index re-check failed: {fact.statement}")
    if fact.kind is FactKind.Contradiction:
        _verify_contradiction(n, fact)


def _verify_violation(n: int, v: Violation, M: dict | None) -> None:
    if not isinstance(v, Violation) or _violation_at(M, n, v.q, v.kind) != v:
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
            if Fraction(p["p_half"]) != ihat / 2 or not ihat / 2 < 1:
                raise TraceError("p/2 contradiction needs p/2 = ihat/2 < 1")
        elif ihat.denominator == 1:
            raise TraceError("integrality contradiction cites an integer value")
    elif kind == "rotation-count":
        if (p["k_lower"], p["k_upper"]) != (n - 1, n - 2):
            raise TraceError("rotation-count bounds must be k >= n-1 and k <= n-2")
    elif kind == "pigeonhole":
        if "collisions" in p:
            c = p["collisions"]  # each candidate degree q = i(c^r) of an earlier iterate r
            if not c or set(c) != set(p["candidates"]) or any(
                    q != n - 1 + 2 * (r - 1) or not 1 <= r < p["m"] for q, r in c.items()):
                raise TraceError("pigeonhole collisions must map each candidate to its iterate")
        else:
            expected = floor_sum_range(p["m"], n - 1, Fraction(p["total"]))
            if expected:
                raise TraceError("empty-range pigeonhole re-check found admissible values")
    elif fact.rule == "L6.5" and "evidence" in p:
        pass  # evidence already re-validated via the violation table
    else:
        raise TraceError(f"unknown contradiction kind: {kind!r}")


# -- certificate serialization ---------------------------------------------

CERTIFICATE_SCHEMA = 2


def certificate(n: int, traces: list[ProofTrace] | None = None) -> dict:
    """The certificate of these traces (by default all of them); one that
    leaves a case shape out is marked partial."""
    if traces is None:
        traces = replay(n)
    doc = {"schema": CERTIFICATE_SCHEMA, "n": n, "traces": [t.to_json() for t in traces]}
    if {t.case for t in traces} != set(Case):
        doc["partial"] = True
    return doc


def certificate_json(n: int) -> str:
    return json.dumps(certificate(n), sort_keys=True, separators=(",", ":"), default=json_default)
