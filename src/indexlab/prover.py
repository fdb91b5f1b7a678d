"""Mechanical replay of the single-geodesic case analysis.

Under the hypothesis that exactly one prime closed geodesic exists on the
bumpy n-sphere, every case shape and parity subcase of its linearized
return map leads to a contradiction.  This module derives each
contradiction as an ordered list of justified facts over exact rationals,
each built as the JSON object the certificate holds; `checker` re-validates
every step of the parsed certificate.  A step holds values only: `render`
rebuilds each step's prose, and the equation number odd n cites, from them.

The engine works symbolically: a constraint like "the rotation numbers sum
to a rational" is a fact about the model family, never an instantiated
choice of rotation numbers -- several contradictions hinge on a rational
sum of irrationals, which no concrete choice could exhibit.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

# the benchmark traces verify_trace and floor_sum_range as prover.*, so both are bound here
from .checker import (CERTIFICATE_SCHEMA, _CLOSINGS, _FRACTIONS, _TABLE, _ends,
                      _period_and_sign, _premises, _reached, check_lemma_6_1, check_lemma_6_2,
                      check_lemma_6_3, euler_limit, floor_sum_range, verify_trace)

# One replayed trace, each field the JSON value the certificate holds: the case
# tag, "" or a parity subcase, the steps, "contradiction" or "vacuous", and the
# contradiction kind, or "" for a vacuous trace (`vacuity` gives its reason).
Trace = namedtuple("Trace", "case subcase steps verdict detail")


class _Steps(list):
    """The steps of one trace, whose premises their order implies (`checker._premises`)."""

    def add(self, rule: str, values: dict) -> None:
        """Append the step of this rule, fractions spelled "a/b"."""
        self.append({"rule": rule, "kind": _TABLE[rule, values.get("contradiction_kind")][0],
                     "values": {k: f"{v.numerator}/{v.denominator}" if type(v) is Fraction
                                else v for k, v in values.items()}})

    def close(self, case: str, subcase: str = "") -> Trace:
        """The trace these steps derive, named after the contradiction of its last step."""
        return Trace(case, subcase, list(self), "contradiction",
                     self[-1]["values"]["contradiction_kind"])


def _identity_pin(steps: _Steps, n: int, case: str, p_parity: int) -> Fraction:
    """Add the Eq(5.5) step and return the ihat it pins."""
    N, s = _period_and_sign(case, p_parity, n)
    R = euler_limit(n)
    ihat = Fraction(s) / (N * R)  # s/(N*ihat) = R solved for ihat
    steps.add("Eq(5.5)", {"value": ihat, "s": s, "N": N, "rhs": R})
    return ihat


def _corollary_6_4(steps: _Steps, n: int) -> None:
    """Add the Prop2.1, L6.2, L6.3 and Cor6.4 steps that pin i(c) = n-1."""
    dead = "even" if n % 2 == 0 else "odd"  # i(c) has the parity of n-1
    steps.add("Prop2.1", {"zero_parity": dead, "i1_parity": (n - 1) % 2})
    steps.add("L6.2", check_lemma_6_2(n))
    steps.add("L6.3", check_lemma_6_3(n))
    steps.add("Cor6.4", {"i_c": n - 1})


def _replay_ncg1(n: int) -> Trace:
    steps = _Steps()
    ihat = _identity_pin(steps, n, "NCG1", 0)
    _corollary_6_4(steps, n)
    # i(c) = n-1 forces 2p + (n-2r-1) = n-1, so p = r; ihat < 2 with at
    # least one rotation contributing strictly positive angle forces p = 0.
    steps.add("Eq(6.7)", {"p": 0, "r": 0, "ihat": ihat})
    terms = n - 1
    rho_sum = ihat / 2  # sum of rotation numbers theta_i/(2 pi)
    steps.add("Eq(6.9)", {"value": rho_sum, "terms": terms})

    # below the pigeonhole iterate m1 + 1, where the exact rotation sum is an
    # integer, every floor-sum range is [0, m-1] and uniqueness forces its top
    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    if m1 >= 2:
        steps.add("Eq(6.11)", {"iterates": [2, m1], "terms": terms})
        steps.add("Claim1", {"m": m1, "i": n - 1 + 2 * (m1 - 1)})
    m = m1 + 1
    total = m * rho_sum
    ends = _ends(floor_sum_range(m, terms, total))
    steps.add("Eq(6.14)", {"m": m, "terms": terms, "total": total, "set": ends})
    if ends:
        steps.add("L6.5", {"m": m, "set": ends, "contradiction_kind": "pigeonhole"})
    else:
        steps.add("Eq(6.14)", {"m": m, "total": total, "set": [],
                               "contradiction_kind": "pigeonhole"})
    return steps.close("NCG1")


def _replay_subcase(n: int, case: str, p_parity: int) -> Trace:
    subcase = "p even" if p_parity % 2 == 0 else "p odd"
    steps = _Steps()
    ihat = _identity_pin(steps, n, case, p_parity)

    if ihat <= 0:
        steps.add("L6.1", check_lemma_6_1(n))
        steps.add("L6.1", {"ihat": ihat, "contradiction_kind": "sign"})
    elif case == "NCG4":
        steps.add("Eq(5.5)", {"ihat": ihat, "contradiction_kind": "irrationality"})
    elif case == "NCG5":
        # ihat = p, a non-negative integer of the assumed parity
        if n % 2 == 1 and p_parity % 2 == 0:
            steps.add("Step2-Subcase5.1",
                      {"ihat": ihat, "p_half": ihat / 2, "contradiction_kind": "integrality"})
        else:  # n even, p odd: the pin (n-1)/n is never an integer
            steps.add("Eq(5.5)", {"ihat": ihat, "contradiction_kind": "integrality"})
    else:
        # NCG2 / NCG3 with positive pinned ihat: pin i(c) = p = n-1, then bound k
        _corollary_6_4(steps, n)
        k_parity = 0 if case == "NCG2" else 1
        bounds = {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2,
                  "contradiction_kind": "rotation-count"}
        # p - k even gives p <= k (Eq(6.18)), odd gives n-2 < k (Eq(6.17)): both exceed n-2
        steps.add("Eq(6.18)" if (p_parity - k_parity) % 2 == 0 else "Eq(6.17)", bounds)
    return steps.close(case, subcase)


def replay(n: int) -> list[Trace]:
    """All case/parity traces for dimension n, each ending in a verdict."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [t for case in _CLOSINGS for t in _replay_case(n, case)]


def _replay_case(n: int, case: str) -> list[Trace]:
    """The traces of one case shape: one per parity subcase, or one verdict."""
    if case not in _reached(n):
        return [Trace(case, "", [], "vacuous", "")]
    return [_replay_ncg1(n)] if case == "NCG1" else [_replay_subcase(n, case, p) for p in (0, 1)]


# -- certificate serialization ---------------------------------------------

def certificate(n: int, traces: list[Trace] | None = None) -> dict:
    """The certificate of these traces (by default all of them); one that
    leaves a case shape out is marked partial."""
    if traces is None:
        traces = replay(n)
    doc = {"schema": CERTIFICATE_SCHEMA, "n": n, "traces": [t._asdict() for t in traces]}
    if len({t.case for t in traces}) < len(_CLOSINGS):
        doc["partial"] = True
    return doc


def certificate_json(n: int, traces: list[Trace] | None = None) -> str:
    """The certificate as the canonical JSON text that `prove` checks and writes."""
    return json.dumps(certificate(n, traces), sort_keys=True, separators=(",", ":"))


# -- presentation: the prose of each step, rebuilt on demand, never checked --

# the odd-n numbers of the equations that even n cites as the keys
_ODD_RULE = {"Eq(6.7)": "Eq(6.19)", "Eq(6.9)": "Eq(6.21)", "Eq(6.11)": "Eq(6.23)",
             "Eq(6.14)": "Eq(6.27)", "Eq(6.17)": "Eq(6.31)", "Eq(6.18)": "Eq(6.29)"}

# The statement of each row, a format string over the step's values (fractions
# parsed) and the fields that `render` adds: n1 = n-1, the iterate m named as
# n's parity names it, the trace's subcase, the values of the premises the
# checker derives and, for Lemma 6.3, what its hypotheses refute.
_TEXT = {
    ("L6.1", None): "mean index > 0 (else M_{n1} = {evidence[lhs]} >= b_{n1} = {evidence[rhs]} "
                    "fails)",
    ("Eq(5.5)", None): "identity forces {s:+d}/({N}*ihat) = {rhs}, i.e. ihat = {value}",
    ("Prop2.1", None): "every contributing iterate has index of the parity of i(c); "
                       "M_q = 0 for {zero_parity} q >= 1",
    ("L6.2", None): "i(c) <= {max} (else M_{n1} = {evidence[lhs]} >= b_{n1} = {evidence[rhs]} "
                    "fails)",
    ("L6.3", None): "i(c) >= {min} ({refuted})",
    ("Cor6.4", None): "i(c) = {i_c}",
    ("Eq(6.7)", None): "2p + (n-2r-1) = {n1} gives p = r; ihat = {ihat} < 2 forces p = r = 0",
    ("Eq(6.9)", None): "sum of the {terms} rotation numbers = ihat/2 = {value}, a rational",
    ("Eq(6.11)", None): "floor sum at each m in [2, {iterates[1]}] lies in [0, m-1], "
                        "as m*(1 - {premises[0][value]}) < 1",
    ("Claim1", None): "i(c^m) = {n1} + 2(m-1) for 1 <= m <= {m} (by induction: lower values "
                      "collide with earlier iterates)",
    ("Eq(6.14)", None): "floor sum at {at} lies in {set} (exact total {total})",
    ("L6.5", "pigeonhole"): "pigeonhole at {at}: i(c^{m}) = {n1} + 2s with s in {set} is the "
                            "index of the earlier iterate c^(s+1), contradicting uniqueness",
    ("Eq(6.14)", "pigeonhole"): "pigeonhole at {at}: no admissible floor sum exists, yet the "
                                "irrational rotation numbers must realize the exact total {total}",
    ("L6.1", "sign"): "pinned ihat = {ihat} <= 0 contradicts ihat > 0",
    ("Eq(5.5)", "irrationality"): "ihat = (p-1) + theta_1/pi is irrational, but the identity "
                                  "pins ihat = {ihat}, a rational",
    ("Eq(5.5)", "integrality"): "ihat = p must be an integer with {subcase}, but the identity "
                                "pins p = {ihat}",
    ("Step2-Subcase5.1", "integrality"): "p is a positive even integer, so "
                                         "1 > (n-1)/(n+1) = p/2 >= 1",
    ("Eq(6.17)", "rotation-count"): "p - k = n-1-k < ihat = {ihat} < 1 yields n-2 < k, which "
                                    "contradicts k <= n-2r-2 <= {k_upper}",
    ("Eq(6.18)", "rotation-count"): "p - k is even and p - k <= ihat = {ihat} < 2 gives p <= k, "
                                    "so n-1 = p <= k contradicts k <= n-2r-2 <= {k_upper}",
}


def vacuity(n: int, case: str) -> str:
    """Why no census at n has the shape of a vacuous trace's case: the `detail` that
    schema 5 held, rebuilt as presentation, like `render`, and never checked."""
    return {"NCG2": "even k with 2 <= k <= n-2r-2 unsatisfiable for n = {n}",
            "NCG3": "odd k with 3 <= k <= n-2r-2 unsatisfiable for n = {n}",
            "NCG4": "one rotation plus a hyperbolic block needs n - 2r - 1 >= 2, "
                    "impossible for n = {n}"}[case].format(n=n)


def render(n: int, trace: dict) -> list[tuple[str, str]]:
    """Each step of a certificate trace as the paper states it at n: the
    equation number it cites there (odd n numbers some equations apart) and
    its statement, rebuilt from the step's values and its premises' values.
    The text is presentation only; the checker reads the values alone."""
    steps, out = trace["steps"], []
    parsed = [{k: Fraction(x) if k in _FRACTIONS else x for k, x in step["values"].items()}
              for step in steps]
    for step, v, premises in zip(steps, parsed, _premises(steps)):
        fields = {**v, "n1": n - 1, "at": f"{'m2' if n % 2 else 'm'} = {v.get('m')}",
                  "subcase": trace["subcase"], "premises": [parsed[j] for j in premises]}
        if "hypotheses" in v:
            fields["refuted"] = (f"each hypothetical i(c) in {v['hypotheses']}, in steps of 2, "
                                 "fails the alternating sum at i(c)+1: -1 >= 0"
                                 if v["hypotheses"] else "hypothesis range below n-1 is empty")
        rule = step["rule"]
        out.append((_ODD_RULE.get(rule, rule) if n % 2 else rule,
                    _TEXT[rule, v.get("contradiction_kind")].format_map(fields)))
    return out
