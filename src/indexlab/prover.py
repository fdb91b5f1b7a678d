"""Mechanical replay of the single-geodesic case analysis.

Under the hypothesis that exactly one prime closed geodesic exists on the
bumpy n-sphere, every case shape and parity subcase of its linearized
return map leads to a contradiction.  This module derives each
contradiction as an ordered list of justified facts over exact rationals.
It chooses only the sequence of rules, their branches and the iterates of
the floor sums: `checker._Steps` builds each step, linking its premises and
deriving its values through its row of the rule table, and refuses a choice
out of order, uncited or unjustified; `checker` rebuilds every step of the
parsed certificate with the same builder.  A step holds values only: `render`
rebuilds each step's prose, and the equation number odd n cites, from them.

The engine works symbolically: a constraint like "the rotation numbers sum
to a rational" is a fact about the model family, never an instantiated
choice of rotation numbers -- several contradictions hinge on a rational
sum of irrationals, which no concrete choice could exhibit.
"""

from __future__ import annotations

import json

# the benchmark traces verify_trace and floor_sum_range as prover.*, so both are bound here
from .checker import (CERTIFICATE_SCHEMA, _CLOSINGS, _LEAST, Trace, _Steps, _subcases,
                      floor_sum_range, verify_trace)


def _corollary_6_4(steps: _Steps) -> None:
    """Add the Prop2.1, L6.2, L6.3 and Cor6.4 steps that pin i(c) = n-1."""
    for rule in ("Prop2.1", "L6.2", "L6.3", "Cor6.4"):
        steps.add(rule)


def _replay_ncg1(n: int) -> Trace:
    steps = _Steps(n, "NCG1")
    steps.add("Eq(5.5)")
    _corollary_6_4(steps)
    steps.add("Eq(6.7)")
    steps.add("Eq(6.9)")
    # below the pigeonhole iterate m1 + 1, where the exact rotation sum is an
    # integer, every floor-sum range is [0, m-1] and uniqueness forces its top
    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    if m1 >= 2:
        steps.add("Eq(6.11)", iterates=[2, m1])
        steps.add("Claim1")
    if steps.add("Eq(6.14)", m=m1 + 1)["set"]:
        steps.add("L6.5", "pigeonhole")
    else:
        steps.add("Eq(6.14)", "pigeonhole")
    return steps.close()


def _replay_subcase(n: int, case: str, subcase: str) -> Trace:
    steps = _Steps(n, case, subcase)
    if steps.add("Eq(5.5)")["value"] <= 0:
        steps.add("L6.1")
        steps.add("L6.1", "sign")
    elif case == "NCG4":
        steps.add("Eq(5.5)", "irrationality")
    elif case == "NCG5":  # ihat = p, a non-negative integer of the assumed parity
        steps.add("Step2-Subcase5.1" if n % 2 and subcase == "p even" else "Eq(5.5)",
                  "integrality")
    else:
        # NCG2 / NCG3 with positive pinned ihat: pin i(c) = p = n-1, then bound k
        _corollary_6_4(steps)
        # p - k even gives p <= k (Eq(6.18)), odd gives n-2 < k (Eq(6.17)): both exceed n-2
        steps.add("Eq(6.18)" if (subcase == "p even") == (case == "NCG2") else "Eq(6.17)",
                  "rotation-count")
    return steps.close()


def replay(n: int) -> list[Trace]:
    """All case/parity traces for dimension n, each ending in a verdict."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [t for case in _CLOSINGS for t in _replay_case(n, case)]


def _replay_case(n: int, case: str) -> list[Trace]:
    """The traces of one case shape: one per parity subcase, or one verdict."""
    if n < _LEAST[case]:
        return [Trace(case, "", [], "vacuous", "")]
    return [_replay_ncg1(n) if case == "NCG1" else _replay_subcase(n, case, subcase)
            for subcase in _subcases(n, case)]


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

# The statement of each row, a format string over the values the row derives
# and the fields that `render` adds: n1 = n-1, the iterate m named as n's
# parity names it, the trace's subcase, the premises' derived values and, for
# Lemma 6.3, what its hypotheses refute.
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
    its statement, rebuilt from the values the kernel's builder derives for the
    step and its premises, which a verified trace holds.  The text is presentation
    only; the checker reads the values alone."""
    steps, out = _Steps(n, trace["case"], trace["subcase"]), []
    for step in trace["steps"]:
        rule, kind = step["rule"], step["values"].get("contradiction_kind")
        v = steps.add(rule, kind, **step["values"])
        fields = {**v, "n1": n - 1, "at": f"{'m2' if n % 2 else 'm'} = {v.get('m')}", "subcase":
                  trace["subcase"], "premises": [steps.derived[j] for j in steps.premises[-1]]}
        if "hypotheses" in v:
            fields["refuted"] = (f"each hypothetical i(c) in {v['hypotheses']}, in steps of 2, "
                                 "fails the alternating sum at i(c)+1: -1 >= 0"
                                 if v["hypotheses"] else "hypothesis range below n-1 is empty")
        out.append((_ODD_RULE.get(rule, rule) if n % 2 else rule,
                    _TEXT[rule, kind].format_map(fields)))
    return out
