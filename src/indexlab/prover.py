"""Mechanical replay of the single-geodesic case analysis.

Under the hypothesis that exactly one prime closed geodesic exists on the
bumpy n-sphere, every case shape and parity subcase of its linearized
return map leads to a contradiction.  This module derives each
contradiction as an ordered list of justified facts over exact rationals,
each built as the JSON object the certificate holds; `checker` re-validates
every numeric step of the parsed certificate.

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
from .checker import (CERTIFICATE_SCHEMA, _CLOSINGS, _TABLE, _ends, _period_and_sign, _rule,
                      _shape_vacuity, check_lemma_6_1, check_lemma_6_2, check_lemma_6_3,
                      floor_sum_range, verify_trace)
from .morse import euler_limit

# One replayed trace, each field the JSON value the certificate holds: the case
# tag, "" or a parity subcase, the steps, "contradiction" or "vacuous", and the
# contradiction kind or vacuity reason.
Trace = namedtuple("Trace", "case subcase steps verdict detail")


class _Steps(list):
    """The steps of one trace, each linked by `add` to the premises its row
    names: for each premise slot, the latest earlier step of a rule in it."""

    def __init__(self, n: int):
        super().__init__()
        self.n, self.rows, self.at = n, _TABLE[n % 2], {}

    def add(self, rule: str, statement: str, values: dict) -> None:
        """Append the step of this even-n rule under n's own number, fractions spelled "a/b"."""
        rule = _rule(self.n, rule)
        kind, slots, *_ = self.rows[rule, values.get("contradiction_kind")]
        self.append({"rule": rule, "kind": kind, "statement": statement, "values": {
            k: f"{v.numerator}/{v.denominator}" if type(v) is Fraction else v
            for k, v in values.items()},
            "premises": [max(self.at.get(r, -1) for r in slot) for slot in slots]})
        self.at[rule] = len(self) - 1

    def close(self, case: str, subcase: str = "") -> Trace:
        """The trace these steps derive, named after the contradiction of its last step."""
        return Trace(case, subcase, list(self), "contradiction",
                     self[-1]["values"]["contradiction_kind"])


def _identity_pin(steps: _Steps, case: str, p_parity: int) -> Fraction:
    """Add the Eq(5.5) step and return the ihat it pins."""
    n = steps.n
    N, s = _period_and_sign(case, p_parity, n)
    R = euler_limit(n)
    ihat = Fraction(s) / (N * R)  # s/(N*ihat) = R solved for ihat
    steps.add("Eq(5.5)", f"identity forces {s:+d}/({N}*ihat) = {R}, i.e. ihat = {ihat}",
              {"relation": "=", "value": ihat, "s": s, "N": N, "rhs": R})
    return ihat


def _corollary_6_4(steps: _Steps) -> None:
    """Add the Prop2.1, L6.2, L6.3 and Cor6.4 steps that pin i(c) = n-1."""
    n = steps.n
    dead = "even" if n % 2 == 0 else "odd"  # i(c) has the parity of n-1
    steps.add("Prop2.1", "every contributing iterate has index of the parity of i(c); "
              f"M_q = 0 for {dead} q >= 1", {"zero_parity": dead, "i1_parity": (n - 1) % 2})
    steps.add("L6.2", *check_lemma_6_2(n))
    steps.add("L6.3", *check_lemma_6_3(n))
    steps.add("Cor6.4", f"i(c) = {n - 1}", {"i_c": n - 1})


def _replay_ncg1(n: int) -> Trace:
    steps = _Steps(n)
    ihat = _identity_pin(steps, "NCG1", 0)
    _corollary_6_4(steps)
    # i(c) = n-1 forces 2p + (n-2r-1) = n-1, so p = r; ihat < 2 with at
    # least one rotation contributing strictly positive angle forces p = 0.
    steps.add("Eq(6.7)",
              f"2p + (n-2r-1) = {n - 1} gives p = r; ihat = {ihat} < 2 forces p = r = 0",
              {"p": 0, "r": 0, "ihat": ihat})
    terms = n - 1
    rho_sum = ihat / 2  # sum of rotation numbers theta_i/(2 pi)
    steps.add("Eq(6.9)", f"sum of the {terms} rotation numbers = ihat/2 = {rho_sum}, a rational",
              {"relation": "=", "value": rho_sum, "terms": terms})

    # below the pigeonhole iterate m1 + 1, where the exact rotation sum is an
    # integer, every floor-sum range is [0, m-1] and uniqueness forces its top
    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    if m1 >= 2:
        steps.add("Eq(6.11)", f"floor sum at each m in [2, {m1}] lies in [0, m-1], "
                  f"as m*(1 - {rho_sum}) < 1", {"iterates": [2, m1], "terms": terms})
        steps.add("Claim1", f"i(c^m) = {n - 1} + 2(m-1) for 1 <= m <= {m1} (by induction: lower "
                  "values collide with earlier iterates)", {"m": m1, "i": n - 1 + 2 * (m1 - 1)})
    m = m1 + 1
    total = m * rho_sum
    label = f"m = {m}" if n % 2 == 0 else f"m2 = {m}"
    ends = _ends(floor_sum_range(m, terms, total))
    steps.add("Eq(6.14)", f"floor sum at {label} lies in {ends} (exact total {total})",
              {"m": m, "terms": terms, "total": total, "set": ends})
    if ends:
        steps.add("L6.5", f"pigeonhole at {label}: i(c^{m}) = {n - 1} + 2s with s in {ends} is "
                  "the index of the earlier iterate c^(s+1), contradicting uniqueness",
                  {"m": m, "set": ends, "contradiction_kind": "pigeonhole"})
    else:
        steps.add("Eq(6.14)", f"pigeonhole at {label}: no admissible floor sum exists, yet the "
                  f"irrational rotation numbers must realize the exact total {total}",
                  {"m": m, "total": total, "set": [], "contradiction_kind": "pigeonhole"})
    return steps.close("NCG1")


def _replay_subcase(n: int, case: str, p_parity: int) -> Trace:
    subcase = "p even" if p_parity % 2 == 0 else "p odd"
    steps = _Steps(n)
    ihat = _identity_pin(steps, case, p_parity)

    if ihat <= 0:
        steps.add("L6.1", *check_lemma_6_1(n))
        steps.add("L6.1", f"pinned ihat = {ihat} <= 0 contradicts ihat > 0",
                  {"ihat": ihat, "contradiction_kind": "sign"})
    elif case == "NCG4":
        steps.add("Eq(5.5)", f"ihat = (p-1) + theta_1/pi is irrational, but the identity pins "
                  f"ihat = {ihat}, a rational",
                  {"ihat": ihat, "contradiction_kind": "irrationality"})
    elif case == "NCG5":
        # ihat = p, a non-negative integer of the assumed parity
        if n % 2 == 1 and p_parity % 2 == 0:
            steps.add("Step2-Subcase5.1",
                      "p is a positive even integer, so 1 > (n-1)/(n+1) = p/2 >= 1",
                      {"ihat": ihat, "p_half": ihat / 2, "contradiction_kind": "integrality"})
        else:  # n even, p odd: the pin (n-1)/n is never an integer
            steps.add("Eq(5.5)", f"ihat = p must be an integer with p {subcase.split()[1]}, "
                      f"but the identity pins p = {ihat}",
                      {"ihat": ihat, "contradiction_kind": "integrality"})
    else:
        # NCG2 / NCG3 with positive pinned ihat: pin i(c) = p = n-1, then bound k
        _corollary_6_4(steps)
        k_parity = 0 if case == "NCG2" else 1
        bounds = {"ihat": ihat, "k_lower": n - 1, "k_upper": n - 2,
                  "contradiction_kind": "rotation-count"}
        if (p_parity - k_parity) % 2 == 0:
            steps.add("Eq(6.18)", f"p - k is even and p - k <= ihat = {ihat} < 2 gives p <= k, so "
                      f"n-1 = p <= k contradicts k <= n-2r-2 <= {n - 2}", bounds)
        else:
            steps.add("Eq(6.17)", f"p - k = n-1-k < ihat = {ihat} < 1 yields n-2 < k, which "
                      f"contradicts k <= n-2r-2 <= {n - 2}", bounds)
    return steps.close(case, subcase)


def replay(n: int) -> list[Trace]:
    """All case/parity traces for dimension n, each ending in a verdict."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [t for case in _CLOSINGS for t in _replay_case(n, case)]


def _replay_case(n: int, case: str) -> list[Trace]:
    """The traces of one case shape: one per parity subcase, or one verdict."""
    reason = _shape_vacuity(n, case)
    if reason is not None:
        return [Trace(case, "", [], "vacuous", reason)]
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
