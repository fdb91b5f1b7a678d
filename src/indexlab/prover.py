"""Mechanical replay of the single-geodesic case analysis.

Under the hypothesis that exactly one prime closed geodesic exists on the
bumpy n-sphere, every case shape and parity subcase of its linearized
return map leads to a contradiction.  This module derives each
contradiction as an ordered list of justified facts over exact rationals.
It chooses only the sequence of rules, their branches and the iterates of
the floor sums: `checker._Steps` builds each step, linking its premises and
deriving its values through its row of the rule table, and refuses a choice
out of order, uncited or unjustified; `checker` rebuilds every step of the
parsed certificate with the same builder.  A step holds values only, and its
rule is named as the paper cites it for even n, at every n (README's table
gives the numbers odd n cites).

The engine works symbolically: a constraint like "the rotation numbers sum
to a rational" is a fact about the model family, never an instantiated
choice of rotation numbers -- several contradictions hinge on a rational
sum of irrationals, which no concrete choice could exhibit.
"""

from __future__ import annotations

import json

# the benchmark traces verify_trace and floor_sum_range as prover.*, so both are bound here
from .checker import (CERTIFICATE_SCHEMA, _CLOSINGS, Trace, _Steps, _subcases,
                      floor_sum_range, verify_trace)


def _corollary_6_4(steps: _Steps) -> None:
    """Add the Prop2.1, L6.2, L6.3 and Cor6.4 steps that pin i(c) = n-1."""
    for rule in ("Prop2.1", "L6.2", "L6.3", "Cor6.4"):
        steps.add(rule)


def _replay(n: int, case: str, subcase: str) -> Trace:
    """The trace of (case, subcase) at n: vacuous where no census at n has the shape."""
    steps = _Steps(n, case, subcase)
    if steps.vacuous:
        return steps.close()
    if steps.add("Eq(5.5)")["value"] <= 0:
        steps.add("L6.1")
        steps.add("L6.1", "sign")
    elif case == "NCG4":
        steps.add("Eq(5.5)", "irrationality")
    elif case == "NCG5":  # ihat = p > 0, an integer of the assumed parity: even only at odd n
        steps.add("Step2-Subcase5.1" if subcase == "p even" else "Eq(5.5)", "integrality")
    elif case != "NCG1":
        # i(c) = p = n-1, and k >= p (Eq(6.18) if p - k is even, else Eq(6.17)) exceeds n-2
        _corollary_6_4(steps)
        steps.add("Eq(6.18)" if (subcase == "p even") == (case == "NCG2") else "Eq(6.17)",
                  "rotation-count")
    else:  # NCG1, whose pin is positive at every n
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


def replay(n: int) -> list[Trace]:
    """All case/parity traces for dimension n, each ending in a verdict: one per subcase of
    each case shape, and one vacuous trace for a shape that no census at n reaches."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [_replay(n, case, subcase) for case in _CLOSINGS for subcase in _subcases(n, case)]


# -- certificate serialization ---------------------------------------------

def certificate(n: int) -> dict:
    """The certificate of every trace that replay derives at n."""
    return {"schema": CERTIFICATE_SCHEMA, "n": n, "traces": [t._asdict() for t in replay(n)]}


def certificate_json(n: int) -> str:
    """The certificate as the canonical JSON text that `prove` checks and writes."""
    return json.dumps(certificate(n), sort_keys=True, separators=(",", ":"))
