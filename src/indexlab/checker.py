"""The trusted checker: it re-validates every numeric step of a parsed
certificate with exact arithmetic, reading its cases as the certificate's own
strings "NCG1" to "NCG5".  It imports nothing from the package, so this one
file can be audited and run alone (`python -I checker.py CERT.json`); `morse`
takes its Betti closed forms and `prover` its step builder, never the reverse.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction


class TraceError(ValueError):
    """A replayed trace failed re-validation."""


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


# -- Betti closed forms and the averaged Euler value ----------------------

def betti(n: int, q: int) -> int:
    """b_q of the quotient free-loop-space pair of the n-sphere.

    b_q = A_q + A_{q-1} for the alternating sums A of alternating_betti_sum,
    as A_q = b_q - A_{q-1}.
    """
    return alternating_betti_sum(n, q) + alternating_betti_sum(n, q - 1)


def alternating_betti_sum(n: int, q: int) -> int:
    """A_q = b_q - b_{q-1} + b_{q-2} - ... - (+-)b_0, in closed form.

    b_j is 2 on the doubling set K (odd multiples k(n-1), k >= 3, for even n;
    all multiples k(n-1), k >= 2, for odd n), 1 on the arithmetic ray
    n-1 + 2N_0 off K, else 0.  Every nonzero b_j has the parity of n-1 (the
    ray holds K), so each enters with the sign (-1)^(q-n+1), and the sum is
    that sign times (#ray points <= q + #K points <= q).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if q < n - 1:
        return 0
    ray = (q - (n - 1)) // 2 + 1
    k_max = q // (n - 1)  # the multiples k(n-1) <= q
    doubled = (k_max - 1) // 2 if n % 2 == 0 else k_max - 1  # odd k >= 3, resp. k >= 2
    return (ray + doubled) * (1 if (q - n + 1) % 2 == 0 else -1)


def euler_limit(n: int) -> Fraction:
    """Limit of P^m(-1)/m for the sphere loop-space pair."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return Fraction(-n, 2 * (n - 1))
    return Fraction(n + 1, 2 * (n - 1))


# -- lemma checks: each states the Morse failure that refutes its hypothesis

def _zero_table_failure(n: int) -> dict:
    """The zero table of length n that Lemmas 6.1 and 6.2 suppose: M_{n-1} = 0 < b_{n-1}."""
    if not 0 < (b := betti(n, n - 1)):
        raise TraceError(f"the zero table meets b_{n - 1} = {b}")
    return {"evidence": {"q": n - 1, "kind": "pointwise", "lhs": 0, "rhs": b},
            "hypothetical_M": {"length": n, "entries": []}}


def check_lemma_6_1(n: int) -> dict:
    """Positive mean index is forced: zero mean index concentrates every
    local module in degree 0, leaving M_{n-1} = 0 below b_{n-1} = 1."""
    return {"value": Fraction(0)} | _zero_table_failure(n)


def check_lemma_6_2(n: int) -> dict:
    """i(c) <= n-1 is forced: a larger initial index empties every degree
    up to n-1, again contradicting b_{n-1} = 1."""
    return {"max": n - 1} | _zero_table_failure(n)


def check_lemma_6_3(n: int) -> dict:
    """i(c) >= n-1 under the one-sided Morse vanishing of n's parity.

    For n even, i(c) is odd and all even-degree M vanish; for n odd, i(c) is
    even and all odd-degree M vanish.  Every admissible hypothetical
    i(c) = i0 < n-1 is refuted the same way: the table with 1 at degree i0
    fails the alternating inequality at i0 + 1 with -1 < 0.  One family step
    covers them all: `hypotheses` holds the first and last i0 (in steps of
    2), and the table and its failure are read relative to i0.
    """
    hypotheses = _ends(range(1 + n % 2, n - 2, 2))
    values = {"min": n - 1, "hypotheses": hypotheses}
    if hypotheses:  # M_{i0+1} - M_{i0} = -1 below A_{i0+1}, which is 0 for every i0 + 1 < n-1
        if not -1 < (rhs := alternating_betti_sum(n, hypotheses[1] + 1)):
            raise TraceError(f"A_{hypotheses[1] + 1} = {rhs} is not above the table's -1")
        values |= {"evidence": {"q": 1, "kind": "alternating", "lhs": -1, "rhs": rhs},
                   "hypothetical_M": {"length": 2, "entries": [[0, 1]]}}
    return values


# -- the rule table --------------------------------------------------------

# Each derivation reads the trace's scope t = (n, case, subcase), the values the
# step chooses (the iterate m of Eq(6.14), the last of Eq(6.11)'s iterates) and
# its premises' derived values.  It returns the step's values, fractions as
# Fractions, or raises TraceError where the premises do not justify the step.

def _identity(t, p):
    """Eq(5.5), s/(N*ihat) = R, solved for ihat.  s = (-1)^i(c), as the m = 2 term of a
    period N = 2 vanishes (its type number is 0).  For NCG1 i(c) has the parity of n-1
    and N = 1; for the other cases i(c) = p and N follows the parity table."""
    if t.case == "NCG1":
        N, s = 1, (1 if (t.n - 1) % 2 == 0 else -1)
    else:
        s = 1 if t.subcase == "p even" else -1
        N = 1 if (s == 1) == (t.case in ("NCG2", "NCG5")) else 2
    R = euler_limit(t.n)
    return {"N": N, "rhs": R, "s": s, "value": Fraction(s * R.denominator, N * R.numerator)}


def _corollary_6_4(t, p, upper, lower):
    if upper["max"] != lower["min"]:
        raise TraceError("Cor6.4 needs the L6.2 and L6.3 bounds to meet")
    return {"i_c": upper["max"]}


def _eq_6_7(t, p, pin, cor):
    # i(c) = n-1 forces 2p + (n-2r-1) = n-1, so p = r; ihat < 2 with at least one
    # rotation contributing a positive angle forces p = r = 0
    if pin["value"] >= 2:
        raise TraceError("p = r = 0 needs ihat < 2")
    return {"ihat": pin["value"], "p": 0, "r": 0}


def _floor_sum_family(t, p, rho):
    # with rho = a/b the range at m is [0, m-1] iff m*rho < terms and m*(b-a) < b; both
    # are monotone in m, so holding at the last iterate m1 they hold for every m <= m1
    m1 = p["iterates"][-1]
    if floor_sum_range(m1, rho["terms"], m1 * rho["value"]) != range(m1):
        raise TraceError(f"the floor-sum range at m = {quote(m1)} is not [0, m-1]")
    return {"iterates": [2, m1], "terms": rho["terms"]}


def _floor_sum(t, p, rho):
    m, terms = p["m"], rho["terms"]
    total = m * rho["value"]
    return {"m": m, "set": _ends(floor_sum_range(m, terms, total)), "terms": terms,
            "total": total}


def _claim_1(t, p, family, base):
    # induction on m from i(c^1) = i(c): i(c^m) = i(c) + 2s for s in [0, m-1], and each
    # s < m-1 is the degree i(c) + 2s of the earlier iterate s + 1, so s = m-1
    m = family["iterates"][1]
    return {"i": base["i_c"] + 2 * (m - 1), "m": m}


def _pigeonhole(t, p, known, floor):
    # each admissible floor sum s puts i(c^m) on the degree i(c) + 2s of the earlier
    # iterate s + 1, whose index the Claim1 induction up to `known` has established
    if not floor["set"] or not floor["set"][1] < known.get("m", 1) < floor["m"]:
        raise TraceError("the pigeonhole needs a floor-sum range below the iterates whose "
                         "indices are established")
    return {"m": floor["m"], "set": floor["set"]}


def _empty_range(t, p, pin, floor):
    # the least m at which the exact total m*rho is an integer is rho's denominator
    if floor["set"] or floor["m"] != (floor["total"] / floor["m"]).denominator:
        raise TraceError("the empty-range pigeonhole needs an empty floor-sum range at the "
                         "least m whose exact total is an integer")
    return {"m": floor["m"], "set": [], "total": floor["total"]}


def _restated(pin: dict, holds: bool, why: str) -> dict:
    """The pinned ihat that a closing restates, where the condition it cites holds."""
    if not holds:
        raise TraceError(why)
    return {"ihat": pin["value"]}


def _p_half(t, p, pin):  # ihat = p, a positive even integer, so p/2 >= 1
    why = "p/2 contradiction needs p even and 0 < p/2 = ihat/2 < 1"
    return _restated(pin, t.subcase == "p even" and 0 < pin["value"] < 2, why) | {
        "p_half": pin["value"] / 2}


def _rotation_count(t, pin, cor, bound):
    # p - k even gives p - k <= ihat < 2 (Eq(6.18)), odd gives p - k < ihat < 1 (Eq(6.17)):
    # with p = i(c), k >= i(c) either way, while the census gives k <= n-2
    odd = (t.subcase == "p odd") != (t.case == "NCG3")
    why = f"rotation count needs the rule of the parity of p - k and 0 < ihat < {bound}"
    return _restated(pin, bound == 2 - odd and 0 < pin["value"] < bound, why) | {
        "k_lower": cor["i_c"], "k_upper": t.n - 2}


_C = "Contradiction"
# Every step a trace may take, keyed by (rule, contradiction kind): the kind of
# fact it states, the rules of the earlier steps it reads, one slot per premise
# ("a|b" admits a step of either rule), and the derivation of its values.  Rules
# are named as the paper cites them for even n, at every n.  The steps before
# the closing take the rows' order: one spelling per derivation.
_RULES = {
    ("Eq(5.5)", None): ("MeanIndexEquals", (), _identity),
    ("L6.1", None): ("MeanIndexEquals", (), lambda t, p: check_lemma_6_1(t.n)),
    ("Prop2.1", None): ("MorseZeroParity", (), lambda t, p: {
        "i1_parity": (t.n - 1) % 2, "zero_parity": "odd" if t.n % 2 else "even"}),
    ("L6.2", None): ("IndexRange", (), lambda t, p: check_lemma_6_2(t.n)),
    ("L6.3", None): ("IndexRange", ("Prop2.1",), lambda t, p, parity: check_lemma_6_3(t.n)),
    ("Cor6.4", None): ("IndexEquals", ("L6.2", "L6.3"), _corollary_6_4),
    ("Eq(6.7)", None): ("IndexEquals", ("Eq(5.5)", "Cor6.4"), _eq_6_7),
    # the n-1 rotation numbers sum to ihat/2
    ("Eq(6.9)", None): ("MeanIndexEquals", ("Eq(6.7)",), lambda t, p, p_r: {
        "terms": t.n - 1, "value": p_r["ihat"] / 2}),
    ("Eq(6.11)", None): ("FloorSumRange", ("Eq(6.9)",), _floor_sum_family),
    ("Claim1", None): ("IndexEquals", ("Eq(6.11)", "Cor6.4"), _claim_1),
    ("Eq(6.14)", None): ("FloorSumRange", ("Eq(6.9)",), _floor_sum),
    ("L6.5", "pigeonhole"): (_C, ("Claim1|Cor6.4", "Eq(6.14)"), _pigeonhole),
    ("Eq(6.14)", "pigeonhole"): (_C, ("Eq(5.5)", "Eq(6.14)"), _empty_range),
    ("L6.1", "sign"): (_C, ("Eq(5.5)", "L6.1"), lambda t, p, pin, lemma_6_1: _restated(
        pin, pin["value"] <= 0, "sign contradiction cites a positive mean index")),
    ("Eq(5.5)", "irrationality"): (_C, ("Eq(5.5)",), lambda t, p, pin: _restated(
        pin, pin["value"] > 0, "irrationality contradiction needs a positive pinned value")),
    ("Eq(5.5)", "integrality"): (_C, ("Eq(5.5)",), lambda t, p, pin: _restated(
        pin, t.subcase == "p odd" and pin["value"] > 0 and pin["value"].denominator != 1,
        "integrality contradiction needs p odd and a positive pinned value, not an integer")),
    ("Step2-Subcase5.1", "integrality"): (_C, ("Eq(5.5)",), _p_half),
    ("Eq(6.17)", "rotation-count"): (_C, ("Eq(5.5)", "Cor6.4"), lambda t, p, pin, cor:
                                     _rotation_count(t, pin, cor, 1)),
    ("Eq(6.18)", "rotation-count"): (_C, ("Eq(5.5)", "Cor6.4"), lambda t, p, pin, cor:
                                     _rotation_count(t, pin, cor, 2)),
}
_TABLE = {key: (fact_kind, tuple(tuple(slot.split("|")) for slot in slots), derive)
          for key, (fact_kind, slots, derive) in _RULES.items()}
_ORDER = {rule: i for i, (rule, kind) in enumerate(_RULES) if kind is None}

# the contradictions that may close each case, the cases in replay order
_CLOSINGS = {"NCG1": ("pigeonhole",), "NCG2": ("sign", "rotation-count"),
             "NCG3": ("sign", "rotation-count"), "NCG4": ("sign", "irrationality"),
             "NCG5": ("sign", "integrality")}


def _plain(value) -> bool:
    """Whether every value nested in a step's values is an int or a string, or
    a list or dict of them: a retyped 1.0 or True is not 1."""
    for v in value.values() if type(value) is dict else value:
        if type(v) is not int and type(v) is not str and (
                type(v) is not list and type(v) is not dict or not _plain(v)):
            return False
    return True


def case_of(k: int, h: int) -> str:
    """The case shape of k rotation and h hyperbolic blocks (Long's normal forms):
    h = 0 gives NCG1 if k > 0, else NCG5; otherwise k = 0, 1, even, odd give
    NCG5, NCG4, NCG2, NCG3 (at k = 1 the NCG1 and NCG4 formulas agree)."""
    if h == 0:
        return "NCG1" if k else "NCG5"
    if k < 2:
        return "NCG4" if k else "NCG5"
    return "NCG3" if k % 2 else "NCG2"


def quote(value, conv=repr, wide=False) -> str:
    """conv(value) cut to 40 characters, or 150 for a dict, list, exception or `wide` path, and
    marked "…"; an int longer than 40 characters as its first 30 digits, "…" and digit count."""
    if type(value) is not int or -10**39 < value < 10**40:
        text, width = conv(value), 150 if wide or isinstance(value, (dict, list, Exception)) else 40
        return text if len(text) <= width else f"{text[:width]}…"
    digits, power = 39, 10**39  # |value| >= 10**39 has more than 39 digits
    while power <= abs(value):
        digits, power = digits + 1, power * 10
    return f"{'-' * (value < 0)}{abs(value) // 10 ** (digits - 30)}…({digits} digits)"


# the least n at which a census k + 2r + h = n-1 has each shape: at r = 0, k = 1 (NCG1),
# k = 2, h = 1 (NCG2), k = 3, h = 1 (NCG3), k = h = 1 (NCG4), h = 1 (NCG5).  One more
# hyperbolic block, or rotation for NCG1 (h = 0), keeps the shape at every larger n
_LEAST = {"NCG1": 2, "NCG2": 4, "NCG3": 5, "NCG4": 3, "NCG5": 2}


# a trace's fields and their JSON types: the case, "" or a parity subcase, the steps,
# "contradiction" or "vacuous", and the closing's contradiction kind, "" if vacuous;
# then a certificate's keys and theirs
_TRACE_TYPES = {"case": str, "subcase": str, "steps": list, "verdict": str, "detail": str}
_CERTIFICATE_TYPES = {"schema": int, "n": int, "traces": list}
Trace = namedtuple("Trace", _TRACE_TYPES)
_Scope = namedtuple("_Scope", "n case subcase")  # what derivations read besides the values


def _subcases(n: int, case: str) -> tuple[str, ...]:
    """The subcases replay derives for a case shape at n, in order."""
    return ("",) if case == "NCG1" or n < _LEAST[case] else ("p even", "p odd")


class _Steps:
    """The steps of one trace, each built through its row of the rule table: the only
    code that builds a step, for the replay and `verify_trace` alike."""

    def __init__(self, n: int, case: str, subcase: str = ""):
        if case not in _LEAST or subcase not in _subcases(n, case):
            raise TraceError(f"{quote(case, str)} {quote(subcase)} is no case and subcase replay "
                             f"derives at n = {quote(n)}")
        self.scope, self.steps, self.derived, self.premises = _Scope(n, case, subcase), [], [], []
        # the latest step of each rule; the closing's kind; whether no census at n has the shape
        self.latest, self.kind, self.vacuous = {}, None, n < _LEAST[case]

    def add(self, rule: str, kind: str | None = None, **chosen) -> dict:
        """Append the step of this rule and contradiction kind; return the values its row derives
        from its chosen values and its premises, per slot the latest earlier step of its rules.
        Refused: a step of a vacuous trace, after the closing, out of order, or missing a premise."""
        row, (n, case, _) = _TABLE.get((rule, kind)), self.scope
        if row is None or kind and kind not in _CLOSINGS[case] or self.vacuous:
            raise TraceError(f"{case} has no step {quote(rule)} of closing {quote(kind)} "
                             f"at n = {quote(n)}")
        if self.kind:
            raise TraceError(f"a step after the {self.kind} closing")
        if kind is None and self.steps and _ORDER[rule] <= _ORDER[self.steps[-1]["rule"]]:
            raise TraceError(f"not after {self.steps[-1]['rule']}: the rule table's order")
        fact_kind, slots, derive = row
        premises, cited = [], []
        for slot in slots:  # the latest earlier step of the slot's rules
            latest = -1
            for r in slot:
                if (i := self.latest.get(r, -1)) > latest:
                    latest = i
            if latest < 0:
                raise TraceError(f"no earlier step of {' or '.join(slot)}")
            premises.append(latest)
            cited.append(self.derived[latest])
        values = derive(self.scope, chosen, *cited)
        self.latest[rule], self.kind = len(self.steps), kind
        spelled = values.copy()  # as the step holds them: each Fraction "a/b" in lowest terms
        for k, v in values.items():
            if type(v) is Fraction:
                spelled[k] = f"{v.numerator}/{v.denominator}"
        if kind is not None:
            spelled["contradiction_kind"] = kind
        self.steps.append({"rule": rule, "kind": fact_kind, "values": spelled})
        self.derived.append(values)
        self.premises.append(premises)
        return values

    def close(self) -> Trace:
        """The closed trace: vacuous, with no step, for a shape that no census at n reaches;
        else a contradiction, once every earlier step is a premise of a later one."""
        if self.vacuous:
            return Trace(self.scope.case, "", [], "vacuous", "")
        if not self.kind:
            raise TraceError("the trace is open: none of its steps closes a contradiction")
        if uncited := set(range(len(self.steps) - 1)).difference(*self.premises):
            raise TraceError(f"steps {sorted(uncited)} are premises of no later step")
        return Trace(self.scope.case, self.scope.subcase, self.steps, "contradiction", self.kind)


def verify_trace(n: int, trace: dict) -> bool:
    """Re-validate every numeric claim of one parsed certificate trace with exact arithmetic.

    Raises TraceError on the first failed re-check, n not an int >= 2 among
    them; returns True otherwise.  Types are JSON's own.  The trace is rebuilt
    through `_Steps`, each step from its own rule, contradiction kind and chosen
    values, and must equal the trace built: each step the rule, its row's kind of
    fact and exactly the values its derivation gives, each fraction spelled "a/b"
    in lowest terms, and the verdict and detail that closing the steps gives.
    """
    if type(n) is not int or n < 2:
        raise TraceError(f"n must be an integer >= 2, not {quote(n)}")
    if fault := _frame_fault(trace, _TRACE_TYPES):
        raise TraceError(f"not a trace: keys case, subcase, steps, verdict, detail; got {fault}")
    built = _Steps(n, trace["case"], trace["subcase"])
    try:
        for i, step in enumerate(trace["steps"]):
            rule = step.get("rule") if type(step) is dict else None
            values = step["values"]
            if not _plain(values):
                raise TraceError(f"a value in {quote(values)} is not an int or a string, "
                                 "or a list or object of them")
            built.add(rule, values.get("contradiction_kind"), **values)
            if step != (want := built.steps[-1]):
                raise TraceError(f"values {quote(values)} are not {quote(want['values'])}, those "
                                 "the rule derives" if values != want["values"] else
                                 f"not {quote(want)}, the step its rule builds")
        closed = built.close()
    except TraceError as e:  # an open or uncited trace is refused at its last step
        raise TraceError(f"step {i} ({quote(rule, str)}): {e}" if trace["steps"] else e) from None
    except (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError,
            ValueError) as e:
        raise TraceError(f"step {i} ({quote(rule, str)}): malformed values: {quote(e)}") from e
    if (closed.verdict, closed.detail) != (trace["verdict"], trace["detail"]):
        raise TraceError(f"verdict {quote(trace['verdict'])} and detail {quote(trace['detail'])} "
                         f"are not {closed.verdict!r} and {closed.detail!r}, those its steps close")
    return True


def _frame_fault(doc, types: dict) -> str:
    """The first fault that keeps a parsed document out of a frame, `types` its keys' JSON types, or
    "": not a dict, a key in table order missing or of another type, then the first extra key."""
    if type(doc) is not dict:
        return f"type {type(doc).__name__}, not dict"
    for key, kind in types.items():
        if key not in doc or type(doc[key]) is not kind:
            return f"{key} of type {type(doc[key]).__name__}" if key in doc else f"no key {key!r}"
    if len(doc) > len(types):  # every declared key is there, so some other key is too
        return f"an extra key {quote(next(key for key in doc if key not in types))}"
    return ""


def verify_certificate(doc: dict) -> bool:
    """Re-validate a parsed certificate: exactly schema 6, an integer n >= 2 and traces, each
    by verify_trace, and each (case, subcase) that replay derives at n once, in replay order."""
    fault = _frame_fault(doc, _CERTIFICATE_TYPES)
    if fault or doc["schema"] != CERTIFICATE_SCHEMA or doc["n"] < 2:
        fault = fault or f"schema = {quote(doc['schema'])}, n = {quote(doc['n'])}"
        raise TraceError(f"not a certificate: schema {CERTIFICATE_SCHEMA}, integer n >= 2, "
                         f"traces; got {fault}")
    n = doc["n"]
    for k, trace in enumerate(doc["traces"]):
        try:
            verify_trace(n, trace)
        except TraceError as e:
            raise TraceError(f"trace {k}: {e}") from None
    got = [(t["case"], t["subcase"]) for t in doc["traces"]]
    want = [(case, s) for case in _CLOSINGS for s in _subcases(n, case)]
    if got != want:
        raise TraceError(f"traces {quote(got)} are not {want}, each once in replay order")
    return True


CERTIFICATE_SCHEMA = 6


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python checker.py CERT.json", file=sys.stderr)
        sys.exit(2)
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            verify_certificate(json.load(fh))
    except (OSError, RecursionError, ValueError) as e:  # TraceError and bad JSON are ValueErrors
        why = e if isinstance(e, TraceError) else quote(e, str)  # an OSError repeats the path
        sys.exit(" ".join(f"{quote(sys.argv[1], str, True)}: {why}".splitlines()))
    print(f"{sys.argv[1]}: verified")
