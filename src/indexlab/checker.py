"""The trusted checker: it re-validates every numeric step of a parsed
certificate with exact arithmetic, reading its cases as the certificate's own
strings "NCG1" to "NCG5".  It imports nothing from the package, so this one
file can be audited and run alone (`python -I checker.py CERT.json`); `morse`
takes its Betti closed forms and `prover` its rule table, never the reverse.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import namedtuple
from collections.abc import Iterator
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


# -- lemma checks: each derives a step's values from Morse violations

def _violation_at(M: dict, n: int, q: int, kind: str, shift: int = 0) -> dict:
    """The failure of sparse table M's `kind` Morse inequality at degree q,
    with M and q counted from degree `shift`: the Betti side is read at q + shift."""
    if type(q) is int and 0 <= q < M["length"] and kind in ("pointwise", "alternating"):
        entries = M["entries"]
        if kind == "pointwise":
            lhs, rhs = dict(entries).get(q, 0), betti(n, q + shift)
        else:  # M_q - M_{q-1} + M_{q-2} - ..., over the nonzero entries
            lhs = sum(v if (q - j) % 2 == 0 else -v for j, v in entries if j <= q)
            rhs = alternating_betti_sum(n, q + shift)
        if lhs < rhs:
            return {"q": q, "kind": kind, "lhs": lhs, "rhs": rhs}
    raise TraceError(f"{kind} violation at q={q} not reproduced from its table")


def _lemma_6_1_failure(n: int) -> tuple[dict, dict]:
    """The zero table of length n that Lemmas 6.1 and 6.2 suppose, and its failure at q = n-1."""
    M = {"length": n, "entries": []}
    return M, _violation_at(M, n, n - 1, "pointwise")


def check_lemma_6_1(n: int) -> dict:
    """Positive mean index is forced: zero mean index concentrates every
    local module in degree 0, leaving M_{n-1} = 0 below b_{n-1} = 1."""
    M, v = _lemma_6_1_failure(n)
    return {"value": Fraction(0), "evidence": v, "hypothetical_M": M}


def check_lemma_6_2(n: int) -> dict:
    """i(c) <= n-1 is forced: a larger initial index empties every degree
    up to n-1, again contradicting b_{n-1} = 1."""
    M, v = _lemma_6_1_failure(n)
    return {"max": n - 1, "evidence": v, "hypothetical_M": M}


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
    if hypotheses:
        # the left side reads only the table; the right side, taken at the last i0,
        # is alternating_betti_sum(n, i0 + 1) = 0 for every i0 + 1 < n-1
        M = {"length": 2, "entries": [[0, 1]]}
        values |= {"evidence": _violation_at(M, n, 1, "alternating", hypotheses[1]),
                    "hypothetical_M": M}
    return values


# -- identity pin-down -----------------------------------------------------

def _period_and_sign(case: str, subcase: str, n: int) -> tuple[int, int]:
    """Analytic period N and the identity numerator s = (-1)^i(c).

    For NCG1 the initial index has the parity of n-1 and the period is 1;
    for the other cases i(c) = p and the period follows the parity table.
    Over one period the m = 2 term vanishes whenever N = 2 (its type number
    is 0), so the identity numerator is always (-1)^i(c).
    """
    if case == "NCG1":
        return 1, (1 if (n - 1) % 2 == 0 else -1)
    s = 1 if subcase == "p even" else -1
    N = 1 if (s == 1) == (case in ("NCG2", "NCG5")) else 2
    return N, s


# -- the rule table --------------------------------------------------------

def _pinned(p: dict, pin: dict) -> Fraction:
    """The step's ihat, which must be the value its Eq(5.5) premise pins."""
    if p["ihat"] != pin["value"]:
        raise TraceError(f"ihat = {p['ihat']} is not the pinned mean index {pin['value']}")
    return p["ihat"]


# Each check reads the trace, the step's values and those of its premises,
# and raises TraceError unless the values follow from n and the premises.

def _lemma(check_lemma):
    """The check of a lemma step: its values are those the lemma derives at this n."""
    def check(t, p, *premises):
        if p != check_lemma(t.n):
            raise TraceError("values not reproduced by the lemma at this n")
    return check


def _check_identity(t, p):
    if (p["N"], p["s"]) != _period_and_sign(t.case, t.subcase, t.n):
        raise TraceError(f"(N, s) = ({p['N']}, {p['s']}) of the identity do not fit the case")
    R = euler_limit(t.n)  # s/(N*ihat) = R
    if p["rhs"] != R or p["value"] * p["N"] * R != p["s"]:
        raise TraceError(f"identity re-check failed for ihat = {p['value']}")


def _check_morse_parity(t, p):
    if (p["i1_parity"], p["zero_parity"]) != ((t.n - 1) % 2, "odd" if t.n % 2 else "even"):
        raise TraceError("Prop2.1 must give i(c) the parity of n-1")


def _check_corollary_6_4(t, p, upper, lower):
    if not p["i_c"] == upper["max"] == lower["min"] == t.n - 1:
        raise TraceError("Cor6.4 must pin i(c) = n-1 from the L6.2 and L6.3 bounds")


def _check_eq_6_7(t, p, pin, cor):
    if _pinned(p, pin) >= 2 or p["p"] != 0 or p["r"] != 0:
        raise TraceError("i(c) = n-1 and ihat < 2 must force p = r = 0")


def _check_eq_6_9(t, p, p_r):
    if p["terms"] != t.n - 1 or p_r["ihat"] != 2 * p["value"]:
        raise TraceError("the n-1 rotation numbers must sum to ihat/2")


def _check_floor_sum(t, p, rho):
    m, terms, total = p["m"], p["terms"], p["total"]
    if (terms != rho["terms"] or total != m * rho["value"]
            or p["set"] != _ends(floor_sum_range(m, terms, total))):
        raise TraceError(f"floor-sum range re-check failed at m = {m}")


def _check_floor_sum_family(t, p, rho):
    # with rho = a/b the range at m is [0, m-1] iff m*rho < terms and m*(b-a) < b; both
    # are monotone in m, so holding at the last iterate m1 they hold for every m <= m1
    m1 = p["iterates"][-1]
    if p["iterates"] != [2, m1] or p["terms"] != rho["terms"] or floor_sum_range(
            m1, p["terms"], m1 * rho["value"]) != range(m1):
        raise TraceError(f"floor-sum ranges [0, m-1] re-check failed for m in {p['iterates']}")


def _check_claim_1(t, p, family, base):
    # induction on m from i(c^1) = i(c): i(c^m) = i(c) + 2s for s in [0, m-1], and each
    # s < m-1 is the degree i(c) + 2s of the earlier iterate s + 1, so s = m-1
    m = family["iterates"][1]
    if p["m"] != m or p["i"] != base["i_c"] + 2 * (m - 1):
        raise TraceError(f"Claim1 up to m = {m} must give i(c) + 2(m-1) from its floor sums")


def _check_pigeonhole(t, p, known, floor):
    # each admissible floor sum s puts i(c^m) on the degree i(c) + 2s of the earlier
    # iterate s + 1, whose index the Claim1 induction up to `known` has established
    _, last = p["set"]
    if (p["m"], p["set"]) != (floor["m"], floor["set"]) or not last < known.get("m", 1) < p["m"]:
        raise TraceError("pigeonhole range does not follow from the floor sum, or reaches past "
                         "the iterates whose indices are established")


def _check_empty_range(t, p, pin, floor):
    if floor["set"] or (p["m"], p["total"], p["set"]) != (floor["m"], floor["total"], []):
        raise TraceError("empty-range pigeonhole needs the empty floor-sum range of its premise")


def _check_sign(t, p, pin, lemma_6_1):
    if _pinned(p, pin) > 0:
        raise TraceError("sign contradiction cites a positive mean index")


def _check_irrationality(t, p, pin):
    if _pinned(p, pin) <= 0:
        raise TraceError("irrationality contradiction needs a positive pinned value")


def _check_integrality(t, p, pin):
    if _pinned(p, pin).denominator == 1:
        raise TraceError("integrality contradiction cites an integer value")


def _check_p_half(t, p, pin):
    ihat = _pinned(p, pin)  # ihat = p, a positive even integer, so p/2 >= 1
    if t.subcase != "p even" or not 0 < ihat < 2 or ihat != 2 * p["p_half"]:
        raise TraceError("p/2 contradiction needs p even and 0 < p/2 = ihat/2 < 1")


def _check_rotation_count(t, p, pin, bound):
    # p - k even gives p - k <= ihat < 2 (Eq(6.18)), odd gives p - k < ihat < 1 (Eq(6.17))
    odd = (t.subcase == "p odd") != (t.case == "NCG3")
    if (bound != 2 - odd or _pinned(p, pin) >= bound
            or (p["k_lower"], p["k_upper"]) != (t.n - 1, t.n - 2)):
        raise TraceError(f"rotation count needs the rule of the parity of p - k, ihat < {bound}, "
                         "k >= n-1 and k <= n-2")


_C = "Contradiction"
# Every step a trace may take, keyed by (rule, contradiction kind): the kind
# of fact it states, the rules of the earlier steps it reads, one slot per
# premise ("a|b" admits a step of either rule), the check of its values, and
# the keys those values hold besides contradiction_kind ("a|b" admits either
# set).  Rules are named as the paper cites them for even n, at every n.  The
# steps before the closing take the rows' order: one spelling per derivation.
_EVIDENCE = "evidence hypothetical_M"
_RULES = {
    ("Eq(5.5)", None): ("MeanIndexEquals", (), _check_identity, "value s N rhs"),
    ("L6.1", None): ("MeanIndexEquals", (), _lemma(check_lemma_6_1), "value " + _EVIDENCE),
    ("Prop2.1", None): ("MorseZeroParity", (), _check_morse_parity, "zero_parity i1_parity"),
    ("L6.2", None): ("IndexRange", (), _lemma(check_lemma_6_2), "max " + _EVIDENCE),
    ("L6.3", None): ("IndexRange", ("Prop2.1",), _lemma(check_lemma_6_3),
                     "min hypotheses|min hypotheses " + _EVIDENCE),
    ("Cor6.4", None): ("IndexEquals", ("L6.2", "L6.3"), _check_corollary_6_4, "i_c"),
    ("Eq(6.7)", None): ("IndexEquals", ("Eq(5.5)", "Cor6.4"), _check_eq_6_7, "p r ihat"),
    ("Eq(6.9)", None): ("MeanIndexEquals", ("Eq(6.7)",), _check_eq_6_9, "value terms"),
    ("Eq(6.11)", None): ("FloorSumRange", ("Eq(6.9)",), _check_floor_sum_family, "iterates terms"),
    ("Claim1", None): ("IndexEquals", ("Eq(6.11)", "Cor6.4"), _check_claim_1, "m i"),
    ("Eq(6.14)", None): ("FloorSumRange", ("Eq(6.9)",), _check_floor_sum, "m terms total set"),
    ("L6.5", "pigeonhole"): (_C, ("Claim1|Cor6.4", "Eq(6.14)"), _check_pigeonhole, "m set"),
    ("Eq(6.14)", "pigeonhole"): (_C, ("Eq(5.5)", "Eq(6.14)"), _check_empty_range, "m total set"),
    ("L6.1", "sign"): (_C, ("Eq(5.5)", "L6.1"), _check_sign, "ihat"),
    ("Eq(5.5)", "irrationality"): (_C, ("Eq(5.5)",), _check_irrationality, "ihat"),
    ("Eq(5.5)", "integrality"): (_C, ("Eq(5.5)",), _check_integrality, "ihat"),
    ("Step2-Subcase5.1", "integrality"): (_C, ("Eq(5.5)",), _check_p_half, "ihat p_half"),
    ("Eq(6.17)", "rotation-count"): (_C, ("Eq(5.5)", "Cor6.4"), lambda t, p, pin, cor:
                                     _check_rotation_count(t, p, pin, 1), "ihat k_lower k_upper"),
    ("Eq(6.18)", "rotation-count"): (_C, ("Eq(5.5)", "Cor6.4"), lambda t, p, pin, cor:
                                     _check_rotation_count(t, p, pin, 2), "ihat k_lower k_upper"),
}
_TABLE = {key: (fact_kind, tuple(tuple(slot.split("|")) for slot in slots), check,
                 tuple(set(key_set.split()) for key_set in keys.split("|")))
          for key, (fact_kind, slots, check, keys) in _RULES.items()}
_ORDER = {rule: i for i, (rule, kind) in enumerate(_RULES) if kind is None}

# the contradictions that may close each case, the cases in replay order
_CLOSINGS = {"NCG1": ("pigeonhole",), "NCG2": ("sign", "rotation-count"),
             "NCG3": ("sign", "rotation-count"), "NCG4": ("sign", "irrationality"),
             "NCG5": ("sign", "integrality")}

# each value key's one JSON type, a fraction's being "a/b"; what lists and dicts hold is _plain
_FRACTIONS = frozenset("value rhs ihat total p_half".split())
_VALUE_TYPES = dict.fromkeys(_FRACTIONS, str) | {key: type_ for type_, keys in (
    (int, "N s m i i_c p r terms max min k_lower k_upper i1_parity"),
    (str, "zero_parity contradiction_kind"),
    (list, "set hypotheses iterates"),
    (dict, "hypothetical_M evidence"),
) for key in keys.split()}


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


@functools.lru_cache(maxsize=64)  # a certificate asks once per trace and case
def _reached(n: int) -> frozenset[str]:
    """The shapes of the censuses k + 2r + h = n-1.  A shape reads only k = 0, k = 1,
    k's parity and h = 0, so taking 2 from k >= 4 or from h >= 3 keeps the shape and
    the parity 2r needs: k < 4 and h < 3 reach every shape, in O(1)."""
    return frozenset(case_of(k, h) for k in range(min(n, 4)) for h in range(min(n - k, 3))
                     if (n - 1 - k - h) % 2 == 0)


# the JSON type of each field of a trace; what the row checks read of it besides the values
_TRACE_TYPES = {"case": str, "subcase": str, "steps": list, "verdict": str, "detail": str}
_Scope = namedtuple("_Scope", "n case subcase")
_STEP_KEYS = {"rule", "kind", "values"}


def _subcases(n: int, case: str) -> tuple[str, ...]:
    """The subcases replay derives for a case shape at n, in order."""
    return ("",) if case == "NCG1" or case not in _reached(n) else ("p even", "p odd")


def _premises(steps: list) -> Iterator[list[int]]:
    """Each step's premises: per slot of its row, the latest earlier step of its rules, or -1."""
    latest = {}
    for i, step in enumerate(steps):
        slots = _TABLE[step["rule"], step["values"].get("contradiction_kind")][1]
        yield [max(latest.get(rule, -1) for rule in slot) for slot in slots]
        latest[step["rule"]] = i


def verify_trace(n: int, trace: dict) -> bool:
    """Re-validate every numeric claim of one parsed certificate trace with exact arithmetic.

    Raises TraceError on the first failed re-check, n not an int >= 2 among
    them; returns True otherwise.  Types are JSON's own, and each fraction
    must be spelled "a/b" in lowest terms.  Each step holds a rule, a kind of
    fact and values, nothing else, and is checked through its row of the rule
    table: it states the row's kind of fact, each slot has an earlier step
    (`_premises`), the row's check recomputes the values from n and those
    premises, and the values hold the row's keys, no more.  The steps before
    the last take the table's order, and each must be a premise of a later one.
    """
    if type(n) is not int or n < 2:
        raise TraceError(f"n must be an integer >= 2, not {n!r}")
    if type(trace) is not dict or {key: type(v) for key, v in trace.items()} != _TRACE_TYPES:
        raise TraceError("not a trace: strings case, subcase, verdict, detail and a list of steps")
    case, subcase, steps, detail = trace["case"], trace["subcase"], trace["steps"], trace["detail"]
    reached = _reached(n)
    if trace["verdict"] == "vacuous":  # a shape no census of dimension 2(n-1) reaches
        if steps or case not in _CLOSINGS.keys() - reached or (subcase, detail) != ("", ""):
            raise TraceError(f"{case} at n = {n} is not a vacuous trace of an unreached shape")
        return True
    if (trace["verdict"] != "contradiction" or not steps or case not in reached
            or subcase not in _subcases(n, case) or detail not in _CLOSINGS.get(case, ())):
        raise TraceError(f"{case} at n = {n}: a contradiction trace needs steps, a "
                         "satisfiable shape, one of its subcases, a closing its case allows")
    last, parsed, t, order = len(steps) - 1, [], _Scope(n, case, subcase), -1
    links, cited = _premises(steps), set()
    for i, step in enumerate(steps):
        if type(step) is not dict or step.keys() != _STEP_KEYS:
            raise TraceError(f"step {i} is not an object of the keys {sorted(_STEP_KEYS)}")
        rule, values = step["rule"], step["values"]
        try:
            kind = values.get("contradiction_kind")  # values not an object: AttributeError
            row = _TABLE.get((rule, kind))  # a rule or kind not a string is in no row
            if not row or step["kind"] != row[0] or kind != (None if i < last else detail):
                raise TraceError(f"no {step['kind']!r} of contradiction kind {kind!r} "
                                 f"is a step in this place at n = {n}")
            if i < last:
                if _ORDER[rule] <= order:
                    raise TraceError(f"not after {steps[i - 1]['rule']}: the rule table's order")
                order = _ORDER[rule]
            _, slots, check, key_sets = row
            if not _plain(values):
                raise TraceError(f"a value in {values!r} is not of the type its key holds")
            p = dict(values)
            for key, value in values.items():
                if type(value) is not _VALUE_TYPES.get(key):
                    raise TraceError(f"value {key!r} = {value!r} is not of the type its key holds")
                if key in _FRACTIONS:  # int() reads " 3", "+3" and "3_0": the spelling must match
                    num, _, den = value.partition("/")
                    x = p[key] = Fraction(int(num), int(den))
                    if value != f"{x.numerator}/{x.denominator}":
                        raise TraceError(f"{key} = {value!r} is not spelled 'a/b', in lowest terms")
            premises = next(links)
            if -1 in premises:
                raise TraceError(f"no earlier step of {' or '.join(slots[premises.index(-1)])}")
            cited.update(premises)
            parsed.append(p)
            check(t, p, *[parsed[j] for j in premises])
            if values.keys() - {"contradiction_kind"} not in key_sets:
                raise TraceError(f"values hold the keys {sorted(values)}, not those of this step")
        except TraceError as e:
            raise TraceError(f"step {i} ({rule}): {e}") from None
        except (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError,
                ValueError) as e:
            raise TraceError(f"step {i} ({rule}): malformed values: {e!r}") from e
    if not cited.issuperset(range(last)):
        raise TraceError(f"steps {sorted(set(range(last)) - cited)} are premises of no later step")
    return True


def verify_certificate(doc: dict) -> bool:
    """Re-validate a parsed certificate: schema 6, an integer n >= 2, each trace by
    verify_trace, and each (case, subcase) replay derives at n once, in replay order,
    for every case shape, or for the shapes named in a document marked "partial": true."""
    if not (type(doc) is dict and doc.keys() - {"partial"} == {"schema", "n", "traces"}
            and [type(doc[key]) for key in ("schema", "n", "traces")] == [int, int, list]
            and doc["schema"] == CERTIFICATE_SCHEMA and doc["n"] >= 2 and doc["traces"]):
        raise TraceError(f"not a certificate: schema {CERTIFICATE_SCHEMA}, integer n >= 2, traces")
    n = doc["n"]
    for k, trace in enumerate(doc["traces"]):
        try:
            verify_trace(n, trace)
        except TraceError as e:
            raise TraceError(f"trace {k}: {e}") from None
    got = [(t["case"], t["subcase"]) for t in doc["traces"]]
    named = {case for case, _ in got}
    want = [(case, s) for case in _CLOSINGS if case in named for s in _subcases(n, case)]
    if got != want:
        raise TraceError(f"traces {got} are not {want}, each once in replay order")
    if ("partial" in doc) != (len(named) < len(_CLOSINGS)) or doc.get("partial", True) is not True:
        raise TraceError('"partial": true marks exactly the certificates that leave a case out')
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
        sys.exit(f"{sys.argv[1]}: {' '.join(str(e).splitlines())}")
    print(f"{sys.argv[1]}: verified")
