import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlab import Case, ProofTrace, Verdict, replay, verify_trace
from indexlab.morse import Violation, betti_values, check_morse_inequalities, euler_limit
from indexlab.prover import (
    _ODD_RULE,
    _RULES,
    _TABLE,
    FactKind,
    SymbolicFact,
    TraceError,
    _violation_at,
    certificate,
    certificate_json,
    check_lemma_6_1,
    check_lemma_6_2,
    check_lemma_6_3,
    floor_sum_range,
    pinned_mean_index,
)


def _sparse(dense):
    return {"length": len(dense), "entries": [[q, v] for q, v in enumerate(dense) if v]}


def _dense(sparse):
    dense = [0] * sparse["length"]
    for q, v in sparse["entries"]:
        dense[q] = v
    return dense


def _expanded(ends):
    """The integers a certificate's [first, last] (or []) stands for."""
    return list(range(ends[0], ends[1] + 1)) if ends else []


class TestFloorSumRange:
    def test_integer_total_pigeonhole(self):
        # n = 5 situation: m = 5 floors of irrationals summing exactly to 4
        assert floor_sum_range(5, 4, Fraction(4)) == range(1, 4)

    def test_generic_total_stays_below_m(self):
        for m in range(1, 30):
            n = 6
            total = Fraction(m * (n - 1), n)
            got = floor_sum_range(m, n - 1, total)
            assert set(got) <= set(range(0, m))

    def test_single_term(self):
        assert floor_sum_range(1, 1, Fraction(1, 2)) == range(0, 1)

    def test_empty_range_possible(self):
        # one irrational in (0, 1) cannot have 2*rho = 1
        assert not floor_sum_range(2, 1, Fraction(1))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(2, 10**4), st.data())
    def test_matches_the_fraction_formula(self, m, terms, den, data):
        # den >= 2 keeps the draw non-empty; even numerators still give integers
        total = Fraction(data.draw(st.integers(1, m * terms * den - 1)), den)
        # the floor sum lies strictly inside (total - terms, total) and is >= 0
        first = max(0, math.floor(total - terms) + 1)
        last = math.ceil(total) - 1
        got = floor_sum_range(m, terms, total)
        assert type(got) is range and got == range(first, last + 1)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError):
            floor_sum_range(3, 2, Fraction(0))
        with pytest.raises(ValueError):
            floor_sum_range(3, 2, Fraction(6))


class TestLemmaChecks:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_positive_mean_index(self, n):
        fact = check_lemma_6_1(n)
        v = fact.payload["evidence"]
        assert (v.q, v.lhs, v.rhs) == (n - 1, 0, 1)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_initial_index_upper_bound(self, n):
        fact = check_lemma_6_2(n)
        assert fact.payload["max"] == n - 1
        v = fact.payload["evidence"]
        assert (v.q, v.kind, v.lhs, v.rhs) == (n - 1, "pointwise", 0, 1)

    def test_lower_bound_even_n(self):
        fact = check_lemma_6_3(4)
        [entry] = fact.payload["refuted"]
        assert entry["i_c"] == 1
        assert (entry["evidence"].lhs, entry["evidence"].rhs) == (-1, 0)

    def test_lower_bound_odd_n(self):
        fact = check_lemma_6_3(5)
        [entry] = fact.payload["refuted"]
        assert entry["i_c"] == 2
        assert (entry["evidence"].lhs, entry["evidence"].rhs) == (-1, 0)

    def test_lower_bound_vacuous_for_small_n(self):
        fact = check_lemma_6_3(2)
        assert fact.payload["vacuous_hypothesis"]


class TestIdentityPin:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_ncg1_values(self, n):
        expected = Fraction(2 * (n - 1), n) if n % 2 == 0 else Fraction(2 * (n - 1), n + 1)
        assert pinned_mean_index(n) == expected


EXPECTED_DETAILS_EVEN = {
    (Case.NCG1, ""): "pigeonhole",
    (Case.NCG2, "p even"): "sign",
    (Case.NCG2, "p odd"): "rotation-count",
    (Case.NCG3, "p even"): "sign",
    (Case.NCG3, "p odd"): "rotation-count",
    (Case.NCG4, "p even"): "sign",
    (Case.NCG4, "p odd"): "irrationality",
    (Case.NCG5, "p even"): "sign",
    (Case.NCG5, "p odd"): "integrality",
}

EXPECTED_DETAILS_ODD = {
    (Case.NCG1, ""): "pigeonhole",
    (Case.NCG2, "p even"): "rotation-count",
    (Case.NCG2, "p odd"): "sign",
    (Case.NCG3, "p even"): "rotation-count",
    (Case.NCG3, "p odd"): "sign",
    (Case.NCG4, "p even"): "irrationality",
    (Case.NCG4, "p odd"): "sign",
    (Case.NCG5, "p even"): "integrality",
    (Case.NCG5, "p odd"): "sign",
}


class TestReplay:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_case_outcomes_match_the_derivations(self, n):
        expected = EXPECTED_DETAILS_EVEN if n % 2 == 0 else EXPECTED_DETAILS_ODD
        for t in replay(n):
            if t.verdict is Verdict.VACUOUS:
                continue
            assert t.detail == expected[(t.case, t.subcase)], (n, t.case, t.subcase)

    def test_vacuous_cases_for_small_n(self):
        tags = {t.case: t.verdict for t in replay(2)}
        assert tags[Case.NCG2] is Verdict.VACUOUS
        assert tags[Case.NCG3] is Verdict.VACUOUS
        assert tags[Case.NCG4] is Verdict.VACUOUS
        assert tags[Case.NCG1] is Verdict.CONTRADICTION
        assert tags[Case.NCG5] is Verdict.CONTRADICTION

    def test_named_contradiction_strings(self):
        even = {(t.case, t.subcase): t for t in replay(6)}
        assert "n-2 < k" in even[(Case.NCG2, "p odd")].contradiction.statement
        assert "pigeonhole at m = 6" in even[(Case.NCG1, "")].contradiction.statement
        odd = {(t.case, t.subcase): t for t in replay(7)}
        assert "p/2 >= 1" in odd[(Case.NCG5, "p even")].contradiction.statement
        assert "pigeonhole at m2 = 4" in odd[(Case.NCG1, "")].contradiction.statement

    def test_every_trace_revalidates(self):
        for n in range(2, 21):
            for t in replay(n):
                assert verify_trace(t)

    def test_floor_sum_facts_are_subsets_of_the_loose_sets(self):
        for n in (4, 5, 8, 9):
            [ncg1] = [t for t in replay(n) if t.case is Case.NCG1]
            for fact in ncg1.steps:
                if fact.kind is FactKind.FloorSumRange:
                    m = fact.payload["m"]
                    assert set(_expanded(fact.payload["set"])) <= set(range(0, m))


class TestVerifier:
    def test_tampered_identity_is_caught(self):
        [t] = [x for x in replay(4) if x.case is Case.NCG2 and x.subcase == "p odd"]
        bad_steps = list(t.steps)
        pin = bad_steps[0]
        tampered = SymbolicFact(
            pin.kind, pin.statement, pin.rule, {**pin.payload, "value": Fraction(5, 7)}
        )
        bad_steps[0] = tampered
        bad = type(t)(t.n, t.case, t.subcase, tuple(bad_steps), t.verdict, t.detail)
        with pytest.raises(TraceError):
            verify_trace(bad)

    def test_tampered_floor_sum_is_caught(self):
        [t] = [x for x in replay(6) if x.case is Case.NCG1]
        bad_steps = list(t.steps)
        for i, fact in enumerate(bad_steps):
            if fact.kind is FactKind.FloorSumRange:
                # the range widened to reach 99
                bad_steps[i] = dataclasses.replace(
                    fact, payload={**fact.payload, "set": [fact.payload["set"][0], 99]})
                break
        bad = type(t)(t.n, t.case, t.subcase, tuple(bad_steps), t.verdict, t.detail)
        with pytest.raises(TraceError):
            verify_trace(bad)

    @pytest.mark.parametrize("change", [{"q": 0}, {"lhs": -1}, {"rhs": 2}])
    def test_tampered_evidence_is_caught(self, change):
        # still a cited failure (lhs < rhs), but not one its table produces
        [t] = [x for x in replay(6) if x.case is Case.NCG1]
        fact = t.steps[0]
        evidence = dataclasses.replace(fact.payload["evidence"], **change)
        bad_steps = (dataclasses.replace(fact, payload={**fact.payload, "evidence": evidence}),
                     ) + t.steps[1:]
        bad = type(t)(t.n, t.case, t.subcase, bad_steps, t.verdict, t.detail)
        with pytest.raises(TraceError, match="not reproduced"):
            verify_trace(bad)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_cited_violation_matches_the_full_scan(self, data):
        # a dense table, in its sparse form, against the full scan of the dense one
        M = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
        sparse = _sparse(M)
        n = data.draw(st.integers(2, 12))
        q = data.draw(st.integers(-1, len(M)))
        kind = data.draw(st.sampled_from(["alternating", "pointwise"]) | st.text(max_size=12))
        scan = check_morse_inequalities(M, betti_values(n, len(M) - 1), len(M) - 1)
        [found] = [v for v in scan if (v.q, v.kind) == (q, kind)] or [None]
        if found is None:
            with pytest.raises(TraceError):
                _violation_at(sparse, n, q, kind)
        else:
            assert _violation_at(sparse, n, q, kind) == found

    def test_open_trace_rejected(self):
        [t] = [x for x in replay(4) if x.case is Case.NCG5 and x.subcase == "p odd"]
        open_trace = type(t)(t.n, t.case, t.subcase, t.steps[:-1], t.verdict, t.detail)
        with pytest.raises(TraceError):
            verify_trace(open_trace)


def _replaced(trace, index, payload=None, **changes):
    """The trace with step `index` given this payload and these other field values."""
    fact = trace.steps[index]
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(fact, payload=fact.payload if payload is None else payload,
                                       **changes)
    return dataclasses.replace(trace, steps=tuple(steps))


def _tampered(trace, index, **changes):
    return _replaced(trace, index, {**trace.steps[index].payload, **changes})


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def _self_collision(p):
    # iterate m at its own degree: the degree formula holds, but m is not earlier
    q, r = next(iter(p["collisions"].items()))
    q_m = q + 2 * (p["m"] - r)
    return {"candidates": [q_m], "collisions": {q_m: p["m"]}}


# payload values the checker recomputes from n and the fact itself
TAMPERINGS = [
    ("p_half", lambda p: {"p_half": Fraction(0)}),
    ("k_lower", lambda p: {"k_lower": 50, "k_upper": 3}),
    ("collisions", lambda p: {"collisions": {1: 1}}),
    ("collisions", lambda p: {"collisions": {q: r + 1 for q, r in p["collisions"].items()}}),
    # a true collision, but not every candidate degree
    ("collisions", lambda p: {"collisions": dict(list(p["collisions"].items())[:1])}),
    # right degrees, iterates in range, but each paired with the wrong degree
    ("collisions", lambda p: {"collisions": dict(zip(p["collisions"], reversed(p["collisions"].values())))}),
    ("collisions", _self_collision),
]


def _moved_total(p):
    # a larger total with the range it gives: consistent in itself, but not
    # m times the rotation sum of the Eq(6.9) premise
    total = p["total"] + Fraction(1, 2 * p["total"].denominator)
    if "terms" not in p:  # the empty-range pigeonhole restates its premise's total
        return {"total": total}
    r = floor_sum_range(p["m"], p["terms"], total)
    return {"total": total, "set": [r[0], r[-1]] if r else []}


# payload values each step's check derives from n and the values of its premises
DERIVED_TAMPERINGS = [
    ("value", lambda p: {"value": Fraction(123)}),  # Eq(6.9), and the Eq(5.5) and L6.1 values
    ("i_c", lambda p: {"i_c": 77}),
    ("p", lambda p: {"p": 5, "r": 9}),
    ("i", lambda p: {"i": p["i"] - 2}),  # a lower value, still n-1+2t with 0 <= t <= m-1
    ("total", _moved_total),
    ("terms", lambda p: {"terms": p["terms"] + 1}),
    ("max", lambda p: {"max": p["max"] + 2}),
    ("min", lambda p: {"min": p["min"] - 2}),
    ("relation", lambda p: {"relation": "<"}),
    ("i1_parity", lambda p: {"i1_parity": 1 - p["i1_parity"]}),
    ("zero_parity", lambda p: {"zero_parity": {"even": "odd", "odd": "even"}[p["zero_parity"]]}),
    ("rhs", lambda p: {"rhs": -p["rhs"]}),
    ("m", lambda p: {"m": p["m"] + 1}),
    ("candidates", lambda p: {"candidates": p["candidates"][1:]}),
]


def _retyped(v):
    """Values of other types that stand for v, some of them equal to it."""
    out = [None, str(v), (v,)]
    if isinstance(v, (int, Fraction)):
        out += [float(v), Fraction(v), int(v), bool(v)]
    if isinstance(v, (list, dict)):
        out += [tuple(v), list(v)]
    if isinstance(v, Violation):
        out += [dataclasses.astuple(v), dataclasses.asdict(v)]
    return [x for x in out if type(x) is not type(v)]


class TestMutations:
    def test_recomputed_payload_values_are_checked(self):
        applied = [0] * len(TAMPERINGS)
        for n in range(2, 41):
            for t in replay(n):
                for i, fact in enumerate(t.steps):
                    for j, (key, change) in enumerate(TAMPERINGS):
                        if key not in fact.payload:
                            continue
                        changes = change(fact.payload)
                        if {**fact.payload, **changes} != fact.payload:
                            applied[j] += 1
                            with pytest.raises(TraceError):
                                verify_trace(_tampered(t, i, **changes))
        assert all(applied), applied

    def test_evidence_without_its_table_is_rejected(self):
        mutants = 0
        for n in range(2, 41):
            for t in replay(n):
                for i, fact in enumerate(t.steps):
                    p = fact.payload
                    payloads = [_without(p, "hypothetical_M")] if "evidence" in p else []
                    for j, entry in enumerate(p.get("refuted", [])):
                        refuted = list(p["refuted"])
                        refuted[j] = _without(entry, "hypothetical_M")
                        payloads.append({**p, "refuted": refuted})
                    for payload in payloads:
                        mutants += 1
                        with pytest.raises(TraceError, match="not reproduced"):
                            verify_trace(_replaced(t, i, payload))
        assert mutants > 0

    def test_lemma_6_1_to_6_3_evidence_is_required(self):
        kinds = set()
        for n in range(2, 41):
            for t in replay(n):
                for i, fact in enumerate(t.steps):
                    p = fact.payload
                    mutants = {}
                    if fact.rule in ("L6.1", "L6.2") and fact.kind is not FactKind.Contradiction:
                        mutants["no evidence"] = _without(p, "evidence")
                        mutants["no evidence, no table"] = _without(_without(p, "evidence"),
                                                                    "hypothetical_M")
                    if fact.rule == "L6.3":
                        refuted = p["refuted"]
                        if refuted:
                            mutants["first refutation dropped"] = {**p, "refuted": refuted[1:]}
                            mutants["last refutation dropped"] = {**p, "refuted": refuted[:-1]}
                            mutants["emptied, flag set"] = {**p, "refuted": [], "vacuous_hypothesis": True}
                        # a genuine refutation of a larger n: its i(c) is not below n-1 here
                        extra = check_lemma_6_3(n + 2).payload["refuted"][-1]
                        mutants["refutation added"] = {**p, "refuted": refuted + [extra]}
                        mutants["flag flipped"] = {**p, "vacuous_hypothesis": not p["vacuous_hypothesis"]}
                    for kind, payload in mutants.items():
                        kinds.add((fact.rule, kind))
                        with pytest.raises(TraceError, match="not reproduced"):
                            verify_trace(_replaced(t, i, payload))
        assert len(kinds) == 2 * 2 + 5, sorted(kinds)

    def test_forged_evidence_needs_a_sparse_table(self):
        [t] = [x for x in replay(6) if x.case is Case.NCG1]
        p = t.steps[0].payload
        forged = {**_without(p, "hypothetical_M"), "evidence": Violation(0, "pointwise", -7, 5)}
        with pytest.raises(TraceError):
            verify_trace(_replaced(t, 0, forged))
        for table in (_dense(p["hypothetical_M"]), {**p["hypothetical_M"], "entries": ()}):
            with pytest.raises(TraceError):
                verify_trace(_tampered(t, 0, hypothetical_M=table))

    def test_every_ihat_is_the_pinned_value(self):
        applied = set()
        for n in range(2, 41):
            for t in replay(n):
                for i, fact in enumerate(t.steps):
                    if fact.payload.get("ihat", Fraction(9, 2)) != Fraction(9, 2):
                        applied.add((t.case, t.subcase, t.detail))
                        with pytest.raises(TraceError):
                            verify_trace(_tampered(t, i, ihat=Fraction(9, 2)))
        for case in (Case.NCG2, Case.NCG3):
            assert (case, "p odd", "rotation-count") in applied
        assert (Case.NCG4, "p odd", "irrationality") in applied

    @pytest.mark.parametrize("key", ["N", "s"])
    def test_the_pin_fits_the_case(self, key):
        # another period or sign, with the identity re-solved and every ihat
        # following it: consistent in itself, but not the pin of this case
        mutants = 0
        for n in range(2, 41):
            for t in replay(n):
                if t.verdict is not Verdict.CONTRADICTION:
                    continue
                [i] = [i for i, f in enumerate(t.steps) if f.rule == "Eq(5.5)" and "s" in f.payload]
                p = t.steps[i].payload
                N, s = (3 - p["N"], p["s"]) if key == "N" else (p["N"], -p["s"])
                ihat = Fraction(s) / (N * euler_limit(n))
                bad = _tampered(t, i, N=N, s=s, value=ihat)
                for j, fact in enumerate(bad.steps):
                    if "ihat" in fact.payload:
                        bad = _tampered(bad, j, ihat=ihat)
                mutants += 1
                with pytest.raises(TraceError, match="do not fit the case"):
                    verify_trace(bad)
        assert mutants > 0

    def test_premises_are_checked(self):
        applied = dict.fromkeys(["dropped", "forward", "other rule", "relabelled L6.3"], 0)
        for n in range(2, 41):
            for t in replay(n):
                latest = {}  # rule -> its latest step before step i
                for i, fact in enumerate(t.steps):
                    mutants = []
                    for k, j in enumerate(fact.premises):
                        def swap(x):
                            return fact.premises[:k] + (x,) + fact.premises[k + 1:]
                        mutants.append(("dropped", fact.premises[:k] + fact.premises[k + 1:]))
                        mutants += [("forward", swap(i)), ("forward", swap(i + 1))]
                        others = [x for rule, x in latest.items() if rule != t.steps[j].rule]
                        # every other rule up to n = 12, where each rule of both parities
                        # already occurs; past it the latest step of another rule
                        mutants += [("other rule", swap(x))
                                    for x in (others[-1:] if n > 12 else others)]
                    latest[fact.rule] = i
                    for kind, premises in mutants:
                        applied[kind] += 1
                        with pytest.raises(TraceError):
                            verify_trace(_replaced(t, i, premises=premises))
                    if fact.rule == "L6.3":
                        applied["relabelled L6.3"] += 1
                        with pytest.raises(TraceError):
                            verify_trace(_replaced(t, i, {**fact.payload, "refuted": []},
                                                   rule="L6.4"))
        assert all(applied.values()), applied

    def test_claim1_rests_on_its_own_floor_sum_and_the_iterate_before(self):
        # right rules, wrong steps: the checker also matches the iterates m
        [t] = [x for x in replay(9) if x.case is Case.NCG1]
        rules = [f.rule for f in t.steps]
        claims = [i for i, r in enumerate(rules) if r == "Claim1"]  # m = 2, 3, 4
        i = claims[-1]
        own_sum, before = t.steps[i].premises
        cor = rules.index("Cor6.4")
        for premises in ((own_sum - 2, before), (own_sum, claims[0]), (own_sum, cor)):
            with pytest.raises(TraceError, match="Claim1 at m = 4"):
                verify_trace(_replaced(t, i, premises=premises))

    def test_the_pigeonhole_needs_the_claim1_chain(self):
        # every Eq(6.11) and Claim1 step cut out and the premises re-indexed:
        # nothing then establishes the indices of the iterates the pigeonhole
        # collides with, whichever earlier step its first premise names
        mutants = 0
        for n in range(2, 41):
            [t] = [x for x in replay(n) if x.case is Case.NCG1]
            keep = [i for i, f in enumerate(t.steps)
                    if f.rule not in ("Eq(6.11)", "Eq(6.23)", "Claim1")]
            if len(keep) == len(t.steps):
                continue  # n = 2, 3: the chain is empty
            new = {old: k for k, old in enumerate(keep)}
            steps = [dataclasses.replace(t.steps[i], premises=tuple(new.get(j, -1) for j in
                                                                    t.steps[i].premises))
                     for i in keep]
            last = len(steps) - 1
            for j in range(last):
                steps[last] = dataclasses.replace(steps[last],
                                                  premises=(j,) + steps[last].premises[1:])
                mutants += 1
                with pytest.raises(TraceError):
                    verify_trace(dataclasses.replace(t, steps=tuple(steps)))
        assert mutants > 0

    def test_derived_values_are_checked_against_their_premises(self):
        applied = [0] * len(DERIVED_TAMPERINGS)
        for n in range(2, 41):
            for t in replay(n):
                for i, fact in enumerate(t.steps):
                    for j, (key, change) in enumerate(DERIVED_TAMPERINGS):
                        if key in fact.payload:
                            applied[j] += 1
                            with pytest.raises(TraceError):
                                verify_trace(_tampered(t, i, **change(fact.payload)))
        assert all(applied), applied

    def test_the_rotation_sum_is_half_the_pinned_ihat(self):
        # a rotation sum a little below ihat/2, with every floor sum, range and
        # pigeonhole after it re-derived from it: only the Eq(6.9) link is wrong
        for n in range(3, 41):
            [t] = [x for x in replay(n) if x.case is Case.NCG1]
            [i] = [i for i, f in enumerate(t.steps) if f.rule in ("Eq(6.9)", "Eq(6.21)")]
            rho = t.steps[i].payload["value"] - Fraction(1, 10**9)
            bad = _tampered(t, i, value=rho)
            for j in range(i + 1, len(t.steps)):
                p = t.steps[j].payload
                if "total" in p:
                    r = floor_sum_range(p["m"], p["terms"], p["m"] * rho)
                    bad = _tampered(bad, j, total=p["m"] * rho, set=[r[0], r[-1]])
                elif "collisions" in p:
                    collisions = {n - 1 + 2 * s: s + 1 for s in r}
                    bad = _tampered(bad, j, candidates=list(collisions), collisions=collisions)
            with pytest.raises(TraceError, match="ihat/2"):
                verify_trace(bad)

    def test_the_pin_solves_the_identity(self):
        # a pinned ihat a little off, with every ihat and p/2 after it following
        # it: only the identity itself fails
        mutants = 0
        for n in range(2, 41):
            for t in replay(n):
                if t.verdict is not Verdict.CONTRADICTION or t.case is Case.NCG1:
                    continue
                ihat = t.steps[0].payload["value"] + Fraction(1, 10**9)
                bad = _tampered(t, 0, value=ihat)
                for j, fact in enumerate(bad.steps):
                    if "ihat" in fact.payload:
                        bad = _tampered(bad, j, ihat=ihat)
                    if "p_half" in fact.payload:
                        bad = _tampered(bad, j, p_half=ihat / 2)
                mutants += 1
                with pytest.raises(TraceError, match="identity re-check"):
                    verify_trace(bad)
        assert mutants > 0

    def test_traces_are_checked_as_a_whole(self):
        applied = dict.fromkeys(["detail", "case", "subcase", "not last", "rule", "p/2",
                                 "fact kind"], 0)
        for n in range(2, 41):
            traces = {(t.case, t.subcase): t for t in replay(n)}
            for t in traces.values():
                if t.verdict is not Verdict.CONTRADICTION:
                    continue
                mutants = [("detail", dataclasses.replace(t, detail=d))
                           for d in ("pigeonhole", "duplicate-degree", "sign", "rotation-count",
                                     "irrationality", "integrality", "vacuous") if d != t.detail]
                for case in Case:
                    subcase = "" if case is Case.NCG1 else t.subcase or "p even"
                    own = traces.get((case, subcase))
                    # another case's label is wrong unless its own trace has these very steps
                    if case is not t.case and not (own and own.steps == t.steps):
                        mutants.append(("case", dataclasses.replace(t, case=case, subcase=subcase)))
                mutants += [("subcase", dataclasses.replace(t, subcase=s))
                            for s in ("", "p even", "p odd", "p") if s != t.subcase]
                # the closing step repeated, so that a contradiction is not the last step
                mutants.append(("not last", dataclasses.replace(t, steps=t.steps + t.steps[-1:])))
                # a rotation count cited by the rule of the other parity of p - k
                swap = {"Eq(6.17)": "Eq(6.18)", "Eq(6.18)": "Eq(6.17)",
                        "Eq(6.31)": "Eq(6.29)", "Eq(6.29)": "Eq(6.31)"}
                if t.steps[-1].rule in swap:
                    mutants.append(("rule", _replaced(t, len(t.steps) - 1,
                                                      rule=swap[t.steps[-1].rule])))
                # an NCG5 trace closed instead by the p/2 bound of Step 2, Subcase 5.1
                if t.case is Case.NCG5 and t.steps[-1].rule != "Step2-Subcase5.1":
                    ihat = t.steps[0].payload["value"]
                    closing = SymbolicFact(FactKind.Contradiction, "", "Step2-Subcase5.1",
                                           {"ihat": ihat, "p_half": ihat / 2,
                                            "contradiction_kind": "integrality"}, (0,))
                    mutants.append(("p/2", dataclasses.replace(
                        t, steps=(t.steps[0], closing), detail="integrality")))
                for i, fact in enumerate(t.steps):
                    mutants += [("fact kind", _replaced(t, i, kind=k)) for k in FactKind
                                if k is not fact.kind]
                for label, bad in mutants:
                    applied[label] += 1
                    with pytest.raises(TraceError):
                        verify_trace(bad)
        assert all(applied.values()), applied

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_malformed_values_raise_trace_error(self, data):
        # one key of one step deleted, or given a value of another type
        n = data.draw(st.integers(2, 16))
        t = data.draw(st.sampled_from([t for t in replay(n) if t.steps]))
        i = data.draw(st.integers(0, len(t.steps) - 1))
        p = t.steps[i].payload
        key = data.draw(st.sampled_from(sorted(p)))
        if data.draw(st.booleans()):
            payload = _without(p, key)
        else:
            any_value = (st.none() | st.booleans() | st.integers() | st.floats() | st.fractions()
                         | st.text(max_size=3) | st.lists(st.integers(), max_size=2))
            value = data.draw(st.sampled_from(_retyped(p[key]))
                              | any_value.filter(lambda v: type(v) is not type(p[key])))
            payload = {**p, key: value}
        with pytest.raises(TraceError):
            verify_trace(_replaced(t, i, payload))

    def test_the_rule_table_has_no_dead_rows(self):
        # every (rule, contradiction kind) the replay emits has a row, and
        # every row is emitted
        even_rule = {odd: even for even, odd in _ODD_RULE.items()}
        emitted = set()
        for n in range(2, 41):
            for t in replay(n):
                for fact in t.steps:
                    key = (fact.rule, fact.payload.get("contradiction_kind"))
                    assert key in _TABLE[n % 2], (n, key)
                    emitted.add((even_rule.get(key[0], key[0]), key[1]))
        assert emitted == set(_RULES)

    def test_untampered_traces_verify(self):
        for n in range(2, 61):
            for t in replay(n):
                assert verify_trace(t)


# sha256 of certificate_json(n), pinned so that any change to the certificate
# bytes is deliberate; a schema change updates these and says so in CHANGES.md
GOLDEN_SHA256 = {
    2: "6f4f8fd566d793d3219049e340972657ffacd98206b3e7f5810a45e41ecc4b92",
    3: "8e9ecd2c5dc6e90977d955c56d5dfe0a63a8fa1bf5800c03ba3fa41fd6c7fcb1",
    4: "6fe93c3dccfe3c72a2fb5ee453cae353d06ab36c778165a25825511fcce911bc",
    5: "33a58024ae268039c974348c1af36aeca519331482fdbe7acf83da277be575e3",
    12: "15237432e0f679764b4d4fce31b17edd3d7384d41995103986aef6656d942ef8",
    81: "2a24d5f99d4241bed530e7e62866bbd880e833083d83893e588710ade285a306",
    120: "f19c755f5b18a4f40597c2b69179d80046e03a33b790161be8a811082305cad8",
    200: "9de63b6d935739e0bdbaa5aafe65df3e9433b239a61d1a86eaf18188a4c83f23",
}


class TestCertificate:
    @pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
    def test_golden_digest(self, n):
        assert hashlib.sha256(certificate_json(n).encode()).hexdigest() == GOLDEN_SHA256[n]

    def test_deterministic_json(self):
        assert certificate_json(5) == certificate_json(5)

    def test_schema(self):
        doc = json.loads(certificate_json(4))
        assert (doc["schema"], doc["n"]) == (2, 4)
        assert set(doc) == {"schema", "n", "traces"}  # a full certificate is not partial
        for trace in doc["traces"]:
            assert trace["verdict"] in ("contradiction", "vacuous")
            for i, step in enumerate(trace["steps"]):
                assert set(step) == {"rule", "kind", "statement", "values", "premises"}
                assert len(step["premises"]) <= 2 and all(0 <= j < i for j in step["premises"])

    def test_one_case_is_partial(self):
        for case in Case:
            doc = certificate(7, [t for t in replay(7) if t.case is case])
            assert (doc["schema"], doc["partial"]) == (2, True)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_decoded_content_matches_the_dense_definitions(self, n):
        # every range and sparse table of the certificate, expanded back to
        # dense form, against references built here from the definitions
        doc = json.loads(certificate_json(n))
        ranges = tables = 0
        for trace in doc["traces"]:
            for step in trace["steps"]:
                p = step["values"]
                if step["kind"] == "FloorSumRange":
                    total, terms = Fraction(p["total"]), p["terms"]
                    # the floor sum lies strictly between total - terms and total, and is >= 0
                    reference = [s for s in range(math.ceil(total)) if s > total - terms]
                    assert _expanded(p["set"]) == reference
                    ranges += 1
                cited = [p] if "hypothetical_M" in p else []
                if step["rule"] == "L6.3":
                    # one table per hypothetical i(c) < n-1 of the parity of n-1, i(c) >= 1
                    hypotheticals = [i for i in range(1, n - 1) if (i - n + 1) % 2 == 0]
                    assert [e["i_c"] for e in p["refuted"]] == hypotheticals
                    for e in p["refuted"]:
                        assert _dense(e["hypothetical_M"]) == [0] * e["i_c"] + [1, 0]
                    cited += p["refuted"]
                elif cited:  # L6.1 and L6.2 suppose M_q = 0 below degree n
                    assert _dense(p["hypothetical_M"]) == [0] * n
                for c in cited:
                    M = _dense(c["hypothetical_M"])
                    scan = check_morse_inequalities(M, betti_values(n, len(M) - 1), len(M) - 1)
                    assert Violation(**c["evidence"]) in scan
                    tables += 1
        assert ranges == (n - 1 if n % 2 == 0 else (n - 1) // 2) and tables > 0

    def test_bytes_grow_linearly_in_n(self):
        per_n = [len(certificate_json(n)) / n for n in (1000, 2000, 4000)]
        assert max(per_n) < 1.1 * min(per_n), per_n

    def test_steps_carry_rule_anchors(self):
        doc = certificate(6)
        rules = {s["rule"] for t in doc["traces"] for s in t["steps"]}
        assert "L6.1" in rules and "Eq(5.5)" in rules
