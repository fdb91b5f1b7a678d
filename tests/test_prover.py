import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlab import Case, ProofTrace, Verdict, replay, theta_set, verify_trace
from indexlab.morse import Violation, betti_values, check_morse_inequalities, euler_limit
from indexlab.prover import (
    FactKind,
    PreconditionError,
    SymbolicFact,
    TraceError,
    _verify_violation,
    _violation_at,
    certificate,
    certificate_json,
    check_lemma_6_1,
    check_lemma_6_2,
    check_lemma_6_3,
    check_lemma_6_5,
    floor_sum_range,
    pinned_mean_index,
)


class TestThetaSet:
    @pytest.mark.parametrize("n,expected", [(4, {3, 5, 7}), (5, {4, 6}), (2, {1}), (3, {2}), (6, {5, 7, 9, 11, 13})])
    def test_members(self, n, expected):
        assert theta_set(n) == frozenset(expected)


class TestFloorSumRange:
    def test_integer_total_pigeonhole(self):
        # n = 5 situation: m = 5 floors of irrationals summing exactly to 4
        assert floor_sum_range(5, 4, Fraction(4)) == {1, 2, 3}

    def test_generic_total_stays_below_m(self):
        for m in range(1, 30):
            n = 6
            total = Fraction(m * (n - 1), n)
            got = floor_sum_range(m, n - 1, total)
            assert got <= set(range(0, m))

    def test_single_term(self):
        assert floor_sum_range(1, 1, Fraction(1, 2)) == {0}

    def test_empty_range_possible(self):
        # one irrational in (0, 1) cannot have 2*rho = 1
        assert floor_sum_range(2, 1, Fraction(1)) == set()

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(2, 10**4), st.data())
    def test_matches_the_fraction_formula(self, m, terms, den, data):
        # den >= 2 keeps the draw non-empty; even numerators still give integers
        total = Fraction(data.draw(st.integers(1, m * terms * den - 1)), den)
        # the floor sum lies strictly inside (total - terms, total) and is >= 0
        first = max(0, math.floor(total - terms) + 1)
        last = math.ceil(total) - 1
        got = floor_sum_range(m, terms, total)
        assert type(got) is set and got == set(range(first, last + 1))

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
        fact = check_lemma_6_3(4, "even-n")
        [entry] = fact.payload["refuted"]
        assert entry["i_c"] == 1
        assert (entry["evidence"].lhs, entry["evidence"].rhs) == (-1, 0)

    def test_lower_bound_odd_n(self):
        fact = check_lemma_6_3(5, "odd-n")
        [entry] = fact.payload["refuted"]
        assert entry["i_c"] == 2
        assert (entry["evidence"].lhs, entry["evidence"].rhs) == (-1, 0)

    def test_lower_bound_vacuous_for_small_n(self):
        fact = check_lemma_6_3(2, "even-n")
        assert fact.payload["vacuous_hypothesis"]

    def test_wrong_parity_config_rejected(self):
        with pytest.raises(PreconditionError):
            check_lemma_6_3(4, "odd-n")


class TestLemma65:
    def test_unique_assignment(self):
        values = {m: 2 * (m - 1) + 3 for m in range(1, 4)}  # n = 4 staircase
        fact = check_lemma_6_5(4, values, 2)
        assert fact.payload["unique"]
        assert fact.payload["degrees"] == [3, 5, 7]

    def test_duplicate_at_bottom_degree(self):
        fact = check_lemma_6_5(4, {1: 3, 2: 3}, 0)
        assert fact.kind is FactKind.Contradiction
        assert (fact.payload["evidence"].lhs, fact.payload["evidence"].rhs) == (-2, -1)

    def test_duplicate_at_higher_degree(self):
        fact = check_lemma_6_5(4, {1: 3, 2: 5, 3: 5}, 1)
        assert fact.kind is FactKind.Contradiction
        assert (fact.payload["evidence"].lhs, fact.payload["evidence"].rhs) == (-3, -2)

    def test_precondition_initial_index(self):
        with pytest.raises(PreconditionError):
            check_lemma_6_5(4, {1: 5}, 0)

    def test_precondition_range(self):
        with pytest.raises(PreconditionError):
            check_lemma_6_5(4, {1: 3, 2: 9}, 1)


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
                    assert set(fact.payload["set"]) <= set(range(0, m))


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
                bad_steps[i] = SymbolicFact(
                    fact.kind, fact.statement, fact.rule,
                    {**fact.payload, "set": sorted(set(fact.payload["set"]) | {99})},
                )
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
        bad_steps = (SymbolicFact(fact.kind, fact.statement, fact.rule,
                                  {**fact.payload, "evidence": evidence}),) + t.steps[1:]
        bad = type(t)(t.n, t.case, t.subcase, bad_steps, t.verdict, t.detail)
        with pytest.raises(TraceError, match="not reproduced"):
            verify_trace(bad)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_cited_violation_matches_the_full_scan(self, data):
        M = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
        n = data.draw(st.integers(2, 12))
        q = data.draw(st.integers(-1, len(M)))
        kind = data.draw(st.sampled_from(["alternating", "pointwise"]) | st.text(max_size=12))
        scan = check_morse_inequalities(M, betti_values(n, len(M) - 1), len(M) - 1)
        [found] = [v for v in scan if (v.q, v.kind) == (q, kind)] or [None]
        if found is None:
            with pytest.raises(TraceError):
                _violation_at(M, n, q, kind)
        else:
            assert _violation_at(M, n, q, kind) == found
        lhs, rhs = data.draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
        if found is not None and data.draw(st.booleans()):
            lhs, rhs = found.lhs, found.rhs
        cited = Violation(q, kind, lhs, rhs)
        if cited in scan:
            _verify_violation(n, cited, M)
        else:
            with pytest.raises(TraceError):
                _verify_violation(n, cited, M)

    def test_open_trace_rejected(self):
        [t] = [x for x in replay(4) if x.case is Case.NCG5 and x.subcase == "p odd"]
        open_trace = type(t)(t.n, t.case, t.subcase, t.steps[:-1], t.verdict, t.detail)
        with pytest.raises(TraceError):
            verify_trace(open_trace)


def _replaced(trace, index, payload):
    fact = trace.steps[index]
    steps = list(trace.steps)
    steps[index] = SymbolicFact(fact.kind, fact.statement, fact.rule, payload)
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
            cfg = "even-n" if n % 2 == 0 else "odd-n"
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
                        extra = check_lemma_6_3(n + 2, cfg).payload["refuted"][-1]
                        mutants["refutation added"] = {**p, "refuted": refuted + [extra]}
                        mutants["flag flipped"] = {**p, "vacuous_hypothesis": not p["vacuous_hypothesis"]}
                    for kind, payload in mutants.items():
                        kinds.add((fact.rule, kind))
                        with pytest.raises(TraceError, match="not reproduced"):
                            verify_trace(_replaced(t, i, payload))
        assert len(kinds) == 2 * 2 + 5, sorted(kinds)

    def test_forged_evidence_needs_a_list_table(self):
        [t] = [x for x in replay(6) if x.case is Case.NCG1]
        p = t.steps[0].payload
        forged = {**_without(p, "hypothetical_M"), "evidence": Violation(0, "pointwise", -7, 5)}
        with pytest.raises(TraceError):
            verify_trace(_replaced(t, 0, forged))
        with pytest.raises(TraceError):
            verify_trace(_tampered(t, 0, hypothetical_M=tuple(p["hypothetical_M"])))

    def test_lemma_6_5_contradiction_needs_its_evidence(self):
        fact = check_lemma_6_5(4, {1: 3, 2: 3}, 0)
        trace = ProofTrace(4, Case.NCG1, "", (fact,), Verdict.CONTRADICTION, "pigeonhole")
        assert verify_trace(trace)
        for key in ("evidence", "hypothetical_M"):
            with pytest.raises(TraceError):
                verify_trace(_replaced(trace, 0, _without(fact.payload, key)))

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

    def test_untampered_traces_verify(self):
        for n in range(2, 61):
            for t in replay(n):
                assert verify_trace(t)


# sha256 of certificate_json(n), pinned so that any change to the certificate
# bytes is deliberate; a schema change updates these and says so in CHANGES.md
GOLDEN_SHA256 = {
    2: "9ec8bd890086320d8a5b79f7eaca7872db8bd28ed0ca81f2248140eceeae760f",
    3: "f17ab20a0e131ae36bfa939e92eedce8f4a4a0ec71866357412d90811471c8f9",
    4: "d2c94890b74be9d5577a32363dccb3e27f7b41961e9db04281f70491b8c7f4c7",
    5: "a32537d1822155e06119ac2eeb5f6ab3fcf66531c6cc20c9ecbd482a9c5ae658",
    12: "bee0b289066dc28201fedd60e09a94520bc78abe376aec3333299dca6eb99d68",
    81: "0dafbbdbf063264cd526895e0f4a93e747becc106d1fdc4374e5cbb3f3b8edad",
    120: "ef56f1addb886c997ff75f3349321abe1be9ef312629947cc8f9e19b48d2e205",
    200: "9a4a701765ab8ea3fcc7fbf8812d2f1e94d3cd888872875c63b8f1f9ce9d5e87",
}


class TestCertificate:
    @pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
    def test_golden_digest(self, n):
        assert hashlib.sha256(certificate_json(n).encode()).hexdigest() == GOLDEN_SHA256[n]

    def test_deterministic_json(self):
        assert certificate_json(5) == certificate_json(5)

    def test_schema(self):
        doc = json.loads(certificate_json(4))
        assert doc["n"] == 4
        for trace in doc["traces"]:
            assert trace["verdict"] in ("contradiction", "vacuous")
            for step in trace["steps"]:
                assert set(step) == {"rule", "kind", "statement", "values"}

    def test_steps_carry_rule_anchors(self):
        doc = certificate(6)
        rules = {s["rule"] for t in doc["traces"] for s in t["steps"]}
        assert "L6.1" in rules and "Eq(5.5)" in rules
