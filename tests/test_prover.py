import hashlib
import inspect
import json
import math
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexlab import ExactReal, GeodesicModel, replay, verify_certificate, verify_trace
from indexlab import checker, prover
from indexlab.checker import (
    _CLOSINGS,
    _LEAST,
    _RULES,
    _TABLE,
    TraceError,
    check_lemma_6_1,
    check_lemma_6_2,
    check_lemma_6_3,
    floor_sum_range,
)
from indexlab.cli import main
from indexlab.morse import betti_values, check_morse_inequalities, euler_limit
from indexlab.prover import certificate, certificate_json

from conftest import premises


def _sparse(dense):
    return {"length": len(dense), "entries": [[q, v] for q, v in enumerate(dense) if v]}


def _dense(sparse):
    dense = [0] * sparse["length"]
    for q, v in sparse["entries"]:
        dense[q] = v
    return dense


def _expanded(ends, step=1):
    """The integers a certificate's [first, last] (or []) stands for."""
    return list(range(ends[0], ends[1] + 1, step)) if ends else []


def _shifted(M, i0):
    """A sparse table counted from degree i0, read from degree 0."""
    return {"length": M["length"] + i0, "entries": [[q + i0, v] for q, v in M["entries"]]}


def _ratio(x):
    return f"{x.numerator}/{x.denominator}"


def _doc(n):
    """The certificate for n as a reader parses it."""
    return json.loads(certificate_json(n))


def _traces(n):
    return _doc(n)["traces"]


def _trace(n, case, subcase=""):
    [t] = [t for t in _traces(n) if (t["case"], t["subcase"]) == (case, subcase)]
    return t


def _built(n, trace):
    """The kernel's builder, holding the steps of a certificate trace rebuilt."""
    return _build(n, trace["case"], trace["subcase"], [
        (step["rule"], step["values"].get("contradiction_kind"), step["values"])
        for step in trace["steps"]])


def _lemma_step(rule, kind, lemma, n):
    """The step a lemma derives at n, as a trace holds it."""
    values = {k: _ratio(v) if type(v) is Fraction else v for k, v in lemma(n).items()}
    return {"rule": rule, "kind": kind, "values": values}


def _unrolled(n, trace):
    """The facts of a certificate trace with each family step expanded into
    the per-member facts it stands for, in order, as (rule, values): the L6.3
    hypotheticals into their refutations, the Eq(6.11) family and the
    Claim1 induction into one floor sum and one index per iterate, and the
    pigeonhole range into the degrees it collides on."""
    steps, facts = trace["steps"], []
    links = _built(n, trace).premises
    for step, premises in zip(steps, links):
        rule, p = step["rule"], step["values"]
        if rule == "L6.3":
            refuted = [{"i_c": i0, "hypothetical_M": _shifted(p["hypothetical_M"], i0),
                        "evidence": {**p["evidence"], "q": p["evidence"]["q"] + i0}}
                       for i0 in _expanded(p["hypotheses"], 2)]
            facts.append((rule, {"min": p["min"], "vacuous_hypothesis": not refuted,
                                 "refuted": refuted}))
        elif rule == "Claim1":
            family, base = (steps[j] for j in premises)
            rho = Fraction(steps[links[premises[0]][0]]["values"]["value"])
            for m in range(2, p["m"] + 1):
                facts.append((family["rule"], {"m": m, "terms": family["values"]["terms"],
                                               "total": _ratio(m * rho), "set": [0, m - 1]}))
                facts.append((rule, {"m": m, "i": base["values"]["i_c"] + 2 * (m - 1)}))
        elif rule == "L6.5":
            degrees = [n - 1 + 2 * s for s in _expanded(p["set"])]
            facts.append((rule, {"m": p["m"], "candidates": degrees, "contradiction_kind":
                                 "pigeonhole", "collisions": {str(q): (q - n + 1) // 2 + 1
                                                              for q in degrees}}))
        elif rule != "Eq(6.11)":  # the family is expanded with its Claim1
            facts.append((rule, p))
    return facts


def _check_unrolled(n, doc):
    """The unrolled facts of every trace of certificate `doc`, each floor sum,
    index, hypothetical and collision checked against references computed
    here from Fraction floors and ceilings."""
    unrolled = {(t["case"], t["subcase"]): _unrolled(n, t) for t in doc["traces"]}
    # every hypothetical i(c) < n-1 of the parity of n-1, i(c) >= 1: 1 at degree i(c)
    # fails at i(c)+1, where b_q - b_{q-1} + ... is 0, as every b_q below n-1 is
    assert betti_values(n, n - 2) == [0] * (n - 1)
    refuted = [{"i_c": i, "hypothetical_M": {"length": i + 2, "entries": [[i, 1]]},
                "evidence": {"q": i + 1, "kind": "alternating", "lhs": -1, "rhs": 0}}
               for i in range(1, n - 1) if (i - n + 1) % 2 == 0]
    for facts in unrolled.values():
        for rule, p in facts:
            if "total" in p and "terms" in p:
                total, terms = Fraction(p["total"]), p["terms"]
                # the floor sum lies strictly between total - terms and total, and is >= 0
                reference = range(max(0, math.floor(total - terms) + 1), math.ceil(total))
                assert _expanded(p["set"]) == list(reference), (n, rule, p)
            if rule == "Claim1":  # the top of its own floor-sum range, 2 above the iterate before
                assert p["i"] == n - 1 + 2 * reference[-1]
            if rule == "L6.3":
                assert p["refuted"] == refuted
    ncg1 = unrolled["NCG1", ""]
    m1 = n - 1 if n % 2 == 0 else (n - 1) // 2
    assert [p["m"] for rule, p in ncg1 if rule == "Claim1"] == list(range(2, m1 + 1))
    rule, closing = ncg1[-1]
    if rule == "L6.5":  # every collided iterate is an earlier one whose index Claim1 gives
        assert closing["candidates"] == [n - 1 + 2 * s for s in reference]
        assert all(0 < r <= m1 < closing["m"] for r in closing["collisions"].values())
    return unrolled


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

    @pytest.mark.parametrize("m, terms", [(0, 2), (2, 0), (-1, -1)])
    def test_a_count_below_one_is_refused_as_such(self, m, terms):
        # whichever count is below 1, the refusal says so, not that the total is inconsistent
        with pytest.raises(ValueError) as info:
            floor_sum_range(m, terms, Fraction(1, 2))
        assert str(info.value) == "m and terms must be positive"


class TestLemmaChecks:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_positive_mean_index(self, n):
        v = check_lemma_6_1(n)["evidence"]
        assert (v["q"], v["lhs"], v["rhs"]) == (n - 1, 0, 1)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_initial_index_upper_bound(self, n):
        values = check_lemma_6_2(n)
        assert values["max"] == n - 1
        v = values["evidence"]
        assert (v["q"], v["kind"], v["lhs"], v["rhs"]) == (n - 1, "pointwise", 0, 1)

    def test_lower_bound_even_n(self):
        values = check_lemma_6_3(4)
        assert values["hypotheses"] == [1, 1]
        assert (values["evidence"]["lhs"], values["evidence"]["rhs"]) == (-1, 0)

    def test_lower_bound_odd_n(self):
        values = check_lemma_6_3(5)
        assert values["hypotheses"] == [2, 2]
        assert (values["evidence"]["lhs"], values["evidence"]["rhs"]) == (-1, 0)

    def test_lower_bound_vacuous_for_small_n(self):
        for n in (2, 3):
            assert check_lemma_6_3(n) == {"min": n - 1, "hypotheses": []}


class TestIdentityPin:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_ncg1_values(self, n):
        # the value the Eq(5.5) step of the NCG1 trace pins, as `prove` emits it
        expected = Fraction(2 * (n - 1), n) if n % 2 == 0 else Fraction(2 * (n - 1), n + 1)
        [ncg1] = [t for t in replay(n) if t.case == "NCG1"]
        [pin] = [step for step in ncg1.steps if step["rule"] == "Eq(5.5)"]
        assert Fraction(pin["values"]["value"]) == expected


EXPECTED_DETAILS_EVEN = {
    ("NCG1", ""): "pigeonhole",
    ("NCG2", "p even"): "sign",
    ("NCG2", "p odd"): "rotation-count",
    ("NCG3", "p even"): "sign",
    ("NCG3", "p odd"): "rotation-count",
    ("NCG4", "p even"): "sign",
    ("NCG4", "p odd"): "irrationality",
    ("NCG5", "p even"): "sign",
    ("NCG5", "p odd"): "integrality",
}

EXPECTED_DETAILS_ODD = {
    ("NCG1", ""): "pigeonhole",
    ("NCG2", "p even"): "rotation-count",
    ("NCG2", "p odd"): "sign",
    ("NCG3", "p even"): "rotation-count",
    ("NCG3", "p odd"): "sign",
    ("NCG4", "p even"): "irrationality",
    ("NCG4", "p odd"): "sign",
    ("NCG5", "p even"): "integrality",
    ("NCG5", "p odd"): "sign",
}


class TestReplay:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_case_outcomes_match_the_derivations(self, n):
        expected = EXPECTED_DETAILS_EVEN if n % 2 == 0 else EXPECTED_DETAILS_ODD
        for t in replay(n):
            if t.verdict == "vacuous":
                continue
            assert t.detail == expected[(t.case, t.subcase)], (n, t.case, t.subcase)

    def test_vacuous_cases_for_small_n(self):
        tags = {t.case: t.verdict for t in replay(2)}
        assert tags["NCG2"] == "vacuous"
        assert tags["NCG3"] == "vacuous"
        assert tags["NCG4"] == "vacuous"
        assert tags["NCG1"] == "contradiction"
        assert tags["NCG5"] == "contradiction"

    def test_named_contradiction_strings(self):
        # the closing step's rule, contradiction kind and values of the named contradictions
        even = {(t.case, t.subcase): t.steps[-1] for t in replay(6)}
        rotation = even["NCG2", "p odd"]  # p - k < ihat < 1 gives n-2 < k <= n-2
        assert (rotation["rule"], rotation["values"]["contradiction_kind"]) == (
            "Eq(6.17)", "rotation-count")
        assert (rotation["values"]["k_lower"], rotation["values"]["k_upper"]) == (5, 4)
        assert Fraction(rotation["values"]["ihat"]) < 1
        assert even["NCG1", ""]["values"]["contradiction_kind"] == "pigeonhole"
        assert even["NCG1", ""]["values"]["m"] == 6
        odd = {(t.case, t.subcase): t.steps[-1] for t in replay(7)}
        p_half = odd["NCG5", "p even"]  # p is a positive even integer, so p/2 >= 1
        assert (p_half["rule"], p_half["values"]["contradiction_kind"]) == (
            "Step2-Subcase5.1", "integrality")
        assert Fraction(p_half["values"]["p_half"]) < 1
        assert odd["NCG1", ""]["values"]["contradiction_kind"] == "pigeonhole"
        assert odd["NCG1", ""]["values"]["m"] == 4

    def test_every_trace_revalidates(self):
        for n in range(2, 21):
            for t in _traces(n):
                assert verify_trace(n, t)

    def test_floor_sum_facts_are_subsets_of_the_loose_sets(self):
        for n in (4, 5, 8, 9):
            [ncg1] = [t for t in json.loads(certificate_json(n))["traces"] if t["case"] == "NCG1"]
            for _, p in _unrolled(n, ncg1):
                if "total" in p:
                    assert set(_expanded(p["set"])) <= set(range(0, p["m"]))


class TestVerifier:
    def test_tampered_identity_is_caught(self):
        t = _trace(4, "NCG2", "p odd")
        with pytest.raises(TraceError):
            verify_trace(4, _tampered(t, 0, value="5/7"))

    @pytest.mark.parametrize("n", [1, 0, -3, True, 2.0, "2", None], ids=repr)
    def test_n_is_an_integer_of_at_least_2(self, n):
        # traces of n = 2, one vacuous: no census at n < 2 reaches NCG2 either
        for trace in (_trace(2, "NCG2"), _trace(2, "NCG1")):
            with pytest.raises(TraceError, match="n must be"):
                verify_trace(n, trace)

    def test_prover_binds_the_checker_functions_the_benchmark_traces(self):
        # bench/tracing.py wraps prover.verify_trace and prover.floor_sum_range and patches
        # every module that binds the same object: a function of its own would read 0 calls
        assert prover.verify_trace is checker.verify_trace
        assert prover.floor_sum_range is checker.floor_sum_range

    def test_tampered_floor_sum_is_caught(self):
        t = _trace(6, "NCG1")
        tampered = 0
        for i, step in enumerate(t["steps"]):
            if step["kind"] == "FloorSumRange":
                # the family's iterates, or the range, widened to reach 99
                p = step["values"]
                key = "set" if "set" in p else "iterates"
                tampered += 1
                with pytest.raises(TraceError):
                    verify_trace(6, _tampered(t, i, **{key: [p[key][0], 99]}))
        assert tampered == 2

    @pytest.mark.parametrize("change", [{"q": 0}, {"lhs": -1}, {"rhs": 2}])
    def test_tampered_evidence_is_caught(self, change):
        # still a cited failure (lhs < rhs), but not one its table produces
        t = _trace(6, "NCG1")
        [i] = [i for i, step in enumerate(t["steps"]) if step["rule"] == "L6.2"]
        evidence = {**t["steps"][i]["values"]["evidence"], **change}
        with pytest.raises(TraceError, match=r"\(L6\.2\): values .* those the rule derives"):
            verify_trace(6, _tampered(t, i, evidence=evidence))

    def test_lemma_evidence_is_the_failure_the_full_scan_finds(self):
        # an oracle for the lemma rows: each cited failure is the one that morse's scan of
        # the dense hypothetical table finds at its degree and kind; L6.3's table and
        # failure are counted from its last hypothetical i(c)
        cited = set()
        for n in range(2, 61):
            for t in _traces(n):
                for step in t["steps"]:
                    p = step["values"]
                    if step["rule"] not in ("L6.1", "L6.2", "L6.3") or "evidence" not in p:
                        continue
                    shift = p["hypotheses"][1] if step["rule"] == "L6.3" else 0
                    dense = [0] * shift + _dense(p["hypothetical_M"])
                    scan = check_morse_inequalities(dense, betti_values(n, len(dense) - 1),
                                                    len(dense) - 1)
                    q, kind = p["evidence"]["q"], p["evidence"]["kind"]
                    [(lhs, rhs)] = [v[2:] for v in scan if v[:2] == (q + shift, kind)]
                    assert p["evidence"] == {"q": q, "kind": kind, "lhs": lhs, "rhs": rhs}
                    cited.add(step["rule"])
        assert cited == {"L6.1", "L6.2", "L6.3"}

    def test_a_lemma_failure_is_stated_only_where_it_fails(self, monkeypatch):
        # each lemma row states its failure directly, so it must refuse one that does not
        # hold: a Betti side of 0 at q = n-1 for the zero table, or -1 at L6.3's last i0 + 1
        monkeypatch.setattr(checker, "betti", lambda n, q: 0 if q == n - 1 else 1)
        for lemma in (check_lemma_6_1, check_lemma_6_2):
            with pytest.raises(TraceError, match=r"^the zero table meets b_5 = 0$"):
                lemma(6)
        monkeypatch.setattr(checker, "alternating_betti_sum", lambda n, q: -1 if q == 4 else 0)
        with pytest.raises(TraceError, match=r"^A_4 = -1 is not above the table's -1$"):
            check_lemma_6_3(6)

    def test_open_trace_rejected(self):
        t = _trace(4, "NCG5", "p odd")
        with pytest.raises(TraceError):
            verify_trace(4, {**t, "steps": t["steps"][:-1]})

    def test_a_step_holds_no_statement(self):
        # a step holds a rule, a kind of fact and values: prose is not checked,
        # so a step that carries any, even an empty statement, is rejected
        for n in range(2, 13):
            for t in _traces(n):
                for i in range(len(t["steps"])):
                    for text in ("i(c) = n-1", ""):
                        # the step is quoted whole, or cut and marked
                        with pytest.raises(TraceError, match=rf"^step {i} \(.*\): not {{.*[}}…], "
                                                             "the step its rule builds$"):
                            verify_trace(n, _replaced(t, i, statement=text))

    def test_a_schema_3_certificate_is_rejected(self):
        for n in (2, 3, 12):
            with pytest.raises(TraceError, match="not a certificate: schema 6"):
                verify_certificate(schema_3(n))
            with pytest.raises(TraceError, match=r"step 0 \(Eq\(5\.5\)\): values {.*'relation'.*} "
                                                 "are not {.*}, those the rule derives$"):
                verify_certificate({**schema_3(n), "schema": 6})

    def test_a_schema_4_certificate_is_rejected(self):
        # a step that still holds its premises, or a value that still holds its relation
        for n in (2, 3, 12):
            with pytest.raises(TraceError, match="not a certificate: schema 6"):
                verify_certificate(schema_4(n))
            with pytest.raises(TraceError, match=r"step 0 \(Eq\(5\.5\)\): values {.*'relation'.*} "
                                                 "are not {.*}, those the rule derives$"):
                verify_certificate({**schema_4(n), "schema": 6})
        relations = 0
        for n in range(2, 41):
            for t, old in zip(_traces(n), schema_4(n)["traces"]):
                for i, (step, kept) in enumerate(zip(t["steps"], old["steps"])):
                    with pytest.raises(TraceError, match=rf"step {i} \(.*\): not {{.*[}}…], the "
                                                         "step its rule builds$"):
                        verify_trace(n, _replaced(t, i, premises=kept["premises"]))
                    if "relation" in kept["values"]:
                        relations += 1
                        with pytest.raises(TraceError, match=rf"step {i} .*'relation'.* are not "
                                                                 "{.*}, those the rule derives"):
                            verify_trace(n, _replaced(t, i, kept["values"]))
        assert relations > 0

    def test_a_schema_5_certificate_is_rejected(self):
        # a vacuous trace that still holds its reason, or a schema-6 document relabelled 5
        for n in (2, 3, 4, 12):
            with pytest.raises(TraceError, match="not a certificate: schema 6"):
                verify_certificate(schema_5(n))
            with pytest.raises(TraceError, match="not a certificate: schema 6"):
                verify_certificate({**_doc(n), "schema": 5})
            if n < 5:
                with pytest.raises(TraceError, match=r"detail '(even|odd) k .* are not 'vacuous' "
                                                     "and '', those its steps close$"):
                    verify_certificate({**schema_5(n), "schema": 6})


def _census_shapes(n):
    """The shapes GeodesicModel gives the censuses of dimension 2(n-1): a model with
    k rotations, r N-blocks and h hyperbolic blocks has k + 2r + h = n-1."""
    rho = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
    return {GeodesicModel(n, 1, [rho] * k, r, n - 1 - 2 * r - k).case
            for r in range((n - 1) // 2 + 1) for k in range(n - 2 * r)}


def _vacuous(case):
    return {"case": case, "subcase": "", "steps": [], "verdict": "vacuous", "detail": ""}


class TestShapeVacuity:
    def test_the_vacuous_shapes_are_those_no_census_reaches(self):
        # GeodesicModel accepts every census and names its shape: the kernel
        # must reach exactly those shapes
        for n in range(2, 41):
            reached = _census_shapes(n)
            assert reached == {c for c in _LEAST if n >= _LEAST[c]}, n
            assert [t.case for t in replay(n) if t.verdict == "vacuous"] == sorted(
                _CLOSINGS.keys() - reached), n

    @pytest.mark.parametrize("case", sorted(_LEAST))
    def test_each_least_n_is_the_first_census_of_its_shape(self, case):
        # n = 2 is the least dimension, so a shape reached there has no n below to miss it
        least = _LEAST[case]
        assert case in _census_shapes(least)
        assert least == 2 or case not in _census_shapes(least - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10**9])
    def test_the_builder_decides_vacuity_for_each_scope_replay_derives(self, n):
        for case in _CLOSINGS:
            for subcase in checker._subcases(n, case):
                assert checker._Steps(n, case, subcase).vacuous == (n < _LEAST[case])

    @pytest.mark.parametrize("n", [5, 6, 10**9, 10**9 + 1])
    def test_every_shape_is_reached_from_n_5(self, n):
        assert {c for c in _LEAST if n >= _LEAST[c]} == _CLOSINGS.keys()

    @pytest.mark.parametrize("case,least", [("NCG2", 4), ("NCG3", 5), ("NCG4", 3)])
    def test_a_vacuous_trace_is_accepted_below_the_least_n_only(self, case, least):
        assert verify_trace(least - 1, _vacuous(case))
        with pytest.raises(TraceError, match=f"^{case} '' is no case and subcase replay derives "
                                             f"at n = {least}$"):
            verify_trace(least, _vacuous(case))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_an_unknown_case_is_neither_vacuous_nor_refuted(self, n):
        with pytest.raises(TraceError, match="^NCG6 '' is no case and subcase replay derives"):
            verify_trace(n, _vacuous("NCG6"))
        trace = {**_doc(n)["traces"][0], "case": "NCG6"}
        with pytest.raises(TraceError, match="^NCG6 '' is no case and subcase replay derives"):
            verify_trace(n, trace)

    def test_a_reached_shape_has_no_vacuous_trace(self):
        # NCG3 is first reached at n = 5: its two subcases cannot give way to a vacuous
        # trace, with or without the reason schema 5 gave
        doc = _doc(5)
        k = [t["case"] for t in doc["traces"]].index("NCG3")
        for detail in ("", "odd k with 3 <= k <= n-2r-2 unsatisfiable for n = 5"):
            vacuous = {"case": "NCG3", "subcase": "", "steps": [], "verdict": "vacuous",
                       "detail": detail}
            refusal = "NCG3 '' is no case and subcase replay derives at n = 5$"
            with pytest.raises(TraceError, match=refusal):
                verify_trace(5, vacuous)
            for traces in ([vacuous], doc["traces"][:k] + [vacuous] + doc["traces"][k + 2:]):
                with pytest.raises(TraceError, match=refusal):
                    verify_certificate({**doc, "traces": traces})


def _replaced(trace, index, values=None, **changes):
    """The trace with step `index` given these values and these other field values."""
    steps = list(trace["steps"])
    step = steps[index]
    steps[index] = {**step, "values": step["values"] if values is None else values, **changes}
    return {**trace, "steps": steps}


def _tampered(trace, index, **changes):
    return _replaced(trace, index, {**trace["steps"][index]["values"], **changes})


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


# payload values the checker recomputes from n and the fact itself
TAMPERINGS = [
    ("p_half", lambda p: {"p_half": "0/1"}),
    ("k_lower", lambda p: {"k_lower": 50, "k_upper": 3}),
    # a floor-sum or pigeonhole range one wider, or one made up
    ("set", lambda p: {"set": [p["set"][0] - 1, p["set"][1]] if p["set"] else [0, 0]}),
    ("set", lambda p: {"set": [p["set"][0], p["set"][1] + 1] if p["set"] else [1, 0]}),
    # one hypothetical i(c) more, or a made-up one
    ("hypotheses", lambda p: {"hypotheses": [p["hypotheses"][0], p["hypotheses"][1] + 2]
                              if p["hypotheses"] else [1, 1]}),
    ("iterates", lambda p: {"iterates": [2, p["iterates"][1] + 1]}),
    ("iterates", lambda p: {"iterates": [1, p["iterates"][1]]}),
]


def _moved_total(p):
    # a larger total with the range it gives: consistent in itself, but not
    # m times the rotation sum of the Eq(6.9) premise
    total = Fraction(p["total"])
    total += Fraction(1, 2 * total.denominator)
    if "terms" not in p:  # the empty-range pigeonhole restates its premise's total
        return {"total": _ratio(total)}
    r = floor_sum_range(p["m"], p["terms"], total)
    return {"total": _ratio(total), "set": [r[0], r[-1]] if r else []}


# payload values each step's check derives from n and the values of its premises
DERIVED_TAMPERINGS = [
    ("value", lambda p: {"value": "123/1"}),  # Eq(6.9), and the Eq(5.5) and L6.1 values
    ("i_c", lambda p: {"i_c": 77}),
    ("p", lambda p: {"p": 5, "r": 9}),
    ("i", lambda p: {"i": p["i"] - 2}),  # a lower value, still n-1+2t with 0 <= t <= m-1
    ("total", _moved_total),
    ("terms", lambda p: {"terms": p["terms"] + 1}),
    ("max", lambda p: {"max": p["max"] + 2}),
    ("min", lambda p: {"min": p["min"] - 2}),
    ("i1_parity", lambda p: {"i1_parity": 1 - p["i1_parity"]}),
    ("zero_parity", lambda p: {"zero_parity": {"even": "odd", "odd": "even"}[p["zero_parity"]]}),
    ("rhs", lambda p: {"rhs": _ratio(-Fraction(p["rhs"]))}),
    ("m", lambda p: {"m": p["m"] + 1}),
    # a family valid in itself, but shorter than the one Claim1 reads
    ("iterates", lambda p: {"iterates": [2, p["iterates"][1] - 1]}),
]


def _retyped(v):
    """Values of other types that stand for v, some of them equal to it: for an
    int or the "a/b" of a fraction, the number itself as a float, an int or a bool."""
    out = [None, str(v), (v,), [v]]
    if type(v) is int or type(v) is str and "/" in v:
        x = Fraction(v)
        out += [float(x), x, int(x), bool(x)]
    if isinstance(v, (list, dict)):
        out += [tuple(v), list(v)]
    return [x for x in out if type(x) is not type(v)]


def _nearby(value):
    """Values of value's own type next to it: an int moved by 1 or 2, a string
    changed, a range emptied or made up, and each value nested in a list or
    dict moved in turn."""
    if type(value) is int:
        return [value + d for d in (-2, -1, 1, 2)]
    if type(value) is str:
        return [value + "'"]
    if type(value) is list:
        return [[] if value else [1, 1]] + [value[:k] + [x] + value[k + 1:]
                                            for k, v in enumerate(value) for x in _nearby(v)]
    return [{**value, k: x} for k, v in value.items() for x in _nearby(v)]


def _retyped_nested(value):
    """Copies of value with one int nested in it turned into a float or a bool."""
    def retyped(v):
        return [float(v), bool(v)] if type(v) is int else _retyped_nested(v)
    if type(value) is list:
        return [value[:k] + [x] + value[k + 1:] for k, v in enumerate(value) for x in retyped(v)]
    if type(value) is dict:
        return [{**value, k: x} for k, v in value.items() for x in retyped(v)]
    return []


def _kept(trace, keep):
    """The trace with only the steps `keep`."""
    return {**trace, "steps": [trace["steps"][i] for i in keep]}


def _premise_steps(steps):
    """Each step's derived premises as the ids of the steps themselves, None for a
    slot with no earlier step."""
    return [[id(steps[j]) if j >= 0 else None for j in links]
            for links in premises(steps)]


# the steps that each stand for a family of facts, one per member
FAMILY_RULES = {"L6.3", "Eq(6.11)", "Claim1", "L6.5"}


class TestMutations:
    def test_recomputed_payload_values_are_checked(self):
        applied = [0] * len(TAMPERINGS)
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    p = step["values"]
                    for j, (key, change) in enumerate(TAMPERINGS):
                        if key not in p:
                            continue
                        changes = change(p)
                        if {**p, **changes} != p:
                            applied[j] += 1
                            with pytest.raises(TraceError):
                                verify_trace(n, _tampered(t, i, **changes))
        assert all(applied), applied

    def test_evidence_without_its_table_is_rejected(self):
        mutants = 0
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    p = step["values"]
                    values = [_without(p, "hypothetical_M")] if "evidence" in p else []
                    for v in values:
                        mutants += 1
                        with pytest.raises(TraceError, match="those the rule derives"):
                            verify_trace(n, _replaced(t, i, v))
        assert mutants > 0

    def test_lemma_6_1_to_6_3_evidence_is_required(self):
        kinds = set()
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    p = step["values"]
                    mutants = {}
                    if step["rule"] in ("L6.1", "L6.2") and step["kind"] != "Contradiction":
                        mutants["no evidence"] = _without(p, "evidence")
                        mutants["no evidence, no table"] = _without(_without(p, "evidence"),
                                                                    "hypothetical_M")
                    if step["rule"] == "L6.3":
                        if p["hypotheses"]:
                            a, b = p["hypotheses"]
                            mutants["first hypothesis dropped"] = {**p, "hypotheses": [a + 2, b]}
                            mutants["last hypothesis dropped"] = {**p, "hypotheses": [a, b - 2]}
                            mutants["emptied"] = {"min": p["min"], "hypotheses": []}
                            mutants["other parity"] = {**p, "hypotheses": [a + 1, b + 1]}
                        # the family of a larger n: its last i(c) is not below n-1 here
                        larger = check_lemma_6_3(n + 2)
                        mutants["hypothesis added"] = {**larger, "min": n - 1}
                    for kind, values in mutants.items():
                        kinds.add((step["rule"], kind))
                        with pytest.raises(TraceError, match="those the rule derives"):
                            verify_trace(n, _replaced(t, i, values))
        assert len(kinds) == 2 * 2 + 5, sorted(kinds)

    def test_forged_evidence_needs_a_sparse_table(self):
        t = _trace(6, "NCG1")
        for i, step in enumerate(t["steps"]):
            p = step["values"]
            if "hypothetical_M" not in p:
                continue
            forged = {**_without(p, "hypothetical_M"),
                      "evidence": {"q": 0, "kind": "pointwise", "lhs": -7, "rhs": 5}}
            with pytest.raises(TraceError):
                verify_trace(6, _replaced(t, i, forged))
            for table in (_dense(p["hypothetical_M"]), {**p["hypothetical_M"], "entries": ()}):
                with pytest.raises(TraceError):
                    verify_trace(6, _tampered(t, i, hypothetical_M=table))

    def test_every_ihat_is_the_pinned_value(self):
        applied = set()
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    if step["values"].get("ihat", "9/2") != "9/2":
                        applied.add((t["case"], t["subcase"], t["detail"]))
                        with pytest.raises(TraceError):
                            verify_trace(n, _tampered(t, i, ihat="9/2"))
        for case in ("NCG2", "NCG3"):
            assert (case, "p odd", "rotation-count") in applied
        assert ("NCG4", "p odd", "irrationality") in applied

    def test_a_sign_closing_needs_a_pin_of_at_most_0(self):
        # each positive pin of a case that the sign may close, closed by Lemma 6.1's
        # sign contradiction instead: consistent but for the sign of the pin
        mutants = 0
        for n in range(2, 41):
            for t in _traces(n):
                if "sign" not in _CLOSINGS[t["case"]] or not t["steps"]:
                    continue
                pin = t["steps"][0]
                if Fraction(pin["values"]["value"]) <= 0:
                    continue
                closing = {"rule": "L6.1", "kind": "Contradiction", "values": {
                    "ihat": pin["values"]["value"], "contradiction_kind": "sign"}}
                lemma = _lemma_step("L6.1", "MeanIndexEquals", check_lemma_6_1, n)
                mutants += 1
                with pytest.raises(TraceError, match="sign contradiction cites a positive"):
                    verify_trace(n, {**t, "steps": [pin, lemma, closing], "detail": "sign"})
        assert mutants > 0

    @pytest.mark.parametrize("key", ["N", "s"])
    def test_the_pin_fits_the_case(self, key):
        # another period or sign, with the identity re-solved and every ihat
        # following it: consistent in itself, but not the pin of this case
        mutants = 0
        for n in range(2, 41):
            for t in _traces(n):
                if t["verdict"] != "contradiction":
                    continue
                [i] = [i for i, s in enumerate(t["steps"])
                       if s["rule"] == "Eq(5.5)" and "s" in s["values"]]
                p = t["steps"][i]["values"]
                N, s = (3 - p["N"], p["s"]) if key == "N" else (p["N"], -p["s"])
                ihat = _ratio(Fraction(s) / (N * euler_limit(n)))
                bad = _tampered(t, i, N=N, s=s, value=ihat)
                for j, step in enumerate(bad["steps"]):
                    if "ihat" in step["values"]:
                        bad = _tampered(bad, j, ihat=ihat)
                mutants += 1
                # the message names the period and sign that the case derives
                derived = rf"are not {{'N': {p['N']}, 'rhs': '[-0-9/]+', 's': {p['s']}, "
                with pytest.raises(TraceError, match=rf"step {i} \(Eq\(5\.5\)\): .* {derived}"):
                    verify_trace(n, bad)
        assert mutants > 0

    def test_swapped_or_relabelled_steps_are_rejected(self):
        # the premises are derived from the order of the steps, and the steps before
        # the closing take the rule table's order: two adjacent steps swapped are
        # rejected, also where every step still rests on the same steps (a swap of
        # two steps that read neither each other nor a rule of the other), which is
        # the same derivation written in another order
        applied = dict.fromkeys(["other derivation", "same derivation", "relabelled L6.3"], 0)
        for n in range(2, 41):
            for t in _traces(n):
                steps = t["steps"]
                derivation = _premise_steps(steps)
                for i in range(len(steps) - 1):
                    swapped = steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2:]
                    if swapped == steps:
                        continue
                    moved = dict(zip(map(id, swapped), _premise_steps(swapped)))
                    if [moved[id(step)] for step in steps] == derivation:
                        applied["same derivation"] += 1
                        # the step moved down is named, after the one it now follows
                        order = re.escape(f"step {i + 1} ({steps[i]['rule']}): not after "
                                          f"{steps[i + 1]['rule']}: the rule table's order")
                        with pytest.raises(TraceError, match=order):
                            verify_trace(n, {**t, "steps": swapped})
                    else:
                        applied["other derivation"] += 1
                        with pytest.raises(TraceError):
                            verify_trace(n, {**t, "steps": swapped})
                for i, step in enumerate(steps):
                    if step["rule"] == "L6.3":
                        applied["relabelled L6.3"] += 1
                        with pytest.raises(TraceError):
                            verify_trace(n, _replaced(t, i, {**step["values"], "hypotheses": []},
                                                      rule="L6.4"))
        # every adjacent swap at n = 2..40; the kernel once accepted the 523 of them
        # that keep the derivation
        assert applied["same derivation"] == 523
        assert applied["same derivation"] + applied["other derivation"] == 1128
        assert applied["relabelled L6.3"] > 0

    def test_claim1_rests_on_its_own_floor_sum_and_the_iterate_before(self):
        # each mutant is consistent in itself, but the induction does not reach
        # the family's last iterate m1 = 4, or does not start at i(c) = 8
        t = _trace(9, "NCG1")
        rules = [s["rule"] for s in t["steps"]]
        family, claim = rules.index("Eq(6.11)"), rules.index("Claim1")
        assert t["steps"][claim]["values"] == {"m": 4, "i": 14}
        for bad in (_tampered(t, family, iterates=[2, 3]),  # a true family, one iterate short
                    _tampered(t, claim, m=3, i=12),  # a true chain, one iterate short
                    _tampered(t, claim, i=16)):  # the chain of a base 2 above i(c)
            with pytest.raises(TraceError, match=r"\(Claim1\): values .* those the rule derives"):
                verify_trace(9, bad)

    def test_the_pigeonhole_needs_the_claim1_chain(self):
        # every Eq(6.11) and Claim1 step cut out: the pigeonhole then rests on
        # Cor6.4, and nothing establishes the indices of the iterates it collides with
        mutants = 0
        for n in range(2, 41):
            t = _trace(n, "NCG1")
            keep = [i for i, s in enumerate(t["steps"])
                    if s["rule"] not in ("Eq(6.11)", "Claim1")]
            if len(keep) == len(t["steps"]):
                continue  # n = 2, 3: the chain is empty
            mutants += 1
            with pytest.raises(TraceError, match="established"):
                verify_trace(n, _kept(t, keep))
        assert mutants > 0

    def test_derived_values_are_checked_against_their_premises(self):
        applied = [0] * len(DERIVED_TAMPERINGS)
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    for j, (key, change) in enumerate(DERIVED_TAMPERINGS):
                        if key in step["values"]:
                            applied[j] += 1
                            with pytest.raises(TraceError):
                                verify_trace(n, _tampered(t, i, **change(step["values"])))
        assert all(applied), applied

    def test_the_rotation_sum_is_half_the_pinned_ihat(self):
        # a rotation sum a little below ihat/2, with every floor sum, range and
        # pigeonhole after it re-derived from it: only the Eq(6.9) link is wrong
        for n in range(3, 41):
            t = _trace(n, "NCG1")
            steps = t["steps"]
            [i] = [i for i, s in enumerate(steps) if s["rule"] == "Eq(6.9)"]
            rho = Fraction(steps[i]["values"]["value"]) - Fraction(1, 10**9)
            bad = _tampered(t, i, value=_ratio(rho))
            for j in range(i + 1, len(steps)):
                p = steps[j]["values"]
                if "total" in p:
                    r = floor_sum_range(p["m"], p["terms"], p["m"] * rho)
                    bad = _tampered(bad, j, total=_ratio(p["m"] * rho), set=[r[0], r[-1]])
                elif steps[j]["rule"] == "L6.5":
                    bad = _tampered(bad, j, set=[r[0], r[-1]])
            with pytest.raises(TraceError, match=r"\(Eq\(6\.9\)\): values .* the rule derives"):
                verify_trace(n, bad)

    def test_the_pin_solves_the_identity(self):
        # a pinned ihat a little off, with every ihat and p/2 after it following
        # it: only the identity itself fails
        mutants = 0
        for n in range(2, 41):
            for t in _traces(n):
                if t["verdict"] != "contradiction" or t["case"] == "NCG1":
                    continue
                ihat = Fraction(t["steps"][0]["values"]["value"]) + Fraction(1, 10**9)
                bad = _tampered(t, 0, value=_ratio(ihat))
                for j, step in enumerate(bad["steps"]):
                    if "ihat" in step["values"]:
                        bad = _tampered(bad, j, ihat=_ratio(ihat))
                    if "p_half" in step["values"]:
                        bad = _tampered(bad, j, p_half=_ratio(ihat / 2))
                mutants += 1
                pin = r"step 0 \(Eq\(5\.5\)\): values .* the rule derives"
                with pytest.raises(TraceError, match=pin):
                    verify_trace(n, bad)
        assert mutants > 0

    def test_traces_are_checked_as_a_whole(self):
        applied = dict.fromkeys(["detail", "case", "subcase", "not last", "rule", "p/2",
                                 "fact kind"], 0)
        fact_kinds = {kind for kind, *_ in _RULES.values()}
        for n in range(2, 41):
            traces = {(t["case"], t["subcase"]): t for t in _traces(n)}
            for t in traces.values():
                if t["verdict"] != "contradiction":
                    continue
                steps = t["steps"]
                mutants = [("detail", {**t, "detail": d})
                           for d in ("pigeonhole", "duplicate-degree", "sign", "rotation-count",
                                     "irrationality", "integrality", "vacuous") if d != t["detail"]]
                for case in ("NCG1", "NCG2", "NCG3", "NCG4", "NCG5"):
                    subcase = "" if case == "NCG1" else t["subcase"] or "p even"
                    own = traces.get((case, subcase))
                    # another case's label is wrong unless its own trace has these very steps
                    if case != t["case"] and not (own and own["steps"] == steps):
                        mutants.append(("case", {**t, "case": case, "subcase": subcase}))
                mutants += [("subcase", {**t, "subcase": s})
                            for s in ("", "p even", "p odd", "p") if s != t["subcase"]]
                # the closing step repeated, so that a contradiction is not the last step
                mutants.append(("not last", {**t, "steps": steps + steps[-1:]}))
                # a rotation count cited by the rule of the other parity of p - k
                swap = {"Eq(6.17)": "Eq(6.18)", "Eq(6.18)": "Eq(6.17)"}
                if steps[-1]["rule"] in swap:
                    mutants.append(("rule", _replaced(t, len(steps) - 1,
                                                      rule=swap[steps[-1]["rule"]])))
                # an NCG5 trace closed instead by the p/2 bound of Step 2, Subcase 5.1
                if t["case"] == "NCG5" and steps[-1]["rule"] != "Step2-Subcase5.1":
                    ihat = steps[0]["values"]["value"]
                    closing = {"rule": "Step2-Subcase5.1", "kind": "Contradiction",
                               "values": {"ihat": ihat, "p_half": _ratio(Fraction(ihat) / 2),
                                          "contradiction_kind": "integrality"}}
                    mutants.append(("p/2", {**t, "steps": [steps[0], closing],
                                            "detail": "integrality"}))
                for i, step in enumerate(steps):
                    mutants += [("fact kind", _replaced(t, i, kind=k)) for k in sorted(fact_kinds)
                                if k != step["kind"]]
                for label, bad in mutants:
                    applied[label] += 1
                    with pytest.raises(TraceError):
                        verify_trace(n, bad)
        assert all(applied.values()), applied

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_malformed_values_raise_trace_error(self, data):
        # one key of one step deleted, or given a value of another type
        n = data.draw(st.integers(2, 16))
        t = data.draw(st.sampled_from([t for t in _traces(n) if t["steps"]]))
        i = data.draw(st.integers(0, len(t["steps"]) - 1))
        p = t["steps"][i]["values"]
        key = data.draw(st.sampled_from(sorted(p)))
        if data.draw(st.booleans()):
            values = _without(p, key)
        else:
            any_value = (st.none() | st.booleans() | st.integers() | st.floats() | st.fractions()
                         | st.text(max_size=3) | st.lists(st.integers(), max_size=2))
            value = data.draw(st.sampled_from(_retyped(p[key]))
                              | any_value.filter(lambda v: type(v) is not type(p[key])))
            values = {**p, key: value}
        with pytest.raises(TraceError):
            verify_trace(n, _replaced(t, i, values))

    def test_values_hold_no_unknown_key(self):
        for n in range(2, 13):
            for t in _traces(n):
                for i in range(len(t["steps"])):
                    for value in (0, "", [], {}):
                        tampered = _tampered(t, i, note=value)
                        with pytest.raises(TraceError, match="the rule derives$") as refused:
                            verify_trace(n, tampered)
                        # the values as given, 'note' among them, or cut and marked
                        given = repr(tampered["steps"][i]["values"])
                        quoted = given if len(given) <= 150 else given[:150] + "…"
                        assert f"values {quoted} are not" in str(refused.value)

    def test_values_hold_only_the_keys_of_their_row(self):
        # each step plus any one known key, valued as some step holds it, is rejected
        traces = {n: _traces(n) for n in range(2, 13)}
        held = {}
        for t in (t for ts in traces.values() for t in ts):
            for step in t["steps"]:
                for key, value in step["values"].items():
                    held.setdefault(key, value)
        # every key the derivations give, and the contradiction kind of a closing
        assert held.keys() == set("value s N rhs evidence hypothetical_M zero_parity i1_parity "
                                  "max min hypotheses i_c p r ihat terms iterates i m total set "
                                  "k_lower k_upper p_half contradiction_kind".split())
        mutants = 0
        for n, ts in traces.items():
            for t in ts:
                for i, step in enumerate(t["steps"]):
                    for key in held.keys() - step["values"].keys():
                        mutants += 1
                        with pytest.raises(TraceError):
                            verify_trace(n, _tampered(t, i, **{key: held[key]}))
        assert mutants > 0

    def test_every_field_of_each_family_step_is_checked(self):
        rules = set()
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    if step["rule"] not in FAMILY_RULES:
                        continue
                    rules.add(step["rule"])
                    for key, value in step["values"].items():
                        for x in _nearby(value):
                            with pytest.raises(TraceError):
                                verify_trace(n, _tampered(t, i, **{key: x}))
        assert rules == FAMILY_RULES

    def test_nested_ints_keep_their_type(self):
        # a range end, an evidence field or a table entry retyped to an equal float or bool
        keys = set()
        for n in range(2, 41):
            for t in _traces(n):
                for i, step in enumerate(t["steps"]):
                    for key, value in step["values"].items():
                        for x in _retyped_nested(value):
                            keys.add(key)
                            with pytest.raises(TraceError, match="is not an int or a string"):
                                verify_trace(n, _tampered(t, i, **{key: x}))
        assert keys == {"set", "hypotheses", "iterates", "evidence", "hypothetical_M"}

    def test_every_step_but_the_last_is_a_premise(self):
        mutants, rows_in_order = [0, 0], list(_RULES)
        for n in range(2, 41):
            for t in _traces(n):
                steps = t["steps"]
                for k in range(len(steps) - 1):
                    # step k dropped
                    dropped = _kept(t, [i for i in range(len(steps)) if i != k])
                    with pytest.raises(TraceError):
                        verify_trace(n, dropped)
                for k in range(len(steps)):
                    # a true step padded in after step k: it, or the step of its rule
                    # that later steps read no more, is cited by no later step
                    for pad in (steps[k],
                                _lemma_step("L6.1", "MeanIndexEquals", check_lemma_6_1, n),
                                _lemma_step("L6.2", "IndexRange", check_lemma_6_2, n)):
                        padded = steps[:k + 1] + [pad] + steps[k + 1:]
                        if k + 1 < len(padded) - 1:  # a padded closing is not the last step
                            # a pad out of the rule table's order is rejected for that first
                            rows = [rows_in_order.index((s["rule"], None)) for s in padded[:-1]]
                            in_order = all(a < b for a, b in zip(rows, rows[1:]))
                            mutants[in_order] += 1
                            with pytest.raises(TraceError, match="premises of no later step"
                                               if in_order else "the rule table's order"):
                                verify_trace(n, {**t, "steps": padded})
        assert all(mutants), mutants

    def test_a_missing_premise_is_named(self):
        # each trace without its Eq(5.5) pin: the first step that reads the pin names it
        for n in range(2, 41):
            for t in _traces(n):
                if t["steps"]:
                    with pytest.raises(TraceError, match=r"\): no earlier step of Eq\(5\.5\)$"):
                        verify_trace(n, _kept(t, range(1, len(t["steps"]))))

    def test_the_claim1_induction_cannot_be_cut_out(self):
        # the pigeonhole then rests on Cor6.4, which establishes the index of c^1 only
        for n in range(4, 41):
            t = _trace(n, "NCG1")
            rules = [s["rule"] for s in t["steps"]]
            keep = [i for i, rule in enumerate(rules) if rule != "Claim1"]
            with pytest.raises(TraceError):
                verify_trace(n, _kept(t, keep))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_m1_is_the_last_iterate_the_floor_sums_allow(self, shift):
        # m1 moved in the family, in the Claim1 induction, or in both; and the
        # pigeonhole iterate m1 + 1 moved alone or with them, its floor sum and
        # range re-derived: each mutant is consistent but for one link
        for n in range(4, 41):
            t = _trace(n, "NCG1")
            steps = t["steps"]
            rules = [s["rule"] for s in steps]
            family, claim = rules.index("Eq(6.11)"), rules.index("Claim1")
            floor, closing = rules.index("Eq(6.14)"), rules.index("L6.5")
            m1 = steps[family]["values"]["iterates"][1] + shift
            rho = Fraction(steps[family - 1]["values"]["value"])

            def moved(*parts):
                trace = t
                if "family" in parts:
                    trace = _tampered(trace, family, iterates=[2, m1])
                if "claim" in parts:
                    trace = _tampered(trace, claim, m=m1, i=n - 1 + 2 * (m1 - 1))
                if "claim m" in parts:  # the index of the old last iterate kept
                    trace = _tampered(trace, claim, m=m1)
                if "pigeonhole" in parts:  # at m1 + 1
                    ends = floor_sum_range(m1 + 1, n - 1, (m1 + 1) * rho)
                    ends = [ends[0], ends[-1]]
                    trace = _tampered(trace, floor, m=m1 + 1, total=_ratio((m1 + 1) * rho),
                                      set=ends)
                    trace = _tampered(trace, closing, m=m1 + 1, set=ends)
                return trace
            for parts in (("family",), ("claim",), ("family", "claim"), ("pigeonhole",),
                          ("claim", "pigeonhole"), ("claim m", "pigeonhole"),
                          ("family", "claim", "pigeonhole")):
                with pytest.raises(TraceError):
                    verify_trace(n, moved(*parts))

    def test_the_rule_table_has_no_dead_rows(self):
        # every (rule, contradiction kind) the replay emits has a row, and
        # every row is emitted
        emitted = set()
        for n in range(2, 41):
            for t in _traces(n):
                for step in t["steps"]:
                    key = (step["rule"], step["values"].get("contradiction_kind"))
                    assert key in _TABLE, (n, key)
                    emitted.add(key)
        assert emitted == set(_RULES) == set(_TABLE)

    def test_untampered_traces_verify(self):
        for n in range(2, 61):
            assert verify_certificate(_doc(n))


# every certificate is shorter than this, for any n up to 10^9: only the digits of n grow it
CERTIFICATE_BYTES = 16_000

# sha256 of certificate_json(n), pinned so that any change to the certificate
# bytes is deliberate; a schema change updates these and says so in CHANGES.md
GOLDEN_SHA256 = {
    2: "b05045d021019d3aa70d1b398c562af36a7cacd9c274b3bcccf781124089f8be",
    3: "ee45ee17774dacd9920825118cc6c51fc88a997e79bf97f9144b411ddfdc4626",
    4: "7c1e6b3ba12857df4847f4a2e20512ef017603a537aceaa9a002ed6a8b78955d",
    5: "ce4fc42285bc6846fa3252f4769550c1c4493f0420adf07ee857e4361a8b4972",
    12: "3fa2baa8a50741ac632c7d45471c6cddc86c2c08faae96c87dfcc68425e6e20c",
    81: "74ff7d64b0ff90586f95e125d4f3ff905d0fe31af7ccd18b4040ff241fe8699e",
    120: "81171a282334ed236b7b81b2b5de7c989a72f2f9274e5362101b9ceb395043e3",
    200: "8353ee3a3df235252b6c1c56413a20fc9d30146d4ea39f756999737a8b5afcdb",
}

# the relation each value of these rows stated in schema 4, the same at every n
SCHEMA_4_RELATIONS = {("L6.1", None): ">", ("Eq(5.5)", None): "=", ("Eq(6.9)", None): "="}


# the reason schema 5 gave in the detail of a vacuous trace of each shape, here without its n
SCHEMA_5_REASONS = {"NCG2": "even k with 2 <= k <= n-2r-2 unsatisfiable",
                    "NCG3": "odd k with 3 <= k <= n-2r-2 unsatisfiable",
                    "NCG4": "one rotation plus a hyperbolic block needs n - 2r - 1 >= 2"}


def schema_5(n):
    """A schema-5 certificate document for n, built from schema 6: each vacuous
    trace with a reason put back in its detail."""
    doc = {**_doc(n), "schema": 5}
    for t in doc["traces"]:
        if t["verdict"] == "vacuous":
            t["detail"] = SCHEMA_5_REASONS[t["case"]]
    return doc


def schema_4(n):
    """The schema-4 certificate document for n, rebuilt from schema 5: each step
    with the premises the checker derives and its row's relation put back."""
    doc = {**schema_5(n), "schema": 4}
    for t in doc["traces"]:
        t["steps"] = [
            {**step, "premises": premises, "values": step["values"] | (
                {"relation": relation} if (relation := SCHEMA_4_RELATIONS.get(
                    (step["rule"], step["values"].get("contradiction_kind")))) else {})}
            for step, premises in zip(t["steps"], _built(n, t).premises)]
    return doc


def schema_3(n):
    """A schema-3 certificate document for n, built from schema 4: each step with
    a statement."""
    doc = {**schema_4(n), "schema": 3}
    for t in doc["traces"]:
        t["steps"] = [{**step, "statement": "i(c) = n-1"} for step in t["steps"]]
    return doc


class TestCertificate:
    @pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
    def test_golden_digest(self, n):
        assert hashlib.sha256(certificate_json(n).encode()).hexdigest() == GOLDEN_SHA256[n]

    def test_every_function_is_reached_by_a_command(self, capsys, tmp_path):
        # prove and verify run every function prover defines: none is there for a reader alone
        functions = {f.__code__: name for name, f in vars(prover).items()
                     if inspect.isfunction(f) and f.__module__ == prover.__name__}
        ran = set()

        def called(frame, event, arg):
            ran.add(frame.f_code)

        previous = sys.gettrace()
        sys.settrace(called)
        try:
            for k in range(2, 10):
                assert main(["prove", "--n", str(k)]) == 0
            assert main(["prove", "--n", "9", "--json", str(tmp_path / "9.json")]) == 0
            assert main(["verify", str(tmp_path / "9.json")]) == 0
        finally:
            sys.settrace(previous)
        capsys.readouterr()
        unreached = sorted(name for code, name in functions.items() if code not in ran)
        assert functions and unreached == []

    def test_every_kernel_function_is_reached_by_verify(self):
        # verifying certificates runs every function, _Steps method and rule derivation that
        # checker holds but quote, which only a refusal calls: the kernel holds nothing else
        functions = {f.__code__: name for name, f in vars(checker).items()
                     if inspect.isfunction(f) and f.__module__ == checker.__name__}
        functions |= {f.__code__: f"_Steps.{name}" for name, f in vars(checker._Steps).items()
                      if inspect.isfunction(f)}
        functions |= {derive.__code__: f"_RULES[{key}]"
                      for key, (_, _, derive) in checker._RULES.items()}
        docs = [json.loads(certificate_json(n)) for n in (*range(2, 8), 12, 81)]
        ran = set()

        def called(frame, event, arg):
            ran.add(frame.f_code)

        previous = sys.gettrace()
        sys.settrace(called)
        try:
            for doc in docs:
                assert verify_certificate(doc)
        finally:
            sys.settrace(previous)
        unreached = sorted(name for code, name in functions.items() if code not in ran)
        assert unreached == ["quote"]

    def test_deterministic_json(self):
        assert certificate_json(5) == certificate_json(5)

    def test_schema(self):
        doc = json.loads(certificate_json(4))
        assert (doc["schema"], doc["n"]) == (6, 4)
        assert set(doc) == {"schema", "n", "traces"}  # a full certificate is not partial
        for trace in doc["traces"]:
            assert trace["verdict"] in ("contradiction", "vacuous")
            for i, step in enumerate(trace["steps"]):
                assert set(step) == {"rule", "kind", "values"}
            for i, premises in enumerate(_built(4, trace).premises):
                assert len(premises) <= 2 and all(0 <= j < i for j in premises)
        # each rule occurs at most once before the closing step, which may
        # repeat the rule of a premise (Eq(6.14), say, in the empty-range closing)
        for n in (2, 3, 4, 5, 8, 9, 1000, 1001):
            for t in replay(n):
                rules = [s["rule"] for s in t.steps[:-1]]
                assert len(set(rules)) == len(rules)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 1000])
    def test_traces_are_the_certificate_values(self, n):
        # each field of a replayed trace is already the JSON value the certificate holds
        traces = replay(n)
        for t in traces:
            assert json.loads(json.dumps(t._asdict())) == t._asdict()
        assert [t._asdict() for t in traces] == certificate(n)["traces"]

    def test_round_trip(self):
        # replay builds JSON-native steps: the parsed bytes are the document itself,
        # they dump back to the same bytes, and the checker accepts them
        for n in range(2, 51):
            text = certificate_json(n)
            doc = json.loads(text)
            assert doc == certificate(n) and verify_certificate(doc)
            assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text

    @pytest.mark.parametrize("n", range(2, 61))
    def test_decoded_content_matches_the_dense_definitions(self, n):
        # every family of the certificate unrolled, each range and sparse table
        # expanded to dense form, against references built here from the definitions
        unrolled = _check_unrolled(n, json.loads(certificate_json(n)))
        ranges = tables = 0
        for facts in unrolled.values():
            for rule, p in facts:
                ranges += "total" in p and "terms" in p
                cited = [p] if "hypothetical_M" in p else []
                if rule == "L6.3":
                    cited += p["refuted"]
                    for e in p["refuted"]:
                        assert _dense(e["hypothetical_M"]) == [0] * e["i_c"] + [1, 0]
                elif cited:  # L6.1 and L6.2 suppose M_q = 0 below degree n
                    assert _dense(p["hypothetical_M"]) == [0] * n
                for c in cited:
                    M = _dense(c["hypothetical_M"])
                    scan = check_morse_inequalities(M, betti_values(n, len(M) - 1), len(M) - 1)
                    e = c["evidence"]
                    assert (e["q"], e["kind"], e["lhs"], e["rhs"]) in scan
                    tables += 1
        assert ranges == (n - 1 if n % 2 == 0 else (n - 1) // 2) and tables > 0

    def test_family_steps_expand_to_the_unrolled_facts(self):
        # the expansion of test_decoded_content_matches_the_dense_definitions,
        # without the dense scans, to n = 500
        for n in range(2, 501):
            _check_unrolled(n, json.loads(certificate_json(n)))

    def test_bytes_are_bounded_independently_of_n(self):
        sizes = [len(certificate_json(n)) for n in (1000, 1001, 9999, 10000, 99999, 100000)]
        assert max(sizes) < CERTIFICATE_BYTES, sizes

    def test_a_billion_is_as_quick_and_small_as_any_n(self, capsys):
        # every unrolled family is one step, so neither time nor bytes grow with n
        start = time.perf_counter()
        code = main(["prove", "--n", "1000000000"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["n"] == 10**9
        assert elapsed < 1.0 and len(out) < CERTIFICATE_BYTES, (elapsed, len(out))

    def test_steps_carry_rule_anchors(self):
        doc = certificate(6)
        rules = {s["rule"] for t in doc["traces"] for s in t["steps"]}
        assert "L6.1" in rules and "Eq(5.5)" in rules


def _without_trace(doc, k):
    return {**doc, "traces": doc["traces"][:k] + doc["traces"][k + 1:]}


# the refusal of a document, or of its trace 0, up to the first fault it names
_DOC = "not a certificate: schema 6, integer n >= 2, traces; got "
_TRACE = "trace 0: not a trace: keys case, subcase, steps, verdict, detail; got "


def _first_trace(edit):
    return lambda doc: {**doc, "traces": [edit(doc["traces"][0]), *doc["traces"][1:]]}


class TestCertificateDocument:
    """verify_certificate checks the document around the traces."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
    def test_each_trace_once_in_replay_order(self, n):
        doc = _doc(n)
        traces = doc["traces"]
        mutants = []
        for k in range(len(traces)):
            mutants.append(_without_trace(doc, k))  # dropped
            mutants.append({**doc, "traces": traces[:k + 1] + traces[k:]})  # duplicated
            for j in range(k + 1, len(traces)):
                swapped = list(traces)
                swapped[k], swapped[j] = traces[j], traces[k]
                mutants.append({**doc, "traces": swapped})
        for bad in mutants:
            with pytest.raises(TraceError):
                verify_certificate(bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_a_partial_key_or_a_left_out_case_is_refused(self, n):
        # one document kind per n: every case shape, and no "partial" key of any value
        doc = _doc(n)
        for v in (True, False, None):
            with pytest.raises(TraceError, match="not a certificate"):
                verify_certificate({**doc, "partial": v})
        for case in _CLOSINGS:
            alone = {**doc, "traces": [t for t in doc["traces"] if t["case"] == case]}
            without = {**doc, "traces": [t for t in doc["traces"] if t["case"] != case]}
            for bad in (alone, without):
                with pytest.raises(TraceError, match="each once in replay order"):
                    verify_certificate(bad)
            with pytest.raises(TraceError, match="not a certificate"):
                verify_certificate({**alone, "partial": True})

    @pytest.mark.parametrize("change", [
        {"schema": 2}, {"schema": 3}, {"schema": 4}, {"schema": 5}, {"schema": 7},
        {"schema": 3.0}, {"schema": 4.0}, {"schema": 5.0}, {"schema": 6.0}, {"schema": "3"},
        {"schema": "4"}, {"schema": "5"}, {"schema": "6"}, {"schema": True},
        {"n": 80.0}, {"n": "80"}, {"n": True}, {"n": None}, {"n": 81}, {"n": 1},
        {"traces": []}, {"traces": {}}, {"traces": None}, {"comment": ""},
    ], ids=repr)
    def test_schema_n_and_traces_are_exact(self, change):
        with pytest.raises(TraceError):
            verify_certificate({**_doc(80), **change})

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_is_at_least_2(self, n):
        # one vacuous trace per case shape, as no census at this n reaches any shape: the
        # document replay would give if it replayed n, refused for its n alone
        doc = {"schema": 6, "n": n, "traces": [_vacuous(case) for case in _CLOSINGS]}
        with pytest.raises(TraceError, match="not a certificate"):
            verify_certificate(doc)

    def test_a_certificate_has_a_trace(self):
        with pytest.raises(TraceError):
            verify_certificate({"schema": 6, "n": 5, "traces": []})

    @pytest.mark.parametrize("key", ["schema", "n", "traces"])
    def test_every_key_is_required(self, key):
        with pytest.raises(TraceError):
            verify_certificate(_without(_doc(5), key))

    @pytest.mark.parametrize("edit,refusal", [
        (lambda d: {**d, "partial": True}, _DOC + "an extra key 'partial'"),
        (lambda d: {**d, "comment": ""}, _DOC + "an extra key 'comment'"),
        (lambda d: _without(d, "n"), _DOC + "no key 'n'"),
        (lambda d: {**_without(d, "n"), "partial": True}, _DOC + "no key 'n'"),
        (lambda d: {**d, "n": None, "partial": True}, _DOC + "n of type NoneType"),
        (lambda d: {**d, "schema": 6.0}, _DOC + "schema of type float"),
        (lambda d: {**d, "traces": {}}, _DOC + "traces of type dict"),
        (lambda d: {**d, "schema": 5}, _DOC + "schema = 5, n = 5"),
        (lambda d: {**d, "n": 1}, _DOC + "schema = 6, n = 1"),
        (lambda d: [d], _DOC + "type list, not dict"),
        # the frame of trace 0, the NCG1 trace, read by the same check
        (_first_trace(lambda t: {**t, "comment": ""}), _TRACE + "an extra key 'comment'"),
        (_first_trace(lambda t: _without(t, "detail")), _TRACE + "no key 'detail'"),
        (_first_trace(lambda t: {**t, "steps": {}}), _TRACE + "steps of type dict"),
        (_first_trace(lambda t: [t]), _TRACE + "type list, not dict"),
        (_first_trace(lambda t: {**t, "case": True}), _TRACE + "case of type bool"),
    ], ids=["partial", "comment", "no n", "no n, partial", "n null, partial", "schema 6.0",
            "traces {}", "schema 5", "n 1", "in a list", "trace comment", "trace without detail",
            "trace steps {}", "trace in a list", "trace case true"])
    def test_the_refusal_names_the_first_fault(self, edit, refusal):
        with pytest.raises(TraceError, match=re.escape(refusal) + "$"):
            verify_certificate(edit(_doc(5)))

    @pytest.mark.parametrize("doc", [None, [], "{}", 3])
    def test_a_certificate_is_an_object(self, doc):
        with pytest.raises(TraceError):
            verify_certificate(doc)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_a_vacuous_trace_carries_no_prose(self, n):
        # its detail is "": the shape, which no census at n reaches, is its whole reason
        doc = _doc(n)
        vacuous = 0
        for k, t in enumerate(doc["traces"]):
            if t["verdict"] != "vacuous":
                continue
            vacuous += 1
            assert t["detail"] == ""
            for bad in ({**t, "detail": "no census reaches the shape"}, {**t, "detail": "'"},
                        {**t, "subcase": "p even"}, {**t, "verdict": "contradiction"},
                        {**t, "verdict": "Vacuous"}):
                traces = list(doc["traces"])
                traces[k] = bad
                with pytest.raises(TraceError):
                    verify_certificate({**doc, "traces": traces})
        assert vacuous == 5 - len({c for c in _LEAST if n >= _LEAST[c]})  # 3, 2 and 0

    def test_every_field_keeps_its_json_type(self):
        # each field of a trace or of one of its steps removed, given a value of
        # another JSON type, or joined by a field of no meaning
        others = [None, True, 0, 1.5, "", [], {}]
        mutants = 0
        for n in (2, 3, 6, 7):
            for t in _traces(n):
                bad = [_without(t, key) for key in t] + [{**t, "note": ""}]
                bad += [{**t, key: x} for key in t for x in others if type(x) is not type(t[key])]
                for i, step in enumerate(t["steps"]):
                    changed = [_without(step, key) for key in step] + [{**step, "note": ""}]
                    changed += [{**step, key: x} for key in step for x in others
                                if type(x) is not type(step[key])]
                    bad += [{**t, "steps": t["steps"][:i] + [c] + t["steps"][i + 1:]}
                            for c in changed]
                for trace in bad:
                    mutants += 1
                    with pytest.raises(TraceError):
                        verify_trace(n, trace)
        assert mutants > 0

    def test_deeply_nested_values_raise_trace_error(self):
        t = _trace(6, "NCG1")
        [i] = [i for i, s in enumerate(t["steps"]) if s["rule"] == "L6.2"]
        deep = [0]
        for _ in range(sys.getrecursionlimit()):
            deep = [deep]
        with pytest.raises(TraceError, match="malformed"):
            verify_trace(6, _tampered(t, i, hypothetical_M={"length": 6, "entries": deep}))


def _leaves(node):
    """(container, key) of each value of a parsed JSON document that is not a list or dict."""
    for key, value in node.items() if type(node) is dict else enumerate(node):
        if type(value) is dict or type(value) is list:
            yield from _leaves(value)
        else:
            yield node, key


def _leaf_mutants(value):
    """An int moved by 1 and negated; a fraction "a/b" with a moved by 1 or
    negated, or with b + 1; any other string with a character appended, or
    emptied.  Mutants equal to the value are left out."""
    if type(value) is int:
        out = [value + 1, value - 1, -value]
    elif fraction := re.fullmatch(r"(-?\d+)/(\d+)", value):
        a, b = int(fraction[1]), int(fraction[2])
        out = [f"{a + 1}/{b}", f"{a - 1}/{b}", f"{-a}/{b}", f"{a}/{b + 1}"]
    else:
        out = [value + "x", ""]
    return [x for x in out if x != value]


class TestLeafMutations:
    def test_every_one_leaf_mutant_is_rejected(self):
        # every leaf of each certificate for n = 2..12 changed in place, the whole
        # document re-checked, and the leaf restored: every byte is checked
        mutants = 0
        for n in range(2, 13):
            doc = _doc(n)
            for node, key in list(_leaves(doc)):
                value = node[key]
                for x in _leaf_mutants(value):
                    node[key] = x
                    mutants += 1
                    with pytest.raises(TraceError):
                        verify_certificate(doc)
                node[key] = value
            assert doc == _doc(n)
        # 7749 at schema 4, less the 836 mutants of premise indices and the 272 of
        # relations that the schema-4 certificates for n = 2..12 held, and the 6 of
        # emptying the reasons of the vacuous traces that schema 5 held
        assert mutants == 7749 - 836 - 272 - 6


FRACTION_KEYS = {"value", "rhs", "ihat", "total", "p_half"}
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _misspellings(x, k):
    """Spellings of the fraction x other than its one "a/b"; Python's Fraction
    reads those named in SAME_VALUE as x itself."""
    a, b = x.numerator, x.denominator
    return {
        "not in lowest terms": f"{k * a}/{k * b}",  # "6/4"
        "both signs moved": f"{-a}/{-b}",
        "negative denominator": f"{a}/-{b}",  # "3/-2"
        "plus sign": f"+{a}/{b}" if a >= 0 else f"-0{-a}/{b}",  # "+3/2", or "-03/2"
        "space before": f" {a}/{b}",
        "space after": f"{a}/{b} ",
        "leading zero": f"{a}/0{b}",
        "underscore": f"{a}/0_{b}",
        "other digits": f"{a}/{b}".translate(ARABIC_INDIC),
        "decimal": str(float(x)),  # "1.5"
        "numerator": str(a),  # "3"
        "JSON integer": a,
        "JSON float": float(x),
    }


SAME_VALUE = {"not in lowest terms", "plus sign", "space before", "space after", "leading zero",
              "underscore", "other digits"}


class TestFractionSpelling:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.sampled_from(sorted(_misspellings(Fraction(3, 2), 2))),
           st.integers(2, 10**6))
    def test_every_fraction_has_one_spelling(self, n, how, k):
        sites = 0
        for t in _traces(n):
            for i, step in enumerate(t["steps"]):
                for key in FRACTION_KEYS & step["values"].keys():
                    x = Fraction(step["values"][key])
                    spelled = _misspellings(x, k)[how]
                    if how in SAME_VALUE:  # Python reads it as x: only the spelling is wrong
                        assert Fraction(spelled) == x
                    sites += 1
                    with pytest.raises(TraceError, match="those the rule derives|is not an int"):
                        verify_trace(n, _tampered(t, i, **{key: spelled}))
        assert sites > 0


def _build(n, case, subcase, program):
    """The kernel's builder after it built the steps (rule, kind, chosen values) of program."""
    steps = checker._Steps(n, case, subcase)
    for rule, kind, chosen in program:
        steps.add(rule, kind, **chosen)
    return steps


PIN, COR = [("Eq(5.5)", None, {})], [(rule, None, {}) for rule in ("Prop2.1", "L6.2", "L6.3",
                                                                  "Cor6.4")]
# every closing the rule table has for a parity subcase, after the steps it reads
SUBCASE_CLOSINGS = [[("L6.1", None, {}), ("L6.1", "sign", {})], [("Eq(5.5)", "irrationality", {})],
                    [("Eq(5.5)", "integrality", {})], [("Step2-Subcase5.1", "integrality", {})],
                    COR + [("Eq(6.17)", "rotation-count", {})],
                    COR + [("Eq(6.18)", "rotation-count", {})]]


def _alternatives(n, case):
    """Step programs for a trace of case at n: each subcase closing, or for NCG1 the
    pigeonhole of either kind at each iterate m in [2, n+2], after no Eq(6.11) family or
    one whose last iterate is any m1 up to one past the replay's."""
    if case != "NCG1":
        return [PIN + closing for closing in SUBCASE_CLOSINGS]
    head = PIN + COR + [("Eq(6.7)", None, {}), ("Eq(6.9)", None, {})]
    families = [[]] + [[("Eq(6.11)", None, {"iterates": [2, m1]}), ("Claim1", None, {})]
                       for m1 in range(2, n + 1 if n % 2 == 0 else (n + 1) // 2 + 1)]
    return [head + family + [("Eq(6.14)", None, {"m": m}), (rule, "pigeonhole", {})]
            for family in families for m in range(2, n + 3) for rule in ("L6.5", "Eq(6.14)")]


def _closing(rule, kind, **values):
    return {"rule": rule, "kind": "Contradiction", "values": {**values, "contradiction_kind": kind}}


# the steps of a second spelling of a (case, subcase) trace at n, from the trace's own pin
SECOND_SPELLINGS = {
    # a negative pin closed by rotation count after Cor6.4, not by L6.1's sign
    (4, "NCG2", "p even"): lambda pin: [pin, *_trace(4, "NCG1")["steps"][1:5], _closing(
        "Eq(6.18)", "rotation-count", ihat=pin["values"]["value"], k_lower=3, k_upper=2)],
    # a negative pin, no integer, closed by integrality, not by sign
    (4, "NCG5", "p even"): lambda pin: [pin, _closing("Eq(5.5)", "integrality",
                                                      ihat=pin["values"]["value"])],
    # p even at odd n closed by the pin's integrality, not by Step 2 of Subcase 5.1
    (5, "NCG5", "p even"): lambda pin: [pin, _closing("Eq(5.5)", "integrality",
                                                      ihat=pin["values"]["value"])],
    # the empty-range pigeonhole at m = 4, past the least m = 2 with an integer total
    (2, "NCG1", ""): lambda pin: _trace(2, "NCG1")["steps"][:-2] + [
        {"rule": "Eq(6.14)", "kind": "FloorSumRange",
         "values": {"m": 4, "set": [], "terms": 1, "total": "2/1"}},
        _closing("Eq(6.14)", "pigeonhole", m=4, set=[], total="2/1")],
}


class TestOneSpelling:
    """Each (case, subcase) has one closing that the kernel accepts: the replay's."""

    @pytest.mark.parametrize("n,case,subcase", sorted(SECOND_SPELLINGS))
    def test_a_second_spelling_is_rejected(self, n, case, subcase):
        # a document of each family the kernel once accepted besides the replay's trace
        doc = _doc(n)
        [t] = [t for t in doc["traces"] if (t["case"], t["subcase"]) == (case, subcase)]
        t["steps"] = SECOND_SPELLINGS[n, case, subcase](t["steps"][0])
        t["detail"] = t["steps"][-1]["values"]["contradiction_kind"]
        with pytest.raises(TraceError):
            verify_certificate(doc)

    def test_no_alternative_can_be_built(self):
        built = 0
        for n in range(2, 41):
            for t in _traces(n):
                if t["verdict"] != "contradiction":
                    continue
                for program in _alternatives(n, t["case"]):
                    try:
                        steps = _build(n, t["case"], t["subcase"], program)
                        steps.close()
                    except TraceError:
                        continue
                    built += 1
                    assert steps.steps == t["steps"], (n, t["case"], t["subcase"])
        assert built == sum(len(replay(n)) - sum(not t.steps for t in replay(n))
                            for n in range(2, 41))


class TestStepBuilder:
    """The kernel's builder refuses a faulty step as it is built: in a certificate, which
    verify_trace rebuilds, and in the replay, whose choices it builds."""

    @pytest.mark.parametrize("program,refusal", [
        (PIN + [("L6.2", None, {}), ("Prop2.1", None, {})], r"not after L6\.2: the rule table's"),
        (PIN + [("Eq(5.5)", "integrality", {}), ("L6.1", None, {})],
         "a step after the integrality closing"),
        ([("L6.3", None, {})], r"no earlier step of Prop2\.1$"),
        (PIN + [("Eq(5.5)", "irrationality", {})],
         r"NCG5 has no step 'Eq\(5\.5\)' of closing 'irrationality'"),
    ], ids=["order", "after the closing", "no premise", "closing of another case"])
    def test_add_refuses(self, program, refusal):
        with pytest.raises(TraceError, match=refusal):
            _build(4, "NCG5", "p odd", program)

    @pytest.mark.parametrize("program,refusal", [
        (PIN, "the trace is open"),
        (PIN + [("L6.2", None, {}), ("Eq(5.5)", "integrality", {})],
         r"steps \[1\] are premises of no later step"),
    ], ids=["open", "uncited"])
    def test_close_refuses(self, program, refusal):
        steps = _build(4, "NCG5", "p odd", program)
        with pytest.raises(TraceError, match=refusal):
            steps.close()

    @pytest.mark.parametrize("rules,refusal", [
        (("L6.2", "Prop2.1", "L6.3", "Cor6.4"), "the rule table's order"),
        (("L6.2", "L6.3", "Cor6.4"), r"no earlier step of Prop2\.1$"),
        (("L6.1", "Prop2.1", "L6.2", "L6.3", "Cor6.4"), r"steps \[1\] are premises of no later"),
    ], ids=["order", "no premise", "uncited"])
    def test_the_replay_is_refused_as_it_is_built(self, monkeypatch, rules, refusal):
        # the replay's choice of the steps that pin i(c) = n-1, made wrongly
        monkeypatch.setattr(prover, "_corollary_6_4",
                            lambda steps: [steps.add(rule) for rule in rules])
        with pytest.raises(TraceError, match=refusal):
            replay(6)

    def test_a_replay_past_or_short_of_its_closing_is_refused(self, monkeypatch):
        class Past(checker._Steps):  # one more step after the closing the replay chooses
            def close(self):
                self.add("Eq(5.5)")
                return super().close()

        monkeypatch.setattr(prover, "_Steps", Past)
        with pytest.raises(TraceError, match="a step after the pigeonhole closing"):
            replay(2)

        class Open(checker._Steps):  # every closing the replay chooses left out
            def add(self, rule, kind=None, **chosen):
                return super().add(rule, **chosen) if kind is None else {}

        monkeypatch.setattr(prover, "_Steps", Open)
        with pytest.raises(TraceError, match="the trace is open"):
            replay(2)

    @pytest.mark.parametrize("n,case,subcase", [
        (3, "NCG6", ""), (5, "NCG6", "p even"), (5, "NCG3", ""), (4, "NCG3", "p even"),
        (2, "NCG1", "p odd"), (5, "NCG5", "p"),
    ])
    def test_a_scope_replay_never_derives_is_refused(self, n, case, subcase):
        with pytest.raises(TraceError, match=f"^{case} '{subcase}' is no case and subcase "
                                             f"replay derives at n = {n}$"):
            checker._Steps(n, case, subcase)

    @pytest.mark.parametrize("case,least", [("NCG2", 4), ("NCG3", 5), ("NCG4", 3)])
    def test_a_shape_no_census_reaches_takes_no_step_and_closes_vacuous(self, case, least):
        for n in range(2, least):
            for rule, kind in _TABLE:
                with pytest.raises(TraceError, match=f"^{case} has no step .* at n = {n}$"):
                    checker._Steps(n, case).add(rule, kind)
            [own] = [t for t in replay(n) if t.case == case]
            assert checker._Steps(n, case).close() == own == (case, "", [], "vacuous", "")

    @pytest.mark.parametrize("n", [10**40, -10**39, "3" * 50], ids=["10**40", "-10**39", "50 3s"])
    def test_a_long_n_is_quoted_cut_short(self, n):
        # an int of more than 40 characters as its first 30 digits and its count of digits
        text = ("'" + "3" * 39 + "…" if type(n) is str else
                f"{str(n)[:30 + (n < 0)]}…({41 - (n < 0)} digits)")
        with pytest.raises(TraceError, match=re.escape(f"at n = {text}") + "$"):
            checker._Steps(n, "NCG6")
        if n != 10**40:  # verify_trace takes any int n >= 2
            with pytest.raises(TraceError, match=re.escape(f"not {text}") + "$"):
                verify_trace(n, {})


@pytest.mark.parametrize("value, conv, text", [
    (5, repr, "5"), (-5, str, "-5"), (True, repr, "True"), (2.5, str, "2.5"),
    ("x" * 100, repr, "'" + "x" * 39 + "…"), ("N" * 100, str, "N" * 40 + "…"),
    ("N" * 40, str, "N" * 40), ("N" * 150, str, "N" * 40 + "…"),
    # a dict, a list or an exception at 150 characters
    ({"k": "v" * 200}, repr, "{'k': '" + "v" * 143 + "…"), ([1] * 50, str, str([1] * 50)),
    ([7] * 60, repr, str([7] * 60)[:150] + "…"), (ValueError("e" * 160), str, "e" * 150 + "…"),
    (KeyError("k"), repr, "KeyError('k')"),
    (10**40 - 1, repr, "9" * 40), (-(10**39 - 1), repr, "-" + "9" * 39),
    (10**40, repr, "1" + "0" * 29 + "…(41 digits)"),
    (-10**39, repr, "-1" + "0" * 29 + "…(40 digits)"),
    # past the 4,300 digits that int() and str() convert by default
    (10**5000 + 7, repr, "1" + "0" * 29 + "…(5001 digits)"),
    (-(10**5000 - 1), str, "-" + "9" * 30 + "…(5000 digits)"),
], ids=["5", "-5 str", "True", "2.5 str", "100 x", "100 N str", "40 N str", "150 N str",
        "dict", "list of 50", "list of 60", "exception str", "exception repr", "10**40 - 1",
        "1 - 10**39",
        "10**40", "-10**39", "10**5000 + 7", "1 - 10**5000 str"])
def test_quote_cuts_a_value_and_marks_a_cut_integer(value, conv, text):
    assert checker.quote(value, conv) == text


def test_quote_cuts_a_wide_string_at_150_characters():
    # a path: a string quoted at the document width
    assert checker.quote("p" * 150, str, wide=True) == "p" * 150
    assert checker.quote("p" * 151, str, wide=True) == "p" * 150 + "…"
    assert checker.quote("p" * 151, repr, wide=True) == "'" + "p" * 149 + "…"


@given(st.integers(-10**120, 10**120) | st.builds(lambda e, d: 10**e + d, st.integers(30, 120),
                                                  st.integers(-1, 1)))
def test_quote_counts_the_digits_of_every_integer(value):
    digits = str(value)
    want = (digits if len(digits) <= 40 else
            f"{digits[:30 + (value < 0)]}…({len(digits) - (value < 0)} digits)")
    assert checker.quote(value) == want
