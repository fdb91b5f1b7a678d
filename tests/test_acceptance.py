"""Acceptance gate: one test per headline guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from indexlab import (
    analytic_period,
    betti,
    critical_type,
    euler_limit,
    index_of_iterate,
    mean_index,
    morse_numbers,
    replay,
)
from indexlab.cli import main
from indexlab.morse import betti_values, check_morse_inequalities, iterate_cutoff
from indexlab.checker import _CLOSINGS, check_lemma_6_1, check_lemma_6_2, check_lemma_6_3

from conftest import at_minus_one, poincare_series, random_model, sign_of_difference


def report(num: int, label: str, ok: bool) -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line.strip()


@pytest.fixture(scope="module")
def sample():
    rng = random.Random(20260824)
    models = [random_model(rng) for _ in range(1000)]
    assert {g.case for g in models} == set(_CLOSINGS)
    return models


def test_criterion_1_betti_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        s = poincare_series(n, 200)
        for q in range(201):
            ok = ok and s[q] == betti(n, q)
    elapsed = time.perf_counter() - start
    report(1, f"series coefficients = closed-form Betti numbers ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_2_index_bound(sample):
    start = time.perf_counter()
    ok = True
    for g in sample:
        ihat = mean_index(g)
        gap = g.n - 1
        for m in range(1, 101):
            i_m = index_of_iterate(g, m)
            ok = (ok and sign_of_difference(ihat * m, i_m - gap) >= 0
                  and sign_of_difference(ihat * m, i_m + gap) <= 0)
    elapsed = time.perf_counter() - start
    report(2, f"|i(c^m) - m*ihat| <= n-1 on 1000 models, m <= 100 ({elapsed:.2f}s)", ok and elapsed < 10.0)


def test_criterion_3_analytic_period(sample):
    ok = True
    for g in sample:
        N = analytic_period(g)
        ok = ok and N in (1, 2)
        for m in range(1, 201):
            ok = ok and critical_type(g, m) == critical_type(g, m + N)
        if N == 2:
            ok = ok and critical_type(g, 1) != critical_type(g, 2)
    report(3, "critical types are N-periodic with minimal N", ok)


def test_criterion_4_euler_value_convergence():
    start = time.perf_counter()
    m = 10 ** 4
    ok = euler_limit(2) == Fraction(-1) and euler_limit(3) == Fraction(1) and euler_limit(4) == Fraction(-2, 3)
    for n in range(2, 9):
        # the m-term truncation spans degrees n-1 .. m+n-2
        s = poincare_series(n, m + n - 2)
        got = Fraction(at_minus_one(s, m + n - 2), m)
        ok = ok and abs(got - euler_limit(n)) <= Fraction(2, m)
        ok = ok and abs(Fraction(at_minus_one(s, m), m) - euler_limit(n)) <= Fraction(n, m)
    elapsed = time.perf_counter() - start
    report(4, f"P^m(-1)/m within 2/m of the limit at m = 10^4 ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_5_identity_pin_down():
    ok = True
    for n in range(2, 21):
        expected = Fraction(2 * (n - 1), n) if n % 2 == 0 else Fraction(2 * (n - 1), n + 1)
        # the value the Eq(5.5) step of the NCG1 trace pins, as `prove` emits it
        [ncg1] = [t for t in replay(n) if t.case == "NCG1"]
        [pin] = [step for step in ncg1.steps if step["rule"] == "Eq(5.5)"]
        ok = ok and Fraction(pin["values"]["value"]) == expected
    report(5, "identity pins ihat = 2(n-1)/n resp. 2(n-1)/(n+1)", ok)


def test_criterion_6_proof_replay_totality(capsys):
    import json

    start = time.perf_counter()
    ok = True
    for n in range(2, 51):
        code = main(["prove", "--n", str(n)])
        doc = json.loads(capsys.readouterr().out)
        ok = ok and code == 0
        ok = ok and all(t["verdict"] in ("contradiction", "vacuous") for t in doc["traces"])
        # the rule, contradiction kind and values of each closing step, read from the certificate
        closing = {(t["case"], t["subcase"]): (t["steps"][-1]["rule"], t["steps"][-1]["values"])
                   for t in doc["traces"] if t["steps"]}
        _, v = closing[("NCG1", "")]
        ok = ok and v["contradiction_kind"] == "pigeonhole"
        ok = ok and v["m"] == (n if n % 2 == 0 else (n + 1) // 2)
        if n % 2 == 0:
            if n >= 4:  # p - k < ihat < 1 gives n-2 < k, against k <= n-2
                rule, v = closing[("NCG2", "p odd")]
                ok = ok and (rule, v["contradiction_kind"]) == ("Eq(6.17)", "rotation-count")
                ok = ok and (v["k_lower"], v["k_upper"]) == (n - 1, n - 2)
                ok = ok and Fraction(v["ihat"]) < 1
        else:  # p is a positive even integer, so p/2 >= 1, against p/2 < 1
            rule, v = closing[("NCG5", "p even")]
            ok = ok and (rule, v["contradiction_kind"]) == ("Step2-Subcase5.1", "integrality")
            ok = ok and Fraction(v["p_half"]) < 1
    elapsed = time.perf_counter() - start
    report(6, f"replay closes every trace for n in [2, 50] ({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_7_morse_inequality_reproductions():
    ok = True
    for n in (4, 5, 8, 9):
        v = check_lemma_6_1(n)["evidence"]
        ok = ok and v == {"q": n - 1, "kind": "pointwise", "lhs": 0, "rhs": 1}
        v = check_lemma_6_2(n)["evidence"]
        ok = ok and v == {"q": n - 1, "kind": "pointwise", "lhs": 0, "rhs": 1}
        w = check_lemma_6_3(n)["evidence"]  # the failure of every hypothetical i(c)
        ok = ok and (w["kind"], w["lhs"], w["rhs"]) == ("alternating", -1, 0)
    report(7, "lemma configurations trigger the exact recorded violations", ok)


def test_criterion_8_morse_table_stability():
    rng = random.Random(1)
    checked = 0
    ok = True
    while checked < 100:
        models = [random_model(rng) for _ in range(rng.randint(1, 3))]
        if any(mean_index(g).sign() <= 0 for g in models):
            continue
        horizon = rng.randint(5, 25)
        # the table from twice the certified iterate cutoff of each model
        doubled = [0] * (horizon + 1)
        for g in models:
            for m in range(1, 2 * iterate_cutoff(g, horizon) + 1):
                i_m = index_of_iterate(g, m)
                if 0 <= i_m <= horizon:
                    doubled[i_m] += critical_type(g, m)[1]
        ok = ok and morse_numbers(models, horizon).values == tuple(doubled)
        checked += 1
    report(8, "Morse tables invariant under doubling the iterate cutoff", ok)


def test_tables_remain_consistent_with_betti_on_stable_sets():
    # sanity rider: the checker itself reports exact integers on both sides
    rng = random.Random(2)
    g = random_model(rng, 3)
    while mean_index(g).sign() <= 0:
        g = random_model(rng, 3)
    M = morse_numbers([g], 12)
    for _, _, lhs, rhs in check_morse_inequalities(M, betti_values(3, 12), 12):
        assert isinstance(lhs, int) and isinstance(rhs, int)
