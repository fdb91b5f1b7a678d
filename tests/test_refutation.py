"""The refutation oracle: concrete models fail where the certificate says.

`prove` refutes one prime closed geodesic symbolically; `identity` and `morse-check`
test concrete models.  Here the two meet.  For the shapes that `certificate(n)` closes
by a pigeonhole or a rotation count, single models that satisfy the mean-index identity
exist and are built exactly from the certificate's own pinned values.  Each must then
fail the Morse inequalities at a degree read off the same certificate, and so at or
below it.  Below that degree, each model's indices and critical types must also match
the integer-square oracle `ref_index`, so a fault of the index layer cannot hide behind
a failure the certificate predicts.  The shapes that the certificate closes by the pin's
sign, irrationality or integrality have no single model that meets the identity at all:
hypothesis draws models of each such shape and parity, and each fails `identity`.

n = 2 has no such NCG1 model: its one rotation number would have to equal Eq(6.9)'s
ihat/2 = 1/2, a rational, so `identity` cannot hold (the certificate closes it by the
empty-range pigeonhole instead).  Its control is the Beatty pair of two geodesics, which
meets the identity and the Morse inequalities while each of its models alone fails the
identity.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indexlab import ExactReal, GeodesicModel, checker, prover
from indexlab.cli import main
from indexlab.iteration import critical_type, index_of_iterate, mean_index
from indexlab.morse import betti_values, iterate_cutoff

from conftest import NONSQUARE_D, katok_models, model_json, random_rho, ref_index

SQRT2_M1 = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1, the irrational part of every rotation


def steps_of(n, case, subcase):
    """The values of each step of one trace of certificate(n), by rule, fractions parsed."""
    trace, = (t for t in prover.certificate(n)["traces"]
              if (t["case"], t["subcase"]) == (case, subcase))
    return {s["rule"]: {k: Fraction(v) if type(v) is str and "/" in v else v
                        for k, v in s["values"].items()} for s in trace["steps"]}


def rotations(total: Fraction, count: int) -> list[ExactReal]:
    """count irrational numbers in Q(sqrt(2)), each in (0, 1), summing to total < 1: total/count
    each, moved by (sqrt(2) - 1)/(count (count + 2)) times weights 1, ..., 1, -(count - 1)."""
    share, unit = ExactReal.from_fraction(total / count), SQRT2_M1 / (count * (count + 2))
    weights = [1] * (count - 1) + [1 - count]
    return [share + unit * w for w in weights]


def run(tmp_path, command, g, *extra):
    """Run the command on the model g, or on the set g of `identity` and `morse-check`."""
    path = tmp_path / "models.json"
    path.write_text(json.dumps(model_json(g) if command == "iterate" else
                               [model_json(x) for x in (g if type(g) is list else [g])]))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([command, "--model" if command == "iterate" else "--models", str(path),
                     *extra])
    return code, json.loads(out.getvalue())


def failures(tmp_path, g, bound):
    """The exit codes of identity and of morse-check at horizon `bound`, and the (q, kind)
    of each failure that morse-check finds.  First, each iterate that can reach a degree up
    to `bound` must have the oracle's index, and the critical type of that index's parity."""
    i_c = ref_index(g, 1)
    for m in range(1, iterate_cutoff(g, bound) + 1):
        i = ref_index(g, m)
        assert index_of_iterate(g, m) == i, m
        assert critical_type(g, m) == ((-1, 0) if (i - i_c) % 2 else (1, 1)), m
    identity, _ = run(tmp_path, "identity", g)
    code, doc = run(tmp_path, "morse-check", g, "--horizon", str(bound))
    return identity, code, [(v["q"], v["kind"]) for v in doc["violations"]]


@pytest.mark.parametrize("n", range(3, 9))
def test_an_ncg1_model_that_meets_the_identity_fails_by_the_pigeonhole_degree(tmp_path, n):
    steps = steps_of(n, "NCG1", "")
    # Eq(6.7) and Eq(6.9): p = r = 0, and the n-1 rotation numbers sum to the pinned ihat/2
    assert (steps["Eq(6.7)"]["p"], steps["Eq(6.7)"]["r"]) == (0, 0)
    rhos = rotations(steps["Eq(6.9)"]["value"], steps["Eq(6.9)"]["terms"])
    assert all(rho.is_irrational and rho.floor() == 0 for rho in rhos)
    g = GeodesicModel(n, 0, rhos)
    assert g.initial_index == steps["Cor6.4"]["i_c"] == n - 1

    # i(c^k) = i(c) + 2s with s the floor sum at k: in [0, k-1] at Eq(6.11)'s iterates, and
    # in Eq(6.14)'s set [first, last] at the pigeonhole's m
    i_c, m, (first, last) = g.initial_index, steps["Eq(6.14)"]["m"], steps["Eq(6.14)"]["set"]
    _, doc = run(tmp_path, "iterate", g, "--mmax", str(m))
    rows = {row["m"]: row["i"] - i_c for row in doc["rows"]}
    family = steps.get("Eq(6.11)", {"iterates": [2, 1]})["iterates"]
    assert all(rows[k] in range(0, 2 * k, 2) for k in range(family[0], family[1] + 1))
    assert rows[m] in range(2 * first, 2 * last + 1, 2)

    # The bound.  The floor sum grows with k, so each of c, ..., c^m has an index of the
    # parity of i(c) and at most D = i(c) + 2*last.  The slope 2p is even, so each one
    # counts in M: the M_q with q <= D sum to at least m, which the Betti numbers there do
    # not reach.  At D + 1, of the other parity, the alternating sum of M is then below b's.
    D = steps["Cor6.4"]["i_c"] + 2 * last
    assert sum(betti_values(n, D)) < m
    identity, code, found = failures(tmp_path, g, D + 1)
    assert (identity, code) == (0, 1) and (D + 1, "alternating") in found


@pytest.mark.parametrize("n", [6, 8, 10])
def test_an_ncg2_model_that_meets_the_identity_fails_by_the_lemma_6_3_degree(tmp_path, n):
    steps = steps_of(n, "NCG2", "p odd")
    # p = 1 and k = 2: ihat = p - k + 2(rho_1 + rho_2) equals the pinned (n-1)/n
    p, pin = 1, steps["Eq(5.5)"]["value"]
    assert pin == Fraction(n - 1, n)
    total = (pin - p + 2) / 2
    # two pairs: even shares moved apart, and sqrt(2) - 1 = (-1 + sqrt(2))/1 with its
    # complement, whose floor at m = 1 is 0, not the -1 of its rational part alone
    for pair in (rotations(total, 2), [SQRT2_M1, SQRT2_M1 * -1 + total]):
        g = GeodesicModel(n, p, pair, h=n - 3)
        assert (g.case, g.initial_index) == ("NCG2", p)

        # The bound.  Lemma 6.3 refutes each i(c) of its hypotheses, in steps of 2, by its
        # evidence q degrees above i(c).  Here c itself makes M_{i(c)} >= 1, M vanishes at
        # the other parity (Prop2.1), and i(c) = p = 1, the first hypothesis, leaves no
        # degree of its parity below it: the alternating sum of M at i(c) + 1 is at most -1,
        # below b's.
        first, last = steps["L6.3"]["hypotheses"]
        assert g.initial_index in range(first, last + 1, 2)
        evidence = steps["L6.3"]["evidence"]
        bound = g.initial_index + evidence["q"]
        identity, code, found = failures(tmp_path, g, bound)
        assert (identity, code) == (0, 1) and (bound, evidence["kind"]) in found


def test_the_n_2_beatty_pair_meets_both_checks_and_each_model_alone_fails_the_identity(
        tmp_path):
    # sqrt(5) - 2 with weight 1: the NCG1 models with rho = (1 +- sqrt(5))/4 and p = 0, 1,
    # whose indices 1 + 2p*m + 2 floor(m*rho) cover the odd degrees once each, as b does
    pair = katok_models(2, ExactReal(-2, 1, 1, 5), [1])
    horizon = 2 * max(g.initial_index for g in pair) + 2
    assert run(tmp_path, "identity", pair)[0] == 0
    code, doc = run(tmp_path, "morse-check", pair, "--horizon", str(horizon))
    assert (code, doc["violations"], doc["M"]) == (0, [], betti_values(2, horizon))
    for g in pair:
        code, doc = run(tmp_path, "identity", g)
        assert (code, doc["holds"]) == (1, False)


# the traces that certificate(n) closes by the pin's sign, irrationality or integrality,
# each with the ihat that its first step, Eq(5.5), pins
CLOSED_BY_THE_PIN = [(n, t["case"], t["subcase"], Fraction(t["steps"][0]["values"]["value"]))
                     for n in range(3, 9) for t in prover.certificate(n)["traces"]
                     if t["detail"] in ("sign", "irrationality", "integrality")]


@pytest.mark.parametrize("n,case,subcase,pin", CLOSED_BY_THE_PIN,
                         ids=[f"{n}-{case}-{subcase}" for n, case, subcase, _ in CLOSED_BY_THE_PIN])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_shape_closed_by_its_pin_has_no_model_that_meets_the_identity(
        tmp_path_factory, n, case, subcase, pin, data):
    # a model's term in the identity is (-1)^i(c)/(N*ihat), with i(c) = p, so N and the sign
    # are those of its subcase, and Eq(5.5) pins the one ihat that would meet the identity:
    # negative, or rational where a single rotation makes ihat irrational, or no integer
    # where ihat = p.  So no model of the shape and parity with a positive ihat meets it
    censuses = [(k, r, n - 1 - k - 2 * r) for k in range(n) for r in range((n - 1 - k) // 2 + 1)
                if checker.case_of(k, n - 1 - k - 2 * r) == case]
    k, r, h = data.draw(st.sampled_from(censuses))
    rng, D = data.draw(st.randoms(use_true_random=False)), data.draw(st.sampled_from(NONSQUARE_D))
    p = 2 * data.draw(st.integers(0, 3)) + (subcase == "p odd")
    g = GeodesicModel(n, p, [random_rho(rng, D) for _ in range(k)], r, h)
    assert (g.case, g.initial_index) == (case, p)
    assume(mean_index(g).sign() > 0)
    code, doc = run(tmp_path_factory.getbasetemp(), "identity", g)
    assert (code, doc["holds"]) == (1, False)
    assert mean_index(g) != pin
