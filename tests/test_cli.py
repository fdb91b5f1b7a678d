import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import indexlab
from indexlab import (ExactReal, GeodesicModel, Hyp, NBlock, NormalFormDecomposition, Rot,
                      checker, cli, iteration, morse, prover)
from indexlab.cli import main
from indexlab.morse import MorseTable, betti_values, check_morse_inequalities

from conftest import model_json, random_model

RHO = ExactReal(-1, 1, 1, 2)  # sqrt(2) - 1
LONG_RHO = "(1+1*sqrt(2))/" + "1" * 100_000 + "x"  # no literal; quadratic to refuse if c's digits overlap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def heap_peak(argv):
    """The tracemalloc heap peak of main(argv), stdout discarded, after one untraced
    warm-up run, so that only what the run itself holds is counted."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def write_models(tmp_path, models, name="models.json"):
    path = tmp_path / name
    path.write_text(json.dumps([model_json(g) for g in models]))
    return str(path)


@pytest.fixture
def ncg1_model(tmp_path):
    g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_json(g)))
    return str(path)


class TestBetti:
    def test_known_prefix(self, capsys):
        code, out, _ = run(capsys, "betti", "--n", "2", "--qmax", "5")
        assert code == 0
        assert out == '{"b":[0,1,0,2,0,2],"n":2}\n'

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "betti", "--n", "5", "--qmax", "40")
        _, out2, _ = run(capsys, "betti", "--n", "5", "--qmax", "40")
        assert out1 == out2

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "--n", "3", "--qmax", "4", "--csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert rows[0] == ["q", "b_q"]
        assert rows[3] == ["2", "1"]

    def test_rejects_small_n(self, capsys):
        code, _, err = run(capsys, "betti", "--n", "1")
        assert code == 2
        assert "n must be >= 2" in err

    def test_the_list_is_written_in_blocks(self, monkeypatch):
        # b is written 256 numbers at a time: past the list itself, the heap peak grows
        # by under 0.25 bytes per degree from --qmax 10**4 to 10**5 (by 0); with the
        # whole list formatted before the first write it grew by 31.2
        sizes = (10**4, 10**5)
        for extra in ([], ["--json", os.devnull]):
            peaks = []
            for qmax in sizes:
                b = betti_values(2, qmax)
                monkeypatch.setattr(morse, "betti_values", lambda n, h: b)
                peaks.append(heap_peak(["betti", "--n", "2", "--qmax", str(qmax)] + extra))
            assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) // 4, (extra, peaks)


class TestSeries:
    def test_is_an_unknown_command(self, capsys):
        code, out, err = run(capsys, "series", "--n", "4", "--degree", "30")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestIterate:
    def test_table(self, capsys, ncg1_model):
        code, out, _ = run(capsys, "iterate", "--model", ncg1_model, "--mmax", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "NCG1"
        assert doc["period"] == 1
        assert [r["i"] for r in doc["rows"]] == [1, 1, 3, 3]
        assert all(r["nu"] == 0 for r in doc["rows"])
        assert doc["mean_index"] == "(-2+2*sqrt(2))/1"

    def test_csv(self, capsys, ncg1_model):
        code, out, _ = run(capsys, "iterate", "--model", ncg1_model, "--mmax", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "m,i,nu,epsilon,k0"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "iterate", "--model", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_model(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "p": 0, "dec": {"blocks": [{"type": "spiral"}]}}')
        code, _, err = run(capsys, "iterate", "--model", str(path))
        assert code == 2
        assert "model" in err

    def test_iterate_keeps_the_benchmark_call_counts(self, rng, monkeypatch, tmp_path):
        # a traced benchmark run counts two index_of_iterate calls per row (the row, then
        # critical_type, answered by the model's one-entry cache) and k floors per row
        path = tmp_path / "model.json"
        for _ in range(30):
            g, K = random_model(rng), rng.randint(0, 120)
            path.write_text(json.dumps(model_json(g)))
            calls = Counter()

            def counted(name, fn):
                def wrapper(*args):
                    calls[name] += 1
                    return fn(*args)
                return wrapper

            for name in ("index_of_iterate", "floor_scaled"):
                monkeypatch.setattr(iteration, name, counted(name, getattr(iteration, name)))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["iterate", "--model", str(path), "--mmax", str(K)]) == 0
            monkeypatch.undo()
            assert calls == Counter(index_of_iterate=2 * K, floor_scaled=g.dec.count(Rot) * K)

    def test_rows_are_written_as_they_are_made(self, ncg1_model):
        # 10**3 and 10**4 rows, as JSON to a file and as CSV to stdout: each peak is
        # under 1 MB of heap (0.06 and 0.18 MB) and grows by under 10 bytes per added
        # row (0.2 and 0); with every row built before the first was written, the
        # peaks at 10**4 rows were 2.8 and 1.5 MB, and grew by 292 and 144 per row
        sizes = (10**3, 10**4)
        for extra in (["--json", os.devnull], ["--csv"]):
            peaks = [heap_peak(["iterate", "--model", ncg1_model, "--mmax", str(mmax)] + extra)
                     for mmax in sizes]
            assert max(peaks) < 1 << 20, (extra, peaks)
            assert peaks[1] - peaks[0] < 10 * (sizes[1] - sizes[0]), (extra, peaks)


class TestMorseCheck:
    def test_consistent_pair_exits_zero(self, capsys, tmp_path):
        # two-geodesic configuration whose Morse table equals the Betti table: with
        # 1/ihat_1 + 1/ihat_2 = 1 the iterates' degrees are complementary Beatty
        # sequences (Rayleigh's theorem), so M_q = b_q at every degree, not only at the first
        g1 = GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(1, 1, 4, 5))]), 0)
        g2 = GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(-1, 1, 4, 5))]), 1)
        path = write_models(tmp_path, [g1, g2])
        for horizon, b in ((9, [0, 1, 0, 2, 0, 2, 0, 2, 0, 2]), (20000, betti_values(2, 20000))):
            code, out, _ = run(capsys, "morse-check", "--models", path, "--horizon", str(horizon))
            assert code == 0
            doc = json.loads(out)
            assert doc["violations"] == []
            assert doc["M"] == doc["b"] == b

    def test_violating_set_exits_one(self, capsys, tmp_path):
        # i(c^m) = 2m misses every odd degree, so M_1 = 0 < b_1 = 1 for n = 2
        g = GeodesicModel(2, NormalFormDecomposition([Hyp(Fraction(2))]), 2)
        path = write_models(tmp_path, [g])
        code, out, _ = run(capsys, "morse-check", "--models", path, "--horizon", "5")
        assert code == 1
        violations = json.loads(out)["violations"]
        assert {"q": 1, "kind": "pointwise", "lhs": 0, "rhs": 1} in violations

    def test_zero_mean_index_is_input_error(self, capsys, tmp_path):
        g = GeodesicModel(2, NormalFormDecomposition([Hyp(Fraction(2))]), 0)
        path = write_models(tmp_path, [g])
        code, _, err = run(capsys, "morse-check", "--models", path)
        assert code == 2
        assert "mean index" in err

    def test_memory_does_not_grow_with_the_failures(self, tmp_path):
        # one NCG1 model, i(c^m) = 2 floor(m (sqrt(2) - 1)) + 1, whose Morse table fails
        # the inequalities 10000 times up to H = 20000.  M, b and the failures are written
        # 256 at a time, the failures as they are found: the heap peak is that of the
        # lists M and b, about 24 bytes per degree.  With the whole json.dumps text of M
        # and b it was about 96; with an object and a row string per failure, about 192.
        horizon = 20000
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        path = write_models(tmp_path, [g])
        M = morse.morse_numbers([g], horizon)
        assert len(check_morse_inequalities(M, betti_values(2, horizon), horizon)) == 10000
        cli.build_parser()
        tracemalloc.start()
        try:
            code = main(["morse-check", "--models", path, "--horizon", str(horizon),
                         "--json", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 40 * (horizon + 1)

    def test_a_tiny_mean_index_is_refused_at_once(self, tmp_path):
        # rho = (1 + sqrt(2))/10**41 asks for 2.3e41 iterates at H = 10: refused before
        # any enumeration, where the loop ran until it was killed
        g = GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(1, 1, 10**41, 2))]), 0)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "indexlab.cli", "morse-check", "--models",
                               write_models(tmp_path, [g]), "--horizon", "10"],
                              env=env, capture_output=True, text=True, timeout=15)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: model #0: iterate cutoff {morse.iterate_cutoff(g, 10)} at "
                               f"horizon 10 exceeds the limit of {morse.MAX_ITERATES} iterates\n")


class TestMorseCheckDocument:
    """morse-check writes its document by hand; it must be the canonical json.dumps text."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 8), horizon=st.integers(0, 60),
           deltas=st.lists(st.integers(-2, 2), max_size=61))
    @example(n=2, horizon=0, deltas=[])  # H = 0: one degree
    @example(n=5, horizon=30, deltas=[])  # M = b: no violations
    @example(n=4, horizon=2, deltas=[0, 1, 0])  # alternating lhs -1 at q = 2
    # M, b and the failures are written 256 to a block: H = 255 fills one block, 256
    # starts a second, 511 fills two and 512 starts a third
    @example(n=2, horizon=255, deltas=[])
    @example(n=2, horizon=256, deltas=[-2] * 257)
    @example(n=3, horizon=511, deltas=[-1, 1] * 256)
    @example(n=2, horizon=512, deltas=[])
    def test_bytes_equal_the_sorted_json_dump(self, tmp_path_factory, n, horizon, deltas):
        b = betti_values(n, horizon)
        values = [max(0, b_q + d) for b_q, d in zip(b, deltas + [0] * len(b))]
        violations = check_morse_inequalities(values, b, horizon)
        rows = [dict(zip(("q", "kind", "lhs", "rhs"), v)) for v in violations]
        expected = json.dumps({"horizon": horizon, "M": values, "b": b, "violations": rows},
                              sort_keys=True, separators=(",", ":")) + "\n"
        directory = tmp_path_factory.getbasetemp()
        models = write_models(directory, [GeodesicModel(n, NormalFormDecomposition(
            [Rot(RHO)] * (n - 1)), 0)], f"models-{n}.json")
        argv = ["morse-check", "--models", models, "--horizon", str(horizon)]
        out_path, out, code = directory / "morse-check.json", io.StringIO(), int(bool(violations))
        with mock.patch.object(morse, "morse_numbers", lambda ms, h: MorseTable(tuple(values))):
            with contextlib.redirect_stdout(out):
                assert main(argv) == code
                assert main(argv + ["--json", str(out_path)]) == code
        assert out.getvalue() == expected  # the --json run writes nothing to stdout
        assert out_path.read_text() == expected


SHAPES = ["NCG1", "NCG2", "NCG3", "NCG4", "NCG5"]
# (sqrt(2) - 1)/4, about 0.10: with p = 0 the slope -k outruns the floors, so indices go negative
SMALL_RHO = ExactReal(-1, 1, 4, 2)
SQRT2_RHOS = [RHO, ExactReal(7, -4, 8, 2), SMALL_RHO, ExactReal(2, -1, 1, 2)]  # one field


@st.composite
def shaped_models(draw):
    """A model of any case shape, with k rotations, h hyperbolic and r N blocks."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "NCG1":
        k, h = draw(st.integers(1, 3)), 0
    else:
        k = {"NCG3": 3, "NCG4": 1, "NCG5": 0}.get(shape)
        k = draw(st.sampled_from([2, 4])) if k is None else k
        h = draw(st.integers(0 if shape == "NCG5" else 1, 2))
    r = draw(st.integers(0 if k + h else 1, 1))
    p = draw(st.integers(-(k // 2) if shape == "NCG1" else 0, 3))  # NCG1: i(c) = 2p + k >= 0
    blocks = ([Rot(draw(st.sampled_from(SQRT2_RHOS))) for _ in range(k)] + [Hyp(Fraction(2))] * h
              + [NBlock(draw(st.sampled_from(SQRT2_RHOS))) for _ in range(r)])
    g = GeodesicModel(1 + k + h + 2 * r, NormalFormDecomposition(draw(st.permutations(blocks))), p)
    assert g.case == shape
    return g


class TestIterateDocument:
    """iterate writes its document by hand; it must be the json.dumps text of the row dicts."""

    @settings(max_examples=300, deadline=None)
    @given(g=shaped_models(), K=st.integers(0, 60))
    @example(g=GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0), K=0)  # "rows":[]
    @example(g=GeodesicModel(4, NormalFormDecomposition(  # NCG2, i(c^2) = -2
        [Rot(SMALL_RHO), Hyp(Fraction(2)), Rot(SMALL_RHO)]), 0), K=12)
    @example(g=GeodesicModel(5, NormalFormDecomposition(  # NCG3, i(c^2) = -3
        [Rot(SMALL_RHO)] * 3 + [Hyp(Fraction(2))]), 0), K=12)
    def test_bytes_equal_the_dict_dumps(self, tmp_path_factory, g, K):
        i_1 = iteration.index_of_iterate(g, 1)
        rows = []
        for m in range(1, K + 1):
            i_m = iteration.index_of_iterate(g, m)
            eps = 1 if (i_m - i_1) % 2 == 0 else -1
            rows.append({"m": m, "i": i_m, "nu": 0, "epsilon": eps, "k0": int(eps == 1)})
        expected = json.dumps({"case": g.case,
                               "mean_index": iteration.mean_index(g).serialize(),
                               "period": iteration.analytic_period(g), "rows": rows},
                              sort_keys=True, separators=(",", ":")) + "\n"
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=["m", "i", "nu", "epsilon", "k0"])
        writer.writeheader()
        writer.writerows(rows)
        directory = tmp_path_factory.getbasetemp()
        model, out_path = directory / "iterate-model.json", directory / "iterate.json"
        model.write_text(json.dumps(model_json(g)))
        argv = ["iterate", "--model", str(model), "--mmax", str(K)]
        out, csv_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
            assert main(argv + ["--json", str(out_path)]) == 0
        with contextlib.redirect_stdout(csv_out):
            assert main(argv + ["--csv"]) == 0
        assert out.getvalue() == expected  # the --json run writes nothing to stdout
        assert out_path.read_text() == expected
        assert csv_out.getvalue() == table.getvalue()

    @pytest.mark.parametrize("extra", [[], ["--csv"]], ids=["json", "csv"])
    def test_a_mixed_field_model_is_an_input_error(self, capsys, tmp_path, extra):
        # the mean index sqrt(2) - 1 + (sqrt(5) - 1)/4 lies in no one quadratic field
        g = GeodesicModel(3, NormalFormDecomposition([Rot(RHO), Rot(ExactReal(-1, 1, 4, 5))]), 0)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(model_json(g)))
        code, out, err = run(capsys, "iterate", "--model", str(path), "--mmax", "5", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: model: dec.blocks[0].rho and dec.blocks[1].rho lie in "
                       "Q(sqrt(2)) and Q(sqrt(5))\n")


class TestIdentity:
    def test_holding_identity(self, capsys, tmp_path):
        rhos = [ExactReal(-1, 1, 1, 2), ExactReal(7, -4, 8, 2), ExactReal(7, -4, 8, 2)]
        one = [GeodesicModel(4, NormalFormDecomposition([Rot(r) for r in rhos]), 0)]
        # the complementary Beatty pair of TestMorseCheck: lhs = euler_limit(2) = -1
        pair = [GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(1, 1, 4, 5))]), 0),
                GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(-1, 1, 4, 5))]), 1)]
        for models in (one, pair):
            path = write_models(tmp_path, models)
            code, out, _ = run(capsys, "identity", "--models", path)
            assert code == 0
            doc = json.loads(out)
            assert doc["holds"] is True
            assert doc["lhs"] == doc["rhs"]

    def test_failing_identity(self, capsys, tmp_path):
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        path = write_models(tmp_path, [g])
        code, out, _ = run(capsys, "identity", "--models", path)
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_empty_set_is_input_error(self, capsys, tmp_path):
        path = write_models(tmp_path, [])
        code, _, _ = run(capsys, "identity", "--models", path)
        assert code == 2

    def test_mixed_dimensions_rejected(self, capsys, tmp_path):
        g2 = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        g3 = GeodesicModel(3, NormalFormDecomposition([Hyp(Fraction(2)), Hyp(Fraction(2))]), 2)
        path = write_models(tmp_path, [g2, g3])
        code, _, err = run(capsys, "identity", "--models", path)
        assert code == 2
        assert err == "error: model #1: n = 3, but model #0 has n = 2\n"

    def test_zero_mean_index_is_input_error(self, capsys, tmp_path):
        g = GeodesicModel(2, NormalFormDecomposition([Hyp(Fraction(2))]), 0)
        path = write_models(tmp_path, [g])
        code, _, err = run(capsys, "identity", "--models", path)
        assert code == 2
        assert err.startswith("error: ") and "mean index" in err


class TestProve:
    @pytest.mark.parametrize("n", ["2", "3", "4", "7", "12"])
    def test_all_cases_close(self, capsys, n):
        code, out, _ = run(capsys, "prove", "--n", n)
        assert code == 0
        doc = json.loads(out)
        assert {t["verdict"] for t in doc["traces"]} <= {"contradiction", "vacuous"}
        assert doc["schema"] == 6 and "partial" not in doc

    def test_case_filter(self, capsys):
        code, out, _ = run(capsys, "prove", "--n", "5", "--case", "ncg4")
        assert code == 0
        doc = json.loads(out)
        assert [t["case"] for t in doc["traces"]] == ["NCG4", "NCG4"]
        assert (doc["schema"], doc["partial"]) == (6, True)

    def test_unknown_case_filter(self, capsys):
        code, _, err = run(capsys, "prove", "--n", "5", "--case", "ncg9")
        assert code == 2
        assert "unknown case" in err

    def test_empty_case_filter_is_unknown(self, capsys):
        code, out, err = run(capsys, "prove", "--n", "5", "--case", "")
        assert (code, out) == (2, "")
        assert err == "error: unknown case filter: \n"

    @pytest.mark.parametrize("n", [2, 3, 81, 200])
    def test_stdout_is_the_certificate(self, capsys, n):
        code, out, _ = run(capsys, "prove", "--n", str(n))
        assert (code, out) == (0, prover.certificate_json(n) + "\n")

    def test_case_filter_replays_only_that_case(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("the NCG1 replay ran for a filtered run")

        monkeypatch.setattr(prover, "_replay_ncg1", refuse)
        code, out, _ = run(capsys, "prove", "--n", "300", "--case", "ncg4")
        assert code == 0
        assert {t["case"] for t in json.loads(out)["traces"]} == {"NCG4"}
        code, _, err = run(capsys, "prove", "--n", "300", "--case", "ncg9")
        assert code == 2
        assert "unknown case filter" in err

    def test_a_trace_that_fails_its_check_is_an_error(self, capsys, monkeypatch):
        replay_ncg1 = prover._replay_ncg1

        def cut(n):  # the NCG1 trace without its closing step
            t = replay_ncg1(n)
            return t._replace(steps=t.steps[:-1])

        monkeypatch.setattr(prover, "_replay_ncg1", cut)
        code, out, err = run(capsys, "prove", "--n", "6")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_certificate_that_fails_its_check_is_an_error(self, capsys, monkeypatch, tmp_path):
        certificate = prover.certificate

        def duplicated(n, traces=None):  # the first trace twice
            doc = certificate(n, traces)
            return {**doc, "traces": doc["traces"][:1] + doc["traces"]}

        monkeypatch.setattr(prover, "certificate", duplicated)
        out_path = tmp_path / "cert.json"
        for argv in (["prove", "--n", "6"], ["prove", "--n", "6", "--json", str(out_path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()  # nothing unchecked is written

    def test_json_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "prove", "--n", "4", "--json", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["n"] == 4

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "prove", "--n", "6")
        _, out2, _ = run(capsys, "prove", "--n", "6")
        assert out1 == out2


def _edited(n, case, subcase, edit):
    """The certificate document for n with its (case, subcase) trace passed through edit."""
    doc = json.loads(prover.certificate_json(n))
    [t] = [t for t in doc["traces"] if (t["case"], t["subcase"]) == (case, subcase)]
    edit(t)
    return doc


def _values(i, **changes):
    return lambda t: t["steps"][i]["values"].update(changes)


def _schema_4(n, schema=4):
    """The certificate for n with each step's premises put back, as schema 4 held them."""
    doc = json.loads(prover.certificate_json(n))
    for t in doc["traces"]:
        built = checker._Steps(n, t["case"], t["subcase"])  # the builder links each step
        for step in t["steps"]:
            built.add(step["rule"], step["values"].get("contradiction_kind"), **step["values"])
            step["premises"] = built.premises[-1]
    return {**doc, "schema": schema}


def _evidence(key, x):  # the failure the L6.2 step cites, at n = 6 step 2, with one field changed
    return lambda t: t["steps"][2]["values"]["evidence"].update({key: x})


def _schema_5(n):
    """The certificate for n with each vacuous trace's reason put back, as schema 5 held it."""
    doc = json.loads(prover.certificate_json(n))
    for t in doc["traces"]:
        if t["verdict"] == "vacuous":
            t["detail"] = prover.vacuity(n, t["case"])
    return {**doc, "schema": 5}


# whole documents, each with one of the tamperings of TestVerifier in test_prover.py, a step
# that carries prose, premises or a relation, an n that is not an integer >= 2, or an
# earlier schema
TAMPERED = {
    "identity": lambda: _edited(4, "NCG2", "p odd", _values(0, value="5/7")),
    "family widened": lambda: _edited(6, "NCG1", "", _values(7, iterates=[2, 99])),
    "range widened": lambda: _edited(6, "NCG1", "", _values(9, set=[0, 99])),
    **{f"evidence {key}": lambda key=key, x=x: _edited(6, "NCG1", "", _evidence(key, x))
       for key, x in (("q", 0), ("lhs", -1), ("rhs", 2))},
    "open trace": lambda: _edited(4, "NCG5", "p odd", lambda t: t["steps"].pop()),
    "statement": lambda: _edited(4, "NCG1", "", lambda t: t["steps"][0].update(statement="")),
    "premises": lambda: _schema_4(5, schema=6),
    "relation": lambda: _edited(4, "NCG1", "", _values(0, relation="=")),
    **{f"n = {n!r}": lambda n=n: {**json.loads(prover.certificate_json(2)), "n": n}
       for n in (1, 0, -3, True, 2.0, "2", None)},
    "schema 3": lambda: {**json.loads(prover.certificate_json(5)), "schema": 3},
    "schema 4": lambda: _schema_4(5),
    "schema 5": lambda: _schema_5(2),
}


class TestVerify:
    def write(self, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "cert.json")
        for n in range(2, 61):
            assert run(capsys, "prove", "--n", str(n), "--json", path) == (0, "", "")
            code, out, err = run(capsys, "verify", path)
            assert (code, err) == (0, "")
            doc = json.loads(prover.certificate_json(n))
            steps = sum(len(t["steps"]) for t in doc["traces"])
            assert out == ('{"n":%d,"partial":false,"schema":6,"steps":%d,"traces":%d,'
                           '"verified":true}\n' % (n, steps, len(doc["traces"])))

    def test_a_partial_certificate_verifies(self, capsys, tmp_path):
        path = str(tmp_path / "cert.json")
        run(capsys, "prove", "--n", "7", "--case", "ncg3", "--json", path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and json.loads(out)["partial"] is True

    @pytest.mark.parametrize("name", sorted(TAMPERED))
    def test_a_tampered_certificate_exits_1(self, capsys, tmp_path, name):
        path = self.write(tmp_path, TAMPERED[name]())
        code, out, err = run(capsys, "verify", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        if not name.startswith(("n = ", "schema")):  # a trace fails: the line names its step
            assert ": step " in err

    def test_the_failing_step_is_named(self, capsys, tmp_path):
        path = self.write(tmp_path, TAMPERED["identity"]())
        # the NCG2 "p odd" trace is trace 2 of n = 4, after NCG1 and NCG2 "p even"; the
        # line names the values given and those the rule derives, ihat = 3/4
        assert run(capsys, "verify", path) == (
            1, "", f"{path}: trace 2: step 0 (Eq(5.5)): values {{'N': 2, 'rhs': '-2/3', 's': -1, "
                   "'value': '5/7'} are not {'N': 2, 'rhs': '-2/3', 's': -1, 'value': '3/4'}, "
                   "those the rule derives\n")

    def test_a_schema_4_step_is_named(self, capsys, tmp_path):
        # a schema-4 certificate relabelled 6 fails at its first step, which holds premises
        path = self.write(tmp_path, TAMPERED["premises"]())
        assert run(capsys, "verify", path) == (
            1, "", f"{path}: trace 0: step 0 (Eq(5.5)): not {{'rule': 'Eq(5.5)', 'kind': "
                   "'MeanIndexEquals', 'values': {'N': 1, 'rhs': '3/4', 's': 1, 'value': '4/3'}}, "
                   "the step its rule builds\n")

    @pytest.mark.parametrize("text", ["", "{", "[1,", "\ud800"], ids=repr)
    def test_a_file_that_is_not_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text, errors="surrogatepass")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "") and err.startswith("error: cannot read ")

    def test_a_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "") and err.startswith("error: cannot read ")

    def check_alone(self, tmp_path, *args):
        """Run a copy of checker.py, alone in its directory, in isolated mode on args:
        no indexlab module can be imported there, so the kernel runs on its own."""
        alone = tmp_path / "alone"
        alone.mkdir(exist_ok=True)
        shutil.copy(checker.__file__, alone)
        return subprocess.run([sys.executable, "-I", "checker.py", *args], cwd=alone,
                              capture_output=True, text=True, timeout=60)

    def test_the_checker_file_alone_needs_one_file(self, tmp_path):
        # no argument, or two: one usage line and exit 2, never a traceback
        path = self.write(tmp_path, json.loads(prover.certificate_json(2)))
        for args in ((), (path, path)):
            done = self.check_alone(tmp_path, *args)
            assert (done.returncode, done.stdout, done.stderr) == (
                2, "", "usage: python checker.py CERT.json\n")

    def test_the_checker_file_alone_rejects_deep_nesting_in_one_line(self, tmp_path):
        # JSON nested past the recursion limit is a file it cannot parse: exit 1, one line
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5)
        done = self.check_alone(tmp_path, str(path))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith(f"{path}: ") and done.stderr.count("\n") == 1

    def test_the_checker_file_alone_verifies_prove_output(self, capsys, tmp_path):
        for n in (2, 3, 4, 5, 12, 61):
            path = str(tmp_path / f"{n}.json")
            assert run(capsys, "prove", "--n", str(n), "--json", path) == (0, "", "")
            done = self.check_alone(tmp_path, path)
            assert (done.returncode, done.stdout, done.stderr) == (0, f"{path}: verified\n", "")

    @pytest.mark.parametrize("name", sorted(TAMPERED))
    def test_the_checker_file_alone_rejects_a_tampered_certificate(self, capsys, tmp_path, name):
        path = self.write(tmp_path, TAMPERED[name]())
        done = self.check_alone(tmp_path, path)
        # a non-zero exit and the same line that `indexlab verify` writes
        _, _, err = run(capsys, "verify", path)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", err)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_other_document_exits_1(self, tmp_path_factory, data):
        doc = data.draw(json_values | st.sampled_from(sorted(TAMPERED)).map(
            lambda name: TAMPERED[name]()))
        path = tmp_path_factory.getbasetemp() / "verify.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        assert (code, out.getvalue()) == (1, "") and err.getvalue().count("\n") == 1


# the package's parent directory, for a child process to import it from
SRC = str(Path(indexlab.__file__).resolve().parents[1])


class TestClosedStdout:
    """A reader that closes stdout early gets exit 2 and one error line, never a traceback."""

    def spawn(self, argv):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        return subprocess.Popen([sys.executable, "-m", "indexlab.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def check(self, proc):
        with proc:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (
            2, "error: stdout was closed before all output was written ([Errno 32] Broken pipe)\n")

    @pytest.mark.parametrize("command", ["iterate", "betti", "morse-check", "identity", "prove",
                                         "verify"])
    def test_closed_before_any_output(self, tmp_path, ncg1_model, command):
        models = write_models(tmp_path, [GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)])
        cert = tmp_path / "cert.json"
        cert.write_text(prover.certificate_json(3))
        argv = {"iterate": ["--model", ncg1_model], "betti": ["--n", "3"],
                "morse-check": ["--models", models], "identity": ["--models", models],
                "prove": ["--n", "5"], "verify": [str(cert)]}[command]
        proc = self.spawn([command, *argv])
        proc.stdout.close()
        self.check(proc)

    def test_closed_after_the_first_line(self, ncg1_model):
        # as `indexlab iterate ... --csv | head -1`: the rows outgrow the pipe's buffer
        proc = self.spawn(["iterate", "--model", ncg1_model, "--mmax", "20000", "--csv"])
        assert proc.stdout.readline() == "m,i,nu,epsilon,k0\n"
        proc.stdout.close()
        self.check(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
class TestFullStdout:
    """A write to stdout that fails otherwise, here with no space left, also exits 2
    with one error line: exit 1 would claim that a check failed."""

    @pytest.mark.parametrize("command", ["iterate", "betti", "morse-check", "identity", "prove",
                                         "verify"])
    def test_every_command(self, tmp_path, ncg1_model, command):
        models = write_models(tmp_path, [GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)])
        cert = tmp_path / "cert.json"
        cert.write_text(prover.certificate_json(3))
        argv = {"iterate": ["--model", ncg1_model], "betti": ["--n", "3"],
                "morse-check": ["--models", models], "identity": ["--models", models],
                "prove": ["--n", "5"], "verify": [str(cert)]}[command]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "indexlab.cli", command, *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write stdout ([Errno 28] No space left on device)\n")


MODEL_FLAG = {"iterate": "--model", "morse-check": "--models", "identity": "--models"}
BAD_BLOCK = '{"n": 2, "p": 0, "dec": {"blocks": [1]}}'


class TestInputFaults:
    """Every input fault exits 2 with one error line and no output."""

    def check_fault(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        return err

    @pytest.mark.parametrize(
        "command,text",
        [("iterate", "[1]"), ("morse-check", "[1]"), ("identity", "[1]"),
         ("iterate", BAD_BLOCK), ("morse-check", f"[{BAD_BLOCK}]")],
    )
    def test_non_object_model_entry(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        self.check_fault(capsys, [command, MODEL_FLAG[command], str(path)], "model")

    @pytest.mark.parametrize("command", ["morse-check", "identity"])
    def test_single_model_object_is_refused(self, capsys, tmp_path, ncg1_model, command):
        self.check_fault(capsys, [command, "--models", ncg1_model], "non-empty list")

    def test_morse_check_rejects_an_empty_model_list(self, capsys, tmp_path):
        path = write_models(tmp_path, [])
        self.check_fault(capsys, ["morse-check", "--models", path], "non-empty")

    def test_morse_check_rejects_mixed_dimensions(self, capsys, tmp_path):
        g2 = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        g3 = GeodesicModel(3, NormalFormDecomposition([Hyp(Fraction(2)), Hyp(Fraction(2))]), 2)
        path = write_models(tmp_path, [g2, g3])
        err = self.check_fault(capsys, ["morse-check", "--models", path], "model #1")
        assert err == "error: model #1: n = 3, but model #0 has n = 2\n"

    def test_identity_names_the_first_model_of_another_dimension(self, capsys, tmp_path):
        g2 = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        g3 = GeodesicModel(3, NormalFormDecomposition([Hyp(Fraction(2)), Hyp(Fraction(2))]), 2)
        path = write_models(tmp_path, [g3, g3, g2, g2])
        err = self.check_fault(capsys, ["identity", "--models", path], "model #2")
        assert err == "error: model #2: n = 2, but model #0 has n = 3\n"

    @pytest.mark.parametrize(
        "argv",
        [["betti", "--n", "2", "--json", "MISSING/x"], ["prove", "--n", "2", "--json", "DIR"],
         ["morse-check", "--models", "MODELS", "--horizon", "200", "--json", "DIR"]],
        ids=["betti-missing-dir", "prove-into-directory", "morse-check-into-directory"],
    )
    def test_unwritable_json_path(self, capsys, tmp_path, argv):
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        paths = {"MISSING/x": str(tmp_path / "missing" / "x"), "DIR": str(tmp_path)}
        if "MODELS" in argv:
            paths["MODELS"] = write_models(tmp_path, [g])
        argv = [paths.get(a, a) for a in argv]
        self.check_fault(capsys, argv, f"cannot write {argv[-1]}")

    @pytest.mark.parametrize(
        "argv",
        [["iterate", "--model", "MODEL", "--mmax", "-1"],
         ["betti", "--n", "3", "--qmax", "-1"],
         ["morse-check", "--models", "MODELS", "--horizon", "-1"]],
        ids=["mmax", "qmax", "horizon"],
    )
    def test_negative_bound(self, capsys, tmp_path, ncg1_model, argv):
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        files = {"MODEL": ncg1_model, "MODELS": write_models(tmp_path, [g])}
        argv = [files.get(a, a) for a in argv]
        self.check_fault(capsys, argv, f"{argv[-2]} must be >= 0")

    @pytest.mark.parametrize(
        "argv",
        [["betti", "--n", "2", "--qmax", str(10**20)],
         ["morse-check", "--models", "MODELS", "--horizon", str(10**20)]],
        ids=["qmax", "horizon"],
    )
    def test_oversized_bound(self, capsys, tmp_path, argv):
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        argv = [write_models(tmp_path, [g]) if a == "MODELS" else a for a in argv]
        self.check_fault(capsys, argv, f"error: {argv[-2]} {argv[-1]} is too large (")

    def test_out_of_memory(self, capsys, monkeypatch):
        def exhausted(n, horizon):  # as a huge list would fail, without allocating it
            raise MemoryError

        monkeypatch.setattr(morse, "betti_values", exhausted)
        self.check_fault(capsys, ["betti", "--n", "2", "--qmax", "30"],
                         "error: --qmax 30 is too large (MemoryError)")

    def test_infinite_dimension(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1e400, "p": 0, "dec": {"blocks": []}}')
        self.check_fault(capsys, ["iterate", "--model", str(path)], "model")

    @pytest.mark.parametrize("key,value", [("n", 2.9), ("n", 2.0), ("n", True), ("n", "2"),
                                           ("p", True), ("p", 0.0), ("p", "0"), ("p", None)])
    def test_non_integer_model_field(self, capsys, tmp_path, key, value):
        # a float, bool or string is refused, never truncated to an int
        g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**model_json(g), key: value}))
        self.check_fault(capsys, ["iterate", "--model", str(path)], f"{key} must be an integer")
        path.write_text(json.dumps([{**model_json(g), key: value}]))
        self.check_fault(capsys, ["morse-check", "--models", str(path)], f"{key} must be an integer")

    @pytest.mark.parametrize("block,field,value", [
        ({"type": "hyp", "d": 2.5}, "d", 2.5), ({"type": "hyp", "d": True}, "d", True),
        ({"type": "n", "rho": RHO.serialize(), "B": [[0.1, True], [0, 0]]}, "B[0][0]", 0.1),
        ({"type": "n", "rho": RHO.serialize(), "B": [[0, 0], [0, 1.0]]}, "B[1][1]", 1.0),
        ({"type": "hyp", "d": "1/0"}, "d", "1/0"), ({"type": "hyp", "d": "two"}, "d", "two"),
        ({"type": "n", "rho": RHO.serialize(), "B": [["1/0", 0], [0, 0]]}, "B[0][0]", "1/0"),
        ({"type": "n", "rho": RHO.serialize(), "B": [[0, 0], [0, "two"]]}, "B[1][1]", "two"),
    ], ids=["d-2.5", "d-True", "B-0.1", "B-1.0", "d-1/0", "d-two", "B-1/0", "B-two"])
    def test_inexact_block_number(self, capsys, tmp_path, block, field, value):
        # a float or bool is refused, never read as a binary fraction or as 1, and so is
        # a string that is no fraction; the message names the field's path and the value
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2 if block["type"] == "hyp" else 3, "p": 0,
                                    "dec": {"blocks": [block]}}))
        self.check_fault(capsys, ["iterate", "--model", str(path)],
                         f"model: dec.blocks[0].{field} must be an integer or a fraction string, "
                         f"got {value!r}")

    @pytest.mark.parametrize("model,message", [
        ({"n": 3, "p": 0, "dec": {"blocks": [{"type": "n", "rho": RHO.serialize(), "B": 5}]}},
         "dec.blocks[0].B must be a 2x2 matrix, got 5"),
        ({"n": 3, "p": 0, "dec": {"blocks": [{"type": "n", "rho": RHO.serialize(), "B": [5, 6]}]}},
         "dec.blocks[0].B must be a 2x2 matrix, got [5, 6]"),
        ({"n": 2, "p": 0, "dec": {"blocks": [{"type": "rot", "rho": 5}]}},
         'dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got 5'),
        ({"n": 2, "p": 0, "dec": {"blocks": [{"type": "hyp"}]}},
         "dec.blocks[0].d must be an integer or a fraction string, got None"),
        ({"n": 2, "p": 0, "dec": {"blocks": 5}}, "dec.blocks must be a list of blocks, got 5"),
        ({"n": 2, "p": 0, "dec": []}, 'dec must be an object {"blocks": [...]}, got []'),
        ({"n": 2, "p": 0, "dec": {"blocks": [5]}}, 'dec.blocks[0] must be an object with a "type", '
                                                     "got 5"),
        ([1], "a model must be an object with n, p and dec, got [1]"),
        ({"p": 0, "dec": {"blocks": [{"type": "rot", "rho": RHO.serialize()}]}},
         "n must be an integer, got None"),
    ], ids=["B-int", "B-rows", "rho-int", "no-d", "blocks-int", "dec-list", "block-int",
            "model-list", "no-n"])
    def test_a_model_error_names_its_field(self, capsys, tmp_path, model, message):
        # each message names the path of the field that is wrong and the value it holds
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        err = self.check_fault(capsys, ["iterate", "--model", str(path)], message)
        assert err == f"error: model: {message}\n"

    @pytest.mark.parametrize("block,message", [
        ({"type": "rot", "rho": "abc"},
         """dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got 'abc'"""),
        ({"type": "rot", "rho": "(1+1*sqrt(2))/0"},
         """dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got '(1+1*sqrt(2))/0'"""),
        ({"type": "rot", "rho": "(1+0*sqrt(2))/3"}, "dec.blocks[0].rho = '(1+0*sqrt(2))/3': "
         "R-block rotation number must be irrational, got (1+0*sqrt(0))/3"),
        ({"type": "rot", "rho": "(1+1*sqrt(2))/1"}, "dec.blocks[0].rho = '(1+1*sqrt(2))/1': "
         "R-block rotation number must lie in (0, 1), got (1+1*sqrt(2))/1"),
        ({"type": "hyp", "d": 1},
         "dec.blocks[0].d = 1: hyperbolic parameter must avoid {0, 1, -1}, got 1"),
        ({"type": "hyp", "d": "1e10000000"},
         "dec.blocks[0].d must be an integer or a fraction string, got '1e10000000'"),
        ({"type": "rot", "rho": LONG_RHO},
         f"""dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got {LONG_RHO!r}"""),
        ({"type": "rot", "rho": "(-\u0661+1*sqrt(\u0665))/4"},
         """dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got '(-\u0661+1*sqrt(\u0665))/4'"""),
    ], ids=["rho-abc", "rho-c-0", "rho-rational", "rho-above-1", "d-1", "d-exponent",
            "rho-long-c", "rho-arabic-digits"])
    def test_a_refused_value_names_its_field(self, capsys, tmp_path, block, message):
        # a value of the right JSON type that its block refuses names the path and the
        # value, at once: an exponent is not expanded, and a long digit run is matched
        # in linear time
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "p": 0, "dec": {"blocks": [block]}}))
        start = time.perf_counter()
        err = self.check_fault(capsys, ["iterate", "--model", str(path)], message)
        assert time.perf_counter() - start < 5
        assert err == f"error: model: {message}\n"

    @pytest.mark.parametrize("argv", [["iterate", "--model", "MODEL"], ["betti", "--n", "3"]],
                             ids=["iterate", "betti"])
    @pytest.mark.parametrize("flags", [["--csv", "--json", "OUT"], ["--json", "OUT", "--csv"]],
                             ids=["csv-first", "json-first"])
    def test_csv_excludes_json(self, capsys, tmp_path, ncg1_model, argv, flags):
        out = tmp_path / "out.json"
        files = {"MODEL": ncg1_model, "OUT": str(out)}
        self.check_fault(capsys, [files.get(a, a) for a in argv + flags], "not allowed with argument")
        assert not out.exists()

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.check_fault(capsys, ["morse-check", "--models", str(path)], "cannot read")

    def test_usage_error_is_one_line(self, capsys):
        self.check_fault(capsys, ["betti", "--n", "x"], "invalid int value")

    @pytest.mark.parametrize("command", ["iterate", "morse-check", "identity"])
    def test_a_model_in_two_fields_is_refused_by_name(self, capsys, tmp_path, command):
        # the model's number and the paths and fields of its first two disagreeing rotations
        mixed = GeodesicModel(4, NormalFormDecomposition(
            [Rot(RHO), Hyp(Fraction(2)), Rot(ExactReal(-1, 1, 1, 3))]), 0)
        message = "dec.blocks[0].rho and dec.blocks[2].rho lie in Q(sqrt(2)) and Q(sqrt(3))"
        if command == "iterate":
            path, label = tmp_path / "model.json", "model"
            path.write_text(json.dumps(model_json(mixed)))
        else:
            good = GeodesicModel(4, NormalFormDecomposition([Rot(RHO)] * 3), 0)
            path, label = write_models(tmp_path, [good, mixed]), "model #1"
        err = self.check_fault(capsys, [command, MODEL_FLAG[command], str(path)], message)
        assert err == f"error: {label}: {message}\n"

    @pytest.mark.parametrize("models, message", [
        ([RHO, ExactReal(-1, 1, 1, 3)], "model #0 and model #1 lie in Q(sqrt(2)) and Q(sqrt(3))"),
        # an NCG5 model's mean index p is rational, and so is its term: Q(sqrt(2)) from #1
        ([None, RHO, RHO, ExactReal(-1, 1, 1, 3)],
         "model #1 and model #3 lie in Q(sqrt(2)) and Q(sqrt(3))"),
    ], ids=["pair", "after-a-rational-term"])
    def test_identity_names_the_models_of_two_fields(self, capsys, tmp_path, models, message):
        models = [GeodesicModel(2, NormalFormDecomposition([Rot(rho)]), 0) if rho else
                  GeodesicModel(2, NormalFormDecomposition([Hyp(Fraction(2))]), 1)
                  for rho in models]
        err = self.check_fault(capsys, ["identity", "--models", write_models(tmp_path, models)],
                               message)
        assert err == f"error: {message}\n"

    def test_one_field_in_two_spellings_is_no_fault(self, capsys, tmp_path):
        # sqrt(8) - 2 = 2*sqrt(2) - 2: the model of both spellings is the model over Q(sqrt(2))
        rows = []
        for rho in ("(-2+1*sqrt(8))/1", "(-2+2*sqrt(2))/1"):
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"n": 3, "p": 0, "dec": {"blocks": [
                {"type": "rot", "rho": rho}, {"type": "rot", "rho": "(-1+1*sqrt(2))/1"}]}}))
            code, out, err = run(capsys, "iterate", "--model", str(path), "--mmax", "40")
            assert (code, err) == (0, "")
            rows.append(json.loads(out)["rows"])
        assert rows[0] == rows[1]
        # the Beatty pair of TestIdentity, its second rotation (sqrt(5) - 1)/4 spelled over 20
        pair = [GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(1, 1, 4, 5))]), 0),
                GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(-2, 1, 8, 20))]), 1)]
        code, out, err = run(capsys, "identity", "--models", write_models(tmp_path, pair))
        assert (code, err, json.loads(out)["holds"]) == (0, "", True)


class TestParserReuse:
    """main builds its parser once per process, and no call leaks into the next."""

    def test_one_parser_for_many_calls(self, capsys, monkeypatch, ncg1_model):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in (["betti", "--n", "3"], ["iterate", "--model", ncg1_model], ["prove", "--n", "4"],
                     ["betti", "--n", "x"], ["--help"]) * 3:
            main(argv)
        capsys.readouterr()
        assert built.count("indexlab") == 1  # one parser; the rest are its subcommands

    def test_a_command_is_parsed_once(self, capsys, monkeypatch, ncg1_model):
        # by the command's own parser: the top-level parser reads no argv that names a command
        parsed = []
        parse = cli._Parser.parse_known_args

        def counting_parse(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_known_args", counting_parse)
        for argv in (["betti", "--n", "3"], ["iterate", "--model", ncg1_model], ["prove", "--n", "4"],
                     ["verify", ncg1_model], ["betti", "--n", "x"], ["prove", "--n", "4", "stray"],
                     ["identity", "-h"]):
            parsed.clear()
            main(argv)
            assert parsed == [f"indexlab {argv[0]}"], argv
        for argv in ([], ["--help"], ["frobnicate"]):  # no command: the top-level parser reads it
            parsed.clear()
            main(argv)
            assert parsed == ["indexlab"], argv
        capsys.readouterr()

    @pytest.mark.parametrize("first,then", [
        (["iterate", "--model", "MODEL", "--csv"], ["iterate", "--model", "MODEL"]),
        (["prove", "--n", "12", "--case", "ncg4"], ["prove", "--n", "12"]),
        (["betti", "--n", "x"], ["betti", "--n", "5", "--qmax", "12"]),
        (["--help"], ["betti", "--n", "5"]),
    ], ids=["csv", "case", "usage-error", "help"])
    def test_a_call_leaves_nothing_to_the_next(self, capsys, ncg1_model, first, then):
        first, then = ([ncg1_model if a == "MODEL" else a for a in argv] for argv in (first, then))
        cli.build_parser.cache_clear()
        expected = run(capsys, *then)  # the first call of a fresh parser
        cli.build_parser.cache_clear()
        run(capsys, *first)
        assert run(capsys, *then) == expected


USAGE = {None: "usage: indexlab [-h] {iterate,betti,morse-check,identity,prove,verify} ...",
         "iterate": "usage: indexlab iterate [-h] --model MODEL [--mmax MMAX] [--json JSON | --csv]",
         "betti": "usage: indexlab betti [-h] --n N [--qmax QMAX] [--json JSON | --csv]",
         "morse-check": "usage: indexlab morse-check [-h] --models MODELS [--horizon HORIZON]",
         "identity": "usage: indexlab identity [-h] --models MODELS [--json JSON]",
         "prove": "usage: indexlab prove [-h] --n N [--case CASE] [--json JSON]",
         "verify": "usage: indexlab verify [-h] certificate"}
COMMANDS = "'iterate', 'betti', 'morse-check', 'identity', 'prove', 'verify'"

# (argv, exit code, the usage line that help prints on stdout, stderr); only the
# unrecognized-arguments line names the command, as its parser reads argv alone
PARSES = [
    ([], 2, None, "error: indexlab: the following arguments are required: command\n"),
    (["-h"], 0, USAGE[None], ""),
    (["--he"], 0, USAGE[None], ""),
    (["frobnicate", "--n", "3"], 2, None, "error: indexlab: argument command: invalid "
                                          f"choice: 'frobnicate' (choose from {COMMANDS})\n"),
    *[([command, "-h"], 0, USAGE[command], "") for command in USAGE if command],
    (["betti", "--n", "3", "--he"], 0, USAGE["betti"], ""),
    (["prove"], 2, None, "error: indexlab prove: the following arguments are required: --n\n"),
    (["verify"], 2, None,
     "error: indexlab verify: the following arguments are required: certificate\n"),
    (["betti", "--n", "x"], 2, None, "error: indexlab betti: argument --n: invalid int value: "
                                     "'x'\n"),
    (["prove", "--n", "4", "stray"], 2, None,
     "error: indexlab prove: unrecognized arguments: stray\n"),
    (["iterate", "--model", "m.json", "--extra"], 2, None,
     "error: indexlab iterate: unrecognized arguments: --extra\n"),
    (["verify", "--", "-x"], 2, None,
     "error: cannot read -x: [Errno 2] No such file or directory: '-x'\n"),
]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv,code,usage,err", PARSES,
                             ids=[" ".join(argv) or "(none)" for argv, *_ in PARSES])
    def test_what_each_argv_prints(self, capsys, monkeypatch, tmp_path, argv, code, usage, err):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # the width help wraps to
        got, out, got_err = run(capsys, *argv)
        assert (got, out.split("\n", 1)[0] if usage else out, got_err) == (code, usage or "", err)
        if usage:  # the whole help of the parser that reads argv
            parser = cli.build_parser()
            assert out == parser.commands.get(argv[0], parser).format_help()


# -- the model-file grammar: every field dropped or retyped is refused by name --

GRAMMAR = [model_json(GeodesicModel(n, NormalFormDecomposition(blocks), p)) for n, blocks, p in [
    (2, [Rot(RHO)], 0), (3, [NBlock(RHO, [[1, "1/2"], [0, -3]])], 0),
    (3, [Hyp(Fraction(2)), Hyp(Fraction(-3, 7))], 1)]]
# the JSON types each field takes, by its key; a list index is a row of B, or an entry
TAKES = {"n": (int,), "p": (int,), "case": (str, type(None)), "dec": (dict,), "blocks": (list,),
         "type": (str,), "rho": (str,), "d": (int, str), "B": (list,), "row": (list,),
         "entry": (int, str)}
OPTIONAL = {"case", "B"}


def _fields(node, path=()):
    """(path, kind) of each field nested in a model file's object."""
    for key, value in node.items() if type(node) is dict else enumerate(node):
        kind = key if type(key) is str else "row" if type(value) is list else "entry"
        if path[-1:] != ("blocks",):  # a block is no field of a type, its fields are
            yield path + (key,), kind
        if type(value) in (dict, list):
            yield from _fields(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_dropped_or_retyped_field_is_refused_by_name(tmp_path_factory, data):
    model = json.loads(json.dumps(data.draw(st.sampled_from(GRAMMAR))))
    path, kind = data.draw(st.sampled_from(list(_fields(model))))
    *parents, key = path
    node = model
    for k in parents:
        node = node[k]
    others = [1, "x", 2.5, True, None, [1], {"a": 1}]
    retyped = [v for v in others if type(v) not in TAKES[kind]]
    if kind in OPTIONAL or data.draw(st.booleans()):
        node[key] = data.draw(st.sampled_from(retyped))
    else:
        del node[key]
    file = tmp_path_factory.getbasetemp() / "grammar.json"
    file.write_text(json.dumps(model))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["iterate", "--model", str(file)])
    out, err = out.getvalue(), err.getvalue()
    assert (code, out) == (2, "") and err.startswith("error: model: ") and err.count("\n") == 1
    if "blocks" in parents:
        assert f"dec.blocks[{path[path.index('blocks') + 1]}]" in err, err


# -- fuzz: any argv and any document exit 0, 1 or 2, never with a traceback --

RHOS = ["(-1+1*sqrt(2))/1", "(-1+1*sqrt(5))/4", "(1+1*sqrt(5))/4",
        "(1+1*sqrt(2))/1", "(1+1*sqrt(2))/0"]
ODD = [None, True, -1, 0, 1, 3, 2.5, float("inf"), float("nan"), 10**40, "2", "1/0", "x\ny", [], {}]
VALID = [model_json(GeodesicModel(n, NormalFormDecomposition(b), p)) for n, b, p in [
    (2, [Rot(RHO)], 0),
    (3, [Rot(RHO), Hyp(Fraction(2))], 2),
    (3, [Hyp(Fraction(2)), Hyp(Fraction(-3))], 1),
    (5, [Rot(RHO), Rot(ExactReal(7, -4, 8, 2)), Hyp(Fraction(2)), Hyp(Fraction(3))], 3),
    (3, [NBlock(RHO)], 0),
]]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)
blocks = st.one_of(
    st.builds(lambda rho: {"type": "rot", "rho": rho}, st.sampled_from(RHOS)),
    st.builds(lambda d: {"type": "hyp", "d": d}, st.sampled_from(["2", "-3/7", "1"] + ODD)),
    st.builds(lambda rho, B: {"type": "n", "rho": rho, "B": B}, st.sampled_from(RHOS),
              st.sampled_from([[[0, 0], [0, 0]], [[1]], [["1/0", 0], [0, 0]]])),
    json_values,
)
models = st.one_of(
    st.sampled_from(VALID),
    # a valid model with one field spoiled
    st.builds(lambda m, key, value: {**m, key: value}, st.sampled_from(VALID),
              st.sampled_from(["n", "p", "case", "dec"]), st.sampled_from(ODD)),
    st.fixed_dictionaries({
        "n": st.sampled_from([2, 3, 4] + ODD),
        "p": st.sampled_from([0, 1] + ODD),
        "dec": st.fixed_dictionaries({"blocks": st.lists(blocks, max_size=4)}),
    }),
)
documents = st.one_of(models, st.lists(models, max_size=3),
                      st.builds(lambda m: {"models": m}, st.lists(models, max_size=3)), json_values)
# bounds stay at most 500, so no case allocates or replays at scale
bounds = st.one_of(*[st.integers(2, 500).map(str)] * 4,
                   st.sampled_from(["-1", "0", "1", "x", "", "1e3", "\n"]))
FLAGS = {  # the required flag first; CERT stands for verify's positional certificate
    "iterate": ["--model", "--mmax", "--csv"],
    "betti": ["--n", "--qmax", "--csv"],
    "morse-check": ["--models", "--horizon"],
    "identity": ["--models"],
    "prove": ["--n", "--case"],
    "verify": ["CERT"],
    "frobnicate": ["--n"],
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_runs_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data.draw(documents)))
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    required, *optional = FLAGS[command]
    flags = data.draw(st.sampled_from([[required]] * 4 + [[]]))
    flags += data.draw(st.lists(st.sampled_from(optional or [required]), max_size=3))
    argv = [command]
    for flag in data.draw(st.permutations(flags)):
        if flag in ("--model", "--models", "CERT"):
            value = data.draw(st.sampled_from([str(path)] * 4 + [str(path) + ".missing"]))
        elif flag == "--case":
            value = data.draw(st.sampled_from(["ncg1", "NCG4", "ncg9", "a\nb"]))
        else:
            value = data.draw(bounds)
        argv += [flag] if flag == "--csv" else [value] if flag == "CERT" else [flag, value]
    # help or a stray token anywhere: before the command the top-level parser reads argv
    extra = data.draw(st.sampled_from([None] * 3 + ["-h", "--help", "stray"]))
    if extra:
        argv.insert(data.draw(st.integers(0, len(argv))), extra)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
