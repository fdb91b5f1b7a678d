import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import indexlab
from indexlab import ExactReal, GeodesicModel, checker, cli, iteration, morse, prover
from indexlab.cli import main
from indexlab.morse import MorseTable, betti_values, check_morse_inequalities

from conftest import SMALL_RHO, katok_models, model_json, random_model, shaped_models

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
    g = GeodesicModel(2, 0, [RHO])
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
            assert calls == Counter(index_of_iterate=2 * K,
                                    floor_scaled=len(g.rotation_numbers) * K)

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
        g1 = GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)])
        g2 = GeodesicModel(2, 1, [ExactReal(-1, 1, 4, 5)])
        path = write_models(tmp_path, [g1, g2])
        for horizon, b in ((9, [0, 1, 0, 2, 0, 2, 0, 2, 0, 2]), (20000, betti_values(2, 20000))):
            code, out, _ = run(capsys, "morse-check", "--models", path, "--horizon", str(horizon))
            assert code == 0
            doc = json.loads(out)
            assert doc["violations"] == []
            assert doc["M"] == doc["b"] == b

    def test_violating_set_exits_one(self, capsys, tmp_path):
        # i(c^m) = 2m misses every odd degree, so M_1 = 0 < b_1 = 1 for n = 2
        g = GeodesicModel(2, 2, h=1)
        path = write_models(tmp_path, [g])
        code, out, _ = run(capsys, "morse-check", "--models", path, "--horizon", "5")
        assert code == 1
        violations = json.loads(out)["violations"]
        assert {"q": 1, "kind": "pointwise", "lhs": 0, "rhs": 1} in violations

    def test_zero_mean_index_is_input_error(self, capsys, tmp_path):
        g = GeodesicModel(2, 0, h=1)
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
        g = GeodesicModel(2, 0, [RHO])
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
        g = GeodesicModel(2, 0, [ExactReal(1, 1, 10**41, 2)])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "indexlab.cli", "morse-check", "--models",
                               write_models(tmp_path, [g]), "--horizon", "10"],
                              env=env, capture_output=True, text=True, timeout=15)
        assert (done.returncode, done.stdout) == (2, "")
        # the 42-digit cutoff is quoted as its first 30 digits and its count of digits, as
        # every integer of more than 40 characters is: cut to 40, it read as a smaller number
        cut = str(morse.iterate_cutoff(g, 10))
        assert len(cut) == 42
        assert done.stderr == (f"error: model #0: iterate cutoff {cut[:30]}…(42 digits) at "
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
        models = write_models(directory, [GeodesicModel(n, 0, [RHO] * (n - 1))],
                              f"models-{n}.json")
        argv = ["morse-check", "--models", models, "--horizon", str(horizon)]
        out_path, out, code = directory / "morse-check.json", io.StringIO(), int(bool(violations))
        with mock.patch.object(morse, "morse_numbers", lambda ms, h: MorseTable(tuple(values))):
            with contextlib.redirect_stdout(out):
                assert main(argv) == code
                assert main(argv + ["--json", str(out_path)]) == code
        assert out.getvalue() == expected  # the --json run writes nothing to stdout
        assert out_path.read_text() == expected


class TestIterateDocument:
    """iterate writes its document by hand; it must be the json.dumps text of the row dicts."""

    @settings(max_examples=300, deadline=None)
    @given(g=shaped_models(), K=st.integers(0, 60))
    @example(g=GeodesicModel(2, 0, [RHO]), K=0)  # "rows":[]
    @example(g=GeodesicModel(4, 0, [SMALL_RHO] * 2, h=1), K=12)  # NCG2, i(c^2) = -2
    @example(g=GeodesicModel(5, 0, [SMALL_RHO] * 3, h=1), K=12)  # NCG3, i(c^2) = -3
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
        g = GeodesicModel(3, 0, [RHO, ExactReal(-1, 1, 4, 5)])
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(model_json(g)))
        code, out, err = run(capsys, "iterate", "--model", str(path), "--mmax", "5", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: model: dec.blocks[0].rho and dec.blocks[1].rho lie in "
                       "Q(sqrt(2)) and Q(sqrt(5))\n")


class TestIdentity:
    def test_holding_identity(self, capsys, tmp_path):
        rhos = [ExactReal(-1, 1, 1, 2), ExactReal(7, -4, 8, 2), ExactReal(7, -4, 8, 2)]
        one = [GeodesicModel(4, 0, rhos)]
        # the complementary Beatty pair of TestMorseCheck: lhs = euler_limit(2) = -1
        pair = [GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)]),
                GeodesicModel(2, 1, [ExactReal(-1, 1, 4, 5)])]
        for models in (one, pair):
            path = write_models(tmp_path, models)
            code, out, _ = run(capsys, "identity", "--models", path)
            assert code == 0
            doc = json.loads(out)
            assert doc["holds"] is True
            assert doc["lhs"] == doc["rhs"]

    def test_failing_identity(self, capsys, tmp_path):
        g = GeodesicModel(2, 0, [RHO])
        path = write_models(tmp_path, [g])
        code, out, _ = run(capsys, "identity", "--models", path)
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_empty_set_is_input_error(self, capsys, tmp_path):
        path = write_models(tmp_path, [])
        code, _, _ = run(capsys, "identity", "--models", path)
        assert code == 2

    def test_mixed_dimensions_rejected(self, capsys, tmp_path):
        g2 = GeodesicModel(2, 0, [RHO])
        g3 = GeodesicModel(3, 2, h=2)
        path = write_models(tmp_path, [g2, g3])
        code, _, err = run(capsys, "identity", "--models", path)
        assert code == 2
        assert err == "error: model #1: n = 3, but model #0 has n = 2\n"

    def test_zero_mean_index_is_input_error(self, capsys, tmp_path):
        g = GeodesicModel(2, 0, h=1)
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

    @pytest.mark.parametrize("n", [2, 3, 81, 200])
    def test_stdout_is_the_certificate(self, capsys, n):
        code, out, _ = run(capsys, "prove", "--n", str(n))
        assert (code, out) == (0, prover.certificate_json(n) + "\n")

    def test_a_trace_that_fails_its_check_is_an_error(self, capsys, monkeypatch):
        replay_one = prover._replay

        def cut(n, case, subcase):  # the NCG1 trace without its closing step
            t = replay_one(n, case, subcase)
            return t._replace(steps=t.steps[:-1]) if case == "NCG1" else t

        monkeypatch.setattr(prover, "_replay", cut)
        code, out, err = run(capsys, "prove", "--n", "6")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_certificate_that_fails_its_check_is_an_error(self, capsys, monkeypatch, tmp_path):
        def duplicated(n):  # the first trace twice
            traces = [t._asdict() for t in prover.replay(n)]
            return {"schema": 6, "n": n, "traces": traces[:1] + traces}

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
    """The certificate for n with a reason in each vacuous trace's detail, as schema 5 held it."""
    doc = json.loads(prover.certificate_json(n))
    for t in doc["traces"]:
        if t["verdict"] == "vacuous":
            t["detail"] = "no census reaches the shape"
    return {**doc, "schema": 5}


def _cases(n, cases):
    """The certificate for n with the traces of these case shapes alone."""
    doc = json.loads(prover.certificate_json(n))
    return {**doc, "traces": [t for t in doc["traces"] if t["case"] in cases]}


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
    # a document with a "partial" key, or one that leaves a case shape out: one kind per n
    **{f"partial {v}": lambda v=v: {**json.loads(prover.certificate_json(5)), "partial": v}
       for v in (True, False, None)},
    "comment": lambda: {**json.loads(prover.certificate_json(5)), "comment": ""},
    # a trace outside its frame: an extra key, or one missing
    "trace comment": lambda: _edited(5, "NCG1", "", lambda t: t.update(comment="")),
    "trace without detail": lambda: _edited(5, "NCG1", "", lambda t: t.pop("detail")),
    "without n": lambda: {key: v for key, v in json.loads(prover.certificate_json(5)).items()
                          if key != "n"},
    "NCG4 alone": lambda: _cases(5, {"NCG4"}),
    "NCG4 alone, partial": lambda: {**_cases(5, {"NCG4"}), "partial": True},
    "without NCG3": lambda: _cases(5, {"NCG1", "NCG2", "NCG4", "NCG5"}),
}


# documents whose refusal would quote a document value of thousands or millions of
# characters, were each value not cut: the kernel's line stays short
OVERSIZED = {
    "schema 10**4000": lambda: {**json.loads(prover.certificate_json(5)), "schema": 10**4000},
    "n 10**4000": lambda: {**json.loads(prover.certificate_json(5)), "n": 10**4000},
    "long detail": lambda: _edited(5, "NCG1", "", lambda t: t.update(detail="d" * 10**6)),
    "long subcase": lambda: _edited(5, "NCG1", "", lambda t: t.update(subcase="s" * 10**6)),
    "long rule": lambda: _edited(5, "NCG1", "", lambda t: t["steps"][0].update(rule="E" * 10**6)),
    "long value": lambda: _edited(5, "NCG1", "", _values(0, value="7" * 10**6)),
    "traces 1000 times": lambda: {**(doc := json.loads(prover.certificate_json(5))),
                                  "traces": doc["traces"] * 1000},
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
            assert out == ('{"n":%d,"schema":6,"steps":%d,"traces":%d,"verified":true}\n'
                           % (n, steps, len(doc["traces"])))

    @pytest.mark.parametrize("name", sorted(TAMPERED))
    def test_a_tampered_certificate_exits_1(self, capsys, tmp_path, name):
        path = self.write(tmp_path, TAMPERED[name]())
        code, out, err = run(capsys, "verify", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        if not name.startswith(("n = ", "schema", "partial", "comment", "NCG4", "without",
                                "trace")):
            # a trace fails: the line names its step
            assert ": step " in err

    @pytest.mark.parametrize("name,fault", [
        ("partial True", "an extra key 'partial'"), ("comment", "an extra key 'comment'"),
        ("without n", "no key 'n'"), ("n = 2.0", "n of type float"),
        ("n = 1", "schema = 6, n = 1"), ("schema 3", "schema = 3, n = 5"),
        ("trace comment", "an extra key 'comment'"), ("trace without detail", "no key 'detail'"),
    ])
    def test_a_refused_document_names_its_first_fault(self, capsys, tmp_path, name, fault):
        # the same line from `indexlab verify` and from the checker file alone: a refused
        # document's, or its refused trace 0's
        path = self.write(tmp_path, TAMPERED[name]())
        refusal = ("trace 0: not a trace: keys case, subcase, steps, verdict, detail"
                   if name.startswith("trace") else
                   "not a certificate: schema 6, integer n >= 2, traces")
        line = f"{path}: {refusal}; got {fault}\n"
        assert run(capsys, "verify", path) == (1, "", line)
        done = self.check_alone(tmp_path, path)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", line)

    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_a_refusal_quotes_each_document_value_cut_short(self, capsys, tmp_path, monkeypatch,
                                                             name):
        # one line of at most 400 characters, from `indexlab verify` and from the checker
        # file alone, however long the value the refusal names
        self.write(tmp_path, OVERSIZED[name]())
        monkeypatch.chdir(tmp_path)
        done = self.check_alone(tmp_path, "../cert.json")
        for code, out, err in (run(capsys, "verify", "cert.json"),
                               (done.returncode, done.stdout, done.stderr)):
            assert (code, out) == (1, "")
            line, end = err[:-1], err[-1:]
            assert end == "\n" and "\n" not in line and len(line) <= 400, err[:500]

    def test_the_checker_file_alone_quotes_a_long_path_cut_short(self, tmp_path):
        # the path, and the error that repeats it, were quoted whole: one line of 10,036
        # characters for a 5,000-character path
        done = self.check_alone(tmp_path, "p" * 5000)
        assert (done.returncode, done.stdout) == (1, "")
        assert re.fullmatch(r"p{150}…: \[Errno [0-9]+\] [^\n]{100,149}…\n", done.stderr), done.stderr

    def test_a_value_cut_short_is_marked(self, capsys, tmp_path, monkeypatch):
        # at n = 10**4000 the Eq(5.5) pin's rhs is a fraction of 8,002 characters: its quote
        # is cut, and the cut is marked, so that it does not read as a shorter number
        self.write(tmp_path, OVERSIZED["n 10**4000"]())
        monkeypatch.chdir(tmp_path)
        done = self.check_alone(tmp_path, "../cert.json")
        alone = (done.returncode, done.stdout, done.stderr)
        for path, (code, out, err) in (("cert.json", run(capsys, "verify", "cert.json")),
                                       ("../cert.json", alone)):
            assert (code, out) == (1, "") and len(err) - 1 <= 400
            assert re.fullmatch(re.escape(f"{path}: trace 0: step 0 (Eq(5.5)): values ") +
                                r"\{.*\} are not \{'N': 1, 'rhs': '-50{100,}…, those the rule "
                                r"derives\n", err), err

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
        models = write_models(tmp_path, [GeodesicModel(2, 0, [RHO])])
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
        models = write_models(tmp_path, [GeodesicModel(2, 0, [RHO])])
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
        g2 = GeodesicModel(2, 0, [RHO])
        g3 = GeodesicModel(3, 2, h=2)
        path = write_models(tmp_path, [g2, g3])
        err = self.check_fault(capsys, ["morse-check", "--models", path], "model #1")
        assert err == "error: model #1: n = 3, but model #0 has n = 2\n"

    def test_identity_names_the_first_model_of_another_dimension(self, capsys, tmp_path):
        g2 = GeodesicModel(2, 0, [RHO])
        g3 = GeodesicModel(3, 2, h=2)
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
        g = GeodesicModel(2, 0, [RHO])
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
        g = GeodesicModel(2, 0, [RHO])
        files = {"MODEL": ncg1_model, "MODELS": write_models(tmp_path, [g])}
        argv = [files.get(a, a) for a in argv]
        self.check_fault(capsys, argv, f"{argv[-2]} must be >= 0")

    @pytest.mark.parametrize(
        "argv",
        [["betti", "--n", "2", "--qmax", str(10**20)],
         ["morse-check", "--models", "MODELS", "--horizon", str(10**20)],
         ["betti", "--n", "2", "--qmax", "9" * 4000]],
        ids=["qmax", "horizon", "4000-digit qmax"],
    )
    def test_oversized_bound(self, capsys, tmp_path, argv):
        g = GeodesicModel(2, 0, [RHO])
        argv = [write_models(tmp_path, [g]) if a == "MODELS" else a for a in argv]
        # a bound of more than 40 digits is quoted as its first 30 and its count of digits
        bound = argv[-1] if len(argv[-1]) <= 40 else f"{argv[-1][:30]}…({len(argv[-1])} digits)"
        err = self.check_fault(capsys, argv, f"error: {argv[-2]} {bound} is too large (")
        assert len(err) - 1 <= REFUSAL_BOUND

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
        g = GeodesicModel(2, 0, [RHO])
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
         f"""dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got {repr(LONG_RHO)[:40]}…"""),
        ({"type": "rot", "rho": "(-\u0661+1*sqrt(\u0665))/4"},
         """dec.blocks[0].rho must be a string "(a+b*sqrt(D))/c", got '(-\u0661+1*sqrt(\u0665))/4'"""),
    ], ids=["rho-abc", "rho-c-0", "rho-rational", "rho-above-1", "d-1", "d-exponent",
            "rho-long-c", "rho-arabic-digits"])
    def test_a_refused_value_names_its_field(self, capsys, tmp_path, block, message):
        # a value of the right JSON type that its block refuses names the path and the
        # value, at once: an exponent is not expanded, a long digit run is matched in
        # linear time, and a long value is quoted cut to 40 characters
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
        mixed = {"n": 4, "p": 0, "dec": {"blocks": [
            {"type": "rot", "rho": RHO.serialize()}, {"type": "hyp", "d": 2},
            {"type": "rot", "rho": ExactReal(-1, 1, 1, 3).serialize()}]}}
        message = "dec.blocks[0].rho and dec.blocks[2].rho lie in Q(sqrt(2)) and Q(sqrt(3))"
        if command == "iterate":
            path, label = tmp_path / "model.json", "model"
            path.write_text(json.dumps(mixed))
        else:
            path, label = tmp_path / "models.json", "model #1"
            path.write_text(json.dumps([model_json(GeodesicModel(4, 0, [RHO] * 3)), mixed]))
        err = self.check_fault(capsys, [command, MODEL_FLAG[command], str(path)], message)
        assert err == f"error: {label}: {message}\n"

    @pytest.mark.parametrize("models, message", [
        ([RHO, ExactReal(-1, 1, 1, 3)], "model #0 and model #1 lie in Q(sqrt(2)) and Q(sqrt(3))"),
        # an NCG5 model's mean index p is rational, and so is its term: Q(sqrt(2)) from #1
        ([None, RHO, RHO, ExactReal(-1, 1, 1, 3)],
         "model #1 and model #3 lie in Q(sqrt(2)) and Q(sqrt(3))"),
    ], ids=["pair", "after-a-rational-term"])
    def test_identity_names_the_models_of_two_fields(self, capsys, tmp_path, models, message):
        models = [GeodesicModel(2, 0, [rho]) if rho else GeodesicModel(2, 1, h=1)
                  for rho in models]
        err = self.check_fault(capsys, ["identity", "--models", write_models(tmp_path, models)],
                               message)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("order, message", [
        ("ABC", "model #0 and model #2 lie in Q(sqrt(2)) and Q(sqrt(3))"),
        ("ACB", "model #0 and model #1 lie in Q(sqrt(2)) and Q(sqrt(3))"),
        ("CAB", "model #0 and model #1 lie in Q(sqrt(3)) and Q(sqrt(2))"),
    ], ids=["ABC", "ACB", "CAB"])
    def test_identity_refuses_two_fields_in_any_order(self, capsys, tmp_path, order, message):
        # the irrational parts of A's and B's terms cancel: a running sum that met C after
        # them would have been rational, and the set decided instead of refused
        rhos = {"A": RHO, "B": ExactReal(3, 1, 7, 2), "C": ExactReal(-1, 1, 1, 3)}
        models = [GeodesicModel(2, 0, [rhos[k]]) for k in order]
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
        pair = [GeodesicModel(2, 0, [ExactReal(1, 1, 4, 5)]),
                GeodesicModel(2, 1, [ExactReal(-2, 1, 8, 20)])]
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
        (["prove", "--n", "12", "--json", "CERT"], ["prove", "--n", "12"]),
        (["betti", "--n", "x"], ["betti", "--n", "5", "--qmax", "12"]),
        (["--help"], ["betti", "--n", "5"]),
    ], ids=["csv", "json-path", "usage-error", "help"])
    def test_a_call_leaves_nothing_to_the_next(self, capsys, tmp_path, ncg1_model, first, then):
        files = {"MODEL": ncg1_model, "CERT": str(tmp_path / "cert.json")}
        first, then = ([files.get(a, a) for a in argv] for argv in (first, then))
        cli.build_parser.cache_clear()
        expected = run(capsys, *then)  # the first call of a fresh parser
        cli.build_parser.cache_clear()
        run(capsys, *first)
        assert run(capsys, *then) == expected
        if "--json" in first:  # the file took the first call's output, stdout the next one's
            assert Path(files["CERT"]).read_text() == expected[1]


USAGE = {None: "usage: indexlab [-h] {iterate,betti,morse-check,identity,prove,verify} ...",
         "iterate": "usage: indexlab iterate [-h] --model MODEL [--mmax MMAX] [--json JSON | --csv]",
         "betti": "usage: indexlab betti [-h] --n N [--qmax QMAX] [--json JSON | --csv]",
         "morse-check": "usage: indexlab morse-check [-h] --models MODELS [--horizon HORIZON]",
         "identity": "usage: indexlab identity [-h] --models MODELS [--json JSON]",
         "prove": "usage: indexlab prove [-h] --n N [--json JSON]",
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
    (["prove", "--n", "5", "--case", "ncg4"], 2, None,  # one certificate per n: no case filter
     "error: indexlab prove: unrecognized arguments: --case ncg4\n"),
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

# a model of each block kind, every field of each block written out
GRAMMAR = [
    {"n": 2, "p": 0, "case": "NCG1", "dec": {"blocks": [{"type": "rot", "rho": RHO.serialize()}]}},
    {"n": 3, "p": 0, "case": "NCG5", "dec": {"blocks": [
        {"type": "n", "rho": RHO.serialize(), "B": [["1/1", "1/2"], ["0/1", "-3/1"]]}]}},
    {"n": 3, "p": 1, "case": "NCG5", "dec": {"blocks": [
        {"type": "hyp", "d": "2/1"}, {"type": "hyp", "d": "-3/7"}]}},
]
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
_ROT2 = '{"type": "rot", "rho": "(-1+1*sqrt(2))/1"}'
VALID = [json.loads(text) for text in (
    '{"n": 2, "p": 0, "case": "NCG1", "dec": {"blocks": [%s]}}' % _ROT2,
    '{"n": 3, "p": 2, "case": "NCG4", "dec": {"blocks": [%s, ' % _ROT2
    + '{"type": "hyp", "d": "2/1"}]}}',
    '{"n": 3, "p": 1, "case": "NCG5", "dec": {"blocks": [{"type": "hyp", "d": "2/1"}, '
    '{"type": "hyp", "d": "-3/1"}]}}',
    '{"n": 5, "p": 3, "case": "NCG2", "dec": {"blocks": [%s, ' % _ROT2
    + '{"type": "rot", "rho": "(7-4*sqrt(2))/8"}, {"type": "hyp", "d": "2/1"}, '
    '{"type": "hyp", "d": "3/1"}]}}',
    '{"n": 3, "p": 0, "case": "NCG5", "dec": {"blocks": [{"type": "n", "rho": "(-1+1*sqrt(2))/1", '
    '"B": [["0/1", "0/1"], ["0/1", "0/1"]]}]}}',
)]
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
    "prove": ["--n"],
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


# -- long values: every refusal of a model file is one short line --

REFUSAL_BOUND = 400  # characters in the one stderr line of a refusal, its newline left out
MILLION = 10**6
_ROT = {"n": 2, "p": 0, "dec": {"blocks": [{"type": "rot", "rho": RHO.serialize()}]}}


def _rot_in(D):
    """The rotation block of sqrt(D) - isqrt(D), which lies in Q(sqrt(D)) for non-square D."""
    return {"type": "rot", "rho": ExactReal(-math.isqrt(D), 1, 1, D).serialize()}


# model files spoiled by one long value, each of which a refusal once quoted whole: a model
# that every command refuses, or (the command, the list of models that it alone refuses)
PROBES = {
    "model-list": lambda: [0] * 200_000,
    "p": lambda: {**_ROT, "p": "9" * MILLION},
    "rho": lambda: {**_ROT, "dec": {"blocks": [
        {"type": "rot", "rho": "(" + "1" * MILLION + "+1*sqrt(2))/3"}]}},
    "type": lambda: {**_ROT, "dec": {"blocks": [{"type": "r" * MILLION, "rho": "x"}]}},
    "case": lambda: {**_ROT, "case": "N" * MILLION},
    "d": lambda: {"n": 2, "p": 0, "dec": {"blocks": [{"type": "hyp", "d": "9" * MILLION}]}},
    "blocks-dict": lambda: {**_ROT, "dec": {"blocks": {str(i): i for i in range(100_000)}}},
    # whole integers of up to 4,300 digits, the most a JSON number converts to
    "p -10**4200": lambda: {"n": 2, "p": -10**4200, "dec": {"blocks": [{"type": "hyp", "d": 2}]}},
    "NCG1 p -10**4200": lambda: {**_ROT, "p": -10**4200},
    "n 10**4200 + 1": lambda: {**_ROT, "n": 10**4200 + 1},
    "rho fields": lambda: {"n": 3, "p": 0, "dec": {"blocks": [_rot_in(10**3999),
                                                              _rot_in(3 * 10**3999)]}},
    "model fields": ("identity", lambda: [{**_ROT, "dec": {"blocks": [_rot_in(D)]}}
                                          for D in (10**1999, 3 * 10**1999)]),
    "iterate cutoff": ("morse-check", lambda: [{**_ROT, "dec": {"blocks": [
        {"type": "rot", "rho": ExactReal(-1, 1, 10**2000, 2).serialize()}]}}]),
}


def run_document(text, command, path):
    """(exit code, stdout, stderr) of the command on a model file of the model text: the
    model itself for iterate, a list of that one model for morse-check and identity."""
    path.write_text(text if command == "iterate" else f"[{text}]")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, MODEL_FLAG[command], str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    """Exit 0 or 1 with nothing on stderr, or 2 with one short error line and no output."""
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err) - 1 <= REFUSAL_BOUND, f"{len(err) - 1} characters: {err[:200]}"
    else:
        assert err == ""


@pytest.mark.parametrize("name,command", [
    (name, command) for name, probe in PROBES.items()
    for command in ((probe[0],) if type(probe) is tuple else sorted(MODEL_FLAG))])
def test_a_long_value_is_refused_in_one_short_line(tmp_path, name, command):
    # each line was as long as the value it quotes, up to 1,577,839 characters
    probe = PROBES[name]
    # run_document lists the text in brackets for morse-check and identity
    text = (", ".join(map(json.dumps, probe[1]())) if type(probe) is tuple else
            json.dumps(probe()))
    code, out, err = run_document(text, command, tmp_path / "model.json")
    assert code == 2
    assert_clean(code, out, err)
    # an integer cut to 40 characters read as a smaller number: its refusal names its
    # first 30 digits and its count of digits
    assert re.findall(r"[0-9]{30}…\(([0-9]+) digits\)", err) == DIGITS.get(name, [])


# the count of digits that the refusal of each probe of a long integer quotes
DIGITS = {"p -10**4200": ["4201"], "NCG1 p -10**4200": ["4201"], "n 10**4200 + 1": ["4201"],
          "rho fields": ["4000", "4000"], "model fields": ["2000", "2000"],
          "iterate cutoff": ["2002"]}
LONG_PATH = "p" * 100_000  # no file opens at this path: its name is too long


@pytest.mark.parametrize("argv", [
    ["iterate", "--model", LONG_PATH], ["morse-check", "--models", LONG_PATH],
    ["identity", "--models", LONG_PATH], ["verify", LONG_PATH],
    ["betti", "--n", "2", "--json", LONG_PATH], ["prove", "--n", "2", "--json", LONG_PATH],
], ids=lambda argv: " ".join(a if a != LONG_PATH else "PATH" for a in argv))
def test_a_long_path_is_refused_in_one_short_line(capsys, tmp_path, monkeypatch, argv):
    # the refusal quoted the path twice, itself and in the OSError's text: one line of
    # 200,054 characters when reading, 200,055 when writing
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert_clean(code, out, err)
    what = "write" if "--json" in argv else "read"
    assert code == 2 and err.startswith(f"error: cannot {what} {'p' * 150}…: [Errno 36] ")


def test_a_long_path_to_a_file_is_quoted_cut_short(capsys, tmp_path, monkeypatch):
    # a path of under 4,096 characters opens; the two refusals that quote it whole, of a
    # file with no model and of a certificate that fails, were 3,852 and 3,884 characters
    monkeypatch.chdir(tmp_path)
    path = "./" * 1900 + "doc.json"
    (tmp_path / "doc.json").write_text("[]")
    assert run(capsys, "identity", "--models", path) == (
        2, "", f"error: {path[:150]}…: expected a non-empty list of models\n")
    (tmp_path / "doc.json").write_text(json.dumps({"schema": 6, "n": 1, "traces": []}))
    assert run(capsys, "verify", path) == (
        1, "", f"{path[:150]}…: not a certificate: schema 6, integer n >= 2, traces; got "
               "schema = 6, n = 1\n")


# argv that argparse itself refuses, each quoting an argument whole: (argv, the parser's prog,
# its message); the refusal was one line as long as the argument, up to 100,063 characters
LONG_ARGV = {
    "--mmax of 10**5 x": (["iterate", "--model", "m", "--mmax", "x" * 100_000], "indexlab iterate",
                          f"argument --mmax: invalid int value: '{'x' * 100_000}'"),
    "command of 1000 z": (["z" * 1000], "indexlab", f"argument command: invalid choice: "
                          f"'{'z' * 1000}' (choose from {COMMANDS})"),
    "--qmax of 5000 digits": (["betti", "--n", "2", "--qmax", "9" * 5000], "indexlab betti",
                              f"argument --qmax: invalid int value: '{'9' * 5000}'"),
    "option of 10**4 characters": (["prove", "--n", "2", "--bogus" + "q" * 9_993], "indexlab prove",
                                   f"unrecognized arguments: --bogus{'q' * 9_993}"),
    "zz": (["zz"], "indexlab", f"argument command: invalid choice: 'zz' (choose from {COMMANDS})"),
}


@pytest.mark.parametrize("argv,prog,message", LONG_ARGV.values(), ids=LONG_ARGV)
def test_a_long_argument_is_refused_in_one_short_line(capsys, argv, prog, message):
    # argparse's message is quoted as a path is, cut at 150 characters and marked; the
    # invalid choice of a short command keeps its whole list of the commands
    code, out, err = run(capsys, *argv)
    assert_clean(code, out, err)
    cut = message if len(message) <= 150 else f"{message[:150]}…"
    assert (code, err) == (2, f"error: {prog}: {cut}\n")


LIMIT = sys.get_int_max_str_digits()  # the most digits str() writes of an int, 4,300 by default


# i(c) = 2p + 1 has LIMIT + 1 digits at the first two p, and at the third, the index of
# iterate 5 and later
LONG_P = {"10**LIMIT - 1": 10**LIMIT - 1, "5 * 10**(LIMIT - 1)": 5 * 10**(LIMIT - 1),
          "10**(LIMIT - 1)": 10**(LIMIT - 1)}
TOO_LONG = [*((name, argv) for name in LONG_P for argv in (
    ["iterate", "--model"], ["iterate", "--csv", "--model"],
    ["iterate", "--json", "OUT", "--model"], ["iterate", "--mmax", "10", "--model"],
    ["identity", "--models"], ["identity", "--json", "OUT", "--models"])),
    # the one row's index, 10**LIMIT + 1, is at most (|slope| + 2k)*mmax + k = 10**LIMIT + 3
    ("5 * 10**(LIMIT - 1)", ["iterate", "--csv", "--mmax", "1", "--model"]),
    # no row, but the mean index 2p + 2*(sqrt(2) - 1) has LIMIT + 1 digits
    ("10**LIMIT - 1", ["iterate", "--mmax", "0", "--model"])]


@pytest.mark.parametrize("name,argv", TOO_LONG, ids=[f"{name} {' '.join(argv)}"
                                                     for name, argv in TOO_LONG])
def test_a_model_too_long_to_write_is_refused_by_name(capsys, tmp_path, monkeypatch, name, argv):
    # p reads, but the iterates' indices, the mean index or the identity's sum have more digits
    # than str() writes: the refusal named no model, and iterate could write rows first
    monkeypatch.chdir(tmp_path)
    p = LONG_P[name]
    model = json.dumps({**_ROT, "p": p})
    Path("model.json").write_text(model if argv[0] == "iterate" else f"[{json.dumps(_ROT)}, {model}]")
    code, out, err = run(capsys, *argv, "model.json")
    label = "model" if argv[0] == "iterate" else "model #1"
    assert (code, out, err) == (2, "", f"error: {label}: p = {str(p)[:30]}…({len(str(p))} "
                                       f"digits): the output would hold an integer of more than "
                                       f"{LIMIT} digits\n")
    assert_clean(code, out, err)
    assert not Path("OUT").exists()


def test_a_model_too_long_to_write_is_checked_by_morse_check(capsys, tmp_path):
    # morse-check writes only counts, so it checks the same model and finds the inequalities fail
    path = tmp_path / "models.json"
    path.write_text(json.dumps([{**_ROT, "p": 10**LIMIT - 1}]))
    code, out, err = run(capsys, "morse-check", "--models", str(path))
    assert (code, err) == (1, "") and json.loads(out)["violations"]


def test_a_long_p_is_written_while_its_rows_fit(capsys, tmp_path):
    # with p = 10**(LIMIT - 1) the indices of iterates 1 to 4 have LIMIT digits: all are written
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_ROT, "p": (p := 10**(LIMIT - 1))}))
    code, out, err = run(capsys, "iterate", "--mmax", "4", "--model", str(path))
    assert (code, err) == (0, "")
    # i(c^m) = 2p*m + 2*floor(m*(sqrt(2) - 1)) + 1, the floors 0, 0, 1, 1
    assert [row["i"] for row in json.loads(out)["rows"]] == [2 * p + 1, 4 * p + 1, 6 * p + 3,
                                                             8 * p + 3]


# two rotation numbers whose sum has a denominator of about 6,000 digits, so that at any p the
# mean index of a model of both, and the identity's sum, hold an integer too long to write
WIDE = {"n": 3, "p": 0, "dec": {"blocks": [
    {"type": "rot", "rho": f"(1+1*sqrt(2))/{10**3000 + c}"} for c in (1, 3)]}}
OUTGROWN = [
    (["iterate", "--model"], "model: mean index"),
    (["iterate", "--mmax", "0", "--model"], "model: mean index"),
    (["iterate", "--json", "OUT", "--model"], "model: mean index"),
    (["identity", "--models"], "lhs, the sum over the models"),
    (["identity", "--json", "OUT", "--models"], "lhs, the sum over the models"),
]


@pytest.mark.parametrize("argv,what", OUTGROWN, ids=[" ".join(argv) for argv, _ in OUTGROWN])
def test_a_value_too_long_to_write_whatever_p_is_is_named(capsys, tmp_path, monkeypatch, argv,
                                                          what):
    # the refusal named p = 0, which takes no part: the rotation numbers outgrow the limit
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(json.dumps(WIDE if argv[0] == "iterate" else [WIDE]))
    code, out, err = run(capsys, *argv, "model.json")
    assert (code, out, err) == (2, "", f"error: {what}: the output would hold an integer of more "
                                       f"than {LIMIT} digits\n")
    assert not Path("OUT").exists()


def test_a_model_whose_mean_index_is_too_long_writes_its_rows(capsys, tmp_path):
    # the CSV table holds no mean index
    path = tmp_path / "model.json"
    path.write_text(json.dumps(WIDE))
    assert run(capsys, "iterate", "--csv", "--mmax", "2", "--model", str(path)) == (
        0, "m,i,nu,epsilon,k0\r\n1,2,0,1,1\r\n2,2,0,1,1\r\n", "")


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["json", "csv"])
def test_an_mmax_too_long_to_write_the_last_row_is_named(tmp_path, p, csv):
    # rho = sqrt(3)/2: whatever p is, the index 2p*m + 2*floor(m*rho) + 1 of iterate
    # m = 9*10**(LIMIT - 1) exceeds 1.5*10**LIMIT, more digits than str() writes
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_ROT, "p": p, "dec": {"blocks": [
        {"type": "rot", "rho": "(0+1*sqrt(3))/2"}]}}))
    mmax = 9 * 10**(LIMIT - 1)
    out, err = _Bounded(), io.StringIO()  # a run that writes rows fails at once, not on memory
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["iterate", *csv, "--mmax", str(mmax), "--model", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", f"error: --mmax {str(mmax)[:30]}…({LIMIT} digits): the output would hold an "
               f"integer of more than {LIMIT} digits\n")


class _Bounded(io.StringIO):
    """A stdout that refuses to hold more than 10**5 characters."""

    def write(self, text):
        if self.tell() + len(text) > 10**5:
            raise OSError(28, "No space left on device")
        return super().write(text)


STRETCHED = "\0stretched"  # stands for a million-digit JSON number in the written text
SCALARS = {kind for kind, types in TAKES.items() if not {dict, list} & set(types)}


def spoiled(model):
    """Four model texts per scalar field of the model: the field dropped, retyped (an int
    as its string, a string as its length), stretched to a million characters (a string
    padded with 1s, an int as a million-digit number), and wrapped in a list."""
    for *parents, key in [path for path, kind in _fields(model) if kind in SCALARS]:
        for how in ("drop", "retype", "stretch", "wrap"):
            doc = json.loads(json.dumps(model))
            node = functools.reduce(operator.getitem, parents, doc)
            value = node[key]
            if how == "drop":
                del node[key]
            elif how == "retype":
                node[key] = str(value) if type(value) is int else len(value)
            elif how == "stretch":
                node[key] = value.ljust(MILLION, "1") if type(value) is str else STRETCHED
            else:
                node[key] = [value]
            yield json.dumps(doc).replace(json.dumps(STRETCHED), "9" * MILLION)


# a model file of each case shape: N blocks, hyp blocks of several d, blocks in mixed order
SHAPED = """\
{"n": 6, "p": 4, "case": "NCG1", "dec": {"blocks": [{"type": "rot", "rho": "(-20+9*sqrt(6))/4"}, \
{"type": "n", "rho": "(-4+2*sqrt(6))/1", "B": [["0/1", "0/1"], ["0/1", "0/1"]]}, \
{"type": "n", "rho": "(-12+5*sqrt(6))/3", "B": [["0/1", "0/1"], ["0/1", "0/1"]]}]}}
{"n": 7, "p": 0, "case": "NCG2", "dec": {"blocks": [{"type": "rot", "rho": "(-2+1*sqrt(5))/1"}, \
{"type": "rot", "rho": "(0+3*sqrt(5))/8"}, {"type": "hyp", "d": "-2/7"}, \
{"type": "hyp", "d": "3/7"}, \
{"type": "n", "rho": "(-10+7*sqrt(5))/10", "B": [["0/1", "0/1"], ["0/1", "0/1"]]}]}}
{"n": 7, "p": 0, "case": "NCG3", "dec": {"blocks": [{"type": "hyp", "d": "2/7"}, \
{"type": "rot", "rho": "(-14+4*sqrt(17))/7"}, {"type": "hyp", "d": "5/7"}, \
{"type": "rot", "rho": "(-20+5*sqrt(17))/4"}, {"type": "hyp", "d": "2/7"}, \
{"type": "rot", "rho": "(-4+1*sqrt(17))/1"}]}}
{"n": 7, "p": 2, "case": "NCG4", "dec": {"blocks": [{"type": "hyp", "d": "3/1"}, \
{"type": "hyp", "d": "3/1"}, {"type": "hyp", "d": "3/1"}, \
{"type": "rot", "rho": "(-7+2*sqrt(13))/1"}, {"type": "hyp", "d": "2/7"}, \
{"type": "hyp", "d": "3/7"}]}}
{"n": 2, "p": 0, "case": "NCG5", "dec": {"blocks": [{"type": "hyp", "d": "3/1"}]}}
"""


def corpus_models():
    """The valid models the corpus spoils: README's example, a Katok-type model, and
    a model of each case shape."""
    return [{"n": 3, "p": 2, "case": "NCG4", "dec": {"blocks": [
        {"type": "rot", "rho": "(-1+1*sqrt(2))/1"}, {"type": "hyp", "d": 2}]}},
        model_json(katok_models(4, ExactReal(-2, 1, 1, 5), [1, 2])[0])] + [
        json.loads(line) for line in SHAPED.splitlines()]


def test_every_spoiled_model_exits_cleanly(tmp_path):
    # each scalar field of each valid model dropped, retyped, stretched and wrapped,
    # through the three commands that read model files
    codes = Counter()
    for model in corpus_models():
        for text in spoiled(model):
            for command in sorted(MODEL_FLAG):
                code, out, err = run_document(text, command, tmp_path / "model.json")
                assert_clean(code, out, err)
                codes[code] += 1
    assert codes[2] and codes[0]
