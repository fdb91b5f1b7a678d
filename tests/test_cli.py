import json
from fractions import Fraction

import pytest

from indexlab import GeodesicModel, Hyp, NormalFormDecomposition, Rot, make, prover
from indexlab.cli import main
from indexlab.iteration import model_to_json

RHO = make(-1, 1, 1, 2)  # sqrt(2) - 1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_models(tmp_path, models, name="models.json"):
    path = tmp_path / name
    path.write_text(json.dumps([model_to_json(g) for g in models]))
    return str(path)


@pytest.fixture
def ncg1_model(tmp_path):
    g = GeodesicModel(2, NormalFormDecomposition([Rot(RHO)]), 0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(g)))
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


class TestSeries:
    def test_matches_betti(self, capsys):
        _, out_s, _ = run(capsys, "series", "--n", "4", "--degree", "30")
        _, out_b, _ = run(capsys, "betti", "--n", "4", "--qmax", "30")
        assert json.loads(out_s)["coefficients"] == json.loads(out_b)["b"]


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


class TestMorseCheck:
    def test_consistent_pair_exits_zero(self, capsys, tmp_path):
        # two-geodesic configuration whose Morse table equals the Betti table
        g1 = GeodesicModel(2, NormalFormDecomposition([Rot(make(1, 1, 4, 5))]), 0)
        g2 = GeodesicModel(2, NormalFormDecomposition([Rot(make(-1, 1, 4, 5))]), 1)
        path = write_models(tmp_path, [g1, g2])
        code, out, _ = run(capsys, "morse-check", "--models", path, "--horizon", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["M"] == doc["b"] == [0, 1, 0, 2, 0, 2, 0, 2, 0, 2]

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


class TestIdentity:
    def test_holding_identity(self, capsys, tmp_path):
        rhos = [make(-1, 1, 1, 2), make(7, -4, 8, 2), make(7, -4, 8, 2)]
        g = GeodesicModel(4, NormalFormDecomposition([Rot(r) for r in rhos]), 0)
        path = write_models(tmp_path, [g])
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
        assert "dimension" in err

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

    def test_case_filter(self, capsys):
        code, out, _ = run(capsys, "prove", "--n", "5", "--case", "ncg4")
        assert code == 0
        doc = json.loads(out)
        assert [t["case"] for t in doc["traces"]] == ["NCG4", "NCG4"]

    def test_unknown_case_filter(self, capsys):
        code, _, err = run(capsys, "prove", "--n", "5", "--case", "ncg9")
        assert code == 2
        assert "unknown case" in err

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


MODEL_FLAG = {"iterate": "--model", "morse-check": "--models", "identity": "--models"}
BAD_BLOCK = '{"n": 2, "p": 0, "dec": {"blocks": [1]}}'


class TestInputFaults:
    """Every input fault exits 2 with one error line and no output."""

    def check_fault(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

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
        self.check_fault(capsys, ["morse-check", "--models", path], "dimension")

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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
