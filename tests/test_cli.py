import csv
import io
import json

import pytest

from chaosdet import verify
from chaosdet.cli import main
from chaosdet.multiindex import num_occupations
from chaosdet.tensors import load_tensor, random_unit_tensor, save_tensor, tensor_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--dim", "3", "--order", "2", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--dim", "3", "--order", "2", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_entry_count(self, tmp_path):
        path = tmp_path / "t.json"
        main(["gen", "--dim", "2", "--order", "4", "--seed", "0", "--out", str(path)])
        obj = json.loads(path.read_text())
        assert len(obj["entries"]) == num_occupations(2, 4) == 5

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        main(["gen", "--dim", "3", "--order", "3", "--seed", "5", "--out", str(path)])
        t = load_tensor(path)
        assert t.norm() == pytest.approx(1.0)
        save_tensor(t, tmp_path / "again.json")
        assert load_tensor(tmp_path / "again.json") == t


class TestReport:
    def write_pair(self, tmp_path, f, g):
        fp, gp = tmp_path / "f.json", tmp_path / "g.json"
        save_tensor(f, fp)
        save_tensor(g, gp)
        return str(fp), str(gp)

    def test_orthogonal_elementary_pair(self, tmp_path, capsys):
        from chaosdet.tensors import SymTensor

        fp, gp = self.write_pair(
            tmp_path, SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 2)
        )
        code, out = run_cli(capsys, "report", fp, gp)
        assert code == 0
        record = json.loads(out)
        q = record["quantities"]
        assert q["detC"] == 4
        assert q["edet_closed"] == pytest.approx(16, rel=1e-10)
        assert q["edet_oracle"] == pytest.approx(16, rel=1e-10)
        assert q["verdict"] == "HasDensity"
        assert record["version"]
        assert record["config"]["f"] == fp

    def test_proportional_pair(self, tmp_path, capsys):
        f = random_unit_tensor(0, 2, 2)
        fp, gp = self.write_pair(tmp_path, f, f.scale(-2.0))
        code, out = run_cli(capsys, "report", fp, gp)
        record = json.loads(out)
        q = record["quantities"]
        assert q["detC"] == pytest.approx(0.0, abs=1e-12)
        assert q["edet_closed"] == pytest.approx(0.0, abs=1e-12)
        assert q["verdict"] == "NoDensity_Proportional"

    def test_mixed_pair_has_no_verdict(self, tmp_path, capsys):
        from chaosdet.tensors import SymTensor

        fp, gp = self.write_pair(
            tmp_path, SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 0, 3)
        )
        code, out = run_cli(capsys, "report", fp, gp)
        record = json.loads(out)
        q = record["quantities"]
        assert q["detC"] == 12
        assert q["edet_closed"] == 0.0
        assert "verdict" not in q

    def test_random_pair_with_mc(self, capsys):
        code, out = run_cli(
            capsys, "report", "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--seed", "4", "--trials", "2000",
        )
        record = json.loads(out)
        q = record["quantities"]
        assert abs(q["edet_mc_mean"] - q["edet_closed"]) <= 4 * q["edet_mc_stderr"]

    def test_csv_and_json_numeric_identity(self, capsys):
        code, out_json = run_cli(
            capsys, "report", "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--seed", "4",
        )
        code, out_csv = run_cli(
            capsys, "report", "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--seed", "4", "--format", "csv",
        )
        record = json.loads(out_json)
        rows = {row[0]: row[1] for row in csv.reader(io.StringIO(out_csv))}
        q = record["quantities"]
        assert float(rows["quantities.detC"]) == q["detC"]
        assert float(rows["quantities.edet_closed"]) == q["edet_closed"]
        assert float(rows["quantities.T[0]"]) == q["T"][0]

    def test_guard_degrades(self, tmp_path, capsys):
        fp, gp = self.write_pair(
            tmp_path, random_unit_tensor(0, 6, 2), random_unit_tensor(1, 6, 2)
        )
        code, out = run_cli(capsys, "report", fp, gp, "--trials", "500")
        record = json.loads(out)
        assert record["warnings"]
        assert "edet_closed" not in record["quantities"]
        assert "edet_mc_mean" in record["quantities"]

    def test_incompatible_dims_exit_cleanly(self, tmp_path, capsys):
        fp, gp = self.write_pair(
            tmp_path, random_unit_tensor(0, 2, 2), random_unit_tensor(1, 3, 2)
        )
        code = main(["report", fp, gp])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--seeds", "1")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_structured_output(self, capsys):
        code, out = run_cli(capsys, "verify", "--seeds", "1", "--format", "structured")
        record = json.loads(out)
        assert code == 0
        assert record["failed"] is False
        assert all(c["passed"] for c in record["checks"])

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_rejects_empty_seed_range(self, capsys, seeds):
        code = main(["verify", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "--seeds" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["text", "structured", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        code, out = run_cli(capsys, "verify", "--seeds", "1", "--seed", "3", "--format", fmt)
        path = tmp_path / "verify.out"
        argv = ["verify", "--seeds", "1", "--seed", "3", "--format", fmt, "--out", str(path)]
        assert run_cli(capsys, *argv) == (code, "")
        assert path.read_bytes() == out.encode()

    def test_non_finite_route_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "edet_theorem", lambda pair: float("nan"))
        code, out = run_cli(capsys, "verify", "--seeds", "1")
        assert code == 1
        assert "FAIL edet-closed-vs-theorem" in out


class TestMc:
    def test_mc_record(self, capsys):
        code, out = run_cli(
            capsys, "mc", "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--seed", "3", "--trials", "4000",
        )
        record = json.loads(out)
        q = record["quantities"]
        assert q["n_samples"] == 4000
        assert q["edet_mc_ci95"][0] <= q["edet_mc_mean"] <= q["edet_mc_ci95"][1]


    @pytest.mark.parametrize("command", ["mc", "report"])
    def test_top_seed_runs(self, capsys, command):
        code, out = run_cli(
            capsys, command, "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--trials", "10", "--seed", str(2**64 - 1),
        )
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1


class TestDensity:
    def test_verdict_record(self, tmp_path, capsys):
        f = random_unit_tensor(2, 2, 3)
        fp, gp = tmp_path / "f.json", tmp_path / "g.json"
        save_tensor(f, fp)
        save_tensor(f.scale(3.0), gp)
        code, out = run_cli(capsys, "density", str(fp), str(gp))
        record = json.loads(out)
        assert record["quantities"]["verdict"] == "NoDensity_Proportional"

    def test_out_of_scope_reports_undecided(self, capsys):
        code, out = run_cli(
            capsys, "density", "--random", "--dim", "2", "--n", "2", "--m", "3"
        )
        record = json.loads(out)
        assert record["quantities"]["verdict"] == "Undecided"
        assert record["warnings"]

    def test_non_finite_coefficient_is_an_error(self, tmp_path, capsys):
        obj = tensor_to_dict(random_unit_tensor(2, 2, 2))
        obj["entries"][0]["coeff"] = float("nan")
        fp, gp = tmp_path / "f.json", tmp_path / "g.json"
        fp.write_text(json.dumps(obj))
        save_tensor(random_unit_tensor(3, 2, 2), gp)
        code = main(["density", str(fp), str(gp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert captured.out == ""

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "verdict.json"
        code, _ = run_cli(
            capsys, "density", "--random", "--dim", "2", "--n", "2", "--m", "2",
            "--out", str(out_path),
        )
        assert json.loads(out_path.read_text())["quantities"]["verdict"] == "HasDensity"


@pytest.fixture
def pair_files(tmp_path):
    """A proportional pair (f, -f/2) and a non-proportional one (h, f)."""
    f = random_unit_tensor(3, 3, 2)
    paths = {}
    for name, t in [("f", f), ("g", f.scale(-0.5)), ("h", random_unit_tensor(4, 3, 2))]:
        paths[name] = str(tmp_path / f"{name}.json")
        save_tensor(t, paths[name])
    return paths


NEGATIVE_SEED = "--seed must be >= 0, got -1"
HUGE_SEED = "--seed must be < 2**64, got 18446744073709551616"
BAD_INPUTS = {
    "report-no-pair": (["report"], "two tensor files"),
    "mc-no-pair": (["mc", "--trials", "10"], "two tensor files"),
    "density-no-pair": (["density"], "two tensor files"),
    "report-negative-trials": (["report", "--random", "--trials", "-5"], "trials"),
    "report-tol-negative": (["report", "{f}", "{g}", "--tol", "-1"], "tol"),
    "report-tol-nan": (["report", "{f}", "{g}", "--tol", "nan"], "tol"),
    "report-tol-inf": (["report", "{h}", "{f}", "--tol", "inf"], "tol"),
    "report-tol-nan-past-guard": (["report", "--random", "--dim", "6", "--tol", "nan"], "tol"),
    "density-tol-negative": (["density", "{f}", "{g}", "--tol", "-1"], "tol"),
    "density-tol-nan": (["density", "{f}", "{g}", "--tol", "nan"], "tol"),
    "density-tol-inf": (["density", "{h}", "{f}", "--tol", "inf"], "tol"),
    "density-tol-nan-mixed-orders": (
        ["density", "--random", "--n", "2", "--m", "3", "--tol", "nan"], "tol"
    ),
    "report-workers-0-no-trials": (["report", "--random", "--workers", "0"], "workers"),
    "report-chunk-size-0-no-trials": (["report", "--random", "--chunk-size", "0"], "chunk_size"),
    # a negative seed is rejected before the subcommand runs, also where it goes unused
    "gen-negative-seed": (
        ["gen", "--dim", "2", "--order", "2", "--seed", "-1", "--out", "{f}"], NEGATIVE_SEED
    ),
    "report-negative-seed": (["report", "{f}", "{g}", "--seed", "-1"], NEGATIVE_SEED),
    "mc-negative-seed": (["mc", "--random", "--trials", "10", "--seed", "-1"], NEGATIVE_SEED),
    "density-negative-seed": (["density", "--random", "--seed", "-1"], NEGATIVE_SEED),
    "verify-negative-seed": (["verify", "--seeds", "1", "--seed", "-1"], NEGATIVE_SEED),
    # Philox keys hold the seed in one uint64
    "gen-huge-seed": (
        ["gen", "--dim", "2", "--order", "2", "--seed", str(2**64), "--out", "{f}"], HUGE_SEED
    ),
    "report-huge-seed": (["report", "--random", "--trials", "10", "--seed", str(2**64)], HUGE_SEED),
    "mc-huge-seed": (["mc", "--random", "--trials", "10", "--seed", str(2**64)], HUGE_SEED),
    "density-huge-seed": (["density", "--random", "--seed", str(2**64)], HUGE_SEED),
    "verify-huge-seed": (["verify", "--seeds", "1", "--seed", str(2**64)], HUGE_SEED),
}


@pytest.mark.parametrize("argv, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(argv, message, pair_files, capsys):
    # exit 1 is kept for a failed verify check; bad input never yields a record
    code = main([a.format(**pair_files) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""
