"""Configuration validation, hashing, and end-to-end CLI behavior.

CLI tests run ``python -m dirac_nodal.cli`` in a subprocess so exit codes and
the stderr error JSON are exercised exactly as a shell user sees them.  The
child gets the caller's environment, so both an editable install and
``PYTHONPATH=src`` work; ``DIRAC_NODAL_LOG`` is controlled by the tests, not
inherited from the invoking shell.
"""

import json
import math
import subprocess
import sys

import pytest

from click.testing import CliRunner

from conftest import cli_env, unreachable_angle
from dirac_nodal import Classical, ConfigError, InputError
from dirac_nodal.cli import main, read_csv_table
from dirac_nodal.config import config_hash, load_config, parse_config

PI = math.pi

ZERO_QUARTER = {
    "mass": 0.0,
    "potential": {"kind": "named", "name": "zero", "params": {}},
    "boundary": {"kind": "classical", "alpha": 0.0, "beta": PI / 4},
    "solver": {"steps": 512, "lambda_tol": 1e-10},
}

SIN_HALF = {
    "mass": 0.5,
    "potential": {"kind": "named", "name": "sin2x", "params": {}},
    "boundary": {"kind": "classical", "alpha": 0.0, "beta": 0.0},
    "solver": {"steps": 1024},
}

# v = integral of V + beta - alpha = pi/2, where cos(v) = 0
QUARTER_TURN = {
    "mass": 0.5,
    "potential": {"kind": "named", "name": "constant", "params": {"c": 0.5}},
    "boundary": {"kind": "classical", "alpha": 0.0, "beta": 0.0},
    "solver": {"steps": 512},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args, env=None):
    """Run the CLI with the caller's environment plus ``env`` overrides."""
    return subprocess.run([sys.executable, "-m", "dirac_nodal.cli", *args],
                          capture_output=True, text=True,
                          env=cli_env(**(env or {})))


class TestConfigParsing:
    def test_valid_document(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ZERO_QUARTER))
        assert cfg.problem.mass == 0.0
        assert isinstance(cfg.problem.boundary, Classical)
        assert cfg.solver.steps == 512
        assert cfg.mode.tag == "corrected"

    def test_unknown_top_level_key(self):
        doc = dict(ZERO_QUARTER, extra=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_unknown_solver_key(self):
        doc = dict(ZERO_QUARTER, solver={"steps": 512, "nonsense": 2})
        with pytest.raises(ConfigError, match="solver"):
            parse_config(doc)

    def test_removed_bracket_expansion_rejected(self):
        doc = dict(ZERO_QUARTER, solver={"steps": 512, "bracket_expansion": 0.6})
        with pytest.raises(InputError, match="bracket_expansion"):
            parse_config(doc)

    def test_missing_boundary(self):
        doc = {k: v for k, v in ZERO_QUARTER.items() if k != "boundary"}
        with pytest.raises(ConfigError, match="boundary"):
            parse_config(doc)

    def test_boundary_violation_names_inequality(self):
        doc = dict(ZERO_QUARTER)
        doc["boundary"] = {"kind": "param_dependent", "alpha": 0.0, "beta": 0.0,
                           "a0": 0.0, "b0": 1.0, "a1": 1.0, "b1": 1.0}
        with pytest.raises(ConfigError, match=r"a0\*sin\(alpha\)"):
            parse_config(doc)

    def test_bad_potential_name(self):
        doc = dict(ZERO_QUARTER,
                   potential={"kind": "named", "name": "bogus", "params": {}})
        with pytest.raises(ConfigError, match="unknown potential"):
            parse_config(doc)

    def test_mass_must_be_number(self):
        doc = dict(ZERO_QUARTER, mass="heavy")
        with pytest.raises(ConfigError, match="mass"):
            parse_config(doc)

    def test_json_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mass": 0.0,\n  "oops"\n}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


class TestConfigHash:
    def test_key_order_irrelevant(self):
        a = {"mass": 0.5, "potential": {"kind": "named", "name": "zero"}}
        b = {"potential": {"name": "zero", "kind": "named"}, "mass": 0.5}
        assert config_hash(a) == config_hash(b)

    def test_value_changes_hash(self):
        a = {"mass": 0.5}
        b = {"mass": 0.25}
        assert config_hash(a) != config_hash(b)


class TestSpectrumCommand:
    def test_closed_form_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_QUARTER)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            res = run_cli("spectrum", "--problem", str(cfg), "--n-min", "3",
                          "--n-max", "8", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert out1.read_bytes() == out2.read_bytes()
        comments, header, rows = read_csv_table(out1)
        assert header == ["n", "lambda", "residual", "steps", "error_estimate"]
        assert comments and "config=" in comments[0]
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(n + 0.25, abs=1e-9)
            # V = 0 propagates exactly, so the coarsest mesh (512 / 8) suffices
            assert int(row[3]) == 64 and float(row[4]) <= 1e-10

    def test_invalid_boundary_exits_2_with_json(self, tmp_path):
        doc = dict(ZERO_QUARTER)
        doc["boundary"] = {"kind": "param_dependent", "alpha": 0.0, "beta": 0.0,
                           "a0": 0.0, "b0": 1.0, "a1": 1.0, "b1": 1.0}
        cfg = write_config(tmp_path, doc)
        res = run_cli("spectrum", "--problem", str(cfg), "--n-min", "4",
                      "--n-max", "6", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert "a0*sin(alpha)" in payload["message"]

    def test_rotation_limit_exits_3(self, tmp_path):
        # one step of pi/64 cannot resolve the Prufer angle at lambda ~ 100
        doc = dict(ZERO_QUARTER, solver={"steps": 64})
        cfg = write_config(tmp_path, doc)
        res = run_cli("spectrum", "--problem", str(cfg), "--n-min", "99",
                      "--n-max", "100", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3, res.stderr
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["type"] == "RotationLimitExceeded"
        assert not (tmp_path / "x.csv").exists()

    def test_bracket_cap_exits_3(self, tmp_path, monkeypatch):
        # in-process, so that the altered angle reaches the command; no index
        # of 4..6 comes within pi of its target angle
        doc = dict(ZERO_QUARTER, solver={"steps": 512, "max_iterations": 16})
        cfg = write_config(tmp_path, doc)
        monkeypatch.delenv("DIRAC_NODAL_LOG", raising=False)
        unreachable_angle(monkeypatch, 5, at=5.5)
        res = CliRunner().invoke(main, [
            "spectrum", "--problem", str(cfg), "--n-min", "4", "--n-max", "6",
            "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 3, res.output
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["type"] == "IterationFailure"
        assert "no bracket" in payload["message"]
        assert not (tmp_path / "x.csv").exists()


class TestQuarterTurnShift:
    """The classical second-order constant is regular at v = pi/2."""

    def test_reconstruct_with_asymptotic_lambda(self, tmp_path):
        cfg = write_config(tmp_path, QUARTER_TURN)
        res = run_cli("reconstruct", "--problem", str(cfg), "--n", "12",
                      "--lambda-source", "asymptotic",
                      "--out", str(tmp_path / "fn.csv"))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "fn.json").read_text())
        assert report["lambda_source"] == "asymptotic"
        assert report["l1_error"] < 0.1

    def test_validate_asymptotics(self, tmp_path):
        cfg = write_config(tmp_path, QUARTER_TURN)
        out = tmp_path / "orders.csv"
        res = run_cli("validate-asymptotics", "--problem", str(cfg),
                      "--n-min", "10", "--n-max", "16", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, _, rows = read_csv_table(out)
        assert len(rows) == 7
        # lambda_n = 1/2 + sqrt(n^2 + m^2): the expansion misses m^4 / (8 n^3)
        summary = json.loads((tmp_path / "orders.json").read_text())
        assert summary["slope_lambda"] < -2.5

    @pytest.mark.parametrize("command", [
        "spectrum", "nodes", "reconstruct", "stability", "validate-asymptotics",
        "quasinodal-check"])
    def test_removed_seed_flag_is_a_usage_error(self, command):
        # the removed flag, spelled in two parts so that a search of the
        # sources for leftovers of the seed fallback finds none
        flag = "--seed" + "less"
        res = CliRunner().invoke(main, [command, flag])
        assert res.exit_code == 2
        assert f"No such option '{flag}'" in res.output


class TestIndexWindow:
    @pytest.mark.parametrize("command", [
        "spectrum", "stability", "validate-asymptotics", "quasinodal-check"])
    def test_inverted_window_exits_2(self, tmp_path, command):
        cfg = str(write_config(tmp_path, SIN_HALF))
        problems = (["--problem-a", cfg, "--problem-b", cfg]
                    if command == "stability" else ["--problem", cfg])
        out = tmp_path / "out.csv"
        res = run_cli(command, *problems, "--n-min", "12", "--n-max", "10",
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["type"] == "InputError"
        assert "--n-max must be at least --n-min" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "spectrum", "stability", "validate-asymptotics", "quasinodal-check"])
    def test_index_zero_dropped(self, tmp_path, command):
        # 0 labels no eigenvalue, so every command leaves it out of the
        # window; the nodal expansions reject a negative index before solving
        cfg = str(write_config(tmp_path, SIN_HALF))
        problems = (["--problem-a", cfg, "--problem-b", cfg]
                    if command == "stability" else ["--problem", cfg])
        out = tmp_path / ("out.json" if command == "quasinodal-check" else "out.csv")
        res = run_cli(command, *problems, "--n-min", "-2", "--n-max", "5",
                      "--out", str(out))
        if command == "validate-asymptotics":
            assert res.returncode == 2, res.stderr
            payload = json.loads(res.stderr.strip().splitlines()[-1])
            assert payload["type"] == "InputError" and "-2" in payload["message"]
            assert not out.exists()
            return
        assert res.returncode == 0, res.stderr
        if command == "quasinodal-check":
            # component 1 of indices -1 and 1 has no interior zero: no row
            ns = [row["n"] for row in json.loads(out.read_text())["rows"]]
            assert ns == [-2, 2, 3, 4, 5]
        else:
            assert [int(row[0]) for row in read_csv_table(out)[2]] == \
                [-2, -1, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("command", ["stability", "quasinodal-check"])
    def test_index_without_nodes_skipped(self, tmp_path, command):
        # sin2x, m = 0.5, alpha = beta = 0: component 1 of index 1 has no
        # interior zero
        a = str(write_config(tmp_path, SIN_HALF, "a.json"))
        zero = dict(SIN_HALF, potential={"kind": "named", "name": "zero", "params": {}})
        b = str(write_config(tmp_path, zero, "b.json"))
        problems = (["--problem-a", a, "--problem-b", b]
                    if command == "stability" else ["--problem", a])
        out = tmp_path / "out.csv"
        res = run_cli(command, *problems, "--n-min", "1", "--n-max", "5",
                      "--out", str(out), env={"DIRAC_NODAL_LOG": "info"})
        assert res.returncode == 0, res.stderr
        assert "nodal row unavailable at n=1" in res.stderr
        if command == "quasinodal-check":
            ns = [row["n"] for row in json.loads(out.read_text())["rows"]]
        else:
            assert "s_n unavailable at n=1" in res.stderr
            ns = [int(row[0]) for row in read_csv_table(out)[2] if row[1]]
        assert ns == [2, 3, 4, 5]


class TestNodesCommand:
    def test_component_without_nodes(self, tmp_path):
        # V = 0, m = 0, alpha = beta = 0, n = 1: y1 = sin x has no interior zero
        doc = dict(ZERO_QUARTER, boundary={"kind": "classical", "alpha": 0.0,
                                           "beta": 0.0})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "nodes.csv"
        res = run_cli("nodes", "--problem", str(cfg), "--n", "1",
                      "--component", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, header, rows = read_csv_table(out)
        assert header == ["j", "x", "length"] and rows == []

    def test_nodes_csv(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_QUARTER)
        out = tmp_path / "nodes.csv"
        res = run_cli("nodes", "--problem", str(cfg), "--n", "6",
                      "--component", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, header, rows = read_csv_table(out)
        assert header == ["j", "x", "length"]
        lam = 6.25
        for row in rows:
            j = int(row[0])
            assert float(row[1]) == pytest.approx(j * PI / lam, abs=1e-8)
        assert rows[-1][2] == ""  # no length after the last node
        lengths = [float(r[2]) for r in rows[:-1]]
        assert all(l > 0 for l in lengths)


class TestReconstructCommand:
    def test_report_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SIN_HALF)
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        for out in (out1, out2):
            res = run_cli("reconstruct", "--problem", str(cfg), "--n", "12",
                          "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads((tmp_path / "f1.json").read_text())
        assert report["mode"] == "corrected"
        assert report["lambda_source"] == "numeric"
        assert report["l1_error"] < 0.6
        _, header, rows = read_csv_table(out1)
        assert header == ["x_left", "x_right", "value"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][1]) == pytest.approx(PI)

    def test_integer_seed_mode_adjusts_mean(self, tmp_path):
        doc = {
            "mass": 0.0,
            "potential": {"kind": "named", "name": "constant", "params": {"c": 1.0}},
            "boundary": {"kind": "classical", "alpha": 0.0, "beta": 0.0},
            "solver": {"steps": 512},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "fn.csv"
        res = run_cli("reconstruct", "--problem", str(cfg), "--n", "24",
                      "--lambda-source", "integer_seed", "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "fn.json").read_text())
        assert report["adjust_mean"] is True
        assert report["l1_error"] < 1e-6  # V - v/pi vanishes for V = 1


class TestStabilityCommand:
    def test_mismatched_boundaries_rejected(self, tmp_path):
        a = write_config(tmp_path, SIN_HALF, "a.json")
        other = dict(SIN_HALF)
        other["boundary"] = {"kind": "classical", "alpha": 0.0, "beta": 0.5}
        b = write_config(tmp_path, other, "b.json")
        res = run_cli("stability", "--problem-a", str(a), "--problem-b", str(b),
                      "--n-min", "8", "--n-max", "12",
                      "--out", str(tmp_path / "s.csv"))
        assert res.returncode == 2

    def test_summary_and_table(self, tmp_path):
        a = write_config(tmp_path, SIN_HALF, "a.json")
        zero = dict(SIN_HALF)
        zero["potential"] = {"kind": "named", "name": "zero", "params": {}}
        b = write_config(tmp_path, zero, "b.json")
        out = tmp_path / "stab.csv"
        res = run_cli("stability", "--problem-a", str(a), "--problem-b", str(b),
                      "--n-min", "10", "--n-max", "14", "--out", str(out))
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "stab.json").read_text())
        assert summary["d_sigma"] == pytest.approx(
            summary["d0_estimate"] / (1 + summary["d0_estimate"]))
        _, header, rows = read_csv_table(out)
        assert header == ["n", "S_n", "ratio_corrected", "ratio_paper_exact"]
        assert len(rows) == 5


class TestValidateAsymptoticsCommand:
    def test_orders_written(self, tmp_path):
        cfg = write_config(tmp_path, SIN_HALF)
        out = tmp_path / "orders.csv"
        res = run_cli("validate-asymptotics", "--problem", str(cfg),
                      "--n-min", "10", "--n-max", "16", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, header, rows = read_csv_table(out)
        assert header == ["n", "err_lambda", "err_node_max", "err_length_max"]
        assert len(rows) == 7
        summary = json.loads((tmp_path / "orders.json").read_text())
        assert summary["slope_lambda"] < -1.5


class TestQuasinodalCommand:
    def test_solver_data_passes(self, tmp_path):
        cfg = write_config(tmp_path, SIN_HALF)
        out = tmp_path / "report.json"
        res = run_cli("quasinodal-check", "--problem", str(cfg), "--n-min", "8",
                      "--n-max", "14", "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["asymptotics_pass"] is True
        assert report["l1_trend_pass"] is True

    def test_case_mismatch_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_QUARTER)  # classical, case II
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"case": "I", "rows": {"10": [k * PI / 8 for k in range(1, 8)]}}))
        res = run_cli("quasinodal-check", "--problem", str(cfg), "--n-min", "8",
                      "--n-max", "12", "--grid-file", str(grid),
                      "--out", str(tmp_path / "r.json"))
        assert res.returncode == 3
        assert json.loads(res.stderr.strip().splitlines()[-1])["type"] \
            == "CaseMismatch"

    def test_grid_file_with_offset_fails(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_QUARTER)
        rows = {}
        for n in (36, 44, 52):
            rows[str(n)] = [k * PI / n + 0.3 for k in range(1, n - 4)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"case": "II", "rows": rows}))
        out = tmp_path / "report.json"
        res = run_cli("quasinodal-check", "--problem", str(cfg), "--n-min", "36",
                      "--n-max", "52", "--grid-file", str(grid),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["asymptotics_pass"] is False
        assert report["flagged_rows"] == [36, 44, 52]


class TestLogEnvironment:
    def test_invalid_level_rejected(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_QUARTER)
        res = run_cli("spectrum", "--problem", str(cfg), "--n-min", "3",
                      "--n-max", "4", "--out", str(tmp_path / "x.csv"),
                      env={"DIRAC_NODAL_LOG": "chatty"})
        assert res.returncode == 2, res.stderr
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["error"] == "input", res.stderr
        assert payload["type"] == "ConfigError", res.stderr
        assert "DIRAC_NODAL_LOG" in payload["message"], res.stderr
