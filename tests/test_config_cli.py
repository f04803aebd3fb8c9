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
from dirac_nodal import (Classical, ConfigError, InputError, __version__,
                         asymptotics, solver, stability)
from dirac_nodal.cli import main, read_csv_table
from dirac_nodal.config import config_hash, load_config, parse_config
from dirac_nodal.reconstruction import LAMBDA_SOURCES, MODE_TAGS, ReconstructionMode
from dirac_nodal.solver import EigenSearchConfig, IntegratorConfig

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


# sin2x against poly [0.2, -0.3, 0.1], both with m = 0.5 and Classical(0.3, 0.7)
SIN_SHIFTED = {
    "mass": 0.5,
    "potential": {"kind": "named", "name": "sin2x", "params": {}},
    "boundary": {"kind": "classical", "alpha": 0.3, "beta": 0.7},
}
POLY_SHIFTED = dict(SIN_SHIFTED, potential={
    "kind": "named", "name": "poly", "params": {"coeffs": [0.2, -0.3, 0.1]}})

# the benchmark's case-I problem: sin2x, m = 0.5, sign terms +1 and -1
PD_EXAMPLE = {
    "mass": 0.5,
    "potential": {"kind": "named", "name": "sin2x", "params": {}},
    "boundary": {"kind": "param_dependent", "alpha": 0.4, "beta": 0.5,
                 "a0": math.sin(0.4), "b0": -math.cos(0.4),
                 "a1": -math.sin(0.5), "b1": math.cos(0.5)},
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
    def test_poly_config_does_not_import_numpy_polynomial(self):
        # a CLI process that parses a poly potential would otherwise pay for
        # importing numpy.polynomial at every start
        code = (
            "import sys\n"
            "from dirac_nodal import (extract_nodes, find_eigenvalue, l1_error,\n"
            "                         reconstruct_step)\n"
            "from dirac_nodal.config import parse_config\n"
            f"cfg = parse_config({POLY_SHIFTED!r})\n"
            "p, integ = cfg.problem, cfg.solver.integrator()\n"
            "rec = find_eigenvalue(p, 12, integ, cfg.solver.search())\n"
            "step = reconstruct_step(extract_nodes(p, rec, 1, integ), p, lam=rec.lam)\n"
            "assert l1_error(step, p.potential) < 1.0\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
        res = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr

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

    def test_removed_max_iterations_rejected(self):
        doc = dict(ZERO_QUARTER, solver={"steps": 512, "max_iterations": 48})
        with pytest.raises(ConfigError, match="max_iterations"):
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

    def test_defaults_are_the_owners(self):
        cfg = parse_config(SIN_HALF)
        assert cfg.mode == ReconstructionMode()
        assert cfg.solver.integrator() == IntegratorConfig(1024)
        assert cfg.solver.search() == EigenSearchConfig()

    def test_cli_choices_and_defaults_are_the_owners(self):
        params = {(cmd, p.name): p for cmd in ("reconstruct", "quasinodal-check")
                  for p in main.commands[cmd].params}
        assert tuple(params["reconstruct", "mode_tag"].type.choices) == MODE_TAGS
        assert tuple(params["reconstruct", "lambda_source"].type.choices) \
            == LAMBDA_SOURCES
        assert params["quasinodal-check", "admissibility_constant"].default \
            == stability.ADMISSIBILITY_CONSTANT
        # only integer seeds are compared against V - v/pi ("adjust_mean")
        assert [ReconstructionMode(lambda_source=s).adjusts_mean
                for s in LAMBDA_SOURCES] == [s == "integer_seed" for s in LAMBDA_SOURCES]

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
            # V = 0 propagates exactly, so each index stops on the mesh it
            # starts on: the coarsest (512 / 16), or for n = 8, where one of
            # its steps may turn the angle by more than pi / 4, the next
            assert int(row[3]) == (32 if n < 8 else 64) and float(row[4]) <= 1e-10

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
        doc = dict(ZERO_QUARTER, solver={"steps": 512})
        cfg = write_config(tmp_path, doc)
        monkeypatch.delenv("DIRAC_NODAL_LOG", raising=False)
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", 16)
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

    def test_mismatched_solver_settings_rejected(self, tmp_path):
        # problem B's solver section would otherwise be ignored
        a = write_config(tmp_path, SIN_HALF, "a.json")
        other = dict(SIN_HALF, solver={"steps": 64, "lambda_tol": 0.5})
        b = write_config(tmp_path, other, "b.json")
        res = run_cli("stability", "--problem-a", str(a), "--problem-b", str(b),
                      "--n-min", "8", "--n-max", "12",
                      "--out", str(tmp_path / "s.csv"))
        assert res.returncode == 2, res.stderr
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["error"] == "input" and "solver" in payload["message"], payload

    @pytest.mark.parametrize("doc_b, n_max, verdict", [
        (POLY_SHIFTED, 30, "identity_supported"),
        # |ratio - 1| grows from n = 12 to 13: no downward trend
        (POLY_SHIFTED, 13, "inconclusive"),
        (SIN_SHIFTED, 16, "degenerate"),
    ], ids=["supported", "inconclusive", "degenerate"])
    def test_verdict_is_the_reports(self, tmp_path, doc_b, n_max, verdict):
        a = write_config(tmp_path, SIN_SHIFTED, "a.json")
        b = write_config(tmp_path, doc_b, "b.json")
        out = tmp_path / "stab.csv"
        res = run_cli("stability", "--problem-a", str(a), "--problem-b", str(b),
                      "--n-min", "12", "--n-max", str(n_max), "--out", str(out))
        assert res.returncode == 0, res.stderr
        cfg_a, cfg_b = load_config(a), load_config(b)
        report = stability.stability_identity_report(
            cfg_a.problem.potential, cfg_b.problem.potential, cfg_a.problem.boundary,
            cfg_a.problem.mass, range(12, n_max + 1), cfg_a.solver.integrator(),
            cfg_a.solver.search())
        summary = json.loads((tmp_path / "stab.json").read_text())
        assert report.verdict == summary["verdict"] == verdict

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

    def test_case_one_massless_window_from_2(self, tmp_path):
        # case I, m = 0: the weight of s_n at n = 2 is 0/0, so that row is
        # left blank instead of failing the command
        a, b = -0.4, 0.5
        boundary = {"kind": "param_dependent", "alpha": a, "beta": b,
                    "a0": math.sin(a), "b0": -math.cos(a),
                    "a1": -math.sin(b), "b1": math.cos(b)}
        doc = {"mass": 0.0, "boundary": boundary,
               "potential": {"kind": "named", "name": "sin2x", "params": {}}}
        pa = write_config(tmp_path, doc, "a.json")
        pb = write_config(tmp_path, dict(doc, potential={
            "kind": "named", "name": "poly", "params": {"coeffs": [1.0, -2.0, 0.5]}}),
            "b.json")
        out = tmp_path / "stab.csv"
        res = run_cli("stability", "--problem-a", str(pa), "--problem-b", str(pb),
                      "--n-min", "2", "--n-max", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, _, rows = read_csv_table(out)
        assert [row[0] for row in rows] == ["2", "3", "4", "5"]
        assert rows[0][1] == "" and all(row[1] for row in rows[1:])


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


    def test_length_errors_match_the_library_expansion(self, tmp_path):
        # the command differences its node expansions; the maximum must be
        # the one nodal_length_asym gives for the same nodes
        cfg_path = write_config(tmp_path, SIN_SHIFTED)
        out = tmp_path / "orders.csv"
        res = run_cli("validate-asymptotics", "--problem", str(cfg_path),
                      "--n-min", "3", "--n-max", "12", "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, _, rows = read_csv_table(out)
        cfg = load_config(cfg_path)
        problem, integrator = cfg.problem, cfg.solver.integrator()
        records = solver.find_eigenvalues(problem, range(3, 13), integrator,
                                          cfg.solver.search())
        nodal_sets = solver.extract_nodal_sets(problem, records, (1,), integrator)
        n, rec, nodal = 12, records[-1], nodal_sets[-1]
        js = [round((rec.lam * x - problem.potential.integral_0_to(x)
                     + problem.boundary.alpha) / PI) for x in nodal.points]
        expected = max(
            abs((nodal.points[k + 1] - nodal.points[k])
                - asymptotics.nodal_length_asym(problem, n, js[k], 1, order=2))
            for k in range(nodal.count - 1) if js[k + 1] == js[k] + 1)
        assert rows[-1][0] == str(n) and float(rows[-1][3]) == expected

    def test_case_one_from_index_3(self, tmp_path):
        # at n = 3 the expansion of the node with j = 0 does not converge:
        # the node is left out of its row, with a warning naming n and j
        cfg = write_config(tmp_path, PD_EXAMPLE)
        out = tmp_path / "orders.csv"
        res = run_cli("validate-asymptotics", "--problem", str(cfg),
                      "--n-min", "3", "--n-max", "10", "--out", str(out),
                      env={"DIRAC_NODAL_LOG": "info"})
        assert res.returncode == 0, res.stderr
        _, _, rows = read_csv_table(out)
        assert [row[0] for row in rows] == [str(n) for n in range(3, 11)]
        assert all(math.isfinite(float(row[2])) for row in rows)
        assert "n=3, j=0" in res.stderr


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


class TestOutputFiles:
    """The files a command writes: named from --out, refused before the solve
    when one would replace an input or the command's own table, and stamped
    with one provenance."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, SIN_HALF, "cfg.json")
        write_config(tmp_path, dict(SIN_HALF, potential=named("zero")), "b.json")
        (tmp_path / "grid.json").write_text(json.dumps(
            {"case": "II", "rows": {"4": [k * PI / 4 for k in range(1, 4)]}}))
        (tmp_path / "alias.json").symlink_to(tmp_path / "cfg.json")
        return tmp_path

    @pytest.mark.parametrize("args, path", [
        ("reconstruct --problem cfg.json --n 6 --out cfg.csv", "cfg.json"),
        ("quasinodal-check --problem cfg.json --n-min 3 --n-max 5 --out cfg.json",
         "cfg.json"),
        ("reconstruct --problem cfg.json --n 6 --out r.json", "r.json"),
        ("spectrum --problem cfg.json --n-min 3 --n-max 5 --out cfg.json", "cfg.json"),
        ("nodes --problem cfg.json --n 6 --out cfg.json", "cfg.json"),
        ("validate-asymptotics --problem cfg.json --n-min 3 --n-max 8 --out cfg.csv",
         "cfg.json"),
        ("stability --problem-a cfg.json --problem-b b.json --n-min 3 --n-max 5 "
         "--out b.csv", "b.json"),
        ("quasinodal-check --problem cfg.json --n-min 3 --n-max 5 "
         "--grid-file grid.json --out grid.json", "grid.json"),
        ("reconstruct --problem cfg.json --n 6 --out alias.csv", "alias.json"),
    ], ids=["summary-on-problem", "quasinodal-on-problem", "summary-on-table",
            "spectrum-on-problem", "nodes-on-problem", "validate-on-problem",
            "summary-on-problem-b", "quasinodal-on-grid", "summary-on-symlink"])
    def test_refused_before_anything_is_written(self, workdir, args, path):
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        res = CliRunner().invoke(main, args.split())
        assert res.exit_code == 2, res.output
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["error"] == "input", payload
        assert payload["message"].startswith("--out ") and path in payload["message"]
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    @pytest.mark.parametrize("args", [
        "reconstruct --problem cfg.json --n 6 --out out.csv",
        "stability --problem-a cfg.json --problem-b b.json --n-min 5 --n-max 7 "
        "--out out.csv",
        "validate-asymptotics --problem cfg.json --n-min 5 --n-max 7 --out out.csv",
        "quasinodal-check --problem cfg.json --n-min 5 --n-max 7 --out out.json",
    ], ids=lambda args: args.split()[0])
    def test_json_carries_the_csv_provenance(self, workdir, args):
        res = CliRunner().invoke(main, args.split())
        assert res.exit_code == 0, res.output
        provenance = json.loads((workdir / "out.json").read_text())["provenance"]
        if (workdir / "out.csv").exists():
            line = read_csv_table(workdir / "out.csv")[0][0]
        else:
            line = f"# dirac-nodal {__version__} config={load_config('cfg.json').hash[:12]}"
        assert provenance == line[2:] and provenance.startswith("dirac-nodal ")


def named(name, **params):
    return {"kind": "named", "name": name, "params": params}


class TestMalformedInput:
    """A malformed or out-of-range value in a problem document, or a grid
    file that cannot be read as JSON, exits 2 with the field or file in its
    message."""

    @pytest.mark.parametrize("key, value, field", [
        ("solver", {"lambda_tol": "abc"}, "solver.lambda_tol"),
        ("solver", {"lambda_tol": None}, "solver.lambda_tol"),
        ("solver", {"lambda_tol": [1]}, "solver.lambda_tol"),
        ("solver", {"lambda_tol": True}, "solver.lambda_tol"),
        ("solver", {"lambda_tol": math.nan}, "solver.lambda_tol"),
        ("potential", named("constant", c="abc"), "potential.params.c"),
        ("potential", named("constant", c=True), "potential.params.c"),
        ("potential", named("constant", c=math.inf), "potential.params.c"),
        ("potential", named("step", a=None, height=1.0), "potential.params.a"),
        ("potential", named("poly", coeffs=["x"]), "potential.params.coeffs.0"),
        ("potential", named("poly", coeffs=3), "potential.params.coeffs"),
        ("potential", {"kind": "named", "name": "constant", "params": []},
         "potential.params"),
        ("potential", {"kind": "sampled", "values": ["x", 1, 2]}, "potential.values.0"),
        ("solver", {"lambda_tol": -1e-10}, "solver.lambda_tol"),
        ("solver", {"lambda_tol": 0}, "solver.lambda_tol"),
        ("solver", {"steps": 32}, "solver.steps"),
        ("solver", {"steps": 1000.5}, "solver.steps"),
        ("solver", {"steps": "1024"}, "solver.steps"),
        ("mass", -1, "mass"),
        ("modes", {"reconstruction": "bogus"}, "modes.reconstruction"),
        ("modes", {"lambda_source": "bogus"}, "modes.lambda_source"),
        ("--grid-file", None, None),
        ("--grid-file", b"{oops", None),
        ("--grid-file", b"\xff\xfe", None),
    ], ids=["lambda_tol-text", "lambda_tol-null", "lambda_tol-list", "lambda_tol-bool",
            "lambda_tol-nan", "c-text", "c-bool", "c-inf", "step-null", "coeffs-text",
            "coeffs-scalar", "params-list", "values-text", "lambda_tol-negative",
            "lambda_tol-zero", "steps-32", "steps-fractional", "steps-text",
            "mass-negative-classical",
            "reconstruction-bogus", "lambda_source-bogus", "grid-missing",
            "grid-not-json", "grid-not-utf8"])
    def test_exits_2_naming_the_field(self, tmp_path, key, value, field):
        doc = dict(SIN_HALF)
        args = ["spectrum", "--n-min", "3", "--n-max", "4"]
        if key == "--grid-file":
            grid = tmp_path / "grid.json"
            if value is not None:
                grid.write_bytes(value)
            args = ["quasinodal-check", "--n-min", "8", "--n-max", "9",
                    "--grid-file", str(grid)]
            field = str(grid)
        else:
            doc[key] = value
        cfg = write_config(tmp_path, doc)
        res = CliRunner().invoke(main, args + ["--problem", str(cfg),
                                               "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        # the message opens with the field, or names the file before its reason
        assert payload["error"] == "input", payload
        assert f"{field}:" in payload["message"], payload


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

    def test_warnings_name_the_cli_logger(self, tmp_path):
        # run as python -m, the module's __name__ is "__main__"; the CLI's
        # records carry the package logger name all the same
        cfg = write_config(tmp_path, PD_EXAMPLE)
        res = run_cli("validate-asymptotics", "--problem", str(cfg),
                      "--n-min", "3", "--n-max", "4",
                      "--out", str(tmp_path / "orders.csv"),
                      env={"DIRAC_NODAL_LOG": "info"})
        assert res.returncode == 0, res.stderr
        assert ("WARNING dirac_nodal.cli: node expansion left out at n=3, j=0"
                in res.stderr), res.stderr
        assert "__main__" not in res.stderr, res.stderr
