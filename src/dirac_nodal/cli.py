"""Command-line harness: batch experiments over the eigenvalue index.

Subcommands: ``spectrum``, ``nodes``, ``reconstruct``, ``stability``,
``validate-asymptotics``, ``quasinodal-check``.  Outputs are CSV for tables
and JSON for summaries; every CSV carries a provenance comment with the tool
version and the configuration hash.  Runs are deterministic: meshes chosen
by fixed rules, no randomness, stable float formatting.

Failures print a machine-readable JSON object on stderr; invalid input exits
with status 2, numerical failures with status 3.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, asymptotics, solver, stability
from .config import LoadedConfig, load_config
from .errors import (CaseMismatch, ComputationError, ConfigError,
                     DiracNodalError, InputError)
from .model import GridSequence
from .reconstruction import ReconstructionMode, l1_error, reconstruct_step

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _setup_logging():
    level_name = os.environ.get("DIRAC_NODAL_LOG", "error").lower()
    if level_name not in _LOG_LEVELS:
        raise ConfigError(f"DIRAC_NODAL_LOG must be one of {sorted(_LOG_LEVELS)}, "
                          f"got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(exc: Exception):
    if isinstance(exc, InputError):
        kind, code = "input", 2
    elif isinstance(exc, ComputationError):
        kind, code = type(exc).__name__, 3
    else:
        kind, code = "internal", 4
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    sys.exit(code)


def _guard(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            _setup_logging()
            return func(*args, **kwargs)
        except DiracNodalError as exc:
            _fail(exc)
    return wrapper


def _write_csv(path, provenance, header, rows):
    lines = [f"# dirac-nodal {__version__} {provenance}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_table(path):
    """Re-parse a CSV emitted by this tool: (comments, header, rows)."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise InputError(f"{path} contains no header row")
    return comments, header, rows


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def _spectrum_records(cfg: LoadedConfig, indices):
    return solver.find_eigenvalues(cfg.problem, indices, cfg.solver.integrator(),
                                   cfg.solver.search())


def _nodal_sets(cfg: LoadedConfig, records, component):
    return solver.extract_nodal_sets(cfg.problem, records, (component,),
                                     cfg.solver.integrator())


def _window(n_min, n_max):
    """The indices n_min..n_max except 0, which labels no eigenvalue; an empty
    window is an input error."""
    if n_max < n_min:
        raise InputError("--n-max must be at least --n-min")
    window = [n for n in range(n_min, n_max + 1) if n != 0]
    if not window:
        raise InputError("the window holds no index but 0, which labels no "
                         "eigenvalue")
    return window


@click.group()
@click.version_option(version=__version__, prog_name="dirac-nodal")
def main():
    """Forward and inverse nodal analysis for the one-dimensional Dirac system."""


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def spectrum(problem_path, n_min, n_max, out_path):
    """Eigenvalues over an index range; CSV columns n, lambda, residual,
    steps, error_estimate."""
    window = _window(n_min, n_max)
    cfg = load_config(problem_path)
    records = _spectrum_records(cfg, window)
    rows = [[str(r.index), _fmt(r.lam), _fmt(r.residual), str(r.steps),
             _fmt(r.error_estimate)] for r in records]
    _write_csv(out_path, f"config={cfg.hash[:12]}",
               ["n", "lambda", "residual", "steps", "error_estimate"], rows)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n", "index", type=int, required=True)
@click.option("--component", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def nodes(problem_path, index, component, out_path):
    """Nodal points of one eigenfunction component; CSV columns j, x, length."""
    cfg = load_config(problem_path)
    rec = solver.find_eigenvalue(cfg.problem, index, cfg.solver.integrator(),
                                 cfg.solver.search())
    (nodal,) = _nodal_sets(cfg, [rec], component)
    lengths = nodal.lengths
    rows = []
    for j, x in enumerate(nodal.points, start=1):
        length = _fmt(lengths[j - 1]) if j - 1 < lengths.size else ""
        rows.append([str(j), _fmt(x), length])
    _write_csv(out_path, f"config={cfg.hash[:12]}", ["j", "x", "length"], rows)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n", "index", type=int, required=True)
@click.option("--mode", "mode_tag",
              type=click.Choice(["corrected", "paper_exact"]), default=None,
              help="Override the mode from the configuration.")
@click.option("--lambda-source",
              type=click.Choice(["integer_seed", "numeric", "asymptotic"]),
              default=None, help="Override the configuration's lambda source.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def reconstruct(problem_path, index, mode_tag, lambda_source, out_path):
    """Step-function reconstruction at one index; CSV plus a JSON report."""
    cfg = load_config(problem_path)
    mode = ReconstructionMode(
        tag=mode_tag or cfg.mode.tag,
        lambda_source=lambda_source or cfg.mode.lambda_source)
    rec = solver.find_eigenvalue(cfg.problem, index, cfg.solver.integrator(),
                                 cfg.solver.search())
    (nodal,) = _nodal_sets(cfg, [rec], 1)
    step = reconstruct_step(nodal, cfg.problem, mode, lam=rec.lam)
    adjust = mode.lambda_source == "integer_seed"
    boundary = cfg.problem.boundary
    err = l1_error(step, cfg.problem.potential, adjust_mean=adjust,
                   boundary_shift=boundary.beta - boundary.alpha)
    rows = [[_fmt(a), _fmt(b), _fmt(v)] for a, b, v in
            zip(step.breakpoints[:-1], step.breakpoints[1:], step.values)]
    _write_csv(out_path, f"config={cfg.hash[:12]}",
               ["x_left", "x_right", "value"], rows)
    _write_json(Path(out_path).with_suffix(".json"), {
        "n": index,
        "lambda": float(rec.lam),
        "mode": mode.tag,
        "lambda_source": mode.lambda_source,
        "adjust_mean": adjust,
        "l1_error": err,
    })


@main.command(name="stability")
@click.option("--problem-a", "path_a", required=True, type=click.Path())
@click.option("--problem-b", "path_b", required=True, type=click.Path())
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def stability_cmd(path_a, path_b, n_min, n_max, out_path):
    """Stability-identity table for two problems sharing mass and boundary."""
    window = _window(n_min, n_max)
    cfg_a = load_config(path_a)
    cfg_b = load_config(path_b)
    if cfg_a.problem.boundary != cfg_b.problem.boundary:
        raise InputError("stability comparison requires identical boundary forms")
    if cfg_a.problem.mass != cfg_b.problem.mass:
        raise InputError("stability comparison requires identical masses")
    report = stability.stability_identity_report(
        cfg_a.problem.potential, cfg_b.problem.potential,
        cfg_a.problem.boundary, cfg_a.problem.mass,
        window,
        integrator=cfg_a.solver.integrator(),
        search=cfg_a.solver.search())
    rows = []
    for n in report.indices:
        s = report.s_values[n]
        rc = report.ratios_corrected[n]
        rp = report.ratios_paper_exact[n]
        rows.append([str(n),
                     _fmt(s) if s is not None else "",
                     _fmt(rc) if rc is not None else "",
                     _fmt(rp) if rp is not None else ""])
    _write_csv(out_path, f"config_a={cfg_a.hash[:12]} config_b={cfg_b.hash[:12]}",
               ["n", "S_n", "ratio_corrected", "ratio_paper_exact"], rows)
    usable = [report.ratios_corrected[n] for n in report.indices
              if report.ratios_corrected[n] is not None]
    if report.degenerate:
        verdict = "degenerate"
    elif usable and abs(usable[-1] - 1.0) <= 0.15 and report.identity_trend_ok:
        verdict = "identity_supported"
    else:
        verdict = "inconclusive"
    _write_json(Path(out_path).with_suffix(".json"), {
        "d0_estimate": report.d0,
        "d_sigma": report.d_sigma,
        "norm_corrected": report.norm_corrected,
        "norm_paper_exact": report.norm_paper_exact,
        "identity_trend_ok": report.identity_trend_ok,
        "verdict": verdict,
    })


@main.command(name="validate-asymptotics")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def validate_asymptotics(problem_path, n_min, n_max, out_path):
    """Compare solver output with the closed-form expansions over a window of
    positive indices."""
    window = _window(n_min, n_max)
    if window[0] < 0:
        raise InputError(f"the nodal expansions need positive indices; got "
                         f"index {window[0]}")
    cfg = load_config(problem_path)
    records = _spectrum_records(cfg, window)
    nodal_sets = _nodal_sets(cfg, records, 1)
    problem = cfg.problem
    alpha = problem.boundary.alpha
    rows = []
    err_lam, err_node, err_len = {}, {}, {}
    for rec, nodal in zip(records, nodal_sets):
        n = rec.index
        err_lam[n] = abs(rec.lam - asymptotics.lambda_asym(problem, n, order=2))
        node_errors = []
        length_errors = []
        j_estimates = [
            int(round((rec.lam * x - problem.potential.integral_0_to(x) + alpha)
                      / math.pi))
            for x in nodal.points]
        for pos, (x, j_est) in enumerate(zip(nodal.points, j_estimates)):
            x_asym = asymptotics.nodal_point_asym(problem, n, j_est, 1, order=2)
            node_errors.append(abs(x - x_asym))
            if pos + 1 < nodal.count and j_estimates[pos + 1] == j_est + 1:
                l_asym = asymptotics.nodal_length_asym(problem, n, j_est, 1, order=2)
                length_errors.append(abs((nodal.points[pos + 1] - x) - l_asym))
        err_node[n] = max(node_errors) if node_errors else math.nan
        err_len[n] = max(length_errors) if length_errors else math.nan
        rows.append([str(n), _fmt(err_lam[n]), _fmt(err_node[n]), _fmt(err_len[n])])
    _write_csv(out_path, f"config={cfg.hash[:12]}",
               ["n", "err_lambda", "err_node_max", "err_length_max"], rows)

    def _slope(table):
        ns = [n for n in table if table[n] > 0 and math.isfinite(table[n])]
        if len(ns) < 2:
            return None
        return float(np.polyfit(np.log([float(n) for n in ns]),
                                np.log([table[n] for n in ns]), 1)[0])

    _write_json(Path(out_path).with_suffix(".json"), {
        "slope_lambda": _slope(err_lam),
        "slope_node": _slope(err_node),
        "slope_length": _slope(err_len),
    })


@main.command(name="quasinodal-check")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--grid-file", type=click.Path(), default=None,
              help="JSON grid sequence to check; defaults to solver data.")
@click.option("--admissibility-constant", type=float, default=10.0,
              show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def quasinodal_check_cmd(problem_path, n_min, n_max, grid_file,
                         admissibility_constant, out_path):
    """Quasinodal admissibility report for a grid sequence."""
    window = _window(n_min, n_max)
    cfg = load_config(problem_path)
    if grid_file is not None:
        with open(grid_file, "r", encoding="utf-8") as fh:
            seq = GridSequence.from_json(json.load(fh))
        if seq.case != cfg.problem.case:
            raise CaseMismatch(
                f"grid sequence is case {seq.case} but the problem is case "
                f"{cfg.problem.case}")
        indices = [n for n in seq.indices() if n in window]
        seq = GridSequence(seq.case, {n: seq.row(n) for n in indices})
    else:
        seq = stability.nodal_grid_sequence(cfg.problem, window, 1,
                                            cfg.solver.integrator(),
                                            cfg.solver.search())
    report = stability.quasinodal_check(
        seq, cfg.problem.potential, cfg.problem.mass, cfg.problem.boundary,
        admissibility_constant=admissibility_constant)
    _write_json(out_path, {
        "case": report.case,
        "admissibility_constant": report.admissibility_constant,
        "rows": [{"n": n, "deviation_sup": report.deviations[n],
                  "pass": report.row_pass[n]} for n in sorted(report.deviations)],
        "flagged_rows": report.flagged_rows,
        "asymptotics_pass": report.asymptotics_pass,
        "l1_errors": {str(n): report.l1_errors[n] for n in sorted(report.l1_errors)},
        "l1_slope": report.l1_slope,
        "l1_trend_pass": report.l1_trend_pass,
    })


if __name__ == "__main__":
    main()
