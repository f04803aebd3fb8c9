"""Command-line harness: batch experiments over the eigenvalue index.

Subcommands: ``spectrum``, ``nodes``, ``reconstruct``, ``stability``,
``validate-asymptotics``, ``quasinodal-check``.  Outputs are CSV for tables
and JSON for summaries, named, checked and written by ``_outputs``; every file
carries the same provenance, the tool version and the configuration hash.
Runs are deterministic: meshes chosen by fixed rules, no randomness, stable
float formatting.

Failures print a machine-readable JSON object on stderr; invalid input exits
with status 2, numerical failures with status 3.
"""

from __future__ import annotations

import functools
import gc
import json
import logging
import math
import os
import sys
from pathlib import Path

import click

from . import __version__, asymptotics, reconstruction, solver, stability
from .config import LoadedConfig, load_config, read_json
from .errors import (CaseMismatch, ComputationError, ConfigError,
                     DiracNodalError, InputError, IterationFailure)
from .model import GridSequence
from .reconstruction import ReconstructionMode, l1_error, reconstruct_step

logger = logging.getLogger("dirac_nodal.cli")

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


def _outputs(out_path, inputs, configs, table=True, summary=True):
    """The writer of a command's files, checked before the command solves.

    The CSV table goes to ``--out`` and its JSON summary to ``--out`` with the
    suffix ``.json``; a command without a table writes the summary alone at
    ``--out``.  An ``--out`` that names no file in an existing directory, a
    file that would replace a directory, its own table (a summary) or one of
    ``inputs`` (paths, None for an option not given), is an InputError,
    raised before anything is written.  Every file carries one
    provenance, the tool version and the 12-character hash of each of
    ``configs`` (label -> LoadedConfig): the CSV as its comment line, the JSON
    as its ``provenance`` key.  Returns write(header, rows, report)."""
    out = Path(out_path)
    if not out.name or not out.parent.is_dir():
        raise InputError(f"--out {out_path}: not a file name in an existing directory")
    json_path = out.with_suffix(".json") if table else out
    if table and summary and json_path == out:
        raise InputError(f"--out {out}: its JSON summary would replace the table; "
                         f"give --out a suffix other than .json")
    for path in [path for path, kept in ((out, table), (json_path, summary)) if kept]:
        if path.is_dir():
            raise InputError(f"--out {out_path}: {path} is a directory")
        for source in filter(None, inputs):
            # samefile needs both files; a missing --grid-file fails when read
            if path.exists() and os.path.exists(source) and os.path.samefile(path, source):
                raise InputError(f"--out {out}: writing {path} would replace the "
                                 f"input {source}")
    provenance = " ".join([f"dirac-nodal {__version__}"]
                          + [f"{label}={cfg.hash[:12]}" for label, cfg in configs.items()])

    def write(header=None, rows=(), report=None):
        if table:
            lines = [f"# {provenance}", ",".join(header), *(",".join(row) for row in rows)]
            out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if summary:
            json_path.write_text(json.dumps(dict(report, provenance=provenance),
                                            sort_keys=True, indent=2) + "\n",
                                 encoding="utf-8")
    return write


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
    write = _outputs(out_path, [problem_path], {"config": cfg}, summary=False)
    records = _spectrum_records(cfg, window)
    write(["n", "lambda", "residual", "steps", "error_estimate"],
          [[str(r.index), _fmt(r.lam), _fmt(r.residual), str(r.steps),
            _fmt(r.error_estimate)] for r in records])


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n", "index", type=int, required=True)
@click.option("--component", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def nodes(problem_path, index, component, out_path):
    """Nodal points of one eigenfunction component; CSV columns j, x, length."""
    cfg = load_config(problem_path)
    write = _outputs(out_path, [problem_path], {"config": cfg}, summary=False)
    rec = solver.find_eigenvalue(cfg.problem, index, cfg.solver.integrator(),
                                 cfg.solver.search())
    (nodal,) = _nodal_sets(cfg, [rec], component)
    lengths = nodal.lengths
    rows = []
    for j, x in enumerate(nodal.points, start=1):
        length = _fmt(lengths[j - 1]) if j - 1 < lengths.size else ""
        rows.append([str(j), _fmt(x), length])
    write(["j", "x", "length"], rows)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n", "index", type=int, required=True)
@click.option("--mode", "mode_tag",
              type=click.Choice(reconstruction.MODE_TAGS), default=None,
              help="Override the mode from the configuration.")
@click.option("--lambda-source", type=click.Choice(reconstruction.LAMBDA_SOURCES),
              default=None, help="Override the configuration's lambda source.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def reconstruct(problem_path, index, mode_tag, lambda_source, out_path):
    """Step-function reconstruction at one index; CSV plus a JSON report."""
    cfg = load_config(problem_path)
    mode = ReconstructionMode(
        tag=mode_tag or cfg.mode.tag,
        lambda_source=lambda_source or cfg.mode.lambda_source)
    write = _outputs(out_path, [problem_path], {"config": cfg})
    rec = solver.find_eigenvalue(cfg.problem, index, cfg.solver.integrator(),
                                 cfg.solver.search())
    (nodal,) = _nodal_sets(cfg, [rec], 1)
    step = reconstruct_step(nodal, cfg.problem, mode, lam=rec.lam)
    adjust = mode.adjusts_mean
    shift = asymptotics.mean_shift(cfg.problem) / math.pi if adjust else 0.0
    err = l1_error(step, cfg.problem.potential, shift)
    rows = [[_fmt(a), _fmt(b), _fmt(v)] for a, b, v in
            zip(step.breakpoints[:-1], step.breakpoints[1:], step.values)]
    write(["x_left", "x_right", "value"], rows, {
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
    if cfg_a.solver != cfg_b.solver:
        raise InputError("stability comparison requires identical solver settings")
    write = _outputs(out_path, [path_a, path_b], {"config_a": cfg_a, "config_b": cfg_b})
    report = stability.stability_identity_report(
        cfg_a.problem.potential, cfg_b.problem.potential,
        cfg_a.problem.boundary, cfg_a.problem.mass,
        window,
        integrator=cfg_a.solver.integrator(),
        search=cfg_a.solver.search())
    columns = (report.s_values, report.ratios_corrected, report.ratios_paper_exact)
    rows = [[str(n)] + ["" if col[n] is None else _fmt(col[n]) for col in columns]
            for n in report.indices]
    write(["n", "S_n", "ratio_corrected", "ratio_paper_exact"], rows, {
        "d0_estimate": report.d0,
        "d_sigma": report.d_sigma,
        "norm_corrected": report.norm_corrected,
        "norm_paper_exact": report.norm_paper_exact,
        "identity_trend_ok": report.identity_trend_ok,
        "verdict": report.verdict,
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
    write = _outputs(out_path, [problem_path], {"config": cfg})
    records = _spectrum_records(cfg, window)
    nodal_sets = _nodal_sets(cfg, records, 1)
    problem = cfg.problem
    alpha = problem.boundary.alpha
    table = []   # (n, lambda error, largest node error, largest length error)
    for rec, nodal in zip(records, nodal_sets):
        n = rec.index
        # (j, x, expansion) of each node whose expansion converges; a length's
        # expansion is the difference of its nodes' (as in nodal_length_asym)
        nodes = []
        for x in nodal.points:
            j = int(round((rec.lam * x - problem.potential.integral_0_to(x) + alpha)
                          / math.pi))
            try:
                nodes.append((j, x, asymptotics.nodal_point_asym(problem, n, j, 1,
                                                                 order=2)))
            except IterationFailure as exc:
                logger.warning("node expansion left out at n=%d, j=%d: %s", n, j, exc)
        node_errors = [abs(x - x_asym) for _, x, x_asym in nodes]
        length_errors = [abs((x_hi - x_lo) - (asym_hi - asym_lo))
                         for (j, x_lo, asym_lo), (j_hi, x_hi, asym_hi)
                         in zip(nodes, nodes[1:]) if j_hi == j + 1]
        table.append((n, abs(rec.lam - asymptotics.lambda_asym(problem, n, order=2)),
                      max(node_errors, default=math.nan),
                      max(length_errors, default=math.nan)))
    write(["n", "err_lambda", "err_node_max", "err_length_max"],
          [[str(row[0])] + [_fmt(e) for e in row[1:]] for row in table], {
        f"slope_{name}": stability.loglog_slope([(row[0], row[k]) for row in table])
        for k, name in enumerate(("lambda", "node", "length"), start=1)})


@main.command(name="quasinodal-check")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--grid-file", type=click.Path(), default=None,
              help="JSON grid sequence to check; defaults to solver data.")
@click.option("--admissibility-constant", type=float,
              default=stability.ADMISSIBILITY_CONSTANT, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def quasinodal_check_cmd(problem_path, n_min, n_max, grid_file,
                         admissibility_constant, out_path):
    """Quasinodal admissibility report for a grid sequence."""
    window = _window(n_min, n_max)
    cfg = load_config(problem_path)
    write = _outputs(out_path, [problem_path, grid_file], {"config": cfg}, table=False)
    if grid_file is not None:
        seq = GridSequence.from_json(read_json(grid_file))
        if seq.case != cfg.problem.case:
            raise CaseMismatch(
                f"grid sequence is case {seq.case} but the problem is case "
                f"{cfg.problem.case}")
        indices = [n for n in seq.indices() if n in window]
        seq = GridSequence(seq.case, {n: seq.row(n) for n in indices})
    else:
        seq = stability.nodal_grid_sequence(cfg.problem, window,
                                            cfg.solver.integrator(),
                                            cfg.solver.search())
    report = stability.quasinodal_check(
        seq, cfg.problem.potential, cfg.problem.mass, cfg.problem.boundary,
        admissibility_constant=admissibility_constant)
    write(report={
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


def run():
    """The console entry point: ``main`` with the import-time heap frozen,
    so that the collections of a short-lived process do not traverse it."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
