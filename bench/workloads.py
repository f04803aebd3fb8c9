"""The three workloads: timed passes over the program, then oracle checks.

Each workload is a closed loop with one client in one process: a pass runs
its operations one after another, and passes repeat until the run's time is
used.  References come from ``oracle`` and are computed after the timed
passes, so neither their time nor their memory enters the measurement.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# README's accuracy claim for eigenvalues and nodal points
LAMBDA_TOL = 1e-10
NODE_TOL = 1e-10
# A returned eigenvalue this close to the reference of another label is a mislabel.
MISLABEL_TOL = 1e-6
# l1_error integrates a piecewise-linear copy of V; allow for that model error.
L1_RTOL, L1_ATOL = 1e-3, 1e-6
ADMISSIBILITY_CONSTANT = 10.0
IDENTITY_RATIO_TOL = 0.15
CLI_TIMEOUT_S = 150
# The host's speed drifts by up to 2x over tens of seconds, far past any
# regression bound.  A fixed kernel shaped like the solver's inner loop (a
# Python loop over steps of numpy products on vectors as wide as the
# workload's lambda batch) slows down with it, so every timed operation and
# set-up process is bracketed by two runs of the kernel and its time is
# scaled by the kernel's reference duration over their mean duration.
# (width, steps, median duration on the 2-vCPU host the benchmark was defined on)
NARROW_KERNEL = (13, 2048, 0.0095)
# as wide as spectrum_batch's scan tables: 13 lambdas for each of 38 indices
WIDE_KERNEL = (13 * 38, 1024, 0.0090)


@dataclass
class Op:
    """One timed operation and the checked outcome of each item it returns.

    An item is one eigenvalue (``spectrum_batch``), one (problem, index)
    solve, or one CLI command; ``failures`` has one entry per item, None
    when the item passed every check.
    """

    latency_s: float
    indices: int
    failures: list = field(default_factory=list)
    lam_errs: list = field(default_factory=list)
    node_errs: list = field(default_factory=list)

    @property
    def passed(self):
        return all(f is None for f in self.failures)


@dataclass
class Outcome:
    pass_s: list
    ops: list
    peak_rss_mb: float
    counts: list = field(default_factory=list)

    @property
    def passes(self):
        return len(self.pass_s)


class SpeedProbe:
    """Durations of the reference kernel over one run, and the scaling they give."""

    def __init__(self, kernel=NARROW_KERNEL):
        width, steps, self.ref_s = kernel
        theta = np.random.default_rng(0).uniform(0.0, 0.1, (steps, width))
        self.cos, self.sin = np.cos(theta), np.sin(theta)
        self.samples = []

    def sample(self):
        """Run the kernel once (a rotation per step, so nothing overflows);
        returns its duration."""
        start = time.perf_counter()
        y1, y2 = np.ones(self.cos.shape[1]), np.zeros(self.cos.shape[1])
        for c, s in zip(self.cos, self.sin):
            y1, y2 = c * y1 - s * y2, s * y1 + c * y2
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def scaled(self, seconds, before):
        """`seconds`, measured just after a sample that took `before`, in
        reference-host seconds; samples the kernel once more."""
        return seconds * self.ref_s / (0.5 * (before + self.sample()))

    def factor(self):
        """The kernel's reference duration over its median duration in the run."""
        return self.ref_s / statistics.median(self.samples)


class Context:
    """Program modules, inputs, a scratch directory and the speed probe of one run."""

    def __init__(self, package, inputs, workdir, root, speed=None):
        self.dn = package
        self.inputs = inputs
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.cfgs = {k: package.config.parse_config(d) for k, d in inputs["problems"].items()}
        self.refs = {k: oracle.ref_problem(d) for k, d in inputs["problems"].items()}
        self.speed = speed or SpeedProbe()

    def cli(self, *argv):
        """Run one CLI command; returns (seconds, CompletedProcess)."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dirac_nodal.cli", *map(str, argv)],
                              env=cli_env(self.root), cwd=self.workdir, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start, proc


def cli_env(root):
    """Environment of a program process: the package from `root`/src, default logging."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    env.pop("DIRAC_NODAL_LOG", None)
    return env


def run_passes(one_pass, seconds, min_passes=2):
    """Repeat passes while the next one is expected to end within `seconds`."""
    outs, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(one_pass())
        times.append(time.perf_counter() - t0)
        if len(times) >= min_passes and (time.perf_counter() - start
                                         + statistics.mean(times)) > seconds:
            return outs, times


def pass_seconds(outs):
    """Time of one pass: the sum over its operations of each one's median
    latency over the run's passes, so that one pass slowed by the host
    does not move the estimate."""
    return sum(statistics.median(out[i][1][0] for out in outs) for i in range(len(outs[0])))


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def strip_latency(out):
    return [(label, res) for label, (_, res) in out]


# ---------------------------------------------------------------- checks


def ref_window(indices, pad=5):
    """Labels to solve by reference: the requested ones and a margin on both
    sides, so a returned value can be matched to the label it belongs to."""
    return range(max(1, min(indices) - pad), max(indices) + pad + 1)


def check_lambda(n, lam, ref_eigs):
    """(failure, error) of one returned eigenvalue against the references."""
    err = abs(lam - ref_eigs[n])
    if err <= LAMBDA_TOL:
        return None, err
    if any(abs(lam - v) <= MISLABEL_TOL for k, v in ref_eigs.items() if k != n):
        return "mislabel", err
    return "accuracy", err


def check_nodes(points, ref_points):
    """(failure, error) of one nodal set against the reference nodes."""
    points = np.asarray(points, dtype=float)
    if points.size != ref_points.size:
        return "node_count", math.inf
    err = float(np.max(np.abs(points - ref_points))) if points.size else 0.0
    return (None if err <= NODE_TOL else "accuracy"), err


def check_close(value, ref, rtol=L1_RTOL, atol=L1_ATOL):
    return abs(value - ref) <= atol + rtol * abs(ref)


# -------------------------------------------------------- spectrum_batch


class SpectrumBatch:
    """One find_eigenvalues call over the whole window for each problem."""

    SPEED_KERNEL = WIDE_KERNEL

    def __init__(self, ctx):
        self.ctx = ctx
        lo, hi = ctx.inputs["window"]
        self.window = list(range(lo, hi + 1))

    def one_pass(self):
        dn, out = self.ctx.dn, []
        for label, cfg in self.ctx.cfgs.items():
            before = self.ctx.speed.sample()
            start = time.perf_counter()
            try:
                recs = dn.solver.find_eigenvalues(cfg.problem, self.window,
                                                  cfg.solver.integrator(), cfg.solver.search())
                res = [(r.index, r.lam) for r in recs]
            except dn.DiracNodalError as exc:
                res = type(exc).__name__
            seconds = self.ctx.speed.scaled(time.perf_counter() - start, before)
            out.append((label, (seconds, res)))
        return out

    trace_unit = one_pass

    def probe_solved(self, out):
        """Single-lambda probes at the solved eigenvalues of one pass."""
        dn = self.ctx.dn
        for label, (_, res) in out:
            if isinstance(res, str):
                continue
            cfg = self.ctx.cfgs[label]
            for _, lam in res:
                dn.solver.characteristic(cfg.problem, lam, cfg.solver.integrator())
            dn.solver.integrate(cfg.problem, res[-1][1], cfg.solver.integrator())

    def check(self, outs):
        dn, ctx = self.ctx.dn, self.ctx
        ref_eigs = {k: oracle.eigenvalues(r, ref_window(self.window))
                    for k, r in ctx.refs.items()}
        ops = []
        for out in outs:
            for label, (latency, res) in out:
                op = Op(latency, len(self.window))
                if isinstance(res, str):
                    op.failures = [res] * len(self.window)
                else:
                    for n, lam in res:
                        failure, err = check_lambda(n, lam, ref_eigs[label])
                        op.failures.append(failure)
                        if failure is None:
                            op.lam_errs.append(err)
                ops.append(op)
        # Nodes at the batch's top eigenvalue, extracted after the timed passes.
        for label, (_, res) in outs[-1]:
            if isinstance(res, str):
                continue
            cfg, ref = ctx.cfgs[label], ctx.refs[label]
            n, lam = res[-1]
            rec = dn.EigenRecord(n, lam, 0.0, (lam, lam))
            op = Op(0.0, 0)
            for comp in (1, 2):
                try:
                    nodal = dn.solver.extract_nodes(cfg.problem, rec, comp, cfg.solver.integrator())
                except dn.DiracNodalError as exc:
                    op.failures.append(type(exc).__name__)
                    continue
                failure, err = check_nodes(nodal.points,
                                           oracle.nodes(ref, ref_eigs[label][n], comp))
                op.failures.append(failure)
                if failure is None:
                    op.node_errs.append(err)
            ops.append(op)
        return ops


# -------------------------------------------------------- nodes_by_index


class NodesByIndex:
    """Per-index loop: eigenvalue, both nodal sets, reconstruction, L1 error."""

    SPEED_KERNEL = NARROW_KERNEL

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops = [tuple(op) for op in ctx.inputs["ops"]]

    def one_pass(self):
        dn, out = self.ctx.dn, []
        for label, n in self.ops:
            cfg = self.ctx.cfgs[label]
            integ = cfg.solver.integrator()
            before = self.ctx.speed.sample()
            start = time.perf_counter()
            try:
                rec = dn.solver.find_eigenvalue(cfg.problem, n, integ, cfg.solver.search())
                sets = [dn.solver.extract_nodes(cfg.problem, rec, c, integ) for c in (1, 2)]
                step = dn.reconstruction.reconstruct_step(sets[0], cfg.problem, cfg.mode,
                                                          lam=rec.lam)
                l1 = dn.reconstruction.l1_error(step, cfg.problem.potential)
                res = {"lam": rec.lam, "nodes": [s.points.tolist() for s in sets], "l1": l1}
            except dn.DiracNodalError as exc:
                res = type(exc).__name__
            seconds = self.ctx.speed.scaled(time.perf_counter() - start, before)
            out.append(((label, n), (seconds, res)))
        return out

    trace_unit = one_pass

    def probe_solved(self, out):
        dn = self.ctx.dn
        for (label, _), (_, res) in out:
            if isinstance(res, str):
                continue
            cfg = self.ctx.cfgs[label]
            dn.solver.characteristic(cfg.problem, res["lam"], cfg.solver.integrator())
            dn.solver.integrate(cfg.problem, res["lam"], cfg.solver.integrator())

    def check(self, outs):
        ctx = self.ctx
        ref_eigs, ref_nodes = {}, {}
        for label in ctx.refs:
            wanted = [n for lab, n in self.ops if lab == label]
            if wanted:
                ref_eigs[label] = oracle.eigenvalues(ctx.refs[label], ref_window(wanted))
        for label, n in self.ops:
            ref_nodes[label, n] = [oracle.nodes(ctx.refs[label], ref_eigs[label][n], c)
                                   for c in (1, 2)]
        ops = []
        for out in outs:
            for (label, n), (latency, res) in out:
                op = Op(latency, 1)
                ops.append(op)
                if isinstance(res, str):
                    op.failures = [res]
                    continue
                failure, err = check_lambda(n, res["lam"], ref_eigs[label])
                errs = []
                for pts, ref in zip(res["nodes"], ref_nodes[label, n]):
                    if failure is None:
                        failure, e = check_nodes(pts, ref)
                        errs.append(e)
                if failure is None:
                    ref_l1 = oracle.step_l1_error(ctx.refs[label], ref_nodes[label, n][0],
                                                  ref_eigs[label][n], 0.0)
                    if not check_close(res["l1"], ref_l1):
                        failure = "l1_mismatch"
                op.failures = [failure]
                if failure is None:
                    op.lam_errs.append(err)
                    op.node_errs.extend(errs)
        return ops


# --------------------------------------------------------- stability_cli


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


class StabilityCli:
    """The CLI as a user runs it: one interpreter per command."""

    COMMANDS = ("stability", "quasinodal_check", "reconstruct")
    SPEED_KERNEL = NARROW_KERNEL

    def __init__(self, ctx):
        self.ctx = ctx
        self.lo, self.hi = ctx.inputs["window"]
        self.n_rec = ctx.inputs["reconstruct_n"]
        for label, doc in ctx.inputs["problems"].items():
            (ctx.workdir / f"{label}.json").write_text(json.dumps(doc), encoding="utf-8")

    def indices(self, command):
        width = self.hi - self.lo + 1
        return {"stability": 2 * width, "quasinodal_check": width, "reconstruct": 1}[command]

    def _argv(self, command):
        window = ("--n-min", self.lo, "--n-max", self.hi)
        if command == "stability":
            return ("stability", "--problem-a", "a.json", "--problem-b", "b.json", *window,
                    "--out", "stab.csv")
        if command == "quasinodal_check":
            return ("quasinodal-check", "--problem", "a.json", *window, "--out", "quasi.json")
        return ("reconstruct", "--problem", "a.json", "--n", self.n_rec, "--out", "rec.csv")

    def _read(self, command):
        wd = self.ctx.workdir
        if command == "stability":
            return json.loads((wd / "stab.json").read_text(encoding="utf-8"))
        if command == "quasinodal_check":
            return json.loads((wd / "quasi.json").read_text(encoding="utf-8"))
        _, rows = _read_csv(wd / "rec.csv")
        report = json.loads((wd / "rec.json").read_text(encoding="utf-8"))
        report["nodes"] = [float(r[1]) for r in rows[:-1]]
        return report

    def one_pass(self):
        out = []
        for command in self.COMMANDS:
            before = self.ctx.speed.sample()
            seconds, proc = self.ctx.cli(*self._argv(command))
            seconds = self.ctx.speed.scaled(seconds, before)
            if proc.returncode == 0:
                res = self._read(command)
            else:
                try:
                    res = json.loads(proc.stderr.strip().splitlines()[-1])["type"]
                except (ValueError, KeyError, IndexError):
                    res = f"exit_{proc.returncode}"
            out.append((command, (seconds, res)))
        return out

    def library_repeat(self):
        """The CLI's library calls, in process; returns the solved (cfg, lambda)."""
        dn, ctx = self.ctx.dn, self.ctx
        cfg_a, cfg_b = (dn.config.parse_config(ctx.inputs["problems"][k]) for k in ("a", "b"))
        pa, integ, search = cfg_a.problem, cfg_a.solver.integrator(), cfg_a.solver.search()
        window = range(self.lo, self.hi + 1)
        dn.stability.stability_identity_report(pa.potential, cfg_b.problem.potential,
                                               pa.boundary, pa.mass, window, integ, search)
        recs = dn.solver.find_eigenvalues(pa, list(window), integ, search)
        sets = [dn.solver.extract_nodes(pa, r, 1, integ) for r in recs]
        seq = dn.GridSequence.from_nodal_sets(sets, pa.case)
        dn.stability.quasinodal_check(seq, pa.potential, pa.mass, pa.boundary)
        rec = dn.solver.find_eigenvalue(pa, self.n_rec, integ, search)
        nodal = dn.solver.extract_nodes(pa, rec, 1, integ)
        step = dn.reconstruction.reconstruct_step(nodal, pa, cfg_a.mode, lam=rec.lam)
        dn.reconstruction.l1_error(step, pa.potential)
        return [(cfg_a, r.lam) for r in recs + [rec]]

    def trace_unit(self):
        out = self.one_pass()
        self.solved = self.library_repeat()
        return out

    def probe_solved(self, out):
        dn = self.ctx.dn
        for cfg, lam in self.solved:
            dn.solver.characteristic(cfg.problem, lam, cfg.solver.integrator())
        cfg, lam = self.solved[-1]
        dn.solver.integrate(cfg.problem, lam, cfg.solver.integrator())

    def references(self):
        ctx = self.ctx
        window = list(range(self.lo, self.hi + 1))
        ra, rb = ctx.refs["a"], ctx.refs["b"]
        eig_a = oracle.eigenvalues(ra, ref_window(window + [self.n_rec]))
        eig_b = oracle.eigenvalues(rb, window)
        rows_a = {n: oracle.nodes(ra, eig_a[n], 1) for n in sorted(set(window + [self.n_rec]))}
        rows_b = {n: oracle.nodes(rb, eig_b[n], 1) for n in window}
        case, m = ra.case, ra.mass
        d0 = oracle.d0(case, m, {n: rows_a[n] for n in window}, rows_b)
        x = np.linspace(0.0, math.pi, 200001)
        diff = np.abs(ra.vfunc(x) - rb.vfunc(x) - (ra.total_integral - rb.total_integral) / math.pi)
        norm = float(np.sum(0.5 * (diff[:-1] + diff[1:]) * np.diff(x)))
        ratio = oracle.s_n(case, self.hi, m, rows_a[self.hi], rows_b[self.hi]) / math.pi / norm
        verdict = "identity_supported" if abs(ratio - 1.0) <= IDENTITY_RATIO_TOL else "inconclusive"
        shift = ra.v / math.pi
        deviations = {n: n * float(np.max(np.abs(rows_a[n] - np.arange(1, rows_a[n].size + 1)
                                                   * math.pi / n))) for n in window}
        l1_seed = {n: oracle.step_l1_error(ra, rows_a[n], float(n), shift) for n in window}
        l1_rec = oracle.step_l1_error(ra, rows_a[self.n_rec], eig_a[self.n_rec], 0.0)
        return {"eig_a": eig_a, "rows_a": rows_a, "d0": d0, "verdict": verdict,
                "deviations": deviations, "l1_seed": l1_seed, "l1_rec": l1_rec}

    def check(self, outs):
        ref = self.references()
        # node errors of up to NODE_TOL in each problem move every length by
        # up to 4 * NODE_TOL; s_n weighs at most hi + 1 lengths by ~pi * hi
        d0_tol = 4 * NODE_TOL * math.pi * (self.hi + 1) * (self.hi + 1)
        ops = []
        for out in outs:
            for command, (latency, res) in out:
                op = Op(latency, self.indices(command))
                ops.append(op)
                if isinstance(res, str):
                    op.failures = [res]
                    continue
                failure = None
                if command == "stability":
                    if (abs(res["d0_estimate"] - ref["d0"]) > d0_tol
                            or res["verdict"] != ref["verdict"]):
                        failure = "cli_mismatch"
                elif command == "quasinodal_check":
                    rows = {r["n"]: r for r in res["rows"]}
                    flagged = sorted(n for n, d in ref["deviations"].items()
                                     if d > ADMISSIBILITY_CONSTANT)
                    if (sorted(rows) != sorted(ref["deviations"])
                            or any(abs(rows[n]["deviation_sup"] - d) > 2 * n * NODE_TOL
                                   for n, d in ref["deviations"].items())
                            or res["flagged_rows"] != flagged
                            or any(not check_close(res["l1_errors"][str(n)], v)
                                   for n, v in ref["l1_seed"].items())):
                        failure = "cli_mismatch"
                else:
                    failure, err = check_lambda(self.n_rec, res["lambda"], ref["eig_a"])
                    if failure is None:
                        op.lam_errs.append(err)
                        failure, err = check_nodes(res["nodes"], ref["rows_a"][self.n_rec])
                    if failure is None:
                        op.node_errs.append(err)
                        if not check_close(res["l1_error"], ref["l1_rec"]):
                            failure = "cli_mismatch"
                    if failure is not None:
                        op.lam_errs, op.node_errs = [], []
                op.failures = [failure]
        return ops


WORKLOADS = {"spectrum_batch": SpectrumBatch, "nodes_by_index": NodesByIndex,
             "stability_cli": StabilityCli}
