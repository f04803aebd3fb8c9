#!/usr/bin/env python3
"""Benchmark of dirac-nodal: three workloads, oracle-checked, with per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload spectrum_batch --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed; ``--trace 1`` runs the same passes with spans around every call
into the program's public functions and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary and the run's environment.  See bench/README.md.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
IMPORT_REPEATS = 3
PARSE_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
DIGITS_FLOOR = 1e-13
SETUP_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from dirac_nodal.config import parse_config; "
              "[parse_config(d) for d in json.load(open(sys.argv[2]))]")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
FAILURE_TYPES = ("AmbiguousBracket", "SeedFailure", "ConstantsUnavailable",
                 "IntegrationFailure", "DegenerateComponent")
CHECK_KINDS = {"mislabel": "checks.mislabels", "accuracy": "checks.accuracy_misses",
               "node_count": "checks.accuracy_misses", "l1_mismatch": "checks.output_mismatches",
               "cli_mismatch": "checks.output_mismatches"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a trustworthy result."""


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    src = ROOT / "src"
    if not (src / "dirac_nodal" / "__init__.py").is_file():
        raise ImportError(f"no program source at {src / 'dirac_nodal'}")
    sys.path.insert(0, str(src))
    import dirac_nodal
    import dirac_nodal.config  # noqa: F401  (not imported by the package itself)
    if Path(dirac_nodal.__file__).resolve().parent != (src / "dirac_nodal").resolve():
        raise ImportError(f"dirac_nodal was imported from {dirac_nodal.__file__}")
    return dirac_nodal


def process_seconds(argv, cwd):
    start = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=workloads.cli_env(ROOT), check=True, capture_output=True,
                   timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start


def median_process_seconds(argv, cwd, repeats, speed=None):
    """Median wall time of `repeats` fresh processes, after one unmeasured start
    that fills the bytecode cache; each scaled by `speed` when given."""
    process_seconds(argv, cwd)
    times = []
    for _ in range(repeats):
        if speed is None:
            times.append(process_seconds(argv, cwd))
        else:
            before = speed.sample()
            times.append(speed.scaled(process_seconds(argv, cwd), before))
    return statistics.median(times)


def setup_seconds(workload, inputs, workdir, speed):
    """Import plus configuration parsing in a fresh interpreter; for the CLI
    workload, a ``dirac-nodal --version`` process."""
    if workload == "stability_cli":
        argv = [sys.executable, "-m", "dirac_nodal.cli", "--version"]
    else:
        docs = workdir / "setup_docs.json"
        docs.write_text(json.dumps(list(inputs["problems"].values())), encoding="utf-8")
        argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(docs)]
    return median_process_seconds(argv, workdir, SETUP_REPEATS, speed)


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU.

    The CPUs of a shared host change speed independently of each other, and
    the speed kernel only corrects the timings it shares a CPU with.  The
    program runs one thread unless asked for more, which the benchmark never
    does.  Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args, dn, cpu):
    import numpy
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "program_version": dn.__version__,
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": platform.machine(),
            "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def _digits(errs):
    """Correct decimal digits of the worst error.  Errors below DIGITS_FLOOR,
    the resolution of the smooth-potential references, count as 13 digits."""
    return min(-math.log10(max(e, DIGITS_FLOOR)) for e in errs) if errs else 0.0


def end_to_end(outcome, setup_s, wall_s):
    """End-to-end metrics; the timed ones are in reference-host seconds."""
    timed = [op for op in outcome.ops if op.indices]
    # timed holds the passes one after another; one_op[i] is operation i in every pass
    per_pass = len(timed) // outcome.passes
    one_op = [timed[i::per_pass] for i in range(per_pass)]
    good = [ops for ops in one_op if all(op.passed for op in ops)] or one_op
    solved = sum(op.indices * op.failures.count(None) / len(op.failures) for op in timed)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "eigs_per_s": (solved / outcome.passes / wall_s, "1/s"),
        "index_s_p50": (statistics.median(statistics.median(op.latency_s / op.indices
                                                             for op in ops) for ops in good), "s"),
        "lambda_digits": (_digits([e for op in outcome.ops for e in op.lam_errs]), "digits"),
        "node_digits": (_digits([e for op in outcome.ops for e in op.node_errs]), "digits"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def per_layer(main, probe, outcome, import_s, overhead_s):
    metrics = {"cli.import_s": (import_s, "s")}
    layers = [layer for _, _, layer in spans.TRACED]
    layers += [f"cli.{c}_s" for c in workloads.StabilityCli.COMMANDS]
    for layer in layers:
        value = main.median(layer)
        if value is None:
            value = probe.median(layer)
        if value is None:
            raise BenchError(f"no span recorded for {layer}")
        metrics[layer] = (value, "s")
    counts = outcome.counts[0]
    metrics["potentials.calls"] = (counts["calls"], "count")
    metrics["potentials.points"] = (counts["points"], "count")
    metrics["solver.sweeps_per_eig"] = (counts["batch_calls"] / 2 / max(counts["eigs"], 1),
                                        "sweeps/eig")
    kinds = Counter(f for op in outcome.ops for f in op.failures if f is not None)
    for name in FAILURE_TYPES:
        metrics[f"solver.failures.{name}"] = (kinds[name] / outcome.passes, "count")
    other = sum(v for k, v in kinds.items() if k not in FAILURE_TYPES and k not in CHECK_KINDS)
    metrics["solver.failures.other"] = (other / outcome.passes, "count")
    for key in sorted(set(CHECK_KINDS.values())):
        total = sum(v for k, v in kinds.items() if CHECK_KINDS.get(k) == key)
        metrics[key] = (total / outcome.passes, "count")
    attempted, failed = tally(outcome)
    metrics["fail_rate"] = (failed / attempted, "fraction")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def tally(outcome):
    items = [f for op in outcome.ops for f in op.failures]
    return len(items), sum(f is not None for f in items)


def measure(args, dn, inputs, workdir, speed):
    """Run the timed passes, traced or not.

    Returns (pass outputs, pass seconds, peak RSS in MB or None, workload,
    trace data or None).  After its traced passes a traced run times one
    untraced unit, for the tracing overhead, and then probes, with a
    separate tracer, the layers its own passes never called.
    """
    ctx = workloads.Context(dn, inputs, workdir, ROOT, speed)
    wl = workloads.WORKLOADS[args.workload](ctx)
    cli = args.workload == "stability_cli"
    if not args.trace:
        outs, times = workloads.run_passes(wl.one_pass, args.seconds)
        rss = workloads.peak_rss_mb(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
        return outs, times, rss, wl, None

    main, counts = spans.Tracer(), []

    def traced_unit():
        out = wl.trace_unit()
        counts.append(main.take_counts())
        return out

    with main.installed(dn):
        outs, times = workloads.run_passes(traced_unit, args.seconds)
        wl.probe_solved(outs[-1])
        for _ in range(PARSE_REPEATS):
            for doc in inputs["problems"].values():
                dn.config.parse_config(doc)
    start = time.perf_counter()
    wl.trace_unit()
    baseline = time.perf_counter() - start
    if cli:
        for out in outs:
            for command, (seconds, _) in out:
                main.record(f"cli.{command}_s", seconds)
    probe = spans.Tracer()
    if not cli:
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        unit = workloads.StabilityCli(workloads.Context(
            dn, gen.generate("stability_cli", args.seed), probe_dir, ROOT))
        with probe.installed(dn):
            for command, (seconds, _) in unit.trace_unit():
                probe.record(f"cli.{command}_s", seconds)
    import_s = median_process_seconds([sys.executable, "-c", "import dirac_nodal.cli"],
                                      workdir, IMPORT_REPEATS)
    trace = {"main": main, "probe": probe, "counts": counts, "import_s": import_s,
             "overhead_s": statistics.median(times) - baseline}
    return outs, times, None, wl, trace


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        dn = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    cpu = pin_to_one_cpu()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        inputs = gen.generate(args.workload, args.seed)
        speed = workloads.SpeedProbe(workloads.WORKLOADS[args.workload].SPEED_KERNEL)
        setup_s = setup_seconds(args.workload, inputs, workdir, speed)
        outs, times, rss, wl, trace = measure(args, dn, inputs, workdir, speed)
        deterministic = all(workloads.strip_latency(o) == workloads.strip_latency(outs[0])
                            for o in outs)
        outcome = workloads.Outcome(times, wl.check(outs), rss, trace["counts"] if trace else [])
    except (BenchError, oracle.OracleError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts_repeat = all(c == outcome.counts[0] for c in outcome.counts)
    try:
        if trace:
            metrics = per_layer(trace["main"], trace["probe"], outcome, trace["import_s"],
                                trace["overhead_s"])
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = end_to_end(outcome, setup_s, workloads.pass_seconds(outs))
            declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        printed = {name: unit for name, (_, unit) in metrics.items()}
        if printed != declared:
            raise BenchError(f"metrics {sorted(set(printed.items()) ^ set(declared.items()))} "
                             "disagree with BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed = tally(outcome)
    kinds = Counter(f for op in outcome.ops for f in op.failures if f is not None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.passes} passes, {len(outcome.ops)} operations; pass seconds "
          + " ".join(f"{t:.3f}" for t in outcome.pass_s)
          + f"; speed factor {speed.factor():.4f}")
    for name in declared:
        value, unit = metrics[name]
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  failed {failed} of {attempted}: {dict(sorted(kinds.items()))}")
    print(f"  deterministic outputs: {deterministic}; counts repeat: {counts_repeat}")
    print("env " + json.dumps(environment(args, dn, cpu), sort_keys=True))
    result = {"correct": bool(deterministic and counts_repeat),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
