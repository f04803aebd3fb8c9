"""Self-tests of the benchmark: oracle, inputs, result format.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
The end-to-end tests start ``bench/run.py`` as a separate process and take a
few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _doc(mass, alpha=0.0, beta=0.0):
    return {"mass": mass, "potential": {"kind": "named", "name": "zero", "params": {}},
            "boundary": {"kind": "classical", "alpha": alpha, "beta": beta}}


def test_oracle_matches_massless_closed_form():
    alpha, beta = 0.2, 0.9
    ref = oracle.ref_problem(_doc(0.0, alpha, beta))
    eigs = oracle.eigenvalues(ref, range(1, 30))
    for n, lam in eigs.items():
        assert abs(lam - (n + (beta - alpha) / math.pi)) < 1e-12
    flat = oracle.ref_problem(_doc(0.0))
    lam = oracle.eigenvalues(flat, [12])[12]
    assert np.max(np.abs(oracle.nodes(flat, lam, 1) - np.arange(1, 12) * math.pi / 12)) < 1e-12


def test_oracle_matches_find_eigenvalues_on_zero_potential():
    from dirac_nodal.config import parse_config
    from dirac_nodal.solver import find_eigenvalues
    doc = _doc(0.5)
    recs = find_eigenvalues(parse_config(doc).problem, range(3, 21))
    eigs = oracle.eigenvalues(oracle.ref_problem(doc), range(3, 21))
    assert max(abs(r.lam - eigs[r.index]) for r in recs) < 1e-10


def test_rank_labels_of_heavy_mass_problem():
    # m = 10: the eigenvalues near 24.34 and 25.25 are the 22nd and 23rd
    eigs = oracle.eigenvalues(oracle.ref_problem(gen.heavy_doc()), [22, 23])
    assert abs(eigs[22] - 24.3375579) < 1e-6 and abs(eigs[23] - 25.2541810) < 1e-6


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)
    json.dumps(gen.generate(workload, 7))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def _run(root, workload, trace, seed=3):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    key = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[key])
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    if workload != "nodes_by_index":  # the only workload with known failures
        assert result["failed"] == 0


def test_traced_counts_repeat_across_runs():
    counted = ("potentials.calls", "potentials.points", "solver.sweeps_per_eig",
               "solver.failures.AmbiguousBracket", "checks.mislabels")
    first, second = (json.loads(_run(ROOT, "nodes_by_index", 1).stdout.splitlines()[-1])
                     for _ in range(2))
    assert all(first["metrics"][k] == second["metrics"][k] for k in counted)


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / f"bare-{uuid.uuid4().hex}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "spectrum_batch", 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
