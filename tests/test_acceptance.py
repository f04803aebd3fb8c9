"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Every tolerance is pinned here; closed-form oracles derive the
expected values (constant-coefficient solutions, phase shifts, rotation
forms), never the code paths under test.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import canonical_pd, cli_env, loglog_slope
from dirac_nodal import (Classical, DiracProblem, GridSequence,
                         IntegratorConfig, ReconstructionMode, grid_diff_chi,
                         index_functions_diff, l1_error, lambda_asym,
                         named_potential, nodal_point_asym, reconstruct_step,
                         s_n, stability_identity_report)
from dirac_nodal.stability import d0_from_d_sigma, d_sigma_from_d0

PI = math.pi


def announce(tag, message):
    print(f"[{tag}] {message} PASS")


class TestA1ZeroPotentialOracle:
    def test_lambda_and_nodes(self, cache):
        indices = list(range(3, 41))
        recs = cache.records("zero_quarter", indices)
        worst_lam = 0.0
        worst_node = 0.0
        for n in indices:
            rec = recs[n]
            worst_lam = max(worst_lam, abs(rec.lam - (n + 0.25)))
            nodal = cache.nodal("zero_quarter", n, 1)
            expected = np.array([j * PI / rec.lam
                                 for j in range(1, nodal.count + 1)])
            worst_node = max(worst_node, float(np.max(np.abs(nodal.points
                                                             - expected))))
        assert worst_lam < 1e-9
        assert worst_node < 1e-8
        announce("A1", f"zero-potential oracle n in [3,40]: "
                       f"max lambda err {worst_lam:.2e} (tol 1e-9), "
                       f"max node err {worst_node:.2e} (tol 1e-8)")


class TestA2ConstantShift:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_spectrum_shift(self, cache, c):
        label = f"a2_const_{c}"
        alpha, beta = 0.3, 1.0
        cache.register(label,
                       DiracProblem(0.0, named_potential("constant", c=c),
                                    Classical(alpha, beta)),
                       IntegratorConfig(1024))
        indices = list(range(3, 31))
        recs = cache.records(label, indices)
        shift = (beta - alpha) / PI + c
        worst = max(abs(recs[n].lam - (n + shift)) for n in indices)
        assert worst < 1e-8
        announce("A2", f"constant shift c={c}: max err {worst:.2e} (tol 1e-8)")


def classical_count(alpha, beta, n, component):
    """Interior zeros of component 1 (theta a multiple of pi) or 2 (theta pi/2
    off one) of the classical eigenfunction with index n, whose Prufer angle
    runs from alpha to beta + n pi, crossing each such angle once."""
    shift = (component - 1) * PI / 2
    return sum(1 for j in range(-abs(n) - 2, abs(n) + 3)
               if min(alpha, beta + n * PI) < j * PI + shift < max(alpha, beta + n * PI))


class TestA3NodeCounts:
    PD_COMBOS = [(0.5, 0.6), (0.5, -0.6), (-0.5, 0.6), (-0.5, -0.6)]

    def test_param_dependent_table(self, cache):
        # component 1 has n - 2 nodes where alpha >= 0 and beta > 0 hold
        # together or fail together, n - 3 where only alpha >= 0 holds and
        # n - 1 where only beta > 0 does
        indices = list(range(6, 41, 2))
        for alpha, beta in self.PD_COMBOS:
            label = f"a3_pd_{alpha}_{beta}"
            cache.register(label,
                           DiracProblem(0.3, named_potential("sin2x"),
                                        canonical_pd(alpha, beta)),
                           IntegratorConfig(2048))
            cache.records(label, indices)
            offset = 2 if (alpha >= 0) == (beta > 0) else 3 if alpha >= 0 else 1
            for n in indices:
                nodal = cache.nodal(label, n, 1)
                assert nodal.count == n - offset, (
                    f"(alpha={alpha}, beta={beta}, n={n}): observed "
                    f"{nodal.count} vs {n - offset}")
        announce("A3", "parameter-dependent node counts match the sign table "
                       "for all four combinations, n in [6,40]")

    def test_classical_counts_with_systematic_finding(self, cache):
        # both components have the count of the angle's crossings, offset 0
        indices = list(range(6, 41, 2))
        for alpha, beta in [(0.7, 0.9), (0.3, 1.2)]:
            label = f"a3_cl_{alpha}_{beta}"
            cache.register(label,
                           DiracProblem(0.5, named_potential("sin2x"),
                                        Classical(alpha, beta)),
                           IntegratorConfig(2048))
            cache.records(label, indices)
            for component in (1, 2):
                diffs = {cache.nodal(label, n, component).count
                         - classical_count(alpha, beta, n, component)
                         for n in indices}
                assert diffs == {0}, (
                    f"count deviation {sorted(diffs)} for component {component}")
        announce("A3", "classical node counts: both components exact, n in [6,40]")

    def test_degenerate_endpoint_family_finding(self, cache):
        # alpha = beta = 0 pins y1's zeros to both endpoints, which leaves it
        # n - 1 interior nodes, and y2 n
        for n in (6, 12, 24):
            for component, count in ((1, n - 1), (2, n)):
                assert classical_count(0.0, 0.0, n, component) == count
                assert cache.nodal("sin_half", n, component).count == count
        announce("A3", "degenerate endpoint family: n - 1 nodes in y1, n in y2")


class TestA4AsymptoticOrder:
    WINDOW = list(range(10, 61, 5))

    @pytest.mark.parametrize("label", ["zero_half_mass", "sin_half",
                                       "pd_example"])
    def test_slopes(self, cache, label):
        p = cache.problem(label)
        recs = cache.records(label, self.WINDOW)
        alpha = p.boundary.alpha
        lam_errs, node_errs = [], []
        for n in self.WINDOW:
            rec = recs[n]
            lam_errs.append(abs(rec.lam - lambda_asym(p, n, order=2)))
            nodal = cache.nodal(label, n, 1)
            worst = 0.0
            for x in nodal.points:
                j_est = int(round((rec.lam * x - p.potential.integral_0_to(x)
                                   + alpha) / PI))
                x_asym = nodal_point_asym(p, n, j_est, 1, order=2)
                worst = max(worst, abs(x - x_asym))
            node_errs.append(worst)
        slope_lam = loglog_slope(self.WINDOW, lam_errs)
        slope_node = loglog_slope(self.WINDOW, node_errs)
        assert slope_lam <= -1.5
        assert slope_node <= -1.5
        announce("A4", f"{label}: lambda slope {slope_lam:.2f}, node slope "
                       f"{slope_node:.2f} (both <= -1.5)")


class TestA5ReconstructionConvergence:
    def test_l1_halves_and_pointwise_decreases(self, cache):
        p = cache.problem("sin_half")
        mode = ReconstructionMode("corrected", "numeric")
        errs, point_errs = {}, {}
        target = math.sin(2 * PI / 3)
        for n in (12, 24, 48):
            rec = cache.record("sin_half", n)
            nodal = cache.nodal("sin_half", n, 1)
            step = reconstruct_step(nodal, p, mode, lam=rec.lam)
            errs[n] = l1_error(step, p.potential)
            point_errs[n] = abs(float(step(PI / 3)) - target)
        assert errs[48] < 0.5 * errs[12]
        assert point_errs[12] > point_errs[24] > point_errs[48]
        announce("A5", f"L1 errors {errs[12]:.3f} -> {errs[24]:.3f} -> "
                       f"{errs[48]:.3f} (ratio {errs[48]/errs[12]:.2f} < 0.5); "
                       f"pointwise at pi/3 strictly decreasing")


class TestA6ModeDiscrimination:
    def test_three_limits(self, cache):
        p = cache.problem("const_one")
        rec = cache.record("const_one", 48)
        nodal = cache.nodal("const_one", 48, 1)

        corrected = reconstruct_step(
            nodal, p, ReconstructionMode("corrected", "numeric"), lam=rec.lam)
        err_corr = abs(float(corrected(PI / 2)) - 1.0)
        assert err_corr < 0.05
        assert l1_error(corrected, p.potential) / PI < 0.05

        paper = reconstruct_step(
            nodal, p, ReconstructionMode("paper_exact", "numeric"), lam=rec.lam)
        err_paper = abs(float(paper(PI / 2)) - PI)
        assert err_paper < 0.15

        seeded = reconstruct_step(
            nodal, p, ReconstructionMode("corrected", "integer_seed"))
        err_seed = abs(float(seeded(PI / 2)))
        assert err_seed < 0.05
        announce("A6", f"V=1 limits at n=48: corrected->1 ({err_corr:.3f}<0.05), "
                       f"paper_exact->pi ({err_paper:.3f}<0.15), "
                       f"integer_seed->0 ({err_seed:.1e}<0.05)")


class TestA7StabilityIdentity:
    def test_corrected_ratio(self):
        report = stability_identity_report(
            named_potential("sin2x"), named_potential("zero"),
            Classical(0.0, 0.0), 0.5, [12, 24, 48],
            integrator=IntegratorConfig(2048))
        r = {n: report.ratios_corrected[n] for n in (12, 24, 48)}
        assert 0.85 <= r[48] <= 1.15
        devs = [abs(r[n] - 1.0) for n in (12, 24, 48)]
        assert devs[0] >= devs[1] >= devs[2]
        announce("A7", f"identity ratios {r[12]:.3f}, {r[24]:.3f}, {r[48]:.3f}; "
                       f"r_48 in [0.85, 1.15] and |r-1| non-increasing")


class TestA8StabilityDegeneracy:
    def test_constant_kernel(self):
        zero = named_potential("zero")
        one = named_potential("constant", c=1.0)
        report = stability_identity_report(
            zero, one, Classical(0.0, 0.0), 0.0, [48],
            integrator=IntegratorConfig(1024))
        s48 = report.s_values[48]
        assert s48 < 1e-6 * PI
        assert report.norm_paper_exact == pytest.approx(PI, abs=1e-6)
        announce("A8", f"constant-shift kernel: S_48 = {s48:.2e} < 1e-6*pi "
                       f"while ||V - Vbar||_1 = pi")


class TestA9MetricAlgebra:
    def test_transform_round_trip(self):
        for d0 in (0.0, 1e-3, 1.0, 1e3):
            ds = d_sigma_from_d0(d0)
            back = d0_from_d_sigma(ds)
            # the sigma side is well-conditioned and round-trips to one ulp
            assert d_sigma_from_d0(back) == pytest.approx(ds, rel=1e-15,
                                                          abs=1e-300)
            # the d0 side amplifies the representation error of ds by (1+d0)
            assert abs(back - d0) <= 1e-15 * (1.0 + d0) * max(d0, 1.0)
        assert d_sigma_from_d0(math.inf) == 1.0
        announce("A9", "d_sigma/d0 transforms round-trip to 1e-15 relative")

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(20240817)
        n = 48
        worst = -math.inf
        for _ in range(10):
            triple = []
            for _ in range(3):
                ks = np.arange(1, n)
                pts = ks * PI / n + rng.uniform(-0.45, 0.45, n - 1) / n
                triple.append(GridSequence("II", {n: np.sort(pts)}))
            a, b, c = triple
            margin = s_n(a, c, n) - s_n(a, b, n) - s_n(b, c, n)
            worst = max(worst, margin)
        assert worst <= 1e-12
        announce("A9", f"triangle inequality exact over 10 random triples "
                       f"(worst margin {worst:.1e} <= 1e-12)")

    def test_index_function_difference_bound(self, cache):
        cache.records("sin_half", [48])
        cache.records("zero_half_mass", [48])
        seq_a = GridSequence.from_nodal_sets([cache.nodal("sin_half", 48, 1)],
                                             "II")
        seq_b = GridSequence.from_nodal_sets(
            [cache.nodal("zero_half_mass", 48, 1)], "II")
        xs = np.linspace(1e-3, PI - 1e-3, 1000)
        worst = max(index_functions_diff(seq_a, seq_b, 48, float(x)) for x in xs)
        assert worst <= 1
        chi = grid_diff_chi(seq_a, seq_b, 48)
        assert 48 * float(np.max(chi)) < 5.0
        announce("A9", f"|J_n - J̄_n| <= 1 at n=48 over 1000 samples "
                       f"(max {worst})")


class TestA10Determinism:
    def _run(self, *args):
        res = subprocess.run([sys.executable, "-m", "dirac_nodal.cli", *args],
                             capture_output=True, text=True, env=cli_env())
        assert res.returncode == 0, res.stderr
        return res

    def test_all_subcommands_byte_identical(self, tmp_path):
        zero_doc = {
            "mass": 0.0,
            "potential": {"kind": "named", "name": "zero", "params": {}},
            "boundary": {"kind": "classical", "alpha": 0.0, "beta": PI / 4},
            "solver": {"steps": 512},
        }
        sin_doc = {
            "mass": 0.5,
            "potential": {"kind": "named", "name": "sin2x", "params": {}},
            "boundary": {"kind": "classical", "alpha": 0.0, "beta": 0.0},
            "solver": {"steps": 1024},
        }
        zero_flat = dict(sin_doc)
        zero_flat["potential"] = {"kind": "named", "name": "zero", "params": {}}
        cfg_zero = tmp_path / "zero.json"
        cfg_zero.write_text(json.dumps(zero_doc))
        cfg_sin = tmp_path / "sin.json"
        cfg_sin.write_text(json.dumps(sin_doc))
        cfg_flat = tmp_path / "flat.json"
        cfg_flat.write_text(json.dumps(zero_flat))

        invocations = {
            "spectrum": ["spectrum", "--problem", str(cfg_zero),
                         "--n-min", "3", "--n-max", "7"],
            "nodes": ["nodes", "--problem", str(cfg_zero), "--n", "6",
                      "--component", "1"],
            "reconstruct": ["reconstruct", "--problem", str(cfg_sin), "--n", "10"],
            "stability": ["stability", "--problem-a", str(cfg_sin),
                          "--problem-b", str(cfg_flat),
                          "--n-min", "8", "--n-max", "10"],
            "validate-asymptotics": ["validate-asymptotics", "--problem",
                                     str(cfg_sin), "--n-min", "8",
                                     "--n-max", "12"],
            "quasinodal-check": ["quasinodal-check", "--problem", str(cfg_sin),
                                 "--n-min", "8", "--n-max", "12"],
        }
        for name, args in invocations.items():
            suffix = ".json" if name == "quasinodal-check" else ".csv"
            out1 = tmp_path / f"{name}-1{suffix}"
            out2 = tmp_path / f"{name}-2{suffix}"
            self._run(*args, "--out", str(out1))
            self._run(*args, "--out", str(out2))
            assert out1.read_bytes() == out2.read_bytes(), name
            side1 = out1.with_suffix(".json")
            side2 = out2.with_suffix(".json")
            if side1 != out1 and side1.exists():
                assert side1.read_bytes() == side2.read_bytes(), name
        announce("A10", "all six subcommands byte-identical across repeat runs")
