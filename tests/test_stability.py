"""Nodal-sequence metrics: exact algebra, pseudometric axioms, admissibility."""

import math

import numpy as np
import pytest

from dirac_nodal import (CaseMismatch, Classical, DomainError, GridSequence,
                         InputError, RowMismatch, d0_estimate, d0_from_d_sigma,
                         d_sigma_from_d0, grid_diff_chi, index_functions_diff,
                         named_potential, nodal_grid_sequence,
                         pseudometric_audit, quasinodal_check, s_n,
                         stability_identity_report)
from dirac_nodal.stability import loglog_slope

PI = math.pi


def lattice_rows(case, indices, jitter=None, rng=None):
    rows = {}
    for n in indices:
        seed = n - 2 if case == "I" else n
        pts = np.array([k * PI / seed for k in range(1, seed)])
        if jitter is not None:
            pts = pts + rng.uniform(-jitter, jitter, pts.size) / n
            pts = np.sort(pts)
        rows[n] = pts
    return GridSequence(case, rows)


class TestSn:
    def test_identical_rows(self):
        x = lattice_rows("I", [8, 12])
        assert s_n(x, x, 12) == 0.0

    def test_hand_evaluated_case_one(self):
        # n = 6, m = 0: six points, every length larger by delta in the
        # second sequence; S = pi * 4 * 5 * delta
        delta = 0.01
        pts = np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.4])
        x = GridSequence("I", {6: pts})
        y = GridSequence("I", {6: pts + delta * np.arange(1, 7)})
        assert s_n(x, y, 6) == pytest.approx(20 * PI * delta, rel=1e-12)

    def test_case_two_weight(self):
        pts = np.array([0.5, 1.0, 1.5])
        x = GridSequence("II", {6: pts})
        y = GridSequence("II", {6: pts + np.array([0.01, 0.02, 0.03])})
        # lengths each grow by 0.01; with m = 0 the weight is pi*n per term
        assert s_n(x, y, 6) == pytest.approx(PI * 6 * 0.02, rel=1e-12)

    def test_positivity_precondition(self):
        x = GridSequence("I", {3: [1.0, 2.0]})
        with pytest.raises(DomainError):
            s_n(x, x, 3, m=2.0)
        # the bound is strict: at n = 2, m = 0 the case-I weight is 0/0
        x = GridSequence("I", {2: [1.0, 2.0]})
        with pytest.raises(DomainError):
            s_n(x, x, 2)

    @pytest.mark.parametrize("case, n, m, positive", [
        ("I", 3, 1.4, True), ("I", 3, 1.5, False), ("I", -3, 0.0, False),
        ("II", 3, 4.2, True), ("II", 3, 4.3, False), ("II", -3, 0.0, False)])
    def test_positivity_is_on_the_integer_base(self, case, n, m, positive):
        # the weights need integer_base(case, n) > |m|/sqrt(2): 1 in case I
        # and 3 classically at n = 3
        x = GridSequence(case, {n: [1.0, 2.0]})
        if positive:
            assert s_n(x, x, n, m) == 0.0
        else:
            with pytest.raises(DomainError, match="integer_base"):
                s_n(x, x, n, m)

    def test_row_mismatch(self):
        x = GridSequence("II", {6: [0.5, 1.0]})
        y = GridSequence("II", {6: [0.5, 1.0, 1.5]})
        with pytest.raises(RowMismatch):
            s_n(x, y, 6)

    def test_case_mismatch(self):
        x = lattice_rows("I", [8])
        y = lattice_rows("II", [8])
        with pytest.raises(CaseMismatch):
            s_n(x, y, 8)

    def test_symmetry_and_triangle_exact(self):
        rng = np.random.default_rng(42)
        n = 12
        seqs = [lattice_rows("II", [n], jitter=0.4, rng=rng) for _ in range(10)]
        for a in seqs[:4]:
            for b in seqs[:4]:
                assert s_n(a, b, n) == s_n(b, a, n)
        for a, b, c in zip(seqs, seqs[1:], seqs[2:]):
            assert s_n(a, c, n) <= s_n(a, b, n) + s_n(b, c, n) + 1e-12


class TestDSigmaAlgebra:
    def test_values(self):
        assert d_sigma_from_d0(0.0) == 0.0
        assert d_sigma_from_d0(1.0) == 0.5
        assert d_sigma_from_d0(math.inf) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            d_sigma_from_d0(-0.1)

    def test_inverse_values(self):
        assert d0_from_d_sigma(0.0) == 0.0
        assert d0_from_d_sigma(0.5) == pytest.approx(1.0)
        assert d0_from_d_sigma(1.0) == math.inf

    def test_round_trip_on_sigma_side(self):
        for d0 in (0.0, 1e-3, 1.0, 1e3):
            ds = d_sigma_from_d0(d0)
            assert d_sigma_from_d0(d0_from_d_sigma(ds)) == pytest.approx(
                ds, rel=1e-15, abs=1e-300)

    def test_round_trip_on_d0_side_conditioned(self):
        # inverting through d_sigma amplifies rounding by (1 + d0)
        for d0 in (1e-3, 1.0, 1e3):
            back = d0_from_d_sigma(d_sigma_from_d0(d0))
            assert abs(back - d0) <= 1e-15 * (1.0 + d0) * max(d0, 1.0)


class TestD0Estimate:
    def test_identical(self):
        x = lattice_rows("II", [8, 12, 16])
        est = d0_estimate(x, x, [8, 12, 16])
        assert est.value == 0.0
        assert not est.infinite
        assert est.d_sigma == 0.0

    def test_uses_top_half(self):
        pts = {8: np.linspace(0.3, 2.8, 7), 12: np.linspace(0.25, 2.9, 11),
               16: np.linspace(0.2, 3.0, 15)}
        x = GridSequence("II", pts)
        y = GridSequence("II", {n: p + 0.001 * np.arange(1, p.size + 1)
                                for n, p in pts.items()})
        est = d0_estimate(x, y, [8, 12, 16])
        assert est.value == pytest.approx(max(est.table[12], est.table[16]))

    def test_window_holds_eigenvalue_indices(self):
        x = lattice_rows("II", [8, 12])
        with pytest.raises(InputError, match="eigenvalue index must be an integer"):
            d0_estimate(x, x, [8.5])
        with pytest.raises(InputError, match="eigenvalue index must be an integer"):
            d0_estimate(x, x, [8, 12.0])
        assert d0_estimate(x, x, np.array([8, 12])).table == {8: 0.0, 12: 0.0}

    def test_infinite_flag(self):
        # hump perturbation of fixed amplitude: total length variation stays
        # near 0.4, so S_n grows like 0.4*pi*n
        rows_a, rows_b = {}, {}
        for n in (20, 40, 80, 160):
            ks = np.arange(1, n)
            pts = ks * PI / n
            rows_a[n] = pts
            rows_b[n] = pts + 0.2 * np.sin(PI * ks / n)
        est = d0_estimate(GridSequence("II", rows_a), GridSequence("II", rows_b),
                          [20, 40, 80, 160], ceiling=10.0)
        assert est.infinite
        assert est.d_sigma == 1.0


class TestLoglogSlope:
    def test_exact_power_law(self):
        pairs = [(n, 3.0 * n ** -1.75) for n in (3, 5, 8, 13, 21, 34)]
        assert loglog_slope(pairs) == pytest.approx(-1.75, abs=1e-12)

    def test_ignores_non_positive_and_non_finite(self):
        pairs = [(n, 0.5 * n ** 2.5) for n in (4, 9, 16)]
        noise = [(5, 0.0), (6, -1.0), (7, math.nan), (10, math.inf)]
        assert loglog_slope(noise + pairs) == pytest.approx(2.5, abs=1e-12)

    def test_needs_two_usable_points(self):
        assert loglog_slope([]) is None
        assert loglog_slope([(3, 1.0), (4, 0.0), (5, math.nan)]) is None


class TestGridDiffChi:
    def test_zeros(self):
        x = lattice_rows("II", [10])
        assert np.all(grid_diff_chi(x, x, 10) == 0.0)

    def test_single_perturbation(self):
        pts = np.linspace(0.3, 2.9, 9)
        x = GridSequence("II", {10: pts})
        shifted = pts.copy()
        shifted[4] += 0.01
        y = GridSequence("II", {10: shifted})
        chi = grid_diff_chi(x, y, 10)
        assert chi[4] == pytest.approx(0.01)
        assert np.sum(chi > 0) == 1

    def test_solver_pair_bounded(self, cache):
        a = nodal_grid_sequence(cache.problem("zero_flat"), [12, 24, 48])
        b = nodal_grid_sequence(cache.problem("sin_half"), [12, 24, 48])
        # both have n-1 interior nodes; chi decays like 1/n
        for n in (12, 24, 48):
            chi = grid_diff_chi(a, b, n)
            assert n * np.max(chi) < 5.0


class TestIndexFunctionsDiff:
    def test_zero_for_identical(self):
        x = lattice_rows("II", [12])
        for t in np.linspace(0.1, 3.0, 7):
            assert index_functions_diff(x, x, 12, float(t)) == 0

    def test_perturbed_entry(self):
        pts = np.linspace(0.3, 2.9, 11)
        x = GridSequence("II", {12: pts})
        shifted = pts.copy()
        shifted[5] += 0.05
        y = GridSequence("II", {12: shifted})
        mid = float(pts[5] + 0.02)
        assert index_functions_diff(x, y, 12, mid) == 1

    def test_domain(self):
        x = lattice_rows("II", [12])
        with pytest.raises(DomainError):
            index_functions_diff(x, x, 12, 0.0)

    def test_coarse_perturbation_can_exceed_one(self):
        # the <= 1 bound is an asymptotic statement; badly misaligned rows
        # at small n produce larger differences, which are simply reported
        x = GridSequence("II", {6: [0.5, 1.0, 1.5]})
        y = GridSequence("II", {6: [0.1, 0.2, 0.3]})
        assert index_functions_diff(x, y, 6, 0.4) == 3


class TestPseudometricAudit:
    def test_axioms_on_random_family(self):
        rng = np.random.default_rng(2024)
        seqs = [lattice_rows("II", [16, 24], jitter=0.4, rng=rng)
                for _ in range(6)]
        report = pseudometric_audit(seqs, [16, 24])
        assert report.identity_ok
        assert report.symmetry_ok
        assert report.worst_triangle_margin <= 1e-12
        assert report.passed

    def test_mixed_cases_use_unit_distance(self):
        rng = np.random.default_rng(7)
        seqs = [lattice_rows("II", [16], jitter=0.3, rng=rng),
                lattice_rows("II", [16], jitter=0.3, rng=rng),
                lattice_rows("I", [16], jitter=0.3, rng=rng)]
        report = pseudometric_audit(seqs, [16])
        assert report.passed

    def test_case_separation_reports_unit_sigma(self):
        # different cases never get a finite comparison: the reported
        # pseudometric value is exactly 1
        rng = np.random.default_rng(11)
        a = lattice_rows("II", [16], jitter=0.3, rng=rng)
        b = lattice_rows("I", [16], jitter=0.3, rng=rng)
        with pytest.raises(CaseMismatch):
            d0_estimate(a, b, [16])
        report = pseudometric_audit([a, a, b], [16])
        assert report.passed

    def test_needs_three(self):
        x = lattice_rows("II", [16])
        with pytest.raises(InputError):
            pseudometric_audit([x, x], [16])


class TestQuasinodal:
    def test_exact_nodal_data_passes(self, cache):
        seq = nodal_grid_sequence(cache.problem("sin_half"), [8, 12, 16, 24])
        report = quasinodal_check(seq, named_potential("sin2x"), 0.5,
                                  Classical(0.0, 0.0))
        assert report.asymptotics_pass
        assert not report.flagged_rows
        assert report.l1_trend_pass
        errs = [report.l1_errors[n] for n in (8, 12, 16, 24)]
        assert errs[-1] < errs[0]

    def test_single_bad_row_is_flagged_not_fatal(self, cache):
        # a monotone row cannot absorb a half-unit shift at one entry, so the
        # bad row is realized as a detuned lattice with deviation above the
        # admissibility constant
        seq = nodal_grid_sequence(cache.problem("sin_half"), [8, 12, 16, 24])
        rows = {n: seq.row(n).copy() for n in seq.indices()}
        rows[24] = np.array([k * PI / 32 for k in range(1, 24)])
        bad = GridSequence("II", rows)
        report = quasinodal_check(bad, named_potential("sin2x"), 0.5,
                                  Classical(0.0, 0.0))
        assert report.flagged_rows == [24]
        assert report.asymptotics_pass  # isolated failure does not condemn

    def test_constant_offset_fails_large_n(self):
        rows = {}
        for n in (36, 44, 52):
            ks = np.arange(1, n - 4)
            rows[n] = ks * PI / n + 0.3
        seq = GridSequence("II", rows)
        report = quasinodal_check(seq, named_potential("zero"), 0.0,
                                  Classical(0.0, 0.0))
        assert not report.asymptotics_pass
        assert report.flagged_rows == [36, 44, 52]


class TestLemma31a:
    def test_lengths_close_to_lattice_spacing(self, cache):
        seq = nodal_grid_sequence(cache.problem("sin_half"), [12, 24, 48])
        for n in (12, 24, 48):
            lengths = seq.lengths(n)
            assert n * np.max(np.abs(lengths - PI / n)) < 5.0


class TestStabilityIdentityReport:
    def test_degenerate_pair(self):
        rep = stability_identity_report(named_potential("zero"),
                                        named_potential("zero"),
                                        Classical(0.0, 0.0), 0.0, [8, 12])
        assert rep.degenerate and rep.verdict == "degenerate"
        assert rep.d0 < 1e-8
        assert rep.ratios_corrected[8] is None

    def test_constant_shift_kernel(self):
        rep = stability_identity_report(named_potential("zero"),
                                        named_potential("constant", c=1.0),
                                        Classical(0.0, 0.0), 0.0, [12, 24])
        # nodal sets coincide although the unadjusted norms differ by pi
        assert rep.norm_paper_exact == pytest.approx(PI, abs=1e-6)
        assert rep.norm_corrected < 1e-9
        assert rep.d0 < 1e-7
        assert rep.degenerate

    def test_smoke_ratio(self):
        rep = stability_identity_report(named_potential("sin2x"),
                                        named_potential("zero"),
                                        Classical(0.0, 0.0), 0.5, [10, 14])
        for n in (10, 14):
            assert 0.7 < rep.ratios_corrected[n] < 1.3
        assert rep.d_sigma == pytest.approx(rep.d0 / (1 + rep.d0))

    def test_window_holds_eigenvalue_indices(self):
        # rejected before any solve
        with pytest.raises(InputError, match="eigenvalue index must be an integer"):
            stability_identity_report(named_potential("sin2x"), named_potential("zero"),
                                      Classical(0.0, 0.0), 0.5, [10, 12.5])

    def test_parity_wiggling_window_is_inconclusive(self):
        """The benchmark's stability_cli pair of seed 1922 over 12..20: the
        corrected ratio wiggles with index parity around 0.91, so |ratio - 1|
        does not trend down and the verdict is "inconclusive".  The
        benchmark's reference calls this pair "identity_supported", from the
        last ratio alone; ROADMAP item 7 is where this verdict may change."""
        poly = named_potential("poly", coeffs=[-0.5108996222117563,
                                               -0.22855909953891904,
                                               -0.03095774691358473])
        rep = stability_identity_report(named_potential("sin2x"), poly,
                                        Classical(0.0, 0.0), 0.5, range(12, 21))
        ratios = [rep.ratios_corrected[n] for n in range(12, 21)]
        assert all(0.90 <= r <= 0.93 for r in ratios), ratios
        assert rep.identity_trend_ok is False
        assert rep.verdict == "inconclusive"
