"""Expansion formulas: values pinned by hand-derived closed forms, orders
validated against the forward solver."""

import math

import numpy as np
import pytest

from conftest import canonical_pd, loglog_slope
from dirac_nodal import (AsymptoticConstants, Classical, DiracProblem,
                         DomainError, InputError, IntegratorConfig, IterationFailure,
                         UnsupportedPrediction, eigenfunction_asym,
                         find_eigenvalue, find_eigenvalues, integrate,
                         lambda_asym, lambda_inverse_asym, mean_shift,
                         named_potential, nodal_length_asym, nodal_point_asym,
                         nodal_point_series)
from dirac_nodal.model import integer_base

PI = math.pi

# cos(v) = 0: v = integral of V + beta - alpha = pi/2
QUARTER_TURN = DiracProblem(0.5, named_potential("constant", c=0.5),
                            Classical(0.0, 0.0))

# Problems of the second-order oracle beyond the conftest fixtures
ORACLE_PROBLEMS = {
    "zero_m05_a03_b10": DiracProblem(0.5, named_potential("zero"),
                                     Classical(0.3, 1.0)),
    "zero_m1_a0_bq": DiracProblem(1.0, named_potential("zero"),
                                  Classical(0.0, PI / 4)),
    "sin_m05_a03_b07": DiracProblem(0.5, named_potential("sin2x"),
                                    Classical(0.3, 0.7)),
    "quarter_turn": QUARTER_TURN,
    "poly_m6_a03_b07": DiracProblem(6.0, named_potential("poly", coeffs=[1, -2, 0.5]),
                                    Classical(0.3, 0.7)),
}

# (problem label, indices of the Richardson fit)
ORACLE_CASES = [
    # the conftest fixtures; pd_example checks the case-I constant c
    ("zero_quarter", (80, 160)),
    ("zero_flat", (80, 160)),
    ("zero_half_mass", (80, 160)),
    ("sin_half", (80, 160)),
    ("const_one", (80, 160)),
    ("pd_example", (80, 160)),
    ("zero_m05_a03_b10", (80, 160)),
    ("zero_m1_a0_bq", (80, 160)),
    ("sin_m05_a03_b07", (80, 160)),
    ("sin_m05_a03_b07", (-80, -160)),
    ("quarter_turn", (80, 160)),
    # m = 6: lambda_n has a large 1/n^3 term, e/n^2 in g, so the fit
    # c + d/n at n = 80 and 160 is off by 1.1e-2; the fit
    # c + d/n + e/n^2 through n = 80, 160 and 320 is within 3e-5
    ("poly_m6_a03_b07", (80, 160, 320)),
]


def fitted_second_order(problem, ns, steps=8192):
    """The constant term of g(n) = n (lambda_n - lambda_asym(n, order=1)),
    fitted by Richardson extrapolation: g = c + d/n + e/n^2 + ... with one
    power of 1/n per index in ns, solved exactly through the solver's
    eigenvalues at ns."""
    recs = find_eigenvalues(problem, ns, IntegratorConfig(steps))
    g = [r.index * (r.lam - lambda_asym(problem, r.index, order=1)) for r in recs]
    inv = 1.0 / np.array([float(r.index) for r in recs])
    return float(np.linalg.solve(np.vander(inv, len(recs), increasing=True), g)[0])


class TestConstants:
    def test_mean_shift(self):
        p = DiracProblem(0.0, named_potential("constant", c=1.0),
                         Classical(0.2, 0.7))
        assert mean_shift(p) == pytest.approx(PI + 0.5, abs=1e-12)

    def test_param_dependent_c_example(self):
        b = canonical_pd(0.0, 0.0)
        # alpha = beta = 0 with unit sign terms: c = 1/pi + 1/pi
        p = DiracProblem(0.0, named_potential("zero"), b)
        constants = AsymptoticConstants.from_problem(p)
        assert constants.v == 0.0
        assert constants.c == pytest.approx(2.0 / PI, abs=1e-14)

    def test_massless_classical_c1_zero(self):
        # the classical second-order constant, the paper's c1, is held in c
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, PI / 4))
        assert AsymptoticConstants.from_problem(p).c == 0.0

    def test_quarter_turn_shift_is_regular(self):
        # c does not depend on cos(v); v = pi/2 once made it singular
        assert AsymptoticConstants.from_problem(QUARTER_TURN).c == 0.125
        assert lambda_asym(QUARTER_TURN, 6, order=2) == pytest.approx(
            6.5 + 0.125 / 6, abs=1e-14)
        assert math.isfinite(lambda_asym(QUARTER_TURN, -6, order=2))
        assert lambda_inverse_asym(QUARTER_TURN, 6) == pytest.approx(
            1 / 6 - 0.5 / 36 + (0.25 - 0.125) / 216, abs=1e-15)


class TestSecondOrderOracle:
    """The second-order constant of AsymptoticConstants against the one fitted
    from solver eigenvalues at 8192 steps, by Richardson extrapolation of
    n (lambda_n - n - v/pi) over 1/n (n - 2 for n > 0 in case I), to 1e-3."""

    @pytest.mark.parametrize("label,ns", ORACLE_CASES,
                             ids=[f"{label}@{ns[0]}..{ns[-1]}"
                                  for label, ns in ORACLE_CASES])
    def test_fitted_matches_formula(self, cache, label, ns):
        problem = ORACLE_PROBLEMS.get(label) or cache.problem(label)
        expected = AsymptoticConstants.from_problem(problem).c
        assert fitted_second_order(problem, list(ns)) == pytest.approx(expected,
                                                                        abs=1e-3)


class TestLambdaAsym:
    def test_trivial_zero_case(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        assert lambda_asym(p, 7, order=2) == 7.0

    def test_quarter_shift(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, PI / 4))
        assert lambda_asym(p, 7, order=2) == pytest.approx(7.25, abs=1e-14)

    def test_param_dependent_example(self):
        b = canonical_pd(0.0, 0.0)
        p = DiracProblem(0.0, named_potential("zero"), b)
        assert lambda_asym(p, 10, order=2) == pytest.approx(8 + 2 / (10 * PI),
                                                            abs=1e-14)

    def test_orders_accumulate(self):
        p = DiracProblem(0.0, named_potential("constant", c=0.5),
                         Classical(0.0, 0.3))
        assert lambda_asym(p, 9, order=0) == 9.0
        assert lambda_asym(p, 9, order=1) == pytest.approx(
            9.0 + (0.5 * PI + 0.3) / PI)

    def test_negative_branch_param_dependent(self):
        b = canonical_pd(0.1, 0.2)
        p = DiracProblem(0.4, named_potential("zero"), b)
        v = mean_shift(p)
        c = AsymptoticConstants.from_problem(p).c
        assert lambda_asym(p, -9, order=2) == pytest.approx(-9 + v / PI - c / 9)

    def test_zero_index_rejected(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        with pytest.raises(DomainError):
            lambda_asym(p, 0)

    @pytest.mark.parametrize("boundary", [Classical(0.3, 0.7), canonical_pd(0.4, 0.5)],
                             ids=["classical", "case_one"])
    def test_order_zero_is_integer_base(self, boundary):
        # case I with n < 0 is where the shift's former copies disagreed
        p = DiracProblem(0.5, named_potential("sin2x"), boundary)
        for n in [n for n in range(-5, 11) if n]:
            assert lambda_asym(p, n, order=0) == integer_base(p.case, n)
            assert lambda_asym(p, np.int64(n), order=0) == integer_base(p.case, n)

    @pytest.mark.parametrize("n", [3.7, 4.0, True])
    def test_non_integer_index_rejected(self, n):
        p = DiracProblem(0.5, named_potential("sin2x"), canonical_pd(0.4, 0.5))
        for expansion in (lambda_asym, lambda_inverse_asym):
            with pytest.raises(InputError, match="eigenvalue index"):
                expansion(p, n)
        with pytest.raises(InputError, match="eigenvalue index"):
            nodal_point_series(p, 4.5, 1)

    def test_order1_does_not_need_constants(self):
        p = DiracProblem(0.5, named_potential("constant", c=0.5),
                         Classical(0.0, 0.0))
        assert lambda_asym(p, 6, order=1) == pytest.approx(6.5)


class TestLambdaInverse:
    def test_spec_arithmetic(self):
        # v = pi and vanishing second-order constant: 1/10 - 1/100 + 1/1000
        p = DiracProblem(0.0, named_potential("constant", c=1.0),
                         Classical(0.0, 0.0))
        assert lambda_inverse_asym(p, 10) == pytest.approx(0.091, abs=1e-15)

    def test_param_dependent_formula(self):
        b = canonical_pd(0.0, 0.0)
        p = DiracProblem(0.0, named_potential("zero"), b)
        c = 2.0 / PI
        expected = 1.0 / 10 - 0.0 + (0.0 - PI * PI * c) / (1000 * PI * PI)
        assert lambda_inverse_asym(p, 12) == pytest.approx(expected, abs=1e-15)

    def test_reciprocal_consistency(self):
        p = DiracProblem(0.5, named_potential("constant", c=1.0),
                         Classical(0.0, 0.0))
        for n in (10, 20, 40):
            prod = lambda_inverse_asym(p, n) * lambda_asym(p, n, order=2)
            assert abs(prod - 1.0) < 2.0 / n ** 3


class TestNodalPointAsym:
    def test_trivial_component1(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        assert nodal_point_asym(p, 5, 2, 1) == pytest.approx(2 * PI / 5, abs=1e-12)

    def test_component2_half_shift(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        assert nodal_point_asym(p, 5, 2, 2) == pytest.approx(1.5 * PI / 5,
                                                             abs=1e-12)

    def test_constant_potential_phase_cancellation(self):
        # lam = n + c turns the fixed point into x = (j pi + c x)/(n + c),
        # whose solution is exactly j pi / n.
        p = DiracProblem(0.0, named_potential("constant", c=1.0),
                         Classical(0.0, 0.0))
        x = nodal_point_asym(p, 5, 2, 1, lam=6.0)
        assert x == pytest.approx(2 * PI / 5, abs=1e-11)

    def test_param_dependent_component2_unsupported(self):
        p = DiracProblem(0.0, named_potential("zero"), canonical_pd(0.1, 0.2))
        with pytest.raises(UnsupportedPrediction):
            nodal_point_asym(p, 8, 2, component=2)

    def test_iteration_failure_when_not_contractive(self):
        p = DiracProblem(0.0, named_potential("constant", c=10.0),
                         Classical(0.0, 0.0))
        with pytest.raises(IterationFailure):
            nodal_point_asym(p, 5, 1, 1, lam=2.0)

    def test_series_agrees_with_fixed_point(self, cache):
        p = cache.problem("pd_example")
        for n in (10, 20, 40):
            for j in (1, n // 2, n - 3):
                a = nodal_point_asym(p, n, j, 1, order=2)
                b = nodal_point_series(p, n, j)
                assert abs(a - b) * n ** 3 < 20.0

    def test_order2_node_error_decays(self, cache):
        # max_j |observed - expansion| should fit a slope of -1.5 or steeper
        p = cache.problem("sin_half")
        ns_window = [10, 14, 20, 28]
        errs = []
        for n in ns_window:
            nodal = cache.nodal("sin_half", n, 1)
            worst = max(abs(x - nodal_point_asym(p, n, j + 1, 1, order=2))
                        for j, x in enumerate(nodal.points))
            errs.append(worst)
        assert loglog_slope(ns_window, errs) <= -1.5


class TestNodalLengthAsym:
    def test_trivial(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        assert nodal_length_asym(p, 8, 3, 1) == pytest.approx(PI / 8, abs=1e-12)

    def test_difference_matches_direct(self):
        p = DiracProblem(1.0, named_potential("sin2x"), Classical(PI / 8, 0.4))
        for n in (10, 20, 40):
            for j in (2, 5):
                diff = nodal_length_asym(p, n, j, 1, method="difference")
                direct = nodal_length_asym(p, n, j, 1, method="direct")
                assert abs(diff - direct) < 1e-9

    def test_second_order_term_alternates_with_parity(self):
        # with m > 0 the mass corrections of consecutive intervals flip sign
        p = DiracProblem(1.0, named_potential("zero"), Classical(PI / 8, 0.4))
        lam = lambda_asym(p, 12, order=2)
        base = [PI / lam] * 4
        seconds = []
        for j in (2, 3, 4, 5):
            direct = nodal_length_asym(p, 12, j, 1, method="direct")
            seconds.append(direct - base[j - 2])
        assert all(a * b < 0 for a, b in zip(seconds, seconds[1:]))

    def test_param_dependent_direct(self, cache):
        p = cache.problem("pd_example")
        diff = nodal_length_asym(p, 20, 8, 1, method="difference")
        direct = nodal_length_asym(p, 20, 8, 1, method="direct")
        assert abs(diff - direct) < 1e-9


class TestSeedQuality:
    def test_lambda_error_slope(self, cache):
        p = cache.problem("sin_half")
        ns_window = [10, 14, 20, 28]
        recs = cache.records("sin_half", ns_window)
        errs = [abs(recs[n].lam - lambda_asym(p, n, order=2)) for n in ns_window]
        assert loglog_slope(ns_window, errs) <= -1.5


class TestEigenfunctionAsym:
    def test_classical_massless_exact(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        for x in (0.3, 1.1, 2.7):
            assert eigenfunction_asym(p, 10.0, x, 1) == pytest.approx(
                math.sin(10 * x), abs=1e-14)
            assert eigenfunction_asym(p, 10.0, x, 2) == pytest.approx(
                -math.cos(10 * x), abs=1e-14)

    def test_classical_correction_value(self):
        # m = 1, alpha = 0, x = pi/2, lam = 10: correction U = (pi/4) cos(5 pi)
        p = DiracProblem(1.0, named_potential("zero"), Classical(0.0, 0.0))
        u1 = eigenfunction_asym(p, 10.0, PI / 2, 1)
        assert u1 == pytest.approx(PI / 40, abs=1e-12)

    def test_minimum_lambda_enforced(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        with pytest.raises(DomainError):
            eigenfunction_asym(p, 2.0, 0.5, 1)

    def test_param_dependent_relative_error_decays(self, cache):
        p = cache.problem("pd_example")
        worst = {}
        for n in (20, 40):
            rec = cache.record("pd_example", n)
            xs, y = integrate(p, rec.lam, IntegratorConfig(2048))
            xs, y = xs[::16], y[::16]
            errs = [max(abs(y1 - eigenfunction_asym(p, rec.lam, x, 1)),
                        abs(y2 - eigenfunction_asym(p, rec.lam, x, 2)))
                    for x, (y1, y2) in zip(xs, y)]
            amp = float(np.max(np.abs(y)))
            worst[n] = max(errs)
            # absolute error stays O(1) while the amplitude grows like lam
            assert worst[n] / amp < 0.005
        assert worst[40] < worst[20]

    def test_classical_error_second_order(self):
        p = DiracProblem(1.0, named_potential("sin2x"), Classical(0.6, 0.8))
        worst = {}
        for n in (15, 30):
            rec = find_eigenvalue(p, n, IntegratorConfig(2048))
            xs, y = integrate(p, rec.lam, IntegratorConfig(2048))
            worst[n] = max(max(abs(y1 - eigenfunction_asym(p, rec.lam, x, 1)),
                               abs(y2 - eigenfunction_asym(p, rec.lam, x, 2)))
                           for x, (y1, y2) in zip(xs[::16], y[::16]))
        assert worst[15] < 0.02
        assert worst[30] < worst[15] / 2.0
