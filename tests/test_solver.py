"""Forward-solver tests against closed-form oracles.

For m = 0 the system has the exact solution y1 = A sin(phase), y2 = -A cos(phase)
with phase = lam*x - integral(V) + const, and for V = 0 with any mass the
constant-coefficient system is solvable by hand.  Those closed forms are the
oracles here; none of them go through the integrator.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import canonical_pd, unreachable_angle
from dirac_nodal import (Classical, DiracProblem, EigenRecord,
                         EigenSearchConfig, IntegratorConfig, DegenerateComponent,
                         IntegrationFailure, IterationFailure, Potential,
                         RotationLimitExceeded, ToleranceNotMet,
                         UnsupportedPrediction, characteristic, extract_nodes,
                         find_eigenvalue, find_eigenvalues, integrate,
                         make_potential_sampled, named_potential,
                         node_count_prediction, DomainError)
from dirac_nodal import AsymptoticConstants, cli, mean_shift
from dirac_nodal import solver as solver_mod

PI = math.pi
FAST = IntegratorConfig(n_steps=1024)


def pd_rotation_characteristic(lam, alpha, beta, a0, b0, a1, b1):
    """Closed-form characteristic for V = 0, m = 0, parameter-dependent."""
    y10 = -(lam * math.sin(alpha) + b0)
    y20 = lam * math.cos(alpha) + a0
    c, s = math.cos(lam * PI), math.sin(lam * PI)
    y1 = c * y10 - s * y20
    y2 = s * y10 + c * y20
    return (lam * math.cos(beta) + a1) * y1 + (lam * math.sin(beta) + b1) * y2


def bisect_root(f, a, b, iters=100):
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def bisect_eigenvalue(problem, rec, iters=100):
    """The eigenvalue by plain bisection of the characteristic function on the
    record's bracket, on the mesh of the record's own steps."""
    mesh = solver_mod._mesh(problem, rec.steps)
    lo, hi = rec.bracket
    f_lo = solver_mod._characteristic_batch(problem, [lo], mesh)[0]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = solver_mod._characteristic_batch(problem, [mid], mesh)[0]
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def bisect_nodes(problem, lam, component, n_steps, iters=44):
    """Interior nodes of one component: zeros on the mesh, and sign changes
    each bisected on a partial Magnus step from its cell's left mesh node."""
    xs, traj = solver_mod._trajectory(problem, lam, solver_mod._mesh(problem, n_steps))
    comp = traj[:, component - 1]
    near = np.abs(comp) <= 1e-12 * np.max(np.abs(comp))
    solid = ~near
    cells = np.nonzero(solid[:-1] & solid[1:] & (comp[:-1] * comp[1:] < 0))[0]
    x0, (y1, y2) = xs[cells], traj[cells].T
    lo, hi, f_lo = x0.copy(), xs[cells + 1].copy(), comp[cells].copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        h = mid - x0
        p = solver_mod._entries(problem.mass, h, *solver_mod._sample(problem, x0, h), lam)
        row = p[component - 1]   # P11, P12 or P21, P22
        f_mid = row[0] * y1 + row[1] * y2
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    return np.sort(np.concatenate((xs[1:-1][near[1:-1]], 0.5 * (lo + hi))))


def sign_only_chi(problem, lams, mesh):
    """A characteristic function that gives away only its sign, with roots at
    n + 0.0372: regula falsi steps gain nothing over bisection on it."""
    return np.sign(np.sin(PI * (np.asarray(lams, dtype=float) - 0.0372)))


def count_terminal(monkeypatch):
    """Record the number of lambdas in every _terminal call, with or without
    the angle."""
    sizes = []
    terminal = solver_mod._terminal

    def counted(problem, lams, mesh, angle=False):
        sizes.append(np.size(lams))
        return terminal(problem, lams, mesh, angle)

    monkeypatch.setattr(solver_mod, "_terminal", counted)
    return sizes


def trajectory_angles(problem, lam, n_steps):
    """The Prufer angle theta (y1 = r sin theta, y2 = -r cos theta) at every
    node of the mesh, unwrapped step by step along the trajectory, with
    theta(0) in (alpha - pi/2, alpha + 3 pi/2); and the angle psi, modulo pi,
    in [beta, beta + pi) that an eigenfunction has at pi."""
    _, traj = solver_mod._trajectory(problem, lam, solver_mod._mesh(problem, n_steps))
    theta = np.unwrap(np.arctan2(traj[:, 0], -traj[:, 1]))
    b = problem.boundary
    theta -= 2 * PI * math.floor((theta[0] - b.alpha + PI / 2) / (2 * PI))
    if isinstance(b, Classical):
        return theta, b.beta
    psi = math.atan2(lam * math.sin(b.beta) + b.b1, lam * math.cos(b.beta) + b.a1)
    return theta, b.beta + (psi - b.beta) % PI


def trajectory_rotation(problem, lam, n_steps):
    """Rotation index k, theta(pi) = psi + k pi, counted along the trajectory."""
    theta, psi = trajectory_angles(problem, lam, n_steps)
    k = (theta[-1] - psi) / PI
    assert abs(k - round(k)) < 1e-3, "lambda is not an eigenvalue"
    return round(k)


class TestIntegrate:
    def test_zero_potential_massless_closed_form(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        xs, y = integrate(p, 3.0, FAST)
        assert np.max(np.abs(y[:, 0] - np.sin(3 * xs))) < 1e-8
        assert np.max(np.abs(y[:, 1] + np.cos(3 * xs))) < 1e-8

    def test_trajectory_arrays(self):
        p = DiracProblem(0.5, named_potential("sin2x"), Classical(0.3, 0.7))
        traj = integrate(p, 3.0, FAST)
        assert traj.xs.shape == (1025,) and traj.y.shape == (1025, 2)
        assert traj.xs[0] == 0.0 and traj.xs[-1] == pytest.approx(PI)
        assert np.all(np.diff(traj.xs) > 0)

    def test_initial_condition_classical(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(PI / 2, 0.1))
        y1, y2 = integrate(p, 4.0, FAST).y[0]
        assert (y1, y2) == (1.0, pytest.approx(0.0, abs=1e-16))

    def test_initial_condition_param_dependent(self):
        b = canonical_pd(0.0, 0.0)
        # alpha = 0 gives a0 = 0, b0 = -1: y(0) = (1, lam*1 + 0)
        p = DiracProblem(0.0, named_potential("zero"), b)
        lam = 7.5
        y1, y2 = integrate(p, lam, FAST).y[0]
        assert y1 == 1.0
        assert y2 == lam

    def test_massive_zero_potential_closed_form(self):
        # y1 = (lam+m)/w sin(wx), y2 = -cos(wx) with w = sqrt(lam^2 - m^2)
        m, lam = 0.7, 6.0
        w = math.sqrt(lam * lam - m * m)
        p = DiracProblem(m, named_potential("zero"), Classical(0.0, 0.0))
        xs, y = integrate(p, lam, FAST)
        assert np.max(np.abs(y[:, 0] - (lam + m) / w * np.sin(w * xs))) < 1e-10
        assert np.max(np.abs(y[:, 1] + np.cos(w * xs))) < 1e-10

    def test_constant_potential_is_phase_shift(self):
        c = 1.3
        p = DiracProblem(0.0, named_potential("constant", c=c), Classical(0.2, 0.0))
        lam = 5.0
        xs, y = integrate(p, lam, IntegratorConfig(n_steps=256))
        worst = np.max(np.abs(y[:, 0] - np.sin((lam - c) * xs + 0.2)))
        assert worst < 1e-12  # propagator is exact for constant coefficients

    def test_overflow_reported(self):
        p = DiracProblem(300.0, named_potential("zero"), canonical_pd(0.3, 0.4))
        with pytest.raises(IntegrationFailure):
            integrate(p, 0.0)


class TestCharacteristic:
    def test_integer_lambda_is_root(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        for n in (3, 7):
            assert abs(characteristic(p, float(n), FAST)) < 1e-8

    def test_half_integer_lambda_is_extremal(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        for lam in (3.5, 6.5):
            assert abs(characteristic(p, lam, FAST)) == pytest.approx(1.0, abs=1e-8)

    def test_residual_at_found_eigenvalue(self, cache):
        rec = cache.record("sin_half", 12)
        p = cache.problem("sin_half")
        assert abs(characteristic(p, rec.lam, IntegratorConfig(2048))) < 1e-8


class TestFindEigenvalue:
    def test_zero_potential(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        rec = find_eigenvalue(p, 5, FAST)
        assert rec.lam == pytest.approx(5.0, abs=1e-9)
        assert rec.bracket[0] < rec.lam < rec.bracket[1]

    def test_constant_shift(self):
        p = DiracProblem(0.0, named_potential("constant", c=1.0), Classical(0.0, 0.0))
        assert find_eigenvalue(p, 5, FAST).lam == pytest.approx(6.0, abs=1e-9)

    def test_beta_quarter_shift(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, PI / 4))
        assert find_eigenvalue(p, 5, FAST).lam == pytest.approx(5.25, abs=1e-9)

    def test_massive_closed_form(self, cache):
        recs = cache.records("zero_half_mass", [3, 10, 25, 40])
        for n, rec in recs.items():
            assert rec.lam == pytest.approx(math.sqrt(n * n + 0.25), abs=1e-10)

    def test_param_dependent_against_rotation_form(self):
        args = (0.3, -0.2)
        b = canonical_pd(*args)
        p = DiracProblem(0.0, named_potential("zero"), b)
        for n in (5, 9, -7):
            rec = find_eigenvalue(p, n, FAST)
            exact = bisect_root(
                lambda L: pd_rotation_characteristic(L, b.alpha, b.beta, b.a0,
                                                     b.b0, b.a1, b.b1),
                rec.lam - 0.01, rec.lam + 0.01)
            assert rec.lam == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("label", ["sin_half", "pd_example"])
    def test_seeds_once_per_call(self, cache, label, monkeypatch):
        # one set of expansion constants per call, and each seed bitwise
        # mu + v / pi + c / n as computed index by index
        p = cache.problem(label)
        indices = [-7, -1, 1, 2, 3, 17, 40]
        mu = [n - 2 if label == "pd_example" and n > 0 else n for n in indices]
        second = AsymptoticConstants.from_problem(p).second_order
        expected = [float(k) + mean_shift(p) / PI + second / n
                    for k, n in zip(mu, indices)]
        made, seen = [], []
        from_problem = AsymptoticConstants.from_problem
        monkeypatch.setattr(AsymptoticConstants, "from_problem", classmethod(
            lambda cls, problem: made.append(problem) or from_problem(problem)))
        start_levels = solver_mod._start_levels
        monkeypatch.setattr(solver_mod, "_start_levels", lambda problem, seeds, *rest:
                            seen.append(seeds.tolist()) or start_levels(problem, seeds, *rest))
        find_eigenvalues(p, indices, cache.integrator(label))
        assert made == [p] and seen == [expected]

    def test_records_strictly_ordered(self, cache):
        recs = cache.records("sin_half", list(range(6, 16)))
        lams = [recs[n].lam for n in range(6, 16)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_bracket_cap_raises(self, monkeypatch):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        unreachable_angle(monkeypatch, 5, at=5.3)
        with pytest.raises(IterationFailure,
                           match="no bracket .* after 16 evaluations: "
                                 "eigenvalue index 5"):
            find_eigenvalue(p, 5, FAST, EigenSearchConfig(max_iterations=16))

    def test_rotation_limit_exceeded(self):
        # at lambda ~ 100 one step of pi/64 may turn the angle by about 4.9 rad
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        coarse = IntegratorConfig(n_steps=64)
        assert find_eigenvalue(p, 20, coarse).lam == pytest.approx(20.0, abs=1e-9)
        with pytest.raises(RotationLimitExceeded, match="64-step mesh"):
            find_eigenvalue(p, 100, coarse)

    def test_cancelled_terminal_state_raises(self):
        # case I, m = 8: index 1 decays from x = 0 across the mass gap, so its
        # state at pi is roundoff; index 2 decays towards x = 0 and is found
        p = DiracProblem(8.0, named_potential("sin2x"), canonical_pd(-0.4, 0.5))
        rec = find_eigenvalue(p, 2)
        assert abs(rec.lam - find_eigenvalue(p, 2, IntegratorConfig(8192)).lam) <= 1e-10
        assert trajectory_rotation(p, rec.lam, 4096) == 1
        with pytest.raises(IntegrationFailure, match="cancelled"):
            find_eigenvalue(p, 1)

    @pytest.mark.parametrize("boundary", [Classical(0.0, 0.0), canonical_pd(0.4, 0.5)],
                             ids=["classical", "case_one"])
    def test_index_zero_rejected(self, boundary):
        p = DiracProblem(0.0, named_potential("zero"), boundary)
        with pytest.raises(DomainError, match="nonzero"):
            find_eigenvalues(p, [3, 0], FAST)

    def test_residual_is_scale_free(self):
        # case I, m = 8: the state at pi is about 1e10, so chi at the root is
        # about 3e-6 although lambda is converged to 1e-14
        p = DiracProblem(8.0, named_potential("sin2x"), canonical_pd(-0.4, 0.5))
        assert abs(find_eigenvalue(p, 2).residual) < 1e-12
        records = find_eigenvalues(DiracProblem(*SIN_CLASSICAL), range(3, 41))
        assert max(abs(r.residual) for r in records) < 1e-13

    def test_grid_independence(self, cache):
        p = cache.problem("sin_half")
        coarse = find_eigenvalues(p, [10, 25, 40], IntegratorConfig(4096))
        fine = find_eigenvalues(p, [10, 25, 40], IntegratorConfig(8192))
        for a, b in zip(coarse, fine):
            assert abs(a.lam - b.lam) < 16 * 1e-10


class TestRootFinder:
    """The safeguarded Illinois search that refines each scan bracket."""

    @pytest.mark.parametrize("label", ["sin_half", "zero_half_mass", "pd_example"])
    def test_matches_bisection_reference(self, cache, label):
        recs = list(cache.records(label, [3, 10, 25, 40, -7]).values())
        ref = [bisect_eigenvalue(cache.problem(label), rec) for rec in recs]
        assert np.max(np.abs([r.lam for r in recs] - np.array(ref))) <= 1e-13

    @pytest.mark.parametrize("label", ["sin_half", "pd_example"])
    def test_record_independent_of_batch(self, cache, label):
        p, integ = cache.problem(label), cache.integrator(label)
        batch = find_eigenvalues(p, range(3, 41), integ)
        for rec in batch:
            alone = find_eigenvalue(p, rec.index, integ)
            assert alone == rec

    def test_loose_tolerance_evaluates_less(self, cache, monkeypatch):
        p, integ = cache.problem("sin_half"), cache.integrator("sin_half")
        sizes = count_terminal(monkeypatch)
        tight = find_eigenvalues(p, range(3, 41), integ, EigenSearchConfig())
        tight_evals = sum(sizes)
        sizes.clear()
        loose = find_eigenvalues(p, range(3, 41), integ,
                                 EigenSearchConfig(lambda_tolerance=1e-4))
        assert sum(sizes) < tight_evals
        assert max(abs(a.lam - b.lam) for a, b in zip(loose, tight)) <= 1e-4

    def test_terminal_calls_bounded(self, cache, monkeypatch):
        # a few bracket rounds, the root-finder rounds, one residual
        p, integ = cache.problem("sin_half"), cache.integrator("sin_half")
        sizes = count_terminal(monkeypatch)
        find_eigenvalues(p, range(3, 41), integ)
        assert len(sizes) <= 30

    def test_exact_zero_freezes(self):
        calls = []

        def line(x, open_):
            calls.append(open_.tolist())
            return x - 0.5

        roots, _ = solver_mod._illinois(line, [0.0, 0.0], [1.0, 0.9], [-0.5, -0.5],
                                        [0.5, 0.4], 1e-10, 16, str)
        assert roots[0] == 0.5   # the first regula falsi step lands on it
        assert abs(roots[1] - 0.5) <= 1e-10
        assert calls[0] == [0, 1] and all(c == [1] for c in calls[1:])

    def test_exhausted_cap_raises(self, monkeypatch):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        monkeypatch.setattr(solver_mod, "_characteristic_batch", sign_only_chi)
        recs = find_eigenvalues(p, range(3, 41), FAST)   # default cap of 48
        assert all(abs(r.lam - r.index - 0.0372) <= 1e-10 for r in recs)
        with pytest.raises(IterationFailure, match="eigenvalue index 5"):
            find_eigenvalue(p, 5, FAST, EigenSearchConfig(max_iterations=16))

    def test_exhausted_cap_exits_3_from_cli(self, tmp_path, monkeypatch):
        # in-process, so that the monkeypatched chi reaches the command
        doc = {"mass": 0.0,
               "potential": {"kind": "named", "name": "zero", "params": {}},
               "boundary": {"kind": "classical", "alpha": 0.0, "beta": 0.0},
               "solver": {"steps": 512, "max_iterations": 16}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.delenv("DIRAC_NODAL_LOG", raising=False)
        monkeypatch.setattr(solver_mod, "_characteristic_batch", sign_only_chi)
        res = CliRunner().invoke(cli.main, [
            "spectrum", "--problem", str(cfg), "--n-min", "4", "--n-max", "6",
            "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 3, res.output
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["type"] == "IterationFailure"
        assert not (tmp_path / "x.csv").exists()


HEAVY = (10.0, named_potential("zero"), Classical(0.3, 1.0))
POLY_M2 = (2.0, named_potential("poly", coeffs=[1.0, -2.0, 0.5]), Classical(0.3, 0.7))
SIN_CLASSICAL = (0.5, named_potential("sin2x"), Classical(0.3, 0.7))
# wells deeper than the mass gap: nearly degenerate pairs, and plateaus of
# theta(pi) that the bracket search has to jump across; the error estimates
# meet 1e-10 on 8192 steps, not on 4096
STRONG = (10.0, Potential(func=lambda x: 8.0 * np.sin(6.0 * x)), Classical(0.2, 0.9))


def step_characteristic(lam, m, a, height, alpha, beta):
    """Closed-form characteristic function of the classical problem with the
    potential step(a, height): the exact exponential of each constant piece,
    cos(w L) I + sin(w L) / w A with w^2 = (lam - V)^2 - m^2."""
    y = np.array([math.sin(alpha), -math.cos(alpha)], dtype=complex)
    for v, length in ((0.0, a), (height, PI - a)):
        b, c = v - m - lam, lam - v - m
        w = np.sqrt(complex((lam - v) ** 2 - m * m))
        s = np.sin(w * length) / w if w != 0 else length
        y = np.array([np.cos(w * length) * y[0] + s * b * y[1],
                      s * c * y[0] + np.cos(w * length) * y[1]])
    return float((math.cos(beta) * y[0] + math.sin(beta) * y[1]).real)


class TestErrorControl:
    """The search on the coarsest mesh of n_steps / 8, n_steps / 4, n_steps / 2
    and n_steps whose error estimate meets lambda_tol."""

    def test_levels(self):
        assert solver_mod._levels(4096) == (512, 1024, 2048, 4096)
        assert solver_mod._levels(1000) == (125, 250, 500, 1000)
        assert solver_mod._levels(4097) == (512, 1024, 2048, 4097)
        assert solver_mod._levels(64) == (8, 16, 32, 64)

    @pytest.mark.parametrize("args", [SIN_CLASSICAL, (2.0, named_potential(
        "poly", coeffs=[1.0, -2.0, 0.5]), Classical(0.3, 0.7))], ids=["sin2x", "poly"])
    def test_mesh_unchanged_without_breakpoints(self, args):
        p = DiracProblem(*args)
        assert p.potential.breakpoints.size == 0
        for n_steps in (64, 1000, 4096, 4097):
            h = PI / n_steps
            vbar, g = solver_mod._sample(p, np.arange(n_steps) * h, h)
            mesh = solver_mod._mesh(p, n_steps)
            assert mesh.h.shape == (n_steps,) and np.all(mesh.h == h)
            assert np.array_equal(mesh.vbar, vbar) and np.array_equal(mesh.g, g)
            assert np.array_equal(mesh.x, np.arange(n_steps + 1) * h)

    def test_breakpoints_are_mesh_nodes(self):
        values = np.sin(np.linspace(0.0, PI, 401))
        for potential, breaks in ((named_potential("step", a=1.0, height=2.0), [1.0]),
                                  (make_potential_sampled(values),
                                   np.linspace(0.0, PI, 401)[1:-1])):
            p = DiracProblem(0.5, potential, Classical(0.3, 0.7))
            mesh = solver_mod._mesh(p, 1024)
            assert np.all(np.isin(breaks, mesh.x))
            # a uniform node is on the mesh, or replaced by a breakpoint
            # within roundoff of it
            off = np.abs(np.arange(1025)[:, None] * (PI / 1024) - mesh.x).min(axis=1)
            assert np.all(off <= solver_mod._NODE_MERGE * PI / 1024)
            assert np.array_equal(np.diff(mesh.x), mesh.h) and mesh.x[-1] == PI
            xs, y = integrate(p, 7.3, IntegratorConfig(1024))
            assert np.array_equal(xs, mesh.x) and y.shape == (xs.size, 2)

    def test_breakpoint_at_a_uniform_node_adds_no_step(self):
        # grid node j pi / 400 equals uniform node k pi / 1024 for j a
        # multiple of 25, up to roundoff: 1024 + 399 - 15 steps
        p = DiracProblem(0.5, make_potential_sampled(np.sin(np.linspace(0.0, PI, 401))),
                         Classical(0.3, 0.7))
        mesh = solver_mod._mesh(p, 1024)
        assert mesh.h.size == 1408 and mesh.h.min() > 0.03 * PI / 1024
        assert np.all(np.isin(p.potential.breakpoints, mesh.x))
        # a breakpoint within roundoff of an interior node moves the node
        # onto itself; one within roundoff of an end is dropped
        for a, nodes in ((np.nextafter(PI / 1024, 0.0), [0.0, np.nextafter(PI / 1024, 0.0)]),
                         (np.nextafter(PI, 0.0), [0.0, PI])):
            p = DiracProblem(0.5, named_potential("step", a=a, height=2.0),
                             Classical(0.3, 0.7))
            mesh = solver_mod._mesh(p, 1024)
            assert mesh.h.size == 1024 and np.all(np.isin(nodes, mesh.x))

    @pytest.mark.parametrize("a", [PI / 4, 1.0], ids=["on_mesh", "off_mesh"])
    def test_step_against_closed_form(self, a):
        # piecewise-constant V propagates exactly once the jump is a mesh node
        m, height, alpha, beta = 0.5, 2.0, 0.3, 0.7
        p = DiracProblem(m, named_potential("step", a=a, height=height),
                         Classical(alpha, beta))
        for rec in find_eigenvalues(p, range(3, 31)):
            exact = bisect_root(
                lambda lam: step_characteristic(lam, m, a, height, alpha, beta),
                rec.lam - 0.01, rec.lam + 0.01)
            err = abs(rec.lam - exact)
            assert rec.steps == 512 and rec.error_estimate <= 1e-10
            assert err <= 1e-12 and (err <= 1e-13 or err <= rec.error_estimate)

    @pytest.mark.parametrize("label", ["sin_half", "pd_example"])
    def test_estimate_bounds_error(self, cache, label):
        p = cache.problem(label)
        indices = list(range(-20, 0)) + list(range(1, 61))
        records = cache.records(label, indices)
        ref = find_eigenvalues(p, indices, IntegratorConfig(16384),
                               EigenSearchConfig(lambda_tolerance=1e-13))
        for r in ref:
            rec = records[r.index]
            err = abs(rec.lam - r.lam)
            assert err <= 1e-10 and rec.error_estimate <= 1e-10
            assert err <= 1e-13 or err <= rec.error_estimate

    def test_estimate_divides_only_inside_the_band(self):
        # d1 a power of two, so that rho = d1 * rho / d1 exactly
        lo, hi = solver_mod._RHO_BAND
        d1 = -2.0 ** -30
        rhos = np.array([16.0, lo, hi, lo - 1e-9, hi + 1e-9, 1.0, -16.0])
        est = solver_mod._error_estimate(np.full(rhos.size, d1), d1 * rhos)
        factor = solver_mod._RICHARDSON_SAFETY * -d1
        assert est[:3] == pytest.approx([factor / 15, factor / (lo - 1),
                                         factor / (hi - 1)], rel=1e-15)
        assert np.all(est[3:] == -d1)
        # no warning where d1 is 0 or not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = solver_mod._error_estimate(np.array([0.0, 0.0, np.nan, np.inf]),
                                             np.array([0.0, d1, d1, d1]))
        assert est.tolist() == [0.0, 0.0, math.inf, math.inf]

    @pytest.mark.parametrize("label", ["sin_half", "pd_example"])
    def test_smooth_indices_stop_on_an_eighth(self, cache, label, monkeypatch):
        # at the default 4096 steps every index is solved on 512 steps, and
        # one chi on 256 and one on 128 steps give the batch's estimates
        p = cache.problem(label)
        calls = {}
        terminal = solver_mod._terminal

        def counted(problem, lams, mesh, angle=False):
            calls[mesh.vbar.size] = calls.get(mesh.vbar.size, 0) + 1
            return terminal(problem, lams, mesh, angle)

        monkeypatch.setattr(solver_mod, "_terminal", counted)
        batch = find_eigenvalues(p, range(3, 41))
        assert {r.steps for r in batch} == {512}
        assert set(calls) == {512, 256, 128}
        assert calls[512] <= 10 and calls[256] == calls[128] == 1
        monkeypatch.undo()
        for rec in batch[::6]:
            assert find_eigenvalue(p, rec.index) == rec

    @pytest.mark.parametrize("n_steps", [64, 1000, 4097])
    def test_uneven_step_counts(self, n_steps):
        # V = 0: lambda_n = sqrt(n^2 + m^2), exact on every mesh; on 64 steps
        # the larger seeds start one mesh finer, where one step turns less
        p = DiracProblem(0.5, named_potential("zero"), Classical(0.0, 0.0))
        levels = solver_mod._levels(n_steps)
        records = find_eigenvalues(p, range(3, 9), IntegratorConfig(n_steps))
        for rec in records:
            assert rec.lam == pytest.approx(math.sqrt(rec.index ** 2 + 0.25), abs=1e-10)
            assert rec.steps in levels and rec.error_estimate <= 1e-10
        if n_steps == 64:
            assert [r.steps for r in records] == [16, 32, 32, 32, 32, 64]
        else:
            assert {r.steps for r in records} == {levels[0]}
        if n_steps > 64:
            p = DiracProblem(*SIN_CLASSICAL)
            ref = find_eigenvalues(p, range(3, 21), IntegratorConfig(16384),
                                   EigenSearchConfig(lambda_tolerance=1e-13))
            for rec, r in zip(find_eigenvalues(p, range(3, 21),
                                               IntegratorConfig(n_steps)), ref):
                assert abs(rec.lam - r.lam) <= 1e-10 and rec.steps in levels

    def test_mixed_levels_batch_invariance(self):
        p = DiracProblem(*SIN_CLASSICAL)
        search = EigenSearchConfig(lambda_tolerance=1e-12)
        batch = find_eigenvalues(p, range(3, 41), IntegratorConfig(4096), search)
        assert {r.steps for r in batch} == {1024, 2048}
        for rec in batch[::5] + batch[-1:]:
            assert find_eigenvalue(p, rec.index, IntegratorConfig(4096), search) == rec

    def test_refined_estimate_is_difference_of_meshes(self):
        # solved on 512, 1024 and 2048 steps: the ratio of the differences
        # is near 16, so the estimate is the divided one
        p = DiracProblem(*SIN_CLASSICAL)
        search = EigenSearchConfig(lambda_tolerance=1e-12)
        rec = find_eigenvalue(p, 40, IntegratorConfig(4096), search)
        lam_1024, lam_512 = (bisect_root(
            lambda lam: characteristic(p, lam, IntegratorConfig(n)),
            rec.lam - 1e-6, rec.lam + 1e-6) for n in (1024, 512))
        rho = (lam_512 - lam_1024) / (lam_1024 - rec.lam)
        assert rec.steps == 2048 and 15.0 < rho < 17.0
        assert rec.error_estimate == pytest.approx(
            solver_mod._RICHARDSON_SAFETY * abs(lam_1024 - rec.lam) / (rho - 1.0),
            rel=1e-2)
        assert rec.bracket[0] < rec.lam < rec.bracket[1]
        assert rec.bracket[1] - rec.bracket[0] <= 1e-12

    def test_strong_potential_needs_8192_steps(self):
        # the Richardson estimate's safety factor keeps V = 8 sin 6x with
        # m = 10 short of 1e-10 on 4096 steps; it meets it on 8192
        p = DiracProblem(*STRONG)
        indices = list(range(-12, -1)) + list(range(1, 13))
        with pytest.raises(ToleranceNotMet, match=r"finest mesh \(4096 steps\)"):
            find_eigenvalues(p, indices, IntegratorConfig(4096))
        records = find_eigenvalues(p, indices, IntegratorConfig(8192))
        assert max(r.error_estimate for r in records) <= 1e-10

    def test_refine_widens_then_gives_up(self):
        # V = 0, m = 0: chi = -sin(pi lambda), roots at the integers; without a
        # slope the prediction is the seed, 3e-9 from the root
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        mesh = solver_mod._mesh(p, 256)
        roots, slopes, lo, hi = solver_mod._refine(
            p, np.array([7.0 + 3e-9]), np.array([np.nan]), mesh, 1e-10, 48, str)
        assert abs(roots[0] - 7.0) <= 1e-10 and lo[0] < 7.0 < hi[0]
        assert slopes[0] == pytest.approx(-PI, rel=1e-3)
        with pytest.raises(IterationFailure, match="keeps its sign"):
            solver_mod._refine(p, np.array([7.5]), np.array([1.0]), mesh, 1e-10,
                               48, str)

    def test_cap_raises(self):
        p = DiracProblem(*SIN_CLASSICAL)
        with pytest.raises(ToleranceNotMet, match=r"finest mesh \(256 steps\).*"
                                                  r"eigenvalue index 40 \("):
            find_eigenvalues(p, range(30, 41), IntegratorConfig(256))

    def test_cap_exits_3_from_cli(self, tmp_path):
        doc = {"mass": 0.5,
               "potential": {"kind": "named", "name": "sin2x", "params": {}},
               "boundary": {"kind": "classical", "alpha": 0.3, "beta": 0.7},
               "solver": {"steps": 256}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli.main, [
            "spectrum", "--problem", str(cfg), "--n-min", "30", "--n-max", "40",
            "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 3, res.output
        payload = json.loads(res.stderr.strip().splitlines()[-1])
        assert payload["type"] == "ToleranceNotMet"
        assert not (tmp_path / "x.csv").exists()

    def test_four_argument_record(self, cache):
        # a record built by hand, as a caller with its own eigenvalue does
        p, searched = cache.problem("sin_half"), cache.record("sin_half", 16)
        rec = EigenRecord(16, searched.lam, 0.0, (searched.lam, searched.lam))
        assert rec.steps is None and rec.error_estimate is None
        integ = cache.integrator("sin_half")
        for component in (1, 2):
            assert np.array_equal(extract_nodes(p, rec, component, integ).points,
                                  extract_nodes(p, searched, component, integ).points)


class TestRotationLabels:
    """Label n is the eigenvalue whose eigenfunction turns theta(pi) = psi +
    k pi, k = n (classical) or n - 1 (case I), counted here independently
    along the trajectory."""

    @pytest.mark.parametrize("args,indices,steps", [
        (HEAVY, range(1, 61), 4096),
        (POLY_M2, range(3, 61), 4096),
        (SIN_CLASSICAL, [-2, -1, 1, 2] + list(range(-20, -2)), 4096),
        (STRONG, list(range(-12, -1)) + list(range(1, 13)), 16384),
    ], ids=["heavy_mass", "poly_m2", "sin2x_small_and_negative", "strong_potential"])
    def test_label_is_rotation_index(self, args, indices, steps):
        p = DiracProblem(*args)
        records = find_eigenvalues(p, indices, IntegratorConfig(steps))
        assert [r.index for r in records] == sorted(indices)
        for rec in records:
            assert trajectory_rotation(p, rec.lam, rec.steps) == rec.index

    def test_case_one_label_offset(self, cache):
        p = cache.problem("pd_example")
        indices = [-6, -2, -1, 1, 2, 3, 20]
        for n, rec in cache.records("pd_example", indices).items():
            assert trajectory_rotation(p, rec.lam, rec.steps) == n - 1

    def test_small_labels_in_order(self, cache):
        lams = [r.lam for r in cache.records("sin_half", [-3, -2, -1, 1, 2, 3]).values()]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("label", ["sin_half", "pd_example"])
    def test_angle_matches_trajectory(self, cache, label):
        p, integ = cache.problem(label), cache.integrator(label)
        mesh = solver_mod._mesh(p, integ.n_steps)
        lams = np.linspace(-45.0, 45.0, 91)
        _, _, theta = solver_mod._terminal(p, lams, mesh, angle=True)
        along = [trajectory_angles(p, lam, integ.n_steps)[0][-1] for lam in lams]
        assert np.max(np.abs(theta - along)) <= 1e-9
        assert np.all(np.diff(theta) > 0)

    @pytest.mark.parametrize("args", [HEAVY, STRONG],
                             ids=["heavy_mass", "strong_potential"])
    def test_angle_matches_trajectory_over_many_blocks(self, args):
        # with m = 10 the angle is unwrapped over 32 blocks of 128 steps
        p = DiracProblem(*args)
        mesh = solver_mod._mesh(p, 4096)
        assert solver_mod._block_level(p, [0.0], mesh) == 7
        lams = np.linspace(-45.0, 45.0, 31)
        _, _, theta = solver_mod._terminal(p, lams, mesh, angle=True)
        along = [trajectory_angles(p, lam, 4096)[0][-1] for lam in lams]
        assert np.max(np.abs(theta - along)) <= 1e-9
        assert np.all(np.diff(theta) > 0)

    @pytest.mark.parametrize("args", [HEAVY, SIN_CLASSICAL])
    def test_no_scan(self, args, monkeypatch):
        sizes = count_terminal(monkeypatch)
        find_eigenvalues(DiracProblem(*args), range(3, 41))
        assert 0 < max(sizes) <= 38
        sizes.clear()
        find_eigenvalue(DiracProblem(*args), 10)
        assert set(sizes) == {1}


class TestExtractNodes:
    def test_zero_potential_component1(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        rec = find_eigenvalue(p, 5, FAST)
        ns = extract_nodes(p, rec, 1, FAST)
        assert ns.count == 4
        assert np.allclose(ns.points, [j * PI / 5 for j in range(1, 5)], atol=1e-10)

    def test_zero_potential_component2(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        rec = find_eigenvalue(p, 5, FAST)
        ns = extract_nodes(p, rec, 2, FAST)
        assert ns.count == 5
        assert np.allclose(ns.points, [(j - 0.5) * PI / 5 for j in range(1, 6)],
                           atol=1e-10)

    def test_lengths_telescope(self, cache):
        ns = cache.nodal("sin_half", 24, 1)
        assert math.fsum(ns.lengths) == pytest.approx(
            ns.points[-1] - ns.points[0], abs=1e-12)

    def test_sign_change_across_each_node(self, cache):
        p = cache.problem("sin_half")
        rec = cache.record("sin_half", 16)
        ns = cache.nodal("sin_half", 16, 1)
        xs, y = integrate(p, rec.lam, IntegratorConfig(4096))
        y1 = y[:, 0]
        for x in ns.points:
            k = int(np.searchsorted(xs, x))
            assert y1[k - 1] * y1[k] < 0  # node interior to a sign-change cell

    def test_grid_independence_of_nodes(self, cache):
        p = cache.problem("sin_half")
        rec = cache.record("sin_half", 25)
        a = extract_nodes(p, rec, 1, IntegratorConfig(4096))
        b = extract_nodes(p, rec, 1, IntegratorConfig(8192))
        assert a.count == b.count
        assert np.max(np.abs(a.points - b.points)) < 1e-8

    @pytest.mark.parametrize("label,n,component", [
        ("sin_half", 16, 1), ("sin_half", 40, 2), ("pd_example", 20, 1),
        ("zero_half_mass", 25, 2)])
    def test_nodes_match_bisection_reference(self, cache, label, n, component):
        p, rec = cache.problem(label), cache.record(label, n)
        ns = extract_nodes(p, rec, component, IntegratorConfig(rec.steps))
        ref = bisect_nodes(p, rec.lam, component, rec.steps)
        assert ns.count == ref.size
        assert np.max(np.abs(ns.points - ref)) <= 1e-13

    @pytest.mark.parametrize("args,indices", [
        (HEAVY, range(3, 21)), (SIN_CLASSICAL, range(3, 41))],
        ids=["heavy_mass", "sin2x"])
    def test_count_equals_angle_crossings(self, args, indices):
        # component 1 vanishes where theta crosses k pi, component 2 where it
        # crosses k pi + pi/2
        p = DiracProblem(*args)
        for rec in find_eigenvalues(p, indices):
            theta, _ = trajectory_angles(p, rec.lam, 4096)
            for component, shift in ((1, 0.0), (2, PI / 2)):
                crossings = np.abs(np.diff(np.floor((theta - shift) / PI))).sum()
                assert extract_nodes(p, rec, component).count == crossings

    def test_refine_iterations_cap_raises(self, cache, monkeypatch):
        p, integ = cache.problem("sin_half"), cache.integrator("sin_half")
        monkeypatch.setattr(solver_mod, "_NODE_ITERATIONS", 1)
        with pytest.raises(IterationFailure, match="component 1 node in"):
            extract_nodes(p, cache.record("sin_half", 10), 1, integ)

    def test_component_without_interior_zero(self):
        # V = 0, m = 0, alpha = beta = 0, n = 1: y1 = sin x, y2 = -cos x
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        rec = find_eigenvalue(p, 1, FAST)
        first, second = solver_mod.extract_nodal_sets(p, [rec], (1, 2), FAST)
        assert first.count == 0 and first.lengths.size == 0
        assert second.count == 1
        assert second.points[0] == pytest.approx(PI / 2, abs=1e-12)

    def test_batch_is_bitwise_each_record_alone(self):
        p = DiracProblem(*SIN_CLASSICAL)
        records = find_eigenvalues(p, range(3, 41))
        batch = solver_mod.extract_nodal_sets(p, records, (1, 2))
        alone = [extract_nodes(p, rec, c) for rec in records for c in (1, 2)]
        assert [(s.index, s.component) for s in batch] == \
            [(s.index, s.component) for s in alone]
        for a, b in zip(batch, alone):
            assert np.array_equal(a.points, b.points)

    def test_degenerate_component_guard(self, monkeypatch):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        rec = find_eigenvalue(p, 5, FAST)

        def fake_trajectory(problem, lam, mesh):
            xs = np.linspace(0.0, PI, 65)
            out = np.zeros((65, 2))
            out[:, 0] = 0.0   # identically-zero first component
            out[:, 1] = 1.0
            return xs, out

        monkeypatch.setattr(solver_mod, "_trajectory", fake_trajectory)
        with pytest.raises(DegenerateComponent):
            extract_nodes(p, rec, 1, FAST)


class TestNodeNewton:
    """The safeguarded Newton iteration of node refinement on one cell [0, 1]
    whose component is f(x) = x**2 - 0.09, zero at 0.3, with the derivative
    the ODE gives replaced by ``df``."""

    @staticmethod
    def refine(monkeypatch, df):
        # the partial step from x0 = 0 at the state (1, 0) gives y1 = f and
        # y2 = -df: with V = 0, m = 0 and lambda = 1, y1' = -y2 = df
        seen = []

        def entries(m, h, vbar, g, lams):
            seen.extend(h.tolist())
            p = np.zeros((2, 2) + h.shape)
            p[0, 0], p[1, 0] = h * h - 0.09, -df(h)
            return p

        monkeypatch.setattr(solver_mod, "_entries", entries)
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        one = np.ones(1)
        root = solver_mod._node_newton(p, one, np.zeros(1, dtype=int),
                                       np.array([[1.0], [0.0]]), 0 * one, one,
                                       -0.09 * one, 0.91 * one, one, str)
        return root[0], seen

    @pytest.mark.parametrize("slope", [1e-3, 0.0], ids=["leaves_cell", "zero"])
    def test_step_outside_bracket_bisects(self, monkeypatch, slope):
        # at the first iterate, the secant point 0.09, the Newton step lands
        # far outside [0.09, 1] (or at infinity): the next iterate is the
        # midpoint of that bracket, and no RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root, seen = self.refine(
                monkeypatch, lambda x: np.where(x < 0.1, slope, 2 * x))
        assert seen[0] == pytest.approx(0.09)
        assert seen[1] == 0.5 * (seen[0] + 1.0)
        assert all(0.0 < x < 1.0 for x in seen)
        assert root == pytest.approx(0.3, abs=1e-14)

    def test_exact_derivative_converges_in_few_steps(self, monkeypatch):
        root, seen = self.refine(monkeypatch, lambda x: 2 * x)
        assert root == pytest.approx(0.3, abs=1e-14)
        assert len(seen) <= 6


def loop_reference(problem, lams, mesh):
    """States at every node of the mesh, shape (N + 1, 2, K) for N steps of
    any widths, by a plain per-step loop: step tables with both branches of
    cosh/cos and sinh/sin evaluated everywhere, then one matrix-vector
    product per step."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    m = problem.mass
    h, x0 = mesh.h, mesh.x[:-1]
    v_lo = problem.potential(x0 + (0.5 - math.sqrt(3.0) / 6.0) * h)
    v_hi = problem.potential(x0 + (0.5 + math.sqrt(3.0) / 6.0) * h)
    vbar = 0.5 * (v_lo + v_hi)
    g = ((math.sqrt(3.0) / 6.0) * m * h * h * (v_hi - v_lo))[:, None]
    w = lams[None, :] - vbar[:, None]
    bb = -h[:, None] * (w + m)
    cc = h[:, None] * (w - m)
    s2 = g * g + bb * cc
    t = np.sqrt(np.abs(s2))
    ec = np.where(s2 > 0, np.cosh(t), np.cos(t))
    small = t < 1e-8
    t_safe = np.where(small, 1.0, t)
    es = np.where(s2 > 0, np.sinh(t_safe), np.sin(t_safe)) / t_safe
    es = np.where(small, 1.0 + s2 / 6.0, es)
    p11, p12, p21, p22 = ec - es * g, es * bb, es * cc, ec + es * g

    out = np.empty((h.size + 1, 2, lams.size))
    out[0] = solver_mod._initial_state(problem, lams)
    for i in range(h.size):
        y1, y2 = out[i]
        out[i + 1, 0] = p11[i] * y1 + p12[i] * y2
        out[i + 1, 1] = p21[i] * y1 + p22[i] * y2
    return out


KERNEL_PROBLEMS = {
    "heavy_zero": (10.0, named_potential("zero"), Classical(0.3, 1.0)),
    "pd_example": (0.5, named_potential("sin2x"), canonical_pd(0.4, 0.5)),
    "poly_m6": (6.0, named_potential("poly", coeffs=[1.0, -2.0, 0.5]),
                Classical(0.2, 0.9)),
    # the jump at x = 1 is a mesh node off the uniform ones: steps of two widths
    "step_off_mesh": (0.5, named_potential("step", a=1.0, height=2.0),
                      Classical(0.3, 0.7)),
}

# 400 cells: on 1024 and 4096 uniform steps the mesh has 1408 and 4480 steps
SAMPLED = (0.5, make_potential_sampled(np.sin(np.linspace(0.0, PI, 401))),
           Classical(0.3, 0.7))


class TestPropagationKernel:
    """The pairwise tree and its down-sweep against the sequential loop."""

    @pytest.mark.parametrize("n_steps", [1000, 4096, 4097])
    @pytest.mark.parametrize("label", sorted(KERNEL_PROBLEMS))
    def test_matches_sequential_loop(self, label, n_steps):
        p = DiracProblem(*KERNEL_PROBLEMS[label])
        # 494 values from below the mass gap, through it, to far above it
        lams = np.linspace(-p.mass - 6.0, p.mass + 40.0, 494)
        inside, outside = 0.3 * p.mass, p.mass + 12.5
        assert abs(inside) < p.mass < abs(outside)
        mesh = solver_mod._mesh(p, n_steps)
        ref = loop_reference(p, np.concatenate([lams, [inside, outside]]), mesh)
        scale = np.max(np.abs(ref), axis=(0, 1))   # max |y| per lambda

        y1, y2 = solver_mod._terminal(p, lams, mesh)
        err = np.maximum(np.abs(y1 - ref[-1, 0, :-2]), np.abs(y2 - ref[-1, 1, :-2]))
        assert np.all(err <= 1e-11 * scale[:-2])

        for k, lam in ((-2, inside), (-1, outside)):
            y1, y2 = solver_mod._terminal(p, [lam], mesh)
            assert abs(y1[0] - ref[-1, 0, k]) <= 1e-11 * scale[k]
            assert abs(y2[0] - ref[-1, 1, k]) <= 1e-11 * scale[k]
            xs, traj = solver_mod._trajectory(p, lam, mesh)
            assert np.array_equal(xs, mesh.x) and xs[-1] == pytest.approx(PI)
            assert np.max(np.abs(traj - ref[:, :, k])) <= 1e-11 * scale[k]

    @pytest.mark.parametrize("args,n_steps,size", [
        (KERNEL_PROBLEMS["pd_example"], 64, 64),
        (KERNEL_PROBLEMS["pd_example"], 1000, 1000),
        (KERNEL_PROBLEMS["pd_example"], 4096, 4096),
        (KERNEL_PROBLEMS["pd_example"], 4097, 4097),
        (SAMPLED, 1024, 1408), (SAMPLED, 4096, 4480)],
        ids=["64", "1000", "4096", "4097", "sampled_1408", "sampled_4480"])
    def test_trajectory_ends_at_terminal_state(self, args, n_steps, size):
        # one tree: the down-sweep's last state is the product of all steps
        p = DiracProblem(*args)
        mesh = solver_mod._mesh(p, n_steps)
        assert mesh.h.size == size
        for lam in (-3.7, 0.2, 7.3, 38.9):
            _, traj = solver_mod._trajectory(p, lam, mesh)
            y1, y2 = solver_mod._terminal(p, [lam], mesh)
            assert traj[-1, 0] == y1[0] and traj[-1, 1] == y2[0]

    @pytest.mark.parametrize("label", sorted(KERNEL_PROBLEMS))
    def test_batch_invariance(self, label):
        p = DiracProblem(*KERNEL_PROBLEMS[label])
        mesh = solver_mod._mesh(p, 4096)
        lams = np.linspace(-p.mass - 6.0, p.mass + 40.0, 494)
        batch = solver_mod._characteristic_batch(p, lams, mesh)
        alone = [solver_mod._characteristic_batch(p, [lam], mesh)[0]
                 for lam in lams]
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("label", sorted(KERNEL_PROBLEMS))
    def test_angle_batch_and_level_invariance(self, label, monkeypatch):
        p = DiracProblem(*KERNEL_PROBLEMS[label])
        mesh = solver_mod._mesh(p, 4096)
        lams = np.linspace(-p.mass - 6.0, p.mass + 40.0, 494)
        y1, y2, theta = solver_mod._terminal(p, lams, mesh, angle=True)
        assert np.array_equal(y1, solver_mod._terminal(p, lams, mesh)[0])
        alone = [solver_mod._terminal(p, [lam], mesh, angle=True)[2][0] for lam in lams]
        assert np.array_equal(theta, alone)
        monkeypatch.setattr(solver_mod, "_BLOCK_TURN", PI / 16)
        assert np.array_equal(theta, solver_mod._terminal(p, lams, mesh, angle=True)[2])


def tree_reference(problem, lams, mesh):
    """(y1, y2) at pi from the pairwise tree over the step matrices in natural
    order: matrices 2j and 2j + 1 paired at each level, an unpaired last one
    carried up."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    p = solver_mod._entries(problem.mass, mesh.h[:, None], mesh.vbar[:, None],
                            mesh.g[:, None], lams)
    while p.shape[2] > 1:
        even = p.shape[2] // 2 * 2
        p = np.concatenate((solver_mod._mul(p[:, :, 1:even:2], p[:, :, 0:even:2]),
                            p[:, :, even:]), axis=2)
    q = p[:, :, 0]
    y1, y2 = solver_mod._initial_state(problem, lams)
    return q[0, 0] * y1 + q[0, 1] * y2, q[1, 0] * y1 + q[1, 1] * y2


def count_trig(monkeypatch):
    """Record the size of every argument the trigonometric branch of the step
    exponential is called with."""
    sizes = []
    trig = solver_mod._trig_coshc_sinhc

    def counted(u):
        sizes.append(u.size)
        return trig(u)

    monkeypatch.setattr(solver_mod, "_trig_coshc_sinhc", counted)
    return sizes


class TestStepKernel:
    """The series step exponential and the chunk tree in ``_order``."""

    def test_series_matches_trig(self):
        limit = solver_mod._SERIES_LIMIT
        u = np.linspace(-limit, limit, 40001)
        u = np.concatenate([u[u != 0.0], [-1e-300, 1e-300, -1e-12, 1e-12]])
        series = solver_mod._coshc_sinhc(u)
        trig = solver_mod._trig_coshc_sinhc(u)
        for a, b in zip(series, trig):
            assert np.all(np.abs(a - b) <= 2 * np.spacing(b))

    def test_continuous_across_limit(self, monkeypatch):
        limit = solver_mod._SERIES_LIMIT
        inside = np.array([-limit, limit])
        outside = np.nextafter(inside, 2 * inside)
        sizes = count_trig(monkeypatch)
        c_in, s_in = solver_mod._coshc_sinhc(inside)
        assert sizes == []
        c_out, s_out = solver_mod._coshc_sinhc(outside)
        assert sizes == [2]
        assert np.all(np.abs(c_out - c_in) <= 2 * np.spacing(c_in))
        assert np.all(np.abs(s_out - s_in) <= 2 * np.spacing(s_in))

    @pytest.mark.parametrize("angle", [False, True])
    def test_mixed_branches_batch_invariance(self, angle, monkeypatch):
        # on 256 steps |u| passes 1/12 near |lambda - V| = 23.5
        p = DiracProblem(*SIN_CLASSICAL)
        mesh = solver_mod._mesh(p, 256)
        lams = np.linspace(-60.0, 60.0, 97)
        sizes = count_trig(monkeypatch)
        batch = solver_mod._terminal(p, lams, mesh, angle)
        assert 0 < sum(sizes) < lams.size * 256
        for k, lam in enumerate(lams):
            alone = solver_mod._terminal(p, [lam], mesh, angle)
            assert all(x[k] == y[0] for x, y in zip(batch, alone))

    @pytest.mark.parametrize("n_steps", [64, 1000, 4096, 4097])
    def test_chunk_tree_matches_reduce(self, n_steps, monkeypatch):
        # the off-mesh step adds one node, so its steps differ in width and
        # its mesh of 4096 uniform steps is one step past a power of two
        problems = (DiracProblem(*KERNEL_PROBLEMS["pd_example"]),
                    DiracProblem(0.5, named_potential("step", a=1.0, height=2.0),
                                 Classical(0.3, 0.7)))
        for p, lams in itertools.product(problems, ([7.3], np.linspace(-4.0, 24.0, 7))):
            mesh = solver_mod._mesh(p, n_steps)
            monkeypatch.undo()
            ref = tree_reference(p, lams, mesh)
            # the default constants, which take each of these meshes as one
            # chunk
            y1, y2, theta = solver_mod._terminal(p, lams, mesh, angle=True)
            assert np.array_equal(y1, ref[0]) and np.array_equal(y2, ref[1])
            y1, y2 = solver_mod._terminal(p, lams, mesh)
            assert np.array_equal(y1, ref[0]) and np.array_equal(y2, ref[1])
            # every chunk width; with a tail of 1 entry every chunk is halved
            # to one product, so a partial last chunk carries its unpaired
            # steps up inside the chunk
            for tail, bits in itertools.product((1, solver_mod._TAIL_ENTRIES), range(13)):
                monkeypatch.setattr(solver_mod, "_TAIL_ENTRIES", tail)
                monkeypatch.setattr(solver_mod, "_CHUNK_ENTRIES", len(lams) << bits)
                y1, y2 = solver_mod._terminal(p, lams, mesh)
                assert np.array_equal(y1, ref[0]) and np.array_equal(y2, ref[1])
                y1, y2, th = solver_mod._terminal(p, lams, mesh, angle=True)
                assert np.array_equal(y1, ref[0]) and np.array_equal(y2, ref[1])
                assert np.array_equal(th, theta)

    @pytest.mark.parametrize("args", [SIN_CLASSICAL, KERNEL_PROBLEMS["pd_example"]],
                             ids=["sin2x", "pd_example"])
    def test_default_mesh_takes_only_the_series(self, args, monkeypatch):
        # the meshes the search solves on take only the series; the trig
        # branch serves the error estimate's chi on 256 and 128 steps
        p = DiracProblem(*args)
        sizes = count_trig(monkeypatch)
        meshes = []
        terminal = solver_mod._terminal

        def tagged(problem, lams, mesh, angle=False):
            before = len(sizes)
            out = terminal(problem, lams, mesh, angle)
            if len(sizes) > before:
                meshes.append((mesh.vbar.size, angle))
            return out

        monkeypatch.setattr(solver_mod, "_terminal", tagged)
        find_eigenvalues(p, range(3, 41))
        assert set(meshes) <= {(256, False), (128, False)}
        sizes.clear()
        characteristic(p, 400.0)
        assert sum(sizes) > 0


class TestNodeCountPrediction:
    def test_table_values(self):
        b = canonical_pd(0.1, 0.5)
        assert node_count_prediction(b, 10, 1) == 8
        b = canonical_pd(0.1, -0.2)
        assert node_count_prediction(b, 10, 1) == 7
        b = canonical_pd(-0.1, 0.5)
        assert node_count_prediction(b, 10, 1) == 9
        b = canonical_pd(-0.1, -0.2)
        assert node_count_prediction(b, 10, 1) == 8

    def test_classical_formula(self):
        assert node_count_prediction(Classical(0.0, 0.0), 7, 2) == 6
        assert node_count_prediction(Classical(0.3, 0.3), 7, 1) == 7

    def test_param_dependent_component2_unsupported(self):
        with pytest.raises(UnsupportedPrediction):
            node_count_prediction(canonical_pd(0.1, 0.5), 10, 2)

    def test_small_index_rejected(self):
        with pytest.raises(DomainError):
            node_count_prediction(Classical(0.0, 0.0), 3, 1)


class TestZeroPotentialPipeline:
    def test_full_oracle_spot_checks(self, cache):
        # lam_n = n + 1/4 and y1 nodes at j*pi/lam_n for alpha = 0
        for n in (3, 17, 40):
            rec = cache.record("zero_quarter", n)
            assert rec.lam == pytest.approx(n + 0.25, abs=1e-9)
            ns = cache.nodal("zero_quarter", n, 1)
            expected = [j * PI / rec.lam for j in range(1, ns.count + 1)]
            assert np.allclose(ns.points, expected, atol=1e-8)
