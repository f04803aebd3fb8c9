"""Reconstruction: index map, step functions, limit formulas, L1 machinery."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_pd, cli_env
from dirac_nodal import (Classical, DiracProblem, DomainError, InputError,
                         NodalSet, ReconstructionMode, StepFunction, jn_index,
                         l1_distance, l1_error, local_average_limit,
                         make_potential_sampled, mean_shift, named_potential,
                         reconstruct_step, reconstruction)

PI = math.pi


def synthetic_nodes(n, lam=None):
    """Nodal set j*pi/n, the exact data of a constant potential."""
    return NodalSet(n, 1, [j * PI / n for j in range(1, n)])


class TestJnIndex:
    NODES = NodalSet(5, 1, [PI / 4, PI / 2, 3 * PI / 4])

    def test_bracketing(self):
        assert jn_index(self.NODES, 0.6 * PI) == 2

    def test_left_closed_at_node(self):
        assert jn_index(self.NODES, PI / 2) == 2

    def test_before_first_node(self):
        assert jn_index(self.NODES, 0.1) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            jn_index(self.NODES, 0.0)
        with pytest.raises(DomainError):
            jn_index(self.NODES, PI)


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(InputError):
            StepFunction([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InputError):
            StepFunction([0.0, 1.0, 0.5], [1.0, 2.0])

    def test_evaluation_right_open(self):
        f = StepFunction([0.0, 1.0, 2.0], [5.0, 7.0])
        assert f(0.5) == 5.0
        assert f(1.0) == 7.0
        assert f(2.0) == 7.0  # endpoint attaches to the last interval

    def test_l1_norm(self):
        f = StepFunction([0.0, 1.0, 3.0], [2.0, -1.0])
        assert f.l1_norm() == pytest.approx(4.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=12),
           st.integers(1, 5))
    def test_l1_norm_matches_brute_force(self, values, seed):
        rng = np.random.default_rng(seed)
        bps = np.sort(rng.uniform(0.0, PI, len(values) + 1))
        if np.min(np.diff(bps)) <= 1e-9:
            return
        f = StepFunction(bps, values)
        xs = np.linspace(bps[0] + 1e-9, bps[-1] - 1e-9, 20001)
        brute = np.trapezoid(np.abs(f(xs)), xs)
        assert f.l1_norm() == pytest.approx(brute, abs=5e-3 * (1 + f.l1_norm()))


class TestReconstructStep:
    def test_zero_potential_all_modes_vanish(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        nodes = synthetic_nodes(12)
        for tag in ("corrected", "paper_exact"):
            f = reconstruct_step(nodes, p, ReconstructionMode(tag, "numeric"),
                                 lam=12.0)
            assert np.max(np.abs(f.values)) < 1e-9

    def test_constant_potential_three_limits(self):
        # closed form: nodes j*pi/n, numeric eigenvalue n + 1
        n = 48
        p = DiracProblem(0.0, named_potential("constant", c=1.0),
                         Classical(0.0, 0.0))
        nodes = synthetic_nodes(n)
        corrected = reconstruct_step(nodes, p,
                                     ReconstructionMode("corrected", "numeric"),
                                     lam=float(n + 1))
        assert np.allclose(corrected.values, (n + 1) / n, atol=1e-9)
        paper = reconstruct_step(nodes, p,
                                 ReconstructionMode("paper_exact", "numeric"),
                                 lam=float(n + 1))
        assert np.allclose(paper.values, PI * (n + 1) / n, atol=1e-9)
        seeded = reconstruct_step(nodes, p,
                                  ReconstructionMode("corrected", "integer_seed"))
        assert np.max(np.abs(seeded.values)) < 1e-9

    def test_endpoint_extension(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        nodes = synthetic_nodes(8)
        f = reconstruct_step(nodes, p, ReconstructionMode("corrected", "numeric"),
                             lam=8.0)
        assert f.breakpoints[0] == 0.0
        assert f.breakpoints[-1] == PI
        assert f.values[0] == f.values[1]
        assert f.values[-1] == f.values[-2]

    def test_numeric_source_requires_lambda(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        with pytest.raises(InputError):
            reconstruct_step(synthetic_nodes(8), p,
                             ReconstructionMode("corrected", "numeric"))

    def test_single_node_rejected(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        nodes = NodalSet(4, 1, [1.0])
        with pytest.raises(InputError):
            reconstruct_step(nodes, p, ReconstructionMode("corrected", "numeric"),
                             lam=4.0)

    def test_empty_row_rejected(self):
        p = DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0))
        with pytest.raises(InputError, match="at index 1 needs at least two"):
            reconstruct_step(NodalSet(1, 1, []), p, lam=1.0)

    def test_case_one_uses_shifted_seed(self):
        b = canonical_pd(0.0, 0.0)
        p = DiracProblem(0.0, named_potential("zero"), b)
        nodes = NodalSet(10, 1, [j * PI / 8 for j in range(1, 8)])
        f = reconstruct_step(nodes, p, ReconstructionMode("corrected",
                                                          "integer_seed"))
        # seed is n - 2 = 8 and lengths are pi/8, so every value vanishes
        assert np.max(np.abs(f.values)) < 1e-9

    def test_mode_validation(self):
        with pytest.raises(InputError):
            ReconstructionMode("bogus", "numeric")
        with pytest.raises(InputError):
            ReconstructionMode("corrected", "bogus")

    def test_paper_exact_cancels_its_own_parity_terms(self):
        # nodes generated by the alternating-sign expansion variant must be
        # reconstructed exactly by the matching formula: paper_exact has to
        # recover pi*V with no O(1) parity residue on such data
        from dirac_nodal import nodal_point_asym
        m, alpha = 0.8, PI / 8
        p = DiracProblem(m, named_potential("zero"), Classical(alpha, 0.3))
        n = 40
        lam = 40.0
        pts = [nodal_point_asym(p, n, j, 1, order=2, lam=lam)
               for j in range(1, n)]
        nodes = NodalSet(n, 1, pts)
        f = reconstruct_step(nodes, p, ReconstructionMode("paper_exact", "numeric"),
                             lam=lam)
        interior = f.values[2:-2]
        assert np.max(np.abs(interior)) < PI * 0.55 / n  # no O(1) parity residue


class TestLocalAverageLimit:
    def test_constant_potential(self):
        v = named_potential("constant", c=2.0)
        nodes = synthetic_nodes(16)
        out = local_average_limit(v, nodes, 16.0, 1.0)
        assert out.avg == pytest.approx(2.0 * PI, abs=1e-12)

    def test_zero_potential(self):
        v = named_potential("zero")
        out = local_average_limit(v, synthetic_nodes(16), 16.0, 1.0)
        assert out.avg == 0.0
        assert out.osc == 0.0

    def test_oscillatory_decay_with_brute_force_oracle(self):
        v = named_potential("sin2x")
        n, lam = 40, 40.0
        nodes = synthetic_nodes(n)
        x = 1.0
        out = local_average_limit(v, nodes, lam, x)
        j = jn_index(nodes, x)
        a, b = nodes.points[j - 1], nodes.points[j]
        ts = np.linspace(a, b, 200001)
        brute = lam * np.trapezoid(np.cos(2 * lam * ts) * np.sin(2 * ts), ts)
        assert out.osc == pytest.approx(float(brute), abs=1e-6)
        assert abs(out.osc) < 0.1

    def test_oscillatory_integral_cut_at_the_jump(self):
        # V = 2 on [1, 1.2], 0 on [0.9, 1): a panel across the jump at 1
        # was off by 2.5e-3
        v = named_potential("step", a=1.0, height=2.0)
        exact = 2.0 * (math.sin(24.0) - math.sin(20.0)) / 20.0
        got = reconstruction._oscillatory_integral(v, 0.9, 1.2, 20.0)
        assert got == pytest.approx(exact, rel=0, abs=1e-13)

    def test_oscillatory_integral_of_sampled_cells(self):
        grid = np.linspace(0.0, PI, 41)
        v = make_potential_sampled(np.sin(3.0 * grid) + 0.3 * grid)
        a, b, omega = 0.37, 2.1, 30.0
        edges = np.concatenate(([a], grid[(grid > a) & (grid < b)], [b]))
        exact = 0.0
        for u, w in zip(edges[:-1], edges[1:]):
            # V = p + q t on the cell; integrate (p + q t) cos(omega t) by parts
            q = float(v(w) - v(u)) / (w - u)
            p = float(v(u)) - q * u
            su, sw = math.sin(omega * u), math.sin(omega * w)
            cu, cw = math.cos(omega * u), math.cos(omega * w)
            exact += ((p + q * w) * sw - (p + q * u) * su) / omega \
                + q * (cw - cu) / omega ** 2
        got = reconstruction._oscillatory_integral(v, a, b, omega)
        assert got == pytest.approx(exact, rel=0, abs=1e-14)

    def test_requires_interior_interval(self):
        v = named_potential("zero")
        nodes = synthetic_nodes(8)
        with pytest.raises(DomainError):
            local_average_limit(v, nodes, 8.0, 0.05)


class TestL1Error:
    def test_matching_constant(self):
        f = StepFunction([0.0, PI], [1.5])
        v = make_potential_sampled([1.5, 1.5, 1.5])
        assert l1_error(f, v) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_one(self):
        f = StepFunction([0.0, PI], [0.0])
        v = named_potential("constant", c=1.0)
        assert l1_error(f, v) == pytest.approx(PI, abs=1e-9)

    def test_mean_adjustment_removes_constant(self):
        f = StepFunction([0.0, PI], [0.0])
        v = named_potential("constant", c=1.0)
        # V - v/pi with v = integral of V: the constant potential's own mean
        assert l1_error(f, v, shift=v.total_integral / PI) == pytest.approx(0.0, abs=1e-9)

    def test_boundary_shift_enters_adjustment(self):
        f = StepFunction([0.0, PI], [0.0])
        v = named_potential("zero")
        # beta - alpha = pi/2 enters v: the target is V - v/pi = -0.5
        p = DiracProblem(0.0, v, Classical(0.0, 0.5 * PI))
        assert l1_error(f, v, shift=mean_shift(p) / PI) == pytest.approx(0.5 * PI,
                                                                       abs=1e-9)

    def test_sign_change_inside_cell_handled_exactly(self):
        f = StepFunction([0.0, PI], [0.5])
        v = make_potential_sampled([0.0, 1.0, 0.0])
        # |0.5 - tent(x)|: exact piecewise integral = pi/4
        assert l1_error(f, v) == pytest.approx(PI / 4, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        bps = np.sort(np.concatenate([[0.0, PI], rng.uniform(0, PI, 4)]))
        if np.min(np.diff(bps)) <= 1e-6:
            return
        f = StepFunction(bps, rng.uniform(-2, 2, bps.size - 1))
        v = make_potential_sampled(rng.uniform(-2, 2, 9))
        xs = np.linspace(0, PI, 50001)
        brute = np.trapezoid(np.abs(f(xs) - v(xs)), xs)
        assert l1_error(f, v) == pytest.approx(float(brute), abs=2e-3)


def sorted_union(a, b):
    edges = np.sort(np.concatenate((a, b), axis=None))
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def searched_l1_error(F, potential, shift=0.0):
    """l1_error by its sort-and-search formula: the edges sorted again, and F
    looked up at each cell's midpoint."""
    edges = sorted_union(F.breakpoints, reconstruction._linear_nodes(potential))
    edges = edges[(edges >= 0.0) & (edges <= PI)]
    lo, hi = edges[:-1], edges[1:]
    consts = F(0.5 * (lo + hi)) + shift
    v_lo, v_hi = reconstruction._cell_ends(potential, edges)
    return float(np.sum(reconstruction._abs_linear_cells(hi - lo, consts - v_lo,
                                                         consts - v_hi)))


def searched_l1_distance(v_a, v_b, shift_a=0.0, shift_b=0.0):
    grid = sorted_union(reconstruction._linear_nodes(v_a),
                        reconstruction._linear_nodes(v_b))
    a_lo, a_hi = reconstruction._cell_ends(v_a, grid)
    b_lo, b_hi = reconstruction._cell_ends(v_b, grid)
    shift = shift_a - shift_b
    return float(np.sum(reconstruction._abs_linear_cells(
        np.diff(grid), a_lo - b_lo - shift, a_hi - b_hi - shift)))


# a jump on the node 1280 pi / 4096 of the uniform cells, a smooth sampled
# potential, and one without breakpoints
L1_POTENTIALS = {
    "step_on_node": named_potential("step", a=PI * 20 / 64, height=1.3),
    "step_off_node": named_potential("step", a=1.0, height=-0.7),
    "sampled": make_potential_sampled(0.7 * np.sin(np.linspace(0.0, PI, 401))),
    "sin2x": named_potential("sin2x"),
}


class TestL1Formulas:
    """l1_error takes F's value on each cell by position, and both L1 paths
    merge sorted edges: bitwise the sort-and-search formula."""

    @pytest.mark.parametrize("label", sorted(L1_POTENTIALS))
    def test_l1_error_bitwise_sort_and_search(self, cache, label):
        v = L1_POTENTIALS[label]
        nodes = cache.nodal("sin_half", 24, 1)
        steps = [
            # breakpoints beyond [0, pi] on both sides
            StepFunction([-1.0, 0.5, 1.0, 2.0, 4.0], [1.0, -2.0, 0.5, 3.0]),
            # starting after 0, and ending before pi
            StepFunction([0.3, 1.0, PI], [1.0, -2.0]),
            StepFunction([0.3, 1.0, 2.0], [1.0, -2.0]),
            # wholly outside [0, pi]
            StepFunction([-2.0, -1.0], [0.4]),
            StepFunction([3.5, 4.0], [0.4]),
            # a breakpoint on the jump of step_on_node and on a uniform node
            StepFunction([0.0, PI * 20 / 64, PI / 2, PI], [0.2, 1.1, -0.3]),
            reconstruct_step(nodes, cache.problem("sin_half"),
                             lam=cache.record("sin_half", 24).lam),
        ]
        for f in steps:
            for shift in (0.0, 0.4, -1.3):
                got, ref = l1_error(f, v, shift), searched_l1_error(f, v, shift)
                assert got.hex() == ref.hex()

    def test_l1_distance_bitwise_sort_and_search(self):
        labels = sorted(L1_POTENTIALS)
        for a in labels:
            for b in labels:
                v_a, v_b = L1_POTENTIALS[a], L1_POTENTIALS[b]
                for shifts in ((0.0, 0.0), (0.2, -0.1)):
                    got = l1_distance(v_a, v_b, *shifts)
                    assert got.hex() == searched_l1_distance(v_a, v_b, *shifts).hex()


class TestConvergenceInvariants:
    def test_constant_exactness_rates(self):
        # numeric-lambda corrected values sit at c + c^2/n for V = c; the
        # integer-seed values vanish identically
        c = 0.7
        p = DiracProblem(0.0, named_potential("constant", c=c),
                         Classical(0.0, 0.0))
        for n in (12, 24, 48):
            nodes = synthetic_nodes(n)
            numeric = reconstruct_step(
                nodes, p, ReconstructionMode("corrected", "numeric"),
                lam=float(n) + c)
            assert np.allclose(numeric.values, c + c * c / n, atol=1e-10)
            seeded = reconstruct_step(
                nodes, p, ReconstructionMode("corrected", "integer_seed"))
            assert np.max(np.abs(seeded.values)) < 1e-10

    def test_local_average_normalized_limit(self, cache):
        # (lam/pi) * integral over I_j tends to V(x); the unnormalized form
        # tends to pi V(x)
        v = named_potential("sin2x")
        x = 1.0
        errs = []
        for n in (12, 24, 48):
            rec = cache.record("sin_half", n)
            nodal = cache.nodal("sin_half", n, 1)
            out = local_average_limit(v, nodal, rec.lam, x)
            errs.append(abs(out.avg / PI - math.sin(2 * x)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_oscillatory_decay_over_ladder(self, cache):
        v = named_potential("sin2x")
        mags = []
        for n in (12, 24, 48):
            rec = cache.record("sin_half", n)
            nodal = cache.nodal("sin_half", n, 1)
            out = local_average_limit(v, nodal, rec.lam, 1.0)
            mags.append(abs(out.osc))
        assert mags[2] < mags[0]
        assert mags[2] < 0.05


class TestL1Distance:
    def test_sin2x_vs_zero(self):
        assert l1_distance(named_potential("sin2x"),
                           named_potential("zero")) == pytest.approx(2.0, abs=1e-5)

    def test_shifts(self):
        a = named_potential("constant", c=1.0)
        b = named_potential("zero")
        assert l1_distance(a, b, shift_a=1.0) == pytest.approx(0.0, abs=1e-12)


class TestEdgeUnion:
    def test_matches_union1d(self):
        # bitwise the edges np.union1d gives: uniform nodes with breakpoints
        # on and off them, a sampled grid, duplicates and the ends
        uniform = np.linspace(0.0, PI, 4097)
        grid = np.linspace(0.0, PI, 401)
        steps = np.array([0.0, 0.3, 1.0, PI / 4, 1.0, PI])
        cases = [(uniform, np.array([1.0])), (uniform, np.array([PI / 4, PI / 4])),
                 (uniform, grid[1:-1]), (steps, uniform), (grid, uniform),
                 (np.array([]), np.array([2.0, -0.0, 0.0]))]
        for a, b in cases:
            got, ref = reconstruction._union(a, b), np.union1d(a, b)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_l1_paths_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, which a CLI process pays
        # for at every start
        code = (
            "import math, sys\n"
            "from dirac_nodal import (StepFunction, l1_distance, l1_error,\n"
            "                         make_potential_sampled, named_potential)\n"
            "step = named_potential('step', a=1.0, height=2.0)\n"
            "l1_error(StepFunction([0.0, 1.0, math.pi], [0.5, 1.5]), step)\n"
            "l1_error(StepFunction([0.0, math.pi], [0.5]),\n"
            "         make_potential_sampled([0.0, 1.0, 0.0]))\n"
            "l1_distance(named_potential('sin2x'), step)\n"
            "assert 'numpy.ma' not in sys.modules\n")
        res = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
