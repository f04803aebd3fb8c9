"""Domain-type invariants: potentials, boundary forms, nodal sets, grids."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_nodal import (BoundaryConditionError, Classical, DiracProblem,
                         DomainError, EigenRecord, GridSequence, InputError, NodalSet,
                         ParamDependent, Potential, cumulative_integral,
                         make_potential_sampled, named_potential,
                         potential_from_json, potential_to_json)
from dirac_nodal.model import component_number, eigenvalue_index, integer_base

PI = math.pi


class TestSampledPotential:
    def test_zero_samples(self):
        v = make_potential_sampled([0.0, 0.0, 0.0])
        assert v.integral_0_to(PI) == 0.0
        assert v(1.3) == 0.0

    def test_constant_samples_exact_trapezoid(self):
        v = make_potential_sampled([1.0] * 5)
        assert v.integral_0_to(PI) == pytest.approx(PI, abs=1e-15)

    def test_sin2x_samples_integrate_to_zero(self):
        grid = np.linspace(0.0, PI, 257)
        v = make_potential_sampled(np.sin(2 * grid))
        assert abs(v.integral_0_to(PI)) < 1e-4

    def test_rejects_too_few_values(self):
        with pytest.raises(InputError):
            make_potential_sampled([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            make_potential_sampled([0.0, math.nan, 0.0])

    def test_partial_cell_integral_matches_fine_quadrature(self):
        grid = np.linspace(0.0, PI, 33)
        v = make_potential_sampled(grid**2)
        x = 1.234567
        fine = np.linspace(0.0, x, 20001)
        brute = np.trapezoid(np.interp(fine, grid, grid**2), fine)
        assert v.integral_0_to(x) == pytest.approx(brute, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=40),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_additivity(self, values, fa, fb):
        v = make_potential_sampled(values)
        a, b = sorted([fa * PI, fb * PI])
        total = v.integral_0_to(b)
        split = v.integral_0_to(a) + v.integral_between(a, b)
        assert split == pytest.approx(total, abs=1e-12)


class TestAnalyticPotential:
    def test_cumulative_zero(self):
        assert cumulative_integral(named_potential("zero"), 1.0) == 0.0

    def test_cumulative_constant(self):
        v = named_potential("constant", c=2.5)
        assert cumulative_integral(v, 1.1) == pytest.approx(2.75, abs=1e-14)

    def test_sin2x_closed_form(self):
        v = named_potential("sin2x")
        assert cumulative_integral(v, PI / 2) == pytest.approx(1.0, abs=1e-12)

    def test_sin2x_without_antiderivative_uses_quadrature(self):
        v = Potential(func=lambda x: np.sin(2 * x))
        assert v.integral_0_to(PI / 2) == pytest.approx(1.0, abs=1e-6)

    def test_domain_rejection(self):
        v = named_potential("zero")
        with pytest.raises(InputError):
            v.integral_0_to(-0.5)
        with pytest.raises(InputError):
            v.integral_0_to(PI + 0.1)

    def test_cumulative_at_zero_is_zero(self):
        for name, params in [("sin2x", {}), ("constant", {"c": 3.0}),
                             ("step", {"a": 1.0, "height": 2.0})]:
            assert named_potential(name, **params).integral_0_to(0.0) == 0.0

    def test_step_potential(self):
        v = named_potential("step", a=1.0, height=2.0)
        assert v(0.5) == 0.0
        assert v(1.5) == 2.0
        assert v.integral_0_to(PI) == pytest.approx(2.0 * (PI - 1.0), abs=1e-14)

    def test_poly_potential(self):
        v = named_potential("poly", coeffs=[1.0, 2.0])
        assert v(2.0) == pytest.approx(5.0)
        assert v.integral_0_to(2.0) == pytest.approx(2.0 + 4.0, abs=1e-12)


class TestBreakpoints:
    def test_library_breakpoints(self):
        assert named_potential("step", a=1.0, height=2.0).breakpoints.tolist() == [1.0]
        for a in (0.0, PI):   # a jump at an end of [0, pi] is no interior breakpoint
            assert named_potential("step", a=a, height=2.0).breakpoints.size == 0
        for name, params in [("zero", {}), ("constant", {"c": 3.0}), ("sin2x", {}),
                             ("poly", {"coeffs": [1.0, 2.0]})]:
            assert named_potential(name, **params).breakpoints.size == 0

    def test_callable_breakpoints_sorted_inside(self):
        v = Potential(func=np.sin, breakpoints=[2.0, 1.0, 1.0, 0.0, 3.5])
        assert v.breakpoints.tolist() == [1.0, 2.0]
        assert not v.breakpoints.flags.writeable

    def test_sampled_breakpoints_are_interior_grid_nodes(self):
        values = np.cos(np.linspace(0.0, PI, 9))
        v = make_potential_sampled(values)
        assert np.array_equal(v.breakpoints, np.linspace(0.0, PI, 9)[1:-1])
        assert not v.breakpoints.flags.writeable
        x = np.linspace(0.0, PI, 101)
        assert np.array_equal(v(x), np.interp(x, np.linspace(0.0, PI, 9), values))
        assert v(0.7) == np.interp(0.7, np.linspace(0.0, PI, 9), values)
        with pytest.raises(InputError, match="grid nodes"):
            Potential(values=values, breakpoints=[1.0])


class TestSampledPotentialContract:
    """A sampled potential is the linear interpolant of its values on the
    uniform grid, with that interpolant's exact antiderivative."""

    GRID = np.linspace(0.0, PI, 41)
    VALUES = np.sin(3.0 * GRID) + 0.3 * GRID

    def test_pickle_round_trip(self):
        v = make_potential_sampled(self.VALUES)
        w = pickle.loads(pickle.dumps(v))
        x = np.linspace(0.0, PI, 77)
        assert np.array_equal(w(x), v(x))
        assert w.integral_0_to(1.1) == v.integral_0_to(1.1)
        assert np.array_equal(w.breakpoints, v.breakpoints)

    def test_integral_is_trapezoid_prefix_plus_cell_quadratic(self):
        v = make_potential_sampled(self.VALUES)
        vals, h = self.VALUES, PI / (self.VALUES.size - 1)
        prefix = np.concatenate([[0.0], np.cumsum(0.5 * (vals[:-1] + vals[1:]) * h)])
        for x in np.random.default_rng(4).uniform(0.0, PI, 200).tolist() + [0.0, PI]:
            k = min(int(x / h), vals.size - 2)
            t = x - k * h
            slope = (vals[k + 1] - vals[k]) / h
            assert v.integral_0_to(x) == float(prefix[k] + vals[k] * t
                                                + 0.5 * slope * t * t)


class TestPotentialSerialization:
    def test_sampled_round_trip(self):
        v = make_potential_sampled([0.0, 1.0, 0.5, 2.0])
        doc = potential_to_json(v)
        w = potential_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(w.values, v.values)

    def test_named_round_trip(self):
        v = named_potential("constant", c=1.5)
        w = potential_from_json(potential_to_json(v))
        assert w(0.3) == v(0.3)
        assert w.total_integral == v.total_integral

    def test_anonymous_callable_not_serializable(self):
        with pytest.raises(InputError):
            potential_to_json(Potential(func=lambda x: x))


class TestBoundaryForms:
    def test_sign_condition_enforced_left(self):
        with pytest.raises(BoundaryConditionError):
            ParamDependent(0.0, 0.0, a0=0.0, b0=1.0, a1=1.0, b1=1.0)

    def test_sign_condition_enforced_right(self):
        with pytest.raises(BoundaryConditionError):
            ParamDependent(0.0, 0.0, a0=1.0, b0=-1.0, a1=0.0, b1=-1.0)

    def test_valid_param_dependent(self):
        b = ParamDependent(0.0, 0.0, 1.0, -1.0, 1.0, 1.0)
        assert b.case == "I"
        assert b.left_sign_term == pytest.approx(1.0)
        assert b.right_sign_term == pytest.approx(-1.0)

    def test_alpha_range_param_dependent(self):
        with pytest.raises(BoundaryConditionError):
            ParamDependent(2.0, 0.0, 1.0, -1.0, 1.0, 1.0)

    def test_classical_range(self):
        assert Classical(0.0, PI).case == "II"
        with pytest.raises(BoundaryConditionError):
            Classical(-0.2, 0.0)
        with pytest.raises(BoundaryConditionError):
            Classical(0.0, 3.5)

    def test_classical_negative_mass_rejected(self):
        with pytest.raises(InputError):
            DiracProblem(-1.0, named_potential("zero"), Classical(0.0, 0.0))

    def test_param_dependent_any_mass(self):
        b = ParamDependent(0.0, 0.0, 1.0, -1.0, 1.0, 1.0)
        DiracProblem(-2.0, named_potential("zero"), b)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-math.pi / 2, math.pi / 2),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_violating_left_sign_always_fails(self, alpha, a0, b0):
        if a0 * math.sin(alpha) - b0 * math.cos(alpha) > 0:
            return
        with pytest.raises(BoundaryConditionError):
            ParamDependent(alpha, 0.0, a0, b0, 1.0, 1.0)


class TestLabelRules:
    """The one rule for an eigenvalue index, the one case-I shift and the one
    component check, which every module calls."""

    @pytest.mark.parametrize("n", [3, -7, np.int64(12), np.int32(-1)])
    def test_index_is_a_nonzero_integer(self, n):
        assert eigenvalue_index(n) == int(n)
        assert type(eigenvalue_index(n)) is int

    @pytest.mark.parametrize("n", [3.7, 3.0, np.float64(4.0), True, np.bool_(True),
                                   "3", None])
    def test_non_integer_index_rejected(self, n):
        with pytest.raises(InputError, match="eigenvalue index must be an integer"):
            eigenvalue_index(n)

    def test_index_zero_is_a_domain_error(self):
        with pytest.raises(DomainError, match="nonzero"):
            eigenvalue_index(0)

    @pytest.mark.parametrize("case, n, base", [
        ("I", 1, -1), ("I", 2, 0), ("I", 3, 1), ("I", 40, 38), ("I", -1, -1),
        ("I", -3, -3), ("II", 1, 1), ("II", 40, 40), ("II", -3, -3)])
    def test_integer_base(self, case, n, base):
        assert integer_base(case, n) == base

    def test_integer_base_follows_the_index_rule(self):
        with pytest.raises(InputError):
            integer_base("I", 8.5)
        with pytest.raises(DomainError):
            integer_base("II", 0)

    @pytest.mark.parametrize("make", [
        lambda n: EigenRecord(n, 5.25, 0.0, (5.0, 5.5)),
        lambda n: NodalSet(n, np.int64(1), [0.5, 1.0]),
    ], ids=["EigenRecord", "NodalSet"])
    def test_stored_index_follows_the_rule(self, make):
        for n in (2.5, 3.7, 3.0):
            with pytest.raises(InputError, match="eigenvalue index must be an integer"):
                make(n)
        with pytest.raises(DomainError, match="nonzero"):
            make(0)
        made = make(np.int64(5))
        assert made.index == 5 and type(made.index) is int
        # NodalSet's component, given as np.int64(1), is stored as the int
        # component_number returns
        if isinstance(made, NodalSet):
            assert made.component == 1 and type(made.component) is int

    @pytest.mark.parametrize("c", [1, 2, np.int64(2)])
    def test_component_accepted(self, c):
        assert component_number(c) == c and type(component_number(c)) is int

    @pytest.mark.parametrize("c", [0, 3, -1, 1.0, 2.0, True, "1", None])
    def test_component_rejected(self, c):
        with pytest.raises(InputError, match="component must be"):
            component_number(c)


class TestNodalSet:
    def test_component_must_be_the_integer_1_or_2(self):
        for c in (1.0, True, 3):
            with pytest.raises(InputError, match="component must be"):
                NodalSet(5, c, [0.5, 1.0])

    def test_lengths_derived(self):
        ns = NodalSet(5, 1, [0.5, 1.0, 2.0])
        assert np.allclose(ns.lengths, [0.5, 1.0])
        assert ns.count == 3

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            NodalSet(5, 1, [0.5, 0.4])

    def test_empty(self):
        ns = NodalSet(1, 1, [])
        assert ns.count == 0 and ns.lengths.size == 0

    def test_interior_enforced(self):
        with pytest.raises(InputError):
            NodalSet(5, 1, [0.0, 1.0])
        with pytest.raises(InputError):
            NodalSet(5, 1, [1.0, PI])

    def test_lengths_telescope(self):
        pts = np.sort(np.random.default_rng(7).uniform(0.01, PI - 0.01, 20))
        ns = NodalSet(21, 1, pts)
        assert math.fsum(ns.lengths) == pytest.approx(pts[-1] - pts[0], abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, PI - 0.01), min_size=2, max_size=30,
                    unique=True))
    def test_points_recovered_from_lengths(self, raw):
        pts = np.sort(np.asarray(raw))
        if np.min(np.diff(pts)) <= 0:
            return
        ns = NodalSet(9, 2, pts)
        rebuilt = pts[0] + np.concatenate([[0.0], np.cumsum(ns.lengths)])
        assert np.allclose(rebuilt, pts, rtol=0, atol=1e-13)


class TestGridSequence:
    def test_round_trip_json(self):
        seq = GridSequence("II", {4: [0.5, 1.5, 2.5], 5: [0.4, 1.2, 2.0, 2.8]})
        again = GridSequence.from_json(json.loads(json.dumps(seq.to_json())))
        assert again.case == "II"
        assert np.array_equal(again.row(5), seq.row(5))

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            GridSequence("I", {4: [1.0, 0.5]})

    def test_empty_row_rejected(self):
        with pytest.raises(InputError, match="empty row for index 3"):
            GridSequence("II", {4: [1.0, 2.0], 3: []})

    def test_row_keys_are_eigenvalue_indices(self):
        with pytest.raises(InputError, match="eigenvalue index must be an integer"):
            GridSequence("II", {4.5: [1.0, 2.0]})
        with pytest.raises(DomainError, match="nonzero"):
            GridSequence("II", {0: [1.0, 2.0]})
        seq = GridSequence("II", {np.int64(4): [1.0, 2.0]})
        assert seq.indices() == [4] and type(seq.indices()[0]) is int

    @pytest.mark.parametrize("n", [1, 2, -1, -3])
    def test_deviation_sup_infinite_without_positive_base(self, n):
        # case I rows 1 and 2 and every negative row have integer_base <= 0
        seq = GridSequence("I", {n: [1.0, 2.0]})
        assert seq.deviation_sup(n) == math.inf

    def test_deviation_sup_exact_lattice(self):
        n = 10
        seq = GridSequence("II", {n: [k * PI / n for k in range(1, n)]})
        assert seq.deviation_sup(n) == pytest.approx(0.0, abs=1e-12)

    def test_deviation_sup_offset(self):
        n = 40
        # constant offset; keep the shifted points inside (0, pi)
        seq = GridSequence("II", {n: [k * PI / n + 0.3 for k in range(1, n - 4)]})
        assert seq.deviation_sup(n) == pytest.approx(0.3 * n, rel=1e-12)
