"""Domain types for the one-dimensional Dirac system on [0, pi].

The system is the first canonical form B y' + Q(x) y = lambda y with
B = [[0, 1], [-1, 0]] and Q = diag(V + m, V - m), equivalently

    y1' = (V(x) - m - lambda) y2,
    y2' = (lambda - V(x) - m) y1.

Two boundary-condition families are supported: coefficients affine in the
spectral parameter (``ParamDependent``, "case I") and parameter-free
separated conditions (``Classical``, "case II").  All types here are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import BoundaryConditionError, DomainError, InputError

DOMAIN_LENGTH = math.pi

# Slack for floating-point comparisons against interval endpoints.
_EDGE_TOL = 1e-12


def _as_float_array(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


class Potential:
    """Real potential on [0, pi].

    Two representations are supported: a scalar callable (optionally with an
    exact antiderivative vanishing at 0) and a uniformly sampled grid with
    linear interpolation.  ``integral_0_to`` is exact for sampled potentials
    and for callables that supply an antiderivative; otherwise it falls back
    to adaptive Simpson quadrature with absolute tolerance ``quad_tol``.

    ``breakpoints`` are the points inside (0, pi), in increasing order,
    where V or its derivative jumps: the interior grid nodes of a sampled
    potential, and those given to the constructor for a callable.  The
    solver puts a mesh node on each, which keeps its fourth order.
    """

    __slots__ = ("values", "_func", "_anti", "name", "params", "quad_tol",
                 "_grid", "_grid_h", "_prefix", "breakpoints")

    def __init__(self, func=None, antiderivative=None, values=None,
                 name=None, params=None, quad_tol=1e-10, breakpoints=()):
        if (func is None) == (values is None):
            raise InputError("exactly one of func/values must be given")
        self._func = func
        self._anti = antiderivative
        self.name = name
        self.params = dict(params) if params else {}
        self.quad_tol = float(quad_tol)
        if values is not None:
            if len(breakpoints):
                raise InputError("a sampled potential's breakpoints are its grid nodes")
            arr = _as_float_array(values, "potential samples")
            if arr.size < 3:
                raise InputError("sampled potential needs at least 3 values (M >= 2)")
            arr.flags.writeable = False
            self.values = arr
            m_cells = arr.size - 1
            self._grid = np.linspace(0.0, DOMAIN_LENGTH, arr.size)
            self._grid.flags.writeable = False
            self._grid_h = DOMAIN_LENGTH / m_cells
            # Trapezoid prefix sums at the grid nodes; exact for the
            # piecewise-linear interpolant.
            seg = 0.5 * (arr[:-1] + arr[1:]) * self._grid_h
            prefix = np.concatenate([[0.0], np.cumsum(seg)])
            prefix.flags.writeable = False
            self._prefix = prefix
            self.breakpoints = self._grid[1:-1]
        else:
            self.values = None
            self._grid = None
            self._grid_h = None
            self._prefix = None
            breaks = np.sort(_as_float_array(breakpoints, "breakpoints"))
            breaks = breaks[(breaks > 0.0) & (breaks < DOMAIN_LENGTH)
                            & (np.diff(breaks, prepend=0.0) > 0.0)]
            breaks.flags.writeable = False
            self.breakpoints = breaks

    @property
    def is_sampled(self):
        return self.values is not None

    def __call__(self, x):
        if self.is_sampled:
            return np.interp(x, self._grid, self.values)
        out = self._func(np.asarray(x, dtype=float))
        return np.asarray(out, dtype=float) + np.zeros_like(np.asarray(x, dtype=float))

    def _check_domain(self, x):
        x = float(x)
        if x < -_EDGE_TOL or x > DOMAIN_LENGTH + _EDGE_TOL:
            raise DomainError(f"x={x!r} outside [0, pi]")
        return min(max(x, 0.0), DOMAIN_LENGTH)

    def integral_0_to(self, x):
        """Cumulative integral of V from 0 to x."""
        x = self._check_domain(x)
        if self.is_sampled:
            h = self._grid_h
            k = min(int(x / h), self.values.size - 2)
            t = x - k * h
            v0 = self.values[k]
            slope = (self.values[k + 1] - v0) / h
            return float(self._prefix[k] + v0 * t + 0.5 * slope * t * t)
        if self._anti is not None:
            return float(self._anti(x) - self._anti(0.0))
        return _adaptive_simpson(self._func, 0.0, x, self.quad_tol)

    def integral_between(self, a, b):
        return self.integral_0_to(b) - self.integral_0_to(a)

    @property
    def total_integral(self):
        return self.integral_0_to(DOMAIN_LENGTH)

    def to_json(self):
        if self.is_sampled:
            return {"kind": "sampled", "values": [float(v) for v in self.values]}
        if self.name is not None:
            return {"kind": "named", "name": self.name, "params": dict(self.params)}
        raise InputError("anonymous callable potentials are not serializable")

    def __repr__(self):
        if self.is_sampled:
            return f"Potential(sampled, M={self.values.size - 1})"
        return f"Potential(named={self.name!r})" if self.name else "Potential(callable)"


def make_potential_sampled(values) -> Potential:
    """Build a sampled potential on the uniform grid of len(values)-1 cells."""
    return Potential(values=values)


def cumulative_integral(potential: Potential, x: float) -> float:
    """Integral of the potential from 0 to x (x must lie in [0, pi])."""
    return potential.integral_0_to(x)


def _adaptive_simpson(f, a, b, tol, max_depth=40):
    """Plain recursive adaptive Simpson with Richardson correction."""
    def _simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def _rec(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        fl = float(f(np.asarray(0.5 * (lo + mid))))
        fr = float(f(np.asarray(0.5 * (mid + hi))))
        left = _simp(lo, mid, flo, fl, fmid)
        right = _simp(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (_rec(lo, mid, flo, fl, fmid, left, 0.5 * eps, depth - 1)
                + _rec(mid, hi, fmid, fr, fhi, right, 0.5 * eps, depth - 1))

    if b <= a:
        return 0.0
    fa = float(f(np.asarray(a)))
    fm = float(f(np.asarray(0.5 * (a + b))))
    fb = float(f(np.asarray(b)))
    whole = _simp(a, b, fa, fm, fb)
    return _rec(a, b, fa, fm, fb, whole, tol, max_depth)


@dataclass(frozen=True)
class ParamDependent:
    """Boundary form with coefficients affine in the spectral parameter.

    Requires ``a0 sin(alpha) - b0 cos(alpha) > 0`` and
    ``a1 sin(beta) - b1 cos(beta) < 0``; construction fails otherwise.
    """

    alpha: float
    beta: float
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        half = math.pi / 2 + _EDGE_TOL
        if not (-half <= self.alpha <= half):
            raise BoundaryConditionError("alpha must lie in [-pi/2, pi/2]")
        if not (-half <= self.beta <= half):
            raise BoundaryConditionError("beta must lie in [-pi/2, pi/2]")
        s0 = self.a0 * math.sin(self.alpha) - self.b0 * math.cos(self.alpha)
        if not s0 > 0.0:
            raise BoundaryConditionError(
                f"sign condition a0*sin(alpha) - b0*cos(alpha) > 0 violated "
                f"(got {s0:.6g})")
        s1 = self.a1 * math.sin(self.beta) - self.b1 * math.cos(self.beta)
        if not s1 < 0.0:
            raise BoundaryConditionError(
                f"sign condition a1*sin(beta) - b1*cos(beta) < 0 violated "
                f"(got {s1:.6g})")

    @property
    def case(self):
        return "I"

    @property
    def left_sign_term(self):
        return self.a0 * math.sin(self.alpha) - self.b0 * math.cos(self.alpha)

    @property
    def right_sign_term(self):
        return self.a1 * math.sin(self.beta) - self.b1 * math.cos(self.beta)


@dataclass(frozen=True)
class Classical:
    """Separated parameter-free boundary conditions with 0 <= alpha, beta <= pi."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (-_EDGE_TOL <= self.alpha <= math.pi + _EDGE_TOL):
            raise BoundaryConditionError("alpha must lie in [0, pi]")
        if not (-_EDGE_TOL <= self.beta <= math.pi + _EDGE_TOL):
            raise BoundaryConditionError("beta must lie in [0, pi]")

    @property
    def case(self):
        return "II"


BoundaryForm = ParamDependent | Classical


@dataclass(frozen=True)
class DiracProblem:
    """Mass, potential and boundary form; fully determines a spectrum."""

    mass: float
    potential: Potential
    boundary: BoundaryForm

    def __post_init__(self):
        if not math.isfinite(self.mass):
            raise InputError("mass must be finite")
        # The classical family is stated for positive mass; m = 0 is admitted
        # as the massless limit used by the closed-form oracles.
        if isinstance(self.boundary, Classical) and self.mass < 0.0:
            raise InputError("classical boundary form requires mass >= 0")

    @property
    def case(self):
        return self.boundary.case


@dataclass(frozen=True)
class EigenRecord:
    """One located eigenvalue with solver diagnostics.

    ``residual`` is the characteristic function at ``lam`` divided by
    |y(pi)| and by the norm of the boundary form's coefficients at pi, so it
    does not depend on the size of the unnormalized solution.  ``bracket``
    is the bracket the root finder started from.  ``steps`` is the number of
    uniform steps of the mesh ``lam`` was solved on (before the potential's
    breakpoints are added), and ``error_estimate`` the estimate of the
    error of ``lam`` from lam' and lam'', the eigenvalues on the meshes of
    half and a quarter as many uniform steps: with d = lam' - lam and
    rho = (lam'' - lam') / d, it is 3 |d| / (rho - 1) where rho lies in
    [12, 20], as for a fourth-order error, and |d| elsewhere.  Both are None
    on a record that no search produced.
    """

    index: int
    lam: float
    residual: float
    bracket: tuple[float, float]
    steps: int | None = None
    error_estimate: float | None = None


def _validated_points(points, lo=0.0, hi=DOMAIN_LENGTH):
    pts = _as_float_array(points, "points")
    if pts.size and not (pts[0] > lo and pts[-1] < hi):
        raise InputError("points must lie strictly inside (0, pi)")
    if pts.size > 1 and not np.all(np.diff(pts) > 0):
        raise InputError("points must be strictly increasing")
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class NodalSet:
    """Ordered interior zeros of one eigenfunction component; empty for a
    component without interior zeros.

    ``predicted_count`` carries the closed-form node-count prediction when
    one exists; it is recorded for comparison, never enforced.
    """

    index: int
    component: int
    points: np.ndarray
    predicted_count: int | None = None

    def __post_init__(self):
        if self.component not in (1, 2):
            raise InputError("component must be 1 or 2")
        object.__setattr__(self, "points", _validated_points(self.points))

    @property
    def lengths(self):
        return np.diff(self.points)

    @property
    def count(self):
        return int(self.points.size)

    @property
    def count_discrepancy(self):
        if self.predicted_count is None:
            return None
        return self.count - self.predicted_count


class GridSequence:
    """Admissible double sequence of grid points, the inverse problem's data.

    ``rows`` maps an index n to the ordered points of that row; ``case`` is
    "I" for the parameter-dependent family and "II" for the classical one.
    """

    __slots__ = ("case", "_rows")

    def __init__(self, case: str, rows: Mapping[int, Sequence[float]]):
        if case not in ("I", "II"):
            raise InputError("case must be 'I' or 'II'")
        self.case = case
        store = {}
        for n, pts in rows.items():
            row = _validated_points(pts)
            if not row.size:
                raise InputError(f"empty row for index {int(n)}")
            store[int(n)] = row
        self._rows = store

    @classmethod
    def from_nodal_sets(cls, nodal_sets: Sequence[NodalSet], case: str):
        return cls(case, {ns.index: ns.points for ns in nodal_sets})

    def indices(self):
        return sorted(self._rows)

    def row(self, n):
        try:
            return self._rows[n]
        except KeyError:
            raise InputError(f"no row for index {n}") from None

    def lengths(self, n):
        return np.diff(self.row(n))

    def seed_count(self, n):
        """Integer frequency surrogate for row n: n-2 in case I, n in case II."""
        return n - 2 if self.case == "I" else n

    def deviation_sup(self, n):
        """max_k n * |X_k - k*pi/seed| measured against the ideal lattice."""
        seed = self.seed_count(n)
        if seed <= 0:
            return math.inf
        row = self.row(n)
        k = np.arange(1, row.size + 1, dtype=float)
        return float(n * np.max(np.abs(row - k * math.pi / seed)))

    def to_json(self):
        return {"case": self.case,
                "rows": {str(n): [float(x) for x in self._rows[n]]
                         for n in self.indices()}}

    @classmethod
    def from_json(cls, obj):
        try:
            case = obj["case"]
            rows = {int(k): v for k, v in obj["rows"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed grid-sequence document: {exc}") from exc
        return cls(case, rows)

    def __repr__(self):
        idx = self.indices()
        span = f"{idx[0]}..{idx[-1]}" if idx else "empty"
        return f"GridSequence(case={self.case}, n={span})"
