"""Potential reconstruction from nodal data.

The reconstruction attaches to each nodal interval a value built from the
rescaled nodal length; as the eigenvalue index grows the resulting step
function converges to the potential.  Two normalization modes are kept side
by side:

* ``paper_exact`` keeps the raw limit expressions: values carry an extra
  factor of pi, and the classical family includes alternating-sign mass
  correction terms keyed to interval parity;
* ``corrected`` divides by pi and drops the alternating mass terms, which
  closed-form constant-potential oracles and solver data show are absent
  from actual nodal lengths.  This is the default and the mode with
  demonstrated L1 convergence on numerical data.

The lambda source is equally explicit: integer seeds recover the potential
only up to the additive constant v/pi, numeric eigenvalues recover the
potential itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import DomainError, InputError
from .model import DOMAIN_LENGTH, DiracProblem, NodalSet, Potential

_MODE_TAGS = ("corrected", "paper_exact")
_LAMBDA_SOURCES = ("integer_seed", "numeric", "asymptotic")


@dataclass(frozen=True)
class StepFunction:
    """Right-open piecewise-constant function on [0, pi]."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or vals.size != bp.size - 1:
            raise InputError("need len(values) == len(breakpoints) - 1")
        if not np.all(np.diff(bp) > 0):
            raise InputError("breakpoints must be strictly increasing")
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float),
                              side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    @property
    def interval_widths(self):
        return np.diff(self.breakpoints)

    def l1_norm(self):
        return float(np.sum(np.abs(self.values) * self.interval_widths))


@dataclass(frozen=True)
class ReconstructionMode:
    tag: str = "corrected"
    lambda_source: str = "numeric"

    def __post_init__(self):
        if self.tag not in _MODE_TAGS:
            raise InputError(f"tag must be one of {_MODE_TAGS}")
        if self.lambda_source not in _LAMBDA_SOURCES:
            raise InputError(f"lambda_source must be one of {_LAMBDA_SOURCES}")


def jn_index(nodes: NodalSet, x: float) -> int:
    """Largest j with x_j <= x (left-closed); 0 when x precedes the first node."""
    if not 0.0 < x < DOMAIN_LENGTH:
        raise DomainError("x must lie in (0, pi)")
    return int(np.searchsorted(nodes.points, x, side="right"))


def _resolve_scale(nodes, problem, mode, lam):
    if mode.lambda_source == "numeric":
        if lam is None:
            raise InputError("numeric lambda_source needs the eigenvalue")
        return float(lam)
    if mode.lambda_source == "asymptotic":
        return asymptotics.lambda_asym(problem, nodes.index, order=2)
    seed = nodes.index - 2 if problem.case == "I" else nodes.index
    if seed <= 0:
        raise DomainError(f"integer seed {seed} not positive for index {nodes.index}")
    return float(seed)


def reconstruct_step(nodes: NodalSet, problem: DiracProblem,
                     mode: ReconstructionMode | None = None,
                     lam: float | None = None) -> StepFunction:
    """Step-function approximant of the potential on the nodal partition.

    The function is extended constantly onto [0, x_1) and [x_last, pi) using
    the adjacent interval's value so that L1 errors integrate over all of
    [0, pi].
    """
    mode = mode or ReconstructionMode()
    pts = nodes.points
    if pts.size < 2:
        raise InputError(f"reconstruction at index {nodes.index} needs at least "
                         f"two nodal points, got {pts.size}")
    scale = _resolve_scale(nodes, problem, mode, lam)
    lengths = np.diff(pts)
    m = problem.mass

    if problem.case == "I" or mode.tag == "corrected":
        core = scale * (scale * lengths - 0.5 * m * m * lengths / scale - math.pi)
        values = core if mode.tag == "paper_exact" else core / math.pi
    else:
        j = np.arange(1, lengths.size + 1)
        sign = np.where(j % 2 == 0, 1.0, -1.0)
        alpha = problem.boundary.alpha
        values = (scale * (scale * lengths - math.pi)
                  + sign * 0.5 * m * m * (pts[:-1] + pts[1:])
                  + sign * m * math.sin(2.0 * alpha))

    breakpoints = np.concatenate([[0.0], pts, [DOMAIN_LENGTH]])
    padded = np.concatenate([[values[0]], values, [values[-1]]])
    return StepFunction(breakpoints, padded)


@dataclass(frozen=True)
class LocalAverages:
    """Rescaled local integrals of the potential over one nodal interval.

    ``osc`` uses the kernel cos(2*lambda*t); ``osc_paper_kernel`` keeps the
    cos(2*lambda*pi*t) variant alongside for comparison.  Decay is expected
    of ``osc`` only.
    """

    avg: float
    osc: float
    osc_paper_kernel: float


def local_average_limit(potential: Potential, nodes: NodalSet, lam: float,
                        x: float) -> LocalAverages:
    j = jn_index(nodes, x)
    if not 1 <= j <= nodes.count - 1:
        raise DomainError(f"x={x:.6g} is not interior to the nodal partition")
    a = float(nodes.points[j - 1])
    b = float(nodes.points[j])
    avg = lam * potential.integral_between(a, b)
    osc = lam * _oscillatory_integral(potential, a, b, 2.0 * lam)
    osc_paper = lam * _oscillatory_integral(potential, a, b, 2.0 * lam * math.pi)
    return LocalAverages(float(avg), float(osc), float(osc_paper))


def _oscillatory_integral(potential: Potential, a: float, b: float,
                          omega: float) -> float:
    """Integral of cos(omega t) V(t) over [a, b].

    Exact for sampled potentials (closed form per linear cell); panelled
    Gauss-Legendre otherwise, with panel count tied to the phase span.
    """
    if b <= a:
        return 0.0
    if abs(omega) < 1e-12:
        return potential.integral_between(a, b)
    if potential.is_sampled:
        grid = np.linspace(0.0, DOMAIN_LENGTH, potential.values.size)
        cuts = grid[(grid > a) & (grid < b)]
        edges = np.concatenate([[a], cuts, [b]])
        total = 0.0
        for u, w in zip(edges[:-1], edges[1:]):
            vm = float(potential(0.5 * (u + w)))
            slope = float((potential(w) - potential(u)) / (w - u)) if w > u else 0.0
            # linear segment p + q t through the midpoint
            q = slope
            p = vm - q * 0.5 * (u + w)
            su, sw = math.sin(omega * u), math.sin(omega * w)
            cu, cw = math.cos(omega * u), math.cos(omega * w)
            total += ((p + q * w) * sw - (p + q * u) * su) / omega \
                + q * (cw - cu) / (omega * omega)
        return total
    n_panels = int(abs(omega) * (b - a) / 3.0) + 1
    nodes16, weights16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * nodes16[None, :]).ravel()
    fs = np.asarray(potential(ts), dtype=float) * np.cos(omega * ts)
    ws = (half[:, None] * weights16[None, :]).ravel()
    return float(np.sum(fs * ws))


def _union(a, b):
    """The values of a and b, sorted, without exact duplicates: np.union1d's
    result, without the numpy.ma import that np.unique makes on first use."""
    edges = np.sort(np.concatenate((a, b), axis=None))
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _linear_nodes(potential: Potential, n_cells: int = 4096):
    """Nodes of a piecewise-linear representation of V: a sampled potential's
    own grid, or n_cells uniform cells with a node at each breakpoint."""
    if potential.is_sampled:
        return np.linspace(0.0, DOMAIN_LENGTH, potential.values.size)
    return _union(np.linspace(0.0, DOMAIN_LENGTH, n_cells + 1),
                  potential.breakpoints)


def _cell_ends(potential: Potential, edges):
    """V at both ends of the cells between consecutive edges, which include
    every breakpoint of V; at a breakpoint each cell takes V one ulp inside
    itself, so that a jump of V counts on its own side."""
    v = np.asarray(potential(edges), dtype=float)
    v_lo, v_hi = v[:-1].copy(), v[1:].copy()
    breaks = potential.breakpoints
    at = np.searchsorted(edges, breaks)
    v_hi[at - 1] = potential(np.nextafter(breaks, -np.inf))
    v_lo[at] = potential(np.nextafter(breaks, np.inf))
    return v_lo, v_hi


def _abs_linear_cells(widths, d_lo, d_hi):
    """Exact integral of |D| per cell for D linear with endpoint values."""
    same = d_lo * d_hi >= 0.0
    plain = 0.5 * np.abs(d_lo + d_hi) * widths
    denom = np.where(same, 1.0, d_lo - d_hi)
    frac = np.where(same, 0.0, d_lo / denom)
    split = 0.5 * (np.abs(d_lo) * frac + np.abs(d_hi) * (1.0 - frac)) * widths
    return np.where(same, plain, split)


def l1_error(F: StepFunction, potential: Potential, adjust_mean: bool = False,
             boundary_shift: float = 0.0) -> float:
    """Integral over [0, pi] of |F - V0|, where V0 is V itself or V minus its
    first-order constant (integral of V plus boundary_shift, over pi)."""
    shift = 0.0
    if adjust_mean:
        shift = (potential.total_integral + boundary_shift) / math.pi
    edges = _union(F.breakpoints, _linear_nodes(potential))
    edges = edges[(edges >= 0.0) & (edges <= DOMAIN_LENGTH)]
    lo, hi = edges[:-1], edges[1:]
    consts = F(0.5 * (lo + hi)) + shift
    v_lo, v_hi = _cell_ends(potential, edges)
    return float(np.sum(_abs_linear_cells(hi - lo, consts - v_lo, consts - v_hi)))


def l1_distance(v_a: Potential, v_b: Potential, shift_a: float = 0.0,
                shift_b: float = 0.0) -> float:
    """Exact L1 distance between piecewise-linear representations of two
    potentials, each lowered by a constant shift."""
    grid = _union(_linear_nodes(v_a), _linear_nodes(v_b))
    a_lo, a_hi = _cell_ends(v_a, grid)
    b_lo, b_hi = _cell_ends(v_b, grid)
    shift = shift_a - shift_b
    return float(np.sum(_abs_linear_cells(np.diff(grid), a_lo - b_lo - shift,
                                          a_hi - b_hi - shift)))
