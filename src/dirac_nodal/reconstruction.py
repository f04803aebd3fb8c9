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

MODE_TAGS = ("corrected", "paper_exact")
LAMBDA_SOURCES = ("integer_seed", "numeric", "asymptotic")

# Uniform cells of the piecewise-linear representation of a callable V.
_LINEAR_CELLS = 4096


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
        if self.tag not in MODE_TAGS:
            raise InputError(f"tag must be one of {MODE_TAGS}")
        if self.lambda_source not in LAMBDA_SOURCES:
            raise InputError(f"lambda_source must be one of {LAMBDA_SOURCES}")

    @property
    def adjusts_mean(self) -> bool:
        """Whether the reconstruction converges to V - v/pi rather than V:
        integer seeds cannot see the additive constant v/pi."""
        return self.lambda_source == "integer_seed"


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
    # the integer seed is the expansion's zeroth order, model.integer_base
    seed = asymptotics.lambda_asym(problem, nodes.index, order=0)
    if seed <= 0:
        raise DomainError(f"integer seed {seed:g} not positive for index {nodes.index}")
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
    """Rescaled local integrals of the potential over one nodal interval:
    ``avg`` of V and ``osc`` of V against the kernel cos(2*lambda*t)."""

    avg: float
    osc: float


def local_average_limit(potential: Potential, nodes: NodalSet, lam: float,
                        x: float) -> LocalAverages:
    j = jn_index(nodes, x)
    if not 1 <= j <= nodes.count - 1:
        raise DomainError(f"x={x:.6g} is not interior to the nodal partition")
    a = float(nodes.points[j - 1])
    b = float(nodes.points[j])
    avg = lam * potential.integral_between(a, b)
    osc = lam * _oscillatory_integral(potential, a, b, 2.0 * lam)
    return LocalAverages(float(avg), float(osc))


def _oscillatory_integral(potential: Potential, a: float, b: float,
                          omega: float) -> float:
    """Integral of cos(omega t) V(t) over [a, b].

    Panelled 16-point Gauss-Legendre: the panels are cut at the breakpoints
    of V inside (a, b), a sampled potential's grid nodes among them, so that
    V is smooth on every panel, and between cuts their count is tied to the
    phase span.
    """
    if b <= a:
        return 0.0
    if abs(omega) < 1e-12:
        return potential.integral_between(a, b)
    breaks = potential.breakpoints
    cuts = np.concatenate(([a], breaks[(breaks > a) & (breaks < b)], [b]))
    counts = (abs(omega) * np.diff(cuts) / 3.0).astype(int) + 1
    edges = np.concatenate([np.linspace(u, w, k + 1)[:-1] for u, w, k
                            in zip(cuts[:-1], cuts[1:], counts)] + [[b]])
    nodes16, weights16 = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * nodes16[None, :]).ravel()
    fs = np.asarray(potential(ts), dtype=float) * np.cos(omega * ts)
    ws = (half[:, None] * weights16[None, :]).ravel()
    return float(np.sum(fs * ws))


def _union(a, b):
    """The values of a and b, sorted, without exact duplicates: np.union1d's
    result, without the numpy.ma import that np.unique makes on first use.
    The stable sort merges the runs of sorted inputs instead of sorting
    again."""
    edges = np.sort(np.concatenate((a, b), axis=None), kind="stable")
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _linear_nodes(potential: Potential):
    """Nodes of a piecewise-linear representation of V: a sampled potential's
    own grid, or _LINEAR_CELLS uniform cells with a node at each breakpoint."""
    if potential.is_sampled:
        return np.linspace(0.0, DOMAIN_LENGTH, potential.values.size)
    return _union(np.linspace(0.0, DOMAIN_LENGTH, _LINEAR_CELLS + 1),
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


def l1_error(F: StepFunction, potential: Potential, shift: float = 0.0) -> float:
    """Integral over [0, pi] of |F + shift - V|: the L1 distance of F from
    V - shift.  An integer-seed reconstruction converges to V - v/pi, so its
    error is taken with shift = asymptotics.mean_shift(problem) / pi."""
    bp = F.breakpoints
    edges = _union(bp, _linear_nodes(potential))
    edges = edges[(edges >= 0.0) & (edges <= DOMAIN_LENGTH)]
    # F's breakpoints in [0, pi] are edges, so F is constant on each cell: its
    # values repeat over the runs of cells between them, padded at both ends
    # as F(x) clips
    first = np.searchsorted(bp, 0.0)
    at = np.searchsorted(edges, bp[first:np.searchsorted(bp, DOMAIN_LENGTH, "right")])
    ends = np.concatenate(([0], at, [edges.size - 1]))
    padded = np.concatenate((F.values[:1], F.values, F.values[-1:]))
    consts = np.repeat(padded[first:first + ends.size - 1], ends[1:] - ends[:-1])
    consts += shift
    v_lo, v_hi = _cell_ends(potential, edges)
    return float(np.sum(_abs_linear_cells(edges[1:] - edges[:-1], consts - v_lo,
                                          consts - v_hi)))


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
