"""Reference eigenvalues and nodes that do not use the program's solver.

Everything here is computed from a problem-configuration document alone,
with this file's own integrator:

* piecewise-constant potentials (``zero``, ``constant``, ``step``) propagate
  with the exact 2x2 exponential of each constant piece, so the
  characteristic function is exact to roundoff;
* smooth potentials (``sin2x``, ``poly``, sampled grids) use a fourth-order
  Magnus step on a mesh four times finer than the program's default, with
  every breakpoint of V (the jump of ``step``, the nodes of a sampled grid)
  on a mesh node.

Eigenvalue labels are assigned by rank: the root nearest the asymptotic
position of an anchor index n_a >> m^2 is labelled n_a, and every root found
below it by a sign-change scan takes the next lower label.  This depends
only on the ordering of the spectrum, not on how any solver seeds its search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROGRAM_STEPS = 4096
FINE_STEPS = 4 * PROGRAM_STEPS
SCAN_STEPS = 512
# Zeros this close to an endpoint are the boundary condition, not nodes.
ENDPOINT_GUARD = 1e-7
_G = math.sqrt(3.0) / 6.0


class OracleError(RuntimeError):
    """The reference computation could not certify its own result."""


@dataclass(frozen=True)
class RefProblem:
    mass: float
    boundary: dict
    vfunc: object
    breaks: np.ndarray
    piecewise_constant: bool
    total_integral: float

    @property
    def case(self):
        return "II" if self.boundary["kind"] == "classical" else "I"

    @property
    def v(self):
        """First-order constant: integral of V plus beta - alpha."""
        return self.total_integral + self.boundary["beta"] - self.boundary["alpha"]


def ref_problem(doc) -> RefProblem:
    """Parse a configuration document into the oracle's own representation."""
    pot = doc["potential"]
    pc = False
    if pot["kind"] == "sampled":
        vals = np.asarray(pot["values"], dtype=float)
        grid = np.linspace(0.0, math.pi, vals.size)
        vfunc = lambda x: np.interp(x, grid, vals)  # noqa: E731
        breaks = grid
        integral = float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(grid)))
    else:
        name, params = pot["name"], pot.get("params", {})
        breaks = np.array([0.0, math.pi])
        if name in ("zero", "constant"):
            c = float(params.get("c", 0.0))
            vfunc = lambda x: np.full_like(np.asarray(x, dtype=float), c)  # noqa: E731
            integral, pc = c * math.pi, True
        elif name == "step":
            a, height = float(params["a"]), float(params["height"])
            vfunc = lambda x: np.where(np.asarray(x) >= a, height, 0.0)  # noqa: E731
            if 0.0 < a < math.pi:
                breaks = np.array([0.0, a, math.pi])
            integral, pc = height * (math.pi - a), True
        elif name == "sin2x":
            vfunc = lambda x: np.sin(2.0 * np.asarray(x, dtype=float))  # noqa: E731
            integral = 0.0
        elif name == "poly":
            poly = np.polynomial.Polynomial([float(c) for c in params["coeffs"]])
            vfunc = poly
            anti = poly.integ()
            integral = float(anti(math.pi) - anti(0.0))
        else:
            raise OracleError(f"no reference for potential {name!r}")
    return RefProblem(float(doc["mass"]), dict(doc["boundary"]), vfunc,
                      np.asarray(breaks, dtype=float), pc, integral)


def mesh(ref: RefProblem, steps: int) -> np.ndarray:
    """Mesh edges with every breakpoint of V on a node, about `steps` cells.

    A piecewise-constant potential with steps=0 gets one cell per piece.
    """
    parts = []
    for lo, hi in zip(ref.breaks[:-1], ref.breaks[1:]):
        k = max(1, math.ceil(steps * (hi - lo) / math.pi - 1e-9))
        parts.append(np.linspace(lo, hi, k + 1)[:-1])
    parts.append([math.pi])
    return np.concatenate(parts)


def _cos_sinc(s2):
    """cosh(sqrt(s2)) and sinh(sqrt(s2))/sqrt(s2), continued to s2 < 0."""
    t = np.sqrt(np.abs(s2))
    pos = s2 >= 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(pos, np.cosh(t), np.cos(t))
        tiny = t < 1e-6
        t_safe = np.where(tiny, 1.0, t)
        s = np.where(pos, np.sinh(t_safe), np.sin(t_safe)) / t_safe
    return c, np.where(tiny, 1.0 + s2 / 6.0, s)


@dataclass(frozen=True)
class Cells:
    """Potential data of one mesh: cell starts, widths, Gauss-point mean of V
    and the Magnus commutator term, all of shape (N,)."""

    x0: np.ndarray
    h: np.ndarray
    vbar: np.ndarray
    gam: np.ndarray


def cells(ref: RefProblem, x0, h) -> Cells:
    x0 = np.asarray(x0, dtype=float)
    h = np.asarray(h, dtype=float)
    v1 = np.asarray(ref.vfunc(x0 + (0.5 - _G) * h), dtype=float)
    v2 = np.asarray(ref.vfunc(x0 + (0.5 + _G) * h), dtype=float)
    return Cells(x0, h, 0.5 * (v1 + v2), _G * ref.mass * h * h * (v1 - v2))


def mesh_cells(ref: RefProblem, steps: int) -> Cells:
    edges = mesh(ref, steps)
    return cells(ref, edges[:-1], np.diff(edges))


def step_matrices(ref: RefProblem, cl: Cells, lams):
    """Fourth-order Magnus propagators of every cell, shape (N, K) each.

    Omega = (h/2)(A1 + A2) + (sqrt(3)/12) h^2 [A2, A1] with A evaluated at
    the two Gauss points; exact for a potential constant on the cell.
    """
    lams = np.asarray(lams, dtype=float)
    m = ref.mass
    gam = cl.gam[:, None]
    hh = cl.h[:, None]
    b = hh * (cl.vbar[:, None] - m - lams)
    c = hh * (lams - cl.vbar[:, None] - m)
    cc, ss = _cos_sinc(gam * gam + b * c)
    return cc + ss * gam, ss * b, ss * c, cc - ss * gam


def _chain(p11, p12, p21, p22):
    """Ordered product M_N ... M_1 by pairwise multiplication."""
    while p11.shape[0] > 1:
        if p11.shape[0] % 2:
            one = np.ones_like(p11[:1])
            zero = np.zeros_like(p11[:1])
            p11, p12 = np.concatenate([p11, one]), np.concatenate([p12, zero])
            p21, p22 = np.concatenate([p21, zero]), np.concatenate([p22, one])
        a0, b0, c0, d0 = p11[0::2], p12[0::2], p21[0::2], p22[0::2]
        a1, b1, c1, d1 = p11[1::2], p12[1::2], p21[1::2], p22[1::2]
        p11, p12 = a1 * a0 + b1 * c0, a1 * b0 + b1 * d0
        p21, p22 = c1 * a0 + d1 * c0, c1 * b0 + d1 * d0
    return p11[0], p12[0], p21[0], p22[0]


def initial_state(ref: RefProblem, lams):
    b = ref.boundary
    lams = np.asarray(lams, dtype=float)
    if b["kind"] == "classical":
        return (np.full_like(lams, math.sin(b["alpha"])),
                np.full_like(lams, -math.cos(b["alpha"])))
    return -(lams * math.sin(b["alpha"]) + b["b0"]), lams * math.cos(b["alpha"]) + b["a0"]


def _terminal(ref: RefProblem, lams, y1, y2):
    b = ref.boundary
    if b["kind"] == "classical":
        return y1 * math.cos(b["beta"]) + y2 * math.sin(b["beta"])
    return ((lams * math.cos(b["beta"]) + b["a1"]) * y1
            + (lams * math.sin(b["beta"]) + b["b1"]) * y2)


def characteristic(ref: RefProblem, lams, cl: Cells, chunk=1024) -> np.ndarray:
    """Boundary form on the terminal state; zero exactly at eigenvalues."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = []
    for i in range(0, lams.size, chunk):
        part = lams[i:i + chunk]
        a, b, c, d = _chain(*step_matrices(ref, cl, part))
        y1, y2 = initial_state(ref, part)
        out.append(_terminal(ref, part, a * y1 + b * y2, c * y1 + d * y2))
    return np.concatenate(out)


def _illinois(ref, lo, hi, cl, tol):
    """Vectorised Illinois (modified regula falsi) on sign-change brackets,
    until every bracket is narrower than `tol`."""
    f_lo = characteristic(ref, lo, cl)
    f_hi = characteristic(ref, hi, cl)
    if np.any(f_lo * f_hi > 0.0):
        raise OracleError("reference bracket lost its sign change")
    lo, hi = lo.copy(), hi.copy()
    for _ in range(100):
        if np.all(np.abs(hi - lo) <= tol):
            break
        c = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        inside = (c - lo) * (c - hi) < 0.0
        c = np.where(inside, c, 0.5 * (lo + hi))
        f_c = characteristic(ref, c, cl)
        flip = f_c * f_hi < 0.0
        lo, f_lo = np.where(flip, hi, lo), np.where(flip, f_hi, 0.5 * f_lo)
        hi, f_hi = c, f_c
        done = f_c == 0.0
        lo = np.where(done, c, lo)
    else:
        raise OracleError("reference root iteration did not converge")
    return 0.5 * (lo + hi)


def _label_base(ref: RefProblem, n: int) -> int:
    return n - 2 if ref.case == "I" else n


def eigenvalues(ref: RefProblem, indices) -> dict[int, float]:
    """Reference eigenvalues for positive labels, labelled by rank."""
    indices = sorted(set(int(n) for n in indices))
    if not indices or indices[0] < 1:
        raise OracleError("reference labels are positive integers")
    if ref.piecewise_constant:
        scan = fine = mesh_cells(ref, 0)
        step = 1e-3
    else:
        scan, fine = mesh_cells(ref, SCAN_STEPS), mesh_cells(ref, FINE_STEPS)
        step = 1e-2
    n_anchor = max(indices[-1] + 8, math.ceil(20.0 * ref.mass ** 2) + 10)
    target = _label_base(ref, n_anchor) + ref.v / math.pi
    need = n_anchor - indices[0]

    upper = target + 0.5
    found = []  # sign-change cells (lo, hi), in descending order
    anchor = None
    while anchor is None or len(found) - anchor - 1 < need:
        if upper < target - 4.0 * (need + 10):
            raise OracleError("scan ran out of range before reaching the lowest label")
        grid = np.arange(upper, upper - 64.0, -step)
        chi = characteristic(ref, grid, scan)
        if np.any(chi == 0.0):
            raise OracleError("characteristic vanished exactly on the scan grid")
        found.extend((grid[i + 1], grid[i]) for i in np.nonzero(chi[:-1] * chi[1:] < 0.0)[0])
        if anchor is None:
            near = [k for k, (lo, hi) in enumerate(found) if abs(lo + hi - 2 * target) < 0.6]
            if len(near) != 1:
                raise OracleError(f"{len(near)} roots near the anchor position {target:.6g}")
            anchor = near[0]
        upper = grid[-1]

    mids = np.array([lo + hi for lo, hi in found]) / 2
    if np.min(np.abs(np.diff(mids)), initial=np.inf) < 10 * step:
        raise OracleError("roots closer than the scan resolution")
    picks = [found[anchor + n_anchor - n] for n in indices]
    lo = np.array([p[0] for p in picks])
    hi = np.array([p[1] for p in picks])
    roots = _secant(ref, _illinois(ref, lo, hi, scan, 1e-9), fine)
    return dict(zip(indices, roots.tolist()))


def _secant(ref, start, cl):
    """Secant iteration from a nearby estimate, certified afterwards by a
    sign change of the characteristic across 1e-14 relative of each root."""
    x0, x1 = start - 1e-7, start + 1e-7
    f0, f1 = characteristic(ref, x0, cl), characteristic(ref, x1, cl)
    for _ in range(12):
        denom = np.where(f1 != f0, f1 - f0, 1.0)
        x2 = np.where(f1 != f0, x1 - f1 * (x1 - x0) / denom, x1)
        x0, f0 = x1, f1
        x1, f1 = x2, characteristic(ref, x2, cl)
        if np.all(np.abs(x1 - x0) <= 1e-15 * np.maximum(1.0, np.abs(x1))):
            break
    delta = 1e-14 * np.maximum(1.0, np.abs(x1))
    if np.any(characteristic(ref, x1 - delta, cl) * characteristic(ref, x1 + delta, cl) > 0.0):
        raise OracleError("fine-mesh root not certified by a sign change")
    return x1


def _trajectory(ref, lam, cl: Cells):
    """States at every mesh node; shape (N + 1, 2)."""
    p11, p12, p21, p22 = (a[:, 0].tolist() for a in step_matrices(ref, cl, [lam]))
    y1, y2 = (float(v[0]) for v in initial_state(ref, [lam]))
    out = [(y1, y2)]
    for a, b, c, d in zip(p11, p12, p21, p22):
        y1, y2 = a * y1 + b * y2, c * y1 + d * y2
        out.append((y1, y2))
    return np.array(out)


def nodes(ref: RefProblem, lam: float, component: int) -> np.ndarray:
    """Interior zeros of one eigenfunction component at the reference lambda."""
    edges = mesh(ref, FINE_STEPS)
    traj = _trajectory(ref, lam, cells(ref, edges[:-1], np.diff(edges)))
    comp = traj[:, component - 1]
    idx = np.nonzero(comp[:-1] * comp[1:] < 0.0)[0]
    x0, y0 = edges[idx], traj[idx]
    lo, hi = np.zeros(idx.size), np.diff(edges)[idx]
    f_lo = comp[idx]
    row = 2 * (component - 1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p = step_matrices(ref, cells(ref, x0, mid), [lam])
        f_mid = p[row][:, 0] * y0[:, 0] + p[row + 1][:, 0] * y0[:, 1]
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    xs = x0 + 0.5 * (lo + hi)
    return xs[(xs > ENDPOINT_GUARD) & (xs < math.pi - ENDPOINT_GUARD)]


def s_n(case: str, n: int, m: float, rows_a, rows_b) -> float:
    """Weighted l1 distance of the nodal-length rows at index n."""
    la, lb = np.diff(rows_a), np.diff(rows_b)
    if la.size != lb.size:
        raise OracleError(f"row {n}: {la.size} vs {lb.size} lengths")
    diff = np.abs(la - lb)
    if case == "I":
        return float(math.pi * (n - 2 - m * m / (2.0 * (n - 2))) * np.sum(diff))
    k = np.arange(1, diff.size + 1)
    return float(np.sum(math.pi * (n + np.where(k % 2 == 0, 1.0, -1.0) * m * m / (2.0 * n))
                        * diff))


def d0(case: str, m: float, rows_a: dict, rows_b: dict) -> float:
    """Max of s_n over the upper half of the index window."""
    ns = sorted(rows_a)
    return max(s_n(case, n, m, rows_a[n], rows_b[n]) for n in ns[len(ns) // 2:])


def step_l1_error(ref: RefProblem, points, scale: float, shift: float) -> float:
    """Integral over [0, pi] of |F - (V - shift)| for the corrected step
    reconstruction F built from nodal points with spectral scale `scale`,
    by 16-point Gauss-Legendre on every cell between nodes and mesh points."""
    m = ref.mass
    lengths = np.diff(points)
    vals = scale * (scale * lengths - 0.5 * m * m * lengths / scale - math.pi) / math.pi
    vals = np.concatenate([[vals[0]], vals, [vals[-1]]])
    bps = np.concatenate([[0.0], points, [math.pi]])
    edges = np.union1d(bps, mesh(ref, PROGRAM_STEPS))
    gx, gw = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    xs = mid[:, None] + half[:, None] * gx
    f = vals[np.clip(np.searchsorted(bps, mid, side="right") - 1, 0, vals.size - 1)]
    diff = np.abs(f[:, None] - (ref.vfunc(xs) - shift))
    return float(np.sum(diff * gw * half[:, None]))
