"""Forward solver: initial-value integration, eigenvalue search, node extraction.

The integrator is a fixed-step fourth-order Magnus scheme built on the
two-point Gauss-Legendre rule.  Each step propagates with the exact
exponential of the averaged coefficient matrix plus its commutator
correction, so constant potentials are integrated exactly and the global
error for smooth potentials scales like lambda * h^4.  That uniformity in
lambda is what keeps high-index eigenvalues at 1e-10 accuracy without
step-count escalation; a classical RK4 at the same step count loses four
orders of magnitude by n = 40.

Each public call samples the potential at the mesh's Gauss points once.
The 2x2 step matrices are unimodular and their product may be grouped in
any order, so propagation is a log-depth computation on whole arrays, with
no loop over steps:

* the terminal state at x = pi multiplies the step matrices by pairwise
  halving, as if the mesh were padded with identity steps to a power of
  two.  Steps are taken in aligned power-of-two chunks that hold about
  ``_CHUNK_ENTRIES`` step-lambda entries at a time.  A chunk's matrices are
  built in bit-reversed step order, so each halving level multiplies the
  upper half of the arrays by the lower half, both contiguous, and yields
  the next level again in bit-reversed order.  Every chunk width gives the
  same full tree, so each lambda's result is bitwise independent of the
  batch it is computed in;
* a trajectory is the inclusive prefix product (Hillis-Steele scan) of the
  step matrices at one lambda, giving the state at every mesh node.

Both agree with a step-by-step loop to roundoff.  A step matrix needs
cosh(sqrt(u)) and sinh(sqrt(u))/sqrt(u) with u about -(h (lambda - V))^2.
For |u| <= 1/16, which on the default 4096-step mesh holds for every
|lambda - V| below about 320, they come from seven terms of their Taylor
series by Horner's rule, as the eta functions of the CP methods do for
small arguments (Ledoux, Van Daele and Vanden Berghe, ACM TOMS 31, 2005);
only larger |u| take cos and sin or cosh and sinh, chosen entry by entry.

Eigenvalues are labelled by the Prufer angle theta of the solution,
y1 = r sin(theta) and y2 = -r cos(theta) (Levitan and Sargsjan, 1991; the
approach of SLEIGN2, Bailey, Everitt and Zettl, ACM TOMS 27, 2001).  The
unwrapped theta(pi) increases strictly in lambda, and the eigenvalue with
index n is where theta(pi) = psi + k pi: psi is beta in the classical case
and the lambda-dependent angle of the boundary form in case I, and the
rotation index k is n classically and n - 1 in case I.  With ``angle``,
``_terminal`` returns theta(pi) beside the terminal state: the pairwise
tree keeps the level whose blocks of steps turn theta by at most pi/2, the
states at the block ends unwrap theta, and that fixes the 2 pi branch of
the terminal state's own angle.  theta(pi) is therefore bitwise the same
for every such level and every batch.

From the asymptotic seeds, each index jumps by its angle mismatch until
both ends of its bracket lie within pi of the target angle, one on each
side; chi changes sign exactly once in such a bracket, and a safeguarded
Illinois regula falsi refines it until it is ``lambda_tolerance`` wide.
Every round of the search evaluates one lambda per open index in one
batched propagation, and each index stops on its own.  A state at pi that
cancels to a tiny fraction of its terms, as for an eigenfunction decaying
from x = 0 across a mass gap, raises IntegrationFailure instead of
yielding a wrong root.  Nodes are bracketed by sign changes on the full
mesh and refined by the same root finder on a partial Magnus step from the
bracketing mesh node.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import asymptotics
from .errors import (ComputationError, DegenerateComponent, DomainError,
                     InputError, IntegrationFailure, IterationFailure,
                     RotationLimitExceeded, UnsupportedPrediction)
from .model import Classical, DiracProblem, EigenRecord, NodalSet

logger = logging.getLogger(__name__)

_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0

# Nodes refined closer to an endpoint than this are residual-level phantom
# zeros of a component that vanishes at the boundary; drop them.
_ENDPOINT_GUARD = 1e-8

# Bracket width at which a refined node is final.
_NODE_TOLERANCE = 1e-14

# Step-lambda entries per chunk of step tables in _terminal: the chunk's
# temporaries (128 KiB per array) then stay in a 2 MiB L2 cache.  Median time
# of find_eigenvalues(3..40) over the four spectrum_batch problems of the
# benchmark (seed 901, 30 interleaved repeats on one CPU of a 2-vCPU Xeon
# with numpy 2.4): 336 ms at 1 << 13, 234 ms at 1 << 14, 339 ms at 1 << 15.
_CHUNK_ENTRIES = 1 << 14

# On a mesh of several chunks, a chunk stops halving before its products
# hold fewer than this many entries, and _reduce finishes the tree over all
# chunks at once, with one _mul per level instead of one per chunk.  Measured
# as above (seed 902, chunks of 1 << 14): 244 ms when every chunk halves to
# one product, 238 ms at 256, 233 ms at 512, 277 ms at 1024, 308 ms at 2048.
_TAIL_ENTRIES = 512

# Angle mismatch, in rad, that the eigenvalue bracket's ends aim for.
_AIM = math.pi / 16

# A state at pi smaller than this fraction of the terms it is summed from
# has kept no more than about four significant digits.
_CANCELLATION = 1e-12

# Largest bound on the turn of the Prufer angle over one block of steps when
# the angle is unwrapped between block ends; below pi, with a margin for the
# difference between the sampled and the true potential.
_BLOCK_TURN = math.pi / 2


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration grid over [0, pi]."""

    n_steps: int = 4096

    def __post_init__(self):
        if self.n_steps < 64:
            raise InputError("n_steps must be at least 64")


@dataclass(frozen=True)
class EigenSearchConfig:
    """Bracketing and root-finding parameters for the eigenvalue search.

    ``lambda_tolerance`` is the bracket width at which a root is final.
    ``max_iterations`` caps, per index, both the angle evaluations that
    bracket it and the characteristic-function evaluations that refine the
    bracket; an index still open at either cap raises IterationFailure.
    """

    lambda_tolerance: float = 1e-10
    max_iterations: int = 48

    def __post_init__(self):
        if self.lambda_tolerance <= 0:
            raise InputError("lambda_tolerance must be positive")
        if self.max_iterations < 16:
            raise InputError("max_iterations must be at least 16")


# Taylor coefficients of cosh(sqrt(u)) = sum u**k / (2k)! and of
# sinh(sqrt(u)) / sqrt(u) = sum u**k / (2k + 1)!, highest power first.  For
# |u| <= _SERIES_LIMIT seven terms leave a remainder below 1e-19.
_COSH_SERIES = tuple(1.0 / math.factorial(2 * k) for k in reversed(range(7)))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in reversed(range(7)))
_SERIES_LIMIT = 1.0 / 16


def _horner(coeffs, u):
    """The polynomial with coefficients coeffs, highest power first, at u,
    accumulated in place in one array."""
    out = coeffs[0] * u
    for a in coeffs[1:-1]:
        out += a
        out *= u
    out += coeffs[-1]
    return out


def _coshc_sinhc(u):
    """cosh(sqrt(u)) and sinh(sqrt(u))/sqrt(u) for signed u (cos and sinc of
    sqrt(-u) for negative u).

    Entries with |u| <= _SERIES_LIMIT, which are all of them while
    |lambda - V| stays below about 320 on the default 4096-step mesh, take
    the Taylor series by Horner's rule: no square root, division or branch.
    Only the others go to ``_trig_coshc_sinhc``.  The choice is made per
    entry, so each value does not depend on the rest of the batch.
    """
    c = _horner(_COSH_SERIES, u)
    s = _horner(_SINHC_SERIES, u)
    big = np.abs(u) > _SERIES_LIMIT
    if big.any():
        c[big], s[big] = _trig_coshc_sinhc(u[big])
    return c, s


def _trig_coshc_sinhc(u):
    """cosh(sqrt(u)) and sinh(sqrt(u))/sqrt(u) for nonzero u from cosh and
    sinh (u > 0) or cos and sin (u < 0); each entry evaluates only the
    branch its sign selects."""
    t = np.sqrt(np.abs(u))
    pos = u > 0
    neg = ~pos
    c = np.cosh(t, out=np.empty_like(t), where=pos)
    np.cos(t, out=c, where=neg)
    s = np.sinh(t, out=np.empty_like(t), where=pos)
    np.sin(t, out=s, where=neg)
    s /= t
    return c, s


def _initial_state(problem, lams):
    b = problem.boundary
    if isinstance(b, Classical):
        y1 = np.full_like(lams, math.sin(b.alpha))
        y2 = np.full_like(lams, -math.cos(b.alpha))
    else:
        y1 = -(lams * math.sin(b.alpha) + b.b0)
        y2 = lams * math.cos(b.alpha) + b.a0
    return y1, y2


class Trajectory(NamedTuple):
    """Mesh nodes xs, shape (n_steps + 1,), and the states at them, y of shape
    (n_steps + 1, 2) with columns y1 and y2."""

    xs: np.ndarray
    y: np.ndarray


class _Mesh(NamedTuple):
    """Uniform mesh of [0, pi] with the potential sampled at its Gauss points."""

    h: float
    vbar: np.ndarray
    g: np.ndarray


def _sample(problem, x0, h):
    """Mean potential vbar and commutator weight g of the steps [x0, x0 + h]."""
    v_lo = np.asarray(problem.potential(x0 + _GAUSS_LO * h), dtype=float)
    v_hi = np.asarray(problem.potential(x0 + _GAUSS_HI * h), dtype=float)
    vbar = 0.5 * (v_lo + v_hi)
    g = (math.sqrt(3.0) / 6.0) * problem.mass * h * h * (v_hi - v_lo)
    return vbar, g


def _mesh(problem, n_steps):
    h = math.pi / n_steps
    return _Mesh(h, *_sample(problem, np.arange(n_steps) * h, h))


def _entries(m, h, vbar, g, lams):
    """Step propagator entries P11, P12, P21, P22 for any broadcast of steps
    (h, vbar, g) against spectral parameters lams.  Products are formed in
    place where the operands allow it: fewer large temporaries, and the
    same values bit for bit."""
    w = lams - vbar
    bb = -h * (w + m)
    cc = h * (w - m)
    ec, es = _coshc_sinhc(g * g + bb * cc)
    esg = es * g
    p11 = ec - esg
    ec += esg
    bb *= es
    cc *= es
    return p11, bb, cc, ec


def _mul(b, a):
    """Entries of the 2x2 product b @ a: step a is taken first.  The sums are
    accumulated in place through one scratch array."""
    b11, b12, b21, b22 = b
    a11, a12, a21, a22 = a
    out = (b11 * a11, b11 * a12, b21 * a11, b21 * a12)
    tmp = np.empty_like(out[0])
    for o, x, y in zip(out, (b12, b12, b22, b22), (a21, a22, a21, a22)):
        o += np.multiply(x, y, out=tmp)
    return out


def _reduce(p, levels=None):
    """Ordered products of aligned blocks of 2**levels matrices along axis 0,
    by pairwise halving (the product of all of them when levels is None).

    An unpaired last matrix is carried up one level unchanged, which gives
    the same result as padding with identity steps to the next power of
    two.  Halving in stages gives the same tree as halving at once.
    """
    for _ in itertools.count() if levels is None else range(levels):
        if p[0].shape[0] == 1:
            break
        even = p[0].shape[0] // 2 * 2
        pairs = _mul([x[1:even:2] for x in p], [x[0:even:2] for x in p])
        if even < p[0].shape[0]:
            pairs = [np.concatenate((q, x[even:])) for q, x in zip(pairs, p)]
        p = pairs
    return p


def _scan(p):
    """Inclusive prefix products along axis 0 (Hillis-Steele): entry i
    becomes P_i ... P_0."""
    d = 1
    while d < p[0].shape[0]:
        tail = _mul([x[d:] for x in p], [x[:-d] for x in p])
        p = [np.concatenate((x[:d], t)) for x, t in zip(p, tail)]
        d *= 2
    return p


@functools.cache
def _bitrev(span):
    """The bit-reversal permutation of range(span), span a power of two."""
    order = np.zeros(1, dtype=np.intp)
    while order.size < span:
        order = np.concatenate((2 * order, 2 * order + 1))
    order.flags.writeable = False
    return order


def _halve(p, levels):
    """Pairwise products, ``levels`` times, of matrices stored in bit-reversed
    step order: the upper half times the lower half.  After each halving,
    row r holds the product over block bitrev(r) of the new level, so the
    result is still in bit-reversed order, and the products are those of
    _reduce on the natural order, computed on contiguous operands."""
    for _ in range(levels):
        half = p[0].shape[0] // 2
        p = _mul([x[half:] for x in p], [x[:half] for x in p])
    return p


def _chunk(problem, lams, mesh, start, steps, levels):
    """Products, in natural order, of the aligned blocks of 2**levels steps
    (or of all of them, if fewer) among mesh steps [start, start + steps).

    The step matrices are built in bit-reversed order of the chunk, padded
    with identity steps to a power of two, and halved by ``_halve``."""
    span = 1 << (steps - 1).bit_length()
    levels = min(levels, span.bit_length() - 1)
    order = _bitrev(span)
    at = np.minimum(order, steps - 1) + start
    p = _entries(problem.mass, mesh.h, mesh.vbar[at, None], mesh.g[at, None], lams)
    if span > steps:
        pad = order >= steps
        for x, value in zip(p, (1.0, 0.0, 0.0, 1.0)):
            x[pad] = value
    keep = _bitrev(span >> levels)[:-(-steps >> levels)]
    return [x[keep] for x in _halve(p, levels)]


def _lambdas(values):
    lams = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise InputError("lambda values must be finite")
    return lams


def _check_finite(problem, lams, *arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise IntegrationFailure(
            f"components overflowed during integration (mass={problem.mass}, "
            f"lambda range [{lams.min():.6g}, {lams.max():.6g}])")


def _angle(y1, y2):
    """Prufer angle in (-pi, pi] of the states y1 = r sin(theta),
    y2 = -r cos(theta)."""
    return np.arctan2(y1, -y2)


def _start_angle(problem, lams, y1, y2):
    """theta(0) of the initial states: alpha in the classical case; in case I
    the state turns continuously from angle alpha (lambda -> -inf) to
    alpha + pi (lambda -> +inf), so theta(0) is taken in (alpha, alpha + pi)."""
    b = problem.boundary
    if isinstance(b, Classical):
        return np.full_like(lams, b.alpha)
    return b.alpha + np.mod(_angle(y1, y2) - b.alpha, 2 * math.pi)


def _end_angle(problem, lams):
    """The angle psi, modulo pi, that an eigenfunction has at x = pi: beta in
    the classical case; in case I the boundary form's normal turns from
    beta + pi (lambda -> -inf) down to beta (lambda -> +inf), so psi is taken
    in [beta, beta + pi)."""
    b = problem.boundary
    if isinstance(b, Classical):
        return np.full_like(lams, b.beta)
    a, c = _form_coefficients(problem, lams)
    return b.beta + np.mod(np.arctan2(c, a) - b.beta, math.pi)


def _block_level(problem, lams, mesh):
    """log2 of the steps per block over which the angle is unwrapped: the
    largest power of two whose blocks turn the angle by at most
    _BLOCK_TURN, from |theta'| <= |lambda| + max|V| + |m|."""
    rate = float(np.max(np.abs(lams))) + float(np.max(np.abs(mesh.vbar))) \
        + abs(problem.mass)
    steps = _BLOCK_TURN / (mesh.h * rate) if rate > 0 else mesh.vbar.size
    if steps < 1:
        raise RotationLimitExceeded(
            f"lambda = {float(np.max(np.abs(lams))):.6g}: one step of the "
            f"{mesh.vbar.size}-step mesh may turn the Prufer angle by "
            f"{mesh.h * rate:.3g} rad, more than the {_BLOCK_TURN:.3g} rad the "
            f"rotation count allows; increase the number of steps")
    return min(int(steps), mesh.vbar.size).bit_length() - 1


def _rotation(problem, lams, blocks, y1, y2, y1_pi, y2_pi):
    """Unwrapped theta(pi) from the products of consecutive blocks of steps,
    each turning the angle by less than pi: the turns between block ends
    sum to theta(pi) up to roundoff, which fixes its 2 pi branch; the value
    within the branch is the angle of the terminal state (y1_pi, y2_pi)."""
    s11, s12, s21, s22 = _scan(blocks)
    ends = _angle(s11 * y1 + s12 * y2, s21 * y1 + s22 * y2)
    start = _start_angle(problem, lams, y1, y2)
    turns = np.diff(ends, axis=0, prepend=start[None, :])
    turns -= 2 * math.pi * np.round(turns / (2 * math.pi))
    end = _angle(y1_pi, y2_pi)
    return end + 2 * math.pi * np.round((start + turns.sum(axis=0) - end)
                                        / (2 * math.pi))


def _terminal(problem, lams, mesh, angle=False):
    """(y1, y2) at x = pi for every lambda, and with ``angle`` the unwrapped
    Prufer angle theta(pi) as a third array.

    The step matrices are multiplied by the full pairwise tree over the mesh
    padded with identity steps to a power of two, so each lambda's result
    does not depend on the batch it is computed in.  The steps are taken in
    aligned power-of-two chunks of about _CHUNK_ENTRIES step-lambda entries
    (``_chunk``): each chunk builds its matrices in bit-reversed step order,
    padded with identity steps to a power of two where the mesh ends, and
    halves them on contiguous operands.  On a mesh of several chunks, a
    chunk stops halving before its products hold fewer than _TAIL_ENTRIES
    entries, and ``_reduce`` finishes the tree over all chunks at once.
    Neither the chunk width nor where a chunk stops changes the tree.  For
    the angle the halving pauses at the tree level whose blocks turn the
    angle by at most _BLOCK_TURN (``_block_level``) and keeps those block
    products in natural order; the tree and so the terminal state are
    unchanged, and theta(pi) is bitwise the same for every such level,
    chunk width and batch.
    """
    lams = _lambdas(lams)
    n = mesh.vbar.size
    # the largest power of two of steps, up to n, whose tables fit _CHUNK_ENTRIES
    width = 1 << (min(n, max(1, _CHUNK_ENTRIES // lams.size)).bit_length() - 1)
    inner = width.bit_length() - 1
    if n > width:
        inner = max(0, inner - ((_TAIL_ENTRIES - 1) // lams.size).bit_length())
    if angle:
        level = _block_level(problem, lams, mesh)
        inner = min(level, inner)
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = [_chunk(problem, lams, mesh, s, min(width, n - s), inner)
                  for s in range(0, n, width)]
        blocks = [np.concatenate(c) for c in zip(*chunks)]
        if angle:
            blocks = _reduce(blocks, level - inner)
        q11, q12, q21, q22 = (x[0] for x in _reduce(blocks))
        y1, y2 = _initial_state(problem, lams)
        y1_pi = q11 * y1 + q12 * y2
        y2_pi = q21 * y1 + q22 * y2
        terms = np.maximum(np.abs(q11 * y1) + np.abs(q12 * y2),
                           np.abs(q21 * y1) + np.abs(q22 * y2))
        if angle:
            theta = _rotation(problem, lams, blocks, y1, y2, y1_pi, y2_pi)
    _check_finite(problem, lams, y1_pi, y2_pi)
    lost = np.hypot(y1_pi, y2_pi) < _CANCELLATION * terms
    if lost.any():
        raise IntegrationFailure(
            f"the state at pi cancelled to below {_CANCELLATION:g} of its terms "
            f"at lambda = {lams[lost][0]:.6g}: shooting from x = 0 cannot "
            "resolve a solution that decays from x = 0 across a mass gap")
    if not angle:
        return y1_pi, y2_pi
    _check_finite(problem, lams, theta)
    return y1_pi, y2_pi, theta


def _trajectory(problem, lam, mesh):
    """The Trajectory at one spectral parameter, from the prefix products of
    the step matrices."""
    lams = _lambdas(float(lam))
    n = mesh.vbar.size
    out = np.empty((n + 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        q11, q12, q21, q22 = _scan(_entries(problem.mass, mesh.h, mesh.vbar,
                                            mesh.g, lams))
        y1, y2 = _initial_state(problem, lams)
        out[0] = y1[0], y2[0]
        out[1:, 0] = q11 * y1 + q12 * y2
        out[1:, 1] = q21 * y1 + q22 * y2
    _check_finite(problem, lams, out)
    return Trajectory(np.arange(n + 1) * mesh.h, out)


def integrate(problem: DiracProblem, lam: float,
              cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the system at spectral parameter lam from the exact
    boundary-determined initial spinor; returns the state at every mesh
    node."""
    cfg = cfg or IntegratorConfig()
    traj = _trajectory(problem, lam, _mesh(problem, cfg.n_steps))
    if np.hypot(traj.y[:, 0], traj.y[:, 1]).min() <= 1e-300:
        raise IntegrationFailure("solution components vanished simultaneously")
    return traj


def _form_coefficients(problem, lams):
    """Coefficients (a, b) of the boundary form a y1(pi) + b y2(pi)."""
    b = problem.boundary
    if isinstance(b, Classical):
        return math.cos(b.beta), math.sin(b.beta)
    return lams * math.cos(b.beta) + b.a1, lams * math.sin(b.beta) + b.b1


def _terminal_form(problem, lams, y1_pi, y2_pi):
    a, b = _form_coefficients(problem, lams)
    return a * y1_pi + b * y2_pi


def _characteristic_batch(problem, lams, mesh):
    lams = _lambdas(lams)
    return _terminal_form(problem, lams, *_terminal(problem, lams, mesh))


def characteristic(problem: DiracProblem, lam: float,
                   cfg: IntegratorConfig | None = None) -> float:
    """Boundary form evaluated on the terminal state; zero exactly at the
    eigenvalues."""
    cfg = cfg or IntegratorConfig()
    mesh = _mesh(problem, cfg.n_steps)
    return float(_characteristic_batch(problem, [float(lam)], mesh)[0])


def _illinois(f, lo, hi, f_lo, f_hi, tolerance, max_evals, describe):
    """Roots of f in brackets [lo, hi] with f_lo * f_hi < 0, by a
    safeguarded Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971)
    vectorized over the brackets.

    ``f(x, open_)`` returns f at the points x of the brackets at positions
    ``open_``.  Each iterate lies strictly inside its bracket and at least
    ``tolerance / 2`` from its ends, so an end that converges while the
    other stays put is closed off in one more step; a bracket that did not
    at least halve over its last three steps takes a bisection step instead,
    which leaves the Illinois halving of a kept end's weight a step to act.
    A bracket is frozen, and never evaluated or updated again, once it is at
    most ``tolerance`` wide (or holds no float strictly inside) or f is
    exactly 0 at an iterate, so each root is bitwise independent of the
    batch it is found in.  The root of a frozen bracket is the linear
    interpolant of its true end values.  A bracket still open after
    ``max_evals`` evaluations raises IterationFailure, naming the open
    brackets by ``describe(position)``.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    g_lo, g_hi = f_lo.copy(), f_hi.copy()   # Illinois-weighted end values
    kept = np.zeros(lo.size)                # +1: last step kept hi, -1: kept lo
    width_1 = np.full(lo.size, np.inf)      # widths one, two and three steps ago
    width_2 = width_1.copy()
    width_3 = width_1.copy()
    open_ = np.arange(lo.size)
    roots = np.empty(lo.size)
    for evals in itertools.count():
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= tolerance) | ~((lo < mid) & (mid < hi))
        if done.any():
            roots[open_[done]] = (lo + (hi - lo) * (f_lo / (f_lo - f_hi)))[done]
            (open_, lo, hi, f_lo, f_hi, g_lo, g_hi, kept, width_1, width_2,
             width_3, mid) = (v[~done] for v in (
                 open_, lo, hi, f_lo, f_hi, g_lo, g_hi, kept, width_1, width_2,
                 width_3, mid))
            if not open_.size:
                return roots
        if evals == max_evals:
            raise IterationFailure(
                f"root not within {tolerance:g} after {max_evals} evaluations: "
                + ", ".join(describe(k) for k in open_))
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.clip(lo + width * (g_lo / (g_lo - g_hi)),
                        lo + 0.5 * tolerance, hi - 0.5 * tolerance)
        x = np.where((width <= 0.5 * width_3) & (lo < x) & (x < hi), x, mid)
        fx = f(x, open_)

        width_1, width_2, width_3 = width, width_1, width_2
        move_lo = np.sign(fx) == np.sign(f_lo)
        # Illinois: an end kept for a second step in a row has its weight halved
        g_hi = np.where(move_lo, np.where(kept > 0, 0.5 * g_hi, g_hi), fx)
        g_lo = np.where(move_lo, fx, np.where(kept < 0, 0.5 * g_lo, g_lo))
        kept = np.where(move_lo, 1.0, -1.0)
        f_lo = np.where(move_lo, fx, f_lo)
        f_hi = np.where(move_lo, f_hi, fx)
        # an exact zero moves hi to x; closing lo onto it too freezes x as the root
        lo = np.where(move_lo | (fx == 0.0), x, lo)
        hi = np.where(move_lo, hi, x)


def _free_phase(m, lams):
    """sign(lambda) sqrt(lambda^2 - m^2), and 0 inside the mass gap: theta(pi)
    / pi of the free (V = 0) system up to a constant."""
    return np.sign(lams) * np.sqrt(np.maximum(lams * lams - m * m, 0.0))


def _free_lambda(m, phase):
    """The lambda outside the mass gap, or 0, of a free phase."""
    return np.sign(phase) * np.sqrt(phase * phase + m * m)


def _rotation_index(boundary, n):
    """The number k of half-turns, theta(pi) = psi + k pi, of the eigenfunction
    labelled n: k = n in the classical case and k = n - 1 in case I, where
    that keeps the labels of the asymptotic expansion.  Label 0 names no
    eigenvalue (rotation index 0 classically, -1 in case I)."""
    if n == 0:
        raise DomainError("eigenvalue index n must be nonzero")
    return n if isinstance(boundary, Classical) else n - 1


def _bracket(problem, turns, seeds, mesh, max_evals, describe):
    """Brackets [lo, hi] of the eigenvalues with the given rotation indices.

    The angle mismatch f(lambda) = theta(pi) - psi - k pi increases strictly
    in lambda and vanishes at the eigenvalue.  An end is accepted once f is
    in (-pi, 0) at lo and in (0, pi) at hi; chi changes sign exactly once
    in between.  Each index starts _AIM / pi below its seed.  Each round it
    jumps from the end whose mismatch is nearer the aim f = -_AIM (lo still
    missing) or +_AIM (hi missing), by that difference converted to lambda
    through the phase of the free (V = 0) system.  While one side is
    unknown, jumps in a row are stretched 2**k-fold, to at most twice the
    one before, so that they cross a plateau of f.  Once both sides are
    known, a jump that leaves the bracket is replaced by bisection.  Every
    round evaluates one lambda per open index, and each index follows only
    its own values, so its bracket does not depend on the batch.
    Returns lo, hi and chi at both; an index still open after ``max_evals``
    rounds raises IterationFailure.
    """
    size = turns.size
    lo, f_lo, chi_lo = np.full(size, -np.inf), np.full(size, -np.inf), np.zeros(size)
    hi, f_hi, chi_hi = np.full(size, np.inf), np.full(size, np.inf), np.zeros(size)
    streak = np.zeros(size)   # jumps in a row from a one-sided bracket
    step = np.zeros(size)     # and the last of them
    x = seeds - _AIM / math.pi
    open_ = np.arange(size)
    for evals in itertools.count(1):
        y1, y2, theta = _terminal(problem, x, mesh, angle=True)
        f = theta - _end_angle(problem, x) - math.pi * turns[open_]
        chi = _terminal_form(problem, x, y1, y2)
        left = f < 0.0
        for nearer, ends in ((left & (x > lo[open_]), (lo, f_lo, chi_lo)),
                             (~left & (x < hi[open_]), (hi, f_hi, chi_hi))):
            for end, value in zip(ends, (x, f, chi)):
                end[open_[nearer]] = value[nearer]
        open_ = open_[(f_lo[open_] <= -math.pi) | (f_hi[open_] >= math.pi)]
        if not open_.size:
            return lo, hi, chi_lo, chi_hi
        if evals == max_evals:
            raise IterationFailure(
                f"no bracket within pi of the target angle after {max_evals} "
                "evaluations: " + ", ".join(describe(k) for k in open_))
        a, b, fa, fb = lo[open_], hi[open_], f_lo[open_], f_hi[open_]
        aim = np.where(fa <= -math.pi, -_AIM, _AIM)
        one_sided = np.isinf(a) | np.isinf(b)
        from_hi = np.abs(fb - aim) < np.abs(fa - aim)
        base, f_base = np.where(from_hi, b, a), np.where(from_hi, fb, fa)
        jump = _free_lambda(problem.mass, _free_phase(problem.mass, base)
                            + (aim - f_base) / math.pi) - base
        jump *= 2.0 ** streak[open_]
        last = 2 * np.abs(step[open_])
        jump = np.where(last > 0, np.clip(jump, -last, last), jump)
        streak[open_] = np.where(one_sided, streak[open_] + 1, 0)
        step[open_] = np.where(one_sided, jump, 0.0)
        x = base + jump
        x = np.where(one_sided | ((a < x) & (x < b)), x, 0.5 * (a + b))


def find_eigenvalues(problem: DiracProblem, indices,
                     integrator: IntegratorConfig | None = None,
                     search: EigenSearchConfig | None = None) -> list[EigenRecord]:
    """Locate the eigenvalues with the given indices, batched.

    Index n labels the eigenvalue whose eigenfunction has rotation index
    ``_rotation_index(boundary, n)``.  Seeds come from the second-order
    eigenvalue expansion; ``_bracket`` turns them into brackets by the Prufer
    angle, and ``_illinois`` refines chi in each.
    """
    integrator = integrator or IntegratorConfig()
    search = search or EigenSearchConfig()
    indices = [int(n) for n in indices]
    if not indices:
        return []
    turns = np.array([_rotation_index(problem.boundary, n) for n in indices])
    if len(set(indices)) != len(indices):
        raise InputError("duplicate eigenvalue indices")

    seeds = np.array([asymptotics.lambda_asym(problem, n, order=2)
                      for n in indices])

    mesh = _mesh(problem, integrator.n_steps)

    def describe(k):
        return f"eigenvalue index {indices[k]}"

    lo, hi, chi_lo, chi_hi = _bracket(problem, turns, seeds, mesh,
                                      search.max_iterations, describe)
    roots = _illinois(lambda x, _: _characteristic_batch(problem, x, mesh),
                      lo, hi, chi_lo, chi_hi, search.lambda_tolerance,
                      search.max_iterations, describe)
    # chi over |y(pi)| and the norm of the form's coefficients: the sine of
    # the angle between y(pi) and the state the boundary condition admits
    y1, y2 = _terminal(problem, roots, mesh)
    residuals = _terminal_form(problem, roots, y1, y2) / (
        np.hypot(y1, y2) * np.hypot(*_form_coefficients(problem, roots)))
    records = [EigenRecord(n, float(roots[k]), float(residuals[k]),
                           (float(lo[k]), float(hi[k])))
               for k, n in enumerate(indices)]
    records.sort(key=lambda r: r.index)
    for a, b in zip(records, records[1:]):
        if not a.lam < b.lam:
            raise ComputationError(
                f"eigenvalue ordering violated between indices {a.index} and "
                f"{b.index}: {a.lam} >= {b.lam}")
    return records


def find_eigenvalue(problem: DiracProblem, n: int,
                    integrator: IntegratorConfig | None = None,
                    search: EigenSearchConfig | None = None) -> EigenRecord:
    return find_eigenvalues(problem, [n], integrator, search)[0]


def node_count_prediction(boundary, n: int, component: int) -> int:
    """Closed-form interior node count for large n, per boundary family."""
    if n < 4:
        raise DomainError("node-count prediction requires n >= 4")
    if component not in (1, 2):
        raise InputError("component must be 1 or 2")
    if isinstance(boundary, Classical):
        return abs(n) + 1 - component
    if component == 2:
        raise UnsupportedPrediction(
            "no node-count formula for component 2 with parameter-dependent "
            "boundary conditions")
    a, b = boundary.alpha, boundary.beta
    if a >= 0 and b > 0:
        return n - 2
    if a < 0 and b <= 0:
        return n - 2
    if a >= 0 and b <= 0:
        return n - 3
    return n - 1


def extract_nodes(problem: DiracProblem, rec: EigenRecord, component: int,
                  cfg: IntegratorConfig | None = None,
                  refine_iterations: int = 44) -> NodalSet:
    """All interior zeros of one eigenfunction component.

    Nodes are bracketed on every node of the ``cfg.n_steps`` mesh.  Each is
    refined by the eigenvalue search's root finder on a partial Magnus step
    from the bracketing mesh node, to a bracket ``_NODE_TOLERANCE`` wide;
    ``refine_iterations`` caps the evaluations per node, and a node still
    open at the cap raises IterationFailure.
    """
    if component not in (1, 2):
        raise InputError("component must be 1 or 2")
    cfg = cfg or IntegratorConfig()
    xs, traj = _trajectory(problem, rec.lam, _mesh(problem, cfg.n_steps))
    comp = traj[:, component - 1]

    scale = float(np.max(np.abs(comp)))
    if scale == 0.0:
        raise DegenerateComponent(f"component {component} is identically zero")
    near = np.abs(comp) <= 1e-12 * scale
    if np.any(near[:-2] & near[1:-1] & near[2:]):
        raise DegenerateComponent(
            f"component {component} vanishes on an interval of the grid")

    nodes = xs[1:-1][near[1:-1]].tolist()

    solid = ~near
    cells = np.nonzero(solid[:-1] & solid[1:] & (comp[:-1] * comp[1:] < 0))[0]
    if cells.size:
        def comp_at(x, open_):
            """The component at x from the state at its cell's left node."""
            x0 = xs[cells[open_]]
            y1, y2 = traj[cells[open_]].T
            h = x - x0
            p11, p12, p21, p22 = _entries(problem.mass, h,
                                          *_sample(problem, x0, h), rec.lam)
            if component == 1:
                return p11 * y1 + p12 * y2
            return p21 * y1 + p22 * y2

        nodes.extend(_illinois(
            comp_at, xs[cells], xs[cells + 1], comp[cells], comp[cells + 1],
            _NODE_TOLERANCE, refine_iterations,
            lambda k: (f"component {component} node in "
                       f"[{xs[cells[k]]:.6g}, {xs[cells[k] + 1]:.6g}]")).tolist())

    nodes.sort()
    filtered = [x for x in nodes
                if _ENDPOINT_GUARD < x < math.pi - _ENDPOINT_GUARD]
    deduped = []
    for x in filtered:
        if not deduped or x - deduped[-1] > 1e-9:
            deduped.append(x)

    try:
        predicted = node_count_prediction(problem.boundary, rec.index, component)
    except (DomainError, UnsupportedPrediction):
        predicted = None
    result = NodalSet(rec.index, component, np.asarray(deduped),
                      predicted_count=predicted)
    if predicted is not None and result.count != predicted:
        logger.debug("node count mismatch at n=%d component=%d: observed %d, "
                     "predicted %d", rec.index, component, result.count, predicted)
    return result
