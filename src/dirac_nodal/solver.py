"""Forward solver: initial-value integration, eigenvalue search, node extraction.

The integrator is the sixth-order Magnus scheme built on the three-point
Gauss-Legendre rule (Blanes, Casas and Ros, BIT 40, 2000).  Each step
propagates with the exact exponential of its Magnus exponent Omega, a
traceless 2x2 matrix whose entries are polynomials in lambda, so constant
potentials are integrated exactly and the global error for smooth
potentials falls by 2**6 = 64 each time the step halves.  The mesh is
uniform with a node added at each breakpoint of the potential, so that V is
smooth inside every step; without breakpoints it is exactly the uniform
mesh.

Each public call samples the potential at the mesh's Gauss points once, and
the coefficients of every step's Omega in lambda are formed then.
The 2x2 step matrices are unimodular and their product may be grouped in
any order, so propagation is a log-depth computation on whole arrays, with
no loop over steps.  One pairwise tree serves every use: each level
multiplies matrices 2j and 2j + 1 and carries an unpaired last one up, so
nothing is padded.  The matrices are stored in ``_order``, the bit-reversal
permutation generalized to any count, where each level multiplies the upper
half of the rows by the lower half, both contiguous, and leaves the next
level in ``_order`` again.  The step tables are one stacked array of shape
(2, 2, steps, lambdas).

* the terminal state at x = pi is the product of the whole tree.  A mesh
  whose tables exceed ``_CHUNK_ENTRIES`` step-lambda entries is taken in
  aligned power-of-two chunks.  Every chunk width gives the same tree, so
  each lambda's result is bitwise independent of the batch it is computed
  in;
* a trajectory is the down-sweep of the tree at every lambda of a batch
  (Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990):
  the state at the start of a right child is its left sibling times the
  state at the start of their parent.  This gives the state at every mesh
  node from O(N) products, and the last state is bitwise the terminal state.

Both agree with a step-by-step loop to roundoff.  A step matrix needs
cosh(sqrt(u)) and sinh(sqrt(u))/sqrt(u) with u about -(h (lambda - V))^2.
For |u| <= 1/3, which on a 256-step mesh holds for every |lambda - V|
below about 47, they come from nine terms of their Taylor series by
Horner's rule, as the eta functions of the CP methods do for
small arguments (Ledoux, Van Daele and Vanden Berghe, ACM TOMS 31, 2005);
only larger |u| take cos and sin or cosh and sinh, chosen entry by entry.

Eigenvalues are labelled by the Prufer angle theta of the solution,
y1 = r sin(theta) and y2 = -r cos(theta) (Levitan and Sargsjan, 1991; the
approach of SLEIGN2, Bailey, Everitt and Zettl, ACM TOMS 27, 2001).  The
unwrapped theta(pi) increases strictly in lambda, and the eigenvalue with
index n is where theta(pi) = psi + k pi: psi is beta in the classical case
and the lambda-dependent angle of the boundary form in case I, and the
rotation index k is n classically and n - 1 in case I.  With ``angle``,
``_terminal`` returns theta(pi) beside the terminal state.  On a step theta
turns by the integral of lambda - V, give or take |m| times the step's
width, so the tree's down-sweep stops at the level whose blocks keep that
deviation within pi/2.  The angles at the block ends, less the integral of
lambda - V over each block, unwrap theta and fix the 2 pi branch of the
terminal state's own angle.  theta(pi) is therefore bitwise the same for
every such level and every batch.  Only |m| bounds that deviation, so the
angle is counted at any lambda on a mesh whose steps hold |m| times their
width within pi/2: the search takes no other bound on the turn per step.

Each index is seeded with the eigenvalue of the problem with V replaced by
its mean, which the Prufer angle gives in closed form up to a scalar root
(Pryce, "Numerical Solution of Sturm-Liouville Problems", 1993, on seeding
shooting methods); inside the mass gap, where that root does not exist, the
seed is the massless one.
The search's first round evaluates the angle on both sides of every seed in
one batched propagation, and an index whose seed was within its spread is
bracketed by it; the others jump by their angle mismatch until both ends of
the bracket lie within pi of the target angle, one on each side.  chi
changes sign exactly once in such a bracket, and a safeguarded Illinois
regula falsi refines it until it is ``lambda_tolerance`` wide.  Every round
of the search evaluates the open indices in one batched propagation, and
each index stops on its own.  The search controls its error by mesh
refinement (Pryce, 1993; SLEDGE, Pruess and Fulton, ACM TOMS 19, 1993):
every index starts on about min(n_steps / 16, 256) steps, or the coarsest
mesh fine enough for |m| (RotationLimitExceeded where n_steps is not), and
the error estimate of each eigenvalue is its change from the mesh of half
as many steps, about 63 times the error of a sixth-order scheme.  The mesh
of an index doubles while its estimate exceeds ``lambda_tolerance``.  A
state at pi that cancels to a tiny fraction of its terms, as for an
eigenfunction decaying from x = 0 across a mass gap, raises
IntegrationFailure instead of yielding a wrong root.

Nodes are extracted for many records and either or both components in one
call, ``extract_nodal_sets``.  A record's nodes follow its eigenvalue's
mesh: they are taken on twice the uniform steps its eigenvalue stopped on,
at most ``n_steps``, and that mesh doubles, past ``n_steps`` if need be,
until one step turns the angle at the record's lambda by at most pi/2, so
that no cell holds two zeros: ``n_steps`` caps the eigenvalue search only.
Each such mesh is built once per call, and its records take one trajectory
together, split so that steps times lambdas stays within
``_CHUNK_ENTRIES``; nothing is kept between calls.  Every sign change
between mesh nodes of the 2-D component arrays brackets a zero, and
all brackets are refined together by a safeguarded Newton iteration on the
partial Magnus step from the bracket's left mesh node, starting where the
solution for V constant on the cell vanishes.  Its derivative is exact
from the ODE, y1' = (V - m - lambda) y2 and y2' = (lambda - V - m) y1, at
the partial step's state, and a step that would leave the bracket is
replaced by bisection.  Where |lambda| > max|V| + |m|, theta crosses every
zero of a component one way, so a nodal set has as many nodes as there are
multiples of pi (y1), or angles pi/2 off one (y2), strictly between theta(0)
and theta(pi) = psi + k pi, the angles that label its eigenvalue, less
those the endpoint guard may drop; a set with another count raises
NodeCountMismatch.
``extract_nodes``, the call for one record and one component, extracts
both components and keeps the two nodal sets of the last record, so that
components 1 and 2 asked for in two calls are extracted once; a call for
one component also refines the other, and fails when either fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ComputationError, DegenerateComponent, InputError,
                     IntegrationFailure, IterationFailure, NodeCountMismatch,
                     RotationLimitExceeded, ToleranceNotMet)
from .model import (Classical, DiracProblem, EigenRecord, NodalSet,
                    component_number, eigenvalue_index, require_integer)

# Nodes of the three-point Gauss-Legendre rule on [0, 1], and its weights
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_GAUSS_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)

# Nodes refined closer to an endpoint than this are residual-level phantom
# zeros of a component that vanishes at the boundary; drop them.
_ENDPOINT_GUARD = 1e-8

# A refined node is final once its Newton step delta has (|lambda| + max|V|
# + |m|) delta**2 at most this, or its bracket is at most this wide.
_NODE_TOLERANCE = 1e-14

# Evaluations per node after which node refinement raises IterationFailure;
# bisection alone narrows a step of pi / 8, the widest (twice the 4 steps of
# the coarsest search mesh at n_steps = 64), to _NODE_TOLERANCE in 46.
_NODE_ITERATIONS = 47

# Step-lambda entries per chunk of step tables in _terminal (a mesh whose
# tables fit is one chunk) and per trajectory of extract_nodal_sets.  For
# find_eigenvalues(3..40) on the benchmark's spectrum_batch problems of seeds
# 1-3 (76 lambdas on 256 to 640 steps; one CPU of a 2-vCPU Xeon, numpy 2.4)
# the peak RSS was 38.8 MB at 1 << 13 and 1 << 14, 40.0-40.5 MB at 1 << 15
# and 42.7 MB without chunks, at the same speed.
_CHUNK_ENTRIES = 1 << 14

# A breakpoint closer than this fraction of a step to a uniform mesh node
# replaces that node: the two differ by roundoff, such as the grid node
# j pi / 400 of a sampled potential and the node k pi / 1024 it equals.
_NODE_MERGE = 1e-9

# Angle mismatch, in rad, that the eigenvalue bracket's ends aim for.
_AIM = math.pi / 16

# A state at pi smaller than this fraction of the terms it is summed from
# has kept no more than about four significant digits.
_CANCELLATION = 1e-12

# Largest bound on how far the turn of the Prufer angle over one block of
# steps may stray from the integral of lambda - V when the angle is unwrapped
# between block ends, and on the turn over one step of a node mesh, so that
# no cell holds two zeros of a component; below pi, with a margin for the
# commutator term and roundoff.
_BLOCK_TURN = math.pi / 2

# Largest distance the eigenvalue refined on a mesh is looked for from the
# eigenvalue on the coarser mesh: well inside the spacing of eigenvalues.
_SHIFT_LIMIT = 1.0 / 16

# Newton steps in s after which a mean-potential seed keeps its massless
# start, the relative step at which it is final, and the |s| a final seed
# must exceed: at the edge of the mass gap, s = 0, E may vanish without
# changing sign.
_SEED_ITERATIONS = 32
_SEED_TOLERANCE = 1e-12
_SEED_EDGE = 1e-6

# The first bracket round evaluates seed -+ spread, spread = max(W / (mu**2 +
# 1), _SEED_FLOOR), where W is the largest |vbar - mean V| over the steps of
# the search's first mesh and mu = seed - mean V.  Measured against the
# eigenvalues found, over the problems of seeds 1-30 of the spectrum_batch
# and nodes_by_index benchmark workloads (n = -10..-1 and 1..40, 6200
# seeds): the seed error was at most 1.32 W / (mu**2 + 1), with a median of
# 0.037; 5 of them missed their first round, all at |n| <= 2 on step
# potentials, and none with n >= 3.  A constant potential (W = 0) has seeds
# within 1.4e-14 of its eigenvalues, on every mesh, and the floor keeps that
# bracket narrower than lambda_tol = 1e-10, so that it needs no regula falsi
# step.
_SEED_FLOOR = 2e-11

# Per index and mesh, the most angle evaluations that bracket an eigenvalue,
# characteristic-function evaluations that refine its bracket, and widenings
# of its bracket on a finer mesh; an index still open at this cap raises
# IterationFailure.
_MAX_EVALUATIONS = 48


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration grid over [0, pi]: ``n_steps`` uniform steps, plus a node
    at each breakpoint of the potential.  ``n_steps`` caps the eigenvalue
    search: it starts on ``n_steps >> k`` of about min(n_steps / 16, 256)
    steps (coarser ones are left out where one step holds |m| times its
    width above pi/2), takes ``n_steps`` as its finest mesh and stops on the
    coarsest that meets its tolerance.  Nodes use twice the steps their
    eigenvalue stopped on, at most ``n_steps``, doubled, past ``n_steps`` if
    need be, until one step turns the Prufer angle by at most pi/2 at the
    eigenvalue; trajectories use ``n_steps``."""

    n_steps: int = 4096

    def __post_init__(self):
        if require_integer(self.n_steps, "n_steps") < 64:
            raise InputError("n_steps must be at least 64")


@dataclass(frozen=True)
class EigenSearchConfig:
    """Tolerance of the eigenvalue search: ``lambda_tolerance`` is both the
    bracket width at which a root is final and the largest error estimate an
    eigenvalue may have."""

    lambda_tolerance: float = 1e-10

    def __post_init__(self):
        tol = self.lambda_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
            raise InputError(f"lambda_tolerance must be a number > 0, got {tol!r}")


# Taylor coefficients of cosh(sqrt(u)) = sum u**k / (2k)! (column 0) and of
# sinh(sqrt(u)) / sqrt(u) = sum u**k / (2k + 1)! (column 1), highest power
# first.  For |u| <= _SERIES_LIMIT nine terms leave a remainder below 8e-21.
# The limit covers |lambda - V| up to about 47 on 256 steps, the default
# search's first mesh, and up to about 740 on 4096 steps; the error
# estimate's chi on 128 steps takes the trigonometric branch above about 23.
_SERIES = np.array([[1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)]
                    for k in reversed(range(9))])
_SERIES_LIMIT = 1.0 / 3


def _horner(coeffs, u):
    """The polynomials with coefficients coeffs, shape (terms, polynomials)
    with the highest power first, at u, stacked along a new first axis and
    accumulated in place in one array."""
    coeffs = coeffs.reshape(coeffs.shape + (1,) * np.ndim(u))
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
    |lambda - V| stays below about 47 on a 256-step mesh, take
    the Taylor series by Horner's rule: no square root, division or branch.
    Only the others go to ``_trig_coshc_sinhc``.  The choice is made per
    entry, so each value does not depend on the rest of the batch.
    """
    c, s = _horner(_SERIES, u)
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
    """The states (y1, y2) at x = 0, shape (2, lambdas)."""
    b = problem.boundary
    if isinstance(b, Classical):
        return np.outer((math.sin(b.alpha), -math.cos(b.alpha)), np.ones_like(lams))
    return np.array([-(lams * math.sin(b.alpha) + b.b0),
                     lams * math.cos(b.alpha) + b.a0])


class Trajectory(NamedTuple):
    """Mesh nodes xs, shape (N + 1,), and the states at them, y of shape
    (N + 1, 2) with columns y1 and y2; N is the number of mesh steps, the
    uniform ones and those the potential's breakpoints split off."""

    xs: np.ndarray
    y: np.ndarray


class _Mesh(NamedTuple):
    """Mesh of [0, pi] with the potential sampled at its Gauss points.

    ``h`` holds the width of each step, ``vbar`` the mean of V over it, and
    ``coef`` the coefficients of its Magnus exponent (``_sample``); ``x``
    holds the nodes, ``h_max`` is the widest step and ``v_max`` the largest
    |vbar|."""

    h: np.ndarray
    vbar: np.ndarray
    coef: np.ndarray
    x: np.ndarray
    h_max: float
    v_max: float


def _sample(problem, x0, h):
    """Mean potential vbar of the steps [x0, x0 + h] by the three-point Gauss
    rule, and the coefficients of their sixth-order Magnus exponents,
    stacked as (v2, b1, b0, c1, c0, d2, d1, d0) along a new first axis.

    With A = (lambda - V) J - m K, J = [[0, -1], [1, 0]] and K = [[0, 1],
    [1, 0]], and A1, A2, A3 at the Gauss points, Omega is that of Blanes,
    Casas, Oteo and Ros (Phys. Rep. 470, 2009): alpha1 = h A2, alpha2 =
    (sqrt(15) h / 3) (A3 - A1), alpha3 = (10 h / 3) (A3 - 2 A2 + A1), C1 =
    [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1] / 60 and Omega = alpha1 +
    alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.  alpha2 and
    alpha3 are multiples of J, so the commutators stay in the span of J, K
    and D = diag(1, -1), and Omega = [[d, b], [c, -d]] with, in w = lambda -
    v2, b = b1 w + b0, c = c1 w + c0 and d = (d2 w + d1) w + d0."""
    x = x0 + np.multiply.outer(_GAUSS, h)
    v1, v2, v3 = np.asarray(problem.potential(x.ravel()), dtype=float).reshape(x.shape)
    sigma = v1 + v3
    vbar = _GAUSS_WEIGHTS[0] * sigma + _GAUSS_WEIGHTS[1] * v2
    # alpha2 = -(sqrt(15) / 3) p J and alpha3 = -(10 / 3) q J; Omega = aJ J +
    # aK K + aD D with aJ = j1 w + j0, aK = k1 w + k0 and aD = (d2 w + d1) w +
    # d0, in s = m h and e = 1 - s**2 / 15
    p = h * (v3 - v1)
    q = h * (sigma - 2.0 * v2)
    s = problem.mass * h
    s2 = s * s
    e = 1.0 - s2 / 15.0
    pp = p * p
    sp = s * p
    j1 = h + h * s2 * pp / 540.0
    j0 = q * (-5.0 / 18.0 - s2 / 27.0)
    k1 = s * q * h / 27.0
    k0 = s * (pp * e / 36.0 - 1.0 - q * q / 162.0)
    d2 = sp * h * h * (-math.sqrt(15.0) / 270.0)
    d1 = sp * q * h * (math.sqrt(15.0) / 1620.0)
    d0 = sp * e * (-math.sqrt(15.0) / 18.0)
    return vbar, np.stack((v2, k1 - j1, k0 - j0, k1 + j1, k0 + j0, d2, d1, d0))


def _mesh(problem, n_steps):
    """The uniform mesh of n_steps steps, with a node added at each breakpoint
    of the potential; without breakpoints every step is exactly pi / n_steps
    wide."""
    h = math.pi / n_steps
    x = np.arange(n_steps + 1) * h
    breaks = problem.potential.breakpoints
    if not breaks.size:
        h = np.full(n_steps, h)
    else:
        # a breakpoint within roundoff of a uniform node takes that node's
        # place (one at an end is dropped) instead of splitting off a step
        # a few ulps wide
        near = np.rint(breaks / h).astype(np.intp)
        close = np.abs(breaks - x[near]) <= _NODE_MERGE * h
        inner = close & (near > 0) & (near < n_steps)
        x[near[inner]] = breaks[inner]
        x = np.sort(np.concatenate((x, breaks[~close])))
        h = np.diff(x)
    vbar, coef = _sample(problem, x[:-1], h)
    return _Mesh(h, vbar, coef, x, float(h.max()), float(np.abs(vbar).max()))


def _entries(coef, lams):
    """Step propagators exp(Omega) for any broadcast of steps, given by the
    coefficients ``coef`` of ``_sample`` (stacked along axis 0), against
    spectral parameters lams, stacked in one array of shape (2, 2, ...):
    entry [i, j] holds P_(i+1)(j+1).  Omega = [[d, b], [c, -d]] squares to
    u = d**2 + b c times the identity, so exp(Omega) = cosh(sqrt(u)) +
    sinh(sqrt(u)) / sqrt(u) Omega.  Products are formed in place where the
    operands allow it: fewer large temporaries, and the same values bit for
    bit."""
    v2, b1, b0, c1, c0, d2, d1, d0 = coef
    w = lams - v2
    b = b1 * w
    b += b0
    c = c1 * w
    c += c0
    d = d2 * w
    d += d1
    d *= w
    d += d0
    u = b * c
    u += d * d
    ec, es = _coshc_sinhc(u)
    p = np.empty((2, 2) + ec.shape)
    esd = np.multiply(es, d, out=p[1, 1])
    np.add(ec, esd, out=p[0, 0])
    np.subtract(ec, esd, out=p[1, 1])
    np.multiply(b, es, out=p[0, 1])
    np.multiply(c, es, out=p[1, 0])
    return p


def _mul(b, a):
    """The products b @ a of stacked 2x2 matrices (axes 0 and 1): step a is
    taken first.  Column 0 of b times row 0 of a, plus column 1 times row 1,
    accumulated in place."""
    out = b[:, :1] * a[:1]
    out += b[:, 1:] * a[1:]
    return out


@functools.cache
def _order(n):
    """The order in which n matrices are stored for ``_halve``, and its
    inverse: row r holds matrix order[r], and matrix i is in row inverse[i].

    The even matrices come first and the odd ones after them, each in the
    order of their pairs one level up, then an unpaired last matrix; for a
    power of two this is the bit-reversal permutation."""
    order = np.zeros(1, dtype=np.intp)
    if n > 1:
        pairs = _order(n - n // 2)[0][:n // 2]
        order = np.concatenate((2 * pairs, 2 * pairs + 1, np.full(n % 2, n - 1)))
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


def _halve(p, levels=None):
    """The pairwise tree over matrices stored along axis 2 in ``_order``,
    ``levels`` levels up (to the product of all when levels is None).

    Each level multiplies the upper half of the rows by the lower half, both
    contiguous, and carries an unpaired last row up unchanged; the result is
    again in ``_order``.  In natural order this pairs matrices 2j and 2j + 1,
    which gives the same products as padding with identity matrices to a
    power of two, and halving in stages gives the same tree as at once."""
    for _ in itertools.count() if levels is None else range(levels):
        n = p.shape[2]
        if n == 1:
            break
        pairs = _mul(p[:, :, n // 2:n // 2 * 2], p[:, :, :n // 2])
        p = np.concatenate((pairs, p[:, :, -1:]), axis=2) if n % 2 else pairs
    return p


def _tree(p):
    """Every level of ``_halve`` over p: p first, the product of all last."""
    levels = [p]
    while levels[-1].shape[2] > 1:
        levels.append(_halve(levels[-1], 1))
    return levels


def _descend(levels, y):
    """Down-sweep over a ``_tree``: the states, shape (2, n, ...) in ``_order``,
    at the start of each of the n matrices of its first level, from the
    states y at the start of the product of all.  A left child and an
    unpaired matrix start where their parent does, a right child at its
    left sibling times that."""
    y = y[:, None]
    for p in reversed(levels[:-1]):
        half = p.shape[2] // 2
        right = p[:, 0, :half] * y[0, :half] + p[:, 1, :half] * y[1, :half]
        y = np.concatenate((y[:, :half], right, y[:, half:]), axis=1)
    return y


def _lambdas(values):
    lams = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise InputError("lambda values must be finite")
    return lams


def _check_finite(problem, lams, mesh, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise IntegrationFailure(
            f"components overflowed during integration on {mesh.h.size} steps "
            f"(mass={problem.mass}, lambda range [{lams.min():.6g}, "
            f"{lams.max():.6g}]); more steps may resolve it")


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


def _block_level(problem, mesh):
    """log2 of the steps per block over which the angle is unwrapped: the
    largest power of two whose blocks, at the widest step of the mesh, hold
    |m| times their width to at most _BLOCK_TURN.  It does not depend on
    lambda; ``_levels`` keeps the search to meshes whose steps hold |m|
    times their width to at most _BLOCK_TURN, where blocks of one step do,
    or exceed it by the _NODE_MERGE a breakpoint may widen a step by, far
    below the pi the unwrap resolves."""
    n = mesh.vbar.size
    steps = _BLOCK_TURN / (mesh.h_max * abs(problem.mass)) if problem.mass else n
    return max(min(int(steps), n), 1).bit_length() - 1


def _rotation(problem, lams, mesh, level, starts, y_pi):
    """Unwrapped theta(pi) from the states at the starts of the consecutive
    blocks of 2**level steps, shape (2, blocks, lambdas).

    On a step the Prufer angle obeys theta' = lambda - vbar + m cos(2 theta)
    - (g / h) sin(2 theta), so over a block it turns by the sum of
    h (lambda - vbar) up to |m| times the block's width, which
    ``_block_level`` keeps below _BLOCK_TURN, plus the commutator term.
    The difference of the angles at a block's ends, less that sum, thus
    wraps across the branch cut of atan2 as often as it is nearest a
    multiple of 2 pi, and those wraps fix the 2 pi branch of the angle of
    the terminal state y_pi."""
    first = np.arange(0, mesh.h.size, 1 << level)
    drift = np.add.reduceat(mesh.h, first)[:, None] * lams \
        - np.add.reduceat(mesh.h * mesh.vbar, first)[:, None]
    marks = _angle(*np.concatenate((starts, y_pi[:, None]), axis=1))
    marks[0] = _start_angle(problem, lams, *starts[:, 0])
    turns = marks[1:] - marks[:-1] - drift
    return marks[-1] - 2 * math.pi * np.round(turns / (2 * math.pi)).sum(axis=0)


def _terminal(problem, lams, mesh, angle=False):
    """(y1, y2) at x = pi for every lambda, and with ``angle`` the unwrapped
    Prufer angle theta(pi) as a third array.

    The step matrices are multiplied by the full pairwise tree over the
    mesh: in one chunk if their tables hold at most _CHUNK_ENTRIES
    step-lambda entries, else in aligned power-of-two chunks of at most that
    many.  Each chunk's step matrices are built in ``_order`` and halved to
    the aligned blocks of 2**inner steps, whose products one chunk leaves in
    ``_order`` and several are put into it together; ``_halve`` finishes the
    tree.  For the angle the halving pauses at the level of
    ``_block_level``, ``_tree`` finishes the tree, and its down-sweep
    (``_descend``) gives the block starts to ``_rotation``.  Neither the
    chunk width nor the level changes the tree, so y(pi) and theta(pi) are
    bitwise the same for a lambda in any batch.
    """
    lams = _lambdas(lams)
    n = mesh.vbar.size
    # one chunk if the tables fit _CHUNK_ENTRIES, else chunks of the largest
    # power of two of steps that fits
    width = n if n * lams.size <= _CHUNK_ENTRIES else \
        1 << (max(1, _CHUNK_ENTRIES // lams.size).bit_length() - 1)
    inner = (width - 1).bit_length()
    if angle:
        level = _block_level(problem, mesh)
        inner = min(level, inner)
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = (_halve(_entries(mesh.coef[:, s + _order(min(width, n - s))[0], None],
                                  lams), inner) for s in range(0, n, width))
        if width == n:   # one chunk, whose blocks are in _order already
            blocks = next(chunks)
        else:   # each chunk's blocks into natural order, then all into _order
            blocks = np.concatenate([c[:, :, _order(c.shape[2])[1]] for c in chunks], 2)
            blocks = blocks[:, :, _order(blocks.shape[2])[0]]
        y0 = _initial_state(problem, lams)
        if angle:
            tree = _tree(_halve(blocks, level - inner))
            q = tree[-1][:, :, 0]
        else:
            q = _halve(blocks)[:, :, 0]
        a, b = q[:, 0] * y0[0], q[:, 1] * y0[1]
        y_pi = a + b
        terms = (np.abs(a) + np.abs(b)).max(axis=0)
        if angle:
            starts = _descend(tree, y0)[:, _order(tree[0].shape[2])[1]]
            theta = _rotation(problem, lams, mesh, level, starts, y_pi)
    _check_finite(problem, lams, mesh, y_pi)
    lost = np.hypot(*y_pi) < _CANCELLATION * terms
    if lost.any():
        raise IntegrationFailure(
            f"the state at pi cancelled to below {_CANCELLATION:g} of its terms "
            f"at lambda = {lams[lost][0]:.6g} on {n} steps: shooting from x = 0 "
            "cannot resolve a solution that decays from x = 0 across a mass "
            "gap, but more steps may resolve a mesh too coarse for lambda")
    if not angle:
        return y_pi[0], y_pi[1]
    _check_finite(problem, lams, mesh, theta)
    return y_pi[0], y_pi[1], theta


def _trajectory(problem, lams, mesh):
    """The states at the mesh nodes for every lambda, shape (2, nodes,
    lambdas), from the down-sweep over the pairwise tree of the step
    matrices, and the last one from the product of all, bitwise
    ``_terminal``'s y(pi); the Trajectory for a scalar lambda."""
    one = np.ndim(lams) == 0
    lams = _lambdas(lams)
    order, inverse = _order(mesh.vbar.size)
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _tree(_entries(mesh.coef[:, order, None], lams))
        y0 = _initial_state(problem, lams)
        q = tree[-1][:, :, 0]
        out = np.concatenate((_descend(tree, y0)[:, inverse],
                              (q[:, 0] * y0[0] + q[:, 1] * y0[1])[:, None]), axis=1)
    _check_finite(problem, lams, mesh, out)
    return Trajectory(mesh.x, out[:, :, 0].T) if one else out


def integrate(problem: DiracProblem, lam: float,
              cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the system at spectral parameter lam from the exact
    boundary-determined initial spinor; returns the state at every mesh
    node."""
    cfg = cfg or IntegratorConfig()
    traj = _trajectory(problem, float(lam), _mesh(problem, cfg.n_steps))
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


def _chi(problem, mesh):
    """chi on ``mesh`` as the function ``_illinois`` refines."""
    return lambda x, _: _characteristic_batch(problem, x, mesh)


def characteristic(problem: DiracProblem, lam: float,
                   cfg: IntegratorConfig | None = None) -> float:
    """Boundary form evaluated on the terminal state; zero exactly at the
    eigenvalues."""
    cfg = cfg or IntegratorConfig()
    mesh = _mesh(problem, cfg.n_steps)
    return float(_characteristic_batch(problem, [float(lam)], mesh)[0])


def _illinois(f, lo, hi, f_lo, f_hi, tolerance, describe):
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
    exactly 0 at an iterate, which becomes its hi end, so each root is
    bitwise independent of the batch it is found in.  The root of a frozen
    bracket is that exact zero, or else the linear interpolant of its true
    end values.  A bracket still open after _MAX_EVALUATIONS evaluations
    raises IterationFailure, naming the open brackets by
    ``describe(position)``.
    Returns the roots and the slope of the secant of f across each final
    bracket.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    g_lo, g_hi = f_lo.copy(), f_hi.copy()   # Illinois-weighted end values
    kept = np.zeros(lo.size)                # +1: last step kept hi, -1: kept lo
    width_1 = np.full(lo.size, np.inf)      # widths one, two and three steps ago
    width_2 = width_1.copy()
    width_3 = width_1.copy()
    open_ = np.arange(lo.size)
    roots = np.empty(lo.size)
    slopes = np.empty(lo.size)
    for evals in itertools.count():
        mid = 0.5 * (lo + hi)
        width = hi - lo
        done = (width <= tolerance) | ~((lo < mid) & (mid < hi)) | (f_hi == 0.0)
        if done.any():
            roots[open_[done]] = np.where(
                f_hi == 0.0, hi, lo + width * (f_lo / (f_lo - f_hi)))[done]
            slopes[open_[done]] = ((f_hi - f_lo) / width)[done]
            if done.all():
                return roots, slopes
            (open_, lo, hi, f_lo, f_hi, g_lo, g_hi, kept, width_1, width_2,
             width_3, mid, width) = (v[~done] for v in (
                 open_, lo, hi, f_lo, f_hi, g_lo, g_hi, kept, width_1, width_2,
                 width_3, mid, width))
        if evals == _MAX_EVALUATIONS:
            raise IterationFailure(
                f"root not within {tolerance:g} after {_MAX_EVALUATIONS} evaluations: "
                + ", ".join(describe(k) for k in open_))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo + width * (g_lo / (g_lo - g_hi))
        x = np.minimum(np.maximum(x, lo + 0.5 * tolerance), hi - 0.5 * tolerance)
        x = np.where((width <= 0.5 * width_3) & (lo < x) & (x < hi), x, mid)
        fx = f(x, open_)

        width_1, width_2, width_3 = width, width_1, width_2
        move_lo = np.sign(fx) == np.sign(f_lo)
        # Illinois: an end kept for a second step in a row has its weight halved
        last, kept = kept, np.where(move_lo, 1.0, -1.0)
        scale = np.where(last == kept, 0.5, 1.0)
        g_hi = np.where(move_lo, g_hi * scale, fx)
        g_lo = np.where(move_lo, fx, g_lo * scale)
        f_lo = np.where(move_lo, fx, f_lo)
        f_hi = np.where(move_lo, f_hi, fx)
        lo = np.where(move_lo, x, lo)
        hi = np.where(move_lo, hi, x)


def _phase(m, mu):
    """s = sign(mu) sqrt(mu^2 - m^2), and 0 inside the mass gap: with mu =
    lambda - vbar, theta(pi) / pi of the system with the mean potential vbar
    up to a bounded term."""
    return np.sign(mu) * np.sqrt(np.maximum(mu * mu - m * m, 0.0))


def _mu(m, s):
    """The mu = lambda - vbar outside the mass gap, or 0, of a phase s."""
    return np.sign(s) * np.sqrt(s * s + m * m)


def _phase_function(theta, r):
    """Phi(theta) = j pi + atan(r tan(theta - j pi)), j the integer nearest
    theta / pi, which is continuous and increasing in theta and within pi/2
    of it, and its partial derivatives in r and theta."""
    cos, sin = np.cos(theta), np.sin(theta)
    turn = np.arctan2(r * sin, cos) - theta
    den = cos * cos + r * r * sin * sin
    return (theta + turn - 2 * math.pi * np.rint(turn / (2 * math.pi)),
            sin * cos / den, r / den)


def _mean_potential_seeds(problem, turns, vbar):
    """The eigenvalues with rotation indices ``turns`` of the problem with V
    replaced by its mean vbar, where they lie outside the mass gap, and the
    massless ones elsewhere.

    With mu = lambda - vbar the Prufer angle obeys theta' = mu + m cos 2
    theta, and for |mu| > |m| it turns from theta0 to theta1 in the time
    (Phi(theta1) - Phi(theta0)) / s, with s = sign(mu) sqrt(mu^2 - m^2) and
    ``_phase_function`` at r = sqrt((mu - m) / (mu + m)).  The eigenvalue is
    the root of E(s) = Phi(psi + k pi) - Phi(theta0) - pi s, theta0 and psi
    from ``_start_angle`` and ``_end_angle`` at lambda = vbar + mu, and E is
    positive below the root and negative above it on the branch sign(s).
    The massless root s0 = (psi + k pi - theta0) / pi, with the angles taken
    at lambda = vbar + k (classically they do not depend on lambda), picks
    the branch and starts Newton steps in s with the exact derivative of E;
    it is the root itself for m = 0 and a classical boundary.  With m = 0
    there is no gap, and s may cross 0.  A step that leaves the bracket of
    signs of E seen so far, or the branch, bisects the bracket or doubles s
    instead.  An index stops once its Newton step is at most _SEED_TOLERANCE
    (1 + |s|).  Its seed is vbar + s0 where it stops within _SEED_EDGE of s =
    0, or after _SEED_ITERATIONS steps, as where its root is inside the gap.
    Each index iterates on its own values, so its seed is bitwise the same in
    any batch."""
    m = problem.mass
    b = problem.boundary
    target = np.asarray(turns, dtype=float) * math.pi
    classical = isinstance(b, Classical)

    def angles(lams, open_):
        """psi + k pi and theta0, stacked, and their derivatives in lambda."""
        y1, y2 = _initial_state(problem, lams)
        ends = np.stack((_end_angle(problem, lams) + target[open_],
                         _start_angle(problem, lams, y1, y2)))
        if classical:
            return ends, 0.0
        a, c = _form_coefficients(problem, lams)
        return ends, np.stack((b.right_sign_term / (a * a + c * c),
                               b.left_sign_term / (y1 * y1 + y2 * y2)))

    ends, d_ends = angles(vbar + turns, np.arange(turns.size))
    s = (ends[0] - ends[1]) / math.pi
    seeds = vbar + s
    open_ = np.flatnonzero(s)
    s, ends = s[open_], ends[:, open_]
    lo = np.full(s.size, -np.inf)   # E > 0 at lo, E <= 0 at hi
    hi = np.full(s.size, np.inf)
    if m:   # the branch sign(s) ends at the mass gap
        lo[s > 0.0] = 0.0
        hi[s < 0.0] = 0.0
    for _ in range(_SEED_ITERATIONS):
        if not open_.size:
            break
        mu = _mu(m, s)
        if not classical:
            ends, d_ends = angles(vbar + mu, open_)
        with np.errstate(divide="ignore", invalid="ignore"):
            # (mu + m)(mu - m) = s^2: divide by the larger factor
            r = np.where(mu * m >= 0.0, s / (mu + m), (mu - m) / s)
            phi, d_r, d_theta = _phase_function(ends, r)
            e = phi[0] - phi[1] - math.pi * s
            slope = (d_r[0] - d_r[1]) * r * m / (mu * s) - math.pi
            if not classical:
                slope += (d_theta[0] * d_ends[0] - d_theta[1] * d_ends[1]) * s / mu
            step = s - e / slope
            above = e > 0.0
            lo, hi = np.where(above, s, lo), np.where(above, hi, s)
            mid = 0.5 * (lo + hi)
            done = np.abs(step - s) <= _SEED_TOLERANCE * (1.0 + np.abs(s))
            s = np.where(done | (lo < step) & (step < hi), step,
                         np.where(np.isfinite(mid), mid, 2.0 * s))
        if done.any():
            found = done & (np.abs(s) > _SEED_EDGE)
            seeds[open_[found]] = vbar + _mu(m, s[found])
            keep = ~done
            open_, s, lo, hi = open_[keep], s[keep], lo[keep], hi[keep]
            ends = ends[:, keep]
    return seeds


def _rotation_index(boundary, n):
    """The number k of half-turns, theta(pi) = psi + k pi, of the eigenfunction
    labelled n: k = n in the classical case and k = n - 1 in case I, where
    that keeps the labels of the asymptotic expansion.  Label 0 names no
    eigenvalue (rotation index 0 classically, -1 in case I): the caller
    passes n through ``model.eigenvalue_index``."""
    return n if isinstance(boundary, Classical) else n - 1


def _bracket(problem, turns, seeds, spread, vbar, mesh, describe):
    """Brackets [lo, hi] of the eigenvalues with the given rotation indices.

    The angle mismatch f(lambda) = theta(pi) - psi - k pi increases strictly
    in lambda and vanishes at the eigenvalue.  An end is accepted once f is
    in (-pi, 0) at lo and in (0, pi) at hi; chi changes sign exactly once
    in between.  The first round evaluates seed - spread and seed + spread
    of every index in one call, so an index whose seed is within its spread
    of the root is bracketed in one round.  Each later round evaluates one
    lambda per open index:

    * while one side is unknown, the index jumps from the end whose mismatch
      is nearer the aim f = -_AIM (lo still missing) or +_AIM (hi missing),
      by that difference converted to lambda through the ``_phase`` of the
      system with the mean potential vbar.  Jumps in a row are stretched
      2**k-fold, to at most twice the one before, so that they cross a
      plateau of f;
    * once both sides are known, it evaluates the middle of the window of f
      (w, w + pi) that the missing end needs, its edges extrapolated by the
      secant of f through the last two points on each side.  A window that
      is empty or leaves the bracket, or a bracket that did not halve over
      two rounds, takes a bisection instead.  This finds the narrow window
      between a nearly degenerate pair in a few rounds where f is nearly
      linear on both sides of it.

    Each index follows only its own values, so its bracket does not depend
    on the batch.  Returns lo, hi and chi at both; an index still open after
    _MAX_EVALUATIONS rounds raises IterationFailure.
    """
    m = problem.mass
    size = turns.size
    lo, f_lo, chi_lo = np.full(size, -np.inf), np.full(size, -np.inf), np.zeros(size)
    hi, f_hi, chi_hi = np.full(size, np.inf), np.full(size, np.inf), np.zeros(size)
    # the ends that lo and hi replaced last, for the secant of f on each side
    lo_2, f_lo_2 = lo.copy(), f_lo.copy()
    hi_2, f_hi_2 = hi.copy(), f_hi.copy()
    streak = np.zeros(size)   # jumps in a row from a one-sided bracket
    step = np.zeros(size)     # and the last of them
    width_1 = np.full(size, np.inf)   # widths of the bracket one and two rounds ago
    width_2 = width_1.copy()
    open_ = np.arange(size)
    x = np.concatenate((seeds - spread, seeds + spread))
    for evals in itertools.count(1):
        y1, y2, theta = _terminal(problem, x, mesh, angle=True)
        f = theta - _end_angle(problem, x) - math.pi * np.resize(turns[open_], x.size)
        chi = _terminal_form(problem, x, y1, y2)
        # one column of one lambda per open index at a time, in increasing lambda
        for col in range(0, x.size, open_.size):
            cx, cf, cchi = (v[col:col + open_.size] for v in (x, f, chi))
            left = cf < 0.0
            for nearer, ends, before in (
                    (left & (cx > lo[open_]), (lo, f_lo, chi_lo), (lo_2, f_lo_2)),
                    (~left & (cx < hi[open_]), (hi, f_hi, chi_hi), (hi_2, f_hi_2))):
                k = open_[nearer]
                before[0][k], before[1][k] = ends[0][k], ends[1][k]
                for end, value in zip(ends, (cx, cf, cchi)):
                    end[k] = value[nearer]
        open_ = open_[(f_lo[open_] <= -math.pi) | (f_hi[open_] >= math.pi)]
        if not open_.size:
            return lo, hi, chi_lo, chi_hi
        if evals == _MAX_EVALUATIONS:
            raise IterationFailure(
                f"no bracket within pi of the target angle after {_MAX_EVALUATIONS} "
                "evaluations: " + ", ".join(describe(k) for k in open_))
        a, b, fa, fb = lo[open_], hi[open_], f_lo[open_], f_hi[open_]
        aim = np.where(fa <= -math.pi, -_AIM, _AIM)
        one_sided = np.isinf(a) | np.isinf(b)
        from_hi = np.abs(fb - aim) < np.abs(fa - aim)
        base, f_base = np.where(from_hi, b, a), np.where(from_hi, fb, fa)
        jump = vbar + _mu(m, _phase(m, base - vbar) + (aim - f_base) / math.pi) - base
        jump *= 2.0 ** streak[open_]
        last = 2 * np.abs(step[open_])
        jump = np.where(last > 0, np.clip(jump, -last, last), jump)
        streak[open_] = np.where(one_sided, streak[open_] + 1, 0)
        step[open_] = np.where(one_sided, jump, 0.0)
        # two-sided: the middle of the window of f, (w, w + pi), that the
        # missing end needs, its edges extrapolated from each side
        w = np.where(fa <= -math.pi, -math.pi, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = (fb - fa) / (b - a)
            slope_a, slope_b = (
                np.where((sec > 0.0) & np.isfinite(sec), sec, chord) for sec in (
                    (fa - f_lo_2[open_]) / (a - lo_2[open_]),
                    (fb - f_hi_2[open_]) / (b - hi_2[open_])))
            edge_a, edge_b = a + (w - fa) / slope_a, b - (fb - w - math.pi) / slope_b
        window = 0.5 * (edge_a + edge_b)
        width = b - a
        secant = (edge_a < edge_b) & (a < window) & (window < b) \
            & (width <= 0.5 * width_2[open_])
        width_2[open_] = width_1[open_]
        width_1[open_] = width
        x = np.where(one_sided, base + jump, np.where(secant, window, 0.5 * (a + b)))


def _refine(problem, seeds, slopes, mesh, tolerance, describe):
    """Roots of chi on ``mesh`` next to the seeds, the roots on a coarser
    mesh, where chi had the given slopes.

    A Newton step from each seed predicts its root.  A bracket 0.8
    ``tolerance`` wide around the prediction is widened 16-fold about it
    until chi changes sign, and ``_illinois`` refines it.  Each widening
    evaluates both ends of every open bracket in one propagation, and each
    index follows only its own values.  A bracket that would reach farther
    than _SHIFT_LIMIT from its prediction, or is still open after
    _MAX_EVALUATIONS widenings, raises IterationFailure.  Returns the roots,
    the slopes of chi across their final brackets, and the brackets [lo, hi]
    that ``_illinois`` started from.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = seeds - _characteristic_batch(problem, seeds, mesh) / slopes
    x = np.where(np.isfinite(x), x, seeds)
    half = np.full(seeds.size, 0.4 * tolerance)
    lo, hi, f_lo, f_hi = (np.empty(seeds.size) for _ in range(4))
    open_ = np.arange(seeds.size)
    for evals in itertools.count(1):
        a, b = x[open_] - half[open_], x[open_] + half[open_]
        fa, fb = np.split(
            _characteristic_batch(problem, np.concatenate((a, b)), mesh), 2)
        found = np.sign(fa) != np.sign(fb)
        for end, value in ((lo, a), (hi, b), (f_lo, fa), (f_hi, fb)):
            end[open_[found]] = value[found]
        open_ = open_[~found]
        if not open_.size:
            break
        half[open_] *= 16.0
        if evals == _MAX_EVALUATIONS or np.any(half[open_] > _SHIFT_LIMIT):
            raise IterationFailure(
                "chi keeps its sign within "
                f"{min(float(half[open_].max()) / 16, _SHIFT_LIMIT):.3g} of the "
                "eigenvalue of the coarser mesh: "
                + ", ".join(describe(k) for k in open_))
    roots, slopes = _illinois(_chi(problem, mesh), lo, hi, f_lo, f_hi,
                              tolerance, describe)
    return roots, slopes, lo, hi


def _levels(n_steps, mass):
    """Uniform step counts of the meshes the eigenvalue search may use,
    coarsest first: n_steps >> k from the coarsest with at least
    min(n_steps / 16, 256) steps up to n_steps, so that the floor stops
    moving with n_steps above 4096, less those whose steps hold |m| times
    their width above _BLOCK_TURN, on which ``_block_level`` cannot unwrap
    the angle (breakpoints only narrow the steps).  That bound does not
    depend on lambda.  Raises RotationLimitExceeded where it leaves no mesh."""
    floor = min(n_steps >> 4, 256)
    levels = tuple(n_steps >> k for k in reversed(range((n_steps // floor).bit_length()))
                   if math.pi / (n_steps >> k) * abs(mass) <= _BLOCK_TURN)
    if not levels:
        raise RotationLimitExceeded(
            f"mass m = {mass:g}: on the {n_steps}-step mesh |m| h = "
            f"{math.pi / n_steps * abs(mass):.3g} rad exceeds the {_BLOCK_TURN:.3g} rad "
            f"the angle count allows; use at least {math.ceil(2 * abs(mass))} steps")
    return levels


def _residuals(problem, lams, mesh):
    """chi over |y(pi)| and the norm of the form's coefficients: the sine of
    the angle between y(pi) and the state the boundary condition admits."""
    y1, y2 = _terminal(problem, lams, mesh)
    return _terminal_form(problem, lams, y1, y2) / (
        np.hypot(y1, y2) * np.hypot(*_form_coefficients(problem, lams)))


def find_eigenvalues(problem: DiracProblem, indices,
                     integrator: IntegratorConfig | None = None,
                     search: EigenSearchConfig | None = None) -> list[EigenRecord]:
    """Locate the eigenvalues with the given indices, batched.

    Index n labels the eigenvalue whose eigenfunction has rotation index
    ``_rotation_index(boundary, n)``.  The search runs on the meshes of
    ``_levels(integrator.n_steps, problem.mass)``, from about min(n_steps /
    16, 256) steps up, and every index starts on the first: the angle is
    counted on any of them whatever lambda (``_rotation``).  Each seed is
    the eigenvalue of the same problem with V replaced by its mean vbar =
    integral(V) / pi (``_mean_potential_seeds``), exact for a constant V;
    inside the mass gap it is the massless one.  ``_bracket`` turns the
    seeds into brackets by the Prufer angle, starting each at the seed give
    or take a spread that models the seed's error (see _SEED_FLOOR), and
    ``_illinois`` refines chi in each.  A Newton step from lambda_N, with
    the slope of chi across its final bracket, gives the root on the mesh of
    N / 2 uniform steps, and the error estimate is |lambda_N/2 - lambda_N|,
    which bounds the error of lambda_N on meshes that halve for any order of
    convergence of at least 1; a difference that is not finite is an
    infinite estimate.  While the estimate exceeds ``lambda_tolerance``, N
    doubles and ``_refine`` solves on it from the previous root, and the
    estimate is the root's change from the previous one.  Each index
    decides alone, so each record is bitwise the same in any batch.  An
    index whose estimate still exceeds the tolerance on the finest mesh
    raises ToleranceNotMet.
    """
    integrator = integrator or IntegratorConfig()
    search = search or EigenSearchConfig()
    indices = [eigenvalue_index(n) for n in indices]
    if not indices:
        return []
    turns = np.array([_rotation_index(problem.boundary, n) for n in indices])
    if len(set(indices)) != len(indices):
        raise InputError("duplicate eigenvalue indices")

    vbar = problem.potential.total_integral / math.pi
    seeds = _mean_potential_seeds(problem, turns, vbar)
    tolerance = search.lambda_tolerance

    mesh_of = functools.cache(lambda n: _mesh(problem, n))

    def describe(k):   # position k among the indices open at the call
        return f"eigenvalue index {indices[open_[k]]}"

    levels = _levels(integrator.n_steps, problem.mass)
    deviation = float(np.abs(mesh_of(levels[0]).vbar - vbar).max())
    spread = np.maximum(deviation / ((seeds - vbar) ** 2 + 1.0), _SEED_FLOOR)
    size = len(indices)
    residual = np.zeros(size)
    estimate = np.full(size, np.inf)
    steps = np.zeros(size, dtype=int)
    open_ = np.arange(size)
    for n in levels:
        mesh = mesh_of(n)
        if n == levels[0]:
            lo, hi, chi_lo, chi_hi = _bracket(problem, turns, seeds, spread, vbar,
                                              mesh, describe)
            lam, slope = _illinois(_chi(problem, mesh), lo, hi, chi_lo, chi_hi,
                                   tolerance, describe)
            # a Newton step from lambda_N for the root on N/2 steps: lambda_N/2
            # - lambda_N
            change = -_characteristic_batch(problem, lam, mesh_of(n >> 1)) / slope
        else:
            roots, slope[open_], lo[open_], hi[open_] = _refine(
                problem, lam[open_], slope[open_], mesh, tolerance, describe)
            change = lam[open_] - roots
            lam[open_] = roots
        estimate[open_] = np.where(np.isfinite(change), np.abs(change), np.inf)
        steps[open_] = n
        done = estimate[open_] <= tolerance
        if done.any():
            residual[open_[done]] = _residuals(problem, lam[open_[done]], mesh)
        open_ = open_[~done]
        if not open_.size:
            break
    short = np.flatnonzero(estimate > tolerance)
    if short.size:
        raise ToleranceNotMet(
            f"error estimate above lambda_tol = {tolerance:g} on the finest "
            f"mesh ({integrator.n_steps} steps): "
            + ", ".join(f"eigenvalue index {indices[k]} ({estimate[k]:.2g})"
                        for k in short)
            + "; increase the number of steps")
    records = [EigenRecord(n, float(lam[k]), float(residual[k]),
                           (float(lo[k]), float(hi[k])), int(steps[k]),
                           float(estimate[k]))
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


def _node_start(m, lams, rows, vbar, y_lo, y_hi, lo, hi, f_lo, f_hi):
    """First iterates of node refinement in the brackets [lo, hi], mesh cells
    whose states at the ends are y_lo and y_hi and whose mean potential is
    vbar; the component is y1 where ``rows`` is 0 and y2 where it is 1.

    With mu = lambda - vbar outside the mass gap, omega = sqrt(mu**2 - m**2)
    and the angle phi of (y1, -(mu + m) y2 / omega), the solution for V
    constant on the cell is y1 = r sin(phi), y2 = -r (omega / (mu + m))
    cos(phi) with phi linear in x.  The iterate is where phi, interpolated
    linearly between the cell's ends, is a multiple of pi (y1) or pi/2 off
    one (y2): the zero itself for V constant on the cell, as for a constant
    or step potential, and about as close as the linear interpolant of the
    end values otherwise.  That interpolant is the iterate inside the gap
    and wherever the angle's would not lie strictly inside the bracket."""
    linear = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    mu = lams - vbar
    w2 = mu * mu - m * m
    outside = w2 > 0.0
    scale = -(mu + m) / np.sqrt(np.where(outside, w2, 1.0))
    phi = np.arctan2(y_lo[0], scale * y_lo[1])
    turn = np.mod(np.arctan2(y_hi[0], scale * y_hi[1]) - phi, 2 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * (np.mod(rows * (math.pi / 2) - phi, math.pi) / turn)
    return np.where(outside & (lo < x) & (x < hi), x, linear)


def _node_newton(problem, lams, rows, y0, lo, hi, f_lo, f_hi, x, rate, describe):
    """Zeros of a solution component in the brackets [lo, hi], with f_lo *
    f_hi < 0, by safeguarded Newton iteration vectorized over the brackets.

    Bracket k belongs to a solution at ``lams[k]`` whose state at its left
    end, a mesh node x0, is y0[:, k]; the component is y1 where ``rows[k]``
    is 0 and y2 where it is 1.  The component at x is that of the partial
    Magnus step from x0 (``_entries`` on the step [x0, x]), and its
    derivative is exact from the ODE at that state: y1' = (V - m - lambda)
    y2 and y2' = (lambda - V - m) y1.  The first iterates are x
    (``_node_start``), or the midpoints where they do not lie strictly
    inside their brackets.  Each evaluation replaces the end of the
    bracket whose sign it shares, and a Newton step that would not land
    strictly inside the new bracket, such as one from a zero derivative, is
    replaced by bisection.  A bracket stops at an exact zero; at its next
    Newton iterate x - delta, delta = f / f', once rate * delta**2 <=
    _NODE_TOLERANCE (rate bounds |theta'|, so that is about the error left
    after the step); or once it is at most _NODE_TOLERANCE wide or holds no
    float strictly inside, at the linear interpolant of its end values.  Each bracket follows only its own
    values, so its zero is bitwise independent of the batch.  A bracket
    still open after _NODE_ITERATIONS evaluations raises IterationFailure,
    naming it by ``describe(position)``.
    """
    m = problem.mass
    first = rows == 0
    sign = np.where(first, -1.0, 1.0)
    x0 = lo
    open_ = np.arange(lo.size)
    roots = np.empty(lo.size)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    for evals in itertools.count(1):
        h = x - x0
        p = _entries(_sample(problem, x0, h)[1], lams)
        y1, y2 = p[:, 0] * y0[0] + p[:, 1] * y0[1]
        f, other = np.where(first, y1, y2), np.where(first, y2, y1)
        df = (sign * (lams - np.asarray(problem.potential(x), dtype=float)) - m) * other
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = f / df
        step = x - delta
        left = np.sign(f) == np.sign(f_lo)
        lo, f_lo = np.where(left, x, lo), np.where(left, f, f_lo)
        hi, f_hi = np.where(left, hi, x), np.where(left, f_hi, f)
        mid = 0.5 * (lo + hi)
        zero = f == 0.0
        newton = rate * delta * delta <= _NODE_TOLERANCE
        done = zero | newton | (hi - lo <= _NODE_TOLERANCE) | \
            ~((lo < mid) & (mid < hi))
        if done.any():
            end = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            end = np.where(newton, np.minimum(np.maximum(step, lo), hi), end)
            roots[open_[done]] = np.where(zero, x, end)[done]
            if done.all():
                return roots
            keep = ~done
            open_, lams, first, sign, x0, rate, lo, hi, f_lo, f_hi, step, mid = (
                v[keep] for v in (open_, lams, first, sign, x0, rate, lo, hi,
                                  f_lo, f_hi, step, mid))
            y0 = y0[:, keep]
        if evals == _NODE_ITERATIONS:
            raise IterationFailure(
                f"node not within {_NODE_TOLERANCE:g} after {_NODE_ITERATIONS} "
                "evaluations: " + ", ".join(describe(k) for k in open_))
        x = np.where((lo < step) & (step < hi), step, mid)


def _turn_rate(problem, lams, v_max):
    """|lambda| + max|V| + |m|, max|V| taken as v_max: a bound on |theta'|,
    the rate at which the Prufer angle turns at lambda."""
    return np.abs(lams) + v_max + abs(problem.mass)


def _node_steps(problem, rec, n_steps, mesh_of):
    """Uniform steps of the mesh the nodes of a record are extracted on: twice
    those its eigenvalue was solved on, at most n_steps, and n_steps for a
    record that no search produced; doubled, past n_steps if need be, until
    a step of (1 + _NODE_MERGE) pi / steps, the widest one (a breakpoint
    narrows the steps it splits and widens its neighbour by at most
    _NODE_MERGE when it takes a uniform node's place), turns the angle at
    the record's lambda by at most _BLOCK_TURN, so that no cell holds two
    zeros of a component.  max|V| is read from the first of these meshes, so
    only it and the one kept are built."""
    steps = n_steps if rec.steps is None else min(2 * rec.steps, n_steps)
    rate = _turn_rate(problem, rec.lam, mesh_of(steps).v_max)
    while (1 + _NODE_MERGE) * math.pi / steps * rate > _BLOCK_TURN:
        steps *= 2
    return steps


def _node_counts(problem, lams, turns, rows, margin=0.0):
    """Interior zeros, shape (lambdas, rows), of the components rows + 1 of
    the eigenfunctions at lams with rotation indices turns, leaving out
    those whose angle is within margin (rad, one per lambda) of either end.

    Component 1 vanishes where the Prufer angle theta is a multiple of pi,
    with theta' = lambda - V + m there, and component 2 where theta is pi/2
    off one, with theta' = lambda - V - m.  Where |lambda| > max|V| + |m|
    each such angle strictly between theta(0) = ``_start_angle`` and
    theta(pi) = ``_end_angle`` + k pi is crossed once, one way, and no other
    is; elsewhere the count may be wrong.  Both angles are taken in units of
    pi and rounded before the integer k is added, so that an end on a zero,
    such as beta = 0 at k pi, is exact (Pryce, "Numerical Solution of
    Sturm-Liouville Problems", 1993, ch. 5)."""
    shift = np.asarray(rows) / 2
    start = _start_angle(problem, lams, *_initial_state(problem, lams)) / math.pi
    start = start[:, None] - shift
    end = _end_angle(problem, lams)[:, None] / math.pi - shift
    turns = np.asarray(turns)[:, None]
    margin = np.asarray(margin)[..., None] / math.pi
    up = np.ceil(end - margin) + turns - np.floor(start + margin)
    down = np.ceil(start - margin) - np.floor(end + margin) - turns
    return np.maximum(np.maximum(up, down) - 1, 0).astype(int)


def extract_nodal_sets(problem: DiracProblem, records, components,
                       cfg: IntegratorConfig | None = None) -> list[NodalSet]:
    """All interior zeros of the given components of the eigenfunctions of
    many records: one NodalSet per record and component, record by record,
    in the order of ``components`` within a record.

    A record's nodes are extracted on the mesh of twice the uniform steps its
    eigenvalue was solved on (``rec.steps``), at most ``cfg.n_steps``, and on
    ``cfg.n_steps`` for a record without ``steps``: a sixth-order eigenvalue
    converged on N steps leaves nodes on 2N steps within about 1e-12.  That
    mesh doubles, past ``cfg.n_steps`` if need be, until one step turns the
    Prufer angle by at most _BLOCK_TURN (``_node_steps``), so that sign
    changes between mesh nodes find every zero.  Each of these meshes is
    built once per call, and the records that share one take one trajectory
    together, in groups of at most _CHUNK_ENTRIES / steps lambdas (one at
    least); nothing is kept between calls, so two calls for one record
    propagate it twice.  Zeros are bracketed by the
    sign changes between mesh nodes of every (record, component), found on
    the 2-D component arrays of all of them at once, and all brackets are
    refined together by ``_node_newton``, so each record's nodes are bitwise
    the same whether it is extracted alone or in any batch.
    Zeros within _ENDPOINT_GUARD of an end are dropped, as are zeros within
    1e-9 of the previous one.  A component that is identically zero,
    or vanishes on three consecutive mesh nodes, raises DegenerateComponent.
    Where |lambda| exceeds max|V| on the record's node mesh plus |m|, a set
    whose count is not that of ``_node_counts`` raises NodeCountMismatch,
    naming the index, the component and both counts; a set may lack the
    nodes of angles within _ENDPOINT_GUARD (|lambda| + max|V| + |m|) of
    theta(0) or theta(pi), which the guard may have dropped.  Inside that
    band nothing is checked.
    """
    components = tuple(component_number(c) for c in components)
    if not components:
        raise InputError("no component given")
    cfg = cfg or IntegratorConfig()
    records = list(records)
    if not records:
        return []
    mesh_of = functools.cache(lambda n: _mesh(problem, n))
    steps = np.array([_node_steps(problem, rec, cfg.n_steps, mesh_of) for rec in records])
    lams = np.array([float(rec.lam) for rec in records])
    rows = np.array(components) - 1
    per = rows.size
    # per zero on a mesh node its (record, component) pair, numbered record by
    # record, and place; per bracket its pair and what _node_newton takes
    zeros, brackets = [], []
    for n in dict.fromkeys(steps.tolist()):
        mesh = mesh_of(n)
        group = np.flatnonzero(steps == n)
        size = max(1, _CHUNK_ENTRIES // mesh.vbar.size)
        for chunk in (group[s:s + size] for s in range(0, group.size, size)):
            traj = _trajectory(problem, lams[chunk], mesh)
            comp = traj[rows]   # (components, nodes, lambdas)
            mag = np.abs(comp)
            scale = mag.max(axis=1, keepdims=True)
            near = mag <= 1e-12 * scale
            for bad, what in ((scale == 0.0, "is identically zero"),
                              (near[:, :-2] & near[:, 1:-1] & near[:, 2:],
                               "vanishes on an interval of the grid")):
                if bad.any():
                    which = components[np.argmax(bad.any(axis=(1, 2)))]
                    raise DegenerateComponent(f"component {which} {what}")
            inner = near[:, 1:-1]
            c, j, r = np.unravel_index(np.flatnonzero(inner), inner.shape)
            zeros.append((chunk[r] * per + c, mesh.x[j + 1]))
            solid = ~near
            cells = solid[:, :-1] & solid[:, 1:] & (comp[:, :-1] * comp[:, 1:] < 0)
            c, j, r = np.unravel_index(np.flatnonzero(cells), cells.shape)
            brackets.append((chunk[r] * per + c, mesh.x[j], mesh.x[j + 1],
                             comp[c, j, r], comp[c, j + 1, r], lams[chunk[r]], rows[c],
                             mesh.vbar[j], np.full(j.size, mesh.v_max),
                             traj[:, j, r], traj[:, j + 1, r]))
    pair, lo, hi, f_lo, f_hi, lam, row, vbar, v_max, y_lo, y_hi = (
        np.concatenate(v, axis=-1) for v in zip(*brackets))
    del brackets, traj, comp, mag, near, solid, cells   # free before the refinement

    def describe(k):
        rec = records[pair[k] // per]
        return (f"eigenvalue index {rec.index} component {row[k] + 1} node in "
                f"[{lo[k]:.6g}, {hi[k]:.6g}]")

    roots = np.empty(0)
    if lo.size:
        x = _node_start(problem.mass, lam, row, vbar, y_lo, y_hi, lo, hi, f_lo, f_hi)
        roots = _node_newton(problem, lam, row, y_lo, lo, hi, f_lo, f_hi, x,
                             _turn_rate(problem, lam, v_max), describe)
    # each pair's zeros inside the guard, in order, each more than 1e-9 past
    # the one before it
    key, x = (np.concatenate(v) for v in zip(*zeros, (pair, roots)))
    inside = (x > _ENDPOINT_GUARD) & (x < math.pi - _ENDPOINT_GUARD)
    at = np.flatnonzero(inside)[np.lexsort((x[inside], key[inside]))]
    key, x = key[at], x[at]
    apart = np.ones(x.size, dtype=bool)
    apart[1:] = (key[1:] != key[:-1]) | (x[1:] - x[:-1] > 1e-9)
    key, x = key[apart], x[apart]
    ends = np.searchsorted(key, np.arange(len(records) * per + 1))
    turns = [_rotation_index(problem.boundary, rec.index) for rec in records]
    v_max = np.array([mesh_of(n).v_max for n in steps.tolist()])
    rule = _node_counts(problem, lams, turns, rows).ravel()
    count = np.diff(ends)
    outside = np.repeat(np.abs(lams) > v_max + abs(problem.mass), per)
    wrong = np.flatnonzero(outside & (count != rule))
    if wrong.size:
        # the guard may have dropped the node of an angle within
        # _ENDPOINT_GUARD |theta'| of an end
        least = _node_counts(problem, lams, turns, rows,
                             _ENDPOINT_GUARD * _turn_rate(problem, lams, v_max)).ravel()
        wrong = wrong[(count[wrong] < least[wrong]) | (count[wrong] > rule[wrong])]
        if wrong.size:
            raise NodeCountMismatch("node counts differ from the Prufer angle's: " + ", ".join(
                f"eigenvalue index {records[k // per].index} component "
                f"{components[k % per]}: {count[k]} nodes, not {rule[k]}" for k in wrong))
    ends = ends.tolist()
    return [NodalSet(records[k // per].index, components[k % per], x[start:end])
            for k, (start, end) in enumerate(zip(ends, ends[1:]))]


# ((problem, index, lambda, record steps, n_steps), nodal sets of components
# 1 and 2) of the record extract_nodes extracted last, or None
_last_nodal_sets = None


def extract_nodes(problem: DiracProblem, rec: EigenRecord, component: int,
                  cfg: IntegratorConfig | None = None) -> NodalSet:
    """All interior zeros of one eigenfunction component.

    Both components of rec come from one ``extract_nodal_sets`` call, and
    the two sets of the last record are kept: a call with the same problem,
    index, lambda, ``rec.steps`` and ``cfg.n_steps``, everything
    ``_node_steps`` chooses the node mesh from, returns the kept set without
    propagating or evaluating the potential.  A call for one component thus
    also pays for refining the other, and a component that raises, such as
    DegenerateComponent, raises on a call for either component.
    """
    global _last_nodal_sets
    component = component_number(component)
    cfg = cfg or IntegratorConfig()
    key = (problem, rec.index, float(rec.lam), rec.steps, cfg.n_steps)
    kept = _last_nodal_sets   # one read: another thread may replace the slot
    if kept is None or kept[0] != key:
        kept = _last_nodal_sets = (key, extract_nodal_sets(problem, [rec], (1, 2),
                                                           cfg))
    return kept[1][component - 1]
