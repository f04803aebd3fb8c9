"""Forward solver: initial-value integration, eigenvalue search, node extraction.

The integrator is a fourth-order Magnus scheme built on the two-point
Gauss-Legendre rule.  Each step propagates with the exact exponential of
the averaged coefficient matrix plus its commutator correction, so constant
potentials are integrated exactly and the global error for smooth
potentials scales like lambda * h^4; a classical RK4 at the same step
count loses four orders of magnitude by n = 40.  The mesh is uniform with
a node added at each breakpoint of the potential, so that V is smooth
inside every step; without breakpoints it is exactly the uniform mesh.

Each public call samples the potential at the mesh's Gauss points once.
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
* a trajectory is the down-sweep of the tree at one lambda (Blelloch,
  "Prefix Sums and Their Applications", CMU-CS-90-190, 1990): the state at
  the start of a right child is its left sibling times the state at the
  start of their parent.  This gives the state at every mesh node from
  O(N) products, and the last state is bitwise the terminal state.

Both agree with a step-by-step loop to roundoff.  A step matrix needs
cosh(sqrt(u)) and sinh(sqrt(u))/sqrt(u) with u about -(h (lambda - V))^2.
For |u| <= 1/12, which on a 4096-step mesh holds for every
|lambda - V| below about 370, they come from seven terms of their Taylor
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
``_terminal`` returns theta(pi) beside the terminal state.  On a step theta
turns by the integral of lambda - V, give or take |m| times the step's
width, so the tree's down-sweep stops at the level whose blocks keep that
deviation within pi/2.  The angles at the block ends, less the integral of
lambda - V over each block, unwrap theta and fix the 2 pi branch of the
terminal state's own angle.  theta(pi) is therefore bitwise the same for
every such level and every batch.

From the asymptotic seeds, each index jumps by its angle mismatch until
both ends of its bracket lie within pi of the target angle, one on each
side; chi changes sign exactly once in such a bracket, and a safeguarded
Illinois regula falsi refines it until it is ``lambda_tolerance`` wide.
Every round of the search evaluates one lambda per open index in one
batched propagation, and each index stops on its own.  The search controls
its error by mesh refinement and Richardson extrapolation (Pryce, 1993;
SLEDGE, Pruess and Fulton, ACM TOMS 19, 1993): it starts on an eighth of
``n_steps`` and compares each eigenvalue with those of the meshes of half
and a quarter as many steps.  Where the ratio of the two differences is
near 16, as for an error C h**4, the error estimate is the extrapolated
one times a safety factor; elsewhere it is the change from the mesh of
half as many steps.  The mesh of an index doubles while its estimate
exceeds ``lambda_tolerance``.  A state at pi that cancels to a tiny
fraction of its terms, as for an eigenfunction decaying from x = 0 across
a mass gap, raises IntegrationFailure instead of yielding a wrong root.

Nodes are extracted for many records and either or both components in one
call, ``extract_nodal_sets``, on the full mesh, which it builds once; each
record's trajectory is taken at its own lambda.  Every sign change between
mesh nodes brackets a zero, and all brackets are refined together by a
safeguarded Newton iteration on the partial Magnus step from the bracket's
left mesh node.  Its derivative is exact from the ODE, y1' = (V - m -
lambda) y2 and y2' = (lambda - V - m) y1, at the partial step's state, and
a step that would leave the bracket is replaced by bisection.
``extract_nodes`` is that call for one record and one component.
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
                     RotationLimitExceeded, ToleranceNotMet,
                     UnsupportedPrediction)
from .model import Classical, DiracProblem, EigenRecord, NodalSet

logger = logging.getLogger(__name__)

_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0

# Nodes refined closer to an endpoint than this are residual-level phantom
# zeros of a component that vanishes at the boundary; drop them.
_ENDPOINT_GUARD = 1e-8

# A refined node is final once its Newton step delta has (|lambda| + max|V|
# + |m|) delta**2 at most this, or its bracket is at most this wide.
_NODE_TOLERANCE = 1e-14

# Evaluations per node after which node refinement raises IterationFailure;
# bisection alone narrows a step of pi / 64, the widest, to _NODE_TOLERANCE
# in 43.
_NODE_ITERATIONS = 44

# Step-lambda entries per chunk of step tables in _terminal (a mesh whose
# tables fit is one chunk): the chunk's temporaries (128 KiB per entry of
# the 2x2 tables) then stay in a 2 MiB L2 cache.  Median time
# of find_eigenvalues(3..40) over the four spectrum_batch problems of the
# benchmark (seed 901, 30 interleaved repeats on one CPU of a 2-vCPU Xeon
# with numpy 2.4): 336 ms at 1 << 13, 234 ms at 1 << 14, 339 ms at 1 << 15.
_CHUNK_ENTRIES = 1 << 14

# On a mesh of several chunks, a chunk stops halving before its products
# hold fewer than this many entries, and _halve finishes the tree over all
# chunks at once, with one _mul per level instead of one per chunk.
# Measured as above (seed 902, chunks of 1 << 14): 244 ms when every chunk
# halves to one product, 238 ms at 256, 233 ms at 512, 277 ms at 1024, 308 ms
# at 2048.
_TAIL_ENTRIES = 512

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
# between block ends, and on the turn over one step; below pi, with a margin
# for the commutator term and roundoff.
_BLOCK_TURN = math.pi / 2

# Largest bound on the turn of the Prufer angle over one step at its seed for
# a mesh to start an index's search on: half of _BLOCK_TURN, so that the
# bracket search may move lambda away from the seed.
_START_TURN = _BLOCK_TURN / 2

# Largest distance the eigenvalue refined on a mesh is looked for from the
# eigenvalue on the coarser mesh: well inside the spacing of eigenvalues.
_SHIFT_LIMIT = 1.0 / 16

# Band of rho = (lambda_N/4 - lambda_N/2) / (lambda_N/2 - lambda_N), which is
# 16 for an error C h**4, inside which the error estimate of lambda_N is
# _RICHARDSON_SAFETY times the Richardson estimate |lambda_N/2 - lambda_N| /
# (rho - 1) instead of |lambda_N/2 - lambda_N|.  Measured for n = 3..40 at
# 4096 steps against a search on 32768 steps: on sin2x (m = 0.5, two
# classical boundaries and case I) and poly (m = 2) rho lay in [15.6, 17.2]
# and the error was at most 1.06 times the Richardson estimate; on the 30
# seeded sampled potentials of the benchmark, whose meshes do not halve,
# rho fell in the band for 24 of 1140 indices, 18 of them with errors up to
# 1.56 times it.  A factor of 3 bounds those with a margin, and V = 8 sin 6x
# with m = 10 still misses 1e-10 on 4096 steps (estimates up to 1.5e-10),
# which it meets with a factor of 2.
_RHO_BAND = (12.0, 20.0)
_RICHARDSON_SAFETY = 3.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration grid over [0, pi]: ``n_steps`` uniform steps, plus a node
    at each breakpoint of the potential.  The eigenvalue search takes
    ``n_steps`` as its finest mesh and stops on a coarser one where that
    meets its tolerance; trajectories and nodes use ``n_steps``."""

    n_steps: int = 4096

    def __post_init__(self):
        if self.n_steps < 64:
            raise InputError("n_steps must be at least 64")


@dataclass(frozen=True)
class EigenSearchConfig:
    """Bracketing and root-finding parameters for the eigenvalue search.

    ``lambda_tolerance`` is both the bracket width at which a root is final
    and the largest error estimate an eigenvalue may have.
    ``max_iterations`` caps, per index and mesh, the angle evaluations that
    bracket it, the characteristic-function evaluations that refine the
    bracket and the widenings of a bracket on a finer mesh; an index still
    open at a cap raises IterationFailure.
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
# |u| <= _SERIES_LIMIT seven terms leave a remainder below 1e-18.  The limit
# covers |lambda - V| up to about 370 on 4096 steps and up to about 47 on 512
# steps, the default search's first mesh; its error estimate evaluates chi on
# 256 and 128 steps, which take the trigonometric branch above about 23 and
# 12.
_COSH_SERIES = tuple(1.0 / math.factorial(2 * k) for k in reversed(range(7)))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in reversed(range(7)))
_SERIES_LIMIT = 1.0 / 12


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
    |lambda - V| stays below about 370 on a 4096-step mesh, take
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

    ``h`` holds the width of each step and ``x`` the nodes; ``h_max`` is the
    widest step and ``v_max`` the largest |vbar|."""

    h: np.ndarray
    vbar: np.ndarray
    g: np.ndarray
    x: np.ndarray
    h_max: float
    v_max: float


def _sample(problem, x0, h):
    """Mean potential vbar and commutator weight g of the steps [x0, x0 + h]."""
    v_lo = np.asarray(problem.potential(x0 + _GAUSS_LO * h), dtype=float)
    v_hi = np.asarray(problem.potential(x0 + _GAUSS_HI * h), dtype=float)
    vbar = 0.5 * (v_lo + v_hi)
    g = (math.sqrt(3.0) / 6.0) * problem.mass * h * h * (v_hi - v_lo)
    return vbar, g


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
    vbar, g = _sample(problem, x[:-1], h)
    return _Mesh(h, vbar, g, x, float(h.max()), float(np.abs(vbar).max()))


def _entries(m, h, vbar, g, lams):
    """Step propagators for any broadcast of steps (h, vbar, g) against
    spectral parameters lams, stacked in one array of shape (2, 2, ...):
    entry [i, j] holds P_(i+1)(j+1).  Products are formed in place where the
    operands allow it: fewer large temporaries, and the same values bit for
    bit."""
    w = lams - vbar
    bb = -h * (w + m)
    cc = h * (w - m)
    ec, es = _coshc_sinhc(g * g + bb * cc)
    p = np.empty((2, 2) + ec.shape)
    esg = np.multiply(es, g, out=p[0, 0])
    np.add(ec, esg, out=p[1, 1])
    np.subtract(ec, esg, out=p[0, 0])
    np.multiply(bb, es, out=p[0, 1])
    np.multiply(cc, es, out=p[1, 0])
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


def _chunk(problem, lams, mesh, start, steps, levels):
    """Products, in natural order, of the aligned blocks of 2**levels steps
    (or of all of them, if fewer) among mesh steps [start, start + steps):
    the step matrices are built in ``_order`` and halved by ``_halve``."""
    at = _order(steps)[0] + start
    p = _entries(problem.mass, *(a[at][:, None] for a in mesh[:3]), lams)
    return _halve(p, levels)[:, :, _order(-(-steps >> levels))[1]]


def _lambdas(values):
    lams = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise InputError("lambda values must be finite")
    return lams


def _check_finite(problem, lams, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
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
    largest power of two whose blocks, at the widest step of the mesh, hold
    |m| times their width to at most _BLOCK_TURN.  Raises
    RotationLimitExceeded where one step may turn the angle by more than
    _BLOCK_TURN, from |theta'| <= |lambda| + max|V| + |m|."""
    n = mesh.vbar.size
    h = mesh.h_max
    rate = float(np.abs(lams).max()) + mesh.v_max + abs(problem.mass)
    if h * rate > _BLOCK_TURN:
        raise RotationLimitExceeded(
            f"lambda = {float(np.abs(lams).max()):.6g}: one step of the "
            f"{n}-step mesh may turn the Prufer angle by {h * rate:.3g} rad, "
            f"more than the {_BLOCK_TURN:.3g} rad a step may turn; increase "
            "the number of steps")
    steps = _BLOCK_TURN / (h * abs(problem.mass)) if problem.mass else n
    return min(int(steps), n).bit_length() - 1


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
    many (``_chunk``), each of which stops halving before its products hold
    fewer than _TAIL_ENTRIES entries; ``_halve`` finishes the tree over all
    chunks at once.  For the angle the halving pauses at the level of
    ``_block_level``, ``_tree`` finishes the tree, and its down-sweep
    (``_descend``) gives the block starts to ``_rotation``.  Neither the
    chunk width, nor where a chunk stops, nor the level changes the tree,
    so y(pi) and theta(pi) are bitwise the same for a lambda in any batch.
    """
    lams = _lambdas(lams)
    n = mesh.vbar.size
    # one chunk if the tables fit _CHUNK_ENTRIES, else chunks of the largest
    # power of two of steps that fits
    width = n if n * lams.size <= _CHUNK_ENTRIES else \
        1 << (max(1, _CHUNK_ENTRIES // lams.size).bit_length() - 1)
    inner = (width - 1).bit_length()
    if n > width:
        inner = max(0, inner - ((_TAIL_ENTRIES - 1) // lams.size).bit_length())
    if angle:
        level = _block_level(problem, lams, mesh)
        inner = min(level, inner)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = np.concatenate([_chunk(problem, lams, mesh, s, min(width, n - s),
                                        inner) for s in range(0, n, width)], axis=2)
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
    _check_finite(problem, lams, y_pi)
    lost = np.hypot(*y_pi) < _CANCELLATION * terms
    if lost.any():
        raise IntegrationFailure(
            f"the state at pi cancelled to below {_CANCELLATION:g} of its terms "
            f"at lambda = {lams[lost][0]:.6g}: shooting from x = 0 cannot "
            "resolve a solution that decays from x = 0 across a mass gap")
    if not angle:
        return y_pi[0], y_pi[1]
    _check_finite(problem, lams, theta)
    return y_pi[0], y_pi[1], theta


def _trajectory(problem, lam, mesh):
    """The Trajectory at one spectral parameter: the states at the mesh nodes
    from the down-sweep over the pairwise tree of the step matrices, and the
    last one from the product of all, bitwise ``_terminal``'s y(pi)."""
    lams = _lambdas(float(lam))
    order, inverse = _order(mesh.vbar.size)
    out = np.empty((2, mesh.x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _tree(_entries(problem.mass, *(a[order][:, None] for a in mesh[:3]),
                              lams))
        y0 = _initial_state(problem, lams)
        q = tree[-1][:, :, 0]
        for row, states in zip(out, _descend(tree, y0)[:, :, 0]):
            np.take(states, inverse, out=row[:-1])
        out[:, -1] = (q[:, 0] * y0[0] + q[:, 1] * y0[1])[:, 0]
    _check_finite(problem, lams, out)
    return Trajectory(mesh.x, out.T)


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
    exactly 0 at an iterate, which becomes its hi end, so each root is
    bitwise independent of the batch it is found in.  The root of a frozen
    bracket is that exact zero, or else the linear interpolant of its true
    end values.  A bracket still open after ``max_evals`` evaluations raises
    IterationFailure, naming the open brackets by ``describe(position)``.
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
        if evals == max_evals:
            raise IterationFailure(
                f"root not within {tolerance:g} after {max_evals} evaluations: "
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


def _refine(problem, seeds, slopes, mesh, tolerance, max_evals, describe):
    """Roots of chi on ``mesh`` next to the seeds, the roots on a coarser
    mesh, where chi had the given slopes.

    A Newton step from each seed predicts its root.  A bracket 0.8
    ``tolerance`` wide around the prediction is widened 16-fold about it
    until chi changes sign, and ``_illinois`` refines it.  Every
    propagation evaluates one lambda per open index, and each index follows
    only its own values.  A bracket that would reach farther than
    _SHIFT_LIMIT from its prediction, or is still open after ``max_evals``
    widenings, raises IterationFailure.  Returns the roots, the slopes of
    chi across their final brackets, and the brackets [lo, hi] that
    ``_illinois`` started from.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = seeds - _characteristic_batch(problem, seeds, mesh) / slopes
    x = np.where(np.isfinite(x), x, seeds)
    half = np.full(seeds.size, 0.4 * tolerance)
    lo, hi, f_lo, f_hi = (np.empty(seeds.size) for _ in range(4))
    open_ = np.arange(seeds.size)
    for evals in itertools.count(1):
        a, b = x[open_] - half[open_], x[open_] + half[open_]
        fa = _characteristic_batch(problem, a, mesh)
        fb = _characteristic_batch(problem, b, mesh)
        found = np.sign(fa) != np.sign(fb)
        for end, value in ((lo, a), (hi, b), (f_lo, fa), (f_hi, fb)):
            end[open_[found]] = value[found]
        open_ = open_[~found]
        if not open_.size:
            break
        half[open_] *= 16.0
        if evals == max_evals or np.any(half[open_] > _SHIFT_LIMIT):
            raise IterationFailure(
                "chi keeps its sign within "
                f"{min(float(half[open_].max()) / 16, _SHIFT_LIMIT):.3g} of the "
                "eigenvalue of the coarser mesh: "
                + ", ".join(describe(k) for k in open_))
    roots, slopes = _illinois(_chi(problem, mesh), lo, hi, f_lo, f_hi,
                              tolerance, max_evals, describe)
    return roots, slopes, lo, hi


def _levels(n_steps):
    """Uniform step counts of the meshes the eigenvalue search may use,
    coarsest first: n_steps / 8, n_steps / 4, n_steps / 2 and n_steps."""
    return n_steps >> 3, n_steps >> 2, n_steps >> 1, n_steps


def _error_estimate(d1, d2):
    """Error estimate of lambda_N from the differences d1 = lambda_N/2 -
    lambda_N and d2 = lambda_N/4 - lambda_N/2: where their ratio rho = d2 /
    d1 lies in _RHO_BAND, the mesh is in the fourth-order regime and the
    estimate is _RICHARDSON_SAFETY |d1| / (rho - 1); elsewhere it is |d1|,
    and infinite where d1 is not finite."""
    undivided = np.where(np.isfinite(d1), np.abs(d1), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = d2 / d1
        divided = _RICHARDSON_SAFETY * undivided / (rho - 1.0)
    fourth = (rho >= _RHO_BAND[0]) & (rho <= _RHO_BAND[1])
    return np.where(fourth, divided, undivided)


def _start_levels(problem, seeds, levels, mesh):
    """For each seed, the position in ``levels`` of the coarsest mesh on which
    one step turns the angle at the seed by at most _START_TURN, from
    |theta'| <= |lambda| + max|V| + |m| with max|V| sampled on ``mesh``;
    the finest mesh where none does.  Breakpoints only narrow the steps."""
    rate = np.abs(seeds) + mesh.v_max + abs(problem.mass)
    fits = np.array([math.pi / n for n in levels])[:, None] * rate <= _START_TURN
    fits[-1] = True
    return np.argmax(fits, axis=0)


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
    ``_levels(integrator.n_steps)``.  Each index starts on the coarsest one
    whose steps can count the angle's turns near its seed, N = n_steps / 8
    unless the seed is large: seeds come from the second-order eigenvalue
    expansion, with its constants computed once per call, ``_bracket``
    turns them into brackets by the Prufer angle, and ``_illinois`` refines
    chi in each.  Two Newton steps from lambda_N, with the slope of chi
    across its final bracket, give the roots on the meshes of N / 2 and
    N / 4 uniform steps, and ``_error_estimate`` turns the differences
    lambda_N/2 - lambda_N and lambda_N/4 - lambda_N/2 into the error
    estimate: divided by rho - 1, rho their ratio, where rho is near 16,
    and |lambda_N/2 - lambda_N| elsewhere, which bounds the error of
    lambda_N for any order of convergence of at least 1.  While the
    estimate exceeds ``lambda_tolerance``, N doubles and ``_refine`` solves
    on it from the previous root; the estimate then comes from the roots
    on 2N, N and N / 2 steps.  Each index decides alone, so each record is
    bitwise the same in any batch.  An index whose estimate still exceeds
    the tolerance on the finest mesh raises ToleranceNotMet.
    """
    integrator = integrator or IntegratorConfig()
    search = search or EigenSearchConfig()
    indices = [int(n) for n in indices]
    if not indices:
        return []
    turns = np.array([_rotation_index(problem.boundary, n) for n in indices])
    if len(set(indices)) != len(indices):
        raise InputError("duplicate eigenvalue indices")

    constants = asymptotics.AsymptoticConstants.from_problem(problem)
    seeds = np.array([asymptotics.lambda_asym(problem, n, 2, constants)
                      for n in indices])
    tolerance, max_evals = search.lambda_tolerance, search.max_iterations

    mesh_of = functools.cache(lambda n: _mesh(problem, n))

    def describe_in(positions):
        return lambda k: f"eigenvalue index {indices[positions[k]]}"

    levels = _levels(integrator.n_steps)
    start = _start_levels(problem, seeds, levels, mesh_of(levels[0]))
    size = len(indices)
    # per index: lambda_N/2 - lambda_N and lambda_N/4 - lambda_N/2 for the
    # mesh of N steps it is on
    lam, slope, lo, hi, residual, d1, d2 = (np.zeros(size) for _ in range(7))
    estimate = np.full(size, np.inf)
    steps = np.zeros(size, dtype=int)
    for level, n in enumerate(levels):
        new = np.flatnonzero(start == level)
        old = np.flatnonzero((start < level) & (estimate > tolerance))
        if not (new.size or old.size):
            continue
        mesh = mesh_of(n)
        if new.size:
            describe = describe_in(new)
            b_lo, b_hi, chi_lo, chi_hi = _bracket(problem, turns[new], seeds[new],
                                                  mesh, max_evals, describe)
            lam[new], slope[new] = _illinois(_chi(problem, mesh), b_lo, b_hi,
                                             chi_lo, chi_hi, tolerance, max_evals,
                                             describe)
            # Newton steps from lambda_N for the roots on N/2 and N/4 steps
            half, quarter = (_characteristic_batch(problem, lam[new], mesh_of(n >> k))
                             / slope[new] for k in (1, 2))
            d1[new], d2[new] = -half, half - quarter
            lo[new], hi[new] = b_lo, b_hi
        if old.size:
            roots, slope[old], lo[old], hi[old] = _refine(
                problem, lam[old], slope[old], mesh, tolerance, max_evals,
                describe_in(old))
            d1[old], d2[old] = lam[old] - roots, d1[old]
            lam[old] = roots
        here = np.concatenate((new, old))
        estimate[here] = _error_estimate(d1[here], d2[here])
        steps[here] = n
        done = here[estimate[here] <= tolerance]
        if done.size:
            residual[done] = _residuals(problem, lam[done], mesh)
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


def _node_newton(problem, lams, rows, y0, lo, hi, f_lo, f_hi, rate, describe):
    """Zeros of a solution component in the brackets [lo, hi], with f_lo *
    f_hi < 0, by safeguarded Newton iteration vectorized over the brackets.

    Bracket k belongs to a solution at ``lams[k]`` whose state at its left
    end, a mesh node x0, is y0[:, k]; the component is y1 where ``rows[k]``
    is 0 and y2 where it is 1.  The component at x is that of the partial
    Magnus step from x0 (``_entries`` on the step [x0, x]), and its
    derivative is exact from the ODE at that state: y1' = (V - m - lambda)
    y2 and y2' = (lambda - V - m) y1.  The first iterate is the linear
    interpolant of the end values.  Each evaluation replaces the end of the
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
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    for evals in itertools.count(1):
        h = x - x0
        p = _entries(m, h, *_sample(problem, x0, h), lams)
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


def extract_nodal_sets(problem: DiracProblem, records, components,
                       cfg: IntegratorConfig | None = None) -> list[NodalSet]:
    """All interior zeros of the given components of the eigenfunctions of
    many records: one NodalSet per record and component, record by record,
    in the order of ``components`` within a record.

    The ``cfg.n_steps`` mesh is built once, and each record's trajectory is
    taken on it at its own lambda.  Zeros are bracketed by the sign changes
    between mesh nodes of every (record, component), and the brackets of all
    of them are refined together by ``_node_newton``, so each record's nodes
    are bitwise the same whether it is extracted alone or in any batch.
    Zeros within _ENDPOINT_GUARD of an end are dropped, as are zeros within
    1e-9 of the previous one.  A component that is identically zero,
    or vanishes on three consecutive mesh nodes, raises DegenerateComponent.
    """
    components = tuple(components)
    if not components or any(c not in (1, 2) for c in components):
        raise InputError("component must be 1 or 2")
    cfg = cfg or IntegratorConfig()
    records = list(records)
    if not records:
        return []
    mesh = _mesh(problem, cfg.n_steps)
    # per (record, component): its zeros on the mesh and its number of
    # brackets; per bracket: its ends, end values, left state, lambda, row
    zeros, counts = [], []
    lo, hi, f_lo, f_hi, y0, lams, rows = ([] for _ in range(7))
    for rec in records:
        xs, traj = _trajectory(problem, rec.lam, mesh)
        for component in components:
            comp = traj[:, component - 1]
            scale = float(np.max(np.abs(comp)))
            if scale == 0.0:
                raise DegenerateComponent(
                    f"component {component} is identically zero")
            near = np.abs(comp) <= 1e-12 * scale
            if np.any(near[:-2] & near[1:-1] & near[2:]):
                raise DegenerateComponent(
                    f"component {component} vanishes on an interval of the grid")
            solid = ~near
            cells = np.flatnonzero(solid[:-1] & solid[1:]
                                   & (comp[:-1] * comp[1:] < 0))
            zeros.append(xs[1:-1][near[1:-1]])
            counts.append(cells.size)
            for out, value in ((lo, xs[cells]), (hi, xs[cells + 1]),
                               (f_lo, comp[cells]), (f_hi, comp[cells + 1]),
                               (y0, traj[cells].T)):
                out.append(value)
            lams.append(np.full(cells.size, float(rec.lam)))
            rows.append(np.full(cells.size, component - 1))
    lo, hi, f_lo, f_hi, lams, rows = (
        np.concatenate(v) for v in (lo, hi, f_lo, f_hi, lams, rows))
    owner = np.repeat(np.arange(len(counts)), counts)

    def describe(k):
        rec = records[owner[k] // len(components)]
        return (f"eigenvalue index {rec.index} component {rows[k] + 1} node in "
                f"[{lo[k]:.6g}, {hi[k]:.6g}]")

    roots = np.empty(0)
    if lo.size:
        rate = np.abs(lams) + mesh.v_max + abs(problem.mass)
        roots = _node_newton(problem, lams, rows, np.concatenate(y0, axis=1),
                             lo, hi, f_lo, f_hi, rate, describe)
    sets = []
    start = 0
    for k, (exact, count) in enumerate(zip(zeros, counts)):
        rec, component = records[k // len(components)], components[k % len(components)]
        nodes = np.sort(np.concatenate((exact, roots[start:start + count])))
        start += count
        nodes = nodes[(nodes > _ENDPOINT_GUARD) & (nodes < math.pi - _ENDPOINT_GUARD)]
        deduped = []
        for x in nodes.tolist():
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
                         "predicted %d", rec.index, component, result.count,
                         predicted)
        sets.append(result)
    return sets


def extract_nodes(problem: DiracProblem, rec: EigenRecord, component: int,
                  cfg: IntegratorConfig | None = None) -> NodalSet:
    """All interior zeros of one eigenfunction component:
    ``extract_nodal_sets`` for one record and one component."""
    return extract_nodal_sets(problem, [rec], (component,), cfg)[0]
