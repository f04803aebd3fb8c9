"""Nodal-sequence distances and the Lipschitz stability identity.

The per-index distance ``s_n`` is a weighted l1 metric on rows of grid
lengths; its large-n limit superior ``d0`` and the bounded transform
``d_sigma = d0/(1+d0)`` make the space of admissible nodal sequences a
pseudometric space.  At desk scale d0 is replaced by the max over the upper
half of the computed index window, with the full table exposed so callers
can judge convergence themselves; no extrapolation is applied silently.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .errors import (CaseMismatch, ComputationError, DomainError, InputError,
                     RowMismatch)
from .model import DOMAIN_LENGTH, DiracProblem, GridSequence, NodalSet, Potential
from .reconstruction import ReconstructionMode, l1_distance, l1_error, reconstruct_step

logger = logging.getLogger(__name__)


def _check_positivity(case, n, m):
    bound = m / math.sqrt(2.0) + (2.0 if case == "I" else 0.0)
    if n < bound - 1e-12:
        raise DomainError(
            f"prefactor positivity needs n >= m/sqrt(2) + "
            f"{'2' if case == 'I' else '0'}; got n={n}, m={m}")


def s_n(x_seq: GridSequence, y_seq: GridSequence, n: int, m: float = 0.0) -> float:
    """Weighted l1 distance between the grid-length rows at index n."""
    if x_seq.case != y_seq.case:
        raise CaseMismatch("sequences belong to different cases")
    lx = x_seq.lengths(n)
    ly = y_seq.lengths(n)
    if lx.size != ly.size:
        raise RowMismatch(f"row {n}: {lx.size} vs {ly.size} lengths")
    _check_positivity(x_seq.case, n, m)
    diff = np.abs(lx - ly)
    if x_seq.case == "I":
        weight = math.pi * (n - 2 - m * m / (2.0 * (n - 2)))
        return float(weight * np.sum(diff))
    k = np.arange(1, diff.size + 1)
    weights = math.pi * (n + np.where(k % 2 == 0, 1.0, -1.0) * m * m / (2.0 * n))
    return float(np.sum(weights * diff))


@dataclass(frozen=True)
class D0Estimate:
    """Finite-n surrogate for the limit superior of s_n."""

    value: float
    table: dict[int, float]
    infinite: bool

    @property
    def d_sigma(self):
        return 1.0 if self.infinite else self.value / (1.0 + self.value)


def d0_estimate(x_seq: GridSequence, y_seq: GridSequence, n_window,
                m: float = 0.0, ceiling: float = 1e6) -> D0Estimate:
    """Max of s_n over the upper half of the window, with the full table.

    Flagged infinite when the values exceed the ceiling and are still
    growing (positive fitted slope).
    """
    ns = sorted(int(n) for n in n_window)
    if not ns:
        raise InputError("empty index window")
    table = {n: s_n(x_seq, y_seq, n, m) for n in ns}
    top = ns[len(ns) // 2:]
    value = max(table[n] for n in top)
    infinite = False
    if value > ceiling and len(ns) >= 2:
        slope = np.polyfit(ns, [table[n] for n in ns], 1)[0]
        infinite = slope > 0
    return D0Estimate(value=value, table=table, infinite=infinite)


def d_sigma_from_d0(d0: float) -> float:
    """Bounded transform d0/(1+d0); equals 1 at infinity."""
    if math.isinf(d0) and d0 > 0:
        return 1.0
    if d0 < 0 or math.isnan(d0):
        raise DomainError("d0 must be nonnegative or +inf")
    return d0 / (1.0 + d0)


def d0_from_d_sigma(d_sigma: float) -> float:
    """Inverse transform; returns +inf at d_sigma = 1."""
    if not 0.0 <= d_sigma <= 1.0:
        raise DomainError("d_sigma must lie in [0, 1]")
    if d_sigma == 1.0:
        return math.inf
    return d_sigma / (1.0 - d_sigma)


def grid_diff_chi(x_seq: GridSequence, y_seq: GridSequence, n: int) -> np.ndarray:
    """Entrywise |X_k - Y_k| for row n."""
    rx = x_seq.row(n)
    ry = y_seq.row(n)
    if rx.size != ry.size:
        raise RowMismatch(f"row {n}: {rx.size} vs {ry.size} points")
    return np.abs(rx - ry)


def index_functions_diff(x_seq: GridSequence, y_seq: GridSequence, n: int,
                         x: float) -> int:
    """|J_n(x) - J̄_n(x)| where J counts row entries not exceeding x."""
    if not 0.0 < x < DOMAIN_LENGTH:
        raise DomainError("x must lie in (0, pi)")
    jx = int(np.searchsorted(x_seq.row(n), x, side="right"))
    jy = int(np.searchsorted(y_seq.row(n), x, side="right"))
    return abs(jx - jy)


@dataclass(frozen=True)
class QuasinodalReport:
    """Admissibility and reconstruction-trend verdicts for one sequence."""

    case: str
    admissibility_constant: float
    deviations: dict[int, float]
    row_pass: dict[int, bool]
    flagged_rows: list[int]
    asymptotics_pass: bool
    l1_errors: dict[int, float]
    l1_slope: float | None
    l1_trend_pass: bool


def quasinodal_check(x_seq: GridSequence, potential: Potential, m: float,
                     boundary, admissibility_constant: float = 10.0) -> QuasinodalReport:
    """Check a grid sequence against a candidate potential.

    Never raises on data: every verdict is carried in the report.
    """
    ns = x_seq.indices()
    deviations = {}
    row_pass = {}
    for n in ns:
        dev = x_seq.deviation_sup(n)
        deviations[n] = dev
        row_pass[n] = bool(dev <= admissibility_constant)
    flagged = [n for n in ns if not row_pass[n]]
    # The asymptotic verdict is about tail behavior: isolated bad rows are
    # flagged without failing the sequence, persistent failures fail it.
    asym_pass = bool(ns) and len(flagged) <= len(ns) // 3

    problem = DiracProblem(m, potential, boundary)
    shift = boundary.beta - boundary.alpha
    mode = ReconstructionMode(tag="corrected", lambda_source="integer_seed")
    errors = {}
    for n in ns:
        try:
            nodal = NodalSet(n, 1, x_seq.row(n))
            step = reconstruct_step(nodal, problem, mode)
            errors[n] = l1_error(step, potential, adjust_mean=True,
                                 boundary_shift=shift)
        except (InputError, DomainError, ComputationError) as exc:
            logger.debug("quasinodal reconstruction skipped at n=%d: %s", n, exc)
    slope = None
    if len(errors) >= 2 and all(e > 0 for e in errors.values()):
        ks = sorted(errors)
        slope = float(np.polyfit(np.log([float(k) for k in ks]),
                                 np.log([errors[k] for k in ks]), 1)[0])
    trend_pass = slope is not None and slope < 0
    return QuasinodalReport(
        case=x_seq.case,
        admissibility_constant=admissibility_constant,
        deviations=deviations,
        row_pass=row_pass,
        flagged_rows=flagged,
        asymptotics_pass=asym_pass,
        l1_errors=errors,
        l1_slope=slope,
        l1_trend_pass=trend_pass,
    )


@dataclass(frozen=True)
class AuditReport:
    identity_ok: bool
    symmetry_ok: bool
    worst_triangle_margin: float
    passed: bool


def pseudometric_audit(samples, n_window, m: float = 0.0,
                       eps: float = 1e-12) -> AuditReport:
    """Check pseudometric axioms of d_sigma over a family of sequences."""
    samples = list(samples)
    if len(samples) < 3:
        raise InputError("audit needs at least three sequences")

    def dist(a, b):
        # incomparable sequences (different case, or rows that cannot be
        # aligned) sit at the maximal pseudometric value
        try:
            return d0_estimate(a, b, n_window, m).d_sigma
        except (CaseMismatch, RowMismatch):
            return 1.0

    k = len(samples)
    mat = [[dist(samples[i], samples[j]) for j in range(k)] for i in range(k)]
    identity_ok = all(mat[i][i] == 0.0 for i in range(k))
    symmetry_ok = all(mat[i][j] == mat[j][i] for i in range(k) for j in range(k))
    worst = -math.inf
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if len({i, j, l}) < 3:
                    continue
                margin = mat[i][l] - mat[i][j] - mat[j][l]
                worst = max(worst, margin)
    return AuditReport(identity_ok=identity_ok, symmetry_ok=symmetry_ok,
                       worst_triangle_margin=worst,
                       passed=identity_ok and symmetry_ok and worst <= eps)


def nodal_grid_sequence(problem: DiracProblem, indices, component: int = 1,
                        integrator=None, search=None) -> GridSequence:
    """Forward-solve the problem and collect nodal rows into a GridSequence;
    an index whose component has no interior zero has no row, with a
    warning."""
    records = solver.find_eigenvalues(problem, indices, integrator, search)
    nodal_sets = solver.extract_nodal_sets(problem, records, (component,), integrator)
    for ns in nodal_sets:
        if not ns.count:
            logger.warning("nodal row unavailable at n=%d: component %d has no "
                           "interior zero", ns.index, component)
    return GridSequence.from_nodal_sets([ns for ns in nodal_sets if ns.count],
                                        problem.case)


def _deviation_trend_ok(pairs):
    """Decreasing-trend verdict for |ratio - 1| over the index window.

    Dense windows carry a small parity wiggle between adjacent indices, so
    the verdict uses the endpoints plus a fitted log-log slope rather than
    strict consecutive monotonicity.
    """
    if len(pairs) < 2:
        return True
    first, last = pairs[0][1], pairs[-1][1]
    if last > first + 1e-12:
        return False
    positive = [(n, d) for n, d in pairs if d > 0]
    if len(positive) < 3:
        return True
    slope = np.polyfit(np.log([float(n) for n, _ in positive]),
                       np.log([d for _, d in positive]), 1)[0]
    return bool(slope < 0)


@dataclass(frozen=True)
class StabilityReport:
    """Per-index distances and the identity ratios for a potential pair."""

    indices: list[int]
    s_values: dict[int, float | None]
    ratios_corrected: dict[int, float | None]
    ratios_paper_exact: dict[int, float | None]
    d0: float
    d_sigma: float
    norm_corrected: float
    norm_paper_exact: float
    identity_trend_ok: bool
    degenerate: bool


def stability_identity_report(v_a: Potential, v_b: Potential, boundary,
                              m: float, n_window, integrator=None,
                              search=None) -> StabilityReport:
    """Numerical check of the stability identity for two potentials sharing
    a boundary form and mass.

    The primary ratio compares (1/pi) s_n with the L1 distance of the
    mean-adjusted potentials; the raw unnormalized ratio is reported
    alongside.  Identical potentials yield a degenerate report with d0 near
    zero and no ratios.
    """
    ns = sorted(int(n) for n in n_window)
    prob_a = DiracProblem(m, v_a, boundary)
    prob_b = DiracProblem(m, v_b, boundary)
    seq_a = nodal_grid_sequence(prob_a, ns, 1, integrator, search)
    seq_b = nodal_grid_sequence(prob_b, ns, 1, integrator, search)

    shift = boundary.beta - boundary.alpha
    norm_corr = l1_distance(v_a, v_b,
                            (v_a.total_integral + shift) / math.pi,
                            (v_b.total_integral + shift) / math.pi)
    norm_paper = l1_distance(v_a, v_b)
    degenerate = norm_corr < 1e-12

    s_values = {}
    for n in ns:
        try:
            s_values[n] = s_n(seq_a, seq_b, n, m)
        except (RowMismatch, InputError) as exc:   # InputError: a missing row
            logger.warning("s_n unavailable at n=%d: %s", n, exc)
            s_values[n] = None

    ratios_corr = {}
    ratios_paper = {}
    for n in ns:
        s = s_values[n]
        if s is None or degenerate:
            ratios_corr[n] = None
            ratios_paper[n] = None
        else:
            ratios_corr[n] = (s / math.pi) / norm_corr
            ratios_paper[n] = s / norm_paper if norm_paper > 1e-12 else None

    usable = [n for n in ns if s_values[n] is not None]
    top = usable[len(usable) // 2:]
    d0 = max((s_values[n] for n in top), default=0.0)
    trend_ok = _deviation_trend_ok(
        [(n, abs(ratios_corr[n] - 1.0)) for n in usable
         if ratios_corr[n] is not None])
    return StabilityReport(
        indices=ns,
        s_values=s_values,
        ratios_corrected=ratios_corr,
        ratios_paper_exact=ratios_paper,
        d0=float(d0),
        d_sigma=d_sigma_from_d0(float(d0)),
        norm_corrected=norm_corr,
        norm_paper_exact=norm_paper,
        identity_trend_ok=bool(trend_ok),
        degenerate=bool(degenerate),
    )
