"""Closed-form asymptotic expansions: eigenvalues, nodal points and lengths,
eigenfunction components.

These expansions seed the eigenvalue search, generate synthetic nodal data,
and back the order-of-convergence validation harness.  Implicit occurrences
of the nodal position inside its own expansion are resolved by fixed-point
iteration, which is better conditioned at moderate index than the fully
expanded series (also provided, for cross-checking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DomainError, InputError, IterationFailure,
                     UnsupportedPrediction)
from .model import Classical, DiracProblem, ParamDependent

_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 50


def mean_shift(problem: DiracProblem) -> float:
    """The first-order constant v = integral of V plus beta - alpha."""
    b = problem.boundary
    return problem.potential.total_integral + b.beta - b.alpha


@dataclass(frozen=True)
class AsymptoticConstants:
    """Expansion constants of lambda_n = mu + v/pi + c/n + o(1/n), where mu is
    n - 2 for n > 0 in case I and n otherwise: v always; c for the
    parameter-dependent family,

        c = m^2/2 + m (sin 2 alpha - sin 2 beta) / (2 pi)
            + (a0 sin alpha - b0 cos alpha) / pi
            - (a1 sin beta - b1 cos beta) / pi,

    and c1 for the classical one,

        c1 = (m (sin 2 alpha - sin 2 beta) + m^2 pi) / (2 pi).

    Both match the constant fitted from solver eigenvalues to 1e-3."""

    v: float
    c: float | None = None
    c1: float | None = None

    @classmethod
    def from_problem(cls, problem: DiracProblem) -> "AsymptoticConstants":
        b = problem.boundary
        m = problem.mass
        v = mean_shift(problem)
        if isinstance(b, ParamDependent):
            c = (0.5 * m * m
                 + m * (math.sin(2 * b.alpha) - math.sin(2 * b.beta)) / (2 * math.pi)
                 + b.left_sign_term / math.pi
                 - b.right_sign_term / math.pi)
            return cls(v=v, c=c)
        c1 = ((m * (math.sin(2 * b.alpha) - math.sin(2 * b.beta)) + m * m * math.pi)
              / (2 * math.pi))
        return cls(v=v, c1=c1)

    @property
    def second_order(self) -> float:
        return self.c if self.c is not None else self.c1


def _integer_base(problem, n):
    if isinstance(problem.boundary, ParamDependent):
        return n - 2 if n > 0 else n
    return n


def lambda_asym(problem: DiracProblem, n: int, order: int = 2,
                constants: AsymptoticConstants | None = None) -> float:
    """Eigenvalue expansion through the requested order (0, 1 or 2).

    ``constants``, the problem's AsymptoticConstants, spares a caller that
    expands many indices computing them, and the integral of V, again for
    each; the value is the same."""
    if n == 0:
        raise DomainError("index n must be nonzero")
    if order not in (0, 1, 2):
        raise InputError("order must be 0, 1 or 2")
    value = float(_integer_base(problem, n))
    if order >= 1:
        constants = constants or AsymptoticConstants.from_problem(problem)
        value += constants.v / math.pi
    if order == 2:
        value += constants.second_order / n
    return value


def lambda_inverse_asym(problem: DiracProblem, n: int) -> float:
    """Three-term expansion of 1/lambda_n."""
    mu = _integer_base(problem, n)
    if mu < 1:
        raise DomainError(f"inverse expansion needs base index >= 1, got {mu}")
    constants = AsymptoticConstants.from_problem(problem)
    v = constants.v
    c = constants.second_order
    return (1.0 / mu
            - v / (mu * mu * math.pi)
            + (v * v - math.pi * math.pi * c) / (mu ** 3 * math.pi * math.pi))


def _resolve_lambda(problem, n, lam):
    if lam is not None:
        return float(lam)
    return lambda_asym(problem, n, order=2)


def _fixed_point(update, start):
    x = start
    for _ in range(_FIXED_POINT_MAX_ITER):
        x_next = update(x)
        if not -1.0 <= x_next <= math.pi + 1.0:
            raise IterationFailure(
                f"nodal fixed point left the domain (reached {x_next:.6g})")
        if abs(x_next - x) < _FIXED_POINT_TOL:
            return x_next
        x = x_next
    raise IterationFailure(
        f"nodal fixed point did not converge from start {start:.6g}")


def _clip_domain(x):
    return min(max(x, 0.0), math.pi)


def nodal_point_asym(problem: DiracProblem, n: int, j: int, component: int = 1,
                     order: int = 2, lam: float | None = None) -> float:
    """Nodal-point expansion, implicit position resolved by fixed point."""
    if order not in (0, 1, 2):
        raise InputError("order must be 0, 1 or 2")
    if component not in (1, 2):
        raise InputError("component must be 1 or 2")
    b = problem.boundary
    m = problem.mass
    lam_val = _resolve_lambda(problem, n, lam)
    if lam_val <= 0:
        raise DomainError("nodal expansions require a positive eigenvalue")
    pot = problem.potential

    if isinstance(b, ParamDependent):
        if component == 2:
            raise UnsupportedPrediction(
                "no nodal expansion for component 2 with parameter-dependent "
                "boundary conditions")
        base = j * math.pi
        second = (0.5 * m * math.sin(2 * b.alpha) + b.left_sign_term) / lam_val ** 2

        def update(x):
            x = _clip_domain(x)
            val = base / lam_val
            if order >= 1:
                val = (base + pot.integral_0_to(x) - b.alpha) / lam_val
            if order == 2:
                val += second + 0.5 * m * m * x / lam_val ** 2
            return val

        return _fixed_point(update, base / lam_val)

    base = (j - 0.5) * math.pi if component == 2 else j * math.pi
    sign_sin = (-1) ** (j + 1) if component == 2 else (-1) ** j
    sign_mass = (-1) ** j

    def update(x):
        x = _clip_domain(x)
        val = base / lam_val
        if order >= 1:
            val = (base + pot.integral_0_to(x) - b.alpha) / lam_val
        if order == 2:
            val += (sign_sin * 0.5 * m * math.sin(2 * b.alpha)
                    + sign_mass * 0.5 * m * m * x) / lam_val ** 2
        return val

    return _fixed_point(update, base / lam_val)


def nodal_point_series(problem: DiracProblem, n: int, j: int) -> float:
    """Fully expanded nodal-point series in powers of 1/(n-2) for the
    parameter-dependent family; cross-checks the fixed-point form."""
    b = problem.boundary
    if not isinstance(b, ParamDependent):
        raise UnsupportedPrediction("series form exists only for the "
                                    "parameter-dependent family")
    if n < 4:
        raise DomainError("series form requires n >= 4")
    m = problem.mass
    constants = AsymptoticConstants.from_problem(problem)
    v, c = constants.v, constants.c
    mu = float(n - 2)
    pot = problem.potential

    def update(x):
        x = _clip_domain(x)
        a_term = j * math.pi + pot.integral_0_to(x) - b.alpha
        b_term = 0.5 * (m * m * x + m * math.sin(2 * b.alpha)) + b.left_sign_term
        return (a_term / mu
                - a_term * v / (mu * mu * math.pi)
                + b_term / (mu * mu)
                + a_term * (v * v - math.pi * math.pi * c) / (mu ** 3 * math.pi ** 2)
                - 2.0 * b_term * v / (mu ** 3 * math.pi))

    return _fixed_point(update, j * math.pi / mu)


def nodal_length_asym(problem: DiracProblem, n: int, j: int, component: int = 1,
                      order: int = 2, lam: float | None = None,
                      method: str = "difference") -> float:
    """Nodal-length expansion: either the difference of consecutive nodal
    points or the direct length series; the two agree to third order."""
    if method not in ("difference", "direct"):
        raise InputError("method must be 'difference' or 'direct'")
    lam_val = _resolve_lambda(problem, n, lam)
    x_lo = nodal_point_asym(problem, n, j, component, order, lam_val)
    x_hi = nodal_point_asym(problem, n, j + 1, component, order, lam_val)
    if method == "difference":
        return x_hi - x_lo

    b = problem.boundary
    m = problem.mass
    pot = problem.potential
    if isinstance(b, ParamDependent):
        if component == 2:
            raise UnsupportedPrediction(
                "no nodal expansion for component 2 with parameter-dependent "
                "boundary conditions")

        def update(length):
            val = math.pi / lam_val
            if order >= 1:
                val += pot.integral_between(x_lo, _clip_domain(x_lo + length)) / lam_val
            if order == 2:
                val += 0.5 * m * m * length / lam_val ** 2
            return val

        return _fixed_point(update, math.pi / lam_val)

    val = math.pi / lam_val
    if order >= 1:
        val += pot.integral_between(x_lo, x_hi) / lam_val
    if order == 2:
        parity = (-1) ** (j + 1) if component == 1 else (-1) ** j
        mass_parity = (-1) ** (j + 1)
        val += parity * m * math.sin(2 * b.alpha) / lam_val ** 2
        val += mass_parity * 0.5 * m * m * (x_lo + x_hi) / lam_val ** 2
    return val


def eigenfunction_asym(problem: DiracProblem, lam: float, x: float,
                       component: int, min_lambda: float = 5.0) -> float:
    """Leading eigenfunction term plus the first-order correction.

    The remainder is not modeled, so the expansion is only offered for
    |lam| above a configurable threshold.
    """
    if component not in (1, 2):
        raise InputError("component must be 1 or 2")
    if abs(lam) < min_lambda:
        raise DomainError(f"|lambda| must be at least {min_lambda}")
    b = problem.boundary
    m = problem.mass
    x = float(x)
    phase0 = lam * x - problem.potential.integral_0_to(x)
    theta = phase0 + b.alpha

    if isinstance(b, Classical):
        correction_u = (-m * math.sin(phase0) * math.cos(b.alpha)
                        + 0.5 * m * m * x * math.cos(theta))
        correction_v = (m * math.sin(phase0) * math.sin(b.alpha)
                        + 0.5 * m * m * x * math.sin(theta))
        if component == 1:
            return math.sin(theta) - correction_u / lam
        return -math.cos(theta) - correction_v / lam

    if component == 1:
        return (-lam * math.sin(theta)
                + 0.5 * m * m * x * math.cos(theta)
                - m * math.cos(b.alpha) * math.sin(phase0)
                - b.a0 * math.sin(phase0)
                - b.b0 * math.cos(phase0))
    # Leading sign chosen to match the lambda-dependent initial condition at
    # x = 0, which pins y2(0) = lam*cos(alpha) + a0.
    return (lam * math.cos(theta)
            + 0.5 * m * m * x * math.sin(theta)
            + m * math.sin(b.alpha) * math.sin(phase0)
            + b.a0 * math.cos(phase0)
            - b.b0 * math.sin(phase0))
