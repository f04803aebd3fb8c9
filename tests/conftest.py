"""Shared fixtures: canonical problems and a session-wide solve cache.

Spectra and nodal sets are expensive relative to everything else, so tests
share them through one session-scoped cache keyed by problem label.
"""

import math
import os

import numpy as np
import pytest

from dirac_nodal import (Classical, DiracProblem, EigenSearchConfig,
                         IntegratorConfig, ParamDependent, extract_nodes,
                         find_eigenvalues, named_potential, solver)


def canonical_pd(alpha, beta):
    """Parameter-dependent boundary whose sign terms are exactly +1 and -1."""
    return ParamDependent(alpha, beta, math.sin(alpha), -math.cos(alpha),
                          -math.sin(beta), math.cos(beta))


def cli_env(**overrides):
    """The caller's environment without DIRAC_NODAL_LOG, plus ``overrides``.

    CLI subprocess tests pass this as ``env``: the child imports the package
    the way this process does (editable install or ``PYTHONPATH=src``), and
    logs at the CLI's default level whatever the invoking shell exports.
    """
    env = {k: v for k, v in os.environ.items() if k != "DIRAC_NODAL_LOG"}
    env.update(overrides)
    return env


def unreachable_angle(monkeypatch, turns, at):
    """Make the solver's _terminal report theta(pi) = psi + turns * pi - 2 pi
    below lambda = ``at`` and + 2 pi above it: no lambda then comes within
    pi of rotation index ``turns``, so that eigenvalue cannot be bracketed."""
    terminal = solver._terminal

    def jumping(problem, lams, mesh, angle=False):
        out = terminal(problem, lams, mesh, angle)
        if not angle:
            return out
        lams = np.asarray(lams, dtype=float)
        theta = (solver._end_angle(problem, lams) + math.pi * turns
                 + np.where(lams < at, -2 * math.pi, 2 * math.pi))
        return (*out[:2], theta)

    monkeypatch.setattr(solver, "_terminal", jumping)


@pytest.fixture(autouse=True)
def _no_kept_nodal_sets():
    """Start every test without the nodal sets that solver.extract_nodes
    keeps from its last call, so that no test reuses sets another left, such
    as ones from a monkeypatched ``_trajectory``."""
    solver._last_nodal_sets = None


def loglog_slope(ns, errs):
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    assert keep.sum() >= 3, "not enough positive errors for a slope fit"
    return float(np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0])


class SolveCache:
    def __init__(self):
        self._problems = {}
        self._records = {}
        self._nodals = {}

    def register(self, label, problem, integrator=None, search=None):
        if label not in self._problems:
            self._problems[label] = (problem,
                                     integrator or IntegratorConfig(),
                                     search or EigenSearchConfig())
        return self._problems[label][0]

    def problem(self, label):
        return self._problems[label][0]

    def integrator(self, label):
        return self._problems[label][1]

    def records(self, label, indices):
        problem, integrator, search = self._problems[label]
        store = self._records.setdefault(label, {})
        missing = [n for n in indices if n not in store]
        if missing:
            for rec in find_eigenvalues(problem, missing, integrator, search):
                store[rec.index] = rec
        return {n: store[n] for n in indices}

    def record(self, label, n):
        return self.records(label, [n])[n]

    def nodal(self, label, n, component=1):
        key = (label, n, component)
        if key not in self._nodals:
            problem, integrator, _ = self._problems[label]
            rec = self.record(label, n)
            self._nodals[key] = extract_nodes(problem, rec, component, integrator)
        return self._nodals[key]


@pytest.fixture(scope="session")
def cache():
    c = SolveCache()
    fast = IntegratorConfig(n_steps=1024)
    mid = IntegratorConfig(n_steps=2048)
    c.register("zero_quarter",
               DiracProblem(0.0, named_potential("zero"), Classical(0.0, math.pi / 4)),
               fast)
    c.register("zero_flat",
               DiracProblem(0.0, named_potential("zero"), Classical(0.0, 0.0)),
               fast)
    c.register("zero_half_mass",
               DiracProblem(0.5, named_potential("zero"), Classical(0.0, 0.0)),
               mid)
    c.register("sin_half",
               DiracProblem(0.5, named_potential("sin2x"), Classical(0.0, 0.0)),
               mid)
    c.register("const_one",
               DiracProblem(0.0, named_potential("constant", c=1.0),
                            Classical(0.0, 0.0)),
               fast)
    c.register("pd_example",
               DiracProblem(0.5, named_potential("sin2x"), canonical_pd(0.4, 0.5)),
               mid)
    return c
