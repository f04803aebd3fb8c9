"""Spans around calls into the program's public functions, for traced runs.

`Tracer.installed` replaces each traced function, in every ``dirac_nodal``
module that binds it, with a wrapper that times the call; it also counts
potential evaluations through ``Potential.__call__``.  Everything is put
back on exit.  Spans are inclusive: a ``find_eigenvalue`` span contains the
``find_eigenvalues`` span it calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, layer) of every traced public function
TRACED = (
    ("config", "parse_config", "config.parse_s"),
    ("asymptotics", "lambda_asym", "asymptotics.lambda_asym_s"),
    ("solver", "find_eigenvalues", "solver.find_eigenvalues_s"),
    ("solver", "find_eigenvalue", "solver.find_eigenvalue_s"),
    ("solver", "extract_nodes", "solver.extract_nodes_s"),
    ("solver", "characteristic", "solver.characteristic_s"),
    ("solver", "integrate", "solver.integrate_s"),
    ("reconstruction", "reconstruct_step", "reconstruction.reconstruct_step_s"),
    ("reconstruction", "l1_error", "reconstruction.l1_error_s"),
    ("stability", "stability_identity_report", "stability.report_s"),
    ("stability", "quasinodal_check", "stability.quasinodal_s"),
)
BATCH_LAYER = "solver.find_eigenvalues_s"


class Tracer:
    """Span durations by layer, plus potential-evaluation counters."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.counts = Counter()
        self._stack = []

    def record(self, layer, seconds):
        self.durations[layer].append(seconds)

    def median(self, layer):
        values = self.durations.get(layer)
        return statistics.median(values) if values else None

    def take_counts(self):
        """Counters since the last call, then reset them."""
        counts, self.counts = self.counts, Counter()
        return counts

    def _wrap(self, fn, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == BATCH_LAYER:
                args = (args[0], list(args[1])) + args[2:]
                self.counts["eigs"] += len(args[1])
            self._stack.append(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.durations[layer].append(time.perf_counter() - start)
                self._stack.pop()
        return traced

    def _count_calls(self, fn):
        @functools.wraps(fn)
        def counted(potential, x):
            self.counts["calls"] += 1
            self.counts["points"] += int(getattr(x, "size", 1))
            if self._stack and self._stack[-1] == BATCH_LAYER:
                self.counts["batch_calls"] += 1
            return fn(potential, x)
        return counted

    @contextmanager
    def installed(self, package):
        """Trace the package's public functions inside the block."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        saved = []
        for mod_name, fn_name, layer in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        potential_cls = package.model.Potential
        call = potential_cls.__call__
        potential_cls.__call__ = self._count_calls(call)
        try:
            yield self
        finally:
            potential_cls.__call__ = call
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)
