"""Seeded workload inputs: problem-configuration documents and index lists.

The same (workload, seed) always gives the same documents.  The program
only ever sees these documents.

Seeded problems keep the first-order constant v = int V + beta - alpha
within 0.4 of a multiple of pi.  The program's second-order eigenvalue seed
divides by cos^2 v, so away from that band it mislabels or raises at low
indices; the fixed heavy-mass problem in ``nodes_by_index``
is where label failures are measured, one index at a time.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("spectrum_batch", "nodes_by_index", "stability_cli")
SPECTRUM_WINDOW = (3, 40)
STABILITY_WINDOW = (12, 20)
HEAVY_INDICES = (3, 4, 6, 10, 20)
SAMPLED_CELLS = 400
# The program's default mesh has 4096 steps; a jump at a multiple of pi/64
# lies on a mesh node, one anywhere else does not.
MESH_ALIGNED_DIVISIONS = 64


def _doc(mass, potential, boundary):
    return {"mass": float(mass), "potential": potential, "boundary": boundary}


def _classical(alpha=0.0, beta=0.0):
    return {"kind": "classical", "alpha": float(alpha), "beta": float(beta)}


def _named(name, **params):
    return {"kind": "named", "name": name, "params": params}


def sin2x_doc():
    return _doc(0.5, _named("sin2x"), _classical())


def pd_example_doc():
    """Case I: sin2x, m = 0.5, sign terms exactly +1 and -1."""
    a, b = 0.4, 0.5
    return _doc(0.5, _named("sin2x"), {
        "kind": "param_dependent", "alpha": a, "beta": b,
        "a0": math.sin(a), "b0": -math.cos(a), "a1": -math.sin(b), "b1": math.cos(b)})


def heavy_doc():
    return _doc(10.0, _named("zero"), _classical(0.3, 1.0))


def _target_v(rng):
    return math.pi * int(rng.integers(-1, 2)) + float(rng.uniform(-0.4, 0.4))


def sampled_doc(rng):
    """Smooth potential sampled on SAMPLED_CELLS cells: three random modes plus
    the constant that puts v on target."""
    alpha, beta = rng.uniform(0.0, 0.5, 2)
    x = np.linspace(0.0, math.pi, SAMPLED_CELLS + 1)
    amp = rng.uniform(-0.6, 0.6, 3)
    phase = rng.uniform(0.0, 2 * math.pi, 3)
    vals = sum(a * np.sin((k + 1) * x + p) for k, (a, p) in enumerate(zip(amp, phase)))
    integral = float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(x)))
    vals = vals + (_target_v(rng) - (beta - alpha) - integral) / math.pi
    return _doc(rng.uniform(0.0, 1.0), {"kind": "sampled", "values": vals.tolist()},
                _classical(alpha, beta))


def step_doc(rng, mesh_aligned):
    """`step` potential whose height puts v on target."""
    if mesh_aligned:
        a = math.pi * int(rng.integers(8, 41)) / MESH_ALIGNED_DIVISIONS
    else:
        a = float(rng.uniform(0.6, 2.5))
    alpha, beta = rng.uniform(0.0, 0.5, 2)
    height = (_target_v(rng) - (beta - alpha)) / (math.pi - a)
    return _doc(rng.uniform(0.0, 1.0), _named("step", a=a, height=height),
                _classical(alpha, beta))


def poly_doc(rng, like):
    """Quadratic potential with the mass and boundary of `like`, v on target."""
    c1, c2 = rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)
    b = like["boundary"]
    c0 = (_target_v(rng) - (b["beta"] - b["alpha"])
          - c1 * math.pi ** 2 / 2 - c2 * math.pi ** 3 / 3) / math.pi
    return _doc(like["mass"], _named("poly", coeffs=[c0, c1, c2]), dict(b))


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload: {"problems": {label: document}, ...}."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed & 0xFFFFFFFF])
    if workload == "spectrum_batch":
        return {"problems": {"sin2x": sin2x_doc(), "pd_example": pd_example_doc(),
                             "sampled": sampled_doc(rng),
                             "step": step_doc(rng, mesh_aligned=True)},
                "window": list(SPECTRUM_WINDOW)}
    if workload == "nodes_by_index":
        problems = {"sin2x": sin2x_doc(), "step": step_doc(rng, mesh_aligned=False),
                    "sampled": sampled_doc(rng), "heavy": heavy_doc()}
        ops = [[label, int(rng.integers(5, 41))] for label in ("sin2x", "step", "sampled")]
        ops += [["heavy", n] for n in HEAVY_INDICES]
        return {"problems": problems, "ops": ops}
    if workload == "stability_cli":
        a = sin2x_doc()
        return {"problems": {"a": a, "b": poly_doc(rng, a)},
                "window": list(STABILITY_WINDOW),
                "reconstruct_n": int(rng.integers(STABILITY_WINDOW[0], STABILITY_WINDOW[1] + 1))}
    raise ValueError(f"unknown workload {workload!r}")
