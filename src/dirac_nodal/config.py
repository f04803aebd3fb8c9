"""Problem-configuration documents: parsing, strict validation, hashing.

A configuration is a JSON object with required ``mass``, ``potential`` and
``boundary`` sections and optional ``solver`` and ``modes`` sections.
Unknown keys are rejected anywhere in the document, and every diagnostic
names the offending field.  The configuration hash is the SHA-256 of the
canonical (sorted-key, compact) JSON encoding, so logically identical
documents hash identically regardless of key order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError
from .model import Classical, DiracProblem, ParamDependent
from .potentials import check_keys, construct, potential_from_json, require_number
from .reconstruction import ReconstructionMode
from .solver import EigenSearchConfig, IntegratorConfig

_TOP_KEYS = {"mass", "potential", "boundary", "solver", "modes"}
_SOLVER_KEYS = {"steps", "lambda_tol"}
_MODE_KEYS = {"reconstruction", "lambda_source"}
_CLASSICAL_KEYS = {"kind", "alpha", "beta"}
_PARAM_KEYS = {"kind", "alpha", "beta", "a0", "b0", "a1", "b1"}


@dataclass(frozen=True)
class SolverSettings:
    steps: int = IntegratorConfig.n_steps
    lambda_tol: float = EigenSearchConfig.lambda_tolerance

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(n_steps=self.steps)

    def search(self) -> EigenSearchConfig:
        return EigenSearchConfig(lambda_tolerance=self.lambda_tol)


@dataclass(frozen=True)
class LoadedConfig:
    problem: DiracProblem
    solver: SolverSettings
    mode: ReconstructionMode
    document: dict

    @property
    def hash(self) -> str:
        return config_hash(self.document)


def config_hash(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_boundary(obj):
    check_keys(obj, _PARAM_KEYS | _CLASSICAL_KEYS, "boundary")
    kind = obj.get("kind")
    if kind == "classical":
        check_keys(obj, _CLASSICAL_KEYS, "boundary")
        return construct("boundary", Classical,
                         require_number(obj, "alpha", "boundary"),
                         require_number(obj, "beta", "boundary"))
    if kind == "param_dependent":
        check_keys(obj, _PARAM_KEYS, "boundary")
        return construct("boundary", ParamDependent,
                         *(require_number(obj, k, "boundary")
                           for k in ("alpha", "beta", "a0", "b0", "a1", "b1")))
    raise ConfigError(f"kind must be 'classical' or 'param_dependent', got {kind!r}",
                      field="boundary.kind")


def parse_config(document) -> LoadedConfig:
    check_keys(document, _TOP_KEYS, "<root>")
    for key in ("mass", "potential", "boundary"):
        if key not in document:
            raise ConfigError("missing required section", field=key)
    problem = construct("mass", DiracProblem,
                        require_number(document, "mass", "<root>"),
                        potential_from_json(document["potential"]),
                        _parse_boundary(document["boundary"]))

    solver_obj = document.get("solver", {})
    check_keys(solver_obj, _SOLVER_KEYS, "solver")
    steps = solver_obj.get("steps", SolverSettings.steps)
    construct("solver.steps", IntegratorConfig, n_steps=steps)
    lambda_tol = SolverSettings.lambda_tol
    if "lambda_tol" in solver_obj:
        lambda_tol = require_number(solver_obj, "lambda_tol", "solver")
    construct("solver.lambda_tol", EigenSearchConfig, lambda_tolerance=lambda_tol)
    settings = SolverSettings(steps=steps, lambda_tol=lambda_tol)

    modes_obj = document.get("modes", {})
    check_keys(modes_obj, _MODE_KEYS, "modes")
    tag = modes_obj.get("reconstruction", ReconstructionMode.tag)
    construct("modes.reconstruction", ReconstructionMode, tag=tag)
    mode = construct("modes.lambda_source", ReconstructionMode, tag=tag,
                     lambda_source=modes_obj.get("lambda_source",
                                                 ReconstructionMode.lambda_source))
    return LoadedConfig(problem=problem, solver=settings, mode=mode,
                        document=document)


def read_json(path):
    """The JSON document in the file at path; ConfigError naming the file
    when it cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}", field=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc}", field=str(path)) from exc


def load_config(path) -> LoadedConfig:
    document = read_json(path)
    if not isinstance(document, dict):
        raise ConfigError("top-level document must be an object", field=str(path))
    return parse_config(document)
