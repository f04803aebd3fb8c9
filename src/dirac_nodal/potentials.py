"""Built-in potential library and JSON (de)serialization.

Every named entry provides a vectorized evaluator, an exact antiderivative
vanishing at 0, so phase integrals of library potentials carry no
quadrature error, and its breakpoints (the jump of ``step``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, InputError
from .model import Potential, make_potential_sampled


def require_number(obj, key, where):
    """obj[key], of an object or a list of a document, as a float: a finite
    number other than a bool, or ConfigError naming the field."""
    try:
        value = obj[key]
    except KeyError:
        raise ConfigError("missing required field", field=f"{where}.{key}") from None
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}",
                          field=f"{where}.{key}")
    return float(value)


def check_keys(obj, allowed, where):
    """ConfigError naming the field unless obj is an object whose keys all
    lie in allowed."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", field=where)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown}", field=where)


def construct(field, make, *args, **kwargs):
    """The domain object make(*args, **kwargs), with the InputError its
    validation raises re-raised as a ConfigError naming the field."""
    try:
        return make(*args, **kwargs)
    except InputError as exc:
        raise ConfigError(str(exc), field=field) from exc


def _numbers(values, field):
    """A list of finite numbers as floats; ConfigError naming the field."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {values!r}", field=field)
    return [require_number(values, k, field) for k in range(len(values))]


def _zero(params):
    return (lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)), ())


def _constant(params):
    c = require_number(params, "c", "potential.params")
    return (lambda x: np.full_like(np.asarray(x, dtype=float), c),
            lambda x: c * np.asarray(x, dtype=float), ())


def _sin2x(params):
    return (lambda x: np.sin(2.0 * np.asarray(x, dtype=float)),
            lambda x: 0.5 * (1.0 - np.cos(2.0 * np.asarray(x, dtype=float))), ())


def _poly(params):
    coeffs = _numbers(params["coeffs"], "potential.params.coeffs")
    if not coeffs:
        raise ConfigError("poly potential needs a non-empty coeffs list",
                          field="potential.params.coeffs")
    # highest power first for np.polyval, without importing numpy.polynomial
    poly = np.array(coeffs[::-1])
    anti = np.polyint(poly)
    return (lambda x: np.polyval(poly, np.asarray(x, dtype=float)),
            lambda x: np.polyval(anti, np.asarray(x, dtype=float)), ())


def _step(params):
    a = require_number(params, "a", "potential.params")
    height = require_number(params, "height", "potential.params")
    if not 0.0 <= a <= np.pi:
        raise ConfigError("step location must lie in [0, pi]",
                          field="potential.params.a")
    return (lambda x: np.where(np.asarray(x, dtype=float) >= a, height, 0.0),
            lambda x: height * np.clip(np.asarray(x, dtype=float) - a, 0.0, None),
            (a,))


_LIBRARY = {
    "zero": (_zero, ()),
    "constant": (_constant, ("c",)),
    "sin2x": (_sin2x, ()),
    "poly": (_poly, ("coeffs",)),
    "step": (_step, ("a", "height")),
}


def library_names():
    return sorted(_LIBRARY)


def named_potential(name: str, **params) -> Potential:
    """Instantiate a library potential by name."""
    try:
        builder, required = _LIBRARY[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown potential {name!r}; known: {library_names()}",
                          field="potential.name") from None
    missing = [key for key in required if key not in params]
    if missing:
        raise ConfigError(f"missing parameters {missing} for potential {name!r}",
                          field="potential.params")
    extra = [key for key in params if key not in required]
    if extra:
        raise ConfigError(f"unknown parameters {extra} for potential {name!r}",
                          field="potential.params")
    func, anti, breakpoints = builder(params)
    return Potential(func=func, antiderivative=anti, name=name, params=params,
                     breakpoints=breakpoints)


def potential_from_json(obj) -> Potential:
    """Parse {"kind": "sampled"|"named", ...} into a Potential."""
    check_keys(obj, {"kind", "values", "name", "params"}, "potential")
    kind = obj.get("kind")
    if kind == "sampled":
        check_keys(obj, {"kind", "values"}, "potential")
        return construct("potential.values", make_potential_sampled,
                         _numbers(obj.get("values"), "potential.values"))
    if kind == "named":
        check_keys(obj, {"kind", "name", "params"}, "potential")
        if "name" not in obj:
            raise ConfigError("named potential needs 'name'", field="potential.name")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("expected an object", field="potential.params")
        return named_potential(obj["name"], **params)
    raise ConfigError(f"potential kind must be 'sampled' or 'named', got {kind!r}",
                      field="potential.kind")


def potential_to_json(potential: Potential) -> dict:
    return potential.to_json()
