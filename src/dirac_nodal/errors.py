"""Exception hierarchy shared across the package.

Validation failures (bad domains, bad configs) raise subclasses of
:class:`InputError`; failures of the numerical machinery raise subclasses of
:class:`ComputationError`.  The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""


class DiracNodalError(Exception):
    """Base class for all package errors."""


class InputError(DiracNodalError):
    """Invalid arguments, domains or configuration."""


class DomainError(InputError):
    """Argument outside its mathematical domain."""


class BoundaryConditionError(InputError):
    """Boundary parameters violating a sign or range condition."""


class ConfigError(InputError):
    """Problem-configuration document failed to parse or validate."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class ComputationError(DiracNodalError):
    """A numerical procedure could not complete."""


class IntegrationFailure(ComputationError):
    """Initial-value integration produced non-finite components, or a state at
    pi lost to cancellation."""


class RotationLimitExceeded(ComputationError):
    """The cap on the eigenvalue search's steps is too coarse for the mass:
    on every mesh it allows, |m| times a step's width exceeds the pi/2 by
    which the turn of the Prufer angle over a step may stray from the
    integral of lambda - V for its turns to be counted."""


class DegenerateComponent(ComputationError):
    """Eigenfunction component is identically zero on part of the grid."""


class IterationFailure(ComputationError):
    """A fixed-point iteration failed to converge."""


class ToleranceNotMet(ComputationError):
    """The error estimate of an eigenvalue exceeds the tolerance on the finest
    mesh the search may use."""


class NodeCountMismatch(ComputationError):
    """A nodal set's count differs from the one the Prufer angle gives."""


class RowMismatch(ComputationError):
    """Grid-sequence rows being compared have different lengths."""


class CaseMismatch(ComputationError):
    """Grid sequences belong to different boundary-condition cases."""


class UnsupportedPrediction(ComputationError):
    """No expansion formula exists for this combination."""
