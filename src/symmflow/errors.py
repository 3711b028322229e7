"""Exception types raised across the package.

Steppers raise rather than silently shrinking steps; retry policy belongs to
the caller. `march` (and so `integrate`) attaches the failing step index to the exception as
`step_index` before re-raising.
"""


class SymmflowError(Exception):
    """Base class for all package errors."""

    step_index: int | None = None


class DimensionMismatch(SymmflowError):
    """Operands have incompatible shapes, or a value is not a real array
    (a complex or object field value, say)."""


class NotOnManifold(SymmflowError):
    """An initial point is off the manifold (its constraint, sheet or definiteness)."""


class NumericalFailure(SymmflowError):
    """A kernel failed to converge, or a step met a non-finite value."""


class NonPositiveDefinite(SymmflowError):
    """A matrix required to be SPD has a non-positive eigenvalue."""


class UnknownTableau(SymmflowError):
    """Requested Butcher tableau name is not registered."""


class StepTooLarge(SymmflowError):
    """A stage tangent left the region where the geometry's maps are safe."""


class MidpointUndefined(StepTooLarge):
    """Geodesic midpoint is numerically undefined (near-antipodal stage)."""


class FixedPointDivergence(SymmflowError):
    """Implicit stage equations did not converge under fixed-point iteration."""


class NonSpacelikeTangent(SymmflowError):
    """A hyperboloid tangent has non-negative Minkowski square norm."""


class SymmetryViolation(SymmflowError):
    """A field value that must be symmetric is not."""


class ReferenceUnavailable(SymmflowError):
    """No reference solution could be produced for a convergence study."""


class IoFailure(SymmflowError):
    """Reading or writing an output file failed."""
