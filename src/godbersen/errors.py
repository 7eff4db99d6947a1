"""Exception hierarchy shared by all godbersen modules."""


class GodbersenError(Exception):
    """Base class for every error raised by this package."""


class DegenerateInput(GodbersenError):
    """Input points do not span the ambient space (no full-dimensional hull)."""


class ZeroDirection(GodbersenError):
    """A direction vector was zero where a nonzero one is required."""


class SingularMatrix(GodbersenError):
    """A linear map that must be invertible has determinant zero."""


class DimensionMismatch(GodbersenError):
    """Two bodies or a body and a vector live in different ambient dimensions."""


class TheoremViolation(GodbersenError):
    """An exactly-proven statement failed; this always indicates a bug.

    A sweep's violation names the ``stage`` it failed in and carries the
    ``body`` once built; both are None otherwise."""

    stage = None
    body = None


class LemmaViolation(GodbersenError):
    """The concave-function integral inequality failed; indicates a bug."""


class CombinatorialBlowup(GodbersenError):
    """A hull could have more facets than the configured cap allows."""


class InvalidM(GodbersenError):
    """The integer exponent of the concave-function inequality must be >= 2."""


class NotConcave(GodbersenError):
    """A piecewise-linear function violates the concavity/nonnegativity contract."""
