"""Exception types shared across the package."""

from __future__ import annotations


class NumericalFailure(RuntimeError):
    """Base class for numerical breakdowns that callers may want to report
    rather than treat as bugs (maps to CLI exit code 2)."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class DegenerateMeasureError(NumericalFailure):
    """A measure cannot support orthogonal polynomials of the requested degree."""


class RankDeficiencyError(NumericalFailure):
    """A matrix that must be full rank is rank-deficient within tolerance."""


class ConditioningError(NumericalFailure):
    """Cholesky breakdown of a Gram matrix (expected at high degree)."""


class ClosureError(NumericalFailure):
    """Orthonormality completion failed, signalling corrupted upstream moments."""


class NonConvergenceError(NumericalFailure):
    """Direct orthogonal-factor solve left a coupling residual above
    ``wopp.TOL``.

    Carries the factors it produced (``best``) and their residual."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class PointCloudError(ValueError):
    """Malformed point-cloud input file; names the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SchemaError(ValueError):
    """Serialized recurrence data does not match its declared layout."""
