"""Exception types shared across the package."""

from __future__ import annotations

RANK_TOL = 1e-5           # smallest singular-value ratio of a full-rank matrix


class NumericalFailure(RuntimeError):
    """Base class for numerical breakdowns that callers may want to report
    rather than treat as bugs (maps to CLI exit code 2).

    A block that cannot be factored fails this way in both constructions:
    a rank test in ``ms``, a Gram block not finite or not positive definite
    in the moment method.

    The message ends with ``at degree n`` whenever ``degree`` is set, also
    when a caller sets it after the raise.  A failure at degree n in the
    loop of ``stieltjes_recurrence`` carries the ``recurrence`` and
    ``health`` it committed through degree n - 1; others carry None, []."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree
        self.recurrence, self.health = None, []

    def __str__(self):
        at = "" if self.degree is None else f" at degree {self.degree}"
        return super().__str__() + at


class DegenerateMeasureError(NumericalFailure):
    """A measure cannot support orthogonal polynomials of the requested degree."""


class RankDeficiencyError(NumericalFailure):
    """A matrix that must be full rank fails ``require_rank``."""


class ConditioningError(NumericalFailure):
    """Cholesky breakdown of a Gram matrix (expected at high degree)."""


class NonConvergenceError(NumericalFailure):
    """Direct orthogonal-factor solve left a coupling residual above
    ``wopp.TOL``.

    Carries the factors it produced (``best``) and their residual."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


def require_rank(smallest, largest, what: str, degree=None) -> None:
    """The one rank test: RankDeficiencyError naming ``what`` and carrying
    ``degree`` unless the extreme singular values satisfy
    smallest > RANK_TOL * largest (so NaN fails); a PSD Gram passes its
    clipped eigenvalues' roots."""
    if not smallest > RANK_TOL * largest:
        ratio = smallest / largest if 0 < largest < float("inf") else 0.0
        raise RankDeficiencyError(
            f"{what} rank-deficient (singular-value ratio {ratio:.3e}, "
            f"bound {RANK_TOL:.0e})", degree=degree)


class PointCloudError(ValueError):
    """Malformed point-cloud input file; names the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SchemaError(ValueError):
    """Serialized recurrence data does not match its declared layout."""
