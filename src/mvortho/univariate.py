"""Closed-form Jacobi recurrence coefficients and univariate evaluation.

Coefficients follow the orthonormal convention

    x p_n(x) = b_{n+1} p_{n+1}(x) + a_{n+1} p_n(x) + b_n p_{n-1}(x),

with p_{-1} = 0 and p_0 = 1/b_0, so b_0 encodes the measure's total mass.
All measures here are normalized to unit mass, giving b_0 = 1.  A
discrete 1-d measure's coefficients come from ``stieltjes`` with d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UnivariateRecurrence:
    """Recurrence coefficients through degree N.

    ``a[k]`` holds the center a_{k+1} (k = 0..N-1) and ``b[k]`` holds the
    width b_k (k = 0..N), with b_k > 0.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if b.shape[0] != a.shape[0] + 1:
            raise ValueError("need one more width than centers "
                             f"(got {a.shape[0]} centers, {b.shape[0]} widths)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite recurrence coefficient")
        if np.any(b <= 0):
            raise ValueError("recurrence widths must be positive")

    @property
    def max_degree(self) -> int:
        return self.a.shape[0]


def jacobi_recurrence(max_degree: int, alpha: float, beta: float) -> UnivariateRecurrence:
    """Closed-form coefficients for the Jacobi weight (1-x)^alpha (1+x)^beta.

    The weight is normalized to a probability measure on [-1, 1], so the
    polynomials are orthonormal with b_0 = 1.

    Parameters
    ----------
    max_degree : int
        Highest degree N for which coefficients are produced.
    alpha, beta : float
        Jacobi exponents, each > -1.
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    n = np.arange(max_degree, dtype=float)
    s = alpha + beta
    with np.errstate(invalid="ignore", divide="ignore"):
        centers = (beta**2 - alpha**2) / ((2 * n + s) * (2 * n + s + 2))
    if max_degree > 0:
        centers[0] = (beta - alpha) / (s + 2)

    widths_sq = np.ones(max_degree + 1)
    if max_degree >= 1:
        widths_sq[1] = 4 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
    if max_degree >= 2:
        k = np.arange(2, max_degree + 1, dtype=float)
        widths_sq[2:] = (4 * k * (k + alpha) * (k + beta) * (k + s)
                         / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
    return UnivariateRecurrence(a=centers, b=np.sqrt(widths_sq))


def evaluate_univariate(rec: UnivariateRecurrence, n: int, x,
                        out=None) -> np.ndarray:
    """Values of p_0..p_n at the points x, shape (n+1, len(x)), written
    into ``out`` when it is given (an (n+1, len(x)) float64 array) and
    returned."""
    if n > rec.max_degree:
        raise ValueError(f"degree {n} exceeds stored maximum {rec.max_degree}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if out is None:
        out = np.empty((n + 1, x.shape[0]))
    out[0] = 1.0 / rec.b[0]
    if n == 0:
        return out
    out[1] = (x - rec.a[0]) * out[0] / rec.b[1]
    for m in range(1, n):
        out[m + 1] = ((x - rec.a[m]) * out[m] - rec.b[m] * out[m - 1]) / rec.b[m + 1]
    return out
