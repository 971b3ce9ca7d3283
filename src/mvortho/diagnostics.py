"""Quality metrics: Gram error matrix, commuting-condition residuals,
condition numbers, and reproducing-kernel (Christoffel) quantities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .measures import DiscreteMeasure, node_chunks
from .recurrence import RecurrenceData


@dataclass
class ErrorReport:
    """Gram error of a computed basis w.r.t. its construction measure.

    ``error_matrix`` is blockGram - I over all degrees; ``max_abs`` its
    entrywise maximum magnitude.
    """

    error_matrix: np.ndarray
    max_abs: float


PANEL = 128  # Gram rows accumulated per product in gram_error_streaming


def gram_error_streaming(evaluate_chunk, measure: DiscreteMeasure,
                         size: int) -> ErrorReport:
    """Gram error accumulated in node chunks; ``evaluate_chunk`` maps an
    (m, d) point chunk to the (size, m) stacked basis values.

    Chunks hold at most ``measures.STACK_BYTES`` of stacked values, so
    each one stays in cache.  Only the lower triangle of the Gram is
    formed, in ``PANEL``-row panels, and then mirrored.
    """
    gram = np.zeros((size, size))
    for sl in node_chunks(measure.n_nodes, rows=size):
        vals = evaluate_chunk(measure.nodes[sl])
        weighted = vals * measure.weights[sl][None, :]
        for lo in range(0, size, PANEL):
            hi = min(lo + PANEL, size)
            gram[lo:hi, :hi] += weighted[lo:hi] @ vals[:hi].T
    err = np.tril(gram) + np.tril(gram, -1).T - np.eye(size)
    return ErrorReport(error_matrix=err, max_abs=float(np.max(np.abs(err))))


def commuting_residuals(rec: RecurrenceData) -> list:
    """Max-norm defects of the three compatibility identities.

    Returns tuples (n, i, j, res1, res2, res3) for 0 <= n < rec.max_degree and
    coordinate pairs i < j.  The first identity applies from n = 0 (the
    degree-0 raising term is vacuous); the other two start at n = 1 and
    are reported as 0 for n = 0.
    """
    out = []
    for n in range(rec.max_degree):
        for i in range(rec.d):
            for j in range(i + 1, rec.d):
                b_i, b_j = rec.B[n + 1][i], rec.B[n + 1][j]
                a_i, a_j = rec.A[n + 1][i], rec.A[n + 1][j]
                defect1 = b_i @ b_j.T - b_j @ b_i.T + a_i @ a_j - a_j @ a_i
                if n >= 1:
                    p_i, p_j = rec.B[n][i], rec.B[n][j]
                    defect1 += p_i.T @ p_j - p_j.T @ p_i
                    defect2 = (p_i @ a_j - p_j @ a_i
                               + rec.A[n][i] @ p_j - rec.A[n][j] @ p_i)
                    defect3 = p_i @ b_j - p_j @ b_i
                    res2 = float(np.max(np.abs(defect2)))
                    res3 = float(np.max(np.abs(defect3)))
                else:
                    res2 = res3 = 0.0
                out.append((n, i, j, float(np.max(np.abs(defect1))), res2, res3))
    return out


def max_commuting_residual(rec: RecurrenceData) -> float:
    rows = commuting_residuals(rec)
    if not rows:
        return 0.0
    return max(max(row[3:]) for row in rows)


def symmetry_defect(rec: RecurrenceData) -> float:
    """Largest |A - A^T| entry over all stored degrees and coordinates."""
    worst = 0.0
    for n in range(1, rec.max_degree + 1):
        for mat in rec.A[n]:
            worst = max(worst, float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0)
    return worst


def rank_margins(rec: RecurrenceData):
    """Smallest relative singular values certifying the rank conditions.

    Returns (per-coordinate margin, stacked margin): the minimum over
    degrees of sigma_min/sigma_max for each raising matrix and for the
    vertically stacked raising matrix.
    """
    per_coord = np.inf
    stacked = np.inf
    for n in range(1, rec.max_degree + 1):
        for mat in rec.B[n]:
            svals = np.linalg.svd(mat, compute_uv=False)
            per_coord = min(per_coord, float(svals[-1] / svals[0]))
        svals = np.linalg.svd(rec.stacked_raising(n), compute_uv=False)
        stacked = min(stacked, float(svals[-1] / svals[0]))
    return per_coord, stacked


def condition_numbers(matrices) -> np.ndarray:
    """2-norm condition number of each matrix in ``matrices``.

    Singular-to-precision matrices give +inf, not an error.
    """
    out = []
    for mat in matrices:
        svals = np.linalg.svd(np.atleast_2d(mat), compute_uv=False)
        out.append(float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf)
    return np.array(out)


def gram_condition_numbers(gram: np.ndarray, cumulative_dims) -> np.ndarray:
    """cond of each leading degree block of a stacked Gram matrix."""
    return condition_numbers([gram[:hi, :hi] for hi in cumulative_dims])


def christoffel_streaming(evaluate_chunk, points, size: int):
    """Normalized reproducing-kernel diagonal and Christoffel function.

    K(x) = (1/size) sum of squared basis values at x, over point chunks
    of at most ``measures.STACK_BYTES`` of stacked values; the
    Christoffel function is its reciprocal.  K is a sum of squares, so a
    non-positive value is a numerical breakdown.
    """
    pts = np.asarray(points, dtype=float)
    kernel = np.empty(pts.shape[0])
    for sl in node_chunks(pts.shape[0], rows=size):
        vals = evaluate_chunk(pts[sl])
        kernel[sl] = np.sum(vals ** 2, axis=0) / size
    if np.any(kernel <= 0):
        raise NumericalFailure("reproducing-kernel diagonal not positive; "
                               "basis evaluation broke down")
    return kernel, 1.0 / kernel
