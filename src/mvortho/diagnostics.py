"""Quality metrics: Gram error matrix, commuting-condition residuals,
condition numbers, and reproducing-kernel (Christoffel) quantities.

The Gram error and, on a strided subset of the nodes, the
reproducing-kernel diagonal come from one node sweep
(``gram_error_streaming``), so a run evaluates its basis once per node;
``christoffel_streaming`` takes the kernel at arbitrary points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import NumericalFailure
from .measures import DiscreteMeasure, chunk_map, node_chunks
from .recurrence import RecurrenceData


@dataclass
class ErrorReport:
    """Gram error of a computed basis w.r.t. its construction measure.

    ``error_matrix`` is blockGram - I over all degrees; ``max_abs`` its
    entrywise maximum magnitude.  ``kernel`` is the normalized
    reproducing-kernel diagonal K at the nodes 0, s, 2s, ... when the
    sweep was asked for it with ``kernel_stride`` s, else None.
    """

    error_matrix: np.ndarray
    max_abs: float
    kernel: np.ndarray | None = None


def gram_error_streaming(evaluate_chunk, measure: DiscreteMeasure,
                         size: int, *, kernel_stride: int | None = None
                         ) -> ErrorReport:
    """Gram error accumulated in node chunks; ``evaluate_chunk`` maps an
    (m, d) point chunk to the (size, m) stacked basis values.

    Chunks hold at most ``measures.STACK_BYTES`` of stacked values, so
    each one stays in cache, and run through ``measures.chunk_map``.
    Both evaluators release the GIL for their heavy calls (numpy
    products, and the ``dtrtrs`` of ``lapack.solve_lower`` for the
    moment-method bases), so the chunks run in parallel.
    Each chunk scales its values by sqrt(w) in place, so the weighted
    Gram is the symmetric product of the scaled values with themselves
    (one BLAS ``syrk``, exactly symmetric).  The sweep therefore relies
    on ``evaluate_chunk`` returning a new array on every call, as both
    evaluators do (``evaluation.evaluator``,
    ``moment_method.orthonormal_evaluator``).

    With ``kernel_stride`` s, the same sweep also returns on the report
    the kernel diagonal K (``christoffel_streaming``) at the global node
    indices 0, s, 2s, ..., each chunk taking it from its unweighted
    values before the scaling; a non-positive K raises
    NumericalFailure.
    """
    root_w = np.sqrt(measure.weights)

    def chunk(sl):
        vals = evaluate_chunk(measure.nodes[sl])
        kernel = None
        if kernel_stride is not None:
            first = -sl.start % kernel_stride
            kernel = _kernel_diagonal(vals[:, first::kernel_stride], size)
        vals *= root_w[sl]
        return vals @ vals.T, kernel

    gram = np.zeros((size, size))
    kernels = []
    for part, kernel in chunk_map(chunk, node_chunks(measure.n_nodes,
                                                     rows=size)):
        gram += part
        kernels.append(kernel)
    err = gram - np.eye(size)
    return ErrorReport(
        error_matrix=err, max_abs=float(np.max(np.abs(err))),
        kernel=None if kernel_stride is None
        else _positive(np.concatenate(kernels)))


@lapack.one_thread()
def commuting_residuals(rec: RecurrenceData) -> list:
    """Max-norm defects of the three compatibility identities.

    Returns tuples (n, i, j, res1, res2, res3) for 0 <= n < rec.max_degree and
    coordinate pairs i < j.  At n = 0 the lowering blocks B_{0,i} are
    empty: their terms vanish, and the last two identities, empty,
    report 0.  The products run on one BLAS thread, whose bits do not
    depend on the environment.
    """
    out = []
    for n in range(rec.max_degree):
        for i in range(rec.d):
            for j in range(i + 1, rec.d):
                b_i, b_j = rec.B[n + 1][i], rec.B[n + 1][j]
                a_i, a_j = rec.A[n + 1][i], rec.A[n + 1][j]
                p_i, p_j = rec.B[n][i], rec.B[n][j]
                defect1 = b_i @ b_j.T - b_j @ b_i.T + a_i @ a_j - a_j @ a_i
                defect1 += p_i.T @ p_j - p_j.T @ p_i
                defect2 = (p_i @ a_j - p_j @ a_i
                           + rec.A[n][i] @ p_j - rec.A[n][j] @ p_i)
                defect3 = p_i @ b_j - p_j @ b_i
                out.append((n, i, j, float(np.max(np.abs(defect1))),
                            float(np.max(np.abs(defect2), initial=0.0)),
                            float(np.max(np.abs(defect3), initial=0.0))))
    return out


def max_commuting_residual(rec: RecurrenceData) -> float:
    rows = commuting_residuals(rec)
    if not rows:
        return 0.0
    return max(max(row[3:]) for row in rows)


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
    of at most ``measures.STACK_BYTES`` of stacked values run through
    ``measures.chunk_map``; the Christoffel function is its reciprocal.
    K is a sum of squares, so a non-positive value is a numerical
    breakdown.  At the measure's own nodes, a run takes K from its
    Gram-error sweep instead (``gram_error_streaming``).
    """
    pts = np.asarray(points, dtype=float)

    def chunk(sl):
        return _kernel_diagonal(evaluate_chunk(pts[sl]), size)

    slices = list(node_chunks(pts.shape[0], rows=size))
    kernel = np.empty(pts.shape[0])
    for sl, part in zip(slices, chunk_map(chunk, slices)):
        kernel[sl] = part
    kernel = _positive(kernel)
    return kernel, 1.0 / kernel


def _kernel_diagonal(vals: np.ndarray, size: int) -> np.ndarray:
    """K at each column of the (size, m) basis values ``vals``: the
    squares summed down the rows, in row order, over ``size``."""
    return np.sum(vals ** 2, axis=0) / size


def _positive(kernel: np.ndarray) -> np.ndarray:
    """``kernel``, after checking that every value is positive."""
    if np.any(kernel <= 0):
        raise NumericalFailure("reproducing-kernel diagonal not positive; "
                               "basis evaluation broke down")
    return kernel
