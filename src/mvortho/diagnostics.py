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
from .measures import DiscreteMeasure, chunk_sum, node_slices
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
    each one stays in cache, and run through ``measures.chunk_sum``.
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
    values before the scaling, into its own slice of the kernel; a K
    that is not finite and positive raises NumericalFailure.
    """
    root_w = np.sqrt(measure.weights)
    step = kernel_stride
    # K at node k = j s goes to kernel[j]; a chunk's nodes j s lie in
    # [start, stop), so its j run from ceil(start / s) to ceil(stop / s).
    kernel = None if step is None else np.empty(-(-measure.n_nodes // step))

    def chunk(sl):
        vals = evaluate_chunk(measure.nodes[sl])
        if kernel is not None:
            kernel[-(-sl.start // step):-(-sl.stop // step)] = \
                _kernel_diagonal(vals[:, -sl.start % step::step], size)
        vals *= root_w[sl]
        return [vals @ vals.T]

    gram, = chunk_sum(chunk, node_slices(measure.n_nodes, size),
                      [np.zeros((size, size))])
    err = gram - np.eye(size)
    return ErrorReport(
        error_matrix=err, max_abs=float(np.max(np.abs(err))),
        kernel=None if kernel is None else _positive(kernel))


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


def condition_numbers(matrices) -> np.ndarray:
    """2-norm condition number of each matrix in ``matrices``.

    Singular-to-precision matrices give +inf, not an error, and so do
    matrices with an entry that is not finite (an overflowing Gram).
    """
    out = []
    for mat in matrices:
        mat = np.atleast_2d(mat)
        svals = (np.linalg.svd(mat, compute_uv=False)
                 if np.all(np.isfinite(mat)) else [0.0])
        out.append(float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf)
    return np.array(out)


def gram_condition_numbers(gram: np.ndarray, cumulative_dims) -> np.ndarray:
    """cond of each leading degree block of a stacked Gram matrix."""
    return condition_numbers([gram[:hi, :hi] for hi in cumulative_dims])


def christoffel_streaming(evaluate_chunk, points, size: int):
    """Normalized reproducing-kernel diagonal and Christoffel function.

    K(x) = (1/size) sum of squared basis values at x, over point chunks
    of at most ``measures.STACK_BYTES`` of stacked values run through
    ``measures.chunk_sum``, each writing its own slice of K; the
    Christoffel function is its reciprocal.  K is a finite sum of
    squares, so a value that is not finite and positive is a numerical
    breakdown.  At the measure's own nodes, a run takes K from its
    Gram-error sweep instead (``gram_error_streaming``).
    """
    pts = np.asarray(points, dtype=float)
    kernel = np.empty(pts.shape[0])

    def chunk(sl):
        kernel[sl] = _kernel_diagonal(evaluate_chunk(pts[sl]), size)
        return []

    chunk_sum(chunk, node_slices(pts.shape[0], size), [])
    kernel = _positive(kernel)
    return kernel, 1.0 / kernel


def _kernel_diagonal(vals: np.ndarray, size: int) -> np.ndarray:
    """K at each column of the (size, m) basis values ``vals``: the
    squares summed down the rows, in row order, over ``size``."""
    return np.sum(vals ** 2, axis=0) / size


def _positive(kernel: np.ndarray) -> np.ndarray:
    """``kernel``, after checking that every value is finite and
    positive (NaN compares false, so it fails the test)."""
    if not np.all((kernel > 0) & (kernel < np.inf)):
        raise NumericalFailure("reproducing-kernel diagonal not finite and "
                               "positive; basis evaluation broke down")
    return kernel
