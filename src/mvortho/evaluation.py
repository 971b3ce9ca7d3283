"""Canonical form and stable evaluation of the orthonormal basis.

A recurrence family is *canonical* when each stacked raising Gram
sum_i B_{n,i}^T B_{n,i} is diagonal with non-increasing diagonal.  In that
form the degree-(n+1) block is obtained from the two previous blocks by a
single diagonally-scaled matrix identity, which is the evaluation scheme
used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_rank
from .recurrence import RecurrenceData


def fix_column_signs(mat: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest row index (argmax).  Used to make
    eigenvector matrices deterministic.
    """
    out = np.array(mat)
    lead = np.abs(out).argmax(axis=0)
    signs = np.sign(out[lead, np.arange(out.shape[1])])
    signs[signs == 0] = 1.0
    return out * signs


@dataclass
class BasisEvaluation:
    """Orthonormal basis values over a point set, blocked by degree.

    ``stacked`` has shape (R, M) and holds the degree blocks one below
    the other; ``blocks[n]`` is its row view of shape (r_n, M), where row
    j holds the j-th degree-n basis polynomial at every point.
    ``points`` is the (M, d) array the values were taken at (kept by
    reference).
    """

    stacked: np.ndarray
    blocks: list
    points: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.blocks) - 1

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def descending_eigh(mat: np.ndarray):
    """Eigenpairs of sym(``mat``), eigenvalues non-increasing (stable
    sort), eigenvector signs fixed deterministically."""
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    order = np.argsort(-evals, kind="stable")
    return evals[order], fix_column_signs(vecs[:, order])


def canonical_rotation(gram: np.ndarray, degree: int):
    """Canonical diagonal and rotation (``descending_eigh``) of a
    degree's stacked raising Gram; RankDeficiencyError when the stacked
    raising matrix fails ``require_rank``."""
    evals, vecs = descending_eigh(gram)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    require_rank(roots[-1], roots[0], "stacked raising Gram", degree)
    return evals, vecs


def to_canonical(rec: RecurrenceData) -> RecurrenceData:
    """Orthogonally transform valid recurrence matrices into canonical form.

    Per degree this is one symmetric eigen-decomposition of the stacked
    raising Gram (``canonical_rotation``); the resulting orthogonal
    factors conjugate the A matrices and sandwich the B matrices.  For
    repeated eigenvalues the basis is unique only up to rotations inside
    the tied block.  On tensor-product data (``tensor_recurrence``) every
    raising Gram is exactly diagonal, so the transform is an exact
    permutation: ``lam[n]`` is that diagonal sorted non-increasing, and
    tied entries come in LAPACK's order.  Raises RankDeficiencyError as
    ``canonical_rotation``.
    """
    out = rec.copy()
    lam: list = [None]
    u_prev = np.ones((1, 1))  # degree-0 transform is the 1x1 identity
    for n in range(1, rec.max_degree + 1):
        # The raising Gram is invariant to the degree-(n-1) transform.
        evals, vecs = canonical_rotation(rec.raising_gram(n), n)
        for i in range(rec.d):
            mat_a = u_prev.T @ rec.A[n][i] @ u_prev
            out.A[n][i] = 0.5 * (mat_a + mat_a.T)
            out.B[n][i] = u_prev.T @ rec.B[n][i] @ vecs
        lam.append(evals)
        u_prev = vecs
    out.lam = lam
    return out


def evaluate(rec: RecurrenceData, points,
             max_degree: int | None = None) -> BasisEvaluation:
    """Evaluate the orthonormal basis at ``points`` via the canonical
    three-term identity.

    ``rec`` must be in canonical form (``rec.lam`` present).  Degrees
    0..max_degree are written block by block into one stacked array.
    """
    return _evaluate(_step_matrices(rec, max_degree), _as_points(rec, points))


def evaluator(rec: RecurrenceData, max_degree: int | None = None):
    """Closure mapping a point chunk to the stacked (R_N, m) value matrix.

    Used by the streaming Gram accumulators so large node sets never
    materialize the full evaluation.  The step matrices are formed once
    here, not once per chunk; the values are those ``evaluate`` returns.
    """
    steps = _step_matrices(rec, max_degree)

    def run(points_chunk):
        return _evaluate(steps, _as_points(rec, points_chunk)).stacked

    return run


def _step_matrices(rec: RecurrenceData, max_degree: int | None) -> list:
    if not rec.is_canonical:
        raise ValueError("recurrence data must be in canonical form; "
                         "run to_canonical first")
    if max_degree is None:
        max_degree = rec.max_degree
    if max_degree > rec.max_degree:
        raise ValueError(f"requested degree {max_degree} exceeds stored "
                         f"{rec.max_degree}")
    return [step_matrix(rec, n) for n in range(max_degree)]


def _as_points(rec: RecurrenceData, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != rec.d:
        raise ValueError(f"points are {pts.shape[1]}-dimensional, expected {rec.d}")
    return pts


def _evaluate(steps: list, pts: np.ndarray) -> BasisEvaluation:
    """Degree blocks 0..len(steps) at ``pts``, written into one stacked
    array by ``_next_block``, starting from the empty block p_{-1}."""
    bounds = np.cumsum([0, 1] + [step.shape[0] for step in steps])
    stacked = np.empty((bounds[-1], pts.shape[0]))
    blocks = [stacked[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    blocks[0].fill(1.0)
    prev = stacked[:0]
    for n, step in enumerate(steps):
        _next_block(step, pts, blocks[n], prev, out=blocks[n + 1])
        prev = blocks[n]
    return BasisEvaluation(stacked=stacked, blocks=blocks, points=pts)


def step_matrix(rec: RecurrenceData, n: int) -> np.ndarray:
    """The matrix that maps ``shifted_stack`` of degree n to the
    degree-(n+1) block:

        [B_{n+1,1}^T ... B_{n+1,d}^T,  -sum_i B_{n+1,i}^T A_{n+1,i},
         -sum_i B_{n+1,i}^T B_{n,i}^T] / lam_{n+1}

    (empty at n = 0, as p_{-1} is), the canonical three-term identity
    solved for p_{n+1}.  Raises RankDeficiencyError when the stacked
    raising matrix (singular values sqrt(lam_{n+1})) fails ``require_rank``.
    """
    lam = rec.lam[n + 1]
    roots = np.sqrt(np.clip(lam, 0.0, None))
    require_rank(np.min(roots), np.max(roots), "canonical diagonal", n + 1)
    raising_t = [mat.T for mat in rec.B[n + 1]]
    columns = raising_t + [
        -sum(bt @ a for bt, a in zip(raising_t, rec.A[n + 1])),
        -sum(bt @ b.T for bt, b in zip(raising_t, rec.B[n]))]
    return np.hstack(columns) / lam[:, None]


def shifted_stack(pts: np.ndarray, p_cur: np.ndarray,
                  p_prev: np.ndarray) -> np.ndarray:
    """S = [x_1 p_n; ...; x_d p_n; p_n; p_{n-1}] in a new array; at
    degree 0 ``p_prev`` is the empty (0 x m) block p_{-1}, which adds no
    rows."""
    d = pts.shape[1]
    r = p_cur.shape[0]
    out = np.empty(((d + 1) * r + p_prev.shape[0], pts.shape[0]))
    for i in range(d):
        np.multiply(pts[:, i][None, :], p_cur, out=out[i * r:(i + 1) * r])
    out[d * r:(d + 1) * r] = p_cur
    out[(d + 1) * r:] = p_prev
    return out


def _next_block(step: np.ndarray, pts: np.ndarray, p_cur: np.ndarray,
                p_prev: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Degree-(n+1) values from the degree-n and degree-(n-1) blocks as
    one GEMM, ``step`` (``step_matrix(rec, n)``) times the shifted stack,
    written into ``out`` (a new array when None) and returned.  At
    degree 0 ``p_prev`` is the empty block p_{-1}."""
    return np.matmul(step, shifted_stack(pts, p_cur, p_prev), out=out)
