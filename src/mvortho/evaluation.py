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

from .errors import RankDeficiencyError
from .recurrence import RecurrenceData

COND_TOL = 1e-12


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


def fix_vector_sign(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    s = np.sign(v[np.abs(v).argmax()]) if v.size else 1.0
    return v * (s if s != 0 else 1.0)


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
    degree's stacked raising Gram; RankDeficiencyError when the Gram is
    not positive definite within ``COND_TOL``."""
    evals, vecs = descending_eigh(gram)
    if evals[-1] <= COND_TOL * evals[0]:
        ratio = evals[-1] / evals[0] if evals[0] > 0 else 0.0
        raise RankDeficiencyError(
            f"stacked raising Gram rank-deficient at degree {degree} "
            f"(eigenvalue ratio {ratio:.3e})", degree=degree)
    return evals, vecs


def to_canonical(rec: RecurrenceData) -> RecurrenceData:
    """Orthogonally transform valid recurrence matrices into canonical form.

    Per degree this is one symmetric eigen-decomposition of the stacked
    raising Gram (``canonical_rotation``); the resulting orthogonal
    factors conjugate the A matrices and sandwich the B matrices.  For
    repeated eigenvalues the basis is unique only up to rotations inside
    the tied block.  Raises RankDeficiencyError as ``canonical_rotation``.
    """
    out = rec.copy()
    lam: list = [None]
    u_prev = None  # degree-0 transform is the 1x1 identity
    for n in range(1, rec.max_degree + 1):
        # The raising Gram is invariant to the degree-(n-1) transform.
        evals, vecs = canonical_rotation(rec.raising_gram(n), n)
        for i in range(rec.d):
            mat_a = rec.A[n][i]
            mat_b = rec.B[n][i]
            if u_prev is not None:
                mat_a = u_prev.T @ mat_a @ u_prev
                mat_b = u_prev.T @ mat_b
            out.A[n][i] = 0.5 * (mat_a + mat_a.T)
            out.B[n][i] = mat_b @ vecs
        lam.append(evals)
        u_prev = vecs
    out.lam = lam
    out.index_order = None
    return out


def evaluate(rec: RecurrenceData, points,
             max_degree: int | None = None) -> BasisEvaluation:
    """Evaluate the orthonormal basis at ``points`` via the canonical
    three-term identity.

    ``rec`` must be in canonical form (``rec.lam`` present).  Degrees
    0..max_degree are written block by block into one stacked array.
    """
    if not rec.is_canonical:
        raise ValueError("recurrence data must be in canonical form; "
                         "run to_canonical first")
    if max_degree is None:
        max_degree = rec.max_degree
    if max_degree > rec.max_degree:
        raise ValueError(f"requested degree {max_degree} exceeds stored "
                         f"{rec.max_degree}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != rec.d:
        raise ValueError(f"points are {pts.shape[1]}-dimensional, expected {rec.d}")
    bounds = np.cumsum([0] + [rec.r(n) for n in range(max_degree + 1)])
    stacked = np.empty((bounds[-1], pts.shape[0]))
    blocks = [stacked[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    blocks[0].fill(1.0)
    for n in range(max_degree):
        _next_block(rec, n, pts, blocks[n],
                    blocks[n - 1] if n >= 1 else None, out=blocks[n + 1])
    return BasisEvaluation(stacked=stacked, blocks=blocks, points=pts)


def _next_block(rec: RecurrenceData, n: int, pts: np.ndarray,
                p_cur: np.ndarray, p_prev: np.ndarray | None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Degree-(n+1) values from the degree-n and degree-(n-1) blocks,
    written into ``out`` (a new array when None) and returned."""
    lam = rec.lam[n + 1]
    if np.min(lam) <= COND_TOL * np.max(lam):
        raise RankDeficiencyError(
            f"canonical diagonal nearly singular at degree {n + 1}", degree=n + 1)
    if out is None:
        out = np.empty((rec.r(n + 1), pts.shape[0]))
    out.fill(0.0)
    for i in range(rec.d):
        raising_t = rec.B[n + 1][i].T
        out += raising_t @ (pts[:, i][None, :] * p_cur)
        out -= (raising_t @ rec.A[n + 1][i]) @ p_cur
        if p_prev is not None:
            out -= (raising_t @ rec.B[n][i].T) @ p_prev
    out /= lam[:, None]
    return out


def evaluator(rec: RecurrenceData, max_degree: int | None = None):
    """Closure mapping a point chunk to the stacked (R_N, m) value matrix.

    Used by the streaming Gram accumulators so large node sets never
    materialize the full evaluation.
    """
    def run(points_chunk):
        return evaluate(rec, points_chunk, max_degree).stacked

    return run

