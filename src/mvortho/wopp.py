"""Coupled weighted orthogonal Procrustes solve (the closure of every
degree after the first).

Finds orthogonal W_j with

    E_i W_i W_j^T E_j^T = H_{ij}    for every pair i < j,

with the gauge W fixed to the identity for the first coupled coordinate.
A single coupled coordinate (every d = 2 degree) is the gauge alone:
W = I and the residual is 0; with none (d = 1), W = {}.

Each weight block is reduced once by SVD, E_j = X_j (Y_j 0) Z_j^T, which
turns consistent data into the synchronization of the orthonormal-row
frames V_j = top rows of Z_j^T W_j:

    V_i V_j^T = Y_i^-1 X_i^T H_{ij} X_j Y_j^-1.

The frames are the leading eigenvectors of the stacked coupling matrix
(spectral synchronization), which is exact on consistent data, for any
number of coordinates and any padding q - m: a d = 3 measure (two
coupled coordinates, q = m + 1) takes the same single eigendecomposition
as d > 3, where the problem is non-convex.  The solve does not iterate:
a residual above ``TOL`` raises NonConvergenceError, which the
degree-advancing algorithm reports with the failing degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, require_rank

TOL = 1e-10               # largest coupling residual the solve may return


@dataclass
class OrthogonalFactors:
    W: dict
    residual: float


def scaled_cross(u_i, s_i, t_ij, u_j, s_j) -> np.ndarray:
    """Sigma_i^-1 U_i^T T_{ij} U_j Sigma_j^-1 for mixed residual moments."""
    return (u_i / s_i[None, :]).T @ t_ij @ (u_j / s_j[None, :])


def coupling_residual(E: dict, H: dict, W: dict) -> float:
    """sqrt of the summed squared Frobenius defects over pairs i < j."""
    keys = sorted(E)
    total = 0.0
    for a, i in enumerate(keys):
        for j in keys[a + 1:]:
            defect = E[i] @ W[i] @ W[j].T @ E[j].T - H[(i, j)]
            total += float(np.sum(defect ** 2))
    return float(np.sqrt(total))


def _reduce(block: np.ndarray, coord) -> tuple:
    """(X, Y, Z) of block = X (Y 0) Z^T, the block full rank (``require_rank``)."""
    x, y, zt = np.linalg.svd(block, full_matrices=True)
    require_rank(y[-1], y[0], f"weight block of coordinate {coord}")
    return x, y, zt.T


def _spectral_frames(reduced: dict, H: dict, keys, m: int, q: int) -> dict:
    """Orthogonal factors from frame synchronization.

    The stacked coupling matrix of the blocks V_i V_j^T is a Gram matrix
    of rank <= q whose leading eigenvectors recover the frames up to a
    common rotation, removed by fixing the gauge.
    """
    coupling = np.eye(len(keys) * m)
    for a, i in enumerate(keys):
        for b, j in enumerate(keys):
            if a >= b:
                continue
            block = scaled_cross(reduced[i][0], reduced[i][1], H[(i, j)],
                                 reduced[j][0], reduced[j][1])
            coupling[a * m:(a + 1) * m, b * m:(b + 1) * m] = block
            coupling[b * m:(b + 1) * m, a * m:(a + 1) * m] = block.T
    evals, evecs = np.linalg.eigh(coupling)
    top = evecs[:, -q:] * np.sqrt(np.clip(evals[-q:], 0.0, None))[None, :]
    # With fewer than q eigenpairs (len(keys) * m < q, as for one padded
    # coordinate) the missing columns of the frames are zero.
    top = np.pad(top, ((0, 0), (0, q - top.shape[1])))
    W = {}
    for a, j in enumerate(keys):
        block = top[a * m:(a + 1) * m]
        u, _, vt = np.linalg.svd(block, full_matrices=False)
        frame = u @ vt
        _, _, vt_full = np.linalg.svd(frame, full_matrices=True)
        W[j] = reduced[j][2] @ np.vstack([frame, vt_full[m:]])
    gauge = keys[0]
    rotate = W[gauge].T
    W = {j: W[j] @ rotate for j in keys}
    W[gauge] = np.eye(q)
    return W


def solve_orthogonal_factors(E: dict, H: dict) -> OrthogonalFactors:
    """Solve the coupled orthogonal-factor problem directly.

    Parameters
    ----------
    E : dict coord -> (m, q) ndarray
        Full-row-rank weight blocks, keyed by coupled coordinate.  The
        smallest key is the gauge coordinate whose factor stays identity;
        a single coordinate is the gauge alone.  With none (d = 1) there
        is nothing to solve: W = {} and the residual is 0.
    H : dict (i, j) -> (m, m) ndarray
        Coupling targets for every pair of coordinates i < j.

    Raises
    ------
    RankDeficiencyError
        A weight block that fails ``require_rank``, naming its coordinate.
    NonConvergenceError
        The factors leave a coupling residual above ``TOL``; carries them
        and their residual.
    """
    keys = sorted(E)
    if not keys:
        return OrthogonalFactors(W={}, residual=0.0)
    m, q = E[keys[0]].shape
    for k in keys:
        if E[k].shape[1] != q:
            raise ValueError("coupled blocks must share their column count")
    reduced = {k: _reduce(E[k], k) for k in keys}
    W = _spectral_frames(reduced, H, keys, m, q)
    residual = coupling_residual(E, H, W)
    if residual > TOL:
        raise NonConvergenceError(
            f"orthogonal-factor solve left residual {residual:.3e} "
            f"above {TOL:.0e}", best=W, residual=residual)
    return OrthogonalFactors(W=W, residual=residual)
