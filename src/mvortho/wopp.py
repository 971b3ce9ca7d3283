"""Coupled weighted orthogonal Procrustes solve (the d >= 3 closure).

Finds orthogonal W_j with

    E_i W_i W_j^T E_j^T = H_{ij}    for every pair i < j,

with the gauge W fixed to the identity for the first coupled coordinate.
Each weight block is reduced once by SVD, E_j = X_j (Y_j 0) Z_j^T, which
turns consistent data into the synchronization of the orthonormal-row
frames V_j = top rows of Z_j^T W_j:

    V_i V_j^T = Y_i^-1 X_i^T H_{ij} X_j Y_j^-1.

Two coordinates whose blocks carry one padded column (q = m + 1, every
degree of a d = 3 measure) have a closed form: the orthogonal completion
of that one coupling block.  Every other shape is the non-convex case;
its frames are the leading eigenvectors of the stacked coupling matrix
(spectral synchronization), which is exact on consistent data.  The solve
does not iterate: both shapes return through one residual check, and a
residual above ``TOL`` raises NonConvergenceError, which the
degree-advancing algorithm reports with the failing degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureError, NonConvergenceError
from .evaluation import fix_vector_sign

RANK_TOL = 1e-10          # singular values below RANK_TOL * max treated as zero
W_ORTHO_TOL = 1e-8        # orthogonality defect allowed in a closed-form factor
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


def orthogonal_completion(block: np.ndarray) -> np.ndarray:
    """Extend an m x m principal block to an (m+1) x (m+1) orthogonal matrix.

    The missing last-row entries are determined up to one overall sign by
    unit-column and pairwise-orthogonality conditions; the last column is
    the unit vector completing the column space.  Signs are fixed
    deterministically.
    """
    m = block.shape[0]
    col_sq = np.sum(block ** 2, axis=0)
    magnitudes = np.sqrt(np.clip(1.0 - col_sq, 0.0, None))
    lead = int(np.argmax(magnitudes))
    last_row = np.zeros(m)
    if magnitudes[lead] > 1e-13:
        last_row[lead] = magnitudes[lead]
        for k in range(m):
            if k != lead:
                last_row[k] = -(block[:, k] @ block[:, lead]) / last_row[lead]
    tall = np.vstack([block, last_row[None, :]])
    u, _, _ = np.linalg.svd(tall)
    last_col = fix_vector_sign(u[:, -1])
    return np.hstack([tall, last_col[:, None]])


def _reduce(block: np.ndarray, coord) -> tuple:
    """(X, Y, Z) of block = X (Y 0) Z^T; ClosureError below ``RANK_TOL``."""
    x, y, zt = np.linalg.svd(block, full_matrices=True)
    if y[-1] <= RANK_TOL * y[0]:
        ratio = y[-1] / y[0] if y[0] > 0 else 0.0
        raise ClosureError(
            f"weight block of coordinate {coord} rank-deficient "
            f"(singular-value ratio {ratio:.3e})")
    return x, y, zt.T


def _closed_form(reduced: dict, H: dict, gauge, other) -> dict:
    """Two coordinates with q = m + 1: Z_g^T W_o^T Z_o has the principal
    block Y_g^-1 X_g^T H X_o Y_o^-1; complete it orthogonally."""
    x_g, y_g, z_g = reduced[gauge]
    x_o, y_o, z_o = reduced[other]
    w_full = orthogonal_completion(
        scaled_cross(x_g, y_g, H[(gauge, other)], x_o, y_o))
    q = w_full.shape[0]
    defect = float(np.max(np.abs(w_full.T @ w_full - np.eye(q))))
    if defect > W_ORTHO_TOL:
        raise ClosureError(
            f"assembled completion not orthogonal (defect {defect:.3e})")
    return {gauge: np.eye(q), other: (z_g @ w_full @ z_o.T).T}


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
        smallest key is the gauge coordinate whose factor stays identity.
    H : dict (i, j) -> (m, m) ndarray
        Coupling targets for every pair of coordinates i < j.

    Raises
    ------
    ClosureError
        A weight block with singular-value ratio at most ``RANK_TOL``
        (naming its coordinate); in the closed form (two coordinates,
        q = m + 1) also a non-orthogonal completion.
    NonConvergenceError
        The factors leave a coupling residual above ``TOL``; carries them
        and their residual.
    """
    keys = sorted(E)
    if len(keys) < 2:
        raise ValueError("need at least two coupled coordinates")
    m, q = E[keys[0]].shape
    for k in keys:
        if E[k].shape[1] != q:
            raise ValueError("coupled blocks must share their column count")
    reduced = {k: _reduce(E[k], k) for k in keys}
    if len(keys) == 2 and q == m + 1:
        W = _closed_form(reduced, H, *keys)
    else:
        W = _spectral_frames(reduced, H, keys, m, q)
    residual = coupling_residual(E, H, W)
    if residual > TOL:
        raise NonConvergenceError(
            f"orthogonal-factor solve left residual {residual:.3e} "
            f"above {TOL:.0e}", best=W, residual=residual)
    return OrthogonalFactors(W=W, residual=residual)
