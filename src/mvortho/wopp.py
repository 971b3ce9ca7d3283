"""Coupled weighted orthogonal Procrustes solver (the d >= 3 closure).

Finds orthogonal W_j minimizing

    sum over pairs i < j of || E_i W_i W_j^T E_j^T - H_{ij} ||_F^2

with the gauge W fixed to the identity for the first coupled coordinate.
Two coordinates whose (m, q) blocks carry one padded column (q = m + 1,
every degree of a d = 3 measure) have a closed form.  Every other shape
is non-convex.  This solver first reduces each weight block
by SVD, which turns consistent data into an orthonormal-frame
synchronization problem; the frames are initialized from the top
eigenvectors of the stacked pairwise coupling matrix and then refined by
block-coordinate majorize-minimize sweeps with polar retraction.  It
carries no global-optimality guarantee; when the sweeps stall above the
tolerance it raises NonConvergenceError, which the degree-advancing
algorithm reports with the failing degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureError, NonConvergenceError
from .evaluation import fix_vector_sign

RANK_TOL = 1e-10          # singular values below RANK_TOL * max treated as zero
W_ORTHO_TOL = 1e-8        # orthogonality defect allowed in a closed-form factor
_REDUCTION_TOL = 1e-12


def _polar(mat: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(mat)
    return u @ vt


def _get_target(H: dict, i: int, j: int) -> np.ndarray:
    """H block for ordered pair (i, j); transposed couplings are equivalent."""
    if (i, j) in H:
        return H[(i, j)]
    return H[(j, i)].T


@dataclass
class OrthogonalFactors:
    W: dict
    residual: float
    iterations: int


def coupling_residual(E: dict, H: dict, W: dict) -> float:
    """sqrt of the summed squared Frobenius defects over unordered pairs."""
    keys = sorted(E)
    total = 0.0
    for a, i in enumerate(keys):
        for j in keys[a + 1:]:
            defect = E[i] @ W[i] @ W[j].T @ E[j].T - _get_target(H, i, j)
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


def _spectral_init(E: dict, H: dict, keys) -> dict:
    """Initial orthogonal factors from frame synchronization.

    With E_j = X_j (Y_j 0) Z_j^T, consistent data satisfies
    V_i V_j^T = Y_i^-1 X_i^T H_{ij} X_j Y_j^-1 for the orthonormal-row
    frames V_j = top rows of Z_j^T W_j, so the stacked coupling matrix is
    a Gram matrix of rank <= q whose leading eigenvectors recover the
    frames up to a common rotation.
    """
    m = E[keys[0]].shape[0]
    q = E[keys[0]].shape[1]
    xs, ys, zs = {}, {}, {}
    for j in keys:
        x, y, zt = np.linalg.svd(E[j], full_matrices=True)
        if y[-1] <= _REDUCTION_TOL * y[0]:
            # No frame can be read off; refinement from identity frames
            # stalls far above tolerance even when a solution exists.
            ratio = y[-1] / y[0] if y[0] > 0 else 0.0
            raise ClosureError(
                f"weight block of coordinate {j} rank-deficient "
                f"(singular-value ratio {ratio:.3e})")
        xs[j], ys[j], zs[j] = x, y, zt.T
    coupling = np.eye(len(keys) * m)
    for a, i in enumerate(keys):
        for b, j in enumerate(keys):
            if a >= b:
                continue
            block = (xs[i] / ys[i][None, :]).T @ _get_target(H, i, j) \
                @ (xs[j] / ys[j][None, :])
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
        W[j] = zs[j] @ np.vstack([frame, vt_full[m:]])
    gauge = keys[0]
    rotate = W[gauge].T
    W = {j: W[j] @ rotate for j in keys}
    W[gauge] = np.eye(q)
    return W


def solve_orthogonal_factors(E: dict, H: dict, max_iter: int = 500,
                             tol: float = 1e-10) -> OrthogonalFactors:
    """Solve the coupled orthogonal-factor problem.

    Parameters
    ----------
    E : dict coord -> (m, q) ndarray
        Full-row-rank weight blocks, keyed by coupled coordinate.  The
        smallest key is the gauge coordinate whose factor stays identity.
    H : dict (i, j) -> (m, m) ndarray
        Coupling targets for pairs of distinct coordinates (either
        orientation; the transposed block is inferred).
    max_iter : int
        Refinement sweeps over the non-gauge coordinates.
    tol : float
        Residual at which the solve is declared converged.

    Raises
    ------
    ClosureError
        Nearly singular weight block; in the closed form (two
        coordinates, q = m + 1, no sweeps) also a non-orthogonal
        completion.
    NonConvergenceError
        After ``max_iter`` sweeps above ``tol``; carries the best iterate.
    """
    keys = sorted(E)
    if len(keys) < 2:
        raise ValueError("need at least two coupled coordinates")
    gauge = keys[0]
    q = E[gauge].shape[1]
    for k in keys:
        if E[k].shape[1] != q:
            raise ValueError("coupled blocks must share their column count")
    if len(keys) == 2 and q == E[gauge].shape[0] + 1:
        # Closed form: with E_j = X_j (Y_j 0) Z_j^T, Z_g^T W_o^T Z_o has the
        # principal block Y_g^-1 X_g^T H X_o Y_o^-1; complete it orthogonally.
        other = keys[1]
        x_g, y_g, z_gt = np.linalg.svd(E[gauge])
        x_o, y_o, z_ot = np.linalg.svd(E[other])
        if y_g[-1] <= RANK_TOL * y_g[0] or y_o[-1] <= RANK_TOL * y_o[0]:
            raise ClosureError("kernel-restricted weight block nearly singular")
        principal = (x_g / y_g[None, :]).T @ _get_target(H, gauge, other) \
            @ (x_o / y_o[None, :])
        w_full = orthogonal_completion(principal)
        defect = float(np.max(np.abs(w_full.T @ w_full - np.eye(q))))
        if defect > W_ORTHO_TOL:
            raise ClosureError(
                f"assembled completion not orthogonal (defect {defect:.3e})")
        W = {gauge: np.eye(q), other: (z_gt.T @ w_full @ z_ot).T}
        return OrthogonalFactors(W=W, residual=coupling_residual(E, H, W),
                                 iterations=0)

    W = _spectral_init(E, H, keys)
    spectral_sq = {k: np.linalg.norm(E[k], 2) ** 2 for k in keys}
    best = {k: W[k].copy() for k in keys}
    best_res = coupling_residual(E, H, W)
    for sweep in range(max_iter):
        if best_res <= tol:
            return OrthogonalFactors(W=best, residual=best_res, iterations=sweep)
        for j in keys[1:]:
            grad = np.zeros((q, q))
            lipschitz = 0.0
            for i in keys:
                if i == j:
                    continue
                other = E[i] @ W[i]
                defect = E[j] @ W[j] @ other.T - _get_target(H, i, j).T
                grad += 2.0 * E[j].T @ defect @ other
                lipschitz += 2.0 * spectral_sq[j] * spectral_sq[i]
            W[j] = _polar(W[j] - grad / lipschitz)
        res = coupling_residual(E, H, W)
        if res < best_res:
            best_res = res
            best = {k: W[k].copy() for k in keys}
    if best_res <= tol:
        return OrthogonalFactors(W=best, residual=best_res, iterations=max_iter)
    raise NonConvergenceError(
        f"orthogonal-factor solve stalled at residual {best_res:.3e} "
        f"after {max_iter} sweeps", best=best, residual=best_res)
