"""Degree-by-degree recurrence matrices from moments of the running basis.

Instead of orthogonalizing a fixed spanning set, the algorithm assumes
the recurrence matrices through degree n are known, evaluates the
orthonormal basis with them, forms two families of moment matrices, and
recovers the degree-(n+1) matrices from factorizations of those moments:

* coordinate moments of the current block give the symmetric A matrices
  directly (Lanczos-ordered: the known lowering term is subtracted before
  the moment is taken, an extension of the paper; see
  ``coordinate_moment``);
* the Gram of the *residual* polynomials (coordinate-shifted blocks with
  their known lower-degree parts removed) equals B B^T, so an
  eigen-decomposition yields the left factor and singular values of each
  raising matrix;
* mixed residual Grams determine the upper blocks of the right singular
  factors, and the remaining rows come from orthonormality (d = 2) or,
  for every d >= 3, from a kernel argument plus one coupled
  orthogonal-factor solve (``wopp`` module), which is closed-form when
  only two coordinates are coupled (d = 3).

For d > 2 the degree-1 raising matrices fall back to the moment method,
whose tiny degree-1 Gram is well-conditioned.  After every degree the new
matrices are rotated into canonical form so the next block can be
evaluated through the diagonal identity.

Each moment family is one node sweep: per-chunk partial sums over slices
of at most ``measures.STACK_BYTES`` of values, computed on
``measures.WORKERS`` threads by ``measures.chunk_map`` and added in chunk
order.  The recurrence therefore depends on ``STACK_BYTES`` (the
summation order) but is bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import condition_numbers
from .errors import ClosureError, NumericalFailure, RankDeficiencyError
from .evaluation import (_next_block, canonical_rotation, descending_eigh,
                         fix_column_signs, fix_vector_sign)
from .indexing import MultiIndexSet
from .measures import DiscreteMeasure, chunk_map, node_chunks
from .recurrence import RecurrenceData
from . import moment_method
from .wopp import RANK_TOL, scaled_cross, solve_orthogonal_factors

PSD_CLIP = -1e-10         # most negative admissible eigenvalue of a PSD residual


@dataclass
class StieltjesState:
    """Algorithm state after committing degree ``degree``.

    ``recurrence`` holds canonical matrices through ``degree``;
    ``values_cur``/``values_prev`` are the degree blocks of basis values
    over the measure's nodes, consistent with those matrices.
    """

    measure: DiscreteMeasure
    index_set: MultiIndexSet
    recurrence: RecurrenceData
    values_cur: np.ndarray
    values_prev: np.ndarray | None
    degree: int


@dataclass
class StieltjesDiagnostics:
    """Per-run health metrics.

    ``t_condition[n]`` averages the condition numbers of the symmetric
    residual Grams formed at degree n; ``gram_drift[k]`` bounds the
    orthonormality defect of the block committed at degree k+1;
    ``completion_defect`` holds, per degree built from the residual
    factorizations, max |R^T R - I| over the assembled right factors R;
    ``closure_residual`` holds, per degree the orthogonal-factor solve
    closes (d >= 3), the coupling residual of its factors.
    """

    t_condition: list = field(default_factory=list)
    gram_drift: list = field(default_factory=list)
    completion_defect: list = field(default_factory=list)
    moment_fallbacks: int = 0
    closure_residual: list = field(default_factory=list)


def coordinate_moment(state: StieltjesState) -> list:
    """Center matrices A_{n+1,i} of every coordinate, in one node sweep.

    Lanczos-ordered: A_{n+1,i} = sym<x_i p_n - B_{n,i}^T p_{n-1}, p_n>,
    the lowering term subtracted before the moment is taken.  In exact
    arithmetic p_{n-1} is orthogonal to p_n and this equals the Stieltjes
    form sym<x_i p_n, p_n>; in floating point the ordering keeps the
    rounding-level overlap of p_{n-1} with p_n out of the centers, where
    it would feed a Gram drift that grows about tenfold every three
    degrees (Gautschi, *Orthogonal Polynomials: Computation and
    Approximation*, 2004, 2.2).  This ordering is an extension of the
    paper's algorithm.
    """
    d, n = state.measure.d, state.degree
    nodes, w = state.measure.nodes, state.measure.weights
    lowering = state.recurrence.B[n] if n >= 1 else None

    def chunk(sl):
        pc = state.values_cur[:, sl]
        weighted = pc * w[sl][None, :]
        parts = []
        for i in range(d):
            u = nodes[sl, i][None, :] * pc
            if lowering is not None:
                u -= lowering[i].T @ state.values_prev[:, sl]
            parts.append(u @ weighted.T)
        return parts

    r = state.values_cur.shape[0]
    acc = _sweep(state, 4 * r + _prev_rows(state), chunk,
                 [np.zeros((r, r)) for _ in range(d)])
    return [0.5 * (s + s.T) for s in acc]


def _prev_rows(state: StieltjesState) -> int:
    return 0 if state.values_prev is None else state.values_prev.shape[0]


def _sweep(state: StieltjesState, rows: int, chunk, acc: list) -> list:
    """Add the partial sums ``chunk(sl)`` returns for each node slice
    into the arrays of ``acc``, in slice order, and return ``acc``.

    ``rows`` counts the values per node the chunk holds at once; it sets
    the chunk size (``measures.node_chunks``) and so the summation order.
    """
    for parts in chunk_map(chunk, node_chunks(state.measure.n_nodes,
                                              rows=rows)):
        for total, part in zip(acc, parts):
            total += part
    return acc


def symmetric_factor(t_sym: np.ndarray, where: str = ""):
    """Left factor and singular values of a raising matrix from its
    symmetric residual Gram T = B B^T.

    Returns (U, s) with eigenvalues sorted non-increasing, s their square
    roots, and U sign-fixed.  Raises RankDeficiencyError when the
    smallest singular value falls below ``RANK_TOL`` times the largest.
    """
    evals, vecs = descending_eigh(t_sym)
    s = np.sqrt(np.clip(evals, 0.0, None))
    if s[-1] <= RANK_TOL * s[0]:
        raise RankDeficiencyError(
            f"residual Gram rank-deficient{where} "
            f"(singular value ratio {s[-1] / s[0] if s[0] else 0.0:.3e})")
    return vecs, s


def _psd_eigh(mat: np.ndarray, what: str):
    """Ascending eigenpairs of the symmetrized ``mat``; ClosureError when
    an eigenvalue falls below ``PSD_CLIP``."""
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    if evals[0] < PSD_CLIP:
        raise ClosureError(f"{what} not positive semi-definite "
                           f"(min eigenvalue {evals[0]:.3e})")
    return evals, vecs


def rank_one_completion(vhat: np.ndarray) -> np.ndarray:
    """Last right-factor row y for d = 2 from y y^T = I - vhat^T vhat.

    Takes the dominant eigenpair of the rank-1 residual; sign fixed
    deterministically (the recurrence is independent of it).  Raises
    ClosureError if the residual has an eigenvalue below ``PSD_CLIP``,
    which signals corrupted upstream moments.
    """
    evals, vecs = _psd_eigh(np.eye(vhat.shape[1]) - vhat.T @ vhat,
                            "orthonormality residual")
    top = max(evals[-1], 0.0)
    return fix_vector_sign(vecs[:, -1]) * np.sqrt(top)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, clipping roundoff-negative eigenvalues.

    Raises ClosureError for eigenvalues below ``PSD_CLIP``.
    """
    evals, vecs = _psd_eigh(mat, "matrix")
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]) @ vecs.T


def kernel_completion_basis(raising_prev_first: np.ndarray, u_j: np.ndarray,
                            s_j: np.ndarray, expected_dim: int) -> np.ndarray:
    """Orthonormal kernel basis constraining the unknown right-factor rows.

    The commuting conditions force those rows into the kernel of
    K = B_{n,1} U_j Sigma_j.  Raises RankDeficiencyError when the kernel
    dimension differs from ``expected_dim``.
    """
    k_mat = raising_prev_first @ (u_j * s_j[None, :])
    _, svals, vt = np.linalg.svd(k_mat, full_matrices=True)
    rank = int(np.sum(svals > RANK_TOL * svals[0])) if svals.size else 0
    if k_mat.shape[1] - rank != expected_dim:
        raise RankDeficiencyError(
            f"kernel dimension {k_mat.shape[1] - rank} != expected {expected_dim}")
    return fix_column_signs(vt[rank:].T)


def degree_one_from_moments(measure: DiscreteMeasure) -> list:
    """Degree-1 raising matrices via the moment method (d > 2 start).

    The affine-polynomial Gram is size d+1 and typically well-conditioned,
    so Cholesky-based extraction is safe exactly where the moment
    factorizations alone cannot pin down the right factors.
    """
    iset = MultiIndexSet.build(measure.d, 1)
    gram = moment_method.build_gram(moment_method.monomial_basis(iset), measure)
    if gram.failure_degree is not None:
        raise RankDeficiencyError(
            "measure degenerate on affine polynomials", degree=1)
    return moment_method.extract_recurrence(gram, 1).B[1]


def stieltjes_recurrence(measure: DiscreteMeasure, index_set: MultiIndexSet,
                         max_degree: int):
    """Compute canonical recurrence matrices through ``max_degree``.

    Parameters
    ----------
    measure : DiscreteMeasure
        Must be non-degenerate through degree 2 * max_degree + 1 and have
        d >= 2 (the univariate problem has its own classical method).
    index_set : MultiIndexSet
        Degree bookkeeping, at least as deep as ``max_degree``.

    Returns
    -------
    (RecurrenceData, StieltjesDiagnostics)
        The diagnostics' residual-Gram condition numbers cover degrees
        0..max_degree.

    Raises
    ------
    NumericalFailure
        Carrying the degree being computed when it failed.
    """
    d = measure.d
    if d < 2:
        raise ValueError("degree advancement requires d >= 2; "
                         "use the univariate routines for d = 1")
    if index_set.d != d:
        raise ValueError("index set dimension does not match the measure")
    if index_set.max_degree < max_degree:
        raise ValueError("index set shallower than requested degree")

    rec = RecurrenceData(d=d, max_degree=0, A=[None], B=[None], lam=[None])
    p0 = 1.0 / np.sqrt(measure.total_mass)
    state = StieltjesState(
        measure=measure, index_set=index_set, recurrence=rec,
        values_cur=np.full((1, measure.n_nodes), p0),
        values_prev=None, degree=0)
    diags = StieltjesDiagnostics()
    for n in range(max_degree):
        try:
            _advance(state, diags)
        except NumericalFailure as exc:
            exc.degree = n + 1
            raise
    centers = coordinate_moment(state)
    t_diag, _ = _moment_pass(state, centers, need_pairs=False)
    diags.t_condition.append(_mean_condition(t_diag))
    return state.recurrence, diags


def _mean_condition(t_diag) -> float:
    """Condition number averaged over the symmetric residual Grams."""
    return float(np.mean(condition_numbers(list(t_diag.values()))))


def _moment_pass(state: StieltjesState, centers, *, need_pairs=True):
    """Accumulate residual Grams in one node sweep.

    The coordinate-i residual x_i p_n - A_{n+1,i} p_n - B_{n,i}^T p_{n-1}
    (``centers`` holding the A matrices) equals B_{n+1,i} p_{n+1} in
    exact arithmetic.  Returns (diagonal blocks {(i,i): T} symmetrized,
    mixed blocks {(i,j): T, i<j}); mixed blocks are skipped when
    ``need_pairs`` is false.
    """
    d = state.measure.d
    n = state.degree
    r = state.values_cur.shape[0]
    pairs = [(i, j) for i in range(d) for j in range(i, d)
             if need_pairs or i == j]
    nodes, w = state.measure.nodes, state.measure.weights
    raising_prev = state.recurrence.B[n] if n >= 1 else None

    def chunk(sl):
        pc = state.values_cur[:, sl]
        resid = []
        for i in range(d):
            t = nodes[sl, i][None, :] * pc - centers[i] @ pc
            if raising_prev is not None:
                t -= raising_prev[i].T @ state.values_prev[:, sl]
            resid.append(t)
        return [(resid[i] * w[sl][None, :]) @ resid[j].T for i, j in pairs]

    acc = _sweep(state, (d + 2) * r + _prev_rows(state), chunk,
                 [np.zeros((r, r)) for _ in pairs])
    diag = {(i, j): 0.5 * (mat + mat.T)
            for (i, j), mat in zip(pairs, acc) if i == j}
    mixed = {(i, j): mat for (i, j), mat in zip(pairs, acc) if i != j}
    return diag, mixed


def _advance(state: StieltjesState, diags: StieltjesDiagnostics):
    """Compute, canonicalize, and commit the matrices of degree n+1."""
    measure, iset = state.measure, state.index_set
    d, n = measure.d, state.degree
    r_n = state.values_cur.shape[0]
    r_next = iset.r(n + 1)
    dr_n = r_n - iset.r(n - 1)
    dr_next = r_next - r_n

    centers = coordinate_moment(state)
    t_diag, t_mixed = _moment_pass(state, centers)
    diags.t_condition.append(_mean_condition(t_diag))

    if d > 2 and n == 0:
        raisings = degree_one_from_moments(measure)
        diags.moment_fallbacks += 1
    else:
        left, sing = [], []
        for i in range(d):
            u_i, s_i = symmetric_factor(t_diag[(i, i)],
                                        where=f" (coordinate {i})")
            left.append(u_i)
            sing.append(s_i)
        vhat = {j: scaled_cross(left[0], sing[0], t_mixed[(0, j)],
                                left[j], sing[j])
                for j in range(1, d)}
        rows = {}
        if d == 2:
            rows[1] = rank_one_completion(vhat[1])[None, :]
        else:
            psi, weight_blocks, targets = {}, {}, {}
            for j in range(1, d):
                psi[j] = kernel_completion_basis(state.recurrence.B[n][0],
                                                 left[j], sing[j], dr_n)
                block = np.eye(dr_n) - psi[j].T @ vhat[j].T @ vhat[j] @ psi[j]
                weight_blocks[j] = np.hstack(
                    [psd_sqrt(block), np.zeros((dr_n, dr_next - dr_n))])
            for i in range(1, d):
                for j in range(i + 1, d):
                    targets[(i, j)] = psi[i].T @ (
                        scaled_cross(left[i], sing[i], t_mixed[(i, j)],
                                     left[j], sing[j])
                        - vhat[i].T @ vhat[j]) @ psi[j]
            solved = solve_orthogonal_factors(weight_blocks, targets)
            diags.closure_residual.append(solved.residual)
            for j in range(1, d):
                rows[j] = (psi[j] @ (weight_blocks[j] @ solved.W[j])).T

        raisings = [np.hstack([left[0] * sing[0][None, :],
                               np.zeros((r_n, dr_next))])]
        defect = 0.0
        for j in range(1, d):
            right = np.vstack([vhat[j], rows[j]])
            defect = max(defect,
                         float(np.max(np.abs(right.T @ right - np.eye(r_n)))))
            raisings.append((left[j] * sing[j][None, :]) @ right.T)
        diags.completion_defect.append(defect)

    _commit_degree(state, centers, raisings)
    _evaluate_committed_degree(state, diags)


def _commit_degree(state: StieltjesState, centers, raisings):
    """Rotate the new degree into canonical form and append it."""
    rec = state.recurrence
    n = state.degree
    evals, vecs = canonical_rotation(sum(mat.T @ mat for mat in raisings), n + 1)
    rec.A.append([0.5 * (c + c.T) for c in centers])
    rec.B.append([mat @ vecs for mat in raisings])
    rec.lam.append(evals)
    rec.max_degree = n + 1


def _evaluate_committed_degree(state: StieltjesState,
                               diags: StieltjesDiagnostics):
    """Evaluate the committed block over all nodes in one sweep, tracking
    Gram drift."""
    measure = state.measure
    n = state.degree
    r = state.values_cur.shape[0]
    r_next = state.recurrence.r(n + 1)
    out = np.empty((r_next, measure.n_nodes))

    def chunk(sl):
        # Each chunk writes its own columns of ``out``.
        block = _next_block(state.recurrence, n, measure.nodes[sl],
                            state.values_cur[:, sl],
                            None if state.values_prev is None
                            else state.values_prev[:, sl], out=out[:, sl])
        weighted = block * measure.weights[sl][None, :]
        return weighted @ block.T, weighted @ state.values_cur[:, sl].T

    gram_new, gram_cross = _sweep(
        state, 2 * r_next + r + _prev_rows(state), chunk,
        [np.zeros((r_next, r_next)), np.zeros((r_next, r))])
    drift = max(float(np.max(np.abs(gram_new - np.eye(r_next)))),
                float(np.max(np.abs(gram_cross))))
    diags.gram_drift.append(drift)
    state.values_prev = state.values_cur
    state.values_cur = out
    state.degree = n + 1
