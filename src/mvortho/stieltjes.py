"""Degree-by-degree recurrence matrices from moments of the running basis.

Instead of orthogonalizing a fixed spanning set, the algorithm assumes
the recurrence matrices through degree n are known, evaluates the
orthonormal basis with them, forms two families of moment matrices, and
recovers the degree-(n+1) matrices from factorizations of those moments:

* coordinate moments of the current block give the symmetric A matrices
  directly (Lanczos-ordered: the known lowering term is subtracted with
  the measured overlap of the two previous blocks, an extension of the
  paper; see ``_centers``);
* the Gram of the *residual* polynomials (coordinate-shifted blocks with
  their known lower-degree parts removed) equals B B^T, so an
  eigen-decomposition yields the left factor and singular values of each
  raising matrix;
* mixed residual Grams determine the upper blocks of the right singular
  factors, and the remaining rows come from a kernel argument plus one
  coupled orthogonal-factor solve (``wopp`` module, one
  eigendecomposition; for d = 2 a single coordinate, the gauge alone,
  and for d = 1 none).

Degree 1 needs no kernel argument: p_0 is a constant, so the whole
residual Gram is S S^T for the stacked raising rows S, and its
eigen-factors give one such S.  After every degree the new
matrices are rotated into canonical form, which removes the rotation the
factorizations leave free, so the next block can be evaluated through
the diagonal identity.

The same steps serve every d >= 1; in d = 1 they are the classical
Stieltjes procedure.  There every residual Gram is 1 x 1, so no rank
test can see a measure run out of nodes: too few nodes for the requested
degree are refused before any sweep, in every d.

A degree takes two node sweeps.  The residual pass forms the residual
Grams; the block-evaluation sweep evaluates the committed block, its Gram
drift, and the coordinate moments of that block, which give the next
degree's centers (only degree 0's centers take a sweep of their own,
``coordinate_moment``).  Both sweeps start each chunk from the shifted
stack S = [x_1 p_n; ...; x_d p_n; p_n; p_{n-1}] (``shifted_stack``), so
each stage is one GEMM: the step matrix times S for the new block, the
stacked centers and lowering matrices times the tail of S for the
residuals.  As in the classical Stieltjes procedure, p_{-1} = 0: an
empty block, with d empty lowering matrices B_{0,i}
(``RecurrenceData.start``), so degree 0 runs the same code as every later
degree.  A sweep is a sum of per-chunk partial sums over slices of at most
``measures.STACK_BYTES`` of values, computed on ``measures.WORKERS``
threads and added in chunk order by ``measures.chunk_sum``, all on one
BLAS thread (``lapack.one_thread``).  The recurrence therefore depends on
``STACK_BYTES`` (the summation order), not on the worker count or any
BLAS variable.

One loop body serves every degree n = 0..N: the residual pass, then
degree n's ``DegreeHealth`` record (its condition number, plus the
drift, completion defect and closure residual the previous iteration
returned), then, unless n = N, the closure and block evaluation of
degree n + 1 (``_advance``).  Degree N's conditioning is the loop's last
iteration, and a run reports one health record per degree.

Every moment the algorithm takes is a weighted Gram <f, g> =
sum_k w_k f(x_k) g(x_k), so the blocks are kept half-weighted: the
buffers hold q_n = sqrt(w) * p_n, node by node.  The shifted stack and
the step GEMM are linear per node, so they carry q_n to q_{n+1}
unchanged, and every moment is an unweighted product: <p_n, p_n> is the
symmetric q_n q_n^T (one BLAS ``syrk``, half the flops of a general
product, exactly symmetric), and no chunk writes a weighted copy.

The recurrence needs only the two newest blocks, so a run holds two
(r_N x M) buffers, N the requested degree: block k is the row view
``[:r_k]`` of buffer k mod 2 (r_{-1} = 0), and the block evaluation
writes p_{n+1} over p_{n-1}, chunk by chunk, after each chunk has copied
its own p_{n-1} columns into its shifted stack.  Rows a block never
reaches are never written, so resident memory grows with the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
from .diagnostics import condition_numbers
from .errors import DegenerateMeasureError, NumericalFailure, require_rank
from .evaluation import (_next_block, canonical_rotation, descending_eigh,
                         fix_column_signs, shifted_stack, step_matrix)
from .measures import DiscreteMeasure, chunk_sum, node_slices
from .recurrence import RecurrenceData
from .wopp import scaled_cross, solve_orthogonal_factors


@dataclass
class StieltjesState:
    """Algorithm state after committing degree ``degree``.

    ``recurrence`` holds canonical matrices through ``degree``;
    ``values_cur``/``values_prev`` are the half-weighted degree blocks
    sqrt(w_k) p(x_k) of basis values over the measure's nodes, consistent
    with those matrices;
    ``centers`` holds the A matrices of degree ``degree`` + 1, formed in
    the sweep that evaluated ``values_cur`` (None until then).

    ``buffers`` are the two (r_N x M) arrays the blocks live in: block k
    is the row view ``buffers[k % 2][:r_k]``, so ``values_cur`` and
    ``values_prev`` are views into different buffers, and the next block
    is written over ``values_prev`` (``_evaluate_committed_degree``).
    At degree 0, ``values_prev`` is p_{-1} = 0, the empty (0 x M) view
    ``buffers[1][:0]``.
    A sweep that fails leaves ``values_prev`` partly overwritten, so a
    state is not resumed after an exception.
    """

    measure: DiscreteMeasure
    recurrence: RecurrenceData
    values_cur: np.ndarray
    values_prev: np.ndarray
    degree: int
    buffers: tuple
    centers: list | None = None

    @classmethod
    def start(cls, measure: DiscreteMeasure, max_degree: int) -> StieltjesState:
        """Degree-0 state with buffers deep enough for ``max_degree``:
        q_0 = sqrt(w) / sqrt(total mass), the half-weighted constant
        p_0, in ``buffers[0][:1]``, and the empty p_{-1}."""
        rec = RecurrenceData.start(measure.d)
        rec.lam = [None]
        buffers = tuple(np.empty((rec.r(max_degree), measure.n_nodes))
                        for _ in range(2))
        q0 = buffers[0][:1]
        np.divide(np.sqrt(measure.weights), np.sqrt(measure.total_mass),
                  out=q0[0])
        return cls(measure=measure, recurrence=rec, values_cur=q0,
                   values_prev=buffers[1][:0], degree=0, buffers=buffers)


@dataclass(frozen=True)
class DegreeHealth:
    """Health of degree n of a run.

    ``condition`` averages the condition numbers of the symmetric
    residual Grams formed at degree n; ``drift`` bounds the
    orthonormality defect of the block p_n; ``completion_defect`` is
    max |R^T R - I| over the assembled right factors R of degree n, and
    ``closure_residual`` the coupling residual of the orthogonal-factor
    solve that closed it.  Degree 0 has no drift, and degrees 0 and 1
    (factored from the whole residual Gram) neither defect nor residual:
    those fields are None.
    """

    degree: int
    condition: float
    drift: float | None = None
    completion_defect: float | None = None
    closure_residual: float | None = None


def coordinate_moment(state: StieltjesState) -> list:
    """Center matrices A_{n+1,i} of every coordinate, in one node sweep.

    The block-evaluation sweep of each degree forms the next centers from
    the same moments (``_center_moments``, ``_centers``); this standalone
    sweep serves degree 0, before any block has been evaluated.
    """
    nodes = state.measure.nodes

    def chunk(sl):
        return _center_moments(nodes[sl], state.values_cur[:, sl],
                               state.values_prev[:, sl])

    r = state.values_cur.shape[0]
    d = state.measure.d
    slices = node_slices(state.measure.n_nodes, (d + 1) * r)
    moments = chunk_sum(chunk, slices,
                        _center_accumulators(d, r, state.values_prev.shape[0]))
    return _centers(moments, state.recurrence.B[state.degree])


def _center_moments(pts: np.ndarray, q: np.ndarray,
                    q_prev: np.ndarray) -> list:
    """One chunk's share of the moments the centers come from, from the
    half-weighted blocks ``q`` and ``q_prev``: the Gram <p, p> = q q^T
    (symmetric product), the stacked [<x_1 p, p>; ...; <x_d p, p>]
    = [x_1 q; ...; x_d q] q^T (one GEMM) and the overlap
    <p, p_prev> = q q_prev^T."""
    r = q.shape[0]
    shifted = np.empty((pts.shape[1] * r, pts.shape[0]))
    for i in range(pts.shape[1]):
        np.multiply(pts[:, i][None, :], q, out=shifted[i * r:(i + 1) * r])
    return [q @ q.T, shifted @ q.T, q @ q_prev.T]


def _center_accumulators(d: int, r: int, r_prev: int) -> list:
    """Zeroed totals for the parts ``_center_moments`` returns."""
    return [np.zeros((r, r)), np.zeros((d * r, r)), np.zeros((r, r_prev))]


def _centers(moments: list, lowering: list) -> list:
    """Lanczos-ordered centers from the summed ``_center_moments``.

    A_{n+1,i} = sym<x_i p_n - B_{n,i}^T p_{n-1}, p_n>
              = sym(<x_i p_n, p_n> - B_{n,i}^T <p_n, p_{n-1}>^T),
    the lowering term subtracted with the measured overlap.  In exact
    arithmetic p_{n-1} is orthogonal to p_n and this equals the Stieltjes
    form sym<x_i p_n, p_n>; in floating point the ordering keeps the
    rounding-level overlap of p_{n-1} with p_n out of the centers, where
    it would feed a Gram drift that grows about tenfold every three
    degrees (Gautschi, *Orthogonal Polynomials: Computation and
    Approximation*, 2004, 2.2).  This ordering is an extension of the
    paper's algorithm.
    """
    stacked = moments[1]
    r = stacked.shape[1]
    out = []
    for i in range(stacked.shape[0] // r):
        x = stacked[i * r:(i + 1) * r] - lowering[i].T @ moments[2].T
        out.append(0.5 * (x + x.T))
    return out


def symmetric_factor(t_sym: np.ndarray, where: str = ""):
    """Left factor and singular values of a raising matrix from its
    symmetric residual Gram T = B B^T.

    Returns (U, s) with eigenvalues sorted non-increasing, s their square
    roots (negative eigenvalues clipped to 0), and U sign-fixed.  Raises
    RankDeficiencyError when s fails ``errors.require_rank``, that is when
    lam_min <= ``RANK_TOL``**2 * lam_max for the eigenvalues lam.
    """
    evals, vecs = descending_eigh(t_sym)
    s = np.sqrt(np.clip(evals, 0.0, None))
    require_rank(s[-1], s[0], f"residual Gram{where}")
    return vecs, s


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of the PSD part of the symmetrized ``mat``:
    negative eigenvalues are clipped to 0.

    An indefinite ``mat`` is not an error here: its square root is
    singular, and the rank test of the solve it feeds (``wopp._reduce``)
    fails at its degree.
    """
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]) @ vecs.T


def kernel_completion_basis(raising_prev_first: np.ndarray, u_j: np.ndarray,
                            s_j: np.ndarray, where: str = "") -> np.ndarray:
    """Orthonormal kernel basis constraining the unknown right-factor rows.

    The commuting conditions force those rows into the kernel of the wide
    K = B_{n,1} U_j Sigma_j, r_{n-1} x r_n with r_{n-1} <= r_n, whose full
    SVD leaves r_n - r_{n-1} kernel vectors.  Raises RankDeficiencyError
    when K fails ``require_rank``.
    """
    k_mat = raising_prev_first @ (u_j * s_j[None, :])
    _, svals, vt = np.linalg.svd(k_mat, full_matrices=True)
    require_rank(svals[-1], svals[0], f"kernel map{where}")
    return fix_column_signs(vt[svals.size:].T)


@lapack.one_thread()
def stieltjes_recurrence(measure: DiscreteMeasure, max_degree: int):
    """Compute canonical recurrence matrices through ``max_degree``.

    Parameters
    ----------
    measure : DiscreteMeasure
        In any dimension d >= 1.  Before any sweep its M nodes are
        checked to number at least R_N = C(N + d, d), N = ``max_degree``;
        other degeneracy fails a rank test at the degree where it shows.
    max_degree : int
        The last degree N whose matrices are computed, N >= 0.  The
        block sizes r_n follow from d (``RecurrenceData.r``).

    Returns
    -------
    (RecurrenceData, list of DegreeHealth)
        One health record per degree 0..max_degree, each from the same
        loop body: the residual pass of degree n gives its condition
        number, and, below max_degree, the closure and block evaluation
        of degree n + 1 give the next record's other fields.

    Raises
    ------
    ValueError
        For a negative ``max_degree``.
    DegenerateMeasureError
        For M < R_N, carrying the first degree n with R_n > M.
    NumericalFailure
        Carrying the degree n being computed when it failed, and the
        ``recurrence`` and ``health`` committed through degree n - 1.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    short = [n for n in range(max_degree + 1)
             if math.comb(n + measure.d, n) > measure.n_nodes]
    if short:
        raise DegenerateMeasureError(
            f"{measure.n_nodes} nodes carry no orthonormal basis",
            degree=short[0])

    state = StieltjesState.start(measure, max_degree)
    state.centers = coordinate_moment(state)
    health, found = [], ()
    for n in range(max_degree + 1):
        try:
            t = _moment_pass(state, state.centers)
            health.append(DegreeHealth(
                n, _mean_condition(t, state.values_cur.shape[0]), *found))
            if n < max_degree:
                found = _advance(state, t)
            del t  # not held while the next pass forms its successor
        except NumericalFailure as exc:
            exc.degree = n + 1
            exc.recurrence, exc.health = state.recurrence, health
            raise
    return state.recurrence, health


def _mean_condition(t: np.ndarray, r: int) -> float:
    """Condition number averaged over the symmetric residual Grams, the
    diagonal (r x r) blocks of the residual Gram ``t``."""
    return float(np.mean(condition_numbers(
        [t[k:k + r, k:k + r] for k in range(0, t.shape[0], r)])))


def _moment_pass(state: StieltjesState, centers):
    """Accumulate residual Grams in one node sweep.

    The coordinate-i residual x_i p_n - A_{n+1,i} p_n - B_{n,i}^T p_{n-1}
    (``centers`` holding the A matrices) equals B_{n+1,i} p_{n+1} in
    exact arithmetic.  Per chunk, one GEMM forms all d residuals of the
    half-weighted blocks from the shifted stack, and one symmetric
    product gives their whole (d r x d r) Gram T, exactly symmetric;
    block (i, j) of T is <res_i, res_j>.  Returns T.
    """
    d = state.measure.d
    r = state.values_cur.shape[0]
    nodes = state.measure.nodes
    lowering = state.recurrence.B[state.degree]
    shift = np.hstack([np.vstack(centers), np.vstack([b.T for b in lowering])])

    def chunk(sl):
        stack = shifted_stack(nodes[sl], state.values_cur[:, sl],
                              state.values_prev[:, sl])
        resid = shift @ stack[d * r:]
        np.subtract(stack[:d * r], resid, out=resid)
        return [resid @ resid.T]

    # The shifted stack and the residuals.
    rows = (2 * d + 1) * r + state.values_prev.shape[0]
    return chunk_sum(chunk, node_slices(state.measure.n_nodes, rows),
                     [np.zeros((d * r, d * r))])[0]


def _advance(state: StieltjesState, t: np.ndarray) -> tuple:
    """Compute, canonicalize, and commit the matrices of degree n+1,
    every closure from the residual Gram ``t`` of degree n's
    ``_moment_pass``.  Returns degree n+1's drift, completion defect and
    closure residual (None, None at degree 1)."""
    rec = state.recurrence
    d, n = state.measure.d, state.degree
    r_n = state.values_cur.shape[0]
    r_next = rec.r(n + 1)
    dr_n = r_n - rec.r(n - 1)
    dr_next = r_next - r_n

    centers = state.centers

    def block(i, j):
        return t[i * r_n:(i + 1) * r_n, j * r_n:(j + 1) * r_n]

    defect = residual = None
    if n == 0:
        # r_0 = 1: T is the d x d Gram S S^T of the stacked raising rows
        # S = [B_{1,1}; ...; B_{1,d}], so S = U Sigma from its factors.
        u, s = symmetric_factor(t)
        raisings = list((u * s[None, :])[:, None, :])
    else:
        left, sing = [], []
        for i in range(d):
            u_i, s_i = symmetric_factor(block(i, i),
                                        where=f" (coordinate {i})")
            left.append(u_i)
            sing.append(s_i)
        vhat = {j: scaled_cross(left[0], sing[0], block(0, j),
                                left[j], sing[j])
                for j in range(1, d)}
        psi, weight_blocks, targets = {}, {}, {}
        for j in range(1, d):
            psi[j] = kernel_completion_basis(rec.B[n][0], left[j], sing[j],
                                             where=f" (coordinate {j})")
            squared = np.eye(dr_n) - psi[j].T @ vhat[j].T @ vhat[j] @ psi[j]
            weight_blocks[j] = np.hstack(
                [psd_sqrt(squared), np.zeros((dr_n, dr_next - dr_n))])
        for i in range(1, d):
            for j in range(i + 1, d):
                targets[(i, j)] = psi[i].T @ (
                    scaled_cross(left[i], sing[i], block(i, j),
                                 left[j], sing[j])
                    - vhat[i].T @ vhat[j]) @ psi[j]
        solved = solve_orthogonal_factors(weight_blocks, targets)
        residual = solved.residual

        raisings = [np.hstack([left[0] * sing[0][None, :],
                               np.zeros((r_n, dr_next))])]
        defect = 0.0
        for j in range(1, d):
            rows = (psi[j] @ (weight_blocks[j] @ solved.W[j])).T
            right = np.vstack([vhat[j], rows])
            defect = max(defect,
                         float(np.max(np.abs(right.T @ right - np.eye(r_n)))))
            raisings.append((left[j] * sing[j][None, :]) @ right.T)

    _commit_degree(state, centers, raisings)
    return _evaluate_committed_degree(state), defect, residual


def _commit_degree(state: StieltjesState, centers, raisings):
    """Rotate the new degree into canonical form and append it."""
    rec = state.recurrence
    n = state.degree
    evals, vecs = canonical_rotation(sum(mat.T @ mat for mat in raisings), n + 1)
    rec.A.append(list(centers))
    rec.B.append([mat @ vecs for mat in raisings])
    rec.lam.append(evals)
    rec.max_degree = n + 1


def _evaluate_committed_degree(state: StieltjesState) -> float:
    """Evaluate the committed half-weighted block over all nodes in one
    sweep, over the buffer rows of p_{n-1}, forming the centers of the
    next degree from the same moments.  Returns the block's Gram drift."""
    measure = state.measure
    d, n = measure.d, state.degree
    r = state.values_cur.shape[0]
    r_next = state.recurrence.r(n + 1)
    step = step_matrix(state.recurrence, n)
    out = state.buffers[(n + 1) % 2][:r_next]

    def chunk(sl):
        # ``out`` holds p_{n-1}.  Each chunk copies its own p_{n-1}
        # columns into the shifted stack before the GEMM writes p_{n+1}
        # over them, chunks own disjoint columns, and ``chunk_sum`` lets
        # no chunk outlive an exception.  Nothing may read
        # ``values_prev[:, sl]`` after the GEMM: it is p_{n+1} by then.
        pts, p_cur = measure.nodes[sl], state.values_cur[:, sl]
        block = _next_block(step, pts, p_cur, state.values_prev[:, sl],
                            out=out[:, sl])
        return _center_moments(pts, block, p_cur)

    # The shifted stack, the new block and its coordinate stack.
    rows = step.shape[1] + (d + 1) * r_next
    moments = chunk_sum(chunk, node_slices(measure.n_nodes, rows),
                        _center_accumulators(d, r_next, r))
    drift = max(float(np.max(np.abs(moments[0] - np.eye(r_next)))),
                float(np.max(np.abs(moments[2]))))
    state.centers = _centers(moments, state.recurrence.B[n + 1])
    state.values_prev = state.values_cur
    state.values_cur = out
    state.degree = n + 1
    return drift
