"""Orthogonalization of a fixed spanning basis through its Gram matrix.

Two spanning bases are provided: raw monomials, and tensor-product
Legendre polynomials orthonormal on an axis-aligned bounding box of the
measure's nodes.  Orthonormal polynomials come from the inverse Cholesky
factor of the Gram matrix; recurrence matrices from row blocks of that
inverse applied to coordinate-weighted Grams.

This route is deliberately implemented without pivoting, equilibration,
or re-orthogonalization: its ill-conditioning at moderately large degree
is the behaviour the experiments measure, and masking it would defeat
the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lapack, measures
from .errors import ConditioningError
from .indexing import MultiIndexSet
from .lapack import solve_lower
from .measures import DiscreteMeasure
from .recurrence import RecurrenceData
from .univariate import evaluate_univariate, jacobi_recurrence

# ``build_gram`` cuts its Gram rows into two panels at a multiple of this.
PANEL_ROWS = 24


@dataclass(frozen=True)
class SpanningBasis:
    """Degree-graded spanning basis of the total-degree space.

    ``kind`` is "monomial" or "tensor-legendre"; the latter carries the
    per-axis ``bounding_box`` (d, 2) it is orthonormal on.  Functions are
    ordered by the index set: position (n, k) maps to stacked row
    R_{n-1} + k.
    """

    kind: str
    index_set: MultiIndexSet
    bounding_box: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.index_set.d

    @property
    def max_degree(self) -> int:
        return self.index_set.max_degree

    @property
    def size(self) -> int:
        return self.index_set.cumulative(self.max_degree)

    def values(self, points, out=None) -> np.ndarray:
        """Stacked basis values, shape (size, m), written into ``out``
        when it is given (a (size, m) float64 array, such as a column
        slice of a wider buffer) and returned.

        Each row is the product of its per-axis factors taken left to
        right, formed in its row of the result with no temporary, so
        the values are the same bits with or without ``out``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        n_max = self.max_degree
        if self.kind == "monomial":
            # Plain power products, degree by degree.
            per_axis = [_powers(pts[:, j], n_max) for j in range(self.d)]
        elif self.kind == "tensor-legendre":
            rec = jacobi_recurrence(n_max, 0.0, 0.0)
            per_axis = []
            for j in range(self.d):
                lo, hi = self.bounding_box[j]
                mapped = (2.0 * pts[:, j] - (lo + hi)) / (hi - lo)
                per_axis.append(evaluate_univariate(rec, n_max, mapped))
        else:
            raise ValueError(f"unknown spanning basis kind {self.kind!r}")
        if out is None:
            out = np.empty((self.size, pts.shape[0]))
        row = 0
        for n in range(n_max + 1):
            for alpha in self.index_set.level(n):
                dst = out[row]
                if self.d == 1:
                    dst[...] = per_axis[0][alpha[0]]
                else:
                    np.multiply(per_axis[0][alpha[0]], per_axis[1][alpha[1]],
                                out=dst)
                    for j in range(2, self.d):
                        np.multiply(dst, per_axis[j][alpha[j]], out=dst)
                row += 1
        return out


def _powers(x: np.ndarray, n_max: int) -> np.ndarray:
    """Rows x^0, ..., x^n_max of a C-contiguous (n_max + 1, m) array, with
    x^k = x^(k-1) * x: the products ``np.vander`` forms, so the same
    bits, but each row contiguous (a row of the transposed Vandermonde
    matrix strides across its columns)."""
    out = np.empty((n_max + 1, x.shape[0]))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(2, n_max + 1):
        np.multiply(out[k - 1], x, out=out[k])
    return out


def monomial_basis(index_set: MultiIndexSet) -> SpanningBasis:
    return SpanningBasis(kind="monomial", index_set=index_set)


def legendre_box_basis(index_set: MultiIndexSet, measure: DiscreteMeasure) -> SpanningBasis:
    """Tensor Legendre basis on the tightest axis-aligned box of the nodes."""
    box = np.stack([measure.nodes.min(axis=0), measure.nodes.max(axis=0)], axis=1)
    return SpanningBasis(kind="tensor-legendre", index_set=index_set,
                         bounding_box=box)


@dataclass
class GramData:
    """Gram matrices of a spanning basis and their block Cholesky factor.

    ``gram`` is (R_N, R_N); ``coordinate_grams[i]`` weights the product by
    x_i.  ``chol`` holds the lower factor of the largest leading block
    that is finite and numerically positive definite; ``chol_degree`` is
    that block's degree (N when factorization ran to completion) and
    ``failure_degree`` the first degree whose block failed, or None.
    """

    basis: SpanningBasis
    gram: np.ndarray
    coordinate_grams: list
    chol: np.ndarray
    chol_degree: int
    failure_degree: int | None = None

    @property
    def max_degree(self) -> int:
        return self.basis.max_degree


@lapack.one_thread()
def build_gram(basis: SpanningBasis, measure: DiscreteMeasure) -> GramData:
    """Assemble the Gram and coordinate-weighted Gram matrices and factor
    the Gram degree block by degree block, all on one BLAS thread, so
    the result depends on the basis and the measure alone.

    The Cholesky factorization stops at the first degree whose block is
    not finite (an overflowing Gram) or not numerically positive
    definite; that degree is recorded rather than raised here, since
    partial factorizations are a reported outcome of the experiments.

    The nodes are taken in chunks of ``measures.CHUNK`` in order, and
    the call holds two (size × chunk) buffers throughout: ``vals``, the
    basis values of a chunk, and ``work``, the weighted values w·v and
    then (w·v)·x_i.  The Gram rows are cut into two row panels, which
    ``measures.chunk_sum`` runs on its worker threads for each chunk: a
    panel forms its rows of ``work`` and adds each of the d + 1 products
    ``work[rows] @ vals.T`` into its rows of the Gram, in chunk order,
    forming ``work`` again for each coordinate rather than keeping it.
    Both panels read the shared ``vals``, and the last, narrower chunk
    uses column views of the buffers.

    The baselines' breakdown is what the experiments measure, so the
    bits must not move.  Stacking the products into one GEMM changes the
    bits BLAS returns, and so may cutting a product's rows: numpy's
    OpenBLAS (0.3.31) with its SkylakeX kernel returns a one-thread
    product cut into row blocks at multiples of 12 bit for bit as the
    uncut one, but not one cut at rows 64 or 116 of 231 (measured at
    sizes 171 to 820 and chunks of 97 to 65536 nodes; its Haswell, Zen
    and Sandybridge kernels kept the bits at every even cut tried).  So
    the cut is the multiple of ``PANEL_ROWS`` = 24 (a multiple of both
    12 and 8) nearest size / 2: it depends on the size alone, never on
    ``measures.WORKERS``.  There are two panels because each one packs
    ``vals`` for BLAS again: on ``hol`` mm N=20, M=1e5, four panels were
    slower than two on one worker and no faster on two.
    """
    d = basis.d
    size = basis.size
    gram = np.zeros((size, size))
    coord = [np.zeros((size, size)) for _ in range(d)]
    nodes, w = measure.nodes, measure.weights
    width = min(measures.CHUNK, measure.n_nodes)
    vbuf, wbuf = np.empty((size, width)), np.empty((size, width))
    cut = PANEL_ROWS * ((size + PANEL_ROWS) // (2 * PANEL_ROWS))
    panels = [slice(0, cut), slice(cut, size)]

    # Each panel reads the chunk's ``sl``, ``k`` and ``vals`` set below.
    def panel(rows):
        work = np.multiply(vals[rows], w[sl], out=wbuf[rows, :k])
        gram[rows] += work @ vals.T
        for i in range(d):
            if i:
                np.multiply(vals[rows], w[sl], out=work)
            work *= nodes[sl, i]
            coord[i][rows] += work @ vals.T
        return []

    for lo in range(0, measure.n_nodes, width):
        sl = slice(lo, min(lo + width, measure.n_nodes))
        k = sl.stop - lo
        vals = basis.values(nodes[sl], out=vbuf[:, :k])
        measures.chunk_sum(panel, panels, [])
    gram = 0.5 * (gram + gram.T)
    coord = [0.5 * (c + c.T) for c in coord]
    chol, chol_degree, failure_degree = _blocked_cholesky(gram, basis.index_set)
    return GramData(basis=basis, gram=gram, coordinate_grams=coord,
                    chol=chol, chol_degree=chol_degree,
                    failure_degree=failure_degree)


def _blocked_cholesky(gram: np.ndarray, index_set: MultiIndexSet):
    """Lower Cholesky factor built one degree block at a time, up to the
    first degree whose Schur block is not finite or not positive definite.

    Returns (L, last_ok_degree, failure_degree).  Leading blocks of L are
    the factors of the corresponding leading blocks of the Gram matrix.
    """
    size = gram.shape[0]
    chol = np.zeros((size, size))
    lo = 0
    for n in range(index_set.max_degree + 1):
        hi = index_set.cumulative(n)
        if lo > 0:
            off = solve_lower(chol[:lo, :lo], gram[:lo, lo:hi])
            chol[lo:hi, :lo] = off.T
            schur = gram[lo:hi, lo:hi] - off.T @ off
        else:
            schur = gram[lo:hi, lo:hi]
        try:
            # np.linalg.cholesky returns [[nan]] and [[inf]] unraised.
            if not np.all(np.isfinite(schur)):
                raise np.linalg.LinAlgError("Schur block not finite")
            block = np.linalg.cholesky(0.5 * (schur + schur.T))
        except np.linalg.LinAlgError:
            chol[lo:, :] = 0.0
            return chol, n - 1, n
        chol[lo:hi, lo:hi] = block
        lo = hi
    return chol, index_set.max_degree, None


def _factored_degree(gram: GramData, max_degree: int | None) -> int:
    """``max_degree`` (default: the basis degree) after checking it is
    factored; otherwise ConditioningError carrying the failure degree,
    the expected high-degree outcome for ill-conditioned Grams."""
    n_max = gram.max_degree if max_degree is None else max_degree
    if n_max > gram.chol_degree:
        raise ConditioningError("Gram matrix not positive definite",
                                degree=gram.failure_degree)
    return n_max


def orthonormal_evaluator(gram: GramData, max_degree: int | None = None):
    """Point-chunk closure evaluating the Cholesky-orthonormalized basis
    (for the streaming accumulators); see ``_factored_degree``.  Only the
    spanning functions up to that degree are evaluated.

    Each chunk is one ``lapack.solve_lower`` (LAPACK ``dtrtrs``), which
    copies the C-ordered values to Fortran order as scipy's
    ``solve_triangular`` does: the copy fixes the bits, so it stays.  The
    solve releases the GIL, so chunks on the ``measures.WORKERS`` threads
    of the Gram-error sweep run in parallel (``hol`` mm N=20, M=1e5, BLAS
    on one thread, 2-core host: 0.49 s on one thread, 0.26 s on two)."""
    basis = replace(gram.basis, index_set=MultiIndexSet.build(
        gram.basis.d, _factored_degree(gram, max_degree)))
    chol = gram.chol[:basis.size, :basis.size]

    def run(points_chunk):
        return solve_lower(chol, basis.values(points_chunk))

    return run


def extract_recurrence(gram: GramData, max_degree: int | None = None) -> RecurrenceData:
    """Recurrence matrices from the factored Gram data.

    With Linv the inverse Cholesky factor and taking the rows of Linv
    belonging to exact degree n,

        A_{n+1,i} = Ln_rows @ coordinate_gram_i @ Ln_rows^T
        B_{n+1,i} = Ln_rows @ coordinate_gram_i[:, :R_{n+1}] @ Lnp1_rows^T

    Raises ConditioningError when the factorization did not reach
    ``max_degree``.
    """
    iset = gram.basis.index_set
    n_max = _factored_degree(gram, max_degree)
    size = iset.cumulative(n_max)
    linv = solve_lower(gram.chol[:size, :size], np.eye(size))
    rec = RecurrenceData.start(iset.d)
    for n in range(n_max):
        lo_n, hi_n = (iset.cumulative(n - 1) if n else 0), iset.cumulative(n)
        lo_p, hi_p = hi_n, iset.cumulative(n + 1)
        rows_n = linv[lo_n:hi_n, :hi_n]
        rows_p = linv[lo_p:hi_p, :hi_p]
        A_row, B_row = [], []
        for i in range(iset.d):
            cg = gram.coordinate_grams[i]
            a_mat = rows_n @ cg[:hi_n, :hi_n] @ rows_n.T
            A_row.append(0.5 * (a_mat + a_mat.T))
            B_row.append(rows_n @ cg[:hi_n, :hi_p] @ rows_p.T)
        rec.A.append(A_row)
        rec.B.append(B_row)
    rec.max_degree = n_max
    return rec
