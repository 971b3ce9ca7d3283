"""Orthogonalization of a fixed spanning basis through its Gram matrix.

Two spanning bases are provided: raw monomials, and tensor-product
Legendre polynomials orthonormal on an axis-aligned bounding box of the
measure's nodes.  Orthonormal polynomials come from the inverse Cholesky
factor of the Gram matrix; recurrence matrices from row blocks of that
inverse applied to coordinate-weighted Grams, which the basis's own
multiplication rule reads off the Gram.

This route is deliberately implemented without pivoting, equilibration,
or re-orthogonalization: its ill-conditioning at moderately large degree
is the behaviour the experiments measure, and masking it would defeat
the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lapack, measures
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
        slice of a wider buffer) and returned: ``factors`` then
        ``products`` over every row, so the same bits as ``build_gram``
        forms for its Gram and ``orthonormal_evaluator`` for E."""
        factors = self.factors(points)
        if out is None:
            out = np.empty((self.size, factors[0].shape[1]))
        self.products(factors, slice(0, self.size), out)
        return out

    def factors(self, points, out=None) -> list:
        """Per-axis factors at the m points: for each axis j an
        (N + 1, m) array whose row a is axis j's degree-a function (x_j^a,
        or the degree-a Legendre polynomial of the box's axis j), written
        into consecutive row blocks of ``out`` (a (d (N + 1), m) float64
        array) when it is given, else each into an array of its own.  A
        box axis of zero width maps to its center, 0, so its degree-1
        function is zero rather than 0/0."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        n_max = self.max_degree
        blocks = [np.empty((n_max + 1, pts.shape[0])) if out is None
                  else out[j * (n_max + 1):(j + 1) * (n_max + 1)]
                  for j in range(self.d)]
        if self.kind == "monomial":
            # Plain power products, degree by degree.
            for j in range(self.d):
                _powers(pts[:, j], n_max, blocks[j])
        elif self.kind == "tensor-legendre":
            rec = jacobi_recurrence(n_max, 0.0, 0.0)
            for j in range(self.d):
                lo, hi = self.bounding_box[j]
                mapped = (np.zeros(pts.shape[0]) if hi == lo
                          else (2.0 * pts[:, j] - (lo + hi)) / (hi - lo))
                evaluate_univariate(rec, n_max, mapped, out=blocks[j])
        else:
            raise ValueError(f"unknown spanning basis kind {self.kind!r}")
        return blocks

    def multiplication(self, i: int, degree: int) -> np.ndarray:
        """The (R_{degree-1}, R_degree) matrix J with x_i f_a = sum_b
        J[a, b] f_b for every function f_a of degree at most degree - 1
        (no rows when degree is 0).

        For monomials J[a, a + e_i] = 1.  For the box Legendre basis, with
        x_i = mid + half t on box axis i and the Legendre recurrence
        t p_k = b_{k+1} p_{k+1} + a_{k+1} p_k + b_k p_{k-1}, row a holds
        mid + half a_{k+1} at a, half b_{k+1} at a + e_i and half b_k at
        a - e_i, k = a_i: a zero-width axis (half = 0) gives mid I."""
        exponents = np.concatenate(self.index_set.levels[:degree + 1])
        position = {tuple(alpha): r for r, alpha in enumerate(exponents)}
        if self.kind == "monomial":
            diag = down = np.zeros(degree)
            up = np.ones(degree)
        elif self.kind == "tensor-legendre":
            lo, hi = self.bounding_box[i]
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            rec = jacobi_recurrence(degree, 0.0, 0.0)
            diag = mid + half * rec.a
            up, down = half * rec.b[1:], half * rec.b[:-1]
        else:
            raise ValueError(f"unknown spanning basis kind {self.kind!r}")
        step = np.eye(self.d, dtype=np.int64)[i]
        rows = self.index_set.cumulative(degree - 1) if degree else 0
        jac = np.zeros((rows, len(exponents)))
        for r, alpha in enumerate(exponents[:rows]):
            k = alpha[i]
            jac[r, r] = diag[k]
            jac[r, position[tuple(alpha + step)]] = up[k]
            if k:
                jac[r, position[tuple(alpha - step)]] = down[k]
        return jac

    def products(self, factors, rows: slice, out) -> None:
        """Write the stacked values of ``rows`` into ``out`` (a
        (len(rows), m) array): each row is the product of its per-axis
        ``factors`` taken left to right, formed in its row of ``out``
        with no temporary."""
        exponents = np.concatenate(self.index_set.levels)[rows]
        for dst, alpha in zip(out, exponents, strict=True):
            if self.d == 1:
                dst[...] = factors[0][alpha[0]]
            else:
                np.multiply(factors[0][alpha[0]], factors[1][alpha[1]],
                            out=dst)
                for j in range(2, self.d):
                    np.multiply(dst, factors[j][alpha[j]], out=dst)


def _powers(x: np.ndarray, n_max: int, out: np.ndarray) -> None:
    """Rows x^0, ..., x^n_max written into ``out``, an (n_max + 1, m)
    array, with x^k = x^(k-1) * x: the products ``np.vander`` forms, so
    the same bits, but each row contiguous (a row of the transposed
    Vandermonde matrix strides across its columns)."""
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(2, n_max + 1):
        np.multiply(out[k - 1], x, out=out[k])


def monomial_basis(index_set: MultiIndexSet) -> SpanningBasis:
    return SpanningBasis(kind="monomial", index_set=index_set)


def legendre_box_basis(index_set: MultiIndexSet, measure: DiscreteMeasure) -> SpanningBasis:
    """Tensor Legendre basis on the tightest axis-aligned box of the nodes."""
    box = np.stack([measure.nodes.min(axis=0), measure.nodes.max(axis=0)], axis=1)
    return SpanningBasis(kind="tensor-legendre", index_set=index_set,
                         bounding_box=box)


@dataclass
class GramData:
    """Gram matrix of a spanning basis and the block Cholesky factor it
    reached.

    ``gram`` is (R_N, R_N).  ``failure_degree`` is the first degree whose
    block is not finite or not numerically positive definite, or None;
    ``chol`` is the C-contiguous lower factor of the leading block
    through ``usable_degree``, the degree before it (N when none failed),
    so (0, 0) when degree 0 failed.
    """

    basis: SpanningBasis
    gram: np.ndarray
    chol: np.ndarray
    failure_degree: int | None = None

    @property
    def usable_degree(self) -> int:
        if self.failure_degree is None:
            return self.basis.max_degree
        return self.failure_degree - 1


def _row_panels(extent: int) -> list:
    """The two row panels of a product over ``extent`` rows, cut at the
    multiple of ``PANEL_ROWS`` nearest extent / 2."""
    cut = PANEL_ROWS * ((extent + PANEL_ROWS) // (2 * PANEL_ROWS))
    return [slice(0, cut), slice(cut, extent)]


@lapack.one_thread()
def build_gram(basis: SpanningBasis, measure: DiscreteMeasure) -> GramData:
    """Assemble the Gram matrix in one pass over the nodes and factor it
    degree block by degree block, all on one BLAS thread, so the result
    depends on the basis and the measure alone.

    The Cholesky factorization stops at the first degree whose block is
    not finite (an overflowing Gram) or not numerically positive
    definite; that degree is recorded rather than raised here, since
    partial factorizations are a reported outcome of the experiments.
    The assembly and the factorization run under
    ``np.errstate(over="ignore", invalid="ignore")``, which
    ``measures.chunk_sum`` carries to its workers: an overflowing
    product is such a block, not a warning.

    The pass takes the nodes in chunks of ``measures.CHUNK`` in order,
    and the call holds two (R_N × chunk) buffers throughout: ``vals``,
    the basis values of a chunk, and ``work``, the weighted values w·v.
    It adds ``work[rows] @ vals.T`` into the Gram for each of two row
    panels, which ``measures.chunk_sum`` runs on its worker threads for
    each chunk: first each panel forms its rows of ``vals`` from the
    chunk's per-axis factors (``SpanningBasis.factors``, formed once and
    shared), then its rows of ``work`` and its product.  The last,
    narrower chunk uses column views of the buffers.  No
    coordinate-weighted Gram is assembled: ``extract_recurrence`` reads
    those moments off the Gram through ``SpanningBasis.multiplication``.

    The factors sit in the leading rows of ``work``, which no panel
    writes before its products, when they fit there (d (N + 1) ≤ R_N),
    so they add nothing to the call's high-water mark; but the first
    chunk forms them in arrays of their own, before ``work`` is touched,
    and drops them before its products.  (With none such, glibc's
    adaptive mmap threshold stays low, so the Gram-error sweep after the
    call takes every chunk's arrays as fresh mappings: about 0.04 s
    slower on ``hol`` mm N=20, M=1e5.)

    The baselines' breakdown is what the experiments measure, so the
    bits must not move.  Stacking the products into one GEMM changes the
    bits BLAS returns, and so may cutting a product's rows: numpy's
    OpenBLAS (0.3.31) with its SkylakeX kernel returns a one-thread
    product cut into row blocks at multiples of 12 bit for bit as the
    uncut one, but not one cut at rows 64 or 116 of 231 (measured at
    sizes 171 to 820 and chunks of 97 to 65536 nodes; its Haswell, Zen
    and Sandybridge kernels kept the bits at every even cut tried).  So
    the panel cut is a multiple of ``PANEL_ROWS`` = 24, the one nearest
    half the rows: it depends on the basis alone, never on
    ``measures.WORKERS``.  There are two panels because each one packs
    ``vals`` for BLAS again: on ``hol`` mm N=20, M=1e5, four panels were
    slower than two on one worker and no faster on two.
    """
    size = basis.size
    nodes, w = measure.nodes, measure.weights
    width = min(measures.CHUNK, measure.n_nodes)
    vbuf, wbuf = np.empty((size, width)), np.empty((size, width))
    panels = _row_panels(size)
    factor_rows = basis.d * (basis.max_degree + 1)
    gram = np.zeros((size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, measure.n_nodes, width):
            sl = slice(lo, min(lo + width, measure.n_nodes))
            k = sl.stop - lo
            vals = vbuf[:, :k]
            in_work = factor_rows <= size and lo > 0
            factors = basis.factors(
                nodes[sl], out=wbuf[:factor_rows, :k] if in_work else None)

            def form(rows):
                basis.products(factors, rows, vals[rows])
                return []

            def panel(rows):
                work = np.multiply(vals[rows], w[sl], out=wbuf[rows, :k])
                gram[rows] += work @ vals.T
                return []

            measures.chunk_sum(form, panels, [])
            del factors
            measures.chunk_sum(panel, panels, [])
        gram = 0.5 * (gram + gram.T)
        chol, failure_degree = _blocked_cholesky(gram, basis.index_set)
    return GramData(basis=basis, gram=gram, chol=chol,
                    failure_degree=failure_degree)


def _blocked_cholesky(gram: np.ndarray, index_set: MultiIndexSet):
    """Lower Cholesky factor built one degree block at a time, up to the
    first degree whose Schur block is not finite or not positive definite.

    Returns (L, failure_degree): L is the C-contiguous factor of the
    leading block through the degree before ``failure_degree`` (the
    whole Gram when that is None), and its leading blocks are the
    factors of the Gram's leading blocks.
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
            return chol[:lo, :lo].copy(), n
        chol[lo:hi, lo:hi] = block
        lo = hi
    return chol, None


def orthonormal_evaluator(gram: GramData):
    """Point-chunk closure evaluating the Cholesky-orthonormalized basis
    through ``gram.usable_degree`` (for the streaming accumulators): only
    the spanning functions up to that degree are evaluated.

    Each chunk is one ``lapack.solve_lower`` (LAPACK ``dtrtrs``), which
    copies the C-ordered values to Fortran order as scipy's
    ``solve_triangular`` does: the copy fixes the bits, so it stays.  The
    solve releases the GIL, so chunks on the ``measures.WORKERS`` threads
    of the Gram-error sweep run in parallel (``hol`` mm N=20, M=1e5, BLAS
    on one thread, 2-core host: 0.49 s on one thread, 0.26 s on two)."""
    basis = replace(gram.basis, index_set=MultiIndexSet.build(
        gram.basis.d, gram.usable_degree))

    def run(points_chunk):
        return solve_lower(gram.chol, basis.values(points_chunk))

    return run


def extract_recurrence(gram: GramData) -> RecurrenceData:
    """Recurrence matrices through u = ``gram.usable_degree`` from the
    factored Gram data.

    The coordinate-weighted Gram cg_i[a, b] = <x_i f_a, f_b>, for |a| < u
    and |b| <= u, is J_i @ G[:R_u, :R_u], J_i the basis's
    ``multiplication(i, u)``: only the Gram through degree u is read,
    which the factor has found finite.  With Linv the inverse Cholesky
    factor and taking the rows of Linv belonging to exact degree n,

        A_{n+1,i} = Ln_rows @ cg_i[:R_n, :R_n] @ Ln_rows^T   (symmetrized)
        B_{n+1,i} = Ln_rows @ cg_i[:R_n, :R_{n+1}] @ Lnp1_rows^T
    """
    iset = gram.basis.index_set
    n_max = gram.usable_degree
    linv = solve_lower(gram.chol, np.eye(len(gram.chol)))
    usable = gram.gram[:len(gram.chol), :len(gram.chol)]
    coordinate_grams = [gram.basis.multiplication(i, n_max) @ usable
                        for i in range(iset.d)]
    rec = RecurrenceData.start(iset.d)
    for n in range(n_max):
        lo_n, hi_n = (iset.cumulative(n - 1) if n else 0), iset.cumulative(n)
        lo_p, hi_p = hi_n, iset.cumulative(n + 1)
        rows_n = linv[lo_n:hi_n, :hi_n]
        rows_p = linv[lo_p:hi_p, :hi_p]
        A_row, B_row = [], []
        for i in range(iset.d):
            cg = coordinate_grams[i]
            a_mat = rows_n @ cg[:hi_n, :hi_n] @ rows_n.T
            A_row.append(0.5 * (a_mat + a_mat.T))
            B_row.append(rows_n @ cg[:hi_n, :hi_p] @ rows_p.T)
        rec.A.append(A_row)
        rec.B.append(B_row)
    rec.max_degree = n_max
    return rec
