"""Reference quantities that only the tests compute."""

import json

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_triangular

from mvortho import lapack, measures
from mvortho.indexing import MultiIndexSet
from mvortho.moment_method import GramData, _blocked_cholesky


def moment(measure, f_values, g_values) -> float:
    """sum_m w_m f(x_m) g(x_m) for sampled integrand values."""
    f = np.asarray(f_values, dtype=float).reshape(-1)
    g = np.asarray(g_values, dtype=float).reshape(-1)
    if f.shape[0] != measure.n_nodes or g.shape[0] != measure.n_nodes:
        raise ValueError("value arrays must match the node count")
    return float(np.sum(measure.weights * f * g))


def circle_nodes(sigma: float, scale: float = 1.0, shift: float = 0.0,
                 n_nodes: int = 2000) -> np.ndarray:
    """Nodes near the unit circle: angles and radii 1 + sigma N(0, 1) from
    ``default_rng(0)``, rotated by the orthogonal factor of
    ``default_rng(3)``'s 2 x 2 normal matrix, then scaled and shifted by
    (shift, shift)."""
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    radii = 1.0 + sigma * rng.standard_normal(n_nodes)
    rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))
    circle = radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return scale * (circle @ rotation.T) + shift


def rank_margins(rec):
    """Smallest relative singular values certifying the rank conditions.

    Returns (per-coordinate margin, stacked margin): the minimum over
    degrees of sigma_min/sigma_max for each raising matrix and for the
    vertically stacked raising matrix.
    """
    per_coord = np.inf
    stacked = np.inf
    for n in range(1, rec.max_degree + 1):
        for mat in rec.B[n]:
            svals = np.linalg.svd(mat, compute_uv=False)
            per_coord = min(per_coord, float(svals[-1] / svals[0]))
        svals = np.linalg.svd(np.vstack(rec.B[n]), compute_uv=False)
        stacked = min(stacked, float(svals[-1] / svals[0]))
    return per_coord, stacked


def min_monomial_norm(measure, degree: int) -> float:
    """min over |alpha| <= degree of <x^alpha, x^alpha>.

    A positive value certifies non-degeneracy of the discrete measure on
    the total-degree space.
    """
    iset = MultiIndexSet.build(measure.d, degree)
    powers = [np.power(measure.nodes[:, j][None, :],
                       np.arange(2 * degree + 1)[:, None])
              for j in range(measure.d)]
    worst = np.inf
    for n in range(degree + 1):
        for alpha in iset.level(n):
            vals = np.ones(measure.n_nodes)
            for j in range(measure.d):
                vals = vals * powers[j][2 * int(alpha[j])]
            worst = min(worst, float(np.sum(measure.weights * vals)))
    return worst


def monomial_values(basis, points) -> np.ndarray:
    """Stacked monomial values from the rows of each axis's transposed
    ``np.vander``, each row its per-axis factors multiplied left to
    right: ``SpanningBasis.values`` must match bit for bit."""
    pts = np.asarray(points, dtype=float)
    n_max = basis.max_degree
    per_axis = [np.vander(pts[:, j], n_max + 1, increasing=True).T
                for j in range(basis.d)]
    rows = []
    for n in range(n_max + 1):
        for alpha in basis.index_set.level(n):
            row = per_axis[0][alpha[0]].copy()
            for j in range(1, basis.d):
                row = row * per_axis[j][alpha[j]]
            rows.append(row)
    return np.array(rows)


def symmetry_defect(rec) -> float:
    """Largest |A - A^T| entry over all stored degrees and coordinates."""
    worst = 0.0
    for n in range(1, rec.max_degree + 1):
        for mat in rec.A[n]:
            worst = max(worst, float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0)
    return worst


def recurrence_to_json(rec) -> str:
    """The recurrence JSON as the indented ``json`` encoder writes it:
    the reference ``serialization.recurrence_to_json`` must match byte
    for byte."""
    doc = {
        "format_version": 1,
        "d": rec.d,
        "N": rec.max_degree,
        "ordering": "graded-lex",
        "lambda_order": "non-increasing",
        "A": [[rec.A[n][i].tolist() for i in range(rec.d)]
              for n in range(1, rec.max_degree + 1)],
        "B": [[rec.B[n][i].tolist() for i in range(rec.d)]
              for n in range(1, rec.max_degree + 1)],
        "lambda": None if rec.lam is None
        else [rec.lam[n].tolist() for n in range(1, rec.max_degree + 1)],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@lapack.one_thread()
def build_gram_reference(basis, measure) -> GramData:
    """``moment_method.build_gram`` with fresh arrays per chunk and
    uncut products: the weighted values and each coordinate product are
    new temporaries, each multiplied whole on one BLAS thread.  The
    two-buffer assembly in row panels must match it bit for bit."""
    size = basis.size
    gram = np.zeros((size, size))
    coord = [np.zeros((size, size)) for _ in range(basis.d)]
    nodes, w = measure.nodes, measure.weights
    for lo in range(0, measure.n_nodes, measures.CHUNK):
        sl = slice(lo, lo + measures.CHUNK)
        vals = basis.values(nodes[sl])
        weighted = vals * w[sl][None, :]
        gram += weighted @ vals.T
        for i in range(basis.d):
            coord[i] += (weighted * nodes[sl, i][None, :]) @ vals.T
    gram = 0.5 * (gram + gram.T)
    coord = [0.5 * (c + c.T) for c in coord]
    chol, failure_degree = _blocked_cholesky(gram, basis.index_set)
    return GramData(basis=basis, gram=gram, coordinate_grams=coord,
                    chol=chol, failure_degree=failure_degree)


def scipy_eigh_tridiagonal(d, e):
    """scipy's Golub-Welsch eigensolve (``dstevd`` for the full
    spectrum): ``measures.gauss_jacobi_rule`` must give its bits."""
    return eigh_tridiagonal(d, e)


def scipy_solve_lower(factor, rhs):
    """scipy's lower triangular solve (``trtrs``): ``lapack.solve_lower``
    must match it bit for bit."""
    return solve_triangular(factor, rhs, lower=True, check_finite=False)
