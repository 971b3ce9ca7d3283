"""Reference quantities that only the tests compute."""

import json

import numpy as np

from mvortho.indexing import MultiIndexSet
from mvortho.measures import node_chunks
from mvortho.moment_method import GramData, _blocked_cholesky


def moment(measure, f_values, g_values) -> float:
    """sum_m w_m f(x_m) g(x_m) for sampled integrand values."""
    f = np.asarray(f_values, dtype=float).reshape(-1)
    g = np.asarray(g_values, dtype=float).reshape(-1)
    if f.shape[0] != measure.n_nodes or g.shape[0] != measure.n_nodes:
        raise ValueError("value arrays must match the node count")
    return float(np.sum(measure.weights * f * g))


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


def build_gram_reference(basis, measure) -> GramData:
    """``moment_method.build_gram`` with fresh arrays per chunk: the
    weighted values and each coordinate product are new temporaries.
    The two-buffer assembly must match it bit for bit."""
    size = basis.size
    gram = np.zeros((size, size))
    coord = [np.zeros((size, size)) for _ in range(basis.d)]
    nodes, w = measure.nodes, measure.weights
    for sl in node_chunks(measure.n_nodes):
        vals = basis.values(nodes[sl])
        weighted = vals * w[sl][None, :]
        gram += weighted @ vals.T
        for i in range(basis.d):
            coord[i] += (weighted * nodes[sl, i][None, :]) @ vals.T
    gram = 0.5 * (gram + gram.T)
    coord = [0.5 * (c + c.T) for c in coord]
    chol, chol_degree, failure_degree = _blocked_cholesky(gram, basis.index_set)
    return GramData(basis=basis, gram=gram, coordinate_grams=coord,
                    chol=chol, chol_degree=chol_degree,
                    failure_degree=failure_degree)
