"""Reference quantities that only the tests compute."""

import json

import numpy as np

from mvortho.indexing import MultiIndexSet


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
