"""Exact recurrence matrices for tensor-product measures.

For a product measure the multivariate orthonormal polynomials are
products of univariate ones, so the recurrence matrices have an explicit
sparse form: each raising matrix carries one univariate width per row,
placed at the column of the incremented multi-index.  This construction
is the ground truth the iterative algorithms are tested against; its
canonical form comes from ``evaluation.to_canonical``, which here is an
exact permutation.
"""

from __future__ import annotations

import numpy as np

from .indexing import MultiIndexSet
from .recurrence import RecurrenceData


def tensor_recurrence(uni_recs, index_set: MultiIndexSet, max_degree: int) -> RecurrenceData:
    """Recurrence matrices of the tensor-product orthonormal basis.

    Parameters
    ----------
    uni_recs : sequence of UnivariateRecurrence
        One per axis, each with coefficients through ``max_degree``.
    index_set : MultiIndexSet
        Supplies the basis ordering.
    max_degree : int
        Highest degree of produced matrices.
    """
    d = index_set.d
    if len(uni_recs) != d:
        raise ValueError(f"need {d} univariate recurrences, got {len(uni_recs)}")
    for rec in uni_recs:
        if rec.max_degree < max_degree:
            raise ValueError("univariate coefficients do not reach the requested degree")
    if max_degree > index_set.max_degree:
        raise ValueError("index set shallower than requested degree")

    rec = RecurrenceData.start(d)
    for n in range(max_degree):
        level = index_set.level(n)
        upper = index_set.level(n + 1)
        row_of = {tuple(alpha): k for k, alpha in enumerate(upper.tolist())}
        A_row, B_row = [], []
        for i in range(d):
            raising = np.zeros((level.shape[0], upper.shape[0]))
            for k, alpha in enumerate(level.tolist()):
                alpha[i] += 1
                raising[k, row_of[tuple(alpha)]] = uni_recs[i].b[alpha[i]]
            A_row.append(np.diag(uni_recs[i].a[level[:, i]]))
            B_row.append(raising)
        rec.A.append(A_row)
        rec.B.append(B_row)
    rec.max_degree = max_degree
    return rec
