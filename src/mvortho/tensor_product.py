"""Exact recurrence matrices for tensor-product measures.

For a product measure the multivariate orthonormal polynomials are
products of univariate ones, so the recurrence matrices have an explicit
sparse form: each raising matrix carries one univariate width per row,
placed at the column of the incremented multi-index.  This construction
is the ground truth the iterative algorithms are tested against.
"""

from __future__ import annotations

import numpy as np

from .indexing import MultiIndexSet
from .recurrence import RecurrenceData
from .univariate import UnivariateRecurrence


def tensor_recurrence(uni_recs, index_set: MultiIndexSet, max_degree: int) -> RecurrenceData:
    """Recurrence matrices of the tensor-product orthonormal basis.

    Parameters
    ----------
    uni_recs : sequence of UnivariateRecurrence
        One per axis, each with coefficients through ``max_degree``.
    index_set : MultiIndexSet
        Supplies the basis ordering and the successor lookup.
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
    order = [np.array(index_set.level(0))]
    for n in range(max_degree):
        level = index_set.level(n)
        r_n = level.shape[0]
        r_next = index_set.r(n + 1)
        A_row, B_row = [], []
        for i in range(d):
            a_diag = np.array([uni_recs[i].a[level[k, i]] for k in range(r_n)])
            raising = np.zeros((r_n, r_next))
            for k in range(r_n):
                col = index_set.successor(n, k, i)
                raising[k, col] = uni_recs[i].b[level[k, i] + 1]
            A_row.append(np.diag(a_diag))
            B_row.append(raising)
        rec.A.append(A_row)
        rec.B.append(B_row)
        order.append(np.array(index_set.level(n + 1)))
    rec.max_degree = max_degree
    rec.index_order = order
    return rec


def canonical_reorder(rec: RecurrenceData, index_set: MultiIndexSet) -> RecurrenceData:
    """Permute each degree so the stacked raising Gram diagonal is
    non-increasing, yielding canonical-form matrices.

    For tensor-product matrices the raising Gram is exactly diagonal, so
    the transform is a pure permutation (no roundoff).  Ties keep the
    incoming order (stable sort).
    """
    out = rec.copy()
    perms = [np.arange(rec.r(n)) for n in range(rec.max_degree + 1)]
    lam: list = [None]
    for n in range(1, rec.max_degree + 1):
        diag = np.diag(rec.raising_gram(n)).copy()
        # Permutations of lower degrees change rows/cols but not the diagonal set.
        perms[n] = np.argsort(-diag, kind="stable")
        lam.append(diag[perms[n]])
    for n in range(1, rec.max_degree + 1):
        p_lo, p_hi = perms[n - 1], perms[n]
        out.A[n] = [rec.A[n][i][np.ix_(p_lo, p_lo)] for i in range(rec.d)]
        out.B[n] = [rec.B[n][i][np.ix_(p_lo, p_hi)] for i in range(rec.d)]
    out.lam = lam
    if rec.index_order is not None:
        out.index_order = [rec.index_order[n][perms[n]]
                           for n in range(rec.max_degree + 1)]
    return out
