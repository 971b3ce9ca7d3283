import numpy as np
import pytest

from mvortho.diagnostics import max_commuting_residual
from mvortho.evaluation import evaluate, to_canonical
from mvortho.indexing import MultiIndexSet
from mvortho.measures import tensor_jacobi
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import evaluate_univariate, jacobi_recurrence

from reference import rank_margins, symmetry_defect

JAC2 = ((3.80, 0.78), (7.34, 8.26))
JAC3 = ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))


def legendre_pair(max_degree):
    iset = MultiIndexSet.build(2, max_degree)
    unis = [jacobi_recurrence(max_degree, 0.0, 0.0)] * 2
    return unis, iset, tensor_recurrence(unis, iset, max_degree)


class TestTensorRecurrence:
    def test_first_degree_legendre_matrices(self):
        _, _, rec = legendre_pair(3)
        b = 1.0 / np.sqrt(3.0)
        assert np.allclose(rec.A[1][0], [[0.0]]) and np.allclose(rec.A[1][1], [[0.0]])
        assert np.allclose(rec.B[1][0], [[b, 0.0]], atol=1e-15)
        assert np.allclose(rec.B[1][1], [[0.0, b]], atol=1e-15)

    def test_legendre_centers_all_zero(self):
        _, _, rec = legendre_pair(6)
        for n in range(1, 7):
            for mat in rec.A[n]:
                assert np.max(np.abs(mat)) == 0.0

    def test_single_nonzero_per_raising_row(self):
        iset = MultiIndexSet.build(3, 5)
        unis = [jacobi_recurrence(5, a, b) for a, b in zip(*JAC3)]
        rec = tensor_recurrence(unis, iset, 5)
        for n in range(1, 6):
            for mat in rec.B[n]:
                assert np.all((mat != 0).sum(axis=1) == 1)

    def test_shapes(self):
        iset = MultiIndexSet.build(3, 4)
        unis = [jacobi_recurrence(4, a, b) for a, b in zip(*JAC3)]
        rec = tensor_recurrence(unis, iset, 4)
        rec.validate_shapes()


def stably_sorted(values):
    return values[np.argsort(-values, kind="stable")]


def assert_exact_permutation(raw, canon):
    """Every raising Gram of ``canon`` is exactly diagonal, ``lam[n]`` is
    raw's raising-Gram diagonal stably sorted non-increasing, bit for bit,
    and each matrix holds raw's entries, permuted."""
    for n in range(1, raw.max_degree + 1):
        gram = canon.raising_gram(n)
        assert np.array_equal(gram - np.diag(np.diag(gram)), np.zeros_like(gram))
        assert np.array_equal(np.diag(gram), canon.lam[n])
        assert np.array_equal(canon.lam[n],
                              stably_sorted(np.diag(raw.raising_gram(n))))
        for i in range(raw.d):
            for table in ("A", "B"):
                got, want = getattr(canon, table)[n][i], getattr(raw, table)[n][i]
                assert np.array_equal(np.sort(got, axis=None),
                                      np.sort(want, axis=None))


class TestCanonicalReorder:
    """``to_canonical`` on tensor-product data: an exact permutation."""

    def test_legendre_degree_one_diagonal(self):
        _, _, rec = legendre_pair(4)
        canon = to_canonical(rec)
        assert np.allclose(canon.lam[1], [1 / 3, 1 / 3], atol=1e-15)

    def test_diagonal_invariant_exact(self):
        iset = MultiIndexSet.build(2, 8)
        unis = [jacobi_recurrence(8, a, b) for a, b in zip(*JAC2)]
        raw = tensor_recurrence(unis, iset, 8)
        assert_exact_permutation(raw, to_canonical(raw))

    def test_idempotent(self):
        iset = MultiIndexSet.build(2, 6)
        unis = [jacobi_recurrence(6, a, b) for a, b in zip(*JAC2)]
        once = to_canonical(tensor_recurrence(unis, iset, 6))
        twice = to_canonical(once)
        for n in range(1, 7):
            for i in range(2):
                assert np.array_equal(once.B[n][i], twice.B[n][i])
                assert np.array_equal(once.A[n][i], twice.A[n][i])

    @pytest.mark.parametrize("d,n_max", [(2, 10), (3, 6)])
    def test_tied_axes_exact(self, d, n_max):
        # Identical Legendre axes tie lam; the tied rows come in LAPACK's
        # order, so a second pass may reorder them, but lam, the exact
        # diagonal and the permuted entries stay.
        iset = MultiIndexSet.build(d, n_max)
        raw = tensor_recurrence([jacobi_recurrence(n_max, 0.0, 0.0)] * d,
                                iset, n_max)
        once = to_canonical(raw)
        twice = to_canonical(once)
        assert any(np.any(np.diff(once.lam[n]) == 0)
                   for n in range(1, n_max + 1))
        assert_exact_permutation(raw, once)
        assert_exact_permutation(raw, twice)
        for n in range(1, n_max + 1):
            assert np.array_equal(once.lam[n], twice.lam[n])


class TestOracleValidity:
    @pytest.mark.parametrize("d,params,n_max", [(2, JAC2, 12), (3, JAC3, 8)])
    def test_three_matrix_conditions(self, d, params, n_max):
        iset = MultiIndexSet.build(d, n_max)
        unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*params)]
        canon = to_canonical(tensor_recurrence(unis, iset, n_max))
        assert symmetry_defect(canon) == 0.0
        per_coord, stacked = rank_margins(canon)
        assert per_coord > 1e-10 and stacked > 1e-10
        assert max_commuting_residual(canon) < 1e-12

    def test_evaluation_matches_explicit_products(self):
        # The JAC2 raising-Gram diagonal has distinct entries, so its
        # stable descending order labels each canonical row with its
        # multi-index, and each row of the evaluated block must equal the
        # corresponding univariate product (no sign slack needed).
        n_max = 6
        iset = MultiIndexSet.build(2, n_max)
        unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*JAC2)]
        raw = tensor_recurrence(unis, iset, n_max)
        canon = to_canonical(raw)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(40, 2))
        ev = evaluate(canon, pts, n_max)
        per_axis = [evaluate_univariate(unis[j], n_max, pts[:, j]) for j in range(2)]
        for n in range(n_max + 1):
            order = np.argsort(-np.diag(raw.raising_gram(n)), kind="stable")
            for k, alpha in enumerate(iset.level(n)[order]):
                explicit = per_axis[0][alpha[0]] * per_axis[1][alpha[1]]
                assert np.max(np.abs(ev.blocks[n][k] - explicit)) < 1e-11

    def test_spectrum_is_basis_invariant(self):
        # Eigenvalues of each stacked raising Gram must agree between the
        # raw tensor matrices and their canonical transform.
        iset = MultiIndexSet.build(2, 7)
        unis = [jacobi_recurrence(7, a, b) for a, b in zip(*JAC2)]
        raw = tensor_recurrence(unis, iset, 7)
        by_transform = to_canonical(raw)
        for n in range(1, 8):
            spectrum = np.linalg.eigvalsh(raw.raising_gram(n))[::-1]
            assert np.allclose(by_transform.lam[n], spectrum,
                               rtol=1e-12, atol=1e-14)

    def test_orthonormal_under_exact_measure(self):
        from mvortho.diagnostics import gram_error_streaming
        from mvortho.evaluation import evaluator
        n_max = 10
        iset = MultiIndexSet.build(2, n_max)
        unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*JAC2)]
        canon = to_canonical(tensor_recurrence(unis, iset, n_max))
        measure = tensor_jacobi(2, n_max + 2, *JAC2)
        report = gram_error_streaming(evaluator(canon), measure,
                                      iset.cumulative(n_max))
        assert report.max_abs < 1e-12
