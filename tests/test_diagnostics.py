import numpy as np
import pytest

from mvortho import measures
from mvortho.diagnostics import (christoffel_streaming, commuting_residuals,
                                 condition_numbers, gram_condition_numbers,
                                 gram_error_streaming, max_commuting_residual)
from mvortho.errors import NumericalFailure
from mvortho.evaluation import evaluate, evaluator, to_canonical
from mvortho.indexing import MultiIndexSet
from mvortho.measures import square_minus_ball, tensor_jacobi
from mvortho.moment_method import (build_gram, monomial_basis,
                                   orthonormal_evaluator)
from mvortho.stieltjes import _mean_condition, stieltjes_recurrence
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import jacobi_recurrence

JAC2 = ((3.80, 0.78), (7.34, 8.26))


def oracle_setup(n_max=10):
    iset = MultiIndexSet.build(2, n_max)
    unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*JAC2)]
    canon = to_canonical(tensor_recurrence(unis, iset, n_max))
    measure = tensor_jacobi(2, n_max + 2, *JAC2)
    return iset, canon, measure


def constant(value):
    """Point-chunk closure of the single function ``value``."""
    return lambda pts: np.full((1, len(pts)), value)


def hol_evaluator(method, n_max=8):
    """A measure, the ``method`` evaluator built on it, and its size."""
    m = square_minus_ball(3000, 1)
    iset = MultiIndexSet.build(2, n_max)
    if method == "ms":
        run = evaluator(stieltjes_recurrence(m, n_max)[0])
    else:
        run = orthonormal_evaluator(build_gram(monomial_basis(iset), m))
    return m, run, iset.cumulative(n_max)


def counted(evaluate_chunk, calls):
    """``evaluate_chunk`` recording the size of every chunk it is given."""
    def run(pts):
        calls.append(len(pts))
        return evaluate_chunk(pts)
    return run


class TestGramError:
    def test_exactly_orthonormal_inputs(self):
        m = tensor_jacobi(2, 4, (0.0, 0.0), (0.0, 0.0))

        def linear(pts):
            return np.vstack([np.ones(len(pts)), np.sqrt(3) * pts[:, 0],
                              np.sqrt(3) * pts[:, 1]])

        report = gram_error_streaming(linear, m, 3)
        assert report.max_abs < 1e-14
        assert report.error_matrix.shape == (3, 3)

    def test_oracle_through_degree_ten(self):
        iset, canon, measure = oracle_setup(10)
        report = gram_error_streaming(evaluator(canon, 10), measure,
                                      iset.cumulative(10))
        assert report.max_abs <= 1e-12

    def test_unnormalized_constant(self):
        m = tensor_jacobi(2, 3, (0.0, 0.0), (0.0, 0.0))
        report = gram_error_streaming(constant(2.0), m, 1)
        assert report.error_matrix[0, 0] == pytest.approx(3.0, abs=1e-13)

    def test_error_matrix_symmetric(self):
        iset, canon, measure = oracle_setup(8)
        report = gram_error_streaming(evaluator(canon, 8), measure,
                                      iset.cumulative(8))
        assert np.max(np.abs(report.error_matrix - report.error_matrix.T)) < 1e-13

    def test_streaming_matches_direct(self, monkeypatch):
        iset, canon, measure = oracle_setup(6)
        size = iset.cumulative(6)
        one_calls, many_calls = [], []
        one = gram_error_streaming(counted(evaluator(canon, 6), one_calls),
                                   measure, size)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * size * 13)
        many = gram_error_streaming(counted(evaluator(canon, 6), many_calls),
                                    measure, size)
        assert one_calls == [measure.n_nodes]
        assert len(many_calls) > 1 and max(many_calls) == 13
        assert np.max(np.abs(one.error_matrix - many.error_matrix)) < 1e-13

    @pytest.mark.parametrize("stack_bytes", [None, 8 * 171 * 50])
    def test_ragged_panels_match_dense(self, monkeypatch, stack_bytes):
        # 171 basis rows, in one chunk or in 50-point chunks with a ragged
        # last one.
        iset, canon, measure = oracle_setup(17)
        size = iset.cumulative(17)
        assert size == 171
        if stack_bytes is not None:
            monkeypatch.setattr(measures, "STACK_BYTES", stack_bytes)
        report = gram_error_streaming(evaluator(canon, 17), measure, size)
        vals = evaluate(canon, measure.nodes, 17).stacked
        dense = (vals * measure.weights[None, :]) @ vals.T - np.eye(size)
        assert np.array_equal(report.error_matrix, report.error_matrix.T)
        assert np.max(np.abs(report.error_matrix - dense)) < 1e-13

    @pytest.mark.parametrize("method", ["ms", "mm"])
    def test_symmetric_product_matches_dense(self, monkeypatch, method):
        # The mm evaluator returns F-ordered blocks, the ms one C-ordered;
        # several chunks per sweep.
        m, run, size = hol_evaluator(method)
        vals = run(m.nodes)
        dense = (vals * m.weights[None, :]) @ vals.T - np.eye(size)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * size * 700)
        report = gram_error_streaming(run, m, size)
        assert np.array_equal(report.error_matrix, report.error_matrix.T)
        assert np.max(np.abs(report.error_matrix - dense)) < 1e-13


class TestCommutingResiduals:
    def test_oracle_residuals_tiny(self):
        _, canon, _ = oracle_setup(10)
        assert max_commuting_residual(canon) <= 1e-12

    def test_rows_cover_expected_range(self):
        _, canon, _ = oracle_setup(5)
        rows = commuting_residuals(canon)
        assert {(r[0]) for r in rows} == set(range(5))
        assert all(r[1] < r[2] for r in rows)

    def test_degree_zero_row_vacuous_parts(self):
        _, canon, _ = oracle_setup(3)
        row = commuting_residuals(canon)[0]
        assert row[0] == 0 and row[4] == 0.0 and row[5] == 0.0

    def test_perturbation_detected(self):
        _, canon, _ = oracle_setup(6)
        bad = canon.copy()
        bad.B[3][0][0, 0] += 1e-3
        assert max_commuting_residual(bad) >= 1e-5


class TestConditionNumbers:
    def test_identity_gram(self):
        assert condition_numbers([np.eye(4)])[0] == pytest.approx(1.0)

    def test_average_over_coordinates(self):
        got = condition_numbers([np.diag([4.0, 1.0]), np.diag([2.0, 1.0])])
        assert np.array_equal(got, [4.0, 2.0])
        # The mean over the diagonal (2 x 2) blocks of a residual Gram.
        t = np.diag([4.0, 1.0, 2.0, 1.0])
        t[0, 3] = t[3, 0] = 1e3
        assert _mean_condition(t, 2) == pytest.approx(3.0)

    def test_singular_reports_infinity(self):
        got = condition_numbers([np.diag([1.0, 0.0])])
        assert np.isinf(got[0])

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_reports_infinity(self, entry):
        # An overflowing Gram: numpy's SVD returns NaN for inf entries and
        # raises LinAlgError for NaN ones.
        mat = np.eye(3)
        mat[1, 2] = entry
        got = condition_numbers([np.eye(2), mat, np.array([[entry]])])
        assert got[0] == 1.0 and np.all(np.isposinf(got[1:]))

    def test_monomial_gram_growth_is_monotone(self):
        from mvortho.moment_method import build_gram, monomial_basis
        n_max = 10
        iset = MultiIndexSet.build(2, n_max)
        m = tensor_jacobi(2, n_max + 2, (0.0, 0.0), (0.0, 0.0))
        gram = build_gram(monomial_basis(iset), m)
        conds = gram_condition_numbers(
            gram.gram, [iset.cumulative(n) for n in range(n_max + 1)])
        assert np.all(np.diff(conds) > 0)


class TestChristoffel:
    def test_degree_zero_kernel_is_one(self):
        m = tensor_jacobi(2, 3, (0.0, 0.0), (0.0, 0.0))
        kernel, lam = christoffel_streaming(constant(1.0), m.nodes, 1)
        assert np.allclose(kernel, 1.0) and np.allclose(lam, 1.0)

    def test_kernel_integrates_to_one(self):
        iset, canon, measure = oracle_setup(10)
        kernel, _ = christoffel_streaming(evaluator(canon, 10), measure.nodes,
                                          iset.cumulative(10))
        assert np.sum(measure.weights * kernel) == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_relation(self):
        iset, canon, measure = oracle_setup(5)
        kernel, lam = christoffel_streaming(evaluator(canon, 5), measure.nodes,
                                            iset.cumulative(5))
        assert np.allclose(kernel * lam, 1.0, atol=1e-13)

    def test_breakdown_on_nonpositive(self):
        with pytest.raises(NumericalFailure):
            christoffel_streaming(constant(0.0), np.zeros((3, 2)), 1)

    def test_streaming_matches_direct(self, monkeypatch):
        iset, canon, measure = oracle_setup(6)
        size = iset.cumulative(6)
        one_calls, many_calls = [], []
        one, _ = christoffel_streaming(counted(evaluator(canon, 6), one_calls),
                                       measure.nodes, size)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * size * 9)
        many, _ = christoffel_streaming(
            counted(evaluator(canon, 6), many_calls), measure.nodes, size)
        assert one_calls == [measure.n_nodes]
        assert len(many_calls) > 1 and max(many_calls) == 9
        # The one-GEMM evaluation rounds the last bits differently per
        # chunk width, so the kernel matches to a few ulp, not exactly.
        assert np.max(np.abs(one - many) / one) < 1e-14


class TestKernelInGramErrorSweep:
    @pytest.mark.parametrize("method", ["ms", "mm"])
    def test_matches_christoffel_at_strided_nodes(self, monkeypatch, method):
        m, run, size = hol_evaluator(method)
        # Chunks of 700 nodes, not a multiple of the stride.
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * size * 700)
        plain = gram_error_streaming(run, m, size)
        fused = gram_error_streaming(run, m, size, kernel_stride=9)
        want, _ = christoffel_streaming(run, m.nodes[::9], size)
        assert plain.kernel is None
        assert np.array_equal(fused.error_matrix, plain.error_matrix)
        assert fused.kernel.shape == want.shape
        if method == "mm":
            assert np.array_equal(fused.kernel, want)
        else:
            # The recurrence evaluator's GEMM rounds per chunk width.
            assert np.max(np.abs(fused.kernel - want) / want) < 1e-13

    def test_identical_at_any_worker_count(self, monkeypatch):
        m, run, size = hol_evaluator("ms")
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * size * 300)
        kernels = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(measures, "WORKERS", workers)
            kernels.append(gram_error_streaming(run, m, size,
                                                kernel_stride=7).kernel)
        assert kernels[1].tobytes() == kernels[0].tobytes()
        assert kernels[2].tobytes() == kernels[0].tobytes()

    def test_breakdown_on_nonpositive(self):
        m = tensor_jacobi(2, 3, (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(NumericalFailure):
            gram_error_streaming(constant(0.0), m, 1, kernel_stride=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_breakdown_on_nonfinite(self, value):
        m = tensor_jacobi(2, 3, (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(NumericalFailure, match="not finite and positive"):
            gram_error_streaming(constant(value), m, 1, kernel_stride=2)

    def test_christoffel_rejects_nan_from_overflow(self, monkeypatch):
        # At 1e30 the degree-20 recurrence overflows, and inf - inf in
        # its evaluation gives a NaN kernel value, which NaN's false
        # comparisons would let through a plain ``<= 0`` test.  The
        # caller's error state holds on the pool threads too, where an
        # overflow warning would otherwise be raised as an error.
        rec, _ = stieltjes_recurrence(square_minus_ball(3000, 1), 20)
        for workers in (1, 2):
            monkeypatch.setattr(measures, "WORKERS", workers)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalFailure, match="not finite"):
                    christoffel_streaming(evaluator(rec),
                                          [[1e30, 0.0], [0.5, 0.9]], 231)
