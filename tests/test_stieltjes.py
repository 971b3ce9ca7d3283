import numpy as np
import pytest

from mvortho import measures
from mvortho.diagnostics import gram_error_streaming, max_commuting_residual
from mvortho.errors import (ClosureError, NonConvergenceError,
                            RankDeficiencyError)
from mvortho.evaluation import evaluate, evaluator
from mvortho.indexing import MultiIndexSet
from mvortho.measures import annulus_measure, tensor_jacobi
from mvortho.recurrence import RecurrenceData
from mvortho.stieltjes import (StieltjesState, _moment_pass, coordinate_moment,
                               degree_one_from_moments,
                               kernel_completion_basis, psd_sqrt,
                               rank_one_completion, scaled_cross,
                               stieltjes_recurrence, symmetric_factor)
from mvortho.tensor_product import canonical_reorder, tensor_recurrence
from mvortho.univariate import jacobi_recurrence

JAC2 = ((3.80, 0.78), (7.34, 8.26))
JAC3 = ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))


def jacobi_oracle(d, params, n_max):
    iset = MultiIndexSet.build(d, n_max)
    unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*params)]
    return iset, canonical_reorder(tensor_recurrence(unis, iset, n_max), iset)


def fresh_state(measure, n_max):
    iset = MultiIndexSet.build(measure.d, n_max)
    rec = RecurrenceData(d=measure.d, max_degree=0, A=[None], B=[None], lam=[None])
    return StieltjesState(
        measure=measure, index_set=iset, recurrence=rec,
        values_cur=np.full((1, measure.n_nodes),
                           1.0 / np.sqrt(measure.total_mass)),
        values_prev=None, degree=0)


def residual_grams(state):
    """All residual Grams of ``state``'s degree, keyed by ordered pair,
    from the pass the algorithm runs (diagonal blocks symmetrized)."""
    centers = [coordinate_moment(state, i) for i in range(state.measure.d)]
    diag, mixed = _moment_pass(state, centers, need_pairs=True)
    out = dict(diag)
    for (i, j), mat in mixed.items():
        out[(i, j)], out[(j, i)] = mat, mat.T
    return out


class TestMomentBlocks:
    def test_degree_zero_coordinate_moment_vanishes_by_symmetry(self):
        m = tensor_jacobi(2, 6, (0.0, 0.0), (0.0, 0.0))
        state = fresh_state(m, 3)
        s = coordinate_moment(state, 0)
        assert s.shape == (1, 1) and abs(s[0, 0]) < 1e-15

    def test_legendre_all_centers_vanish(self):
        m = tensor_jacobi(2, 10, (0.0, 0.0), (0.0, 0.0))
        iset = MultiIndexSet.build(2, 6)
        rec, _ = stieltjes_recurrence(m, iset, 6)
        for n in range(1, 7):
            for mat in rec.A[n]:
                assert np.max(np.abs(mat)) < 1e-14

    def test_coordinate_moment_symmetric_exactly(self):
        m = annulus_measure(6, 24)
        state = fresh_state(m, 2)
        s = coordinate_moment(state, 1)
        assert np.array_equal(s, s.T)

    def test_residual_gram_uniform_square_degree_zero(self):
        m = tensor_jacobi(2, 6, (0.0, 0.0), (0.0, 0.0))
        state = fresh_state(m, 2)
        t = residual_grams(state)[(0, 0)]
        assert t[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_residual_gram_asymmetry_is_roundoff_only(self):
        m = tensor_jacobi(2, 10, *JAC2)
        iset = MultiIndexSet.build(2, 8)
        rec, _ = stieltjes_recurrence(m, iset, 4)
        state = fresh_state(m, 8)
        state.recurrence = rec
        ev = evaluate(rec, m.nodes, 4)
        state.values_cur, state.values_prev, state.degree = \
            ev.blocks[4], ev.blocks[3], 4
        # The pass returns the symmetrized Gram, so form the raw one here.
        center = coordinate_moment(state, 0)
        resid = (m.nodes[:, 0][None, :] * state.values_cur
                 - center @ state.values_cur
                 - rec.B[4][0].T @ state.values_prev)
        raw = (resid * m.weights[None, :]) @ resid.T
        assert np.max(np.abs(raw - raw.T)) < 1e-13

    def test_residual_gram_matches_raising_products(self):
        # T blocks equal B_{n+1,i} B_{n+1,j}^T for the oracle matrices.
        m = tensor_jacobi(2, 8, (0.0, 0.0), (0.0, 0.0))
        iset, oracle = jacobi_oracle(2, ((0.0, 0.0), (0.0, 0.0)), 5)
        ev = evaluate(oracle, m.nodes, 5)
        for n in range(1, 5):
            state = fresh_state(m, 5)
            state.recurrence = oracle
            state.values_cur = ev.blocks[n]
            state.values_prev = ev.blocks[n - 1]
            state.degree = n
            grams = residual_grams(state)
            for i in range(2):
                for j in range(2):
                    want = oracle.B[n + 1][i] @ oracle.B[n + 1][j].T
                    assert np.max(np.abs(grams[(i, j)] - want)) < 1e-12


class TestFactorizations:
    def test_identity_input(self):
        u, s = symmetric_factor(np.eye(4))
        assert np.array_equal(u, np.eye(4))
        assert np.allclose(s, 1.0)

    def test_scalar_case(self):
        u, s = symmetric_factor(np.array([[1.0 / 3.0]]))
        assert np.array_equal(u, np.array([[1.0]]))
        assert s[0] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        root = rng.standard_normal((5, 5))
        t = root @ root.T + 5 * np.eye(5)
        u, s = symmetric_factor(t)
        assert np.max(np.abs((u * s**2) @ u.T - t)) < 1e-12

    def test_rank_failure_raises(self):
        t = np.diag([1.0, 1e-25])
        with pytest.raises(RankDeficiencyError):
            symmetric_factor(t)

    def test_scaled_cross_identity_case(self):
        u = np.eye(3)
        s = np.array([2.0, 1.0, 0.5])
        t = np.diag(s) @ np.diag(s)
        assert np.allclose(scaled_cross(u, s, t, u, s), np.eye(3))


class TestCompletions:
    def test_rank_one_forced_direction(self):
        vhat = np.array([[0.0, 1.0], [0.0, 0.0]])  # I - vhat^T vhat = e1 e1^T
        y = rank_one_completion(vhat)
        assert np.allclose(y, [1.0, 0.0], atol=1e-14)

    def test_rank_one_indefinite_rejected(self):
        vhat = np.array([[1.2, 0.0], [0.0, 0.3]])
        with pytest.raises(ClosureError):
            rank_one_completion(vhat)

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(8)
        root = rng.standard_normal((4, 4))
        mat = root @ root.T
        s = psd_sqrt(mat)
        assert np.max(np.abs(s @ s - mat)) < 1e-12

    def test_psd_sqrt_clips_roundoff(self):
        mat = np.diag([1.0, -1e-12])
        s = psd_sqrt(mat)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-13)

    def test_kernel_completion_shapes_and_nullity(self):
        iset, oracle = jacobi_oracle(3, JAC3, 4)
        n = 2
        u, s = symmetric_factor(oracle.B[n + 1][1] @ oracle.B[n + 1][1].T)
        dr = iset.r(n) - iset.r(n - 1)
        psi = kernel_completion_basis(oracle.B[n][0], u, s, dr)
        k_mat = oracle.B[n][0] @ (u * s[None, :])
        assert psi.shape == (iset.r(n), dr)
        assert np.max(np.abs(k_mat @ psi)) < 1e-11
        assert np.max(np.abs(psi.T @ psi - np.eye(dr))) < 1e-12

    def test_kernel_dimension_mismatch_raises(self):
        iset, oracle = jacobi_oracle(3, JAC3, 4)
        u, s = symmetric_factor(oracle.B[3][1] @ oracle.B[3][1].T)
        with pytest.raises(RankDeficiencyError):
            kernel_completion_basis(oracle.B[2][0], u, s, expected_dim=1)


class TestDegreeOneFallback:
    def test_uniform_cube_spectra(self):
        m = tensor_jacobi(3, 4, (0, 0, 0), (0, 0, 0))
        raisings = degree_one_from_moments(m)
        gram = sum(b.T @ b for b in raisings)
        assert np.allclose(np.linalg.eigvalsh(gram), [1 / 3, 1 / 3, 1 / 3],
                           atol=1e-13)

    def test_each_raising_full_rank_one(self):
        m = tensor_jacobi(3, 4, *JAC3)
        for b in degree_one_from_moments(m):
            assert b.shape == (1, 3)
            assert np.linalg.norm(b) > 1e-8


class TestFullRuns:
    @pytest.mark.parametrize("d,params,n_max,rtol", [(2, JAC2, 20, 1e-10),
                                                     (3, JAC3, 8, 1e-8)])
    def test_matches_oracle_spectra(self, d, params, n_max, rtol):
        measure = tensor_jacobi(d, n_max + 2, *params)
        iset, oracle = jacobi_oracle(d, params, n_max)
        rec, diags = stieltjes_recurrence(measure, iset, n_max)
        for n in range(1, n_max + 1):
            assert np.allclose(np.sort(rec.lam[n]), np.sort(oracle.lam[n]),
                               rtol=rtol)
        assert max(diags.gram_drift) < 1e-10

    def test_rejects_univariate(self):
        x, w = np.linspace(-1, 1, 30)[:, None], np.full(30, 1 / 30)
        from mvortho.measures import DiscreteMeasure
        m = DiscreteMeasure(nodes=x, weights=w)
        with pytest.raises(ValueError):
            stieltjes_recurrence(m, MultiIndexSet.build(1, 3), 3)

    def test_d3_control_flow_counters(self):
        m = tensor_jacobi(3, 8, *JAC3)
        iset = MultiIndexSet.build(3, 6)
        _, diags = stieltjes_recurrence(m, iset, 6)
        assert diags.moment_fallbacks == 1
        assert len(diags.closure_residual) == 5  # every degree n = 1..5

    def test_annulus_beats_moment_method(self):
        n_max = 16
        m = annulus_measure(n_max + 2, 4 * n_max + 5)
        iset = MultiIndexSet.build(2, n_max)
        rec, _ = stieltjes_recurrence(m, iset, n_max)
        size = iset.cumulative(n_max)
        ms_err = gram_error_streaming(evaluator(rec, n_max), m, size).max_abs

        from mvortho.moment_method import (build_gram, monomial_basis,
                                           orthonormal_evaluator)
        gram = build_gram(monomial_basis(iset), m)
        mm_err = np.inf
        if gram.failure_degree is None:
            mm_err = gram_error_streaming(orthonormal_evaluator(gram), m,
                                          size).max_abs
        assert ms_err < 1e-10
        assert mm_err > 1e4 * ms_err

    def test_commuting_conditions_hold(self):
        m = tensor_jacobi(3, 9, *JAC3)
        iset = MultiIndexSet.build(3, 7)
        rec, _ = stieltjes_recurrence(m, iset, 7)
        assert max_commuting_residual(rec) < 1e-8

    def test_chunked_matches_unchunked(self, monkeypatch):
        m = tensor_jacobi(2, 10, *JAC2)
        iset = MultiIndexSet.build(2, 6)
        b, _ = stieltjes_recurrence(m, iset, 6)
        monkeypatch.setattr(measures, "CHUNK", 17)
        a, _ = stieltjes_recurrence(m, iset, 6)
        for n in range(1, 7):
            for i in range(2):
                assert np.allclose(a.B[n][i], b.B[n][i], atol=1e-12)

    def test_high_dim_matches_oracle(self):
        for d in (4, 5):
            params = ((0.0, 1.5, 0.5, 2.0, 1.0)[:d],
                      (0.0, 0.5, 3.0, 1.0, 2.5)[:d])
            m = tensor_jacobi(d, 6, *params)
            iset, oracle = jacobi_oracle(d, params, 4)
            rec, diags = stieltjes_recurrence(m, iset, 4)
            for n in range(1, 5):
                assert np.allclose(np.sort(rec.lam[n]), np.sort(oracle.lam[n]),
                                   rtol=1e-9), (d, n)
            assert max_commuting_residual(rec) < 1e-10, d
            assert len(diags.closure_residual) == 3, d  # every degree n = 2..4

    def test_high_dim_failure_carries_degree(self, monkeypatch):
        def stall(*args, **kwargs):
            raise NonConvergenceError("stalled")

        monkeypatch.setattr("mvortho.stieltjes.solve_orthogonal_factors", stall)
        m = tensor_jacobi(4, 6, (0, 0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(NonConvergenceError) as err:
            stieltjes_recurrence(m, MultiIndexSet.build(4, 4), 4)
        assert err.value.degree == 2

    def test_degenerate_measure_fails_with_degree(self):
        # 5 nodes cannot support the 6-dimensional quadratic space.
        rng = np.random.default_rng(0)
        from mvortho.measures import DiscreteMeasure
        m = DiscreteMeasure(nodes=rng.uniform(-1, 1, (5, 2)),
                            weights=np.full(5, 0.2))
        iset = MultiIndexSet.build(2, 3)
        with pytest.raises((RankDeficiencyError, ClosureError)) as err:
            stieltjes_recurrence(m, iset, 3)
        assert err.value.degree is not None

    def test_t_condition_length_covers_all_degrees(self):
        m = tensor_jacobi(2, 8, *JAC2)
        iset = MultiIndexSet.build(2, 5)
        _, diags = stieltjes_recurrence(m, iset, 5)
        assert len(diags.t_condition) == 6
