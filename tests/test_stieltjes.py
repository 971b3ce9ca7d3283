import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mvortho import errors, measures, stieltjes, wopp
from mvortho.diagnostics import (condition_numbers, gram_error_streaming,
                                 max_commuting_residual)
from mvortho.errors import (DegenerateMeasureError, NonConvergenceError,
                            RankDeficiencyError)
from mvortho.evaluation import (canonical_rotation, evaluate, evaluator,
                                step_matrix, to_canonical)
from mvortho.indexing import MultiIndexSet
from mvortho.measures import (DiscreteMeasure, annulus_measure,
                              square_minus_ball, tensor_jacobi, torus_measure)
from mvortho.serialization import recurrence_to_json
from mvortho.stieltjes import (StieltjesState, _moment_pass, coordinate_moment,
                               kernel_completion_basis, psd_sqrt, scaled_cross,
                               stieltjes_recurrence, symmetric_factor)
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import jacobi_recurrence

import reference

JAC2 = ((3.80, 0.78), (7.34, 8.26))
JAC3 = ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))


def jacobi_oracle(d, params, n_max):
    iset = MultiIndexSet.build(d, n_max)
    unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*params)]
    return iset, to_canonical(tensor_recurrence(unis, iset, n_max))


def uniform_ball(d, n_nodes, seed):
    """Equal-weight Monte Carlo nodes, uniform in the unit ball."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_nodes, d))
    x *= (rng.uniform(size=n_nodes) ** (1 / d)
          / np.linalg.norm(x, axis=1))[:, None]
    return DiscreteMeasure(nodes=x, weights=np.full(n_nodes, 1 / n_nodes))


def fresh_state(measure, n_max):
    return StieltjesState.start(measure, n_max)


def advance(state):
    """Commit the next degree, from the current degree's residual pass."""
    return stieltjes._advance(state, _moment_pass(state, state.centers))


def half_weighted(measure, block):
    """sqrt(w) * ``block``: the form the state keeps its blocks in."""
    return np.sqrt(measure.weights)[None, :] * block


def gram_block(t, r, i, j):
    """Block (i, j), the Gram <res_i, res_j>, of a residual Gram T."""
    return t[i * r:(i + 1) * r, j * r:(j + 1) * r]


def residual_grams(state):
    """All residual Grams of ``state``'s degree, keyed by ordered pair,
    as blocks of the Gram T the algorithm's pass returns."""
    t = _moment_pass(state, coordinate_moment(state))
    r, d = state.values_cur.shape[0], state.measure.d
    assert t.shape == (d * r, d * r) and np.array_equal(t, t.T)
    return {(i, j): gram_block(t, r, i, j) for i in range(d) for j in range(d)}


class TestMomentBlocks:
    def test_degree_zero_coordinate_moment_vanishes_by_symmetry(self):
        m = tensor_jacobi(2, 6, (0.0, 0.0), (0.0, 0.0))
        state = fresh_state(m, 3)
        s = coordinate_moment(state)[0]
        assert s.shape == (1, 1) and abs(s[0, 0]) < 1e-15

    def test_legendre_all_centers_vanish(self):
        m = tensor_jacobi(2, 10, (0.0, 0.0), (0.0, 0.0))
        rec, _ = stieltjes_recurrence(m, 6)
        for n in range(1, 7):
            for mat in rec.A[n]:
                assert np.max(np.abs(mat)) < 1e-14

    def test_coordinate_moment_symmetric_exactly(self):
        m = annulus_measure(6, 24)
        state = fresh_state(m, 2)
        s = coordinate_moment(state)[1]
        assert np.array_equal(s, s.T)

    def test_residual_gram_uniform_square_degree_zero(self):
        m = tensor_jacobi(2, 6, (0.0, 0.0), (0.0, 0.0))
        state = fresh_state(m, 2)
        t = residual_grams(state)[(0, 0)]
        assert t[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_residual_gram_asymmetry_is_roundoff_only(self):
        m = tensor_jacobi(2, 10, *JAC2)
        rec, _ = stieltjes_recurrence(m, 4)
        state = fresh_state(m, 8)
        state.recurrence = rec
        ev = evaluate(rec, m.nodes, 4)
        state.values_cur, state.values_prev, state.degree = \
            half_weighted(m, ev.blocks[4]), half_weighted(m, ev.blocks[3]), 4
        # The pass forms the symmetric product; a general product of the
        # same residuals may differ from it by roundoff only.
        center = coordinate_moment(state)[0]
        resid = (m.nodes[:, 0][None, :] * state.values_cur
                 - center @ state.values_cur
                 - rec.B[4][0].T @ state.values_prev)
        raw = resid @ resid.T
        general = resid @ np.ascontiguousarray(resid.T)
        assert np.max(np.abs(raw - raw.T)) < 1e-13
        assert np.max(np.abs(general - general.T)) < 1e-13
        assert np.max(np.abs(general - raw)) < 1e-13

    def test_residual_gram_matches_raising_products(self):
        # T blocks equal B_{n+1,i} B_{n+1,j}^T for the oracle matrices.
        m = tensor_jacobi(2, 8, (0.0, 0.0), (0.0, 0.0))
        _, oracle = jacobi_oracle(2, ((0.0, 0.0), (0.0, 0.0)), 5)
        ev = evaluate(oracle, m.nodes, 5)
        for n in range(1, 5):
            state = fresh_state(m, 5)
            state.recurrence = oracle
            state.values_cur = half_weighted(m, ev.blocks[n])
            state.values_prev = half_weighted(m, ev.blocks[n - 1])
            state.degree = n
            grams = residual_grams(state)
            for i in range(2):
                for j in range(2):
                    want = oracle.B[n + 1][i] @ oracle.B[n + 1][j].T
                    assert np.max(np.abs(grams[(i, j)] - want)) < 1e-12

    @pytest.mark.parametrize("measure", [tensor_jacobi(2, 10, *JAC2),
                                         torus_measure(7, 25, 25)])
    def test_condition_only_pass_forms_diagonal_blocks(self, monkeypatch,
                                                       measure):
        # Degree N's conditioning, the one residual pass no closure
        # follows, averages the diagonal blocks of the whole Gram T, as
        # every earlier degree does.
        # At N = 6 on jac2, products of each block alone give other bits.
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 44 * 5)
        n_max = 6
        _, health = stieltjes_recurrence(measure, n_max)
        state = fresh_state(measure, n_max)
        state.centers = coordinate_moment(state)
        for _ in range(n_max):
            advance(state)
        t = _moment_pass(state, state.centers)
        r = state.values_cur.shape[0]
        blocks = [gram_block(t, r, i, i) for i in range(measure.d)]
        assert len(health) == n_max + 1
        assert health[-1].condition == np.mean(condition_numbers(blocks))


class TestSweeps:
    @pytest.mark.parametrize("measure", [tensor_jacobi(2, 8, *JAC2),
                                         tensor_jacobi(3, 6, *JAC3)])
    def test_two_sweeps_per_degree(self, monkeypatch, measure):
        # Degree 0's centers, then per degree the residual pass and the
        # block evaluation (which forms the next centers), then the last
        # residual pass.
        import mvortho.stieltjes as st
        real, calls = st.chunk_sum, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(st, "chunk_sum", counting)
        n_max = 5
        stieltjes_recurrence(measure, n_max)
        assert len(calls) == 2 * n_max + 2

    @pytest.mark.parametrize("measure,n_max", [
        (tensor_jacobi(2, 10, *JAC2), 8), (torus_measure(7, 25, 25), 5)])
    def test_fused_centers_match_standalone_sweep(self, monkeypatch, measure,
                                                  n_max):
        # Small chunks, cut differently for the two sweeps.
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 44 * 5)
        state = fresh_state(measure, n_max)
        state.centers = coordinate_moment(state)
        for _ in range(n_max):
            advance(state)
            standalone = coordinate_moment(state)
            for fused, alone in zip(state.centers, standalone):
                assert np.max(np.abs(fused - alone)) <= 1e-13


class TestBlockBuffers:
    def test_degree_zero_prev_block_is_empty_view(self):
        # p_{-1} = 0 is the empty row view of the buffer p_1 is written to.
        m = tensor_jacobi(2, 6, *JAC2)
        state = fresh_state(m, 3)
        assert state.values_prev.shape == (0, m.n_nodes)
        assert state.values_prev.base is state.buffers[1]

    @pytest.mark.parametrize("measure,n_max", [
        (tensor_jacobi(3, 6, *JAC3), 5), (annulus_measure(8, 30), 7)])
    def test_resident_blocks_are_half_weighted(self, measure, n_max):
        # Non-uniform weights: the buffers hold sqrt(w) * p, not p.
        state = fresh_state(measure, n_max)
        state.centers = coordinate_moment(state)
        for _ in range(n_max):
            advance(state)
        assert np.ptp(measure.weights) > 0.1 * np.max(measure.weights)
        ev = evaluate(state.recurrence, measure.nodes, n_max)
        for got, n in ((state.values_cur, n_max),
                       (state.values_prev, n_max - 1)):
            want = half_weighted(measure, ev.blocks[n])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_two_blocks_resident(self, monkeypatch):
        # p_{n+1} overwrites p_{n-1}: two (r_N x M) buffers and
        # cache-sized chunks, where three live blocks measured 2.93.
        monkeypatch.setattr(measures, "WORKERS", 1)
        monkeypatch.setattr(measures, "STACK_BYTES", 64 << 10)
        m = square_minus_ball(20000, 0)
        n_max = 20
        iset = MultiIndexSet.build(2, n_max)
        tracemalloc.start()
        try:
            stieltjes_recurrence(m, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * iset.level(n_max).shape[0] * m.n_nodes
        assert peak < 2.5 * block, peak / block

    def test_overwrite_under_more_threads_than_cores(self, monkeypatch):
        # Many small chunks race to write p_{n+1} over p_{n-1}; a chunk
        # reading columns another one has written would move the bits.
        m = tensor_jacobi(2, 12, *JAC2)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 44 * 3)
        monkeypatch.setattr(measures, "WORKERS", 1)
        want, _ = stieltjes_recurrence(m, 8)
        monkeypatch.setattr(measures, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, _ = stieltjes_recurrence(m, 8)
        finally:
            sys.setswitchinterval(interval)
        for n in range(1, 9):
            for i in range(2):
                assert np.array_equal(got.B[n][i], want.B[n][i])


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

    def test_psd_sqrt_rejects_indefinite(self):
        # An indefinite matrix is not an error: its negative part is
        # clipped away, leaving a singular root for the rank test.
        vhat = np.array([[1.2, 0.0], [0.0, 0.3]])  # I - vhat^T vhat indefinite
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        s = psd_sqrt(q @ (np.eye(2) - vhat.T @ vhat) @ q.T)
        assert np.max(np.abs(s - q @ np.diag([0.0, np.sqrt(0.91)]) @ q.T)) \
            < 1e-14

    def test_kernel_completion_shapes_and_nullity(self):
        iset, oracle = jacobi_oracle(3, JAC3, 4)
        n = 2
        u, s = symmetric_factor(oracle.B[n + 1][1] @ oracle.B[n + 1][1].T)
        dr = oracle.r(n) - oracle.r(n - 1)
        psi = kernel_completion_basis(oracle.B[n][0], u, s)
        k_mat = oracle.B[n][0] @ (u * s[None, :])
        assert psi.shape == (oracle.r(n), dr)
        assert np.max(np.abs(k_mat @ psi)) < 1e-11
        assert np.max(np.abs(psi.T @ psi - np.eye(dr))) < 1e-12


class TestClosureFailuresNameCoordinate:
    """A failing closure step names the coordinate it failed on."""

    def test_indefinite_weight_block(self, monkeypatch):
        # Negating the squared weight block makes it indefinite at the
        # first degree the solve closes: its clipped root is singular, and
        # the solve's rank test fails there.
        sqrt = stieltjes.psd_sqrt
        monkeypatch.setattr(stieltjes, "psd_sqrt", lambda mat: sqrt(-mat))
        for m in [tensor_jacobi(2, 8, *JAC2), tensor_jacobi(3, 6, *JAC3)]:
            with pytest.raises(RankDeficiencyError,
                               match="weight block of coordinate 1 "
                                     "rank-deficient") as err:
                stieltjes_recurrence(m, 4)
            assert err.value.degree == 2


def rank_sites(oracle):
    """Each of the five rank tests, called on degree-3 and degree-4
    matrices of a tensor-product oracle."""
    u, s = symmetric_factor(oracle.B[4][1] @ oracle.B[4][1].T)
    return {
        "symmetric_factor":
            lambda: symmetric_factor(oracle.B[4][1] @ oracle.B[4][1].T),
        "kernel_completion_basis":
            lambda: kernel_completion_basis(oracle.B[3][0], u, s),
        "weight_block": lambda: wopp._reduce(oracle.B[3][1], 1),
        "canonical_rotation":
            lambda: canonical_rotation(oracle.raising_gram(3), 3),
        "step_matrix": lambda: step_matrix(oracle, 2),
    }


def circle(*args):
    """Equal-weight measure on ``reference.circle_nodes(*args)``."""
    nodes = reference.circle_nodes(*args)
    return DiscreteMeasure(nodes=nodes,
                           weights=np.full(len(nodes), 1 / len(nodes)))


class TestOneRankRule:
    """Every rank test reads the one bound ``errors.RANK_TOL``."""

    @pytest.mark.parametrize("site", ["symmetric_factor",
                                      "kernel_completion_basis",
                                      "weight_block", "canonical_rotation",
                                      "step_matrix"])
    @pytest.mark.parametrize("d,params", [(2, JAC2), (3, JAC3)])
    def test_every_site_reads_the_one_bound(self, monkeypatch, d, params,
                                            site):
        _, oracle = jacobi_oracle(d, params, 4)
        call = rank_sites(oracle)[site]
        call()
        monkeypatch.setattr(errors, "RANK_TOL", 0.999)
        with pytest.raises(RankDeficiencyError, match="singular-value ratio"):
            call()

    @pytest.mark.parametrize("shift", [0.0, 10.0, 100.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("sigma", [0.0, 1e-6])
    def test_degenerate_circle_fails_at_degree_two(self, sigma, scale, shift):
        # Radii within 1e-6 of 1 put the stacked raising matrix of degree
        # 2 at a singular-value ratio of 2.8e-6 wherever the circle sits;
        # admitted, it gives max |E| near 0.9 at degree 5.
        with pytest.raises(RankDeficiencyError) as err:
            stieltjes_recurrence(circle(sigma, scale, shift), 5)
        assert err.value.degree == 2

    def test_noisier_circle_completes(self):
        rec, _ = stieltjes_recurrence(circle(1e-4), 5)
        assert rec.max_degree == 5


def degree_one(measure):
    rec, _ = stieltjes_recurrence(measure, 1)
    return rec


class TestDegreeOneFallback:
    """Degree 1, factored from one residual Gram (here of d = 3 measures)."""

    def test_uniform_cube_spectra(self):
        rec = degree_one(tensor_jacobi(3, 4, (0, 0, 0), (0, 0, 0)))
        assert np.allclose(rec.lam[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-13)

    def test_each_raising_full_rank_one(self):
        for b in degree_one(tensor_jacobi(3, 4, *JAC3)).B[1]:
            assert b.shape == (1, 3)
            assert np.linalg.norm(b) > 1e-8

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
    def test_collinear_cloud_is_rank_deficient_at_any_scale(self, scale):
        # The rank test is relative to the largest singular value; a PSD
        # check with an absolute clip would reject the rounding-negative
        # eigenvalue of a large flat Gram instead.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            line = rng.standard_normal(3)[None, :] + (
                rng.standard_normal(300)[:, None] * rng.standard_normal(3))
            m = DiscreteMeasure(nodes=scale * line, weights=np.full(300, 1 / 300))
            with pytest.raises(RankDeficiencyError) as err:
                degree_one(m)
            assert err.value.degree == 1


class TestFullRuns:
    @pytest.mark.parametrize("d,params,n_max,rtol", [(2, JAC2, 20, 1e-10),
                                                     (3, JAC3, 8, 1e-8)])
    def test_matches_oracle_spectra(self, d, params, n_max, rtol):
        measure = tensor_jacobi(d, n_max + 2, *params)
        _, oracle = jacobi_oracle(d, params, n_max)
        rec, health = stieltjes_recurrence(measure, n_max)
        for n in range(1, n_max + 1):
            assert np.allclose(np.sort(rec.lam[n]), np.sort(oracle.lam[n]),
                               rtol=rtol)
        assert max(h.drift for h in health[1:]) < 1e-10

    @pytest.mark.parametrize("params,n_max", [((3.8, 0.78), 39),
                                              ((-0.5, -0.5), 60),
                                              ((0.0, 0.0), 80)])
    def test_univariate_matches_jacobi(self, params, n_max):
        # d = 1 is the classical Stieltjes procedure: on an exact
        # (N + 2)-node Gauss-Jacobi rule it reproduces the closed form.
        measure = tensor_jacobi(1, n_max + 2, (params[0],), (params[1],))
        closed = jacobi_recurrence(n_max, *params)
        rec, _ = stieltjes_recurrence(measure, n_max)
        a = np.array([rec.A[n][0][0, 0] for n in range(1, n_max + 1)])
        b = np.array([rec.B[n][0][0, 0] for n in range(1, n_max + 1)])
        assert np.max(np.abs(a - closed.a)) < 1e-13
        assert np.max(np.abs(b - closed.b[1:])) < 1e-13
        report = gram_error_streaming(evaluator(rec), measure, n_max + 1)
        assert report.max_abs <= 1e-14

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            stieltjes_recurrence(tensor_jacobi(2, 4, *JAC2), -1)

    def test_degree_zero_run(self):
        # Only the last residual pass runs: one health record, carrying
        # degree 0's condition number, and no matrices beyond degree 0.
        rec, health = stieltjes_recurrence(tensor_jacobi(2, 4, *JAC2), 0)
        assert rec.max_degree == 0 and len(health) == 1
        assert health[0].degree == 0 and 1.0 <= health[0].condition < np.inf

    def test_t_condition_length_covers_all_degrees(self):
        m = tensor_jacobi(2, 8, *JAC2)
        _, health = stieltjes_recurrence(m, 5)
        conditions = [h.condition for h in health]
        assert len(conditions) == 6
        assert all(1.0 <= c < np.inf for c in conditions)

    @pytest.mark.parametrize("d,n_max", [(1, 6), (2, 5), (3, 6), (4, 4)])
    def test_one_health_record_per_degree(self, d, n_max):
        # Degree 0 has only its condition number, degree 1 (factored from
        # the whole residual Gram) adds the drift, and every later degree
        # the completion defect and closure residual.  A degree-0 run is
        # the last residual pass alone.
        params = ((3.80, 1.61, 0.5, 2.0)[:d], (0.78, -0.89, 3.0, 1.0)[:d])
        m = tensor_jacobi(d, n_max + 2, *params)
        for top in (0, n_max):
            rec, health = stieltjes_recurrence(m, top)
            assert rec.max_degree == top
            assert [h.degree for h in health] == list(range(top + 1))
            for h in health:
                assert 1.0 <= h.condition < np.inf
                present = [field is not None for field in
                           (h.drift, h.completion_defect, h.closure_residual)]
                assert present == [h.degree >= 1] + [h.degree >= 2] * 2
        assert max(h.drift for h in health[1:]) < 1e-10
        assert max(h.completion_defect for h in health[2:]) < 1e-8
        residuals = [h.closure_residual for h in health[2:]]
        if d <= 2:
            assert residuals == [0.0] * (n_max - 1)  # the gauge alone
        else:
            assert max(residuals) <= wopp.TOL

    def test_annulus_beats_moment_method(self):
        n_max = 16
        m = annulus_measure(n_max + 2, 4 * n_max + 5)
        iset = MultiIndexSet.build(2, n_max)
        rec, _ = stieltjes_recurrence(m, n_max)
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
        rec, _ = stieltjes_recurrence(m, 7)
        assert max_commuting_residual(rec) < 1e-8

    def test_chunked_matches_unchunked(self, monkeypatch):
        # 100 nodes: one chunk per sweep by default; with the small
        # STACK_BYTES, 2 to 17 chunks (sweeps hold 4 to 34 rows per node).
        m = tensor_jacobi(2, 10, *JAC2)
        b, _ = stieltjes_recurrence(m, 6)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 44 * 5)
        a, _ = stieltjes_recurrence(m, 6)
        for n in range(1, 7):
            for i in range(2):
                assert np.allclose(a.B[n][i], b.B[n][i], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanczos_centers_keep_orthogonality(self, seed):
        # Stieltjes-ordered centers reach max |E| 4.6e-9 to 1.8e-8 and
        # drift 3.6e-9 to 1.4e-8 on these samples.
        from mvortho.experiments import ExperimentConfig, run_experiment
        res = run_experiment(ExperimentConfig("hol", "ms", degree=30,
                                              mc_samples=20_000, seed=seed),
                             write=False)
        assert res.error.max_abs <= 1e-10
        assert max(h.drift for h in res.health[1:]) <= 1e-12

    def test_failure_in_worker_chunk_keeps_degree(self, monkeypatch):
        # Many chunks per sweep on two threads; every chunk of the degree-3
        # evaluation but the first raises inside a pool thread.
        import mvortho.stieltjes as st
        m = tensor_jacobi(2, 10, *JAC2)
        iset = MultiIndexSet.build(2, 6)
        monkeypatch.setattr(measures, "WORKERS", 2)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 44 * 5)
        want, _ = stieltjes_recurrence(m, 6)
        real, threads = st._next_block, []

        def failing(step, pts, *args, **kwargs):
            # Only the degree-3 step has r_3 rows.
            if (step.shape[0] == iset.level(3).shape[0]
                    and not np.array_equal(pts[0], m.nodes[0])):
                threads.append(threading.current_thread().name)
                raise RankDeficiencyError("injected")
            return real(step, pts, *args, **kwargs)

        monkeypatch.setattr(st, "_next_block", failing)
        with pytest.raises(RankDeficiencyError, match="injected") as err:
            stieltjes_recurrence(m, 6)
        assert err.value.degree == 3
        assert threads and threads[0] != threading.current_thread().name
        monkeypatch.setattr(st, "_next_block", real)
        got, _ = stieltjes_recurrence(m, 6)
        for n in range(1, 7):
            for i in range(2):
                assert np.array_equal(got.B[n][i], want.B[n][i])

    @pytest.mark.parametrize("build,n_max,bound", [
        (lambda: tensor_jacobi(3, 14, *JAC3), 12, 2e-13),
        (lambda: uniform_ball(4, 20_000, 0), 6, 3e-14),
        (lambda: uniform_ball(5, 20_000, 0), 4, 3e-14)],
        ids=["jac3", "ball4", "ball5"])
    def test_gram_error_for_d3_and_higher(self, build, n_max, bound):
        # Measured max |E| on one and two BLAS threads: 4.9e-14 (jac3),
        # 5.5e-15 to 5.7e-15 (d = 4) and 1.4e-14 to 1.6e-14 (d = 5).  A
        # degree-1 start from the Cholesky factor of the monomial Gram
        # reaches 6.8e-13, 1.3e-13 and 1.5e-13 on the same measures.
        m = build()
        iset = MultiIndexSet.build(m.d, n_max)
        rec, _ = stieltjes_recurrence(m, n_max)
        err = gram_error_streaming(evaluator(rec, n_max), m,
                                   iset.cumulative(n_max)).max_abs
        assert err <= bound

    def test_high_dim_matches_oracle(self):
        for d in (4, 5):
            params = ((0.0, 1.5, 0.5, 2.0, 1.0)[:d],
                      (0.0, 0.5, 3.0, 1.0, 2.5)[:d])
            m = tensor_jacobi(d, 6, *params)
            _, oracle = jacobi_oracle(d, params, 4)
            rec, health = stieltjes_recurrence(m, 4)
            for n in range(1, 5):
                assert np.allclose(np.sort(rec.lam[n]), np.sort(oracle.lam[n]),
                                   rtol=1e-9), (d, n)
            assert max_commuting_residual(rec) < 1e-10, d
            # The solve closes every degree n = 2..4.
            assert [h.closure_residual is not None for h in health] == \
                [False, False, True, True, True], d

    def test_high_dim_failure_carries_degree(self, monkeypatch):
        def stall(*args, **kwargs):
            raise NonConvergenceError("stalled")

        monkeypatch.setattr("mvortho.stieltjes.solve_orthogonal_factors", stall)
        m = tensor_jacobi(4, 6, (0, 0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(NonConvergenceError) as err:
            stieltjes_recurrence(m, 4)
        assert err.value.degree == 2
        # It carries the degrees committed before it, as a run to degree 1
        # returns them.
        rec, health = err.value.recurrence, err.value.health
        assert rec.max_degree == err.value.degree - 1
        assert [h.degree for h in health] == list(range(err.value.degree))
        rec_1, health_1 = stieltjes_recurrence(m, 1)
        assert health == health_1
        assert recurrence_to_json(rec) == recurrence_to_json(rec_1)

    def test_degenerate_measure_fails_with_degree(self):
        # 5 nodes cannot support the 6-dimensional quadratic space.
        rng = np.random.default_rng(0)
        m = DiscreteMeasure(nodes=rng.uniform(-1, 1, (5, 2)),
                            weights=np.full(5, 0.2))
        with pytest.raises(DegenerateMeasureError) as err:
            stieltjes_recurrence(m, 3)
        assert err.value.degree == 2
        # Refused before any sweep: nothing was committed.
        assert err.value.recurrence is None and err.value.health == []

    @pytest.mark.parametrize("n_nodes,degree", [(300, 24), (819, 39)])
    def test_short_monte_carlo_cloud_fails_with_degree(self, n_nodes, degree):
        # hol at N = 39 needs R_39 = 820 nodes.  Without the node-count
        # check these clouds returned quietly with max |E| 39.7 (M = 300)
        # and 0.30 (M = 819).
        with pytest.raises(DegenerateMeasureError) as err:
            stieltjes_recurrence(square_minus_ball(n_nodes, 1), 39)
        assert err.value.degree == degree
