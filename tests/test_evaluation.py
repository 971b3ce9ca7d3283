import numpy as np
import pytest

from mvortho.diagnostics import gram_error_streaming
from mvortho.errors import RankDeficiencyError
from mvortho.evaluation import (_next_block, evaluate, evaluator,
                                fix_column_signs, step_matrix, to_canonical)
from mvortho.indexing import MultiIndexSet
from mvortho.measures import tensor_jacobi
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import jacobi_recurrence

JAC2 = ((3.80, 0.78), (7.34, 8.26))
JAC3 = ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))


def ttr_residual(rec, ev, n, i):
    """Max-norm defect of the coordinate-i three-term identity at degree n.

    Checks x_i p_n - (B_{n+1,i} p_{n+1} + A_{n+1,i} p_n + B_{n,i}^T p_{n-1})
    over the evaluation's points; requires blocks through degree n+1.
    """
    x_i = ev.points[:, i][None, :]
    defect = x_i * ev.blocks[n] - rec.B[n + 1][i] @ ev.blocks[n + 1]
    defect -= rec.A[n + 1][i] @ ev.blocks[n]
    if n >= 1:
        defect -= rec.B[n][i].T @ ev.blocks[n - 1]
    return float(np.max(np.abs(defect)))


def three_term_block(rec, n, pts, p_cur, p_prev):
    """Reference degree-(n+1) block: the canonical three-term identity
    solved for p_{n+1}, coordinate by coordinate."""
    out = np.zeros((rec.r(n + 1), pts.shape[0]))
    for i in range(rec.d):
        raising_t = rec.B[n + 1][i].T
        out += raising_t @ (pts[:, i][None, :] * p_cur)
        out -= (raising_t @ rec.A[n + 1][i]) @ p_cur
        if n >= 1:
            out -= (raising_t @ rec.B[n][i].T) @ p_prev
    return out / rec.lam[n + 1][:, None]


def jacobi_setup(n_max, params=JAC2):
    iset = MultiIndexSet.build(len(params[0]), n_max)
    unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*params)]
    raw = tensor_recurrence(unis, iset, n_max)
    return iset, raw, to_canonical(raw)


class TestToCanonical:
    def test_already_canonical_fixed_point(self):
        # The asymmetric Jacobi parameters give distinct diagonal entries,
        # so the transform of canonical input is the identity up to signs;
        # with deterministic sign fixing it is the exact identity.
        _, _, canon = jacobi_setup(6)
        again = to_canonical(canon)
        for n in range(1, 7):
            assert np.allclose(again.lam[n], canon.lam[n], rtol=1e-13)
            for i in range(2):
                assert np.allclose(np.abs(again.B[n][i]), np.abs(canon.B[n][i]),
                                   atol=1e-13)

    def test_matches_permutation_route(self):
        # The tensor raising Gram is exactly diagonal: its canonical form
        # is the descending sort of that diagonal.
        _, raw, canon = jacobi_setup(8)
        for n in range(1, 9):
            diag = np.diag(raw.raising_gram(n))
            assert np.array_equal(canon.lam[n], -np.sort(-diag))

    def test_output_is_canonical(self):
        _, raw, _ = jacobi_setup(8)
        out = to_canonical(raw)
        for n in range(1, 9):
            gram = out.raising_gram(n)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-12
            assert np.all(np.diff(np.diag(gram)) <= 1e-12)

    def test_gram_preserved(self):
        iset, raw, canon = jacobi_setup(7)
        measure = tensor_jacobi(2, 9, *JAC2)
        size = iset.cumulative(7)
        before = gram_error_streaming(evaluator(canon), measure, size)
        after = gram_error_streaming(evaluator(to_canonical(raw)), measure, size)
        assert abs(before.max_abs - after.max_abs) < 1e-12

    def test_rank_deficiency_detected(self):
        _, raw, _ = jacobi_setup(4)
        broken = raw.copy()
        broken.B[3][0][:, :] = 0.0
        broken.B[3][1][:, :] = 0.0
        with pytest.raises(RankDeficiencyError) as err:
            to_canonical(broken)
        assert err.value.degree == 3


class TestEvaluate:
    def test_degree_zero_block_is_ones(self):
        _, _, canon = jacobi_setup(4)
        ev = evaluate(canon, np.array([[0.1, -0.2], [0.7, 0.3]]), 4)
        assert np.array_equal(ev.blocks[0], np.ones((1, 2)))

    def test_blocks_are_views_of_stacked(self):
        _, _, canon = jacobi_setup(6)
        pts = np.random.default_rng(4).uniform(-1, 1, size=(40, 2))
        ev = evaluate(canon, pts, 6)
        assert all(np.shares_memory(block, ev.stacked) for block in ev.blocks)
        # Reference: blocks built one by one and stacked afterwards.
        blocks = [np.ones((1, 40))]
        for n in range(6):
            p_prev = blocks[n - 1] if n >= 1 else np.empty((0, 40))
            blocks.append(_next_block(step_matrix(canon, n), pts, blocks[n],
                                      p_prev))
        assert [b.shape for b in ev.blocks] == [b.shape for b in blocks]
        assert np.array_equal(ev.stacked, np.vstack(blocks))

    @pytest.mark.parametrize("params", [JAC2, JAC3])
    def test_one_gemm_step_matches_three_term_identity(self, params):
        n_max = 8
        _, _, canon = jacobi_setup(n_max, params)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(300, len(params[0])))
        blocks = [np.ones((1, 300))]
        for n in range(n_max):
            p_prev = blocks[n - 1] if n >= 1 else np.empty((0, 300))
            want = three_term_block(canon, n, pts, blocks[n], p_prev)
            got = _next_block(step_matrix(canon, n), pts, blocks[n], p_prev)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            blocks.append(want)

    def test_evaluator_matches_evaluate_bitwise(self):
        _, _, canon = jacobi_setup(8, JAC3)
        pts = np.random.default_rng(6).uniform(-1, 1, size=(77, 3))
        assert np.array_equal(evaluator(canon)(pts),
                              evaluate(canon, pts).stacked)
        assert np.array_equal(evaluator(canon, 5)(pts),
                              evaluate(canon, pts, 5).stacked)

    def test_requires_canonical_input(self):
        _, raw, _ = jacobi_setup(3)
        with pytest.raises(ValueError):
            evaluate(raw, np.zeros((1, 2)), 3)

    def test_gram_identity_low_degree(self):
        iset, _, canon = jacobi_setup(10)
        measure = tensor_jacobi(2, 12, *JAC2)
        report = gram_error_streaming(evaluator(canon), measure,
                                      iset.cumulative(10))
        assert report.max_abs < 1e-12

    def test_legendre_products_up_to_sign(self):
        # Raw tensor matrices -> eigen transform -> evaluation must match
        # the explicit products after sign/permutation alignment.
        n_max = 3
        iset = MultiIndexSet.build(2, n_max)
        unis = [jacobi_recurrence(n_max, 0.0, 0.0)] * 2
        canon = to_canonical(tensor_recurrence(unis, iset, n_max))
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(60, 2))
        ev = evaluate(canon, pts, n_max)
        from mvortho.univariate import evaluate_univariate
        per_axis = [evaluate_univariate(unis[j], n_max, pts[:, j]) for j in range(2)]
        for n in range(n_max + 1):
            explicit = np.stack([per_axis[0][a0] * per_axis[1][a1]
                                 for a0, a1 in iset.level(n)])
            remaining = list(range(explicit.shape[0]))
            for row in ev.blocks[n]:
                match = [k for k in remaining
                         if min(np.max(np.abs(row - explicit[k])),
                                np.max(np.abs(row + explicit[k]))) < 1e-11]
                assert match, "evaluated row matches no explicit product"
                remaining.remove(match[0])


class TestTtrResidual:
    def test_oracle_matrices_consistent(self):
        _, _, canon = jacobi_setup(8)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(50, 2))
        ev = evaluate(canon, pts, 8)
        worst = max(ttr_residual(canon, ev, n, i)
                    for n in range(8) for i in range(2))
        assert worst < 1e-11

    def test_degree_zero_branch(self):
        _, _, canon = jacobi_setup(2)
        ev = evaluate(canon, np.array([[0.2, 0.4]]), 2)
        assert ttr_residual(canon, ev, 0, 0) < 1e-13

    def test_sensitive_to_perturbation(self):
        _, _, canon = jacobi_setup(5)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(30, 2))
        ev = evaluate(canon, pts, 5)
        perturbed = canon.copy()
        perturbed.A[3][0][0, 0] += 1e-3
        assert ttr_residual(perturbed, ev, 2, 0) >= 1e-4


class TestSignFixing:
    def test_largest_entry_positive(self):
        mat = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fixed = fix_column_signs(mat)
        assert fixed[1, 0] > 0 and fixed[0, 1] > 0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 5))
        once = fix_column_signs(mat)
        assert np.array_equal(once, fix_column_signs(once))
