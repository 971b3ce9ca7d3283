import numpy as np
import pytest

from mvortho.errors import ClosureError, NonConvergenceError
from mvortho.wopp import (coupling_residual, orthogonal_completion,
                          solve_orthogonal_factors)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def consistent_targets(weights, truth):
    """H blocks that the orthogonal factors ``truth`` solve exactly."""
    coords = sorted(weights)
    return {(i, j): weights[i] @ truth[i] @ truth[j].T @ weights[j].T
            for a, i in enumerate(coords) for j in coords[a + 1:]}


def recoverable_instance(seed, m=3, q=6, d=4):
    """E and H generated from known random orthogonal factors."""
    rng = np.random.default_rng(seed)
    coords = list(range(1, d))
    truth = {j: random_orthogonal(rng, q) for j in coords}
    weights = {j: np.hstack([np.diag(rng.uniform(0.5, 1.5, m)),
                             np.zeros((m, q - m))]) for j in coords}
    return weights, consistent_targets(weights, truth), truth


class TestRecovery:
    def test_trivial_identity_instance(self):
        weights, targets, _ = recoverable_instance(0)
        identity_targets = {k: weights[k[0]] @ weights[k[1]].T for k in targets}
        res = solve_orthogonal_factors(weights, identity_targets)
        assert res.residual <= 1e-10
        ident = {j: np.eye(6) for j in weights}
        assert coupling_residual(weights, identity_targets, ident) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_construct_then_recover(self, seed):
        weights, targets, _ = recoverable_instance(seed)
        res = solve_orthogonal_factors(weights, targets)
        assert res.residual <= 1e-8
        for w in res.W.values():
            assert np.max(np.abs(w.T @ w - np.eye(6))) < 1e-10

    def test_gauge_coordinate_stays_identity(self):
        weights, targets, _ = recoverable_instance(3)
        res = solve_orthogonal_factors(weights, targets)
        assert np.array_equal(res.W[1], np.eye(6))

    def test_permuted_identity_factors(self):
        # Permutation factors are recovered up to the problem's gauge
        # freedom: the residual vanishes and the factors are orthogonal.
        rng = np.random.default_rng(7)
        coords = [1, 2, 3]
        truth = {j: np.eye(6)[rng.permutation(6)] for j in coords}
        weights = {j: np.hstack([np.diag(rng.uniform(0.5, 1.5, 3)),
                                 np.zeros((3, 3))]) for j in coords}
        res = solve_orthogonal_factors(weights, consistent_targets(weights, truth))
        assert res.residual <= 1e-10
        for w in res.W.values():
            assert np.max(np.abs(w.T @ w - np.eye(6))) < 1e-12


class TestRefinementAndFailure:
    def test_noisy_instance_improves_or_reports(self):
        weights, targets, _ = recoverable_instance(1)
        rng = np.random.default_rng(99)
        noisy = {k: v + 1e-3 * rng.standard_normal(v.shape)
                 for k, v in targets.items()}
        with pytest.raises(NonConvergenceError) as err:
            solve_orthogonal_factors(weights, noisy)
        # the reported factors must not be worse than doing nothing
        baseline = coupling_residual(weights, noisy,
                                     {j: np.eye(6) for j in weights})
        assert err.value.residual <= baseline + 1e-12

    def test_nonconvergence_carries_best_iterate(self):
        weights, targets, _ = recoverable_instance(2)
        rng = np.random.default_rng(5)
        noisy = {k: v + 0.05 * rng.standard_normal(v.shape)
                 for k, v in targets.items()}
        with pytest.raises(NonConvergenceError) as err:
            solve_orthogonal_factors(weights, noisy)
        assert err.value.best is not None
        assert err.value.residual == coupling_residual(weights, noisy,
                                                       err.value.best)

    def test_rank_deficient_weight_block_raises(self):
        # Consistent data with one zeroed singular value: an exact
        # solution exists, but no frame can be read off the block.
        weights, _, truth = recoverable_instance(0)
        weights[2][2, 2] = 0.0
        with pytest.raises(ClosureError, match="coordinate 2"):
            solve_orthogonal_factors(weights, consistent_targets(weights, truth))

    def test_near_singular_weight_block_raises(self):
        # Singular-value ratio 1e-11 sits below RANK_TOL, so the block is
        # rejected although its frame could still be read off.
        weights, _, truth = recoverable_instance(0)
        weights[2][2, 2] = 1e-11 * np.max(weights[2])
        with pytest.raises(ClosureError, match="coordinate 2"):
            solve_orthogonal_factors(weights, consistent_targets(weights, truth))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_orthogonal_factors({1: np.eye(3)}, {})
        bad = {1: np.zeros((2, 4)), 2: np.zeros((2, 5))}
        with pytest.raises(ValueError):
            solve_orthogonal_factors(bad, {})


class TestClosedForm:
    def test_orthogonal_completion_recovers_rotations(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = random_orthogonal(rng, 4)
            rebuilt = orthogonal_completion(q[:3, :3])
            assert np.max(np.abs(rebuilt.T @ rebuilt - np.eye(4))) < 1e-12
            # principal block is preserved
            assert np.allclose(rebuilt[:3, :3], q[:3, :3])

    @pytest.mark.parametrize("seed", range(5))
    def test_two_coordinates_one_padded_column(self, seed):
        weights, targets, _ = recoverable_instance(seed, m=4, q=5, d=3)
        res = solve_orthogonal_factors(weights, targets)
        assert res.residual <= 1e-12
        assert np.array_equal(res.W[1], np.eye(5))
        assert np.max(np.abs(res.W[2].T @ res.W[2] - np.eye(5))) < 1e-12

    def test_rank_deficient_weight_block_raises(self):
        weights, targets, _ = recoverable_instance(0, m=3, q=4, d=3)
        weights[2][2, 2] = 0.0
        with pytest.raises(ClosureError):
            solve_orthogonal_factors(weights, targets)
