"""Metamorphic properties of the ms recurrence on random point clouds.

Permuting the nodes, rotating the coordinates about the origin, or
translating them changes the orthonormal basis only by an orthogonal
transform per degree, so the canonical diagonals lam_n (the spectra of
sum_i B_{n,i}^T B_{n,i}) stay the same.  Scaling the coordinates by s
scales every raising matrix by s, so lam_n scales by s^2.  A cloud that
cannot carry the requested degree fails with a typed error naming a
degree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvortho.errors import RankDeficiencyError
from mvortho.indexing import MultiIndexSet
from mvortho.measures import DiscreteMeasure
from mvortho.stieltjes import stieltjes_recurrence

RTOL = 1e-10
CASES = dict(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
             n_max=st.integers(1, 4))


def random_cloud(rng, d, n_nodes=400):
    """Anisotropic Gaussian nodes with random positive weights."""
    nodes = rng.standard_normal((n_nodes, d)) * rng.uniform(0.5, 2.0, d)
    return nodes, rng.uniform(0.5, 1.5, n_nodes)


def spectra(nodes, weights, n_max):
    measure = DiscreteMeasure(nodes=nodes, weights=weights / weights.sum())
    rec, _ = stieltjes_recurrence(measure, n_max)
    return rec.lam[1:]


def assert_same_spectra(got, want):
    for lam_got, lam_want in zip(got, want):
        assert np.allclose(lam_got, lam_want, rtol=RTOL, atol=0.0)


@settings(max_examples=20, deadline=None, database=None)
@given(**CASES)
def test_node_permutation_leaves_spectra(seed, d, n_max):
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d)
    order = rng.permutation(len(weights))
    assert_same_spectra(spectra(nodes[order], weights[order], n_max),
                        spectra(nodes, weights, n_max))


@settings(max_examples=20, deadline=None, database=None)
@given(**CASES)
def test_rotation_leaves_spectra(seed, d, n_max):
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    rotation = q * np.sign(np.diag(r))[None, :]
    assert_same_spectra(spectra(nodes @ rotation.T, weights, n_max),
                        spectra(nodes, weights, n_max))


@settings(max_examples=20, deadline=None, database=None)
@given(**CASES)
def test_translation_leaves_spectra(seed, d, n_max):
    # Only A_{n,i} moves (by the offset times the identity); the
    # subtraction of the centers costs digits as the offset grows.
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d)
    offset = rng.uniform(-1e3, 1e3, d)
    assert_same_spectra(spectra(nodes + offset[None, :], weights, n_max),
                        spectra(nodes, weights, n_max))


@settings(max_examples=20, deadline=None, database=None)
@given(exponent=st.floats(-3.0, 3.0), **CASES)
def test_scaling_scales_spectra_by_square(exponent, seed, d, n_max):
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d)
    scale = 10.0 ** exponent
    assert_same_spectra(spectra(scale * nodes, weights, n_max),
                        [scale ** 2 * lam for lam in
                         spectra(nodes, weights, n_max)])


def failing_degree(nodes, weights, n_max):
    with pytest.raises(RankDeficiencyError) as err:
        spectra(nodes, weights, n_max)
    return err.value.degree


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_collinear_cloud_fails_with_degree(seed, d):
    # Affine polynomials are already dependent on a line.
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    nodes = (rng.standard_normal(d)[None, :]
             + rng.standard_normal(300)[:, None] * direction[None, :])
    assert failing_degree(nodes, rng.uniform(0.5, 1.5, 300), 3) == 1


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
@example(seed=216, d=2)
@example(seed=109362868, d=2)
def test_too_few_nodes_fail_with_degree(seed, d):
    # 12 nodes carry at most 12 orthonormal polynomials, fewer than the
    # polynomials of degree <= 4 (d = 2) or <= 3 (d = 3).  The examples
    # reach a residual Gram whose smallest eigenvalue is roundoff: its
    # singular-value ratio (6.9e-9 and 1.5e-9) passed a rank test on s,
    # and the closure then raised ClosureError.
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d, n_nodes=12)
    iset = MultiIndexSet.build(d, 6)
    counted = next(n for n in range(7) if iset.cumulative(n) > 12)
    assert 1 <= failing_degree(nodes, weights, 6) <= counted
