"""Metamorphic properties of the ms recurrence on random point clouds.

Permuting the nodes, rotating the coordinates about the origin, or
translating them changes the orthonormal basis only by an orthogonal
transform per degree, so the canonical diagonals lam_n (the spectra of
sum_i B_{n,i}^T B_{n,i}) stay the same.  Scaling the coordinates by s
scales every raising matrix by s, so lam_n scales by s^2.  A cloud that
cannot carry the requested degree fails with a typed error naming a
degree, and a cloud on an algebraic curve or surface fails at the same
degree with the same type wherever it is moved.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvortho.errors import DegenerateMeasureError, RankDeficiencyError
from mvortho.indexing import MultiIndexSet
from mvortho.measures import DiscreteMeasure
from mvortho.stieltjes import stieltjes_recurrence

import reference

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


def failing_degree(nodes, weights, n_max, error=RankDeficiencyError):
    """The degree of the ``error`` a run raises, after checking that it
    carries every degree below it, or, for the node-count refusal before
    any sweep, none."""
    with pytest.raises(error) as err:
        spectra(nodes, weights, n_max)
    exc = err.value
    if error is DegenerateMeasureError:
        assert exc.recurrence is None and exc.health == []
    else:
        assert exc.recurrence.max_degree == exc.degree - 1
        assert [h.degree for h in exc.health] == list(range(exc.degree))
    return exc.degree


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_collinear_cloud_fails_with_degree(seed, d):
    # Affine polynomials are already dependent on a line.
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    nodes = (rng.standard_normal(d)[None, :]
             + rng.standard_normal(300)[:, None] * direction[None, :])
    assert failing_degree(nodes, rng.uniform(0.5, 1.5, 300), 3) == 1


@pytest.mark.parametrize("seed", range(5))
def test_parabola_cloud_fails_with_degree(seed):
    # On y = x^2 the quadratic y - x^2 vanishes, so the degree-2 space is
    # dependent although 300 nodes pass the node-count check: the rank
    # test of the residual Gram fires.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    with pytest.raises(RankDeficiencyError, match="coordinate 0") as err:
        spectra(np.column_stack([x, x ** 2]), rng.uniform(0.5, 1.5, 300), 3)
    assert err.value.degree == 2


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
@example(seed=216, d=2)
@example(seed=109362868, d=2)
def test_too_few_nodes_fail_with_degree(seed, d):
    # 12 nodes carry at most 12 orthonormal polynomials, fewer than the
    # polynomials of degree <= 4 (d = 2) or <= 3 (d = 3), and the node
    # count says so before any sweep.  Before that check, the examples
    # reached a residual Gram whose smallest eigenvalue was roundoff.
    rng = np.random.default_rng(seed)
    nodes, weights = random_cloud(rng, d, n_nodes=12)
    iset = MultiIndexSet.build(d, 6)
    counted = next(n for n in range(7) if iset.cumulative(n) > 12)
    assert failing_degree(nodes, weights, 6,
                          DegenerateMeasureError) == counted


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]),
       n_max=st.integers(1, 8), data=st.data())
def test_node_count_names_first_short_degree(seed, d, n_max, data):
    # Any cloud with fewer nodes than the R_N polynomials of degree <= N
    # fails, naming the first degree n with R_n > M.
    iset = MultiIndexSet.build(d, n_max)
    n_nodes = data.draw(st.integers(1, iset.cumulative(n_max) - 1))
    nodes, weights = random_cloud(np.random.default_rng(seed), d, n_nodes)
    first = next(n for n in range(n_max + 1)
                 if iset.cumulative(n) > n_nodes)
    assert failing_degree(nodes, weights, n_max,
                          DegenerateMeasureError) == first


def unit_sphere_nodes(n_nodes=3000):
    """Nodes on the unit sphere in R^3: normalized ``default_rng(0)``
    Gaussians."""
    x = np.random.default_rng(0).standard_normal((n_nodes, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


def moved(nodes, seed, exponent):
    """``nodes`` rotated by a random orthogonal matrix, scaled by
    10**``exponent`` and shifted by a point of [-100, 100]^d."""
    rng = np.random.default_rng(seed)
    d = nodes.shape[1]
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    rotation = q * np.sign(np.diag(r))[None, :]
    return (10.0 ** exponent) * nodes @ rotation.T + rng.uniform(-100, 100, d)


MOVES = dict(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None, database=None)
@given(sigma=st.sampled_from([0.0, 1e-6]), **MOVES)
def test_moved_circle_fails_at_degree_two(sigma, seed, exponent):
    # x^2 + y^2 - 1 (nearly) vanishes on the nodes wherever the circle is
    # moved, so the degree-2 rank test fires with the same type.
    nodes = moved(reference.circle_nodes(sigma), seed, exponent)
    assert failing_degree(nodes, np.ones(len(nodes)), 5) == 2


@settings(max_examples=30, deadline=None, database=None)
@given(**MOVES)
def test_moved_sphere_fails_at_degree_two(seed, exponent):
    nodes = moved(unit_sphere_nodes(), seed, exponent)
    assert failing_degree(nodes, np.ones(len(nodes)), 4) == 2
