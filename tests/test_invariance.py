"""Metamorphic properties of the ms recurrence on random point clouds.

Permuting the nodes or rotating the coordinates about the origin changes
the orthonormal basis only by an orthogonal transform per degree, so the
canonical diagonals lam_n (the spectra of sum_i B_{n,i}^T B_{n,i}) stay
the same.  Translation is not covered: it costs digits today (ROADMAP,
affine normalization).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rec, _ = stieltjes_recurrence(
        measure, MultiIndexSet.build(nodes.shape[1], n_max), n_max)
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
