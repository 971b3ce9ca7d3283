import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mvortho import measures
from mvortho.diagnostics import gram_error_streaming, max_commuting_residual
from mvortho.evaluation import evaluate, to_canonical
from mvortho.indexing import MultiIndexSet
from mvortho.experiments import JACOBI_PARAMS
from mvortho.measures import DiscreteMeasure, square_minus_ball, tensor_jacobi
from mvortho.moment_method import (SpanningBasis, _blocked_cholesky,
                                   build_gram, extract_recurrence,
                                   legendre_box_basis, monomial_basis,
                                   orthonormal_evaluator)
from mvortho.tensor_product import tensor_recurrence
from mvortho.univariate import jacobi_recurrence

from reference import (build_gram_reference, monomial_values, rank_margins,
                       symmetry_defect)


def uniform_square(n_points=12):
    return tensor_jacobi(2, n_points, (0.0, 0.0), (0.0, 0.0))


class TestBuildGram:
    def test_monomial_entries_uniform_square(self):
        iset = MultiIndexSet.build(2, 2)
        gram = build_gram(monomial_basis(iset), uniform_square())
        # rows/cols ordered 1, x1, x2, x1^2, x1 x2, x2^2
        assert gram.gram[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert gram.gram[0, 3] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert gram.gram[0, 4] == pytest.approx(0.0, abs=1e-14)

    def test_coordinate_gram_entry(self):
        iset = MultiIndexSet.build(2, 1)
        gram = build_gram(monomial_basis(iset), uniform_square())
        # <x1 * 1, x1> = 1/3
        assert gram.coordinate_grams[0][0, 1] == pytest.approx(1 / 3, abs=1e-14)

    def test_legendre_box_identity_gram(self):
        # A basis orthonormal on the measure's exact support box gives the
        # identity Gram up to quadrature roundoff.
        iset = MultiIndexSet.build(2, 6)
        basis = SpanningBasis(kind="tensor-legendre", index_set=iset,
                              bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        gram = build_gram(basis, uniform_square())
        assert np.max(np.abs(gram.gram - np.eye(gram.gram.shape[0]))) < 1e-13

    def test_node_box_follows_nodes(self):
        m = uniform_square()
        basis = legendre_box_basis(MultiIndexSet.build(2, 3), m)
        assert np.allclose(basis.bounding_box[:, 0], m.nodes.min(axis=0))
        assert np.allclose(basis.bounding_box[:, 1], m.nodes.max(axis=0))

    def test_chunked_assembly_matches_direct(self, monkeypatch):
        iset = MultiIndexSet.build(2, 4)
        m = uniform_square()
        full = build_gram(monomial_basis(iset), m)
        monkeypatch.setattr(measures, "CHUNK", 7)
        one = build_gram(monomial_basis(iset), m)
        assert np.allclose(one.gram, full.gram, atol=1e-15)


# Monomials on the 2000-node set break down at degree 16; M is no
# multiple of the chunk, so the last chunk is a narrower view.
GRAM_CASES = [(square_minus_ball(2000, 3), 18),
              (tensor_jacobi(3, 9, (0.5, 0.0, -0.5), (0.0, 0.5, 0.0)), 8)]


def both_bases(measure, n_max):
    iset = MultiIndexSet.build(measure.d, n_max)
    return [monomial_basis(iset), legendre_box_basis(iset, measure)]


def assert_matches_reference(got, want):
    """``build_gram`` against the full-depth ``build_gram_reference``:
    the same Gram, factor and failure bit for bit, and coordinate-weighted
    Grams that are the reference's leading (C, C) blocks; returns C."""
    assert np.array_equal(got.gram, want.gram)
    assert np.array_equal(got.chol, want.chol)
    assert got.failure_degree == want.failure_degree
    extent = got.coordinate_grams[0].shape[0]
    for g, w in zip(got.coordinate_grams, want.coordinate_grams,
                    strict=True):
        assert np.array_equal(g, w[:extent, :extent])
    return extent


class TestGramBuffers:
    @pytest.mark.parametrize("measure,n_max", GRAM_CASES)
    def test_bit_identical_to_fresh_arrays(self, measure, n_max, monkeypatch):
        # The monomial Gram on the 2-d set breaks down at 16: u = 15 and
        # R_15 = 136 rounds up to C = 144.  The others reach N, so C = R_N.
        monkeypatch.setattr(measures, "CHUNK", 97)
        assert measure.n_nodes % 97
        failures, extents = [], []
        for basis in both_bases(measure, n_max):
            want = build_gram_reference(basis, measure)
            extents.append(assert_matches_reference(
                build_gram(basis, measure), want))
            failures.append(want.failure_degree)
        if measure.d == 2:
            assert (failures, extents) == ([16, None], [144, 190])
        else:
            assert (failures, extents) == ([None, None], [165, 165])

    @pytest.mark.parametrize("case,extent", [("hol", 144), ("jac2", 456)])
    def test_breakdown_matches_full_depth(self, case, extent):
        # On a breakdown, the (C, C) blocks and the recurrence read from
        # them are the full-depth reference's, bit for bit.  ``jac2`` ml
        # N=39 (1681 nodes, one chunk) breaks down at 29, so R_u = R_28 =
        # 435, which rounds up to C = 456 of 820.
        if case == "hol":
            measure, n_max = GRAM_CASES[0]
            basis = monomial_basis(MultiIndexSet.build(2, n_max))
        else:
            measure = tensor_jacobi(2, 41, *JACOBI_PARAMS["jac2"])
            basis = legendre_box_basis(MultiIndexSet.build(2, 39), measure)
        want = build_gram_reference(basis, measure)
        got = build_gram(basis, measure)
        assert got.failure_degree == (16 if case == "hol" else 29)
        assert assert_matches_reference(got, want) == extent
        rec, full = extract_recurrence(got), extract_recurrence(want)
        assert rec.max_degree == full.max_degree == got.usable_degree
        for n in range(rec.max_degree):
            for i in range(2):
                assert same_bits(rec.A[n][i], full.A[n][i])
                assert same_bits(rec.B[n][i], full.B[n][i])

    def test_no_coordinate_grams_below_degree_one(self):
        # Every node at x = 0.5: the degree-1 block is singular, so no
        # degree >= 1 is usable and no coordinate-weighted Gram is built.
        flat = DiscreteMeasure(np.column_stack(
            [np.full(200, 0.5), np.random.default_rng(0).uniform(-1, 1, 200)]),
            np.full(200, 1 / 200))
        gram = build_gram(legendre_box_basis(MultiIndexSet.build(2, 3), flat),
                          flat)
        assert (gram.failure_degree, gram.coordinate_grams) == (1, [])

    @pytest.mark.parametrize("measure,n_max", GRAM_CASES)
    def test_same_bits_at_every_worker_count(self, measure, n_max,
                                             monkeypatch):
        # The row panels are cut by the basis size alone, so the worker
        # count that runs them changes no bit; a short switch interval
        # interleaves the panels, which write disjoint rows.
        monkeypatch.setattr(measures, "CHUNK", 97)
        for basis in both_bases(measure, n_max):
            built = []
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for workers in (1, 2, 4):
                    monkeypatch.setattr(measures, "WORKERS", workers)
                    built.append(build_gram(basis, measure))
            finally:
                sys.setswitchinterval(interval)
            for got in built[1:]:
                assert np.array_equal(got.gram, built[0].gram)
                for g, w in zip(got.coordinate_grams,
                                built[0].coordinate_grams, strict=True):
                    assert np.array_equal(g, w)
                assert np.array_equal(got.chol, built[0].chol)
                assert got.failure_degree == built[0].failure_degree

    @pytest.mark.parametrize("measure,n_max", GRAM_CASES)
    def test_values_into_column_view(self, measure, n_max):
        pts = measure.nodes[:50]
        for basis in both_bases(measure, n_max):
            buf = np.full((basis.size, 64), np.nan)
            view = buf[:, :50]
            assert basis.values(pts, out=view) is view
            assert np.array_equal(view, basis.values(pts))
            assert np.isnan(buf[:, 50:]).all()

    def test_two_chunk_buffers(self, monkeypatch):
        # vals and work: two (size x CHUNK) buffers, where fresh arrays
        # per chunk measured 3.36-3.48 of them.
        monkeypatch.setattr(measures, "CHUNK", 4096)
        m = square_minus_ball(3 * 4096 + 123, 0)
        for basis in both_bases(m, 12):
            tracemalloc.start()
            try:
                build_gram(basis, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            unit = 8 * basis.size * 4096
            assert peak < 2.75 * unit, (basis.kind, peak / unit)


def same_bits(got, want) -> bool:
    return (got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == want.tobytes())


class TestMonomialPowers:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 20])
    def test_bit_equal_to_vander_rows(self, d, n_max):
        pts = np.random.default_rng(10 * d + n_max).uniform(-1.5, 1.5,
                                                            (300, d))
        pts[:3] = [[0.0] * d, [-0.0] * d, [-1.0] * d]
        basis = monomial_basis(MultiIndexSet.build(d, n_max))
        want = monomial_values(basis, pts)
        assert same_bits(basis.values(pts), want)
        buf = np.full((basis.size, 320), np.nan)
        assert basis.values(pts, out=buf[:, :300]).base is buf
        assert same_bits(buf[:, :300], want)
        assert np.isnan(buf[:, 300:]).all()


class TestOrthonormalize:
    def test_degree_zero_constant(self):
        iset = MultiIndexSet.build(2, 3)
        m = uniform_square()
        vals = orthonormal_evaluator(build_gram(monomial_basis(iset), m))(m.nodes)
        assert np.allclose(vals[0], 1.0, atol=1e-13)

    def test_matches_tensor_legendre_products(self):
        iset = MultiIndexSet.build(2, 2)
        m = uniform_square()
        vals = orthonormal_evaluator(build_gram(monomial_basis(iset), m))(m.nodes)
        unis = [jacobi_recurrence(2, 0.0, 0.0)] * 2
        oracle = evaluate(to_canonical(tensor_recurrence(unis, iset, 2)),
                          m.nodes, 2)
        for n in range(3):
            remaining = list(range(oracle.blocks[n].shape[0]))
            lo = iset.cumulative(n - 1) if n else 0
            for row in vals[lo:iset.cumulative(n)]:
                hit = [k for k in remaining
                       if min(np.max(np.abs(row - oracle.blocks[n][k])),
                              np.max(np.abs(row + oracle.blocks[n][k]))) < 1e-10]
                assert hit
                remaining.remove(hit[0])

    def test_gram_identity_low_degree(self):
        iset = MultiIndexSet.build(2, 8)
        m = uniform_square()
        gram = build_gram(monomial_basis(iset), m)
        report = gram_error_streaming(orthonormal_evaluator(gram), m,
                                      iset.cumulative(8))
        assert report.max_abs < 1e-10

    def test_breakdown_reported_with_degree(self):
        # Monomials at high degree on the square: the Gram must fail
        # numerically before N=39, and the factor stops at the degree
        # before the failure.
        iset = MultiIndexSet.build(2, 39)
        m = tensor_jacobi(2, 41, (0.0, 0.0), (0.0, 0.0))
        gram = build_gram(monomial_basis(iset), m)
        assert gram.failure_degree is not None
        assert gram.usable_degree == gram.failure_degree - 1
        size = iset.cumulative(gram.usable_degree)
        assert gram.chol.shape == (size, size) and size < gram.basis.size
        assert gram.chol.flags.c_contiguous
        # The evaluator serves the usable degrees: only the spanning
        # functions up to that degree, bit for bit the leading rows of
        # the full basis; so does the recurrence.
        vals = orthonormal_evaluator(gram)(m.nodes)
        full = solve_triangular(gram.chol, gram.basis.values(m.nodes)[:size],
                                lower=True, check_finite=False)
        assert np.array_equal(vals, full)
        assert extract_recurrence(gram).max_degree == gram.usable_degree

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    @pytest.mark.parametrize("where,degree", [((1, 1), 1), ((0, 2), 2)])
    def test_non_finite_block_is_a_breakdown(self, entry, where, degree):
        # d = 1: 1 x 1 blocks, on which ``np.linalg.cholesky`` does not
        # raise.  An entry above the diagonal reaches its Schur block
        # through the off-diagonal solve.
        gram = np.eye(3)
        gram[where] = gram[where[::-1]] = entry
        chol, failed = _blocked_cholesky(gram, MultiIndexSet.build(1, 2))
        assert failed == degree
        assert chol.shape == (degree, degree)
        assert np.array_equal(chol, np.eye(degree))


class TestExtractRecurrence:
    def test_low_degree_matches_oracle_spectra(self):
        n_max = 6
        iset = MultiIndexSet.build(2, n_max)
        m = uniform_square(n_max + 2)
        rec = extract_recurrence(build_gram(monomial_basis(iset), m))
        canon = to_canonical(rec)
        unis = [jacobi_recurrence(n_max, 0.0, 0.0)] * 2
        oracle = to_canonical(tensor_recurrence(unis, iset, n_max))
        for n in range(1, n_max + 1):
            assert np.allclose(np.sort(canon.lam[n]), np.sort(oracle.lam[n]),
                               rtol=1e-8)

    def test_symmetric_measure_centers_vanish(self):
        iset = MultiIndexSet.build(2, 3)
        rec = extract_recurrence(build_gram(monomial_basis(iset), uniform_square()))
        assert np.max(np.abs(rec.A[1][0])) < 1e-14
        assert np.max(np.abs(rec.A[1][1])) < 1e-14

    def test_first_raising_gram_eigenvalues(self):
        iset = MultiIndexSet.build(2, 2)
        rec = extract_recurrence(build_gram(monomial_basis(iset), uniform_square()))
        eig = np.linalg.eigvalsh(rec.raising_gram(1))
        assert np.allclose(eig, [1 / 3, 1 / 3], atol=1e-13)

    def test_well_conditioned_degrees_pass_validity_checks(self):
        n_max = 8
        iset = MultiIndexSet.build(2, n_max)
        m = square_minus_ball(20000, seed=2)
        gram = build_gram(monomial_basis(iset), m)
        rec = extract_recurrence(gram)
        assert symmetry_defect(rec) < 1e-6
        per_coord, stacked = rank_margins(rec)
        assert per_coord > 1e-6 and stacked > 1e-6
        assert max_commuting_residual(rec) < 1e-6

    def test_ttr_consistency(self):
        from test_evaluation import ttr_residual
        n_max = 5
        iset = MultiIndexSet.build(2, n_max)
        m = uniform_square(n_max + 2)
        rec = to_canonical(extract_recurrence(build_gram(monomial_basis(iset), m)))
        ev = evaluate(rec, m.nodes, n_max)
        worst = max(ttr_residual(rec, ev, n, i)
                    for n in range(n_max) for i in range(2))
        assert worst < 1e-10
