import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from mvortho import lapack, measures
from mvortho.errors import PointCloudError
from mvortho.measures import (DiscreteMeasure, annulus_measure,
                              gauss_jacobi_rule, point_cloud_measure,
                              spiral_measure, square_minus_ball,
                              tensor_jacobi, torus_measure, _spiral_grid)
from mvortho.univariate import jacobi_recurrence

from reference import min_monomial_norm, moment


def analytic_jacobi_power_moment(k, alpha, beta, n_quad=200):
    """Oracle for <x^k> via a much finer rule than the one under test."""
    x, w = gauss_jacobi_rule(n_quad, alpha, beta)
    return float(np.sum(w * x**k))


class TestGaussJacobiRule:
    def test_single_point_legendre(self):
        x, w = gauss_jacobi_rule(1, 0.0, 0.0)
        assert np.allclose(x, [0.0]) and np.allclose(w, [1.0])

    def test_two_point_legendre(self):
        # Hand-derived two-point rule: nodes +-1/sqrt(3), weights 1/2.
        x, w = gauss_jacobi_rule(2, 0.0, 0.0)
        assert np.allclose(np.sort(x), [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n,alpha,beta", [(3, 0.0, 0.0), (7, 3.8, 7.34),
                                              (12, -0.5, 2.0), (20, 0.78, 8.26)])
    def test_unit_mass(self, n, alpha, beta):
        _, w = gauss_jacobi_rule(n, alpha, beta)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n,alpha,beta", [(6, 0.0, 0.0), (8, 3.8, 7.34)])
    def test_polynomial_exactness(self, n, alpha, beta):
        x, w = gauss_jacobi_rule(n, alpha, beta)
        for k in range(2 * n):
            got = np.sum(w * x**k)
            want = analytic_jacobi_power_moment(k, alpha, beta)
            assert got == pytest.approx(want, abs=1e-13 * max(1.0, abs(want)))

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, -1.0, 0.0)


class TestTensorJacobi:
    def test_paper_parameter_sets_constructible(self):
        m2 = tensor_jacobi(2, 5, (3.80, 0.78), (7.34, 8.26))
        m3 = tensor_jacobi(3, 4, (1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))
        assert m2.d == 2 and m2.n_nodes == 25
        assert m3.d == 3 and m3.n_nodes == 64

    def test_single_point_legendre_grid(self):
        m = tensor_jacobi(2, 1, (0.0, 0.0), (0.0, 0.0))
        assert np.allclose(m.nodes, [[0.0, 0.0]])
        assert np.allclose(m.weights, [1.0])

    def test_moment_factorizes(self):
        m = tensor_jacobi(2, 8, (0.0, 0.0), (0.0, 0.0))
        got = np.sum(m.weights * m.nodes[:, 0]**2 * m.nodes[:, 1]**4)
        assert got == pytest.approx((1 / 3) * (1 / 5), abs=1e-14)


class TestAnnulus:
    def test_support_containment(self):
        m = annulus_measure(8, 32)
        r2 = (m.nodes**2).sum(axis=1)
        assert np.all(r2 >= 0.25 - 1e-12) and np.all(r2 <= 1.0 + 1e-12)

    def test_rotational_symmetry(self):
        m = annulus_measure(8, 32)
        assert abs(np.sum(m.weights * m.nodes[:, 0])) < 1e-14

    def test_radial_second_moment(self):
        # 1-d radial oracle: int r^3 dr / int r dr over [0.5, 1] = 0.625.
        m = annulus_measure(8, 32)
        got = np.sum(m.weights * (m.nodes**2).sum(axis=1))
        assert got == pytest.approx(0.625, abs=1e-12)


class TestSpiral:
    def test_radii_between_the_spirals(self):
        theta, r, w = _spiral_grid(4, 64)
        assert np.all(r >= 0.8 * theta[:, None] - 1e-12)
        assert np.all(r <= theta[:, None] + 1e-12)
        assert np.all(w > 0)

    def test_unit_mass(self):
        m = spiral_measure(4, 64)
        assert m.total_mass == pytest.approx(1.0, abs=1e-14)

    def test_constant_moment(self):
        m = spiral_measure(4, 64)
        ones = np.ones(m.n_nodes)
        assert moment(m, ones, ones) == pytest.approx(1.0, abs=1e-13)


class TestTorus:
    def test_interior_inequality(self):
        m = torus_measure(6, 24, 24)
        ring = np.sqrt(m.nodes[:, 0]**2 + m.nodes[:, 1]**2)
        assert np.all((ring - 2.0)**2 + m.nodes[:, 2]**2 < 1.0 + 1e-12)

    def test_reflection_and_rotation_symmetry(self):
        m = torus_measure(6, 24, 24)
        assert abs(np.sum(m.weights * m.nodes[:, 2])) < 1e-14
        assert abs(np.sum(m.weights * m.nodes[:, 0])) < 1e-14

    def test_volume_moment(self):
        # Pappus oracle: uniform<x1^2+x2^2> = R^2 + 3 r^2/4 for tube radius
        # r and ring radius R (direct tube-coordinate integration).
        m = torus_measure(8, 40, 40)
        got = np.sum(m.weights * (m.nodes[:, 0]**2 + m.nodes[:, 1]**2))
        assert got == pytest.approx(4.0 + 0.75, abs=1e-12)


class TestSquareMinusBall:
    def test_rejection_rule(self):
        m = square_minus_ball(2000, seed=11)
        assert np.all((m.nodes**2).sum(axis=1) >= 1.0)
        assert np.all(np.abs(m.nodes) <= 1.0)

    def test_uniform_weights(self):
        m = square_minus_ball(1234, seed=0)
        assert np.allclose(m.weights, 1.0 / 1234)

    def test_seed_determinism(self):
        a = square_minus_ball(500, seed=42)
        b = square_minus_ball(500, seed=42)
        assert np.array_equal(a.nodes, b.nodes)

    def test_seed_sensitivity(self):
        a = square_minus_ball(500, seed=1)
        b = square_minus_ball(500, seed=2)
        assert not np.array_equal(a.nodes, b.nodes)


class TestPointCloud:
    def test_three_point_file(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0.0,1.0\n0.5,-0.25\n-1.0,0.125\n")
        m = point_cloud_measure(path)
        assert m.n_nodes == 3 and m.d == 2
        assert np.allclose(m.weights, 1.0 / 3.0)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "cloud.csv"
        for header in ("x,y", "x1,x2", " col_a , col_b "):
            path.write_text(header + "\n0.0,1.0\n2.0,3.0\n")
            m = point_cloud_measure(path)
            assert m.n_nodes == 2
            assert np.array_equal(m.nodes, [[0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("first", [
        "1,2x", "np.float64(-1.0),np.float64(2.0)", "x,.5", "0.0;1.0"])
    def test_malformed_first_point_names_line_one(self, tmp_path, first):
        # A first line holding a number is a mistyped point, not a header.
        path = tmp_path / "cloud.csv"
        path.write_text(first + "\n0.0,1.0\n2.0,3.0\n")
        with pytest.raises(PointCloudError) as err:
            point_cloud_measure(path)
        assert err.value.line == 1
        assert "line 1:" in str(err.value)

    def test_three_dim_file(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0,0,1\n1,0,0\n")
        assert point_cloud_measure(path).d == 3

    def test_four_dim_file(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0,0,1,2\n1,0,0,-1\n")
        assert point_cloud_measure(path).d == 4

    def test_one_column_file(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x\n0\n0.5\n1\n")
        m = point_cloud_measure(path)
        assert m.nodes.shape == (3, 1)
        assert np.array_equal(m.nodes[:, 0], [0.0, 0.5, 1.0])

    def test_one_coordinate_rejected(self, tmp_path):
        # The first data row sets d; a later row of another width fails
        # naming its line, whichever width came first.
        for text, line in (("0,0\n1\n", 2), ("0\n1\n\n2,3\n", 4)):
            path = tmp_path / "cloud.csv"
            path.write_text(text)
            with pytest.raises(PointCloudError) as err:
                point_cloud_measure(path)
            assert err.value.line == line

    def test_nan_names_line(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0,0\n1,1\n2,2\n3,3\nnan,4\n")
        with pytest.raises(PointCloudError) as err:
            point_cloud_measure(path)
        assert err.value.line == 5

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y\n0,0\noops,1\n")
        with pytest.raises(PointCloudError) as err:
            point_cloud_measure(path)
        assert err.value.line == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("\n\n")
        with pytest.raises(PointCloudError):
            point_cloud_measure(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0,0\n\n1,1\n\n")
        assert point_cloud_measure(path).n_nodes == 2


class TestMomentFunctional:
    def test_constant_moment_is_mass(self):
        m = annulus_measure(4, 16)
        ones = np.ones(m.n_nodes)
        assert moment(m, ones, ones) == pytest.approx(1.0, abs=1e-14)

    def test_odd_moment_vanishes(self):
        m = annulus_measure(6, 24)
        ones = np.ones(m.n_nodes)
        assert abs(moment(m, ones, m.nodes[:, 0])) < 1e-14

    def test_square_second_moment(self):
        m = tensor_jacobi(2, 6, (0.0, 0.0), (0.0, 0.0))
        x1 = m.nodes[:, 0]
        assert moment(m, x1, x1) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_length_mismatch(self):
        m = annulus_measure(3, 8)
        with pytest.raises(ValueError):
            moment(m, np.ones(5), np.ones(m.n_nodes))


class TestValidation:
    def test_weight_positivity_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(nodes=np.zeros((2, 1)), weights=np.array([0.5, 0.0]))

    def test_nonfinite_nodes_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(nodes=np.array([[np.inf, 0.0]]), weights=np.array([1.0]))

    def test_nodes_beyond_two_axes_rejected(self):
        # A (M, 2, 1) array would otherwise pass as d = 2 and fail later
        # inside a node sweep.
        with pytest.raises(ValueError, match=r"\(500, 2, 1\)"):
            DiscreteMeasure(nodes=np.zeros((500, 2, 1)),
                            weights=np.full(500, 1 / 500))

    @pytest.mark.parametrize("make", [
        lambda: tensor_jacobi(2, 8, (3.8, 0.78), (7.34, 8.26)),
        lambda: annulus_measure(8, 29),
        lambda: spiral_measure(8, 200),
        lambda: torus_measure(8, 29, 29),
        lambda: square_minus_ball(4000, seed=3),
    ])
    def test_nondegenerate_at_desk_scale(self, make):
        # Every monomial keeps positive discrete norm through degree 2N
        # for a desk-scale N, certifying the moment functional is usable.
        m = make()
        assert min_monomial_norm(m, 12) > 0


class Tally:
    """A ``chunk_sum`` accumulator that counts the parts added to it,
    slowly, so that unbounded submission would run ahead of it."""

    def __init__(self):
        self.added = 0

    def __iadd__(self, part):
        time.sleep(1e-3)
        self.added += 1
        return self


def chunk_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("mvortho-chunk")]


class TestChunkMap:
    def test_results_in_slice_order_under_contention(self, monkeypatch):
        # More workers than cores and a short switch interval: each call
        # writes its own slice of a shared array, and the parts are still
        # added in slice order.
        monkeypatch.setattr(measures, "WORKERS", 6)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 7)
        filled = np.zeros(5000)
        values = np.arange(5000.0)
        order = []

        class Order:
            def __iadd__(self, start):
                order.append(start)
                return self

        def fill(sl):
            filled[sl] = values[sl]
            return sl.start, values[sl].sum()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, total = measures.chunk_sum(
                fill, measures.node_slices(5000, 1), [Order(), np.zeros(())])
        finally:
            sys.setswitchinterval(interval)
        assert order == list(range(0, 5000, 7))
        assert total == values.sum()
        assert np.array_equal(filled, values)

    def test_in_flight_calls_bounded(self, monkeypatch):
        # A call starts only once fewer than WORKERS + 1 submitted calls
        # are still waiting to be added.
        monkeypatch.setattr(measures, "WORKERS", 3)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 4)
        tally, started = Tally(), []

        def record(sl):
            started.append(len(started) + 1 - tally.added)
            return [None]

        measures.chunk_sum(record, measures.node_slices(100, 1), [tally])
        assert tally.added == len(started) == 25
        assert max(started) <= measures.WORKERS + 1

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(measures, "WORKERS", 1)
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 2)
        names = []
        measures.chunk_sum(
            lambda sl: names.append(threading.current_thread().name) or [],
            measures.node_slices(10, 1), [])
        assert names == [threading.current_thread().name] * 5

    @pytest.mark.parametrize("env,pinnable", [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "2"}, True)])
    def test_default_workers_follow_blas_threads(self, monkeypatch, env,
                                                 pinnable):
        # The worker count follows whether BLAS can be held to one thread,
        # never a BLAS variable: the usable cores, at most MAX_WORKERS,
        # where the bound OpenBLAS exports the setter; 1 under the scipy
        # fallback or without the setter.
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        cores = min(len(os.sched_getaffinity(0)), measures.MAX_WORKERS)
        no_pin = lapack._Bound(None, None, None, None)
        bounds = ([no_pin._replace(set_threads=lambda n: 1)] if pinnable
                  else [None, no_pin])
        for bound in bounds:
            monkeypatch.setattr(lapack, "_bound", lambda: bound)
            assert measures._default_workers() == (cores if pinnable else 1)

    @pytest.mark.skipif(lapack.thread_pin() is None,
                        reason="the bound BLAS cannot be held to one thread")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_run_on_one_blas_thread(self, monkeypatch, workers):
        # Inside chunk_sum BLAS runs one thread (the setter returns the
        # count it replaces); afterwards the caller's two threads are
        # back, also when a chunk raises.
        monkeypatch.setattr(measures, "WORKERS", workers)
        monkeypatch.setattr(measures, "STACK_BYTES", 8)
        pin = lapack.thread_pin()
        held = pin(2)
        seen = []
        try:
            measures.chunk_sum(
                lambda sl: seen.append((pin(1), lapack.active_threads()))
                or [], measures.node_slices(6, 1), [])
            assert seen == [(1, 1)] * 6
            assert lapack.active_threads() == 2

            def fail(sl):
                raise ValueError(sl.start)

            with pytest.raises(ValueError):
                measures.chunk_sum(fail, measures.node_slices(2, 1), [])
            assert lapack.active_threads() == 2
        finally:
            pin(held)

    def test_raise_waits_for_running_chunks(self, monkeypatch):
        # The first chunk raises while the second still runs: the error
        # reaches the caller only after the second has finished, the
        # chunks not yet started never start, and no chunk thread is left.
        monkeypatch.setattr(measures, "WORKERS", 2)
        monkeypatch.setattr(measures, "STACK_BYTES", 8)
        second_started = threading.Event()
        started, finished = [], []

        def chunk(sl):
            started.append(sl.start)
            if sl.start == 0:
                assert second_started.wait(10)
                raise ValueError("first chunk")
            second_started.set()
            time.sleep(0.05)
            finished.append(sl.start)
            return []

        with pytest.raises(ValueError, match="first chunk"):
            measures.chunk_sum(chunk, measures.node_slices(50, 1), [])
        assert sorted(finished) == sorted(set(started) - {0})
        assert len(started) <= measures.WORKERS + 1
        assert chunk_threads() == []

    def test_import_starts_no_thread(self, tmp_path):
        # Neither the import nor a run leaves a chunk thread alive: each
        # sweep's pool ends with its call.
        code = ("import threading, mvortho.experiments as ex;"
                "from mvortho import measures;"
                "names = lambda: [t.name for t in threading.enumerate()"
                " if t.name.startswith('mvortho-chunk')];"
                "print(len(names()));"
                "measures.WORKERS = 2;"
                "ex.run_experiment(ex.ExperimentConfig('jac2', 'ms',"
                f" degree=6, output_dir={str(tmp_path)!r}));"
                "print(len(names()))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ,
                                      PYTHONPATH=os.pathsep.join(sys.path)),
                             timeout=60)
        assert out.stdout.split() == ["0", "0"]
