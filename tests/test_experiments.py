import dataclasses
import gc
import json
import os
import sys
import types
import weakref

import numpy as np
import pytest

from mvortho import experiments, stieltjes
from mvortho.experiments import (EXPERIMENTS, ExperimentConfig,
                                 build_measure, resolve_config,
                                 run_experiment)
from mvortho.indexing import MultiIndexSet
from mvortho.measures import DiscreteMeasure

import reference


def small_config(**kw):
    base = dict(experiment="jac2", method="ms", degree=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigResolution:
    def test_default_degrees(self):
        assert resolve_config(ExperimentConfig("jac2", "ms")).degree == 39
        assert resolve_config(ExperimentConfig("tor", "ms")).degree == 15

    def test_quadrature_defaults_track_degree(self):
        cfg = resolve_config(small_config(experiment="ann", degree=10))
        assert cfg.n_radial == 12 and cfg.n_angular == 45

    def test_exact_restricted_to_tensor_measures(self):
        with pytest.raises(ValueError):
            resolve_config(ExperimentConfig("ann", "exact"))

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            resolve_config(ExperimentConfig("nope", "ms"))
        with pytest.raises(ValueError):
            resolve_config(ExperimentConfig("ann", "nope"))

    def test_cloud_needs_path(self):
        with pytest.raises(ValueError):
            resolve_config(ExperimentConfig("cloud", "ms"))

    def test_dimensions(self):
        assert EXPERIMENTS["jac2"][0] == 2
        assert EXPERIMENTS["tor"][0] == 3
        assert EXPERIMENTS["cloud"][0] is None


class TestMeasureConstruction:
    @pytest.mark.parametrize("tag,d", [("jac2", 2), ("jac3", 3), ("ann", 2),
                                       ("tor", 3)])
    def test_tags_build(self, tag, d):
        cfg = resolve_config(ExperimentConfig(tag, "ms", degree=3))
        m = build_measure(cfg)
        assert m.d == d and abs(m.total_mass - 1.0) < 1e-12

    def test_hol_uses_seed_and_count(self):
        cfg = resolve_config(ExperimentConfig("hol", "ms", degree=3,
                                              mc_samples=500, seed=9))
        m = build_measure(cfg)
        assert m.n_nodes == 500
        again = build_measure(cfg)
        assert np.array_equal(m.nodes, again.nodes)

    def test_builders_call_the_constructor_bound_at_call_time(
            self, monkeypatch):
        # The benchmark's layer probes patch the constructors in this
        # module after the table is built.
        calls = []
        original = experiments.square_minus_ball

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "square_minus_ball", counting)
        cfg = resolve_config(ExperimentConfig("hol", "ms", degree=3,
                                              mc_samples=500, seed=9))
        assert build_measure(cfg).n_nodes == 500
        assert calls == [(500, 9)]


class TestRunExperiment:
    def test_exact_small(self, tmp_path):
        res = run_experiment(small_config(method="exact",
                                          output_dir=str(tmp_path)))
        assert not res.failed
        assert res.error.max_abs < 1e-12
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "recurrence.json").exists()
        assert (tmp_path / "error_matrix.csv").exists()
        assert (tmp_path / "cond.csv").exists()
        assert (tmp_path / "cc_residuals.csv").exists()
        assert (tmp_path / "christoffel.csv").exists()

    def test_error_csv_square_of_basis_size(self, tmp_path):
        res = run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        rows = (tmp_path / "error_matrix.csv").read_text().strip().splitlines()
        assert len(rows) == res.size == 21
        assert all(len(r.split(",")) == res.size for r in rows)

    def test_cond_csv_row_count(self, tmp_path):
        res = run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        rows = (tmp_path / "cond.csv").read_text().strip().splitlines()
        assert len(rows) == res.degree + 2  # header + degrees 0..N

    def test_no_christoffel_for_3d(self, tmp_path):
        run_experiment(ExperimentConfig("jac3", "ms", degree=3,
                                        output_dir=str(tmp_path)))
        assert not (tmp_path / "christoffel.csv").exists()

    def test_mm_breakdown_reported_not_raised(self, tmp_path):
        # The same for mm on jac2 and for ms on the sigma = 1e-6 circle,
        # which breaks down at degree 2.
        cloud = tmp_path / "circle.csv"
        np.savetxt(cloud, reference.circle_nodes(1e-6), fmt="%.17g",
                   delimiter=",")
        for cfg, text in (
                (ExperimentConfig("jac2", "mm", degree=39),
                 "Gram matrix not positive definite"),
                (ExperimentConfig("cloud", "ms", degree=5,
                                  cloud_path=str(cloud)),
                 "stacked raising Gram rank-deficient")):
            out = tmp_path / cfg.method
            res = run_experiment(dataclasses.replace(cfg,
                                                     output_dir=str(out)))
            assert res.failed and res.breakdown_degree is not None
            assert res.usable_degree == res.breakdown_degree - 1
            assert res.failure_message.startswith(text)
            assert res.failure_message.endswith(
                f" at degree {res.breakdown_degree}")
            assert res.effective_error_max == np.inf
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["breakdown_degree"] == res.breakdown_degree
            assert manifest["failure_message"] == res.failure_message
            # outputs for the achievable degrees still exist
            assert (out / "error_matrix.csv").exists()
            assert (out / "cond.csv").exists()
        assert res.breakdown_degree == 2  # ms on the circle, run last

    def test_refused_ms_run_writes_only_the_manifest(self, tmp_path):
        # 300 nodes carry no degree-24 basis, and the run is refused
        # before any sweep: nothing is committed, so nothing but the
        # manifest is written.
        res = run_experiment(ExperimentConfig(
            "hol", "ms", degree=39, mc_samples=300, seed=1,
            output_dir=str(tmp_path)))
        assert res.failed and res.usable_degree == -1
        assert res.recurrence is None and res.error is None
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["breakdown_degree"] == 24
        assert manifest["health"] is None and manifest["error_max"] is None
        assert manifest["failure_message"] == (
            "300 nodes carry no orthonormal basis at degree 24")

    def test_failed_ms_run_keeps_no_buffer(self, monkeypatch):
        # The failure's traceback reaches the loop's frame, which holds
        # the two (r_N x M) buffers; the construction keeps only the
        # committed degrees, so the buffers go as soon as the run
        # returns, without waiting for a garbage collection.
        blocks = []
        start = stieltjes.StieltjesState.start

        def recording_start(measure, max_degree):
            state = start(measure, max_degree)
            blocks.extend(weakref.ref(b) for b in state.buffers)
            return state

        monkeypatch.setattr(stieltjes.StieltjesState, "start",
                            staticmethod(recording_start))
        measure = DiscreteMeasure(nodes=reference.circle_nodes(1e-6),
                                  weights=np.full(2000, 1 / 2000))
        config = ExperimentConfig("cloud", "ms", degree=5)
        gc.disable()
        try:
            built = experiments._run_ms(config, measure,
                                        MultiIndexSet.build(2, 5))
            assert len(blocks) == 2
            assert all(ref() is None for ref in blocks)
        finally:
            gc.enable()
        assert built.breakdown_degree == 2 and built.usable_degree == 1

    def test_manifest_embeds_full_config(self, tmp_path):
        cfg = small_config(method="ms", seed=7, output_dir=str(tmp_path))
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["experiment"] == "jac2"
        assert manifest["config"]["degree"] == 5

    def test_cloud_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(4000, 2))
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
        res = run_experiment(ExperimentConfig(
            "cloud", "ms", degree=4, cloud_path=str(cloud),
            output_dir=str(tmp_path / "out")))
        assert not res.failed
        assert res.error.max_abs < 1e-8

    def test_four_dim_cloud(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((4000, 4))
        pts *= (rng.uniform(size=4000) ** 0.25
                / np.linalg.norm(pts, axis=1))[:, None]  # uniform in the ball
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("\n".join(",".join(map(str, p)) for p in pts) + "\n")
        res = run_experiment(ExperimentConfig(
            "cloud", "ms", degree=3, cloud_path=str(cloud)), write=False)
        assert res.d == 4 and not res.failed
        assert res.error.max_abs < 1e-10
        residuals = [h.closure_residual for h in res.health
                     if h.closure_residual is not None]
        assert len(residuals) == 2 and max(residuals) <= 1e-10

    def test_cloud_without_default_degree_names_flag(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0,0,1\n1,0,0,0\n")
        with pytest.raises(ValueError, match="--degree"):
            run_experiment(ExperimentConfig("cloud", "ms",
                                            cloud_path=str(cloud)), write=False)

    def test_manifest_records_health_per_degree(self, tmp_path):
        res = run_experiment(small_config(method="ms",
                                          output_dir=str(tmp_path / "ms")))
        manifest = json.loads((tmp_path / "ms" / "manifest.json").read_text())
        assert manifest["health"] == [dataclasses.asdict(h)
                                      for h in res.health]
        assert [h["degree"] for h in manifest["health"]] == list(range(6))
        run_experiment(small_config(method="mm",
                                    output_dir=str(tmp_path / "mm")))
        manifest = json.loads((tmp_path / "mm" / "manifest.json").read_text())
        assert manifest["health"] is None

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = ExperimentConfig("hol", "ms", degree=4, mc_samples=3000,
                                 seed=5, output_dir=str(out_a))
        cfg_b = ExperimentConfig("hol", "ms", degree=4, mc_samples=3000,
                                 seed=5, output_dir=str(out_b))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("recurrence.json", "error_matrix.csv", "cond.csv",
                     "cc_residuals.csv", "christoffel.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_cloud_read_once(self, tmp_path, monkeypatch):
        cloud = tmp_path / "cloud.csv"
        pts = np.random.default_rng(2).uniform(-1, 1, size=(500, 2))
        cloud.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
        calls = []
        read = experiments.point_cloud_measure

        def counting(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(experiments, "point_cloud_measure", counting)
        res = run_experiment(ExperimentConfig(
            "cloud", "ms", cloud_path=str(cloud), output_dir=str(tmp_path / "out")),
            write=False)
        assert len(calls) == 1
        assert res.degree == 39 and res.d == 2  # default degree from the file's d

    def test_manifest_records_chunk(self, tmp_path, monkeypatch):
        from mvortho import measures
        monkeypatch.setattr(measures, "CHUNK", 64)
        monkeypatch.setattr(measures, "STACK_BYTES", 4096)
        monkeypatch.setattr(measures, "WORKERS", 3)
        run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["chunk_size"] == 64
        assert manifest["config"]["stack_bytes"] == 4096
        assert manifest["config"]["workers"] == 3

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        # The environment goes to the manifest only: the recurrence and
        # the CSVs keep their bytes whatever it holds, and no BLAS
        # variable enters the record.
        from mvortho import lapack
        names = ("recurrence.json", "error_matrix.csv", "cond.csv",
                 "cc_residuals.csv", "christoffel.csv")
        outputs, envs = [], []
        for value in ("1", None):
            for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "OMP_NUM_THREADS"):
                monkeypatch.delenv(var, raising=False)
            if value is not None:
                monkeypatch.setenv("MKL_NUM_THREADS", value)
            out = tmp_path / str(value)
            run_experiment(small_config(method="ms", output_dir=str(out)))
            envs.append(json.loads(
                (out / "manifest.json").read_text())["environment"])
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert set(envs[0]) == {"python", "numpy", "scipy", "cpu_count",
                                "blas_pinned", "blas_threads_active",
                                "lapack"}
        assert envs[0]["blas_pinned"] is (lapack.thread_pin() is not None)
        assert envs[0]["blas_threads_active"] == lapack.active_threads()
        assert envs[0]["numpy"] == np.__version__
        loaded = sys.modules.get("scipy")
        assert envs[0]["scipy"] == getattr(loaded, "__version__", None)
        assert envs[0]["lapack"] == lapack.backend()
        assert envs[0]["cpu_count"] == os.cpu_count()
        assert envs[0] == envs[1]
        assert outputs[0] == outputs[1]
        assert all(b"environment" not in data for data in outputs[0].values())

    def test_environment_never_imports_scipy(self, monkeypatch):
        from mvortho.experiments import environment
        monkeypatch.delitem(sys.modules, "scipy", raising=False)
        assert environment()["scipy"] is None
        assert "scipy" not in sys.modules
        monkeypatch.setitem(sys.modules, "scipy",
                            types.SimpleNamespace(__version__="0.0.test"))
        assert environment()["scipy"] == "0.0.test"

    def test_stack_bytes_moves_ms_only_at_rounding(self, tmp_path,
                                                   monkeypatch):
        # STACK_BYTES sets the summation order of the ms sweeps, never
        # that of the moment-method Gram (CHUNK).
        from mvortho import measures
        from mvortho.serialization import load_recurrence
        runs = {method: small_config(experiment="hol", method=method,
                                     degree=8, mc_samples=2000)
                for method in ("ms", "mm")}
        for tag in ("a", "b"):
            if tag == "b":
                monkeypatch.setattr(measures, "STACK_BYTES", 8 * 45 * 30)
            for method, config in runs.items():
                run_experiment(dataclasses.replace(
                    config, output_dir=str(tmp_path / tag / method)))
        for name in ("recurrence.json", "cond.csv", "cc_residuals.csv"):
            assert ((tmp_path / "a" / "mm" / name).read_bytes()
                    == (tmp_path / "b" / "mm" / name).read_bytes())
        ref, moved = (load_recurrence(tmp_path / tag / "ms" / "recurrence.json")
                      for tag in ("a", "b"))
        for n in range(1, 9):
            for i in range(2):
                assert np.allclose(moved.A[n][i], ref.A[n][i], rtol=0, atol=1e-12)
                assert np.allclose(moved.B[n][i], ref.B[n][i], rtol=0, atol=1e-12)

    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch):
        # Small chunks, so every sweep spreads over many pool calls.
        from mvortho import measures
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 45 * 30)
        runs = [small_config(experiment="ann", method="ms", degree=8),
                small_config(experiment="tor", method="ms", degree=5),
                small_config(experiment="hol", method="mm", degree=8,
                             mc_samples=2000)]
        names = ("recurrence.json", "error_matrix.csv", "cond.csv",
                 "cc_residuals.csv", "christoffel.csv")
        for k, config in enumerate(runs):
            outputs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(measures, "WORKERS", workers)
                out = tmp_path / f"{k}-{workers}"
                run_experiment(dataclasses.replace(config, output_dir=str(out)))
                outputs.append({name: (out / name).read_bytes()
                                for name in names if (out / name).exists()})
            assert len(outputs[0]) == (5 if config.experiment != "tor" else 4)
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], \
                config.experiment

    def test_christoffel_from_gram_error_sweep(self, tmp_path, monkeypatch):
        # The kernel comes from the Gram-error sweep at every s-th node;
        # the mm evaluator gives the bits christoffel_streaming gives.
        from mvortho import experiments
        from mvortho.diagnostics import christoffel_streaming
        monkeypatch.setattr(experiments, "CHRISTOFFEL_MAX_ROWS", 300)
        config = small_config(experiment="hol", method="mm", degree=6,
                              mc_samples=2000, output_dir=str(tmp_path))
        res = run_experiment(config)
        stride = experiments.christoffel_stride(res.n_nodes)
        nodes = build_measure(res.config).nodes[::stride]
        assert stride > 1 and len(nodes) <= 300
        kernel, chris = christoffel_streaming(res.evaluate_chunk, nodes,
                                              res.error.error_matrix.shape[0])
        rows = np.loadtxt(tmp_path / "christoffel.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows, np.column_stack([nodes, kernel, chris]))
        assert run_experiment(config, write=False).error.kernel is None

    def test_christoffel_mass_recorded(self, tmp_path):
        res = run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        assert res.christoffel_mass == pytest.approx(1.0, abs=1e-10)
