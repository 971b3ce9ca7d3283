import dataclasses
import json

import numpy as np
import pytest

from mvortho.experiments import (ExperimentConfig, build_measure,
                                 experiment_dimension, resolve_config,
                                 run_experiment)


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
        assert experiment_dimension("jac2") == 2
        assert experiment_dimension("tor") == 3


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
        res = run_experiment(ExperimentConfig("jac2", "mm", degree=39,
                                              output_dir=str(tmp_path)))
        assert res.failed and res.breakdown_degree is not None
        assert res.effective_error_max == np.inf
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["breakdown_degree"] == res.breakdown_degree
        # outputs for the achievable degrees still exist
        assert (tmp_path / "error_matrix.csv").exists()
        assert (tmp_path / "cond.csv").exists()

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
        residuals = res.diagnostics_counters["closure_residual"]
        assert len(residuals) == 2 and max(residuals) <= 1e-10

    def test_cloud_without_default_degree_names_flag(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0,0,1\n1,0,0,0\n")
        with pytest.raises(ValueError, match="--degree"):
            run_experiment(ExperimentConfig("cloud", "ms",
                                            cloud_path=str(cloud)), write=False)

    def test_manifest_records_completion_defect(self, tmp_path):
        run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        defects = manifest["diagnostics_counters"]["completion_defect"]
        assert len(defects) == 5  # one per degree n = 1..5 for d = 2
        assert max(defects) < 1e-8

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
        from mvortho import experiments
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
        run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["chunk_size"] == 64
        assert manifest["config"]["stack_bytes"] == 4096

    def test_stack_bytes_leaves_recurrence_unchanged(self, tmp_path,
                                                     monkeypatch):
        # The stacked-sweep chunk feeds only the diagnostics, never the
        # moments that define the recurrence.
        from mvortho import measures
        config = small_config(experiment="ann", method="ms", degree=8)
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "a")))
        monkeypatch.setattr(measures, "STACK_BYTES", 8 * 45 * 7)
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "b")))
        for name in ("recurrence.json", "cond.csv", "cc_residuals.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_christoffel_mass_recorded(self, tmp_path):
        res = run_experiment(small_config(method="ms", output_dir=str(tmp_path)))
        assert res.christoffel_mass == pytest.approx(1.0, abs=1e-10)
