import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mvortho import lapack
from mvortho.cli import main
from mvortho.experiments import DEFAULT_DEGREE, ExperimentConfig
from mvortho.measures import MAX_WORKERS, point_cloud_measure
from mvortho.serialization import load_recurrence, save_recurrence
from mvortho.stieltjes import stieltjes_recurrence

import reference


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "mvortho.cli", *args],
                          capture_output=True, text=True)


class TestExitCodes:
    def test_success(self, tmp_path):
        code = main(["run", "--experiment", "jac2", "--method", "ms",
                     "--degree", "4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "recurrence.json").exists()

    def test_usage_error_unknown_method(self, tmp_path):
        proc = run_cli(["run", "--experiment", "jac2", "--method", "bogus",
                        "--out", str(tmp_path)])
        assert proc.returncode == 1

    def test_usage_error_missing_required(self):
        proc = run_cli(["run", "--experiment", "jac2"])
        assert proc.returncode == 1

    def test_usage_error_exact_mismatch(self, tmp_path):
        code = main(["run", "--experiment", "ann", "--method", "exact",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_usage_error_cloud_without_path(self, tmp_path):
        code = main(["run", "--experiment", "cloud", "--method", "ms",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_usage_error_four_dim_cloud_without_degree(self, tmp_path):
        cloud = tmp_path / "pts.csv"
        cloud.write_text("0,0,0,1\n1,0,0,0\n0,1,0,0\n")
        code = main(["run", "--experiment", "cloud", "--method", "ms",
                     "--cloud", str(cloud), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_rank_deficient_cloud_is_exit_two(self, tmp_path, capsys):
        # Radii within 1e-6 of 1, or exactly 1 around (100, 100): the
        # degree-2 rank test fires, in the stacked raising Gram (which
        # knows its degree) or in a weight block (which does not), and
        # both messages name the degree.  The degrees 0 and 1 committed
        # before it are written as a run to degree 1 writes them.
        for name, args in (("noisy", (1e-6,)), ("shifted", (0.0, 1.0, 100.0))):
            cloud = tmp_path / f"{name}.csv"
            np.savetxt(cloud, reference.circle_nodes(*args), fmt="%.17g",
                       delimiter=",")
            out, out_1 = tmp_path / name, tmp_path / f"{name}-1"
            code = main(["run", "--experiment", "cloud", "--method", "ms",
                         "--degree", "5", "--cloud", str(cloud),
                         "--out", str(out)])
            assert code == 2
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["breakdown_degree"] == 2
            message = manifest["failure_message"]
            assert "singular-value ratio" in message
            assert message.endswith(" at degree 2")
            assert message.count("degree") == 1
            assert f"numerical failure: {message} (" in capsys.readouterr().err
            assert [h["degree"] for h in manifest["health"]] == [0, 1]
            assert main(["run", "--experiment", "cloud", "--method", "ms",
                         "--degree", "1", "--cloud", str(cloud),
                         "--out", str(out_1)]) == 0
            for kept in ("recurrence.json", "error_matrix.csv", "cond.csv",
                         "cc_residuals.csv", "christoffel.csv"):
                assert filecmp.cmp(out / kept, out_1 / kept,
                                   shallow=False), (name, kept)

    def test_overflowing_gram_is_exit_two(self, tmp_path):
        # At coordinates near 1e9 the degree-20 monomial Gram overflows.
        # The first degree whose Schur block is not finite is the
        # breakdown, the degrees before it are written, and ms runs.  In
        # process, so the suite's ``filterwarnings = error`` would turn an
        # overflow warning of the assembly into an exception.
        cloud = tmp_path / "big.csv"
        np.savetxt(cloud, np.random.default_rng(1).uniform(-1, 1, (3000, 2))
                   * 1e9, fmt="%.17g", delimiter=",")
        runs = {}
        for method in ("mm", "ms"):
            out = tmp_path / method
            runs[method] = main(["run", "--experiment", "cloud", "--method",
                                 method, "--degree", "20", "--cloud",
                                 str(cloud), "--out", str(out)]), out
        code, out = runs["mm"]
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        breakdown = manifest["breakdown_degree"]
        assert manifest["failure_message"].endswith(f" at degree {breakdown}")
        rec = load_recurrence(out / "recurrence.json")
        assert rec.max_degree == breakdown - 1
        size = (breakdown + 1) * breakdown // 2
        assert np.loadtxt(out / "error_matrix.csv", delimiter=",").shape == \
            (size, size)
        cond = np.loadtxt(out / "cond.csv", delimiter=",", skiprows=1)
        assert np.all(np.isposinf(cond[breakdown:, 1]))
        assert np.all(np.isfinite(cond[:breakdown, 1]))
        assert runs["ms"][0] == 0

    def test_zero_width_axis_is_exit_two(self, tmp_path):
        # Every node at x = 0.5: the Legendre box has a zero-width axis,
        # which maps to its center, so the degree-1 block is singular.
        # In process, under the suite's ``filterwarnings = error``: the
        # Gram-error sweep evaluates the basis outside ``build_gram``.
        cloud = tmp_path / "flat.csv"
        np.savetxt(cloud, np.column_stack(
            [np.full(200, 0.5), np.random.default_rng(0).uniform(-1, 1, 200)]),
            fmt="%.17g", delimiter=",")
        written = {}
        for method in ("ml", "mm"):
            out = tmp_path / method
            assert main(["run", "--experiment", "cloud", "--method", method,
                         "--degree", "3", "--cloud", str(cloud),
                         "--out", str(out)]) == 2
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["breakdown_degree"] == 1
            written[method] = sorted(p.name for p in out.iterdir())
        assert written["ml"] == written["mm"] == [
            "christoffel.csv", "cond.csv", "error_matrix.csv", "manifest.json"]

    def test_numerical_failure_is_exit_two(self, tmp_path):
        code = main(["run", "--experiment", "jac2", "--method", "mm",
                     "--degree", "39", "--out", str(tmp_path)])
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["breakdown_degree"] is not None


class TestFlags:
    def test_quadrature_overrides(self, tmp_path):
        code = main(["run", "--experiment", "ann", "--method", "ms",
                     "--degree", "4", "--n-radial", "8", "--n-theta", "33",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["n_radial"] == 8
        assert manifest["config"]["n_angular"] == 33
        assert manifest["nodes"] == 8 * 33

    def test_seed_and_samples(self, tmp_path):
        code = main(["run", "--experiment", "hol", "--method", "ms",
                     "--degree", "3", "--mc-samples", "2000", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nodes"] == 2000
        assert manifest["config"]["seed"] == 3

    def test_cloud_path(self, tmp_path):
        cloud = tmp_path / "pts.csv"
        cloud.write_text("0.1,0.2\n-0.3,0.4\n0.5,-0.6\n0.7,0.8\n-0.9,-0.1\n"
                         "0.2,0.9\n-0.5,0.3\n0.8,-0.7\n-0.2,-0.8\n0.4,0.6\n")
        code = main(["run", "--experiment", "cloud", "--method", "ms",
                     "--degree", "1", "--cloud", str(cloud),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_one_column_cloud(self, tmp_path):
        # A one-column file is a d = 1 cloud, run by ms like any other.
        cloud = tmp_path / "line.csv"
        cloud.write_text("\n".join(map(repr, np.linspace(-1, 1, 50).tolist())))
        out = tmp_path / "out"
        code = main(["run", "--experiment", "cloud", "--method", "ms",
                     "--degree", "5", "--cloud", str(cloud), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dimension"] == 1
        save_recurrence(
            stieltjes_recurrence(point_cloud_measure(cloud), 5)[0],
            tmp_path / "want.json")
        assert ((out / "recurrence.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())


class TestHelp:
    def test_run_help_states_when_sweeps_run_in_parallel(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("(the ms construction, the moment-method Gram, the Gram "
                "error and the Christoffel kernel)") in text
        assert f"up to {MAX_WORKERS} threads, each holding BLAS to one" in text
        assert "openblas_set_num_threads_local" in text
        assert "no BLAS variable changes their count or outputs" in text
        assert "NUM_THREADS" not in text
        assert f"default {ExperimentConfig.mc_samples}" in text
        assert all(f"{n} for d={d}" in text for d, n in DEFAULT_DEGREE.items())


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(lapack.thread_pin() is None,
                    reason="the bound BLAS cannot be held to one thread")
@pytest.mark.parametrize("args", [
    ["--experiment", "tor", "--method", "ms", "--degree", "6"],
    ["--experiment", "hol", "--method", "ms", "--degree", "12",
     "--mc-samples", "5000", "--seed", "1"],
    ["--experiment", "jac2", "--method", "mm"],
    ["--experiment", "hol", "--method", "ml", "--degree", "20",
     "--mc-samples", "20000", "--seed", "1"]])
def test_outputs_and_workers_ignore_blas_variables(tmp_path, args):
    # A fresh process with BLAS pinned by its variable and one with no
    # BLAS variable write the same bytes on the same worker count, for
    # the moment-method baselines too.  jac2 mm breaks down (exit 2) at
    # its one-thread degree, 19, both ways; while its Gram ran at the
    # caller's BLAS count, it broke down at 20 on two threads.
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    written, workers, breakdowns = [], [], []
    for tag, extra in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}),
                       ("unset", {})):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "mvortho.cli", "run", *args, "--out",
             str(out)], env=dict(base, **extra), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode in (0, 2), proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        breakdowns.append(manifest["breakdown_degree"])
        assert proc.returncode == (0 if breakdowns[-1] is None else 2)
        workers.append(manifest["config"]["workers"])
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "manifest.json"})
    assert breakdowns == ([19, 19] if "jac2" in args else [None, None])
    assert "recurrence.json" in written[0] and "cond.csv" in written[0]
    assert written[0] == written[1]
    cores = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    assert workers == [cores, cores]
