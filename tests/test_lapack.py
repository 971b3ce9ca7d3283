import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from mvortho import lapack
from mvortho.experiments import JACOBI_PARAMS, ExperimentConfig, run_experiment
from mvortho.measures import gauss_jacobi_rule
from mvortho.univariate import jacobi_recurrence

from reference import scipy_eigh_tridiagonal, scipy_solve_lower


def numpy_links_scipy_openblas() -> bool:
    """Whether numpy's wheel ships the OpenBLAS the binding looks for."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return blas.get("name") == "scipy-openblas"


scipy_openblas_only = pytest.mark.skipif(
    not numpy_links_scipy_openblas(),
    reason="numpy does not ship scipy-openblas; the scipy fallback runs")


def lower_factor(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return np.linalg.cholesky(m @ m.T + n * np.eye(n)), rng


def assert_same(x, ref):
    assert x.shape == ref.shape
    assert np.array_equal(x, ref)


def no_binding(monkeypatch):
    monkeypatch.setattr(lapack, "_bound", lambda: None)


@scipy_openblas_only
def test_binding_found_in_numpy_openblas(monkeypatch):
    assert lapack._bound() is not None
    assert lapack.backend().startswith("OpenBLAS")
    if os.path.exists("/proc/self/maps"):
        # Without the wheel's library directory the mapped library is found.
        monkeypatch.setattr(lapack.glob, "glob", lambda pattern: [])
        assert lapack._bound.__wrapped__() is not None


class TestSolveLower:
    @pytest.mark.parametrize("n", [2, 7, 64, 153])
    def test_c_ordered_factor(self, n):
        chol, rng = lower_factor(n)
        rhs = rng.standard_normal((n, 301))
        x = lapack.solve_lower(chol, rhs)
        assert_same(x, scipy_solve_lower(chol, rhs))
        assert x.flags.f_contiguous

    @pytest.mark.parametrize("lo", [1, 5, 40])
    def test_leading_view_with_strided_rhs(self, lo):
        # _blocked_cholesky's call: a leading view of the factor and a
        # column block of the Gram, neither contiguous.
        chol, rng = lower_factor(60)
        gram = rng.standard_normal((60, 60))
        view, rhs = chol[:lo, :lo], gram[:lo, lo:lo + 9]
        assert lo == 1 or not (rhs.flags.c_contiguous
                               or rhs.flags.f_contiguous)
        assert_same(lapack.solve_lower(view, rhs),
                     scipy_solve_lower(view, rhs))

    @pytest.mark.parametrize("n", [1, 3, 45])
    def test_identity_rhs(self, n):
        chol, _ = lower_factor(n)
        assert_same(lapack.solve_lower(chol, np.eye(n)),
                     scipy_solve_lower(chol, np.eye(n)))

    def test_fortran_ordered_factor(self):
        chol, rng = lower_factor(20)
        chol = np.asfortranarray(chol)
        rhs = rng.standard_normal((20, 7))
        assert_same(lapack.solve_lower(chol, rhs),
                     scipy_solve_lower(chol, rhs))

    def test_one_by_one_and_empty(self):
        one = np.array([[3.0]])
        assert_same(lapack.solve_lower(one, np.array([[1.0, 2.0]])),
                     scipy_solve_lower(one, np.array([[1.0, 2.0]])))
        for factor, rhs in ((np.eye(0), np.ones((0, 3))),
                            (np.eye(4), np.ones((4, 0)))):
            assert_same(lapack.solve_lower(factor, rhs),
                         scipy_solve_lower(factor, rhs))

    def test_zero_diagonal_raises_scipys_error(self):
        chol, rng = lower_factor(6)
        chol[3, 3] = 0.0
        rhs = rng.standard_normal((6, 2))
        with pytest.raises(np.linalg.LinAlgError) as ref:
            scipy_solve_lower(chol, rhs)
        with pytest.raises(np.linalg.LinAlgError) as err:
            lapack.solve_lower(chol, rhs)
        assert str(err.value) == str(ref.value)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            lapack.solve_lower(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            lapack.solve_lower(np.eye(3), np.ones((2, 1)))
        with pytest.raises(ValueError):
            lapack.solve_lower(np.eye(3), np.ones(3))

    def test_fallback_is_scipy(self, monkeypatch):
        chol, rng = lower_factor(30)
        rhs = rng.standard_normal((30, 11))
        no_binding(monkeypatch)
        assert lapack.backend() == "scipy.linalg"
        assert lapack.active_threads() is None
        assert lapack.thread_pin() is None
        assert_same(lapack.solve_lower(chol, rhs),
                     scipy_solve_lower(chol, rhs))


JACOBI_PAIRS = sorted({(0.0, 0.0)} | {
    (alpha, beta) for alphas, betas in JACOBI_PARAMS.values()
    for alpha, beta in zip(alphas, betas)})


@scipy_openblas_only
class TestEighTridiagonal:
    """``gauss_jacobi_rule`` takes ``np.linalg.eigh`` of the dense Jacobi
    matrix: its nodes and weights are the bits of the tridiagonal solve
    (``dstevd``) on the same OpenBLAS, below and above the 32 rows where
    ``dsytrd`` turns to its blocked reduction."""

    @staticmethod
    def assert_golub_welsch(n, alpha, beta):
        rec = jacobi_recurrence(n, alpha, beta)
        nodes, vecs = scipy_eigh_tridiagonal(rec.a[:n], rec.b[1:n])
        weights = vecs[0, :] ** 2
        x, w = gauss_jacobi_rule(n, alpha, beta)
        assert_same(x, nodes)
        assert_same(w, weights / weights.sum())

    @pytest.mark.parametrize("alpha,beta", JACOBI_PAIRS)
    def test_jacobi_matrices_match_scipy(self, alpha, beta):
        for n in range(2, 61):
            self.assert_golub_welsch(n, alpha, beta)

    def test_one_by_one(self):
        for alpha, beta in JACOBI_PAIRS:
            self.assert_golub_welsch(1, alpha, beta)


@pytest.mark.skipif(lapack.thread_pin() is None,
                    reason="the bound BLAS cannot be held to one thread")
def test_overlapping_blocks_restore_the_count():
    # Block A enters, block B enters in another thread, A leaves: B still
    # runs one BLAS thread, and once B leaves the caller's two are back.
    pin = lapack.thread_pin()
    held = pin(2)
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    inside_b = []

    def block_a():
        with lapack.one_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def block_b():
        a_in.wait(10)
        with lapack.one_thread():
            b_in.set()
            a_out.wait(10)
            inside_b.append(lapack.active_threads())

    try:
        threads = [threading.Thread(target=f) for f in (block_a, block_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not any(thread.is_alive() for thread in threads)
        assert inside_b == [1]
        assert lapack.active_threads() == 2
    finally:
        pin(held)


OUTPUTS = ("recurrence.json", "error_matrix.csv", "cond.csv",
           "cc_residuals.csv", "christoffel.csv")


# hol mm goes through solve_lower; tor ms calls no bound routine, so
# nothing in it may move.
@pytest.mark.parametrize("fields", [
    dict(experiment="tor", method="ms", degree=5),
    dict(experiment="hol", method="mm", degree=12, mc_samples=3000, seed=3)])
def test_fallback_writes_the_same_bytes(tmp_path, monkeypatch, fields):
    # Both runs hold BLAS to one thread, as the bound run's node sweeps
    # do, so that only the LAPACK calls differ between them.
    written = []
    with lapack.one_thread():
        for tag in ("bound", "fallback"):
            if tag == "fallback":
                no_binding(monkeypatch)
            out = tmp_path / tag
            run_experiment(ExperimentConfig(output_dir=str(out), **fields))
            written.append({name: (out / name).read_bytes()
                            for name in OUTPUTS if (out / name).exists()})
    assert "recurrence.json" in written[0] and "cond.csv" in written[0]
    assert written[0] == written[1]


@scipy_openblas_only
def test_runs_never_import_scipy_linalg(tmp_path):
    code = f"""
import sys
import mvortho.experiments as ex
runs = [dict(experiment="hol", method="ms", degree=4, mc_samples=500),
        dict(experiment="tor", method="ms", degree=3),
        dict(experiment="hol", method="mm", degree=4, mc_samples=500),
        dict(experiment="ann", method="ml", degree=4)]
for i, fields in enumerate(runs):
    ex.run_experiment(ex.ExperimentConfig(output_dir={str(tmp_path)!r} + str(i),
                                          **fields))
print("scipy.linalg" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join(sys.path)),
                         timeout=120)
    assert out.stdout.split() == ["False"]


def test_unbound_gauss_rules_never_import_scipy_linalg(tmp_path):
    # Without the binding, Gauss rules still come from numpy's own LAPACK.
    code = f"""
import sys
from mvortho import lapack
lapack._bound = lambda: None
import mvortho.experiments as ex
ex.run_experiment(ex.ExperimentConfig(experiment="tor", method="ms",
                                      degree=3, output_dir={str(tmp_path)!r}))
print(lapack.backend(), "scipy.linalg" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join(sys.path)),
                         timeout=120)
    assert out.stdout.split() == ["scipy.linalg", "False"]


@scipy_openblas_only
def test_manifest_reports_active_blas_threads(tmp_path):
    # The thread count OpenBLAS runs, not only the variable that set it.
    code = f"""
import json, pathlib
import mvortho.experiments as ex
ex.run_experiment(ex.ExperimentConfig(experiment="jac2", method="mm",
                                      degree=3, output_dir={str(tmp_path)!r}))
env = json.loads((pathlib.Path({str(tmp_path)!r}) / "manifest.json")
                 .read_text())["environment"]
print(env["blas_threads_active"])
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                                  PYTHONPATH=os.pathsep.join(sys.path)),
                         timeout=120)
    assert out.stdout.split() == ["1"]
