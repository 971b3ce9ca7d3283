"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line to the terminal.  Tolerances are pinned here and nowhere
else."""

import numpy as np
import pytest

from mvortho.diagnostics import (christoffel_streaming,
                                 max_commuting_residual, rank_margins,
                                 symmetry_defect)
from mvortho.experiments import (ExperimentConfig, build_measure,
                                 run_experiment)
from mvortho.indexing import MultiIndexSet, space_dimensions
from mvortho.measures import tensor_jacobi
from mvortho.stieltjes import stieltjes_recurrence
from mvortho.tensor_product import canonical_reorder, tensor_recurrence
from mvortho.univariate import jacobi_recurrence
from mvortho.wopp import solve_orthogonal_factors
from mvortho.errors import NonConvergenceError

JAC2 = ((3.80, 0.78), (7.34, 8.26))
JAC3 = ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67))


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _oracle(d, params, n_max):
    iset = MultiIndexSet.build(d, n_max)
    unis = [jacobi_recurrence(n_max, a, b) for a, b in zip(*params)]
    return iset, canonical_reorder(tensor_recurrence(unis, iset, n_max), iset)


@pytest.fixture(scope="module")
def run_cache(tmp_path_factory):
    cache = {}
    root = tmp_path_factory.mktemp("acceptance")

    def get(experiment, method, write=False, **kw):
        key = (experiment, method, tuple(sorted(kw.items())))
        if key not in cache:
            out = root / f"{experiment}_{method}"
            cfg = ExperimentConfig(experiment=experiment, method=method,
                                   output_dir=str(out), **kw)
            cache[key] = run_experiment(cfg, write=write)
        return cache[key]

    return get


def test_criterion_01_space_dimensions(capsys):
    ok = (space_dimensions(2, 39)[1] == 820
          and space_dimensions(3, 15)[1] == 816)
    _report(capsys, 1, ok,
            f"total basis sizes: d=2 N=39 -> {space_dimensions(2, 39)[1]} "
            f"(want 820), d=3 N=15 -> {space_dimensions(3, 15)[1]} (want 816)")


def test_criterion_02_oracle_validity(capsys):
    details = []
    ok = True
    for d, params, n_max in ((2, JAC2, 39), (3, JAC3, 15)):
        _, oracle = _oracle(d, params, n_max)
        sym = symmetry_defect(oracle)
        per_coord, stacked = rank_margins(oracle)
        cc = max_commuting_residual(oracle)
        ok = ok and sym == 0.0 and per_coord > 1e-10 and stacked > 1e-10 \
            and cc <= 1e-11
        details.append(f"d={d}: sym={sym:.1e} rank_margin={per_coord:.2e}"
                       f"/{stacked:.2e} cc={cc:.2e}")
    _report(capsys, 2, ok, "tensor oracle validity through N: " + "; ".join(details))


def test_criterion_03_ms_oracle_equivalence(capsys):
    details = []
    ok = True
    for d, params, n_max in ((2, JAC2, 20), (3, JAC3, 8)):
        measure = tensor_jacobi(d, n_max + 2, *params)
        iset, oracle = _oracle(d, params, n_max)
        rec, _ = stieltjes_recurrence(measure, iset, n_max)
        worst = max(np.max(np.abs(np.sort(rec.lam[n]) - np.sort(oracle.lam[n]))
                           / np.sort(oracle.lam[n]))
                    for n in range(1, n_max + 1))
        ok = ok and worst <= 1e-8
        details.append(f"d={d} n<={n_max}: rel spectra err {worst:.2e}")
    _report(capsys, 3, ok,
            "stacked raising spectra vs oracle (tol 1e-8): " + "; ".join(details))


@pytest.mark.slow
def test_criterion_04_stability_separation(capsys, run_cache):
    details = []
    ok = True
    for tag in ("jac2", "ann", "cur"):
        ms = run_cache(tag, "ms")
        ok = ok and ms.error.max_abs <= 1e-6
        line = f"{tag}: ms={ms.error.max_abs:.2e}"
        for method in ("mm", "ml"):
            res = run_cache(tag, method)
            degraded = (res.breakdown_degree is not None
                        or res.effective_error_max >= 1e-1)
            ok = ok and degraded
            line += (f" {method}="
                     + (f"breakdown@{res.breakdown_degree}"
                        if res.breakdown_degree is not None
                        else f"{res.effective_error_max:.2e}"))
        details.append(line)
    _report(capsys, 4, ok,
            "N=39 separation (ms <= 1e-6; mm/ml >= 1e-1 or breakdown): "
            + "; ".join(details))


@pytest.mark.slow
def test_criterion_05_conditioning_trend(capsys, run_cache):
    mm = run_cache("jac2", "mm")
    ms = run_cache("jac2", "ms")
    mm_max = float(np.max(mm.cond))
    ms_max = float(np.max(ms.cond))
    ok = mm_max > 1e12 and ms_max < 1e8
    _report(capsys, 5, ok,
            f"jac2 conditioning: max cond(Gram)={mm_max:.2e} (want >1e12), "
            f"max mean cond(moment blocks)={ms_max:.2e} (want <1e8)")


@pytest.mark.slow
def test_criterion_06_torus_pipeline(capsys, run_cache):
    res = run_cache("tor", "ms")
    cc = max_commuting_residual(res.recurrence)
    counters = res.diagnostics_counters
    residuals = counters["closure_residual"]
    worst = max(residuals, default=float("nan"))
    ok = (not res.failed
          and res.error.max_abs <= 1e-5
          and cc <= 1e-7
          and len(residuals) == res.degree - 1
          and worst <= 1e-10
          and counters["moment_fallbacks"] == 1)
    _report(capsys, 6, ok,
            f"tor N=15: E={res.error.max_abs:.2e} (<=1e-5), cc={cc:.2e} "
            f"(<=1e-7), closures={len(residuals)}/{res.degree - 1} with "
            f"residual {worst:.1e} (<=1e-10), "
            f"fallbacks={counters['moment_fallbacks']}/1")


@pytest.mark.slow
def test_criterion_07_monte_carlo_domain(capsys, run_cache):
    ms = run_cache("hol", "ms", mc_samples=1_000_000, seed=0)
    mm = run_cache("hol", "mm", mc_samples=1_000_000, seed=0)
    ok = (not ms.failed and ms.error.max_abs <= 1e-4
          and ms.error.max_abs < mm.effective_error_max)
    mm_desc = (f"breakdown@{mm.breakdown_degree}"
               if mm.breakdown_degree is not None
               else f"{mm.effective_error_max:.2e}")
    _report(capsys, 7, ok,
            f"hol M=1e6 N=39: ms E={ms.error.max_abs:.2e} (<=1e-4), "
            f"mm={mm_desc} (ms must be smaller)")


@pytest.mark.slow
def test_criterion_08_christoffel_identities(capsys, run_cache):
    res = run_cache("ann", "ms")
    measure = build_measure(res.config)
    kernel, _ = christoffel_streaming(res.evaluate_chunk, measure.nodes,
                                      res.size)
    mass = float(np.sum(measure.weights * kernel))
    ok = abs(mass - 1.0) <= 1e-8 and np.all(kernel > 0)
    _report(capsys, 8, ok,
            f"ann N=39 reproducing kernel: integral={mass:.12f} (1 +- 1e-8), "
            f"min over nodes={kernel.min():.3e} (>0)")


def test_criterion_09_orthogonal_factor_recovery(capsys):
    def instance(seed, m=3, q=6, d=4):
        rng = np.random.default_rng(seed)
        coords = list(range(1, d))
        truth = {}
        for j in coords:
            mat, r = np.linalg.qr(rng.standard_normal((q, q)))
            truth[j] = mat * np.sign(np.diag(r))
        weights = {j: np.hstack([np.diag(rng.uniform(0.5, 1.5, m)),
                                 np.zeros((m, q - m))]) for j in coords}
        targets = {}
        for a, i in enumerate(coords):
            for j in coords[a + 1:]:
                targets[(i, j)] = weights[i] @ truth[i] @ truth[j].T \
                    @ weights[j].T
        return weights, targets

    solved = 0
    for seed in range(100):
        weights, targets = instance(seed)
        try:
            res = solve_orthogonal_factors(weights, targets)
            if res.residual <= 1e-8:
                solved += 1
        except NonConvergenceError:
            pass
    ok = solved >= 90
    _report(capsys, 9, ok,
            f"d=4 synthetic recovery: {solved}/100 solved to 1e-8 "
            f"(need >= 90)")


@pytest.mark.slow
def test_criterion_10_determinism(capsys, tmp_path):
    names = ("recurrence.json", "error_matrix.csv", "cond.csv",
             "cc_residuals.csv", "christoffel.csv")
    identical = True
    for tag, method, kw in (("jac2", "ms", {}),
                            ("hol", "ms", {"degree": 8, "mc_samples": 50000})):
        outs = []
        for stamp in ("first", "second"):
            out = tmp_path / f"{tag}_{stamp}"
            cfg = ExperimentConfig(experiment=tag, method=method, seed=1,
                                   output_dir=str(out), **kw)
            run_experiment(cfg)
            outs.append(out)
        for name in names:
            identical = identical and \
                (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(capsys, 10, identical,
            "repeated identical configs produce byte-identical recurrence "
            "and CSV outputs (jac2 N=39; hol N=8 M=5e4)")
