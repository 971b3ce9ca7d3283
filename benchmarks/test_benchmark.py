"""Self-test of the benchmark: tiny configurations of every workload.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from mvortho.experiments import ExperimentConfig, run_experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_emitted(results, workload, trace, section):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_self_times_account_for_traced_run(results, workload):
    metrics = results[workload, 1]["metrics"]
    total = sum(metrics[name]["value"] for name in spans.SELF_TIME_METRICS)
    traced = metrics["trace.run_s"]["value"]
    assert total == pytest.approx(traced, rel=0.01, abs=1e-3)


def test_end_to_end_metrics_nonzero(results):
    for workload in run.WORKLOADS:
        for metric in results[workload, 0]["metrics"].values():
            assert metric["value"] > 0


def test_tolerance_breach_counts_as_failed(monkeypatch):
    strict = dataclasses.replace(run.WORKLOADS["hol-ms"], max_error=1e-30)
    monkeypatch.setitem(run.WORKLOADS, "hol-ms", strict)
    result, record = run.run_workload("hol-ms", 0, 0.1, False, tiny=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert all("max |E|" in rep["failure"] for rep in record["repetitions"])


def _tiny_outputs(name, tmp_path):
    workload = run.WORKLOADS[name]
    config = ExperimentConfig(experiment=workload.experiment,
                              method=workload.method, seed=0,
                              output_dir=str(tmp_path), **workload.tiny)
    run_experiment(config)
    run.check_outputs(workload, tmp_path)
    return workload


def _edit_manifest(path, **changes):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.update(changes)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_check_rejects_large_error(tmp_path):
    workload = _tiny_outputs("hol-ms", tmp_path)
    _edit_manifest(tmp_path, error_max=2e-4)
    with pytest.raises(run.RepFailed, match="max"):
        run.check_outputs(workload, tmp_path)


def test_check_rejects_commuting_residual(tmp_path):
    workload = _tiny_outputs("tor-ms", tmp_path)
    path = tmp_path / "cc_residuals.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = "2e-7"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(run.RepFailed, match="commuting residual"):
        run.check_outputs(workload, tmp_path)


def test_check_requires_moment_method_to_degrade(tmp_path):
    workload = _tiny_outputs("hol-mm", tmp_path)
    _edit_manifest(tmp_path, breakdown_degree=None, failure_message=None,
                   error_max=1e-3)
    with pytest.raises(run.RepFailed, match="did not degrade"):
        run.check_outputs(workload, tmp_path)


def test_missing_probe_is_reported_not_fatal():
    tracer = spans.Tracer("missing-probe")
    tracer.patch("mvortho.stieltjes", "_no_such_phase", "stieltjes.residual_pass")
    tracer.patch("mvortho.stieltjes", "_commit_degree", "stieltjes.commit")
    try:
        with tracer.span(spans.ROOT_SPAN):
            pass
        metrics, missing = spans.layer_metrics(tracer)
    finally:
        tracer.restore()
    assert "stieltjes.residual_pass_s" in missing
    assert "stieltjes.commit_s" not in missing
    assert metrics["stieltjes.residual_pass_s"] == (0.0, "s")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("hol-ms", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
