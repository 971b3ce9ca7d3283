"""mvortho benchmark: time to a recurrence of stated accuracy.

    python3 benchmarks/run.py --workload hol-ms --seed 0 --seconds 30 --trace 0

Every repetition is a fresh process (``worker.py``) that calls
``mvortho.experiments.run_experiment`` with only the experiment, method,
sizes and seed set, so later changes to library defaults are measured as
users see them.  Each repetition writes to a throw-away directory and is
checked from those output files alone.  Repetitions run until
``--seconds`` is used up (at least two, and at least one per input seed).

With ``--trace 0`` the end-to-end metrics are reported (medians over the
repetitions).  With ``--trace 1`` the first repetition runs with the layer
probes of ``spans.py`` and the per-layer metrics are reported; the spans
go to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.  Every metric is
printed by name with its unit, then an environment record, and the last
line of standard output is the JSON result.  ``--tiny`` shrinks every
workload to a seconds-long configuration for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7         # set-up times per run, from repetitions and probes
BLAS_THREADS = 1          # threads each repetition's BLAS may run
RUN_LIMIT_S = 170.0       # no repetition may run past this point of a run
DEGRADED_ERROR = 1e-1     # max |E| at which the moment method counts as degraded

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "digits": "digits", "cc_digits": "digits"}


@dataclass(frozen=True)
class Workload:
    """One (experiment, method) pair with its sizes and acceptance check.

    ``seeds`` distinct inputs are derived from the run's seed; accuracy
    is their median.  A ``degraded`` workload must break down or reach
    max |E| >= DEGRADED_ERROR; otherwise ``max_error`` and ``max_cc``
    bound max |E| and the commuting residual.  ``accuracy_degree`` limits
    ``digits``/``cc_digits`` to the degrees every input delivers.
    """

    experiment: str
    method: str
    sizes: dict
    tiny: dict
    seeds: int
    max_error: float | None = None
    max_cc: float | None = None
    degraded: bool = False
    accuracy_degree: int | None = None


WORKLOADS = {
    # Node sweeps over (r_n x M) blocks that fill the last-level cache.
    "hol-ms": Workload("hol", "ms", {"degree": 39, "mc_samples": 100_000},
                       {"degree": 10, "mc_samples": 5_000}, seeds=2,
                       max_error=1e-4),
    # d = 3: six residual-Gram pairs per sweep and the d = 3 closure.  The
    # torus rule is deterministic, so one input seed suffices.  N=13 keeps
    # a repetition near 10 s on one core, so a run holds two or three.
    "tor-ms": Workload("tor", "ms", {"degree": 13}, {"degree": 5}, seeds=1,
                       max_error=1e-5, max_cc=1e-7),
    # Moment-method baseline on hol-ms's samples: bypasses stieltjes and
    # breaks down at degree 16 or 17 depending on the sample.  Its basis is
    # graded, so N=20 gives the breakdown degree, E and commuting residuals
    # of N=39 bit for bit at a quarter of the cost.  The saving buys input
    # seeds: its accuracy through degree 15 varies widely between samples.
    "hol-mm": Workload("hol", "mm", {"degree": 20, "mc_samples": 100_000},
                       {"degree": 20, "mc_samples": 5_000}, seeds=11,
                       degraded=True, accuracy_degree=15),
}


class RepFailed(Exception):
    """A repetition that raised, timed out or failed its output check."""


@dataclass
class Rep:
    seed: int
    traced: bool
    report: dict | None = None
    digits: float | None = None
    cc_digits: float | None = None
    manifest: dict | None = None
    failure: str | None = None


def _neg_log10(value: float) -> float:
    return -math.log10(max(value, sys.float_info.min))


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_outputs(workload: Workload, out_dir: Path):
    """Check one repetition from its output files.

    Returns (manifest, digits, cc_digits); raises RepFailed when the
    outputs miss the workload's tolerance.
    """
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        error_max = manifest["error_max"]
        broke = (manifest["breakdown_degree"] is not None
                 or manifest["failure_message"] is not None)
        d = manifest["dimension"]
        cc_rows = _read_rows(out_dir / "cc_residuals.csv")[1:]
    except (OSError, KeyError, ValueError) as exc:
        raise RepFailed(f"outputs unreadable: {exc!r}") from exc
    if error_max is None:
        raise RepFailed("no Gram error in the outputs")
    if workload.degraded:
        if not broke and error_max < DEGRADED_ERROR:
            raise RepFailed(f"moment method did not degrade: no breakdown and "
                            f"max |E| {error_max:.3e} < {DEGRADED_ERROR:g}")
    else:
        if broke:
            raise RepFailed(f"breakdown at degree {manifest['breakdown_degree']}: "
                            f"{manifest['failure_message']}")
        if not error_max <= workload.max_error:
            raise RepFailed(f"max |E| {error_max:.3e} > {workload.max_error:g}")

    top = workload.accuracy_degree
    if top is None:
        digits = _neg_log10(error_max)
    else:
        # error_matrix.csv holds log10 |E|; keep the leading degree-<=top block.
        size = math.comb(top + d, d)
        rows = _read_rows(out_dir / "error_matrix.csv")[:size]
        digits = -max(float(v) for row in rows for v in row[:size])
    residuals = [max(float(v) for v in row[3:]) for row in cc_rows
                 if top is None or int(row[0]) < top]
    if not residuals:
        raise RepFailed("no commuting residuals in the outputs")
    cc_max = max(residuals)
    if workload.max_cc is not None and not cc_max <= workload.max_cc:
        raise RepFailed(f"commuting residual {cc_max:.3e} > {workload.max_cc:g}")
    return manifest, digits, _neg_log10(cc_max)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS thread: on a shared 2-core host, a second thread barely
    # speeds a quiet run (about 7 % on hol-ms) but slows it by two thirds
    # whenever a neighbour holds one of the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list, env: dict, timeout: float) -> dict:
    """Start worker.py, wait for it, and return its JSON report."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(spawned_at), *args],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RepFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RepFailed(f"worker printed no report: {exc!r}") from exc


def run_rep(workload, fields, out_dir, trace_file, env, timeout, nproc) -> Rep:
    rep = Rep(seed=fields["seed"], traced=trace_file is not None)
    args = [json.dumps(fields), str(out_dir)]
    if trace_file is not None:
        args.append(str(trace_file))
    try:
        rep.report = spawn(args, env, timeout)
        threads = rep.report.get("blas_threads")
        if threads is not None and threads != BLAS_THREADS:
            raise RepFailed(f"BLAS runs {threads} threads, not {BLAS_THREADS}, "
                            f"on {nproc} cores")
        rep.manifest, rep.digits, rep.cc_digits = check_outputs(workload, out_dir)
    except RepFailed as exc:
        rep.failure = str(exc)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def last_level_cache_bytes() -> int | None:
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    for code in (194, 191):   # glibc _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE
        value = libc.sysconf(code)
        if value > 0:
            return value
    return None


def environment(workload: Workload, sizes: dict, reps: list, nproc: int) -> dict:
    """Versions, threads, cache, and the workload's working set."""
    env = {"nproc": nproc, "llc_bytes": last_level_cache_bytes(),
           "experiment": workload.experiment, "method": workload.method,
           "sizes": sizes}
    first = next((r.report for r in reps if r.report), {})
    for key in ("numpy", "scipy", "blas", "blas_threads"):
        env[key] = first.get(key)
    manifest = next((r.manifest for r in reps if r.manifest), None)
    if manifest is None:
        return env
    d, n, m = manifest["dimension"], manifest["degree"], manifest["nodes"]
    chunk = manifest.get("config", {}).get("chunk_size")
    env.update(nodes=m, chunk_size=chunk)
    usable = n if manifest["breakdown_degree"] is None else manifest["breakdown_degree"] - 1
    if workload.method == "ms":
        # values_cur, values_prev and the new block: r_n x M each.
        env["largest_block_bytes"] = 8 * math.comb(n + d - 1, d - 1) * m
    elif chunk:
        env["largest_block_bytes"] = 8 * math.comb(n + d, d) * min(chunk, m)
    if chunk:
        env["gram_error_chunk_bytes"] = 8 * math.comb(usable + d, d) * min(chunk, m)
    llc = env["llc_bytes"]
    for key in ("largest_block_bytes", "gram_error_chunk_bytes"):
        if llc and key in env:
            env[key.replace("_bytes", "_over_llc")] = env[key] / llc
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, record).  ``result`` is the
    line printed last, ``record`` adds the environment and every
    repetition."""
    workload = WORKLOADS[name]
    sizes = workload.tiny if tiny else workload.sizes
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.jsonl"
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    min_reps = 2 if trace else max(2, workload.seeds)
    reps, setups = [], []
    start = time.monotonic()
    longest = 0.0
    try:
        while len(reps) < min_reps or (
                time.monotonic() - start + longest <= seconds):
            elapsed = time.monotonic() - start
            if elapsed >= RUN_LIMIT_S - 10:
                break
            traced = trace and not reps
            # The traced repetition and the first untraced one share seed 0.
            index = max(len(reps) - 1, 0) if trace else len(reps)
            fields = {"experiment": workload.experiment,
                      "method": workload.method, **sizes,
                      "seed": seed * 1000 + index % workload.seeds}
            began = time.monotonic()
            reps.append(run_rep(workload, fields, scratch / f"rep{len(reps)}",
                                trace_file if traced else None, env,
                                RUN_LIMIT_S - elapsed, nproc))
            longest = max(longest, time.monotonic() - began)
        setups = [r.report["setup_s"] for r in reps if r.report]
        while len(setups) < SETUP_SAMPLES and time.monotonic() - start < RUN_LIMIT_S - 10:
            try:
                setups.append(spawn(["null"], env, 30.0)["setup_s"])
            except RepFailed:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Same seed, same inputs: accuracy must repeat bit for bit.
    accuracy = {}
    for rep in reps:
        if rep.failure is None:
            seen = accuracy.setdefault(rep.seed, (rep.digits, rep.cc_digits))
            if seen != (rep.digits, rep.cc_digits):
                rep.failure = (f"seed {rep.seed} gave accuracy {rep.digits!r}/"
                               f"{rep.cc_digits!r}, earlier {seen[0]!r}/{seen[1]!r}")
    failed = sum(r.failure is not None for r in reps)
    timed = [r.report for r in reps if r.report and not r.traced]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    missing = []
    if trace:
        report = reps[0].report or {}
        # A traced repetition that crashed still reports every name, as 0.
        empty, _ = spans.layer_metrics(spans.Tracer(""))
        layers = report.get("layers", empty)
        missing = report.get("missing", [])
        traced_s = report.get("run_s", 0.0)
        layers["serialization.bytes_written"] = (report.get("bytes_written", 0), "bytes")
        layers["trace.run_s"] = (traced_s, "s")
        layers["trace.overhead_s"] = (traced_s - median(r["run_s"] for r in timed), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        values = {
            "run_s": median(r["run_s"] for r in timed),
            "setup_s": median(setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
            "digits": median(v[0] for v in accuracy.values()),
            "cc_digits": median(v[1] for v in accuracy.values()),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": failed == 0 and bool(reps), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "tiny": tiny, "environment": environment(workload, sizes, reps, nproc),
              "setup_samples": setups, "missing_metrics": missing,
              "repetitions": [{"seed": r.seed, "traced": r.traced,
                               "failure": r.failure, "digits": r.digits,
                               "cc_digits": r.cc_digits,
                               **{k: v for k, v in (r.report or {}).items()
                                  if k not in ("layers", "missing")}}
                              for r in reps],
              "result": result}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "mvortho" / "experiments.py").is_file():
        print(f"no mvortho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny)
    suffix = "-tiny" if args.tiny else ""
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for rep in record["repetitions"]:
        if rep["failure"]:
            print(f"# failed (seed {rep['seed']}): {rep['failure']}")
    if record["missing_metrics"]:
        print(f"# missing (probe found nothing to wrap, reported as 0): "
              f"{', '.join(record['missing_metrics'])}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
