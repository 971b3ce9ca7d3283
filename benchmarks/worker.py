"""One benchmark repetition in a fresh process.

    python3 worker.py SPAWNED_AT CONFIG_JSON OUT_DIR [TRACE_FILE]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process; the set-up time is measured from it to the end of the
``mvortho.experiments`` import.  CONFIG_JSON holds only the experiment,
method, sizes and seed; every tuning value keeps its library default.
With CONFIG_JSON ``null`` the worker stops after the import (a set-up
probe).  With TRACE_FILE the layer probes are installed and the spans
are written there.  The last line of standard output is a JSON report.
"""

import json
import sys
import time

from mvortho import experiments  # set-up ends with this import

SETUP_S = time.monotonic() - float(sys.argv[1])


def blas_info() -> dict:
    """numpy's BLAS build and its run-time thread count."""
    import ctypes
    import glob
    import os

    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def run(config_fields: dict, out_dir: str, trace_file: str | None) -> dict:
    import os
    import resource

    config = experiments.ExperimentConfig(output_dir=out_dir, **config_fields)
    tracer = None
    if trace_file:
        import spans
        tracer = spans.Tracer(run_id=f"{os.path.basename(out_dir)}-{os.getpid()}")
        spans.install_layer_probes(tracer)
    start = time.perf_counter()
    if tracer is None:
        experiments.run_experiment(config)
    else:
        with tracer.span(spans.ROOT_SPAN, seed=config.seed):
            experiments.run_experiment(config)
    run_s = time.perf_counter() - start
    report = {"setup_s": SETUP_S, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "bytes_written": sum(e.stat().st_size for e in os.scandir(out_dir)
                                   if e.is_file())}
    report.update(blas_info())
    if tracer is not None:
        tracer.restore()
        tracer.write_jsonl(trace_file)
        layers, missing = spans.layer_metrics(tracer)
        report["layers"] = layers
        report["missing"] = missing
    return report


def main() -> int:
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(experiments.__file__).resolve().is_relative_to(src):
        print(f"mvortho was imported from {experiments.__file__}, not {src}",
              file=sys.stderr)
        return 2
    fields = json.loads(sys.argv[2])
    if fields is None:
        report = {"setup_s": SETUP_S}
    else:
        report = run(fields, sys.argv[3],
                     sys.argv[4] if len(sys.argv) > 4 else None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
