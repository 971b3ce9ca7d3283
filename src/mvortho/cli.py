"""Command-line experiment runner.

Exit codes: 0 success, 1 usage error, 2 numerical failure (the outputs of
the degrees carried are still written, the breakdown in the manifest),
also for a moment-method Gram that overflows, which prints no warning.
Each ``run`` option is stored under the name of its ``ExperimentConfig``
field.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NumericalFailure
from .experiments import (DEFAULT_DEGREE, EXPERIMENTS, METHODS,
                          ExperimentConfig, run_experiment)
from .measures import MAX_WORKERS

RUN_EPILOG = (
    "Node sweeps (the ms construction, the moment-method Gram, the Gram "
    f"error and the Christoffel kernel) run on up to {MAX_WORKERS} threads, "
    "each holding BLAS to one thread, where numpy's OpenBLAS exports "
    "openblas_set_num_threads_local (0.3.27 or later), else on one; no BLAS "
    "variable changes their count or outputs.")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvortho",
                     description="Orthogonal-polynomial recurrence experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment/method pair",
                         epilog=RUN_EPILOG)
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--method", required=True, choices=METHODS)
    defaults = ", ".join(f"{n} for d={d}" for d, n in DEFAULT_DEGREE.items())
    run.add_argument("--degree", type=int, default=None,
                     help=f"max total degree N (default {defaults}; "
                          f"required for other d)")
    run.add_argument("--mc-samples", type=int,
                     default=ExperimentConfig.mc_samples,
                     help="Monte Carlo sample count for hol (default %(default)s)")
    run.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    run.add_argument("--cloud", dest="cloud_path", default=None,
                     help="point-cloud CSV path")
    run.add_argument("--out", dest="output_dir",
                     default=ExperimentConfig.output_dir,
                     help="output directory")
    run.add_argument("--n-points", type=int, default=None,
                     help="per-axis Gauss points for jac experiments")
    run.add_argument("--n-radial", type=int, default=None)
    run.add_argument("--n-theta", dest="n_angular", type=int, default=None,
                     help="angular points (ann/cur/tor)")
    run.add_argument("--n-phi", dest="n_azimuthal", type=int, default=None,
                     help="azimuthal points (tor)")
    return parser


def main(argv=None) -> int:
    fields = vars(build_parser().parse_args(argv))
    del fields["command"]
    try:
        result = run_experiment(ExperimentConfig(**fields))
    except (ValueError, FileNotFoundError) as exc:
        print(f"mvortho: error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"mvortho: numerical failure: {exc}", file=sys.stderr)
        return 2

    if result.failed:
        print(f"mvortho: numerical failure: {result.failure_message} (outputs "
              f"written to {result.config.output_dir})", file=sys.stderr)
        return 2
    print(f"{result.config.experiment}/{result.config.method}: degree "
          f"{result.degree}, {result.size} basis functions over "
          f"{result.n_nodes} nodes, max |E| = {result.error.max_abs:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
