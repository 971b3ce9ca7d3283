"""Experiment driver: builds a measure, runs one construction method, and
reports orthogonality error, conditioning, and compatibility residuals.

Experiments
-----------
jac2, jac3 : tensorized Jacobi measures (exact quadrature; the only
             tags where the explicit tensor-product construction applies)
ann        : uniform measure on the annulus 0.5 <= r <= 1
cur        : uniform measure between two Archimedean spirals
tor        : uniform measure inside a solid torus (d = 3)
hol        : Monte Carlo uniform measure on the square minus the unit ball
cloud      : uniform measure over a user-supplied CSV point cloud

Methods
-------
exact : explicit tensor-product recurrence matrices (jac2/jac3 only)
ms    : degree-advancing moment algorithm (stieltjes module)
mm    : moment method on monomials
ml    : moment method on bounding-box Legendre polynomials
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, measures, serialization
from .diagnostics import (ErrorReport, christoffel_streaming,
                          commuting_residuals, gram_condition_numbers,
                          gram_error_streaming)
from .errors import NumericalFailure
from .evaluation import evaluator as recurrence_evaluator
from .indexing import MultiIndexSet
from .measures import (annulus_measure, point_cloud_measure, spiral_measure,
                       square_minus_ball, tensor_jacobi, torus_measure)
from .moment_method import (build_gram, extract_recurrence,
                            legendre_box_basis, monomial_basis,
                            orthonormal_evaluator)
from .recurrence import RecurrenceData
from .stieltjes import stieltjes_recurrence
from .tensor_product import canonical_reorder, tensor_recurrence
from .univariate import jacobi_recurrence

EXPERIMENTS = ("jac2", "jac3", "ann", "cur", "tor", "hol", "cloud")

JACOBI_PARAMS = {
    "jac2": ((3.80, 0.78), (7.34, 8.26)),
    "jac3": ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67)),
}
DEFAULT_DEGREE = {2: 39, 3: 15}
CHRISTOFFEL_MAX_ROWS = 20000


@dataclass
class ExperimentConfig:
    """Fully describes one run; unset sizes get degree-based defaults
    large enough that every moment the algorithms need is exact where
    exactness is claimed (Gauss counts N+2 per axis, angular counts
    4N+5), except the spiral's outer angle which is intrinsically
    approximate and defaults to 25000 points.  The moment-method Gram
    uses the package-wide ``measures.CHUNK``, serially, in two reused
    (R × ``CHUNK``) buffers; the ``ms`` sweeps and the Gram-error and
    Christoffel sweeps ``measures.STACK_BYTES``, on ``measures.WORKERS``
    threads.  The manifest records them as
    ``config.chunk_size``, ``config.stack_bytes`` and ``config.workers``
    (the outputs do not depend on the last), and
    ``environment.blas_threads`` the BLAS thread variable that set
    ``WORKERS``."""

    experiment: str
    method: str
    degree: int | None = None
    n_points: int | None = None
    n_radial: int | None = None
    n_angular: int | None = None
    n_azimuthal: int | None = None
    mc_samples: int = 1_000_000
    seed: int = 0
    cloud_path: str | None = None
    output_dir: str = "."


@dataclass
class Construction:
    """What a construction method returns: its basis evaluator through
    ``usable_degree`` (None when no degree is usable) and recurrence
    (None below degree 1), plus diagnostics."""

    recurrence: RecurrenceData | None
    evaluate_chunk: object | None
    cond: np.ndarray | None
    usable_degree: int
    gram_drift: list | None = None
    diagnostics_counters: dict = field(default_factory=dict)
    breakdown_degree: int | None = None


@dataclass(kw_only=True)
class ExperimentResult(Construction):
    """A construction plus the run's configuration and error reports."""

    config: ExperimentConfig
    d: int
    degree: int
    n_nodes: int
    size: int
    error: ErrorReport | None
    cc_rows: list | None
    failure_message: str | None
    christoffel_mass: float | None

    @property
    def failed(self) -> bool:
        return self.breakdown_degree is not None or self.failure_message is not None

    @property
    def effective_error_max(self) -> float:
        """max |E| with breakdown/failure counted as infinitely bad."""
        if self.failed or self.error is None:
            return float("inf")
        return self.error.max_abs


def default_degree(d: int) -> int:
    if d not in DEFAULT_DEGREE:
        raise ValueError(f"no default degree for d = {d}; pass --degree")
    return DEFAULT_DEGREE[d]


def experiment_dimension(experiment: str, cloud_path=None) -> int:
    if experiment in ("jac2", "ann", "cur", "hol"):
        return 2
    if experiment in ("jac3", "tor"):
        return 3
    if experiment == "cloud":
        if cloud_path is None:
            raise ValueError("cloud experiment requires --cloud PATH")
        return point_cloud_measure(cloud_path).d
    raise ValueError(f"unknown experiment {experiment!r}")


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Validate tags and fill size defaults; raises ValueError on misuse."""
    if config.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {config.experiment!r}; "
                         f"choose from {', '.join(EXPERIMENTS)}")
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; "
                         f"choose from {', '.join(METHODS)}")
    if config.method == "exact" and config.experiment not in JACOBI_PARAMS:
        raise ValueError("the exact method applies only to the tensorial "
                         "experiments jac2 and jac3")
    if config.experiment == "cloud" and config.cloud_path is None:
        raise ValueError("cloud experiment requires --cloud PATH")
    out = dataclasses.replace(config)
    if out.degree is None:
        d = experiment_dimension(out.experiment, out.cloud_path)
        out.degree = default_degree(d)
    if out.degree < 1:
        raise ValueError("degree must be >= 1")
    n = out.degree
    if out.n_points is None:
        out.n_points = n + 2
    if out.n_radial is None:
        out.n_radial = n + 2
    if out.n_angular is None:
        out.n_angular = 25000 if out.experiment == "cur" else 4 * n + 5
    if out.n_azimuthal is None:
        out.n_azimuthal = 4 * n + 5
    return out


def build_measure(config: ExperimentConfig):
    tag = config.experiment
    if tag in JACOBI_PARAMS:
        alphas, betas = JACOBI_PARAMS[tag]
        return tensor_jacobi(len(alphas), config.n_points, alphas, betas, label=tag)
    if tag == "ann":
        return annulus_measure(config.n_radial, config.n_angular)
    if tag == "cur":
        return spiral_measure(config.n_radial, config.n_angular)
    if tag == "tor":
        return torus_measure(config.n_radial, config.n_angular, config.n_azimuthal)
    if tag == "hol":
        return square_minus_ball(config.mc_samples, config.seed)
    if tag == "cloud":
        return point_cloud_measure(config.cloud_path)
    raise ValueError(f"unknown experiment {tag!r}")


def _run_exact(config, measure, index_set) -> Construction:
    alphas, betas = JACOBI_PARAMS[config.experiment]
    unis = [jacobi_recurrence(config.degree, alphas[i], betas[i])
            for i in range(measure.d)]
    rec = canonical_reorder(tensor_recurrence(unis, index_set, config.degree),
                            index_set)
    cond = np.array([1.0] + [float(rec.lam[n][0] / rec.lam[n][-1])
                             for n in range(1, config.degree + 1)])
    return Construction(rec, recurrence_evaluator(rec), cond, config.degree)


def _run_ms(config, measure, index_set) -> Construction:
    rec, diags = stieltjes_recurrence(measure, index_set, config.degree)
    counters = {
        "moment_fallbacks": diags.moment_fallbacks,
        "closure_residual": diags.closure_residual,
        "completion_defect": diags.completion_defect,
    }
    return Construction(rec, recurrence_evaluator(rec),
                        np.array(diags.t_condition), config.degree,
                        gram_drift=diags.gram_drift,
                        diagnostics_counters=counters)


def _run_moment(config, measure, index_set) -> Construction:
    basis = (monomial_basis(index_set) if config.method == "mm"
             else legendre_box_basis(index_set, measure))
    gram = build_gram(basis, measure)
    cond = gram_condition_numbers(
        gram.gram, [index_set.cumulative(n) for n in range(config.degree + 1)])
    usable = gram.chol_degree
    return Construction(
        recurrence=extract_recurrence(gram, usable) if usable >= 1 else None,
        evaluate_chunk=(orthonormal_evaluator(gram, usable) if usable >= 0
                        else None),
        cond=cond, usable_degree=usable,
        breakdown_degree=gram.failure_degree)


CONSTRUCTIONS = {"exact": _run_exact, "ms": _run_ms,
                 "mm": _run_moment, "ml": _run_moment}
METHODS = tuple(CONSTRUCTIONS)


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Run one (experiment, method) pair end to end.

    Numerical breakdowns (ill-conditioned Gram factorizations, rank
    failures mid-run) are captured in the result rather than raised;
    usage errors raise ValueError before any computation starts.
    """
    cloud = None
    if config.experiment == "cloud" and config.cloud_path is not None:
        # Read once: the file also supplies the default degree.
        cloud = point_cloud_measure(config.cloud_path)
        if config.degree is None:
            config = dataclasses.replace(config, degree=default_degree(cloud.d))
    config = resolve_config(config)
    measure = build_measure(config) if cloud is None else cloud
    d = measure.d
    degree = config.degree
    index_set = MultiIndexSet.build(d, degree)
    size = index_set.cumulative(degree)

    failure_message = None
    try:
        built = CONSTRUCTIONS[config.method](config, measure, index_set)
    except NumericalFailure as exc:
        failure_message = str(exc)
        built = Construction(recurrence=None, evaluate_chunk=None, cond=None,
                             usable_degree=-1, breakdown_degree=exc.degree)

    error = None
    cc_rows = None
    christoffel_mass = None
    if built.evaluate_chunk is not None:
        usable_size = index_set.cumulative(built.usable_degree)
        error = gram_error_streaming(built.evaluate_chunk, measure, usable_size)
        christoffel_mass = float(
            (np.trace(error.error_matrix) + usable_size) / usable_size)
        if built.recurrence is not None:
            cc_rows = commuting_residuals(built.recurrence)

    result = ExperimentResult(
        **vars(built), config=config, d=d, degree=degree,
        n_nodes=measure.n_nodes, size=size, error=error, cc_rows=cc_rows,
        failure_message=failure_message, christoffel_mass=christoffel_mass)
    if write:
        write_outputs(result, measure)
    return result


def environment() -> dict:
    """Python, numpy and scipy versions, the CPU count, and the BLAS
    thread variable that sets ``measures.WORKERS``
    (``measures.blas_thread_setting``), for the manifest."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "blas_threads": measures.blas_thread_setting()}


def write_outputs(result: ExperimentResult, measure) -> dict:
    """Write manifest, recurrence JSON, and plot-ready CSVs to the
    configured output directory.  Identical configurations produce
    byte-identical recurrence/CSV files; the manifest also records the
    run's ``environment``."""
    out = Path(result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    manifest = {
        "package_version": __version__,
        "config": dict(dataclasses.asdict(result.config),
                       chunk_size=measures.CHUNK,
                       stack_bytes=measures.STACK_BYTES,
                       workers=measures.WORKERS),
        "dimension": result.d,
        "degree": result.degree,
        "basis_size": result.size,
        "nodes": result.n_nodes,
        "breakdown_degree": result.breakdown_degree,
        "failure_message": result.failure_message,
        "error_max": None if result.error is None else result.error.max_abs,
        "christoffel_mass": result.christoffel_mass,
        "gram_drift": result.gram_drift,
        "diagnostics_counters": result.diagnostics_counters,
        "environment": environment(),
    }
    paths["manifest"] = out / "manifest.json"
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

    if result.recurrence is not None:
        paths["recurrence"] = out / "recurrence.json"
        serialization.save_recurrence(result.recurrence, paths["recurrence"])
    if result.error is not None:
        paths["error_matrix"] = out / "error_matrix.csv"
        serialization.write_log_error_csv(paths["error_matrix"],
                                          result.error.error_matrix)
    if result.cond is not None:
        paths["cond"] = out / "cond.csv"
        serialization.write_condition_csv(paths["cond"], result.cond)
    if result.cc_rows is not None:
        paths["cc"] = out / "cc_residuals.csv"
        serialization.write_cc_csv(paths["cc"], result.cc_rows)
    if result.d == 2 and result.evaluate_chunk is not None:
        stride = max(1, -(-measure.n_nodes // CHRISTOFFEL_MAX_ROWS))
        pts = measure.nodes[::stride]
        kernel, chris = christoffel_streaming(
            result.evaluate_chunk, pts, result.error.error_matrix.shape[0])
        paths["christoffel"] = out / "christoffel.csv"
        serialization.write_christoffel_csv(paths["christoffel"], pts,
                                            kernel, chris)
    return paths
