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
exact : explicit tensor-product recurrence matrices (jac2/jac3 only),
        put in canonical form by ``to_canonical`` (an exact permutation)
ms    : degree-advancing moment algorithm (stieltjes module)
mm    : moment method on monomials
ml    : moment method on bounding-box Legendre polynomials
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, lapack, measures, serialization
from .diagnostics import (ErrorReport, commuting_residuals,
                          gram_condition_numbers, gram_error_streaming)
# Unused here; bound for the layer probe of ``benchmarks/spans.py``.
from .diagnostics import christoffel_streaming  # noqa: F401
from .errors import NumericalFailure
from .evaluation import evaluator as recurrence_evaluator, to_canonical
from .indexing import MultiIndexSet
from .measures import (annulus_measure, point_cloud_measure, spiral_measure,
                       square_minus_ball, tensor_jacobi, torus_measure)
from .moment_method import (build_gram, extract_recurrence,
                            legendre_box_basis, monomial_basis,
                            orthonormal_evaluator)
from .recurrence import RecurrenceData
from .stieltjes import stieltjes_recurrence
from .tensor_product import tensor_recurrence
from .univariate import jacobi_recurrence

JACOBI_PARAMS = {
    "jac2": ((3.80, 0.78), (7.34, 8.26)),
    "jac3": ((1.61, 0.32, 3.01), (-0.89, 9.83, 7.67)),
}

# Each experiment's dimension (None: read from the cloud file) and the
# builder of its measure from a resolved config.  A builder looks its
# constructor up in this module when it runs, so a constructor patched
# here is the one called.
EXPERIMENTS = {
    "jac2": (2, lambda c: tensor_jacobi(2, c.n_points, *JACOBI_PARAMS["jac2"],
                                        label="jac2")),
    "jac3": (3, lambda c: tensor_jacobi(3, c.n_points, *JACOBI_PARAMS["jac3"],
                                        label="jac3")),
    "ann": (2, lambda c: annulus_measure(c.n_radial, c.n_angular)),
    "cur": (2, lambda c: spiral_measure(c.n_radial, c.n_angular)),
    "tor": (3, lambda c: torus_measure(c.n_radial, c.n_angular,
                                       c.n_azimuthal)),
    "hol": (2, lambda c: square_minus_ball(c.mc_samples, c.seed)),
    "cloud": (None, lambda c: point_cloud_measure(c.cloud_path)),
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
    takes the package-wide ``measures.CHUNK`` of nodes at a time, in two
    reused (R_N × ``CHUNK``) buffers, in one pass cut into two row panels
    by R_N alone; its coordinate-weighted Grams are read off the Gram
    through the spanning basis's multiplication rule.  The ``ms`` sweeps
    and the Gram-error sweep are cut by ``measures.STACK_BYTES``.
    ``measures.chunk_sum`` runs the panels and the sweeps' chunks on
    ``measures.WORKERS`` threads: the usable cores, at most
    ``measures.MAX_WORKERS``, where BLAS can be held to one thread
    whatever BLAS variable is set (``environment.blas_pinned``), else 1.  Where BLAS can be held, every method runs it on one thread,
    so no output depends on a BLAS variable.
    For d = 2 the Gram-error sweep also takes the Christoffel
    kernel at every s-th node (s from ``christoffel_stride``), so the Gram
    error and the kernel come from one node sweep.  The manifest records
    them as ``config.chunk_size``, ``config.stack_bytes`` and
    ``config.workers`` (the outputs do not depend on the last)."""

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
    """What a construction method returns for the degrees it carried: its
    basis evaluator through ``usable_degree`` and recurrence (None when
    no degree is usable; ``mm``/``ml``: below degree 1), the condition
    number and, from ``ms`` only, the ``DegreeHealth`` of each, and, for
    a breakdown, the degree that failed and the failure's text."""

    recurrence: RecurrenceData | None
    evaluate_chunk: object | None
    cond: np.ndarray | None
    usable_degree: int
    health: list | None = None
    breakdown_degree: int | None = None
    failure_message: str | None = None


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
    christoffel_mass: float | None

    @property
    def failed(self) -> bool:
        return self.breakdown_degree is not None

    @property
    def effective_error_max(self) -> float:
        """max |E| with breakdown/failure counted as infinitely bad."""
        if self.failed or self.error is None:
            return float("inf")
        return self.error.max_abs


def christoffel_stride(n_nodes: int) -> int:
    """Node stride of ``christoffel.csv``: at most
    ``CHRISTOFFEL_MAX_ROWS`` rows."""
    return max(1, -(-n_nodes // CHRISTOFFEL_MAX_ROWS))


def default_degree(d: int) -> int:
    if d not in DEFAULT_DEGREE:
        raise ValueError(f"no default degree for d = {d}; pass --degree")
    return DEFAULT_DEGREE[d]


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Validate tags and fill size defaults; raises ValueError on misuse.

    A cloud's default degree depends on its file, which ``run_experiment``
    reads and fills in before this runs."""
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
        out.degree = default_degree(EXPERIMENTS[out.experiment][0])
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
    """The measure of a resolved config's experiment."""
    return EXPERIMENTS[config.experiment][1](config)


def _run_exact(config, measure, index_set) -> Construction:
    alphas, betas = JACOBI_PARAMS[config.experiment]
    unis = [jacobi_recurrence(config.degree, alphas[i], betas[i])
            for i in range(measure.d)]
    rec = to_canonical(tensor_recurrence(unis, index_set, config.degree))
    cond = np.array([1.0] + [float(rec.lam[n][0] / rec.lam[n][-1])
                             for n in range(1, config.degree + 1)])
    return Construction(rec, recurrence_evaluator(rec), cond, config.degree)


def _run_ms(config, measure, index_set) -> Construction:
    breakdown = message = None
    try:
        rec, health = stieltjes_recurrence(measure, config.degree)
    except NumericalFailure as exc:
        # Keep no ``exc``: its traceback holds the two (r_N x M) buffers.
        breakdown, message = exc.degree, str(exc)
        rec, health = exc.recurrence, exc.health
    return Construction(
        rec, recurrence_evaluator(rec) if health else None,
        np.array([h.condition for h in health]) if health else None,
        len(health) - 1, health or None, breakdown, message)


@lapack.one_thread()
def _run_moment(config, measure, index_set) -> Construction:
    basis = (monomial_basis(index_set) if config.method == "mm"
             else legendre_box_basis(index_set, measure))
    gram = build_gram(basis, measure)
    cond = gram_condition_numbers(
        gram.gram, [index_set.cumulative(n) for n in range(config.degree + 1)])
    usable, failed = gram.usable_degree, gram.failure_degree
    return Construction(
        recurrence=extract_recurrence(gram) if usable >= 1 else None,
        evaluate_chunk=orthonormal_evaluator(gram) if usable >= 0 else None,
        cond=cond, usable_degree=usable, breakdown_degree=failed,
        failure_message=None if failed is None else
        f"Gram matrix not positive definite at degree {failed}")


CONSTRUCTIONS = {"exact": _run_exact, "ms": _run_ms,
                 "mm": _run_moment, "ml": _run_moment}
METHODS = tuple(CONSTRUCTIONS)


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Run one (experiment, method) pair end to end.

    Every method returns a numerical breakdown in its ``Construction``
    rather than raising it, and the degrees it carried are written as a
    complete run writes them; usage errors raise ValueError before any
    computation starts.
    """
    cloud = None
    if config.experiment == "cloud" and config.cloud_path is not None:
        # Read once: the file also supplies the default degree.
        cloud = point_cloud_measure(config.cloud_path)
        if config.degree is None:
            config = dataclasses.replace(config, degree=default_degree(cloud.d))
    config = resolve_config(config)
    measure = build_measure(config) if cloud is None else cloud
    index_set = MultiIndexSet.build(measure.d, config.degree)
    size = index_set.cumulative(config.degree)

    built = CONSTRUCTIONS[config.method](config, measure, index_set)

    error = cc_rows = christoffel_mass = None
    if built.evaluate_chunk is not None:
        usable_size = index_set.cumulative(built.usable_degree)
        stride = (christoffel_stride(measure.n_nodes)
                  if write and measure.d == 2 else None)
        error = gram_error_streaming(built.evaluate_chunk, measure,
                                     usable_size, kernel_stride=stride)
        christoffel_mass = float(
            (np.trace(error.error_matrix) + usable_size) / usable_size)
        if built.recurrence is not None:
            cc_rows = commuting_residuals(built.recurrence)

    result = ExperimentResult(
        **vars(built), config=config, d=measure.d, degree=config.degree,
        n_nodes=measure.n_nodes, size=size, error=error, cc_rows=cc_rows,
        christoffel_mass=christoffel_mass)
    if write:
        write_outputs(result, measure)
    return result


def environment() -> dict:
    """Python and numpy versions, the CPU count, whether the package holds
    BLAS to one thread (``lapack.thread_pin``), the number of threads
    OpenBLAS runs outside those blocks (``lapack.active_threads``; where
    ``blas_pinned`` holds, no output depends on it, since every method's
    products run on one thread) and the LAPACK the package calls
    (``lapack.backend``), for the manifest.
    ``scipy`` holds scipy's version when scipy is already loaded (the
    ``scipy.linalg`` fallback ran), else None: importing it only to read
    the version would cost every run that writes outputs."""
    scipy = sys.modules.get("scipy")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": getattr(scipy, "__version__", None),
            "cpu_count": os.cpu_count(),
            "blas_pinned": lapack.thread_pin() is not None,
            "blas_threads_active": lapack.active_threads(),
            "lapack": lapack.backend()}


def write_outputs(result: ExperimentResult, measure) -> dict:
    """Write manifest, recurrence JSON, and plot-ready CSVs to the
    configured output directory.  Identical configurations produce
    byte-identical recurrence/CSV files; the manifest also records the
    run's ``environment`` and ``health``, one object per degree (null
    but for ``ms``).  ``christoffel.csv`` holds the kernel that
    the Gram-error sweep took (``ErrorReport.kernel``), written when
    that sweep was asked for it (d = 2 runs that write outputs)."""
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
        "health": (None if result.health is None
                   else [dataclasses.asdict(h) for h in result.health]),
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
    if result.error is not None and result.error.kernel is not None:
        kernel = result.error.kernel
        paths["christoffel"] = out / "christoffel.csv"
        serialization.write_christoffel_csv(
            paths["christoffel"],
            measure.nodes[::christoffel_stride(measure.n_nodes)],
            kernel, 1.0 / kernel)
    return paths
