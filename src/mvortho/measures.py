"""Discrete measures realizing the moment functional <f, g> = sum w f g.

Every constructor normalizes the weights to unit total mass so that the
constant polynomial p_0 = 1 is the first orthonormal basis element.  The
tensorized Gauss rules are exact for the stated polynomial degrees; the
mapped rules (annulus, solid torus) are exact in the Cartesian variables;
the spiral's outer angular rule and the Monte Carlo domains define the
measure *as* the discrete node set, which is the object all methods then
orthogonalize against.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import PointCloudError
from .univariate import jacobi_recurrence

# Points per chunk in the moment-method Gram assembly (``build_gram``).
# The chunk fixes the summation order of the Gram the baselines factor, so
# changing it moves their recurrence, not just the run time.  It also sets
# that assembly's memory: two (R × CHUNK) buffers, the basis values and
# their weighted copy, held for the whole call (430 MB each at R = 820).
CHUNK = 65536
# Bytes of float64 values one chunk of a stacked sweep may hold: small
# enough that the chunks in flight stay in cache.  Every ``stieltjes``
# sweep, the Gram-error and the Christoffel sweep are cut this way, so it
# fixes the summation order of the ``ms`` recurrence and of the Gram error.
# A ``stieltjes`` sweep counts every buffer its chunk holds (the shifted
# stack, the residuals or the new block and its coordinate stack; the
# blocks are half-weighted, so no chunk writes a weighted copy); the
# Gram-error and Christoffel sweeps count the stacked basis values only.
STACK_BYTES = 8 << 20


# Environment variables that set the BLAS thread count, in the order
# ``blas_thread_setting`` reads them, and the most threads ``chunk_map``
# runs when BLAS is held to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS")
MAX_WORKERS = 4


def blas_thread_setting() -> tuple | None:
    """The first of ``BLAS_THREAD_VARS`` set to a non-empty value, as
    (name, value), or None when none is set."""
    return next(((name, os.environ[name]) for name in BLAS_THREAD_VARS
                 if os.environ.get(name)), None)


def _default_workers() -> int:
    """The usable cores, at most ``MAX_WORKERS``, when BLAS is held to
    one thread by its environment variable (``blas_thread_setting``);
    otherwise 1.  A multi-threaded BLAS already runs on every core, and
    chunk threads calling it compete with its own threads: on a 2-core
    host with BLAS unpinned, ``hol`` ms N=39 M=1e5 took 14.2 s with two
    chunk threads against 8.7 s with one, and 6.2 s with two and BLAS
    pinned."""
    setting = blas_thread_setting()
    if setting is None or setting[1] != "1":
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, MAX_WORKERS)


# Threads that run the chunks of ``chunk_map``; 1 runs them inline.
WORKERS = _default_workers()

_pool: tuple | None = None    # (worker count, executor), made on first use
_pool_lock = threading.Lock()


def node_chunks(n_points: int, rows: int | None = None):
    """Slices covering ``n_points`` in order: at most ``CHUNK`` points
    each, or, given the ``rows`` float64 values a sweep holds per point,
    at most ``STACK_BYTES`` of them (both read at each call)."""
    size = CHUNK if rows is None else max(1, STACK_BYTES // (8 * rows))
    for lo in range(0, n_points, size):
        yield slice(lo, min(lo + size, n_points))


def _executor() -> ThreadPoolExecutor:
    """The process-wide pool of ``WORKERS`` threads, replaced when
    ``WORKERS`` has changed since it was made."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != WORKERS:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (WORKERS, ThreadPoolExecutor(
                WORKERS, thread_name_prefix="mvortho-chunk"))
        return _pool[1]


def chunk_map(fn, slices):
    """Yield ``fn(sl)`` for each slice of ``slices``, in slice order.

    With ``WORKERS`` > 1 the calls run on a shared thread pool, at most
    ``WORKERS`` + 1 of them submitted at a time, so memory stays bounded
    whatever the number of slices.  Callers add the yielded partial sums
    in the order they arrive, which makes every result bit-identical at
    any worker count.  An exception raised by ``fn`` reaches the caller
    unchanged; the calls not yet started are cancelled and the running
    ones finish before it propagates.  ``fn`` must not call
    ``chunk_map`` itself.
    """
    if WORKERS <= 1:
        for sl in slices:
            yield fn(sl)
        return
    pool = _executor()
    pending = deque()
    try:
        for sl in slices:
            pending.append(pool.submit(fn, sl))
            if len(pending) > WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for fut in pending:
            fut.cancel()
        wait(pending)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Quadrature nodes and positive weights in R^d.

    Attributes
    ----------
    nodes : (M, d) ndarray
    weights : (M,) ndarray, strictly positive, summing to the total mass
    label : str
        Experiment tag or free-form description.
    """

    nodes: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float).reshape(-1))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if nodes.shape[0] == 0:
            raise ValueError("measure needs at least one node")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("non-finite node coordinates")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be finite and strictly positive")

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _normalized(nodes, weights, label) -> DiscreteMeasure:
    w = np.asarray(weights, dtype=float).reshape(-1)
    return DiscreteMeasure(nodes=nodes, weights=w / w.sum(), label=label)


def gauss_jacobi_rule(n_points: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and unit-mass weights on [-1, 1].

    Computed by Golub-Welsch: eigen-decomposition of the symmetric
    tridiagonal matrix built from the closed-form Jacobi recurrence
    coefficients.  Exact for polynomials of degree <= 2 n_points - 1
    against the probability-normalized weight
    (1-x)^alpha (1+x)^beta / (2^(alpha+beta+1) B(alpha+1, beta+1)).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rec = jacobi_recurrence(n_points, alpha, beta)
    if n_points == 1:
        return np.array([rec.a[0]]), np.array([1.0])
    nodes, vecs = eigh_tridiagonal(rec.a, rec.b[1:n_points])
    weights = vecs[0, :] ** 2
    return nodes, weights / weights.sum()


def tensor_jacobi(d: int, n_points: int, alphas, betas, label: str = "jac") -> DiscreteMeasure:
    """Tensor-product Jacobi (Beta) measure on [-1, 1]^d.

    Uses ``n_points`` Gauss-Jacobi points per axis, exact for total degree
    <= 2 n_points - 1.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if alphas.shape[0] != d or betas.shape[0] != d:
        raise ValueError("need one (alpha, beta) pair per axis")
    axes = [gauss_jacobi_rule(n_points, alphas[i], betas[i]) for i in range(d)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights = weights * wg.reshape(-1)
    return _normalized(nodes, weights, label)


def annulus_measure(n_radial: int, n_angular: int) -> DiscreteMeasure:
    """Uniform measure on the annulus 0.5 <= r <= 1.

    Gauss-Legendre in r (polar Jacobian r folded into the weights) and an
    equispaced angular rule; exact for Cartesian polynomials of total
    degree <= min(2 n_radial - 2, n_angular - 1).
    """
    if n_radial < 1 or n_angular < 1:
        raise ValueError("point counts must be >= 1")
    xi, wr = gauss_jacobi_rule(n_radial, 0.0, 0.0)
    r = 0.75 + 0.25 * xi
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = np.stack([(rr * np.cos(tt)).reshape(-1),
                      (rr * np.sin(tt)).reshape(-1)], axis=1)
    weights = np.repeat(wr * r, n_angular)
    return _normalized(nodes, weights, "ann")


def _spiral_grid(n_radial: int, n_angular: int):
    """Node/weight construction shared by spiral_measure and its tests."""
    h = 6 * np.pi / n_angular
    theta = (np.arange(n_angular) + 0.5) * h
    xi, wr = gauss_jacobi_rule(n_radial, 0.0, 0.0)
    # Per angle: r runs over [0.8 theta, theta]; Jacobian r in the weight.
    r = 0.9 * theta[:, None] + 0.1 * theta[:, None] * xi[None, :]
    w = (0.2 * theta[:, None]) * wr[None, :] * r * h
    return theta, r, w


def spiral_measure(n_radial: int, n_angular: int) -> DiscreteMeasure:
    """Uniform measure between the Archimedean spirals r = 0.8 t and r = t,
    t in [0, 6 pi].

    The radial integral is a Gauss rule per angle (exact); the outer
    angular rule is an equispaced midpoint rule, so the measure is the
    discrete rule itself rather than an exact discretization of the
    continuum region.
    """
    if n_radial < 1 or n_angular < 1:
        raise ValueError("point counts must be >= 1")
    theta, r, w = _spiral_grid(n_radial, n_angular)
    tt = np.broadcast_to(theta[:, None], r.shape)
    nodes = np.stack([(r * np.cos(tt)).reshape(-1),
                      (r * np.sin(tt)).reshape(-1)], axis=1)
    return _normalized(nodes, w.reshape(-1), "cur")


def torus_measure(n_radial: int, n_angular: int, n_azimuthal: int,
                  minor_radius: float = 1.0, major_radius: float = 2.0) -> DiscreteMeasure:
    """Uniform measure inside the solid torus
    (sqrt(x1^2 + x2^2) - major)^2 + x3^2 < minor^2.

    Tensor rule in tube coordinates (rho, theta, phi) with the volume
    Jacobian rho (major + rho cos theta) folded into the weights.
    """
    if min(n_radial, n_angular, n_azimuthal) < 1:
        raise ValueError("point counts must be >= 1")
    xi, wr = gauss_jacobi_rule(n_radial, 0.0, 0.0)
    rho = 0.5 * minor_radius * (xi + 1.0)
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    phi = 2 * np.pi * np.arange(n_azimuthal) / n_azimuthal
    rg, tg, pg = np.meshgrid(rho, theta, phi, indexing="ij")
    ring = major_radius + rg * np.cos(tg)
    nodes = np.stack([(ring * np.cos(pg)).reshape(-1),
                      (ring * np.sin(pg)).reshape(-1),
                      (rg * np.sin(tg)).reshape(-1)], axis=1)
    wg = np.meshgrid(wr, np.ones(n_angular), np.ones(n_azimuthal), indexing="ij")[0]
    weights = (wg * rg * ring).reshape(-1)
    return _normalized(nodes, weights, "tor")


def square_minus_ball(n_samples: int, seed: int) -> DiscreteMeasure:
    """Uniform Monte Carlo measure on [-1, 1]^2 minus the unit ball.

    Rejection sampling from the square; equal weights 1/M; deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    kept = []
    count = 0
    chunk = max(n_samples, 8192)
    while count < n_samples:
        draw = rng.uniform(-1.0, 1.0, size=(chunk, 2))
        accept = draw[(draw ** 2).sum(axis=1) > 1.0]
        kept.append(accept)
        count += accept.shape[0]
    nodes = np.concatenate(kept, axis=0)[:n_samples]
    weights = np.full(n_samples, 1.0 / n_samples)
    return DiscreteMeasure(nodes=nodes, weights=weights, label="hol")


def point_cloud_measure(path) -> DiscreteMeasure:
    """Uniform measure over points listed in a CSV file.

    Format: UTF-8, one point per line as ``x1,...,xd`` with d >= 2,
    optional single header line, blank lines ignored.  Weights are 1/M.
    """
    rows = []
    d = None
    header_allowed = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise PointCloudError(
                    f"line {lineno}: cannot parse coordinates {parts!r}",
                    line=lineno)
            header_allowed = False
            if d is None:
                if len(vals) < 2:
                    raise PointCloudError(
                        f"line {lineno}: expected 2+ coordinates, got {len(vals)}",
                        line=lineno)
                d = len(vals)
            elif len(vals) != d:
                raise PointCloudError(
                    f"line {lineno}: expected {d} coordinates, got {len(vals)}",
                    line=lineno)
            if not all(np.isfinite(v) for v in vals):
                raise PointCloudError(
                    f"line {lineno}: non-finite coordinate", line=lineno)
            rows.append(vals)
    if not rows:
        raise PointCloudError("no data rows in point-cloud file", line=None)
    nodes = np.asarray(rows, dtype=float)
    weights = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
    return DiscreteMeasure(nodes=nodes, weights=weights, label="cloud")
