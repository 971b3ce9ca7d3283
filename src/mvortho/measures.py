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

import contextvars
import os
import re
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .errors import PointCloudError
from .univariate import jacobi_recurrence

# Points per chunk in both passes of the moment-method Gram assembly
# (``build_gram``).  The chunk fixes the summation order of the Grams the
# baselines factor and read, so changing it moves their recurrence, not
# just the run time.  It also sets that assembly's memory: two (R_N × CHUNK)
# buffers, the basis values and their weighted copy (whose leading rows
# first hold the chunk's per-axis factors), held through both passes
# (430 MB each at R_N = 820).
CHUNK = 65536
# Bytes of float64 values one slice of a node sweep (``node_slices``) may
# hold: small enough that the chunks in flight stay in cache.  Every
# ``stieltjes`` sweep, the Gram-error and the Christoffel sweep are cut
# this way, so it fixes the summation order of the ``ms`` recurrence and
# of the Gram error.  A ``stieltjes`` sweep counts every buffer its chunk
# holds (the shifted stack, the residuals or the new block and its
# coordinate stack; the blocks are half-weighted, so no chunk writes a
# weighted copy); the Gram-error and Christoffel sweeps count the stacked
# basis values only.
STACK_BYTES = 8 << 20
MAX_WORKERS = 4    # the most threads ``chunk_sum`` runs


def _default_workers() -> int:
    """The usable cores, at most ``MAX_WORKERS``, where ``chunk_sum`` can
    hold BLAS to one thread (``lapack.one_thread``), whatever variable is
    set; else 1, lest chunk threads compete with a BLAS on every core."""
    if lapack.thread_pin() is None:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cores, MAX_WORKERS)


# Threads that run the chunks of ``chunk_sum``; 1 runs them inline.
WORKERS = _default_workers()


def node_slices(n_points: int, rows: int) -> list:
    """The node slices of a sweep that holds ``rows`` float64 values per
    point: they cover ``n_points`` in order, each holding at most
    ``STACK_BYTES`` of values (both read at each call), so ``rows`` fixes
    the sweep's summation order."""
    size = max(1, STACK_BYTES // (8 * rows))
    return [slice(lo, min(lo + size, n_points))
            for lo in range(0, n_points, size)]


def chunk_sum(fn, slices, acc: list) -> list:
    """Add the parts ``fn(sl)`` returns for each of ``slices`` into the
    arrays of ``acc``, in slice order, and return ``acc``.

    A node sweep takes its slices from ``node_slices``; the moment-method
    Gram passes its row panels.  ``fn`` returns one part per array of
    ``acc``; an output of its own slice is written by ``fn`` instead.
    With ``WORKERS`` > 1 the calls run on a pool of ``WORKERS`` threads
    made for this call, at most ``WORKERS`` + 1 of them submitted at a
    time, so memory stays bounded whatever the number of slices; all run
    on one BLAS thread (``lapack.one_thread``), so each sum is
    bit-identical at any worker count and whatever BLAS variable is set.
    Each call runs in a copy of the caller's context, so numpy's error
    state (``np.errstate``) holds on the pool threads too.
    An exception raised by ``fn`` reaches the caller unchanged, after
    the calls not yet started are cancelled and the running ones have
    finished.  ``fn`` must not call ``chunk_sum``.
    """

    def add(parts):
        for total, part in zip(acc, parts):
            total += part

    with lapack.one_thread():
        if WORKERS <= 1:
            for sl in slices:
                add(fn(sl))
            return acc
        with ThreadPoolExecutor(WORKERS,
                                thread_name_prefix="mvortho-chunk") as pool:
            pending = deque()
            try:
                for sl in slices:
                    pending.append(pool.submit(
                        contextvars.copy_context().run, fn, sl))
                    if len(pending) > WORKERS:
                        add(pending.popleft().result())
                while pending:
                    add(pending.popleft().result())
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return acc


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
        if nodes.ndim != 2:
            raise ValueError(f"nodes must be (M,) or (M, d), not {nodes.shape}")
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
    """Measure with ``weights`` scaled to unit mass, in place: callers pass
    an array of their own, and no second M-length array is made."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    w /= w.sum()
    return DiscreteMeasure(nodes=nodes, weights=w, label=label)


def gauss_jacobi_rule(n_points: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and unit-mass weights on [-1, 1].

    Computed by Golub-Welsch: ``np.linalg.eigh`` of the dense Jacobi
    matrix of the closed-form recurrence coefficients.  ``dsyevd``
    reduces a tridiagonal matrix to itself, so its ``dstedc`` returns the
    bits of ``dstevd`` (``scipy.linalg.eigh_tridiagonal``).  Exact for
    polynomials of degree <= 2 n_points - 1 against the
    probability-normalized weight
    (1-x)^alpha (1+x)^beta / (2^(alpha+beta+1) B(alpha+1, beta+1)).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rec = jacobi_recurrence(n_points, alpha, beta)
    off = rec.b[1:n_points]
    nodes, vecs = np.linalg.eigh(np.diag(rec.a) + np.diag(off, 1)
                                 + np.diag(off, -1))
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


def torus_measure(n_radial: int, n_angular: int, n_azimuthal: int) -> DiscreteMeasure:
    """Uniform measure inside the solid torus
    (sqrt(x1^2 + x2^2) - 2)^2 + x3^2 < 1 (major radius 2, minor radius 1).

    Tensor rule in tube coordinates (rho, theta, phi) with the volume
    Jacobian rho (2 + rho cos theta) folded into the weights.
    """
    if min(n_radial, n_angular, n_azimuthal) < 1:
        raise ValueError("point counts must be >= 1")
    xi, wr = gauss_jacobi_rule(n_radial, 0.0, 0.0)
    rho = 0.5 * (xi + 1.0)
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    phi = 2 * np.pi * np.arange(n_azimuthal) / n_azimuthal
    rg, tg, pg = np.meshgrid(rho, theta, phi, indexing="ij")
    ring = 2.0 + rg * np.cos(tg)
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
    return _normalized(nodes, np.ones(n_samples), "hol")


def point_cloud_measure(path) -> DiscreteMeasure:
    """Uniform measure over points listed in a CSV file.

    Format: UTF-8, one point per line as ``x1,...,xd`` with d >= 1 (the
    first data row sets d), blank lines ignored.  An unparsable first line
    with no number in it (``x,y`` or ``x1,x2``) is skipped as a header.
    Weights are 1/M.
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
                # A number is a digit not inside a name such as x1.
                if header_allowed and not re.search(
                        r"(?<![\w.])[-+]?\.?\d", line):
                    header_allowed = False
                    continue
                raise PointCloudError(
                    f"line {lineno}: cannot parse coordinates {parts!r}",
                    line=lineno)
            header_allowed = False
            if d is None:
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
    return _normalized(nodes, np.ones(nodes.shape[0]), "cloud")
