"""The one LAPACK routine the package calls outside numpy, ``dtrtrs``,
and the OpenBLAS thread controls, bound through ``ctypes`` to the
OpenBLAS that numpy has already loaded.

numpy's wheels ship an ILP64 OpenBLAS (``scipy-openblas64``) whose
LAPACK symbols carry the prefix ``scipy_`` and the suffix ``_64_``.
Binding ``dtrtrs`` (the moment method's triangular solves) there spares
every process the import of ``scipy.linalg``, about 0.25 s and 22-28 MB.
It is called with the arguments scipy's wrapper passes it, and scipy's
wheels link an LP64 build of the same OpenBLAS, so the results are the
bits of ``scipy.linalg.solve_triangular``.  A ``ctypes`` call also
releases the GIL, so solves on the chunk threads of
``measures.chunk_sum`` run in parallel.  Those threads, the ``ms`` and
moment-method constructions and the commuting residuals run BLAS on one
thread whatever the environment sets (``one_thread``), by the unprefixed
``openblas_set_num_threads_local`` (OpenBLAS >= 0.3.27).

Where no loaded library exports ``dtrtrs`` (numpy built against MKL or a
system BLAS), ``solve_lower`` falls back to ``scipy.linalg``, imported
on first use, and the thread controls are absent.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from collections import namedtuple

import numpy as np

# The bound routine, then the library's build string, thread-count getter
# and thread-count setter (each None when the library does not export it).
_Bound = namedtuple("_Bound", "trtrs config threads set_threads")


def _loaded_openblas_paths():
    """Paths of the OpenBLAS libraries numpy may have loaded: those in its
    wheel's library directory (``numpy.libs``, or ``numpy/.dylibs`` on
    macOS), then every OpenBLAS mapped into this process."""
    root = os.path.dirname(np.__file__)
    for pattern in (root + ".libs", os.path.join(root, ".dylibs")):
        yield from sorted(glob.glob(os.path.join(pattern, "*openblas*")))
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            mapped = {line.split(maxsplit=5)[5].strip() for line in fh
                      if "openblas" in line}
    except OSError:
        return
    yield from sorted(mapped)


@functools.cache
def _bound() -> _Bound | None:
    """``dtrtrs`` and the thread controls of the first library that
    exports ``dtrtrs``, or None."""
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
            trtrs = lib.scipy_dtrtrs_64_
        except (OSError, AttributeError):
            continue
        # ILP64: every integer is passed as a pointer to int64; each
        # character argument's hidden length trails the list.
        i64, buf, char = (ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p,
                          ctypes.c_char_p)
        trtrs.argtypes = [char, char, char, i64, i64, buf, i64, buf, i64,
                          i64] + [ctypes.c_size_t] * 3
        trtrs.restype = None
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            config = config().decode()
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if threads is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
        set_threads = getattr(lib, "openblas_set_num_threads_local", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = ctypes.c_int
        return _Bound(trtrs, config, threads, set_threads)
    return None


def backend() -> str:
    """The OpenBLAS build string of the bound library, or
    ``"scipy.linalg"`` when ``solve_lower`` falls back to scipy."""
    bound = _bound()
    if bound is None:
        return "scipy.linalg"
    return bound.config or "OpenBLAS"


def active_threads() -> int | None:
    """The number of threads the bound OpenBLAS runs, or None when the
    binding is absent or the library does not report it."""
    bound = _bound()
    if bound is None or bound.threads is None:
        return None
    return bound.threads()


def thread_pin():
    """The bound ``openblas_set_num_threads_local``, or None: given n, it
    sets the BLAS thread count of the whole process and returns the old."""
    bound = _bound()
    return None if bound is None else bound.set_threads


_open_blocks = 0     # open ``one_thread`` blocks, in all threads
_saved_count = None  # the count the first of them replaced
_blocks_lock = threading.Lock()


@contextlib.contextmanager
def one_thread():
    """Run BLAS on one thread inside the block.  The count is the whole
    process's, so blocks may nest and overlap in any threads: the first
    block in saves the count and sets 1, the last block out restores it."""
    global _open_blocks, _saved_count
    pin = thread_pin() or (lambda count: None)
    with _blocks_lock:
        if _open_blocks == 0:
            _saved_count = pin(1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _blocks_lock:
            _open_blocks -= 1
            if _open_blocks == 0:
                pin(_saved_count)


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def solve_lower(factor, rhs):
    """X with ``factor @ X = rhs`` for a lower triangular ``factor``, by
    LAPACK ``dtrtrs``, as ``scipy.linalg.solve_triangular(factor, rhs,
    lower=True, check_finite=False)`` computes it, bit for bit.

    Like scipy, a factor that is not Fortran-ordered (a C-ordered factor
    or a view of one) is solved as the transposed upper system on its C
    layout, and ``rhs`` is copied to Fortran order, which the returned
    array keeps: those copies fix the bits.  A zero on the diagonal
    raises ``np.linalg.LinAlgError``."""
    bound = _bound()
    if bound is None:
        from scipy.linalg import solve_triangular
        return solve_triangular(factor, rhs, lower=True, check_finite=False)
    a = np.asarray(factor, dtype=float)
    x = np.array(rhs, dtype=float, order="F")
    if (a.ndim != 2 or x.ndim != 2
            or not a.shape[0] == a.shape[1] == x.shape[0]):
        raise ValueError(f"need a square factor and a matrix with as many "
                         f"rows, not {a.shape} and {x.shape}")
    if x.size == 0:
        return x
    if a.flags.f_contiguous:
        uplo, trans = b"L", b"N"
    else:
        a, uplo, trans = np.ascontiguousarray(a), b"U", b"T"
    n = a.shape[0]
    info = ctypes.c_int64(0)
    bound.trtrs(uplo, trans, b"N", _int(n), _int(x.shape[1]), a.ctypes.data,
                _int(n), x.ctypes.data, _int(n), ctypes.byref(info), 1, 1, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info.value - 1}")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of "
                         "internal trtrs")
    return x
