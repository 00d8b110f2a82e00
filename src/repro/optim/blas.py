"""Process-wide BLAS pinning and the GIL-free Kalman kernels.

The Kalman core parallelises over its P blocks itself
(:mod:`repro.optim.kalman`), so :func:`configure`, run once when
``repro`` is imported, sets every BLAS library mapped into the process to
one thread: a threaded OpenBLAS oversubscribes the cores the block pool
uses, and the bits of its ``dsymv``/``ddot`` follow its thread count.  It
also binds scipy's exported ``scipy_cblas_dsymv``/``scipy_cblas_dsyr``
through ctypes, which releases the GIL around the call; the f2py wrappers
of :mod:`scipy.linalg.blas` hold it, so threads over them never overlap.

A library without ``set_num_threads`` (MKL) or a scipy without the CBLAS
exports (a system OpenBLAS) leaves the f2py kernels and serial blocks;
``RUNTIME.fallback`` names the reason.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _fblas  # also maps scipy's BLAS library

_LIBRARY_MARKERS = ("openblas", "mkl_rt", "blis", "accelerate")
#: (setter, getter) pairs; the first setter a library exports is used
_THREAD_CONTROLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_CBLAS_SYMBOLS = ("scipy_cblas_dsymv", "scipy_cblas_dsyr")
_COL_MAJOR, _UPPER = 102, 121


class CblasKernels:
    """Upper-triangle ``dsymv``/``dsyr`` on F-ordered blocks, via ctypes."""

    def __init__(self, lib):
        i, d, p = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
        self._symv, self._syr = (getattr(lib, s) for s in _CBLAS_SYMBOLS)
        self._symv.argtypes = [i, i, i, d, p, i, p, i, d, p, i]
        self._syr.argtypes = [i, i, i, d, p, i, p, i]
        self._symv.restype = self._syr.restype = None

    @staticmethod
    def _order(a: np.ndarray) -> int:
        if a.dtype != np.float64 or not a.flags.f_contiguous:
            raise ValueError("P block must be an F-ordered float64 array")
        return a.shape[0]

    def symv(self, alpha: float, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        n = self._order(a)
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.zeros(n)
        self._symv(_COL_MAJOR, _UPPER, n, alpha, a.ctypes.data, n,
                   x.ctypes.data, 1, 0.0, y.ctypes.data, 1)
        return y

    def syr(self, alpha: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        n = self._order(a)
        x = np.ascontiguousarray(x, dtype=np.float64)
        self._syr(_COL_MAJOR, _UPPER, n, alpha, x.ctypes.data, 1, a.ctypes.data, n)
        return a


class F2pyKernels:
    """The same kernels through :mod:`scipy.linalg.blas` (the fallback)."""

    @staticmethod
    def symv(alpha: float, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        return _fblas.dsymv(alpha, a, x, lower=0)

    @staticmethod
    def syr(alpha: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        return _fblas.dsyr(alpha, x, a=a, lower=0, overwrite_a=1)


@dataclass(frozen=True)
class BlasRuntime:
    """What :func:`configure` found and set."""

    #: library file name -> threads it reports after pinning (None: unknown)
    threads: dict
    kernels: object
    #: why the Kalman blocks run serially; None when they use the pool
    fallback: "str | None"


def _loaded_blas_libraries() -> list[str]:
    """Shared objects mapped into this process whose name says BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.rsplit(None, 1)[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/") and any(
        k in os.path.basename(p).lower() for k in _LIBRARY_MARKERS))


def configure() -> BlasRuntime:
    """Pin every loaded BLAS library to one thread and bind the kernels."""
    threads, unpinned, cblas = {}, False, None
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        name = os.path.basename(path)
        control = next((c for c in _THREAD_CONTROLS if hasattr(lib, c[0])), None)
        threads[name] = None
        if control is None:
            unpinned = True
        else:
            getattr(lib, control[0])(ctypes.c_int(1))
            if hasattr(lib, control[1]):
                threads[name] = int(getattr(lib, control[1])())
        if cblas is None and all(hasattr(lib, s) for s in _CBLAS_SYMBOLS):
            cblas = lib
    if unpinned:
        return BlasRuntime(threads, F2pyKernels(), "no_set_num_threads")
    if cblas is None:
        return BlasRuntime(threads, F2pyKernels(), "no_cblas_kernels")
    return BlasRuntime(threads, CblasKernels(cblas), None)


#: the process's BLAS state, set once at import of :mod:`repro`
RUNTIME: BlasRuntime = configure()
