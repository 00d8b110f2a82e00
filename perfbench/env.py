"""What decides a run's bits and speed, recorded next to every result.

The benchmark changes none of these settings; it only reports them: the
BLAS libraries numpy and scipy loaded and the thread count each reports,
the ``*_NUM_THREADS`` variables, ``nproc``, Python/numpy/scipy versions,
the executor and compile flags the program reads from the environment,
the git sha when the checkout is a git repository, and the last-level
cache size the bandwidth probe sizes itself from.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import time

import numpy as np

from core import ROOT

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
PROGRAM_VARS = ("REPRO_EXECUTOR", "REPRO_COMPILE")
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
    "MKL_Get_Max_Threads", "bli_thread_get_num_threads",
)


def _loaded_blas_libraries() -> list[str]:
    """Shared objects mapped into this process whose name says BLAS."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.rsplit(None, 1)[-1]
                name = os.path.basename(path).lower()
                if path.startswith("/") and any(
                    k in name for k in ("openblas", "mkl_rt", "blis", "accelerate")
                ):
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def _blas_threads(path: str):
    """Thread count the loaded BLAS library reports, or None."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_GLOBAL)
    except OSError:
        return None
    for name in _THREAD_GETTERS:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _library_versions() -> dict:
    out = {}
    for mod in ("numpy", "scipy"):
        try:
            cfg = __import__(mod).show_config(mode="dicts")
        except TypeError:  # releases whose show_config only prints
            out[mod] = None
            continue
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        out[mod] = {"name": blas.get("name"), "version": blas.get("version")}
    return out


def llc_bytes() -> int:
    """Size of the largest cache level cpu0 reports (0 when unknown)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper(), 1)
        digits = text.rstrip("KMGkmg")
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment(seed: int, workload: str, settings: dict) -> dict:
    """The environment block stored with every result."""
    import scipy.linalg  # noqa: F401  (maps scipy's BLAS so it is listed)

    libs = _loaded_blas_libraries()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "machine": platform.machine(),
        "blas_build": _library_versions(),
        "blas_loaded": [{"path": p, "threads": _blas_threads(p)} for p in libs],
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "program_env": {k: os.environ.get(k) for k in PROGRAM_VARS},
        "llc_bytes": llc_bytes(),
        "settings": settings,
        "argv": sys.argv[1:],
    }


def bandwidth_probe(llc: int, repeats: int = 3) -> dict:
    """Sustainable memory bandwidth from an array at least 4x the LLC.

    An in-place scale streams the array through the cores once per pass
    (one read and one write of every byte); the best of ``repeats``
    passes is the sustainable rate.  The array is freed before returning.
    """
    size = max(4 * llc, 64 * 1024**2)
    n = size // 8
    a = np.ones(n)
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(a, 1.0000001, out=a)
        dt = time.perf_counter() - t0
        rates.append(2 * a.nbytes / dt / 1e9)
    del a
    return {
        "array_bytes": int(n * 8),
        "llc_bytes": int(llc),
        "gbps": max(rates),
        "passes_gbps": rates,
    }
