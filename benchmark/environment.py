"""What the benchmark found about the machine it ran on. Reads only; it sets
no thread count and no environment variable."""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas_libraries() -> list:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _blas_threads(path: str):
    """Thread count the BLAS library reports, through its own query symbol."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in _THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.argtypes = []
            query.restype = ctypes.c_int
            return int(query())
    return None


def _git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def describe(root: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy without the dict form
        blas_build = None
    libraries = _loaded_blas_libraries()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": {path: _blas_threads(path) for path in libraries},
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": _git_commit(root),
    }
