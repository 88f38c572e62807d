"""Environment recorded in every result file.

``runtime()`` runs inside a child that has imported dsyk (so numpy and
scipy are loaded) and reads the library versions and the BLAS in use.
``static(root)`` runs in the generator process and needs no third-party
import.
"""

import ctypes
import importlib.metadata
import os
import platform
import re
import subprocess
import sys

FRESH_INTERPRETER_POLICY = (
    "every solve runs in a fresh python3 interpreter started by one generator "
    "process, one solve at a time; setup_s is process start to 'import dsyk.cli' "
    "done, solve_s the dsyk.cli.main calls inside that process")

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas_threads():
    """(library path, thread count) of the loaded OpenBLAS, or (None, None)."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({m.group(1) for m in
                           (re.search(r"(/\S*openblas\S*\.so\S*)", line) for line in f) if m})
    except OSError:
        return None, None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return lib, fn()
    return (libs[0] if libs else None), None


def runtime():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    lib, threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": _version("sympy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "library": lib and os.path.basename(lib), "threads": threads},
    }


def source_id(root):
    """git sha of the checkout (with -dirty when src/ has changes), or None."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                               capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return sha + ("-dirty" if dirty else "")


def static(root):
    return {
        "source": source_id(root),
        "executable": sys.executable,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "policy": FRESH_INTERPRETER_POLICY,
    }
