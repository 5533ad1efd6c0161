"""Finding the program under test and recording the environment it runs in.

Importing this module imports neither numpy nor wrice: `scrub_blas_env` must
run before numpy is first imported, because OpenBLAS reads its thread
settings once, when it loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Thread settings a caller's shell may carry. The benchmark removes them so
# the program runs with the BLAS defaults a user's plain shell gives it; it
# sets no thread count of its own.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def scrub_blas_env() -> dict[str, str]:
    """Unset BLAS_ENV in this process; returns the values that were removed."""
    return {name: os.environ.pop(name) for name in BLAS_ENV if name in os.environ}


def import_wrice():
    """Import wrice from this checkout's src/, never from anywhere else."""
    if not (SRC / "wrice" / "__init__.py").is_file():
        raise SystemExit(f"error: no wrice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wrice

    if Path(wrice.__file__).resolve().parent != (SRC / "wrice").resolve():
        raise SystemExit(f"error: imported wrice from {wrice.__file__}, not {SRC}")
    return wrice


def worker_count() -> int:
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        # the ceiling keeps git from looking for a repository above ROOT
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wrice").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment(removed_blas_env: dict[str, str], workers: int) -> dict:
    import numpy
    import scipy

    import wrice

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "wrice": wrice.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": worker_count(),
        "workers": workers,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "blas_env_removed": removed_blas_env,
        "platform": platform.platform(),
    }
