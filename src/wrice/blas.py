"""Per-process thread limits for the OpenBLAS libraries loaded in this process.

numpy's (and scipy's) OpenBLAS starts one thread per core for each large
matrix product. Feature extraction runs one file per process, so on top of
a process pool those threads oversubscribe the cores, and the way a product
is split across threads changes its rounding in the last bits. Extraction
therefore runs with one BLAS thread per process.

The libraries are found by scanning `/proc/self/maps` for `*openblas*`
shared objects and are driven through `ctypes`; only the standard library
is used. Where no OpenBLAS is loaded (or `/proc` is absent) nothing is
limited.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from collections.abc import Callable
from dataclasses import dataclass

# (setter, getter) pairs in the order they are tried: the reference build,
# then the symbol-suffixed builds bundled with numpy (64-bit ints) and scipy.
_THREAD_FUNCTIONS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@dataclass(frozen=True)
class OpenBlas:
    """One loaded OpenBLAS shared object and its thread-count functions."""

    path: str
    _set: Callable[[int], None]
    _get: Callable[[], int]

    def threads(self) -> int:
        return int(self._get())

    def set_threads(self, n: int) -> None:
        self._set(n)


def _mapped_openblas_paths() -> list[str]:
    """Paths of the `*openblas*` shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    paths: dict[str, None] = {}
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            name = os.path.basename(path)
            if "openblas" in name and ".so" in name:
                paths[path] = None
    return list(paths)


def loaded_openblas() -> list[OpenBlas]:
    """Every OpenBLAS in this process that exports a thread setter and getter."""
    found = []
    for path in _mapped_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _THREAD_FUNCTIONS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found.append(OpenBlas(path, setter, getter))
                break
    return found


def limit_to_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread, for the rest of the process."""
    for lib in loaded_openblas():
        lib.set_threads(1)


@contextlib.contextmanager
def one_thread():
    """One BLAS thread inside the block; the previous counts are restored after."""
    libs = loaded_openblas()
    before = [lib.threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, n in zip(libs, before):
            lib.set_threads(n)


def thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by file name."""
    return {os.path.basename(lib.path): lib.threads() for lib in loaded_openblas()}
