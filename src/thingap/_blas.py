"""Pin the OpenBLAS thread pools loaded into this process to one thread.

The NumPy and SciPy wheels each bundle an OpenBLAS whose pool starts with one
thread per core (or ``OPENBLAS_NUM_THREADS``).  Every command runs with one
BLAS thread, whatever ``--threads`` says; ``--threads`` sizes only the pool
of per-epsilon pipelines in a sweep.  The reason is measured on a 2-vCPU
machine, on the 96-layer Lame gate matrix (41.6k free dofs, half-bandwidth
193): one banded Cholesky factorization (``dpbtrf``) took 0.05 s with one
BLAS thread and 0.08 s with two, and two of them run side by side, as the
sweep pool runs them, took 0.10 s against 0.17 s.  A second BLAS thread
waits for its helper to wake on every blocked call, and two pools of two
threads fight for two cores.

:func:`one_thread` pins every loaded OpenBLAS for the duration of a block and
restores the previous sizes afterwards.  Libraries are found in
``/proc/self/maps``; where that file or OpenBLAS is missing it does nothing.
The solver's LAPACK library, scipy's bundled LP64 OpenBLAS, is bound by
``_lapack`` without importing scipy, and is loaded with one thread from the
start: pinning it here only after loading would leave the worker threads
that OpenBLAS starts at load time spinning into the first command.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path

# (setter, getter) symbol names: plain OpenBLAS and the scipy-openblas wheels,
# each with and without the 64-bit-integer suffix
_SYMBOLS = [(f"{prefix}set_num_threads{suffix}", f"{prefix}get_num_threads{suffix}")
            for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_")]


def _loaded_paths() -> list[str]:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = set()
    for line in maps.splitlines():
        fields = line.split(None, 5)         # address perms offset dev inode path
        if len(fields) == 6 and fields[5].startswith("/") \
                and "openblas" in fields[5].rsplit("/", 1)[-1].lower():
            paths.add(fields[5])
    return sorted(paths)


def pools() -> list[tuple]:
    """(set, get) function pairs of every loaded OpenBLAS."""
    found = []
    for path in _loaded_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                found.append((set_fn, get_fn))
                break
    return found


@contextmanager
def one_thread():
    """Run the block with every loaded OpenBLAS using one thread."""
    saved = [(set_fn, get_fn()) for set_fn, get_fn in pools()]
    for set_fn, _ in saved:
        set_fn(1)
    try:
        yield
    finally:
        for set_fn, before in saved:
            set_fn(before)
