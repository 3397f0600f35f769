"""Cap the OpenBLAS thread pools loaded into this process.

The NumPy and SciPy wheels each bundle an OpenBLAS whose pool starts with one
thread per core (or ``OPENBLAS_NUM_THREADS``).  On the sparse factorization
and the small dense products of a sweep, a second BLAS thread does not
shorten the wall time: each call it takes part in waits for the helper thread
to wake, so the cost depends on what the other cores are doing.  On a 2-vCPU
machine the 48-layer Lamé sweep took 2.5–3.0 s with one BLAS thread and
2.9–3.5 s with two; the oracle suite's dense solves gained a few percent of
wall time from the second thread, at about 20% more CPU time.

:func:`limit` caps every loaded OpenBLAS for the duration of a block and
restores the previous sizes afterwards.  Libraries are found in
``/proc/self/maps``; where that file or OpenBLAS is missing it does nothing.
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
def limit(threads: int):
    """Run the block with every loaded OpenBLAS using at most ``threads`` threads."""
    saved = [(set_fn, get_fn()) for set_fn, get_fn in pools()]
    for set_fn, before in saved:
        set_fn(min(before, threads))
    try:
        yield
    finally:
        for set_fn, before in saved:
            set_fn(before)
