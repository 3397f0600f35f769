"""Banded Cholesky LAPACK routines bound without importing scipy.

``dpbtrf`` and ``dpbtrs`` take the arguments and return the tuples of their
``scipy.linalg.lapack`` namesakes (``info`` last), so either binding stands
in for the other.  They are the pair every command runs: each system the CLI
solves is symmetric positive definite.  They are bound with ``ctypes`` from
the LP64 OpenBLAS that the scipy wheel bundles
(``scipy.libs/libscipy_openblas*.so``, symbols ``scipy_dpbtrf_`` and
``scipy_dpbtrs_``), which ``importlib.util.find_spec`` locates without
importing scipy.  That is the library scipy's own wrappers call, so factors
and solutions are bit-identical to theirs, and loading it takes milliseconds
where importing ``scipy.linalg`` takes ~0.3 s of every command's start-up.
Where no library exports both symbols (scipy built against MKL, Accelerate
or a system LAPACK), the names are scipy's own wrappers.  Banded LU, which
no command reaches, is scipy's (see ``solver``).

numpy's wheel bundles an ILP64 OpenBLAS with the same routines
(``scipy_dpbtrf_64_``); it is not used: on a 2-vCPU machine its ``dpbtrf``
(OpenBLAS 0.3.31) took 15-20% longer than scipy's (0.3.30) on the 10k- and
42k-dof Lame gate matrices, one thread, best of 40.

The library is loaded with ``OPENBLAS_NUM_THREADS=1``.  OpenBLAS starts its
worker threads when it loads, and with the variable at the core count they
spin through the first command although every command runs its BLAS on one
thread (see ``_blas``).
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from pathlib import Path

import numpy as np

ROUTINES = ("dpbtrf", "dpbtrs")
# Fortran calling convention: every argument by reference, each character
# argument's length appended as a hidden size_t
_CHR, _INT, _PTR, _LEN = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p,
                          ctypes.c_size_t)
_ARGTYPES = {
    "dpbtrf": [_CHR, _INT, _INT, _PTR, _INT, _INT, _LEN],
    "dpbtrs": [_CHR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN],
}


def _candidates() -> list[Path]:
    """OpenBLAS libraries bundled with the installed scipy wheel, if any."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return []
    libs = Path(list(spec.submodule_search_locations)[0]).parent / "scipy.libs"
    return sorted(libs.glob("libscipy_openblas*.so*"))


def _open(path: Path):
    """``ctypes.CDLL(path)`` with one OpenBLAS thread, or None."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return ctypes.CDLL(str(path))
    except OSError:
        return None
    finally:
        if before is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = before


def _ref(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.c_void_p)


def _band(ab, in_place) -> np.ndarray:
    """``ab`` itself when it may be used in place, else a Fortran-ordered copy."""
    if not (in_place and isinstance(ab, np.ndarray) and ab.dtype == np.float64
            and ab.flags.f_contiguous and ab.flags.writeable):
        ab = np.array(ab, dtype=np.float64, order="F")
    if ab.ndim != 2 or ab.shape[0] < 1:
        raise ValueError(f"band storage must be a 2-D array with rows, got shape {ab.shape}")
    return ab


def _rhs(b, n: int) -> tuple[np.ndarray, int]:
    """A Fortran-ordered copy of ``b``, overwritten by the solution, and its column count."""
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} for a band of order {n}")
    return x, (x.shape[1] if x.ndim == 2 else 1)


def _bind(lib):
    """The two routines of ``lib``, called as ``scipy.linalg.lapack`` calls them."""
    pbtrf, pbtrs = (getattr(lib, f"scipy_{name}_") for name in ROUTINES)
    for name, fn in zip(ROUTINES, (pbtrf, pbtrs)):
        fn.argtypes, fn.restype = _ARGTYPES[name], None

    def dpbtrf(ab, lower=0, overwrite_ab=0):
        c, info = _band(ab, overwrite_ab), ctypes.c_int()
        pbtrf(b"L" if lower else b"U", _ref(c.shape[1]), _ref(c.shape[0] - 1), _ptr(c),
              _ref(c.shape[0]), ctypes.byref(info), 1)
        return c, info.value

    def dpbtrs(ab, b, lower=0):
        ab = _band(ab, True)
        n = ab.shape[1]
        (x, nrhs), info = _rhs(b, n), ctypes.c_int()
        pbtrs(b"L" if lower else b"U", _ref(n), _ref(ab.shape[0] - 1), _ref(nrhs),
              _ptr(ab), _ref(ab.shape[0]), _ptr(x), _ref(max(1, n)), ctypes.byref(info), 1)
        return x, info.value

    return dpbtrf, dpbtrs


def _routines(paths):
    """(library, routines) from the first of ``paths`` that exports both, else
    (None, scipy's wrappers)."""
    for path in paths:
        lib = _open(path)
        if lib is not None and all(hasattr(lib, f"scipy_{name}_") for name in ROUTINES):
            return path, _bind(lib)
    from scipy.linalg import lapack
    return None, tuple(getattr(lapack, name) for name in ROUTINES)


# the bound library's path, None where scipy's wrappers are used
LIBRARY, (dpbtrf, dpbtrs) = _routines(_candidates())
