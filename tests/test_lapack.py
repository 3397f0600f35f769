"""The ctypes LAPACK binding against scipy's wrappers, bit for bit.

Where scipy bundles no OpenBLAS the binding is scipy's wrappers themselves,
and these comparisons hold trivially.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from thingap import _lapack, solver
from thingap.auxiliary import BoundaryData
from thingap.coefficients import LameParameters, lame_as_general
from thingap.geometry import GapGeometry
from thingap.mesh import generate, grade
from thingap.solver import assemble, dirichlet_values, solve_dirichlet


def _lame():
    return lame_as_general(LameParameters(1.0, 1.0))


def _nonsymmetric():
    """Lame with a first-order term B, which makes the element matrices nonsymmetric."""
    B = 0.1 * np.arange(8, dtype=float).reshape(2, 2, 2) / 8.0
    return dataclasses.replace(_lame(), B=B)


def _problem(cs):
    geom = GapGeometry(0.1, 0.5)
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    return assemble(mesh, cs), dirichlet_values(mesh, BoundaryData.constant([1.0, 0.0],
                                                                             [0.0, 0.0]))


def _band(monkeypatch, system, bc, name):
    """The band ``_band_solver`` hands to ``name``, and the solver's right-hand side."""
    seen = []
    exact = getattr(solver, name)

    def capture(ab, *args, **kwargs):
        seen.append(np.array(ab, order="F"))
        return exact(ab, *args, **kwargs)

    monkeypatch.setattr(solver, name, capture)
    system._band_solver(~bc.dof_mask())
    free = ~bc.dof_mask()
    full = np.where(bc.dof_mask(), bc.values.ravel(), 0.0)
    return seen[-1], system.load[free] - system._apply(full)[free]


def test_banded_cholesky_is_bitwise_scipys(monkeypatch):
    system, bc = _problem(_lame())
    ab, rhs = _band(monkeypatch, system, bc, "dpbtrf")
    c_ref, info_ref = lapack.dpbtrf(ab, lower=1)
    c, info = _lapack.dpbtrf(ab.copy(order="F"), lower=1, overwrite_ab=1)
    assert info == info_ref == 0
    assert np.array_equal(c, c_ref)
    B = np.stack([rhs, -2.0 * rhs], axis=1)
    for b in (rhs, B):
        x, info = _lapack.dpbtrs(c, b, lower=1)
        x_ref, info_ref = lapack.dpbtrs(c_ref, b, lower=1)
        assert info == info_ref == 0 and x.shape == b.shape
        assert np.array_equal(x, x_ref)
    assert np.array_equal(x[:, 0], _lapack.dpbtrs(c, rhs, lower=1)[0])
    # indefinite: a negative diagonal entry stops both at the same column
    ab[0, 10] = -1.0
    c, info = _lapack.dpbtrf(ab, lower=1)
    c_ref, info_ref = lapack.dpbtrf(ab, lower=1)
    assert info == info_ref > 0
    assert np.array_equal(c, c_ref)


def test_overwrite_flags_follow_scipy():
    ab = np.asfortranarray([[4.0, 4.0, 4.0], [-1.0, -1.0, 0.0]])
    c, _ = _lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    assert np.shares_memory(c, ab)
    before = ab.copy()
    c, _ = _lapack.dpbtrf(before.copy(order="C"), lower=1, overwrite_ab=1)
    assert not np.shares_memory(c, before)
    b = np.ones(3)
    x, _ = _lapack.dpbtrs(c, b, lower=1)
    assert not np.shares_memory(x, b) and np.array_equal(b, np.ones(3))


def test_without_a_library_the_routines_are_scipys(monkeypatch):
    path, routines = _lapack._routines([])
    assert path is None
    assert routines == tuple(getattr(lapack, name) for name in _lapack.ROUTINES)
    # numpy's OpenBLAS exports only the ILP64 names (scipy_dpbtrf_64_): never bound
    numpy_libs = Path(np.__file__).parents[1] / "numpy.libs"
    for lib in sorted(numpy_libs.glob("libscipy_openblas64_*.so*")):
        assert _lapack._routines([lib]) == (None, routines)
    # the solver gives the same bits through either binding; the nonsymmetric
    # operator takes scipy's banded LU through both
    for make_cs in (_lame, _nonsymmetric):
        system, bc = _problem(make_cs())
        x = solve_dirichlet(system, bc).values
        for name, fn in zip(_lapack.ROUTINES, routines):
            monkeypatch.setattr(solver, name, fn)
        system._lu_cache.clear()
        assert np.array_equal(solve_dirichlet(system, bc).values, x)
        monkeypatch.undo()


def test_mismatched_shapes_raise_before_the_call():
    c, _ = _lapack.dpbtrf(np.asfortranarray([[4.0, 4.0, 4.0], [-1.0, -1.0, 0.0]]), lower=1)
    with pytest.raises(ValueError, match="shape"):
        _lapack.dpbtrs(c, np.ones(4), lower=1)
    with pytest.raises(ValueError, match="shape"):
        _lapack.dpbtrf(np.ones(3))
