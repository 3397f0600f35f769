import dataclasses
import itertools

import numpy as np
import pytest

from thingap.coefficients import (EllipticityError, LameParameters, check_ellipticity,
                                  check_holder, holder_demo_coefficients,
                                  identity_coefficients, lame_as_general, lame_tensor)
from thingap.coefficients import CoefficientSet


def test_lame_tensor_entries():
    T = lame_tensor(LameParameters(1.0, 1.0))
    assert T[0, 0, 0, 0] == pytest.approx(3.0)          # lambda + 2 mu
    assert T[0, 0, 1, 1] == pytest.approx(1.0)          # lambda
    assert T[0, 1, 0, 1] == pytest.approx(1.0)          # mu
    T2 = lame_tensor(LameParameters(2.5, 0.75))
    assert T2[0, 0, 1, 1] == pytest.approx(2.5)
    assert T2[0, 1, 0, 1] == pytest.approx(0.75)


def test_lame_tensor_symmetries():
    T = lame_tensor(LameParameters(1.3, 0.6))
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert T[i, j, k, l] == T[j, i, k, l]
        assert T[i, j, k, l] == T[k, l, i, j]
        assert T[i, j, k, l] == T[i, j, l, k]


def test_lame_parameters_must_be_elliptic():
    with pytest.raises(EllipticityError):
        LameParameters(1.0, 0.0)
    with pytest.raises(EllipticityError):
        LameParameters(-2.0, 1.0)


def test_lame_as_general_matches_bruteforce_expansion():
    p = LameParameters(1.0, 1.0)
    cs = lame_as_general(p)
    A = cs.A
    T = lame_tensor(p)
    # brute-force re-index over every tuple
    for a, b, i, j in itertools.product(range(2), repeat=4):
        assert A[a, b, i, j] == T[i, a, j, b]
    assert A[0, 0, 0, 0] == pytest.approx(3.0)
    assert A[1, 1, 0, 0] == pytest.approx(1.0)
    assert A[0, 1, 0, 1] == pytest.approx(1.0)
    assert A[1, 0, 0, 1] == pytest.approx(1.0)


def test_lame_as_general_lower_order_vanishes():
    cs = lame_as_general(LameParameters(1.0, 1.0))
    assert cs.B is None and cs.Cc is None and cs.D is None
    X = np.array([[0.3, -0.1], [0.0, 0.0]])
    assert cs.eval_B_many(X).shape == (2, 2, 2, 2)
    assert cs.eval_D_many(X).shape == (2, 2, 2)
    assert not np.any(cs.eval_B_many(X))
    assert not np.any(cs.eval_C_many(X))
    assert not np.any(cs.eval_D_many(X))
    assert cs.is_zero_lower_order()


def test_lame_rank_one_form_bruteforce_minimum():
    # independent Rayleigh minimization over random unit direction pairs
    cs = lame_as_general(LameParameters(1.0, 1.0))
    A = cs.A
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(10_000):
        xi = rng.normal(size=2)
        eta = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        q = np.einsum("abij,a,b,i,j->", A, xi, xi, eta, eta)
        best = min(best, q)
    assert best >= cs.lam - 1e-6
    assert best == pytest.approx(cs.lam, abs=2e-3)      # minimum mu is attained


def test_check_ellipticity_identity():
    meas = check_ellipticity(identity_coefficients(m=2), samples=10_000, seed=0)
    assert meas.value == pytest.approx(1.0, abs=1e-9)


def test_check_ellipticity_lame_and_scaling():
    cs = lame_as_general(LameParameters(1.0, 1.0))
    meas = check_ellipticity(cs, samples=10_000, seed=1)
    assert meas.value == pytest.approx(1.0, abs=1e-9)
    doubled = CoefficientSet(m=2, A=2.0 * cs.A, B=cs.B, Cc=cs.Cc, D=cs.D,
                             lam=2.0 * cs.lam, kappa3=cs.kappa3)
    meas2 = check_ellipticity(doubled, samples=10_000, seed=1)
    assert meas2.value == pytest.approx(2.0 * meas.value, rel=1e-12)


def test_check_ellipticity_rejects_indefinite():
    bad = CoefficientSet(m=1, A=-np.eye(2)[..., None, None],
                         B=np.zeros((2, 1, 1)), Cc=np.zeros((2, 1, 1)), D=np.zeros((1, 1)),
                         lam=1.0, kappa3=1.0)
    with pytest.raises(EllipticityError):
        check_ellipticity(bad, samples=100, seed=0)


def _scalar_field_set(fn, gamma):
    eye = np.eye(2)[:, :, None, None]
    return CoefficientSet(m=1, A=lambda X: fn(X)[:, None, None, None, None] * eye,
                          B=np.zeros((2, 1, 1)), Cc=np.zeros((2, 1, 1)), D=np.zeros((1, 1)),
                          lam=0.0, kappa3=100.0, gamma=gamma)


def test_check_holder_constant_fields():
    cs = identity_coefficients(m=1)
    got = check_holder(cs, pair_samples=2000, seed=0)
    assert got == pytest.approx(1.0, abs=0)             # sup of A entries, zero quotient


def test_check_holder_power_field_quotient_bounded_by_one():
    gamma = 0.5
    cs = _scalar_field_set(lambda X: np.linalg.norm(X, axis=1) ** gamma, gamma)
    # pairs through the origin realize the quotient; | |x|^g - |y|^g | <= |x-y|^g
    pts = np.concatenate([np.zeros((1, 2)),
                          np.random.default_rng(2).uniform(-1, 1, size=(120, 2))])
    got = check_holder(cs, pair_samples=10_000, points=pts, seed=3)
    sup = max(np.linalg.norm(p) ** gamma for p in pts)
    assert got <= sup + 1.0 + 1e-12
    assert got >= sup + 0.95                            # near-origin pairs approach 1


def test_check_holder_smooth_field_scales_with_diameter():
    gamma = 0.5
    cs = _scalar_field_set(lambda X: X[:, 0], gamma)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(150, 2))
    got = check_holder(cs, pair_samples=10_000, points=pts, seed=5)
    diam = 2.0 * np.sqrt(2.0)
    sup = float(np.max(np.abs(pts[:, 0])))
    assert got <= sup + diam ** (1 - gamma) * 1.0 + 1e-9


def test_holder_demo_field_passes_both_checks():
    cs = holder_demo_coefficients(0.5, m=1)
    meas = check_ellipticity(cs, samples=4000,
                             points=np.random.default_rng(6).uniform(-1, 1, (50, 2)),
                             seed=6)
    assert meas.value >= 1.0 - 1e-9
    k3 = check_holder(cs, pair_samples=4000, seed=7)
    assert np.isfinite(k3) and k3 <= cs.kappa3


def test_array_field_of_another_shape_raises():
    # an m = 1 leading field on an m = 2 set would otherwise broadcast silently
    cs = dataclasses.replace(identity_coefficients(m=2),
                             A=identity_coefficients(m=1).A)
    with pytest.raises(ValueError, match=r"field A has shape \(2, 2, 1, 1\), "
                                         r"expected \(2, 2, 2, 2\)"):
        cs.eval_A_many(np.zeros((5, 2)))


def test_per_point_rule_raises():
    A0 = identity_coefficients(m=2).A
    cs = dataclasses.replace(identity_coefficients(m=2), A=lambda x: A0)
    with pytest.raises(ValueError, match=r"field A has shape \(2, 2, 2, 2\), "
                                         r"expected \(5, 2, 2, 2, 2\)"):
        cs.eval_A_many(np.zeros((5, 2)))


def test_holder_demo_batch_matches_the_per_point_formula_bitwise():
    cs = holder_demo_coefficients(0.5, m=2)
    X = np.random.default_rng(8).uniform(-1, 1, size=(1000, 2))
    eye = np.einsum("ab,ij->abij", np.eye(2), np.eye(2))
    want = np.stack([(1 + 0.5 * float(np.linalg.norm(x)) ** 0.5) * eye for x in X])
    assert np.array_equal(cs.eval_A_many(X), want)
