import numpy as np
import pytest

from thingap.auxiliary import (AuxiliaryField, BoundaryData, ConfigurationError,
                               check_seminorm_growth, field_gradients, field_values,
                               gap_fraction, gap_fraction_gradient, holder_seminorm,
                               interpolant_gradients, interpolant_values,
                               seminorm_growth_rhs)
from thingap.geometry import GapGeometry, GeometryError, LocalRegion

EPS = 1e-2
GAMMA = 0.5


@pytest.fixture
def geom():
    return GapGeometry.power_law(EPS, GAMMA)


@pytest.fixture
def jump_data():
    return BoundaryData.constant([1.0, 0.0], [0.0, 0.0])


def interior_samples(geom, k, seed=0, tmin=0.2, tmax=0.8, xmax=0.9):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-xmax, xmax, size=(k, 1))
    t = rng.uniform(tmin, tmax, size=k)
    bot = geom.bottom(xp)
    top = geom.top(xp)
    return np.concatenate([xp, (bot + t * (top - bot))[:, None]], axis=1)


# ---------------------------------------------------------------------------
# the scalar crossing profile
# ---------------------------------------------------------------------------

def test_gap_fraction_boundary_values(geom):
    xp = np.linspace(-1, 1, 101)[:, None]
    top = geom.boundary_point("top", xp)
    bot = geom.boundary_point("bottom", xp)
    assert np.max(np.abs(gap_fraction(geom, top) - 1.0)) < 1e-12
    assert np.max(np.abs(gap_fraction(geom, bot))) < 1e-12


def test_gap_fraction_midpoint(geom):
    assert gap_fraction(geom, np.array([0.0, 0.0])) == pytest.approx(0.5, abs=0)


def test_gap_fraction_matches_recomputation(geom):
    X = interior_samples(geom, 300, seed=1)
    got = gap_fraction(geom, X)
    xp = X[:, :1]
    num = X[:, 1] - (np.asarray(geom.profile_bottom.evaluate(xp)) - EPS / 2)
    want = num / geom.gap_width(xp)
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    assert np.all((got > 0) & (got < 1))


def test_gap_fraction_domain_error(geom):
    with pytest.raises(GeometryError):
        gap_fraction(geom, np.array([0.0, EPS]))


def test_vertical_derivative_is_exactly_inverse_width(geom):
    X = interior_samples(geom, 1000, seed=2)
    g = gap_fraction_gradient(geom, X)
    want = 1.0 / geom.gap_width(X[:, :1])
    assert np.array_equal(g[:, 1], want)                # identity, not approximation


def test_tangential_gradient_vanishes_at_origin(geom):
    g = gap_fraction_gradient(geom, np.array([0.0, 0.001]))
    assert g[0] == 0.0


def test_tangential_gradient_envelope_constant_stable():
    # |d_x profile| <= C |x'|^gamma / (eps + |x'|^{1+gamma}) with one C per sweep
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        geom = GapGeometry.power_law(eps, GAMMA)
        X = interior_samples(geom, 2000, seed=3)
        g = gap_fraction_gradient(geom, X)
        t = np.abs(X[:, 0])
        envelope = t**GAMMA / (eps + t ** (1 + GAMMA))
        mask = envelope > 0
        consts.append(float(np.max(np.abs(g[mask, 0]) / envelope[mask])))
    assert all(np.isfinite(c) for c in consts)
    assert max(consts) / min(consts) < 3.0


def test_tangential_parts_sum_to_finite_difference(geom):
    X = interior_samples(geom, 400, seed=4)
    g = gap_fraction_gradient(geom, X)
    h = 1e-7 * geom.gap_width(X[:, :1])
    step = np.zeros_like(X)
    step[:, 0] = h
    fd = (gap_fraction(geom, X + step) - gap_fraction(geom, X - step)) / (2 * h)
    scale = np.maximum(np.abs(fd), np.abs(g[:, 0]))
    err = np.abs(fd - g[:, 0]) / np.maximum(scale, 1.0)
    assert np.max(err) < 1e-6


# ---------------------------------------------------------------------------
# the data extension
# ---------------------------------------------------------------------------

def test_extension_matches_data_on_boundaries(geom, jump_data):
    fld = AuxiliaryField(geom, jump_data, 0)
    xp = np.linspace(-0.9, 0.9, 41)[:, None]
    top = geom.boundary_point("top", xp)
    bot = geom.boundary_point("bottom", xp)
    vt = field_values(fld, top)
    vb = field_values(fld, bot)
    assert np.max(np.abs(vt - jump_data.phi(top))) < 1e-12
    assert np.max(np.abs(vb - jump_data.psi(bot))) < 1e-12


def test_extension_reduces_to_profile_for_unit_jump(geom):
    data = BoundaryData.constant([1.0], [0.0])
    X = interior_samples(geom, 200, seed=5)
    vals = interpolant_values(geom, data, X)
    assert np.allclose(vals[:, 0], gap_fraction(geom, X), atol=0)


def test_extension_off_component_is_zero(geom, jump_data):
    fld = AuxiliaryField(geom, jump_data, 0)
    X = interior_samples(geom, 50, seed=6)
    vals = field_values(fld, X)
    assert not np.any(vals[:, 1])
    grads = field_gradients(fld, X)
    assert not np.any(grads[:, 1, :])


def test_extension_vertical_derivative_values(geom, jump_data):
    g = interpolant_gradients(geom, jump_data, np.array([0.0, 0.0]))
    assert g[0, 1] == pytest.approx(1.0 / EPS, rel=1e-14)
    equal = BoundaryData.constant([2.0, 0.5], [2.0, 0.5])
    g2 = interpolant_gradients(geom, equal, np.array([0.0, 0.0]))
    assert np.max(np.abs(g2[:, 1])) == 0.0


@pytest.mark.parametrize("make_data", [
    lambda geom: BoundaryData.constant([1.0, 0.0], [0.0, 0.0]),
    lambda geom: BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2]],
                                         [[0.0], [0.0, -0.3]], geom),
])
def test_extension_gradient_matches_finite_differences(geom, make_data):
    data = make_data(geom)
    data.validate(geom)
    X = interior_samples(geom, 1000, seed=7)
    g = interpolant_gradients(geom, data, X)
    h = (1e-7 * geom.gap_width(X[:, :1]))[:, None]
    worst = 0.0
    for d in range(2):
        step = np.zeros_like(X)
        step[:, d] = h[:, 0]
        fd = (interpolant_values(geom, data, X + step)
              - interpolant_values(geom, data, X - step)) / (2 * h)
        scale = np.maximum(np.linalg.norm(g, axis=(1, 2)), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, :, d]) / scale[:, None])))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# sampled Holder seminorm
# ---------------------------------------------------------------------------

def region_at(geom, zp, frac=0.5):
    w = float(geom.gap_width(np.array([zp])))
    return LocalRegion(np.array([zp, float(geom.midline(np.array([zp])))]),
                       frac * w, geom)


def test_seminorm_constant_field_is_zero(geom):
    reg = region_at(geom, 0.0)
    f = lambda X: np.ones((X.shape[0], 2))
    assert holder_seminorm(f, reg, GAMMA, pairs=500, seed=0) == 0.0


def test_seminorm_vertical_coordinate_field(geom):
    # for f = x_n the quotient |x_n-y_n|/|x-y|^g is maximized by vertical pairs
    reg = region_at(geom, 0.0, frac=1.0)
    f = lambda X: X[:, 1:2]
    got = holder_seminorm(f, reg, GAMMA, pairs=4000, seed=1)
    # exhaustive search over a 50x50 grid of the slab
    xs = np.linspace(-reg.radius, reg.radius, 50)
    grid = []
    for x in xs:
        b = float(geom.bottom(np.array([x])))
        t = float(geom.top(np.array([x])))
        for y in np.linspace(b + 1e-9, t - 1e-9, 50):
            grid.append((x, y))
    G = np.array(grid)
    d = np.linalg.norm(G[:, None, :] - G[None, :, :], axis=2)
    dv = np.abs(G[:, None, 1] - G[None, :, 1])
    mask = d > 0
    dense = float(np.max(dv[mask] / d[mask] ** GAMMA))
    # tallest fiber in the slab sits at its edge
    height = float(geom.gap_width(np.array([reg.radius])))
    assert dense == pytest.approx(height ** (1 - GAMMA), rel=0.05)
    assert got <= dense + 1e-12
    assert got >= 0.8 * dense


def test_seminorm_shift_invariance_and_scaling(geom):
    reg = region_at(geom, 0.1)
    f = lambda X: np.stack([X[:, 0] ** 2, np.sin(X[:, 1] * 50)], axis=1)
    base = holder_seminorm(f, reg, GAMMA, pairs=1500, seed=2)
    shifted = holder_seminorm(lambda X: f(X) + 3.7, reg, GAMMA, pairs=1500, seed=2)
    scaled = holder_seminorm(lambda X: 2.5 * f(X), reg, GAMMA, pairs=1500, seed=2)
    assert shifted == pytest.approx(base, rel=1e-12)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_seminorm_monotone_in_budget(geom):
    reg = region_at(geom, 0.0, frac=1.0)
    fld = AuxiliaryField(geom, BoundaryData.constant([1.0], [0.0]), 0)
    f = lambda X: field_gradients(fld, X).reshape(X.shape[0], -1)
    vals = [holder_seminorm(f, reg, GAMMA, pairs=p, seed=3)
            for p in (200, 400, 800, 1600)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_seminorm_propagates_rule_errors(geom):
    # a rule that fails on a batch is not retried point by point
    def scalar_only(X):
        if np.ndim(X) > 1:
            raise ValueError("rule accepts single points only")
        return X[1:2]

    with pytest.raises(ValueError, match="single points only"):
        holder_seminorm(scalar_only, region_at(geom, 0.0), GAMMA, pairs=100, seed=0)


def test_seminorm_evaluates_the_field_once(geom):
    batches = []

    def f(X):
        batches.append(X.shape[0])
        return np.sin(40 * X)

    assert holder_seminorm(f, region_at(geom, 0.0), GAMMA, pairs=400, seed=0) > 0
    assert len(batches) == 1 and batches[0] % 2 == 0


def test_seminorm_rejects_empty_budget(geom):
    with pytest.raises(ConfigurationError):
        holder_seminorm(lambda X: X, region_at(geom, 0.0), GAMMA, pairs=0)


# ---------------------------------------------------------------------------
# growth bound for the extension-gradient seminorm
# ---------------------------------------------------------------------------

def test_growth_rhs_closed_form(geom, jump_data):
    # direct substitution at the neck with slab radius half the gap
    fld = AuxiliaryField(geom, jump_data, 0)
    s = EPS / 2
    got = seminorm_growth_rhs(fld, np.zeros(1), s)
    p = 1.0 / (1.0 + GAMMA)
    jump = 1.0
    norms = 1.0      # |phi| = 1 constant, |psi| = 0
    want = (jump * (EPS ** (-1 - p) * s ** (1 - GAMMA) + EPS ** (-GAMMA - p))
            + norms * (EPS ** (-1 - p) * s ** (2 - GAMMA) + EPS ** (-1) * s ** (1 - GAMMA)
                       + EPS ** (-GAMMA - p) * s + EPS ** (-GAMMA)))
    assert got == pytest.approx(want, rel=1e-14)


def test_growth_check_equal_data_trivially_passes(geom):
    data = BoundaryData.constant([2.0, 0.0], [2.0, 0.0])
    fld = AuxiliaryField(geom, data, 0)
    rep = check_seminorm_growth(fld, np.array([0.0, 0.0]), (0.25, 0.5, 1.0),
                                pairs=500, seed=0)
    for row in rep.rows:
        assert row.lhs == 0.0
    assert rep.fitted_constant == 0.0


def test_growth_check_constant_stable_across_sweep(jump_data):
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        geom = GapGeometry.power_law(eps, GAMMA)
        fld = AuxiliaryField(geom, jump_data, 0)
        rep = check_seminorm_growth(fld, np.array([0.0, 0.0]), (0.25, 0.5, 1.0),
                                    pairs=2000, seed=1)
        assert np.isfinite(rep.fitted_constant)
        consts.append(rep.fitted_constant)
    assert max(consts) / min(consts) < 3.0


def test_growth_check_rejects_oversized_slab(geom, jump_data):
    fld = AuxiliaryField(geom, jump_data, 0)
    with pytest.raises(ConfigurationError):
        check_seminorm_growth(fld, np.array([0.0, 0.0]), (2.0,), pairs=100)


def test_growth_check_flags_slabs_reaching_the_neck(jump_data):
    # a full-width slab centered far out reaches the neck, where the bound's
    # comparability hypothesis fails and the quotient grows like 1/eps
    geom = GapGeometry.power_law(1e-3, GAMMA)
    fld = AuxiliaryField(geom, jump_data, 0)
    zp = 0.25
    rep = check_seminorm_growth(fld, np.array([zp, float(geom.midline(np.array([zp])))]),
                                (0.25, 1.0), pairs=2000, seed=2)
    assert rep.rows[0].hypothesis_ok
    assert not rep.rows[1].hypothesis_ok
    assert rep.rows[1].ratio > 10.0                     # excluded for good reason
    assert rep.fitted_constant == rep.rows[0].ratio


# ---------------------------------------------------------------------------
# boundary data plumbing
# ---------------------------------------------------------------------------

def test_boundary_data_validate_catches_wrong_derivative(geom):
    data = BoundaryData.polynomial([[1.0, 2.0]], [[0.0]], geom)
    data.validate(geom)
    broken = BoundaryData(m=1, phi=data.phi, psi=data.psi,
                          dphi=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
                          dpsi=data.dpsi, phi_norms=data.phi_norms,
                          psi_norms=data.psi_norms)
    with pytest.raises(ConfigurationError):
        broken.validate(geom)


def test_boundary_data_jump(geom):
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.5]], geom)
    j = data.jump(geom, np.array([[0.2]]))
    assert j[0, 0] == pytest.approx(1.0 + 0.04 - 0.5, rel=1e-12)


def test_constant_data_norms():
    data = BoundaryData.constant([1.0, -2.0], [0.5, 0.0])
    assert np.allclose(data.phi_norms, [1.0, 2.0])
    assert np.allclose(data.psi_norms, [0.5, 0.0])
