import numpy as np
import pytest

from thingap.geometry import GapGeometry, GeometryError, LocalRegion, power_profile

EPS = 1e-2
GAMMA = 0.5


@pytest.fixture
def geom():
    g = GapGeometry.power_law(EPS, GAMMA)
    g.validate(samples=500)
    return g


def test_gap_width_at_origin_is_epsilon(geom):
    assert float(geom.gap_width(np.zeros(1))) == pytest.approx(EPS, abs=0)


def test_gap_width_symmetric_family_closed_form(geom):
    for t in (0.1, 0.37, 0.9):
        want = EPS + 2.0 * t ** (1 + GAMMA)
        assert float(geom.gap_width(np.array([t]))) == pytest.approx(want, rel=1e-14)
        assert float(geom.gap_width(np.array([-t]))) == pytest.approx(want, rel=1e-14)


def test_gap_width_matches_profile_recomputation(geom):
    rng = np.random.default_rng(0)
    xp = rng.uniform(-1, 1, size=(200, 1))
    got = geom.gap_width(xp)
    want = (EPS + np.asarray(geom.profile_top.evaluate(xp))
            - np.asarray(geom.profile_bottom.evaluate(xp)))
    assert np.allclose(got, want, rtol=0, atol=0)


def test_gap_width_domain_error(geom):
    with pytest.raises(GeometryError):
        geom.gap_width(np.array([1.5]))


def test_contains_center_and_boundary(geom):
    region = LocalRegion(np.zeros(2), 1.0, geom)
    assert region.contains(np.array([0.0, 0.0]))
    assert not region.contains(np.array([0.0, EPS / 2]))     # strict at the boundary
    assert not region.contains(np.array([0.0, -EPS / 2]))


def test_contains_matches_bruteforce_predicate(geom):
    # independent predicate straight from the defining inequalities
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(-1.2, 1.2, 10_000), rng.uniform(-0.2, 0.2, 10_000)],
                   axis=1)
    r = 0.8
    got = LocalRegion(np.array([0.0, 0.05]), r, geom).contains(pts)
    c1, c2 = 1.0, -1.0
    for x, ok in zip(pts, got):
        t = abs(x[0])
        inside = (t < r
                  and -EPS / 2 + c2 * t ** (1 + GAMMA) < x[1] < EPS / 2 + c1 * t ** (1 + GAMMA))
        assert bool(ok) == inside


def test_boundary_points(geom):
    top0 = geom.boundary_point("top", np.zeros(1))
    bot0 = geom.boundary_point("bottom", np.zeros(1))
    assert np.allclose(top0, [0.0, EPS / 2], atol=0)
    assert np.allclose(bot0, [0.0, -EPS / 2], atol=0)
    t = 0.25
    topt = geom.boundary_point("top", np.array([t]))
    assert topt[1] == pytest.approx(EPS / 2 + t ** (1 + GAMMA), rel=1e-15)
    with pytest.raises(GeometryError):
        geom.boundary_point("top", np.array([1.01]))
    with pytest.raises(GeometryError):
        geom.boundary_point("sideways", np.zeros(1))


def test_slab_samples_lie_in_region_and_are_prefix_stable(geom):
    region = LocalRegion(np.array([0.2, float(geom.midline(np.array([0.2])))]), 0.05, geom)
    small = region.sample_points(50, seed=4, tag=1)
    large = region.sample_points(200, seed=4, tag=1)
    assert np.array_equal(large[:50], small)
    assert np.all(region.contains(large))
    assert not np.array_equal(region.sample_points(50, seed=4, tag=2), small)


def test_contains_slab_edge(geom):
    z = np.array([0.05, 0.0])
    w = float(geom.gap_width(z[:1]))
    region = LocalRegion(z, w, geom)
    assert region.contains(np.array([z[0] + w * (1 - 1e-9), 0.0]))
    assert not region.contains(np.array([z[0] + w * 1.001, 0.0]))


def test_builtin_gradient_envelope():
    geom = GapGeometry.power_law(EPS, GAMMA, c_top=1.0, c_bottom=-0.5)
    assert geom.kappa0 == pytest.approx((1 + GAMMA) * 0.5)
    assert geom.kappa1 == pytest.approx((1 + GAMMA) * 1.0)
    rng = np.random.default_rng(3)
    xp = rng.uniform(-1, 1, size=(1000, 1))
    env = np.abs(xp[:, 0]) ** GAMMA
    for prof in (geom.profile_top, geom.profile_bottom):
        g = np.abs(np.asarray(prof.gradient(xp)).reshape(-1))
        assert np.all(g >= geom.kappa0 * env - 1e-12)
        assert np.all(g <= geom.kappa1 * env + 1e-12)


def test_one_sided_profile_has_zero_kappa0_and_validates():
    # kappa0 is the minimum over both amplitudes, so a flat bottom gives 0
    geom = GapGeometry.power_law(EPS, GAMMA, c_top=1.0, c_bottom=0.0)
    assert geom.kappa0 == 0.0
    assert geom.kappa1 == pytest.approx(1 + GAMMA)
    geom.validate(samples=200, seed=0)


def test_gap_width_even_and_bounded_below(geom):
    xs = np.linspace(0, 1, 101)[:, None]
    assert np.allclose(geom.gap_width(xs), geom.gap_width(-xs), atol=0)
    assert np.all(geom.gap_width(np.linspace(-1, 1, 201)[:, None]) >= EPS)


def test_width_regimes_recorded_constants():
    # neck regime: width within a constant factor of epsilon; outer regime:
    # width within a constant factor of |z'|^{1+gamma}
    for eps in (1e-2, 1e-3):
        geom = GapGeometry.power_law(eps, GAMMA)
        neck = eps ** (1 / (1 + GAMMA))
        zs = np.linspace(0, neck, 50)[:, None]
        ratio = geom.gap_width(zs) / eps
        assert ratio.min() >= 1.0
        assert ratio.max() <= 3.0 + 1e-12
        zs = np.linspace(neck, 0.5, 50)[:, None]
        ratio = geom.gap_width(zs) / np.abs(zs[:, 0]) ** (1 + GAMMA)
        assert 1.0 <= ratio.min() and ratio.max() <= 4.0


def test_profile_gradient_matches_finite_differences():
    prof = power_profile(0.7, GAMMA)
    pts = np.linspace(0.05, 0.95, 40)[:, None]
    worst = prof.check_gradient(np.concatenate([pts, -pts]))
    assert worst < 1e-6


def test_validate_rejects_shifted_profile():
    bad = GapGeometry(epsilon=EPS, gamma=GAMMA,
                      profile_top=power_profile(1.0, GAMMA),
                      profile_bottom=power_profile(-1.0, GAMMA),
                      kappa0=0.0, kappa1=0.0)
    shifted = GapGeometry(
        epsilon=EPS, gamma=GAMMA,
        profile_top=type(bad.profile_top)(
            evaluate=lambda xp: np.asarray(bad.profile_top.evaluate(xp)) + 0.1,
            gradient=bad.profile_top.gradient, description="shifted"),
        profile_bottom=bad.profile_bottom, kappa0=0.0, kappa1=0.0)
    with pytest.raises(GeometryError):
        shifted.validate(samples=100)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(GeometryError):
        GapGeometry.power_law(-1.0, GAMMA)
    with pytest.raises(GeometryError):
        GapGeometry.power_law(EPS, 1.5)
