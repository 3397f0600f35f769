import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thingap.geometry import GapGeometry, GeometryError, LocalRegion

EPS = 1e-2
GAMMA = 0.5


@pytest.fixture
def geom():
    g = GapGeometry(EPS, GAMMA)
    g.validate()
    return g


def test_gap_width_at_origin_is_epsilon(geom):
    assert geom.gap_width(0.0) == pytest.approx(EPS, abs=0)


def test_gap_width_symmetric_family_closed_form(geom):
    for t in (0.1, 0.37, 0.9):
        want = EPS + 2.0 * t ** (1 + GAMMA)
        assert geom.gap_width(t) == pytest.approx(want, rel=1e-14)
        assert geom.gap_width(-t) == pytest.approx(want, rel=1e-14)


def test_gap_width_matches_profile_recomputation(geom):
    rng = np.random.default_rng(0)
    xp = rng.uniform(-1, 1, size=200)
    got = geom.gap_width(xp)
    h_top, h_bot = geom.profiles(xp)
    assert np.array_equal(got, (EPS + h_top) - h_bot)
    assert np.array_equal(geom.top(xp), EPS / 2 + h_top)
    assert np.array_equal(geom.bottom(xp), -EPS / 2 + h_bot)


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
    top0 = geom.boundary_point("top", 0.0)
    bot0 = geom.boundary_point("bottom", 0.0)
    assert np.allclose(top0, [0.0, EPS / 2], atol=0)
    assert np.allclose(bot0, [0.0, -EPS / 2], atol=0)
    t = 0.25
    topt = geom.boundary_point("top", t)
    assert topt[1] == pytest.approx(EPS / 2 + t ** (1 + GAMMA), rel=1e-15)
    with pytest.raises(GeometryError):
        geom.boundary_point("top", 1.01)
    with pytest.raises(GeometryError):
        geom.boundary_point("sideways", 0.0)


def test_slab_samples_lie_in_region_and_are_prefix_stable(geom):
    region = LocalRegion(np.array([0.2, geom.midline(0.2)]), 0.05, geom)
    small = region.sample_points(50, seed=4, tag=1)
    large = region.sample_points(200, seed=4, tag=1)
    assert np.array_equal(large[:50], small)
    assert np.all(region.contains(large))
    assert not np.array_equal(region.sample_points(50, seed=4, tag=2), small)


def test_contains_slab_edge(geom):
    z = np.array([0.05, 0.0])
    w = geom.gap_width(z[0])
    region = LocalRegion(z, w, geom)
    assert region.contains(np.array([z[0] + w * (1 - 1e-9), 0.0]))
    assert not region.contains(np.array([z[0] + w * 1.001, 0.0]))


def test_builtin_gradient_envelope():
    geom = GapGeometry(EPS, GAMMA, c_top=1.0, c_bottom=-0.5)
    assert geom.kappa0 == pytest.approx((1 + GAMMA) * 0.5)
    assert geom.kappa1 == pytest.approx((1 + GAMMA) * 1.0)
    rng = np.random.default_rng(3)
    xp = rng.uniform(-1, 1, size=1000)
    env = np.abs(xp) ** GAMMA
    for slope in geom.profiles(xp, gradient=True)[2:]:
        g = np.abs(slope)
        assert np.all(g >= geom.kappa0 * env - 1e-12)
        assert np.all(g <= geom.kappa1 * env + 1e-12)


def test_one_sided_profile_has_zero_kappa0_and_validates():
    # kappa0 is the minimum over both amplitudes, so a flat bottom gives 0
    geom = GapGeometry(EPS, GAMMA, c_top=1.0, c_bottom=0.0)
    assert geom.kappa0 == 0.0
    assert geom.kappa1 == pytest.approx(1 + GAMMA)
    geom.validate()


def test_gap_width_even_and_bounded_below(geom):
    xs = np.linspace(0, 1, 101)
    assert np.allclose(geom.gap_width(xs), geom.gap_width(-xs), atol=0)
    assert np.all(geom.gap_width(np.linspace(-1, 1, 201)) >= EPS)


def test_width_regimes_recorded_constants():
    # neck regime: width within a constant factor of epsilon; outer regime:
    # width within a constant factor of |z'|^{1+gamma}
    for eps in (1e-2, 1e-3):
        geom = GapGeometry(eps, GAMMA)
        neck = eps ** (1 / (1 + GAMMA))
        zs = np.linspace(0, neck, 50)
        ratio = geom.gap_width(zs) / eps
        assert ratio.min() >= 1.0
        assert ratio.max() <= 3.0 + 1e-12
        zs = np.linspace(neck, 0.5, 50)
        ratio = geom.gap_width(zs) / np.abs(zs) ** (1 + GAMMA)
        assert 1.0 <= ratio.min() and ratio.max() <= 4.0


def test_profile_gradient_matches_finite_differences():
    geom = GapGeometry(EPS, GAMMA, c_top=0.7, c_bottom=-0.4)
    pts = np.linspace(0.05, 0.95, 40)
    pts = np.concatenate([pts, -pts])
    h = 1e-7
    plus, minus = geom.profiles(pts + h), geom.profiles(pts - h)
    for slope, hp, hm in zip(geom.profiles(pts, gradient=True)[2:], plus, minus):
        fd = (hp - hm) / (2 * h)
        assert np.max(np.abs(fd - slope) / np.abs(slope)) < 1e-6


def test_slopes_vanish_at_the_origin():
    h_top, h_bot, d_top, d_bot = GapGeometry(EPS, GAMMA).profiles(np.zeros(3), gradient=True)
    for a in (h_top, h_bot, d_top, d_bot):
        assert np.array_equal(a, np.zeros(3))
    # a float gives floats, the values of a one-point batch
    geom = GapGeometry(EPS, GAMMA, c_top=1.0, c_bottom=-0.5)
    assert geom.profiles(0.0, gradient=True) == (0.0, 0.0, 0.0, 0.0)
    for x in (-0.7, 0.3):
        got, want = geom.profiles(x, gradient=True), geom.profiles(np.array([x]), gradient=True)
        assert all(type(a) is float for a in got)
        assert np.allclose(got, np.concatenate(want), rtol=1e-15, atol=0)


def test_validate_is_exact_at_the_rim():
    # boundaries that cross only beyond |x'| = 0.885 (the sampled check of
    # one point passed them); the width is least at |x'| = 1
    crossing = GapGeometry(EPS, GAMMA, c_top=-0.006, c_bottom=0.006)
    assert crossing.least_width() == pytest.approx(EPS - 0.012, rel=1e-12)
    with pytest.raises(GeometryError, match="boundaries cross: least gap width -0.002"):
        crossing.validate()
    opening = GapGeometry(EPS, GAMMA, c_top=-0.004, c_bottom=0.004)
    assert opening.least_width() == pytest.approx(EPS - 0.008, rel=1e-12)
    opening.validate()
    assert GapGeometry(EPS, GAMMA).least_width() == EPS
    assert GapGeometry(EPS, GAMMA).least_width(0.5) == EPS


def test_region_refuses_a_slab_leaving_the_unit_ball(geom):
    with pytest.raises(GeometryError, match="the slab of radius 0.5 at z' = 0.6 leaves the "
                                            "unit ball"):
        LocalRegion(np.array([0.6, 0.0]), 0.5, geom)
    with pytest.raises(GeometryError, match="the slab of radius 1.5 at z' = 0 leaves"):
        LocalRegion(np.zeros(2), 1.5, geom)
    LocalRegion(np.array([-0.5, 0.0]), 0.5, geom)       # touching the rim is allowed


unit = st.floats(0.01, 0.99)
amplitude = st.floats(-2.0, 2.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(eps=unit, gamma=unit, c_top=amplitude, c_bottom=amplitude)
def test_power_law_profiles_properties(eps, gamma, c_top, c_bottom):
    geom = GapGeometry(eps, gamma, c_top, c_bottom)
    # slopes against central differences of the heights, away from the kink
    t = np.concatenate([np.linspace(0.05, 0.95, 19), -np.linspace(0.05, 0.95, 19)])
    h = 1e-6
    plus, minus = geom.profiles(t + h), geom.profiles(t - h)
    env = np.abs(t) ** gamma
    for c, slope, hp, hm in zip((c_top, c_bottom), geom.profiles(t, gradient=True)[2:],
                                plus, minus):
        fd = (hp - hm) / (2 * h)
        assert np.all(np.abs(fd - slope) <= 1e-6 * np.abs(slope) + 1e-9)
        # |h'| = (1 + gamma) |c| |x'|^gamma lies in the [kappa0, kappa1] envelope
        assert np.all(np.abs(slope) >= geom.kappa0 * env * (1 - 1e-12))
        assert np.all(np.abs(slope) <= geom.kappa1 * env * (1 + 1e-12))
        assert np.allclose(np.abs(slope), (1 + gamma) * abs(c) * env, rtol=1e-12, atol=0)
    # the least width on |x'| <= 1 is the minimum over a fine grid
    grid = np.linspace(-1.0, 1.0, 2001)
    h_top, h_bot = geom.profiles(grid)
    widths = (eps + h_top) - h_bot
    assert geom.least_width() == pytest.approx(widths.min(), rel=1e-12, abs=1e-15)
    closed = eps + (c_top - c_bottom) * np.abs(grid) ** (1 + gamma)
    assert np.allclose(widths, closed, rtol=1e-12, atol=1e-15)
    if geom.least_width() > 0:
        assert np.allclose(geom.gap_width(grid), closed, rtol=1e-12, atol=1e-15)
    else:
        with pytest.raises(GeometryError, match="boundaries cross"):
            geom.gap_width(grid)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(GeometryError):
        GapGeometry(-1.0, GAMMA)
    with pytest.raises(GeometryError):
        GapGeometry(EPS, 1.5)
    with pytest.raises(GeometryError):
        GapGeometry(EPS, 0.0)


@pytest.mark.parametrize("xp", [np.zeros((3, 1)), np.zeros((3, 2))], ids=["rows", "points"])
def test_tangential_coordinates_of_more_axes_are_refused(xp):
    # x' is a float or shape (k,): rows of one coordinate and full points raise
    geom = GapGeometry(0.1, 0.5)
    for method in (geom.gap_width, geom.top, geom.bottom, geom.midline, geom.profiles):
        with pytest.raises(GeometryError, match="shape"):
            method(xp)


def test_float_and_array_tangential_coordinates_agree():
    geom = GapGeometry(0.1, 0.5)
    xp = np.array([0.0, 0.25, -0.5])
    for method in (geom.gap_width, geom.top, geom.bottom, geom.midline):
        batch = method(xp)
        assert batch.shape == (3,)
        for t, b in zip(xp, batch):
            assert isinstance(method(float(t)), float)
            assert method(float(t)) == pytest.approx(b, rel=1e-15)
    assert geom.boundary_point("top", xp).shape == (3, 2)
    assert geom.boundary_point("top", 0.25).shape == (2,)
