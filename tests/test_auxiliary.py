import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thingap.auxiliary import (BoundaryData, ConfigurationError, _slab_width_comparable,
                               check_seminorm_growth, field_gradients, field_values, gap_fraction,
                               gap_fraction_gradient, holder_seminorm, seminorm_growth_rhs)
from thingap.geometry import GapGeometry, GeometryError, LocalRegion

EPS = 1e-2
GAMMA = 0.5


@pytest.fixture
def geom():
    return GapGeometry(EPS, GAMMA)


@pytest.fixture
def jump_data():
    return BoundaryData.constant([1.0, 0.0], [0.0, 0.0])


def interior_samples(geom, k, seed=0, tmin=0.2, tmax=0.8, xmax=0.9):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-xmax, xmax, size=k)
    t = rng.uniform(tmin, tmax, size=k)
    bot = geom.bottom(xp)
    top = geom.top(xp)
    return np.stack([xp, bot + t * (top - bot)], axis=1)


# ---------------------------------------------------------------------------
# the scalar crossing profile
# ---------------------------------------------------------------------------

def test_gap_fraction_boundary_values(geom):
    xp = np.linspace(-1, 1, 101)
    top = geom.boundary_point("top", xp)
    bot = geom.boundary_point("bottom", xp)
    assert np.max(np.abs(gap_fraction(geom, top) - 1.0)) < 1e-12
    assert np.max(np.abs(gap_fraction(geom, bot))) < 1e-12


def test_gap_fraction_midpoint(geom):
    assert gap_fraction(geom, np.array([0.0, 0.0])) == pytest.approx(0.5, abs=0)


def test_gap_fraction_matches_recomputation(geom):
    X = interior_samples(geom, 300, seed=1)
    got = gap_fraction(geom, X)
    xp = X[:, 0]
    num = X[:, 1] - (geom.profiles(xp)[1] - EPS / 2)
    want = num / geom.gap_width(xp)
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    assert np.all((got > 0) & (got < 1))


def test_gap_fraction_domain_error(geom):
    with pytest.raises(GeometryError):
        gap_fraction(geom, np.array([0.0, EPS]))


def test_vertical_derivative_is_exactly_inverse_width(geom):
    X = interior_samples(geom, 1000, seed=2)
    g = gap_fraction_gradient(geom, X)
    want = 1.0 / geom.gap_width(X[:, 0])
    assert np.array_equal(g[:, 1], want)                # identity, not approximation


def test_tangential_gradient_vanishes_at_origin(geom):
    g = gap_fraction_gradient(geom, np.array([0.0, 0.001]))
    assert g[0] == 0.0


def test_tangential_gradient_envelope_constant_stable():
    # |d_x profile| <= C |x'|^gamma / (eps + |x'|^{1+gamma}) with one C per sweep
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        geom = GapGeometry(eps, GAMMA)
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
    h = 1e-7 * geom.gap_width(X[:, 0])
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
    data = jump_data.only(0)
    xp = np.linspace(-0.9, 0.9, 41)
    top = geom.boundary_point("top", xp)
    bot = geom.boundary_point("bottom", xp)
    vt = field_values(geom, data, top)
    vb = field_values(geom, data, bot)
    assert np.max(np.abs(vt - jump_data.phi(xp))) < 1e-12
    assert np.max(np.abs(vb - jump_data.psi(xp))) < 1e-12


def test_extension_reduces_to_profile_for_unit_jump(geom):
    data = BoundaryData.constant([1.0], [0.0])
    X = interior_samples(geom, 200, seed=5)
    vals = field_values(geom, data, X)
    assert np.allclose(vals[:, 0], gap_fraction(geom, X), atol=0)


def test_extension_off_component_is_zero(geom):
    data = BoundaryData.constant([1.0, 0.7], [0.0, -0.3]).only(0)
    X = interior_samples(geom, 50, seed=6)
    vals = field_values(geom, data, X)
    assert not np.any(vals[:, 1])
    grads = field_gradients(geom, data, X)
    assert not np.any(grads[:, 1, :])


def test_extension_vertical_derivative_values(geom, jump_data):
    g = field_gradients(geom, jump_data, np.array([0.0, 0.0]))
    assert g[0, 1] == pytest.approx(1.0 / EPS, rel=1e-14)
    equal = BoundaryData.constant([2.0, 0.5], [2.0, 0.5])
    g2 = field_gradients(geom, equal, np.array([0.0, 0.0]))
    assert np.max(np.abs(g2[:, 1])) == 0.0


@pytest.mark.parametrize("make_data", [
    lambda geom: BoundaryData.constant([1.0, 0.0], [0.0, 0.0]),
    lambda geom: BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2]],
                                         [[0.0], [0.0, -0.3]], geom),
])
def test_extension_gradient_matches_finite_differences(geom, make_data):
    data = make_data(geom)
    X = interior_samples(geom, 1000, seed=7)
    g = field_gradients(geom, data, X)
    h = (1e-7 * geom.gap_width(X[:, 0]))[:, None]
    worst = 0.0
    for d in range(2):
        step = np.zeros_like(X)
        step[:, d] = h[:, 0]
        fd = (field_values(geom, data, X + step)
              - field_values(geom, data, X - step)) / (2 * h)
        scale = np.maximum(np.linalg.norm(g, axis=(1, 2)), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, :, d]) / scale[:, None])))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# one geometry pass per batch
# ---------------------------------------------------------------------------

@pytest.fixture
def skew_geom():
    # asymmetric amplitudes, so the three tangential terms of the gap-fraction
    # gradient differ; the width EPS + 1.1 |x'|^{1+gamma} stays positive
    return GapGeometry(EPS, GAMMA, c_top=0.7, c_bottom=-0.4)


def test_fiber_pass_matches_the_separate_formulas(skew_geom):
    # the formulas each function used before the shared pass, written out
    geom = skew_geom
    X = interior_samples(geom, 500, seed=8, tmin=0.0, tmax=1.0, xmax=1.0)
    data = BoundaryData.polynomial([[1.0, 0.5, -0.3], [0.2, 0.0, 1.0]],
                                   [[0.1, -0.2], [0.0, 0.4]], geom)
    xp, xn = X[:, 0], X[:, 1]
    ht, hb, dtop, dbot = geom.profiles(xp, gradient=True)
    top, bot = 0.5 * EPS + ht, -0.5 * EPS + hb
    u = (xn - bot) / (top - bot)
    w = EPS + ht - hb
    dw = dtop - dbot
    offset = hb - 0.5 * EPS
    tang = -dbot / w - xn * dw / w**2 + offset * dw / w**2
    assert np.all(np.abs(dtop + dbot) > 0)      # the three terms differ
    gu = np.stack([tang, 1.0 / w], axis=1)
    pv, sv = data.phi(xp), data.psi(xp)
    dp, ds = data.dphi(xp), data.dpsi(xp)
    jump = pv - sv
    grads = np.empty((X.shape[0], 2, 2))
    grads[:, :, :1] = (dp[:, :, None] * u[:, None, None]
                       + ds[:, :, None] * (1.0 - u[:, None, None])
                       + jump[:, :, None] * gu[:, None, :1])
    grads[:, :, 1] = jump * gu[:, 1][:, None]
    assert np.array_equal(gap_fraction(geom, X), u)
    assert np.array_equal(gap_fraction_gradient(geom, X), gu)
    assert np.array_equal(field_values(geom, data, X), pv * u[:, None] + sv * (1.0 - u[:, None]))
    assert np.array_equal(field_gradients(geom, data, X), grads)
    assert np.array_equal(gu[:, 1], 1.0 / geom.gap_width(xp))


@pytest.mark.parametrize("fn", [
    lambda geom, X: gap_fraction(geom, X),
    lambda geom, X: gap_fraction_gradient(geom, X),
    lambda geom, X: field_values(geom, BoundaryData.constant([1.0], [0.0]), X),
    lambda geom, X: field_gradients(geom, BoundaryData.constant([1.0], [0.0]), X),
], ids=["gap_fraction", "gap_fraction_gradient", "field_values", "field_gradients"])
def test_fiber_pass_raises_outside_its_domain(skew_geom, fn):
    with pytest.raises(GeometryError, match="outside the unit tangential ball"):
        fn(skew_geom, np.array([[0.2, 0.0], [1.5, 0.0]]))
    with pytest.raises(GeometryError, match="outside the closure"):
        fn(skew_geom, np.array([[0.2, 0.0], [0.0, EPS]]))
    crossing = GapGeometry(EPS, GAMMA, c_top=-1.0, c_bottom=0.0)
    with pytest.raises(GeometryError, match="boundaries cross"):
        fn(crossing, np.array([[0.0, 0.0], [0.5, 0.0]]))


def test_profiles_are_evaluated_once_per_batch(skew_geom, monkeypatch):
    geom = skew_geom
    data = BoundaryData.constant([1.0, 0.0], [0.0, 0.0]).only(0)
    X, region = interior_samples(geom, 300, seed=9), region_at(geom, 0.1)
    calls = collections.Counter()       # profile passes, keyed by ``gradient``
    exact = GapGeometry.profiles

    def counting(self, xp, gradient=False):
        calls[gradient] += 1
        return exact(self, xp, gradient)

    monkeypatch.setattr(GapGeometry, "profiles", counting)
    field_gradients(geom, data, X)
    assert calls == {True: 1}
    # five slab samples and three membership tests take one pass each, and the
    # field one more, the only one with slopes: 8 + 1 passes (23 + 3 profile
    # evaluations per side before the shared pass)
    calls.clear()
    f = lambda X: field_gradients(geom, data, X).reshape(X.shape[0], -1)
    holder_seminorm(f, region, GAMMA, pairs=2000, seed=0)
    assert calls == {False: 8, True: 1}


# ---------------------------------------------------------------------------
# sampled Holder seminorm
# ---------------------------------------------------------------------------

def region_at(geom, zp, frac=0.5):
    return LocalRegion(np.array([zp, geom.midline(zp)]), frac * geom.gap_width(zp), geom)


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
        b = geom.bottom(x)
        t = geom.top(x)
        for y in np.linspace(b + 1e-9, t - 1e-9, 50):
            grid.append((x, y))
    G = np.array(grid)
    d = np.linalg.norm(G[:, None, :] - G[None, :, :], axis=2)
    dv = np.abs(G[:, None, 1] - G[None, :, 1])
    mask = d > 0
    dense = float(np.max(dv[mask] / d[mask] ** GAMMA))
    # tallest fiber in the slab sits at its edge
    height = geom.gap_width(reg.radius)
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
    data = BoundaryData.constant([1.0], [0.0])
    f = lambda X: field_gradients(geom, data, X).reshape(X.shape[0], -1)
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
    s = EPS / 2
    got = seminorm_growth_rhs(geom, jump_data.only(0), 0.0, s)
    p = 1.0 / (1.0 + GAMMA)
    jump = 1.0
    norms = 1.0      # |phi| = 1 constant, |psi| = 0
    want = (jump * (EPS ** (-1 - p) * s ** (1 - GAMMA) + EPS ** (-GAMMA - p))
            + norms * (EPS ** (-1 - p) * s ** (2 - GAMMA) + EPS ** (-1) * s ** (1 - GAMMA)
                       + EPS ** (-GAMMA - p) * s + EPS ** (-GAMMA)))
    assert got == pytest.approx(want, rel=1e-14)


def test_growth_check_equal_data_trivially_passes(geom):
    data = BoundaryData.constant([2.0, 0.0], [2.0, 0.0]).only(0)
    rep = check_seminorm_growth(geom, data, np.array([0.0, 0.0]), pairs=500, seed=0)
    for row in rep.rows:
        assert row.lhs == 0.0
    assert rep.fitted_constant == 0.0


def test_growth_check_constant_stable_across_sweep(jump_data):
    consts = []
    for eps in (1e-1, 1e-2, 1e-3):
        geom = GapGeometry(eps, GAMMA)
        rep = check_seminorm_growth(geom, jump_data.only(0), np.array([0.0, 0.0]),
                                    pairs=2000, seed=1)
        assert np.isfinite(rep.fitted_constant)
        consts.append(rep.fitted_constant)
    assert max(consts) / min(consts) < 3.0


def test_growth_check_flags_slabs_reaching_the_neck(jump_data):
    # a full-width slab centered far out reaches the neck, where the bound's
    # comparability hypothesis fails and the quotient grows like 1/eps
    geom = GapGeometry(1e-3, GAMMA)
    zp = 0.25
    rep = check_seminorm_growth(geom, jump_data.only(0),
                                np.array([zp, geom.midline(zp)]),
                                pairs=2000, seed=2)
    assert rep.rows[0].hypothesis_ok
    assert not rep.rows[2].hypothesis_ok
    assert rep.rows[2].ratio > 10.0                     # excluded for good reason
    assert rep.fitted_constant == rep.rows[0].ratio


# ---------------------------------------------------------------------------
# boundary data plumbing
# ---------------------------------------------------------------------------

def same_bits(a, b):
    """Equal arrays, sign of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(np.signbit(a), np.signbit(b)) \
        and np.array_equal(a, b)


def test_boundary_data_jump(geom, skew_geom):
    data = BoundaryData.polynomial([[1.0, 0.0, 1.0]], [[0.5]], geom)
    j = data.jump(np.array([0.2]))
    assert j[0, 0] == pytest.approx(1.0 + 0.04 - 0.5, rel=1e-12)
    # the data depend on x' alone: the jump needs no boundary points
    data = BoundaryData.polynomial([[1.0, 0.5, -0.3], [0.2, 0.0, 1.0]],
                                   [[0.1, -0.2], [0.0, 0.4]], skew_geom)
    xp = np.linspace(-1.0, 1.0, 41)
    top, bot = (skew_geom.boundary_point(side, xp) for side in ("top", "bottom"))
    assert same_bits(data.jump(xp), data.phi(top[:, 0]) - data.psi(bot[:, 0]))


def poly_loop(row, t):
    """One component's value and slope summed term by term, the reference the
    evaluation over all components must equal."""
    value = sum(c * t**k for k, c in enumerate(row))
    slope = sum(k * c * t ** (k - 1) for k, c in enumerate(row) if k >= 1)
    return np.broadcast_to(value, t.shape), np.broadcast_to(slope, t.shape)


@st.composite
def coefficient_rows(draw):
    """phi and psi coefficient lists of degree 0-4 for 1-3 components."""
    m = draw(st.integers(1, 3))
    rows = st.lists(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
                    min_size=m, max_size=m)
    return draw(rows), draw(rows)


@settings(max_examples=40, deadline=None)
@given(rows=coefficient_rows())
def test_polynomial_data_derivatives_only_and_degree_zero(rows):
    phi, psi = rows
    geom = GapGeometry(EPS, GAMMA)
    data = BoundaryData.polynomial(phi, psi, geom)
    xp = np.linspace(-0.9, 0.9, 37)
    # (a) the values and derivatives are the term-by-term sums, and the
    # derivatives are those of the values along the graphs
    for side_rows, values, slopes in ((phi, data.phi(xp), data.dphi(xp)),
                                      (psi, data.psi(xp), data.dpsi(xp))):
        for ell, row in enumerate(side_rows):
            value, slope = poly_loop(row, xp)
            assert np.array_equal(values[:, ell], value)
            assert np.array_equal(slopes[:, ell], slope)
    h = 1e-6
    for rule, drule in ((data.phi, data.dphi), (data.psi, data.dpsi)):
        fd = (rule(xp + h) - rule(xp - h)) / (2 * h)
        want = drule(xp)
        assert drule(xp).shape == (xp.shape[0], data.m)
        assert np.all(np.abs(fd - want) <= 1e-6 * np.maximum(np.abs(want), 1.0))
    # (b) only(ell) keeps component ell bit for bit and gives +0.0 elsewhere
    constant = BoundaryData.constant([r[0] for r in phi], [r[0] for r in psi])
    for full in (data, constant):
        for ell in range(full.m):
            one = full.only(ell)
            for name in ("phi", "psi", "dphi", "dpsi", "phi_norms", "psi_norms"):
                a, b = (getattr(d, name) for d in (full, one))
                a, b = (a(xp), b(xp)) if callable(a) else (a, b)
                assert same_bits(b[..., ell], a[..., ell])
                others = np.delete(b, ell, axis=-1)
                assert np.all(others == 0.0) and not np.any(np.signbit(others))
    # (c) degree-0 polynomial data are constant data
    poly0 = BoundaryData.polynomial([r[:1] for r in phi], [r[:1] for r in psi], geom)
    for name in ("phi", "psi", "dphi", "dpsi"):
        assert same_bits(getattr(poly0, name)(xp), getattr(constant, name)(xp))
    for name in ("phi_norms", "psi_norms"):
        assert same_bits(getattr(poly0, name), getattr(constant, name))
    X = interior_samples(geom, 50, seed=10)
    assert same_bits(field_gradients(geom, poly0, X), field_gradients(geom, constant, X))


def test_constant_data_norms():
    data = BoundaryData.constant([1.0, -2.0], [0.5, 0.0])
    assert np.allclose(data.phi_norms, [1.0, 2.0])
    assert np.allclose(data.psi_norms, [0.5, 0.0])


@pytest.mark.parametrize("ell", [2, -1])
def test_only_rejects_components_out_of_range(jump_data, ell):
    with pytest.raises(ConfigurationError, match="out of range for m = 2"):
        jump_data.only(ell)


@pytest.mark.parametrize("make_data, sloped", [
    (lambda geom: BoundaryData.constant([1.0, -0.7], [0.5, 0.3]), False),
    (lambda geom: BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2, -1.0]],
                                          [[0.0, 2.0], [0.1, -0.3, 0.4]], geom), True),
], ids=["constant", "polynomial"])
def test_only_zeroes_the_other_components(geom, make_data, sloped):
    data = make_data(geom)
    one = data.only(0)
    assert one.m == data.m
    xp = np.linspace(-0.9, 0.9, 37)
    for rule, drule in (("phi", "dphi"), ("psi", "dpsi")):
        for name in (rule, drule):
            full = np.asarray(getattr(data, name)(xp))
            got = getattr(one, name)(xp)
            assert np.array_equal(got[..., 0], full[..., 0])
            assert np.any(full[..., 1]) or (name == drule and not sloped)
            assert np.all(got[..., 1] == 0.0) and not np.any(np.signbit(got[..., 1]))
    for name in ("phi_norms", "psi_norms"):
        full, got = getattr(data, name), getattr(one, name)
        assert got[0] == full[0] and full[1] > 0
        assert got[1] == 0.0 and not np.signbit(got[1])


def test_slab_comparability_is_the_dense_sampled_one():
    # the width is monotone in |x'|, so two points decide; a dense sweep of
    # each slab (with x' = 0 added where the slab spans it) must agree
    rng = np.random.default_rng(3)
    outcomes = collections.Counter()
    for c_top, c_bottom in ((1.0, -1.0), (0.5, 0.0), (-0.004, 0.004), (0.0, 0.003)):
        geom = GapGeometry(EPS, rng.uniform(0.1, 0.9), c_top, c_bottom)
        for _ in range(100):
            z0 = rng.uniform(-0.95, 0.95)
            s = rng.uniform(1e-3, 1.0 - abs(z0))
            xs = np.linspace(z0 - s, z0 + s, 20001)
            if abs(z0) < s:
                xs = np.append(xs, 0.0)
            dense = bool(np.min(geom.gap_width(xs)) >= 0.5 * geom.gap_width(z0))
            assert _slab_width_comparable(geom, z0, s) == dense, (c_top, c_bottom, z0, s)
            outcomes[dense, abs(z0) < s] += 1
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}


def test_boundary_data_refuse_full_points(geom):
    # phi and psi read x' only: full points (k, 2) are refused, not broadcast
    # into 2k rows
    data = BoundaryData.constant([1.0], [0.0])
    for rule in (data.phi, data.psi, data.jump, data.dphi, data.dpsi):
        with pytest.raises(GeometryError, match="shape"):
            rule(np.zeros((3, 2)))
    with pytest.raises(GeometryError, match="shape"):
        data.phi(np.zeros((3, 1)))


def test_boundary_data_shapes(geom):
    # (k, m) at x' of shape (k,), (m,) at a float, for values and derivatives
    data = BoundaryData.polynomial([[1.0, 0.5, 1.0], [0.2]], [[0.0], [0.1, -0.3]], geom)
    xp = np.linspace(-0.5, 0.5, 5)
    for name in ("phi", "psi", "jump", "dphi", "dpsi"):
        rule = getattr(data, name)
        assert rule(xp).shape == (5, 2), name
        assert np.array_equal(rule(0.25), rule(np.array([0.25]))[0]), name
    assert np.array_equal(data.dphi(xp)[:, 0], 0.5 + 2.0 * xp)
