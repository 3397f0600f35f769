import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thingap.geometry import GapGeometry
from thingap.mesh import (MAX_STATIONS, Mesh, MeshError, TAG_BOTTOM, TAG_INTERIOR,
                          TAG_LATERAL_LEFT, TAG_NAMES, TAG_TOP, centroid_x, generate, grade,
                          refine, with_midpoints)
from thingap.verify import SweepPlan

EPS = 1e-1
GAMMA = 0.5


@pytest.fixture
def geom():
    return GapGeometry(EPS, GAMMA)


def quality_mapped(mesh, aspect, dxmax):
    """Triangle quality 2*inradius/longest-edge in the intended-scale frame.

    Each triangle is normalized by the local intended element size (graded
    tangential spacing ``min(aspect * width, dxmax)``, fiber height / layers),
    which removes the deliberate anisotropy.
    """
    c = mesh.centroids()
    w = mesh.geom.gap_width(c[:, 0])
    sx = np.minimum(aspect * w, dxmax)
    sy = w / mesh.layers
    p = mesh.vertices[mesh.triangles] / np.stack([sx, sy], axis=1)[:, None, :]
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
    lens = np.linalg.norm(e, axis=2)
    area = 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    inradius = 2.0 * area / lens.sum(axis=1)
    return 2.0 * inradius / lens.max(axis=1)


def strip_area(geom, xrange, n_quad=20001):
    """Reference area of the strip, fine trapezoid quadrature of the gap width."""
    xs = np.linspace(-xrange, xrange, n_quad)
    return float(np.trapezoid(geom.gap_width(xs), dx=2 * xrange / (n_quad - 1)))


def test_flat_rectangle_triangle_count():
    geom = GapGeometry(0.2, 0.5, 0.0, 0.0)
    mesh = generate(geom, grade(geom, 10.0, 0.25, 1.0), 5)
    intervals = mesh.stations.size - 1
    assert mesh.num_triangles == 2 * intervals * 5
    assert mesh.num_vertices == mesh.stations.size * 6
    mesh.validate()


def test_gap_mesh_invariants(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.02, 1.0), 8)
    mesh.validate()
    assert np.all(mesh.areas() > 0)
    # boundary rows sit on the exact graphs
    top = mesh.vertex_tags == TAG_TOP
    want = geom.top(mesh.vertices[top, 0])
    assert np.max(np.abs(mesh.vertices[top, 1] - want)) < 1e-15


def test_validate_checks_the_layered_numbering(geom):
    # the same triangles in another order pass every other invariant, but the
    # band solver reads cells in generate's order, so validate refuses them
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    mesh.validate()
    broken = Mesh(vertices=mesh.vertices, triangles=mesh.triangles[::-1],
                  vertex_tags=mesh.vertex_tags, stations=mesh.stations,
                  layers=mesh.layers, geom=geom)
    with pytest.raises(MeshError, match="not the layered mesh of"):
        broken.validate()
    # a lateral vertex tagged interior, an interior vertex tagged lateral
    for vertex, tag in ((mesh.layers // 2, TAG_INTERIOR),
                        (3 * (mesh.layers + 1) + 2, TAG_LATERAL_LEFT)):
        tags = mesh.vertex_tags.copy()
        tags[vertex] = tag
        mistagged = Mesh(vertices=mesh.vertices, triangles=mesh.triangles, vertex_tags=tags,
                         stations=mesh.stations, layers=mesh.layers, geom=geom)
        with pytest.raises(MeshError, match="outer ring"):
            mistagged.validate()


def test_cell_splits_the_quads_conformingly(geom):
    # validate checks conformity through the numbering alone, so CELL must split
    # each quad so that every inner edge has two triangles and only the outer
    # ring's edges have one
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 6)
    tri = mesh.triangles
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    assert set(counts.tolist()) == {1, 2}
    outer = uniq[counts == 1]
    assert np.all(mesh.vertex_tags[outer] != TAG_INTERIOR)
    S, L = mesh.stations.size, mesh.layers
    assert outer.shape[0] == 2 * (S - 1) + 2 * L


@pytest.mark.parametrize("layers, energy", [(12, False), (12, True), (48, False)],
                         ids=["sweep", "energy", "layers48"])
def test_centroid_x_is_the_bits_of_the_centroids(layers, energy):
    # the energy pre-check reads centroid x' from the stations alone; they must
    # be Mesh.centroids()' first column, triangle by triangle
    _, _, system = SweepPlan(mesh_layers=layers).problem(1e-3, energy=energy)
    mesh = system.mesh
    assert np.array_equal(centroid_x(mesh.stations, mesh.layers), mesh.centroids()[:, 0])


def test_grading_refines_near_neck():
    # small gap so that the aspect rule (not the dxmax cap) sets the spacing
    eps = 1e-3
    g = GapGeometry(eps, GAMMA)
    neck = eps ** (1 / (1 + GAMMA))
    coarse = generate(g, grade(g, 1.0, 0.02, 0.5), 4)
    fine = generate(g, grade(g, 0.5, 0.02, 0.5), 4)
    n_coarse = int(np.sum(np.abs(coarse.stations) < neck))
    n_fine = int(np.sum(np.abs(fine.stations) < neck))
    assert n_fine >= 2 * n_coarse - 2


def test_refine_quadruples_and_projects(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 4)
    fine = refine(mesh)
    assert fine.num_triangles == 4 * mesh.num_triangles
    fine.validate()
    top = fine.vertex_tags == TAG_TOP
    want = geom.top(fine.vertices[top, 0])
    assert np.max(np.abs(fine.vertices[top, 1] - want)) < 1e-15
    bot = fine.vertex_tags == TAG_BOTTOM
    want = geom.bottom(fine.vertices[bot, 0])
    assert np.max(np.abs(fine.vertices[bot, 1] - want)) < 1e-15


def test_directional_refinements_compose_to_the_uniform_one(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 4)
    s = mesh.stations
    mid = with_midpoints(s)
    assert mid.size == 2 * s.size - 1
    assert np.array_equal(mid[0::2], s) and np.all((s[:-1] < mid[1::2]) & (mid[1::2] < s[1:]))
    stations, layers = generate(geom, mid, 4), generate(geom, s, 8)
    for level in (stations, layers):
        level.validate()
    # refine is both steps in either order, bit for bit
    want = refine(mesh)
    assert want.layers == 8
    for fine in (generate(geom, with_midpoints(layers.stations), 8),
                 generate(geom, stations.stations, 2 * stations.layers)):
        for name in ("vertices", "triangles", "vertex_tags", "stations"):
            assert np.array_equal(getattr(fine, name), getattr(want, name)), name


def test_double_refine_places_vertices_on_exact_fibers(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.05, 0.5), 4)
    twice = refine(refine(mesh))
    s = mesh.stations
    quarters = np.concatenate([s[:-1, None] + np.arange(4) / 4 * np.diff(s)[:, None],
                               s[-1:, None]], axis=None)
    assert np.allclose(twice.stations, quarters, rtol=0, atol=1e-15)
    assert twice.layers == 16
    # every row is the exact fiber at its station, not an interpolated one
    x = twice.stations
    want = geom.bottom(x)[:, None] + geom.gap_width(x)[:, None] * np.arange(17) / 16
    assert np.max(np.abs(twice.vertices[:, 1] - want.ravel())) < 1e-15


@pytest.mark.parametrize("layers", [4, 7])
def test_triangles_follow_the_cell_formula(geom, layers):
    # Mesh docstring: vertex (s, j) is s * (layers + 1) + j; cell (i, j) has
    # triangles (i * layers + j) * 2 and + 1 with corners a, b, c and a, c, d
    mesh = generate(geom, grade(geom, 2.0, 0.1, 0.5), layers)

    def v(s, j):
        return s * (layers + 1) + j

    want = []
    for i in range(mesh.stations.size - 1):
        for j in range(layers):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            want += [(a, b, c), (a, c, d)]
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.triangles, np.array(want))


def test_generate_rejects_bad_parameters(geom):
    with pytest.raises(MeshError, match="layers must be >= 4, got 3"):
        generate(geom, grade(geom, 2.0, 0.02, 1.0), 3)
    for aspect, dxmax, xrange in ((2.0, 0.02, 1.5), (2.0, 0.02, 0.0), (0.0, 0.02, 1.0),
                                  (2.0, -0.02, 1.0)):
        with pytest.raises(MeshError):
            grade(geom, aspect, dxmax, xrange)


def test_grade_refuses_crossing_boundaries_before_the_station_loop(monkeypatch):
    # the boundaries -+0.006|x'|^{3/2} off the 0.01 gap cross at |x'| = 0.885,
    # where the spacing aspect * width would shrink without reaching them
    crossing = GapGeometry(0.01, GAMMA, -0.006, 0.006)
    assert grade(crossing, 2.0, 0.02, 0.8)[-1] == 0.8

    def no_width(*args):
        raise AssertionError("station loop entered")

    monkeypatch.setattr(GapGeometry, "gap_width", no_width)
    with pytest.raises(MeshError, match=r"cross inside \|x'\| <= 1 \(least gap width -0.002\)"):
        grade(crossing, 2.0, 0.02, 1.0)


@pytest.mark.parametrize("aspect, dxmax", [(2.0, 1e-9), (1e-9, 0.02)])
def test_station_count_is_bounded_before_the_mesh_is_built(geom, aspect, dxmax):
    # grading raises, so no mesh is ever built on them
    with pytest.raises(MeshError, match=f"more than {MAX_STATIONS} stations"):
        grade(geom, aspect, dxmax, 1.0)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
def test_stations_are_the_gap_width_recurrence_bit_for_bit(gamma):
    # the station loop evaluates gap_width on Python floats; the recurrence on
    # 0-d arrays, through the same method, gives the same stations
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        geom = GapGeometry(eps, gamma)
        for aspect, dxmax in ((2.0, 0.02), (0.25, 0.02), (0.125, 0.0125)):
            right, x = [0.0], 0.0
            while True:
                dx = min(aspect * float(geom.gap_width(np.array(x))), dxmax)
                if x + dx >= 1.0 - 0.25 * dx:
                    right.append(1.0)
                    break
                x += dx
                right.append(x)
            right = np.array(right)
            want = np.concatenate([-right[:0:-1], right])
            assert np.array_equal(grade(geom, aspect, dxmax, 1.0), want)


def test_station_bound_admits_the_finest_grading_in_use():
    fine = GapGeometry(1e-6, GAMMA)
    stations = grade(fine, 1.0 / 32, 0.02, 1.0)
    assert 9_000 < stations.size <= MAX_STATIONS // 4


def test_mapped_quality_floor(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.02, 1.0), 8)
    q = quality_mapped(mesh, aspect=1.0, dxmax=0.02)
    assert float(np.min(q)) > 0.15


def test_total_area_matches_width_integral(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.02, 0.75), 8)
    got = float(np.sum(mesh.areas()))
    want = strip_area(geom, 0.75)
    assert got == pytest.approx(want, rel=5e-3)


def test_export_text_is_one_formatted_line_per_row(geom):
    # the bulk format writes the per-line f-strings, across the 4096-line blocks
    mesh = generate(geom, grade(geom, 1.0, 0.004, 0.75), 12)
    assert mesh.num_vertices > 4096 and mesh.num_triangles > 8192
    want = [f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}"]
    want += [f"{x:.17g} {y:.17g} {TAG_NAMES[int(tag)]}"
             for (x, y), tag in zip(mesh.vertices, mesh.vertex_tags)]
    want += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    assert mesh.export_text() == "\n".join(want) + "\n"


def test_export_roundtrip(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    text = mesh.export_text()
    lines = text.strip().split("\n")
    head = lines[0].split()
    assert head[0] == "vertices" and head[2] == "triangles"
    nv, nt = int(head[1]), int(head[3])
    assert nv == mesh.num_vertices and nt == mesh.num_triangles
    codes = {name: code for code, name in TAG_NAMES.items()}
    verts, tags, tris = [], [], []
    for ln in lines[1:1 + nv]:
        x, y, tag = ln.split()
        verts.append((float(x), float(y)))
        tags.append(codes[tag])
    for ln in lines[1 + nv:]:
        tris.append(tuple(int(t) for t in ln.split()))
    assert np.array_equal(np.array(verts), mesh.vertices)
    assert np.array_equal(np.array(tags), mesh.vertex_tags)
    assert np.array_equal(np.array(tris), mesh.triangles)
    assert set(TAG_NAMES[int(t)] for t in np.unique(mesh.vertex_tags)) >= {"top", "bottom"}


def test_locate_tie_break_is_lowest_index(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    # midpoint of a shared interior edge
    edges = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            edges.setdefault(key, []).append(t)
    shared = next(k for k, v in edges.items() if len(v) == 2)
    p = mesh.vertices[list(shared)].mean(axis=0)
    got = mesh.locate(p)
    assert got == min(edges[shared])


def test_locate_outside_raises(geom):
    mesh = generate(geom, grade(geom, 1.0, 0.1, 0.5), 4)
    with pytest.raises(MeshError):
        mesh.locate((0.7, 0.0))
    with pytest.raises(MeshError):
        mesh.locate((0.0, 1.0))


def _containing_by_scan(mesh, x, tol=1e-12):
    """Reference point location: barycentric scan of every triangle of the
    station intervals around ``x``; all containing indices, ascending."""
    s = mesh.stations
    k = int(np.searchsorted(s, x[0]))
    cand = []
    for i in (k - 2, k - 1, k):
        if 0 <= i < s.size - 1 and s[i] - tol <= x[0] <= s[i + 1] + tol:
            start = i * mesh.layers * 2
            cand.extend(range(start, start + mesh.layers * 2))
    cand = np.asarray(sorted(cand), dtype=int)
    p = mesh.vertices[mesh.triangles[cand]]
    v0 = p[:, 0]
    e1 = p[:, 1] - v0
    e2 = p[:, 2] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    r = x[np.newaxis, :] - v0
    l1 = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    scale = tol / np.sqrt(np.abs(det))
    return cand[(l1 >= -scale) & (l2 >= -scale) & (l1 + l2 <= 1.0 + scale)]


@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_locate_matches_barycentric_scan(eps):
    geom = GapGeometry(eps, GAMMA)
    mesh = generate(geom, grade(geom, 2.0, 0.05, 0.5), 6)
    tri = mesh.triangles
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                              tri[:, [2, 0]]]), axis=1), axis=0)
    rng = np.random.default_rng(5)
    t = rng.integers(0, mesh.num_triangles, 2000)
    w = rng.dirichlet(np.ones(3), 2000)
    interior = np.einsum("ka,kad->kd", w, mesh.vertices[tri[t]])
    pts = np.concatenate([mesh.vertices, mesh.vertices[edges].mean(axis=1), interior])
    hits = [_containing_by_scan(mesh, p) for p in pts]
    want = np.array([h[0] for h in hits])
    got = mesh.locate(pts)
    assert got.shape == (pts.shape[0],) and got.dtype.kind == "i"
    assert np.array_equal(got, want)
    # the tie-break is exercised: interior vertices lie in six triangles
    assert max(len(h) for h in hits) == 6
    assert all(mesh.locate(p) == w_ and isinstance(mesh.locate(p), int)
               for p, w_ in zip(pts[::97], want[::97]))


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(1e-6, 0.5),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       layers=st.integers(4, 16),
       seed=st.integers(0, 2**32 - 1))
def test_random_strip_points_locate_to_a_containing_triangle(eps, gamma, layers, seed):
    geom = GapGeometry(eps, gamma)
    mesh = generate(geom, grade(geom, 2.0, 0.05, 0.5), layers)
    rows = mesh.vertices[:, 1].reshape(mesh.stations.size, layers + 1)
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-0.5, 0.5, 300), mesh.stations[::7]])
    u = np.concatenate([rng.uniform(0.0, 1.0, 200), np.zeros(50), np.ones(50),
                        rng.uniform(0.0, 1.0, x.size - 300)])
    bottom = np.interp(x, mesh.stations, rows[:, 0])
    top = np.interp(x, mesh.stations, rows[:, -1])
    pts = np.stack([x, bottom + u * (top - bottom)], axis=1)
    p = mesh.vertices[mesh.triangles[mesh.locate(pts)]]
    e1, e2, r = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], pts - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    slack = 1e-9
    assert np.all((l1 >= -slack) & (l2 >= -slack) & (l1 + l2 <= 1.0 + slack))
