"""Anisotropic structured triangulation of the 2-D narrow region.

The mesh is layered: tangential stations are graded so that the spacing
near the neck is proportional to the local gap width, and every station
carries the same number of vertical cells spanning the exact fiber between
the two boundary graphs.  Each quad is split into two triangles.  Vertices
sit exactly on their fiber, so refinement re-places vertices on the exact
graphs instead of interpolating the polygonal boundary.

Every mesh is ``generate(geom, stations, layers)`` on stations that
:func:`grade` places, refined ones too: :func:`refine` is midpoint stations
and doubled layers.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .geometry import GapGeometry


class MeshError(ValueError):
    """Raised for invalid meshing parameters or broken mesh invariants."""


TAG_INTERIOR = 0
TAG_TOP = 1
TAG_BOTTOM = 2
TAG_LATERAL_LEFT = 3
TAG_LATERAL_RIGHT = 4

TAG_NAMES = {
    TAG_INTERIOR: "interior",
    TAG_TOP: "top",
    TAG_BOTTOM: "bottom",
    TAG_LATERAL_LEFT: "lateral_left",
    TAG_LATERAL_RIGHT: "lateral_right",
}

# barycentric slack of point location, relative to the triangle's size
LOCATE_TOL = 1e-12

# most stations a strip may have: the default meshes have at most a few
# hundred, epsilon = 1e-6 at aspect 1/32 about ten thousand; far beyond that
# the grading values are mistakes, and the station loop would run for hours
MAX_STATIONS = 50_000


@dataclass
class Mesh:
    """Structured layered triangulation.

    ``vertices`` is (N, 2), ``triangles`` (T, 3) with positive orientation,
    ``vertex_tags`` (N,) with the TAG_* codes.  ``stations`` and ``layers``
    record the generating structure: vertex ``(s, j)`` has flat index
    ``s * (layers + 1) + j``; the two triangles of cell ``(interval i,
    layer j)`` have indices ``(i * layers + j) * 2`` and ``+ 1``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_tags: np.ndarray
    stations: np.ndarray
    layers: int
    geom: GapGeometry

    def __post_init__(self):
        for a in (self.vertices, self.triangles, self.vertex_tags, self.stations):
            a.setflags(write=False)
        self._centroids = None

    # -- derived quantities --------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self, triangles=slice(None)) -> np.ndarray:
        """Areas of ``triangles`` (default all), formed for those triangles only,
        from the determinant :func:`p1_gradients` forms, without the gradients."""
        return np.abs(0.5 * _edges(*self.vertex_rows(triangles))[4])

    def centroids(self) -> np.ndarray:
        """Corner means (T, 2), summed corner by corner: the bits of ``.mean(axis=1)``
        over the (T, 3, 2) corner gather, without forming it."""
        if self._centroids is None:
            c0, c1, c2 = self.vertices[self.triangles.T]
            self._centroids = (c0 + c1 + c2) / 3
            self._centroids.setflags(write=False)
        return self._centroids

    def vertex_rows(self, triangles=slice(None)) -> tuple:
        """Corner coordinates ``x``, ``y`` (3, t) of ``triangles`` (default all)."""
        corners = self.triangles[triangles].T
        return self.vertices[:, 0][corners], self.vertices[:, 1][corners]

    # -- point location --------------------------------------------------------

    def locate(self, x):
        """Index of the lowest-index triangle containing each point.

        ``x`` of shape (2,) gives an ``int``, shape (k, 2) an int array (k,).
        Containment uses barycentric coordinates with tolerance ``LOCATE_TOL``;
        points on shared edges and vertices therefore resolve to the lowest
        triangle index.  Raises :class:`MeshError` for points outside the mesh.

        The layered structure gives the cell directly: the station interval
        by bisection, the layer from the point's height above the
        interpolated bottom row as a fraction of the interpolated fiber.  A
        point on a cell's left side or bottom also lies in the cells one
        interval left and one layer down, which have lower indices; cells
        further right or up have higher ones.  So the eight triangles of
        those four cells, in ascending index order, are the candidates.
        """
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        s = self.stations
        L = self.layers
        outside = (pts[:, 0] < s[0] - LOCATE_TOL) | (pts[:, 0] > s[-1] + LOCATE_TOL)
        if np.any(outside):
            raise MeshError(f"point {pts[np.argmax(outside)]} outside the meshed strip")
        i = np.clip(np.searchsorted(s, pts[:, 0], side="right") - 1, 0, s.size - 2)
        rows = self.vertices[:, 1].reshape(s.size, L + 1)
        bottom, width = rows[:, 0], rows[:, L] - rows[:, 0]
        t = (pts[:, 0] - s[i]) / (s[i + 1] - s[i])
        b = bottom[i] + t * (bottom[i + 1] - bottom[i])
        w = width[i] + t * (width[i + 1] - width[i])
        j = np.clip(np.floor(L * (pts[:, 1] - b) / w), 0, L - 1).astype(np.int64)

        di = np.array([-1, -1, -1, -1, 0, 0, 0, 0])
        dj = np.array([-1, -1, 0, 0, -1, -1, 0, 0])
        ci, cj = i[:, None] + di, j[:, None] + dj
        valid = (ci >= 0) & (cj >= 0)
        cand = ((np.maximum(ci, 0) * L + np.maximum(cj, 0)) * 2 + np.arange(8) % 2)
        p = self.vertices[self.triangles[cand]]          # (k, 8, 3, 2)
        v0 = p[:, :, 0]
        e1 = p[:, :, 1] - v0
        e2 = p[:, :, 2] - v0
        det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
        r = pts[:, None, :] - v0
        l1 = (r[..., 0] * e2[..., 1] - r[..., 1] * e2[..., 0]) / det
        l2 = (e1[..., 0] * r[..., 1] - e1[..., 1] * r[..., 0]) / det
        scale = LOCATE_TOL / np.sqrt(np.abs(det))
        inside = valid & (l1 >= -scale) & (l2 >= -scale) & (l1 + l2 <= 1.0 + scale)
        found = inside.any(axis=1)
        if not np.all(found):
            raise MeshError(f"point {pts[np.argmin(found)]} not inside any candidate "
                            "triangle")
        hits = cand[np.arange(pts.shape[0]), np.argmax(inside, axis=1)]
        return int(hits[0]) if x.ndim == 1 else hits

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check orientation, closure membership, boundary placement, conformity."""
        sa = 0.5 * p1_gradients(*self.vertex_rows())[1]
        if np.any(sa <= 0):
            raise MeshError(f"{int(np.sum(sa <= 0))} triangles with nonpositive area")
        xp = self.vertices[:, 0]
        top = self.geom.top(xp)
        bot = self.geom.bottom(xp)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(self.vertices))))
        if np.any(self.vertices[:, 1] > top + tol) or np.any(self.vertices[:, 1] < bot - tol):
            raise MeshError("vertex outside the closure of the gap region")
        on_top = self.vertex_tags == TAG_TOP
        on_bot = self.vertex_tags == TAG_BOTTOM
        if np.any(np.abs(self.vertices[on_top, 1] - top[on_top]) > 1e-12):
            raise MeshError("top-tagged vertex off the upper graph")
        if np.any(np.abs(self.vertices[on_bot, 1] - bot[on_bot]) > 1e-12):
            raise MeshError("bottom-tagged vertex off the lower graph")
        edges = np.concatenate([self.triangles[:, [0, 1]], self.triangles[:, [1, 2]],
                                self.triangles[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        if np.any(counts > 2):
            raise MeshError("non-conforming mesh: edge shared by more than 2 triangles")
        boundary_edges = uniq[counts == 1]
        is_boundary_vertex = self.vertex_tags != TAG_INTERIOR
        if not np.all(is_boundary_vertex[boundary_edges]):
            raise MeshError("single-triangle edge with an interior endpoint")

    # -- export -------------------------------------------------------------------

    def export_text(self) -> str:
        """Plain-text form: header, vertex lines ``x y tag``, triangle lines ``i j k``."""
        n = self.num_vertices
        vertex_values = [None] * (3 * n)
        vertex_values[0::3] = self.vertices[:, 0].tolist()
        vertex_values[1::3] = self.vertices[:, 1].tolist()
        vertex_values[2::3] = [TAG_NAMES[tag] for tag in self.vertex_tags.tolist()]
        return (f"vertices {n} triangles {self.num_triangles}\n"
                + _format_lines("%.17g %.17g %s\n", vertex_values, 3)
                + _format_lines("%d %d %d\n", self.triangles.ravel().tolist(), 3))


def _format_lines(line: str, values: list, per_line: int) -> str:
    """``line % row`` for each run of ``per_line`` consecutive ``values``, in order.

    One ``%`` call formats 4096 lines, so a large export is built without a
    Python step per line and with a bounded number of values in a tuple.
    """
    step = 4096 * per_line
    return "".join((line * (len(chunk) // per_line)) % tuple(chunk)
                   for chunk in (values[a:a + step] for a in range(0, len(values), step)))


def _edges(x: np.ndarray, y: np.ndarray) -> tuple:
    """The edge vectors from corner 0, ``e1x, e1y, e2x, e2y``, and twice the signed
    areas ``e1x e2y - e1y e2x`` of triangles with corner coordinates ``x``, ``y``."""
    e1x, e1y, e2x, e2y = x[1] - x[0], y[1] - y[0], x[2] - x[0], y[2] - y[0]
    return e1x, e1y, e2x, e2y, e1x * e2y - e1y * e2x


def p1_gradients(x: np.ndarray, y: np.ndarray) -> tuple:
    """Gradients ``G[d, a]`` (2, 3, t) of the linear nodal functions of triangles
    with corner coordinates ``x``, ``y`` (3, t), and twice their signed areas (t,)."""
    e1x, e1y, e2x, e2y, det = _edges(x, y)
    g = np.array([[e2y, -e1y], [-e2x, e1x]]) / det      # nodal functions 1 and 2
    return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1), det


def grade(geom: GapGeometry, aspect: float, dxmax: float, xrange: float) -> np.ndarray:
    """Graded station positions on ``|x'| <= xrange``, symmetric about 0, spacing
    ``min(aspect * gap_width, dxmax)``.

    Raises :class:`MeshError` for boundaries that cross inside the strip, and
    once the strip would need more than ``MAX_STATIONS`` stations.
    """
    if xrange <= 0 or xrange > 1.0:
        raise MeshError(f"xrange must lie in (0, 1], got {xrange}")
    if aspect <= 0 or dxmax <= 0:
        raise MeshError("grading parameters must be positive")
    least = geom.least_width(xrange)
    if least <= 0:
        # the spacing shrinks with the width and would never reach the crossing
        raise MeshError(f"the boundaries cross inside |x'| <= {xrange:g} (least gap width "
                        f"{least:.4g})")
    right = [0.0]
    x = 0.0
    while x < xrange:
        if 2 * len(right) - 1 > MAX_STATIONS:
            raise MeshError(f"grading aspect = {aspect:g}, dxmax = {dxmax:g} needs more "
                            f"than {MAX_STATIONS} stations")
        dx = min(aspect * geom.gap_width(x), dxmax)     # on floats: no numpy per station
        nxt = x + dx
        if nxt >= xrange - 0.25 * dx:
            right.append(xrange)
            break
        right.append(nxt)
        x = nxt
    right = np.asarray(right)
    return np.concatenate([-right[:0:-1], right])


def generate(geom: GapGeometry, stations: np.ndarray, layers: int) -> Mesh:
    """Layered mesh over ``stations`` (from :func:`grade`), ``layers`` (>= 4)
    cells on each station's fiber; vertices sit exactly on the fibers, so the
    top and bottom rows lie on the boundary graphs."""
    if layers < 4:
        raise MeshError(f"layers must be >= 4, got {layers}")
    widths = geom.gap_width(stations)       # raises where the boundaries cross
    S = stations.size
    frac = np.arange(layers + 1) / layers
    bot = geom.bottom(stations)
    verts = np.empty((S * (layers + 1), 2))
    verts[:, 0] = np.repeat(stations, layers + 1)
    verts[:, 1] = (bot[:, None] + widths[:, None] * frac[None, :]).ravel()

    tags = np.full(S * (layers + 1), TAG_INTERIOR, dtype=np.int8)
    idx = np.arange(S * (layers + 1)).reshape(S, layers + 1)
    tags[idx[:, 0]] = TAG_BOTTOM
    tags[idx[:, -1]] = TAG_TOP
    tags[idx[0, 1:-1]] = TAG_LATERAL_LEFT
    tags[idx[-1, 1:-1]] = TAG_LATERAL_RIGHT

    # cell (i, j) has corners a = (i, j), b = a + L + 1, c = a + L + 2, d = a + 1
    # and the triangles (a, b, c), (a, c, d)
    a = idx[:-1, :-1, None]
    b, c, d = a + layers + 1, a + layers + 2, a + 1
    tris = np.concatenate([a, b, c, a, c, d], axis=2).reshape(-1, 3)
    return Mesh(vertices=verts, triangles=tris, vertex_tags=tags,
                stations=stations, layers=layers, geom=geom)


def with_midpoints(stations: np.ndarray) -> np.ndarray:
    """``stations`` with the midpoint of each interval inserted: 2 S - 1 stations."""
    out = np.empty(stations.size * 2 - 1)
    out[0::2] = stations
    out[1::2] = 0.5 * (stations[:-1] + stations[1:])
    return out


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement: midpoint stations and doubled layers on the exact
    fibers, so refined boundary rows lie on the true graphs, not on the coarse
    polygonal boundary.  Not nested: a coarse field of nodal values in [0, 1)
    and its finer interpolant differ by 4e-15 at the finer centroids of the
    flat 12-layer strip, but by 0.30 there under midpoint stations alone (a
    cell's coarse diagonal a-c is no finer edge), and on the curved gap at
    epsilon = 1e-2 by 0.31 (midpoint stations) and 0.20 (doubled layers)."""
    return generate(mesh.geom, with_midpoints(mesh.stations), 2 * mesh.layers)
