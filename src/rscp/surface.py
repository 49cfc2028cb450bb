"""Isosurface meshes, octant cutaway, plane contours, pole statistics.

Meshes come from a table-driven marching cubes over the rescaled grid.
Vertices are welded by exact position, numbered in order of first
appearance (_weld): marching cubes keys each crossing by its global edge,
or by the grid point it lands on, and the cutaway by its coordinates'
bits.  Every edge interpolates from its lower end, so adjacent cells weld
exactly and closed components satisfy edge-incidence = 2.  Triangles
follow ascending cell index, which makes every output deterministic.

The cutaway caps and the slice contours come from one marching-squares
routine over a grid plane (_march_squares); only its table differs.  The
cap table fans the polygons covering {f >= level} and starts a crossing
where the polygon cycle meets it, not always at the edge's lower end.  So
a cap point can differ in its last bits from the marching-cubes vertex on
the same edge, and cutaway meshes have open seams on the cut planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import CORNER_OFFSETS, CUBE_TRIANGLES, EDGE_CORNERS
from .density import DensityGrid, _check_contour_level, _check_iso_level

__all__ = [
    "TriangleMesh",
    "ContourSet",
    "marching_cubes",
    "apply_cutaway",
    "slice_contour",
    "pole_concentration",
    "connected_components",
    "is_watertight",
    "surface_area",
]

_AREA_EPS = 1e-12


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup of the iso level's surface."""

    vertices: np.ndarray   # (nv, 3) float
    triangles: np.ndarray  # (nt, 3) int
    level: float

    def __post_init__(self):
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")


@dataclass(frozen=True)
class ContourSet:
    level: float
    polylines: list  # of (m, 2) float arrays, columns (y, z)


def _triangle_area(p0, p1, p2):
    """Area of one triangle, or of many when the coordinates are arrays."""
    ux, uy, uz = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    vx, vy, vz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def _weld(keys):
    """Number equal int64 keys 0, 1, ... in order of first appearance:
    vertex v first appears at keys[first[v]], and keys[i] is vertex ids[i]."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


# per cube edge: the offset of its lower corner and its axis
_EDGE_ENDS = CORNER_OFFSETS[EDGE_CORNERS]
_EDGE_LO = _EDGE_ENDS.min(axis=0)
_EDGE_AXIS = np.argmax(_EDGE_ENDS[0] != _EDGE_ENDS[1], axis=1).astype(np.int8)


def _crossed_edges(case):
    """(cells, 12) 0/1 array: edge e is crossed when its corners differ."""
    case = case[:, None]
    return ((case >> EDGE_CORNERS[0]) ^ (case >> EDGE_CORNERS[1])) & 1


def marching_cubes(grid: DensityGrid, level: float) -> TriangleMesh:
    """Extract the iso-level surface of a rescaled grid, level in (0,100)."""
    if not grid.rescaled:
        raise ValueError("marching_cubes requires a rescaled grid")
    _check_iso_level(level)
    vals = grid.values.ravel()
    n = grid.spec.n_points
    coords = grid.spec.coords()
    strides = np.array([n * n, n, 1])

    below = grid.values < level
    m = n - 1
    # temporaries are deleted as soon as they are spent, to bound peak RSS
    case = np.zeros((m, m, m), dtype=np.uint8)
    for v, (dx, dy, dz) in enumerate(CORNER_OFFSETS.tolist()):
        case |= below[dx:dx + m, dy:dy + m, dz:dz + m].astype(np.uint8) << v
    del below
    cells = np.flatnonzero((case != 0) & (case != 255))
    case = case.ravel()[cells]
    corner = np.ravel_multi_index(np.unravel_index(cells, (m, m, m)), (n, n, n))
    del cells

    # One slot per crossed edge, cells ascending and edges ascending within
    # a cell.  Each edge interpolates from its lower end pa, so the cells
    # sharing it compute the same bits.
    slot_cell, slot_edge = np.nonzero(_crossed_edges(case))
    axis = _EDGE_AXIS[slot_edge]
    pa = corner[slot_cell] + (_EDGE_LO @ strides)[slot_edge]
    slot_key = slot_cell * 12 + slot_edge
    del corner, slot_cell, slot_edge
    pb = pa + strides[axis]
    va = vals[pa]
    dv = vals[pb] - va
    t = (level - va) / dv
    del va, dv

    # Two slots have equal positions exactly when they share an edge, or
    # when both land on the same grid point.  Adjacent coordinates c0 < c1
    # satisfy c0 + (c1 - c0) == c1 exactly, so an interpolated coordinate
    # never leaves its edge; it lands on a grid point when it equals an end.
    keys = 3 * pa + axis
    pos = np.empty((len(pa), 3))
    for c in range(3):
        on = axis == c
        ia = pa // strides[c] % n
        ca, cb = coords[ia], coords[ia + on]
        pos[:, c] = ca + t * (cb - ca)
        at = on & (pos[:, c] == ca)
        keys[at] = 3 * n ** 3 + pa[at]
        at = on & (pos[:, c] == cb)
        keys[at] = 3 * n ** 3 + pb[at]
    del pa, pb, axis, t, on, ia, ca, cb, at
    first, vid = _weld(keys)
    vertices = pos[first]
    del pos, keys, first

    tris = CUBE_TRIANGLES[case, :15].reshape(-1, 5, 3)
    tri_cell, tri_row = np.nonzero(tris[:, :, 0] >= 0)
    triangles = vid[np.searchsorted(
        slot_key, tri_cell[:, None] * 12 + tris[tri_cell, tri_row])]
    del tris, tri_cell, tri_row, slot_key, vid
    # a triangle with a repeated vertex has area 0, so this drops it too
    corners = vertices[triangles].transpose(1, 2, 0)
    triangles = triangles[_triangle_area(*corners) >= _AREA_EPS]
    return TriangleMesh(vertices, triangles, float(level))


# ------------------------------------------------------- marching squares

# Corners 0..3 of a plane cell (a, b) are (a, b), (a+1, b), (a+1, b+1) and
# (a, b+1), at these unit-square positions.
_UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _table(shapes, saddles_inside, width):
    """(32, rows, width, 2) table of directed corner pairs (i, j), -1 padded.

    shapes[case] lists the case's shapes, '|'-separated, each a run of
    points: 'i' is corner i and 'ij' the crossing on edge i-j,
    interpolated from i.  Row case + 16 serves a cell whose center is
    inside, where a saddle takes its shapes from saddles_inside.  Each
    shape is fanned from its first point into rows of width points.
    """
    cases = []
    inside = [saddles_inside.get(case, s) for case, s in enumerate(shapes)]
    for spec in shapes + inside:
        rows = []
        for shape in filter(None, spec.split("|")):
            pts = [(int(p[0]), int(p[-1])) for p in shape.split()]
            rows += [pts[:1] + pts[t:t + width - 1]
                     for t in range(1, len(pts) - width + 2)]
        cases.append(rows)
    table = np.full((32, max(map(len, cases)), width, 2), -1)
    for key, rows in enumerate(cases):
        table[key, :len(rows)] = np.reshape(rows, (-1, width, 2))
    return table


def _march_squares(f, u, v, level, table):
    """The table's rows in every cell of the 2D field f, cells in row-major
    order: a (k, width, 2) array of points in the (u, v) coordinates.

    Bit i of a cell's case is f_i >= level, and a saddle is resolved by its
    center value (the midpoint decider, Nielson & Hamann 1991).  The pair
    (i, j) is the point p = P_i + t (P_j - P_i) of the unit square, with
    t = (level - f_i) / (f_j - f_i), at u0 + p (u1 - u0) in the plane.
    """
    fc = np.stack([f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]],
                  axis=-1).reshape(-1, 4)
    case = ((fc >= level) << np.arange(4)).sum(axis=1)
    mid = 0.25 * (((fc[:, 0] + fc[:, 1]) + fc[:, 2]) + fc[:, 3])
    key = case + 16 * (mid >= level)
    cell, row = np.nonzero(table[key, :, 0, 0] >= 0)
    ends = table[key[cell], row]
    i, j = ends[..., 0], ends[..., 1]
    fi, fj = fc[cell[:, None], i], fc[cell[:, None], j]
    # a corner is the pair (i, i): its t multiplies a zero step
    t = (level - fi) / np.where(i == j, 1.0, fj - fi)
    p = _UNIT[i] + t[..., None] * (_UNIT[j] - _UNIT[i])
    a, b = np.divmod(cell, f.shape[1] - 1)
    lo = np.stack([u[a], v[b]], axis=-1)[:, None]
    hi = np.stack([u[a + 1], v[b + 1]], axis=-1)[:, None]
    return lo + p * (hi - lo)


# The polygons covering {f >= level}, corners cycled 0 -> 1 -> 2 -> 3: each
# crossing is interpolated from the corner before it in that cycle, or on a
# saddle from its inside corner.
_CAP_TABLE = _table(
    ["", "0 01 30", "01 1 12", "0 1 12 30", "12 2 23", "0 01 03|2 23 21",
     "01 1 2 23", "0 1 2 23 30", "23 3 30", "0 01 23 3", "1 12 10|3 30 32",
     "0 1 12 23 3", "12 2 3 30", "0 01 12 2 3", "01 1 2 3 30", "0 1 2 3"],
    {5: "0 01 21 2 23 03", 10: "1 12 32 3 30 10"}, 3)

# Contour segments; every crossing is interpolated from its edge's lower
# corner, so the cells sharing an edge compute the same point.  Adjacent
# coordinates satisfy u0 + (u1 - u0) == u1, so p = 0 or 1 lands exactly on
# the grid line.
_SEG_TABLE = _table(
    ["", "03 01", "01 12", "03 12", "12 32", "01 03|12 32", "01 32",
     "32 03", "32 03", "32 01", "01 12|32 03", "12 32", "12 03", "01 12",
     "03 01", ""],
    {5: "01 12|32 03", 10: "01 03|12 32"}, 2)


def _cap_triangles(grid: DensityGrid, level: float) -> np.ndarray:
    """(k, 3, 3) cap triangles on the three exposed octant boundary planes,
    without those below _AREA_EPS."""
    c = (grid.spec.n_points - 1) // 2
    coords = grid.spec.coords()
    neg, pos = coords[:c + 1], coords[c:]
    vals = grid.values
    caps = np.concatenate([
        np.insert(_march_squares(plane, u, v, level, _CAP_TABLE), axis, 0.0,
                  axis=2)
        for axis, plane, u, v in (
            (0, vals[c, :c + 1, c:], neg, pos),      # x=0, y<=0, z>=0
            (1, vals[:c + 1, c, c:], neg, pos),      # y=0, x<=0, z>=0
            (2, vals[:c + 1, :c + 1, c], neg, neg))])  # z=0, x<=0, y<=0
    return caps[_triangle_area(*caps.transpose(1, 2, 0)) >= _AREA_EPS]


# ---------------------------------------------------------------- cutaway

def _position_keys(points):
    """int64 keys, equal exactly for rows that are equal as floats: each
    column is coded by its bit patterns after + 0.0 folds -0.0 into 0.0."""
    s = len(points)
    x, y, z = (np.unique((col + 0.0).view(np.int64), return_inverse=True)[1]
               for col in points.T)
    xy = np.unique(x * s + y, return_inverse=True)[1]
    return xy * s + z


def apply_cutaway(mesh: TriangleMesh, grid: DensityGrid) -> TriangleMesh:
    """Remove the octant x<0, y<0, z>0 and cap the exposed cross-section.

    No triangle may cross an axis plane, which holds for every marching
    cubes mesh: the grid is vertex-aligned with x = y = z = 0 among its
    planes, and each triangle stays inside one cell.  So each triangle lies
    wholly inside the closed octant or wholly outside it, and the cutaway
    drops whole triangles: those with area whose centroid is strictly
    inside.  The rest, including triangles only touching the octant
    boundary, are kept verbatim, so a second application is the identity.
    Caps are generated from the grid on the three boundary planes wherever
    the field is at or above the mesh's iso level.

    Raises ValueError when a triangle has vertices strictly on both sides
    of an axis plane.
    """
    corners = mesh.vertices[mesh.triangles]
    for c in range(3):
        col = corners[:, :, c]
        if ((col < 0.0).any(axis=1) & (col > 0.0).any(axis=1)).any():
            raise ValueError("apply_cutaway: a triangle crosses the plane "
                             f"{'xyz'[c]} = 0")
    centroid = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3
    cut = np.flatnonzero((centroid[:, 0] < 0.0) & (centroid[:, 1] < 0.0)
                         & (centroid[:, 2] > 0.0))
    cut = cut[_triangle_area(*corners[cut].transpose(1, 2, 0)) >= _AREA_EPS]
    del corners, centroid
    if not len(cut):
        return mesh

    # Corner slots in emission order, the kept triangles then the caps,
    # welded by position.  Each slot is a row of mesh.vertices or a cap
    # point, so positions are keyed once per row.
    caps = _cap_triangles(grid, mesh.level)
    rows = np.concatenate([mesh.vertices, caps.reshape(-1, 3)])
    slots = np.concatenate([np.delete(mesh.triangles, cut, axis=0).ravel(),
                            np.arange(len(mesh.vertices), len(rows))])
    del cut, caps
    first, ids = _weld(_position_keys(rows)[slots])
    triangles = ids.reshape(-1, 3)
    i0, i1, i2 = triangles.T
    triangles = triangles[(i0 != i1) & (i1 != i2) & (i0 != i2)]
    return TriangleMesh(rows[slots[first]], triangles, mesh.level)


# ---------------------------------------------------------- plane contours

def _chain_segments(segments):
    """Join shared endpoints into polylines; closed loops repeat the start."""
    adjacency: dict[tuple, list] = {}
    for si, (p0, p1) in enumerate(segments):
        adjacency.setdefault(p0, []).append((si, 1))
        adjacency.setdefault(p1, []).append((si, 0))
    used = [False] * len(segments)

    def walk(start_point):
        line = [start_point]
        point = start_point
        while True:
            nxt = None
            for si, other_end in adjacency.get(point, ()):  # noqa: B007
                if not used[si]:
                    nxt = (si, other_end)
                    break
            if nxt is None:
                return line
            si, other_end = nxt
            used[si] = True
            point = segments[si][other_end]
            line.append(point)

    polylines = []
    # open chains first, started from odd-degree endpoints
    for point, inc in adjacency.items():
        if len(inc) % 2 == 1 and any(not used[si] for si, _ in inc):
            polylines.append(walk(point))
    for si in range(len(segments)):
        if not used[si]:
            used[si] = True
            polylines.append([segments[si][0]] + walk(segments[si][1]))
    return [np.array(line, dtype=float) for line in polylines if len(line) >= 2]


def slice_contour(grid: DensityGrid, levels) -> list[ContourSet]:
    """Contours of the x=0 plane restricted to the quadrant y,z >= 0.

    Levels are percentages of the rescaled field's peak; the level 100
    set degenerates to at most isolated points and yields no polylines.
    """
    if not grid.rescaled:
        raise ValueError("slice_contour requires a rescaled grid")
    c = (grid.spec.n_points - 1) // 2
    plane = grid.values[c, c:, c:]
    q = grid.spec.coords()[c:]
    out = []
    for level in levels:
        _check_contour_level(level)
        segs = _march_squares(plane, q, q, float(level), _SEG_TABLE)
        segs = segs[(segs[:, 0] != segs[:, 1]).any(axis=1)].tolist()
        out.append(ContourSet(float(level), _chain_segments(
            [(tuple(p0), tuple(p1)) for p0, p1 in segs])))
    return out


def pole_concentration(grid: DensityGrid, level: float) -> float:
    """Mean |z|/r over supra-level voxels (r = 0 excluded)."""
    if not grid.rescaled:
        raise ValueError("pole_concentration requires a rescaled grid")
    coords = grid.spec.coords()
    ii, jj, kk = np.nonzero(grid.values >= level)
    if ii.size == 0:
        raise ValueError(f"empty supra-level set at level {level}")
    x, y, z = coords[ii], coords[jj], coords[kk]
    r = np.sqrt(x * x + y * y + z * z)
    keep = r > 0.0
    if not keep.any():
        raise ValueError(f"supra-level set at level {level} is only the origin")
    return float(np.mean(np.abs(z[keep]) / r[keep]))


# ------------------------------------------------------------- mesh checks

def connected_components(mesh: TriangleMesh) -> int:
    """Number of connected components among referenced vertices."""
    if len(mesh.triangles) == 0:
        return 0
    parent = list(range(len(mesh.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c)):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    roots = {find(v) for tri in mesh.triangles.tolist() for v in tri}
    return len(roots)


def is_watertight(mesh: TriangleMesh) -> bool:
    """True when every undirected edge belongs to exactly 2 triangles."""
    # each edge (a < b) as one int64 key a*nv + b: a 1-D unique is fast
    a, b = np.sort(mesh.triangles.astype(np.int64)[:, [0, 1, 1, 2, 2, 0]]
                   .reshape(-1, 2), axis=1).T
    _, counts = np.unique(a * len(mesh.vertices) + b, return_counts=True)
    return len(counts) > 0 and bool((counts == 2).all())


def surface_area(mesh: TriangleMesh) -> float:
    corners = mesh.vertices[mesh.triangles].transpose(1, 2, 0)
    return float(_triangle_area(*corners).sum())
