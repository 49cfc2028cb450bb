"""Isosurface meshes, octant cutaway, plane contours, pole statistics.

Meshes come from a table-driven marching cubes over the rescaled grid.
Vertices are welded by exact position, numbered in order of first
appearance (_weld): marching cubes keys each crossing by its global edge,
or by the grid point it lands on, and the cutaway by its coordinates'
bits.  Every edge interpolates from its lower end, so adjacent cells weld
exactly and closed components satisfy edge-incidence = 2.  Triangles
follow ascending cell index, which makes every output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import CORNER_OFFSETS, CUBE_TRIANGLES, EDGE_CORNERS
from .density import DensityGrid

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


def _check_iso_level(level: float) -> None:
    if not 0.0 < level < 100.0:
        raise ValueError(f"level must lie in (0, 100), got {level}")


def _check_contour_level(level: float) -> None:
    if not 0.0 < level <= 100.0:
        raise ValueError(f"contour level must lie in (0, 100], got {level}")


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


# ---------------------------------------------------------------- cutaway

def _fan(poly):
    """Fan triangles of a convex polygon, without those below _AREA_EPS."""
    fan = ((poly[0], poly[t], poly[t + 1]) for t in range(1, len(poly) - 1))
    return [tri for tri in fan if _triangle_area(*tri) >= _AREA_EPS]


def _fill_polygons(f00, f10, f11, f01, level):
    """Polygon(s) covering {f >= level} of one 2D cell, unit coordinates.

    Corners are cycled 00 -> 10 -> 11 -> 01; crossings are linearly
    interpolated.  The ambiguous saddles are resolved by the cell-center
    mean (midpoint decision).
    """
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    fs = [f00, f10, f11, f01]
    mask = sum(1 << i for i in range(4) if fs[i] >= level)
    if mask == 0:
        return []
    if mask == 0b1111:
        return [pts]

    def cross(i, j):
        t = (level - fs[i]) / (fs[j] - fs[i])
        return (pts[i][0] + t * (pts[j][0] - pts[i][0]),
                pts[i][1] + t * (pts[j][1] - pts[i][1]))

    if mask in (0b0101, 0b1010):
        mid = 0.25 * (f00 + f10 + f11 + f01)
        a = 0 if mask == 0b0101 else 1   # one of the two inside corners
        c = a + 2
        xa_prev = cross(a, (a - 1) % 4)
        xa_next = cross(a, (a + 1) % 4)
        xc_prev = cross(c, (c - 1) % 4)
        xc_next = cross(c, (c + 1) % 4)
        if mid >= level:
            return [[pts[a], xa_next, xc_prev, pts[c], xc_next, xa_prev]]
        return [[pts[a], xa_next, xa_prev], [pts[c], xc_next, xc_prev]]

    poly = []
    for i in range(4):
        j = (i + 1) % 4
        if fs[i] >= level:
            poly.append(pts[i])
        if (fs[i] >= level) != (fs[j] >= level):
            poly.append(cross(i, j))
    return [poly]


def _cap_triangles(grid: DensityGrid, level: float):
    """Cap triangles on the three exposed octant boundary planes."""
    spec = grid.spec
    c = (spec.n_points - 1) // 2
    coords = spec.coords().tolist()
    vals = grid.values
    n = spec.n_points
    caps = []

    # (plane slice, first-axis cell range, second-axis cell range, embed)
    planes = [
        (vals[c, :, :], range(0, c), range(c, n - 1),
         lambda u, v: (0.0, u, v)),                      # x=0, y<=0, z>=0
        (vals[:, c, :], range(0, c), range(c, n - 1),
         lambda u, v: (u, 0.0, v)),                      # y=0, x<=0, z>=0
        (vals[:, :, c], range(0, c), range(0, c),
         lambda u, v: (u, v, 0.0)),                      # z=0, x<=0, y<=0
    ]
    for plane, arange, brange, embed in planes:
        for a in arange:
            ua0, ua1 = coords[a], coords[a + 1]
            for b in brange:
                ub0, ub1 = coords[b], coords[b + 1]
                f00 = float(plane[a, b])
                f10 = float(plane[a + 1, b])
                f11 = float(plane[a + 1, b + 1])
                f01 = float(plane[a, b + 1])
                if max(f00, f10, f11, f01) < level:
                    continue
                for poly in _fill_polygons(f00, f10, f11, f01, level):
                    caps += _fan([embed(ua0 + p[0] * (ua1 - ua0),
                                        ub0 + p[1] * (ub1 - ub0)) for p in poly])
    return caps


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
    caps = np.array(_cap_triangles(grid, mesh.level), dtype=float)
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

_SEG_CASES = {
    0b0001: [(3, 0)], 0b0010: [(0, 1)], 0b0100: [(1, 2)], 0b1000: [(2, 3)],
    0b0011: [(3, 1)], 0b0110: [(0, 2)], 0b1100: [(1, 3)], 0b1001: [(2, 0)],
    0b1110: [(3, 0)], 0b1101: [(0, 1)], 0b1011: [(1, 2)], 0b0111: [(2, 3)],
}


def _square_segments(F, ucoords, vcoords, level):
    """Marching-squares segments over a 2D field; returns point pairs."""
    nu, nv = F.shape
    segments = []
    for a in range(nu - 1):
        for b in range(nv - 1):
            fs = (float(F[a, b]), float(F[a + 1, b]),
                  float(F[a + 1, b + 1]), float(F[a, b + 1]))
            mask = sum(1 << i for i in range(4) if fs[i] >= level)
            if mask in (0, 0b1111):
                continue
            corners = ((ucoords[a], vcoords[b]), (ucoords[a + 1], vcoords[b]),
                       (ucoords[a + 1], vcoords[b + 1]), (ucoords[a], vcoords[b + 1]))

            def edge_point(e):
                i, j = e, (e + 1) % 4
                # canonical orientation so shared edges interpolate identically
                if corners[j] < corners[i]:
                    i, j = j, i
                t = (level - fs[i]) / (fs[j] - fs[i])
                return (corners[i][0] + t * (corners[j][0] - corners[i][0]),
                        corners[i][1] + t * (corners[j][1] - corners[i][1]))

            if mask in (0b0101, 0b1010):
                mid = 0.25 * sum(fs)
                inside_center = mid >= level
                if mask == 0b0101:
                    pairs = [(0, 1), (2, 3)] if inside_center else [(0, 3), (1, 2)]
                else:
                    pairs = [(0, 3), (1, 2)] if inside_center else [(0, 1), (2, 3)]
            else:
                pairs = _SEG_CASES[mask]
            for e0, e1 in pairs:
                p0, p1 = edge_point(e0), edge_point(e1)
                if p0 != p1:
                    segments.append((p0, p1))
    return segments


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
    q = grid.spec.coords()[c:].tolist()
    out = []
    for level in levels:
        _check_contour_level(level)
        segs = _square_segments(plane, q, q, float(level))
        out.append(ContourSet(float(level), _chain_segments(segs)))
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
    t = mesh.triangles.astype(np.int64)
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return len(counts) > 0 and bool((counts == 2).all())


def surface_area(mesh: TriangleMesh) -> float:
    corners = mesh.vertices[mesh.triangles].transpose(1, 2, 0)
    return float(_triangle_area(*corners).sum())
