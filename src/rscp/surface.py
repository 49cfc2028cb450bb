"""Isosurface meshes, octant cutaway, plane contours, pole statistics.

Meshes come from a table-driven marching cubes over the rescaled grid;
vertices on shared cell edges are interpolated once per global edge, so
adjacent cells weld exactly and closed components satisfy edge-incidence
= 2.  Triangle emission follows ascending cell index, which makes every
output deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc_tables import (CORNER_OFFSETS, CUBE_EDGE_FLAGS, CUBE_TRIANGLES,
                         EDGE_CORNERS)
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

# per-case unpacked tables: crossed edge list and triangle triples
_CASE_EDGES = [tuple(e for e in range(12) if (flags >> e) & 1)
               for flags in CUBE_EDGE_FLAGS.tolist()]
_CASE_TRIS = []
for _row in CUBE_TRIANGLES.tolist():
    _tris = []
    for _t in range(0, 16, 3):
        if _row[_t] < 0:
            break
        _tris.append((_row[_t], _row[_t + 1], _row[_t + 2]))
    _CASE_TRIS.append(tuple(_tris))
_CORNERS = [tuple(ofs) for ofs in CORNER_OFFSETS.tolist()]
_EDGE_AB = [(int(EDGE_CORNERS[0, e]), int(EDGE_CORNERS[1, e]))
            for e in range(12)]


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup; vertex_scalar holds the interpolated field."""

    vertices: np.ndarray       # (nv, 3) float
    triangles: np.ndarray      # (nt, 3) int
    vertex_scalar: np.ndarray  # (nv,) float
    level: float

    def __post_init__(self):
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")


@dataclass(frozen=True)
class ContourSet:
    level: float
    polylines: list  # of (m, 2) float arrays, columns (y, z)


def _triangle_area(p0, p1, p2) -> float:
    ux, uy, uz = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    vx, vy, vz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)


def _check_iso_level(level: float) -> None:
    if not 0.0 < level < 100.0:
        raise ValueError(f"level must lie in (0, 100), got {level}")


def _check_contour_level(level: float) -> None:
    if not 0.0 < level <= 100.0:
        raise ValueError(f"contour level must lie in (0, 100], got {level}")


def marching_cubes(grid: DensityGrid, level: float) -> TriangleMesh:
    """Extract the iso-level surface of a rescaled grid, level in (0,100)."""
    if not grid.rescaled:
        raise ValueError("marching_cubes requires a rescaled grid")
    _check_iso_level(level)
    vals = grid.values
    n = grid.spec.n_points
    coords = grid.spec.coords().tolist()

    below = vals < level
    m = n - 1
    index = np.zeros((m, m, m), dtype=np.int32)
    for v, (dx, dy, dz) in enumerate(_CORNERS):
        index |= below[dx:dx + m, dy:dy + m, dz:dz + m].astype(np.int32) << v
    active = np.argwhere((index != 0) & (index != 255))

    vertices: list[tuple[float, float, float]] = []
    scalars: list[float] = []
    vindex: dict[tuple[float, float, float], int] = {}
    triangles: list[tuple[int, int, int]] = []

    for ci, cj, ck in active.tolist():
        case = int(index[ci, cj, ck])
        edge_vertex = {}
        for e in _CASE_EDGES[case]:
            a, b = _EDGE_AB[e]
            oa, ob = _CORNERS[a], _CORNERS[b]
            pa = (ci + oa[0], cj + oa[1], ck + oa[2])
            pb = (ci + ob[0], cj + ob[1], ck + ob[2])
            if pb < pa:
                pa, pb = pb, pa
            va = float(vals[pa])
            vb = float(vals[pb])
            t = (level - va) / (vb - va)
            pos = (coords[pa[0]] + t * (coords[pb[0]] - coords[pa[0]]),
                   coords[pa[1]] + t * (coords[pb[1]] - coords[pa[1]]),
                   coords[pa[2]] + t * (coords[pb[2]] - coords[pa[2]]))
            vid = vindex.get(pos)
            if vid is None:
                vid = len(vertices)
                vindex[pos] = vid
                vertices.append(pos)
                scalars.append(va + t * (vb - va))
            edge_vertex[e] = vid
        for e0, e1, e2 in _CASE_TRIS[case]:
            i0, i1, i2 = edge_vertex[e0], edge_vertex[e1], edge_vertex[e2]
            if i0 == i1 or i1 == i2 or i0 == i2:
                continue
            if _triangle_area(vertices[i0], vertices[i1], vertices[i2]) < _AREA_EPS:
                continue
            triangles.append((i0, i1, i2))

    return TriangleMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                        np.array(triangles, dtype=np.int64).reshape(-1, 3),
                        np.array(scalars, dtype=float), float(level))


# ---------------------------------------------------------------- cutaway

def _clip_halfspace(poly, f):
    """Sutherland-Hodgman clip of a 3D polygon to {p: f(p) >= 0}."""
    if not poly:
        return []
    out = []
    prev = poly[-1]
    fprev = f(prev)
    for cur in poly:
        fcur = f(cur)
        if fcur >= 0.0:
            if fprev < 0.0:
                t = fprev / (fprev - fcur)
                out.append(tuple(prev[i] + t * (cur[i] - prev[i]) for i in range(3)))
            out.append(cur)
        elif fprev >= 0.0:
            t = fprev / (fprev - fcur)
            out.append(tuple(prev[i] + t * (cur[i] - prev[i]) for i in range(3)))
        prev, fprev = cur, fcur
    return out


def _poly_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    return sum(_triangle_area(poly[0], poly[i], poly[i + 1])
               for i in range(1, len(poly) - 1))


def _octant_part(tri):
    """Portion of the triangle inside the closed octant x<=0, y<=0, z>=0."""
    poly = _clip_halfspace(list(tri), lambda p: -p[0])
    poly = _clip_halfspace(poly, lambda p: -p[1])
    return _clip_halfspace(poly, lambda p: p[2])


def _strictly_inside_octant(p) -> bool:
    return p[0] < 0.0 and p[1] < 0.0 and p[2] > 0.0


def _poly_centroid(poly):
    n = float(len(poly))
    return (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n,
            sum(p[2] for p in poly) / n)


def trilinear_at(grid: DensityGrid, point) -> float:
    """Trilinear field sample; points must lie inside the grid cube."""
    spec = grid.spec
    d = spec.spacing
    h = spec.half_extent
    idx = []
    frac = []
    for t in range(3):
        u = (point[t] + h) / d
        i = int(math.floor(u))
        i = min(max(i, 0), spec.n_points - 2)
        idx.append(i)
        frac.append(min(max(u - i, 0.0), 1.0))
    v = grid.values
    i, j, k = idx
    fx, fy, fz = frac
    c00 = v[i, j, k] * (1 - fx) + v[i + 1, j, k] * fx
    c10 = v[i, j + 1, k] * (1 - fx) + v[i + 1, j + 1, k] * fx
    c01 = v[i, j, k + 1] * (1 - fx) + v[i + 1, j, k + 1] * fx
    c11 = v[i, j + 1, k + 1] * (1 - fx) + v[i + 1, j + 1, k + 1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return float(c0 * (1 - fz) + c1 * fz)


def _fill_polygons(f00, f10, f11, f01, level, center=None):
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
        mid = 0.25 * (f00 + f10 + f11 + f01) if center is None else center
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
                    mapped = [embed(ua0 + p[0] * (ua1 - ua0),
                                    ub0 + p[1] * (ub1 - ub0)) for p in poly]
                    for t in range(1, len(mapped) - 1):
                        tri = (mapped[0], mapped[t], mapped[t + 1])
                        if _triangle_area(*tri) >= _AREA_EPS:
                            caps.append(tri)
    return caps


def apply_cutaway(mesh: TriangleMesh, grid: DensityGrid) -> TriangleMesh:
    """Remove the octant x<0, y<0, z>0 and cap the exposed cross-section.

    Triangles only touching the octant boundary are kept verbatim, so a
    second application is the identity.  Caps are generated from the grid
    on the three boundary planes wherever the field is at or above the
    mesh's iso level.
    """
    verts = [tuple(map(float, v)) for v in mesh.vertices]
    changed = False

    new_tris = []      # list of ("old", (i,j,k)) or ("new", pts)
    for i0, i1, i2 in mesh.triangles.tolist():
        tri = (verts[i0], verts[i1], verts[i2])
        part = _octant_part(tri)
        if _poly_area(part) < _AREA_EPS or not _strictly_inside_octant(_poly_centroid(part)):
            new_tris.append(("old", (i0, i1, i2)))
            continue
        changed = True
        # complement of the open octant as three disjoint convex pieces
        pieces = [
            [lambda p: p[0]],
            [lambda p: -p[0], lambda p: p[1]],
            [lambda p: -p[0], lambda p: -p[1], lambda p: -p[2]],
        ]
        for halfspaces in pieces:
            poly = list(tri)
            for f in halfspaces:
                poly = _clip_halfspace(poly, f)
            for t in range(1, len(poly) - 1):
                piece = (poly[0], poly[t], poly[t + 1])
                if _triangle_area(*piece) >= _AREA_EPS:
                    new_tris.append(("new", piece))

    if not changed:
        return mesh

    out_vertices: list[tuple[float, float, float]] = []
    out_scalars: list[float] = []
    vindex: dict[tuple[float, float, float], int] = {}
    out_triangles: list[tuple[int, int, int]] = []

    def add_vertex(pos, scalar=None):
        vid = vindex.get(pos)
        if vid is None:
            vid = len(out_vertices)
            vindex[pos] = vid
            out_vertices.append(pos)
            out_scalars.append(trilinear_at(grid, pos) if scalar is None else scalar)
        return vid

    for kind, item in new_tris:
        if kind == "old":
            ids = tuple(add_vertex(verts[i], float(mesh.vertex_scalar[i]))
                        for i in item)
        else:
            ids = tuple(add_vertex(p) for p in item)
        if ids[0] != ids[1] and ids[1] != ids[2] and ids[0] != ids[2]:
            out_triangles.append(ids)

    for tri in _cap_triangles(grid, mesh.level):
        ids = tuple(add_vertex(p) for p in tri)
        if ids[0] != ids[1] and ids[1] != ids[2] and ids[0] != ids[2]:
            out_triangles.append(ids)

    return TriangleMesh(np.array(out_vertices, dtype=float).reshape(-1, 3),
                        np.array(out_triangles, dtype=np.int64).reshape(-1, 3),
                        np.array(out_scalars, dtype=float), mesh.level)


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
            line = [segments[si][0], segments[si][1]]
            point = line[-1]
            while True:
                nxt = None
                for sj, other_end in adjacency.get(point, ()):
                    if not used[sj]:
                        nxt = (sj, other_end)
                        break
                if nxt is None:
                    break
                used[nxt[0]] = True
                point = segments[nxt[0]][nxt[1]]
                line.append(point)
            polylines.append(line)
    return [np.array(line, dtype=float) for line in polylines if len(line) >= 2]


def slice_contour(grid: DensityGrid, levels=None) -> list[ContourSet]:
    """Contours of the x=0 plane restricted to the quadrant y,z >= 0.

    Levels default to 10, 20, ..., 100 on the rescaled field; the level
    100 set degenerates to at most isolated points and yields no
    polylines.
    """
    if not grid.rescaled:
        raise ValueError("slice_contour requires a rescaled grid")
    if levels is None:
        levels = [10.0 * i for i in range(1, 11)]
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
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return bool(counts) and all(v == 2 for v in counts.values())


def surface_area(mesh: TriangleMesh) -> float:
    total = 0.0
    for a, b, c in mesh.triangles.tolist():
        total += _triangle_area(mesh.vertices[a], mesh.vertices[b],
                                mesh.vertices[c])
    return total
