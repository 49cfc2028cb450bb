"""Isosurface meshes, octant cutaway, plane contours, pole statistics.

Meshes come from a table-driven marching cubes over the rescaled grid.
Cells are classified on the octant, one case standing for 8 mirror cells,
and each crossed edge is interpolated once, from its lower end, so
adjacent cells weld exactly and closed components satisfy edge-incidence
= 2.  Vertices are welded by exact position, numbered in order of first
appearance: marching cubes sorts its crossings' int32 keys, global edges
or grid points (_weld); the cutaway ranks rows by their float values, so
-0.0 welds with 0.0, and numbers and reads each rank at its first slot.
Triangles follow ascending cell index, so every output is deterministic.
Large temporaries are made a block at a time or deleted once spent, so
each stage holds little beyond its input and output.

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

_AREA_EPS = 1e-12
_BLOCK = 1 << 12  # triangles or cells per block of a blockwise pass


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup of the iso level's surface."""

    vertices: np.ndarray   # (nv, 3) float
    triangles: np.ndarray  # (nt, 3) int; int32 from marching_cubes, apply_cutaway
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


def _areas(vertices, triangles):
    """Triangle areas, a block at a time to keep the corner arrays small."""
    return np.concatenate([np.empty(0)] + [_triangle_area(
        *([vertices[k, a] for a in range(3)] for k in triangles[s:s + _BLOCK].T))
        for s in range(0, len(triangles), _BLOCK)])


def _weld(keys):
    """Number equal keys 0, 1, ... in order of first appearance: vertex v
    first appears at keys[first[v]], and keys[i] is vertex ids[i].
    One sort of the pairs (key, i) packed as key << b | i in int64: the keys
    must be >= 0 with max(keys) << b < 2**63, b = len(keys).bit_length().
    first and ids are int32, as _MAX_POINTS bounds len(keys)."""
    s, b = len(keys), len(keys).bit_length()
    packed = np.left_shift(keys, b, dtype=np.int64)
    packed |= np.arange(s, dtype=np.int32)
    packed.sort()
    where = np.bitwise_and(packed, (1 << b) - 1, casting="unsafe",
                           out=np.empty(s, np.int32))
    packed >>= b
    new = np.r_[True, packed[1:] != packed[:-1]][:s]
    del packed
    first = where[new]  # of each key, ascending
    order = np.argsort(first)
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    first = first[order]
    del order
    # each key's index in key order, moved to its slots, then ranked
    group = new.astype(np.int32)
    del new
    np.cumsum(group, out=group)
    group -= 1
    ids = np.empty(s, np.int32)
    ids[where] = group
    del where, group
    return first, rank[ids]


# per cube edge: the offset of its lower corner and its axis
_EDGE_ENDS = CORNER_OFFSETS[EDGE_CORNERS]
_EDGE_LO = _EDGE_ENDS.min(axis=0)
_EDGE_AXIS = np.argmax(_EDGE_ENDS[0] != _EDGE_ENDS[1], axis=1).astype(np.int8)
# Row r maps an octant cell's case to that of its mirror image in the axes
# of the bits of r: the image's corner at offset code d = dx + 2 dy + 4 dz
# is the octant cell's corner at code d ^ r.
_CODE = CORNER_OFFSETS @ [1, 2, 4]
_BITS = np.arange(256)[:, None, None] >> np.argsort(_CODE)[
    _CODE ^ np.arange(8)[:, None]] & 1  # (case, r, corner)
_MIRRORED_CASES = (_BITS << np.arange(8)).sum(axis=2).T.astype(np.uint8)
# per case: edge e is crossed when its corners differ
_ENDS = np.arange(256)[:, None, None] >> EDGE_CORNERS & 1  # (case, end, e)
_CASE_CROSSED = _ENDS[:, 0] != _ENDS[:, 1]
_SLOT = np.cumsum(_CASE_CROSSED, axis=1) - 1  # crossed edge e's slot in a cell
# per case: its triangles' corners as slots in the cell, and their number
_TRI_SLOTS = _SLOT[np.arange(256)[:, None], CUBE_TRIANGLES[:, :15]].reshape(
    256, 5, 3).astype(np.int8)  # the -1 padding reads edge 11, unused
_TRI_COUNT = (CUBE_TRIANGLES[:, :15:3] >= 0).sum(axis=1).astype(np.int8)


def _active_cells(grid: DensityGrid, level: float):
    """The lattice cells the level crosses, ascending: lower corners as flat
    int32 lattice indices, and cases.  Only octant cells are classified;
    octant cell q mirrored in the axes of the bits of r is lattice cell
    c + q along an unmirrored axis and c - 1 - q along a mirrored one."""
    n = grid.spec.n_points
    c = (n - 1) // 2
    below = grid.octant < level
    case = np.zeros((c, c, c), dtype=np.uint8)
    for v, (dx, dy, dz) in enumerate(CORNER_OFFSETS.tolist()):
        case |= below[dx:dx + c, dy:dy + c, dz:dz + c].astype(np.uint8) << v
    q = np.flatnonzero((case != 0) & (case != 255))
    case = case.ravel()[q]
    r = np.arange(8)[:, None]
    corner = sum(np.where(r >> a & 1, c - 1 - qa, c + qa) * n ** (2 - a)
                 for a, qa in enumerate(np.unravel_index(q, (c, c, c))))
    packed = np.sort((corner * 256 + _MIRRORED_CASES[r, case]).ravel())
    return (packed >> 8).astype(np.int32), (packed & 255).astype(np.uint8)


def _edge_crossings(grid: DensityGrid, keys, level: float):
    """Where the level crosses the lattice edges of keys 3 pa + axis, each
    interpolated from its lower end pa, whose ends are read through the
    mirror: the coordinate along the edge's axis, and the keys with each
    crossing that lands on a grid point p replaced by 3 n^3 + p.

    Adjacent coordinates c0 < c1 satisfy c0 + (c1 - c0) == c1 exactly, so
    a crossing never leaves its edge; it lands on a grid point when it
    equals an end."""
    n = grid.spec.n_points
    c = (n - 1) // 2
    coords = grid.spec.coords()
    pa, axis = np.divmod(keys, 3)
    lattice = [pa // n ** (2 - a) % n for a in range(3)]
    ia = np.choose(axis, lattice)
    va = grid.octant[tuple(np.abs(i - c) for i in lattice)]
    for a, i in enumerate(lattice):
        i += axis == a
    vb = grid.octant[tuple(np.abs(i - c) for i in lattice)]
    del lattice
    t = (level - va) / (vb - va)
    del va, vb
    ca, cb = coords[ia], coords[ia + 1]
    x = ca + t * (cb - ca)
    del ia, t
    keys = keys.copy()
    at = x == ca
    keys[at] = 3 * n ** 3 + pa[at]
    at = x == cb
    keys[at] = 3 * n ** 3 + pa[at] + n ** (2 - axis[at])
    return x, keys


def marching_cubes(grid: DensityGrid, level: float) -> TriangleMesh:
    """Extract the iso-level surface of a rescaled grid, level in (0,100).

    The octant is read alone: its cells are classified for the whole
    lattice, and each crossed edge reads its ends through the mirror."""
    if not grid.rescaled:
        raise ValueError("marching_cubes requires a rescaled grid")
    _check_iso_level(level)
    n = grid.spec.n_points
    coords = grid.spec.coords()
    strides = np.array([n * n, n, 1], dtype=np.int32)
    # Temporaries are deleted as soon as they are spent, to bound the peak.
    # Lattice keys stay below 4 n^3, so they and every index are int32.
    corner, case = _active_cells(grid, level)

    # One slot per crossed edge, cells ascending and edges ascending within
    # a cell, welded by the edge key 3 pa + axis.  Each edge interpolates
    # once, from its lower end pa, so the cells sharing it get the same bits.
    crossed = _CASE_CROSSED[case]
    count = crossed.sum(axis=1, dtype=np.int32)
    keys = np.repeat(3 * corner, count)
    keys += (3 * (_EDGE_LO @ strides) + _EDGE_AXIS).astype(np.int32)[
        np.broadcast_to(np.arange(12, dtype=np.int8), crossed.shape)[crossed]]
    del crossed
    first_slot = np.cumsum(count, dtype=np.int32) - count
    del corner, count
    first, edge = _weld(keys)
    keys = keys[first]
    del first

    # Two edges have equal positions exactly when both land on the same
    # grid point, so a second weld on those keys numbers the vertices.  A
    # vertex is its first edge's lower end with the crossing on its axis.
    x, point = _edge_crossings(grid, keys, level)
    first, vid = _weld(point)
    pa, axis = np.divmod(keys[first], 3)
    x = x[first]
    del point, keys, first
    vertices = np.empty((len(x), 3))
    for a in range(3):
        vertices[:, a] = coords[pa // strides[a] % n]
        on = axis == a
        vertices[on, a] = x[on]
    del pa, axis, x, on
    vid = vid[edge]
    del edge

    # Triangles a block of cells at a time, into their final array; one
    # with a repeated vertex has area 0, so the area test drops it too.
    count = _TRI_COUNT[case]
    triangles = np.empty((int(count.sum()), 3), np.int32)
    kept = 0
    for s in range(0, len(case), _BLOCK):
        k = count[s:s + _BLOCK]
        tri = vid[np.repeat(first_slot[s:s + _BLOCK], k)[:, None]
                  + _TRI_SLOTS[case[s:s + _BLOCK]][np.arange(5) < k[:, None]]]
        tri = tri[_areas(vertices, tri) >= _AREA_EPS]
        triangles[kept:kept + len(tri)] = tri
        kept += len(tri)
    return TriangleMesh(vertices, triangles[:kept], float(level))


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
    o, coords = grid.octant, grid.spec.coords()
    neg, pos = coords[:len(o)], coords[-len(o):]
    caps = np.concatenate([
        np.insert(_march_squares(plane, u, v, level, _CAP_TABLE), axis, 0.0,
                  axis=2)
        for axis, plane, u, v in (
            (0, o[0, ::-1, :], neg, pos),          # x=0, y<=0, z>=0
            (1, o[::-1, 0, :], neg, pos),          # y=0, x<=0, z>=0
            (2, o[::-1, ::-1, 0], neg, neg))])     # z=0, x<=0, y<=0
    return caps[_triangle_area(*caps.transpose(1, 2, 0)) >= _AREA_EPS]


# ---------------------------------------------------------------- cutaway

def _position_keys(*parts):
    """Keys in [0, K) for the rows of the (k, 3) arrays parts, taken in
    turn, equal exactly for rows equal as floats (so -0.0 keys as 0.0): the
    ranks of the distinct rows in lexicographic order.  The rows are sorted
    one column at a time, least significant first, and the sorted rows are
    compared one column at a time, so no copy of all rows is made."""
    def column(a):
        return np.concatenate([p[:, a] for p in parts])
    order = np.argsort(column(2), kind="stable")
    for a in (1, 0):
        order = order[np.argsort(column(a)[order], kind="stable")]
    new = np.zeros(len(order), bool)
    for a in range(3):
        sorted_column = column(a)[order]
        new[1:] |= sorted_column[1:] != sorted_column[:-1]
    keys = np.empty(len(order), np.int32)
    keys[order] = np.cumsum(new, dtype=np.int32)
    return keys


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
    # per vertex, bit a: coordinate a < 0, bit 3 + a: coordinate a > 0;
    # OR-ed over each triangle's corners
    sign = ((mesh.vertices < 0.0) @ np.uint8([1, 2, 4])
            | (mesh.vertices > 0.0) @ np.uint8([8, 16, 32]))[mesh.triangles]
    code = sign[:, 0] | sign[:, 1] | sign[:, 2]
    if crossed := int(np.bitwise_or.reduce(code & (code >> 3))):
        raise ValueError("apply_cutaway: a triangle crosses the plane "
                         f"{'xyz'[(crossed & -crossed).bit_length() - 1]} = 0")
    # the centroid is strictly inside only if the corners reach the octant
    cut = np.flatnonzero((code & 0b100011) == 0b100011)
    tri = mesh.triangles[cut]
    x, y, z = (v[tri].sum(axis=1) / 3 for v in mesh.vertices.T)
    cut = cut[(x < 0.0) & (y < 0.0) & (z > 0.0)
              & (_areas(mesh.vertices, tri) >= _AREA_EPS)]
    del sign, code, tri, x, y, z
    if not len(cut):
        return mesh

    # Corner slots in emission order, the kept triangles then the caps,
    # welded by position.  Each slot is a row of mesh.vertices or a cap
    # point, so positions are keyed once per row.  The slots fill the output
    # triangles as rows, then are renumbered in place, a block at a time.
    caps = _cap_triangles(grid, mesh.level).reshape(-1, 3)
    nv, kept = len(mesh.vertices), len(mesh.triangles) - len(cut)
    keys = _position_keys(mesh.vertices, caps)
    triangles = np.empty((kept + len(caps) // 3, 3), np.int32)
    keep = np.ones(len(mesh.triangles), bool)
    keep[cut] = False
    # mode "clip" writes straight into out; every index is in range
    np.take(mesh.triangles, np.flatnonzero(keep), axis=0,
            out=triangles[:kept], mode="clip")
    slots = triangles.reshape(-1)
    s = len(slots)
    slots[3 * kept:] = np.arange(nv, nv + len(caps))
    del cut, keep
    # each key's first slot: ufunc.at applies every write to a repeated
    # index, where an advanced assignment keeps no documented one
    first = np.full(len(keys), s, np.int32)
    for b in range(0, s, _BLOCK):
        e = min(b + _BLOCK, s)
        np.minimum.at(first, keys[slots[b:e]],
                      np.arange(b, e, dtype=first.dtype))
    start = np.sort(first[first < s])  # the first slot of each vertex
    # mesh rows first: every kept triangle's slot precedes the caps'
    m = int(np.searchsorted(start, 3 * kept))
    rows = slots[start]
    del start
    rank = first  # per key: its vertex number
    rank[keys[rows]] = np.arange(len(rows), dtype=rank.dtype)
    for b in range(0, s, _BLOCK):
        slots[b:b + _BLOCK] = rank[keys[slots[b:b + _BLOCK]]]
    del keys, first, rank
    vertices = np.empty((len(rows), 3))
    vertices[m:] = caps[rows[m:] - nv]
    del caps
    np.take(mesh.vertices, rows[:m], axis=0, out=vertices[:m], mode="clip")
    # a triangle whose corners weld together is dropped
    a, b, c = triangles.T
    good = (a != b) & (b != c) & (c != a)
    if not good.all():
        triangles = triangles[good]
    return TriangleMesh(vertices, triangles, mesh.level)


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
    return [np.array(line, dtype=float) for line in polylines]


def slice_contour(grid: DensityGrid, levels) -> list[ContourSet]:
    """Contours of the x=0 plane restricted to the quadrant y,z >= 0.

    Levels are percentages of the rescaled field's peak; the level 100
    set degenerates to at most isolated points and yields no polylines.
    """
    if not grid.rescaled:
        raise ValueError("slice_contour requires a rescaled grid")
    plane = grid.octant[0]
    q = grid.spec.coords()[-len(plane):]
    out = []
    for level in levels:
        _check_contour_level(level)
        segs = _march_squares(plane, q, q, float(level), _SEG_TABLE)
        segs = segs[(segs[:, 0] != segs[:, 1]).any(axis=1)].tolist()
        out.append(ContourSet(float(level), _chain_segments(
            [(tuple(p0), tuple(p1)) for p0, p1 in segs])))
    return out


def pole_concentration(grid: DensityGrid, level: float) -> float:
    """Mean |z|/r over supra-level lattice voxels (r = 0 excluded), taken
    over the octant with each voxel weighted by the lattice voxels it
    stands for."""
    if not grid.rescaled:
        raise ValueError("pole_concentration requires a rescaled grid")
    supra = grid.octant >= level
    if not supra.any():
        raise ValueError(f"empty supra-level set at level {level}")
    supra[0, 0, 0] = False  # the origin, the one voxel at r = 0
    if not supra.any():
        raise ValueError(f"supra-level set at level {level} is only the origin")
    q, w = grid.spec.coords()[-len(supra):], grid.spec.multiplicity()
    ii, jj, kk = np.nonzero(supra)
    weight = w[ii] * w[jj] * w[kk]
    x, y, z = q[ii], q[jj], q[kk]
    del supra, ii, jj, kk  # to bound the peak
    return float(np.average(z / np.sqrt(x * x + y * y + z * z),
                            weights=weight))


# ------------------------------------------------------------- mesh checks

def is_watertight(mesh: TriangleMesh) -> bool:
    """True when every undirected edge belongs to exactly 2 triangles."""
    # each edge (a < b) as one int64 key a*nv + b: a 1-D unique is fast
    a, b = np.sort(mesh.triangles.astype(np.int64)[:, [0, 1, 1, 2, 2, 0]]
                   .reshape(-1, 2), axis=1).T
    _, counts = np.unique(a * len(mesh.vertices) + b, return_counts=True)
    return len(counts) > 0 and bool((counts == 2).all())
