"""Isosurface extraction, octant cutaway, plane contours, shape metrics."""

import hashlib
import math

import numpy as np
import pytest

from _mesh import connected_components, surface_area
from conftest import make_rpv_grid
from test_writers import reference_obj
from rscp._mc_tables import CORNER_OFFSETS, CUBE_TRIANGLES, EDGE_CORNERS
from rscp.cli import _obj_chunks
from rscp.density import _MAX_POINTS, DensityGrid, GridSpec, normalize_relative
from rscp.states import PotentialParams, StateLabels
from rscp import surface
from rscp.surface import (_AREA_EPS, _CAP_TABLE, _CASE_CROSSED, _TRI_COUNT,
                          ContourSet, TriangleMesh, _active_cells,
                          _cap_triangles, _position_keys, _weld,
                          apply_cutaway, is_watertight,
                          marching_cubes, pole_concentration, slice_contour)

# ------------------------- reference: per-cell loop and position-dict weld

_CORNERS = [tuple(ofs) for ofs in CORNER_OFFSETS.tolist()]
_EDGE_AB = [(int(EDGE_CORNERS[0, e]), int(EDGE_CORNERS[1, e]))
            for e in range(12)]
_CASE_EDGES = [tuple(e for e, (a, b) in enumerate(_EDGE_AB)
                     if (case >> a & 1) != (case >> b & 1))
               for case in range(256)]
_CASE_TRIS = [tuple(tuple(row[t:t + 3]) for t in range(0, 15, 3) if row[t] >= 0)
              for row in CUBE_TRIANGLES.tolist()]


def reference_area(p0, p1, p2):
    ux, uy, uz = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    vx, vy, vz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)


def reference_clip_halfspace(poly, f):
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


def reference_active_cells(grid, level):
    """The lattice-wide classification from the mirrored N^3 values: each
    crossed cell's lower corner as a flat lattice index, and its case."""
    n = grid.spec.n_points
    m = n - 1
    below = grid.values < level
    case = np.zeros((m, m, m), dtype=np.uint8)
    for v, (dx, dy, dz) in enumerate(_CORNERS):
        case |= below[dx:dx + m, dy:dy + m, dz:dz + m].astype(np.uint8) << v
    cells = np.flatnonzero((case != 0) & (case != 255))
    corner = np.ravel_multi_index(np.unravel_index(cells, (m, m, m)),
                                  (n, n, n))
    return corner, case.ravel()[cells]


def reference_weld(keys):
    """First-appearance numbering through np.unique."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def reference_marching_cubes(grid, level):
    vals = grid.values
    n = grid.spec.n_points
    coords = grid.spec.coords().tolist()

    below = vals < level
    m = n - 1
    index = np.zeros((m, m, m), dtype=np.int32)
    for v, (dx, dy, dz) in enumerate(_CORNERS):
        index |= below[dx:dx + m, dy:dy + m, dz:dz + m].astype(np.int32) << v
    active = np.argwhere((index != 0) & (index != 255))

    vertices, vindex, triangles = [], {}, []
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
            edge_vertex[e] = vid
        for e0, e1, e2 in _CASE_TRIS[case]:
            i0, i1, i2 = edge_vertex[e0], edge_vertex[e1], edge_vertex[e2]
            if i0 == i1 or i1 == i2 or i0 == i2:
                continue
            if reference_area(vertices[i0], vertices[i1], vertices[i2]) < _AREA_EPS:
                continue
            triangles.append((i0, i1, i2))

    return TriangleMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                        np.array(triangles, dtype=np.int32).reshape(-1, 3),
                        float(level))


def reference_apply_cutaway(mesh, grid):
    verts = [tuple(v) for v in mesh.vertices.tolist()]
    changed = False
    corners = mesh.vertices[mesh.triangles]
    reach = ((corners[:, :, 0] < 0.0).any(axis=1)
             & (corners[:, :, 1] < 0.0).any(axis=1)
             & (corners[:, :, 2] > 0.0).any(axis=1))
    new_tris = []
    for (i0, i1, i2), reaches in zip(mesh.triangles.tolist(), reach.tolist()):
        if not reaches:
            new_tris.append(("old", (i0, i1, i2)))
            continue
        tri = (verts[i0], verts[i1], verts[i2])
        part = reference_clip_halfspace(list(tri), lambda p: -p[0])
        part = reference_clip_halfspace(part, lambda p: -p[1])
        part = reference_clip_halfspace(part, lambda p: p[2])
        area = sum(reference_area(part[0], part[i], part[i + 1])
                   for i in range(1, len(part) - 1))
        n = float(len(part))
        if area < _AREA_EPS or not (sum(p[0] for p in part) / n < 0.0
                                    and sum(p[1] for p in part) / n < 0.0
                                    and sum(p[2] for p in part) / n > 0.0):
            new_tris.append(("old", (i0, i1, i2)))
            continue
        changed = True
        pieces = [
            [lambda p: p[0]],
            [lambda p: -p[0], lambda p: p[1]],
            [lambda p: -p[0], lambda p: -p[1], lambda p: -p[2]],
        ]
        for halfspaces in pieces:
            poly = list(tri)
            for f in halfspaces:
                poly = reference_clip_halfspace(poly, f)
            for t in range(1, len(poly) - 1):
                piece = (poly[0], poly[t], poly[t + 1])
                if reference_area(*piece) >= _AREA_EPS:
                    new_tris.append(("new", piece))
    if not changed:
        return mesh

    out_vertices, vindex, out_triangles = [], {}, []

    def add_vertex(pos):
        vid = vindex.get(pos)
        if vid is None:
            vid = len(out_vertices)
            vindex[pos] = vid
            out_vertices.append(pos)
        return vid

    for kind, item in new_tris:
        if kind == "old":
            ids = tuple(add_vertex(verts[i]) for i in item)
        else:
            ids = tuple(add_vertex(p) for p in item)
        if ids[0] != ids[1] and ids[1] != ids[2] and ids[0] != ids[2]:
            out_triangles.append(ids)
    for tri in _cap_triangles(grid, mesh.level).tolist():
        ids = tuple(add_vertex(tuple(p)) for p in tri)
        if ids[0] != ids[1] and ids[1] != ids[2] and ids[0] != ids[2]:
            out_triangles.append(ids)

    return TriangleMesh(np.array(out_vertices, dtype=float).reshape(-1, 3),
                        np.array(out_triangles, dtype=np.int32).reshape(-1, 3),
                        mesh.level)


# ------------------- reference: per-cell marching squares for caps and slices

def reference_fan(poly):
    fan = ((poly[0], poly[t], poly[t + 1]) for t in range(1, len(poly) - 1))
    return [tri for tri in fan if reference_area(*tri) >= _AREA_EPS]


def reference_fill_polygons(f00, f10, f11, f01, level):
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
        a = 0 if mask == 0b0101 else 1
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


def reference_cap_triangles(grid, level):
    spec = grid.spec
    c = (spec.n_points - 1) // 2
    coords = spec.coords().tolist()
    vals = grid.values
    n = spec.n_points
    caps = []
    planes = [
        (vals[c, :, :], range(0, c), range(c, n - 1),
         lambda u, v: (0.0, u, v)),
        (vals[:, c, :], range(0, c), range(c, n - 1),
         lambda u, v: (u, 0.0, v)),
        (vals[:, :, c], range(0, c), range(0, c),
         lambda u, v: (u, v, 0.0)),
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
                for poly in reference_fill_polygons(f00, f10, f11, f01, level):
                    caps += reference_fan([embed(ua0 + p[0] * (ua1 - ua0),
                                                 ub0 + p[1] * (ub1 - ub0))
                                           for p in poly])
    return caps


_SEG_CASES = {
    0b0001: [(3, 0)], 0b0010: [(0, 1)], 0b0100: [(1, 2)], 0b1000: [(2, 3)],
    0b0011: [(3, 1)], 0b0110: [(0, 2)], 0b1100: [(1, 3)], 0b1001: [(2, 0)],
    0b1110: [(3, 0)], 0b1101: [(0, 1)], 0b1011: [(1, 2)], 0b0111: [(2, 3)],
}


def reference_slice_segments(grid, level):
    """The segments slice_contour chains at one level, as point pairs."""
    c = (grid.spec.n_points - 1) // 2
    F = grid.values[c, c:, c:]
    q = grid.spec.coords()[c:].tolist()
    nu, nv = F.shape
    segments = []
    for a in range(nu - 1):
        for b in range(nv - 1):
            fs = (float(F[a, b]), float(F[a + 1, b]),
                  float(F[a + 1, b + 1]), float(F[a, b + 1]))
            mask = sum(1 << i for i in range(4) if fs[i] >= level)
            if mask in (0, 0b1111):
                continue
            corners = ((q[a], q[b]), (q[a + 1], q[b]),
                       (q[a + 1], q[b + 1]), (q[a], q[b + 1]))

            def edge_point(e):
                i, j = e, (e + 1) % 4
                if corners[j] < corners[i]:
                    i, j = j, i
                t = (level - fs[i]) / (fs[j] - fs[i])
                return (corners[i][0] + t * (corners[j][0] - corners[i][0]),
                        corners[i][1] + t * (corners[j][1] - corners[i][1]))

            if mask in (0b0101, 0b1010):
                inside_center = 0.25 * sum(fs) >= level
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


def assert_same_caps_and_segments(grid, level, monkeypatch):
    """Cap triangles and slice segments equal the reference loops' bitwise."""
    got = _cap_triangles(grid, level)
    want = np.array(reference_cap_triangles(grid, level),
                    dtype=float).reshape(-1, 3, 3)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    chained = []
    monkeypatch.setattr(surface, "_chain_segments",
                        lambda segments: chained.append(segments) or [])
    slice_contour(grid, [level])
    got, want = chained[0], reference_slice_segments(grid, float(level))
    assert len(got) == len(want)
    assert (np.array(got, dtype=float).reshape(-1, 2, 2).tobytes()
            == np.array(want, dtype=float).reshape(-1, 2, 2).tobytes())


def assert_same_mesh(got, want):
    for name in ("vertices", "triangles"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.level == want.level


def assert_no_triangle_crosses_an_axis_plane(mesh):
    """The premise of the whole-triangle cutaway: no triangle has vertices
    strictly on both sides of x = 0, y = 0 or z = 0."""
    corners = mesh.vertices[mesh.triangles]
    below = (corners < 0.0).any(axis=1)
    above = (corners > 0.0).any(axis=1)
    assert not (below & above).any()


def synthetic_grid(n=41, h=2.0, center=(0.0, 0.0, 0.0), radius=1.0):
    """Cone field 100*max(0, 1 - d/radius) on the octant, d the distance to
    center: the level L isosurface is the sphere of radius
    radius*(1 - L/100) around center and its mirror images."""
    spec = GridSpec(n, h)
    c = spec.coords()[(n - 1) // 2:]
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    d = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2
                + (z - center[2]) ** 2)
    octant = 100.0 * np.maximum(0.0, 1.0 - d / radius)
    return DensityGrid(spec=spec, octant=octant, rescaled=True)


# ------------------------------------------------------------ marching cubes


def test_empty_mesh_from_empty_level_set():
    spec = GridSpec(9, 1.0)
    octant = np.zeros((5, 5, 5))
    octant[0, 0, 0] = 100.0   # the center voxel
    grid = DensityGrid(spec=spec, octant=octant, rescaled=True)
    mesh = marching_cubes(grid, 99.5)
    # the 100 spike is a single lattice point: tiny octahedron, not empty
    assert len(mesh.triangles) == 8
    everywhere_low = DensityGrid(spec=spec, octant=np.full((5, 5, 5), 5.0),
                                 rescaled=True)
    empty = marching_cubes(everywhere_low, 50.0)
    assert len(empty.triangles) == 0
    assert_same_mesh(empty, reference_marching_cubes(everywhere_low, 50.0))
    assert empty.vertices.shape == (0, 3) and empty.triangles.shape == (0, 3)
    assert apply_cutaway(empty, everywhere_low) is empty


def test_case_table_decodes_to_the_polygonise_table():
    """The hex-string rows decode to the classic (256, 16) int32 table."""
    assert CUBE_TRIANGLES.shape == (256, 16)
    assert CUBE_TRIANGLES.dtype == np.int32
    assert hashlib.sha256(CUBE_TRIANGLES.tobytes()).hexdigest() == (
        "85e6eb7486ad0101a95aaf3b332a15ba6e5d187a24d31c5eb77874d3aa45d996")


def test_crossed_edges_are_the_edges_triangulated():
    for case in range(256):
        crossed = set(np.flatnonzero(_CASE_CROSSED[case]))
        used = {e for e in CUBE_TRIANGLES[case].tolist() if e >= 0}
        assert crossed == used, case


REAL_CASES = [
    ((6, 5, 0), (1.0, 0.5, 0.5), 101, (50.0, 99.9)),
    ((6, 5, 0), (1.0, 0.5, 0.5), 41, (5.0, 10.0)),
    ((3, 2, 1), (1.0, 0.5, 0.5), 15, (5.0, 30.0, 99.9)),
    ((2, 1, 0), (2.0, 0.3, 0.7), 41, (20.0,)),
    ((4, 3, -2), (1.0, 0.5, 0.5), 41, (5.0, 35.0)),
    # half-extent about 1988: the clip's prev + 1*(cur - prev) is not exact
    # there, so a rounding sliver of the reference would show
    ((30, 10, 3), (1.0, 2.0, 0.0), 51, (5.0, 50.0)),
]


@pytest.mark.parametrize("state, params, n_points, levels", REAL_CASES)
def test_matches_reference_loops_on_real_grids(state, params, n_points, levels):
    grid = make_rpv_grid(StateLabels(*state), PotentialParams(*params),
                         n_points)
    for level in levels:
        mesh = marching_cubes(grid, level)
        want = reference_marching_cubes(grid, level)
        assert_same_mesh(mesh, want)
        assert_no_triangle_crosses_an_axis_plane(mesh)
        cut = apply_cutaway(mesh, grid)
        assert cut is not mesh
        assert_same_mesh(cut, reference_apply_cutaway(want, grid))
        assert apply_cutaway(cut, grid) is cut


def random_octant_grid(rng, n_points, level):
    """Octant voxels drawn from the level, its float neighbours, 0, 100
    and three uniform values."""
    pool = [level, np.nextafter(level, -np.inf), np.nextafter(level, np.inf),
            0.0, 100.0, *rng.uniform(0.0, 100.0, 3)]
    spec = GridSpec(n_points, float(rng.choice([1.0, 3.7])))
    c = (n_points + 1) // 2
    return DensityGrid(spec, rng.choice(pool, size=(c, c, c)), rescaled=True)


@pytest.mark.parametrize("n_points", [3, 5, 7, 9])
@pytest.mark.parametrize("seed", range(12))
def test_matches_reference_loops_with_voxels_at_the_level(seed, n_points):
    """Crossings landing exactly on grid points weld across edges; the
    small grids put most cells on the octant boundary, in all 8 mirror
    images."""
    rng = np.random.default_rng(seed)
    level = float(rng.choice([5.0, 50.0, 1.0 / 3.0]))
    grid = random_octant_grid(rng, n_points, level)
    mesh = marching_cubes(grid, level)
    want = reference_marching_cubes(grid, level)
    assert_same_mesh(mesh, want)
    assert_no_triangle_crosses_an_axis_plane(mesh)
    cut = apply_cutaway(mesh, grid)
    assert_same_mesh(cut, reference_apply_cutaway(want, grid))
    assert apply_cutaway(cut, grid) is cut


def assert_same_active_cells(grid, level):
    got, want = _active_cells(grid, level), reference_active_cells(grid, level)
    for a, b in zip(got, want):
        assert (a.dtype.kind, a.shape) == (b.dtype.kind, b.shape)
        assert (a == b).all()


@pytest.mark.parametrize("n_points", [3, 5, 7, 15])
@pytest.mark.parametrize("seed", range(6))
def test_active_cells_match_the_lattice_classification(seed, n_points):
    rng = np.random.default_rng(100 + seed)
    level = float(rng.choice([5.0, 50.0, 1.0 / 3.0]))
    grid = random_octant_grid(rng, n_points, level)
    assert_same_active_cells(grid, level)
    assert_same_active_cells(grid, 99.9)


@pytest.mark.parametrize("level", [5.0, 50.0, 99.9])
def test_active_cells_match_the_lattice_classification_on_a_real_grid(
        ring_650_grid, level):
    assert_same_active_cells(ring_650_grid, level)


def test_weld_numbers_by_first_appearance():
    rng = np.random.default_rng(7)
    for keys in ([], [5], [3, 3, 1, 3, 1, 0], rng.integers(0, 50, 1000),
                 rng.integers(0, 2**40, 1000), np.repeat(rng.integers(
                     0, 10**9, 300), 4)[rng.permutation(1200)]):
        keys = np.asarray(keys, dtype=np.int64)
        for got, want in zip(_weld(keys), reference_weld(keys)):
            assert got.shape == want.shape and (got == want).all()


def test_meshes_index_with_int32():
    grid = synthetic_grid(n=31, h=2.0, radius=1.5)
    mesh = marching_cubes(grid, 35.0)
    cut = apply_cutaway(mesh, grid)
    assert cut is not mesh
    assert mesh.triangles.dtype == cut.triangles.dtype == np.int32


def test_the_point_cap_keeps_surface_indices_in_int32():
    """Fails if _MAX_POINTS grows past what int32 indices hold.  At the cap
    every lattice cell may be crossed, with 12 crossed edges and 5
    triangles; the cutaway numbers 3 slots per kept triangle and one per
    cap point, at most _CAP_TABLE's rows of 3 points in each cell of the 3
    boundary planes, and stores the slot count itself as a sentinel.
    Marching cubes keys an edge 3 p + axis and a grid point 3 n^3 + p, for
    a lattice point p < n^3, so every int32 key stays below 4 n^3."""
    cells, c = (_MAX_POINTS - 1) ** 3, (_MAX_POINTS - 1) // 2
    cap_points = 3 * c * c * _CAP_TABLE.shape[1] * 3
    assert 12 * cells < 2**31
    assert 3 * int(_TRI_COUNT.max()) * cells + cap_points < 2**31
    assert 4 * _MAX_POINTS**3 < 2**31


def test_position_keys_are_dense_and_equal_for_equal_rows():
    rng = np.random.default_rng(11)
    pool = [0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, np.nextafter(1.5, 2.0)]
    for points in (rng.choice(pool, size=(400, 3)), np.zeros((1, 3)),
                   rng.uniform(-1.0, 1.0, (50, 3))):
        keys = _position_keys(points)
        assert sorted(set(keys.tolist())) == list(range(keys.max() + 1))
        equal = (points[:, None] == points[None, :]).all(axis=2)
        assert ((keys[:, None] == keys[None, :]) == equal).all()


def test_cutaway_welds_signed_zeros_together():
    grid = synthetic_grid(n=15, h=2.0, radius=1.5)
    mesh = marching_cubes(grid, 30.0)
    # a copy of every vertex with its zero coordinates negated; odd
    # triangles use the copies, so each zero vertex comes in two spellings
    flipped = np.where(mesh.vertices == 0.0, -0.0, mesh.vertices)
    assert np.signbit(flipped[flipped == 0.0]).all() and (flipped == 0.0).any()
    nv = len(mesh.vertices)
    triangles = mesh.triangles.copy()
    triangles[1::2] += nv
    # and one triangle joins two spellings of a vertex: it welds degenerate
    a, b, _ = mesh.triangles[0]
    triangles = np.vstack([triangles, [a, a + nv, b]])
    doubled = TriangleMesh(np.vstack([mesh.vertices, flipped]), triangles,
                           mesh.level)
    cut = apply_cutaway(doubled, grid)
    assert_same_mesh(cut, reference_apply_cutaway(doubled, grid))


def test_cutaway_keeps_rows_one_ulp_apart_distinct():
    """Rows equal as floats weld, rows 1 ulp apart in one coordinate do
    not, whichever column differs."""
    grid = synthetic_grid(n=15, h=2.0, radius=1.5)
    mesh = marching_cubes(grid, 30.0)
    nv = len(mesh.vertices)
    for a in range(3):
        v = mesh.vertices[:, a]
        nudged = mesh.vertices.copy()
        nudged[:, a] = np.where(v == 0.0, v, np.nextafter(v, 2.0 * v))
        assert (nudged != mesh.vertices).any(axis=1).sum() > nv // 2
        triangles = mesh.triangles.copy()
        triangles[1::2] += nv
        doubled = TriangleMesh(np.vstack([mesh.vertices, nudged]),
                               triangles, mesh.level)
        cut = apply_cutaway(doubled, grid)
        assert_same_mesh(cut, reference_apply_cutaway(doubled, grid))
        single = apply_cutaway(mesh, grid)
        assert len(cut.vertices) > len(single.vertices)


@pytest.mark.parametrize("distinct", [1, 7, 300, surface._BLOCK])
def test_repeated_index_assignment_keeps_the_last_write(distinct):
    """Canary for the cutaway weld: apply_cutaway finds each vertex's first
    slot by writing a block of slots in reverse, so that of the writes to a
    repeated index the last one, the first slot, is kept.  numpy documents
    no order for repeated indices in an advanced assignment; this pins what
    it does today, with the same int32 arrays over one block."""
    rng = np.random.default_rng(distinct)
    keys = rng.integers(0, distinct, size=3 * surface._BLOCK, dtype=np.int32)
    b, e = surface._BLOCK, 2 * surface._BLOCK
    first = np.full(distinct, len(keys), np.int32)
    first[keys[b:e][::-1]] = np.arange(e - 1, b - 1, -1, dtype=first.dtype)
    seen, at = np.unique(keys[b:e], return_index=True)
    assert np.array_equal(first[seen], b + at), (
        "numpy no longer keeps the last of repeated writes in an advanced"
        " assignment; apply_cutaway's weld relies on it to find each"
        " vertex's first slot")


# five states from hydrogen to strong barriers, each at its own N
SCAN_CASES = [
    ((2, 1, 0), (1.0, 0.0, 0.0), 61),
    ((3, 2, 1), (1.0, 0.5, 0.5), 31),
    ((4, 3, -2), (1.0, 0.5, 0.5), 37),
    ((5, 3, 2), (1.0, 0.5, 5.0), 45),
    ((6, 5, 0), (1.0, 0.5, 0.5), 53),
]


@pytest.mark.parametrize("state, params, n_points", SCAN_CASES)
def test_surface_and_obj_match_the_references_at_the_figure_levels(
        state, params, n_points):
    """marching_cubes, apply_cutaway and the OBJ text at the levels the
    paper's figures use, bit for bit against the per-cell loop, the
    clipping loop and one %.9g per value."""
    labels, params = StateLabels(*state), PotentialParams(*params)
    grid = make_rpv_grid(labels, params, n_points)
    for level in (5.0, 8.0, 13.0, 20.0, 50.0):
        mesh = marching_cubes(grid, level)
        want = reference_marching_cubes(grid, level)
        assert_same_mesh(mesh, want)
        cut = apply_cutaway(mesh, grid)
        assert_same_mesh(cut, reference_apply_cutaway(want, grid))
        for got, cutaway in ((mesh, False), (cut, True)):
            assert ("".join(_obj_chunks(got, labels, params, cutaway))
                    == reference_obj(got, labels, params, cutaway))


def test_cutaway_rejects_a_triangle_crossing_an_axis_plane():
    grid = synthetic_grid(n=9)
    # vertices on both sides of x = 0 and of y = 0
    mesh = TriangleMesh(np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, -1.0],
                                  [1.0, 1.0, 1.0]]),
                        np.array([[0, 1, 2]]), 50.0)
    with pytest.raises(ValueError, match="crosses the plane x = 0"):
        apply_cutaway(mesh, grid)
    # the first crossed plane in x, y, z order is named
    for vertices, axis in (([[1.0, -1.0, -1.0], [1.0, 1.0, 1.0],
                             [1.0, 1.0, -1.0]], "y"),
                           ([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0],
                             [2.0, 1.0, 1.0]], "z")):
        mesh = TriangleMesh(np.array(vertices), np.array([[0, 1, 2]]), 50.0)
        with pytest.raises(ValueError, match=f"crosses the plane {axis} = 0"):
            apply_cutaway(mesh, grid)


def test_cutaway_keeps_triangles_without_area():
    grid = synthetic_grid(n=9)
    # centroid strictly inside the octant, but the corners are collinear
    mesh = TriangleMesh(np.array([[-1.0, -1.0, 1.0], [-0.5, -0.5, 0.5],
                                  [-0.25, -0.25, 0.25]]),
                        np.array([[0, 1, 2]]), 50.0)
    assert apply_cutaway(mesh, grid) is mesh
    assert reference_apply_cutaway(mesh, grid) is mesh


def test_requires_rescaled_grid_and_valid_level():
    spec = GridSpec(9, 1.0)
    raw = DensityGrid(spec=spec, octant=np.ones((5, 5, 5)))
    with pytest.raises(ValueError, match="marching_cubes requires"):
        marching_cubes(raw, 50.0)
    with pytest.raises(ValueError, match="slice_contour requires"):
        slice_contour(raw, [50.0])
    with pytest.raises(ValueError, match="pole_concentration requires"):
        pole_concentration(raw, 50.0)
    grid = synthetic_grid(n=9)
    with pytest.raises(ValueError):
        marching_cubes(grid, 0.0)
    with pytest.raises(ValueError):
        marching_cubes(grid, 100.0)
    with pytest.raises(ValueError):
        marching_cubes(grid, -3.0)


def test_sphere_radius_and_topology():
    grid = synthetic_grid(n=41, h=2.0, radius=1.5)
    level = 50.0
    mesh = marching_cubes(grid, level)
    assert len(mesh.triangles) > 100
    r = np.linalg.norm(mesh.vertices, axis=1)
    want = 1.5 * (1.0 - level / 100.0)
    assert np.all(np.abs(r - want) < grid.spec.spacing)
    assert is_watertight(mesh)
    assert connected_components(mesh) == 1
    assert mesh.level == level


def test_mesh_z_mirror_symmetry():
    grid = synthetic_grid(n=31, h=2.0, radius=1.4)
    mesh = marching_cubes(grid, 40.0)
    pts = sorted(map(tuple, np.round(mesh.vertices, 9)))
    mirrored = sorted(map(tuple, np.round(mesh.vertices * [1, 1, -1], 9)))
    assert pts == mirrored


def test_levels_nest():
    grid = synthetic_grid(n=41, h=2.0, radius=1.6)
    lo, hi = 30.0, 70.0
    mesh_lo = marching_cubes(grid, lo)
    mesh_hi = marching_cubes(grid, hi)
    r_lo = np.linalg.norm(mesh_lo.vertices, axis=1)
    r_hi = np.linalg.norm(mesh_hi.vertices, axis=1)
    assert r_hi.max() < r_lo.min()
    # every high-level vertex sits inside the lo shell of the cone field
    field = 100.0 * (1.0 - np.linalg.norm(mesh_hi.vertices, axis=1) / 1.6)
    assert field.min() >= lo


def test_surface_area_matches_sphere():
    grid = synthetic_grid(n=61, h=2.0, radius=1.6)
    mesh = marching_cubes(grid, 50.0)
    want = 4.0 * math.pi * 0.8 ** 2
    assert abs(surface_area(mesh) - want) / want < 0.05


def test_triangle_mesh_index_validation():
    with pytest.raises(ValueError):
        TriangleMesh(vertices=np.zeros((2, 3)),
                     triangles=np.array([[0, 1, 2]]), level=50.0)


# ----------------------------------------------------------------- cutaway


def test_cutaway_noop_away_from_octant():
    # a sphere in each octant; the mesh keeps the two at +x, so nothing
    # lies in the -x,-y,+z octant
    grid = synthetic_grid(n=31, h=3.0, center=(1.5, 0.9, 0.9), radius=1.0)
    spheres = marching_cubes(grid, 50.0)
    plus_x = (spheres.vertices[spheres.triangles][:, :, 0] > 0.0).all(axis=1)
    mesh = TriangleMesh(spheres.vertices, spheres.triangles[plus_x], 50.0)
    assert 0 < len(mesh.triangles) < len(spheres.triangles)
    assert apply_cutaway(mesh, grid) is mesh


def test_cutaway_removes_octant_material():
    grid = synthetic_grid(n=41, h=2.0, radius=1.6)
    mesh = marching_cubes(grid, 50.0)
    cut = apply_cutaway(mesh, grid)
    assert cut is not mesh
    # no remaining triangle centroid strictly inside the removed octant
    tri_pts = cut.vertices[cut.triangles]
    centroids = tri_pts.mean(axis=1)
    inside = ((centroids[:, 0] < -1e-12) & (centroids[:, 1] < -1e-12)
              & (centroids[:, 2] > 1e-12))
    assert not inside.any()
    # the octant held material before
    tri_pts0 = mesh.vertices[mesh.triangles]
    c0 = tri_pts0.mean(axis=1)
    assert ((c0[:, 0] < 0) & (c0[:, 1] < 0) & (c0[:, 2] > 0)).any()


def test_cutaway_idempotent():
    grid = synthetic_grid(n=31, h=2.0, radius=1.5)
    cut = apply_cutaway(marching_cubes(grid, 35.0), grid)
    again = apply_cutaway(cut, grid)
    assert again is cut


def test_cutaway_keeps_far_octants_intact():
    grid = synthetic_grid(n=31, h=2.0, radius=1.5)
    mesh = marching_cubes(grid, 35.0)
    cut = apply_cutaway(mesh, grid)
    # vertices with x,y > 0 (kept octants) survive verbatim
    keep = {tuple(v) for v in mesh.vertices if v[0] > 0.05 and v[1] > 0.05}
    have = {tuple(v) for v in cut.vertices}
    assert keep <= have


def test_hydrogen_two_lobes(hydrogen_210_grid):
    mesh = marching_cubes(hydrogen_210_grid, 50.0)
    assert is_watertight(mesh)
    assert connected_components(mesh) == 2


def reference_is_watertight(mesh):
    """The row form: sorted edge pairs counted by np.unique(axis=0)."""
    t = mesh.triangles.astype(np.int64)
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return len(counts) > 0 and bool((counts == 2).all())


def test_is_watertight_matches_row_unique_form(hydrogen_210_grid,
                                               ring_650_grid):
    tetra = TriangleMesh(np.eye(4)[:, :3],
                         np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]]),
                         50.0)
    meshes = {
        "tetrahedron": tetra,
        "open tetrahedron": TriangleMesh(tetra.vertices, tetra.triangles[:3],
                                         50.0),
        "empty": TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int),
                              50.0),
        "sphere": marching_cubes(synthetic_grid(n=31, radius=1.5), 35.0),
        "hydrogen": marching_cubes(hydrogen_210_grid, 50.0),
    }
    for level in (5.0, 20.0, 50.0):
        mesh = marching_cubes(ring_650_grid, level)
        meshes[f"ring {level}"] = mesh
        meshes[f"ring cutaway {level}"] = apply_cutaway(mesh, ring_650_grid)
    answers = {}
    for name, mesh in meshes.items():
        answers[name] = is_watertight(mesh)
        assert answers[name] == reference_is_watertight(mesh), name
    # both answers occur, and the caps leave open seams on some cutaways
    assert answers["tetrahedron"] and answers["sphere"]
    assert not answers["open tetrahedron"] and not answers["empty"]
    assert not all(answers[f"ring cutaway {v}"] for v in (5.0, 20.0, 50.0))


# --------------------------------------------------------- marching squares

MS_STATES = [
    ((6, 5, 0), (1.0, 0.5, 0.5)),
    ((2, 1, 0), (1.0, 0.5, 0.5)),
    ((4, 2, 0), (1.0, 0.0, 0.0)),
    ((5, 2, 1), (1.0, 0.5, 3.0)),
    ((4, 3, -2), (1.0, 0.5, 0.5)),
    ((6, 1, 0), (1.0, 1e-3, 1e-3)),
    ((30, 10, 3), (2.0, 2.0, 0.0)),
]


@pytest.mark.parametrize("n_points", [3, 15, 51, 151])
@pytest.mark.parametrize("state, params", MS_STATES)
def test_caps_and_slices_match_reference_loops_on_real_grids(
        state, params, n_points, monkeypatch):
    grid = make_rpv_grid(StateLabels(*state), PotentialParams(*params),
                         n_points)
    for level in (5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 99.9, 100.0):
        assert_same_caps_and_segments(grid, level, monkeypatch)


@pytest.mark.parametrize("seed", range(200))
def test_caps_and_slices_match_reference_loops_on_random_grids(seed,
                                                               monkeypatch):
    """Corners at the level or 1 ulp either side, 0 and 100 give crossings
    at t = 0 and 1, saddle centers at the level and degenerate segments."""
    rng = np.random.default_rng(seed)
    level = float(rng.choice([5.0, 50.0, 1.0 / 3.0, 100.0]))
    pool = [level, np.nextafter(level, -np.inf), np.nextafter(level, np.inf),
            0.0, 100.0, *rng.uniform(0.0, 100.0, 3)]
    spec = GridSpec(9, float(rng.choice([1.0, 3.7])))
    grid = DensityGrid(spec, rng.choice(pool, size=(5, 5, 5)), rescaled=True)
    assert_same_caps_and_segments(grid, level, monkeypatch)


# ------------------------------------------------------------ plane contour


def test_slice_one_set_per_level(hydrogen_210_grid):
    levels = [10.0 * i for i in range(1, 11)]
    sets = slice_contour(hydrogen_210_grid, levels)
    assert [s.level for s in sets] == levels
    assert all(isinstance(s, ContourSet) for s in sets)


def test_slice_quarter_circle():
    grid = synthetic_grid(n=81, h=2.0, radius=1.6)
    sets = slice_contour(grid, levels=[50.0])
    assert len(sets) == 1
    polys = sets[0].polylines
    assert polys
    pts = np.vstack(polys)
    assert np.all(pts >= -1e-12)          # quadrant coordinates only
    r = np.linalg.norm(pts, axis=1)
    assert np.all(np.abs(r - 0.8) < grid.spec.spacing)


def test_slice_polylines_closed_or_boundary_terminated():
    grid = synthetic_grid(n=61, h=2.0, center=(0.0, 0.3, 0.2), radius=1.4)
    for cs in slice_contour(grid, levels=[30.0, 60.0]):
        for poly in cs.polylines:
            first, last = poly[0], poly[-1]
            closed = np.allclose(first, last)
            on_edge = (min(first) < 1e-9 or min(last) < 1e-9)
            assert closed or on_edge


def test_slice_extreme_levels():
    grid = synthetic_grid(n=41, h=2.0, radius=1.5)
    top = slice_contour(grid, levels=[100.0])
    assert top[0].polylines == [] or all(
        np.linalg.norm(p, axis=1).max() < grid.spec.spacing
        for p in top[0].polylines)
    with pytest.raises(ValueError):
        slice_contour(grid, levels=[0.0])
    with pytest.raises(ValueError):
        slice_contour(grid, levels=[101.0])


def test_slice_empty_plane():
    spec = GridSpec(9, 1.0)
    octant = np.zeros((5, 5, 5))
    octant[3, 3, 3] = 100.0    # off the x=0 plane, as are its mirrors
    grid = DensityGrid(spec=spec, octant=octant, rescaled=True)
    sets = slice_contour(grid, levels=[50.0])
    assert sets[0].polylines == []


# ------------------------------------------------------- pole concentration


def _point_grid(positions):
    """Octant voxels at 100, each with its mirror images."""
    spec = GridSpec(9, 4.0)
    octant = np.zeros((5, 5, 5))
    for ijk in positions:
        octant[ijk] = 100.0
    return DensityGrid(spec=spec, octant=octant, rescaled=True)


def test_pole_concentration_extremes():
    on_axis = _point_grid([(0, 0, 4)])     # lattice (4, 4, 8) and (4, 4, 0)
    assert pole_concentration(on_axis, 50.0) == 1.0
    in_plane = _point_grid([(4, 0, 0), (0, 4, 0)])
    assert pole_concentration(in_plane, 50.0) == 0.0


def test_pole_concentration_origin_and_empty_rejected():
    only_origin = _point_grid([(0, 0, 0)])
    with pytest.raises(ValueError):
        pole_concentration(only_origin, 50.0)
    with pytest.raises(ValueError):
        pole_concentration(_point_grid([]), 50.0)


def test_pole_concentration_monotone_in_level(ring_650_grid):
    vals = [pole_concentration(ring_650_grid, lv)
            for lv in (10.0, 30.0, 50.0, 70.0, 90.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
