"""Writers: byte-identical to one _sig call per value, written atomically."""

import errno
import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

import rscp.cli as cli
from conftest import make_rpv_grid
from rscp.cli import (EXIT_IO, _metadata_line, _obj_chunks, _sig,
                      _slice_chunks, _vtk_chunks, _write, main)
from rscp.density import DensityGrid, GridSpec
from rscp.states import PotentialParams, StateLabels
from rscp.surface import (TriangleMesh, apply_cutaway, marching_cubes,
                          slice_contour)

# ------------------------------------------- reference: one _sig per value


def reference_vtk(grid):
    spec = grid.spec
    n = spec.n_points
    h, d = spec.half_extent, spec.spacing
    header = [
        "# vtk DataFile Version 3.0",
        _metadata_line(grid.labels, grid.params)
        + (" field=rpv" if grid.rescaled else " field=density"),
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {n} {n} {n}",
        f"ORIGIN {_sig(-h)} {_sig(-h)} {_sig(-h)}",
        f"SPACING {_sig(d)} {_sig(d)} {_sig(d)}",
        f"POINT_DATA {n ** 3}",
        "SCALARS density float 1",
        "LOOKUP_TABLE default",
    ]
    rows = grid.values.ravel(order="F").reshape(n * n, n)
    lines = [" ".join(_sig(v) for v in row) for row in rows]
    return "\n".join(header + lines) + "\n"


def reference_obj(mesh, labels, params, cutaway):
    lines = [
        "# " + _metadata_line(labels, params),
        f"# level {_sig(mesh.level)} cutaway {int(cutaway)}",
    ]
    for v in mesh.vertices:
        lines.append(f"v {_sig(v[0])} {_sig(v[1])} {_sig(v[2])}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    return "\n".join(lines) + "\n"


def reference_slice(contours, labels, params):
    lines = [
        "# " + _metadata_line(labels, params),
        "level,polyline,vertex,y,z",
    ]
    for cs in contours:
        for pi, line in enumerate(cs.polylines):
            for vi, (y, z) in enumerate(line):
                lines.append(f"{_sig(cs.level)},{pi},{vi},{_sig(y)},{_sig(z)}")
    return "\n".join(lines) + "\n"


LABELS = StateLabels(3, 2, 1)
PARAMS = PotentialParams(1.0, 0.5, 0.5)


@pytest.fixture(scope="module")
def real_grid():
    return make_rpv_grid(LABELS, PARAMS, 31)


def random_grid(n=9, seed=7):
    """A random octant: repeats, both zeros, a subnormal and 100.0 present."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.uniform(-5.0, 100.0, 40),
                           [0.0, -0.0, 5e-324, 2.5e-310, 100.0, 1.0 / 3.0]])
    octant = rng.choice(pool, size=((n + 1) // 2,) * 3)
    # a file row mirrors octant[:, j, k]; these two are equal as floats only
    octant[:, 1, 0] = octant[:, 0, 0]
    octant[0, 0, 0], octant[0, 1, 0] = 0.0, -0.0
    octant[:, 2, 0] = octant[:, 0, 0]            # a repeated row
    octant[2, 0, 0] = 5e-324
    return DensityGrid(GridSpec(n, 3.7), octant, 100.0, LABELS, PARAMS,
                       rescaled=True)


def test_vtk_matches_reference_on_real_grid(real_grid):
    assert "".join(_vtk_chunks(real_grid)) == reference_vtk(real_grid)


def test_vtk_matches_reference_on_random_grid():
    grid = random_grid()
    text = "".join(_vtk_chunks(grid))
    assert text == reference_vtk(grid)
    words = set(text.split())
    assert {"0", "-0", _sig(5e-324), "100"} <= words


def test_vtk_streams_in_blocks(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    grid = random_grid()
    chunks = list(_vtk_chunks(grid))
    assert len(chunks) == 1 + -(-9 * 9 // 4)
    assert "".join(chunks) == reference_vtk(grid)


def voxel_by_voxel_rows(grid):
    """The file rows, each voxel read from the octant at |i - c| and
    formatted on its own."""
    n = grid.spec.n_points
    c = (n - 1) // 2
    return [" ".join(f"{grid.octant[abs(x - c), abs(y - c), abs(z - c)]:.9g}"
                     for x in range(n))
            for z in range(n) for y in range(n)]


def formatted_shape(monkeypatch, grid):
    """The shape of the block the VTK writer formats; checks its text too."""
    shapes = []

    def spy(values):
        shapes.append(values.shape)
        return distinct_words(values)
    distinct_words = cli._distinct_words
    monkeypatch.setattr(cli, "_distinct_words", spy)
    text = "".join(_vtk_chunks(grid))
    assert text.splitlines()[10:] == voxel_by_voxel_rows(grid)
    return shapes[0]


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (5, 2), (7, 3), (7, 4),
                                     (9, 5), (11, 6), (15, 7)])
def test_vtk_formats_a_random_octant_once(monkeypatch, n, seed):
    """Random octants with both zeros and values 1 ulp apart whose texts
    differ: every voxel prints its octant value, formatted from the octant."""
    rng = np.random.default_rng(seed)
    lo, hi = np.nextafter(1.234567895, 0.0), 1.234567895
    assert _sig(lo) != _sig(hi)
    pool = np.concatenate([rng.uniform(0.0, 100.0, 20), [0.0, -0.0, lo, hi]])
    octant = rng.choice(pool, size=((n + 1) // 2,) * 3)
    octant[0, 0, 0], octant[-1, -1, -1] = -0.0, 0.0
    grid = DensityGrid(GridSpec(n, 2.5), octant, 100.0, LABELS, PARAMS,
                       rescaled=True)
    assert formatted_shape(monkeypatch, grid) == octant.shape
    assert {"0", "-0"} <= set("".join(_vtk_chunks(grid)).split())


def test_vtk_formats_a_real_grid_from_one_octant(monkeypatch, real_grid):
    assert formatted_shape(monkeypatch, real_grid) == (16, 16, 16)


def test_vtk_writer_memory_stays_near_the_grid():
    """Draining the writer allocates less than 2.5 times the grid."""
    grid = make_rpv_grid(StateLabels(6, 5, 0), PARAMS, 101)
    tracemalloc.start()
    try:
        for _ in _vtk_chunks(grid):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * grid.values.nbytes


def test_obj_matches_reference(real_grid):
    for cutaway in (False, True):
        mesh = marching_cubes(real_grid, 30.0)
        if cutaway:
            mesh = apply_cutaway(mesh, real_grid)
        assert ("".join(_obj_chunks(mesh, LABELS, PARAMS, cutaway))
                == reference_obj(mesh, LABELS, PARAMS, cutaway))


def test_obj_streams_in_blocks(monkeypatch, real_grid):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    mesh = marching_cubes(real_grid, 30.0)
    chunks = list(_obj_chunks(mesh, LABELS, PARAMS, False))
    assert len(chunks) == (1 + -(-len(mesh.vertices) // 4)
                           + -(-len(mesh.triangles) // 4))
    assert "".join(chunks) == reference_obj(mesh, LABELS, PARAMS, False)


def test_obj_keeps_negative_zero():
    verts = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5], [2.0, 0.0, -0.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [2, 1, 0]]), 25.0)
    text = "".join(_obj_chunks(mesh, LABELS, PARAMS, False))
    assert text == reference_obj(mesh, LABELS, PARAMS, False)
    assert "v 0 -0 1.5\nv -0 0 1.5\n" in text
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                         25.0)
    assert ("".join(_obj_chunks(empty, LABELS, PARAMS, True))
            == reference_obj(empty, LABELS, PARAMS, True))


def test_slice_matches_reference(real_grid):
    contours = slice_contour(real_grid, [10.0, 35.5, 90.0])
    assert ("".join(_slice_chunks(contours, LABELS, PARAMS))
            == reference_slice(contours, LABELS, PARAMS))


# ------------------------------------------------------------ atomic writes


def _failing_after_first_chunk(real_chunks):
    """Wrap a writer so it raises a disk-full error after one chunk."""
    def writer(*args):
        chunks = real_chunks(*args)
        yield next(chunks)
        raise OSError(errno.ENOSPC, "No space left on device")
    return writer


def _tmp_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def test_write_replaces_target_only_when_complete(tmp_path, capsys):
    target = tmp_path / "out.txt"
    _write(["a", "b\n"], target)
    assert target.read_text() == "ab\n"

    def broken():
        yield "partial"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        _write(broken(), target)
    assert target.read_text() == "ab\n"
    assert _tmp_files(tmp_path) == []
    _write(["to stdout\n"], None)
    assert capsys.readouterr().out == "to stdout\n"


def test_write_follows_symlink_and_writes_pipes_in_place(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real)
    _write(["new\n"], link)
    assert link.is_symlink() and real.read_text() == "new\n"

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    _write(["through ", "a pipe\n"], fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through a pipe\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("previous", [None, b"old bytes\n"])
def test_cli_output_is_atomic(tmp_path, capsys, monkeypatch, previous):
    monkeypatch.setattr(cli, "_vtk_chunks",
                        _failing_after_first_chunk(cli._vtk_chunks))
    target = tmp_path / "d.vtk"
    if previous is not None:
        target.write_bytes(previous)
    code = main(["grid", "--n", "2", "--l", "1", "--m", "0", "--N", "11",
                 "--output", str(target)])
    assert code == EXIT_IO
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "OSError"
    if previous is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == previous
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("previous", [None, b"old bytes\n"])
def test_sweep_output_is_atomic(tmp_path, capsys, monkeypatch, previous):
    monkeypatch.setattr(cli, "_obj_chunks",
                        _failing_after_first_chunk(cli._obj_chunks))
    out = tmp_path / "out"
    out.mkdir()
    target = out / "run_000_n2l1m0.obj"
    if previous is not None:
        target.write_bytes(previous)
    job = {"output_dir": str(out), "workers": 2, "runs": [
        {"n": 2, "l": 1, "m": 0, "outputs": ["isosurface"],
         "grid": {"n_points": 15}},
        {"n": 2, "l": 1, "m": 0, "outputs": ["slice"],
         "grid": {"n_points": 15}}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["sweep", "--jobs", str(path)])
    assert code == EXIT_IO
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["io_error", "ok"]
    assert "No space left" in runs[0]["reason"]
    assert (out / "run_001_n2l1m0_slice.csv").exists()
    if previous is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == previous
    assert _tmp_files(out) == []
