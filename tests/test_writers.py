"""Writers: byte-identical to one _sig call per value, written atomically."""

import contextlib
import errno
import io
import json
import os
import stat
import tempfile
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
    if len(octant) > 2:                          # N >= 5
        octant[:, 2, 0] = octant[:, 0, 0]        # a repeated row
        octant[2, 0, 0] = 5e-324
    return DensityGrid(GridSpec(n, 3.7), octant, LABELS, PARAMS,
                       rescaled=True)


def test_vtk_matches_reference_on_real_grid(real_grid):
    assert (b"".join(_vtk_chunks(real_grid))
            == reference_vtk(real_grid).encode())


def test_vtk_matches_reference_on_random_grid():
    grid = random_grid()
    text = b"".join(_vtk_chunks(grid))
    assert text == reference_vtk(grid).encode()
    words = set(text.decode().split())
    assert {"0", "-0", _sig(5e-324), "100"} <= words


@pytest.mark.parametrize("n", [3, 5, 21, 151])
def test_spooled_vtk_matches_reference_to_a_file_and_stdout(tmp_path, n):
    """The mirrored half read back from the spool, through _write to a file
    and to a text stdout: random octants, and the (6,5,0) anchor at 151."""
    grid = (make_rpv_grid(StateLabels(6, 5, 0), PARAMS, n) if n == 151
            else random_grid(n, seed=n))
    expected = reference_vtk(grid)
    target = tmp_path / "grid.vtk"
    _write(_vtk_chunks(grid), target)
    assert target.read_bytes() == expected.encode()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write(_vtk_chunks(grid), None)
    assert buf.getvalue() == expected


def test_vtk_streams_in_blocks():
    """The header, then one chunk per file z-plane of N rows."""
    grid = random_grid()
    chunks = list(_vtk_chunks(grid))
    lines = reference_vtk(grid).encode().splitlines(keepends=True)
    assert len(chunks) == 1 + 9
    assert chunks[0] == b"".join(lines[:10])
    for z, chunk in enumerate(chunks[1:]):
        assert chunk == b"".join(lines[10 + 9 * z:10 + 9 * (z + 1)])


def voxel_by_voxel_rows(grid):
    """The file rows, each voxel read from the octant at |i - c| and
    formatted on its own."""
    n = grid.spec.n_points
    c = (n - 1) // 2
    return [" ".join(f"{grid.octant[abs(x - c), abs(y - c), abs(z - c)]:.9g}"
                     for x in range(n))
            for z in range(n) for y in range(n)]


def assert_formats_the_octant_by_planes(monkeypatch, grid):
    """Each block the VTK writer formats is one octant z-plane, formatted
    from p = c down to 0, the blocks together cover the octant once, and
    every file row is its voxels'."""
    planes = []

    def spy(values):
        planes.append(np.array(values))
        return distinct_words(values)
    distinct_words = cli._distinct_words
    monkeypatch.setattr(cli, "_distinct_words", spy)
    text = b"".join(_vtk_chunks(grid))
    assert text.splitlines()[10:] == [
        row.encode() for row in voxel_by_voxel_rows(grid)]
    octant = np.ascontiguousarray(grid.octant)
    assert all(p.shape == octant.shape[:2] for p in planes)
    stacked = np.stack([p.T for p in planes[::-1]], axis=2)
    assert stacked.shape == octant.shape
    assert (stacked.view(np.uint64) == octant.view(np.uint64)).all()


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
    grid = DensityGrid(GridSpec(n, 2.5), octant, LABELS, PARAMS,
                       rescaled=True)
    assert_formats_the_octant_by_planes(monkeypatch, grid)
    assert {b"0", b"-0"} <= set(b"".join(_vtk_chunks(grid)).split())


def test_vtk_formats_a_real_grid_from_one_octant(monkeypatch, real_grid):
    assert real_grid.octant.shape == (16, 16, 16)
    assert_formats_the_octant_by_planes(monkeypatch, real_grid)


def test_vtk_writer_memory_stays_near_the_grid():
    """Draining the writer allocates less than the octant: it holds about
    one file plane's text at a time (N^2 words of about 13 characters, near
    0.45 octants at N = 101), since the mirrored half is read back from a
    spool file.  Holding every octant row's text took about 3.3 octants."""
    grid = make_rpv_grid(StateLabels(6, 5, 0), PARAMS, 101)
    tracemalloc.start()
    try:
        for _ in _vtk_chunks(grid):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.octant.nbytes


def test_surface_memory_stays_near_the_mesh():
    """marching_cubes then apply_cutaway on the N = 101 anchor at level 5
    allocate less than 3.5 times the marching-cubes mesh; the cutaway
    holds that mesh while it builds its own, about 2.7 in all."""
    grid = make_rpv_grid(StateLabels(6, 5, 0), PARAMS, 101)
    tracemalloc.start()
    try:
        mesh = marching_cubes(grid, 5.0)
        apply_cutaway(mesh, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * (mesh.vertices.nbytes + mesh.triangles.nbytes)


def test_fused_cutaway_allocates_less_than_the_two_step_cutaway():
    """On the N = 101 anchor at level 5, marching_cubes(cutaway=True) never
    holds the uncut mesh, so its tracemalloc peak is below that of
    marching_cubes then apply_cutaway (about 3.1 against 4.0 MiB)."""
    grid = make_rpv_grid(StateLabels(6, 5, 0), PARAMS, 101)

    def peak(stage):
        tracemalloc.start()
        try:
            stage()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fused = peak(lambda: marching_cubes(grid, 5.0, cutaway=True))
    two_step = peak(lambda: apply_cutaway(marching_cubes(grid, 5.0), grid))
    assert fused < two_step


def test_surface_stages_hold_little_beyond_their_arrays():
    """The level-5 cutaway of the (6,5,0) anchor at N = 151, the largest
    mesh of the paper's figures.  Each stage's tracemalloc peak, beyond the
    mesh it returns, stays small: marching_cubes allocates less than its
    mesh again, uncut or with the fused cutaway that every --cutaway
    command runs, apply_cutaway less than half its input mesh beyond its
    own, and draining the OBJ writer less than twice its mesh.  tracemalloc
    counts live bytes, so heap layout does not move these peaks."""
    grid = make_rpv_grid(StateLabels(6, 5, 0), PARAMS, 151)

    def peak(stage):
        tracemalloc.start()
        try:
            return stage(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def size(mesh):
        return mesh.vertices.nbytes + mesh.triangles.nbytes

    mesh, mc_peak = peak(lambda: marching_cubes(grid, 5.0))
    fused, fused_peak = peak(lambda: marching_cubes(grid, 5.0, cutaway=True))
    cut, cut_peak = peak(lambda: apply_cutaway(mesh, grid))
    _, obj_peak = peak(lambda: sum(
        map(len, _obj_chunks(cut, LABELS, PARAMS, True))))
    assert mc_peak - size(mesh) < 1.0 * size(mesh)
    assert fused_peak - size(fused) < 1.0 * size(fused)
    assert cut_peak - size(cut) < 0.5 * size(mesh)
    assert obj_peak < 2.0 * size(cut)


def test_obj_matches_reference(real_grid):
    for cutaway in (False, True):
        mesh = marching_cubes(real_grid, 30.0)
        if cutaway:
            mesh = apply_cutaway(mesh, real_grid)
        assert (b"".join(_obj_chunks(mesh, LABELS, PARAMS, cutaway))
                == reference_obj(mesh, LABELS, PARAMS, cutaway).encode())


def test_obj_streams_in_blocks(monkeypatch, real_grid):
    """The header, then one chunk per _BLOCK_ROWS vertex lines, then one
    per _BLOCK_ROWS face lines; each kind's last chunk holds the rest."""
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    mesh = marching_cubes(real_grid, 30.0)
    nv, nt = len(mesh.vertices), len(mesh.triangles)
    chunks = list(_obj_chunks(mesh, LABELS, PARAMS, False))
    assert len(chunks) == 1 + -(-nv // 4) + -(-nt // 4)
    sizes = [min(4, count - start) for count in (nv, nt)
             for start in range(0, count, 4)]
    assert [chunk.count(b"\n") for chunk in chunks[1:]] == sizes
    assert b"".join(chunks) == reference_obj(mesh, LABELS, PARAMS,
                                             False).encode()


def test_obj_keeps_negative_zero():
    verts = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5], [2.0, 0.0, -0.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [2, 1, 0]]), 25.0)
    text = b"".join(_obj_chunks(mesh, LABELS, PARAMS, False))
    assert text == reference_obj(mesh, LABELS, PARAMS, False).encode()
    assert b"v 0 -0 1.5\nv -0 0 1.5\n" in text
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                         25.0)
    assert (b"".join(_obj_chunks(empty, LABELS, PARAMS, True))
            == reference_obj(empty, LABELS, PARAMS, True).encode())


def test_obj_formats_each_column_apart():
    """Each coordinate column has its own word table: both zeros, values
    1 ulp apart whose texts differ, and values shared across columns all
    print their own %.9g, over several streamed blocks."""
    rng = np.random.default_rng(5)
    lo, hi = np.nextafter(1.234567895, 0.0), 1.234567895
    assert _sig(lo) != _sig(hi)
    pool = [0.0, -0.0, lo, hi, -hi, 2.5, 5e-324, 1e300]
    verts = rng.choice(pool, size=(600, 3))
    mesh = TriangleMesh(verts, rng.integers(0, 600, (300, 3)), 25.0)
    text = b"".join(_obj_chunks(mesh, LABELS, PARAMS, False))
    assert text == reference_obj(mesh, LABELS, PARAMS, False).encode()
    assert {"0", "-0", _sig(lo), _sig(hi)} <= set(text.decode().split())


def test_slice_matches_reference(real_grid):
    contours = slice_contour(real_grid, [10.0, 35.5, 90.0])
    assert (b"".join(_slice_chunks(contours, LABELS, PARAMS))
            == reference_slice(contours, LABELS, PARAMS).encode())


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
    _write([b"a", b"b\n"], target)
    assert target.read_text() == "ab\n"

    def broken():
        yield b"partial"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        _write(broken(), target)
    assert target.read_text() == "ab\n"
    assert _tmp_files(tmp_path) == []
    _write([b"to stdout\n"], None)
    assert capsys.readouterr().out == "to stdout\n"


def test_write_follows_symlink_and_writes_pipes_in_place(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real)
    _write([b"new\n"], link)
    assert link.is_symlink() and real.read_text() == "new\n"

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    _write([b"through ", b"a pipe\n"], fifo)
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


GRID_ARGV = ["grid", "--n", "2", "--l", "1", "--m", "0", "--N", "11"]


@pytest.mark.parametrize("to_file", [True, False])
def test_a_spool_that_cannot_open_leaves_no_output(tmp_path, capsys,
                                                   monkeypatch, to_file):
    """An OSError opening the spool is exit 4 before the VTK header: no
    target, no temp file, and stdout holds only the JSON error."""
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    target = tmp_path / "d.vtk"
    argv = GRID_ARGV + (["--output", str(target)] if to_file else [])
    assert main(argv) == EXIT_IO
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "OSError" and "No space left" in error["message"]
    assert os.listdir(tmp_path) == []


def test_a_full_spool_leaves_the_target_as_it_was(tmp_path, capsys,
                                                  monkeypatch):
    """A spool write that fails mid-file, as on a full TMPDIR, is exit 4
    and the target keeps its old bytes."""
    class FullSpool(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(tempfile, "TemporaryFile", FullSpool)
    target = tmp_path / "d.vtk"
    target.write_bytes(b"old bytes\n")
    assert main(GRID_ARGV + ["--output", str(target)]) == EXIT_IO
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "OSError"
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["d.vtk"]


@pytest.mark.parametrize("taken", [None, 3])
def test_the_spool_is_closed_and_leaves_no_file(tmp_path, monkeypatch, taken):
    """A drained writer, and one closed after 3 chunks, close their spool
    and leave no entry in the temp directory."""
    spools = []

    def spy(*args, **kwargs):
        spools.append(temporary_file(*args, **kwargs))
        return spools[-1]
    temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    chunks = _vtk_chunks(random_grid(9))
    if taken is None:
        assert len(list(chunks)) == 1 + 9
    else:
        for _ in range(taken):
            next(chunks)
        assert not spools[0].closed
        chunks.close()
    assert len(spools) == 1 and spools[0].closed
    assert os.listdir(tempfile.gettempdir()) == []


def test_an_io_error_names_the_requested_path(tmp_path, capsys):
    """A target in a missing directory is exit 4, and the message names
    the path given, not the .NAME.tmp file written beside it."""
    target = tmp_path / "missing" / "x.vtk"
    assert main(GRID_ARGV + ["--output", str(target)]) == EXIT_IO
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "FileNotFoundError"
    assert error["message"].endswith(f": {str(target)!r}")


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


# ------------------------------------------------------------------- bytes

FILE_RUN = {"n": 3, "l": 2, "m": 1, "Z": 1.0, "b": 0.5, "c": 0.5}


@pytest.mark.parametrize("kind", ["grid", "isosurface", "slice", "verify"])
def test_every_artifact_chunk_is_bytes(kind):
    run = cli.RunSpec(FILE_RUN, (kind,), n_points=15, level=20.0,
                      cutaway=True)
    _, chunks, _ = cli._artifact(kind, run, cli._resolve_grid(run))
    chunks = list(chunks)
    assert chunks and all(type(chunk) is bytes for chunk in chunks)


@pytest.mark.parametrize("argv", [
    ["grid", "--N", "15"],
    ["isosurface", "--N", "15", "--level", "20", "--cutaway"],
    ["slice", "--N", "15"],
    ["verify"],
])
def test_stdout_gets_the_output_file_bytes(tmp_path, capsys, argv):
    argv = argv + [f"--{k}={v}" for k, v in FILE_RUN.items()]
    target = tmp_path / "artifact"
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == target.read_bytes()


def test_write_decodes_to_a_text_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write([b"a text ", b"stream\n"], None)
    assert buf.getvalue() == "a text stream\n"
