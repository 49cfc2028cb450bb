"""Command-line interface: state inspection, potential sampling, voxel
grids, isosurface/contour export, verification reports, and batch sweeps.

Every command is reproducible: identical inputs give byte-identical
output files.  Nothing here writes timestamps into data files, JSON key
order is fixed by construction, and sweep workers only parallelize
independent files.

The file commands (grid, isosurface, slice, verify) are one-run jobs: the
flags become a ``RunSpec``, which is checked and written by the same steps
as a sweep run, so a command and a sweep run with the same fields write
the same bytes.

Sweep runs that read the same grid (``RunSpec.grid_key``) share one
build: they are one pool task, which builds the grid once and writes each
run's outputs in job order.

Each command imports only the modules it runs: ``state`` and
``potential`` need the standard library alone, and numpy, the grid,
surface and verification modules load where a run first needs them.

Exit codes: 0 success, 1 an error of no documented kind, 2 validation
error, 3 numerical-verification failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .states import (PoleError, PotentialParams, StateLabels,
                     map_quantum_numbers, potential_V)

if TYPE_CHECKING:
    import numpy as np

    from .density import DensityGrid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_IO = 4


def _sig(x: float, digits: int = 9) -> str:
    return f"{float(x):.{digits}g}"


def _round_floats(obj, digits: int):
    """Recursively round floats so JSON carries fixed significant digits."""
    if isinstance(obj, float):
        return float(_sig(obj, digits))
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _dump_json(obj, digits: int = 9) -> str:
    return json.dumps(_round_floats(obj, digits), indent=2,
                      allow_nan=False) + "\n"


def _write(chunks, output: str | os.PathLike | None) -> None:
    """Stream byte chunks to the file ``output`` atomically, or decoded to
    stdout, which may be any text stream.

    A file is written as ``.NAME.tmp`` beside its target and renamed onto
    it once complete, so readers see the old file or the whole new one.
    The temp file is removed if anything fails on the way.  A symlink is
    followed, so the file it names is replaced, not the link; a device or
    pipe such as ``/dev/null`` has nothing to replace and is written in
    place.
    """
    if output is None:
        sys.stdout.writelines(map(bytes.decode, chunks))
        return
    output = os.path.realpath(output)
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "wb") as f:
            f.writelines(chunks)
        return
    head, name = os.path.split(output)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, output)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _exit_code(exc: Exception) -> int:
    """The exit code an error maps to; 1 for an error of no documented kind."""
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, ValueError):
        return EXIT_VALIDATION
    return EXIT_ERROR


def _metadata_line(labels: StateLabels, params: PotentialParams) -> str:
    q = map_quantum_numbers(labels, params)
    return (f"state n={labels.n} l={labels.l} m={labels.m}"
            f" Z={_sig(params.Z)} b={_sig(params.b)} c={_sig(params.c)}"
            f" m_prime={_sig(q.m_prime)} gamma1={_sig(q.gamma1)}"
            f" l_prime={_sig(q.l_prime)} n_prime={_sig(q.n_prime)}"
            f" energy={_sig(q.energy)}")


# One CSV line per sample: a million is a 24 MB file written in seconds; the
# cap stops a count that would exhaust memory before any output.
_MAX_SAMPLES = 1_000_000


def _parse_range(text: str) -> list[float]:
    """start:stop:count -> evenly spaced samples, both ends included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if not 2 <= count <= _MAX_SAMPLES:
        raise ValueError(f"range needs 2 to {_MAX_SAMPLES} samples,"
                         f" got {count}")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


# Each level is a full contour pass over the plane, so _check_run caps every
# level list; here the cap also ends a range whose step is too small to
# move the level.
_MAX_LEVELS = 1000


def _parse_levels(text: str) -> list[float]:
    """Either a:b:step (inclusive) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"levels must be a:b:step, got {text!r}")
        a, b, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"level step must be positive, got {step}")
        levels = []
        v = a
        while v <= b + 1e-9 * max(1.0, abs(b)):
            if len(levels) == _MAX_LEVELS:
                raise ValueError(f"levels {text!r} gives more than"
                                 f" {_MAX_LEVELS} levels")
            levels.append(v)
            v += step
        return levels
    return [float(p) for p in text.split(",")]


# --------------------------------------------------------------------- runs

@dataclass(frozen=True)
class RunSpec:
    """One file-producing run: a state, its grid and the outputs to write.

    A sweep run and a file command are both a RunSpec, and the field
    defaults are the defaults of the job-file keys and the command flags.
    """
    state: dict                 # n, l, m, Z, b, c as read; _check_run validates
    outputs: tuple[str, ...] = ("grid",)
    index: int = 0
    n_points: int = 151
    extent: float | None = None  # None: auto from coverage
    coverage: float = 0.999
    level: float = 50.0
    levels: tuple[float, ...] = tuple(10.0 * j for j in range(1, 11))
    cutaway: bool = False

    @property
    def labels(self) -> StateLabels:
        return StateLabels(self.state["n"], self.state["l"], self.state["m"])

    @property
    def params(self) -> PotentialParams:
        return PotentialParams(self.state["Z"], self.state["b"],
                               self.state["c"])

    @property
    def stem(self) -> str:
        return (f"run_{self.index:03d}_n{self.state['n']}"
                f"l{self.state['l']}m{self.state['m']}")

    @property
    def grid_key(self) -> tuple[str, ...] | None:
        """The fields the run's grid is built from; None if no output reads
        a grid.  Coverage counts only without an extent.  Each value enters
        by repr, so b = -0.0 and b = 0.0, whose VTK headers print -0 and 0,
        never share a grid."""
        if all(kind == "verify" for kind in self.outputs):
            return None
        coverage = self.coverage if self.extent is None else None
        return tuple(map(repr, (*self.state.values(), self.n_points,
                                self.extent, coverage)))

    def state_record(self) -> dict:
        """The state for the manifest; a non-finite float becomes a string."""
        return {k: str(v) if isinstance(v, float) and not math.isfinite(v)
                else v for k, v in self.state.items()}


def _check_run(run: RunSpec) -> None:
    """Check every field before any work; a ValueError names the first bad one."""
    from .density import (GridSpec, _check_contour_level, _check_coverage,
                          _check_iso_level)
    map_quantum_numbers(run.labels, run.params)
    GridSpec(run.n_points, run.extent if run.extent is not None else 1.0)
    _check_coverage(run.coverage)
    _check_iso_level(run.level)
    if not run.levels:
        raise ValueError("levels must not be empty")
    if len(run.levels) > _MAX_LEVELS:
        raise ValueError(f"levels must hold at most {_MAX_LEVELS} values,"
                         f" got {len(run.levels)}")
    for level in run.levels:
        _check_contour_level(level)


def _resolve_grid(run: RunSpec) -> DensityGrid | None:
    """The rescaled grid the run's outputs read; None when none reads one."""
    if run.grid_key is None:
        return None
    from .density import GridSpec, auto_extent, build_grid, normalize_relative
    labels, params = run.labels, run.params
    half = (run.extent if run.extent is not None
            else auto_extent(labels, params, run.coverage))
    return normalize_relative(build_grid(labels, params,
                                         GridSpec(run.n_points, half)))


# ------------------------------------------------------------------ writers

_BLOCK_ROWS = 4096  # OBJ lines per streamed chunk


def _distinct_words(values: np.ndarray):
    """Each distinct float formatted once, and where each value's text is.

    Values are told apart by bit pattern, so 0.0 and -0.0 keep their own
    text.  Returns ``(words, index)``: words a numpy object array of the
    ``%.9g`` bytes, index shaped as values, so ``words[index]`` gathers
    the text of every value at once.
    """
    import numpy as np
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    words = (b"%.9g\n" * len(distinct)  # each _sig(v), without a call per v
             % tuple(distinct.view(np.float64).tolist())).splitlines()
    # numpy 2.x varies the shape of the inverse
    return np.array(words, object), index.reshape(bits.shape)


def _vtk_chunks(grid: DensityGrid):
    """Legacy ASCII VTK: the header, then one chunk per file z-plane.

    Each octant z-plane formats its distinct values once and builds every
    octant row from one gather of its words through the mirror; a file
    row is its mirror's text.  Only row texts persist.
    """
    spec = grid.spec
    n = spec.n_points
    h, d = spec.half_extent, spec.spacing
    yield "\n".join([
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
        "",
    ]).encode()
    mirror = spec.mirror()
    planes = grid.octant.transpose(2, 1, 0)  # planes[z] is octant[:, :, z].T
    texts = [list(map(b" ".join, words[index[:, mirror]].tolist()))
             for words, index in map(_distinct_words, planes)]
    mirror = mirror.tolist()
    for z in mirror:
        yield b"\n".join([texts[z][y] for y in mirror] + [b""])


def _obj_chunks(mesh, labels, params, cutaway: bool):
    yield (f"# {_metadata_line(labels, params)}\n"
           f"# level {_sig(mesh.level)} cutaway {int(cutaway)}\n").encode()
    import numpy as np
    # one word table per coordinate column, so no sort spans all 3 nv values
    words, index = np.empty(0, object), np.empty(mesh.vertices.shape, np.int32)
    for a in range(3):
        column, index[:, a] = _distinct_words(mesh.vertices[:, a])
        index[:, a] += len(words)
        words = np.concatenate([words, column])
    for start in range(0, len(index), _BLOCK_ROWS):
        block = words[index[start:start + _BLOCK_ROWS].ravel()].tolist()
        yield b"v %s %s %s\n" * (len(block) // 3) % tuple(block)
    for start in range(0, len(mesh.triangles), _BLOCK_ROWS):
        block = (mesh.triangles[start:start + _BLOCK_ROWS] + 1).ravel().tolist()
        yield b"f %d %d %d\n" * (len(block) // 3) % tuple(block)


def _slice_chunks(contours, labels, params):
    yield (f"# {_metadata_line(labels, params)}\n"
           "level,polyline,vertex,y,z\n").encode()
    for cs in contours:
        level = _sig(cs.level)
        yield "".join([f"{level},{pi},{vi},{_sig(y)},{_sig(z)}\n"
                       for pi, line in enumerate(cs.polylines)
                       for vi, (y, z) in enumerate(line)]).encode()


# ---------------------------------------------------------------- artifacts

def _artifact(kind: str, run: RunSpec, grid: DensityGrid | None):
    """One output of a run as ``(suffix, chunks, passed)``.

    ``suffix`` follows the run's stem in a sweep; ``passed`` is false only
    for a verify report with a failed check.
    """
    labels, params = run.labels, run.params
    if kind == "grid":
        return ".vtk", _vtk_chunks(grid), True
    if kind == "isosurface":
        from .surface import apply_cutaway, marching_cubes
        mesh = marching_cubes(grid, run.level)
        if run.cutaway:
            mesh = apply_cutaway(mesh, grid)
        return ".obj", _obj_chunks(mesh, labels, params, run.cutaway), True
    if kind == "slice":
        from .surface import slice_contour
        contours = slice_contour(grid, run.levels)
        return "_slice.csv", _slice_chunks(contours, labels, params), True
    from .verify import verify_state
    report = verify_state(labels, params)
    return ("_verify.json", [_dump_json(report.as_dict()).encode()],
            report.all_passed)


# ----------------------------------------------------------------- commands

def cmd_state(args) -> int:
    labels = StateLabels(args.n, args.l, args.m)
    params = PotentialParams(args.Z, args.b, args.c)
    payload = {
        "n": labels.n, "l": labels.l, "m": labels.m,
        "Z": params.Z, "b": params.b, "c": params.c,
        **map_quantum_numbers(labels, params).as_dict(),
    }
    sys.stdout.write(_dump_json(payload, digits=12))
    return EXIT_OK


def cmd_potential(args) -> int:
    params = PotentialParams(args.Z, args.b, args.c)
    if (args.r_range is None) == (args.theta_range is None):
        raise ValueError("exactly one of --r-range / --theta-range is required")
    if args.r_range is not None:
        if args.theta is None:
            raise ValueError("--r-range needs a fixed --theta")
        rows = [(r, r, args.theta) for r in _parse_range(args.r_range)]
    else:
        if args.r is None:
            raise ValueError("--theta-range needs a fixed --r")
        rows = [(t, args.r, t) for t in _parse_range(args.theta_range)]
    lines = [f"# potential Z={_sig(params.Z)} b={_sig(params.b)}"
             f" c={_sig(params.c)}"
             + (f" theta={_sig(args.theta)}" if args.r_range is not None
                else f" r={_sig(args.r)}"),
             "coord,V"]
    for coord, r, theta in rows:
        try:
            v = _sig(potential_V(params, r, theta))
        except PoleError:
            v = ""
        lines.append(f"{_sig(coord)},{v}")
    _write([("\n".join(lines) + "\n").encode()], args.output)
    return EXIT_OK


# the command flags that set a RunSpec field, under the field's name
_RUN_FLAGS = ("n_points", "extent", "coverage", "level", "levels", "cutaway")


def cmd_file(args) -> int:
    """grid, isosurface, slice or verify: a one-run job written to --output."""
    fields = {k: v for k, v in vars(args).items() if k in _RUN_FLAGS}
    if "levels" in fields:
        fields["levels"] = tuple(_parse_levels(fields["levels"]))
    run = RunSpec({k: getattr(args, k) for k in ("n", "l", "m", "Z", "b", "c")},
                  (args.command,), **fields)
    _check_run(run)
    _, chunks, passed = _artifact(args.command, run, _resolve_grid(run))
    _write(chunks, args.output)
    return EXIT_OK if passed else EXIT_VERIFY


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class JobSpec:
    output_dir: Path
    workers: int
    runs: tuple[RunSpec, ...]


_RUN_OUTPUTS = ("grid", "isosurface", "slice", "verify")


def _integer(value, what: str) -> int:
    """A JSON integer, an integral float or an integer string, as an int."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, str))
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return int(value)


def _real(value, what: str) -> float:
    """A JSON number or a number string, as a float; a bool is no number."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {json.dumps(value)}")
    return float(value)


def _parse_run(i: int, entry) -> RunSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"a run must be an object, got {json.dumps(entry)}")
    for key in ("n", "l", "m"):
        if key not in entry:
            raise ValueError(f"missing required key {key!r}")
    # a string is iterable and any value has a truth value: neither coerces
    for key, kind, what in (("outputs", list, "a list"),
                            ("levels", list, "a list"),
                            ("cutaway", bool, "true or false")):
        if key in entry and not isinstance(entry[key], kind):
            raise ValueError(f"{key} must be {what},"
                             f" got {json.dumps(entry[key])}")
    outputs = tuple(entry.get("outputs", RunSpec.outputs))
    for o in outputs:
        if o not in _RUN_OUTPUTS:
            raise ValueError(f"unknown output kind {o!r}")
    gridcfg = entry.get("grid", {})
    if not isinstance(gridcfg, dict):
        raise ValueError(f"grid must be an object, got {json.dumps(gridcfg)}")
    return RunSpec(
        index=i,
        state={"n": _integer(entry["n"], "n"), "l": _integer(entry["l"], "l"),
               "m": _integer(entry["m"], "m"),
               **{k: _real(entry.get(k, getattr(PotentialParams, k)), k)
                  for k in ("Z", "b", "c")}},
        n_points=_integer(gridcfg.get("n_points", RunSpec.n_points),
                          "n_points"),
        extent=(_real(gridcfg["extent"], "extent") if "extent" in gridcfg
                else None),
        coverage=_real(gridcfg.get("coverage", RunSpec.coverage), "coverage"),
        outputs=outputs,
        level=_real(entry.get("level", RunSpec.level), "level"),
        levels=tuple(_real(v, "levels entry")
                     for v in entry.get("levels", RunSpec.levels)),
        cutaway=entry.get("cutaway", RunSpec.cutaway),
    )


# The pool starts up to one thread per worker, each holding a run's grid;
# the cap keeps a mistyped count from asking for thousands of threads.
_MAX_WORKERS = 64


def _parse_job(path: str, output_override: str | None,
               workers_override: int | None) -> JobSpec:
    """Read a job file; any malformed entry is a ValueError naming its run."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or not isinstance(raw.get("runs"), list):
        raise ValueError("job file must be an object with a 'runs' list")
    out_dir = output_override or raw.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ValueError("output_dir must be a string,"
                         f" got {json.dumps(out_dir)}")
    workers = (workers_override if workers_override is not None
               else _integer(raw.get("workers", 2), "workers"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > _MAX_WORKERS:
        raise ValueError(f"workers must be <= {_MAX_WORKERS}, got {workers}")
    runs = []
    for i, entry in enumerate(raw["runs"]):
        try:
            runs.append(_parse_run(i, entry))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"run {i}: {exc}") from None
    return JobSpec(Path(out_dir), workers, tuple(runs))


def _run_record(run: RunSpec) -> dict:
    quasi = map_quantum_numbers(run.labels, run.params).as_dict()
    return {
        "index": run.index,
        "state": run.state_record(),
        "quasi": {k: quasi[k] for k in ("m_prime", "gamma1", "l_prime",
                                        "n_prime", "energy")},
        "status": "ok",
        "reason": "",
        "artifacts": [],
    }


def _failed(record: dict, exc: Exception) -> tuple[dict, int]:
    record["status"] = "io_error" if isinstance(exc, OSError) else "failed"
    record["reason"] = f"{type(exc).__name__}: {exc}"
    return record, _exit_code(exc)


def _execute_runs(runs: list[RunSpec],
                  out_dir: Path) -> list[tuple[dict, int]]:
    """Write runs of one grid key in job order, from one grid build.

    Returns each run's manifest record and exit code.  An exception ends a
    run, not the sweep: the record lists what was written before it, with
    status io_error for an OSError, else failed.  A grid that fails to
    build fails every run of the group with the same reason.
    """
    try:
        grid = _resolve_grid(runs[0])
    except Exception as exc:
        return [_failed(_run_record(run), exc) for run in runs]
    return [_execute_run(run, grid, out_dir) for run in runs]


def _execute_run(run: RunSpec, grid: DensityGrid | None,
                 out_dir: Path) -> tuple[dict, int]:
    record = _run_record(run)
    try:
        for kind in run.outputs:
            suffix, chunks, passed = _artifact(kind, run, grid)
            name = run.stem + suffix
            _write(chunks, out_dir / name)
            if not passed:
                record["status"] = "verify_failed"
                record["reason"] = "verification checks failed"
            record["artifacts"].append(name)
    except Exception as exc:
        return _failed(record, exc)
    return record, EXIT_VERIFY if record["status"] == "verify_failed" else EXIT_OK


def cmd_sweep(args) -> int:
    from concurrent.futures import ThreadPoolExecutor
    job = _parse_job(args.jobs, args.output_dir, args.workers)
    job.output_dir.mkdir(parents=True, exist_ok=True)

    # every run validates up front; invalid runs are reported, never dropped.
    # The valid ones are grouped by grid key; a run reading no grid is alone.
    records: dict[int, dict] = {}
    groups: dict[tuple[str, ...] | int, list[RunSpec]] = {}
    for run in job.runs:
        try:
            _check_run(run)
        except ValueError as exc:
            records[run.index] = {
                "index": run.index,
                "state": run.state_record(),
                "status": "invalid",
                "reason": str(exc),
                "artifacts": [],
            }
        else:
            groups.setdefault(run.grid_key or run.index, []).append(run)

    codes = {EXIT_VALIDATION} if records else set()
    with ThreadPoolExecutor(max_workers=job.workers) as pool:
        futures = [pool.submit(_execute_runs, runs, job.output_dir)
                   for runs in groups.values()]
        for future in futures:
            for record, code in future.result():
                records[record["index"]] = record
                codes.add(code)

    manifest = {"runs": [records[i] for i in sorted(records)]}
    _write([_dump_json(manifest).encode()], job.output_dir / "manifest.json")

    for code in (EXIT_IO, EXIT_VALIDATION, EXIT_VERIFY, EXIT_ERROR):
        if code in codes:
            return code
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_param_flags(p)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for name in ("Z", "b", "c"):
        p.add_argument(f"--{name}", type=float,
                       default=getattr(PotentialParams, name))


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", dest="n_points", metavar="N", type=int,
                   default=RunSpec.n_points,
                   help="odd voxel count per axis (default %(default)s)")
    p.add_argument("--extent", type=float, default=RunSpec.extent,
                   help="half box size; omitted means auto from coverage")
    p.add_argument("--coverage", type=float, default=RunSpec.coverage,
                   help="radial probability captured by the auto extent"
                        " (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """An argparse refusal raises ValueError, so it exits 2 with a JSON
    error like every other bad input; subparsers inherit the class.  A
    negative number with an exponent, such as -1e-3, is a value: argparse's
    own pattern has no exponent form and takes it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rscp",
        description="Bound states and probability-density artifacts for the "
                    "double ring-shaped Coulomb potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="print quasi quantum numbers as JSON")
    _add_state_flags(p)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("potential", help="sample V(r, theta) to CSV")
    _add_param_flags(p)
    p.add_argument("--r-range", help="start:stop:count sweep over r")
    p.add_argument("--theta-range", help="start:stop:count sweep over theta")
    p.add_argument("--r", type=float, help="fixed r for a theta sweep")
    p.add_argument("--theta", type=float, help="fixed theta for an r sweep")
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=cmd_potential)

    # the file commands: the state, the command's own flags, --output
    for name, text in (("grid", "write the rescaled density as VTK"),
                       ("isosurface", "extract an iso level as OBJ"),
                       ("slice", "x=0 quadrant contours as CSV"),
                       ("verify", "independent checks as a JSON report")):
        p = sub.add_parser(name, help=text)
        _add_state_flags(p)
        if name != "verify":
            _add_grid_flags(p)
        if name == "isosurface":
            p.add_argument("--level", type=float, default=RunSpec.level,
                           help="percent of the peak (default %(default)s)")
            p.add_argument("--cutaway", action="store_true",
                           default=RunSpec.cutaway,
                           help="remove the x<0, y<0, z>0 octant and cap it")
        if name == "slice":
            p.add_argument("--levels",
                           default=",".join(map(_sig, RunSpec.levels)),
                           help="a:b:step or comma list (default %(default)s)")
        p.add_argument("--output", help="file path (default: stdout)")
        p.set_defaults(func=cmd_file)

    p = sub.add_parser("sweep", help="run a JSON job file of batch exports")
    p.add_argument("--jobs", required=True, help="job file path")
    p.add_argument("--output-dir", help="override the job file output_dir")
    p.add_argument("--workers", type=int, help="parallel run count")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stdout.write(_dump_json({"error": {"type": type(exc).__name__,
                                               "message": str(exc)}}))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())

