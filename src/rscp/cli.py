"""Command-line interface: state inspection, potential sampling, voxel
grids, isosurface/contour export, verification reports, and batch sweeps.

Every command is reproducible: identical inputs give byte-identical
output files.  Nothing here writes timestamps into data files, JSON key
order is fixed by construction, and sweep workers only parallelize
independent files.

Exit codes: 0 success, 2 validation error, 3 numerical-verification
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import (DensityGrid, GridSpec, _check_coverage, auto_extent,
                      build_grid, normalize_relative)
from .states import (PoleError, PotentialParams, StateLabels,
                     map_quantum_numbers, potential_V)
from .surface import (_check_contour_level, _check_iso_level, apply_cutaway,
                      marching_cubes, slice_contour)
from .verify import ConvergenceError, verify_state

__all__ = ["main", "build_parser", "JobSpec", "RunSpec"]

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
    """Stream text chunks to stdout, or to the file ``output`` atomically.

    A file is written as ``.NAME.tmp`` beside its target and renamed onto
    it once complete, so readers see the old file or the whole new one.
    The temp file is removed if anything fails on the way.  A symlink is
    followed, so the file it names is replaced, not the link; a device or
    pipe such as ``/dev/null`` has nothing to replace and is written in
    place.
    """
    if output is None:
        sys.stdout.writelines(chunks)
        return
    output = os.path.realpath(output)
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "w") as f:
            f.writelines(chunks)
        return
    head, name = os.path.split(output)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "w") as f:
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
    if isinstance(exc, ConvergenceError):
        return EXIT_VERIFY
    return EXIT_ERROR


def _error_payload(exc: Exception) -> str:
    return _dump_json({"error": {"type": type(exc).__name__,
                                 "message": str(exc)}})


def _state_of(args) -> tuple[StateLabels, PotentialParams]:
    return (StateLabels(args.n, args.l, args.m),
            PotentialParams(args.Z, args.b, args.c))


def _metadata_line(labels: StateLabels, params: PotentialParams) -> str:
    q = map_quantum_numbers(labels, params)
    return (f"state n={labels.n} l={labels.l} m={labels.m}"
            f" Z={_sig(params.Z)} b={_sig(params.b)} c={_sig(params.c)}"
            f" m_prime={_sig(q.m_prime)} gamma1={_sig(q.gamma1)}"
            f" l_prime={_sig(q.l_prime)} n_prime={_sig(q.n_prime)}"
            f" energy={_sig(q.energy)}")


def _parse_range(text: str) -> list[float]:
    """start:stop:count -> evenly spaced samples, both ends included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"range needs at least 2 samples, got {count}")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


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
            levels.append(v)
            v += step
        return levels
    return [float(p) for p in text.split(",")]


# ------------------------------------------------------------- grid assembly

def _resolve_grid(labels, params, n_points, extent, coverage) -> DensityGrid:
    half = extent if extent is not None else auto_extent(labels, params,
                                                         coverage)
    grid = build_grid(labels, params, GridSpec(n_points, half))
    return normalize_relative(grid)


# ------------------------------------------------------------------ writers

_BLOCK_ROWS = 1024  # VTK rows, or OBJ lines, per streamed chunk


def _distinct_words(values: np.ndarray):
    """Each distinct float formatted once, and where each value's text is.

    Values are told apart by bit pattern, so 0.0 and -0.0 keep their own
    text.  Returns ``(words, index)``: ``words[index[i]]`` is the text of
    ``values.flat[i]``.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    # the text of _sig(v), without a call per value
    words = [f"{v:.9g}" for v in distinct.view(np.float64).tolist()]
    return words, index.ravel()  # the inverse's shape varies across numpy 2.x


def _distinct_rows(rows: np.ndarray):
    """Text of each distinct row, and which text each row prints.

    Rows, like values, are told apart by bit pattern.  The arrays die on
    return, so only the texts live while the file streams.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    distinct, row_of = np.unique(bits, axis=0, return_inverse=True)
    words, index = _distinct_words(distinct.view(np.float64))
    texts = [" ".join(map(words.__getitem__, row.tolist()))
             for row in index.reshape(distinct.shape)]
    return texts, row_of.ravel().tolist()


def _vtk_chunks(grid: DensityGrid):
    """Legacy ASCII VTK: the header, then the x-fastest rows in blocks.

    Each distinct row is joined once from each distinct value's text; the
    mirrored grid has about a quarter as many distinct rows as rows.
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
    ]) + "\n"
    texts, order = _distinct_rows(grid.flat_values().reshape(n * n, n))
    for start in range(0, len(order), _BLOCK_ROWS):
        yield "\n".join([texts[i] for i in
                         order[start:start + _BLOCK_ROWS]]) + "\n"


def _obj_chunks(mesh, labels, params, cutaway: bool):
    yield (f"# {_metadata_line(labels, params)}\n"
           f"# level {_sig(mesh.level)} cutaway {int(cutaway)}\n")
    words, index = _distinct_words(mesh.vertices)
    index = index.reshape(-1, 3)
    for start in range(0, len(index), _BLOCK_ROWS):
        yield "".join([f"v {words[a]} {words[b]} {words[c]}\n" for a, b, c
                       in index[start:start + _BLOCK_ROWS].tolist()])
    faces = mesh.triangles + 1
    for start in range(0, len(faces), _BLOCK_ROWS):
        yield "".join([f"f {a} {b} {c}\n" for a, b, c
                       in faces[start:start + _BLOCK_ROWS].tolist()])


def _slice_chunks(contours, labels, params):
    yield f"# {_metadata_line(labels, params)}\nlevel,polyline,vertex,y,z\n"
    for cs in contours:
        level = _sig(cs.level)
        yield "".join([f"{level},{pi},{vi},{_sig(y)},{_sig(z)}\n"
                       for pi, line in enumerate(cs.polylines)
                       for vi, (y, z) in enumerate(line)])


# ----------------------------------------------------------------- commands

def cmd_state(args) -> int:
    labels, params = _state_of(args)
    q = map_quantum_numbers(labels, params)
    payload = {
        "n": labels.n, "l": labels.l, "m": labels.m,
        "Z": params.Z, "b": params.b, "c": params.c,
        "m_prime": q.m_prime, "gamma1": q.gamma1, "k": q.k,
        "l_prime": q.l_prime, "n_r": q.n_r, "n_prime": q.n_prime,
        "lambda": q.lam, "energy": q.energy,
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
        coords = _parse_range(args.r_range)
        rows = [(r, params, r, args.theta) for r in coords]
    else:
        if args.r is None:
            raise ValueError("--theta-range needs a fixed --r")
        coords = _parse_range(args.theta_range)
        rows = [(t, params, args.r, t) for t in coords]
    lines = [f"# potential Z={_sig(params.Z)} b={_sig(params.b)}"
             f" c={_sig(params.c)}"
             + (f" theta={_sig(args.theta)}" if args.r_range is not None
                else f" r={_sig(args.r)}"),
             "coord,V"]
    for coord, p, r, theta in rows:
        try:
            v = _sig(potential_V(p, r, theta))
        except PoleError:
            v = ""
        lines.append(f"{_sig(coord)},{v}")
    _write(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def cmd_grid(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    _write(_vtk_chunks(grid), args.output)
    return EXIT_OK


def cmd_isosurface(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    mesh = marching_cubes(grid, args.level)
    if args.cutaway:
        mesh = apply_cutaway(mesh, grid)
    _write(_obj_chunks(mesh, labels, params, args.cutaway), args.output)
    return EXIT_OK


def cmd_slice(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    contours = slice_contour(grid, _parse_levels(args.levels))
    _write(_slice_chunks(contours, labels, params), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    labels, params = _state_of(args)
    report = verify_state(labels, params, n_samples=args.samples)
    _write([_dump_json(report.as_dict())], args.output)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class RunSpec:
    index: int
    state: dict                 # n, l, m, Z, b, c as read; cmd_sweep validates
    n_points: int
    extent: float | None
    coverage: float
    outputs: tuple[str, ...]
    level: float
    levels: tuple[float, ...]
    cutaway: bool

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

    def state_record(self) -> dict:
        """The state for the manifest; a non-finite value becomes a string."""
        return {k: v if math.isfinite(v) else str(v)
                for k, v in self.state.items()}


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


def _parse_run(i: int, entry) -> RunSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"a run must be an object, got {json.dumps(entry)}")
    for key in ("n", "l", "m"):
        if key not in entry:
            raise ValueError(f"missing required key {key!r}")
    outputs = tuple(entry.get("outputs", ("grid",)))
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
               "Z": float(entry.get("Z", 1.0)),
               "b": float(entry.get("b", 0.0)),
               "c": float(entry.get("c", 0.0))},
        n_points=_integer(gridcfg.get("n_points", 151), "n_points"),
        extent=(float(gridcfg["extent"]) if "extent" in gridcfg else None),
        coverage=float(gridcfg.get("coverage", 0.999)),
        outputs=outputs,
        level=float(entry.get("level", 50.0)),
        levels=tuple(float(v) for v in
                     entry.get("levels", [10.0 * j for j in range(1, 11)])),
        cutaway=bool(entry.get("cutaway", False)),
    )


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
    runs = []
    for i, entry in enumerate(raw["runs"]):
        try:
            runs.append(_parse_run(i, entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"run {i}: {exc}") from None
    return JobSpec(Path(out_dir), workers, tuple(runs))


def _execute_run(run: RunSpec, out_dir: Path) -> tuple[dict, int]:
    """Write one run's outputs; returns its manifest record and exit code.

    An exception ends the run, not the sweep: the record lists what was
    written before it, with status io_error for an OSError, else failed.
    """
    labels, params = run.labels, run.params
    q = map_quantum_numbers(labels, params)
    record = {
        "index": run.index,
        "state": run.state_record(),
        "quasi": {"m_prime": q.m_prime, "gamma1": q.gamma1,
                  "l_prime": q.l_prime, "n_prime": q.n_prime,
                  "energy": q.energy},
        "status": "ok",
        "reason": "",
        "artifacts": [],
    }
    try:
        grid = None
        if any(o in run.outputs for o in ("grid", "isosurface", "slice")):
            grid = _resolve_grid(labels, params, run.n_points, run.extent,
                                 run.coverage)
        for kind in run.outputs:
            if kind == "grid":
                name = run.stem + ".vtk"
                _write(_vtk_chunks(grid), out_dir / name)
            elif kind == "isosurface":
                mesh = marching_cubes(grid, run.level)
                if run.cutaway:
                    mesh = apply_cutaway(mesh, grid)
                name = run.stem + ".obj"
                _write(_obj_chunks(mesh, labels, params, run.cutaway),
                       out_dir / name)
            elif kind == "slice":
                contours = slice_contour(grid, list(run.levels))
                name = run.stem + "_slice.csv"
                _write(_slice_chunks(contours, labels, params),
                       out_dir / name)
            else:
                report = verify_state(labels, params)
                name = run.stem + "_verify.json"
                _write([_dump_json(report.as_dict())], out_dir / name)
                if not report.all_passed:
                    record["status"] = "verify_failed"
                    record["reason"] = "verification checks failed"
            record["artifacts"].append(name)
    except Exception as exc:
        record["status"] = "io_error" if isinstance(exc, OSError) else "failed"
        record["reason"] = f"{type(exc).__name__}: {exc}"
        return record, _exit_code(exc)
    return record, EXIT_VERIFY if record["status"] == "verify_failed" else EXIT_OK


def cmd_sweep(args) -> int:
    job = _parse_job(args.jobs, args.output_dir, args.workers)
    try:
        job.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_IO

    # every run validates up front; invalid runs are reported, never dropped
    invalid: dict[int, str] = {}
    for run in job.runs:
        try:
            map_quantum_numbers(run.labels, run.params)
            GridSpec(run.n_points, run.extent if run.extent else 1.0)
            _check_coverage(run.coverage)
            _check_iso_level(run.level)
            for level in run.levels:
                _check_contour_level(level)
        except ValueError as exc:
            invalid[run.index] = str(exc)

    records: dict[int, dict] = {}
    for run in job.runs:
        if run.index in invalid:
            records[run.index] = {
                "index": run.index,
                "state": run.state_record(),
                "status": "invalid",
                "reason": invalid[run.index],
                "artifacts": [],
            }

    todo = [run for run in job.runs if run.index not in invalid]
    codes = {EXIT_VALIDATION} if invalid else set()
    with ThreadPoolExecutor(max_workers=job.workers) as pool:
        futures = {pool.submit(_execute_run, run, job.output_dir): run
                   for run in todo}
        for future, run in futures.items():
            records[run.index], code = future.result()
            codes.add(code)

    manifest = {"runs": [records[i] for i in sorted(records)]}
    try:
        _write([_dump_json(manifest)], job.output_dir / "manifest.json")
    except OSError as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_IO

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
    p.add_argument("--Z", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--c", type=float, default=0.0)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, default=151,
                   help="odd voxel count per axis (default 151)")
    p.add_argument("--extent", type=float, default=None,
                   help="half box size; omitted means auto from coverage")
    p.add_argument("--coverage", type=float, default=0.999,
                   help="radial probability captured by the auto extent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("grid", help="write the rescaled density as VTK")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("isosurface", help="extract an iso level as OBJ")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--level", type=float, default=50.0)
    p.add_argument("--cutaway", action="store_true",
                   help="remove the x<0, y<0, z>0 octant and cap it")
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=cmd_isosurface)

    p = sub.add_parser("slice", help="x=0 quadrant contours as CSV")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--levels", default="10:100:10",
                   help="a:b:step or comma list (default 10:100:10)")
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("verify", help="independent checks as a JSON report")
    _add_state_flags(p)
    p.add_argument("--samples", type=int, default=100,
                   help="interior sample count for residual checks")
    p.add_argument("--output", help="file path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a JSON job file of batch exports")
    p.add_argument("--jobs", required=True, help="job file path")
    p.add_argument("--output-dir", help="override the job file output_dir")
    p.add_argument("--workers", type=int, help="parallel run count")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, OSError) as exc:
        sys.stdout.write(_error_payload(exc))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
