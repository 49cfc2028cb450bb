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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .density import (DensityGrid, GridSpec, _check_coverage, auto_extent,
                      build_grid, normalize_relative)
from .states import (PoleError, PotentialParams, StateLabels,
                     map_quantum_numbers, potential_V)
from .surface import (_check_contour_level, _check_iso_level, apply_cutaway,
                      marching_cubes, slice_contour)
from .verify import verify_state

__all__ = ["main", "build_parser", "JobSpec", "RunSpec"]

EXIT_OK = 0
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
    return json.dumps(_round_floats(obj, digits), indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


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

def _vtk_text(grid: DensityGrid) -> str:
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
    flat = grid.flat_values()
    rows = flat.reshape(n * n, n)
    lines = [" ".join(_sig(v) for v in row) for row in rows]
    return "\n".join(header + lines) + "\n"


def _obj_text(mesh, labels, params, cutaway: bool) -> str:
    lines = [
        "# " + _metadata_line(labels, params),
        f"# level {_sig(mesh.level)} cutaway {int(cutaway)}",
    ]
    for v in mesh.vertices:
        lines.append(f"v {_sig(v[0])} {_sig(v[1])} {_sig(v[2])}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    return "\n".join(lines) + "\n"


def _slice_text(contours, labels, params) -> str:
    lines = [
        "# " + _metadata_line(labels, params),
        "level,polyline,vertex,y,z",
    ]
    for cs in contours:
        for pi, line in enumerate(cs.polylines):
            for vi, (y, z) in enumerate(line):
                lines.append(f"{_sig(cs.level)},{pi},{vi},{_sig(y)},{_sig(z)}")
    return "\n".join(lines) + "\n"


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
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_grid(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    _emit(_vtk_text(grid), args.output)
    return EXIT_OK


def cmd_isosurface(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    mesh = marching_cubes(grid, args.level)
    if args.cutaway:
        mesh = apply_cutaway(mesh, grid)
    _emit(_obj_text(mesh, labels, params, args.cutaway), args.output)
    return EXIT_OK


def cmd_slice(args) -> int:
    labels, params = _state_of(args)
    grid = _resolve_grid(labels, params, args.N, args.extent, args.coverage)
    contours = slice_contour(grid, _parse_levels(args.levels))
    _emit(_slice_text(contours, labels, params), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    labels, params = _state_of(args)
    report = verify_state(labels, params, n_samples=args.samples)
    _emit(_dump_json(report.as_dict()), args.output)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class RunSpec:
    index: int
    labels: StateLabels
    params: PotentialParams
    n_points: int
    extent: float | None
    coverage: float
    outputs: tuple[str, ...]
    level: float
    levels: tuple[float, ...]
    cutaway: bool

    @property
    def stem(self) -> str:
        return (f"run_{self.index:03d}_n{self.labels.n}"
                f"l{self.labels.l}m{self.labels.m}")


@dataclass(frozen=True)
class JobSpec:
    output_dir: Path
    workers: int
    runs: tuple[RunSpec, ...]


_RUN_OUTPUTS = ("grid", "isosurface", "slice", "verify")


def _parse_job(path: str, output_override: str | None,
               workers_override: int | None) -> JobSpec:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or "runs" not in raw:
        raise ValueError("job file must be an object with a 'runs' list")
    out_dir = Path(output_override or raw.get("output_dir", "."))
    workers = workers_override or int(raw.get("workers", 2))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    runs = []
    for i, entry in enumerate(raw["runs"]):
        for key in ("n", "l", "m"):
            if key not in entry:
                raise ValueError(f"run {i}: missing required key {key!r}")
        outputs = tuple(entry.get("outputs", ("grid",)))
        for o in outputs:
            if o not in _RUN_OUTPUTS:
                raise ValueError(f"run {i}: unknown output kind {o!r}")
        gridcfg = entry.get("grid", {})
        runs.append(RunSpec(
            index=i,
            labels=StateLabels(int(entry["n"]), int(entry["l"]),
                               int(entry["m"])),
            params=PotentialParams(float(entry.get("Z", 1.0)),
                                   float(entry.get("b", 0.0)),
                                   float(entry.get("c", 0.0))),
            n_points=int(gridcfg.get("n_points", 151)),
            extent=(float(gridcfg["extent"]) if "extent" in gridcfg
                    else None),
            coverage=float(gridcfg.get("coverage", 0.999)),
            outputs=outputs,
            level=float(entry.get("level", 50.0)),
            levels=tuple(float(v) for v in
                         entry.get("levels", [10.0 * j for j in range(1, 11)])),
            cutaway=bool(entry.get("cutaway", False)),
        ))
    return JobSpec(out_dir, workers, tuple(runs))


def _execute_run(run: RunSpec, out_dir: Path) -> dict:
    q = map_quantum_numbers(run.labels, run.params)
    record = {
        "index": run.index,
        "state": {"n": run.labels.n, "l": run.labels.l, "m": run.labels.m,
                  "Z": run.params.Z, "b": run.params.b, "c": run.params.c},
        "quasi": {"m_prime": q.m_prime, "gamma1": q.gamma1,
                  "l_prime": q.l_prime, "n_prime": q.n_prime,
                  "energy": q.energy},
        "status": "ok",
        "reason": "",
        "artifacts": [],
    }
    grid = None
    if any(o in run.outputs for o in ("grid", "isosurface", "slice")):
        grid = _resolve_grid(run.labels, run.params, run.n_points,
                             run.extent, run.coverage)
    for kind in run.outputs:
        if kind == "grid":
            name = run.stem + ".vtk"
            (out_dir / name).write_text(_vtk_text(grid))
        elif kind == "isosurface":
            mesh = marching_cubes(grid, run.level)
            if run.cutaway:
                mesh = apply_cutaway(mesh, grid)
            name = run.stem + ".obj"
            (out_dir / name).write_text(
                _obj_text(mesh, run.labels, run.params, run.cutaway))
        elif kind == "slice":
            contours = slice_contour(grid, list(run.levels))
            name = run.stem + "_slice.csv"
            (out_dir / name).write_text(
                _slice_text(contours, run.labels, run.params))
        else:
            report = verify_state(run.labels, run.params)
            name = run.stem + "_verify.json"
            (out_dir / name).write_text(_dump_json(report.as_dict()))
            if not report.all_passed:
                record["status"] = "verify_failed"
                record["reason"] = "verification checks failed"
        record["artifacts"].append(name)
    return record


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
                "state": {"n": run.labels.n, "l": run.labels.l,
                          "m": run.labels.m, "Z": run.params.Z,
                          "b": run.params.b, "c": run.params.c},
                "status": "invalid",
                "reason": invalid[run.index],
                "artifacts": [],
            }

    todo = [run for run in job.runs if run.index not in invalid]
    io_failed = False
    with ThreadPoolExecutor(max_workers=job.workers) as pool:
        futures = {pool.submit(_execute_run, run, job.output_dir): run
                   for run in todo}
        for future, run in futures.items():
            try:
                records[run.index] = future.result()
            except OSError as exc:
                io_failed = True
                records[run.index] = {
                    "index": run.index, "status": "io_error",
                    "reason": str(exc), "artifacts": []}

    manifest = {"runs": [records[i] for i in sorted(records)]}
    try:
        (job.output_dir / "manifest.json").write_text(_dump_json(manifest))
    except OSError as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_IO

    if io_failed:
        return EXIT_IO
    if invalid:
        return EXIT_VALIDATION
    if any(r["status"] == "verify_failed" for r in records.values()):
        return EXIT_VERIFY
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
    p.add_argument("--format", choices=["csv"], default="csv")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("grid", help="write the rescaled density as VTK")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--output", help="file path (default: stdout)")
    p.add_argument("--format", choices=["vtk"], default="vtk")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("isosurface", help="extract an iso level as OBJ")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--level", type=float, default=50.0)
    p.add_argument("--cutaway", action="store_true",
                   help="remove the x<0, y<0, z>0 octant and cap it")
    p.add_argument("--output", help="file path (default: stdout)")
    p.add_argument("--format", choices=["obj"], default="obj")
    p.set_defaults(func=cmd_isosurface)

    p = sub.add_parser("slice", help="x=0 quadrant contours as CSV")
    _add_state_flags(p)
    _add_grid_flags(p)
    p.add_argument("--levels", default="10:100:10",
                   help="a:b:step or comma list (default 10:100:10)")
    p.add_argument("--output", help="file path (default: stdout)")
    p.add_argument("--format", choices=["csv"], default="csv")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("verify", help="independent checks as a JSON report")
    _add_state_flags(p)
    p.add_argument("--samples", type=int, default=100,
                   help="interior sample count for residual checks")
    p.add_argument("--output", help="file path (default: stdout)")
    p.add_argument("--format", choices=["json"], default="json")
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
    except (ValueError, json.JSONDecodeError) as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
