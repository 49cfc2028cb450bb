"""One traced workload item, run in a fresh interpreter.

Usage: ``python probe.py ITEM_JSON`` with ``src`` on ``PYTHONPATH``.
Prints one JSON object as the last line of stdout: the spans recorded
around calls into the public ``rscp`` API, counts taken at the same
boundaries, and the sha256 of every file written by ``rscp.cli.main``.

Item kinds:

- ``figure``: one ``grid``, ``isosurface`` or ``slice`` command.  The
  layer calls it makes (auto extent, grid fill, rescale, surface) are
  timed one by one, then ``rscp.cli.main`` runs the same command
  in-process; the command's self time is its span minus the layer spans.
- ``verify``: cold quadrature norms, ODE residuals and a warm
  ``verify_state`` for one state.
- ``sweep``: the figure layers and a warm ``verify_state`` for every run
  of a sweep job, in one process, as ``rscp sweep`` would run them.
- ``cli``: only the import and one ``rscp.cli.main`` call, the traced
  twin of a plain cold command (measures tracing overhead).
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

_T0 = time.perf_counter()


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append({"name": name, "parent": parent,
                                     "start": time.perf_counter() - _T0})
                tracer._stack.append(self.index)
                return self

            def __exit__(self, *exc):
                tracer._stack.pop()
                rec = tracer.spans[self.index]
                rec["end"] = time.perf_counter() - _T0
                rec["ok"] = exc[0] is None
                return False

        return _Span()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))



def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _state(item):
    from rscp import PotentialParams, StateLabels
    n, l, m, b, c = item
    return StateLabels(n, l, m), PotentialParams(1.0, b, c)


def _levels(text: str) -> list[float]:
    a, b, step = (float(p) for p in text.split(":"))
    count = int(round((b - a) / step)) + 1
    return [a + i * step for i in range(count)]


def _active_cells(values, level: float) -> int:
    """Cells whose corners straddle the level (marching cubes' rule)."""
    import numpy as np
    below = values < level
    m = values.shape[0] - 1
    corners = np.zeros((m, m, m), dtype=np.uint8)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corners += below[dx:dx + m, dy:dy + m, dz:dz + m]
    return int(np.count_nonzero((corners > 0) & (corners < 8)))


def _first_call(tr: Tracer, labels, params) -> None:
    from rscp import UalpSpec, angular_H, map_quantum_numbers
    q = map_quantum_numbers(labels, params)
    with tr.span("specfun.angular_H.first_call"):
        angular_H(UalpSpec(q.k, q.gamma1, q.m_prime), 0.5)


def _layers(tr: Tracer, labels, params, item: dict, prefix: str = ""):
    """The layer calls ``item["argv"]`` makes, each in its own span.

    Returns what each layer produced, by span name.
    """
    from rscp import (GridSpec, apply_cutaway, auto_extent, build_grid,
                      marching_cubes, normalize_relative, slice_contour)
    out = {}
    with tr.span(prefix + "density.auto_extent"):
        h = auto_extent(labels, params)
    with tr.span(prefix + "density.build_grid"):
        out["build_grid"] = build_grid(labels, params,
                                       GridSpec(item["n_points"], h))
    with tr.span(prefix + "density.normalize_relative"):
        grid = out["normalize_relative"] = normalize_relative(
            out["build_grid"])
    command = item["argv"][0]
    if command == "isosurface":
        with tr.span(prefix + "surface.marching_cubes"):
            mesh = out["marching_cubes"] = marching_cubes(grid, item["level"])
        with tr.span(prefix + "surface.apply_cutaway"):
            out["apply_cutaway"] = apply_cutaway(mesh, grid)
    elif command == "slice":
        with tr.span(prefix + "surface.slice_contour"):
            out["slice_contour"] = slice_contour(grid,
                                                 _levels(item["levels"]))
    return out


def _count_layers(tr: Tracer, out: dict, item: dict) -> None:
    from rscp import grid_mass
    raw = out["build_grid"]
    tr.count("density.build_grid.voxels", raw.values.size)
    tr.count("density.build_grid.bytes_computed", raw.values.nbytes)
    tr.sample("density.grid_mass", grid_mass(raw))
    if "marching_cubes" in out:
        values = out["normalize_relative"].values
        tr.count("surface.marching_cubes.triangles",
                 len(out["marching_cubes"].triangles))
        tr.count("surface.marching_cubes.active_cells",
                 _active_cells(values, item["level"]))
        tr.count("surface.marching_cubes.cells", (values.shape[0] - 1) ** 3)
        tr.count("surface.apply_cutaway.triangles_out",
                 len(out["apply_cutaway"].triangles))
    if "slice_contour" in out:
        tr.count("surface.slice_contour.polylines",
                 sum(len(cs.polylines) for cs in out["slice_contour"]))


def figure_item(tr: Tracer, item: dict, workdir: Path, artifacts: dict):
    """Layer calls of one command, then the command itself in-process.

    The command's self time is its span minus the spans of the layer
    calls it makes on the same inputs, repeated right after it so that
    both run with the same caches; what is left is argument parsing and
    the writer.
    """
    import rscp.cli
    labels, params = _state(item["state"])
    argv, command = item["argv"], item["argv"][0]
    _first_call(tr, labels, params)
    _count_layers(tr, _layers(tr, labels, params, item), item)
    out = workdir / ("out." + command)
    with tr.span(f"cli.{command}") as span:
        code = rscp.cli.main(argv + ["--output", str(out)])
    if code != 0:
        raise RuntimeError(f"rscp.cli.main exited {code} for {argv}")
    with tr.span("repeat") as repeat:
        _layers(tr, labels, params, item, prefix="repeat.")
    main = tr.spans[span.index]
    tr.sample(f"cli.{command}.self_s",
              (main["end"] - main["start"])
              - sum(s["end"] - s["start"]
                    for s in tr.spans[repeat.index + 1:]))
    tr.count(f"cli.{command}.bytes", out.stat().st_size)
    artifacts[" ".join(argv)] = _sha256(out)


def verify_item(tr: Tracer, item: dict, workdir: Path, artifacts: dict):
    from rscp import (ode_residuals, quad_angular_norm, quad_radial_norm,
                      verify_state)
    labels, params = _state(item["state"])
    _first_call(tr, labels, params)
    with tr.span("verify.quad_radial_norm.cold"):
        quad_radial_norm(labels, params)
    with tr.span("verify.quad_angular_norm.cold"):
        quad_angular_norm(labels, params)
    with tr.span("verify.ode_residuals"):
        ode_residuals(labels, params)
    with tr.span("verify.verify_state.warm"):
        report = verify_state(labels, params)
    _count_checks(tr, report)


def _count_checks(tr: Tracer, report) -> None:
    tr.count("verify.checks", len(report.checks))
    tr.count("verify.checks_passed", sum(c.passed for c in report.checks))


def sweep_item(tr: Tracer, item: dict, workdir: Path, artifacts: dict):
    """Layer calls of each sweep run, in job order, in one process."""
    from pool import SLICE_LEVELS, run_file_argvs, run_state
    from rscp import verify_state
    for run in item["job"]["runs"]:
        state = run_state(run)
        for argv in run_file_argvs(run):
            figure_item(tr, {"state": state, "argv": argv,
                             "n_points": run["grid"]["n_points"],
                             "level": run.get("level"),
                             "levels": SLICE_LEVELS}, workdir, artifacts)
        if "verify" in run["outputs"]:
            labels, params = _state(state)
            verify_state(labels, params)
            with tr.span("verify.verify_state.warm"):
                report = verify_state(labels, params)
            _count_checks(tr, report)


def cli_item(tr: Tracer, item: dict, workdir: Path, artifacts: dict):
    with tr.span("import.rscp_cli"):
        import rscp.cli
    buf = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(buf):
        code = rscp.cli.main(item["argv"])
    if code != 0:
        raise RuntimeError(f"rscp.cli.main exited {code}")
    artifacts[" ".join(item["argv"])] = hashlib.sha256(
        buf.getvalue().encode()).hexdigest()


KINDS = {"figure": figure_item, "verify": verify_item, "sweep": sweep_item,
         "cli": cli_item}


def main(argv: list[str]) -> int:
    item = json.loads(argv[0])
    tr = Tracer()
    artifacts: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        KINDS[item["kind"]](tr, item, Path(tmp), artifacts)
    print(json.dumps({"spans": tr.spans, "counts": tr.counts,
                      "samples": tr.samples, "artifacts": artifacts}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1:]))
