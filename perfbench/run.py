#!/usr/bin/env python3
"""Benchmark of the ``rscp`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figure --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, no threads in this process; every
command is a cold ``python -m rscp.cli`` child with ``src`` on its path):

- ``figure``: ``state``, ``grid --N 151``, ``isosurface --cutaway`` over
  the level series (50 and a seeded low level), ``slice`` for
  figure-style states.
- ``verify-cold``: one cold ``rscp verify`` per state: the anchor, a
  non-integer and an integer (m', gamma1) draw.
- ``sweep``: one ``rscp sweep --workers 2`` job of six mixed runs.
- ``verify-edge`` (not in BENCHMARK.json): near-hydrogen states whose
  verification raises ``ConvergenceError`` today; each is a counted
  failure.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics, from spans recorded around
public ``rscp`` calls in a fresh interpreter per item (``probe.py``).
The run record (host, versions, inputs, sample counts, failures by kind)
goes to stderr and, with ``--record FILE``, to that file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import re
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ops  # noqa: E402
import pool  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.rscp_cli_s": "s",
    "import.scipy_special_s": "s",
    "specfun.angular_H.first_call_s": "s",
    "density.auto_extent_s": "s",
    "density.build_grid_s": "s",
    "density.build_grid.mvox_per_s": "Mvox/s",
    "density.build_grid.voxels": "count",
    "density.build_grid.bytes_computed": "B",
    "density.normalize_relative_s": "s",
    "density.grid_mass": "probability",
    "surface.marching_cubes_s": "s",
    "surface.marching_cubes.active_cells": "count",
    "surface.marching_cubes.active_frac": "fraction",
    "surface.marching_cubes.triangles": "count",
    "surface.apply_cutaway_s": "s",
    "surface.apply_cutaway.triangles_out": "count",
    "surface.slice_contour_s": "s",
    "surface.slice_contour.polylines": "count",
    "cli.grid.self_s": "s",
    "cli.isosurface.self_s": "s",
    "cli.slice.self_s": "s",
    "cli.vtk_bytes": "B",
    "cli.obj_bytes": "B",
    "cli.csv_bytes": "B",
    "cli.write_mb_per_s": "MB/s",
    "verify.quad_angular_norm.cold_s": "s",
    "verify.quad_radial_norm.cold_s": "s",
    "verify.ode_residuals_s": "s",
    "verify.verify_state.warm_s": "s",
    "verify.checks_passed_frac": "fraction",
    "sweep.cpu_s": "s",
    "sweep.cpu_util": "fraction",
    "trace.overhead_frac": "fraction",
}
WORKLOADS = ("figure", "verify-cold", "sweep", "verify-edge")
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
OVERHEAD_PAIRS = 5
PROBE = str(Path(__file__).resolve().parent / "probe.py")


class Bench:
    """State of one run: inputs, samples, failures and child usage."""

    def __init__(self, seed: int, size: pool.Size, goldens: dict):
        self.rng = random.Random(seed)
        self.size = size
        self.goldens = goldens
        self.tally = ops.Tally()
        self.samples: dict[str, list] = {}
        self.inputs: list = []
        self.peak_rss_mb = 0.0
        self.units_wall = 0.0
        self.units_runs = 0

    def note(self, outcome: ops.Outcome, what) -> ops.Outcome:
        self.tally.add(outcome.failures)
        self.peak_rss_mb = max(self.peak_rss_mb, outcome.maxrss_mb)
        self.inputs.append({"input": what, "wall_s": outcome.wall_s,
                            "maxrss_mb": outcome.maxrss_mb,
                            "failures": outcome.failures})
        return outcome

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def spawn(self, argv: list[str], what) -> ops.Outcome:
        with ops.Workdir() as wd:
            return self.note(ops.spawn(argv, wd), what)

    def command(self, argv: list[str]) -> ops.Outcome:
        return self.note(ops.run_command(argv, self.goldens), argv)


# ------------------------------------------------------------ end to end

def setup(bench: Bench, count: int) -> None:
    """Cold ``import rscp.cli`` in fresh interpreters.

    The first import is not timed: it writes the bytecode cache, which
    an installed package already has.
    """
    argv = [sys.executable, "-c", "import rscp.cli"]
    bench.spawn(argv, "prime import rscp.cli")
    for _ in range(count):
        bench.add("setup_s", bench.spawn(argv, "import rscp.cli").wall_s)


def rounds(seconds: float, pairs: bool = False):
    """Round indices for at most ``seconds``; at least one round (or pair).

    Another round (or pair) starts only when the mean duration so far
    says it ends within ``seconds``, so a run's length does not jump by
    a whole round when the machine is a little faster or slower.
    """
    start, index, step = time.perf_counter(), 0, 2 if pairs else 1
    while True:
        yield index
        index += 1
        if index % step == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (index + step) / index > seconds:
                return


def unit(bench: Bench, wall: float, runs: int) -> None:
    bench.add("latency_s", wall)
    bench.units_wall += wall
    bench.units_runs += runs


def figure(bench: Bench, seconds: float) -> None:
    """Rounds come in pairs so each low level meets its partner."""
    levels = pool.low_levels(bench.rng)
    for index in rounds(seconds, pairs=True):
        cmds = pool.figure_round(bench.rng, index, next(levels), bench.size)
        total = 0.0
        for kind, argvs in cmds.items():
            walls = [bench.command(argv).wall_s for argv in argvs]
            total += sum(walls)
            if kind == "isosurface":
                bench.add("isosurface_s", sum(walls))
            else:
                for w in walls:
                    bench.add(f"{kind}_s", w)
        unit(bench, total, sum(len(a) for a in cmds.values()))


def verify(bench: Bench, seconds: float, draw) -> None:
    for _ in rounds(seconds):
        for state in draw(bench.rng):
            wall = bench.command(pool.verify_argv(state)).wall_s
            bench.add("verify_s", wall)
            unit(bench, wall, 1)


def sweep(bench: Bench, seconds: float) -> None:
    """Rounds run every job variant once, in seeded order."""
    for _ in rounds(seconds):
        for variant in pool.sweep_order(bench.rng):
            job = pool.sweep_job(variant, bench.size)
            outcome = bench.note(
                ops.run_sweep(job, bench.goldens, pool.SWEEP_WORKERS),
                {"sweep": job})
            runs = len(job["runs"])
            bench.add("sweep_runs_per_s", runs / outcome.wall_s)
            bench.add("sweep_cpu_s", outcome.cpu_s)
            unit(bench, outcome.wall_s, runs)


def end_to_end(bench: Bench, workload: str, seconds: float) -> dict:
    setup(bench, SETUP_SAMPLES if bench.size is pool.FULL else 2)
    if workload == "figure":
        figure(bench, seconds)
    elif workload == "verify-cold":
        verify(bench, seconds,
               lambda rng: pool.verify_round(rng, bench.size is pool.SMOKE))
    elif workload == "verify-edge":
        verify(bench, seconds, pool.edge_round)
    else:
        sweep(bench, seconds)
    return {
        "setup_s": statistics.median(bench.samples["setup_s"]),
        "latency_s": statistics.median(bench.samples["latency_s"]),
        "runs_per_s": bench.units_runs / bench.units_wall,
        "peak_rss_mb": bench.peak_rss_mb,
    }


# ---------------------------------------------------------------- traced

def import_probe(bench: Bench) -> None:
    """-X importtime of a cold ``import rscp.cli``: total and scipy.special."""
    argv = [sys.executable, "-X", "importtime", "-c", "import rscp.cli"]
    outcome = bench.spawn(argv, "importtime rscp.cli")
    total, scipy_special = 0, 0
    for line in outcome.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if depth == 1 and (name == "rscp" or name.startswith("rscp.")):
            total += cumulative
        if name == "scipy.special" and not scipy_special:
            scipy_special = cumulative
    bench.add("import.rscp_cli_s", total / 1e6)
    bench.add("import.scipy_special_s", scipy_special / 1e6)


def probe(bench: Bench, item: dict) -> tuple[ops.Outcome, dict | None]:
    """Run one traced item in a fresh interpreter and check its outputs."""
    with ops.Workdir() as wd:
        outcome = ops.spawn([sys.executable, PROBE, json.dumps(item)], wd)
    result = None
    if not outcome.failures:
        result = json.loads(outcome.stdout.strip().splitlines()[-1])
        c = result["counts"]
        if any(bench.goldens.get(k) != sha
               for k, sha in result["artifacts"].items()) or \
                c.get("verify.checks_passed") != c.get("verify.checks"):
            outcome.failures.append("wrong_artifact")
    bench.note(outcome, {"traced": item})
    return outcome, None if outcome.failures else result


def overhead(bench: Bench) -> None:
    """Cold ``state`` plain and through the span recorder, alternating."""
    argv = pool.state_argv(pool.FIGURE_ANCHOR)
    for i in range(OVERHEAD_PAIRS):
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            outcome = (probe(bench, {"kind": "cli", "argv": argv})[0]
                       if traced else bench.command(argv))
            walls[traced] = outcome.wall_s
        bench.add("trace.overhead_frac", walls[True] / walls[False] - 1.0)


def figure_items(state, n_points: int, level: int, slice_state) -> list:
    def item(argv, st, **extra):
        return dict(kind="figure", state=st, n_points=n_points,
                    levels=pool.SLICE_LEVELS, argv=argv, **extra)
    return [
        item(pool.grid_argv(state, n_points), state),
        item(pool.isosurface_argv(state, n_points, pool.FIXED_LEVEL), state,
             level=pool.FIXED_LEVEL),
        item(pool.isosurface_argv(state, n_points, level), state,
             level=level),
        item(pool.slice_argv(slice_state, n_points), slice_state),
    ]


def traced_items(bench: Bench, workload: str) -> tuple[list, dict]:
    """Items of one traced pass, and the sweep job timed for CPU.

    Each workload's own items come first.  Layers the workload does not
    run are then probed once on small fixed inputs (the smoke size), so
    every per-layer metric is measured on every workload.
    """
    rng, size = bench.rng, bench.size
    low = next(pool.low_levels(rng))
    small = figure_items(pool.FIGURE_ANCHOR, pool.SMOKE.figure_n, low,
                         pool.SLICE_ANCHOR)
    small_job = pool.sweep_job(0, pool.SMOKE)
    if workload == "figure":
        items = figure_items(pool.FIGURE_ANCHOR, size.figure_n, low,
                             pool.SLICE_ANCHOR)
        verify_state = (pool.FIGURE_ANCHOR if size is pool.FULL
                        else rng.choice(pool.VERIFY_INTEGER))
        return items + [{"kind": "verify", "state": verify_state}], small_job
    if workload == "sweep":
        job = pool.sweep_job(rng.randrange(pool.SWEEP_VARIANTS), size)
        states = [pool.run_state(r) for r in job["runs"]
                  if "verify" in r["outputs"]]
        return ([{"kind": "sweep", "job": job}]
                + [{"kind": "verify", "state": s} for s in states]), job
    draw = (pool.edge_round(rng) if workload == "verify-edge"
            else pool.verify_round(rng, size is pool.SMOKE))
    return [{"kind": "verify", "state": s} for s in draw] + small, small_job


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def traced(bench: Bench, workload: str) -> tuple[dict, list]:
    for _ in range(IMPORT_PROBES):
        import_probe(bench)
    overhead(bench)
    spans: list = []
    counts: dict = {}
    samples: dict = {}
    items, job = traced_items(bench, workload)
    for item in items:
        result = probe(bench, item)[1]
        if result is None:
            continue
        label = pool.key(item["argv"] if "argv" in item
                         else pool.verify_argv(item["state"])
                         if "state" in item else [item["kind"]])
        spans.extend(dict(s, item=label) for s in result["spans"])
        for name, value in result["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        for name, values in result["samples"].items():
            samples.setdefault(name, []).extend(values)
    outcome = bench.note(ops.run_sweep(job, bench.goldens,
                                       pool.SWEEP_WORKERS), {"sweep": job})
    bench.add("sweep.cpu_s", outcome.cpu_s)
    bench.add("sweep.cpu_util",
              outcome.cpu_s / (outcome.wall_s * pool.SWEEP_WORKERS))

    durations: dict[str, list] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])

    def med(metric, values):
        """Median of values, kept as the metric's samples."""
        bench.samples[metric] = list(values)
        return _median(values)

    def span_median(name):
        return med(name + "_s", durations.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    b = bench.samples
    voxels = counts.get("density.build_grid.voxels", 0.0)
    self_times = {c: samples.get(f"cli.{c}.self_s", [])
                  for c in ("grid", "isosurface", "slice")}
    written = sum(counts.get(f"cli.{c}.bytes", 0.0) for c in self_times)
    metrics = {
        "import.rscp_cli_s": _median(b["import.rscp_cli_s"]),
        "import.scipy_special_s": _median(b["import.scipy_special_s"]),
        "specfun.angular_H.first_call_s":
            span_median("specfun.angular_H.first_call"),
        "density.auto_extent_s": span_median("density.auto_extent"),
        "density.build_grid_s": span_median("density.build_grid"),
        "density.build_grid.mvox_per_s": ratio(
            voxels / 1e6, sum(durations.get("density.build_grid", []))),
        "density.build_grid.voxels": voxels,
        "density.build_grid.bytes_computed":
            counts.get("density.build_grid.bytes_computed", 0.0),
        "density.normalize_relative_s":
            span_median("density.normalize_relative"),
        "density.grid_mass": med("density.grid_mass",
                                 samples.get("density.grid_mass", [])),
        "surface.marching_cubes_s": span_median("surface.marching_cubes"),
        "surface.marching_cubes.active_cells":
            counts.get("surface.marching_cubes.active_cells", 0.0),
        "surface.marching_cubes.active_frac": ratio(
            counts.get("surface.marching_cubes.active_cells", 0.0),
            counts.get("surface.marching_cubes.cells", 0.0)),
        "surface.marching_cubes.triangles":
            counts.get("surface.marching_cubes.triangles", 0.0),
        "surface.apply_cutaway_s": span_median("surface.apply_cutaway"),
        "surface.apply_cutaway.triangles_out":
            counts.get("surface.apply_cutaway.triangles_out", 0.0),
        "surface.slice_contour_s": span_median("surface.slice_contour"),
        "surface.slice_contour.polylines":
            counts.get("surface.slice_contour.polylines", 0.0),
        "cli.grid.self_s": med("cli.grid.self_s", self_times["grid"]),
        "cli.isosurface.self_s": med("cli.isosurface.self_s",
                                     self_times["isosurface"]),
        "cli.slice.self_s": med("cli.slice.self_s", self_times["slice"]),
        "cli.vtk_bytes": counts.get("cli.grid.bytes", 0.0),
        "cli.obj_bytes": counts.get("cli.isosurface.bytes", 0.0),
        "cli.csv_bytes": counts.get("cli.slice.bytes", 0.0),
        "cli.write_mb_per_s": ratio(
            written / 1e6, sum(sum(v) for v in self_times.values())),
        "verify.quad_angular_norm.cold_s":
            span_median("verify.quad_angular_norm.cold"),
        "verify.quad_radial_norm.cold_s":
            span_median("verify.quad_radial_norm.cold"),
        "verify.ode_residuals_s": span_median("verify.ode_residuals"),
        "verify.verify_state.warm_s":
            span_median("verify.verify_state.warm"),
        "verify.checks_passed_frac": ratio(
            counts.get("verify.checks_passed", 0.0),
            counts.get("verify.checks", 0.0)),
        "sweep.cpu_s": _median(b["sweep.cpu_s"]),
        "sweep.cpu_util": _median(b["sweep.cpu_util"]),
        "trace.overhead_frac": _median(b["trace.overhead_frac"]),
    }
    return metrics, spans


# ---------------------------------------------------------------- record

def host_info() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for level in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            caches[level.lower()] = os.sysconf(f"SC_{level}_SIZE")
        except (ValueError, OSError):
            caches[level.lower()] = None
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        mem = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "cache_bytes": caches, "memory_bytes": mem,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_importable": importlib.util.find_spec("numba") is not None}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ops.ROOT / "src").rglob("*.py")))


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (ops.ROOT / "src" / "rscp" / "cli.py").is_file():
        return f"no rscp source under {ops.ROOT / 'src'}"
    if not ops.GOLDENS.is_file():
        return f"missing goldens file {ops.GOLDENS}"
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: N = 15, integer verify states only")
    p.add_argument("--record", help="also write the run record here")
    return p.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through ops.spawn's cleanup


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    problem = checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    size = pool.SMOKE if args.smoke else pool.FULL
    bench = Bench(args.seed, size, ops.load_goldens())
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, spans = traced(bench, args.workload)
            units = PER_LAYER
        else:
            metrics, spans = end_to_end(bench, args.workload,
                                        args.seconds), []
            units = END_TO_END
    finally:
        ops.remove_work()
    tally = bench.tally
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "elapsed_s": time.perf_counter() - started,
        "host": host_info(), "src_lines": src_lines(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures_by_kind": dict(tally.kinds),
        "sample_counts": dict(
            {k: len(v) for k, v in bench.samples.items()},
            **({} if args.trace else {"runs_per_s": bench.units_runs,
                                      "peak_rss_mb": tally.attempted})),
        "samples": bench.samples, "metrics": metrics,
        "inputs": bench.inputs, "spans": spans,
    }
    text = json.dumps(record, indent=1)
    print(text, file=sys.stderr)
    if args.record:
        Path(args.record).write_text(text + "\n")

    for name, value in metrics.items():
        n = record["sample_counts"].get(name)
        print(f"{name:36s} {value:14.6g} {units[name]:12s}"
              + (f" n={n}" if n is not None else ""))
    for name, values in bench.samples.items():
        if name not in metrics:     # per-command medians of the workload
            unit = "1/s" if name.endswith("per_s") else "s"
            print(f"{name:36s} {statistics.median(values):14.6g} "
                  f"{unit:12s} n={len(values)}")
    print(f"{'failed_frac':36s} {record['failed_frac']:14.6g} "
          f"{'fraction':12s} attempted={tally.attempted} "
          f"kinds={dict(tally.kinds)}")
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
