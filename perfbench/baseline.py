#!/usr/bin/env python3
"""Print the ROADMAP baseline table from one benchmark pass at the anchors.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--seed 1] [--seconds 25]

Runs the ``figure``, ``verify-cold`` and ``sweep`` workloads untraced
and ``figure`` and ``verify-cold`` traced, then prints a markdown table
of the anchor-state rows: import, the six commands, the layers under
them, the grid writer's self time and cold ``quad_angular_norm``.
Timings are medians over the pass's samples at the anchor inputs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ops  # noqa: E402
import pool  # noqa: E402
import run  # noqa: E402

FIG = pool.FIGURE_ANCHOR
N = pool.FULL.figure_n


def _walls(bench: run.Bench, argv: list[str]) -> list[float]:
    return [i["wall_s"] for i in bench.inputs if i["input"] == argv]


def _spans(spans: list, name: str, argv: list[str]) -> list[float]:
    label = pool.key(argv)
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and s["item"] == label]


def _fmt(values: list[float]) -> str:
    if not values:
        return "n/a"
    med = statistics.median(values)
    text = f"{med * 1e3:.0f} ms" if med < 1.0 else f"{med:.2f} s"
    return f"{text} (n={len(values)})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    problem = run.checkout_problem()
    if problem:
        print(f"baseline: {problem}", file=sys.stderr)
        return 2
    goldens = ops.load_goldens()
    benches, spans = {}, {}
    try:
        for workload in ("figure", "verify-cold", "sweep"):
            bench = benches[workload] = run.Bench(args.seed, pool.FULL,
                                                  goldens)
            run.end_to_end(bench, workload, args.seconds)
        for workload in ("figure", "verify-cold"):
            bench = benches["traced " + workload] = run.Bench(
                args.seed, pool.FULL, goldens)
            spans[workload] = run.traced(bench, workload)[1]
    finally:
        ops.remove_work()

    fig, ver, swp = (benches[w] for w in ("figure", "verify-cold", "sweep"))
    tfig = benches["traced figure"]
    grid_argv = pool.grid_argv(FIG, N)
    iso_argv = pool.isosurface_argv(FIG, N, pool.FIXED_LEVEL)
    slice_argv = pool.slice_argv(pool.SLICE_ANCHOR, N)
    verify_argv = pool.verify_argv(pool.VERIFY_ANCHOR)
    rows = [
        ("`import rscp.cli`", _fmt(fig.samples["setup_s"])
         + f"; `scipy.special` {_fmt(tfig.samples['import.scipy_special_s'])}"),
        ("`rscp state`", _fmt(_walls(fig, pool.state_argv(FIG)))),
        ("`rscp grid` → ASCII VTK", _fmt(_walls(fig, grid_argv))),
        ("`rscp isosurface --cutaway` (level 50)", _fmt(_walls(fig, iso_argv))),
        ("`rscp slice` (2,1,0)", _fmt(_walls(fig, slice_argv))),
        ("`rscp verify` (6,5,0) b=0.5 c=10", _fmt(_walls(ver, verify_argv))),
        ("`rscp sweep` (6 runs, N=101, 2 workers)",
         _fmt(swp.samples["latency_s"])),
        ("`auto_extent`", _fmt(_spans(spans["figure"], "density.auto_extent",
                                      grid_argv))),
        ("`build_grid` (N=151)", _fmt(_spans(spans["figure"],
                                             "density.build_grid", grid_argv))),
        ("`normalize_relative`", _fmt(_spans(
            spans["figure"], "density.normalize_relative", grid_argv))),
        ("`marching_cubes` (level 50)", _fmt(_spans(
            spans["figure"], "surface.marching_cubes", iso_argv))),
        ("`apply_cutaway` (level 50)", _fmt(_spans(
            spans["figure"], "surface.apply_cutaway", iso_argv))),
        ("`slice_contour` (10 levels)", _fmt(_spans(
            spans["figure"], "surface.slice_contour", slice_argv))),
        ("grid writer self time (`cli.grid.self_s`)",
         _fmt(_self_times(spans["figure"], grid_argv))),
        ("`quad_angular_norm`, cold (verify anchor)", _fmt(_spans(
            spans["verify-cold"], "verify.quad_angular_norm.cold",
            verify_argv))),
    ]
    host = run.host_info()
    print(f"Harness baseline, seed {args.seed}: {host['nproc']} cores, "
          f"{host['cpu_model']}, Python {host['python']}, numpy "
          f"{host['numpy']}, scipy {host['scipy']}, numba "
          f"{'importable' if host['numba_importable'] else 'not installed'}"
          f"; `src/` {run.src_lines()} lines.\n")
    print("| what | time |\n|---|---|")
    for what, value in rows:
        print(f"| {what} | {value} |")
    return 0


def _self_times(spans: list, argv: list[str]) -> list[float]:
    """cli span minus the repeated layer spans that follow it."""
    label = pool.key(argv)
    item = [s for s in spans if s["item"] == label]
    out = []
    for i, s in enumerate(item):
        if s["name"] == f"cli.{argv[0]}":
            repeat = [r for r in item[i + 1:]
                      if r["name"].startswith("repeat.")]
            out.append(s["end"] - s["start"]
                       - sum(r["end"] - r["start"] for r in repeat))
    return out


if __name__ == "__main__":
    sys.exit(main())
