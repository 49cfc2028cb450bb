#!/usr/bin/env python3
"""Record the sha256 goldens of every output the benchmark can produce.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

Each input in the pools (full and smoke sizes) runs once as a cold
``rscp`` child; the sha256 of its data file (``state``: its stdout) is
stored under the command line, and every file of each sweep variant
under the job.  Writes ``perfbench/goldens.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ops  # noqa: E402
import pool  # noqa: E402


def record_command(argv: list[str]) -> str:
    with ops.Workdir() as wd:
        if argv[0] == "state":
            outcome = ops.spawn(ops.rscp_argv(argv), wd)
            target = wd / ".stdout"
        else:
            target = wd / "out"
            outcome = ops.spawn(
                ops.rscp_argv(argv + ["--output", str(target)]), wd)
        if outcome.failures:
            raise SystemExit(f"{argv} failed: {outcome.stderr}")
        return ops.sha256_file(target)


def record_sweep(job: dict) -> dict:
    with ops.Workdir() as wd:
        (wd / "job.json").write_text(json.dumps(job, indent=2))
        out = wd / "out"
        outcome = ops.spawn(ops.rscp_argv(
            ["sweep", "--jobs", "job.json", "--output-dir", str(out),
             "--workers", str(pool.SWEEP_WORKERS)]), wd)
        if outcome.failures:
            raise SystemExit(f"sweep failed: {outcome.stderr}")
        return {p.name: ops.sha256_file(p) for p in sorted(out.iterdir())}


def main() -> int:
    goldens: dict = {}
    try:
        for size in (pool.SMOKE, pool.FULL):
            for argv in pool.all_golden_inputs(size):
                goldens[pool.key(argv)] = record_command(argv)
                print(pool.key(argv), flush=True)
            for variant in range(pool.SWEEP_VARIANTS):
                job = pool.sweep_job(variant, size)
                goldens["sweep " + pool.sweep_key(job)] = record_sweep(job)
                print("sweep", size, variant, flush=True)
    finally:
        ops.remove_work()
    ops.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
