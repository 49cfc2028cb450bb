"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import pool  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _plan(seed: int) -> dict:
    """Everything a run with this seed draws, round by round."""
    rng = random.Random(seed)
    levels = pool.low_levels(rng)
    figure = [pool.figure_round(rng, i, next(levels), pool.FULL)
              for i in range(4)]
    rng = random.Random(seed)
    verify = [pool.verify_round(rng, smoke=False) for _ in range(3)]
    rng = random.Random(seed)
    sweep = [pool.sweep_order(rng) for _ in range(3)]
    return {"figure": figure, "verify": verify, "sweep": sweep}


def test_same_seed_gives_same_inputs():
    assert _plan(7) == _plan(7)
    for k in ("figure", "verify", "sweep"):
        assert _plan(7)[k] != _plan(8)[k]


def test_anchors_always_included():
    for seed in range(20):
        plan = _plan(seed)
        assert pool.VERIFY_ANCHOR in plan["verify"][0]
        first = plan["figure"][0]
        assert first["grid"] == [pool.grid_argv(pool.FIGURE_ANCHOR, 151)]
        assert first["slice"] == [pool.slice_argv(pool.SLICE_ANCHOR, 151)]


def test_low_levels_pair_up_in_range():
    levels = pool.low_levels(random.Random(3))
    for _ in range(10):
        a, b = next(levels), next(levels)
        assert 5 <= a <= 20 and 5 <= b <= 20 and a + b == pool.LOW_PAIR_SUM


def _all_states():
    states = {pool.FIGURE_ANCHOR, pool.SLICE_ANCHOR, pool.VERIFY_ANCHOR,
              pool.EDGE_ANCHOR, *pool.FIGURE_POOL, *pool.VERIFY_NONINTEGER,
              *pool.VERIFY_INTEGER, *pool.EDGE_POOL}
    for variant in range(pool.SWEEP_VARIANTS):
        states.update(pool.run_state(r)
                      for r in pool.sweep_job(variant, pool.FULL)["runs"])
    return sorted(states)


@pytest.mark.parametrize("state", _all_states())
def test_every_pool_state_is_admissible(state):
    from rscp import PotentialParams, StateLabels, map_quantum_numbers
    assert pool.admissible(state)
    n, l, m, b, c = state
    map_quantum_numbers(StateLabels(n, l, m), PotentialParams(1.0, b, c))


def test_verify_classes_have_the_stated_m_prime_and_gamma1():
    from rscp import PotentialParams, StateLabels, map_quantum_numbers

    def quasi(state):
        n, l, m, b, c = state
        q = map_quantum_numbers(StateLabels(n, l, m),
                                PotentialParams(1.0, b, c))
        return q.m_prime, q.gamma1

    for state in pool.VERIFY_INTEGER:
        assert all(float(v).is_integer() for v in quasi(state))
    for state in pool.VERIFY_NONINTEGER:
        assert not any(float(v).is_integer() for v in quasi(state))


def test_no_near_hydrogen_state_in_sweep_or_figure():
    for variant in range(pool.SWEEP_VARIANTS):
        for r in pool.sweep_job(variant, pool.FULL)["runs"]:
            assert pool.run_state(r) not in (pool.EDGE_ANCHOR, *pool.EDGE_POOL)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert "setup_s" in e2e
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for w in spec["workloads"]:
        assert w["name"] in run.WORKLOADS and len(w["why"]) <= 200


def _imports(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_only_public_rscp_api():
    files = sorted(BENCH.rglob("*.py"))
    assert files
    for path in files:
        for module, name in _imports(path):
            if module == "rscp" or module.startswith("rscp."):
                assert not any(p.startswith("_") for p in module.split("."))
                assert name is None or not name.startswith("_")
        assert not re.search(r"\brscp(\.\w+)*\._", path.read_text()), path


def test_goldens_cover_every_input():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    for size in (pool.SMOKE, pool.FULL):
        for argv in pool.all_golden_inputs(size):
            assert pool.key(argv) in goldens, argv
        for variant in range(pool.SWEEP_VARIANTS):
            job = pool.sweep_job(variant, size)
            assert "sweep " + pool.sweep_key(job) in goldens


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["figure", "verify-cold", "sweep"])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)
    assert not (ROOT / ".perfbench_work").exists()


def test_wrong_artifact_is_counted():
    import ops
    goldens = json.loads((BENCH / "goldens.json").read_text())
    argv = pool.state_argv(pool.FIGURE_ANCHOR)
    good = ops.run_command(argv, goldens)
    bad = ops.run_command(argv, {pool.key(argv): "0" * 64})
    ops.remove_work()
    assert good.failures == []
    assert bad.failures == ["wrong_artifact"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "figure", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
