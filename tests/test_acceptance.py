"""Acceptance gate: one test per release criterion, pinned tolerances.

Run with -v to get one pass/fail line per criterion.  Each test prints
its measured numbers so the values land in the captured output.
"""

import json
import math
import time

import numpy as np
import pytest

from rscp.density import (GridSpec, auto_extent, build_grid, grid_mass,
                          normalize_relative)
from rscp.states import PotentialParams, StateLabels, map_quantum_numbers
from rscp.surface import (apply_cutaway, is_watertight, marching_cubes,
                          pole_concentration)
from rscp.verify import (ode_residuals, quad_angular_norm, quad_radial_norm,
                         verify_state)
from rscp.cli import main as cli_main

from _hydrogen import hydrogen_oracle
from _mesh import connected_components
from _moments import angular_expectation_abs_x, radial_expectation_r
from conftest import CRITERION_5_STATES, TABLE1_STATES, density_at

SUITE = [(StateLabels(n, l, m), PotentialParams(1.0, 0.5, c))
         for (n, l, m) in TABLE1_STATES for c in (0.0, 0.5, 5.0)]


def test_criterion_1_quantum_number_mapping_exactness():
    t0 = time.perf_counter()
    for z in (1.0, 2.0, 3.0):
        for n in range(1, 7):
            want = -z * z / (2.0 * n * n)
            for l in range(n):
                for m in range(-l, l + 1):
                    q = map_quantum_numbers(StateLabels(n, l, m),
                                            PotentialParams(z, 0.0, 0.0))
                    assert q.energy == want, (z, n, l, m)
    q = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert abs(q.l_prime - 2.0731322) < 1e-6
    assert abs(q.n_prime - 3.0731322) < 1e-6
    assert abs(q.energy - (-0.0529429)) < 1e-6
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1: hydrogen exact for n<=6, ring example to 1e-6, "
          f"{dt:.3f}s")


def test_criterion_2_normalization_suite():
    t0 = time.perf_counter()
    worst_r = worst_a = 0.0
    for labels, params in SUITE:
        worst_r = max(worst_r, abs(quad_radial_norm(labels, params) - 1.0))
        worst_a = max(worst_a, abs(quad_angular_norm(labels, params) - 1.0))
    dt = time.perf_counter() - t0
    assert worst_r < 1e-8
    assert worst_a < 1e-8
    assert dt < 30.0
    print(f"criterion 2: 66 states, radial dev {worst_r:.2e}, "
          f"angular dev {worst_a:.2e}, {dt:.1f}s")


def test_criterion_3_ode_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for labels, params in SUITE:
        rres, ares = ode_residuals(labels, params)
        worst = max(worst, rres, ares)
    dt = time.perf_counter() - t0
    assert worst < 1e-6
    assert dt < 60.0
    print(f"criterion 3: 66 states x 100 samples, max residual {worst:.2e}, "
          f"{dt:.1f}s")


def test_criterion_4_hydrogen_oracle_equivalence():
    rng = np.random.default_rng(20240814)
    params = PotentialParams()
    worst = 0.0
    for n, l, m in TABLE1_STATES:
        r = rng.uniform(0.1, 3.0 * n, size=1000)
        theta = rng.uniform(0.01, math.pi - 0.01, size=1000)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=1000)
        x = r * np.sin(theta) * np.cos(phi)
        y = r * np.sin(theta) * np.sin(phi)
        z = r * np.cos(theta)
        ours = density_at(StateLabels(n, l, m), params, x, y, z)
        ref = np.array([hydrogen_oracle(n, l, m, p)
                        for p in zip(x, y, z)])
        scale = np.maximum(np.abs(ref), 1e-300)
        rel = float(np.max(np.abs(ours - ref) / scale))
        worst = max(worst, rel)
        assert rel < 1e-10, (n, l, m, rel)
    print(f"criterion 4: 22 states x 1000 points, worst rel dev {worst:.2e}")


def test_criterion_5_grid_integrity():
    masses = []
    for labels, params in CRITERION_5_STATES:
        h = auto_extent(labels, params)
        grid = build_grid(labels, params, GridSpec(151, h))
        mass = grid_mass(grid)
        masses.append(mass)
        assert 0.97 <= mass <= 1.005, (labels, params, mass)
        v = grid.values
        assert np.array_equal(v, v[:, :, ::-1])
        assert np.array_equal(v, np.swapaxes(v, 0, 1))
    print("criterion 5: masses "
          + ", ".join(f"{m:.4f}" for m in masses)
          + " all in [0.97, 1.005], symmetries exact")


def test_criterion_6_pole_concentration_increases_with_level():
    t0 = time.perf_counter()
    labels = StateLabels(6, 5, 0)
    levels = (10.0, 30.0, 50.0, 70.0, 90.0)
    for c in (0.5, 10.0):
        params = PotentialParams(1.0, 0.5, c)
        h = auto_extent(labels, params)
        grid = normalize_relative(build_grid(labels, params, GridSpec(151, h)))
        vals = [pole_concentration(grid, lv) for lv in levels]
        assert all(a < b for a, b in zip(vals, vals[1:])), (c, vals)
        print(f"criterion 6: c={c} concentrations "
              + " < ".join(f"{v:.3f}" for v in vals))
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"criterion 6: both N=151 grids in {dt:.1f}s")


def test_criterion_7_expectation_monotonicity():
    margin = 1e-6
    cos_vals = [angular_expectation_abs_x(StateLabels(5, 1, 0),
                                          PotentialParams(1.0, 0.5, c))
                for c in (0.5, 5, 10, 25, 40, 80)]
    assert all(b - a > margin for a, b in zip(cos_vals, cos_vals[1:]))
    r_vals = [radial_expectation_r(StateLabels(5, 1, 0),
                                   PotentialParams(1.0, b, 0.5))
              for b in (0, 5, 10, 25, 40, 80)]
    assert all(y - x > margin for x, y in zip(r_vals, r_vals[1:]))
    r_off = radial_expectation_r(StateLabels(4, 1, 0),
                                 PotentialParams(1.0, 0.0, 0.5))
    r_on = radial_expectation_r(StateLabels(4, 1, 0),
                                PotentialParams(1.0, 0.5, 0.5))
    assert r_on - r_off > margin
    # the abstract's b < 0 claim: against b = 0 at the same c > 0, a state
    # shrinks for b = -0.5 and spreads out for b = 0.5.  An m = 0 state
    # cannot carry b < 0: its angular order would be imaginary.
    signed = {}
    for (n, l, m), c in (((5, 2, 1), 0.5), ((4, 3, 2), 2.0)):
        states = [(StateLabels(n, l, m), PotentialParams(1.0, b, c))
                  for b in (-0.5, 0.0, 0.5)]
        assert all(verify_state(*state).all_passed for state in states)
        r_b = [radial_expectation_r(*state) for state in states]
        assert all(y - x > margin for x, y in zip(r_b, r_b[1:])), (n, l, m)
        signed[n, l, m] = "/".join(f"{r:.2f}" for r in r_b)
    print(f"criterion 7: <|cos|> {cos_vals[0]:.4f}->{cos_vals[-1]:.4f}, "
          f"<r> {r_vals[0]:.2f}->{r_vals[-1]:.2f}, "
          f"(4,1,0) shift {r_on - r_off:.4f}, <r> at b = -0.5/0/0.5 {signed}")


def test_criterion_8_mesh_correctness(hydrogen_210_grid):
    from rscp.density import DensityGrid
    spec = GridSpec(41, 2.0)
    coords = spec.coords()[20:]
    x, y, z = np.meshgrid(coords, coords, coords, indexing="ij")
    d = np.sqrt(x * x + y * y + z * z)
    octant = 100.0 * np.maximum(0.0, 1.0 - d / 1.6)
    sphere = DensityGrid(spec=spec, octant=octant, rescaled=True)
    mesh = marching_cubes(sphere, 50.0)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.all(np.abs(r - 0.8) < spec.spacing)
    assert is_watertight(mesh)

    hmesh = marching_cubes(hydrogen_210_grid, 50.0)
    assert is_watertight(hmesh)
    assert connected_components(hmesh) == 2

    cut = apply_cutaway(hmesh, hydrogen_210_grid)
    centroids = cut.vertices[cut.triangles].mean(axis=1)
    inside = ((centroids[:, 0] < -1e-12) & (centroids[:, 1] < -1e-12)
              & (centroids[:, 2] > 1e-12))
    assert not inside.any()
    print(f"criterion 8: sphere radius within {spec.spacing:.3f}, "
          f"hydrogen mesh 2 watertight lobes, cutaway octant empty")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    # single command rerun
    files = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.vtk"
        code = cli_main(["grid", "--n", "2", "--l", "1", "--m", "0",
                         "--b", "0.5", "--c", "0.5", "--N", "41",
                         "--output", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]

    # sweep under maximum parallelism vs serial
    job = {"runs": [
        {"n": 2, "l": 1, "m": 0, "b": 0.5, "c": 0.5,
         "outputs": ["grid", "isosurface", "slice"],
         "grid": {"n_points": 31}, "level": 50},
        {"n": 3, "l": 2, "m": 1, "b": 0.5, "c": 5,
         "outputs": ["grid", "slice"], "grid": {"n_points": 31}},
        {"n": 4, "l": 3, "m": 0, "b": 0.5, "c": 0.5,
         "outputs": ["isosurface"], "grid": {"n_points": 31},
         "level": 30, "cutaway": True},
    ]}
    bundles = []
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        out_dir.mkdir()
        job_path = tmp_path / f"job{workers}.json"
        job_path.write_text(json.dumps(dict(job, output_dir=str(out_dir),
                                            workers=workers)))
        code = cli_main(["sweep", "--jobs", str(job_path)])
        assert code == 0
        bundles.append({p.name: p.read_bytes()
                        for p in sorted(out_dir.iterdir())})
    capsys.readouterr()
    assert bundles[0].keys() == bundles[1].keys()
    assert bundles[0] == bundles[1]
    print(f"criterion 9: grid rerun and {len(bundles[0])} sweep artifacts "
          f"byte-identical at workers 1 vs 8")
