"""Cartesian density sampling, voxel grids, extent selection, rescaling."""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from rscp.cli import _sig, _vtk_chunks
from rscp.density import (_MAX_POINTS, DegenerateGridError, DensityGrid,
                          GridSpec, _gauss_nodes, auto_extent, build_grid,
                          density_at, grid_mass, normalize_relative)
from rscp.states import PotentialParams, StateLabels

H_210 = (StateLabels(2, 1, 0), PotentialParams())
RING = (StateLabels(6, 5, 0), PotentialParams(1.0, 0.5, 0.5))


# --------------------------------------------------------------- density_at


def test_density_at_origin_is_zero():
    assert density_at(*H_210, 0.0, 0.0, 0.0) == 0.0
    assert density_at(*RING, 0.0, 0.0, 0.0) == 0.0


def test_density_at_hydrogen_axis_value():
    rho = density_at(*H_210, 0.0, 0.0, 2.0)
    assert math.isclose(rho, math.exp(-2.0) / (8.0 * math.pi), rel_tol=1e-12)
    assert math.isclose(rho, 0.0053848, abs_tol=5e-8)


def test_density_at_axis_and_equator_zeros():
    # x = y = 0 and z = 0 are exact, so these limits are analytic zeros
    ring = (StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert density_at(*ring, 1.5, 0.0, 0.0) == 0.0      # equator, gamma1 > 0
    assert density_at(*ring, 0.0, 0.0, 1.5) == 0.0      # axis, m' > 0
    assert density_at(StateLabels(3, 2, 1), PotentialParams(),
                      0.0, 0.0, 2.0) == 0.0


def test_density_at_phi_symmetry():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6.0, 6.0, size=(50, 3))
    for x, y, z in pts:
        rho = density_at(*RING, x, y, z)
        s = math.hypot(x, y)
        ref = density_at(*RING, s, 0.0, z)
        assert math.isclose(rho, ref, rel_tol=1e-14, abs_tol=1e-300)


def test_density_at_vectorized_matches_scalar():
    xs = np.array([0.5, -1.0, 2.0])
    ys = np.array([0.25, 0.0, -3.0])
    zs = np.array([1.0, 2.0, 0.5])
    vec = density_at(*RING, xs, ys, zs)
    assert vec.shape == (3,)
    for i in range(3):
        assert vec[i] == density_at(*RING, xs[i], ys[i], zs[i])


# -------------------------------------------------------------- auto_extent


def test_auto_extent_hydrogen_ground_state():
    # frozen oracle: smallest h with int_0^h 4 r^2 e^(-2r) dr >= 0.999
    h = auto_extent(StateLabels(1, 0, 0), PotentialParams(), coverage=0.999)
    assert math.isclose(h, 5.6144361212, abs_tol=1e-6)


def test_auto_extent_monotone_in_coverage():
    hs = [auto_extent(*H_210, coverage=cov) for cov in (0.9, 0.99, 0.999)]
    assert hs[0] < hs[1] < hs[2]


def test_auto_extent_grows_with_n():
    params = PotentialParams(1.0, 0.5, 0.5)
    hs = [auto_extent(StateLabels(n, 1, 0), params) for n in (2, 4, 6)]
    assert hs[0] < hs[1] < hs[2]


def test_auto_extent_rejects_bad_coverage():
    with pytest.raises(ValueError):
        auto_extent(*H_210, coverage=1.0)
    with pytest.raises(ValueError):
        auto_extent(*H_210, coverage=0.0)


# --------------------------------------------------------------- build_grid


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(150, 10.0)   # even
    with pytest.raises(ValueError):
        GridSpec(1, 10.0)     # too small
    with pytest.raises(ValueError):
        GridSpec(151, 0.0)    # degenerate extent
    with pytest.raises(ValueError):
        GridSpec(5, math.inf)  # non-finite extent
    with pytest.raises(ValueError, match="from 3 to 401, got 403"):
        GridSpec(_MAX_POINTS + 2, 10.0)   # past the cap; nothing allocated
    assert GridSpec(_MAX_POINTS, 10.0).n_points == _MAX_POINTS
    assert GridSpec(151, 12.0).spacing == pytest.approx(24.0 / 150.0)
    coords = GridSpec(5, 2.0).coords()
    assert np.array_equal(coords, [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_build_grid_hydrogen_peak():
    grid = build_grid(*H_210, GridSpec(151, 12.0))
    peak = math.exp(-2.0) / (8.0 * math.pi)
    assert abs(grid.max_value - peak) / peak < 0.02
    assert grid.values.shape == (151, 151, 151)
    assert grid.max_value == grid.values.max()


def test_build_grid_matches_density_at():
    spec = GridSpec(21, 8.0)
    grid = build_grid(*RING, spec)
    coords = spec.coords()
    rng = np.random.default_rng(3)
    for _ in range(20):
        i, j, k = rng.integers(0, spec.n_points, size=3)
        want = density_at(*RING, coords[i], coords[j], coords[k])
        assert math.isclose(grid.values[i, j, k], want,
                            rel_tol=1e-12, abs_tol=1e-300)


def test_build_grid_exact_symmetries():
    grid = build_grid(*RING, GridSpec(41, 10.0))
    v = grid.values
    assert np.array_equal(v, v[:, :, ::-1])        # z-parity
    assert np.array_equal(v, np.swapaxes(v, 0, 1))  # x <-> y
    assert np.array_equal(v, v[::-1, :, :])        # x-parity


def test_vtk_rows_x_fastest():
    """VTK row (z, y) prints values[:, y, z], the x-fastest export order."""
    spec = GridSpec(5, 4.0)
    grid = build_grid(*H_210, spec)
    n = spec.n_points
    rows = "".join(_vtk_chunks(grid)).splitlines()[10:]
    assert len(rows) == n * n
    for z in range(n):
        for y in range(n):
            assert rows[z * n + y] == " ".join(map(_sig, grid.values[:, y, z]))


# ---------------------------------------------------------------- normalize


def test_normalize_relative_scaling():
    grid = build_grid(*H_210, GridSpec(31, 10.0))
    scaled = normalize_relative(grid)
    assert scaled.rescaled
    assert scaled.values.max() == 100.0
    assert scaled.max_value == 100.0
    assert np.allclose(scaled.values, grid.values * (100.0 / grid.max_value),
                       rtol=1e-15)


def test_normalize_relative_idempotent_bitwise():
    grid = normalize_relative(build_grid(*H_210, GridSpec(21, 10.0)))
    again = normalize_relative(grid)
    assert np.array_equal(again.values, grid.values)


def test_normalize_relative_zero_grid_rejected():
    spec = GridSpec(5, 1.0)
    zero = DensityGrid(spec=spec, values=np.zeros((5, 5, 5)), max_value=0.0)
    with pytest.raises(DegenerateGridError):
        normalize_relative(zero)


# ---------------------------------------------------------------- grid_mass


def test_grid_mass_near_unity_at_auto_extent():
    h = auto_extent(*H_210, coverage=0.999)
    grid = build_grid(*H_210, GridSpec(151, h))
    mass = grid_mass(grid)
    assert 0.97 <= mass <= 1.005


def test_grid_mass_improves_with_refinement():
    # the limit is the continuum integral over the cube, not the radial
    # coverage: the cube strictly contains the coverage sphere
    h = auto_extent(*H_210, coverage=0.999)
    ref = grid_mass(build_grid(*H_210, GridSpec(201, h)))
    assert ref > 0.999
    errs = [abs(grid_mass(build_grid(*H_210, GridSpec(n, h))) - ref)
            for n in (31, 61, 121)]
    assert errs[0] > errs[1] > errs[2]


def test_grid_mass_zero_grid():
    spec = GridSpec(5, 1.0)
    zero = DensityGrid(spec=spec, values=np.zeros((5, 5, 5)), max_value=0.0)
    assert grid_mass(zero) == 0.0


def test_grid_mass_rejects_rescaled_grid():
    # grid_mass sums the raw density; a rescaled grid peaks at 100
    grid = build_grid(*H_210, GridSpec(21, 10.0))
    with pytest.raises(ValueError, match="raw build_grid"):
        grid_mass(normalize_relative(grid))
    assert grid_mass(grid) < 1.0


# ------------------------------------------------------------- octant mirror


@pytest.mark.parametrize("n_points", [3, 5, 41])
@pytest.mark.parametrize("labels, params", [
    (StateLabels(2, 1, 0), PotentialParams()),
    (StateLabels(6, 5, 0), PotentialParams(1.0, 0.5, 0.5)),
    (StateLabels(5, 3, 2), PotentialParams(1.0, 0.5, 5.0)),
    (StateLabels(4, 3, -2), PotentialParams(1.0, 1.7, 0.0)),
    (StateLabels(3, 2, 1), PotentialParams(2.0, 0.5, 0.5)),
])
def test_build_grid_bitwise_equals_full_lattice(labels, params, n_points):
    spec = GridSpec(n_points, 12.0)
    coords = spec.coords()
    x, y, z = np.meshgrid(coords, coords, coords, indexing="ij")
    full = density_at(labels, params, x, y, z)
    assert np.array_equal(build_grid(labels, params, spec).values, full)


def test_backend_determinism_bitwise():
    spec = GridSpec(31, 9.0)
    a = build_grid(*RING, spec)
    b = build_grid(*RING, spec)
    assert np.array_equal(a.values, b.values)


def test_gauss_nodes_match_scipy():
    # the auto_extent panels: numpy's Legendre rule against scipy's
    x, w = _gauss_nodes(256)
    xs, ws = roots_legendre(256)
    assert np.max(np.abs(x - xs)) < 1e-13
    assert np.max(np.abs(w - ws)) < 1e-13
