"""Cartesian density sampling, voxel grids, extent selection, rescaling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from rscp.cli import _sig, _vtk_chunks
from rscp.density import (_MAX_POINTS, _RADIAL_NODES, _RADIAL_PANELS,
                          DegenerateGridError, DensityGrid, GridSpec,
                          _gauss_nodes, _radial_cumulative, auto_extent,
                          build_grid, grid_mass, normalize_relative)
from rscp.specfun import radial_u
from rscp.states import PotentialParams, StateLabels, map_quantum_numbers
from rscp.surface import pole_concentration

from conftest import CRITERION_5_STATES, density_at

H_210 = (StateLabels(2, 1, 0), PotentialParams())
RING = (StateLabels(6, 5, 0), PotentialParams(1.0, 0.5, 0.5))


# ------------------------------------------- the kernel, through density_at


def test_density_at_origin_is_zero():
    assert density_at(*H_210, 0.0, 0.0, 0.0)[0] == 0.0
    assert density_at(*RING, 0.0, 0.0, 0.0)[0] == 0.0


def test_density_at_hydrogen_axis_value():
    rho, = density_at(*H_210, 0.0, 0.0, 2.0)
    assert math.isclose(rho, math.exp(-2.0) / (8.0 * math.pi), rel_tol=1e-12)
    assert math.isclose(rho, 0.0053848, abs_tol=5e-8)


def test_density_at_axis_and_equator_zeros():
    # x = y = 0 and z = 0 are exact, so these limits are analytic zeros
    ring = (StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert density_at(*ring, 1.5, 0.0, 0.0)[0] == 0.0   # equator, gamma1 > 0
    assert density_at(*ring, 0.0, 0.0, 1.5)[0] == 0.0   # axis, m' > 0
    assert density_at(StateLabels(3, 2, 1), PotentialParams(),
                      0.0, 0.0, 2.0)[0] == 0.0


def test_density_at_phi_symmetry():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6.0, 6.0, size=(50, 3))
    for x, y, z in pts:
        rho, = density_at(*RING, x, y, z)
        s = math.hypot(x, y)
        ref, = density_at(*RING, s, 0.0, z)
        assert math.isclose(rho, ref, rel_tol=1e-14, abs_tol=1e-300)


def test_density_at_vectorized_matches_scalar():
    # the kernel gives a point the same bits in a batch as alone
    xs = np.array([0.5, -1.0, 2.0])
    ys = np.array([0.25, 0.0, -3.0])
    zs = np.array([1.0, 2.0, 0.5])
    vec = density_at(*RING, xs, ys, zs)
    assert vec.shape == (3,)
    for i in range(3):
        assert vec[i] == density_at(*RING, xs[i], ys[i], zs[i])[0]


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
    with pytest.raises(ValueError, match=r"\(0, 1\), got 1.0"):
        auto_extent(*H_210, coverage=1.0)
    with pytest.raises(ValueError, match=r"\(0, 1\), got 0.0"):
        auto_extent(*H_210, coverage=0.0)
    with pytest.raises(ValueError, match="at most 1 - 1e-12"):
        auto_extent(*H_210, coverage=1 - 1e-13)


def test_auto_extent_at_the_coverage_bound():
    # the hydrogen ground-state tail 1 - coverage = 1e-12 ends near r = 17
    h = auto_extent(StateLabels(1, 0, 0), PotentialParams(),
                    coverage=1 - 1e-12)
    assert 16.5 < h < 17.5


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
    assert abs(grid.octant.max() - peak) / peak < 0.02
    assert grid.values.shape == (151, 151, 151)
    assert grid.octant.max() == grid.values.max()


def test_build_grid_matches_density_at():
    spec = GridSpec(21, 8.0)
    grid = build_grid(*RING, spec)
    coords = spec.coords()
    rng = np.random.default_rng(3)
    for _ in range(20):
        i, j, k = rng.integers(0, spec.n_points, size=3)
        want, = density_at(*RING, coords[i], coords[j], coords[k])
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
    assert np.allclose(scaled.values,
                       grid.values * (100.0 / grid.octant.max()), rtol=1e-15)


def test_normalize_relative_idempotent_bitwise():
    grid = normalize_relative(build_grid(*H_210, GridSpec(21, 10.0)))
    again = normalize_relative(grid)
    assert np.array_equal(again.values, grid.values)


def test_normalize_relative_zero_grid_rejected():
    spec = GridSpec(5, 1.0)
    zero = DensityGrid(spec=spec, octant=np.zeros((3, 3, 3)))
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
    zero = DensityGrid(spec=spec, octant=np.zeros((3, 3, 3)))
    assert grid_mass(zero) == 0.0


def test_grid_mass_rejects_rescaled_grid():
    # grid_mass sums the raw density; a rescaled grid peaks at 100
    grid = build_grid(*H_210, GridSpec(21, 10.0))
    with pytest.raises(ValueError, match="raw build_grid"):
        grid_mass(normalize_relative(grid))
    assert grid_mass(grid) < 1.0


# ------------------------------------------------- mirror-weighted reductions


@pytest.mark.parametrize("n_points", [31, 151])
@pytest.mark.parametrize("labels, params", CRITERION_5_STATES)
def test_weighted_reductions_match_the_lattice(labels, params, n_points):
    """grid_mass and pole_concentration weigh the octant; the reference
    reduces the mirrored N^3 lattice voxel by voxel."""
    raw = build_grid(labels, params,
                     GridSpec(n_points, auto_extent(labels, params)))
    want = float(raw.values.sum()) * raw.spec.spacing ** 3
    assert grid_mass(raw) == pytest.approx(want, rel=1e-14, abs=0.0)
    grid = normalize_relative(raw)
    lattice, coords = grid.values, grid.spec.coords()
    for level in (10.0, 50.0, 90.0):
        ii, jj, kk = np.nonzero(lattice >= level)
        x, y, z = coords[ii], coords[jj], coords[kk]
        r = np.sqrt(x * x + y * y + z * z)
        want = float(np.mean(np.abs(z[r > 0.0]) / r[r > 0.0]))
        assert pole_concentration(grid, level) == pytest.approx(
            want, rel=1e-14, abs=0.0), level


def test_weighted_reductions_stay_below_the_octant():
    raw = build_grid(*RING, GridSpec(151, auto_extent(*RING)))
    grid = normalize_relative(raw)
    for reduce in (lambda: grid_mass(raw),
                   lambda: pole_concentration(grid, 10.0)):
        tracemalloc.start()
        try:
            reduce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raw.octant.nbytes, (peak, raw.octant.nbytes)


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


def test_grid_holds_its_octant_and_mirrors_it_on_each_call():
    spec = GridSpec(21, 8.0)
    grid = build_grid(*RING, spec)
    assert grid.octant.shape == (11, 11, 11)
    values = grid.values
    assert values.shape == (21, 21, 21)
    assert np.array_equal(values[10:, 10:, 10:], grid.octant)
    assert np.array_equal(spec.mirror(), np.abs(np.arange(21) - 10))
    assert np.array_equal(spec.multiplicity(), [1] + [2] * 10)
    # a plain property: each call builds a new lattice, none is kept
    assert grid.values is not values
    assert not any(isinstance(v, np.ndarray) and v.size == 21 ** 3
                   for v in vars(grid).values())
    scaled = normalize_relative(grid)
    assert scaled.octant.shape == (11, 11, 11)
    assert np.array_equal(scaled.values[10:, 10:, 10:], scaled.octant)


def test_non_finite_density_is_an_error():
    # the extent auto_extent used to return for this state: exp and the
    # Horner sums leave the float range, and no RuntimeWarning escapes
    labels = StateLabels(1000, 501, 0)
    params = PotentialParams(1.0, 0.5, 0.5)
    state = r"StateLabels\(n=1000, l=501, m=0\)"
    with pytest.raises(ValueError, match="density leaves the float range"
                                         " at " + state):
        build_grid(labels, params, GridSpec(31, 79714.85171811326))
    with pytest.raises(ValueError, match="radial function leaves the float"
                                         " range at " + state):
        auto_extent(labels, params)


def reference_radial_cumulative(labels, params, h):
    """The per-panel loop: one radial_u call and one sum per panel."""
    q = map_quantum_numbers(labels, params)
    x0, w0 = _gauss_nodes(_RADIAL_NODES)
    edges = np.linspace(0.0, h, _RADIAL_PANELS + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = radial_u(q, params, mid + rad * x0)
        total += rad * float(np.sum(w0 * u * u))
    return total


@pytest.mark.parametrize("labels, params", [
    (StateLabels(2, 1, 0), PotentialParams()),
    (StateLabels(6, 5, 0), PotentialParams(1.0, 0.5, 0.5)),
    (StateLabels(6, 1, 0), PotentialParams(1.0, 1e-3, 1e-3)),
    (StateLabels(60, 59, 0), PotentialParams()),
    (StateLabels(200, 101, 0), PotentialParams(1.0, 0.5, 0.5)),
    (StateLabels(30, 10, 3), PotentialParams(2.0, 2.0, 0.0)),
])
def test_radial_cumulative_is_bitwise_the_per_panel_loop(labels, params):
    h0 = auto_extent(labels, params)
    for h in h0 * np.array([0.01, 0.3, 0.7, 0.999, 1.0, 1.5, 2.0]):
        got = _radial_cumulative(labels, params, float(h))
        assert got == reference_radial_cumulative(labels, params, float(h))


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
