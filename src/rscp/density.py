"""Space probability distribution on Cartesian voxel grids.

rho = (1/2pi) (u^2/r^2) H^2(z/r) with r = sqrt(x^2+y^2+z^2).  Grids are
vertex-aligned cubes [-h, h]^3 with an odd point count so the axis planes
are sampled exactly, which is what makes the parity and x<->y symmetry
claims exact instead of approximate.

One vectorized kernel evaluates, for a precomputed state payload,

    rho = exp(t) S(x2)^2 F(w)^2 / (2 pi r^2)
    t   = rad2 + 2(l'+1) ln w - w + ang2 + gamma1 ln(x2) + m' ln(sin2)

with w = (2Z/n') r, x2 = z^2/r^2, sin2 = (x^2+y^2)/r^2.  Everything
angular enters through squares; axis terms with a vanishing base are
analytic zeros and are masked out instead of taking their logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .specfun import (UalpSpec, _evaluator, _horner, _kummer_coefficients,
                      _radial_log_prefactor, radial_u)
from .states import PotentialParams, StateLabels, map_quantum_numbers


_TWO_PI = 2.0 * math.pi


class DegenerateGridError(ValueError):
    """All-zero grid where a positive maximum is required."""


# A grid holds its float64 octant, 65 MB at N = 401; the VTK writer adds
# one file plane's text and spools the mirrored half to TMPDIR.  The cap
# stops a size that would exhaust memory before anything is allocated.
# It also bounds the surface layer's int32 indices: at N = 401 there are
# 400^3 lattice cells, each with at most 12 crossed edges and 5 triangles,
# so every vertex, slot and triangle count stays below 2^31.  Marching
# cubes keys an edge 3 p + axis and a grid point 3 N^3 + p, so its int32
# keys stay below 4 N^3 < 2^31.
_MAX_POINTS = 401
# Far past any auto extent of a served state (below 1e16 Bohr) and far
# below 1e154, where x^2 + y^2 + z^2 overflows a float.
_MAX_EXTENT = 1e100


@dataclass(frozen=True)
class GridSpec:
    """Cubic voxel lattice: n_points per axis spanning [-h, +h]."""

    n_points: int
    half_extent: float

    def __post_init__(self):
        if not 3 <= self.n_points <= _MAX_POINTS or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be an odd integer from 3 to"
                             f" {_MAX_POINTS}, got {self.n_points}")
        if not self.half_extent > 0.0:  # NaN too; inf fails _MAX_EXTENT
            raise ValueError("half_extent must be positive,"
                             f" got {self.half_extent}")
        if self.half_extent > _MAX_EXTENT:
            raise ValueError(f"half_extent must be at most {_MAX_EXTENT:g},"
                             f" got {self.half_extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / (self.n_points - 1)

    def coords(self) -> np.ndarray:
        """Axis coordinates, exactly antisymmetric around the 0 at the center."""
        c = (self.n_points - 1) // 2
        return (np.arange(self.n_points) - c) * self.spacing

    def mirror(self) -> np.ndarray:
        """The octant index of each lattice index along an axis: |i - c|."""
        return np.abs(np.arange(self.n_points) - (self.n_points - 1) // 2)

    def multiplicity(self) -> np.ndarray:
        """The lattice indices each octant index stands for along an axis,
        1 on the axis plane and 2 off it: the count of each in mirror()."""
        return np.bincount(self.mirror())


@dataclass(frozen=True)
class DensityGrid:
    """The x, y, z >= 0 octant of a lattice mirrored in the axis planes:
    lattice voxel (i, j, k) is octant[|i - c|, |j - c|, |k - c|]."""

    spec: GridSpec
    octant: np.ndarray
    labels: StateLabels | None = None
    params: PotentialParams | None = None
    rescaled: bool = False

    @property
    def values(self) -> np.ndarray:
        """The N^3 lattice, (i, j, k) at (x, y, z), mirrored on each call.

        Nothing in rscp reads it: every command and reduction works on the
        octant.  It is kept for readers outside the library, such as tests
        and the benchmark probe."""
        return self.octant[np.ix_(*[self.spec.mirror()] * 3)]


def _state_payload(labels: StateLabels, params: PotentialParams):
    """Per-state constants the density kernel evaluates from."""
    q = map_quantum_numbers(labels, params)
    a, front_log = _evaluator(UalpSpec(q.k, q.gamma1, q.m_prime))
    d = _kummer_coefficients(q.n_r, 2.0 * q.l_prime + 2.0)
    ang2 = 2.0 * front_log
    rad2 = 2.0 * _radial_log_prefactor(q, params)
    lp1 = q.l_prime + 1.0
    q2 = 2.0 * params.Z / q.n_prime
    return a, d, ang2, q.m_prime, q.gamma1, rad2, lp1, q2


def _density(s, z, payload):
    """rho for arrays of s = x^2 + y^2 and z (broadcast together)."""
    a, d, ang2, m_prime, gamma1, rad2, lp1, q2 = payload
    r2 = s + z * z
    dead = r2 == 0.0
    safe = np.where(dead, 1.0, r2)
    x2 = (z * z) / safe
    sin2 = s / safe
    w = q2 * np.sqrt(safe)
    t = rad2 + 2.0 * lp1 * np.log(w) - w + ang2
    if gamma1 != 0.0:
        dead = dead | (x2 == 0.0)
        t = t + gamma1 * np.log(np.where(x2 > 0.0, x2, 1.0))
    if m_prime != 0.0:
        dead = dead | (sin2 == 0.0)
        t = t + m_prime * np.log(np.where(sin2 > 0.0, sin2, 1.0))
    S = _horner(a, x2)
    F = _horner(d, w)
    out = np.exp(t) * S * S * F * F / (_TWO_PI * safe)
    out[dead] = 0.0
    return out


# Floats in each kernel temporary: 125 KiB, below glibc's 128 KiB mmap
# threshold, so every block reuses heap pages instead of mapping fresh ones.
_BLOCK_FLOATS = 16_000


def build_grid(labels: StateLabels, params: PotentialParams,
               spec: GridSpec) -> DensityGrid:
    """Evaluate the density on the x, y, z >= 0 octant of the lattice.

    The density reads x and y only through s = x^2 + y^2, so the kernel
    runs on the distinct s of the octant's xy-plane times its z-slices, a
    block of z-slices at a time, and each voxel gathers the value of its
    (s, z) pair: the same float operations on the same inputs as its own
    evaluation would run.
    ``GridSpec.coords`` is exactly antisymmetric in IEEE arithmetic, so the
    mirrored octant is bitwise the voxel-by-voxel evaluation of the whole
    lattice.  A non-finite voxel raises ValueError.
    """
    payload = _state_payload(labels, params)
    c = (spec.n_points - 1) // 2
    half = spec.coords()[c:]
    s, inverse = np.unique(half[:, None] ** 2 + half[None, :] ** 2,
                           return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.x varies its shape
    octant = np.empty((c + 1,) * 3)
    columns = octant.reshape(-1, c + 1)  # a view: [x * (c + 1) + y, z]
    step = max(1, _BLOCK_FLOATS // len(s))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, c + 1, step):
            block = _density(s[:, None], half[k:k + step], payload)
            columns[:, k:k + step] = block[inverse]
    if not np.isfinite(octant).all():
        raise ValueError(f"the density leaves the float range at {labels},"
                         f" {params}")
    return DensityGrid(spec, octant, labels, params)


def normalize_relative(grid: DensityGrid) -> DensityGrid:
    """Rescale so the maximum voxel is exactly 100 (relative probability).

    The voxels attaining the maximum are pinned to 100.0 after scaling so
    the operation is idempotent at the bit level.
    """
    top = float(grid.octant.max())
    if top <= 0.0:
        raise DegenerateGridError("cannot rescale an all-zero grid")
    peak = grid.octant == top
    octant = grid.octant * (100.0 / top)
    octant[peak] = 100.0
    return replace(grid, octant=octant, rescaled=True)


# Iso and contour levels are percentages of that rescaled peak.
def _check_iso_level(level: float) -> None:
    if not 0.0 < level < 100.0:
        raise ValueError(f"level must lie in (0, 100), got {level}")


def _check_contour_level(level: float) -> None:
    if not 0.0 < level <= 100.0:
        raise ValueError(f"contour level must lie in (0, 100], got {level}")


def grid_mass(grid: DensityGrid) -> float:
    """Riemann sum of the raw density over the cube: each octant voxel is
    counted once for each lattice voxel it stands for."""
    if grid.rescaled:
        raise ValueError("grid_mass needs the raw build_grid result,"
                         " not a rescaled grid")
    w = grid.spec.multiplicity()
    mass = np.einsum("ijk,i,j,k->", grid.octant, w, w, w)
    return float(mass) * grid.spec.spacing ** 3


# Gauss-Legendre nodes per panel and panels over [0, h] in _radial_cumulative
_RADIAL_NODES = 256
_RADIAL_PANELS = 8


# The one Gauss node cache: one auto-extent bisection asks for the same
# 256 nodes 36 to 38 times, and each build costs 7 to 9 ms.
@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _radial_cumulative(labels: StateLabels, params: PotentialParams,
                       h: float) -> float:
    """int_0^h u^2 dr by fixed Gauss-Legendre panels (plenty for coverage),
    one row each in one radial_u call; ValueError if the sum is not finite."""
    q = map_quantum_numbers(labels, params)
    x0, w0 = _gauss_nodes(_RADIAL_NODES)
    edges = np.linspace(0.0, h, _RADIAL_PANELS + 1)[:, None]
    mid, rad = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        u = radial_u(q, params, mid + rad * x0)
        sums = (w0 * u * u).sum(axis=1)
    total = 0.0
    for r, s in zip(rad.ravel().tolist(), sums.tolist()):
        total += r * s   # panel by panel, so the sum keeps its order
    if not math.isfinite(total):
        raise ValueError(f"the radial function leaves the float range at"
                         f" {labels}, {params}")
    return total


def _check_coverage(coverage: float) -> None:
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must lie in (0, 1), got {coverage}")
    # past this 1 - coverage sinks into the rounding of the panel sum, and
    # the bisection returns a radius many times too large
    if coverage > 1.0 - 1e-12:
        raise ValueError(f"coverage must be at most 1 - 1e-12, got {coverage}")


def auto_extent(labels: StateLabels, params: PotentialParams,
                coverage: float = 0.999) -> float:
    """Smallest h with int_0^h u^2 dr >= coverage, by bisection."""
    _check_coverage(coverage)
    q = map_quantum_numbers(labels, params)
    # bracket: grow from the Coulomb-like scale until coverage is met
    hi = q.n_prime * q.n_prime / params.Z
    for _ in range(200):
        if _radial_cumulative(labels, params, hi) >= coverage:
            break
        hi *= 2.0
    else:
        raise ValueError("auto_extent failed to bracket the coverage radius")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _radial_cumulative(labels, params, mid) >= coverage:
            hi = mid
        else:
            lo = mid
    return hi
