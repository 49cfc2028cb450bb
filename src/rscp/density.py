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

from .specfun import UalpSpec, _evaluator, _horner, kummer_coefficients
from .states import (PotentialParams, QuasiNumbers, StateLabels,
                     _radial_log_prefactor, map_quantum_numbers)

__all__ = [
    "GridSpec",
    "DensityGrid",
    "DegenerateGridError",
    "density_at",
    "auto_extent",
    "build_grid",
    "normalize_relative",
    "grid_mass",
]


_TWO_PI = 2.0 * math.pi


class DegenerateGridError(ValueError):
    """All-zero grid where a positive maximum is required."""


@dataclass(frozen=True)
class GridSpec:
    """Cubic voxel lattice: n_points per axis spanning [-h, +h]."""

    n_points: int = 151
    half_extent: float = 1.0

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be an odd integer >= 3, got {self.n_points}")
        if not (self.half_extent > 0.0 and math.isfinite(self.half_extent)):
            raise ValueError("half_extent must be positive and finite,"
                             f" got {self.half_extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / (self.n_points - 1)

    def coords(self) -> np.ndarray:
        """Axis coordinates, exactly antisymmetric around the 0 at the center."""
        c = (self.n_points - 1) // 2
        return (np.arange(self.n_points) - c) * self.spacing


@dataclass(frozen=True)
class DensityGrid:
    """values[i, j, k] indexes (x, y, z); flat export order is x-fastest."""

    spec: GridSpec
    values: np.ndarray
    max_value: float
    labels: StateLabels | None = None
    params: PotentialParams | None = None
    quasi: QuasiNumbers | None = None
    rescaled: bool = False

    def flat_values(self) -> np.ndarray:
        return self.values.ravel(order="F")


def _state_payload(labels: StateLabels, params: PotentialParams):
    """Per-state constants the density kernel evaluates from."""
    q = map_quantum_numbers(labels, params)
    ev = _evaluator(UalpSpec(q.k, q.gamma1, q.m_prime))
    a = ev.poly_scaled
    d = kummer_coefficients(q.n_r, 2.0 * q.l_prime + 2.0)
    ang2 = 2.0 * ev.front_log
    rad2 = 2.0 * _radial_log_prefactor(q, params)
    lp1 = q.l_prime + 1.0
    q2 = 2.0 * params.Z / q.n_prime
    return q, (a, d, ang2, q.m_prime, q.gamma1, rad2, lp1, q2)


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


def density_at(labels: StateLabels, params: PotentialParams, x, y, z):
    """rho at one point or arrays of points; axis limits return 0."""
    _, payload = _state_payload(labels, params)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    za = np.atleast_1d(np.asarray(z, dtype=float))
    vals = _density(xa * xa + ya * ya, za, payload)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(vals[0])
    return vals


def build_grid(labels: StateLabels, params: PotentialParams,
               spec: GridSpec) -> DensityGrid:
    """Evaluate the density at every voxel of the lattice.

    The density reads the coordinates only through x^2, y^2 and z^2, and
    ``GridSpec.coords`` is exactly antisymmetric in IEEE arithmetic, so
    the x, y, z >= 0 octant is evaluated and mirrored by index.  The
    result is bitwise the voxel-by-voxel evaluation of the whole lattice.
    """
    q, payload = _state_payload(labels, params)
    c = (spec.n_points - 1) // 2
    half = spec.coords()[c:]
    s = half[:, None] ** 2 + half[None, :] ** 2
    octant = np.empty((c + 1,) * 3)
    # one z-slice at a time keeps the temporaries at O(N^2)
    for k in range(c + 1):
        octant[:, :, k] = _density(s, half[k], payload)
    mirror = np.abs(np.arange(spec.n_points) - c)
    values = octant[np.ix_(mirror, mirror, mirror)]
    return DensityGrid(spec, values, float(values.max()),
                       labels, params, q, rescaled=False)


def normalize_relative(grid: DensityGrid) -> DensityGrid:
    """Rescale so the maximum voxel is exactly 100 (relative probability).

    The voxels attaining the maximum are pinned to 100.0 after scaling so
    the operation is idempotent at the bit level.
    """
    if grid.max_value <= 0.0:
        raise DegenerateGridError("cannot rescale an all-zero grid")
    peak = grid.values == grid.max_value
    values = grid.values * (100.0 / grid.max_value)
    values[peak] = 100.0
    return replace(grid, values=values, max_value=100.0, rescaled=True)


def grid_mass(grid: DensityGrid) -> float:
    """Riemann sum of the raw density over the cube."""
    if grid.rescaled:
        raise ValueError("grid_mass needs the raw build_grid result,"
                         " not a rescaled grid")
    return float(grid.values.sum()) * grid.spec.spacing ** 3


@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _radial_cumulative(q: QuasiNumbers, params: PotentialParams, h: float,
                       nodes: int = 256, panels: int = 8) -> float:
    """int_0^h u^2 dr by fixed Gauss-Legendre panels (plenty for coverage)."""
    from .states import radial_u
    x0, w0 = _gauss_nodes(nodes)
    edges = np.linspace(0.0, h, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = radial_u(q, params, mid + rad * x0)
        total += rad * float(np.sum(w0 * u * u))
    return total


def _check_coverage(coverage: float) -> None:
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must lie in (0, 1), got {coverage}")


def auto_extent(labels: StateLabels, params: PotentialParams,
                coverage: float = 0.999) -> float:
    """Smallest h with int_0^h u^2 dr >= coverage, by bisection."""
    _check_coverage(coverage)
    q = map_quantum_numbers(labels, params)
    # bracket: grow from the Coulomb-like scale until coverage is met
    hi = max(q.n_prime * q.n_prime / params.Z, 1.0)
    for _ in range(200):
        if _radial_cumulative(q, params, hi) >= coverage:
            break
        hi *= 2.0
    else:
        raise ValueError("auto_extent failed to bracket the coverage radius")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _radial_cumulative(q, params, mid) >= coverage:
            hi = mid
        else:
            lo = mid
    return hi
