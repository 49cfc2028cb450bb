"""Exact bound states and space probability distributions of the double
ring-shaped Coulomb potential.

The potential adds two angular barriers to the Coulomb term,

    V(r, theta) = -Z/r + (b / sin^2 theta + c / cos^2 theta) / (2 r^2),

in atomic units.  Separation of variables maps each physical state
(n, l, m) to quasi quantum numbers (n', l', m') with generally
non-integer values; the colatitude factor is a universal associated
Legendre polynomial and the radial factor a terminating confluent
hypergeometric series.  On top of the closed forms the package builds
voxel grids of |psi|^2, extracts isosurfaces and plane contours, and
cross-checks everything against independent numerical oracles.
"""

from .density import (DegenerateGridError, DensityGrid, GridSpec,
                      auto_extent, build_grid, density_at, grid_mass,
                      normalize_relative)
from .specfun import (UalpSpec, angular_H, kummer_coefficients, log_gamma,
                      ualp_coefficients)
from .states import (ImaginaryOrderError, NoGammaBranchError, PoleError,
                     PotentialParams, QuasiNumbers, StateLabels,
                     map_quantum_numbers, potential_V, radial_u,
                     wavefunction_modulus_sq)
from .surface import (ContourSet, TriangleMesh, apply_cutaway,
                      connected_components, is_watertight, marching_cubes,
                      pole_concentration, slice_contour, surface_area)
from .verify import (ConvergenceError, VerificationReport, ode_residuals,
                     quad_angular_norm, quad_radial_norm, verify_state)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "PotentialParams", "StateLabels", "QuasiNumbers",
    "ImaginaryOrderError", "NoGammaBranchError", "PoleError",
    "map_quantum_numbers", "potential_V", "radial_u",
    "wavefunction_modulus_sq",
    # special functions
    "UalpSpec", "log_gamma", "kummer_coefficients", "ualp_coefficients",
    "angular_H",
    # density grids
    "GridSpec", "DensityGrid", "DegenerateGridError", "density_at",
    "build_grid", "normalize_relative", "grid_mass", "auto_extent",
    # surfaces and contours
    "TriangleMesh", "ContourSet", "marching_cubes", "apply_cutaway",
    "slice_contour", "pole_concentration", "connected_components",
    "is_watertight", "surface_area",
    # verification
    "VerificationReport", "ConvergenceError", "quad_radial_norm",
    "quad_angular_norm", "ode_residuals", "verify_state",
]
