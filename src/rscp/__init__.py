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

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  Importing the
# package loads none of them: a name loads its submodule on first access
# (PEP 562), so a command that needs only the standard library never
# imports numpy.
_SOURCE = {name: module for module, names in {
    "states": ("PotentialParams", "StateLabels", "QuasiNumbers",
               "ImaginaryOrderError", "NoGammaBranchError", "PoleError",
               "map_quantum_numbers", "potential_V"),
    "specfun": ("UalpSpec", "kummer_coefficients", "radial_u",
                "ualp_coefficients", "angular_H"),
    "density": ("GridSpec", "DensityGrid", "DegenerateGridError",
                "density_at", "build_grid", "normalize_relative",
                "grid_mass", "auto_extent"),
    "surface": ("TriangleMesh", "ContourSet", "marching_cubes",
                "apply_cutaway", "slice_contour", "pole_concentration",
                "connected_components", "is_watertight", "surface_area"),
    "verify": ("VerificationReport", "quad_radial_norm", "quad_angular_norm",
               "ode_residuals", "verify_state"),
}.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
