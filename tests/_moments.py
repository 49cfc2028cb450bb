"""First-moment oracles for the expectation tests (test-only).

They apply rscp.verify's exact Gauss rules with power 1, where the norm
checks use power 0, so no quadrature code is repeated here.
"""

from rscp.verify import _angular_moment, _radial_moment


def radial_expectation_r(labels, params) -> float:
    """<r> from the radial factor alone (angular part integrates to 1)."""
    return _radial_moment(labels, params, 1)


def angular_expectation_abs_x(labels, params) -> float:
    """<|cos theta|> from the colatitude factor alone."""
    return _angular_moment(labels, params, 1)
