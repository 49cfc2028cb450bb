"""Shared fixtures: session-scoped grids so expensive fills run once."""

import numpy as np
import pytest

from rscp.density import (GridSpec, _density, _state_payload, auto_extent,
                          build_grid, normalize_relative)
from rscp.states import PotentialParams, StateLabels

# the 22 admissible (n, l, m) rows of the n <= 6, odd l - |m| family
TABLE1_STATES = [
    (2, 1, 0), (3, 1, 0), (3, 2, 1), (4, 1, 0), (4, 2, 1), (4, 3, 0),
    (4, 3, 2), (5, 1, 0), (5, 2, 1), (5, 3, 0), (5, 3, 2), (5, 4, 1),
    (5, 4, 3), (6, 1, 0), (6, 2, 1), (6, 3, 0), (6, 3, 2), (6, 4, 1),
    (6, 4, 3), (6, 5, 0), (6, 5, 2), (6, 5, 4),
]

# the five states of criterion 5 (grid integrity), from hydrogen to strong b, c
CRITERION_5_STATES = [
    (StateLabels(2, 1, 0), PotentialParams()),
    (StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5)),
    (StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10)),
    (StateLabels(5, 3, 2), PotentialParams(1, 0.5, 5)),
    (StateLabels(4, 1, 0), PotentialParams(1, 5.0, 0.5)),
]


def density_at(labels: StateLabels, params: PotentialParams, x, y, z):
    """rho by the grid kernel at arrays of points, at least 1-D; axis
    limits are 0."""
    x, y, z = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y, z))
    return _density(x * x + y * y, z, _state_payload(labels, params))


def make_rpv_grid(labels: StateLabels, params: PotentialParams,
                  n_points: int, coverage: float = 0.999):
    h = auto_extent(labels, params, coverage)
    return normalize_relative(build_grid(labels, params,
                                         GridSpec(n_points, h)))


@pytest.fixture(scope="session")
def hydrogen_210_grid():
    """Hydrogen (2,1,0) rescaled grid, N=61, auto extent."""
    return make_rpv_grid(StateLabels(2, 1, 0), PotentialParams(), 61)


@pytest.fixture(scope="session")
def ring_650_grid():
    """(6,5,0) with b=0.5, c=0.5, rescaled, N=81."""
    return make_rpv_grid(StateLabels(6, 5, 0), PotentialParams(1.0, 0.5, 0.5),
                         81)
