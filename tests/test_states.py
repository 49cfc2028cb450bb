"""Quantum-number mapping, potential, radial function, energy."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1, roots_legendre

from rscp.specfun import radial_u
from rscp.states import (ImaginaryOrderError, NoGammaBranchError, PoleError,
                         PotentialParams, StateLabels,
                         map_quantum_numbers, potential_V)
from rscp.verify import ode_residuals

from _moments import radial_expectation_r

# ----------------------------------------------------------------- mapping


def test_map_hydrogen_p_state():
    q = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams())
    assert q.m_prime == 0.0
    assert q.gamma1 == 1.0
    assert q.k == 0
    assert q.l_prime == 1.0
    assert q.n_r == 0
    assert q.n_prime == 2.0
    assert q.energy == -0.125
    assert q.lam == 2.0


def test_map_double_ring_state():
    q = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert math.isclose(q.m_prime, 0.7071068, abs_tol=5e-8)
    assert math.isclose(q.gamma1, 1.3660254, abs_tol=5e-8)
    assert q.k == 0
    assert math.isclose(q.l_prime, 2.0731322, abs_tol=5e-8)
    assert math.isclose(q.n_prime, 3.0731322, abs_tol=5e-8)
    assert math.isclose(q.energy, -0.0529429, abs_tol=5e-8)


def test_map_high_state():
    q = map_quantum_numbers(StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10))
    assert math.isclose(q.m_prime, 0.7071068, abs_tol=5e-8)
    assert math.isclose(q.gamma1, 3.7015621, abs_tol=5e-8)
    assert q.k == 2
    assert math.isclose(q.l_prime, 8.4086689, abs_tol=5e-8)
    assert math.isclose(q.n_prime, 9.4086689, abs_tol=5e-8)


def test_map_invariants_hold():
    for labels, params in [
        (StateLabels(4, 3, 2), PotentialParams(2.0, 0.5, 5.0)),
        (StateLabels(6, 1, 0), PotentialParams(1.0, 80.0, 0.0)),
        (StateLabels(5, 4, 3), PotentialParams(1.0, 0.0, 0.5)),
    ]:
        q = map_quantum_numbers(labels, params)
        assert math.isclose(q.l_prime, 2 * q.k + q.gamma1 + q.m_prime,
                            rel_tol=1e-15)
        assert math.isclose(q.lam, q.l_prime * (q.l_prime + 1), rel_tol=1e-15)
        assert math.isclose(q.n_prime, q.n_r + q.l_prime + 1, rel_tol=1e-15)
        assert q.energy < 0.0
        assert math.isclose(q.energy,
                            -params.Z ** 2 / (2 * q.n_prime ** 2),
                            rel_tol=1e-15)


def test_map_imaginary_order_rejected():
    # the b = -0.5, m = 0 regime has no real angular order
    with pytest.raises(ImaginaryOrderError):
        map_quantum_numbers(StateLabels(4, 1, 0), PotentialParams(1, -0.5, 0.5))
    # but b = -0.5 with |m| >= 1 is fine
    q = map_quantum_numbers(StateLabels(3, 2, 1), PotentialParams(1, -0.5, 0.5))
    assert math.isclose(q.m_prime, math.sqrt(0.5), rel_tol=1e-15)


def test_map_even_parity_rejected_for_positive_c():
    with pytest.raises(NoGammaBranchError):
        map_quantum_numbers(StateLabels(3, 2, 0), PotentialParams(1, 0, 0.5))
    # same labels are fine at c = 0 (gamma1 = 0 branch)
    q = map_quantum_numbers(StateLabels(3, 2, 0), PotentialParams(1, 0, 0))
    assert q.gamma1 == 0.0 and q.k == 1


def test_map_domain_errors():
    with pytest.raises(ValueError):
        PotentialParams(1.0, 0.0, -1.0)       # c < 0
    with pytest.raises(ValueError):
        PotentialParams(0.0, 0.0, 0.0)        # Z <= 0
    with pytest.raises(ValueError):
        PotentialParams(math.inf, 0.0, 0.0)   # non-finite Z
    with pytest.raises(ValueError):
        PotentialParams(1.0, math.nan, 0.0)   # non-finite b
    with pytest.raises(ValueError):
        PotentialParams(1.0, -math.inf, 0.0)  # non-finite b
    with pytest.raises(ValueError):
        PotentialParams(1.0, 0.0, math.inf)   # non-finite c
    with pytest.raises(ValueError):
        PotentialParams(1.0, 0.0, math.nan)   # non-finite c
    with pytest.raises(ValueError):
        StateLabels(2, 2, 0)                  # l > n-1 means n_r < 0
    with pytest.raises(ValueError):
        StateLabels(3, 1, 2)                  # |m| > l


def test_labels_past_the_served_n_are_refused():
    """n > 1000 is refused where the labels are built, ahead of any other
    fault in them; n = 1000 is served."""
    with pytest.raises(ValueError, match=r"^n is too large: at most 1000 is"
                                         r" served, got n=1001$"):
        StateLabels(1001, 0, 0)
    with pytest.raises(ValueError, match="^n is too large"):
        StateLabels(10 ** 400, 10 ** 400, 10 ** 401)  # l and m faulty too
    assert StateLabels(1000, 999, -999).n == 1000


def test_map_continuity_in_c():
    base = map_quantum_numbers(StateLabels(4, 3, 0), PotentialParams())
    for c in (1e-6, 1e-9, 1e-12):
        q = map_quantum_numbers(StateLabels(4, 3, 0),
                                PotentialParams(1.0, 0.0, c))
        assert abs(q.l_prime - base.l_prime) < 2 * c
    assert base.gamma1 == 1.0


def test_l_prime_monotone_in_b_and_c():
    lp_b = [map_quantum_numbers(StateLabels(5, 1, 0),
                                PotentialParams(1, b, 0.5)).l_prime
            for b in (0, 5, 10, 25)]
    assert all(x < y for x, y in zip(lp_b, lp_b[1:]))
    lp_c = [map_quantum_numbers(StateLabels(5, 1, 0),
                                PotentialParams(1, 0.5, c)).l_prime
            for c in (0.5, 5, 10, 25)]
    assert all(x < y for x, y in zip(lp_c, lp_c[1:]))


# --------------------------------------------------------------- potential


def test_potential_pure_coulomb():
    p = PotentialParams()
    for theta in (0.3, 1.0, 2.8):
        assert potential_V(p, 2.0, theta) == -0.5


def test_potential_zero_crossing():
    v = potential_V(PotentialParams(1, 0.5, 0.5), 1.0, math.pi / 4)
    assert abs(v) < 1e-15


def test_potential_poles():
    with pytest.raises(PoleError):
        potential_V(PotentialParams(1, 0.0, 0.5), 1.0, math.pi / 2)
    with pytest.raises(PoleError):
        potential_V(PotentialParams(1, 0.5, 0.0), 1.0, 0.0)
    with pytest.raises(PoleError):
        potential_V(PotentialParams(1, -0.25, 0.0), 1.0, math.pi)
    with pytest.raises(ValueError):
        potential_V(PotentialParams(), 0.0, 1.0)


def test_potential_no_pole_when_term_absent():
    # b = 0 removes the sin pole; c = 0 removes the cos pole
    assert potential_V(PotentialParams(1, 0.0, 0.5), 2.0, 0.0) < 0.0
    assert math.isclose(potential_V(PotentialParams(1, 0.5, 0.0), 2.0,
                                    math.pi / 2), -0.5 + 0.0625)


# ----------------------------------------------------------------- radial


def test_radial_zero_at_origin():
    for labels, params in [(StateLabels(2, 1, 0), PotentialParams()),
                           (StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10))]:
        q = map_quantum_numbers(labels, params)
        assert radial_u(q, params, 0.0) == 0.0


def test_radial_hydrogen_closed_form():
    # u_21(r) = r^2 e^(-r/2) / (2 sqrt(6))
    q = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams())
    want = 4.0 * math.exp(-1.0) / (2.0 * math.sqrt(6.0))
    assert math.isclose(radial_u(q, params := PotentialParams(), 2.0), want,
                        rel_tol=1e-12)
    assert math.isclose(radial_u(q, params, 2.0), 0.3003723, abs_tol=5e-8)
    rs = np.linspace(0.1, 20.0, 40)
    ours = radial_u(q, params, rs)
    ref = rs ** 2 * np.exp(-rs / 2.0) / (2.0 * math.sqrt(6.0))
    assert np.allclose(ours, ref, rtol=1e-12)


@pytest.mark.parametrize("labels, params", [
    (StateLabels(3, 1, 0), PotentialParams()),
    (StateLabels(5, 2, 1), PotentialParams(1, 0.5, 3)),
    (StateLabels(8, 3, 0), PotentialParams(2, 0.5, 0.5))],
    ids=["hydrogen", "ring", "Z2"])
def test_radial_matches_scipy_closed_form(labels, params):
    # u = N w^(l'+1) e^(-w/2) F(-n_r, 2l'+2, w), w = 2Zr/n', with
    # N^2 = Z Gamma(n'+l'+1) / (n_r! n'^2 Gamma(2l'+2)^2)
    q = map_quantum_numbers(labels, params)
    lp = q.l_prime
    log_n = (0.5 * (math.log(params.Z) + gammaln(q.n_prime + lp + 1.0)
                    - gammaln(q.n_r + 1.0) - 2.0 * math.log(q.n_prime))
             - gammaln(2.0 * lp + 2.0))
    rs = np.linspace(0.1, 40.0, 9)
    w = 2.0 * params.Z * rs / q.n_prime
    want = (np.exp(log_n + (lp + 1.0) * np.log(w) - 0.5 * w)
            * hyp1f1(-q.n_r, 2.0 * lp + 2.0, w))
    ours = radial_u(q, params, rs)
    assert np.max(np.abs(ours - want)) < 1e-12 * np.max(np.abs(want))


def test_radial_nodeless_positive():
    q = map_quantum_numbers(StateLabels(3, 2, 1), PotentialParams(1, 0.5, 5))
    assert q.n_r == 0
    rs = np.linspace(1e-6, 80.0, 500)
    assert np.all(radial_u(q, PotentialParams(1, 0.5, 5), rs) > 0.0)


def test_radial_node_count():
    for n, l in [(2, 1), (4, 1), (6, 1), (5, 3)]:
        params = PotentialParams(1.0, 0.5, 0.5)
        q = map_quantum_numbers(StateLabels(n, l, 0), params)
        # every node lies below w = 4 (2l'+2+2n_r), w = 2Zr/n'
        R = max(4.0 * (2.0 * q.l_prime + 2.0 + 2.0 * q.n_r), 60.0) \
            * q.n_prime / (2.0 * params.Z)
        rs = np.linspace(1e-9, R, 4000)
        u = radial_u(q, params, rs)
        signs = np.sign(u)
        crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert crossings == q.n_r, (n, l)


def test_radial_orthogonality_shared_l():
    # hydrogen l=1 states share l' = 1 and differ in n_r only
    params = PotentialParams()
    x0, w0 = roots_legendre(3000)
    qs = [map_quantum_numbers(StateLabels(n, 1, 0), params)
          for n in (2, 3, 4, 5)]
    R = 200.0
    r = 0.5 * R * (x0 + 1.0)
    us = [radial_u(q, params, r) for q in qs]
    for i in range(4):
        for j in range(4):
            val = 0.5 * R * float(np.sum(w0 * us[i] * us[j]))
            want = 1.0 if i == j else 0.0
            assert abs(val - want) < 1e-8, (i, j)


def test_radial_ode_residual():
    # analytic second derivatives satisfy u'' + (2E + 2Z/r - lam/r^2)u = 0
    for labels, params in [(StateLabels(2, 1, 0), PotentialParams()),
                           (StateLabels(5, 3, 2), PotentialParams(1, 0.5, 5)),
                           (StateLabels(6, 1, 0), PotentialParams(2, 0.5, 0.5))]:
        radial_max, _ = ode_residuals(labels, params)
        assert radial_max < 1e-6


# ------------------------------------------------------------------ energy


def test_energy_examples():
    q1 = map_quantum_numbers(StateLabels(1, 0, 0), PotentialParams())
    assert q1.n_prime == 1.0
    assert q1.energy == -0.5
    q2 = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams())
    assert q2.energy == -0.125
    q3 = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert math.isclose(q3.energy, -0.0529429, abs_tol=5e-8)


def test_energy_monotone_in_n_prime():
    params = PotentialParams(1.0, 0.5, 0.5)
    es = [map_quantum_numbers(StateLabels(n, 1, 0), params).energy
          for n in range(2, 7)]
    assert all(x < y < 0.0 for x, y in zip(es, es[1:]))


def test_mean_radius_grows_with_b():
    means = [radial_expectation_r(StateLabels(5, 1, 0),
                                  PotentialParams(1.0, b, 0.5))
             for b in (0, 5, 10, 25)]
    assert all(x < y for x, y in zip(means, means[1:]))

