"""Independent numerical checks: quadrature norms, ODE residuals, oracles."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import (betaln, eval_genlaguerre, eval_jacobi, gammaln,
                           genlaguerre, jacobi, logsumexp, roots_genlaguerre,
                           roots_jacobi)

from rscp import specfun, verify
from rscp.density import GridSpec, auto_extent, build_grid
from rscp.states import (NoGammaBranchError, PotentialParams, StateLabels,
                         map_quantum_numbers)
from rscp.verify import (CheckResult, _eigenvalues, _jacobi_p, _jacobi_rule,
                         _laguerre_l, _laguerre_rule, ode_residuals,
                         quad_angular_norm, quad_radial_norm, verify_state)

from _hydrogen import hydrogen_oracle
from _moments import angular_expectation_abs_x, radial_expectation_r

# ----------------------------------------------------------- Gauss rules


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("alpha, beta", [(0.0, -0.5), (0.7071068, 0.8660254),
                                         (3.0, 1.0), (14.9, 10.5),
                                         (1000.0, 0.87)])
def test_jacobi_rule_exact_moments(n, alpha, beta):
    # int_0^1 (1-t)^alpha t^(beta+j) dt = B(beta+j+1, alpha+1), j <= 2n-1
    t, log_w = _jacobi_rule(n, alpha, beta)
    assert np.all((t > 0.0) & (t < 1.0))
    for j in range(2 * n):
        got = logsumexp(log_w + j * np.log(t))
        assert abs(got - betaln(beta + j + 1.0, alpha + 1.0)) < 2e-12, j


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("alpha", [2.0, 4.1462644, 50.3, 200.0, 2000.0])
def test_laguerre_rule_exact_moments(n, alpha):
    # int_0^inf w^(alpha+j) e^-w dw = Gamma(alpha+j+1), j <= 2n-1; the
    # mass overflows a float past alpha ~ 170, so compare logs
    x, log_w = _laguerre_rule(n, alpha)
    for j in range(2 * n):
        got = logsumexp(log_w + j * np.log(x))
        want = gammaln(alpha + j + 1.0)
        assert abs(got - want) < 1e-14 * max(1.0, want), j


def test_laguerre_rule_moments_at_largest_degree():
    # n_r + 1 = 1000 nodes: the recurrence passes 2^512 and is rescaled
    x, log_w = _laguerre_rule(1000, 4.0)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(log_w))
    for j in range(3):
        got = logsumexp(log_w + j * np.log(x))
        want = gammaln(4.0 + j + 1.0)
        assert abs(got - want) < 1e-14 * max(1.0, want), j


@pytest.mark.parametrize("n", [1, 2, 12, 300, 999])
def test_eigenvalues_match_the_two_matrix_form(n):
    # the one matrix with only the lower band set gives the nodes of the
    # summed two-matrix form bit for bit: eigvalsh reads the lower triangle
    k = np.arange(1.0, n)
    for diag, off in [(2.0 * np.arange(n) + 5.0, np.sqrt(k * (k + 4.0))),
                      (np.linspace(-0.3, 0.2, n), 0.5 - 0.1 / (k + 1.0))]:
        want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
        assert np.array_equal(_eigenvalues(diag, off), want)


# (the polynomial as (m, e), scipy's value, samples): Laguerre across its
# degree window, Jacobi at a large m' toward y = -1
_RECURRENCES = {
    "laguerre": (lambda n, x: _laguerre_l(0, n, 3.0, x),
                 lambda n, x: eval_genlaguerre(n, 3.0, x),
                 np.linspace(0.5, 800.0, 7)),
    "jacobi": (lambda n, y: _jacobi_p(0, n, 0.5, 1000.0, y),
               lambda n, y: eval_jacobi(n, 0.5, 1000.0, y),
               np.linspace(-0.9, 0.9, 7)),
}


@pytest.mark.parametrize("family", sorted(_RECURRENCES))
def test_recurrence_rescale_is_exact(family):
    # while |p| is a float, m 2^e must be p itself, and the rescale first
    # fires at the degree where some |p| first passes 2^512
    ours, scipy_p, x = _RECURRENCES[family]
    fired = passed = None
    for n in range(300):
        m, e = ours(n, x)
        want = scipy_p(n, x)
        assert np.all(np.abs(m) <= 2.0 ** 512), n
        if np.all(np.isfinite(want)):
            assert _max_rel_diff(np.ldexp(m, e), want) < 1e-12, n
        if fired is None and np.any(e > 0):
            fired = n
        if passed is None and np.any(np.abs(want) > 2.0 ** 512):
            passed = n
    assert fired is not None and fired == passed, (fired, passed)


# scipy's rules as an oracle for the numpy ones
_ORACLE_ALPHAS = (0.0, 0.3, 1.0, 2.5, 10.0, 100.0, 2000.0)


def _log_or_nan(w):
    """log of scipy's float weights; nan where they overflowed or vanished."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(w) & (w > 0.0), np.log(w), np.nan)


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
@pytest.mark.parametrize("beta", (-0.5, 0.0, 0.37, 1.0, 7.5, 60.0))
def test_jacobi_rule_matches_scipy(alpha, beta):
    # at alpha = 100 scipy's own weights miss 50-digit values by up to
    # 2.6e-12, ours by 4e-14 (test_jacobi_rule_high_precision)
    tol = 1e-12 if alpha < 100.0 else 5e-12
    for n in range(1, 16):
        t, log_w = _jacobi_rule(n, alpha, beta)
        with np.errstate(over="ignore"):
            y, w = roots_jacobi(n, alpha, beta)
        assert np.max(np.abs(2.0 * t - 1.0 - y)) < 1e-15, n
        # scipy's weights are for (1-y)^alpha (1+y)^beta dy on (-1, 1)
        ref = _log_or_nan(w) - (alpha + beta + 1.0) * math.log(2.0)
        finite = np.isfinite(ref)
        assert np.all(np.abs(log_w - ref)[finite] < tol), n


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
def test_laguerre_rule_matches_scipy(alpha):
    for n in range(1, 16):
        x, log_w = _laguerre_rule(n, alpha)
        with np.errstate(over="ignore"):
            xs, w = roots_genlaguerre(n, alpha)
        assert np.max(np.abs(x - xs) / xs) < 1e-14, n
        ref = _log_or_nan(w)
        finite = np.isfinite(ref)
        assert np.all(np.abs(log_w - ref)[finite] < 1e-12), n


def test_jacobi_rule_high_precision():
    # 50-digit roots and Christoffel weights, with the exact constant
    # Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!) on (0, 1); the
    # Newton step brings every node within one ulp
    mp = pytest.importorskip("mpmath")
    t, log_w = _jacobi_rule(15, 100.0, -0.5)
    with mp.workdps(50):
        n, a, b = 15, mp.mpf(100), mp.mpf(-0.5)
        log_c = (mp.loggamma(n + a + 1) + mp.loggamma(n + b + 1)
                 - mp.loggamma(n + a + b + 1) - mp.loggamma(n + 1))
        for yi, lwi in zip(2.0 * t - 1.0, log_w):
            y = mp.findroot(lambda v: mp.jacobi(n, a, b, v), mp.mpf(yi))
            dp = (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, y)
            assert abs(yi - float(y)) <= np.spacing(abs(yi))
            assert abs(lwi - float(log_c - mp.log((1 - y * y) * dp * dp))) \
                < 1e-13


def test_laguerre_rule_high_precision():
    # as above, with the constant Gamma(n+a+1) / n! and L_n' = -L_(n-1)^(a+1)
    mp = pytest.importorskip("mpmath")
    x, log_w = _laguerre_rule(15, 100.0)
    with mp.workdps(50):
        n, a = 15, mp.mpf(100)
        log_c = mp.loggamma(n + a + 1) - mp.loggamma(n + 1)
        for xi, lwi in zip(x, log_w):
            r = mp.findroot(lambda v: mp.laguerre(n, a, v), mp.mpf(xi))
            dl = mp.laguerre(n - 1, a + 1, r)
            assert abs(xi - float(r)) <= np.spacing(xi)
            assert abs(lwi - float(log_c - mp.log(r * dl * dl))) < 1e-13


_SCAN_BARRIERS = (0.0, 1e-10, 1e-6, 1e-3, 0.5, 10.0, 100.0)


@pytest.mark.parametrize("b", _SCAN_BARRIERS)
@pytest.mark.parametrize("c", _SCAN_BARRIERS)
def test_closed_form_constants_scan(b, c):
    # the closed-form normalizations hold over n <= 8 with no run-time
    # correction; the angular factor depends only on (l, |m|)
    params = PotentialParams(1.0, b, c)
    for n in range(1, 9):
        for l in range(n):
            for m in range(l + 1):
                labels = StateLabels(n, l, m)
                try:
                    map_quantum_numbers(labels, params)
                except NoGammaBranchError:
                    continue
                assert abs(quad_radial_norm(labels, params) - 1.0) < 1e-10
                if n == l + 1:
                    assert abs(quad_angular_norm(labels, params)
                               - 1.0) < 1e-10, (l, m)


def test_norm_checks_detect_wrong_constants(monkeypatch):
    labels, params = StateLabels(5, 2, 1), PotentialParams(1, 0.5, 3.0)
    assert verify_state(labels, params).all_passed
    norm_log = specfun._norm_log
    monkeypatch.setattr(specfun, "_norm_log",
                        lambda spec: norm_log(spec) + 1e-7)
    failed = {c.name for c in verify_state(labels, params).checks
              if not c.passed}
    assert failed == {"angular_norm"}
    monkeypatch.undo()
    prefactor = specfun._radial_log_prefactor
    monkeypatch.setattr(specfun, "_radial_log_prefactor",
                        lambda q, p: prefactor(q, p) + 1e-7)
    failed = {c.name for c in verify_state(labels, params).checks
              if not c.passed}
    assert failed == {"radial_norm"}
    monkeypatch.undo()
    # the grid kernel's Kummer coefficients are the ones radial_norm reads
    coefficients = specfun._kummer_coefficients

    def top_scaled(n_r, beta):
        d = coefficients(n_r, beta)
        d[-1] *= 1.0 + 1e-6
        return d

    monkeypatch.setattr(specfun, "_kummer_coefficients", top_scaled)
    failed = {c.name for c in verify_state(labels, params).checks
              if not c.passed}
    assert failed == {"radial_norm"}


@pytest.mark.parametrize("state, b, c", [
    ((6, 1, 0), 1e-3, 1e-3), ((6, 1, 0), 1e-4, 1e-4),
    ((6, 1, 0), 1e-6, 1e-6), ((6, 2, 0), 1e-3, 0.0)])
def test_near_hydrogen_states_verify(state, b, c):
    labels, params = StateLabels(*state), PotentialParams(1.0, b, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_state(labels, params)
    assert report.all_passed
    assert abs(report.radial_norm - 1.0) < 1e-12
    assert abs(report.angular_norm - 1.0) < 1e-12


# ------------------------------------------------------------------- norms


def test_radial_norm_hydrogen():
    assert abs(quad_radial_norm(StateLabels(2, 1, 0),
                                PotentialParams()) - 1.0) < 1e-12
    assert abs(quad_radial_norm(StateLabels(6, 1, 0),
                                PotentialParams()) - 1.0) < 1e-12


def test_radial_norm_ring_states():
    for labels, params in [
        (StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5)),
        (StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10)),
        (StateLabels(5, 3, 2), PotentialParams(2, 0.5, 5)),
        # 2l'+2 > 170: the Gauss-Laguerre mass Gamma(2l'+3) overflows a float
        (StateLabels(3, 1, 0), PotentialParams(1, 1e4, 0.5)),
    ]:
        assert abs(quad_radial_norm(labels, params) - 1.0) < 1e-10


def test_angular_norm_hydrogen_and_ring():
    assert abs(quad_angular_norm(StateLabels(2, 1, 0),
                                 PotentialParams()) - 1.0) < 1e-12
    # k=2, gamma1=3.7015621, m'=0.7071068 case
    assert abs(quad_angular_norm(StateLabels(6, 5, 0),
                                 PotentialParams(1, 0.5, 10)) - 1.0) < 1e-8
    assert abs(quad_angular_norm(StateLabels(5, 4, 1),
                                 PotentialParams(1, 0.5, 5)) - 1.0) < 1e-8
    # m' = 1000 and 2000: the Gauss-Jacobi mass 2^(m'+gamma1+1/2) B(...)
    # is near or past the float range
    for b in (1e6, 4e6):
        assert abs(quad_angular_norm(StateLabels(3, 1, 0),
                                     PotentialParams(1, b, 0.5)) - 1.0) < 1e-8


# --------------------------------------------------------------- residuals


def test_residuals_hydrogen_tiny():
    rres, ares = ode_residuals(StateLabels(2, 1, 0), PotentialParams())
    assert rres < 1e-10
    assert ares < 1e-10


def test_residuals_ring_states():
    for labels, params in [
        (StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5)),
        (StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10)),
        (StateLabels(4, 3, 2), PotentialParams(1, 0.5, 5)),
    ]:
        rres, ares = ode_residuals(labels, params)
        assert rres < 1e-6, (labels, params)
        assert ares < 1e-6, (labels, params)


@pytest.fixture
def wrong_energy(monkeypatch):
    """ode_residuals sees a mapping whose energy is 1% off."""
    def mapping(labels, params):
        q = map_quantum_numbers(labels, params)
        return dataclasses.replace(q, energy=1.01 * q.energy)

    def residuals(labels, params):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "map_quantum_numbers", mapping)
            return ode_residuals(labels, params)
    return residuals


@pytest.fixture
def wrong_lambda(monkeypatch):
    """ode_residuals sees a mapping whose separation constant lambda is
    1e-3 off."""
    def mapping(labels, params):
        q = map_quantum_numbers(labels, params)
        return dataclasses.replace(q, lam=(1.0 + 1e-3) * q.lam)

    def residuals(labels, params):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "map_quantum_numbers", mapping)
            return ode_residuals(labels, params)
    return residuals


def test_residual_detects_wrong_energy(wrong_energy):
    # a 1% energy error must push the radial residual far above threshold
    rres, _ = wrong_energy(StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5))
    assert rres > 1e-3


def test_residuals_read_nothing_of_the_served_path(monkeypatch):
    labels, params = StateLabels(16, 1, 0), PotentialParams(1, 100, 1)
    want = ode_residuals(labels, params)

    def served(*args):
        raise AssertionError("a served function was called")

    for module, name in [(verify, "radial_u"), (specfun, "radial_u"),
                         (verify, "angular_H"), (specfun, "angular_H"),
                         (specfun, "_evaluator")]:
        monkeypatch.setattr(module, name, served)
    assert ode_residuals(labels, params) == want


# where the power-basis series of the old residuals cancelled: hydrogen
# (n,1,0) from n = 22 and (n,n-1,0) from n = 30, mixed l, and the
# large-barrier and near-hydrogen states
RESIDUAL_SCAN = (
    [(StateLabels(n, 1, 0), PotentialParams()) for n in (22, 30, 40, 100, 200)]
    + [(StateLabels(n, n - 1, 0), PotentialParams()) for n in (30, 60, 200)]
    + [(StateLabels(28, 14, 0), PotentialParams()),
       (StateLabels(60, 31, 0), PotentialParams(1, 0.5, 0.5)),
       (StateLabels(100, 51, 0), PotentialParams(1, 0.5, 10)),
       (StateLabels(16, 1, 0), PotentialParams(1, 100, 1)),
       (StateLabels(10, 1, 0), PotentialParams(1, 1e4, 1)),
       (StateLabels(8, 1, 0), PotentialParams(1, 1e6, 1)),
       (StateLabels(14, 1, 0), PotentialParams(1, 1e6, 1)),
       (StateLabels(6, 1, 0), PotentialParams(1, 1e-3, 1e-3)),
       (StateLabels(100, 1, 0), PotentialParams(1, 0.5, 0.5))]
    # where the unscaled Laguerre recurrence overflowed
    + [(StateLabels(n, 1, 0), PotentialParams()) for n in (300, 1000)]
    + [(StateLabels(1000, 501, 0), PotentialParams(1, 0.5, 0.5))]
    # where the unscaled Jacobi recurrence overflowed, and where the
    # angular envelope underflowed at most samples
    + [(StateLabels(600, 599, 0), PotentialParams(1, 1e6, 1)),
       (StateLabels(130, 129, 0), PotentialParams(1, 1e12, 0.5)),
       (StateLabels(1000, 999, 0), PotentialParams(1, 0.5, 1e12)),
       (StateLabels(2, 1, 0), PotentialParams(1, 1e12, 0.5))])


def test_residuals_scan_high_degree_and_barriers(wrong_energy, wrong_lambda):
    for labels, params in RESIDUAL_SCAN:
        # four decades below the 1e-6 check
        rres, ares = ode_residuals(labels, params)
        assert rres < 1e-10 and ares < 1e-10, (labels, params, rres, ares)
        rres, _ = wrong_energy(labels, params)
        assert rres > 1e-3, (labels, params, rres)
        _, ares = wrong_lambda(labels, params)
        assert ares > 1e-4, (labels, params, ares)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n_r", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 1])
def test_residuals_low_degrees(k, n_r, m, wrong_energy, wrong_lambda):
    # l - |m| = 2k + 1 on the gamma1 branch, so the angular degree is k
    labels = StateLabels(2 * k + 2 + m + n_r, 2 * k + 1 + m, m)
    params = PotentialParams(1, 0.5, 0.5)
    q = map_quantum_numbers(labels, params)
    assert (q.k, q.n_r) == (k, n_r)
    rres, ares = ode_residuals(labels, params)
    assert rres < 1e-12 and ares < 1e-12, (rres, ares)
    rres, _ = wrong_energy(labels, params)
    assert rres > 1e-3
    _, ares = wrong_lambda(labels, params)
    assert ares > 1e-4


# every admissible (n, l, m) with n <= 8 at eight barrier pairs, from
# hydrogen to the largest b and c; RESIDUAL_SCAN holds the high degrees
_MARGIN_BARRIERS = ((0.0, 0.0), (0.5, 0.5), (1e-3, 1e-3), (100.0, 1.0),
                    (1e6, 1.0), (1e12, 0.5), (0.5, 1e12), (0.5, 10.0))


def _margin_states():
    for b, c in _MARGIN_BARRIERS:
        params = PotentialParams(1.0, b, c)
        for n in range(1, 9):
            for l in range(n):
                for m in range(-l, l + 1):
                    labels = StateLabels(n, l, m)
                    try:
                        map_quantum_numbers(labels, params)
                    except NoGammaBranchError:
                        continue
                    yield labels, params


def test_residuals_keep_a_margin_over_the_scan():
    # four decades below the 1e-6 check at every state
    states = list(_margin_states())
    assert len(states) == 792
    for labels, params in states:
        rres, ares = ode_residuals(labels, params)
        assert rres < 1e-10 and ares < 1e-10, (labels, params, rres, ares)


def _max_rel_diff(ours, want):
    return np.max(np.abs(ours - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_derivative_identities_match_polynomial_derivatives(n):
    x = np.linspace(0.05, 6.0, 9)
    y = np.linspace(-0.95, 0.95, 9)
    for a in (0.0, 3.1462644):
        lag = genlaguerre(n, a)
        for j in range(3):
            m, e = _laguerre_l(j, n, a, x)
            assert _max_rel_diff(np.ldexp(m, e), lag.deriv(j)(x)) < 1e-12
        for b in (0.7071068, 20.0):
            jac = jacobi(n, a - 0.5, b)
            for j in range(3):
                m, e = _jacobi_p(j, n, a - 0.5, b, y)
                assert _max_rel_diff(np.ldexp(m, e), jac.deriv(j)(y)) < 1e-12


def test_residuals_deterministic():
    a = ode_residuals(StateLabels(5, 3, 0), PotentialParams(1, 0.5, 5))
    b = ode_residuals(StateLabels(5, 3, 0), PotentialParams(1, 0.5, 5))
    assert a == b


# ----------------------------------------------------------------- oracle


def test_hydrogen_oracle_axis_value():
    rho = hydrogen_oracle(2, 1, 0, (0.0, 0.0, 2.0))
    assert math.isclose(rho, math.exp(-2.0) / (8.0 * math.pi), rel_tol=1e-12)


def test_hydrogen_oracle_normalized():
    # 2 pi * int int |psi|^2 r^2 sin(theta) dr dtheta == 1
    from scipy.special import roots_legendre
    xr, wr = roots_legendre(240)
    xt, wt = roots_legendre(96)
    R = 60.0
    r = 0.5 * R * (xr + 1.0)
    theta = 0.5 * math.pi * (xt + 1.0)
    total = 0.0
    for n, l, m in [(1, 0, 0), (3, 2, 1)]:
        total = 0.0
        for ri, wri in zip(r, wr):
            rho = np.array([hydrogen_oracle(n, l, m,
                                            (ri * math.sin(t), 0.0,
                                             ri * math.cos(t)))
                            for t in theta])
            ang = float(np.sum(wt * rho * np.sin(theta)))
            total += wri * ri * ri * ang
        total *= 2.0 * math.pi * (0.5 * R) * (0.5 * math.pi)
        assert abs(total - 1.0) < 1e-8, (n, l, m)


def test_hydrogen_oracle_origin():
    assert hydrogen_oracle(2, 1, 0, (0.0, 0.0, 0.0)) == 0.0
    s = hydrogen_oracle(1, 0, 0, (0.0, 0.0, 0.0))
    assert math.isclose(s, 1.0 / math.pi, rel_tol=1e-12)


def test_hydrogen_oracle_phi_independent_for_m():
    a = hydrogen_oracle(4, 3, 2, (1.0, 1.5, 0.7))
    b = hydrogen_oracle(4, 3, 2, (math.hypot(1.0, 1.5), 0.0, 0.7))
    assert math.isclose(a, b, rel_tol=1e-12)


# ------------------------------------------------------------ expectations


def test_expectation_r_hydrogen_formula():
    # <r> = (3n^2 - l(l+1)) / 2 for hydrogen
    for n, l in [(2, 1), (4, 3), (6, 2)]:
        got = radial_expectation_r(StateLabels(n, l, 0), PotentialParams())
        want = 0.5 * (3 * n * n - l * (l + 1))
        assert math.isclose(got, want, rel_tol=1e-10)


def test_expectation_abs_cos_bounds():
    v = angular_expectation_abs_x(StateLabels(5, 1, 0),
                                  PotentialParams(1, 0.5, 5))
    assert 0.0 < v < 1.0


# ------------------------------------------------------------ report bundle


def test_check_result_pass_rule():
    assert CheckResult("x", 1.0 + 1e-9, 1.0, 1e-8).passed
    assert not CheckResult("x", 1.0 + 1e-7, 1.0, 1e-8).passed
    # residual-style checks: reference 0
    assert CheckResult("res", 1e-7, 0.0, 1e-6).passed


def test_verify_state_report():
    labels, params = StateLabels(2, 1, 0), PotentialParams(1, 0.5, 0.5)
    h = auto_extent(labels, params)
    grid = build_grid(labels, params, GridSpec(61, h))
    report = verify_state(labels, params, grid=grid)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "radial_norm" in names and "grid_mass" in names
    payload = report.as_dict()
    json.dumps(payload)              # JSON-serializable end to end
    assert payload["all_passed"] is True
    assert payload["quasi"]["l_prime"] == pytest.approx(2.0731322, abs=5e-8)


def test_verify_state_without_grid():
    report = verify_state(StateLabels(3, 2, 1), PotentialParams(1, 0.5, 5))
    assert report.grid_mass_value is None
    assert all(c.name != "grid_mass" for c in report.checks)
    assert report.all_passed


def test_abs_cos_grows_with_c():
    vals = [angular_expectation_abs_x(StateLabels(5, 1, 0),
                                      PotentialParams(1, 0.5, c))
            for c in (0.5, 5, 10, 25, 40, 80)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
