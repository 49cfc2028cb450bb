"""Independent numerical checks: quadrature norms, ODE residuals, oracles."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import (betaln, gammaln, logsumexp, roots_genlaguerre,
                           roots_jacobi)

from rscp import specfun, states
from rscp.density import GridSpec, auto_extent, build_grid
from rscp.states import (NoGammaBranchError, PotentialParams, StateLabels,
                         map_quantum_numbers, radial_u)
from rscp.verify import (CheckResult, _jacobi_rule, _laguerre_rule,
                         angular_expectation_abs_x, ode_residuals,
                         quad_angular_norm, quad_radial_norm, radial_domain,
                         radial_expectation_r, verify_state)

from _hydrogen import hydrogen_oracle

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


@pytest.fixture
def fresh_evaluators():
    specfun._evaluator.cache_clear()
    yield
    specfun._evaluator.cache_clear()


def test_norm_checks_detect_wrong_constants(monkeypatch, fresh_evaluators):
    labels, params = StateLabels(5, 2, 1), PotentialParams(1, 0.5, 3.0)
    assert verify_state(labels, params).all_passed
    norm_log = specfun._norm_log
    monkeypatch.setattr(specfun, "_norm_log",
                        lambda spec: norm_log(spec) + 1e-7)
    specfun._evaluator.cache_clear()
    failed = {c.name for c in verify_state(labels, params).checks
              if not c.passed}
    assert failed == {"angular_norm"}
    monkeypatch.undo()
    specfun._evaluator.cache_clear()
    prefactor = states._radial_log_prefactor
    monkeypatch.setattr(states, "_radial_log_prefactor",
                        lambda q, p: prefactor(q, p) + 1e-7)
    failed = {c.name for c in verify_state(labels, params).checks
              if not c.passed}
    assert failed == {"radial_norm"}


@pytest.mark.parametrize("state, b, c", [
    ((6, 1, 0), 1e-3, 1e-3), ((6, 1, 0), 1e-4, 1e-4),
    ((6, 1, 0), 1e-6, 1e-6), ((6, 2, 0), 1e-3, 0.0)])
def test_near_hydrogen_states_verify(state, b, c, fresh_evaluators):
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


def test_radial_domain_captures_tail():
    labels, params = StateLabels(6, 5, 0), PotentialParams(1, 0.5, 10)
    q = map_quantum_numbers(labels, params)
    R = radial_domain(q, params)
    # the tail bound guarantees what is left outside [0, R] is < 1e-13
    assert radial_u(q, params, R) ** 2 * q.n_prime / params.Z < 1e-13


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
        rres, ares = ode_residuals(labels, params, n_samples=100)
        assert rres < 1e-6, (labels, params)
        assert ares < 1e-6, (labels, params)


def test_residual_detects_wrong_energy():
    # a 1% energy error must push the radial residual far above threshold
    rres, _ = ode_residuals(StateLabels(2, 1, 0),
                            PotentialParams(1, 0.5, 0.5), energy_scale=1.01)
    assert rres > 1e-3


def test_residuals_deterministic():
    a = ode_residuals(StateLabels(5, 3, 0), PotentialParams(1, 0.5, 5), seed=4)
    b = ode_residuals(StateLabels(5, 3, 0), PotentialParams(1, 0.5, 5), seed=4)
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
