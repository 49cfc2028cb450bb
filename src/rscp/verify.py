"""Independent numerical cross-checks for the closed-form solutions.

Every check here avoids the evaluation path it is judging: normalization
integrals and expectations apply weighted Gauss rules (Jacobi, Laguerre),
exact on polynomial-times-weight integrands, to the served functions,
with nodes and weights built here from the classical three-term
recurrences; differential-equation residuals rebuild the polynomial
factors from a term-ratio recurrence (sharing only log_gamma with the
main code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .density import DensityGrid, grid_mass
from .specfun import UalpSpec, angular_H
from .states import (PotentialParams, QuasiNumbers, StateLabels,
                     map_quantum_numbers, radial_u)

__all__ = [
    "ConvergenceError",
    "VerificationReport",
    "quad_radial_norm",
    "quad_angular_norm",
    "ode_residuals",
    "verify_state",
    "radial_domain",
    "radial_expectation_r",
    "angular_expectation_abs_x",
]


class ConvergenceError(RuntimeError):
    """Raised when the radial tail bound does not close."""


# Gauss rules return nodes and log-weights.  The nodes are the
# eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
# three-term recurrence, each polished by one Newton step on the
# recurrence-evaluated polynomial (Golub & Welsch, Math. Comp. 23, 1969,
# 221; Abramowitz & Stegun 22.7).  Float weights would carry the mass of
# the weight, which overflows for large orders, so the weights come from
# the nodes in the Christoffel form, normalized in log space.

def _jacobi_p(n: int, a: float, b: float, y):
    """P_n^(a,b)(y) by the three-term recurrence (A&S 22.7.1)."""
    p0, p1 = np.ones_like(y), 0.5 * (a - b + (a + b + 2.0) * y)
    if n == 0:
        return p0
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        p0, p1 = p1, ((s - 1.0) * (s * (s - 2.0) * y + a * a - b * b) * p1
                      - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * p0) \
            / (2.0 * k * (k + a + b) * (s - 2.0))
    return p1


def _laguerre_l(n: int, a: float, x):
    """L_n^(a)(x) by the three-term recurrence (A&S 22.7.12)."""
    p0, p1 = np.ones_like(x), 1.0 + a - x
    if n == 0:
        return p0
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + 1.0 + a - x) * p1 - (k + a) * p0) / (k + 1.0)
    return p1


def _eigenvalues(diag, off):
    """Eigenvalues of the symmetric tridiagonal matrix (diag, off)."""
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def _log_normalized(log_w, log_mass: float):
    """Shift log-weights so that their exponentials sum to exp(log_mass)."""
    top = log_w.max()
    return log_w - (math.log(np.sum(np.exp(log_w - top))) + top) + log_mass


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """n-point Gauss rule for (1-t)^alpha t^beta dt on (0, 1).

    alpha + beta > -1; here alpha = m' >= 0 and beta >= -1/2.
    """
    a, b = alpha, beta
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.full(n, (b - a) / (a + b + 2.0))  # k = 0, also when a + b = 0
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = 2.0 / s * np.sqrt((k + a) * (k + b) * k * (k + a + b)
                            / ((s + 1.0) * (s - 1.0)))
    y = _eigenvalues(diag, off)
    # P_n' = (n + a + b + 1)/2 P_(n-1)^(a+1, b+1)
    y -= _jacobi_p(n, a, b, y) / (
        0.5 * (n + a + b + 1.0) * _jacobi_p(n - 1, a + 1.0, b + 1.0, y))
    # w_i ~ 1 / ((1 - y_i^2) P_n'(y_i)^2)
    log_w = -np.log1p(-y * y) - 2.0 * np.log(np.abs(
        _jacobi_p(n - 1, a + 1.0, b + 1.0, y)))
    log_beta = (math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                - math.lgamma(a + b + 2.0))
    return 0.5 * (1.0 + y), _log_normalized(log_w, log_beta)


@lru_cache(maxsize=256)
def _laguerre_rule(n: int, alpha: float):
    """n-point Gauss rule for w^alpha e^-w dw on (0, inf)."""
    k = np.arange(1.0, n)
    x = _eigenvalues(2.0 * np.arange(n) + alpha + 1.0,
                     np.sqrt(k * (k + alpha)))
    # L_n' = -L_(n-1)^(alpha+1)
    x += _laguerre_l(n, alpha, x) / _laguerre_l(n - 1, alpha + 1.0, x)
    # w_i ~ 1 / (x_i L_n'(x_i)^2)
    log_w = -np.log(x) - 2.0 * np.log(np.abs(
        _laguerre_l(n - 1, alpha + 1.0, x)))
    return x, _log_normalized(log_w, math.lgamma(alpha + 1.0))


def _angular_moment(labels: StateLabels, params: PotentialParams,
                    power: int) -> float:
    """int_{-1}^{1} |x|^power H(x)^2 dx, exact by Gauss-Jacobi in t = x^2.

    H^2 = (1-t)^m' t^gamma1 P(t) with deg P = 2k, so k + 1 nodes are
    exact; P is the served H^2 divided by the weight.
    """
    q = map_quantum_numbers(labels, params)
    t, log_w = _jacobi_rule(q.k + 1, q.m_prime, q.gamma1 + 0.5 * (power - 1))
    h = angular_H(UalpSpec(q.k, q.gamma1, q.m_prime), np.sqrt(t))
    with np.errstate(divide="ignore"):          # a node may be a zero of P
        log_p = (2.0 * np.log(np.abs(h)) - q.m_prime * np.log1p(-t)
                 - q.gamma1 * np.log(t))
    return float(np.sum(np.exp(log_w + log_p)))


def _radial_moment(labels: StateLabels, params: PotentialParams,
                   power: int) -> float:
    """int_0^inf r^power u(r)^2 dr (power <= 1), exact by Gauss-Laguerre.

    With w = 2Zr/n', u^2 = w^(2l'+2) e^-w P(w) with deg P = 2 n_r, so
    n_r + 1 nodes are exact; P is the served u^2 divided by the weight.
    """
    q = map_quantum_numbers(labels, params)
    alpha = 2.0 * q.l_prime + 2.0
    w, log_w = _laguerre_rule(q.n_r + 1, alpha)
    scale = q.n_prime / (2.0 * params.Z)
    u = radial_u(q, params, scale * w)
    with np.errstate(divide="ignore"):          # a node may be a zero of P
        log_p = 2.0 * np.log(np.abs(u)) - alpha * np.log(w) + w
    return scale ** (power + 1) * float(np.sum(w ** power
                                               * np.exp(log_w + log_p)))


def radial_domain(q: QuasiNumbers, params: PotentialParams) -> float:
    """Outer radius R with an exponential tail bound below 1e-12.

    Beyond w = 2Zr/n', the log-derivative of u^2 is under -1/2 once w
    exceeds four times the total polynomial degree, so the tail integral
    is bounded by u(R)^2 * n'/Z.  R doubles until that bound is tiny.
    """
    qw = 2.0 * params.Z / q.n_prime
    degree = 2.0 * q.l_prime + 2.0 + 2.0 * q.n_r
    r = max(4.0 * degree, 60.0) / qw
    for _ in range(200):
        tail = float(radial_u(q, params, r)) ** 2 * q.n_prime / params.Z
        if tail < 1e-13:
            return r
        r *= 2.0
    raise ConvergenceError("radial tail bound did not close")


def quad_radial_norm(labels: StateLabels, params: PotentialParams) -> float:
    """Quadrature value of the radial norm integral (1 when correct)."""
    return _radial_moment(labels, params, 0)


def quad_angular_norm(labels: StateLabels, params: PotentialParams) -> float:
    """Quadrature value of the colatitude norm integral (1 when correct)."""
    return _angular_moment(labels, params, 0)


def radial_expectation_r(labels: StateLabels, params: PotentialParams) -> float:
    """<r> from the radial factor alone (angular part integrates to 1)."""
    return _radial_moment(labels, params, 1)


def angular_expectation_abs_x(labels: StateLabels, params: PotentialParams) -> float:
    """<|cos theta|> from the colatitude factor alone."""
    return _angular_moment(labels, params, 1)


# ------------------------------------------------------------ ODE residuals

def _series_coefficients(q: QuasiNumbers):
    """Colatitude polynomial coefficients by term-ratio recurrence.

    Descending even powers x^(2k), x^(2k-2), ...; the equation is
    homogeneous, so the seed is 1 and the list is rescaled to unit max
    magnitude.  Nothing here is shared with the main evaluation path.
    """
    k, g1, lp = q.k, q.gamma1, q.l_prime
    coeffs = [1.0]
    for nu in range(k):
        num = -(k - nu) * (lp - nu) * (2 * k + 2 * g1 - 2 * nu) \
            * (2 * k + 2 * g1 - 2 * nu - 1)
        den = (nu + 1) * (k + g1 - nu) * (2 * lp - 2 * nu) * (2 * lp - 2 * nu - 1)
        coeffs.append(coeffs[-1] * num / den)
    scale = max(abs(c) for c in coeffs)
    return [c / scale for c in coeffs]


def _angular_value_and_derivatives(x: float, q: QuasiNumbers):
    """(H, H', H'') of an unnormalized colatitude solution at interior x."""
    mp = q.m_prime
    g1 = q.gamma1
    k = q.k
    coeffs = _series_coefficients(q)
    # S(x) = sum_nu a_nu x^(2k - 2nu) and its two derivatives
    s = s1 = s2 = 0.0
    for nu, a in enumerate(coeffs):
        p = 2 * (k - nu)
        xp = x ** p
        s += a * xp
        if p >= 1:
            s1 += a * p * x ** (p - 1)
        if p >= 2:
            s2 += a * p * (p - 1) * x ** (p - 2)
    one = 1.0 - x * x
    A = one ** (mp / 2.0)
    A1 = -mp * x * one ** (mp / 2.0 - 1.0)
    A2 = (-mp * one + mp * (mp - 2.0) * x * x) * one ** (mp / 2.0 - 2.0)
    if g1 == 0.0:
        B, B1, B2 = 1.0, 0.0, 0.0
    elif g1 == 1.0:
        B, B1, B2 = x, 1.0, 0.0
    else:
        B = x ** g1
        B1 = g1 * x ** (g1 - 1.0)
        B2 = g1 * (g1 - 1.0) * x ** (g1 - 2.0)
    H = A * B * s
    H1 = A1 * B * s + A * B1 * s + A * B * s1
    H2 = (A2 * B * s + A * B2 * s + A * B * s2
          + 2.0 * (A1 * B1 * s + A1 * B * s1 + A * B1 * s1))
    return H, H1, H2


def _kummer_coeffs_local(n_r: int, beta: float):
    coeffs = [1.0]
    for j in range(n_r):
        coeffs.append(coeffs[-1] * (-n_r + j) / ((beta + j) * (j + 1)))
    return coeffs


def ode_residuals(labels: StateLabels, params: PotentialParams,
                  n_samples: int = 100, seed: int = 0,
                  energy_scale: float = 1.0) -> tuple[float, float]:
    """Max relative residuals (radial, angular) at random interior points.

    energy_scale multiplies only the energy coefficient in the radial
    equation; anything but 1.0 must blow the residual up, which is the
    sensitivity check that the test is not vacuous.
    """
    q = map_quantum_numbers(labels, params)
    rng = np.random.default_rng(seed)
    Z, c = params.Z, params.c
    lp = q.l_prime
    lam = q.lam
    qw = 2.0 * Z / q.n_prime
    energy2 = 2.0 * q.energy * energy_scale

    dcoef = _kummer_coeffs_local(q.n_r, 2.0 * lp + 2.0)
    R = radial_domain(q, params)
    radial_max = 0.0
    for r in rng.uniform(0.02 * R, 0.9 * R, size=n_samples):
        w = qw * r
        F = F1 = F2 = 0.0
        for j, d in enumerate(dcoef):
            wj = w ** j
            F += d * wj
            if j >= 1:
                F1 += d * j * w ** (j - 1)
            if j >= 2:
                F2 += d * j * (j - 1) * w ** (j - 2)
        # common factor exp(-w/2) w^(l'-1) divided out of u'' + [...]u = 0
        t_dd = qw * qw * (((lp + 1.0) * lp - (lp + 1.0) * w + 0.25 * w * w) * F
                          + (2.0 * (lp + 1.0) - w) * w * F1 + w * w * F2)
        t_e = energy2 * w * w * F
        t_coul = (2.0 * Z / r) * w * w * F
        t_cent = -(lam / (r * r)) * w * w * F
        residual = t_dd + t_e + t_coul + t_cent
        scale = abs(t_dd) + abs(t_e) + abs(t_coul) + abs(t_cent) + 1e-300
        radial_max = max(radial_max, abs(residual) / scale)

    angular_max = 0.0
    for x in rng.uniform(0.005, 0.995, size=n_samples):
        H, H1, H2 = _angular_value_and_derivatives(float(x), q)
        one = 1.0 - x * x
        t_dd = one * H2
        t_d = -2.0 * x * H1
        t_lam = lam * H
        t_m = -(q.m_prime ** 2 / one) * H
        t_c = -(c / (x * x)) * H if c > 0.0 else 0.0
        residual = t_dd + t_d + t_lam + t_m + t_c
        scale = abs(t_dd) + abs(t_d) + abs(t_lam) + abs(t_m) + abs(t_c) + 1e-300
        angular_max = max(angular_max, abs(residual) / scale)

    return float(radial_max), float(angular_max)


# --------------------------------------------------------------- reporting

_GRID_MASS_CENTER = 0.9875
_GRID_MASS_HALFWIDTH = 0.0175


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    reference: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.value - self.reference) < self.tolerance)


@dataclass(frozen=True)
class VerificationReport:
    labels: StateLabels
    params: PotentialParams
    quasi: QuasiNumbers
    radial_norm: float
    angular_norm: float
    radial_residual_max: float
    angular_residual_max: float
    grid_mass_value: float | None = None

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        out = [
            CheckResult("radial_norm", self.radial_norm, 1.0, 1e-8),
            CheckResult("angular_norm", self.angular_norm, 1.0, 1e-8),
            CheckResult("radial_residual_max", self.radial_residual_max,
                        0.0, 1e-6),
            CheckResult("angular_residual_max", self.angular_residual_max,
                        0.0, 1e-6),
        ]
        if self.grid_mass_value is not None:
            out.append(CheckResult("grid_mass", self.grid_mass_value,
                                   _GRID_MASS_CENTER, _GRID_MASS_HALFWIDTH))
        return tuple(out)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "state": {"n": self.labels.n, "l": self.labels.l,
                      "m": self.labels.m},
            "params": {"Z": self.params.Z, "b": self.params.b,
                       "c": self.params.c},
            "quasi": {"m_prime": self.quasi.m_prime,
                      "gamma1": self.quasi.gamma1, "k": self.quasi.k,
                      "l_prime": self.quasi.l_prime, "n_r": self.quasi.n_r,
                      "n_prime": self.quasi.n_prime, "lambda": self.quasi.lam,
                      "energy": self.quasi.energy},
            "checks": [{"name": c.name, "value": c.value,
                        "reference": c.reference, "tolerance": c.tolerance,
                        "passed": c.passed} for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_state(labels: StateLabels, params: PotentialParams,
                 n_samples: int = 100,
                 grid: DensityGrid | None = None) -> VerificationReport:
    """Full verification bundle for one state.

    The grid check is optional; ``grid`` is the raw ``build_grid`` result.
    """
    q = map_quantum_numbers(labels, params)
    rnorm = quad_radial_norm(labels, params)
    anorm = quad_angular_norm(labels, params)
    rres, ares = ode_residuals(labels, params, n_samples=n_samples)
    mass = None if grid is None else grid_mass(grid)
    return VerificationReport(labels, params, q, rnorm, anorm, rres, ares,
                              mass)
