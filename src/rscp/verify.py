"""Independent numerical cross-checks for the closed-form solutions.

Every check here avoids the evaluation path it is judging: normalization
integrals and expectations apply weighted Gauss rules (Jacobi, Laguerre),
exact on polynomial-times-weight integrands, to the served functions,
with nodes and weights built here from the classical three-term
recurrences; differential-equation residuals rebuild the polynomial
factors as the Laguerre and Jacobi polynomials of those same
recurrences, at radial samples in a window set by the polynomial
degree.  They share their recurrences with the Gauss rules and nothing
with the served path.  The served radial_u and angular_H of
rscp.specfun sum both factors in the power basis with the coefficients
the density kernel sums, so the norms judge the factors a grid draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .density import DensityGrid, grid_mass
from .specfun import UalpSpec, angular_H, radial_u
from .states import (PotentialParams, QuasiNumbers, StateLabels,
                     map_quantum_numbers)

__all__ = [
    "VerificationReport",
    "quad_radial_norm",
    "quad_angular_norm",
    "ode_residuals",
    "verify_state",
    "radial_expectation_r",
    "angular_expectation_abs_x",
]


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
    """L_n^(a)(x) = m 2^e by the three-term recurrence (A&S 22.7.12), as
    (m, e): where |p1| passes 2^512, p0 and p1 take the exact factor
    2^-512, so the recurrence stays finite at any degree, and where |L|
    stays below 2^512, e = 0 and m is the unscaled recurrence."""
    p0, p1 = np.ones_like(x), 1.0 + a - x
    e = np.zeros_like(x, dtype=np.int64)
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + 1.0 + a - x) * p1 - (k + a) * p0) / (k + 1.0)
        huge = np.abs(p1) > 2.0 ** 512
        if huge.any():
            shift = 512 * huge
            p0, p1, e = np.ldexp(p0, -shift), np.ldexp(p1, -shift), e + shift
    return (p1 if n else p0), e


def _jacobi_derivative(j: int, n: int, a: float, b: float, y):
    """d^j/dy^j P_n^(a,b)(y) = (n+a+b+1)_j / 2^j P_(n-j)^(a+j,b+j)(y)
    (A&S 22.8); zero for j > n."""
    if j > n:
        return np.zeros_like(y)
    return (math.prod(0.5 * (n + a + b + 1.0 + i) for i in range(j))
            * _jacobi_p(n - j, a + j, b + j, y))


def _laguerre_derivative(j: int, n: int, a: float, x):
    """d^j/dx^j L_n^(a)(x) = (-1)^j L_(n-j)^(a+j)(x) (A&S 22.8), as the
    pair (m, e) of _laguerre_l; zero for j > n."""
    if j > n:
        return np.zeros_like(x), np.zeros_like(x, dtype=np.int64)
    m, e = _laguerre_l(n - j, a + j, x)
    return (-1.0) ** j * m, e


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
    y -= _jacobi_p(n, a, b, y) / _jacobi_derivative(1, n, a, b, y)
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
    m, e = _laguerre_l(n, alpha, x)
    m1, e1 = _laguerre_derivative(1, n, alpha, x)
    x -= np.ldexp(m / m1, e - e1)
    # w_i ~ 1 / (x_i L_n'(x_i)^2)
    m, e = _laguerre_l(n - 1, alpha + 1.0, x)
    log_w = -np.log(x) - 2.0 * (np.log(np.abs(m)) + e * math.log(2.0))
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

def _product(f, g):
    """(fg, (fg)', (fg)'') from the triples (f, f', f'') and (g, g', g'')."""
    return (f[0] * g[0], f[1] * g[0] + f[0] * g[1],
            f[2] * g[0] + 2.0 * f[1] * g[1] + f[0] * g[2])


def _angular_solution(q: QuasiNumbers, x):
    """(H, H', H'') of an unnormalized colatitude solution at 0 < x < 1:
    H = A B S with A = (1-x^2)^(m'/2), B = x^gamma1 and
    S = P_k^(gamma1-1/2, m')(1 - 2x^2); integer gamma1 also takes x < 0."""
    mp, g1, y = q.m_prime, q.gamma1, 1.0 - 2.0 * x * x
    P, P1, P2 = (_jacobi_derivative(j, q.k, g1 - 0.5, mp, y) for j in range(3))
    one = 1.0 - x * x
    A = (one ** (mp / 2.0), -mp * x * one ** (mp / 2.0 - 1.0),
         (-mp * one + mp * (mp - 2.0) * x * x) * one ** (mp / 2.0 - 2.0))
    B = (x ** g1, g1 * x ** (g1 - 1.0), g1 * (g1 - 1.0) * x ** (g1 - 2.0))
    # S = P(1 - 2x^2), so S' = -4x P' and S'' = 16x^2 P'' - 4P'
    return _product(_product(A, B), (P, -4.0 * x * P1,
                                      16.0 * x * x * P2 - 4.0 * P1))


def _max_relative(terms) -> float:
    """Largest |sum of the terms| / sum of |terms| over the samples."""
    scale = sum(np.abs(t) for t in terms) + 1e-300
    return float(np.max(np.abs(sum(terms)) / scale, initial=0.0))


# samples per residual, and the seed they are drawn from
_N_SAMPLES = 100
_SEED = 0


def ode_residuals(labels: StateLabels,
                  params: PotentialParams) -> tuple[float, float]:
    """Max relative residuals (radial, angular) at random interior points."""
    q = map_quantum_numbers(labels, params)
    rng = np.random.default_rng(_SEED)
    Z, c, lp, lam = params.Z, params.c, q.l_prime, q.lam
    qw = 2.0 * Z / q.n_prime

    # u = exp(-w/2) w^(l'+1) F, F ~ L_(n_r)^(2l'+1)(w), w = qw r; the factor
    # exp(-w/2) w^(l'-1) is divided out of u'' + [2E + 2Z/r - lambda/r^2] u = 0,
    # so no tail bound is needed: w spans a window four times the degree
    w_max = max(4.0 * (2.0 * lp + 2.0 + 2.0 * q.n_r), 60.0)
    w = rng.uniform(0.02 * w_max, 0.9 * w_max, size=_N_SAMPLES)
    r = w / qw
    # F, F' and F'' on one power of two per sample, which the relative
    # residual does not see
    pairs = [_laguerre_derivative(j, q.n_r, 2.0 * lp + 1.0, w)
             for j in range(3)]
    top = np.max([e for _, e in pairs], axis=0)
    F, F1, F2 = (np.ldexp(m, e - top) for m, e in pairs)
    radial_max = _max_relative((
        qw * qw * (((lp + 1.0) * lp - (lp + 1.0) * w + 0.25 * w * w) * F
                   + (2.0 * (lp + 1.0) - w) * w * F1 + w * w * F2),
        2.0 * q.energy * w * w * F, (2.0 * Z / r) * w * w * F,
        -(lam / (r * r)) * w * w * F))

    # (1-x^2) H'' - 2x H' + [lambda - m'^2/(1-x^2) - c/x^2] H = 0
    x = rng.uniform(0.005, 0.995, size=_N_SAMPLES)
    H, H1, H2 = _angular_solution(q, x)
    one = 1.0 - x * x
    angular_max = _max_relative((
        one * H2, -2.0 * x * H1, lam * H, -(q.m_prime ** 2 / one) * H,
        -(c / (x * x)) * H))

    return radial_max, angular_max


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
            # a non-finite value (a failed check) is written as its string
            "checks": [{"name": c.name, "value": c.value
                        if math.isfinite(c.value) else str(c.value),
                        "reference": c.reference, "tolerance": c.tolerance,
                        "passed": c.passed} for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_state(labels: StateLabels, params: PotentialParams,
                 grid: DensityGrid | None = None) -> VerificationReport:
    """Full verification bundle for one state.

    The grid check is optional; ``grid`` is the raw ``build_grid`` result.
    """
    return VerificationReport(
        labels, params, map_quantum_numbers(labels, params),
        quad_radial_norm(labels, params), quad_angular_norm(labels, params),
        *ode_residuals(labels, params),
        None if grid is None else grid_mass(grid))
