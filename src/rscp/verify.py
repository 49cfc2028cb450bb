"""Independent numerical cross-checks for the closed-form solutions.

Every check here avoids the evaluation path it is judging: normalization
integrals apply weighted Gauss rules (Jacobi, Laguerre), exact on
polynomial-times-weight integrands, to the served functions, with nodes
and weights built here from the classical three-term recurrences; the
tests read the first moments, <r> and <|cos theta|>, from the same
rules.  Differential-equation residuals rebuild the polynomial factors
as the Laguerre and Jacobi polynomials of those same recurrences, with
each factor's envelope divided out analytically, at fixed samples: the
midpoints of equal cells of a radial window set by the polynomial degree
and of an angular window inside (0, 1).  One recurrence loop serves both
families and carries a power of two beside each value, so neither
overflows at any degree.  The checks share these recurrences and nothing
with the served path.  The served radial_u and angular_H of rscp.specfun
sum both factors in the power basis with the coefficients the density
kernel sums, so the norms judge the factors a grid draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityGrid, grid_mass
from .specfun import UalpSpec, angular_H, radial_u
from .states import (PotentialParams, QuasiNumbers, StateLabels,
                     map_quantum_numbers)


# Gauss rules return nodes and log-weights.  The nodes are the
# eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
# three-term recurrence, each polished by one Newton step on the
# recurrence-evaluated polynomial (Golub & Welsch, Math. Comp. 23, 1969,
# 221; Abramowitz & Stegun 22.7).  Float weights would carry the mass of
# the weight, which overflows for large orders, so the weights come from
# the nodes in the Christoffel form, normalized in log space.

def _recurrence(n: int, p0, p1, step):
    """p_n = m 2^e of the three-term recurrence p_k = step(k, p_(k-2),
    p_(k-1)) from p_0 and p_1, as (m, e), and 0 for n < 0: where |p_k|
    passes 2^512, the two carried values take the exact factor 2^-512, so
    the recurrence stays finite at any degree, and where |p| stays below
    2^512, e = 0 and m is the unscaled recurrence."""
    e = np.zeros(np.shape(p0), dtype=np.int64)
    if n < 0:                   # a j-th derivative of degree below j
        return np.zeros_like(p0), e
    for k in range(2, n + 1):
        p0, p1 = p1, step(k, p0, p1)
        huge = np.abs(p1) > 2.0 ** 512
        if huge.any():
            shift = 512 * huge
            p0, p1, e = np.ldexp(p0, -shift), np.ldexp(p1, -shift), e + shift
    return (p1 if n else p0), e


def _jacobi_p(j: int, n: int, a: float, b: float, y):
    """d^j/dy^j P_n^(a,b)(y) = (n+a+b+1)_j / 2^j P_(n-j)^(a+j,b+j)(y)
    (A&S 22.8), by the recurrence A&S 22.7.1, as the (m, e) of
    _recurrence."""
    front = math.prod(0.5 * (n + a + b + 1.0 + i) for i in range(j))
    n, a, b = n - j, a + j, b + j

    def step(k, p0, p1):
        s = 2.0 * k + a + b
        return ((s - 1.0) * (s * (s - 2.0) * y + a * a - b * b) * p1
                - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * p0) \
            / (2.0 * k * (k + a + b) * (s - 2.0))
    m, e = _recurrence(n, np.ones_like(y),
                       0.5 * (a - b + (a + b + 2.0) * y), step)
    return front * m, e


def _laguerre_l(j: int, n: int, a: float, x):
    """d^j/dx^j L_n^(a)(x) = (-1)^j L_(n-j)^(a+j)(x) (A&S 22.8), by the
    recurrence A&S 22.7.12, as the (m, e) of _recurrence."""
    n, a = n - j, a + j
    m, e = _recurrence(
        n, np.ones_like(x), 1.0 + a - x,
        lambda k, p0, p1: ((2.0 * k - 1.0 + a - x) * p1
                           - (k - 1.0 + a) * p0) / k)
    return (-1.0) ** j * m, e


def _eigenvalues(diag, off):
    """Eigenvalues of the symmetric tridiagonal matrix (diag, off)."""
    a = np.diag(diag)           # eigvalsh reads the lower triangle only
    np.fill_diagonal(a[1:], off)
    return np.linalg.eigvalsh(a)


def _gauss_rule(nodes, p, log_g, log_mass: float):
    """(nodes, log-weights) of the Gauss rule whose degree-n orthogonal
    polynomial has the j-th derivative p(j, x) as (m, e) and whose
    Christoffel weights go as 1 / (g(x_i) p'(x_i)^2): each eigenvalue
    node takes one Newton step, and the weights are shifted in log space
    so that their exponentials sum to exp(log_mass)."""
    (m, e), (m1, e1) = p(0, nodes), p(1, nodes)
    x = nodes - np.ldexp(m / m1, e - e1)
    m1, e1 = p(1, x)
    log_w = -log_g(x) - 2.0 * (np.log(np.abs(m1)) + e1 * math.log(2.0))
    top = log_w.max()
    return x, log_w - (math.log(np.sum(np.exp(log_w - top))) + top) + log_mass


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
    log_beta = (math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                - math.lgamma(a + b + 2.0))
    y, log_w = _gauss_rule(_eigenvalues(diag, off),
                           lambda j, y: _jacobi_p(j, n, a, b, y),
                           lambda y: np.log1p(-y * y), log_beta)
    return 0.5 * (1.0 + y), log_w


def _laguerre_rule(n: int, alpha: float):
    """n-point Gauss rule for w^alpha e^-w dw on (0, inf)."""
    k = np.arange(1.0, n)
    x = _eigenvalues(2.0 * np.arange(n) + alpha + 1.0,
                     np.sqrt(k * (k + alpha)))
    return _gauss_rule(x, lambda j, x: _laguerre_l(j, n, alpha, x), np.log,
                       math.lgamma(alpha + 1.0))


# a node may be a zero of P, and a served sum past the float range makes
# a non-finite moment, which the report writes as a failed check
_SERVED = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _angular_moment(labels: StateLabels, params: PotentialParams,
                    power: int) -> float:
    """int_{-1}^{1} |x|^power H(x)^2 dx, exact by Gauss-Jacobi in t = x^2.

    H^2 = (1-t)^m' t^gamma1 P(t) with deg P = 2k, so k + 1 nodes are
    exact; P is the served H^2 divided by the weight.
    """
    q = map_quantum_numbers(labels, params)
    t, log_w = _jacobi_rule(q.k + 1, q.m_prime, q.gamma1 + 0.5 * (power - 1))
    with np.errstate(**_SERVED):
        h = angular_H(UalpSpec(q.k, q.gamma1, q.m_prime), np.sqrt(t))
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
    with np.errstate(**_SERVED):
        u = radial_u(q, params, scale * w)
        log_p = 2.0 * np.log(np.abs(u)) - alpha * np.log(w) + w
        return scale ** (power + 1) * float(np.sum(w ** power
                                                   * np.exp(log_w + log_p)))


def quad_radial_norm(labels: StateLabels, params: PotentialParams) -> float:
    """Quadrature value of the radial norm integral (1 when correct)."""
    return _radial_moment(labels, params, 0)


def quad_angular_norm(labels: StateLabels, params: PotentialParams) -> float:
    """Quadrature value of the colatitude norm integral (1 when correct)."""
    return _angular_moment(labels, params, 0)


# ------------------------------------------------------------ ODE residuals

def _on_one_scale(family, *args):
    """The values and first two derivatives of a polynomial family, each
    m 2^e pair put on one power of two per sample, which the relative
    residual does not see."""
    pairs = [family(j, *args) for j in range(3)]
    top = np.max([e for _, e in pairs], axis=0)
    return (np.ldexp(m, e - top) for m, e in pairs)


def _max_relative(terms) -> float:
    """Largest |sum of the terms| / sum of |terms| over the samples."""
    scale = sum(np.abs(t) for t in terms) + 1e-300
    return float(np.max(np.abs(sum(terms)) / scale, initial=0.0))


# samples per residual: the midpoints of equal cells of each window
_N_SAMPLES = 100
_MIDPOINTS = (np.arange(_N_SAMPLES) + 0.5) / _N_SAMPLES


def ode_residuals(labels: StateLabels,
                  params: PotentialParams) -> tuple[float, float]:
    """Max relative residuals (radial, angular) at the cell midpoints of
    a radial and an angular window."""
    q = map_quantum_numbers(labels, params)
    Z, c, lp, lam = params.Z, params.c, q.l_prime, q.lam
    qw = 2.0 * Z / q.n_prime

    # u = exp(-w/2) w^(l'+1) F, F ~ L_(n_r)^(2l'+1)(w), w = qw r; the factor
    # exp(-w/2) w^(l'-1) is divided out of u'' + [2E + 2Z/r - lambda/r^2] u = 0,
    # so no tail bound is needed: w spans a window four times the degree
    w_max = max(4.0 * (2.0 * lp + 2.0 + 2.0 * q.n_r), 60.0)
    w = (0.02 + 0.88 * _MIDPOINTS) * w_max
    r = w / qw
    F, F1, F2 = _on_one_scale(_laguerre_l, q.n_r, 2.0 * lp + 1.0, w)
    radial_max = _max_relative((
        qw * qw * (((lp + 1.0) * lp - (lp + 1.0) * w + 0.25 * w * w) * F
                   + (2.0 * (lp + 1.0) - w) * w * F1 + w * w * F2),
        2.0 * q.energy * w * w * F, (2.0 * Z / r) * w * w * F,
        -(lam / (r * r)) * w * w * F))

    # H = (1-x^2)^(m'/2) x^gamma1 S, S = P_k^(gamma1-1/2, m')(1-2x^2); the
    # envelope, whose log-derivative is g, is divided out of
    # (1-x^2) H'' - 2x H' + [lambda - m'^2/(1-x^2) - c/x^2] H = 0
    x = 0.005 + 0.99 * _MIDPOINTS
    mp, g1, one = q.m_prime, q.gamma1, 1.0 - x * x
    S, P1, P2 = _on_one_scale(_jacobi_p, q.k, g1 - 0.5, mp, 1.0 - 2.0 * x * x)
    S1, S2 = -4.0 * x * P1, 16.0 * x * x * P2 - 4.0 * P1
    g = g1 / x - mp * x / one
    # g' + g^2, with the 1/x^2 and m'^2 parts of g' and g^2 combined
    dg_g2 = (g1 * (g1 - 1.0) / (x * x) - 2.0 * g1 * mp / one
             + mp * ((mp - 1.0) * x * x - 1.0) / (one * one))
    angular_max = _max_relative((
        one * S2, 2.0 * one * g * S1, one * dg_g2 * S, -2.0 * x * S1,
        -2.0 * x * g * S, lam * S, -(mp * mp / one) * S, -(c / (x * x)) * S))

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
            "quasi": self.quasi.as_dict(),
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
