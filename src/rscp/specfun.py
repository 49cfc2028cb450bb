"""Numerically stable special functions for the separated angular problem.

Provides log-gamma, the terminating Kummer coefficients, and the universal
associated Legendre family

    H(x) = N (1-x^2)^(m'/2) x^(gamma1) sum_nu coeff_nu x^(2k-2nu)

whose gamma-ratio coefficients overflow float64 near k ~ 10 if evaluated
directly.  Coefficients are therefore carried as (sign, log|value|) and
only decoded after a common scale has been factored out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UalpSpec",
    "log_gamma",
    "kummer_coefficients",
    "ualp_coefficients",
    "angular_H",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Negative or zero arguments are a domain error: every gamma argument
    appearing in the coefficient and normalization formulas is positive.
    """
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def kummer_coefficients(n_r: int, beta: float) -> np.ndarray:
    """Coefficients d_j of F(-n_r, beta, w) = sum_j d_j w^j, j = 0..n_r."""
    if n_r < 0:
        raise ValueError(f"n_r must be non-negative, got {n_r}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    d = np.empty(n_r + 1)
    d[0] = 1.0
    for j in range(n_r):
        d[j + 1] = d[j] * (j - n_r) / ((beta + j) * (j + 1))
    return d


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule; coeffs ascend, x is an array."""
    s = np.full_like(x, coeffs[-1])
    for a in coeffs[-2::-1]:
        s = s * x + a
    return s


@dataclass(frozen=True)
class UalpSpec:
    """Indices of one universal associated Legendre polynomial.

    l_prime is derived, not free: l' = 2k + gamma1 + m'.
    """

    k: int
    gamma1: float
    m_prime: float
    l_prime: float = field(init=False)

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise ValueError(f"k must be a non-negative integer, got {self.k}")
        if self.gamma1 < 0.0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1}")
        if self.m_prime < 0.0:
            raise ValueError(f"m_prime must be >= 0, got {self.m_prime}")
        object.__setattr__(self, "l_prime",
                           2 * self.k + self.gamma1 + self.m_prime)


def ualp_coefficients(spec: UalpSpec) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|coeff|) of x^(2k-2nu) for nu = 0..k.

    coeff_nu = (-1)^nu G(k+g1-nu+1) G(2l'-2nu+1)
               / (2^l' nu! (k-nu)! G(2k+2g1-2nu+1) G(l'-nu+1))

    All gamma arguments stay positive for 0 <= nu <= k.
    """
    k, g1, lp = spec.k, spec.gamma1, spec.l_prime
    sign = np.where(np.arange(k + 1) % 2 == 0, 1.0, -1.0)
    log_magnitude = np.array([
        log_gamma(k + g1 - nu + 1) + log_gamma(2 * lp - 2 * nu + 1)
        - lp * math.log(2.0)
        - log_gamma(nu + 1.0) - log_gamma(k - nu + 1.0)
        - log_gamma(2 * k + 2 * g1 - 2 * nu + 1)
        - log_gamma(lp - nu + 1) for nu in range(k + 1)])
    return sign, log_magnitude


def _norm_log(spec: UalpSpec) -> float:
    """ln of the closed-form normalization constant.

    The printed gamma arguments are rewritten through l' = 2k + g1 + m'
    so every argument is positive:
      G(l'-k-g1+1) = G(k+m'+1), G(l'-k+1) = G(k+g1+m'+1),
      G(2l'-2k+1)  = G(2k+2g1+2m'+1).
    """
    k, g1, mp, lp = spec.k, spec.gamma1, spec.m_prime, spec.l_prime
    return g1 * math.log(2.0) + 0.5 * (
        log_gamma(k + 1.0) + math.log(2 * lp + 1)
        + log_gamma(2 * k + 2 * g1 + 1) + log_gamma(k + g1 + mp + 1)
        - math.log(2.0) - log_gamma(k + mp + 1)
        - log_gamma(k + g1 + 1) - log_gamma(2 * k + 2 * g1 + 2 * mp + 1))


@dataclass(frozen=True)
class _AngularEvaluator:
    """Decoded, overflow-safe form of one HFamily member.

    poly_scaled[j] multiplies (x^2)^j; all entries lie in [-1, 1].  The
    factored-out scale lives in front_log together with the normalization
    constant, so H = exp(front_log) A(x) B(x) S(x^2).
    """

    spec: UalpSpec
    poly_scaled: np.ndarray          # ascending powers of x^2, length k+1
    front_log: float                 # ln(norm) + max coefficient log
    integer_gamma1: bool

    def gamma_power(self, x):
        g1 = self.spec.gamma1
        if g1 == 0.0:
            return np.ones_like(x)
        if self.integer_gamma1:
            return x ** int(g1)
        return np.abs(x) ** g1

    def h_values(self, x):
        x = np.asarray(x, dtype=float)
        mp = self.spec.m_prime
        amp = (np.exp(self.front_log) * _horner(self.poly_scaled, x * x)
               * self.gamma_power(x))
        if mp != 0.0:
            amp = amp * (1.0 - x * x) ** (0.5 * mp)
        return amp


@lru_cache(maxsize=256)
def _evaluator(spec: UalpSpec) -> _AngularEvaluator:
    """Decode and cache one member; rscp.verify checks its constant."""
    sign, log_magnitude = ualp_coefficients(spec)
    front = max(log_magnitude.tolist())
    # coefficient of x^(2k-2nu) sits at power j = k - nu of x^2
    scaled = np.array([s * math.exp(lg - front) for s, lg in
                       zip(sign.tolist(), log_magnitude.tolist())][::-1])
    return _AngularEvaluator(spec, scaled, _norm_log(spec) + front,
                             float(spec.gamma1).is_integer())


def angular_H(spec: UalpSpec, x):
    """Normalized H(x) on [-1, 1]; scalar in, scalar out (arrays pass through).

    For non-integer gamma1 the even extension |x|^gamma1 is used at x < 0;
    integer gamma1 keeps the signed power so the hydrogen limit matches the
    classical normalized associated Legendre function including sign.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("angular_H requires |x| <= 1")
    vals = _evaluator(spec).h_values(arr)
    if arr.ndim == 0:
        return float(vals)
    return vals
