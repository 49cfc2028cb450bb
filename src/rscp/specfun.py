"""The two served factors of a state, each summed one way.

The radial factor u = N_r w^(l'+1) e^(-w/2) F(-n_r, 2l'+2, w), w = 2Zr/n',
and the universal associated Legendre family

    H(x) = N (1-x^2)^(m'/2) x^(gamma1) sum_nu coeff_nu x^(2k-2nu)

sum their polynomials by Horner's rule on the coefficients that the
density kernel also reads.  The gamma-ratio coefficients of H overflow
float64 near k ~ 10 if evaluated directly, so they are carried as
(sign, log|value|) and only decoded after a common scale has been
factored out; the prefactors are taken in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import PotentialParams, QuasiNumbers

__all__ = [
    "UalpSpec",
    "kummer_coefficients",
    "radial_u",
    "ualp_coefficients",
    "angular_H",
]


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


def _radial_log_prefactor(q: QuasiNumbers, params: PotentialParams) -> float:
    """ln of the positive radial prefactor, Gamma(2l'+2) divided out."""
    return (0.5 * (math.log(params.Z)
                   + math.lgamma(q.n_prime + q.l_prime + 1.0)
                   - math.lgamma(q.n_r + 1.0) - 2.0 * math.log(q.n_prime))
            - math.lgamma(2.0 * q.l_prime + 2.0))


def radial_u(q: QuasiNumbers, params: PotentialParams, r):
    """Reduced radial function u(r), normalized to int u^2 dr = 1.

    u = exp(pref + (l'+1) ln w - w/2) F(-n_r, 2l'+2, w), w = 2Zr/n'.
    The prefactor is evaluated in log space; r = 0 maps to the analytic
    limit 0.  Accepts scalars or arrays.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("radial_u requires r >= 0")
    pref = _radial_log_prefactor(q, params)
    w = (2.0 * params.Z / q.n_prime) * arr
    with np.errstate(divide="ignore"):
        logw = np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)
    amp = np.exp(pref + (q.l_prime + 1.0) * logw - 0.5 * w)
    u = amp * _horner(kummer_coefficients(q.n_r, 2.0 * q.l_prime + 2.0), w)
    if arr.ndim == 0:
        return float(u)
    return u


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
        math.lgamma(k + g1 - nu + 1) + math.lgamma(2 * lp - 2 * nu + 1)
        - lp * math.log(2.0)
        - math.lgamma(nu + 1.0) - math.lgamma(k - nu + 1.0)
        - math.lgamma(2 * k + 2 * g1 - 2 * nu + 1)
        - math.lgamma(lp - nu + 1) for nu in range(k + 1)])
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
        math.lgamma(k + 1.0) + math.log(2 * lp + 1)
        + math.lgamma(2 * k + 2 * g1 + 1) + math.lgamma(k + g1 + mp + 1)
        - math.log(2.0) - math.lgamma(k + mp + 1) - math.lgamma(k + g1 + 1)
        - math.lgamma(2 * k + 2 * g1 + 2 * mp + 1))


def _evaluator(spec: UalpSpec) -> tuple[np.ndarray, float]:
    """(poly, front_log) of one member, decoded from its coefficient logs.

    poly[j] multiplies (x^2)^j and lies in [-1, 1]; front_log is ln(norm)
    plus the largest coefficient log, so that
    H = exp(front_log) (1-x^2)^(m'/2) x^gamma1 poly(x^2).  rscp.verify
    checks its constant.
    """
    sign, log_magnitude = ualp_coefficients(spec)
    front = max(log_magnitude.tolist())
    # coefficient of x^(2k-2nu) sits at power j = k - nu of x^2
    poly = np.array([s * math.exp(lg - front) for s, lg in
                     zip(sign.tolist(), log_magnitude.tolist())][::-1])
    return poly, _norm_log(spec) + front


def angular_H(spec: UalpSpec, x):
    """Normalized H(x) on [-1, 1]; scalar in, scalar out (arrays pass through).

    For non-integer gamma1 the even extension |x|^gamma1 is used at x < 0;
    integer gamma1 keeps the signed power so the hydrogen limit matches the
    classical normalized associated Legendre function including sign.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("angular_H requires |x| <= 1")
    poly, front_log = _evaluator(spec)
    vals = np.exp(front_log) * _horner(poly, arr * arr)
    g1, mp = spec.gamma1, spec.m_prime
    if g1 != 0.0:
        vals = vals * (arr ** int(g1) if float(g1).is_integer()
                       else np.abs(arr) ** g1)
    if mp != 0.0:
        vals = vals * (1.0 - arr * arr) ** (0.5 * mp)
    if arr.ndim == 0:
        return float(vals)
    return vals
