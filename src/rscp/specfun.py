"""Numerically stable special functions for the separated angular problem.

Provides log-gamma, the terminating Kummer series, and the universal
associated Legendre family

    H(x) = N (1-x^2)^(m'/2) x^(gamma1) sum_nu coeff_nu x^(2k-2nu)

whose gamma-ratio coefficients overflow float64 near k ~ 10 if evaluated
directly.  Coefficients are therefore carried as SignedLogValue records
and only decoded after a common scale has been factored out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SignedLogValue",
    "UalpSpec",
    "log_gamma",
    "kummer_terminating",
    "ualp_coefficients",
    "angular_H",
    "angular_H_derivatives",
]

_LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, log|value|) to dodge overflow."""

    sign: int
    log_magnitude: float

    @classmethod
    def encode(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(0, _LOG_ZERO)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def decode(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue(0, _LOG_ZERO)
        return SignedLogValue(self.sign * other.sign,
                              self.log_magnitude + other.log_magnitude)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Negative or zero arguments are a domain error: every gamma argument
    appearing in the coefficient and normalization formulas is positive.
    """
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def kummer_terminating(n_r: int, beta: float, x) -> float:
    """F(-n_r, beta, x) as the finite sum of n_r+1 terms.

    Uses the term recurrence t_{j+1} = t_j (-n_r+j) x / ((beta+j)(j+1)),
    exact for the polynomial case.  x may be a scalar or ndarray.
    """
    if n_r < 0 or n_r != int(n_r):
        raise ValueError(f"n_r must be a non-negative integer, got {n_r}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    n_r = int(n_r)
    x = np.asarray(x, dtype=float)
    t = np.ones_like(x)
    s = np.ones_like(x)
    for j in range(n_r):
        t = t * ((j - n_r) * x / ((beta + j) * (j + 1)))
        s = s + t
    if s.ndim == 0:
        return float(s)
    return s


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


def ualp_coefficients(spec: UalpSpec) -> list[SignedLogValue]:
    """Coefficient of x^(2k-2nu) for nu = 0..k, in log space.

    coeff_nu = (-1)^nu G(k+g1-nu+1) G(2l'-2nu+1)
               / (2^l' nu! (k-nu)! G(2k+2g1-2nu+1) G(l'-nu+1))

    All gamma arguments stay positive for 0 <= nu <= k.
    """
    k, g1, lp = spec.k, spec.gamma1, spec.l_prime
    out = []
    for nu in range(k + 1):
        lg = (log_gamma(k + g1 - nu + 1) + log_gamma(2 * lp - 2 * nu + 1)
              - lp * math.log(2.0)
              - log_gamma(nu + 1.0) - log_gamma(k - nu + 1.0)
              - log_gamma(2 * k + 2 * g1 - 2 * nu + 1)
              - log_gamma(lp - nu + 1))
        out.append(SignedLogValue(1 if nu % 2 == 0 else -1, lg))
    return out


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

    def poly(self, x2):
        s = np.zeros_like(x2)
        for a in self.poly_scaled[::-1]:
            s = s * x2 + a
        return s

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
        amp = np.exp(self.front_log) * self.poly(x * x) * self.gamma_power(x)
        if mp != 0.0:
            amp = amp * (1.0 - x * x) ** (0.5 * mp)
        return amp


@lru_cache(maxsize=256)
def _evaluator(spec: UalpSpec) -> _AngularEvaluator:
    """Decode and cache one member; rscp.verify checks its constant."""
    coeffs = ualp_coefficients(spec)
    front = max(c.log_magnitude for c in coeffs)
    scaled = np.zeros(spec.k + 1)
    for nu, c in enumerate(coeffs):
        if c.sign != 0:
            # coefficient of x^(2k-2nu) sits at power j = k - nu of x^2
            scaled[spec.k - nu] = c.sign * math.exp(c.log_magnitude - front)
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


def angular_H_derivatives(spec: UalpSpec, x: float):
    """(H, dH/dx, d2H/dx2) at one interior point.

    x = 0 is excluded for non-integer gamma1 (the |x|^gamma1 cusp) and
    |x| = 1 is excluded because the (1-x^2)^(m'/2) factor loses smoothness
    there for non-integer m'.
    """
    ev = _evaluator(spec)
    g1, mp = spec.gamma1, spec.m_prime
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError("angular_H_derivatives requires |x| < 1")
    if x == 0.0 and not ev.integer_gamma1:
        raise ValueError("x = 0 excluded for non-integer gamma1")

    # Work at |x| and reflect: H is even under the |x|^gamma1 convention,
    # and for integer gamma1 the signed power gives parity (-1)^gamma1.
    ax = abs(x)
    F = math.exp(ev.front_log)

    a = ev.poly_scaled
    x2 = ax * ax
    S = 0.0
    S1 = 0.0
    S2 = 0.0
    for j in range(len(a) - 1, -1, -1):
        p = 2 * j
        S += a[j] * ax ** p
        if p >= 1:
            S1 += a[j] * p * ax ** (p - 1)
        if p >= 2:
            S2 += a[j] * p * (p - 1) * ax ** (p - 2)

    if g1 == 0.0:
        B, B1, B2 = 1.0, 0.0, 0.0
    else:
        B = ax ** g1
        B1 = g1 * ax ** (g1 - 1.0)
        B2 = g1 * (g1 - 1.0) * ax ** (g1 - 2.0) if g1 != 1.0 else 0.0

    if mp == 0.0:
        A, A1, A2 = 1.0, 0.0, 0.0
    else:
        one = 1.0 - x2
        A = one ** (0.5 * mp)
        A1 = -mp * ax * one ** (0.5 * mp - 1.0)
        A2 = (-mp * one + mp * (mp - 2.0) * x2) * one ** (0.5 * mp - 2.0)

    H = F * A * B * S
    H1 = F * (A1 * B * S + A * B1 * S + A * B * S1)
    H2 = F * (A2 * B * S + A * B2 * S + A * B * S2
              + 2.0 * (A1 * B1 * S + A1 * B * S1 + A * B1 * S1))

    if x < 0.0:
        if ev.integer_gamma1 and int(g1) % 2 == 1:
            # odd H: H(-x) = -H(x), H'(-x) = H'(x), H''(-x) = -H''(x)
            return -H, H1, -H2
        return H, -H1, H2
    return H, H1, H2
