"""Quantum-number mapping, potential, radial function, and |Psi|^2.

Atomic units throughout: hbar = M = e = a0 = 1, energies in hartree,
lengths in Bohr radii.  The potential is

    V(r, theta) = -Z/r + (1/(2 r^2)) (b/sin^2 theta + c/cos^2 theta)

and bound states are labeled by the physical (n, l, m) plus the quasi
quantum numbers (m', gamma1, k, l', n_r, n') derived from (b, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import UalpSpec, angular_H, log_gamma

__all__ = [
    "PotentialParams",
    "StateLabels",
    "QuasiNumbers",
    "ImaginaryOrderError",
    "NoGammaBranchError",
    "PoleError",
    "map_quantum_numbers",
    "potential_V",
    "radial_u",
    "wavefunction_modulus_sq",
]

# |sin| or |cos| below this is treated as sitting on an angular pole
_POLE_EPS = 1e-12


class ImaginaryOrderError(ValueError):
    """b + m^2 < 0: the angular order m' would be imaginary."""


class NoGammaBranchError(ValueError):
    """c > 0 with even l - |m|: no normalizable gamma1-branch state."""


class PoleError(ValueError):
    """Potential evaluated on an angular pole; .sign is the diverging sign."""

    def __init__(self, message: str, sign: int):
        super().__init__(message)
        self.sign = sign


@dataclass(frozen=True)
class PotentialParams:
    """Z > 0 and c >= 0 are required; b may be any real."""

    Z: float = 1.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name, value in (("Z", self.Z), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.Z > 0.0:
            raise ValueError(f"Z must be positive, got {self.Z}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")


@dataclass(frozen=True)
class StateLabels:
    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.l < 0 or self.l > self.n - 1:
            raise ValueError(f"l must satisfy 0 <= l <= n-1, got l={self.l}, n={self.n}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| must be <= l, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class QuasiNumbers:
    m_prime: float
    gamma1: float
    k: int
    l_prime: float
    n_r: int
    n_prime: float
    lam: float
    energy: float


def map_quantum_numbers(labels: StateLabels, params: PotentialParams) -> QuasiNumbers:
    """Physical (n, l, m) + (Z, b, c) -> quasi quantum numbers.

    m' = sqrt(b + m^2); gamma1 = (1 + sqrt(1+4c))/2 for c > 0, else the
    parity (l-|m|) mod 2; l' = 2k + gamma1 + m'; n' = n_r + l' + 1;
    E = -Z^2 / (2 n'^2).  Only the regular gamma1 branch is normalizable
    for c > 0, which forces l - |m| odd there.
    """
    order_sq = params.b + labels.m * labels.m
    if order_sq < 0.0:
        raise ImaginaryOrderError(
            f"imaginary order: b + m^2 = {order_sq} < 0 (no real bound state)")
    m_prime = math.sqrt(order_sq)
    n_theta = labels.l - abs(labels.m)
    if params.c > 0.0:
        if n_theta % 2 == 0:
            raise NoGammaBranchError(
                f"no gamma1-branch state: c > 0 requires odd l - |m|, got {n_theta}")
        gamma1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * params.c))
        k = (n_theta - 1) // 2
    else:
        gamma1 = float(n_theta % 2)
        k = (n_theta - int(gamma1)) // 2
    n_r = labels.n - labels.l - 1
    l_prime = 2 * k + gamma1 + m_prime
    n_prime = n_r + l_prime + 1.0
    lam = l_prime * (l_prime + 1.0)
    e = -params.Z * params.Z / (2.0 * n_prime * n_prime)
    return QuasiNumbers(m_prime, gamma1, k, l_prime, n_r, n_prime, lam, e)


def potential_V(params: PotentialParams, r: float, theta: float) -> float:
    """V(r, theta); angular poles raise PoleError with the diverging sign.

    A divisor within 1e-12 of zero counts as a pole, so float pi/2 hits
    the c-term pole as the closed form intends.
    """
    if not r > 0.0:
        raise ValueError(f"potential_V requires r > 0, got {r}")
    s, co = math.sin(theta), math.cos(theta)
    v = -params.Z / r
    inv_2r2 = 0.5 / (r * r)
    if params.b != 0.0:
        if abs(s) < _POLE_EPS:
            raise PoleError(f"potential pole at theta = {theta} (sin = 0)",
                            1 if params.b > 0 else -1)
        v += inv_2r2 * params.b / (s * s)
    if params.c != 0.0:
        if abs(co) < _POLE_EPS:
            raise PoleError(f"potential pole at theta = {theta} (cos = 0)", 1)
        v += inv_2r2 * params.c / (co * co)
    return v


def _radial_log_prefactor(q: QuasiNumbers, params: PotentialParams) -> float:
    """ln of the positive radial prefactor, Gamma(2l'+2) divided out."""
    return (0.5 * (math.log(params.Z) + log_gamma(q.n_prime + q.l_prime + 1.0)
                   - log_gamma(q.n_r + 1.0) - 2.0 * math.log(q.n_prime))
            - log_gamma(2.0 * q.l_prime + 2.0))


def _kummer_terms(n_r: int, beta: float, w):
    """F(-n_r, beta, w) by t_{j+1} = t_j (j-n_r) w / ((beta+j)(j+1))."""
    t = np.ones_like(w)
    s = np.ones_like(w)
    for j in range(n_r):
        t = t * ((j - n_r) * w / ((beta + j) * (j + 1)))
        s = s + t
    return s


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
    u = amp * _kummer_terms(q.n_r, 2.0 * q.l_prime + 2.0, w)
    if arr.ndim == 0:
        return float(u)
    return u


def wavefunction_modulus_sq(labels: StateLabels, params: PotentialParams,
                            r: float, theta: float) -> float:
    """|Psi|^2 = (1/2pi)(u^2/r^2) H^2(cos theta); phi drops out.

    Axis and equator limits are analytic zeros for admissible states and
    are returned as such, never via epsilon shifts.
    """
    if not r > 0.0:
        if r == 0.0:
            return 0.0
        raise ValueError(f"r must be >= 0, got {r}")
    q = map_quantum_numbers(labels, params)
    u = radial_u(q, params, r)
    spec = UalpSpec(q.k, q.gamma1, q.m_prime)
    h = angular_H(spec, math.cos(theta))
    return (u * u) / (r * r) * (h * h) / (2.0 * math.pi)
