"""Quantum-number mapping and potential.

Atomic units throughout: hbar = M = e = a0 = 1, energies in hartree,
lengths in Bohr radii.  The potential is

    V(r, theta) = -Z/r + (1/(2 r^2)) (b/sin^2 theta + c/cos^2 theta)

and bound states are labeled by the physical (n, l, m) plus the quasi
quantum numbers (m', gamma1, k, l', n_r, n') derived from (b, c).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


# |sin| or |cos| below this is treated as sitting on an angular pole
_POLE_EPS = 1e-12


class ImaginaryOrderError(ValueError):
    """b + m^2 < 0: the angular order m' would be imaginary."""


class NoGammaBranchError(ValueError):
    """c > 0 with even l - |m|: no normalizable gamma1-branch state."""


class PoleError(ValueError):
    """Potential evaluated on an angular pole."""


# The served parameter window.  Z spans the charges of real nuclei with
# three decades to spare each way; auto_extent brackets its radius from the
# Coulomb scale n'^2/Z, so the extent scales as 1/Z across it.  b and c up
# to 1e12 give m' and gamma1 up to 1e6; near 1e30 the log-space factors of
# the density overflow.
_Z_RANGE = (1e-3, 1e3)
_MAX_BARRIER = 1e12


@dataclass(frozen=True)
class PotentialParams:
    """Z > 0 and c >= 0 are required; b may be any real.

    A value outside the served window (``_Z_RANGE``, and ``_MAX_BARRIER``
    on |b| and c) is a ValueError.
    """

    Z: float = 1.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name, value in (("Z", self.Z), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")
        low, high = _Z_RANGE
        if not low <= self.Z <= high:
            raise ValueError(f"Z must lie in [{low:g}, {high:g}],"
                             f" got {self.Z}")
        if abs(self.b) > _MAX_BARRIER:
            raise ValueError(f"|b| must be at most {_MAX_BARRIER:g},"
                             f" got {self.b}")
        if self.c > _MAX_BARRIER:
            raise ValueError(f"c must be at most {_MAX_BARRIER:g},"
                             f" got {self.c}")


# The radial factor and the Gauss-Laguerre rule of verify loop over n - l - 1
# terms, and that rule's dense Jacobi matrix has (n - l)^2 entries (8 MB at
# n = 1000): their cost grows without bound in n.  The bound also keeps every
# label small enough to add exactly to a float.
_MAX_N = 1000


@dataclass(frozen=True)
class StateLabels:
    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n > _MAX_N:
            raise ValueError(f"n is too large: at most {_MAX_N} is served,"
                             f" got n={self.n}")
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

    def as_dict(self) -> dict:
        """The fields in order, for JSON: ``lam`` is written as lambda."""
        return {"lambda" if k == "lam" else k: v
                for k, v in asdict(self).items()}


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
    """V(r, theta); an angular pole raises PoleError.

    A divisor within 1e-12 of zero counts as a pole, so float pi/2 hits
    the c-term pole as the closed form intends.  A value that overflows a
    float, as at an r whose square underflows, is a ValueError.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"potential_V requires a finite r > 0, got {r}")
    if not math.isfinite(theta):
        raise ValueError(f"potential_V requires a finite theta, got {theta}")
    if r * r == 0.0:
        raise ValueError(f"V overflows a float at r = {r}")
    s, co = math.sin(theta), math.cos(theta)
    v = -params.Z / r
    inv_2r2 = 0.5 / (r * r)
    if params.b != 0.0:
        if abs(s) < _POLE_EPS:
            raise PoleError(f"potential pole at theta = {theta} (sin = 0)")
        v += inv_2r2 * params.b / (s * s)
    if params.c != 0.0:
        if abs(co) < _POLE_EPS:
            raise PoleError(f"potential pole at theta = {theta} (cos = 0)")
        v += inv_2r2 * params.c / (co * co)
    if not math.isfinite(v):
        raise ValueError(f"V overflows a float at r = {r}, theta = {theta}")
    return v
