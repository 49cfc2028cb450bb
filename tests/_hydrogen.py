"""Hydrogen density oracle for the b = c = 0 limit (test-only).

It shares no code with ``rscp``: scipy evaluates the Laguerre and
Legendre factors, and factorials give the normalization.
"""

import math

from scipy.special import eval_genlaguerre, lpmv


def hydrogen_oracle(n: int, l: int, m: int, point, Z: float = 1.0) -> float:
    """Textbook hydrogen density |psi_nlm|^2 at a Cartesian point."""
    x, y, z = (float(point[0]), float(point[1]), float(point[2]))
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        if l > 0:
            return 0.0
        lag = eval_genlaguerre(n - 1, 1, 0.0)
        radial = math.sqrt((2.0 * Z / n) ** 3
                           * math.factorial(n - 1)
                           / (2.0 * n * math.factorial(n))) * lag
        return radial * radial / (4.0 * math.pi)
    rho = 2.0 * Z * r / n
    am = abs(m)
    norm = math.sqrt((2.0 * Z / n) ** 3 * math.factorial(n - l - 1)
                     / (2.0 * n * math.factorial(n + l)))
    radial = norm * math.exp(-rho / 2.0) * rho ** l \
        * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    ct = z / r
    leg = lpmv(am, l, ct)
    ynorm = (2 * l + 1) / (4.0 * math.pi) \
        * math.factorial(l - am) / math.factorial(l + am)
    return radial * radial * ynorm * leg * leg
