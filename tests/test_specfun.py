"""Special-function layer: oracle comparisons and closed-form spot values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lpmv, roots_legendre

from rscp.specfun import (UalpSpec, _evaluator, _horner, _kummer_coefficients,
                          _norm_log, angular_H, radial_u)
from rscp.states import PotentialParams, StateLabels, map_quantum_numbers
from rscp.verify import _jacobi_p

# ------------------------------------------------------------------- kummer


def _kummer_rational(n_r: int, beta: Fraction, x: Fraction) -> Fraction:
    """Independent oracle: the defining sum in exact rational arithmetic."""
    total = Fraction(0)
    for j in range(n_r + 1):
        poch_a = Fraction(1)
        poch_b = Fraction(1)
        for i in range(j):
            poch_a *= Fraction(-n_r + i)
            poch_b *= beta + i
        total += poch_a * x ** j / (poch_b * math.factorial(j))
    return total


def _kummer_horner(n_r: int, beta: float, x):
    """F(-n_r, beta, x) as radial_u and density._density evaluate it."""
    return _horner(_kummer_coefficients(n_r, beta), np.asarray(x, dtype=float))


def test_kummer_examples():
    assert _kummer_horner(0, 4.0, 7.3) == 1.0
    assert math.isclose(_kummer_horner(1, 2.0, 3.0), -0.5, rel_tol=1e-14)
    assert math.isclose(_kummer_horner(2, 3.0, 1.0), 5.0 / 12.0, rel_tol=1e-14)


def test_kummer_against_rational_oracle():
    for n_r in range(7):
        for beta in range(2, 15):
            for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)):
                want = float(_kummer_rational(n_r, Fraction(beta), x))
                got = float(_kummer_horner(n_r, float(beta), float(x)))
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14), \
                    (n_r, beta, x)


def test_kummer_array_input():
    xs = np.array([0.0, 0.5, 1.0])
    vals = _kummer_horner(1, 2.0, xs)
    assert np.allclose(vals, 1.0 - xs / 2.0, rtol=1e-14)


# ------------------------------------------------------------- coefficients


def _sign_log_coefficients(spec: UalpSpec):
    """(sign, log|coeff|) of x^(2k-2nu) for nu = 0..k, as separate arrays.

    coeff_nu = (-1)^nu G(k+g1-nu+1) G(2l'-2nu+1)
               / (2^l' nu! (k-nu)! G(2k+2g1-2nu+1) G(l'-nu+1))
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


def _decoded(spec: UalpSpec):
    """(poly, front_log) decoded from the (sign, log) pairs: the largest
    log factored out, the rest exponentiated into ascending powers of x^2."""
    sign, log_magnitude = _sign_log_coefficients(spec)
    front = max(log_magnitude.tolist())
    poly = np.array([s * math.exp(lg - front) for s, lg in
                     zip(sign.tolist(), log_magnitude.tolist())][::-1])
    return poly, _norm_log(spec) + front


@pytest.mark.parametrize("gamma1, m_prime", [
    (0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.5, 0.0), (1.3660254, 0.7071068),
    (3.7015621, 20.0), (1000.5, 0.7071068), (17.25, 1.0)])
def test_evaluator_is_the_sign_log_decode_bitwise(gamma1, m_prime):
    for k in range(41):
        spec = UalpSpec(k, gamma1, m_prime)
        poly, front_log = _evaluator(spec)
        want_poly, want_front = _decoded(spec)
        assert poly.dtype == want_poly.dtype and poly.shape == (k + 1,)
        assert poly.tobytes() == want_poly.tobytes(), spec
        assert front_log == want_front, spec


def test_coefficient_hand_value():
    # k=0, gamma1=1, m'=0: single coefficient G(2)G(3)/(2 G(3)G(2)) = 1/2
    spec = UalpSpec(0, 1.0, 0.0)
    poly, front_log = _evaluator(spec)
    assert poly.tolist() == [1.0]
    assert math.isclose(math.exp(front_log - _norm_log(spec)), 0.5,
                        rel_tol=1e-13)


def test_coefficient_single_term_any_indices():
    assert _evaluator(UalpSpec(0, 3.7015621, 0.7071068))[0].tolist() == [1.0]


def test_coefficient_sign_alternation():
    # poly ascends in x^2, so the sign of x^(2k) comes last
    assert np.sign(_evaluator(UalpSpec(1, 1.0, 0.0))[0]).tolist() == [-1, 1]
    poly, _ = _evaluator(UalpSpec(3, 2.5, 1.5))
    assert np.sign(poly).tolist() == [-1, 1, -1, 1]


def test_coefficients_no_overflow_large_k():
    poly, front_log = _evaluator(UalpSpec(50, 4.0, 2.0))
    assert np.all(np.isfinite(poly)) and math.isfinite(front_log)
    assert np.max(np.abs(poly)) == 1.0


# ---------------------------------------------------------------- angular_H


def test_angular_hydrogen_p_state():
    spec = UalpSpec(0, 1.0, 0.0)
    assert math.isclose(angular_H(spec, 1.0), math.sqrt(1.5), rel_tol=1e-12)
    assert math.isclose(angular_H(spec, 1.0), 1.2247449, abs_tol=5e-8)


def test_angular_zero_at_equator():
    assert angular_H(UalpSpec(0, 1.3660254, 0.7071068), 0.0) == 0.0
    assert angular_H(UalpSpec(2, 3.7015621, 0.7071068), 0.0) == 0.0


def test_angular_hydrogen_d_state():
    # k=1, gamma1=0, m'=0 reduces to the normalized Legendre P2
    spec = UalpSpec(1, 0.0, 0.0)
    assert math.isclose(angular_H(spec, 1.0), math.sqrt(2.5), rel_tol=1e-12)
    x = 0.3
    want = math.sqrt(2.5) * 0.5 * (3 * x * x - 1)
    assert math.isclose(angular_H(spec, x), want, rel_tol=1e-12)


def test_angular_domain_error():
    with pytest.raises(ValueError):
        angular_H(UalpSpec(0, 1.0, 0.0), 1.0001)


def _classical_norm_alp(l: int, m: int, x: float) -> float:
    return math.sqrt((2 * l + 1) / 2.0 * math.factorial(l - m)
                     / math.factorial(l + m)) * float(lpmv(m, l, x))


def test_angular_hydrogen_limit_matches_classical():
    """gamma1 in {0,1}, integer m': equals the normalized associated
    Legendre function within 1e-12, up to one global sign per (l, m)."""
    xs = np.linspace(-0.95, 0.95, 21)
    for l, m in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2), (4, 1), (5, 4)]:
        g1 = float((l - m) % 2)
        k = (l - m - int(g1)) // 2
        spec = UalpSpec(k, g1, float(m))
        ours = np.array([angular_H(spec, float(x)) for x in xs])
        ref = np.array([_classical_norm_alp(l, m, float(x)) for x in xs])
        sign = 1.0 if np.dot(ours, ref) >= 0 else -1.0
        assert np.allclose(ours, sign * ref, rtol=0, atol=1e-12), (l, m)


def test_angular_orthonormality():
    x0, w0 = roots_legendre(4096)
    for g1, mp in [(1.0, 0.0), (1.3660254, 0.7071068), (3.7015621, 2.0)]:
        specs = [UalpSpec(k, g1, mp) for k in range(5)]
        half = [angular_H(s, 0.5 * (x0 + 1.0)) for s in specs]
        for i in range(5):
            for j in range(5):
                # H_i H_j is even in x, so integrate [0,1] and double
                val = float(np.sum(w0 * half[i] * half[j]))
                want = 1.0 if i == j else 0.0
                assert abs(val - want) < 1e-8, (g1, mp, i, j)


# ------------------------------------------------------------- derivatives


def _jacobi_form(spec: UalpSpec, x):
    """(1-x^2)^(m'/2) x^gamma1 P_k^(gamma1-1/2, m')(1-2x^2), the
    colatitude solution of verify's recurrence; x < 0 needs integer
    gamma1."""
    m, e = _jacobi_p(0, spec.k, spec.gamma1 - 0.5, spec.m_prime,
                     1.0 - 2.0 * x * x)
    return (1.0 - x * x) ** (0.5 * spec.m_prime) * x ** spec.gamma1 \
        * np.ldexp(m, e)


def test_angular_matches_independent_ode_solution():
    """The served H is a constant times verify's Jacobi-form solution of
    (1-x^2)H'' - 2xH' + [l'(l'+1) - m'^2/(1-x^2) - c/x^2] H = 0,
    whose ODE residual acceptance criterion 3 checks, at x of both signs."""
    rng = np.random.default_rng(7)
    for spec in [UalpSpec(0, 1.0, 0.0), UalpSpec(1, 1.3660254, 0.7071068),
                 UalpSpec(2, 3.7015621, 0.7071068), UalpSpec(2, 0.0, 3.0)]:
        xs = rng.uniform(0.05, 0.95, size=50) * rng.choice([-1.0, 1.0], 50)
        # the even extension |x|^gamma1 for non-integer gamma1
        at = xs if float(spec.gamma1).is_integer() else np.abs(xs)
        ref = _jacobi_form(spec, at)
        ours = angular_H(spec, xs)
        scale = np.dot(ours, ref) / np.dot(ref, ref)
        err = np.max(np.abs(ours - scale * ref)) / np.max(np.abs(ours))
        assert err < 1e-12, (spec, err)


@pytest.mark.parametrize("spec", [UalpSpec(10, 1.3660254, 0.7071068),
                                  UalpSpec(14, 1.0, 0.0),
                                  UalpSpec(29, 0.0, 20.0)])
def test_angular_ode_solution_at_high_degree(spec):
    """verify's Jacobi-form H against a 50-digit evaluation; the served
    power-basis H is off by 1e-7 and more at these degrees."""
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(-0.95, 0.95, 40)
    at = xs if float(spec.gamma1).is_integer() else np.abs(xs)
    with mp.workdps(50):
        k, g1, m = spec.k, mp.mpf(spec.gamma1), mp.mpf(spec.m_prime)
        want = np.array([float((1 - x * x) ** (m / 2) * x ** g1
                               * mp.jacobi(k, g1 - 0.5, m, 1 - 2 * x * x))
                         for x in map(mp.mpf, at.tolist())])
    ours = _jacobi_form(spec, at)
    assert np.max(np.abs(ours - want)) / np.max(np.abs(want)) < 1e-12


_H_210 = map_quantum_numbers(StateLabels(2, 1, 0), PotentialParams())


@pytest.mark.parametrize("call, message", [
    (lambda: _kummer_coefficients(-1, 2.0), "n_r must be non-negative, got -1"),
    (lambda: _kummer_coefficients(1, 0.0), "beta must be positive, got 0.0"),
    (lambda: radial_u(_H_210, PotentialParams(), [1.0, -1e-300]),
     "radial_u requires r >= 0")])
def test_domain_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_ualpspec_invariants():
    spec = UalpSpec(2, 3.7015621, 0.7071068)
    assert spec.l_prime == 2 * 2 + 3.7015621 + 0.7071068
    with pytest.raises(ValueError):
        UalpSpec(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        UalpSpec(0, -0.5, 0.0)
    with pytest.raises(ValueError, match="m_prime must be >= 0, got -0.5"):
        UalpSpec(0, 1.0, -0.5)
