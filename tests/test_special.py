"""Special-function kernel against exact arithmetic, closed forms, and
independent implementations (scipy / mpmath are test-only oracles)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fhpt.errors import DomainError
from fhpt.special import (
    _bessel_k_array,
    assoc_legendre_half_shift,
    bessel_i,
    bessel_k,
    gamma_fn,
    gegenbauer_poly,
    gegenbauer_value,
    hyp2f1_terminating,
    log_gamma,
)

mpmath.mp.dps = 40


# gamma

def test_gamma_half_is_sqrt_pi():
    assert gamma_fn(0.5) == pytest.approx(1.7724538509055160273, rel=1e-15)


def test_gamma_small_integers():
    for k, fact in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 6.0), (6, 120.0), (11, 3628800.0)):
        assert gamma_fn(float(k)) == pytest.approx(fact, rel=1e-14)


def test_gamma_recurrence():
    for x in (0.1, 0.37, 1.2, 4.8, 9.9, 23.4):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)


def test_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_log_gamma_matches_stdlib():
    for x in (0.05, 0.5, 1.0, 2.5, 17.2, 143.0, 901.5):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-13)


# terminating 2F1

def _hyp2f1_fraction(n, b, c, x):
    # exact finite sum; b, c, x as Fractions
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        term *= Fraction(-(n - k)) * (b + k) * x / ((c + k) * (k + 1))
    return total


def test_hyp2f1_exact_value():
    exact = _hyp2f1_fraction(2, Fraction(4), Fraction(2), Fraction(1, 4))
    assert exact == Fraction(5, 24)
    assert hyp2f1_terminating(2, 4.0, 2.0, 0.25) == pytest.approx(float(exact), rel=1e-15)


def _hyp2f1_term_mass(n, b, c, x):
    # sum of |term_k|: the condition number scale of the alternating sum
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += abs(term)
        term *= Fraction(-(n - k)) * (b + k) * x / ((c + k) * (k + 1))
    return float(total)


def test_hyp2f1_fraction_grid():
    # c >= 1 throughout, matching the use sites (c is an orbital index plus 1)
    for n in (0, 1, 3, 7, 12):
        for b, c, x in ((Fraction(7, 2), Fraction(3, 2), Fraction(1, 3)),
                        (Fraction(5), Fraction(9, 4), Fraction(-2, 5)),
                        (Fraction(13, 3), Fraction(2), Fraction(7, 8))):
            exact = float(_hyp2f1_fraction(n, b, c, x))
            got = hyp2f1_terminating(n, float(b), float(c), float(x))
            # forward error of the float sum scales with the term mass
            bound = 1e-13 * _hyp2f1_term_mass(n, b, c, x) + 1e-14 * abs(exact)
            assert abs(got - exact) < bound


def test_hyp2f1_zero_order_is_one():
    assert hyp2f1_terminating(0, 3.3, 1.1, 0.9) == 1.0


def test_hyp2f1_rejects_degenerate_denominator():
    with pytest.raises(DomainError):
        hyp2f1_terminating(3, 1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1_terminating(2, 1.0, 0.0, 0.5)


# Gegenbauer polynomials

def test_gegenbauer_low_order_coefficients():
    p0 = gegenbauer_poly(0, 1.5)
    assert list(p0.coeffs) == [1.0]
    p1 = gegenbauer_poly(1, 1.5)
    assert list(p1.coeffs) == [0.0, 3.0]
    p2 = gegenbauer_poly(2, 1.5)
    assert list(p2.coeffs) == pytest.approx([-1.5, 0.0, 7.5], rel=1e-15)


def _gegenbauer_fraction_coeffs(n, lam: Fraction):
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [Fraction(0), 2 * lam]
    for k in range(2, n + 1):
        shifted = [Fraction(0)] + cur
        nxt = [2 * (k + lam - 1) * c / k for c in shifted]
        for i, c in enumerate(prev):
            nxt[i] -= (k + 2 * lam - 2) * c / k
        prev, cur = cur, nxt
    return cur


@pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(7, 10), Fraction(37, 10)])
def test_gegenbauer_matches_exact_recurrence(lam):
    for n in range(13):
        exact = _gegenbauer_fraction_coeffs(n, lam)
        got = gegenbauer_poly(n, float(lam)).coeffs
        assert len(got) == len(exact)
        for g, e in zip(got, exact):
            assert g == pytest.approx(float(e), rel=1e-13, abs=1e-13)


def test_gegenbauer_parity_zeros_are_exact():
    p = gegenbauer_poly(9, 2.0)
    assert all(c == 0.0 for c in p.coeffs[0::2])
    p = gegenbauer_poly(8, 2.0)
    assert all(c == 0.0 for c in p.coeffs[1::2])


def test_gegenbauer_value_consistent_with_coefficients():
    y = np.linspace(-1.0, 1.0, 41)
    for n, lam in ((4, 0.7), (11, 1.5), (17, 3.2)):
        via_recurrence = gegenbauer_value(n, lam, y)
        via_poly = gegenbauer_poly(n, lam)(y)
        scale = np.max(np.abs(via_recurrence))
        assert np.max(np.abs(via_recurrence - via_poly)) < 1e-11 * scale


def test_gegenbauer_derivative_shifts_order_and_weight():
    for n, lam in ((5, 1.5), (9, 0.8), (14, 2.5)):
        dc = gegenbauer_poly(n, lam).derivative_coeffs()
        target = 2.0 * lam * gegenbauer_poly(n - 1, lam + 1.0).coeffs
        assert len(dc) == len(target)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(dc - target)) < 1e-13 * scale


def test_gegenbauer_endpoint_is_rising_factorial_ratio():
    # C_n(1) = (2 lam)_n / n!
    for n, lam in ((3, 1.5), (8, 0.9), (15, 2.2)):
        expect = math.exp(log_gamma(2 * lam + n) - log_gamma(2 * lam) - log_gamma(n + 1.0))
        assert gegenbauer_value(n, lam, 1.0) == pytest.approx(expect, rel=1e-12)


def test_gegenbauer_vs_scipy_grid():
    y = np.linspace(-0.98, 0.98, 23)
    for lam in (0.7, 1.5, 3.2):
        for n in range(26):
            ours = gegenbauer_value(n, lam, y)
            ref = sps.eval_gegenbauer(n, lam, y)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale


def test_gegenbauer_domain():
    with pytest.raises(DomainError):
        gegenbauer_poly(-1, 1.5)
    with pytest.raises(DomainError):
        gegenbauer_poly(3, -0.5)
    with pytest.raises(DomainError):
        gegenbauer_poly(101, 1.5)


# associated Legendre with half-integer shift

def test_legendre_integer_order_sign_convention():
    # the first-order function at the origin carries the alternating phase
    assert assoc_legendre_half_shift(0, 1, 0.0) == pytest.approx(-1.0, rel=1e-14)


def test_legendre_integer_vs_scipy():
    y = np.linspace(-0.95, 0.95, 21)
    for L in (0, 1, 2, 3):
        for n in range(9):
            ours = np.array([assoc_legendre_half_shift(n, L, t) for t in y])
            ref = sps.lpmv(L, n + L, y)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale


def test_legendre_half_order_reduces_to_sine_form():
    # order 1/2: sqrt(2 / (pi sin(theta))) * sin((n+1) theta) with y = cos(theta);
    # compare against the grid maximum since the oscillation has interior zeros
    # and the hypergeometric route loses a few digits to cancellation there
    thetas = np.linspace(0.15, np.pi - 0.15, 17)
    for n in (0, 1, 2, 5, 9):
        closed = np.array(
            [math.sqrt(2.0 / (math.pi * math.sin(t))) * math.sin((n + 1) * t) for t in thetas]
        )
        got = np.array([assoc_legendre_half_shift(n, 0.5, math.cos(t)) for t in thetas])
        assert np.max(np.abs(got - closed)) < 5e-10 * np.max(np.abs(closed))


def test_legendre_domain():
    with pytest.raises(DomainError):
        assoc_legendre_half_shift(2, 1.0, 1.5)
    with pytest.raises(DomainError):
        assoc_legendre_half_shift(2, -1.0, 0.3)


# modified Bessel, first kind

def test_bessel_i_half_order_closed_form():
    for x in (0.3, 1.0, 2.0, 7.5, 40.0):
        closed = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert bessel_i(0.5, x) == pytest.approx(closed, rel=1e-13)


def test_bessel_i_at_origin():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(2.3, 0.0) == 0.0


def test_bessel_i_vs_mpmath():
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0, 13.3):
        for x in (1e-3, 0.5, 2.0, 10.0, 60.0, 300.0):
            ref = float(mpmath.besseli(nu, x))
            got = bessel_i(nu, x)
            worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-12


def test_bessel_i_overflow_guard():
    with pytest.raises(OverflowError):
        bessel_i(0.0, 800.0)


def test_bessel_i_domain():
    with pytest.raises(DomainError):
        bessel_i(-1.0, 2.0)
    with pytest.raises(DomainError):
        bessel_i(1.0, -2.0)


# modified Bessel, second kind

def test_bessel_k_half_order_closed_form():
    for x in (0.5, 1.0, 2.0, 5.0, 30.0):
        closed = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(closed, rel=1e-13)


def test_bessel_k_frozen_point():
    # sqrt(pi / 2) / e
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789448, rel=1e-14)


def test_bessel_k_vs_mpmath():
    worst = 0.0
    for nu in (0.0, 0.25, 0.5, 1.0, 2.0 + 1e-5, 2.5, 3.0, 6.7):
        for x in (0.05, 0.5, 1.9, 2.1, 10.0, 100.0):
            ref = float(mpmath.besselk(nu, x))
            got = bessel_k(nu, x)
            worst = max(worst, abs(got - ref) / ref)
    assert worst < 5e-11


def test_bessel_k_near_integer_band_is_smooth():
    # orders straddling an integer agree with the high-precision reference
    for nu in (1.0 - 3e-5, 1.0, 1.0 + 3e-5, 3.0 - 1e-6, 3.0 + 1e-6):
        for x in (0.3, 1.5):
            ref = float(mpmath.besselk(nu, x))
            assert bessel_k(nu, x) == pytest.approx(ref, rel=5e-11)


def test_bessel_k_across_former_band_edges():
    # orders just outside 1e-4 of an integer, where a reflection formula
    # through I_(-nu) - I_nu loses digits, and x on both sides of x = 2
    for nu in (1.00001e-4, 1.0 - 1.00001e-4, 1.0 + 1.00001e-4, 3.0 - 5e-5, 3.0 + 5e-5):
        for x in (1e-3, 0.5, 1.9, 2.0):
            ref = float(mpmath.besselk(nu, x))
            assert abs(bessel_k(nu, x) - ref) <= 1e-13 * ref, (nu, x)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5, 20.00003, 39.7, 40.0])
def test_bessel_k_array_matches_mpmath_and_scalar(nu):
    x = np.geomspace(2e-6, 1200.0, 61)  # crosses the regime boundary at x = 2
    got = _bessel_k_array(nu, x)
    ref = np.array([float(mpmath.besselk(nu, xi)) for xi in x])
    scalar = np.array([bessel_k(nu, xi) for xi in x])
    normal = ref > 1e-300
    assert np.max(np.abs(got - ref)[normal] / ref[normal]) < 1e-14
    assert np.max(np.abs(got - scalar)[normal] / ref[normal]) < 1e-14
    assert np.all(got[~normal] < 1e-290)


def test_bessel_k_array_overflow_matches_scalar():
    # a K-grid from r = 1e-6 at order 45: the smallest node overflows
    x = 2.0 * np.geomspace(1e-6, 30.0, 200)
    with pytest.raises(OverflowError) as arr:
        _bessel_k_array(45.0, x)
    with pytest.raises(OverflowError) as scalar:
        bessel_k(45.0, float(x[0]))
    assert str(arr.value) == str(scalar.value)


def test_bessel_k_array_domain():
    with pytest.raises(DomainError):
        _bessel_k_array(1.0, np.array([1.0, 0.0]))


def test_bessel_i_below_double_range():
    # I_199(1) ~ 1e-432: the value underflows to zero, never to a wrong number
    assert bessel_i(199.0, 1.0) == 0.0
    assert bessel_i(150.0, 1.0) == pytest.approx(float(mpmath.besseli(150, 1)), rel=1e-13)


def test_bessel_k_even_in_order():
    for nu in (0.4, 1.3, 2.0):
        for x in (0.7, 4.0):
            assert bessel_k(-nu, x) == bessel_k(nu, x)


def test_bessel_k_small_argument_overflow():
    with pytest.raises(OverflowError):
        bessel_k(50.0, 1e-12)


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -3.0)


def test_bessel_wronskian():
    # x (I_nu K_(nu+1) + I_(nu+1) K_nu) = 1
    worst = 0.0
    for nu in (0.1, 0.5, 1.0, 1.7, 3.0, 5.0):
        for x in (0.5, 1.0, 2.5, 8.0, 20.0):
            w = x * (bessel_i(nu, x) * bessel_k(nu + 1.0, x) + bessel_i(nu + 1.0, x) * bessel_k(nu, x))
            worst = max(worst, abs(w - 1.0))
    assert worst < 1e-10
