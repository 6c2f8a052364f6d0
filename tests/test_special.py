"""Special-function kernel against exact arithmetic, closed forms, and
independent implementations (scipy / mpmath are test-only oracles)."""

import math
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from numpy.polynomial import polynomial as npoly

from fhpt import special
from fhpt.errors import DomainError
from fhpt.special import (
    _bessel_k_array,
    _k_trapezoid,
    bessel_i,
    bessel_k,
    gegenbauer_poly,
    gegenbauer_value,
)

mpmath.mp.dps = 40


# Gegenbauer polynomials

def test_gegenbauer_low_order_coefficients():
    assert list(gegenbauer_poly(0, 1.5)) == [1.0]
    assert list(gegenbauer_poly(1, 1.5)) == [0.0, 3.0]
    assert list(gegenbauer_poly(2, 1.5)) == pytest.approx([-1.5, 0.0, 7.5], rel=1e-15)


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
        got = gegenbauer_poly(n, float(lam))
        assert len(got) == len(exact)
        for g, e in zip(got, exact):
            assert g == pytest.approx(float(e), rel=1e-13, abs=1e-13)


def test_gegenbauer_parity_zeros_are_exact():
    assert all(c == 0.0 for c in gegenbauer_poly(9, 2.0)[0::2])
    assert all(c == 0.0 for c in gegenbauer_poly(8, 2.0)[1::2])


def test_gegenbauer_value_consistent_with_coefficients():
    y = np.linspace(-1.0, 1.0, 41)
    for n, lam in ((4, 0.7), (11, 1.5), (17, 3.2)):
        via_recurrence = gegenbauer_value(n, lam, y)
        via_poly = npoly.polyval(y, gegenbauer_poly(n, lam))
        scale = np.max(np.abs(via_recurrence))
        assert np.max(np.abs(via_recurrence - via_poly)) < 1e-11 * scale


def test_gegenbauer_derivative_shifts_order_and_weight():
    for n, lam in ((5, 1.5), (9, 0.8), (14, 2.5)):
        dc = npoly.polyder(gegenbauer_poly(n, lam))
        target = 2.0 * lam * gegenbauer_poly(n - 1, lam + 1.0)
        assert len(dc) == len(target)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(dc - target)) < 1e-13 * scale


def test_gegenbauer_endpoint_is_rising_factorial_ratio():
    # C_n(1) = (2 lam)_n / n!
    for n, lam in ((3, 1.5), (8, 0.9), (15, 2.2)):
        expect = math.exp(math.lgamma(2 * lam + n) - math.lgamma(2 * lam) - math.lgamma(n + 1.0))
        assert gegenbauer_value(n, lam, 1.0) == pytest.approx(expect, rel=1e-12)


def test_gegenbauer_vs_scipy_grid():
    y = np.linspace(-0.98, 0.98, 23)
    for lam in (0.7, 1.5, 3.2):
        for n in range(26):
            ours = gegenbauer_value(n, lam, y)
            ref = sps.eval_gegenbauer(n, lam, y)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale


def test_legendre_integer_vs_scipy():
    # the basis states rest on the Gegenbauer route to the shifted-degree
    # Ferrers function: P_{n+L}^L(y) = (-1)^L (2L-1)!! (1-y^2)^{L/2} C_n^{L+1/2}(y),
    # with the Condon-Shortley phase that scipy's lpmv uses
    y = np.linspace(-0.95, 0.95, 21)
    for L in (0, 1, 2, 3):
        double_fact = math.exp(math.lgamma(2.0 * L + 1.0) - math.lgamma(L + 1.0) - L * math.log(2.0))
        for n in range(9):
            ours = (-1.0) ** L * double_fact * (1.0 - y * y) ** (L / 2.0) * gegenbauer_value(n, L + 0.5, y)
            ref = sps.lpmv(L, n + L, y)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale


def _two_term_recurrence(n, lam, y):
    # the single-degree recurrence with two running terms, kept as the
    # reference that every row of a degree range equals bit for bit
    y = np.asarray(y, dtype=float)
    if n < 0:
        return np.zeros_like(y)
    prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 2.0 * lam * y
    for k in range(2, n + 1):
        prev, cur = cur, (2.0 * (k + lam - 1.0) * y * cur - (k + 2.0 * lam - 2.0) * prev) / k
    return cur


@pytest.mark.parametrize("y", [np.linspace(-0.999, 0.999, 401), 0.3])
@pytest.mark.parametrize("lam", [0.65, 2.0, 2.000025, 3.7])
def test_gegenbauer_degree_range_rows_equal_single_degrees(lam, y):
    # the derivative shifts lam + 1 and lam + 2 take degrees down to -2, which give zero rows
    degrees = list(range(100, -3, -1))
    for shifted in (lam, lam + 1.0, lam + 2.0):
        rows = gegenbauer_value(degrees, shifted, y)
        assert rows.shape == (len(degrees),) + np.shape(y)
        for row, n in zip(rows, degrees):
            assert np.array_equal(row, _two_term_recurrence(n, shifted, y))
            assert np.array_equal(row, gegenbauer_value(n, shifted, y))
    assert not np.any(gegenbauer_value([-2, -1], lam, y))
    for empty in ([], range(0)):  # numpy reads an empty list as float64
        assert gegenbauer_value(empty, lam, y).shape == (0,) + np.shape(y)
    with pytest.raises(TypeError):
        gegenbauer_value([2, 2.5], lam, y)


def test_gegenbauer_domain():
    with pytest.raises(DomainError):
        gegenbauer_poly(-1, 1.5)
    with pytest.raises(DomainError):
        gegenbauer_poly(3, -0.5)
    with pytest.raises(DomainError):
        gegenbauer_poly(101, 1.5)


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


@pytest.mark.parametrize("nu,x", [(300.0, 720.0), (600.0, 800.0), (0.6471689038018252, 712.693731533456)])
def test_bessel_i_below_the_top_of_the_range_is_finite(nu, x):
    # an order-blind guard on x alone rejected these; I_300(720) is the normalizer of `coherent --A 150.5 --z 360`
    assert bessel_i(nu, x) == pytest.approx(float(mpmath.besseli(nu, x)), rel=1e-12)


@pytest.mark.parametrize("nu,x", [(3.0, 714.0), (300.0, 900.0), (3.0, 1e306), (0.0, sys.float_info.max)])
def test_bessel_i_above_the_range_raises(nu, x):
    # I_3(714) is rejected once summed, the others by the largest term of the series
    with pytest.raises(OverflowError, match=r"^I_.* exceeds the double range$"):
        bessel_i(nu, x)


@pytest.mark.parametrize(
    "nu,x", [(0.0, 5e-324), (1.0, 5e-324), (0.5, 5e-324), (0.0, 1.5e-323), (0.5, 1.5e-323), (1.0, 2.5e-323), (2.5, 1.5e-323)]
)
def test_bessel_i_at_odd_subnormal_arguments(nu, x):
    # 0.5 x rounds at an odd subnormal x, and to 0.0 at 5e-324, where ln(x / 2) raised: the value is within
    # 1e-13 of mpmath's, or one subnormal step where it is subnormal itself
    ref = mpmath.besseli(nu, mpmath.mpf(x))
    assert abs(bessel_i(nu, x) - ref) <= max(1e-13 * ref, mpmath.mpf(2) ** -1074)


def test_bessel_i_domain():
    for nu, x in ((-1.0, 2.0), (1.0, -2.0), (1.0, math.nan), (math.nan, 2.0), (math.inf, 2.0)):
        with pytest.raises(DomainError):
            bessel_i(nu, x)


def test_bessel_i_infinite_argument_exceeds_the_range():
    with pytest.raises(OverflowError, match="exceeds the double range"):
        bessel_i(2.0, math.inf)


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


_MUS = [-0.5, -0.21, 0.0, 5e-5, 0.37, 0.5]


@pytest.mark.parametrize("mu", _MUS)
def test_trapezoid_entries_do_not_depend_on_the_rest_of_the_array(mu):
    # each entry equals the one-entry call and does not depend on the order of the input
    x = np.random.default_rng(7).permutation(np.geomspace(1.2, 700.0, 157))
    x = x[x > 2.0]
    got = _k_trapezoid(mu, x)
    for i in range(x.size):
        one = _k_trapezoid(mu, x[i : i + 1])
        assert np.array_equal(got[0][i : i + 1], one[0]) and np.array_equal(got[1][i : i + 1], one[1]), x[i]
    order = np.argsort(x)
    on_sorted = _k_trapezoid(mu, x[order])
    for part, sorted_part in zip(got, on_sorted):
        back = np.empty_like(sorted_part)
        back[order] = sorted_part
        assert np.array_equal(part, back)


@pytest.mark.parametrize("mu", _MUS)
def test_trapezoid_pair_matches_mpmath(mu):
    # K_mu and K_(mu+1) from just above x = 2 to where they leave the normal
    # range; 25 digits keep mpmath's slow integer-order limit affordable
    x = np.concatenate(([2.0000001, 2.001, 2.1], np.geomspace(2.2, 745.0, 160)))
    scalar = np.array([_k_trapezoid(mu, float(xi)) for xi in x]).T
    for k, got, one in zip((mu, mu + 1.0), _k_trapezoid(mu, x), scalar):
        with mpmath.workdps(25):
            ref = np.array([float(mpmath.besselk(k, xi)) for xi in x])
        normal = ref > sys.float_info.min
        assert np.max(np.abs(got - ref)[normal] / ref[normal]) < 1e-15
        assert np.max(np.abs(one - ref)[normal] / ref[normal]) < 1e-15


def test_trapezoid_uses_only_names_numpy_1_has(monkeypatch):
    # numpy < 2 has no np.asinh (only np.arcsinh); a grid node x > 2 must not need it
    x = np.geomspace(2.5, 700.0, 9)
    want = _bessel_k_array(0.3, x)
    monkeypatch.delattr(np, "asinh", raising=False)
    assert np.array_equal(_bessel_k_array(0.3, x), want)


def test_bessel_k_is_zero_without_a_warning_past_the_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (745.0, 1e300, 1e308, sys.float_info.max, math.inf):
            for nu in (0.0, 0.3, 2.5, 40.0):
                assert bessel_k(nu, x) == 0.0, (nu, x)
                assert _bessel_k_array(nu, np.array([3.0, x]))[1] == 0.0, (nu, x)


def test_bessel_k_past_the_range_of_its_base_pair_returns_at_once():
    # from x ~ 745 K_mu and K_(mu+1) are 0.0, and the 1e8 steps of the recurrence would only keep them there
    assert mpmath.besselk(1e8, 1e300) < mpmath.mpf(2) ** -1075
    start = time.perf_counter()
    assert bessel_k(1e8, 1e300) == 0.0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("nu,lo,hi", [(1e4, 2e4, 5e4), (1e6, 2e6, 5e6)])
def test_bessel_k_grid_past_the_range_of_its_base_pairs_returns_zeros_at_once(nu, lo, hi):
    # every base pair of these grids has underflowed, and the lower bound on ln K admits the order: the grid
    # returns its zeros without running the nu order steps, as the scalar calls do
    x = np.linspace(lo, hi, 50)
    start = time.perf_counter()
    got = _bessel_k_array(nu, x)
    assert time.perf_counter() - start < 1.0
    assert got.shape == x.shape and not np.any(got)
    assert got.tolist() == [bessel_k(nu, v) for v in x.tolist()]


def test_bessel_k_array_overflow_matches_scalar():
    # a K-grid from r = 1e-6 at order 45: the smallest node overflows
    x = 2.0 * np.geomspace(1e-6, 30.0, 200)
    with pytest.raises(OverflowError) as arr:
        _bessel_k_array(45.0, x)
    with pytest.raises(OverflowError) as scalar:
        bessel_k(45.0, float(x[0]))
    assert str(arr.value) == str(scalar.value)


@pytest.mark.parametrize(
    "nu,x", [(150.0, 0.9594350439778925), (1.0, 1e-308), (0.5, 1e-320), (0.0, 5e-324), (0.9, 5e-324), (0.5, 5e-324),
             (0.5, 1.5e-323), (0.3, 2.5e-323), (0.4, 7.4e-323), (-0.2, 9.4e-323)]
)
def test_bessel_k_below_the_top_of_the_range_is_finite(nu, x):
    # a small-x estimate that is not a bound rejected the first three; 0.5 x rounds at the rest, to 0 at 5e-324
    ref = float(mpmath.besselk(nu, x))
    assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-12)
    assert _bessel_k_array(nu, np.array([x, 1.0]))[0] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nu,x", [(186.34, 3.0), (913.74, 300.0), (1.0, 5e-324), (0.99, 1e-323)])
def test_bessel_k_array_past_the_range_raises_as_its_smallest_node(nu, x):
    # these pass the lower bound on ln K and overflow only in the recurrence, where a grid gave inf
    with pytest.raises(OverflowError) as scalar:
        bessel_k(nu, x)
    with pytest.raises(OverflowError) as grid:
        _bessel_k_array(nu, np.array([2.0 * x, x, 4.0 * x]))
    assert str(grid.value) == str(scalar.value) == f"K_{nu}({x}) exceeds the double range"


def test_bessel_k_array_domain():
    with pytest.raises(DomainError):
        _bessel_k_array(1.0, np.array([1.0, 0.0]))


@pytest.mark.parametrize("lo,hi,idle", [(1e-8, 2.0, "_k_trapezoid"), (2.5, 700.0, "_k_temme")])
def test_k_array_skips_the_regime_with_no_argument(monkeypatch, lo, hi, idle):
    # a lower-tail grid has no x > 2 and a grid far out no x <= 2: the idle regime's kernel is not entered
    x = np.geomspace(lo, hi, 64)
    want = _bessel_k_array(3.3, x)

    def idle_kernel(mu, x):
        raise AssertionError(f"{idle} ran on {x.size} arguments")

    monkeypatch.setattr(special, idle, idle_kernel)
    assert _bessel_k_array(3.3, x).tobytes() == want.tobytes()


def test_bessel_i_below_double_range():
    # I_199(1) ~ 1e-432: the value underflows to zero, never to a wrong number
    assert bessel_i(199.0, 1.0) == 0.0
    assert bessel_i(150.0, 1.0) == pytest.approx(float(mpmath.besseli(150, 1)), rel=1e-13)


def test_bessel_i_is_zero_where_its_upper_bound_underflows():
    # ln I_1e6(2e5) ~ -1.29e6, below ln 2^-1075: the value is 0.0, where the series ran out of its 10,000 terms
    with mpmath.workdps(20):
        assert mpmath.log(mpmath.besseli(1e6, 2e5, maxterms=10**6)) < -1075 * mpmath.log(2)
    assert bessel_i(1e6, 2e5) == 0.0


def test_bessel_k_even_in_order():
    for nu in (0.4, 1.3, 2.0):
        for x in (0.7, 4.0):
            assert bessel_k(-nu, x) == bessel_k(nu, x)


def test_bessel_k_small_argument_overflow():
    with pytest.raises(OverflowError):
        bessel_k(50.0, 1e-12)


@pytest.mark.parametrize("nu,x", [(400.0, 3.0), (186.34, 3.0), (913.74, 300.0), (2000.0, 800.0)])
def test_bessel_k_above_the_double_range_raises(nu, x):
    # the first and last are rejected by the lower bound on ln K, the middle two
    # (just above the range) only once the recurrence reaches inf
    with pytest.raises(OverflowError, match="exceeds the double range"):
        bessel_k(nu, x)


@pytest.mark.parametrize("nu,x", [(186.33, 3.0), (913.73, 300.0)])
def test_bessel_k_just_below_the_double_range_is_finite(nu, x):
    assert bessel_k(nu, x) == pytest.approx(float(mpmath.besselk(nu, x)), rel=1e-12)


def test_huge_order_is_rejected_before_the_recurrence(monkeypatch):
    monkeypatch.setattr(special, "_k_upward", None)  # the recurrence would now raise TypeError
    for nu in (1e6, 1e12):
        with pytest.raises(OverflowError):
            bessel_k(nu, 3.0)


def test_bessel_k_domain():
    for nu, x in ((1.0, 0.0), (1.0, -3.0), (1.0, math.nan), (math.nan, 3.0), (math.inf, 3.0), (-math.inf, 0.5)):
        with pytest.raises(DomainError):
            bessel_k(nu, x)
    with pytest.raises(DomainError):
        _bessel_k_array(math.nan, np.array([1.0, 3.0]))


def test_bessel_wronskian():
    # x (I_nu K_(nu+1) + I_(nu+1) K_nu) = 1
    worst = 0.0
    for nu in (0.1, 0.5, 1.0, 1.7, 3.0, 5.0):
        for x in (0.5, 1.0, 2.5, 8.0, 20.0):
            w = x * (bessel_i(nu, x) * bessel_k(nu + 1.0, x) + bessel_i(nu + 1.0, x) * bessel_k(nu, x))
            worst = max(worst, abs(w - 1.0))
    assert worst < 1e-10
