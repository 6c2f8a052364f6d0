"""Self-contained special-function kernel.

Everything the model layer needs lives here: Gamma and log-Gamma, terminating
Gauss hypergeometric sums, Gegenbauer polynomials with exact-recurrence
monomial coefficients, an associated Legendre continuation with non-integer
degree and order tied by degree = n + order, and the modified Bessel pair
I_nu, K_nu of real order.  The public functions take scalars; a private
array kernel evaluates K_nu of one order over a whole quadrature grid.

K_nu has two regimes (Temme, J. Comput. Phys. 19 (1975) 324; Numerical
Recipes section 6.7): with nu = nl + mu, |mu| <= 1/2, Temme's series gives
K_mu and K_{mu+1} for x <= 2 and Steed's continued fraction for x > 2, and
upward recurrence carries the pair to nu.  Both are uniform in the order,
so integer and near-integer orders need no special case.

Only numpy and the standard library are imported.  Identities follow the
classical handbooks (Abramowitz & Stegun ch. 6/8/9/15, DLMF 14/15/10); the
specific algorithm choices are noted on each function.

Series conventions: every infinite series here takes a tail tolerance
(default 1e-14).  Summation stops once the ratio of consecutive terms drops
below 1/2 and the geometric bound term*ratio/(1-ratio) falls under
tol*max(1, |partial sum|).  Temme's series, whose terms fall factorially,
stops at its first term below tol relative to the partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvergenceError, DomainError

__all__ = [
    "GegenbauerPoly",
    "assoc_legendre_half_shift",
    "bessel_i",
    "bessel_k",
    "gamma_fn",
    "gegenbauer_poly",
    "gegenbauer_value",
    "hyp2f1_terminating",
    "log_gamma",
]

# Lanczos approximation, g = 7, nine coefficients (the widely published
# double-precision set; relative error below 1e-14 on the positive axis).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_series(x: float) -> float:
    s = _LANCZOS_C[0]
    for k in range(1, 9):
        s += _LANCZOS_C[k] / (x - 1.0 + k)
    return s


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0 by the Lanczos approximation.

    For x < 1/2 one recurrence step Gamma(x) = Gamma(x+1)/x keeps the
    evaluation inside the well-conditioned region of the coefficient set.
    """
    if not x > 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    if x < 0.5:
        return gamma_fn(x + 1.0) / x
    t = x + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * _lanczos_series(x)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, usable far beyond the overflow range of gamma_fn."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(_lanczos_series(x))


def hyp2f1_terminating(n: int, b: float, c: float, x: float) -> float:
    """2F1(-n, b; c; x) summed exactly as a degree-n polynomial.

    The first parameter is the non-positive integer -n that terminates the
    series; c may not be one of 0, -1, ..., -(n-1), where a denominator
    factor vanishes before the series terminates.  Terms alternate in sign,
    so accuracy degrades when intermediate terms dwarf the result; keeping
    c >= 1 (the situation here, where c is an orbital index plus one) holds
    the inflation to a few digits at worst for moderate n.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"terminating 2F1 needs integer n >= 0, got {n!r}")
    n = int(n)
    if c <= 0.0 and c == math.floor(c) and c > -n:
        raise DomainError(f"2F1 parameter c={c!r} hits a pole before the series terminates")
    term = 1.0
    total = 1.0
    for k in range(n):
        term *= (k - n) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
    return total


# ---------------------------------------------------------------------------
# Gegenbauer polynomials


@dataclass(frozen=True, eq=False)
class GegenbauerPoly:
    """C_n^lam as an explicit monomial coefficient vector (ascending powers)."""

    n: int
    lam: float
    coeffs: np.ndarray

    def __call__(self, y):
        return npoly.polyval(y, self.coeffs)

    def derivative_coeffs(self) -> np.ndarray:
        return npoly.polyder(self.coeffs)


def gegenbauer_poly(n: int, lam: float) -> GegenbauerPoly:
    """Coefficients of C_n^lam from the three-term recurrence.

    n C_n = 2(n+lam-1) y C_{n-1} - (n+2lam-2) C_{n-2}, C_0 = 1, C_1 = 2 lam y.
    Off-parity slots are exact zeros: the recurrence never mixes parities, so
    no cleanup pass is needed.
    """
    if n < 0 or n > 100:
        raise DomainError(f"gegenbauer_poly supports 0 <= n <= 100, got {n!r}")
    if not lam > -0.5:
        raise DomainError(f"gegenbauer_poly requires lam > -1/2, got {lam!r}")
    if n == 0:
        return GegenbauerPoly(0, lam, np.array([1.0]))
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0 * lam])
    for k in range(2, n + 1):
        nxt = np.zeros(k + 1)
        nxt[1:] = 2.0 * (k + lam - 1.0) * cur
        nxt[: k - 1] -= (k + 2.0 * lam - 2.0) * prev
        nxt /= k
        prev, cur = cur, nxt
    return GegenbauerPoly(n, lam, cur)


def gegenbauer_value(n: int, lam: float, y):
    """C_n^lam(y) by running the recurrence at the evaluation point.

    Better conditioned than Horner on the monomial coefficients once n grows
    past ~15; accepts scalars or arrays.
    """
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


# ---------------------------------------------------------------------------
# Associated Legendre continuation with degree = n + L, order = L


def assoc_legendre_half_shift(n: int, L: float, y) -> float:
    """P_{n+L}^{L}(y) through the terminating hypergeometric continuation.

    Defined as

        s_L * Gamma(n+2L+1) / (2^L Gamma(n+1) Gamma(L+1))
            * (1-y^2)^{L/2} * 2F1(-n, n+2L+1; L+1; (1-y)/2)

    which for integer L reproduces the classical Ferrers function with the
    Condon-Shortley phase s_L = (-1)^L, and for half-integer order reduces to
    elementary trigonometric closed forms (DLMF 14.5).  For non-integer L the
    phase factor is taken as +1; any fixed y-independent choice drops out of
    every normalized or ratio identity built on top.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"assoc_legendre_half_shift needs integer n >= 0, got {n!r}")
    if L < 0.0:
        raise DomainError(f"assoc_legendre_half_shift requires L >= 0, got {L!r}")
    y_arr = np.asarray(y, dtype=float)
    if np.any(np.abs(y_arr) > 1.0):
        raise DomainError("assoc_legendre_half_shift requires |y| <= 1")
    sign = -1.0 if (float(L).is_integer() and int(L) % 2) else 1.0
    pref = math.exp(log_gamma(n + 2.0 * L + 1.0) - log_gamma(n + 1.0) - log_gamma(L + 1.0) - L * math.log(2.0))
    hyp = np.vectorize(lambda t: hyp2f1_terminating(int(n), n + 2.0 * L + 1.0, L + 1.0, t))(
        (1.0 - y_arr) / 2.0
    )
    out = sign * pref * (1.0 - y_arr * y_arr) ** (L / 2.0) * hyp
    return float(out) if np.isscalar(y) or np.asarray(y).ndim == 0 else out


# ---------------------------------------------------------------------------
# Modified Bessel functions of real order

_OVERFLOW_LOG = 708.0  # ln of the largest double, with a little headroom


def _bessel_i_series(nu: float, x: float, tol: float) -> tuple[float, float]:
    # Ascending series of I_nu(x), x > 0, as (ln t0, S) with I_nu(x) = e^{ln t0} S:
    # t0 = (x/2)^nu / Gamma(nu+1) is the leading term and S >= 1 the sum of the
    # terms scaled by it.  All terms are positive, so nothing cancels, and S
    # stays representable wherever t0 alone would flush to zero.
    q = 0.25 * x * x
    term = total = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + nu))
        total += term
        ratio = q / ((k + 1.0) * (k + 1.0 + nu))
        if ratio < 0.5 and term * ratio / (1.0 - ratio) < tol * total:
            return nu * math.log(0.5 * x) - log_gamma(nu + 1.0), total
        if k > 10000:
            raise ConvergenceError("bessel_i series did not converge")


def bessel_i(nu: float, x: float, tol: float = 1e-14) -> float:
    """I_nu(x) for nu >= 0, x >= 0 by the ascending power series.

    The series is summed relative to its leading term, which is formed in log
    space, so extreme (nu, x) corners neither overflow nor flush to zero
    early: only the final product can fall below the normal double range,
    and it is 0.0 only where I_nu(x) itself underflows.  Raises OverflowError
    above the range, near x ~ 713.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_i requires nu >= 0, got {nu!r}")
    if x < 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x - 0.5 * math.log(2.0 * math.pi * x) > _OVERFLOW_LOG:
        raise OverflowError(f"I_{nu}({x}) exceeds the double range")
    log_t0, total = _bessel_i_series(nu, x, tol)
    return math.exp(log_t0) * total


# Taylor coefficients of 1/Gamma(1+t) about t = 0 (A&S 6.1.34 shifted by one
# power), to full double precision; the first omitted term is below 3e-19
# for |t| <= 1/2.  Split by parity for the even and odd parts in t.
_RGAMMA_EVEN = (
    1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
    -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
    -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
    -3.696805618642206e-12,
)
_RGAMMA_ODD = (
    0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
    0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
    1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
    7.782263439905071e-12,
)


def _k_temme(mu: float, x, tol: float):
    # Temme's series for K_mu, K_{mu+1}, x <= 2, |mu| <= 1/2 (Numerical Recipes
    # section 6.7), uniform in mu, integer mu included.  x is a float, or an
    # ndarray summed until every entry has converged.  Gamma_1 =
    # (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) is minus the odd part of the
    # series of 1/Gamma(1+t) divided by t, and Gamma_2 its even part, so
    # neither is formed as a cancelling difference.
    mu2 = mu * mu
    even = odd = 0.0
    for a in reversed(_RGAMMA_EVEN):
        even = even * mu2 + a
    for a in reversed(_RGAMMA_ODD):
        odd = odd * mu2 + a
    fact = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    xp = np if isinstance(x, np.ndarray) else math
    half_x = 0.5 * x
    d = -xp.log(half_x)
    e = mu * d
    # sinh(mu d) / mu -> d as mu -> 0
    ff = fact * (-odd * xp.cosh(e) + even * (xp.sinh(e) / mu if mu else d))
    e = xp.exp(e)
    p = 0.5 * e / (even + mu * odd)  # 0.5 (x/2)^-mu Gamma(1+mu)
    q = 0.5 / (e * (even - mu * odd))  # 0.5 (x/2)^mu Gamma(1-mu)
    c = 1.0
    quarter_x2 = half_x * half_x
    k_mu, k_mu1 = ff, p
    for i in range(1, 10001):
        ff = (i * ff + p + q) / (i * i - mu2)
        c = c * quarter_x2 / i
        p = p / (i - mu)
        q = q / (i + mu)
        term = c * ff
        k_mu = k_mu + term
        k_mu1 = k_mu1 + c * (p - i * ff)
        if xp is math:
            if abs(term) < tol * abs(k_mu):
                break
        elif np.all(np.abs(term) < tol * np.abs(k_mu)):
            break
    else:
        raise ConvergenceError("K series did not converge")
    return k_mu, k_mu1 / half_x


def _bessel_k_cf2(mu: float, x: float) -> tuple[float, float]:
    # Steed/Thompson-Barnett continued fraction for K_mu, K_{mu+1}, x >= 2,
    # |mu| <= 1/2.  Converges in a few dozen iterations over the whole range.
    mu2 = mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu2
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    else:
        raise ConvergenceError("K continued fraction did not converge")
    k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return k_mu, k_mu * (mu + x + 0.5 - a1 * h) / x


def _bessel_k_cf2_array(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _bessel_k_cf2 over an array.  Entries leave the iteration as they
    # converge: the recurrence terms of an entry at large x keep growing past
    # its own few steps and would overflow over the dozens that x near 2 needs.
    a1 = 0.25 - mu * mu
    a, c = -a1, a1
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2, q = np.zeros_like(x), np.ones_like(x), np.full_like(x, a1)
    s = 1.0 + q * delh
    h_out, s_out = np.empty_like(x), np.empty_like(x)
    pos = np.arange(x.size)
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = np.abs(dels / s) < 1e-16
        if done.any():
            h_out[pos[done]], s_out[pos[done]] = h[done], s[done]
            live = ~done
            if not live.any():
                break
            pos, b, d, h, delh, q1, q2, q, s = (v[live] for v in (pos, b, d, h, delh, q1, q2, q, s))
    else:
        raise ConvergenceError("K continued fraction did not converge")
    k_mu = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) / s_out
    return k_mu, k_mu * (mu + x + 0.5 - a1 * h_out) / x


def _k_upward(nl: int, mu: float, x, k_mu, k_mu1):
    # K_{mu+j+1} = K_{mu+j-1} + 2 (mu+j)/x K_{mu+j} up to K_{mu+nl}, and no
    # further: K_{mu+nl+1} can overflow where K_{mu+nl} does not
    if nl == 0:
        return k_mu
    for j in range(1, nl):
        k_mu, k_mu1 = k_mu1, k_mu + 2.0 * (mu + j) / x * k_mu1
    return k_mu1


def _k_order(nu: float, x_min: float) -> tuple[int, float]:
    # Order set-up shared by both K kernels: nu = nl + mu with |mu| <= 1/2,
    # once K_nu at the smallest argument is known to fit the double range
    # (small-x magnitude estimate ~ Gamma(nu)/2 * (2/x)^nu).
    if x_min < 2.0 and nu > 0.0 and log_gamma(nu) - math.log(2.0) + nu * math.log(2.0 / x_min) > _OVERFLOW_LOG:
        raise OverflowError(f"K_{nu}({x_min}) exceeds the double range")
    nl = int(nu + 0.5)
    return nl, nu - nl


def bessel_k(nu: float, x: float, tol: float = 1e-14) -> float:
    """K_nu(x) for real order, x > 0.

    K_mu and K_{mu+1}, |mu| <= 1/2, come from Temme's series for x <= 2 or
    the Steed continued fraction for x > 2, and upward recurrence carries
    them to nu; both regimes hold for any mu, integer or not.  Underflows quietly to 0.0 for x beyond ~745 (useful as a quadrature
    weight tail); raises OverflowError where the value itself exceeds the
    double range (small x with large order).
    """
    if x <= 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x!r}")
    nu = abs(nu)  # K is even in its order
    nl, mu = _k_order(nu, x)
    k_mu, k_mu1 = _bessel_k_cf2(mu, x) if x > 2.0 else _k_temme(mu, x, tol)
    return _k_upward(nl, mu, x, k_mu, k_mu1)


def _bessel_k_array(nu: float, x: np.ndarray) -> np.ndarray:
    """bessel_k(nu, x) for one order over an ndarray of x > 0, in one pass."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("bessel_k requires x > 0")
    nu = abs(nu)
    nl, mu = _k_order(nu, float(x.min()))
    k_mu, k_mu1 = np.empty_like(x), np.empty_like(x)
    small = x <= 2.0
    if small.any():
        k_mu[small], k_mu1[small] = _k_temme(mu, x[small], 1e-14)
    if not small.all():
        k_mu[~small], k_mu1[~small] = _bessel_k_cf2_array(mu, x[~small])
    return _k_upward(nl, mu, x, k_mu, k_mu1)
