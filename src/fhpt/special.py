"""Self-contained special-function kernel.

Everything the model layer needs lives here: Gegenbauer polynomials (values
by the three-term recurrence, and exact-recurrence monomial coefficients),
and the modified Bessel pair I_nu, K_nu of real order.  The public functions
take scalars; a private array kernel evaluates K_nu of one order over a whole
quadrature grid.

K_nu has two regimes.  With nu = nl + mu, |mu| <= 1/2, Temme's series
(J. Comput. Phys. 19 (1975) 324; Numerical Recipes section 6.7) gives K_mu
and K_{mu+1} for x <= 2.  For x > 2 a fixed 22-node trapezoid sum of the
integral representation (DLMF 10.32.9) gives them, to rounding.  Upward
recurrence carries the pair to nu.  Both regimes are uniform in the order,
so integer and near-integer orders need no special case.

Only numpy and the standard library are imported.  Identities follow the
classical handbooks (Abramowitz & Stegun ch. 6/9/22, DLMF 10/18); the
specific algorithm choices are noted on each function.

Series conventions: every infinite series here sums to a tail tolerance
tol = 1e-14.  Summation stops once the ratio of consecutive terms drops below
1/2 and the geometric bound term*ratio/(1-ratio) falls under
tol*max(1, |partial sum|).  Temme's series, whose terms fall factorially,
stops at its first term below tol relative to the partial sum.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "bessel_i",
    "bessel_k",
    "gegenbauer_poly",
    "gegenbauer_value",
]

# ---------------------------------------------------------------------------
# Gegenbauer polynomials


def gegenbauer_poly(n: int, lam: float) -> np.ndarray:
    """Monomial coefficients of C_n^lam (ascending powers) from the three-term recurrence.

    n C_n = 2(n+lam-1) y C_{n-1} - (n+2lam-2) C_{n-2}, C_0 = 1, C_1 = 2 lam y.
    Off-parity slots are exact zeros: the recurrence never mixes parities, so
    no cleanup pass is needed.
    """
    if n < 0 or n > 100:
        raise DomainError(f"gegenbauer_poly supports 0 <= n <= 100, got {n!r}")
    if not lam > -0.5:
        raise DomainError(f"gegenbauer_poly requires lam > -1/2, got {lam!r}")
    if n == 0:
        return np.array([1.0])
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0 * lam])
    for k in range(2, n + 1):
        nxt = np.zeros(k + 1)
        nxt[1:] = 2.0 * (k + lam - 1.0) * cur
        nxt[: k - 1] -= (k + 2.0 * lam - 2.0) * prev
        nxt /= k
        prev, cur = cur, nxt
    return cur


def gegenbauer_value(n, lam: float, y):
    """C_n^lam(y) by running the recurrence at the evaluation point.

    n is a degree, or a sequence of degrees for one row each from one
    recurrence; a row equals the single-degree value bit for bit, and a
    negative degree gives zeros.  Better conditioned than Horner on the
    monomial coefficients once n grows past ~15.
    """
    y = np.asarray(y, dtype=float)
    degrees = np.asarray(n, dtype=None if np.size(n) else int).astype(int, casting="safe")  # a float degree: TypeError
    wanted = set(degrees.flat)
    found = {0: np.ones_like(y), 1: 2.0 * lam * y}
    prev, cur = found[0], found[1]
    for k in range(2, max(wanted, default=0) + 1):
        prev, cur = cur, (2.0 * (k + lam - 1.0) * y * cur - (k + 2.0 * lam - 2.0) * prev) / k
        if k in wanted:
            found[k] = cur
    zero = np.zeros_like(y)
    return np.array([found.get(d, zero) for d in degrees.flat]).reshape(degrees.shape + y.shape)[()]


# ---------------------------------------------------------------------------
# Modified Bessel functions of real order

_MAX_LOG = math.log(sys.float_info.max)
_TOL = 1e-14  # relative tail tolerance of every series


def _log_half(x: float) -> float:
    # ln(x / 2), as ln x - ln 2 where 0.5 x is inexact: an odd subnormal x, and 5e-324, where 0.5 x is 0.0
    return math.log(0.5 * x) if 2.0 * (0.5 * x) == x else math.log(x) - math.log(2.0)


def _bessel_i_series(nu: float, x: float) -> tuple[float, float]:
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
        if ratio < 0.5 and term * ratio / (1.0 - ratio) < _TOL * total:
            return nu * _log_half(x) - math.lgamma(nu + 1.0), total
        if k > 10000:
            raise ConvergenceError("bessel_i series did not converge")


def bessel_i(nu: float, x: float) -> float:
    """I_nu(x) for nu >= 0, x >= 0 by the ascending power series.

    The series is summed relative to its leading term, which is formed in log
    space, so extreme (nu, x) corners neither overflow nor flush to zero
    early: only the final product can fall below the normal double range,
    and it is 0.0 only where I_nu(x) itself underflows.  Raises OverflowError
    where ln I_nu(x) exceeds ln of the largest double (x = inf too), up front
    if the largest term of the series does; DomainError for NaN or an
    infinite order.
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"bessel_i requires a finite nu >= 0, got {nu!r}")
    if not x >= 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    # every term of the series bounds I_nu(x) below, the largest is at k = floor((sqrt(nu^2 + x^2) - nu) / 2),
    # and as I_nu grows in x, a term at min(x, 1e300), where lgamma stays finite, bounds it too
    xb = min(x, 1e300)
    k = (math.hypot(nu, xb) - nu) // 2.0
    if (2.0 * k + nu) * _log_half(xb) - math.lgamma(k + 1.0) - math.lgamma(k + nu + 1.0) > _MAX_LOG:
        raise OverflowError(f"I_{nu}({x}) exceeds the double range")
    # as (nu+1)_k >= (nu+1)^k, ln I_nu(x) <= ln t0 + x^2 / (4 (nu+1)); below ln 2^-1075 the value rounds to 0.0
    if nu * _log_half(x) - math.lgamma(nu + 1.0) + 0.25 * x * x / (nu + 1.0) < -1075.0 * math.log(2.0):
        return 0.0
    log_t0, total = _bessel_i_series(nu, x)
    if log_t0 + math.log(total) > _MAX_LOG:
        raise OverflowError(f"I_{nu}({x}) exceeds the double range")
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


def _k_temme(mu: float, x):
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
    lost = (x < sys.float_info.min) & (2.0 * (0.5 * x) != x)  # x/2 inexact: x stands in, its 2 goes into d, K_{mu+1}
    half_x = (0.5 + 0.5 * lost) * x
    d = -xp.log(half_x) + lost * math.log(2.0)
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
            if abs(term) < _TOL * abs(k_mu):
                break
        elif np.all(np.abs(term) < _TOL * np.abs(k_mu)):
            break
    else:
        raise ConvergenceError("K series did not converge")
    return k_mu, k_mu1 / half_x * (1.0 + lost)


# Trapezoid rule, step 0.3 on s = 0 ... 6.3, for DLMF 10.32.9 with s = sqrt(2x) sinh(t/2):
#   K_mu(x) = e^-x int_0^inf e^(-s^2) cosh(2 mu asinh(s/sqrt(2x))) 2/sqrt(2x+s^2) ds.
# Nodes are kept as c = s/sqrt(2), so that sqrt(2x+s^2) = sqrt(2) sqrt(x+c^2) never
# forms 2x, and run from the far end so the smallest terms are summed first.
_TRAP = tuple((0.3 * k / math.sqrt(2.0), (0.3 if k else 0.15) * math.sqrt(2.0) * math.exp(-0.09 * k * k))
              for k in range(21, -1, -1))


def _k_trapezoid(mu: float, x):
    # K_mu, K_{mu+1} for x > 2, |mu| <= 1/2, x a float or an ndarray (entrywise).
    # The integrand's singularities s = +-i sqrt(2x) lie over 2 off the real axis,
    # so the sum is exact to rounding (Trefethen & Weideman, SIAM Rev. 2014).
    xp, asinh = (np, np.arcsinh) if isinstance(x, np.ndarray) else (math, math.asinh)  # no np.asinh before numpy 2
    root_x = xp.sqrt(x)
    k_mu = k_mu1 = 0.0
    for c, w in _TRAP:
        g = w / xp.sqrt(x + c * c)
        t = 2.0 * asinh(c / root_x)
        k_mu = k_mu + g * xp.cosh(mu * t)
        k_mu1 = k_mu1 + g * xp.cosh((mu + 1.0) * t)
    e = xp.exp(-x)
    return e * k_mu, e * k_mu1


def _k_upward(nl: int, mu: float, x, k_mu, k_mu1):
    # K_{mu+j+1} = K_{mu+j-1} + 2 (mu+j)/x K_{mu+j} up to K_{mu+nl}, and no further: K_{mu+nl+1} can
    # overflow where K_{mu+nl} does not.  A value past the range is inf, first at the smallest x, and raises.
    # A base pair of zeros, float or grid, has underflowed (x ~ 745 on), and a recurrence from zeros stays zero
    peak = np.max if isinstance(x, np.ndarray) else float  # K >= 0, so a peak of 0.0 is all zeros
    if nl == 0 or peak(k_mu) == peak(k_mu1) == 0.0:
        return k_mu
    for j in range(1, nl):
        k_mu, k_mu1 = k_mu1, k_mu + 2.0 * (mu + j) / x * k_mu1
    if peak(k_mu1) == math.inf:
        raise OverflowError(f"K_{nl + mu}({np.min(x)}) exceeds the double range")
    return k_mu1


def _k_order(nu: float, x_min: float) -> tuple[int, float]:
    # Order set-up shared by both K kernels: |nu| = nl + mu with |mu| <= 1/2 (K is even in its order).  An
    # order whose K at the smallest argument is provably above the double range is rejected before the
    # recurrence runs nu steps: with ln K_nu(x) = ln(1/2 (2/x)^nu int_0^inf e^(-s - x^2/4s) s^(nu-1) ds)
    # (DLMF 10.32.10), keeping s > nu - 1, below the median of the Gamma(nu) law, gives
    #   ln K_nu(x) > ln Gamma(nu) - 2 ln 2 + nu ln(2/x) - x^2 / (4 (nu - 1)),  nu > 1.
    nu = abs(nu)
    if not nu < math.inf:
        raise DomainError(f"bessel_k requires a finite order, got {nu!r}")
    if nu > 1.0:
        x = float(x_min)  # float products overflow to inf quietly (numpy scalar ones warn); ln x is inf at x = inf
        if math.lgamma(nu) - math.log(4.0) + nu * (math.log(2.0) - math.log(x)) - x * x / (4.0 * (nu - 1.0)) > _MAX_LOG:
            raise OverflowError(f"K_{nu}({x_min}) exceeds the double range")
    nl = int(nu + 0.5)
    return nl, nu - nl


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) for finite real order and x > 0.

    K_mu and K_{mu+1}, |mu| <= 1/2, come from Temme's series for x <= 2 or a
    fixed trapezoid sum of their integral for x > 2; upward recurrence carries
    them to nu.  The value underflows quietly to 0.0 from x ~ 745 on (x = inf
    too), so it can serve as a quadrature weight tail.  Raises OverflowError
    above the double range, up front where a lower bound on ln K_nu(x) is
    above it, else once the recurrence meets inf; DomainError for NaN.
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x!r}")
    nl, mu = _k_order(nu, x)
    k_mu, k_mu1 = _k_trapezoid(mu, x) if x > 2.0 else _k_temme(mu, x)
    return _k_upward(nl, mu, x, k_mu, k_mu1)


def _bessel_k_array(nu: float, x: np.ndarray) -> np.ndarray:
    """bessel_k(nu, x) for one order over an ndarray of x > 0, in one pass."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("bessel_k requires x > 0")
    nl, mu = _k_order(nu, float(x.min()))
    k_mu, k_mu1 = np.empty_like(x), np.empty_like(x)
    small = x <= 2.0
    with np.errstate(over="ignore"):  # a value past the range is inf, which _k_upward raises on
        if small.any():  # a lower-tail grid has no x > 2, and a grid far out no x <= 2
            k_mu[small], k_mu1[small] = _k_temme(mu, x[small])
        if not small.all():
            k_mu[~small], k_mu1[~small] = _k_trapezoid(mu, x[~small])
        return _k_upward(nl, mu, x, k_mu, k_mu1)
