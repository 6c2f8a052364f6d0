"""Gauss-Legendre rules and the K-weighted integrator built on them.

The rule constructor runs Newton's iteration on the Legendre three-term
recurrence, the Gegenbauer one at lam = 1/2 (no eigenvalue machinery, no
table lookup), which is cheap and fully accurate up to the supported order
4096.  Rules are cached per order, so each order has one rule object;
node/weight arrays are returned read-only.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError
from .special import _bessel_k_array, bessel_k, gegenbauer_value

__all__ = [
    "QuadratureRule",
    "TruncationWarning",
    "default_r_max",
    "gauss_legendre",
    "integrate_semi_infinite_k_weight",
]

_MAX_ORDER = 4096


class TruncationWarning(UserWarning):
    """A truncated tail of a semi-infinite integral may matter at the requested accuracy."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_deriv(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, p1 = gegenbauer_value([m, m - 1], 0.5, x)  # P_m = C_m^(1/2)
    return p, m * (x * p - p1) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Nodes and weights of the order-point rule on [-1, 1].

    Newton iteration from the Chebyshev-like initial guess; the converged
    half-axis is mirrored so the symmetry about 0 is exact by construction.
    """
    if order < 1 or order > _MAX_ORDER:
        raise DomainError(f"gauss_legendre supports 1 <= order <= {_MAX_ORDER}, got {order!r}")
    m = order
    k = np.arange(m)
    x = np.cos(np.pi * (k + 0.75) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_deriv(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # mirror the half axis; the middle node of an odd rule is pinned to 0
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_and_deriv(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    idx = np.argsort(x)
    x = np.ascontiguousarray(x[idx])
    w = np.ascontiguousarray(w[idx])
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(order, x, w)


def default_r_max(poly_degree: float) -> float:
    """Radial cutoff heuristic for K-weighted integrands with polynomial growth."""
    return max(30.0, 5.0 + 10.0 * float(poly_degree))


# a verify integrates several moments against each grid, so grids are cached
# per (nu, geometry, rule); rules are cached per order, so a rule's identity
# is a stable key, and 32 grids of 1,600 nodes (order 200) take about 0.8 MB.  A main grid
# (probes true) carries the scalar K_nu(2 r) at the tail probes r = hi, lo and
# 2 lo, which every moment on it shares; a lower-tail grid carries none
@functools.lru_cache(maxsize=32)
def _k_weighted_grid(nu: float, lo: float, hi: float, n_panels: int, rule: QuadratureRule, probes: bool = True):
    edges = np.geomspace(lo, hi, n_panels + 1)
    l, h = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (l + h) + 0.5 * (h - l) * rule.nodes).ravel()
    weights = (0.5 * (h - l) * rule.weights).ravel()
    wk = weights * _bessel_k_array(nu, 2.0 * nodes)
    nodes.setflags(write=False)
    wk.setflags(write=False)
    return nodes, wk, tuple(bessel_k(nu, 2.0 * r) for r in (hi, lo, 2.0 * lo) if probes)


# a panel of ratio R sees the r = 0 branch point on the Bernstein ellipse rho = (sqrt R + 1) / (sqrt R - 1), where
# an n-point rule errs like rho^(-2 n): 8 panels (R ~ 13, rho ~ 1.75) reach rounding at n = 200, and n <= 50 keeps 32
def _main_panels(rule: QuadratureRule) -> int:
    return max(8, math.ceil(1600 / rule.order))


def _point(g: Callable, r: float, k: float) -> float:
    # a tail probe g(r) K; an underflowed K contributes 0, and any other non-finite probe is rejected like a node
    with np.errstate(over="ignore", invalid="ignore"):
        f = float(np.asarray(g(np.array([r])), dtype=float)[0]) * k if k else 0.0
    if not math.isfinite(f):
        raise IntegrationError(f"integrand returned a non-finite value at probe {r!r}")
    return f


def integrate_semi_infinite_k_weight(
    g: Callable,
    nu: float,
    r_max: float,
    rule: QuadratureRule,
) -> float:
    """Integral of g(r) * K_nu(2 r) over (0, infinity), truncated at r_max.

    max(8, ceil(1600 / rule.order)) geometric panels span [lo, r_max].  lo
    is 1e-6, or for nu above about 44 the radius e_nu below which K_nu(2 r)
    ~ Gamma(nu) r^(-nu) / 2 leaves the double range.  Below lo the integrand
    follows a power law C r^p, probed at lo and 2 lo, so the dropped piece
    is T = f(lo) lo / (p + 1).  When T exceeds 1e-13 of the result, ratio-100
    panels cover the part of (e_nu, lo) that matters and the rest below them
    is added in closed form.  A probed p <= -1 (a divergent integral) or an
    upper tail above 1e-12 of the result raises TruncationWarning.
    """
    nu = abs(nu)
    floor = 1e-240
    if nu > 0.0:
        floor = max(floor, math.exp(-(700.0 - math.lgamma(nu)) / nu))
    lo = max(1e-6, floor)
    if not r_max > lo:
        raise DomainError(f"r_max must exceed the inner mesh edge {lo!r}, got {r_max!r}")

    nodes, wk, (k_hi, k_lo, k_2lo) = _k_weighted_grid(nu, lo, r_max, _main_panels(rule), rule)
    # a value that overflows is rejected below with its node, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        gv = np.asarray(g(nodes), dtype=float)
    if not np.all(np.isfinite(gv)):
        bad = nodes[~np.isfinite(gv)][0]
        raise IntegrationError(f"integrand returned a non-finite value at node {float(bad)!r}")
    total = float(np.dot(wk, gv))
    scale = max(abs(total), 1e-300)

    # upper tail: one extra e-folding of the exponential weight as the scale
    f_hi = abs(_point(g, r_max, k_hi))
    if f_hi > 2e-12 * scale:
        warnings.warn(
            f"upper truncation at r_max={r_max} leaves an estimated relative tail "
            f"{f_hi / (2.0 * scale):.2e}",
            TruncationWarning,
            stacklevel=2,
        )

    # lower tail: f ~ C r^p below lo, so (0, lo / 100^k) holds T 100^(-k (p + 1))
    f1, f2 = _point(g, lo, k_lo), _point(g, 2.0 * lo, k_2lo)
    if not (f1 > 0.0 and f2 > 0.0):
        return total
    p = math.log2(f2 / f1)
    if p <= -1.0:
        warnings.warn(
            f"integrand grows like r^{p:.3f} toward 0; the integral may diverge",
            TruncationWarning,
            stacklevel=2,
        )
        return total
    tail = f1 * lo / (p + 1.0)
    if tail <= 1e-13 * scale:
        return total
    k = min(math.ceil(math.log(tail / (1e-13 * scale), 100.0) / (p + 1.0)), int(math.log(lo / floor, 100.0)))
    if k > 0:
        pn, pw, _ = _k_weighted_grid(nu, lo / 100.0**k, lo, k, rule, False)
        total += float(np.dot(pw, np.asarray(g(pn), dtype=float)))
    return total + tail * 100.0 ** (-k * (p + 1.0))
