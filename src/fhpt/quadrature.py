"""Gauss-Legendre rules and the K-weighted integrator built on them.

The rule constructor runs Newton's iteration on the Legendre three-term
recurrence (no eigenvalue machinery, no table lookup), which is cheap and
fully accurate up to the supported order 4096.  Rules are cached per order,
so each order has one rule object; node/weight arrays are returned read-only.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError
from .special import _bessel_k_array, bessel_k

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
    p0 = np.ones_like(x)
    p1 = np.zeros_like(x)
    for j in range(1, m + 1):
        p0, p1 = ((2.0 * j - 1.0) * x * p0 - (j - 1.0) * p1) / j, p0
    dp = m * (x * p0 - p1) / (x * x - 1.0)
    return p0, dp


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
# is a stable key, and 32 grids of 6,400 nodes take about 3.3 MB
@functools.lru_cache(maxsize=32)
def _k_weighted_grid(nu: float, lo: float, hi: float, n_panels: int, rule: QuadratureRule):
    edges = np.geomspace(lo, hi, n_panels + 1)
    nodes = np.concatenate(
        [0.5 * (l + h) + 0.5 * (h - l) * rule.nodes for l, h in zip(edges[:-1], edges[1:])]
    )
    weights = np.concatenate([0.5 * (h - l) * rule.weights for l, h in zip(edges[:-1], edges[1:])])
    wk = weights * _bessel_k_array(nu, 2.0 * nodes)
    nodes.setflags(write=False)
    wk.setflags(write=False)
    return nodes, wk


def _point(g: Callable, nu: float, r: float) -> float:
    return float(np.asarray(g(np.array([r])), dtype=float)[0]) * bessel_k(nu, 2.0 * r)


def integrate_semi_infinite_k_weight(
    g: Callable,
    nu: float,
    r_max: float | None = None,
    rule: QuadratureRule | None = None,
) -> float:
    """Integral of g(r) * K_nu(2 r) over (0, infinity), truncated at r_max.

    32 geometric panels span [lo, r_max].  lo is 1e-6, or for nu above about
    44 the radius e_nu below which K_nu(2 r) ~ Gamma(nu) r^(-nu) / 2 leaves
    the double range.  Below lo the integrand follows a power law C r^p,
    probed at lo and 2 lo, so the dropped piece is T = f(lo) lo / (p + 1).
    When T exceeds 1e-13 of the result, ratio-100 panels cover the part of
    (e_nu, lo) that matters and the rest below them is added in closed form.
    A probed p <= -1 (a divergent integral) or an upper tail above 1e-12 of
    the result raises TruncationWarning.
    """
    nu = abs(nu)
    if rule is None:
        rule = gauss_legendre(200)
    if r_max is None:
        r_max = default_r_max(0.0)
    floor = 1e-240
    if nu > 0.0:
        floor = max(floor, math.exp(-(700.0 - math.lgamma(nu)) / nu))
    lo = max(1e-6, floor)
    if not r_max > lo:
        raise DomainError(f"r_max must exceed the inner mesh edge {lo!r}, got {r_max!r}")

    nodes, wk = _k_weighted_grid(nu, lo, r_max, 32, rule)
    gv = np.asarray(g(nodes), dtype=float)
    if not np.all(np.isfinite(gv)):
        bad = nodes[~np.isfinite(gv)][0]
        raise IntegrationError(f"integrand returned a non-finite value at node {float(bad)!r}")
    total = float(np.dot(wk, gv))
    scale = max(abs(total), 1e-300)

    # upper tail: one extra e-folding of the exponential weight as the scale
    f_hi = abs(_point(g, nu, r_max))
    if f_hi > 2e-12 * scale:
        warnings.warn(
            f"upper truncation at r_max={r_max} leaves an estimated relative tail "
            f"{f_hi / (2.0 * scale):.2e}",
            TruncationWarning,
            stacklevel=2,
        )

    # lower tail: f ~ C r^p below lo, so (0, lo / 100^k) holds T 100^(-k (p + 1))
    f1, f2 = _point(g, nu, lo), _point(g, nu, 2.0 * lo)
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
        pn, pw = _k_weighted_grid(nu, lo / 100.0**k, lo, k, rule)
        total += float(np.dot(pw, np.asarray(g(pn), dtype=float)))
    return total + tail * 100.0 ** (-k * (p + 1.0))
