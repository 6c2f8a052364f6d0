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
# per (nu, a, geometry, rule); rules are cached per order, so a rule's
# identity is a stable key, and 32 grids of 6,400 nodes take about 3.3 MB
@functools.lru_cache(maxsize=32)
def _k_weighted_grid(nu: float, a: float, lo: float, hi: float, n_panels: int, rule: QuadratureRule):
    edges = np.geomspace(lo, hi, n_panels + 1)
    nodes = np.concatenate(
        [0.5 * (l + h) + 0.5 * (h - l) * rule.nodes for l, h in zip(edges[:-1], edges[1:])]
    )
    weights = np.concatenate([0.5 * (h - l) * rule.weights for l, h in zip(edges[:-1], edges[1:])])
    wk = weights * _bessel_k_array(nu, a * nodes)
    nodes.setflags(write=False)
    wk.setflags(write=False)
    return nodes, wk


def integrate_semi_infinite_k_weight(
    g: Callable,
    nu: float,
    r_max: float | None = None,
    rule: QuadratureRule | None = None,
    a: float = 2.0,
) -> float:
    """Integral of g(r) * K_nu(a r) over (0, infinity), truncated at r_max.

    32 geometric panels from 1e-6 up to r_max absorb the integrable endpoint
    behaviour; when the probed power law of the integrand indicates that the
    region below the mesh still matters, extra ratio-100 panels are appended
    downward until its estimated contribution is negligible.  Tails that stay
    above 1e-12 of the result (either end) raise TruncationWarning.
    """
    if nu < 0.0:
        nu = -nu
    if a <= 0.0:
        raise DomainError(f"weight scale must be positive, got {a!r}")
    if rule is None:
        rule = gauss_legendre(200)
    if r_max is None:
        r_max = default_r_max(0.0)
    if not r_max > 1e-6:
        raise DomainError(f"r_max must exceed the inner mesh edge 1e-6, got {r_max!r}")

    nodes, wk = _k_weighted_grid(nu, a, 1e-6, r_max, 32, rule)
    gv = np.asarray(g(nodes), dtype=float)
    if not np.all(np.isfinite(gv)):
        bad = nodes[~np.isfinite(gv)][0]
        raise IntegrationError(f"integrand returned a non-finite value at node {float(bad)!r}")
    total = float(np.dot(wk, gv))

    # upper tail: one extra e-folding of the exponential weight as the scale
    f_hi = abs(float(np.asarray(g(np.array([r_max])), dtype=float)[0]) * bessel_k(nu, a * r_max))
    if f_hi > 1e-12 * max(abs(total), 1e-300) * a:
        warnings.warn(
            f"upper truncation at r_max={r_max} leaves an estimated relative tail "
            f"{f_hi / (a * max(abs(total), 1e-300)):.2e}",
            TruncationWarning,
            stacklevel=2,
        )

    # lower tail: probe the local power law f ~ C r^p and extend the mesh
    # downward while the closed-form estimate C lo^{p+1}/(p+1) is significant
    lo = 1e-6
    floor = 1e-240
    if nu > 0.0:
        # keep K_nu(a r) representable on the extension
        floor = max(floor, (2.0 / a) * math.exp(-(700.0 - math.lgamma(nu)) / nu))
    settled = False
    for _ in range(200):
        f1 = float(np.asarray(g(np.array([lo])), dtype=float)[0]) * bessel_k(nu, a * lo)
        f2 = float(np.asarray(g(np.array([2.0 * lo])), dtype=float)[0]) * bessel_k(nu, a * 2.0 * lo)
        if not (f1 > 0.0 and f2 > 0.0):
            settled = True
            break
        p = math.log(f2 / f1) / math.log(2.0)
        if p <= -1.0:
            warnings.warn(
                f"integrand grows like r^{p:.3f} toward 0; the integral may diverge",
                TruncationWarning,
                stacklevel=2,
            )
            settled = True
            break
        tail = f1 * lo / (p + 1.0)
        if tail < 1e-13 * max(abs(total), 1e-300):
            settled = True
            break
        if lo <= floor:
            warnings.warn(
                f"lower tail below r={lo:.1e} still contributes an estimated relative "
                f"{tail / max(abs(total), 1e-300):.2e} but the mesh cannot be extended further",
                TruncationWarning,
                stacklevel=2,
            )
            settled = True
            break
        new_lo = max(lo / 100.0, floor)
        pn, pw = _k_weighted_grid(nu, a, new_lo, lo, 1, rule)
        pg = np.asarray(g(pn), dtype=float)
        total += float(np.dot(pw, pg))
        lo = new_lo
    if not settled:
        warnings.warn(
            "lower-tail extension budget exhausted before the tail estimate became negligible",
            TruncationWarning,
            stacklevel=2,
        )
    return total
