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


# in ln r the peak of r^mu K_nu(2 r) is about 1 / sqrt(mu + 1) wide, and that width sets the nodes a panel needs:
# at 8 panels, moments of levels up to 10, 30, 60 and 99 reach rounding with 48, 56, 64 and 72 points per panel.
# Every K-grid takes panels of the _K_ORDER-point rule, _K_PANELS of them from the mesh edge to the cutoff
_K_ORDER, _K_PANELS = 80, 8


# a verify makes one integrator call per grid, and a well verified again in the same
# process reuses it: grids are cached per (nu, geometry); 32 grids of 640 nodes take about 0.33 MB
@functools.lru_cache(maxsize=32)
def _k_weighted_grid(nu: float, lo: float, hi: float, n_panels: int):
    rule = gauss_legendre(_K_ORDER)
    edges = np.geomspace(lo, hi, n_panels + 1)
    l, h = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (l + h) + 0.5 * (h - l) * rule.nodes).ravel()
    weights = (0.5 * (h - l) * rule.weights).ravel()
    wk = weights * _bessel_k_array(nu, 2.0 * nodes)
    live = wk > 0.0  # a node whose K weight is 0.0 adds exactly 0 to every finite row, so only live ones are kept
    if not live.any():
        raise IntegrationError(f"every K weight on [{lo!r}, {hi!r}] is 0.0 at nu={nu!r}")
    nodes, wk = nodes[live], wk[live]
    nodes.setflags(write=False)
    wk.setflags(write=False)
    return nodes, wk


def _probe(f: float, k: float, r: float) -> float:
    # a tail probe g(r) K; an underflowed K contributes 0, and any other non-finite probe is rejected like a node
    f = float(f) * k if k else 0.0
    if not math.isfinite(f):
        raise IntegrationError(f"integrand returned a non-finite value at probe {r!r}")
    return f


def integrate_semi_infinite_k_weight(g: Callable, nu: float, r_max: float) -> float | np.ndarray:
    """Integral of g(r) * K_nu(2 r) over (0, infinity), truncated at r_max.

    g maps an array r to g(r), or to one row per integrand, shape (k, len(r)), which gives an
    array of the k integrals from one pass over the grid; each equals that row's own call bit for
    bit, tail estimates and warnings included.

    Every integrand takes one grid: 8 geometric panels of the 80-point rule span [lo, r_max].
    It brings an integrand to rounding when its peak in ln r is at least as wide as a level-100
    moment's: r^mu K_nu(2 r) peaks with a width of about 1 / sqrt(mu + 1), and level n has
    mu = 2 n + 2L + 1.  Only the grid's nodes with a K weight > 0.0 are kept: any other adds
    exactly 0 to a finite row, as a tail probe whose K is 0.0 does, so g may overflow there; a
    mesh with none raises IntegrationError.  lo is 1e-6, or for nu above about 44 the radius e_nu
    below which K_nu(2 r) ~ Gamma(nu) r^(-nu) / 2 leaves the double range.  Below lo the integrand
    follows a power law C r^p, probed at lo and 2 lo, so the piece below lo is T = f(lo) lo / (p + 1),
    and it is added in closed form.  When T exceeds 1e-13 of the result, ratio-100 panels of the same
    rule first cover the part of (e_nu, lo) that matters, and only the rest below them is closed form.
    A probed p <= -1 (a divergent integral) or an upper tail above 1e-12 of the result raises
    TruncationWarning.
    """
    nu = abs(nu)
    floor = 1e-240
    if nu > 0.0:
        floor = max(floor, math.exp(-(700.0 - math.lgamma(nu)) / nu))
    lo = max(1e-6, floor)
    if not r_max > lo:
        raise DomainError(f"r_max must exceed the inner mesh edge {lo!r}, got {r_max!r}")

    nodes, wk = _k_weighted_grid(nu, lo, r_max, _K_PANELS)
    k_hi, k_lo, k_2lo = (bessel_k(nu, 2.0 * r) for r in (r_max, lo, 2.0 * lo))
    # a value that overflows is rejected below with its node or probe, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        gv = np.asarray(g(nodes), dtype=float)
        probes = np.asarray(g(np.array([r_max, lo, 2.0 * lo])), dtype=float)

    # one pass tests every row; the first failing row names its own first bad node
    bad = ~np.isfinite(np.atleast_2d(gv))
    if bad.any():
        first = bad[bad.any(axis=1)][0]
        raise IntegrationError(f"integrand returned a non-finite value at node {float(nodes[first][0])!r}")

    def row_integral(i: int, row: np.ndarray, probe: np.ndarray) -> float:
        # row i with its own tail estimates; the few rows that need lower-tail panels take row i of g on them
        total = float(np.dot(wk, row))
        scale = max(abs(total), 1e-300)

        # upper tail: one extra e-folding of the exponential weight as the scale
        f_hi = abs(_probe(probe[0], k_hi, r_max))
        if f_hi > 2e-12 * scale:
            message = f"upper truncation at r_max={r_max} leaves an estimated relative tail {f_hi / (2.0 * scale):.2e}"
            warnings.warn(message, TruncationWarning, stacklevel=3)  # the caller of integrate_semi_infinite_k_weight

        # lower tail: f ~ C r^p below lo, so (0, lo / 100^k) holds T 100^(-k (p + 1))
        f1, f2 = _probe(probe[1], k_lo, lo), _probe(probe[2], k_2lo, 2.0 * lo)
        if not (f1 > 0.0 and f2 > 0.0):
            return total
        p = math.log2(f2 / f1)
        if p <= -1.0:
            message = f"integrand grows like r^{p:.3f} toward 0; the integral may diverge"
            warnings.warn(message, TruncationWarning, stacklevel=3)
            return total
        tail = f1 * lo / (p + 1.0)
        # a T within 1e-13 of the result, 0.0 from an underflow included, needs no panels and is still added
        need = math.log(max(tail, 1e-13 * scale) / (1e-13 * scale), 100.0)
        k = min(math.ceil(need / (p + 1.0)), int(math.log(lo / floor, 100.0)))
        if k > 0:
            pn, pw = _k_weighted_grid(nu, lo / 100.0**k, lo, k)
            total += float(np.dot(pw, np.atleast_2d(np.asarray(g(pn), dtype=float))[i]))
        return total + tail * 100.0 ** (-k * (p + 1.0))

    totals = []
    for i, (row, probe) in enumerate(zip(np.atleast_2d(gv), np.atleast_2d(probes))):
        totals.append(row_integral(i, row, probe))
    return totals[0] if gv.ndim == 1 else np.array(totals)
