"""Bound states of the trigonometric secant-squared well in the time coordinate.

The oscillator-like equation solved here reads, with tau = c1 * t and
M = hbar^2 / (2 m0 c^2),

    c1^2 psi'' + (c / M) P psi - (1 / M) A (A - 1) sec^2(tau) psi = 0.

Solutions on the open interval |tau| < pi/2 are a cosine-power envelope times
a Gegenbauer polynomial in sin(tau), and the momentum eigenvalue grows as the
square of the level index shifted by half the derived shape exponent.

Two normalization conventions are supported.  "full" (default) makes the
states orthonormal in the t measure over the whole interval; "half" keeps
the half-interval constant familiar from the associated-Legendre route, which
is orthonormal only within a parity class.  The underlying states differ by a
constant factor only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _check_int
from .quadrature import QuadratureRule
from .special import gegenbauer_value

__all__ = [
    "BasisState",
    "PotentialParams",
    "build_basis_state",
    "derive_a_prime",
    "eval_state",
    "momentum_level",
    "overlap",
    "residual_ode",
]

_MAX_LEVEL = 100


@dataclass(frozen=True)
class PotentialParams:
    """Well strength A plus the physical scales of the equation.

    Defaults pin the natural units used throughout the checks: hbar = c = 1
    and m0 = 1/2, so that the mass scale M equals 1 and the spectrum at A = 1
    collapses to squared integers.
    """

    A: float
    c1: float = 1.0
    m0: float = 0.5
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c1", "m0", "c", "hbar"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")
        if isinstance(self.A, bool) or not (isinstance(self.A, (int, float)) and math.isfinite(self.A)):
            raise DomainError(f"A must be a finite number, got {self.A!r}")
        try:  # a square that overflows raises; an underflow to zero divides by it
            in_range = 0.0 < self.mass_scale < math.inf and 0.0 < self.c1**2 * self.mass_scale < math.inf
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            scales = f"c1={self.c1!r}, m0={self.m0!r}, c={self.c!r}, hbar={self.hbar!r}"
            raise DomainError(f"scales {scales} leave the double range: M = hbar^2 / (2 m0 c^2) and c1^2 M must be "
                              "positive finite doubles")
        self.a_prime  # validate admissibility eagerly

    @property
    def mass_scale(self) -> float:
        return self.hbar**2 / (2.0 * self.m0 * self.c**2)

    # derived once per instance: a frozen dataclass allows cached_property, and asdict ignores it
    @cached_property
    def a_prime(self) -> float:
        return derive_a_prime(self)

    @cached_property
    def L(self) -> float:
        """Effective angular-momentum-like index, (a_prime - 1) / 2."""
        return 0.5 * (self.a_prime - 1.0)


def derive_a_prime(params: PotentialParams) -> float:
    """Shape exponent of the regular solution.

    The envelope power lam = a_prime / 2 balances the sec^2 singularity, so
    it solves lam (lam - 1) = A (A - 1) / (c1^2 M); this returns twice the
    regular root (a_prime >= 2 whenever A (A - 1) >= 0).  Requires
    A (A - 1) >= -c1^2 M / 4, the borderline of a real exponent, and
    4 A (A - 1) / (c1^2 M) below the largest double, so that a_prime is finite.
    """
    scale = params.c1**2 * params.mass_scale
    radicand = 1.0 + 4.0 * params.A * (params.A - 1.0) / scale
    if radicand < 0.0:
        raise DomainError(
            f"well strength A={params.A!r} is below the admissible branch: "
            f"A (A - 1) must be >= {-scale / 4.0!r}"
        )
    if radicand == math.inf:
        bound = "4 A (A - 1) / (c1^2 M) must be < 1.8e308"
        raise DomainError(f"well strength A={params.A!r} gives a non-finite a_prime: {bound}")
    return 1.0 + math.sqrt(radicand)


def momentum_level(n, params: PotentialParams) -> float | np.ndarray:
    """Quantized momentum of level n: (c1^2 M / c) (n + a_prime / 2)^2; a sequence of levels gives one per level."""
    levels = [n] if np.ndim(n) == 0 else list(n)
    for k in levels:
        _check_int("level index", k, 0)
    base = np.array(levels, dtype=float) + 0.5 * params.a_prime
    return _one_or_rows(n, params.c1**2 * params.mass_scale / params.c * base * base)


@dataclass(frozen=True, eq=False)
class BasisState:
    """Normalized level-n solution: scale * cos(tau)^lam * C_n(sin tau)."""

    n: int
    L: float
    lam: float
    norm: float
    scale: float


def _half_interval_norm(n: int, L: float) -> float:
    # sqrt((2n + 2L + 1) n! / Gamma(n + 2L + 1)), the half-interval constant
    # of the associated-Legendre normalization
    return math.exp(
        0.5 * (math.log(2.0 * n + 2.0 * L + 1.0) + math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * L + 1.0))
    )


def build_basis_state(n: int, params: PotentialParams, interval: str = "full") -> BasisState:
    """Construct level n for the given parameters.

    interval selects the normalization convention: "full" is orthonormal in
    the t measure over (-pi/2, pi/2) in tau; "half" carries the bare
    half-interval constant (and the alternating phase of the integer-order
    associated-Legendre functions when L is an integer).
    """
    _check_int("level index", n, 0, _MAX_LEVEL)
    if interval not in ("full", "half"):
        raise DomainError(f"interval must be 'full' or 'half', got {interval!r}")
    L = params.L
    lam = L + 0.5
    norm = _half_interval_norm(int(n), L) * math.sqrt(params.c1)
    if interval == "full":
        norm /= math.sqrt(2.0)
    # Gegenbauer-to-Legendre conversion constant Gamma(2L+1) / (2^L Gamma(L+1))
    conv = math.exp(math.lgamma(2.0 * L + 1.0) - L * math.log(2.0) - math.lgamma(L + 1.0))
    sign = 1.0
    if interval == "half" and L == round(L) and int(round(L)) % 2 == 1:
        sign = -1.0
    return BasisState(int(n), L, lam, norm, sign * norm * conv)


def _poly_derivatives(states: list[BasisState], y, order: int) -> tuple[np.ndarray, list[np.ndarray]]:
    # the column of state scales, and C_n^lam(y) with its first `order` y-derivatives, one row per state
    # of one well.  Each derivative shifts (n, lam) -> (n-1, lam+1) (DLMF 18.9.19) and is one recurrence
    # over every state; a negative degree evaluates to exact zeros
    lam = states[0].lam
    if any(s.lam != lam for s in states):
        raise DomainError("states must belong to one well")
    ns = np.array([s.n for s in states], dtype=int)
    scale = np.array([s.scale for s in states]).reshape((-1,) + (1,) * np.ndim(y))
    coefs = (1.0, 2.0 * lam, 4.0 * lam * (lam + 1.0))
    return scale, [coefs[j] * gegenbauer_value(ns - j, lam + j, y) for j in range(order + 1)]


def _one_or_rows(key, rows: np.ndarray, x=0.0):
    # the rows for a sequence key; for one state or level its row, a float at a scalar point x
    return rows if np.ndim(key) else float(rows[0]) if np.isscalar(x) else rows[0]


def eval_state(states, tau) -> np.ndarray | float:
    """Wavefunction values at tau strictly inside (-pi/2, pi/2); a sequence of states of one well gives a row each."""
    t = np.asarray(tau, dtype=float)
    if np.any(np.abs(t) >= 0.5 * np.pi):
        raise DomainError("tau must lie strictly inside (-pi/2, pi/2)")
    sts = [states] if np.ndim(states) == 0 else list(states)
    scale, (c,) = _poly_derivatives(sts, np.sin(t), 0)
    return _one_or_rows(states, scale * np.cos(t) ** sts[0].lam * c, tau)


def _grid_rows(n, params: PotentialParams, points: int):
    # level(s) n on `points` tau points 0.05 inside the interval ends: the basis states, y = sin(tau),
    # cos(tau), psi, and scale * C_n^lam(y) with its first two y-derivatives, one row per level
    tau = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, points)
    states = [build_basis_state(k, params) for k in ([n] if np.ndim(n) == 0 else n)]
    y, cq = np.sin(tau), np.cos(tau)
    scale, (c, dc, d2c) = _poly_derivatives(states, y, 2)
    psi = scale * cq ** (params.L + 0.5) * c
    return states, y, cq, psi, scale * c, scale * dc, scale * d2c


def residual_ode(n, params: PotentialParams, momentum: float | None = None, grid=None) -> float | np.ndarray:
    """Scaled residual of the master equation at level n on 401 tau points.

    Returns max |c1^2 psi'' + (c/M) P psi - (1/M) A(A-1) sec^2(tau) psi|
    divided by max |psi| over the grid.  P defaults to the quantized value
    for level n; passing momentum explicitly turns the residual into a
    detector for off-spectrum values.  The grid keeps a 0.05 margin from
    the interval ends where sec^2 amplifies roundoff.  A sequence of levels
    gives one residual per level.  grid, if given, must be the rows that
    _grid_rows(n, params, 401) returns for the same levels and well.
    """
    states, y, cq, psi, u, du, d2u = _grid_rows(n, params, 401) if grid is None else grid
    M, lam = params.mass_scale, params.L + 0.5
    # psi'' in tau via the chain rule on the envelope-times-polynomial form
    core = cq**lam * ((1.0 - y * y) * d2u - (2.0 * lam + 1.0) * y * du - lam * lam * u)
    d2 = core + lam * (lam - 1.0) * cq ** (lam - 2.0) * u
    P = momentum_level([s.n for s in states], params)[:, None] if momentum is None else float(momentum)
    res = params.c1**2 * d2 + (params.c / M) * P * psi - params.A * (params.A - 1.0) / M * (1.0 / cq**2) * psi
    return _one_or_rows(n, np.max(np.abs(res), axis=1) / np.max(np.abs(psi), axis=1))


def overlap(m, n, params: PotentialParams, rule: QuadratureRule) -> float | np.ndarray:
    """Inner products of levels m and n in the t measure over tau in (-pi/2, pi/2).

    m and n are each a level or a sequence of levels: two levels give a float, anything else
    the len(m) x len(n) block.  Each distinct level is evaluated once.  The basis is orthonormal.
    """
    rows = [m] if np.ndim(m) == 0 else list(m)
    cols = [n] if np.ndim(n) == 0 else list(n)
    for k in rows + cols:  # before np.unique merges True into 1 and 2.0 into 2
        _check_int("level index", k, 0, _MAX_LEVEL)
    levels, at = np.unique(np.array(rows + cols, dtype=int), return_inverse=True)
    psi = eval_state([build_basis_state(k, params) for k in levels], 0.5 * np.pi * rule.nodes) if len(levels) else None
    w = 0.5 * np.pi * rule.weights / params.c1  # dt = dtau / c1
    # one pass per level a forms each pair a <= b once and in one order, so a block equals its scalar
    # pairs bit for bit; the lower triangle mirrors the upper
    gram = np.empty((len(levels), len(levels)))
    for a in range(len(levels)):
        gram[a, a:] = gram[a:, a] = np.add.reduce(w * psi[a] * psi[a:], axis=1)
    block = gram[np.ix_(at[: len(rows)], at[len(rows) :])]
    return float(block[0, 0]) if np.ndim(m) == np.ndim(n) == 0 else block
