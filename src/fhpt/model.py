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
constant factor only.  Each state's constant is one log-space sum of its
Gamma ratios, exponentiated once, so it stays finite where a ratio would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _check_int, _check_ints
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

    This root is a boundary condition.  For g = A (A - 1) / (c1^2 M) in
    [-1/4, 3/4), that is 1/2 <= lam < 3/2, both exponents lam and 1 - lam give
    square-integrable solutions at the walls; the larger root, taken here,
    is the Friedrichs extension.  From g = 3/4 on, only lam is admissible.
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
    """Quantized momentum of level n: (c1^2 M / c) (n + a_prime / 2)^2; a sequence of levels gives one per level.

    Raises OverflowError when a momentum exceeds the double range."""
    levels, one = _as_list(n)
    _check_ints("level index", levels, 0)
    base = np.array(levels, dtype=float) + 0.5 * params.a_prime
    with np.errstate(over="ignore"):
        momenta = params.c1**2 * params.mass_scale / params.c * base * base
    over = np.flatnonzero(np.isinf(momenta))
    if len(over):
        raise OverflowError(f"momentum of level {levels[over[0]]} exceeds the double range")
    return _one_or_rows(one, momenta)


@dataclass(frozen=True, eq=False)
class BasisState:
    """Normalized level-n solution: scale * cos(tau)^lam * C_n(sin tau)."""

    n: int
    L: float
    lam: float
    norm: float
    scale: float


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
    # ln of the associated-Legendre half-interval constant sqrt(c1 (2n + 2L + 1) n! / Gamma(n + 2L + 1)), over
    # sqrt(2) for "full"; scale adds ln Gamma(2L + 1) / (2^L Gamma(L + 1)), the Gegenbauer-to-Legendre constant
    log_norm = 0.5 * (math.log(2.0 * n + 2.0 * L + 1.0) + math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * L + 1.0)
                      + math.log(params.c1))
    if interval == "full":
        log_norm -= 0.5 * math.log(2.0)
    log_conv = math.lgamma(2.0 * L + 1.0) - L * math.log(2.0) - math.lgamma(L + 1.0)
    sign = 1.0
    if interval == "half" and L == round(L) and int(round(L)) % 2 == 1:
        sign = -1.0
    return BasisState(int(n), L, L + 0.5, math.exp(log_norm), sign * math.exp(log_norm + log_conv))


def _poly_derivatives(states: list[BasisState], y, order: int) -> tuple[np.ndarray, list[np.ndarray]]:
    # the column of state scales, and C_n^lam(y) with its first `order` y-derivatives, one row per state
    # of one well.  Each derivative shifts (n, lam) -> (n-1, lam+1) (DLMF 18.9.19) and is one recurrence
    # over every state; a negative degree evaluates to exact zeros
    _, lam = _well(states)
    ns = np.array([s.n for s in states], dtype=int)
    scale = np.array([s.scale for s in states]).reshape((-1,) + (1,) * np.ndim(y))
    coefs = (1.0, 2.0 * lam, 4.0 * lam * (lam + 1.0))
    return scale, [coefs[j] * gegenbauer_value(ns - j, lam + j, y) for j in range(order + 1)]


def _well(states) -> tuple[float, float]:
    # L and lam of the one well a sequence of states belongs to; no states give no rows, so any well serves them
    if any(s.lam != states[0].lam for s in states):
        raise DomainError("states must belong to one well")
    return (states[0].L, states[0].lam) if states else (0.0, 0.5)


def _as_list(key) -> tuple[list, bool]:
    # a level or state, or a sequence of them, as a list and whether it was one item: whatever numpy reads as
    # 0-d is one, None and bools too; a list, tuple or range is many, without the array np.ndim would build
    one = not isinstance(key, (list, tuple, range)) and np.ndim(key) == 0
    return [key] if one else list(key), one


def _one_or_rows(one: bool, rows: np.ndarray, x=0.0):
    # the rows for a sequence; for one state or level its row, a float at a scalar point x
    return rows if not one else float(rows[0]) if np.isscalar(x) else rows[0]


def eval_state(states, tau) -> np.ndarray | float:
    """Wavefunction values at tau strictly inside (-pi/2, pi/2); a sequence of states of one well gives a row each."""
    t = np.asarray(tau, dtype=float)
    if np.any(np.abs(t) >= 0.5 * np.pi):
        raise DomainError("tau must lie strictly inside (-pi/2, pi/2)")
    sts, one = _as_list(states)
    scale, (c,) = _poly_derivatives(sts, np.sin(t), 0)
    return _one_or_rows(one, scale * np.cos(t) ** _well(sts)[1] * c, tau)


def _grid_rows(levels, params: PotentialParams, grid=None):
    # a sequence of levels on 401 tau points 0.05 inside the interval ends, or the caller's grid once it holds them:
    # the basis states, y = sin(tau), cos(tau), psi, and scale * C_n^lam(y) with its first two y-derivatives, by level
    if grid is not None:
        held, well = [s.n for s in grid[0]], [s.L for s in grid[0][:1]]
        if held != levels or well not in ([], [params.L]):
            raise DomainError(f"grid holds levels {held} of L={well}, not levels {levels} of L=[{params.L!r}]")
        return grid
    tau = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 401)
    states = [build_basis_state(k, params) for k in levels]
    y, cq = np.sin(tau), np.cos(tau)
    scale, (c, dc, d2c) = _poly_derivatives(states, y, 2)
    psi = scale * cq ** (params.L + 0.5) * c
    dead = np.flatnonzero(~psi.any(axis=1))  # cos^lam underflows wherever C_n^lam is nonzero
    if len(dead):
        raise DomainError(f"level {states[dead[0]].n} of the well A={params.A!r} is 0.0 at every grid point")
    return states, y, cq, psi, scale * c, scale * dc, scale * d2c


def residual_ode(n, params: PotentialParams, momentum: float | None = None, grid=None) -> float | np.ndarray:
    """Scaled residual of the master equation at level n on 401 tau points.

    Returns max |c1^2 psi'' + (c/M) P psi - (1/M) A(A-1) sec^2(tau) psi|
    divided by c1^2 max |psi| over the grid: the equation is c1^2 times its
    form in tau, so the residual does not grow with c1.  P defaults to the
    quantized value for level n; passing momentum explicitly turns the
    residual into a detector for off-spectrum values.  The grid keeps a 0.05
    margin from the interval ends where sec^2 amplifies roundoff.  A sequence
    of levels gives one residual per level.  grid, if given, must be the rows
    _grid_rows built for exactly these levels of this well (DomainError else).
    """
    levels, one = _as_list(n)
    states, y, cq, psi, u, du, d2u = _grid_rows(levels, params, grid)
    M, lam = params.mass_scale, params.L + 0.5
    # psi'' in tau via the chain rule on the envelope-times-polynomial form
    core = cq**lam * ((1.0 - y * y) * d2u - (2.0 * lam + 1.0) * y * du - lam * lam * u)
    d2 = core + lam * (lam - 1.0) * cq ** (lam - 2.0) * u
    P = momentum_level([s.n for s in states], params)[:, None] if momentum is None else float(momentum)
    res = params.c1**2 * d2 + (params.c / M) * P * psi - params.A * (params.A - 1.0) / M * (1.0 / cq**2) * psi
    return _one_or_rows(one, np.max(np.abs(res), axis=1) / (params.c1**2 * np.max(np.abs(psi), axis=1)))


def overlap(m, n, params: PotentialParams, rule: QuadratureRule | list[QuadratureRule]) -> float | np.ndarray | list:
    """Inner products of levels m and n in the t measure over tau in (-pi/2, pi/2).

    m and n are each a level or a sequence of levels: two levels give a float, anything else
    the len(m) x len(n) block.  rule is a QuadratureRule, or a sequence of them for a list of one
    result per rule, each equal to that rule's own call bit for bit.  Each distinct level is built
    once and evaluated once, over every rule's nodes.  The basis is orthonormal.
    """
    rows, one_row = _as_list(m)
    cols, one_col = _as_list(n)
    rules, one_rule = _as_list(rule)
    _check_ints("level index", rows + cols, 0, _MAX_LEVEL)  # before the set merges True into 1 and 2.0 into 2
    levels = sorted(set(rows + cols))
    index = {k: i for i, k in enumerate(levels)}
    at = np.array([index[k] for k in rows + cols], dtype=int)
    # each level is built once and evaluated once, over the nodes of every rule in turn
    nodes = np.concatenate([0.5 * np.pi * q.nodes for q in rules]) if rules else None
    psi = eval_state([build_basis_state(k, params) for k in levels], nodes) if levels and rules else None
    out, start = [], 0
    for q in rules:
        end = start + q.order
        w = 0.5 * np.pi * q.weights / params.c1  # dt = dtau / c1
        # one pass per level a forms each pair a <= b once and in one order, so a block equals its scalar
        # pairs bit for bit; the lower triangle mirrors the upper
        gram = np.empty((len(levels), len(levels)))
        for a in range(len(levels)):
            gram[a, a:] = gram[a:, a] = np.add.reduce(w * psi[a, start:end] * psi[a:, start:end], axis=1)
        block = gram[np.ix_(at[: len(rows)], at[len(rows) :])]
        out.append(float(block[0, 0]) if one_row and one_col else block)
        start = end
    return out[0] if one_rule else out
