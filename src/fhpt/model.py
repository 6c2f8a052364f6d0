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

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureRule, gauss_legendre
from .special import gegenbauer_value, log_gamma

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
        self.a_prime  # validate admissibility eagerly

    @property
    def mass_scale(self) -> float:
        return self.hbar**2 / (2.0 * self.m0 * self.c**2)

    @property
    def a_prime(self) -> float:
        return derive_a_prime(self)

    @property
    def L(self) -> float:
        """Effective angular-momentum-like index, (a_prime - 1) / 2."""
        return 0.5 * (self.a_prime - 1.0)


def derive_a_prime(params: PotentialParams) -> float:
    """Shape exponent of the regular solution.

    The envelope power lam = a_prime / 2 balances the sec^2 singularity, so
    it solves lam (lam - 1) = A (A - 1) / (c1^2 M); this returns twice the
    regular root (a_prime >= 2 whenever A (A - 1) >= 0).  Requires
    A (A - 1) >= -c1^2 M / 4, the borderline of a real exponent.
    """
    scale = params.c1**2 * params.mass_scale
    radicand = 1.0 + 4.0 * params.A * (params.A - 1.0) / scale
    if radicand < 0.0:
        raise DomainError(
            f"well strength A={params.A!r} is below the admissible branch: "
            f"A (A - 1) must be >= {-scale / 4.0!r}"
        )
    return 1.0 + math.sqrt(radicand)


def momentum_level(n: int, params: PotentialParams) -> float:
    """Quantized momentum of level n: (c1^2 M / c) (n + a_prime / 2)^2."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    base = n + 0.5 * params.a_prime
    return params.c1**2 * params.mass_scale / params.c * base * base


@dataclass(frozen=True, eq=False)
class BasisState:
    """Normalized level-n solution: scale * cos(tau)^lam * C_n(sin tau)."""

    n: int
    L: float
    lam: float
    norm: float
    scale: float
    interval: str


def _half_interval_norm(n: int, L: float) -> float:
    # sqrt((2n + 2L + 1) n! / Gamma(n + 2L + 1)), the half-interval constant
    # of the associated-Legendre normalization
    return math.exp(
        0.5 * (math.log(2.0 * n + 2.0 * L + 1.0) + log_gamma(n + 1.0) - log_gamma(n + 2.0 * L + 1.0))
    )


def build_basis_state(n: int, params: PotentialParams, interval: str = "full") -> BasisState:
    """Construct level n for the given parameters.

    interval selects the normalization convention: "full" is orthonormal in
    the t measure over (-pi/2, pi/2) in tau; "half" carries the bare
    half-interval constant (and the alternating phase of the integer-order
    associated-Legendre functions when L is an integer).
    """
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= _MAX_LEVEL:
        raise DomainError(f"level index must be an integer in [0, {_MAX_LEVEL}], got {n!r}")
    if interval not in ("full", "half"):
        raise DomainError(f"interval must be 'full' or 'half', got {interval!r}")
    L = params.L
    lam = L + 0.5
    norm = _half_interval_norm(int(n), L) * math.sqrt(params.c1)
    if interval == "full":
        norm /= math.sqrt(2.0)
    # Gegenbauer-to-Legendre conversion constant Gamma(2L+1) / (2^L Gamma(L+1))
    conv = math.exp(log_gamma(2.0 * L + 1.0) - L * math.log(2.0) - log_gamma(L + 1.0))
    sign = 1.0
    if interval == "half" and L == round(L) and int(round(L)) % 2 == 1:
        sign = -1.0
    return BasisState(int(n), L, lam, norm, sign * norm * conv, interval)


def eval_state(state: BasisState, tau) -> np.ndarray | float:
    """Wavefunction values at tau (scalar or array), tau strictly inside (-pi/2, pi/2)."""
    t = np.asarray(tau, dtype=float)
    if np.any(np.abs(t) >= 0.5 * np.pi):
        raise DomainError("tau must lie strictly inside (-pi/2, pi/2)")
    y = np.sin(t)
    vals = state.scale * np.cos(t) ** state.lam * gegenbauer_value(state.n, state.lam, y)
    if np.isscalar(tau):
        return float(vals)
    return vals


def _poly_derivatives(state: BasisState, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # scale * C_n^lam(y) and its first two y-derivatives; each derivative
    # shifts (n, lam) -> (n-1, lam+1) (DLMF 18.9.19), and a negative degree
    # evaluates to exact zeros
    n, lam = state.n, state.lam
    u = gegenbauer_value(n, lam, y)
    du = 2.0 * lam * gegenbauer_value(n - 1, lam + 1.0, y)
    d2u = 4.0 * lam * (lam + 1.0) * gegenbauer_value(n - 2, lam + 2.0, y)
    return state.scale * u, state.scale * du, state.scale * d2u


def _second_derivative(state: BasisState, tau: np.ndarray) -> np.ndarray:
    # psi'' in tau via the chain rule on the envelope-times-polynomial form
    lam = state.lam
    y = np.sin(tau)
    cq = np.cos(tau)
    u, du, d2u = _poly_derivatives(state, y)
    core = cq**lam * ((1.0 - y * y) * d2u - (2.0 * lam + 1.0) * y * du - lam * lam * u)
    return core + lam * (lam - 1.0) * cq ** (lam - 2.0) * u


def residual_ode(n: int, params: PotentialParams, momentum: float | None = None) -> float:
    """Scaled residual of the master equation at level n on 401 tau points.

    Returns max |c1^2 psi'' + (c/M) P psi - (1/M) A(A-1) sec^2(tau) psi|
    divided by max |psi| over the grid.  P defaults to the quantized value
    for level n; passing momentum explicitly turns the residual into a
    detector for off-spectrum values.  The grid keeps a 0.05 margin from
    the interval ends where sec^2 amplifies roundoff.
    """
    grid = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 401)
    state = build_basis_state(n, params)
    M = params.mass_scale
    psi = eval_state(state, grid)
    d2 = _second_derivative(state, grid)
    sec2 = 1.0 / np.cos(grid) ** 2
    P = momentum_level(n, params) if momentum is None else float(momentum)
    res = params.c1**2 * d2 + (params.c / M) * P * psi - params.A * (params.A - 1.0) / M * sec2 * psi
    return float(np.max(np.abs(res)) / np.max(np.abs(psi)))


def overlap(
    m: int,
    n: int,
    params: PotentialParams,
    rule: QuadratureRule | None = None,
    interval: str = "full",
) -> float:
    """Inner product of levels m and n in the t measure.

    "full" integrates tau over (-pi/2, pi/2) and is the convention under
    which the basis is orthonormal; "half" integrates over (0, pi/2), where
    states of opposite parity are not orthogonal.
    """
    if rule is None:
        rule = gauss_legendre(200)
    sm = build_basis_state(m, params, interval)
    sn = build_basis_state(n, params, interval)
    if interval == "full":
        lo, hi = -0.5 * np.pi, 0.5 * np.pi
    else:
        lo, hi = 0.0, 0.5 * np.pi
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tau = mid + half * rule.nodes
    vals = eval_state(sm, tau) * eval_state(sn, tau)
    # dt = dtau / c1
    return float(half * np.dot(rule.weights, vals) / params.c1)
