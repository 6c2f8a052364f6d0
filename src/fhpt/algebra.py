"""First-order ladder maps between neighbouring levels and their su(1,1) data.

Both operators act on the envelope-times-polynomial form of a state and land
exactly on the neighbouring polynomial degree: multiply by y, differentiate,
recombine.  The level shift keeps the envelope exponent fixed; only the
polynomial changes.  Images are evaluated pointwise in y = sin(tau) from the
Gegenbauer recurrence, with C_n' = 2 lam C_{n-1}^{lam+1} (DLMF 18.9.19), so
they stay accurate across the whole level range; monomial coefficients of
C_n^lam cancel catastrophically once n passes about 15.

Sign and prefactor conventions are pinned by the eigenvalue relations

    raise:  image = sqrt((n + 1)(n + 2L + 1)) * state_{n+1}
    lower:  image = sqrt(n (n + 2L))         * state_{n-1}

together with the commutator [lower, raise] = 2 * (n + L + 1/2) on level n
and the Casimir constant L^2 - 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import BasisState, PotentialParams, _poly_derivatives, build_basis_state, eval_state

__all__ = [
    "LadderCoefficients",
    "apply_lowering",
    "apply_raising",
    "casimir_eigenvalue",
    "commutator_residual",
    "ladder_coefficients",
]


@dataclass(frozen=True)
class LadderCoefficients:
    n: int
    L: float
    raise_eig: float
    lower_eig: float
    gamma0: float


def ladder_coefficients(n: int, L: float) -> LadderCoefficients:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    return LadderCoefficients(
        n=int(n),
        L=L,
        raise_eig=math.sqrt((n + 1.0) * (n + 2.0 * L + 1.0)),
        lower_eig=math.sqrt(n * (n + 2.0 * L)) if n > 0 else 0.0,
        gamma0=n + L + 0.5,
    )


def _raise_pref(k: int, L: float) -> float:
    return math.sqrt((2.0 * k + 2.0 * L + 3.0) / (2.0 * k + 2.0 * L + 1.0))


def _lower_pref(k: int, L: float) -> float:
    return math.sqrt((2.0 * k + 2.0 * L - 1.0) / (2.0 * k + 2.0 * L + 1.0))


def _envelope_image(state: BasisState, bracket):
    # image(y) = (1 - y^2)^(lam/2) * bracket(y, u, u') with u = scale * C_n^lam
    def image(y) -> np.ndarray | float:
        yv = np.asarray(y, dtype=float)
        u, du, _ = _poly_derivatives(state, yv)
        vals = (1.0 - yv * yv) ** (0.5 * state.lam) * bracket(yv, u, du)
        if np.isscalar(y):
            return float(vals)
        return vals

    return image


def apply_raising(state: BasisState):
    """Image of the raising map on a basis state, as a function of y = sin(tau)."""
    k, lam, pref = state.n, state.lam, _raise_pref(state.n, state.L)
    return _envelope_image(state, lambda y, u, du: pref * ((k + 2.0 * lam) * y * u - (1.0 - y * y) * du))


def apply_lowering(state: BasisState):
    """Image of the lowering map; the ground level is annihilated exactly."""
    k = state.n
    if k == 0:
        return _envelope_image(state, lambda y, u, du: np.zeros_like(y))
    pref = _lower_pref(k, state.L)
    return _envelope_image(state, lambda y, u, du: pref * (k * y * u + (1.0 - y * y) * du))


def commutator_residual(n: int, params: PotentialParams) -> float:
    """Pointwise residual of [lower, raise] = 2 gamma0 on level n.

    The two operator chains are composed pointwise: the first map's image and
    its y-derivative come from the product rule on u, u', u'', and the second
    map acts on them with the level-shifted prefactor.  The result is compared
    to 2 (n + L + 1/2) psi_n on a tau grid; returns the max deviation scaled by
    max |psi_n|.
    """
    grid = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 201)
    state = build_basis_state(n, params)
    L, lam = state.L, state.lam
    y = np.sin(grid)
    w = 1.0 - y * y
    u, du, d2u = _poly_derivatives(state, y)

    a = n + 2.0 * lam
    up = _raise_pref(n, L) * (a * y * u - w * du)
    d_up = _raise_pref(n, L) * (a * u + (a + 2.0) * y * du - w * d2u)
    up_down = _lower_pref(n + 1, L) * ((n + 1) * y * up + w * d_up)

    down_up = np.zeros_like(y)
    if n > 0:
        down = _lower_pref(n, L) * (n * y * u + w * du)
        d_down = _lower_pref(n, L) * (n * u + (n - 2.0) * y * du + w * d2u)
        down_up = _raise_pref(n - 1, L) * ((a - 1.0) * y * down - w * d_down)

    resid = np.cos(grid) ** lam * (up_down - down_up - 2.0 * (n + L + 0.5) * u)
    psi = eval_state(state, grid)
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


def casimir_eigenvalue(n: int, params: PotentialParams) -> float:
    """gamma0^2 - (raise_eig^2 + lower_eig^2) / 2 at level n; constant L^2 - 1/4."""
    lc = ladder_coefficients(n, params.L)
    return lc.gamma0**2 - 0.5 * (lc.raise_eig**2 + lc.lower_eig**2)
