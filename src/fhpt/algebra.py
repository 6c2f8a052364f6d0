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

from .errors import _check_int
from .model import PotentialParams, _grid_rows, _one_or_rows, _poly_derivatives

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
    _check_int("level index", n, 0)
    return LadderCoefficients(
        n=int(n),
        L=L,
        raise_eig=math.sqrt((n + 1.0) * (n + 2.0 * L + 1.0)),
        lower_eig=math.sqrt(n * (n + 2.0 * L)) if n > 0 else 0.0,
        gamma0=n + L + 0.5,
    )


def _raise_pref(k, L: float):
    return np.sqrt((2.0 * k + 2.0 * L + 3.0) / (2.0 * k + 2.0 * L + 1.0))


def _lower_pref(k, L: float):
    return np.sqrt((2.0 * k + 2.0 * L - 1.0) / (2.0 * k + 2.0 * L + 1.0))


def _ladder_image(states, y, rows, raising: bool) -> np.ndarray | float:
    # (1 - y^2)^(lam/2) times the raising or lowering bracket in y, u = scale * C_k^lam and u', one row per
    # state of level k; rows holds u and u' when the caller already has them
    sts = [states] if np.ndim(states) == 0 else list(states)
    yv = np.asarray(y, dtype=float)
    if rows is None:
        scale, raw = _poly_derivatives(sts, yv, 1)
        rows = [scale * r for r in raw]
    u, du = rows
    k = np.array([s.n for s in sts]).reshape((-1,) + (1,) * yv.ndim)
    L, lam, w = sts[0].L, sts[0].lam, 1.0 - yv * yv
    if raising:
        bracket = _raise_pref(k, L) * ((k + 2.0 * lam) * yv * u - w * du)
    else:  # the ground rows are exact zeros, and their prefactor is never formed
        bracket = np.where(k > 0, _lower_pref(np.maximum(k, 1), L) * (k * yv * u + w * du), 0.0)
    return _one_or_rows(states, w ** (0.5 * lam) * bracket, y)


def apply_raising(states):
    """Image of the raising map on a basis state (a row per state of a sequence), as a function of y = sin(tau)."""
    return lambda y, rows=None: _ladder_image(states, y, rows, True)


def apply_lowering(states):
    """Image of the lowering map; the ground level is annihilated exactly."""
    return lambda y, rows=None: _ladder_image(states, y, rows, False)


def commutator_residual(n, params: PotentialParams, grid=None) -> float | np.ndarray:
    """Pointwise residual of [lower, raise] = 2 gamma0 on level n.

    The two operator chains are composed pointwise: the first map's image and
    its y-derivative come from the product rule on u, u', u'', and the second
    map acts on them with the level-shifted prefactor.  The result is compared
    to 2 (n + L + 1/2) psi_n on a tau grid; returns the max deviation scaled by
    max |psi_n|, or one such residual per level for a sequence of levels.
    grid, if given, must be the rows that _grid_rows(n, params, 201) returns
    for the same levels and well.
    """
    states, y, cq, psi, u, du, d2u = _grid_rows(n, params, 201) if grid is None else grid
    k = np.array([s.n for s in states])[:, None]
    L, lam = params.L, params.L + 0.5
    w = 1.0 - y * y

    a = k + 2.0 * lam
    up = _raise_pref(k, L) * (a * y * u - w * du)
    d_up = _raise_pref(k, L) * (a * u + (a + 2.0) * y * du - w * d2u)
    up_down = _lower_pref(k + 1, L) * ((k + 1) * y * up + w * d_up)

    # lower first; zero on the ground level, whose prefactors are never formed
    k1 = np.maximum(k, 1)
    down = _lower_pref(k1, L) * (k * y * u + w * du)
    d_down = _lower_pref(k1, L) * (k * u + (k - 2.0) * y * du + w * d2u)
    down_up = np.where(k > 0, _raise_pref(k1 - 1, L) * ((a - 1.0) * y * down - w * d_down), 0.0)

    resid = cq**lam * (up_down - down_up - 2.0 * (k + L + 0.5) * u)
    return _one_or_rows(n, np.max(np.abs(resid), axis=1) / np.max(np.abs(psi), axis=1))


def casimir_eigenvalue(n: int, params: PotentialParams) -> float:
    """gamma0^2 - (raise_eig^2 + lower_eig^2) / 2 at level n; constant L^2 - 1/4."""
    lc = ladder_coefficients(n, params.L)
    return lc.gamma0**2 - 0.5 * (lc.raise_eig**2 + lc.lower_eig**2)
