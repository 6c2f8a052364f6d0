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

from dataclasses import dataclass

import numpy as np

from .errors import _check_int, _check_ints
from .model import PotentialParams, _as_list, _grid_rows, _one_or_rows, _poly_derivatives, _well

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


def _eigenvalues(k, L: float):
    # raise_eig, lower_eig and gamma0 of levels k (a float or an array), the one place they are formed; lower_eig(0)
    # is sqrt(0.0), exactly 0.0
    return np.sqrt((k + 1.0) * (k + 2.0 * L + 1.0)), np.sqrt(k * (k + 2.0 * L)), k + L + 0.5


def ladder_coefficients(n: int, L: float) -> LadderCoefficients:
    _check_int("level index", n, 0)
    raise_eig, lower_eig, gamma0 = map(float, _eigenvalues(float(n), L))
    return LadderCoefficients(int(n), L, raise_eig, lower_eig, gamma0)


def _bracket(raising: bool, k, step: int, L: float, y, rows) -> list:
    # sqrt((2j + 2L + 1 - 2s) / (2j + 2L + 1)) (c y u + s (1 - y^2) u'), raising with c = j + 2 lam, s = -1 and
    # lowering with c = j, s = 1, for rows u = scale C_j^lam, u' of level j = k + step, and given u'' its
    # y-derivative; zeros below the first level with an image.  The raising c is (k + 2 lam) + step, as
    # (k - 1) + 2 lam can round otherwise, and the goldens pin it
    u, du, *d2u = rows
    j, s, first = k + step, -1.0 if raising else 1.0, 0 if raising else 1
    c = k + 2.0 * (L + 0.5) + step if raising else j
    h, w = 2.0 * np.maximum(j, first) + 2.0 * L, 1.0 - y * y
    pref = np.sqrt((h + (1.0 - 2.0 * s)) / (h + 1.0))
    brackets = [c * y * u + s * w * du] + [c * u + (c - 2.0 * s) * y * du + s * w * d for d in d2u]
    return [np.where(j >= first, pref * b, 0.0) for b in brackets]


def _ladder_image(states, y, rows, raising: bool) -> np.ndarray | float:
    # (1 - y^2)^(lam/2) times each state's bracket; rows holds u = scale * C_k^lam and u' if the caller has them
    sts, one = _as_list(states)
    yv = np.asarray(y, dtype=float)
    if rows is None:
        scale, raw = _poly_derivatives(sts, yv, 1)
        rows = [scale * r for r in raw]
    k = np.array([s.n for s in sts]).reshape((-1,) + (1,) * yv.ndim)
    L, lam = _well(sts)
    (bracket,) = _bracket(raising, k, 0, L, yv, rows)
    return _one_or_rows(one, (1.0 - yv * yv) ** (0.5 * lam) * bracket, y)


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
    to 2 (n + L + 1/2) psi_n on the 401 tau points of residual_ode; returns the
    max deviation scaled by max |psi_n|, or one such residual per level for a
    sequence of levels.  grid is checked as residual_ode checks it.
    """
    levels, one = _as_list(n)
    states, y, cq, psi, u, du, d2u = _grid_rows(levels, params, grid)
    k, L = np.array([s.n for s in states])[:, None], params.L
    (up_down,) = _bracket(False, k, 1, L, y, _bracket(True, k, 0, L, y, (u, du, d2u)))
    (down_up,) = _bracket(True, k, -1, L, y, _bracket(False, k, 0, L, y, (u, du, d2u)))
    resid = cq ** (L + 0.5) * (up_down - down_up - 2.0 * _eigenvalues(k, L)[2] * u)
    return _one_or_rows(one, np.max(np.abs(resid), axis=1) / np.max(np.abs(psi), axis=1))


def casimir_eigenvalue(n, params: PotentialParams) -> float | np.ndarray:
    """gamma0^2 - (raise_eig^2 + lower_eig^2) / 2 at level n, one per level of a sequence; constant L^2 - 1/4."""
    levels, one = _as_list(n)
    _check_ints("level index", levels, 0)
    up, down, g0 = _eigenvalues(np.array(levels, dtype=float), params.L)
    return _one_or_rows(one, g0**2 - 0.5 * (up**2 + down**2))
