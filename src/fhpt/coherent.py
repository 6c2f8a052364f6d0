"""Annihilation-eigenstate superpositions over the discrete level ladder.

A state is a coefficient vector over levels,

    c_n = z^n sqrt(|z|^(2L) / (I_(2L)(2|z|) n! Gamma(n + 2L + 1))),

built in log-magnitude-plus-phase form so that large |z| and large L stay
representable.  The truncation level is chosen adaptively: coefficients are
kept until the term ratio drops below 1/2 and the geometric bound on the
dropped weight falls under tail_tol.

The completeness check integrates |c_n|^2-like radial moments against the
modified-Bessel weight; its angular factor kills every off-diagonal element
exactly, so only the diagonal needs quadrature.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import PotentialParams
from .quadrature import QuadratureRule, default_r_max, integrate_semi_infinite_k_weight
from .special import _bessel_i_series, bessel_i, gamma_fn, log_gamma

__all__ = [
    "CoherentState",
    "build_coherent_state",
    "general_expectation",
    "lowering_eigenstate_residual",
    "radial_weight_moment",
    "resolution_of_identity_check",
]

_MAX_TERMS = 200_000


@dataclass(frozen=True, eq=False)
class CoherentState:
    z: complex
    L: float
    coeffs: np.ndarray
    tail_bound: float

    @property
    def truncation_level(self) -> int:
        return len(self.coeffs) - 1

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def build_coherent_state(z: complex, params: PotentialParams, tail_tol: float = 1e-13) -> CoherentState:
    """Coefficient vector of the state labelled by complex z.

    Magnitudes follow the ratio recurrence |c_n| / |c_(n-1)| = |z| / sqrt(n (n + 2L)),
    accumulated in log space; phases are n arg(z).  The normalizer
    I_(2L)(2|z|) enters through its logarithm, so it may lie below the double
    range; it raises OverflowError once 2 |z| exceeds the exponential range.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    if not (0.0 < tail_tol < 1.0):
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    L = params.L
    r = abs(z)
    if r == 0.0:
        return CoherentState(z, L, np.array([1.0 + 0.0j]), 0.0)
    theta = cmath.phase(z)
    norm = bessel_i(2.0 * L, 2.0 * r)
    if norm >= sys.float_info.min:
        log_norm = math.log(norm)
    else:
        # I_(2L)(2r) lies below the normal double range (large L, small r):
        # its log is that of the series' leading term plus that of the sum
        # scaled by it, which stays representable
        log_t0, scaled = _bessel_i_series(2.0 * L, 2.0 * r)
        log_norm = log_t0 + math.log(scaled)
    log_c0 = L * math.log(r) - 0.5 * (log_norm + log_gamma(2.0 * L + 1.0))

    log_mags = [log_c0]
    n = 0
    while True:
        n += 1
        if n > _MAX_TERMS:
            raise ConvergenceError("coherent coefficient vector failed to converge")
        ratio = r / math.sqrt(n * (n + 2.0 * L))
        log_mags.append(log_mags[-1] + math.log(ratio))
        if ratio < 0.5:
            # ratios decrease in n, so the dropped weight is geometrically
            # dominated: sum_{k > N} |c_k|^2 <= |c_(N+1)|^2 / (1 - 1/4)
            tail = (4.0 / 3.0) * math.exp(2.0 * log_mags[-1])
            if tail < tail_tol:
                break
    ns = np.arange(len(log_mags) - 1)
    coeffs = np.exp(np.array(log_mags[:-1])) * np.exp(1j * theta * ns)
    return CoherentState(z, L, coeffs, tail)


def lowering_eigenstate_residual(cs: CoherentState) -> float:
    """l2 residual of the annihilation eigenrelation over the kept levels.

    Component n compares sqrt((n+1)(n+1+2L)) c_(n+1) against z c_n for
    n < N.  The index-N component of the difference is pure truncation,
    already bounded by tail_bound, and is not double counted here.
    """
    c = cs.coeffs
    if len(c) < 2:
        return 0.0
    n = np.arange(len(c) - 1)
    eig = np.sqrt((n + 1.0) * (n + 1.0 + 2.0 * cs.L))
    resid = eig * c[1:] - cs.z * c[:-1]
    return float(np.sqrt(np.sum(np.abs(resid) ** 2)))


def general_expectation(cs: CoherentState, element: Callable[[int, int], complex]) -> complex:
    """Expectation of an operator given by its matrix element (row, col) -> value."""
    c = cs.coeffs
    total = 0.0 + 0.0j
    for i in range(len(c)):
        ci = np.conj(c[i])
        for j in range(len(c)):
            e = element(i, j)
            if e != 0.0:
                total += ci * e * c[j]
    return complex(total)


def radial_weight_moment(mu: float, nu: float) -> float:
    """Closed form of the moment integral of r^mu against K_nu(2 r) over (0, inf).

    Equals Gamma((1 + mu + nu) / 2) Gamma((1 + mu - nu) / 2) / 4, valid for
    mu + 1 > |nu|.
    """
    if mu + 1.0 <= abs(nu):
        raise DomainError(f"moment diverges: need mu + 1 > |nu|, got mu={mu!r}, nu={nu!r}")
    return 0.25 * gamma_fn(0.5 * (1.0 + mu + nu)) * gamma_fn(0.5 * (1.0 + mu - nu))


def resolution_of_identity_check(
    n: int,
    n_prime: int,
    params: PotentialParams,
    rule: QuadratureRule | None = None,
    r_max: float | None = None,
) -> float:
    """Matrix element (n_prime, n) of the completeness integral over labels z.

    With the weight (2 / pi) K_(2L)(2|z|) / |z|^(2L - 1) on the label plane,
    the angular integral contributes 2 pi only on the diagonal and vanishes
    exactly otherwise; the radial part reduces to a K-weighted moment.  The
    identity holds when every diagonal element equals 1.
    """
    for k in (n, n_prime):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise DomainError(f"level index must be a nonnegative integer, got {k!r}")
    if n_prime != n:
        return 0.0
    L = params.L
    degree = 2.0 * n + 2.0 * L + 1.0
    if r_max is None:
        r_max = default_r_max(degree)
    value = integrate_semi_infinite_k_weight(
        lambda rr: rr**degree, 2.0 * L, r_max=r_max, rule=rule
    )
    pref = 4.0 * math.exp(-log_gamma(n + 1.0) - log_gamma(n + 2.0 * L + 1.0))
    return pref * value
