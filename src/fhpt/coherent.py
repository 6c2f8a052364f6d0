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
from typing import Callable, Iterable

import numpy as np

from .algebra import _eigenvalues
from .errors import ConvergenceError, DomainError, _check_ints
from .model import _MAX_LEVEL, PotentialParams, _as_list, _one_or_rows
from .quadrature import integrate_semi_infinite_k_weight
from .special import _bessel_i_series, bessel_i

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
    range; it raises OverflowError where I_(2L)(2 |z|) exceeds the double range.
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
        log_c0 = L * math.log(r) - 0.5 * (math.log(norm) + math.lgamma(2.0 * L + 1.0))
    else:
        # I_(2L)(2r) lies below the normal double range (large L, small r): c_0^2 = t0 / I = 1 / S exactly, with S
        # the series summed relative to its leading term t0 = r^(2L) / Gamma(2L + 1), so no terms of size L ln L cancel
        log_c0 = -0.5 * math.log(_bessel_i_series(2.0 * L, 2.0 * r)[1])

    log_mags = [log_c0]
    n = 0
    while True:
        n += 1
        if n > _MAX_TERMS:
            raise ConvergenceError("coherent coefficient vector failed to converge")
        # lower_eig(n) inline, not algebra's kernel: one scalar per term of a Python loop, and lowering-eigenstate
        # compares this builder against the kernel, so the two must not share it
        ratio = r / math.sqrt(n * (n + 2.0 * L))
        # a ratio below the normal range has lost digits, and at 0.0 its log fails: take it as a difference
        log_ratio = math.log(ratio) if ratio >= sys.float_info.min else math.log(r) - 0.5 * math.log(n * (n + 2.0 * L))
        log_mags.append(log_mags[-1] + log_ratio)
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

    Component n compares raise_eig(n) c_(n+1) against z c_n for
    n < N.  The index-N component of the difference is pure truncation,
    already bounded by tail_bound, and is not double counted here.
    """
    c = cs.coeffs
    raise_eig = _eigenvalues(np.arange(len(c) - 1.0), cs.L)[0]
    resid = raise_eig * c[1:] - cs.z * c[:-1]
    return float(np.sqrt(np.sum(np.abs(resid) ** 2)))


def general_expectation(
    cs: CoherentState, element: Callable[[np.ndarray, np.ndarray], np.ndarray], offsets: Iterable[int]
) -> complex:
    """Expectation <c|E|c> of an operator given by its nonzero diagonals.

    For each k in offsets, element(i, j) is called once, with j the kept levels on
    diagonal k and i = j + k (integer arrays of one shape), and returns E[i, j] there,
    so the cost is O(N len(offsets)).  A dense operator is the diagonals range(1 - N, N).
    """
    ks = list(offsets)
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in ks) or len(set(ks)) != len(ks):
        raise DomainError(f"offsets must be distinct integers, got {offsets!r}")
    c = cs.coeffs
    total = 0.0 + 0.0j
    for k in ks:
        j = np.arange(max(0, -k), len(c) - max(0, k))
        i = j + k
        total += np.sum(np.conj(c[i]) * element(i, j) * c[j])
    return complex(total)


def radial_weight_moment(mu: float, nu: float) -> float:
    """Closed form of the moment integral of r^mu against K_nu(2 r) over (0, inf).

    Equals Gamma((1 + mu + nu) / 2) Gamma((1 + mu - nu) / 2) / 4, valid for
    mu + 1 > |nu|.
    """
    if mu + 1.0 <= abs(nu):
        raise DomainError(f"moment diverges: need mu + 1 > |nu|, got mu={mu!r}, nu={nu!r}")
    return 0.25 * math.gamma(0.5 * (1.0 + mu + nu)) * math.gamma(0.5 * (1.0 + mu - nu))


def resolution_of_identity_check(n, n_prime, params: PotentialParams, r_max: float) -> float | np.ndarray:
    """Matrix element (n_prime, n) of the completeness integral over labels z.

    With the weight (2 / pi) K_(2L)(2|z|) / |z|^(2L - 1) on the label plane,
    the angular integral contributes 2 pi only on the diagonal and vanishes
    exactly otherwise; the radial part reduces to the moment of r^mu, mu = 2n + 2L + 1,
    against K_(2L)(2r).  Its row is normalized in the row, exp(mu ln r - ln M_n) with
    M_n = n! Gamma(n + 2L + 1) / 4 the moment's closed form, so it stays finite wherever
    the integrand does, and the identity holds when every diagonal element equals 1.
    n and n_prime are each a level in [0, 100], or sequences of one length for one element
    per pair (n[i], n_prime[i]), whose diagonal moments share one pass over the K-grid;
    each element equals its own pair's call bit for bit.  The moments take the integrator's one
    grid, 8 panels of the 80-point rule up to r_max: a moment's peak in ln r narrows with its
    level, and the grid is sized for the narrowest, a level-100 moment's, which it takes to rounding.
    """
    ns, one = _as_list(n)
    ms, one_prime = _as_list(n_prime)
    _check_ints("level index", ns + ms, 0, _MAX_LEVEL)
    if len(ns) != len(ms):
        raise DomainError(f"n and n_prime must have one length, got {len(ns)} and {len(ms)}")
    L = params.L
    out = np.zeros(len(ns))
    diagonal = [i for i, (k, k_prime) in enumerate(zip(ns, ms)) if k == k_prime]
    if diagonal:
        levels = [ns[i] for i in diagonal]
        mu = np.array([[2.0 * k + 2.0 * L + 1.0] for k in levels])
        log_m = np.array([[math.lgamma(k + 1.0) + math.lgamma(k + 2.0 * L + 1.0) - math.log(4.0)] for k in levels])
        out[diagonal] = integrate_semi_infinite_k_weight(lambda r: np.exp(mu * np.log(r) - log_m), 2.0 * L, r_max)
    return _one_or_rows(one and one_prime, out)

