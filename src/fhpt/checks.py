"""Named verification checks over the whole stack, with one report per run.

Every check pins an identity that holds exactly in exact arithmetic, computes
a scalar residual for it, and compares against a tolerance chosen for double
precision.  A tolerance override replaces every per-check tolerance at once,
which is how the command line exposes "rerun the suite stricter/looser".

Checks that define an identity at fixed parameters (the squared-integer
spectrum at unit well strength, Bessel closed forms) always run at those
parameters; the rest follow the configured well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import _eigenvalues, apply_lowering, apply_raising, casimir_eigenvalue, commutator_residual
from .coherent import build_coherent_state, lowering_eigenstate_residual, resolution_of_identity_check
from .errors import DomainError, _check_int
from .model import _MAX_LEVEL, PotentialParams, _grid_rows, momentum_level, overlap, residual_ode
from .quadrature import _MAX_ORDER, default_r_max, gauss_legendre
from .special import bessel_i, bessel_k

__all__ = ["CheckConfig", "CheckResult", "VerificationReport", "run_checks"]

REPORT_VERSION = "fhpt-report/1"
# bessel-sum-identity's reference I_2L(4) is a normal double up to 2L = 196.4804 (mpmath); past it the true value
# leaves the range, so such wells are rejected before any check runs
_MAX_SUM_ORDER = 196.48


@dataclass(frozen=True)
class CheckConfig(PotentialParams):
    """The well the checks run on (A defaults to 2.0), then the level budget, rule order and tolerance override.

    quad_order is the order of the first Gram rule; gram-order-doubling compares it with a rule of twice that
    order.  The K-weighted moments take their own fixed grid, 8 panels of an 80-point rule.
    """

    A: float = 2.0
    nmax: int = 10
    quad_order: int = 200
    tol_override: float | None = None

    def __post_init__(self) -> None:
        # every level-ranged check covers 0..nmax, and ladder-raising at nmax
        # needs level nmax + 1; gram-order-doubling needs a rule of twice
        # quad_order
        _check_int("nmax", self.nmax, 0, _MAX_LEVEL - 1)
        _check_int("quad_order", self.quad_order, 1, _MAX_ORDER // 2)
        t = self.tol_override
        if t is not None and (isinstance(t, bool) or not (math.isfinite(t) and t > 0.0)):
            raise DomainError(f"tol_override must be a positive finite number, got {t!r}")
        super().__post_init__()
        if 2.0 * self.L > _MAX_SUM_ORDER:
            raise DomainError(f"well strength A={self.A!r} gives 2L={2.0 * self.L!r}; verify needs 2L <= "
                              f"{_MAX_SUM_ORDER}, where bessel-sum-identity's reference I_2L(4) is a normal double")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "identity": self.identity,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    version: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }


def _result(name: str, identity: str, residual: float, tol: float, override: float | None) -> CheckResult:
    if override is not None:
        tol = override
    return CheckResult(name, identity, float(residual), float(tol), bool(residual < tol))


def run_checks(config: CheckConfig | None = None) -> VerificationReport:
    if config is None:
        config = CheckConfig()
    ov = config.tol_override
    L = config.L
    checks: list[CheckResult] = []

    # one 401-point grid of levels 0..nmax + 1 serves the ODE, ladder and commutator checks; each keeps rows 0..nmax
    levels, shared = range(config.nmax + 1), range(config.nmax + 2)
    grid = _grid_rows(shared, config)

    # master equation residual over every level
    r = residual_ode(shared, config, grid=grid)[:-1].max()
    checks.append(_result("ode-residual", "secant-well-equation", r, 1e-9, ov))

    # squared-integer spectrum at unit well strength in natural units
    unit = PotentialParams(A=1.0)
    squares = (np.arange(51) + 1.0) ** 2
    r = np.max(np.abs(momentum_level(range(51), unit) - squares) / squares)
    checks.append(_result("spectrum-square-law", "unit-well-squared-integers", r, 1e-14, ov))

    # orthonormality of the basis under the t measure: one overlap call evaluates each level once, over the nodes
    # of both Gram rules
    rules = [gauss_legendre(config.quad_order), gauss_legendre(2 * config.quad_order)]
    gram, gram2 = overlap(levels, levels, config, rules)
    checks.append(_result("gram-identity", "basis-orthonormality", np.max(np.abs(gram - np.eye(len(levels)))), 1e-10, ov))
    checks.append(_result("gram-order-doubling", "quadrature-convergence", np.max(np.abs(gram - gram2)), 1e-12, ov))

    # ladder maps against their eigenvalue relations, with targets from levels
    # 0..nmax + 1; row 0 of the lowering images is the ground level's
    states, y, _, psi, u, du, _ = grid
    up = apply_raising(states)(y, (u, du))[:-1]
    dn = apply_lowering(states)(y, (u, du))[:-1]
    raise_eig, lower_eig, g0 = _eigenvalues(np.arange(config.nmax + 1.0)[:, None], L)
    target_up = raise_eig * psi[1:]
    target_dn = lower_eig[1:] * psi[:-2]
    worst_up = (np.max(np.abs(up - target_up), axis=1) / np.max(np.abs(target_up), axis=1)).max(initial=0.0)
    worst_dn = (np.max(np.abs(dn[1:] - target_dn), axis=1) / np.max(np.abs(target_dn), axis=1)).max(initial=0.0)
    checks.append(_result("ladder-raising", "raising-eigenvalue", worst_up, 1e-9, ov))
    checks.append(_result("ladder-lowering", "lowering-eigenvalue", worst_dn, 1e-9, ov))
    checks.append(_result("ground-annihilation", "lowering-kills-ground", np.max(np.abs(dn[0])), 1e-10, ov))

    r = commutator_residual(shared, config, grid=grid)[:-1].max()
    checks.append(_result("commutator", "ladder-commutator", r, 1e-9, ov))
    del grid, psi, u, du  # release the shared rows before the coherent states are built

    # relative to gamma0^2, the size of the terms the Casimir value is a difference of
    r = np.max(np.abs(casimir_eigenvalue(levels, config) - (L * L - 0.25)) / g0[:, 0] ** 2)
    checks.append(_result("casimir-constancy", "casimir-invariant", r, 1e-12, ov))

    # coherent states, each label built once: the first three are normalized
    # and the last three are annihilation eigenstates
    coherent = [build_coherent_state(z, config) for z in (2.0, 5.0, 0.5, 1.0 + 1.0j, 3.0 * np.exp(0.25j * np.pi))]
    r = max(abs(1.0 - cs.norm_sq) for cs in coherent[:3])
    checks.append(_result("coherent-normalization", "unit-weight-sum", r, 1e-12, ov))
    r = max(lowering_eigenstate_residual(cs) for cs in coherent[2:])
    checks.append(_result("lowering-eigenstate", "annihilation-eigenrelation", r, 1e-10, ov))

    # completeness over the label plane: the diagonal moments, each normalized by its closed form, equal 1.  One
    # pass over the K-grid takes levels 0..max(nmax, 7): identity-resolution reads 0..nmax, radial-closed-form 0, 3, 7
    top = max(config.nmax, 7)
    moments = resolution_of_identity_check(range(top + 1), range(top + 1), config,
                                           default_r_max(2.0 * top + 2.0 * L + 1.0))
    r = np.max(np.abs(moments[: config.nmax + 1] - 1.0))
    checks.append(_result("identity-resolution", "label-plane-completeness", r, 1e-7, ov))
    r = np.max(np.abs(moments[[0, 3, 7]] - 1.0))
    checks.append(_result("radial-closed-form", "k-weighted-moments", r, 1e-9, ov))

    # special-function layer: Wronskian, half-order closed forms, rule exactness
    r = 0.0
    for nu in (0.3, 1.0, 2.5, 4.0):
        for x in (0.7, 3.0, 11.0):
            w = x * (bessel_i(nu, x) * bessel_k(nu + 1.0, x) + bessel_i(nu + 1.0, x) * bessel_k(nu, x))
            r = max(r, abs(w - 1.0))
    checks.append(_result("bessel-wronskian", "cross-product-identity", r, 1e-10, ov))

    r = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        i_half = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        k_half = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        r = max(r, abs(bessel_i(0.5, x) - i_half) / i_half)
        r = max(r, abs(bessel_k(0.5, x) - k_half) / k_half)
    checks.append(_result("half-order-bessel", "elementary-closed-forms", r, 1e-12, ov))

    rule40 = gauss_legendre(40)
    r = 0.0
    for m in range(0, 65, 2):
        quad = float(np.dot(rule40.weights, rule40.nodes**m))
        r = max(r, abs(quad - 2.0 / (m + 1.0)))
    checks.append(_result("quadrature-exactness", "polynomial-exactness", r, 1e-12, ov))

    r = 0.0
    for m, x in ((1.0, 0.6), (2.0, 1.5), (5.0, 3.0), (2.0 * L, 2.0)):
        total, n = 0.0, 0
        while True:
            t = math.exp((2 * n + m) * math.log(x) - math.lgamma(n + 1.0) - math.lgamma(n + m + 1.0))
            total += t
            if n > 3 and t <= 1e-20 * total:  # <=, so that a sum whose terms all underflow ends too
                break
            n += 1
        ref = bessel_i(m, 2.0 * x)
        r = max(r, abs(total - ref) / ref)
    checks.append(_result("bessel-sum-identity", "weight-series-resummation", r, 1e-12, ov))

    return VerificationReport(REPORT_VERSION, config.to_dict(), checks)
