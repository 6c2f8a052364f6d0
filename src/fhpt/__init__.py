"""Quantized-momentum states of a trigonometric secant-squared well.

The package derives the discrete momentum spectrum and normalized states of
an oscillator-like equation in a time coordinate, equips the level ladder
with first-order raising and lowering maps realizing an su(1,1) algebra,
builds annihilation-eigenstate superpositions over the ladder, and verifies
every identity numerically through a named check suite (also exposed as the
``fhpt`` command line tool).
"""

from .algebra import (
    LadderCoefficients,
    apply_lowering,
    apply_raising,
    casimir_eigenvalue,
    commutator_residual,
    ladder_coefficients,
)
from .checks import CheckConfig, CheckResult, VerificationReport, run_checks
from .coherent import (
    CoherentState,
    build_coherent_state,
    general_expectation,
    lowering_eigenstate_residual,
    radial_weight_moment,
    resolution_of_identity_check,
)
from .errors import ConvergenceError, DomainError, IntegrationError
from .model import (
    BasisState,
    PotentialParams,
    build_basis_state,
    derive_a_prime,
    eval_state,
    momentum_level,
    overlap,
    residual_ode,
)
from .quadrature import (
    QuadratureRule,
    TruncationWarning,
    gauss_legendre,
    integrate_semi_infinite_k_weight,
)
from .special import (
    bessel_i,
    bessel_k,
    gamma_fn,
    gegenbauer_poly,
    gegenbauer_value,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BasisState",
    "CheckConfig",
    "CheckResult",
    "CoherentState",
    "ConvergenceError",
    "DomainError",
    "IntegrationError",
    "LadderCoefficients",
    "PotentialParams",
    "QuadratureRule",
    "TruncationWarning",
    "VerificationReport",
    "apply_lowering",
    "apply_raising",
    "bessel_i",
    "bessel_k",
    "build_basis_state",
    "build_coherent_state",
    "casimir_eigenvalue",
    "commutator_residual",
    "derive_a_prime",
    "eval_state",
    "gamma_fn",
    "gauss_legendre",
    "gegenbauer_poly",
    "gegenbauer_value",
    "general_expectation",
    "integrate_semi_infinite_k_weight",
    "ladder_coefficients",
    "log_gamma",
    "lowering_eigenstate_residual",
    "momentum_level",
    "overlap",
    "radial_weight_moment",
    "residual_ode",
    "resolution_of_identity_check",
    "run_checks",
]
