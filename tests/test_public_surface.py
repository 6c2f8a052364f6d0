"""The package's public names come from its submodules' ``__all__`` lists."""

import subprocess
import sys
import types

import pytest

import fhpt

SUBMODULES = ("algebra", "checks", "coherent", "errors", "model", "quadrature", "special")

# the names the package exported when it listed them by hand, plus
# default_r_max, which quadrature already declared public
EXPECTED = {
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
    "gauss_legendre",
    "gegenbauer_poly",
    "gegenbauer_value",
    "general_expectation",
    "integrate_semi_infinite_k_weight",
    "ladder_coefficients",
    "lowering_eigenstate_residual",
    "momentum_level",
    "overlap",
    "radial_weight_moment",
    "residual_ode",
    "resolution_of_identity_check",
    "run_checks",
    "default_r_max",
}


def test_package_exports_the_union_of_submodule_lists():
    union = set()
    for module in SUBMODULES:
        mod = getattr(fhpt, module)
        union.update(mod.__all__)
        for name in mod.__all__:
            assert getattr(fhpt, name) is getattr(mod, name), name
    assert fhpt.__all__ == sorted(union)


def test_package_exports_the_expected_names():
    assert set(fhpt.__all__) == EXPECTED


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_lists_name_only_public_objects(module):
    mod = getattr(fhpt, module)
    for name in mod.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(mod, name), types.ModuleType), name


def test_import_loads_the_seven_submodules_and_not_the_cli():
    code = (
        "import sys, fhpt; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('fhpt.'))))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert set(res.stdout.split()) == {f"fhpt.{m}" for m in SUBMODULES}
