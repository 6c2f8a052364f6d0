"""The named check suite as a unit: coverage, report shape, overrides."""

import json

import pytest

from fhpt.algebra import commutator_residual
from fhpt.checks import CheckConfig, run_checks
from fhpt.errors import DomainError
from fhpt.model import PotentialParams, residual_ode

EXPECTED_CHECKS = {
    "ode-residual",
    "spectrum-square-law",
    "gram-identity",
    "gram-order-doubling",
    "ladder-raising",
    "ladder-lowering",
    "ground-annihilation",
    "commutator",
    "casimir-constancy",
    "coherent-normalization",
    "lowering-eigenstate",
    "identity-resolution",
    "radial-closed-form",
    "bessel-wronskian",
    "half-order-bessel",
    "quadrature-exactness",
    "bessel-sum-identity",
}


def test_default_run_passes_everything():
    report = run_checks()
    assert report.passed
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    assert all(c.passed for c in report.checks)
    assert report.version == "fhpt-report/1"


def test_run_at_other_well_strength():
    report = run_checks(CheckConfig(A=3.7, nmax=6, quad_order=120))
    assert report.passed
    assert report.config["A"] == 3.7


def test_tolerance_override_applies_to_every_check():
    report = run_checks(CheckConfig(nmax=4, quad_order=80, tol_override=1e-30))
    assert not report.passed
    assert all(c.tol == 1e-30 for c in report.checks)
    # only identities that hold in exact float arithmetic may survive
    for c in report.checks:
        if c.passed:
            assert c.residual == 0.0


def test_report_serializes():
    report = run_checks(CheckConfig(nmax=4, quad_order=80))
    payload = report.to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["pass"] is True
    assert set(back["config"]) == {"A", "c1", "m0", "c", "hbar", "nmax", "quad_order", "tol_override"}
    for row in back["checks"]:
        assert set(row) == {"name", "identity", "residual", "tol", "pass"}
        assert isinstance(row["residual"], float)


def test_level_checks_cover_every_level_up_to_nmax():
    report = run_checks(CheckConfig(nmax=30))
    assert report.passed
    got = {c.name: c.residual for c in report.checks}
    p = PotentialParams(A=2.0)
    assert got["ode-residual"] == max(residual_ode(n, p) for n in range(31))
    assert got["commutator"] == max(commutator_residual(n, p) for n in range(31))


@pytest.mark.parametrize("nmax", [-1, 100, 1000, True, 2.0, "3"])
def test_nmax_outside_the_level_range_is_rejected(nmax):
    with pytest.raises(DomainError):
        CheckConfig(nmax=nmax)
