"""The named check suite as a unit: coverage, report shape, overrides."""

import json
import math
import sys

import numpy as np
import pytest

from fhpt import coherent, model, special
from fhpt.algebra import commutator_residual
from fhpt.checks import CheckConfig, _levels_on, run_checks
from fhpt.errors import DomainError
from fhpt.model import PotentialParams, _grid_rows, overlap, residual_ode
from fhpt.quadrature import _k_weighted_grid, gauss_legendre

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


@pytest.mark.parametrize("nmax", [0, 1])
def test_smallest_level_budgets_pass(nmax):
    # at nmax = 0 no level has a lowering target, and the ground row is exactly zero
    report = run_checks(CheckConfig(nmax=nmax))
    assert report.passed
    got = {c.name: c.residual for c in report.checks}
    assert got["ground-annihilation"] == 0.0
    assert (got["ladder-lowering"] == 0.0) == (nmax == 0)


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
    gram = overlap(range(31), range(31), p, gauss_legendre(200))
    assert got["gram-identity"] == np.max(np.abs(gram - np.eye(31)))


def test_gram_checks_build_each_level_once_per_rule(monkeypatch):
    # each Gram rule builds one state per level, not two per pair
    built = []
    original = model.BasisState
    monkeypatch.setattr(model, "BasisState", lambda *fields: built.append(fields[0]) or original(*fields))
    run_checks(CheckConfig(nmax=30))
    assert len(built) <= 310


def test_each_well_derives_its_shape_exponent_once(monkeypatch):
    # the configured well (a CheckConfig is one) and the unit well of spectrum-square-law
    calls = []
    original = model.derive_a_prime
    monkeypatch.setattr(model, "derive_a_prime", lambda params: calls.append(params) or original(params))
    report = run_checks(CheckConfig())
    assert report.passed
    assert [(type(p), p.A) for p in calls] == [(CheckConfig, 2.0), (PotentialParams, 1.0)]


@pytest.mark.parametrize("A", [0.65, 2.0, 3.7, 2.000025, 9.185])
def test_level_ranged_residuals_equal_per_level_calls(A):
    p = PotentialParams(A=A)
    for residual in (residual_ode, commutator_residual):
        single = [residual(n, p) for n in range(100)]
        for nmax in (0, 1, 10, 99):
            assert np.array_equal(residual(range(nmax + 1), p), single[: nmax + 1])


def _record_calls(monkeypatch, name: str, source=special) -> list:
    # wrap every binding of a function of `source` in the fhpt modules, as the
    # benchmark's span tracer does, and return the list of recorded calls
    calls = []
    original = getattr(source, name)
    for module in [m for key, m in sys.modules.items() if key == "fhpt" or key.startswith("fhpt.")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_level_checks_run_one_recurrence_per_grid(monkeypatch):
    # the count must not grow with nmax: three recurrences (u, u', u'') for the
    # level grid that the ODE, ladder and commutator checks share, and one for
    # each Gram rule.  The first run fills the Gauss-Legendre rule cache, whose
    # Newton steps run the lam = 1/2 recurrence
    run_checks(CheckConfig(nmax=10))
    calls = _record_calls(monkeypatch, "gegenbauer_value")
    counts = []
    for nmax in (10, 45):
        calls.clear()
        run_checks(CheckConfig(nmax=nmax))
        counts.append(len(calls))
    assert counts == [5, 5]


def _warm_up_at_another_strength() -> None:
    # fills the rule cache and leaves only the grids at A = 3 cached
    _k_weighted_grid.cache_clear()
    run_checks(CheckConfig(A=3.0))


@pytest.mark.parametrize("A,nmax,grids", [(2.0, 10, 2), (4.15, 10, 2), (21.0, 10, 1), (41.0, 10, 1), (21.0, 6, 2)])
def test_cold_run_builds_one_grid_per_well(A, nmax, grids):
    # from nmax = 7 up, radial-closed-form integrates on identity-resolution's
    # cutoff and grid, below it on its own larger one; at small 2L a one-panel
    # lower-tail grid is added
    _warm_up_at_another_strength()
    before = _k_weighted_grid.cache_info().misses
    run_checks(CheckConfig(A=A, nmax=nmax))
    assert _k_weighted_grid.cache_info().misses - before == grids


def test_default_run_builds_each_state_once(monkeypatch):
    # 12 basis states for the level grid that the ODE, ladder and commutator checks share, and 11 for
    # each Gram rule; five distinct coherent labels
    basis = _record_calls(monkeypatch, "build_basis_state", model)
    labels = _record_calls(monkeypatch, "build_coherent_state", coherent)
    run_checks()
    assert (len(basis), len(labels)) == (34, 5)


def test_shared_grid_thins_to_the_coarser_grids():
    # every second and every fourth of 401 points are the 201- and 101-point grids, bit for bit
    a, b = -0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05
    fine = np.linspace(a, b, 401)
    assert fine[::2].tobytes() == np.linspace(a, b, 201).tobytes()
    assert fine[::4].tobytes() == np.linspace(a, b, 101).tobytes()


@pytest.mark.parametrize("A", [0.65, 2.0, 21.0])
def test_shared_grid_rows_equal_each_checks_own_rows(A):
    p = PotentialParams(A=A)
    grid = _grid_rows(range(12), p, 401)
    for step, points in ((1, 401), (2, 201), (4, 101)):
        shared, own = _levels_on(grid, step), _grid_rows(range(11), p, points)
        assert [vars(s) for s in shared[0]] == [vars(s) for s in own[0]]
        for got, want in zip(shared[1:], own[1:]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("A", [0.65, 2.0, 21.0])
def test_residuals_on_the_shared_grid_equal_their_own(A):
    p = PotentialParams(A=A)
    grid = _grid_rows(range(12), p, 401)
    levels = range(11)
    assert residual_ode(levels, p, grid=_levels_on(grid, 1)).tobytes() == residual_ode(levels, p).tobytes()
    got = commutator_residual(levels, p, grid=_levels_on(grid, 2))
    assert got.tobytes() == commutator_residual(levels, p).tobytes()


@pytest.mark.parametrize("A,cold", [(2.0, 31), (21.0, 31)])
def test_tail_probes_come_with_the_grid(monkeypatch, A, cold):
    # 28 scalar K values belong to the Bessel checks; the cold main grid adds
    # its three tail probes once, the lower-tail grid of small 2L none, and a
    # warm run none
    _warm_up_at_another_strength()
    calls = _record_calls(monkeypatch, "bessel_k")
    run_checks(CheckConfig(A=A))
    assert len(calls) == cold
    calls.clear()
    run_checks(CheckConfig(A=A))
    assert len(calls) == 28


@pytest.mark.parametrize("nmax", [-1, 100, 1000, True, 2.0, "3"])
def test_nmax_outside_the_level_range_is_rejected(nmax):
    with pytest.raises(DomainError):
        CheckConfig(nmax=nmax)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True])
def test_tol_override_must_be_positive_and_finite(tol):
    with pytest.raises(DomainError, match="tol_override"):
        CheckConfig(tol_override=tol)


@pytest.mark.parametrize("order", [0, 2049, 3000, True, 200.0])
def test_quad_order_outside_the_rule_range_is_rejected(order):
    # gram-order-doubling builds a rule of twice quad_order, at most 4096
    with pytest.raises(DomainError, match=r"quad_order must be an integer in \[1, 2048\]"):
        CheckConfig(quad_order=order)
    assert CheckConfig(quad_order=2048).quad_order == 2048
