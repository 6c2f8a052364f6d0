"""The named check suite as a unit: coverage, report shape, overrides."""

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest

from fhpt import checks, coherent, model, quadrature, special
from fhpt.algebra import apply_lowering, apply_raising, commutator_residual
from fhpt.checks import CheckConfig, run_checks
from fhpt.errors import DomainError
from fhpt.model import PotentialParams, _grid_rows, build_basis_state, overlap, residual_ode
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


@pytest.mark.parametrize("A", (0.65, 2.0, 21.0, 60.9, 98.7))
def test_casimir_constancy_covers_every_level_to_nmax(A):
    # levels 0..99, relative to gamma0^2: the Casimir value is a difference of terms of that size, so an
    # absolute residual fails on rounding alone at large wells
    got = {c.name: c for c in run_checks(CheckConfig(A=A, nmax=99)).checks}
    assert got["casimir-constancy"].passed and got["casimir-constancy"].residual <= 1e-15


@pytest.mark.parametrize("A, failing", [(60.9, {"radial-closed-form"}),
                                        (98.7, {"identity-resolution", "radial-closed-form"})])
def test_large_wells_fail_only_at_the_k_mesh_edge(A, failing):
    # the scaled Casimir residual passes here; what fails is the power-law lower tail of the K mesh
    report = run_checks(CheckConfig(A=A))
    assert {c.name for c in report.checks if not c.passed} == failing


def test_run_at_a_fast_time_scale_passes():
    # the ODE residual is relative to the c1^2 scale of the equation, so a correct well passes at c1 = 100
    assert run_checks(CheckConfig(c1=100.0)).passed


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
    config = CheckConfig(nmax=4, quad_order=80)
    report = run_checks(config)
    assert list(report.config.items()) == list(dataclasses.asdict(config).items())
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
        for levels in ([], range(0), *(range(nmax + 1) for nmax in (0, 1, 10, 99))):
            rows = residual(levels, p)
            assert rows.shape == (len(levels),) and np.array_equal(rows, single[: len(levels)])


def _record_calls(monkeypatch, name: str, source=special) -> list:
    # wrap every binding of a function of `source` in the fhpt modules, as the
    # benchmark's span tracer does, and return the list of recorded calls
    calls = []
    original = getattr(source, name)
    for module in [m for key, m in sys.modules.items() if key == "fhpt" or key.startswith("fhpt.")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or original(*args, **kw))
    return calls


def test_level_checks_run_one_recurrence_per_grid(monkeypatch):
    # the count must not grow with nmax: three recurrences (u, u', u'') for the
    # level grid that the ODE, ladder and commutator checks share, and one for
    # the nodes of both Gram rules.  The first run fills the Gauss-Legendre rule
    # cache, whose Newton steps run the lam = 1/2 recurrence
    run_checks(CheckConfig(nmax=10))
    calls = _record_calls(monkeypatch, "gegenbauer_value")
    counts = []
    for nmax in (10, 45):
        calls.clear()
        run_checks(CheckConfig(nmax=nmax))
        counts.append(len(calls))
    assert counts == [4, 4]


def test_moment_checks_make_one_integrator_call_each(monkeypatch):
    # one pass over the K-grid takes the normalized moments of levels 0..max(nmax, 7): identity-resolution
    # reads levels 0..nmax of it and radial-closed-form levels 0, 3 and 7, at any nmax
    run_checks(CheckConfig(nmax=45))
    calls = _record_calls(monkeypatch, "integrate_semi_infinite_k_weight", quadrature)
    counts = []
    for nmax in (10, 45):
        calls.clear()
        run_checks(CheckConfig(nmax=nmax))
        counts.append(len(calls))
    assert counts == [1, 1]


def _warm_up_at_another_strength() -> None:
    # fills the rule cache and leaves only the grids at A = 3 cached
    _k_weighted_grid.cache_clear()
    run_checks(CheckConfig(A=3.0))


@pytest.mark.parametrize(
    "A,nmax,grids", [(2.0, 10, 2), (4.15, 10, 2), (21.0, 10, 1), (41.0, 10, 1), (21.0, 6, 1), (21.0, 0, 1), (2.0, 0, 2)]
)
def test_cold_run_builds_one_grid_per_well(A, nmax, grids):
    # identity-resolution and radial-closed-form integrate on one cutoff and grid at every nmax; at
    # small 2L a one-panel lower-tail grid is added
    _warm_up_at_another_strength()
    before = _k_weighted_grid.cache_info().misses
    run_checks(CheckConfig(A=A, nmax=nmax))
    assert _k_weighted_grid.cache_info().misses - before == grids


def test_default_run_builds_each_state_once(monkeypatch):
    # 12 basis states for the level grid that the ODE, ladder and commutator checks share, and 11 for
    # the one overlap call of both Gram rules; five distinct coherent labels
    basis = _record_calls(monkeypatch, "build_basis_state", model)
    labels = _record_calls(monkeypatch, "build_coherent_state", coherent)
    gram = _record_calls(monkeypatch, "overlap", model)
    run_checks()
    assert (len(basis), len(labels), len(gram)) == (23, 5, 1)


@pytest.mark.parametrize("A", [0.65, 2.0, 21.0])
def test_residuals_on_the_shared_grid_equal_their_own(A):
    # verify hands one grid of levels 0..nmax + 1 to every level check, and each keeps rows 0..nmax of its
    # result: those equal each function's own call on 0..nmax, bit for bit
    p = PotentialParams(A=A)
    for nmax in (0, 10, 98):
        levels, shared = range(nmax + 1), range(nmax + 2)
        grid = _grid_rows(shared, p)
        for residual in (residual_ode, commutator_residual):
            assert residual(shared, p, grid=grid)[:-1].tobytes() == residual(levels, p).tobytes()
        states, y, _, _, u, du, _ = grid
        own = [build_basis_state(k, p) for k in levels]
        for apply in (apply_raising, apply_lowering):
            got, want = apply(states)(y, (u, du))[:-1], apply(own)(y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("residual", [residual_ode, commutator_residual])
def test_a_grid_of_other_levels_or_another_well_is_rejected(residual):
    p = PotentialParams(A=2.0)
    cases = [
        (_grid_rows([5, 6], p), r"grid holds levels \[5, 6\] of L=\[1.5\], not levels \[0, 1\] of L=\[1.5\]"),
        (_grid_rows([0, 1, 2], p), r"grid holds levels \[0, 1, 2\] of L=\[1.5\], not levels \[0, 1\]"),
        (_grid_rows([0, 1], PotentialParams(A=3.0)), r"grid holds levels \[0, 1\] of L=\[2.5\], not .* of L=\[1.5\]"),
    ]
    for grid, message in cases:
        with pytest.raises(DomainError, match=message):
            residual([0, 1], p, grid=grid)
    assert residual([0, 1], p, grid=_grid_rows([0, 1], p)).tobytes() == residual([0, 1], p).tobytes()


def test_a_level_that_vanishes_on_the_grid_is_rejected():
    # from A ~ 2.58e7 cos^lam underflows at every grid point but tau = 0, where the odd levels are zero
    p = PotentialParams(A=3e7)
    assert residual_ode(0, p) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for residual in (residual_ode, commutator_residual):
            with pytest.raises(DomainError, match=r"level 1 of the well A=30000000.0 is 0.0 at every grid point"):
                residual(range(4), p)


@pytest.mark.parametrize("A", [2.0, 21.0])
def test_three_tail_probes_per_integrator_call(monkeypatch, A):
    # 28 scalar K values belong to the Bessel checks, and the one integrator
    # call adds its three tail probes, cold or warm; the lower-tail grid of
    # small 2L adds none
    _warm_up_at_another_strength()
    calls = _record_calls(monkeypatch, "bessel_k")
    run_checks(CheckConfig(A=A))
    assert len(calls) == 31
    calls.clear()
    run_checks(CheckConfig(A=A))
    assert len(calls) == 31


@pytest.mark.parametrize("A,nmax", [(45.0, 10), (2.0, 60), (2.0, 99)])
def test_runs_past_the_former_moment_overflow_pass(A, nmax):
    # the raw powers r^mu overflowed here once mu passed about 100; the rows normalized in the row do not
    assert run_checks(CheckConfig(A=A, nmax=nmax)).passed


@pytest.mark.parametrize("A,nmax,failing", [
    (21.0, 99, {"gram-identity", "gram-order-doubling"}),  # order 200 under-resolves the Gram of levels near 99
    (60.0, 10, {"radial-closed-form"}),  # the power law below the mesh edge e_nu is 2.5e-8 high
])
def test_runs_past_the_former_moment_overflow_fail_only_their_known_checks(A, nmax, failing):
    report = run_checks(CheckConfig(A=A, nmax=nmax))
    assert {c.name for c in report.checks if not c.passed} == failing


def test_bessel_sum_bound_is_where_its_reference_leaves_the_normal_range():
    # 2L = 2A - 1 in natural units; I_2L(4) is a normal double at the bound and subnormal just past it
    assert special.bessel_i(checks._MAX_SUM_ORDER, 4.0) >= sys.float_info.min > special.bessel_i(196.49, 4.0)
    CheckConfig(A=98.74)  # 2L = 196.48
    for A in (98.75, 150.0, 1e6):
        with pytest.raises(DomainError, match=r"gives 2L=.*; verify needs 2L <= 196.48, where bessel-sum-identity"):
            CheckConfig(A=A)


def test_bessel_sum_identity_holds_up_to_the_bound():
    # its terms are formed in log space, so no Gamma overflows below the bound; the sum keeps rounding accuracy
    report = run_checks(CheckConfig(A=98.0, nmax=0))
    assert {c.name: c.residual for c in report.checks}["bessel-sum-identity"] < 1e-13


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
