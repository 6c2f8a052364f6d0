"""Rule construction and the K-weighted integrator."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fhpt import quadrature
from fhpt.checks import CheckConfig, run_checks
from fhpt.coherent import resolution_of_identity_check
from fhpt.errors import DomainError, IntegrationError
from fhpt.model import PotentialParams
from fhpt.quadrature import (
    TruncationWarning,
    _K_PANELS,
    _k_weighted_grid,
    default_r_max,
    gauss_legendre,
    integrate_semi_infinite_k_weight,
)
from fhpt.special import _bessel_k_array, bessel_k


def test_single_point_rule():
    rule = gauss_legendre(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_nodes_sorted_symmetric_weights_sum():
    for order in (2, 5, 16, 101):
        rule = gauss_legendre(order)
        assert len(rule.nodes) == order
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.abs(rule.nodes) < 1.0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) == 0.0
        assert abs(np.sum(rule.weights) - 2.0) < 1e-14


def test_monomial_exactness():
    # an m-point rule integrates degrees up to 2m - 1 exactly
    for order in (2, 8, 33, 64):
        rule = gauss_legendre(order)
        for deg in range(0, 2 * order, 2):
            exact = 2.0 / (deg + 1.0)
            got = float(np.dot(rule.weights, rule.nodes**deg))
            assert abs(got - exact) < 5e-13
        odd = float(np.dot(rule.weights, rule.nodes**3))
        assert abs(odd) < 1e-16


def test_matches_scipy_nodes():
    for order in (64, 256):
        rule = gauss_legendre(order)
        ref_x, ref_w = sps.roots_legendre(order)
        assert np.max(np.abs(rule.nodes - ref_x)) < 1e-14
        assert np.max(np.abs(rule.weights - ref_w)) < 1e-13


def test_rule_is_cached_and_readonly():
    a = gauss_legendre(17)
    assert gauss_legendre(17) is a
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


def test_rule_order_domain():
    with pytest.raises(DomainError):
        gauss_legendre(0)
    with pytest.raises(DomainError):
        gauss_legendre(4097)


def test_default_r_max_floor_and_growth():
    assert default_r_max(0.0) == 30.0
    assert default_r_max(10.0) == 105.0


def _closed_moment(mu, nu):
    return 0.25 * math.gamma(0.5 * (1.0 + mu + nu)) * math.gamma(0.5 * (1.0 + mu - nu))


@pytest.mark.parametrize(
    "mu,nu",
    [(1.5, 0.8), (3.0, 0.0), (5.5, 2.4), (0.5, 1.2), (10.2, 3.0), (21.5, 4.0), (53.3, 0.5)],
)
def test_k_weighted_moments_match_closed_form(mu, nu):
    # at (53.3, 0.5) the lower-tail piece T underflows to 0.0 from a subnormal probe
    got = integrate_semi_infinite_k_weight(lambda r: r**mu, nu, r_max=default_r_max(mu))
    exact = _closed_moment(mu, nu)
    assert got == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize(
    "mu,nu",
    [(0.4, 1.39), (0.1, 1.05), (0.05, 1.0), (91.0, 45.0), (81.0, 80.0)],
)
def test_k_weighted_lower_tail_closed_form(mu, nu):
    # mu + 1 - nu down to 0.01 leaves much of the integral below r = 1e-6;
    # at nu = 45 and 80 the mesh starts where K_nu(2 r) nears the double range
    exact = mpmath.gamma((1.0 + mu + nu) / 2.0) * mpmath.gamma((1.0 + mu - nu) / 2.0) / 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        got = integrate_semi_infinite_k_weight(lambda r: r**mu, nu, r_max=default_r_max(mu))
    assert got == pytest.approx(float(exact), rel=1e-9)


def test_k_weighted_warns_on_tight_cutoff():
    with pytest.warns(TruncationWarning):
        integrate_semi_infinite_k_weight(lambda r: r**8.0, 0.5, r_max=3.0)


def test_k_weighted_warns_near_divergence():
    # r^0.2 K_1.5(2 r) ~ r^-1.3 toward 0: the integral diverges
    with pytest.warns(TruncationWarning, match="diverge"):
        integrate_semi_infinite_k_weight(lambda r: r**0.2, 1.5, r_max=30.0)


def test_k_weighted_rejects_bad_scale():
    with pytest.raises(DomainError):
        integrate_semi_infinite_k_weight(lambda r: r, 1.0, r_max=1e-7)


def test_k_weighted_rejects_non_finite_integrand():
    # the message names the first bad node as a plain float
    nodes, _ = _k_weighted_grid(0.5, 1e-6, 30.0, _K_PANELS)
    bad = float(nodes[nodes > 5.0][0])
    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(lambda r: np.where(r > 5.0, np.inf, r), 0.5, r_max=30.0)
    assert str(err.value) == f"integrand returned a non-finite value at node {bad!r}"
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize(
    "bad", [lambda r: np.exp(np.where(r >= 30.0, 1000.0, 0.0)), lambda r: np.where(r >= 30.0, np.nan, r)], ids=["inf", "nan"]
)
def test_k_weighted_rejects_non_finite_upper_probe(bad):
    # finite on every node, which all lie below r_max, but not at the upper tail probe r = r_max: an
    # overflow used to print numpy's warning, and a NaN passed the tail test unnoticed
    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(bad, 0.5, r_max=30.0)
    assert str(err.value) == "integrand returned a non-finite value at probe 30.0"


def test_k_weighted_upper_probe_with_underflowed_weight_contributes_zero():
    # K_0.5(2 r_max) underflows to 0.0 at r_max = 400, so an infinite integrand there adds nothing
    got = integrate_semi_infinite_k_weight(lambda r: np.where(r >= 400.0, np.inf, 1.0), 0.5, r_max=400.0)
    assert got == integrate_semi_infinite_k_weight(np.ones_like, 0.5, r_max=400.0)


def test_nodes_whose_k_weight_is_zero_are_not_evaluated():
    # K_0.5(2 r) is 0.0 past r ~ 373, so an integrand that is infinite only past r = 380 adds nothing there
    got = integrate_semi_infinite_k_weight(lambda r: np.where(r > 380.0, np.inf, 1.0), 0.5, r_max=1000.0)
    assert got == integrate_semi_infinite_k_weight(np.ones_like, 0.5, r_max=1000.0)


def test_a_mesh_with_no_live_node_raises():
    # at 2L = 2e6 every K weight on [e_nu, r_max] underflows; nothing is left to integrate
    with pytest.raises(IntegrationError, match=r"^every K weight on \[.+, 20000000.0\] is 0.0 at nu=2000000.0$"):
        integrate_semi_infinite_k_weight(np.ones_like, 2e6, r_max=2e7)


def test_k_grid_cache_is_bounded():
    for k in range(40):
        integrate_semi_infinite_k_weight(lambda r: r**3.0, 0.5 + 0.01 * k, r_max=30.0)
    info = _k_weighted_grid.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32
    nodes, wk = _k_weighted_grid(0.89, 1e-6, 30.0, 32)
    assert _k_weighted_grid(0.89, 1e-6, 30.0, 32)[1] is wk


@pytest.mark.parametrize(
    "nu,lo,hi,n_panels", [(3.0, 1e-6, 185.0, 32), (0.3, 1e-12, 1e-6, 3), (45.0, 0.0314, 940.0, 32), (4.0, 1e-6, 235.0, 8)]
)
def test_k_grid_matches_per_panel_assembly(nu, lo, hi, n_panels):
    # the per-panel expressions the broadcast replaced, kept as the reference; the grid holds only these
    rule = gauss_legendre(80)
    edges = np.geomspace(lo, hi, n_panels + 1)
    panels = list(zip(edges[:-1], edges[1:]))
    ref_nodes = np.concatenate([0.5 * (l + h) + 0.5 * (h - l) * rule.nodes for l, h in panels])
    ref_weights = np.concatenate([0.5 * (h - l) * rule.weights for l, h in panels])
    ref_wk = ref_weights * _bessel_k_array(nu, 2.0 * ref_nodes)
    live = ref_wk > 0.0  # all but the 224 nodes of the 45.0 case past r ~ 371, where K_45(2 r) underflows
    nodes, wk = _k_weighted_grid(nu, lo, hi, n_panels)
    assert np.array_equal(nodes, ref_nodes[live])
    assert np.array_equal(wk, ref_wk[live])


@pytest.mark.parametrize("nu", [0.3, 3.0])
def test_tail_probes_are_taken_on_every_call(monkeypatch, nu):
    # the integrator takes its three tail probes K_nu(2 r) at r = r_max, lo and 2 lo with the public bessel_k
    # on each call, a warm grid included; r^(nu - 0.5) takes lower-tail panels as well, which take none
    probes = []
    monkeypatch.setattr(quadrature, "bessel_k", lambda v, x: probes.append((v, x)) or bessel_k(v, x))
    for _ in range(2):
        integrate_semi_infinite_k_weight(lambda r: r ** (nu - 0.5), nu, r_max=185.0)
    assert probes == 2 * [(nu, 370.0), (nu, 2e-6), (nu, 4e-6)]


@functools.lru_cache(maxsize=None)
def _verify_k_moments(A):
    # the identity-resolution diagonal as verify takes it at nmax 10, on the one K-grid
    params = PotentialParams(A=A)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        return resolution_of_identity_check(range(11), range(11), params, default_r_max(20.0 + 2.0 * params.L + 1.0))


@pytest.mark.parametrize("A", [0.55, 2.0, 10.5, 21.25])
def test_k_moments_reach_rounding_on_the_one_grid(A):
    # the diagonal and the three radial-closed-form moments verify takes at nmax 10 reach rounding
    moments = _verify_k_moments(A)
    assert np.max(np.abs(moments - 1.0)) < 1e-12
    L = PotentialParams(A=A).L
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for k in (0, 3, 7):
            mu = 2.0 * k + 2.0 * L + 1.0
            got = integrate_semi_infinite_k_weight(lambda r: r**mu, 2.0 * L, r_max=default_r_max(20.0 + 2.0 * L + 1.0))
            exact = mpmath.gamma((1 + mpmath.mpf(mu) + 2 * L) / 2) * mpmath.gamma((1 + mpmath.mpf(mu) - 2 * L) / 2) / 4
            assert abs(got / exact - 1) < 1e-12


@pytest.mark.parametrize("order", [10, 20, 40, 80, 200, 2048])
@pytest.mark.parametrize("A", [0.55, 2.0, 10.5, 21.25])
def test_k_moments_reach_rounding_at_every_rule_order(order, A):
    # verify's rule order sets only its Gram rules: at every order it reports the one K-grid's moments bit for bit
    moments = _verify_k_moments(A)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        report = {c.name: c.residual for c in run_checks(CheckConfig(A=A, nmax=10, quad_order=order)).checks}
    assert report["identity-resolution"] == np.max(np.abs(moments - 1.0)) < 1e-12
    assert report["radial-closed-form"] == np.max(np.abs(moments[[0, 3, 7]] - 1.0))


@pytest.mark.parametrize("two_l", [0.3, 2.0, 20.00005, 41.5, 60.0])
def test_k_moments_at_verify_rule_reach_rounding_at_every_level(two_l):
    # the one K-grid, 8 panels of the 80-point rule: at nmax 99, every normalized moment is 1 to rounding
    # (measured at most 2.9e-13, at 2L = 60)
    params = PotentialParams(A=0.5 * (two_l + 1.0))  # 2L = 2A - 1 in natural units
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        r_max = default_r_max(2.0 * 99 + 2.0 * params.L + 1.0)
        moments = resolution_of_identity_check(range(100), range(100), params, r_max)
    assert np.max(np.abs(moments - 1.0)) < 1e-12


def _recorded(call) -> tuple[object, list]:
    # the value of call() and its warnings as (category, text, file), each shown
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        value = call()
    return value, [(w.category, str(w.message), w.filename) for w in seen]


@pytest.mark.parametrize(
    "nu,r_max,mus", [(0.3, 30.0, (-0.9, 0.35, 2.0, 40.0)), (21.0, 30.0, (20.5, 25.0, 30.0, 60.0))], ids=["2L=0.3", "2L=21"]
)
def test_row_valued_integrand_equals_its_own_rows(nu, r_max, mus):
    # one row per integrand in one pass over the grid: each row is its own call bit for bit, with the same
    # warnings in the same order, and the caller named as their source.  Row 1 takes the lower-tail
    # panels, the last row meets the upper cutoff with a warning, and at 2L = 0.3 row 0 diverges with one
    singles = [_recorded(lambda mu=mu: integrate_semi_infinite_k_weight(lambda r: r**mu, nu, r_max)) for mu in mus]
    before = _k_weighted_grid.cache_info()
    rows, seen = _recorded(lambda: integrate_semi_infinite_k_weight(lambda r: np.array([r**mu for mu in mus]), nu, r_max))
    after = _k_weighted_grid.cache_info()
    assert isinstance(rows, np.ndarray) and rows.shape == (len(mus),)
    assert rows.tolist() == [value for value, _ in singles]
    assert all(isinstance(value, float) for value, _ in singles)
    assert seen == [w for _, ws in singles for w in ws]
    assert {w[0] for w in seen} == {TruncationWarning} and {w[2] for w in seen} == {__file__}
    assert any("diverge" in w[1] for w in seen) == (nu < 1.0) and any("upper truncation" in w[1] for w in seen)
    assert (after.hits + after.misses) - (before.hits + before.misses) == 2  # the main and lower-tail grids


def test_row_valued_integrand_names_the_first_bad_node_of_the_first_failing_row():
    # row 1 overflows from r ~ 5 on and row 2 from r ~ 1 on: the message names row 1's first bad node,
    # which a scan of the whole block in node order would not
    nodes, _ = _k_weighted_grid(0.5, 1e-6, 30.0, _K_PANELS)

    def g(r):
        return np.array([r, np.where(r > 5.0, np.inf, r), np.where(r > 1.0, np.nan, r)])

    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(g, 0.5, r_max=30.0)
    assert str(err.value) == f"integrand returned a non-finite value at node {float(nodes[nodes > 5.0][0])!r}"
