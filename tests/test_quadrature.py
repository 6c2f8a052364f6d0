"""Rule construction and the K-weighted integrator."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fhpt.coherent import _diagonal_moments
from fhpt.errors import DomainError, IntegrationError
from fhpt.model import PotentialParams
from fhpt.quadrature import (
    TruncationWarning,
    _k_weighted_grid,
    _main_panels,
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
    [(1.5, 0.8), (3.0, 0.0), (5.5, 2.4), (0.5, 1.2), (10.2, 3.0), (21.5, 4.0)],
)
def test_k_weighted_moments_match_closed_form(mu, nu):
    got = integrate_semi_infinite_k_weight(
        lambda r: r**mu, nu, r_max=default_r_max(mu), rule=gauss_legendre(200)
    )
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
        got = integrate_semi_infinite_k_weight(
            lambda r: r**mu, nu, r_max=default_r_max(mu), rule=gauss_legendre(200)
        )
    assert got == pytest.approx(float(exact), rel=1e-9)


def test_k_weighted_warns_on_tight_cutoff():
    with pytest.warns(TruncationWarning):
        integrate_semi_infinite_k_weight(lambda r: r**8.0, 0.5, r_max=3.0, rule=gauss_legendre(200))


def test_k_weighted_warns_near_divergence():
    # r^0.2 K_1.5(2 r) ~ r^-1.3 toward 0: the integral diverges
    with pytest.warns(TruncationWarning, match="diverge"):
        integrate_semi_infinite_k_weight(lambda r: r**0.2, 1.5, r_max=30.0, rule=gauss_legendre(200))


def test_k_weighted_rejects_bad_scale():
    with pytest.raises(DomainError):
        integrate_semi_infinite_k_weight(lambda r: r, 1.0, r_max=1e-7, rule=gauss_legendre(200))


def test_k_weighted_rejects_non_finite_integrand():
    # the message names the first bad node as a plain float
    rule = gauss_legendre(20)
    nodes, _, _ = _k_weighted_grid(0.5, 1e-6, 30.0, _main_panels(rule), rule)
    bad = float(nodes[nodes > 5.0][0])
    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(lambda r: np.where(r > 5.0, np.inf, r), 0.5, r_max=30.0, rule=rule)
    assert str(err.value) == f"integrand returned a non-finite value at node {bad!r}"
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize(
    "bad", [lambda r: np.exp(np.where(r >= 30.0, 1000.0, 0.0)), lambda r: np.where(r >= 30.0, np.nan, r)], ids=["inf", "nan"]
)
def test_k_weighted_rejects_non_finite_upper_probe(bad):
    # finite on every node, which all lie below r_max, but not at the upper tail probe r = r_max: an
    # overflow used to print numpy's warning, and a NaN passed the tail test unnoticed
    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(bad, 0.5, r_max=30.0, rule=gauss_legendre(20))
    assert str(err.value) == "integrand returned a non-finite value at probe 30.0"


def test_k_weighted_upper_probe_with_underflowed_weight_contributes_zero():
    # K_0.5(2 r_max) underflows to 0.0 at r_max = 400, so an infinite integrand there adds nothing
    rule = gauss_legendre(20)
    got = integrate_semi_infinite_k_weight(lambda r: np.where(r >= 400.0, np.inf, 1.0), 0.5, r_max=400.0, rule=rule)
    assert got == integrate_semi_infinite_k_weight(np.ones_like, 0.5, r_max=400.0, rule=rule)


def test_k_grid_cache_is_bounded():
    rule = gauss_legendre(20)
    for k in range(40):
        integrate_semi_infinite_k_weight(lambda r: r**3.0, 0.5 + 0.01 * k, r_max=30.0, rule=rule)
    info = _k_weighted_grid.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32
    nodes, wk, _ = _k_weighted_grid(0.89, 1e-6, 30.0, 32, rule)
    assert _k_weighted_grid(0.89, 1e-6, 30.0, 32, rule)[1] is wk


@pytest.mark.parametrize(
    "nu,lo,hi,n_panels", [(3.0, 1e-6, 185.0, 32), (0.3, 1e-12, 1e-6, 3), (45.0, 0.0314, 940.0, 32), (4.0, 1e-6, 235.0, 8)]
)
def test_k_grid_matches_per_panel_assembly(nu, lo, hi, n_panels):
    # the per-panel expressions the broadcast replaced, kept as the reference
    rule = gauss_legendre(200)
    edges = np.geomspace(lo, hi, n_panels + 1)
    panels = list(zip(edges[:-1], edges[1:]))
    ref_nodes = np.concatenate([0.5 * (l + h) + 0.5 * (h - l) * rule.nodes for l, h in panels])
    ref_weights = np.concatenate([0.5 * (h - l) * rule.weights for l, h in panels])
    nodes, wk, probes = _k_weighted_grid(nu, lo, hi, n_panels, rule)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(wk, ref_weights * _bessel_k_array(nu, 2.0 * ref_nodes))
    assert probes == (bessel_k(nu, 2.0 * hi), bessel_k(nu, 2.0 * lo), bessel_k(nu, 4.0 * lo))
    assert _k_weighted_grid(nu, lo, hi, n_panels, rule, False)[2] == ()  # a lower-tail grid has none


def test_main_grid_panels_follow_the_rule_order():
    # the default rule gets 1,600 nodes; no order up to 50 gets fewer than 32 panels
    rule = gauss_legendre(200)
    assert _main_panels(rule) == 8
    assert _k_weighted_grid(4.0, 1e-6, 235.0, _main_panels(rule), rule)[0].size == 1600
    assert all(_main_panels(gauss_legendre(order)) >= 32 for order in range(1, 51))
    assert _main_panels(gauss_legendre(2048)) * 2048 == 16384


@pytest.mark.parametrize("order", [10, 20, 40, 80, 200, 2048])
@pytest.mark.parametrize("A", [0.55, 2.0, 10.5, 21.25])
def test_k_moments_reach_rounding_at_every_rule_order(order, A):
    # the identity-resolution diagonal and the three radial-closed-form moments, as verify takes them at nmax 10
    params = PotentialParams(A=A)
    L, rule = params.L, gauss_legendre(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        moments, r_max = _diagonal_moments(10, params, rule)
        assert max(abs(v - 1.0) for v in moments) < 1e-12
        r_max = max(r_max, default_r_max(14.0 + 2.0 * L + 1.0))
        for k in (0, 3, 7):
            mu = 2.0 * k + 2.0 * L + 1.0
            got = integrate_semi_infinite_k_weight(lambda r: r**mu, 2.0 * L, r_max=r_max, rule=rule)
            exact = mpmath.gamma((1 + mpmath.mpf(mu) + 2 * L) / 2) * mpmath.gamma((1 + mpmath.mpf(mu) - 2 * L) / 2) / 4
            assert abs(got / exact - 1) < 1e-12
