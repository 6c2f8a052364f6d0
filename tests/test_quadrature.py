"""Rule construction and the K-weighted integrator."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fhpt.errors import DomainError, IntegrationError
from fhpt.quadrature import (
    TruncationWarning,
    _k_weighted_grid,
    default_r_max,
    gauss_legendre,
    integrate_semi_infinite_k_weight,
)


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
        lambda r: r**mu, nu, r_max=default_r_max(mu)
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
    rule = gauss_legendre(20)
    nodes, _ = _k_weighted_grid(0.5, 1e-6, 30.0, 32, rule)
    bad = float(nodes[nodes > 5.0][0])
    with pytest.raises(IntegrationError) as err:
        integrate_semi_infinite_k_weight(lambda r: np.where(r > 5.0, np.inf, r), 0.5, r_max=30.0, rule=rule)
    assert str(err.value) == f"integrand returned a non-finite value at node {bad!r}"
    assert "np.float64" not in str(err.value)


def test_k_grid_cache_is_bounded():
    rule = gauss_legendre(20)
    for k in range(40):
        integrate_semi_infinite_k_weight(lambda r: r**3.0, 0.5 + 0.01 * k, r_max=30.0, rule=rule)
    info = _k_weighted_grid.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32
    nodes, wk = _k_weighted_grid(0.89, 1e-6, 30.0, 32, rule)
    assert _k_weighted_grid(0.89, 1e-6, 30.0, 32, rule)[1] is wk
