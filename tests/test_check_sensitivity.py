"""Planted-defect matrix for the check suite: which checks see a small error in each layer.

Each row scales one layer of the stack by 1 + size, runs the suite at A = 2
and the default nmax, and asserts that exactly its set of checks fails and
that nothing raises.  A plant replaces the function object wherever a module
of the package binds it, so a layer imported by name into several modules is
planted in all of them; the K-grid cache is cleared before and after each
row, so no planted grid outlives it.  Each row's comment gives the residuals
the plant moves against their tolerances; every failing one is at least 10x
over its tolerance and every passing one at least 3x under it, so a set is a
property of the layer, not of rounding.

Layers that no check reads: the "half" normalization (every check builds
"full" states), and the lowering bracket of level 0, which is zeroed
outright, so ground-annihilation is 0.0 by construction.
"""

import dataclasses
import math
import sys
import types

import pytest

from fhpt import algebra, coherent, model, quadrature, special
from fhpt.checks import CheckConfig, run_checks
from fhpt.quadrature import QuadratureRule


def _plant_everywhere(monkeypatch, name: str, original, planted) -> None:
    # replace original under name in every fhpt module that binds it
    for mod in [m for key, m in sys.modules.items() if key == "fhpt" or key.startswith("fhpt.")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, planted)


def _scaled(module, name: str):
    # every binding of module.name, its value times (1 + size)
    def plant(monkeypatch, size):
        original = getattr(module, name)
        _plant_everywhere(monkeypatch, name, original, lambda *a, **kw: original(*a, **kw) * (1.0 + size))

    return plant


def _eigenvalue(slot: int):
    # slot 0, 1, 2 of algebra._eigenvalues: raise_eig, lower_eig, gamma0
    def plant(monkeypatch, size):
        original = algebra._eigenvalues

        def planted(k, L):
            values = list(original(k, L))
            values[slot] = values[slot] * (1.0 + size)
            return tuple(values)

        _plant_everywhere(monkeypatch, "_eigenvalues", original, planted)

    return plant


def _basis_constant_of_level_5(monkeypatch, size):
    original = model.build_basis_state

    def planted(n, params, interval="full"):
        st = original(n, params, interval)
        return st if n != 5 else dataclasses.replace(st, norm=st.norm * (1.0 + size), scale=st.scale * (1.0 + size))

    _plant_everywhere(monkeypatch, "build_basis_state", original, planted)


def _raising_bracket(monkeypatch, size):
    original = algebra._bracket

    def planted(raising, *args):
        rows = original(raising, *args)
        return [b * (1.0 + size) for b in rows] if raising else rows

    monkeypatch.setattr(algebra, "_bracket", planted)


def _builder_bessel_i(monkeypatch, size):
    # the normalizer of build_coherent_state only; the Bessel checks keep the true bessel_i
    original = coherent.bessel_i
    monkeypatch.setattr(coherent, "bessel_i", lambda nu, x: original(nu, x) * (1.0 + size))


def _gauss_legendre_weights(monkeypatch, size):
    original = quadrature.gauss_legendre

    def planted(order):
        rule = original(order)
        return QuadratureRule(rule.order, rule.nodes, rule.weights * (1.0 + size))

    _plant_everywhere(monkeypatch, "gauss_legendre", original, planted)


def _builder_ratio_at_level_5(monkeypatch, size):
    # the builder's term ratio r / sqrt(n (n + 2L)) at n = 5, through the sqrt it calls; 5 (5 + 2L) = 40 at A = 2
    root = 5.0 * (5.0 + 2.0 * CheckConfig().L)

    def sqrt(x):
        return math.sqrt(x) / (1.0 + size) if x == root else math.sqrt(x)

    monkeypatch.setattr(coherent, "math", types.SimpleNamespace(**{**vars(math), "sqrt": sqrt}))


# (layer, plant, size, checks that fail); the comments give each moved residual / its tolerance, at A = 2
ROWS = [
    # ladder-raising 1.0e-8 / 1e-9, lowering-eigenstate 3.0e-8 / 1e-10, casimir-constancy 1.1e-8 / 1e-12
    ("kernel raise_eig", _eigenvalue(0), 1e-8, {"casimir-constancy", "ladder-raising", "lowering-eigenstate"}),
    # ladder-lowering 1.0e-8 / 1e-9, casimir-constancy 9.0e-9 / 1e-12
    ("kernel lower_eig", _eigenvalue(1), 1e-8, {"casimir-constancy", "ladder-lowering"}),
    # commutator 2.4e-7 / 1e-9, casimir-constancy 2.0e-8 / 1e-12
    ("kernel gamma0", _eigenvalue(2), 1e-8, {"casimir-constancy", "commutator"}),
    # ode-residual 2.6e-6 / 1e-9, spectrum-square-law 2.0e-8 / 1e-14; the rest move by rounding only
    ("derive_a_prime", _scaled(model, "derive_a_prime"), 1e-8, {"ode-residual", "spectrum-square-law"}),
    # ode-residual 1.4e-6 / 1e-9, spectrum-square-law 1.0e-8 / 1e-14
    ("momentum_level", _scaled(model, "momentum_level"), 1e-8, {"ode-residual", "spectrum-square-law"}),
    # gram-identity 2.0e-8 / 1e-10, ladder-raising and ladder-lowering 1.0e-8 / 1e-9
    ("basis constant of level 5", _basis_constant_of_level_5, 1e-8,
     {"gram-identity", "ladder-raising", "ladder-lowering"}),
    # ladder-raising 1.0e-8 / 1e-9, commutator 2.4e-7 / 1e-9
    ("raising bracket", _raising_bracket, 1e-8, {"ladder-raising", "commutator"}),
    # radial-closed-form 1.0e-8 / 1e-9; identity-resolution 1.0e-8 / 1e-7 passes
    ("K on the grid", _scaled(quadrature, "_bessel_k_array"), 1e-8, {"radial-closed-form"}),
    # bessel-wronskian 1.0e-8 / 1e-10, half-order-bessel 1.0e-8 / 1e-12; the K tail probes move no moment
    ("scalar bessel_k", _scaled(special, "bessel_k"), 1e-8, {"bessel-wronskian", "half-order-bessel"}),
    # coherent-normalization 1.0e-8 / 1e-12; lowering-eigenstate moves by rounding only
    ("bessel_i in the builder", _builder_bessel_i, 1e-8, {"coherent-normalization"}),
    # gram-identity 3.0e-10 / 1e-10, quadrature-exactness 6.0e-10 / 1e-12; identity-resolution 3.0e-10 / 1e-7
    # and radial-closed-form 3.0e-10 / 1e-9 pass.  At 1e-10 gram-identity reads 1.00003e-10, its tolerance itself
    ("Gauss-Legendre weights", _gauss_legendre_weights, 3e-10, {"gram-identity", "quadrature-exactness"}),
    # coherent-normalization 4.8e-7 / 1e-12, lowering-eigenstate 6.6e-7 / 1e-10
    ("builder ratio at n = 5", _builder_ratio_at_level_5, 1e-6, {"coherent-normalization", "lowering-eigenstate"}),
]


@pytest.fixture
def fresh_grids():
    quadrature._k_weighted_grid.cache_clear()
    yield
    quadrature._k_weighted_grid.cache_clear()


def test_unplanted_suite_passes(fresh_grids):
    assert run_checks(CheckConfig(A=2.0)).passed


@pytest.mark.parametrize("plant, size, expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_plant_fails_exactly_its_checks(plant, size, expected, monkeypatch, fresh_grids):
    plant(monkeypatch, size)
    report = run_checks(CheckConfig(A=2.0))
    assert {c.name for c in report.checks if not c.passed} == expected


@pytest.mark.parametrize("A", (0.65, 2.0, 21.0, 98.7))
def test_casimir_sees_a_1e_11_plant_in_raise_eig(A, monkeypatch, fresh_grids):
    # the scaled residual stays at rounding (<= 5.5e-16), so a relative 1e-11 in raise_eig lifts it past 1e-12
    _eigenvalue(0)(monkeypatch, 1e-11)
    casimir = next(c for c in run_checks(CheckConfig(A=A)).checks if c.name == "casimir-constancy")
    assert not casimir.passed
