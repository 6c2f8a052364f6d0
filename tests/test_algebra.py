"""Ladder maps: eigenvalue relations, annihilation, commutator, Casimir,
and adjointness under the t-measure inner product."""

import math

import numpy as np
import pytest

from fhpt.algebra import (
    apply_lowering,
    apply_raising,
    casimir_eigenvalue,
    commutator_residual,
    ladder_coefficients,
)
from fhpt.errors import DomainError
from fhpt.model import PotentialParams, _grid_rows, build_basis_state, eval_state
from fhpt.quadrature import gauss_legendre

A_GRID = (0.55, 0.75, 1.0, 1.5, 2.0, 3.7, 20.0)
TAU = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 101)
GRID_TAU = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 401)  # the tau points of model._grid_rows


def test_ladder_coefficients_values():
    lc = ladder_coefficients(0, 1.5)
    assert lc.lower_eig == 0.0
    assert lc.raise_eig == pytest.approx(2.0, rel=1e-15)  # sqrt(1 * 4)
    assert lc.gamma0 == 2.0
    lc = ladder_coefficients(3, 1.0)
    assert lc.raise_eig == pytest.approx(math.sqrt(4.0 * 6.0), rel=1e-15)
    assert lc.lower_eig == pytest.approx(math.sqrt(3.0 * 5.0), rel=1e-15)
    with pytest.raises(DomainError):
        ladder_coefficients(-1, 1.5)


@pytest.mark.parametrize("A", (0.55, 0.65, 2.0, 2.000025, 21.0, 98.7))
def test_ladder_coefficients_keep_the_closed_forms_bit_for_bit(A):
    # the eigenvalue kernel equals the closed forms bit for bit, each field a Python float, for a numpy level too
    L = PotentialParams(A=A).L
    for n in range(201):
        want = (math.sqrt((n + 1.0) * (n + 2.0 * L + 1.0)), math.sqrt(n * (n + 2.0 * L)) if n > 0 else 0.0, n + L + 0.5)
        for level in (n, np.int64(n)):
            lc = ladder_coefficients(level, L)
            got = (lc.raise_eig, lc.lower_eig, lc.gamma0)
            assert got == want and all(type(v) is float for v in got) and type(lc.n) is int


@pytest.mark.parametrize("A", A_GRID)
def test_raising_matches_eigenvalue_relation(A):
    p = PotentialParams(A=A)
    y = np.sin(TAU)
    for n in range(100):
        st = build_basis_state(n, p)
        lc = ladder_coefficients(n, p.L)
        image = apply_raising(st)(y)
        target = lc.raise_eig * eval_state(build_basis_state(n + 1, p), TAU)
        assert np.max(np.abs(image - target)) < 1e-9 * np.max(np.abs(target))


@pytest.mark.parametrize("A", A_GRID)
def test_lowering_matches_eigenvalue_relation(A):
    p = PotentialParams(A=A)
    y = np.sin(TAU)
    for n in range(1, 100):
        st = build_basis_state(n, p)
        lc = ladder_coefficients(n, p.L)
        image = apply_lowering(st)(y)
        target = lc.lower_eig * eval_state(build_basis_state(n - 1, p), TAU)
        assert np.max(np.abs(image - target)) < 1e-9 * np.max(np.abs(target))


@pytest.mark.parametrize("A", (0.65, 2.0, 9.185))
def test_level_ranged_images_equal_per_state_calls(A):
    p = PotentialParams(A=A)
    states = [build_basis_state(n, p) for n in range(100)]
    _, y, _, _, u, du, _ = _grid_rows(range(100), p)
    assert np.array_equal(y, np.sin(GRID_TAU))
    for apply in (apply_raising, apply_lowering):
        images = apply(states)(y)
        assert np.array_equal(images, apply(states)(y, (u, du)))
        for st, image in zip(states, images):
            assert np.array_equal(image, apply(st)(y))
    for st, psi in zip(states, eval_state(states, GRID_TAU)):
        assert np.array_equal(psi, eval_state(st, GRID_TAU))
    # no states give no rows
    for empty in ([], range(0)):
        for at in (y, 0.3):
            assert apply_raising(empty)(at).shape == apply_lowering(empty)(at).shape == (0,) + np.shape(at)
        assert eval_state(empty, GRID_TAU).shape == (0, 401) and eval_state(empty, 0.3).shape == (0,)


def test_ground_state_annihilated_exactly():
    for A in A_GRID:
        p = PotentialParams(A=A)
        image = apply_lowering(build_basis_state(0, p))
        assert np.max(np.abs(image(np.sin(TAU)))) == 0.0


def test_ladder_respects_half_interval_convention():
    p = PotentialParams(A=2.0)
    st = build_basis_state(4, p, "half")
    lc = ladder_coefficients(4, p.L)
    image = apply_raising(st)(np.sin(TAU))
    target = lc.raise_eig * eval_state(build_basis_state(5, p, "half"), TAU)
    assert np.max(np.abs(image - target)) < 1e-9 * np.max(np.abs(target))


@pytest.mark.parametrize("A", A_GRID)
def test_commutator_closes_on_weight_operator(A):
    p = PotentialParams(A=A)
    worst = max(commutator_residual(n, p) for n in range(100))
    assert worst < 1e-9


def test_casimir_is_constant_in_level():
    for A in A_GRID:
        p = PotentialParams(A=A)
        expect = p.L**2 - 0.25
        for n in range(21):
            assert casimir_eigenvalue(n, p) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("A", (0.65, 2.0, 21.0, 60.9, 98.7))
def test_casimir_is_constant_relative_to_gamma0_squared(A):
    # the value is a difference of terms of size gamma0^2, so rounding alone moves it by about 1e-16 of that
    p = PotentialParams(A=A)
    n = np.arange(100.0)
    assert np.max(np.abs(casimir_eigenvalue(range(100), p) - (p.L**2 - 0.25)) / (n + p.L + 0.5) ** 2) <= 1e-15


def test_casimir_on_a_level_sequence_equals_per_level_calls():
    p = PotentialParams(A=3.7)
    got = casimir_eigenvalue(range(101), p)
    assert isinstance(got, np.ndarray) and got.tolist() == [casimir_eigenvalue(n, p) for n in range(101)]
    assert type(casimir_eigenvalue(np.int64(4), p)) is float and casimir_eigenvalue([], p).shape == (0,)
    for bad in (True, 2.0, -1, [0, 1.0], [3, -1], (False,)):
        with pytest.raises(DomainError):
            casimir_eigenvalue(bad, p)


def test_casimir_frozen_value():
    # A = 2 in natural units: L = 3/2, so the invariant is 2
    p = PotentialParams(A=2.0)
    assert casimir_eigenvalue(5, p) == pytest.approx(2.0, abs=1e-13)


def test_adjointness_under_t_measure():
    # <psi_{n+1}, raise psi_n> = <lower psi_{n+1}, psi_n> = raise_eig(n)
    rule = gauss_legendre(300)
    t = 0.5 * np.pi * rule.nodes
    w = 0.5 * np.pi * rule.weights
    for A in (1.5, 2.0, 3.7):
        p = PotentialParams(A=A)
        for n in (0, 2, 5, 9):
            st = build_basis_state(n, p)
            st_up = build_basis_state(n + 1, p)
            up = apply_raising(st)
            down = apply_lowering(st_up)
            lhs = np.dot(w, up(np.sin(t)) * eval_state(st_up, t)) / p.c1
            rhs = np.dot(w, down(np.sin(t)) * eval_state(st, t)) / p.c1
            eig = ladder_coefficients(n, p.L).raise_eig
            assert lhs == pytest.approx(eig, rel=1e-10)
            assert rhs == pytest.approx(eig, rel=1e-10)
