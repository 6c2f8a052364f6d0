"""Spectrum, basis states, orthonormality, and the master-equation residual."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fhpt import model
from fhpt.algebra import apply_raising, commutator_residual, ladder_coefficients
from fhpt.coherent import resolution_of_identity_check
from fhpt.errors import DomainError
from fhpt.model import (
    PotentialParams,
    build_basis_state,
    derive_a_prime,
    eval_state,
    momentum_level,
    overlap,
    residual_ode,
)
from fhpt.quadrature import default_r_max, gauss_legendre

A_GRID = (1.0, 1.5, 2.0, 3.7)


# shape exponent

def test_shape_exponent_natural_units():
    # with M = c1 = 1 the exponent is 2A for A >= 1/2
    assert PotentialParams(A=2.0).a_prime == 4.0
    assert PotentialParams(A=1.0).a_prime == 2.0
    assert PotentialParams(A=3.7).a_prime == pytest.approx(7.4, rel=1e-15)


def test_shape_exponent_boundary():
    # A (A - 1) = -1/4 sits exactly on the admissible edge
    p = PotentialParams(A=0.5)
    assert p.a_prime == 1.0
    assert p.L == 0.0


def test_shape_exponent_solves_its_quadratic():
    # general units: the half exponent balances the sec^2 pole,
    # lam (lam - 1) = A (A - 1) / (c1^2 M)
    p = PotentialParams(A=2.3, c1=2.0, m0=0.25, c=3.0, hbar=1.7)
    lam = 0.5 * derive_a_prime(p)
    lhs = lam * (lam - 1.0)
    rhs = p.A * (p.A - 1.0) / (p.c1**2 * p.mass_scale)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert lam >= 0.5


def test_inadmissible_strength_raises():
    # c1^2 M < 1 narrows the admissible band enough to exclude A = 1/2
    with pytest.raises(DomainError):
        PotentialParams(A=0.5, c1=0.4)


def test_strength_with_a_non_finite_shape_exponent_raises():
    # 4 A (A - 1) / (c1^2 M) overflows between these strengths in natural units
    assert math.isfinite(PotentialParams(A=6e153).a_prime)
    for A in (1e154, -1e154, 1e300):
        with pytest.raises(DomainError, match="non-finite a_prime"):
            PotentialParams(A=A)
    with pytest.raises(DomainError, match="non-finite a_prime"):
        PotentialParams(A=1e150, c1=1e-10)


def test_params_validation():
    with pytest.raises(DomainError):
        PotentialParams(A=2.0, c1=-1.0)
    with pytest.raises(DomainError):
        PotentialParams(A=math.nan)
    with pytest.raises(DomainError):
        PotentialParams(A=2.0, m0=0.0)
    for field in ("A", "c1", "m0", "c", "hbar"):
        with pytest.raises(DomainError):
            PotentialParams(**{"A": 2.0, field: True})


@pytest.mark.parametrize("scales", [
    {"c1": 1e-200}, {"c": 1e-200}, {"m0": 1e308}, {"m0": 1e-310}, {"hbar": 1e200}, {"c1": 1e200}, {"hbar": 1e-170},
])
def test_scales_outside_the_double_range_raise(scales):
    # each leaves M = hbar^2 / (2 m0 c^2) or c1^2 M at 0, inf, or a square that overflows
    with pytest.raises(DomainError, match=r"and c1\^2 M must be positive finite doubles"):
        PotentialParams(A=2.0, **scales)
    assert PotentialParams(A=1.0, c1=1e-150, hbar=1e100).a_prime == 2.0


def test_derived_constants_are_computed_once(monkeypatch):
    p = PotentialParams(A=2.0)
    calls = []
    monkeypatch.setattr(model, "derive_a_prime", lambda params: calls.append(params) or 4.0)
    assert (p.a_prime, p.L, PotentialParams(A=3.0).L, p.L) == (4.0, 1.5, 1.5, 1.5)
    assert len(calls) == 1


# spectrum

def test_unit_well_spectrum_is_squared_integers():
    p = PotentialParams(A=1.0)
    for n in range(51):
        assert momentum_level(n, p) == (n + 1.0) ** 2


@pytest.mark.parametrize("A", [1.5, 2.0, 3.7, 9.185])
def test_level_range_momenta_equal_per_level_calls(A):
    # the reference is the scalar formula in Python floats; a range takes the same operations per level
    p = PotentialParams(A=A, c1=1.3, m0=0.7, c=2.1)
    ref = [p.c1**2 * p.mass_scale / p.c * (n + 0.5 * p.a_prime) * (n + 0.5 * p.a_prime) for n in range(100)]
    single = [momentum_level(n, p) for n in range(100)]
    assert all(type(v) is float for v in single) and single == ref
    for levels in (range(0), range(1), range(100), np.arange(7, 40)):
        got = momentum_level(levels, p)
        assert isinstance(got, np.ndarray) and got.tolist() == [ref[n] for n in levels]


def test_spectrum_spacing_identity():
    for A in A_GRID:
        for c1, m0, c in ((1.0, 0.5, 1.0), (2.0, 0.3, 1.4)):
            p = PotentialParams(A=A, c1=c1, m0=m0, c=c)
            scale = p.c1**2 * p.mass_scale / p.c
            for n in range(30):
                gap = momentum_level(n + 1, p) - momentum_level(n, p)
                expect = scale * (2.0 * n + 1.0 + p.a_prime)
                assert gap == pytest.approx(expect, rel=1e-12)


def test_momentum_level_domain():
    p = PotentialParams(A=2.0)
    with pytest.raises(DomainError):
        momentum_level(-1, p)
    with pytest.raises(DomainError):
        momentum_level(2.5, p)
    with pytest.raises(DomainError):
        momentum_level([0, 1, -1], p)


def test_level_index_rejects_bool():
    # True is an int subclass; no level-taking function reads it as level 1
    p = PotentialParams(A=2.0)
    r_max = default_r_max(2.0 * 1 + 2.0 * p.L + 1.0)
    for call in (
        lambda: momentum_level(True, p),
        lambda: build_basis_state(True, p),
        lambda: ladder_coefficients(True, p.L),
        lambda: resolution_of_identity_check(True, True, p, r_max),
    ):
        with pytest.raises(DomainError, match="level index must be an integer"):
            call()


BAD_LEVELS = [True, False, 2.0, 2.5, -1, np.float64(1.0), np.bool_(True), "1", None]


@pytest.mark.parametrize("bad", BAD_LEVELS, ids=repr)
def test_level_sequences_reject_what_one_level_rejects(bad):
    # a sequence is checked in one pass; the message names the first level it rejects, as for one level
    p, rule = PotentialParams(A=2.0), gauss_legendre(20)
    for call, span in (
        (lambda levels: momentum_level(levels, p), "an integer >= 0"),
        (lambda levels: overlap(levels, [1], p, rule), "an integer in [0, 100]"),
    ):
        for levels in (bad, [bad], [0, 1, bad, 3], [3, bad, -2, 4.5]):
            with pytest.raises(DomainError) as info:
                call(levels)
            assert str(info.value) == f"level index must be {span}, got {bad!r}"
    with pytest.raises(DomainError, match=r"got -1$"):
        momentum_level([0, -1, 2.5], p)
    with pytest.raises(DomainError, match=r"got 101$"):
        overlap([0, 101, 2.5], 1, p, rule)


def test_momentum_past_the_double_range_names_its_first_level():
    # c1^2 M / c = 1e306 at A = 1, so (n + 1)^2 1e306 overflows from level 13 on; numpy's overflow
    # warning, which pytest makes an error here, is not raised
    p = PotentialParams(A=1.0, c1=1e153)
    assert momentum_level(12, p) == pytest.approx(1.69e308, rel=1e-15)
    with pytest.raises(OverflowError, match=r"^momentum of level 13 exceeds the double range$"):
        momentum_level(range(20), p)
    with pytest.raises(OverflowError, match=r"^momentum of level 20 exceeds"):
        momentum_level([2, 20, 13], p)
    with pytest.raises(OverflowError, match=r"^momentum of level 14 exceeds"):
        momentum_level(14, p)


# state construction and evaluation

def test_build_state_domain():
    p = PotentialParams(A=2.0)
    with pytest.raises(DomainError):
        build_basis_state(-1, p)
    with pytest.raises(DomainError):
        build_basis_state(101, p)
    with pytest.raises(DomainError):
        build_basis_state(2, p, interval="open")


def test_eval_state_domain_and_shapes():
    p = PotentialParams(A=2.0)
    st = build_basis_state(3, p)
    assert isinstance(eval_state(st, 0.3), float)
    out = eval_state(st, np.linspace(-1.0, 1.0, 7))
    assert out.shape == (7,)
    with pytest.raises(DomainError):
        eval_state(st, 0.5 * np.pi)
    with pytest.raises(DomainError):
        eval_state(st, np.array([0.0, 1.6]))
    assert eval_state([st, build_basis_state(0, p)], np.linspace(-1.0, 1.0, 7)).shape == (2, 7)
    with pytest.raises(DomainError, match="one well"):
        eval_state([st, build_basis_state(3, PotentialParams(A=3.0))], 0.3)


def test_eval_state_on_empty_and_zero_dim_arrays():
    st = build_basis_state(3, PotentialParams(A=2.0))
    empty = eval_state(st, np.array([]))
    assert empty.shape == (0,)
    zero_dim = eval_state(st, np.array(0.3))
    assert np.ndim(zero_dim) == 0
    assert zero_dim == eval_state(st, 0.3)


def test_numpy_integer_levels_match_python_ints():
    p = PotentialParams(A=2.0)
    st = build_basis_state(np.int64(3), p)
    assert type(st.n) is int
    assert vars(st) == vars(build_basis_state(3, p))
    rule = gauss_legendre(80)
    assert type(overlap(np.int64(2), np.int64(3), p, rule)) is float
    assert overlap(np.int64(2), np.int64(3), p, rule) == overlap(2, 3, p, rule)
    levels = np.arange(5, dtype=np.int64)
    assert np.array_equal(overlap(levels, levels, p, rule), overlap(range(5), range(5), p, rule))


@pytest.mark.parametrize(
    "name", ["momentum_level", "residual_ode", "commutator_residual", "overlap", "eval_state", "apply_raising"]
)
def test_each_level_form_gives_the_bytes_of_the_list_form(name):
    # levels as a list, tuple, range or int64 array (states as a list or tuple) give the bytes of the list
    # form, and one level (an int or np.int64) or one state gives the float of its one-item list
    p, rule = PotentialParams(A=2.7), gauss_legendre(40)
    if name in ("eval_state", "apply_raising"):
        call = {"eval_state": lambda sts: eval_state(sts, 0.3), "apply_raising": lambda sts: apply_raising(sts)(0.3)}
        call = call[name]
        states = [build_basis_state(n, p) for n in range(5)]
        forms, singles = [states, tuple(states)], [states[3]]
    else:
        call = {
            "momentum_level": lambda levels: momentum_level(levels, p),
            "residual_ode": lambda levels: residual_ode(levels, p),
            "commutator_residual": lambda levels: commutator_residual(levels, p),
            "overlap": lambda levels: overlap(levels, levels, p, rule),
        }[name]
        forms = [list(range(5)), tuple(range(5)), range(5), np.arange(5, dtype=np.int64)]
        singles = [3, np.int64(3)]
    want = call(forms[0]).tobytes()
    for levels in forms:
        assert call(levels).tobytes() == want, type(levels)
    for one in singles:
        got = call(one)
        assert type(got) is float and got == call([one]).flat[0], type(one)


def test_state_parity():
    p = PotentialParams(A=2.0)
    tau = np.linspace(0.1, 1.4, 9)
    for n in range(9):
        st = build_basis_state(n, p)
        left = eval_state(st, -tau)
        right = eval_state(st, tau)
        sign = (-1.0) ** n
        assert np.max(np.abs(left - sign * right)) < 1e-13 * np.max(np.abs(right))


def test_state_interior_zero_count():
    p = PotentialParams(A=1.5)
    # even point count keeps polynomial zeros off the grid
    tau = np.linspace(-1.55, 1.55, 4000)
    for n in (0, 1, 4, 7):
        vals = eval_state(build_basis_state(n, p), tau)
        crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert crossings == n


def test_full_vs_half_interval_constant():
    p = PotentialParams(A=2.0)  # L = 3/2, no alternating phase
    full = build_basis_state(5, p, "full")
    half = build_basis_state(5, p, "half")
    assert half.scale == pytest.approx(full.scale * math.sqrt(2.0), rel=1e-15)
    p15 = PotentialParams(A=1.5)  # L = 1: integer, odd, so the phase flips
    full = build_basis_state(2, p15, "full")
    half = build_basis_state(2, p15, "half")
    assert half.scale == pytest.approx(-full.scale * math.sqrt(2.0), rel=1e-15)


def _hyp_route(st, lam, n, tau):
    lead = math.exp(math.lgamma(2.0 * lam + n) - math.lgamma(2.0 * lam) - math.lgamma(n + 1.0))
    # zeroprec lets mpmath return exact zeros (odd states at tau = 0) instead
    # of raising precision without end to resolve them
    return np.array(
        [
            st.scale
            * math.cos(t) ** lam
            * lead
            * float(mpmath.hyp2f1(-n, n + 2.0 * lam, lam + 0.5, 0.5 * (1.0 - math.sin(t)), zeroprec=200))
            for t in tau
        ]
    )


def test_state_against_hypergeometric_route():
    # independent evaluation: envelope times a terminating 2F1 in (1 - y)/2
    tau = np.linspace(-1.45, 1.45, 31)
    for A in A_GRID:
        p = PotentialParams(A=A)
        lam = p.L + 0.5
        for n in (0, 1, 4, 9):
            st = build_basis_state(n, p)
            alt = _hyp_route(st, lam, n, tau)
            ours = eval_state(st, tau)
            assert np.max(np.abs(ours - alt)) < 2e-10 * np.max(np.abs(ours))


def test_state_against_hypergeometric_route_high_level():
    # degree 15, where the alternating 2F1 sum inflates its terms ~1e8 near
    # x = 1/2; a wrong degree factor anywhere would show as O(1)
    tau = np.linspace(0.0, 1.45, 16)
    for A in (1.0, 3.7):
        p = PotentialParams(A=A)
        lam = p.L + 0.5
        st = build_basis_state(15, p)
        alt = _hyp_route(st, lam, 15, tau)
        ours = eval_state(st, tau)
        assert np.max(np.abs(ours - alt)) < 1e-6 * np.max(np.abs(ours))


def _legendre_half_shift(n, L, y):
    # P_{n+L}^{L}(y): the Ferrers function with the Condon-Shortley phase at
    # integer L; at other L, Gamma(n+2L+1)/n! P_{n+L}^{-L}(y), which is its
    # continuation with phase +1
    if float(L).is_integer():
        return sps.lpmv(int(L), n + L, y)
    pref = math.exp(math.lgamma(n + 2.0 * L + 1.0) - math.lgamma(n + 1.0))
    return np.array([pref * float(mpmath.legenp(n + L, -L, t, type=2, zeroprec=200)) for t in y])


def test_state_against_legendre_route():
    # half-interval convention matches the associated-Legendre form
    # sqrt(cos) times the shifted-degree function of sin(tau)
    tau = np.linspace(-1.3, 1.3, 17)
    for A in (1.5, 2.0, 3.7):
        p = PotentialParams(A=A)
        for n in (0, 2, 5, 8):
            st = build_basis_state(n, p, "half")
            alt = st.norm * np.sqrt(np.cos(tau)) * _legendre_half_shift(n, p.L, np.sin(tau))
            ours = eval_state(st, tau)
            assert np.max(np.abs(ours - alt)) < 5e-11 * np.max(np.abs(ours))


def _orthonormal_state(n, p, tau):
    # sqrt(c1 / h_n) cos(tau)^lam C_n^lam(sin tau), with the Gegenbauer norm
    # h_n = pi 2^(1 - 2 lam) Gamma(n + 2 lam) / (n! (n + lam) Gamma(lam)^2) (DLMF 18.3)
    with mpmath.workdps(30):
        lam = mpmath.mpf(p.L) + mpmath.mpf(0.5)
        h = mpmath.pi * 2 ** (1 - 2 * lam) * mpmath.gamma(n + 2 * lam) / (
            mpmath.factorial(n) * (n + lam) * mpmath.gamma(lam) ** 2)
        return np.array([float(mpmath.sqrt(p.c1 / h) * mpmath.cos(t) ** lam * mpmath.gegenbauer(n, lam, mpmath.sin(t)))
                         for t in tau])


@pytest.mark.parametrize("A", [151.0, 300.0, 500.0])
def test_large_well_states_against_mpmath(A):
    # 2L = 301 to 999: the Gegenbauer-to-Legendre constant alone is e^706 and more, the half-interval one
    # e^-724 and less, so the state constant holds only as one log-space sum (measured within 6.9e-13)
    p = PotentialParams(A=A)
    tau = np.array([-1.2, -0.4, -0.05, 0.0, 0.1, 0.3, 0.9])
    for n in (0, 40, 100):
        ours = eval_state(build_basis_state(n, p), tau)
        peak = np.max(np.abs(eval_state(build_basis_state(n, p), np.linspace(-1.5, 1.5, 3001))))
        assert np.max(np.abs(ours - _orthonormal_state(n, p, tau))) < 1e-11 * peak


@pytest.mark.parametrize("A", [151.0, 300.0])
def test_large_well_residual_and_gram(A):
    p = PotentialParams(A=A)
    assert np.max(residual_ode(range(100), p)) <= 1e-9
    levels = range(30)
    assert np.max(np.abs(overlap(levels, levels, p, gauss_legendre(1600)) - np.eye(30))) < 1e-11


# overlaps

def test_gram_identity():
    rule = gauss_legendre(200)
    for A in (1.02, 2.0, 3.7):
        p = PotentialParams(A=A)
        for i in range(13):
            for j in range(i, 13):
                got = overlap(i, j, p, rule)
                expect = 1.0 if i == j else 0.0
                assert abs(got - expect) < 1e-11


def test_gram_independent_of_c1():
    rule = gauss_legendre(160)
    p = PotentialParams(A=2.0, c1=2.7)
    assert overlap(4, 4, p, rule) == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap(3, 4, p, rule)) < 1e-12


@pytest.mark.parametrize("order", [200, 400])
@pytest.mark.parametrize("A", [0.65, 2.0, 3.7])
def test_overlap_block_equals_scalar_pairs(A, order):
    # A = 0.65 lies in the Gram-fault band; the block reproduces it bit for bit
    rule = gauss_legendre(order)
    p = PotentialParams(A=A)
    block = overlap(range(12), range(12), p, rule)
    assert block.shape == (12, 12)
    for i in range(12):
        for j in range(12):
            assert block[i, j] == overlap(i, j, p, rule)
    # a sequence of rules, as verify's two Gram checks take them: one block per rule, each its own call's
    rules = [rule, gauss_legendre(2 * order)]
    blocks = overlap(range(12), range(12), p, rules)
    assert isinstance(blocks, list) and len(blocks) == 2
    for got, r in zip(blocks, rules):
        assert got.tobytes() == overlap(range(12), range(12), p, r).tobytes()
    assert overlap(3, 5, p, rules) == [overlap(3, 5, p, r) for r in rules]


def test_overlap_shapes():
    rule = gauss_legendre(80)
    p = PotentialParams(A=2.0)
    assert type(overlap(2, 3, p, rule)) is float
    row = overlap(2, range(5), p, rule)
    assert row.shape == (1, 5)
    assert row[0, 3] == overlap(2, 3, p, rule)
    assert overlap([0, 1, 2], 4, p, rule).shape == (3, 1)


def test_overlap_of_no_levels_is_an_empty_block():
    rule = gauss_legendre(80)
    p = PotentialParams(A=2.0)
    empty = overlap([], [], p, rule)
    assert empty.shape == (0, 0) and empty.dtype == float
    assert overlap([], [1, 2], p, rule).shape == (0, 2)
    assert overlap(range(3), [], p, rule).shape == (3, 0)


def test_overlap_block_evaluates_each_level_once(monkeypatch):
    # one eval_state call covers every distinct level, each once
    seen = []
    original = model.eval_state
    monkeypatch.setattr(model, "eval_state", lambda sts, tau: seen.append([s.n for s in sts]) or original(sts, tau))
    overlap(range(7), [2, 9, 0], PotentialParams(A=2.0), gauss_legendre(80))
    assert seen == [[0, 1, 2, 3, 4, 5, 6, 9]]


@pytest.mark.parametrize("bad", [True, 2.0, -1])
def test_overlap_block_rejects_non_levels(bad):
    # True equals level 1 and 2.0 equals level 2, which the sequences also hold
    with pytest.raises(DomainError):
        overlap([0, 1, 2, bad], range(3), PotentialParams(A=2.0), gauss_legendre(40))


def test_hundred_level_block_is_orthonormal():
    p = PotentialParams(A=2.0)
    levels = range(100)
    gram = overlap(levels, levels, p, gauss_legendre(200))
    assert np.max(np.abs(gram - np.eye(100))) < 1e-10
    assert np.max(np.abs(gram - overlap(levels, levels, p, gauss_legendre(400)))) < 1e-12


def test_half_interval_overlap_structure():
    # same parity stays orthonormal on the half interval, opposite parity does not
    rule = gauss_legendre(200)
    p = PotentialParams(A=2.0)
    quarter = 0.25 * np.pi
    tau = quarter + quarter * rule.nodes  # (0, pi/2)

    def half_overlap(m, n):
        vals = eval_state(build_basis_state(m, p, "half"), tau) * eval_state(build_basis_state(n, p, "half"), tau)
        return float(quarter * np.dot(rule.weights, vals))

    assert half_overlap(0, 0) == pytest.approx(1.0, abs=1e-11)
    assert abs(half_overlap(0, 2)) < 1e-11
    assert abs(half_overlap(0, 1)) > 1e-3


# equation residual

def test_residual_small_on_spectrum():
    for A in A_GRID:
        p = PotentialParams(A=A)
        worst = max(residual_ode(n, p) for n in range(21))
        assert worst < 1e-9


def test_residual_detects_off_spectrum_momentum():
    p = PotentialParams(A=2.0)
    for n in (0, 3, 10):
        shifted = momentum_level(n, p) + 1e-3
        assert residual_ode(n, p, momentum=shifted) > 1e-5


def test_residual_general_units():
    p = PotentialParams(A=2.3, c1=2.0, m0=0.25, c=3.0, hbar=1.7)
    assert residual_ode(6, p) < 1e-9


def test_residual_does_not_grow_with_c1():
    # c1 = 10 and m0 = 0.005 give one g = A (A - 1) / (c1^2 M) = 0.02, so one equation in tau; the
    # equation in t is c1^2 times it, which the residual divides out
    by_c1 = residual_ode(range(11), PotentialParams(A=2.0, c1=10.0))
    by_m0 = residual_ode(range(11), PotentialParams(A=2.0, m0=0.005))
    assert 0.5 < by_c1.max() / by_m0.max() < 2.0
