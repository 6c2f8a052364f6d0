"""Coherent superpositions: normalization, truncation bounds, the
annihilation eigenrelation, expectations, and label-plane completeness."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from fhpt.coherent import (
    build_coherent_state,
    general_expectation,
    lowering_eigenstate_residual,
    radial_weight_moment,
    resolution_of_identity_check,
)
from fhpt.errors import DomainError
from fhpt.model import PotentialParams
from fhpt.quadrature import default_r_max
from fhpt.special import bessel_i

mpmath.mp.dps = 50

Z_GRID = (0.5 + 0.0j, 2.0 + 0.0j, 5.0 + 0.0j, 1.0 + 1.0j, 3.0 * cmath.exp(0.25j * math.pi))


def test_zero_label_is_ground_level():
    cs = build_coherent_state(0.0, PotentialParams(A=2.0))
    assert cs.truncation_level == 0
    assert cs.coeffs[0] == 1.0 + 0.0j
    assert cs.tail_bound == 0.0


@pytest.mark.parametrize("z", Z_GRID)
def test_normalization_within_tail_bound(z):
    p = PotentialParams(A=2.0)
    cs = build_coherent_state(z, p)
    deficit = 1.0 - cs.norm_sq
    assert cs.tail_bound < 1e-12
    assert deficit < cs.tail_bound + 1e-13
    assert cs.norm_sq <= 1.0 + 1e-14


def test_truncation_tracks_label_magnitude():
    p = PotentialParams(A=2.0)
    small = build_coherent_state(0.5, p)
    big = build_coherent_state(20.0, p)
    assert big.truncation_level > small.truncation_level
    # kept-through level: the next term ratio has dropped below 1/2
    for cs in (small, big):
        m = cs.truncation_level + 1
        assert math.sqrt(m * (m + 2.0 * cs.L)) > 2.0 * abs(cs.z)


def test_coefficients_against_high_precision_direct_form():
    # |c_n|^2 = r^(2n+2L) / (I_(2L)(2r) n! Gamma(n+2L+1)), summed independently
    p = PotentialParams(A=3.7)
    r = 2.4
    cs = build_coherent_state(r, p)
    L = mpmath.mpf(p.L)
    norm = mpmath.besseli(2 * L, 2 * r)
    for n in (0, 1, 5, cs.truncation_level):
        direct = mpmath.mpf(r) ** (2 * n + 2 * L) / (
            norm * mpmath.factorial(n) * mpmath.gamma(n + 2 * L + 1)
        )
        got = abs(cs.coeffs[n]) ** 2
        assert got == pytest.approx(float(direct), rel=1e-12)


def test_phases_rotate_linearly():
    p = PotentialParams(A=2.0)
    cs = build_coherent_state(1.5 * cmath.exp(0.7j), p)
    for n in (1, 3, 8):
        expect = (0.7 * n + math.pi) % (2.0 * math.pi) - math.pi
        assert cmath.phase(cs.coeffs[n]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("z", Z_GRID)
def test_lowering_eigenrelation(z):
    cs = build_coherent_state(z, PotentialParams(A=2.0))
    assert lowering_eigenstate_residual(cs) < 1e-10


def test_mean_level_against_independent_series():
    # <n> summed in 50-digit arithmetic over an extended range
    p = PotentialParams(A=2.0)
    r = 3.0
    cs = build_coherent_state(r, p)
    L = mpmath.mpf(p.L)
    norm = mpmath.besseli(2 * L, 2 * r)
    direct = mpmath.mpf(0)
    for n in range(cs.truncation_level + 60):
        w = mpmath.mpf(r) ** (2 * n + 2 * L) / (
            norm * mpmath.factorial(n) * mpmath.gamma(n + 2 * L + 1)
        )
        direct += n * w
    got = float(np.dot(np.abs(cs.coeffs) ** 2, np.arange(len(cs.coeffs))))
    assert got == pytest.approx(float(direct), rel=1e-11)


def test_weight_operator_mean_at_origin():
    p = PotentialParams(A=2.0)
    cs = build_coherent_state(0.0, p)
    got = float(np.dot(np.abs(cs.coeffs) ** 2, np.arange(len(cs.coeffs)) + p.L + 0.5))
    assert got == p.L + 0.5


def _assert_ladder_means(A, z):
    # K+ on diagonal 1 and K- on diagonal -1; the ratio recurrence c_(j+1) sqrt((j + 1)(j + 2L + 1)) = z c_j makes
    # them conj(z) s and z s, with s the weight of every kept level but the top one
    p = PotentialParams(A=A)
    cs = build_coherent_state(z, p)
    s = cs.norm_sq - abs(cs.coeffs[-1]) ** 2
    raising = general_expectation(cs, lambda i, j: np.sqrt((j + 1.0) * (j + 2.0 * p.L + 1.0)), (1,))
    lowering = general_expectation(cs, lambda i, j: np.sqrt(j * (j + 2.0 * p.L)), (-1,))
    assert abs(raising - z.conjugate() * s) <= 1e-13 * abs(z)
    assert abs(lowering - z * s) <= 1e-13 * abs(z)


def test_raising_and_lowering_means():
    for A, z in ((2.0, 2.0 + 1.0j), (0.55, 0.3j), (21.0, 40.0 - 7.0j)):
        _assert_ladder_means(A, z)


def test_ladder_means_at_large_label():
    _assert_ladder_means(3.3, cmath.rect(350.0, 0.7))


def test_dense_operator_matches_the_full_quadratic_form():
    cs = build_coherent_state(cmath.rect(350.0, -2.1), PotentialParams(A=2.0))
    n = len(cs.coeffs)
    rng = np.random.default_rng(7)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = b @ b.conj().T / n  # Hermitian and positive, so the mean does not cancel toward 0
    want = np.conj(cs.coeffs) @ m @ cs.coeffs
    got = general_expectation(cs, lambda i, j: m[i, j], range(1 - n, n))
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(got.imag) <= 1e-12 * got.real


def test_element_is_called_once_per_diagonal():
    cs = build_coherent_state(350.0, PotentialParams(A=2.0))
    c = cs.coeffs
    n = len(c)
    offsets = (0, 2, -3, 1)
    seen = []

    def element(i, j):
        assert i.dtype.kind == j.dtype.kind == "i" and i.shape == j.shape
        seen.append((i.copy(), j.copy()))
        return np.ones(i.shape)

    got = general_expectation(cs, element, offsets)
    assert len(seen) == len(offsets)
    for k, (i, j) in zip(offsets, seen):
        assert np.array_equal(j, np.arange(max(0, -k), n - max(0, k))) and np.array_equal(i, j + k)
    # the all-ones operator on those diagonals: the sum of conj(c_i) c_j over each diagonal's pairs
    outer = np.outer(np.conj(c), c)
    assert got == pytest.approx(sum(np.sum(np.diagonal(outer, -k)) for k in offsets), rel=1e-12)


def test_zero_label_has_no_ladder_mean():
    # the one-level state has no pair on either off-diagonal, as `expect --z 0` prints raising_mean_re,0.0
    cs = build_coherent_state(0.0, PotentialParams(A=2.0))
    for k in (1, -1):
        got = general_expectation(cs, lambda i, j: np.ones(i.shape), (k,))
        assert got == 0j and type(got) is complex


@pytest.mark.parametrize("offsets", ((True,), (1.0,), (1, 1), (0, np.int64(0))))
def test_offsets_must_be_distinct_integers(offsets):
    # a repeated offset would add its diagonal twice
    cs = build_coherent_state(1.0, PotentialParams(A=2.0))
    with pytest.raises(DomainError):
        general_expectation(cs, lambda i, j: np.ones(i.shape), offsets)


def test_determinism():
    p = PotentialParams(A=2.0)
    a = build_coherent_state(1.0 + 2.0j, p)
    b = build_coherent_state(1.0 + 2.0j, p)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_build_rejects_bad_input():
    p = PotentialParams(A=2.0)
    with pytest.raises(DomainError):
        build_coherent_state(complex(math.inf, 0.0), p)
    with pytest.raises(DomainError):
        build_coherent_state(1.0, p, tail_tol=0.0)
    with pytest.raises(OverflowError):
        build_coherent_state(400.0, p)


@pytest.mark.parametrize("A", (1e4, 1e6, 1e8, 1e12))
def test_ground_coefficient_below_the_normal_range_matches_mpmath(A):
    # where I_2L(2|z|) is below DBL_MIN, c_0 = S^(-1/2) with S the series scaled by its leading term, and
    # c_0^2 = |z|^(2L) / (Gamma(2L + 1) I_2L(2|z|)) = 1 / 0F1(; 2L + 1; |z|^2) (DLMF 10.25.2)
    p = PotentialParams(A=A)
    for r in (0.5, 3.0, 50.0, 300.0):
        assert bessel_i(2.0 * p.L, 2.0 * r) < sys.float_info.min
        c0 = abs(build_coherent_state(r, p).coeffs[0])
        ref = 1 / mpmath.sqrt(mpmath.hyp0f1(2 * mpmath.mpf(p.L) + 1, mpmath.mpf(r) ** 2))
        assert abs(c0 - ref) <= 1e-13 * ref


def test_radial_moment_closed_form_guard():
    with pytest.raises(DomainError):
        radial_weight_moment(1.0, 2.5)


def _level_r_max(n, p):
    return default_r_max(2.0 * n + 2.0 * p.L + 1.0)


@pytest.mark.parametrize("A", (1.5, 2.0, 3.7))
def test_resolution_diagonal_is_unity(A):
    p = PotentialParams(A=A)
    for n in range(11):
        v = resolution_of_identity_check(n, n, p, r_max=_level_r_max(n, p))
        assert abs(v - 1.0) < 1e-7


def test_resolution_off_diagonal_vanishes():
    p = PotentialParams(A=2.0)
    assert resolution_of_identity_check(2, 5, p, r_max=_level_r_max(2, p)) == 0.0
    assert resolution_of_identity_check(5, 2, p, r_max=_level_r_max(5, p)) == 0.0


@pytest.mark.parametrize("A", (0.65, 2.0, 21.0))
def test_resolution_on_level_sequences_equals_its_pairs(A):
    # one element per pair (n[i], n_prime[i]), each its own pair's call bit for bit; the diagonal pairs
    # share one pass over the K-grid and the off-diagonal ones are 0.0
    p = PotentialParams(A=A)
    r_max = _level_r_max(12, p)
    ns, n_primes = [0, 3, 7, 12, 2, 5, 9, 0], [0, 3, 7, 12, 5, 2, 9, 1]
    got = resolution_of_identity_check(ns, n_primes, p, r_max=r_max)
    want = [resolution_of_identity_check(n, m, p, r_max=r_max) for n, m in zip(ns, n_primes)]
    assert isinstance(got, np.ndarray) and got.tolist() == want
    assert all(isinstance(v, float) for v in want) and want[4] == want[5] == want[7] == 0.0
    diagonal = resolution_of_identity_check(range(4), range(4), p, r_max=r_max)
    assert diagonal.tolist() == [resolution_of_identity_check(n, n, p, r_max=r_max) for n in range(4)]


def test_resolution_rejects_sequences_of_two_lengths():
    with pytest.raises(DomainError, match="one length"):
        resolution_of_identity_check([0, 1], [0], PotentialParams(A=2.0), r_max=30.0)


def test_resolution_past_the_former_overflow_wall_is_finite_without_a_warning():
    # at 2L = 199 the raw moment r^200 overflowed on the upper panels; the row normalized in the row stays
    # finite wherever K(2r) is not 0.0.  pytest turns a stray RuntimeWarning into an error.  The value is off
    # by 9.5e-4, as below the lower mesh edge e_nu the integrand is only a probed power law
    p = PotentialParams(A=100.0)
    value = resolution_of_identity_check(0, 0, p, r_max=_level_r_max(0, p))
    assert abs(value - 1.0) < 1e-3


@pytest.mark.parametrize("A", (0.65, 2.0, 21.0))
def test_resolution_reaches_rounding_at_the_top_level(A):
    # levels 0..99 on the cutoff of level 99; the raw powers overflowed from about level 50 on
    p = PotentialParams(A=A)
    values = resolution_of_identity_check(range(100), range(100), p, r_max=_level_r_max(99, p))
    assert np.max(np.abs(values - 1.0)) < 5e-13


def test_resolution_rejects_bad_levels():
    p = PotentialParams(A=2.0)
    with pytest.raises(DomainError):
        resolution_of_identity_check(-1, 0, p, r_max=_level_r_max(-1, p))


def test_resolution_rejects_levels_past_the_basis_bound():
    # the bound that overlap and build_basis_state apply, checked before any moment is formed
    p = PotentialParams(A=2.0)
    with pytest.raises(DomainError, match=r"level index must be an integer in \[0, 100\], got 101"):
        resolution_of_identity_check(101, 101, p, r_max=_level_r_max(101, p))
