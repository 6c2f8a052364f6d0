"""The quantized momentum against a Galerkin oracle that shares no code with the model.

With theta = tau + pi/2 the equation is -psi'' + g / sin^2(theta) psi = E psi on
(0, pi), g = A (A - 1) / (c1^2 M), and P = (c1^2 M / c) E.  In the box basis
sqrt(2/pi) sin(k theta), k = 1..K, the operator is exactly the matrix
k^2 delta_jk + 2 g min(j, k) [j + k even], since the integral of
sin(j theta) sin(k theta) / sin^2(theta) over (0, pi) is pi min(j, k) for
j + k even and 0 otherwise.  Its lowest eigenvalues tend to (n + lam)^2,
lam (lam - 1) = g, with an error falling like K^-(2 lam - 1), so a Richardson
step from K = 400 to 800 with that exponent removes the leading term.  The
box basis converges to the Friedrichs extension, which is the root the model
takes; only lam >= 1.3 is used, where the error falls fast enough.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from fhpt import model
from fhpt.model import PotentialParams, momentum_level

LEVELS = 6
CASES = [
    (2.0, {}),
    (1.8, {}),
    (3.7, {"c1": 1.3, "m0": 0.7, "c": 2.0, "hbar": 0.9}),
    (6.0, {"c1": 0.8, "m0": 0.4, "c": 1.5, "hbar": 1.2}),
]
# the extrapolated momenta of levels 0-5 agreed with the model to 1.0e-10 (A = 2), 7.1e-10 (A = 1.8),
# 5.3e-11 (A = 3.7) and 2.6e-11 (A = 6); the bound is ten times the worst, rounded up.  A relative shift
# of 1e-6 in a_prime moves P_n by a_prime 1e-6 / (n + a_prime / 2), 2e-6 at level 0
BOUND = 1e-8


def _galerkin_momenta(A: float, scales: dict) -> np.ndarray:
    c1, m0, c, hbar = (scales.get(k, v) for k, v in (("c1", 1.0), ("m0", 0.5), ("c", 1.0), ("hbar", 1.0)))
    unit = c1**2 * hbar**2 / (2.0 * m0 * c**2)  # c1^2 M
    g = A * (A - 1.0) / unit
    lam = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * g))
    assert lam >= 1.3

    def lowest(K):
        k = np.arange(1, K + 1)
        h = 2.0 * g * np.minimum.outer(k, k) * ((k[:, None] + k[None, :]) % 2 == 0)
        h[np.diag_indices(K)] += k * k
        return sla.eigvalsh(h, subset_by_index=[0, LEVELS - 1])

    q = 2.0 ** (2.0 * lam - 1.0)
    energies = (q * lowest(800) - lowest(400)) / (q - 1.0)
    return unit / c * energies


def _worst_deviation(A: float, scales: dict) -> float:
    model_p = momentum_level(range(LEVELS), PotentialParams(A=A, **scales))
    return float(np.max(np.abs(model_p - _galerkin_momenta(A, scales)) / model_p))


@pytest.mark.parametrize("A,scales", CASES, ids=[f"A={a}" for a, _ in CASES])
def test_momentum_matches_the_galerkin_oracle(A, scales):
    assert _worst_deviation(A, scales) < BOUND


def test_oracle_detects_a_shifted_shape_exponent(monkeypatch):
    derive = model.derive_a_prime
    monkeypatch.setattr(model, "derive_a_prime", lambda params: derive(params) * (1.0 + 1e-6))
    for A, scales in CASES:
        assert _worst_deviation(A, scales) > BOUND, A
