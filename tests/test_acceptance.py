"""Acceptance gate: ten criteria, one verdict line each.

Each test computes its residuals, prints a single PASS/FAIL line with the
measured numbers, then asserts.  Tolerances are the contract values; they are
not derived from observed behaviour.
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np

from fhpt.algebra import (
    apply_lowering,
    apply_raising,
    casimir_eigenvalue,
    commutator_residual,
    ladder_coefficients,
)
from fhpt.coherent import (
    build_coherent_state,
    lowering_eigenstate_residual,
    radial_weight_moment,
    resolution_of_identity_check,
)
from fhpt.model import PotentialParams, build_basis_state, eval_state, momentum_level, overlap, residual_ode
from fhpt.quadrature import default_r_max, gauss_legendre, integrate_semi_infinite_k_weight
from fhpt.special import bessel_i, bessel_k

A_GRID = (1.0, 1.5, 2.0, 3.7)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_equation_residual_and_detection():
    t0 = time.monotonic()
    worst = 0.0
    for A in A_GRID:
        p = PotentialParams(A=A)
        for n in range(21):
            worst = max(worst, residual_ode(n, p))
    p = PotentialParams(A=2.0)
    detect = min(
        residual_ode(n, p, momentum=momentum_level(n, p) + 1e-3) for n in (0, 5, 20)
    )
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and detect > 1e-5 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"equation residual {worst:.2e} < 1e-9 over four wells and 21 levels; "
        f"momentum shift 1e-3 detected at {detect:.2e} > 1e-5; {elapsed:.2f}s < 5s",
    )


def test_criterion_02_unit_well_spectrum():
    p = PotentialParams(A=1.0)
    worst = max(
        abs(momentum_level(n, p) - (n + 1.0) ** 2) / (n + 1.0) ** 2 for n in range(51)
    )
    ok = worst < 1e-14
    _verdict(2, ok, f"squared-integer momenta for n <= 50, worst relative dev {worst:.2e} < 1e-14")


def test_criterion_03_orthonormality():
    p = PotentialParams(A=2.0)
    rule = gauss_legendre(200)
    rule2 = gauss_legendre(400)
    idx = range(21)
    gram = np.array([[overlap(i, j, p, rule) for j in idx] for i in idx])
    gram2 = np.array([[overlap(i, j, p, rule2) for j in idx] for i in idx])
    dev = float(np.max(np.abs(gram - np.eye(21))))
    drift = float(np.max(np.abs(gram - gram2)))
    ok = dev < 1e-10 and drift < 1e-12
    _verdict(
        3,
        ok,
        f"Gram deviation {dev:.2e} < 1e-10 for n <= 20 at order 200; "
        f"order-doubling drift {drift:.2e} < 1e-12",
    )


def test_criterion_04_ladder_maps():
    tau = np.linspace(-0.5 * np.pi + 0.05, 0.5 * np.pi - 0.05, 101)
    y = np.sin(tau)
    worst = 0.0
    for A in A_GRID:
        p = PotentialParams(A=A)
        for n in range(16):
            st = build_basis_state(n, p)
            lc = ladder_coefficients(n, p.L)
            target = lc.raise_eig * eval_state(build_basis_state(n + 1, p), tau)
            worst = max(
                worst,
                float(np.max(np.abs(apply_raising(st)(y) - target)) / np.max(np.abs(target))),
            )
            if n >= 1:
                target = lc.lower_eig * eval_state(build_basis_state(n - 1, p), tau)
                worst = max(
                    worst,
                    float(np.max(np.abs(apply_lowering(st)(y) - target)) / np.max(np.abs(target))),
                )
    ground = float(
        np.max(np.abs(apply_lowering(build_basis_state(0, PotentialParams(A=2.0)))(y)))
    )
    ok = worst < 1e-9 and ground < 1e-10
    _verdict(
        4,
        ok,
        f"ladder eigenvalue relations hold to {worst:.2e} < 1e-9 for n <= 15; "
        f"ground level annihilated to {ground:.2e} < 1e-10",
    )


def test_criterion_05_algebra_closure():
    worst_comm = 0.0
    worst_cas = 0.0
    for A in A_GRID:
        p = PotentialParams(A=A)
        worst_comm = max(worst_comm, max(commutator_residual(n, p) for n in range(13)))
        cas = p.L**2 - 0.25
        worst_cas = max(
            worst_cas, max(abs(casimir_eigenvalue(n, p) - cas) for n in range(21))
        )
    ok = worst_comm < 1e-9 and worst_cas < 1e-12
    _verdict(
        5,
        ok,
        f"commutator closes on the weight operator to {worst_comm:.2e} < 1e-9; "
        f"Casimir constant to {worst_cas:.2e} < 1e-12 for n <= 20",
    )


def test_criterion_06_coherent_normalization():
    p = PotentialParams(A=2.0)
    worst = 0.0
    over = 0.0
    for r in (0.5, 2.0, 5.0):
        cs = build_coherent_state(r, p)
        worst = max(worst, abs(1.0 - cs.norm_sq))
        over = max(over, cs.norm_sq - 1.0)
    ok = worst < 1e-12 and over < 1e-14
    _verdict(
        6,
        ok,
        f"weight sums within {worst:.2e} < 1e-12 of 1 for |z| in {{0.5, 2, 5}}, never above 1",
    )


def test_criterion_07_annihilation_eigenstate():
    p = PotentialParams(A=2.0)
    worst = 0.0
    for z in (0.5 + 0.0j, 1.0 + 1.0j, 3.0 * cmath.exp(0.25j * math.pi)):
        worst = max(worst, lowering_eigenstate_residual(build_coherent_state(z, p)))
    ok = worst < 1e-10
    _verdict(7, ok, f"lowering eigenrelation l2 residual {worst:.2e} < 1e-10 over the label grid")


def test_criterion_08_label_plane_completeness():
    t0 = time.monotonic()
    p = PotentialParams(A=2.0)
    r_max = default_r_max(2.0 * 10 + 2.0 * p.L + 1.0)
    worst_diag = max(
        abs(resolution_of_identity_check(n, n, p, r_max=r_max) - 1.0)
        for n in range(11)
    )
    worst_mom = 0.0
    for k in (0, 3, 7):
        mu = 2.0 * k + 2.0 * p.L + 1.0
        closed = radial_weight_moment(mu, 2.0 * p.L)
        quad = integrate_semi_infinite_k_weight(lambda r, m=mu: r**m, 2.0 * p.L, r_max=default_r_max(mu))
        worst_mom = max(worst_mom, abs(quad - closed) / closed)
    elapsed = time.monotonic() - t0
    ok = worst_diag < 1e-7 and worst_mom < 1e-9 and elapsed < 10.0
    _verdict(
        8,
        ok,
        f"completeness diagonal within {worst_diag:.2e} < 1e-7 for n <= 10; "
        f"radial moments match closed forms to {worst_mom:.2e} < 1e-9; {elapsed:.2f}s < 10s",
    )


def test_criterion_09_special_function_layer():
    worst_w = 0.0
    for nu in (0.1, 0.5, 1.0, 1.7, 3.0, 5.0):
        for x in (0.5, 1.0, 2.5, 8.0, 20.0):
            w = x * (
                bessel_i(nu, x) * bessel_k(nu + 1.0, x)
                + bessel_i(nu + 1.0, x) * bessel_k(nu, x)
            )
            worst_w = max(worst_w, abs(w - 1.0))
    worst_h = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        i_half = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        k_half = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        worst_h = max(worst_h, abs(bessel_i(0.5, x) - i_half) / i_half)
        worst_h = max(worst_h, abs(bessel_k(0.5, x) - k_half) / k_half)
    rule = gauss_legendre(33)
    worst_q = 0.0
    for m in range(0, 65, 2):
        got = float(np.dot(rule.weights, rule.nodes**m))
        worst_q = max(worst_q, abs(got - 2.0 / (m + 1.0)))
    ok = worst_w < 1e-10 and worst_h < 1e-12 and worst_q < 1e-12
    _verdict(
        9,
        ok,
        f"Bessel cross-product identity {worst_w:.2e} < 1e-10; half-order closed forms "
        f"{worst_h:.2e} < 1e-12; quadrature exact to degree 64 at {worst_q:.2e} < 1e-12",
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fhpt.cli", *args], capture_output=True, text=True, timeout=120
    )


def test_criterion_10_cli_contract():
    golden = _cli("spectrum", "--A", "1", "--nmax", "3")
    rows_ok = golden.returncode == 0 and "0,1.0\n1,4.0\n2,9.0\n3,16.0" in golden.stdout
    repeat = _cli("spectrum", "--A", "1", "--nmax", "3")
    stable = repeat.stdout == golden.stdout

    ok_pass = _cli("verify", "--nmax", "4", "--quad-order", "80", "--format", "json")
    report = json.loads(ok_pass.stdout) if ok_pass.returncode == 0 else {}
    report_ok = (
        ok_pass.returncode == 0
        and report.get("pass") is True
        and report.get("version") == "fhpt-report/1"
        and all(
            set(row) == {"name", "identity", "residual", "tol", "pass"}
            for row in report.get("checks", [])
        )
    )
    fail_run = _cli("verify", "--nmax", "4", "--quad-order", "80", "--tol", "1e-30")
    domain_run = _cli("spectrum", "--A", "0.5", "--c1", "0.4")
    usage_run = _cli("wavefunction", "--interval", "bogus")
    codes_ok = (
        fail_run.returncode == 1
        and domain_run.returncode == 2
        and usage_run.returncode == 2
    )
    ok = rows_ok and stable and report_ok and codes_ok
    _verdict(
        10,
        ok,
        f"spectrum golden rows {'ok' if rows_ok else 'BAD'}, byte-stable {stable}, "
        f"report schema {'ok' if report_ok else 'BAD'}, exit codes 0/1/2 {'ok' if codes_ok else 'BAD'}",
    )
