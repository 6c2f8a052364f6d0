"""Command line contract: golden output, schemas, determinism, exit codes."""

import cmath
import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from scipy.special import gammaln, ive, logsumexp

from fhpt.cli import main, parse_z
from fhpt.model import PotentialParams


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fhpt.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


# z parsing

def test_parse_z_cartesian():
    assert parse_z("1+2i") == 1.0 + 2.0j
    assert parse_z("-3") == -3.0 + 0.0j
    assert parse_z("i") == 1.0j
    assert parse_z("0.5-0.25i") == 0.5 - 0.25j


def test_parse_z_polar():
    assert parse_z("2@0") == 2.0 + 0.0j
    got = parse_z("1.5@0.7")
    assert got == pytest.approx(cmath.rect(1.5, 0.7), rel=1e-15)


def test_parse_z_rejects_garbage():
    from fhpt.errors import DomainError

    for bad in ("", "abc", "1+2k", "x@1"):
        with pytest.raises(DomainError):
            parse_z(bad)


# golden output

GOLDEN_SPECTRUM = """# fhpt-table/1 command=spectrum
# A=1.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# nmax=3
n,momentum
0,1.0
1,4.0
2,9.0
3,16.0
# a_prime=2.0
# L=0.5
# mass_scale=1.0
"""


def test_spectrum_golden_csv():
    res = run_cli("spectrum", "--A", "1", "--nmax", "3")
    assert res.returncode == 0
    assert res.stdout == GOLDEN_SPECTRUM


def test_output_is_deterministic():
    a = run_cli("coherent", "--z", "1.5@0.7", "--format", "json")
    b = run_cli("coherent", "--z", "1.5@0.7", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "spectrum.csv"
    res = run_cli("spectrum", "--A", "1", "--nmax", "3", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text() == GOLDEN_SPECTRUM


# schemas

TABLE_SCHEMA = {
    "type": "object",
    "required": ["version", "command", "config", "columns", "rows", "summary"],
    "properties": {
        "version": {"const": "fhpt-table/1"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array"}},
        "summary": {"type": "object"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "config", "checks", "pass"],
    "properties": {
        "version": {"const": "fhpt-report/1"},
        "config": {"type": "object"},
        "pass": {"type": "boolean"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "identity", "residual", "tol", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "identity": {"type": "string"},
                    "residual": {"type": "number"},
                    "tol": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


def test_table_json_schema():
    for args in (("spectrum", "--nmax", "2"), ("wavefunction", "--n", "1", "--samples", "5"),
                 ("coherent", "--z", "1+1i"), ("expect", "--z", "2"), ("resolution", "--nmax", "2")):
        res = run_cli(*args, "--format", "json")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        jsonschema.validate(payload, TABLE_SCHEMA)
        assert len(payload["rows"]) >= 1
        width = len(payload["columns"])
        assert all(len(row) == width for row in payload["rows"])


def test_verify_json_schema_and_success():
    res = run_cli("verify", "--nmax", "4", "--quad-order", "80", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["pass"] is True
    assert "all" in res.stderr and "passed" in res.stderr


# exit codes

def test_exit_one_when_checks_fail():
    res = run_cli("verify", "--nmax", "4", "--quad-order", "80", "--tol", "1e-30")
    assert res.returncode == 1
    assert "FAIL" in res.stderr


def test_exit_two_on_domain_error():
    # admissibility violation: c1^2 M < 1 excludes A = 1/2
    res = run_cli("spectrum", "--A", "0.5", "--c1", "0.4")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_exit_two_on_usage_error():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("wavefunction", "--interval", "bogus").returncode == 2
    assert run_cli("coherent", "--z", "abc").returncode == 2


def test_main_callable_directly(capsys):
    assert main(["spectrum", "--A", "1", "--nmax", "1"]) == 0
    captured = capsys.readouterr()
    assert "0,1.0" in captured.out


# physics-facing behaviour through the CLI

def test_wavefunction_samples_are_normalized():
    res = run_cli("wavefunction", "--n", "2", "--samples", "2000", "--format", "json")
    payload = json.loads(res.stdout)
    rows = np.array(payload["rows"], dtype=float)
    tau, psi = rows[:, 0], rows[:, 1]
    norm = np.trapezoid(psi * psi, tau)
    assert norm == pytest.approx(1.0, abs=1e-4)


def test_expect_raising_mean_is_conjugate_label():
    res = run_cli("expect", "--z", "2+1i", "--format", "json")
    payload = json.loads(res.stdout)
    rows = {name: value for name, value in payload["rows"]}
    assert rows["raising_mean_re"] == pytest.approx(2.0, abs=1e-9)
    assert rows["raising_mean_im"] == pytest.approx(-1.0, abs=1e-9)
    assert rows["weight_sum"] == pytest.approx(1.0, abs=1e-12)


def test_half_interval_flag_changes_scale():
    full = json.loads(run_cli("wavefunction", "--n", "0", "--samples", "3", "--format", "json").stdout)
    half = json.loads(run_cli("wavefunction", "--n", "0", "--samples", "3", "--interval", "half", "--format", "json").stdout)
    ratio = half["rows"][1][1] / full["rows"][1][1]
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("z", ["0.5", "30@0.4"])
def test_coherent_weights_at_large_well_strength(z):
    # A = 100 gives 2L = 199; at |z| = 0.5 the normalizer I_199(1) ~ 1e-432
    # lies below the double range, at |z| = 30 it does not
    res = run_cli("coherent", "--A", "100", "--z", z, "--format", "json")
    assert res.returncode == 0, res.stderr
    rows = np.array(json.loads(res.stdout)["rows"], dtype=float)
    L = PotentialParams(A=100.0).L
    r = abs(parse_z(z))
    n = np.arange(400.0)
    log_terms = (2.0 * n + 2.0 * L) * math.log(r) - gammaln(n + 1.0) - gammaln(n + 2.0 * L + 1.0)
    log_norm = logsumexp(log_terms)  # ln I_(2L)(2r), summed term by term
    scaled = ive(2.0 * L, 2.0 * r)
    if scaled > 0.0:
        assert log_norm == pytest.approx(math.log(scaled) + 2.0 * r, rel=1e-13)
    ref = np.exp(log_terms[: len(rows)] - log_norm)
    assert np.max(np.abs(rows[:, 1] - ref)) <= 1e-12 * np.max(ref)


def test_expect_at_large_well_strength():
    res = run_cli("expect", "--A", "100", "--z", "0.5", "--format", "json")
    assert res.returncode == 0, res.stderr
    rows = {name: value for name, value in json.loads(res.stdout)["rows"]}
    assert rows["weight_sum"] == pytest.approx(1.0, abs=1e-12)
    assert rows["raising_mean_re"] == pytest.approx(0.5, abs=1e-9)


def test_verify_exits_two_when_the_k_grid_overflows():
    # 2L = 45: K_45 at the first grid node exceeds the double range
    res = run_cli("verify", "--A", "23")
    assert res.returncode == 2
    assert "exceeds the double range" in res.stderr
