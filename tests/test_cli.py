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


# byte-for-byte table output of the other commands, captured before the CLI
# glue was shared between them

GOLDEN_TABLES = {
    ('wavefunction', '--A', '1.5', '--n', '2', '--samples', '3', '--format', 'csv'): """# fhpt-table/1 command=wavefunction
# A=1.5
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# n=2
# interval=full
# samples=3
tau,psi
-0.7853981633974483,0.7225259014719703
0.0,-0.8100925873009844
0.7853981633974483,0.7225259014719703
# a_prime=3.0
# norm_constant=0.5400617248673224
""",
    ('coherent', '--z', '0.3@0.4', '--tail-tol', '1e-6', '--format', 'csv'): """# fhpt-table/1 command=coherent
# A=2.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# z_re=0.2763182982008655
# z_im=0.11682550269259515
# tail_tol=1e-06
n,weight,phase
0,0.977800491137564,0.0
1,0.022000511050595195,0.4
2,0.00019800459945535677,0.8
3,9.900229972767853e-07,1.2000000000000002
# truncation_level=3
# tail_bound=4.2429557026148e-09
# weight_sum=0.9999999968106118
# mean_level=0.02239949031849773
# mean_gamma0=2.022399490318498
# lowering_residual=5.938894922252167e-17
""",
    ('resolution', '--nmax', '1', '--quad-order', '40', '--format', 'csv'): """# fhpt-table/1 command=resolution
# A=2.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# nmax=1
# quad_order=40
n,value,deviation
0,1.0000000000000013,1.3322676295501878e-15
1,1.0000000000000018,1.7763568394002505e-15
# r_max=65.0
# max_abs_deviation=1.7763568394002505e-15
""",
    ('expect', '--A', '3', '--z', '0.5+0.5i', '--tail-tol', '1e-8', '--format', 'csv'): """# fhpt-table/1 command=expect
# A=3.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# z_re=0.5
# z_im=0.5
# tail_tol=1e-08
observable,value
level_mean,0.08236145736913436
level_variance,0.08140929950066074
gamma0_mean,3.0823614573691342
momentum_mean,9.582361452831735
raising_mean_re,0.49999999600630013
raising_mean_im,-0.49999999600630013
weight_sum,0.9999999999395892
# truncation_level=5
# tail_bound=8.00705979274831e-11
""",
    ('wavefunction', '--A', '1.5', '--n', '2', '--samples', '3', '--format', 'json'): """{
  "version": "fhpt-table/1",
  "command": "wavefunction",
  "config": {
    "A": 1.5,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "n": 2,
    "interval": "full",
    "samples": 3
  },
  "columns": [
    "tau",
    "psi"
  ],
  "rows": [
    [
      -0.7853981633974483,
      0.7225259014719703
    ],
    [
      0.0,
      -0.8100925873009844
    ],
    [
      0.7853981633974483,
      0.7225259014719703
    ]
  ],
  "summary": {
    "a_prime": 3.0,
    "norm_constant": 0.5400617248673224
  }
}
""",
    ('coherent', '--z', '0.3@0.4', '--tail-tol', '1e-6', '--format', 'json'): """{
  "version": "fhpt-table/1",
  "command": "coherent",
  "config": {
    "A": 2.0,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "z_re": 0.2763182982008655,
    "z_im": 0.11682550269259515,
    "tail_tol": 1e-06
  },
  "columns": [
    "n",
    "weight",
    "phase"
  ],
  "rows": [
    [
      0,
      0.977800491137564,
      0.0
    ],
    [
      1,
      0.022000511050595195,
      0.4
    ],
    [
      2,
      0.00019800459945535677,
      0.8
    ],
    [
      3,
      9.900229972767853e-07,
      1.2000000000000002
    ]
  ],
  "summary": {
    "truncation_level": 3,
    "tail_bound": 4.2429557026148e-09,
    "weight_sum": 0.9999999968106118,
    "mean_level": 0.02239949031849773,
    "mean_gamma0": 2.022399490318498,
    "lowering_residual": 5.938894922252167e-17
  }
}
""",
    ('resolution', '--nmax', '1', '--quad-order', '40', '--format', 'json'): """{
  "version": "fhpt-table/1",
  "command": "resolution",
  "config": {
    "A": 2.0,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "nmax": 1,
    "quad_order": 40
  },
  "columns": [
    "n",
    "value",
    "deviation"
  ],
  "rows": [
    [
      0,
      1.0000000000000013,
      1.3322676295501878e-15
    ],
    [
      1,
      1.0000000000000018,
      1.7763568394002505e-15
    ]
  ],
  "summary": {
    "r_max": 65.0,
    "max_abs_deviation": 1.7763568394002505e-15
  }
}
""",
    ('expect', '--A', '3', '--z', '0.5+0.5i', '--tail-tol', '1e-8', '--format', 'json'): """{
  "version": "fhpt-table/1",
  "command": "expect",
  "config": {
    "A": 3.0,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "z_re": 0.5,
    "z_im": 0.5,
    "tail_tol": 1e-08
  },
  "columns": [
    "observable",
    "value"
  ],
  "rows": [
    [
      "level_mean",
      0.08236145736913436
    ],
    [
      "level_variance",
      0.08140929950066074
    ],
    [
      "gamma0_mean",
      3.0823614573691342
    ],
    [
      "momentum_mean",
      9.582361452831735
    ],
    [
      "raising_mean_re",
      0.49999999600630013
    ],
    [
      "raising_mean_im",
      -0.49999999600630013
    ],
    [
      "weight_sum",
      0.9999999999395892
    ]
  ],
  "summary": {
    "truncation_level": 5,
    "tail_bound": 8.00705979274831e-11
  }
}
""",
}


@pytest.mark.parametrize("args", list(GOLDEN_TABLES), ids=" ".join)
def test_table_golden_output(args, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == GOLDEN_TABLES[args]


def test_verify_out_flag_matches_stdout(tmp_path, capsys):
    args = ["verify", "--nmax", "2", "--quad-order", "40"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report.csv"
    assert main([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed


# byte-for-byte report output of verify, captured before its CSV writer
# was shared with the table commands

GOLDEN_VERIFY = {
    ('verify', '--A', '2', '--format', 'csv'): """# fhpt-report/1
# A=2.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# nmax=10
# quad_order=200
# tol_override=None
name,identity,residual,tol,pass
ode-residual,secant-well-equation,5.692805081530733e-13,1e-09,true
spectrum-square-law,unit-well-squared-integers,0.0,1e-14,true
gram-identity,basis-orthonormality,9.547918011776346e-15,1e-10,true
gram-order-doubling,quadrature-convergence,7.771561172376096e-16,1e-12,true
ladder-raising,raising-eigenvalue,4.745977641914665e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,5.173390780383455e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,6.054602940283372e-14,1e-09,true
casimir-constancy,casimir-invariant,7.105427357601002e-15,1e-12,true
coherent-normalization,unit-weight-sum,6.428191312579656e-14,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,4.628570439118569e-16,1e-10,true
identity-resolution,label-plane-completeness,6.994405055138486e-15,1e-07,true
radial-closed-form,k-weighted-moments,3.579030076421233e-15,1e-09,true
bessel-wronskian,cross-product-identity,6.8833827526759706e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.916522747001144e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,2.2292326414890835e-15,1e-12,true
# pass=true
""",
    ('verify', '--A', '2', '--format', 'json'): """{
  "version": "fhpt-report/1",
  "config": {
    "A": 2.0,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "nmax": 10,
    "quad_order": 200,
    "tol_override": null
  },
  "checks": [
    {
      "name": "ode-residual",
      "identity": "secant-well-equation",
      "residual": 5.692805081530733e-13,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "spectrum-square-law",
      "identity": "unit-well-squared-integers",
      "residual": 0.0,
      "tol": 1e-14,
      "pass": true
    },
    {
      "name": "gram-identity",
      "identity": "basis-orthonormality",
      "residual": 9.547918011776346e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "gram-order-doubling",
      "identity": "quadrature-convergence",
      "residual": 7.771561172376096e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "ladder-raising",
      "identity": "raising-eigenvalue",
      "residual": 4.745977641914665e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 5.173390780383455e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ground-annihilation",
      "identity": "lowering-kills-ground",
      "residual": 0.0,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "commutator",
      "identity": "ladder-commutator",
      "residual": 6.054602940283372e-14,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "casimir-constancy",
      "identity": "casimir-invariant",
      "residual": 7.105427357601002e-15,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "coherent-normalization",
      "identity": "unit-weight-sum",
      "residual": 6.428191312579656e-14,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "lowering-eigenstate",
      "identity": "annihilation-eigenrelation",
      "residual": 4.628570439118569e-16,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "identity-resolution",
      "identity": "label-plane-completeness",
      "residual": 6.994405055138486e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 3.579030076421233e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "bessel-wronskian",
      "identity": "cross-product-identity",
      "residual": 6.8833827526759706e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "half-order-bessel",
      "identity": "elementary-closed-forms",
      "residual": 7.916522747001144e-15,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "quadrature-exactness",
      "identity": "polynomial-exactness",
      "residual": 1.3877787807814457e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "bessel-sum-identity",
      "identity": "weight-series-resummation",
      "residual": 2.2292326414890835e-15,
      "tol": 1e-12,
      "pass": true
    }
  ],
  "pass": true
}
""",
    ('verify', '--A', '3.7', '--nmax', '4', '--format', 'csv'): """# fhpt-report/1
# A=3.7
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# nmax=4
# quad_order=200
# tol_override=None
name,identity,residual,tol,pass
ode-residual,secant-well-equation,3.4159244629897595e-14,1e-09,true
spectrum-square-law,unit-well-squared-integers,0.0,1e-14,true
gram-identity,basis-orthonormality,9.547918011776346e-15,1e-10,true
gram-order-doubling,quadrature-convergence,4.440892098500626e-16,1e-12,true
ladder-raising,raising-eigenvalue,4.03009594938921e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,3.410512777770303e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,2.0876262767299667e-14,1e-09,true
casimir-constancy,casimir-invariant,6.394884621840902e-14,1e-12,true
coherent-normalization,unit-weight-sum,1.1102230246251565e-15,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,5.939536886830383e-16,1e-10,true
identity-resolution,label-plane-completeness,4.440892098500626e-15,1e-07,true
radial-closed-form,k-weighted-moments,3.964062380870307e-15,1e-09,true
bessel-wronskian,cross-product-identity,6.8833827526759706e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.916522747001144e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,3.1485980865830303e-15,1e-12,true
# pass=true
""",
    ('verify', '--A', '3.7', '--nmax', '4', '--format', 'json'): """{
  "version": "fhpt-report/1",
  "config": {
    "A": 3.7,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "nmax": 4,
    "quad_order": 200,
    "tol_override": null
  },
  "checks": [
    {
      "name": "ode-residual",
      "identity": "secant-well-equation",
      "residual": 3.4159244629897595e-14,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "spectrum-square-law",
      "identity": "unit-well-squared-integers",
      "residual": 0.0,
      "tol": 1e-14,
      "pass": true
    },
    {
      "name": "gram-identity",
      "identity": "basis-orthonormality",
      "residual": 9.547918011776346e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "gram-order-doubling",
      "identity": "quadrature-convergence",
      "residual": 4.440892098500626e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "ladder-raising",
      "identity": "raising-eigenvalue",
      "residual": 4.03009594938921e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 3.410512777770303e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ground-annihilation",
      "identity": "lowering-kills-ground",
      "residual": 0.0,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "commutator",
      "identity": "ladder-commutator",
      "residual": 2.0876262767299667e-14,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "casimir-constancy",
      "identity": "casimir-invariant",
      "residual": 6.394884621840902e-14,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "coherent-normalization",
      "identity": "unit-weight-sum",
      "residual": 1.1102230246251565e-15,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "lowering-eigenstate",
      "identity": "annihilation-eigenrelation",
      "residual": 5.939536886830383e-16,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "identity-resolution",
      "identity": "label-plane-completeness",
      "residual": 4.440892098500626e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 3.964062380870307e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "bessel-wronskian",
      "identity": "cross-product-identity",
      "residual": 6.8833827526759706e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "half-order-bessel",
      "identity": "elementary-closed-forms",
      "residual": 7.916522747001144e-15,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "quadrature-exactness",
      "identity": "polynomial-exactness",
      "residual": 1.3877787807814457e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "bessel-sum-identity",
      "identity": "weight-series-resummation",
      "residual": 3.1485980865830303e-15,
      "tol": 1e-12,
      "pass": true
    }
  ],
  "pass": true
}
""",
}


@pytest.mark.parametrize("args", list(GOLDEN_VERIFY), ids=" ".join)
def test_verify_golden_output(args, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY[args]


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


@pytest.mark.parametrize("nmax", ["-1", "100", "1000"])
def test_verify_exits_two_on_nmax_it_cannot_cover(nmax):
    res = run_cli("verify", "--nmax", nmax)
    assert res.returncode == 2
    assert "error: nmax must be an integer in [0, 99]" in res.stderr


OUT_OF_RANGE = {
    "spectrum --nmax -1": "--nmax must be at least 0, got -1",
    "resolution --nmax -1": "--nmax must be at least 0, got -1",
    "wavefunction --samples 0": "--samples must be at least 1, got 0",
    "wavefunction --samples -3": "--samples must be at least 1, got -3",
    "verify --tol nan": "tol_override must be a positive finite number, got nan",
    "verify --tol 0": "tol_override must be a positive finite number, got 0.0",
    "verify --tol -1": "tol_override must be a positive finite number, got -1.0",
    "verify --quad-order 3000": "quad_order must be an integer in [1, 2048], got 3000",
}


@pytest.mark.parametrize("command", list(OUT_OF_RANGE))
def test_out_of_range_inputs_exit_two(command, capsys):
    # rejected up front instead of an empty table or a misleading failure
    message = OUT_OF_RANGE[command]
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_covers_thirty_levels():
    res = run_cli("verify", "--A", "2", "--nmax", "30")
    assert res.returncode == 0, res.stderr
    assert "all 17 checks passed" in res.stderr


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


def test_verify_and_resolution_past_the_fixed_k_mesh_edge():
    # 2L = 45 and 81: K_2L(2 r) at r = 1e-6 exceeds the double range, so the
    # K mesh starts where it is still representable
    for A in ("23", "41"):
        res = run_cli("verify", "--A", A)
        assert res.returncode == 0, res.stderr
        assert "all 17 checks passed" in res.stderr
    res = run_cli("resolution", "--A", "23")
    assert res.returncode == 0
    assert res.stderr == ""
