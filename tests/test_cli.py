"""Command line contract: golden output, schemas, determinism, exit codes."""

import cmath
import json
import math
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from scipy.special import gammaln, ive, logsumexp

from fhpt import cli
from fhpt.cli import main, parse_z
from fhpt.coherent import build_coherent_state
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
-0.7853981633974483,0.7225259014719683
0.0,-0.8100925873009823
0.7853981633974483,0.7225259014719683
# a_prime=3.0
# norm_constant=0.5400617248673217
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
0,0.9778004911375635,0.0
1,0.022000511050595178,0.39999999999999997
2,0.00019800459945535644,0.8
3,9.900229972767815e-07,1.2000000000000002
# truncation_level=3
# tail_bound=4.24295570261477e-09
# weight_sum=0.9999999968106114
# mean_level=0.022399490318497722
# mean_gamma0=2.022399490318498
# lowering_residual=5.929862377219018e-17
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
0,0.9999999999999996,4.440892098500626e-16
1,1.0000000000000009,8.881784197001252e-16
# r_max=65.0
# max_abs_deviation=8.881784197001252e-16
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
raising_mean_im,-0.4999999960063001
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
      0.7225259014719683
    ],
    [
      0.0,
      -0.8100925873009823
    ],
    [
      0.7853981633974483,
      0.7225259014719683
    ]
  ],
  "summary": {
    "a_prime": 3.0,
    "norm_constant": 0.5400617248673217
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
      0.9778004911375635,
      0.0
    ],
    [
      1,
      0.022000511050595178,
      0.39999999999999997
    ],
    [
      2,
      0.00019800459945535644,
      0.8
    ],
    [
      3,
      9.900229972767815e-07,
      1.2000000000000002
    ]
  ],
  "summary": {
    "truncation_level": 3,
    "tail_bound": 4.24295570261477e-09,
    "weight_sum": 0.9999999968106114,
    "mean_level": 0.022399490318497722,
    "mean_gamma0": 2.022399490318498,
    "lowering_residual": 5.929862377219018e-17
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
      0.9999999999999996,
      4.440892098500626e-16
    ],
    [
      1,
      1.0000000000000009,
      8.881784197001252e-16
    ]
  ],
  "summary": {
    "r_max": 65.0,
    "max_abs_deviation": 8.881784197001252e-16
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
      -0.4999999960063001
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
ode-residual,secant-well-equation,5.713734511977526e-13,1e-09,true
spectrum-square-law,unit-well-squared-integers,0.0,1e-14,true
gram-identity,basis-orthonormality,2.886579864025407e-15,1e-10,true
gram-order-doubling,quadrature-convergence,6.661338147750939e-16,1e-12,true
ladder-raising,raising-eigenvalue,4.7247902417275375e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,3.6952791288453314e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,9.239143561501516e-14,1e-09,true
casimir-constancy,casimir-invariant,7.105427357601002e-15,1e-12,true
coherent-normalization,unit-weight-sum,6.428191312579656e-14,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,4.628570439118569e-16,1e-10,true
identity-resolution,label-plane-completeness,3.3306690738754696e-15,1e-07,true
radial-closed-form,k-weighted-moments,7.401486830834377e-16,1e-09,true
bessel-wronskian,cross-product-identity,6.439293542825908e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.513987692068883e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,2.563617537712441e-15,1e-12,true
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
      "residual": 5.713734511977526e-13,
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
      "residual": 2.886579864025407e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "gram-order-doubling",
      "identity": "quadrature-convergence",
      "residual": 6.661338147750939e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "ladder-raising",
      "identity": "raising-eigenvalue",
      "residual": 4.7247902417275375e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 3.6952791288453314e-15,
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
      "residual": 9.239143561501516e-14,
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
      "residual": 3.3306690738754696e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 7.401486830834377e-16,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "bessel-wronskian",
      "identity": "cross-product-identity",
      "residual": 6.439293542825908e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "half-order-bessel",
      "identity": "elementary-closed-forms",
      "residual": 7.513987692068883e-15,
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
      "residual": 2.563617537712441e-15,
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
ode-residual,secant-well-equation,3.848928972382842e-14,1e-09,true
spectrum-square-law,unit-well-squared-integers,0.0,1e-14,true
gram-identity,basis-orthonormality,1.9984014443252818e-15,1e-10,true
gram-order-doubling,quadrature-convergence,2.905661822261152e-16,1e-12,true
ladder-raising,raising-eigenvalue,2.423194831770022e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,2.0267969129628975e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,2.589756750642814e-14,1e-09,true
casimir-constancy,casimir-invariant,6.394884621840902e-14,1e-12,true
coherent-normalization,unit-weight-sum,6.661338147750939e-16,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,5.939536886830383e-16,1e-10,true
identity-resolution,label-plane-completeness,3.1086244689504383e-15,1e-07,true
radial-closed-form,k-weighted-moments,1.5726464152043801e-15,1e-09,true
bessel-wronskian,cross-product-identity,6.439293542825908e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.513987692068883e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,2.563617537712441e-15,1e-12,true
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
      "residual": 3.848928972382842e-14,
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
      "residual": 1.9984014443252818e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "gram-order-doubling",
      "identity": "quadrature-convergence",
      "residual": 2.905661822261152e-16,
      "tol": 1e-12,
      "pass": true
    },
    {
      "name": "ladder-raising",
      "identity": "raising-eigenvalue",
      "residual": 2.423194831770022e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 2.0267969129628975e-15,
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
      "residual": 2.589756750642814e-14,
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
      "residual": 6.661338147750939e-16,
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
      "residual": 3.1086244689504383e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 1.5726464152043801e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "bessel-wronskian",
      "identity": "cross-product-identity",
      "residual": 6.439293542825908e-15,
      "tol": 1e-10,
      "pass": true
    },
    {
      "name": "half-order-bessel",
      "identity": "elementary-closed-forms",
      "residual": 7.513987692068883e-15,
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
      "residual": 2.563617537712441e-15,
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
# past this well strength a_prime is not finite: spectrum printed inf, wavefunction
# nan (both exit 0), and coherent and verify raised an uncaught ValueError
A_PRIME_BOUND = "gives a non-finite a_prime: 4 A (A - 1) / (c1^2 M) must be < 1.8e308"
for _command, _A in (("spectrum", "1e154"), ("wavefunction", "1e200"), ("coherent", "1e200"), ("verify", "1e200")):
    OUT_OF_RANGE[f"{_command} --A {_A}"] = f"well strength A={float(_A)!r} {A_PRIME_BOUND}"
# scales whose M or c1^2 M leaves the double range: an underflow to zero ended in an uncaught
# ZeroDivisionError (exit 1), an overflowing square in "error: (34, 'Numerical result out of range')"
SCALE_BOUND = "leave the double range: M = hbar^2 / (2 m0 c^2) and c1^2 M must be positive finite doubles"
for _command, _scale, _value in (
    ("spectrum", "c1", "1e-200"), ("spectrum", "c", "1e-200"), ("spectrum", "m0", "1e308"), ("verify", "c1", "1e-200"),
    ("spectrum", "hbar", "1e200"), ("coherent", "c1", "1e200"), ("wavefunction", "m0", "1e-310"),
):
    _scales = {"c1": 1.0, "m0": 0.5, "c": 1.0, "hbar": 1.0, _scale: float(_value)}
    _named = ", ".join(f"{k}={v!r}" for k, v in _scales.items())
    OUT_OF_RANGE[f"{_command} --{_scale} {_value}"] = f"scales {_named} {SCALE_BOUND}"


@pytest.mark.parametrize("command", list(OUT_OF_RANGE))
def test_out_of_range_inputs_exit_two(command, capsys):
    # rejected up front instead of an empty table or a misleading failure
    message = OUT_OF_RANGE[command]
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    ["resolution --A 100", "verify --A 45", "verify --A 45 --nmax 0", "verify --A 23 --nmax 30",
     "resolution --quad-order 1 --A 42.9288 --nmax 10"],
)
def test_moment_overflow_ends_in_one_stderr_line(command, capsys):
    # r^degree overflows on the upper panels; numpy's own warning, with a source path, used to come first.
    # In the last case one moment overflows only at its upper tail probe r = r_max, where K has underflowed
    # to 0, before a later one overflows on a node
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: integrand returned a non-finite value at node ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "verify --nmax 2 --quad-order 40"])
@pytest.mark.parametrize("where", ["missing/dir/out.csv", "."])
def test_unwritable_out_exits_two(command, where, tmp_path, capsys):
    # a missing directory or a directory path ended in an uncaught OSError traceback with exit 1
    assert main([*command.split(), "--out", str(tmp_path / where)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("error: cannot write --out: [Errno ") and str(tmp_path) in last
    assert captured.err.count("error:") == 1


def test_stdout_failure_is_not_taken_for_an_out_path(monkeypatch):
    # only the --out write is a usage error; a closed pipe on stdout is not reported as one
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["spectrum"])


@pytest.mark.parametrize("command", ["coherent", "expect"])
def test_label_past_the_double_range_exits_two(command, capsys):
    # 2|z| overflows to inf, which ended in "bessel_i series did not converge"
    assert main([command, "--z", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: I_3.0(inf) exceeds the double range\n"


def test_verify_covers_thirty_levels():
    res = run_cli("verify", "--A", "2", "--nmax", "30")
    assert res.returncode == 0, res.stderr
    assert "all 17 checks passed" in res.stderr


def test_exit_two_on_usage_error():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("wavefunction", "--interval", "bogus").returncode == 2
    assert run_cli("coherent", "--z", "abc").returncode == 2


WELL_DEFAULTS = {"A": 2.0, "c1": 1.0, "m0": 0.5, "c": 1.0, "hbar": 1.0, "format": "csv", "out": None}
PARSED_DEFAULTS = {
    "spectrum": {"nmax": 10},
    "wavefunction": {"n": 0, "samples": 201, "interval": "full"},
    "coherent": {"z": "1", "tail_tol": 1e-13},
    "resolution": {"nmax": 10, "quad_order": 200},
    "expect": {"z": "1", "tail_tol": 1e-13},
    "verify": {"nmax": 10, "quad_order": 200, "tol": None},
}


@pytest.mark.parametrize("command", list(PARSED_DEFAULTS))
def test_parsed_defaults_of_every_command(command):
    # the goldens pass most options explicitly; this pins what each command reads when none is given
    parsed = vars(cli._build_parser().parse_args([command]))
    assert parsed.pop("func").__name__ == f"_cmd_{command}"
    assert parsed == {"command": command, **WELL_DEFAULTS, **PARSED_DEFAULTS[command]}


@pytest.mark.parametrize("command", list(PARSED_DEFAULTS))
def test_help_states_the_parsed_defaults(command, capsys, monkeypatch):
    # a wide terminal keeps each option's help on its own line, or on the next one after a long flag
    monkeypatch.setenv("COLUMNS", "200")
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    stated = dict(re.findall(r"^  --([\w-]+) \S+\s+(?!-)[^\n]*?\(default ([^,)]+)", out, re.M))
    parsed = vars(cli._build_parser().parse_args([command]))
    assert len(stated) == out.count("(default") >= 5
    assert {flag: str(parsed[flag.replace("-", "_")]) for flag in stated} == stated


def test_verify_words_its_shared_options_for_the_checks(capsys):
    assert main(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "level budget for the checks" in out and "quadrature order for overlaps" in out
    assert main(["resolution", "--help"]) == 0
    out = capsys.readouterr().out
    assert "highest level (default 10)" in out and "panel rule order" in out


def test_one_parser_serves_every_request_in_a_process(capsys):
    # the argparse tree is built once and reused; a usage error leaves it intact
    assert main(["nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: fhpt" in captured.err
    assert main(["spectrum", "--A", "1", "--nmax", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_SPECTRUM
    assert main(["wavefunction", "--interval", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'bogus'" in captured.err
    assert cli._build_parser() is cli._build_parser()




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
    f = psi * psi
    norm = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(tau)))  # the trapezoid rule, written out for numpy 1.x
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


def test_coherent_rows_match_the_per_level_expression(capsys):
    assert main(["coherent", "--z", "300@1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    cs = build_coherent_state(parse_z("300@1"), PotentialParams(A=2.0))  # the CLI default well
    weights = np.abs(cs.coeffs) ** 2
    assert rows == [[n, float(w), float(np.angle(c))] for n, (w, c) in enumerate(zip(weights, cs.coeffs))]


@pytest.mark.parametrize("z", ["1.7@-2.9", "12@1.1"])
def test_coherent_summary_follows_from_printed_weights(z, capsys):
    assert main(["coherent", "--z", z, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    w = np.array([row[1] for row in out["rows"]])
    assert float(np.sum(w)) == out["summary"]["weight_sum"]
    assert float(np.dot(w, np.arange(len(w)))) == out["summary"]["mean_level"]


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
