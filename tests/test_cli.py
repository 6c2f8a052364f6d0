"""Command line contract: golden output, schemas, determinism, exit codes."""

import argparse
import cmath
import json
import math
import re
import subprocess
import sys
import warnings

import jsonschema
import mpmath
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
    ('resolution', '--nmax', '1', '--format', 'csv'): """# fhpt-table/1 command=resolution
# A=2.0
# c1=1.0
# m0=0.5
# c=1.0
# hbar=1.0
# nmax=1
n,value,deviation
0,0.9999999999999996,4.440892098500626e-16
1,1.0000000000000007,6.661338147750939e-16
# r_max=65.0
# max_abs_deviation=6.661338147750939e-16
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
    ('resolution', '--nmax', '1', '--format', 'json'): """{
  "version": "fhpt-table/1",
  "command": "resolution",
  "config": {
    "A": 2.0,
    "c1": 1.0,
    "m0": 0.5,
    "c": 1.0,
    "hbar": 1.0,
    "nmax": 1
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
      1.0000000000000007,
      6.661338147750939e-16
    ]
  ],
  "summary": {
    "r_max": 65.0,
    "max_abs_deviation": 6.661338147750939e-16
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
ode-residual,secant-well-equation,5.420722485722268e-13,1e-09,true
spectrum-square-law,unit-well-squared-integers,0.0,1e-14,true
gram-identity,basis-orthonormality,2.886579864025407e-15,1e-10,true
gram-order-doubling,quadrature-convergence,6.661338147750939e-16,1e-12,true
ladder-raising,raising-eigenvalue,6.28105951478208e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,4.790373851568977e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,9.239143561501516e-14,1e-09,true
casimir-constancy,casimir-invariant,1.9737298215558337e-16,1e-12,true
coherent-normalization,unit-weight-sum,6.428191312579656e-14,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,4.628570439118569e-16,1e-10,true
identity-resolution,label-plane-completeness,4.6629367034256575e-15,1e-07,true
radial-closed-form,k-weighted-moments,1.6653345369377348e-15,1e-09,true
bessel-wronskian,cross-product-identity,6.439293542825908e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.513987692068883e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,2.0063093773401714e-15,1e-12,true
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
      "residual": 5.420722485722268e-13,
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
      "residual": 6.28105951478208e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 4.790373851568977e-15,
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
      "residual": 1.9737298215558337e-16,
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
      "residual": 4.6629367034256575e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 1.6653345369377348e-15,
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
      "residual": 2.0063093773401714e-15,
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
ladder-raising,raising-eigenvalue,2.422738085566759e-15,1e-09,true
ladder-lowering,lowering-eigenvalue,2.1388737767943983e-15,1e-09,true
ground-annihilation,lowering-kills-ground,0.0,1e-10,true
commutator,ladder-commutator,2.589756750642814e-14,1e-09,true
casimir-constancy,casimir-invariant,1.5828530535979064e-16,1e-12,true
coherent-normalization,unit-weight-sum,6.661338147750939e-16,1e-12,true
lowering-eigenstate,annihilation-eigenrelation,5.939536886830383e-16,1e-10,true
identity-resolution,label-plane-completeness,4.440892098500626e-15,1e-07,true
radial-closed-form,k-weighted-moments,2.1094237467877974e-15,1e-09,true
bessel-wronskian,cross-product-identity,6.439293542825908e-15,1e-10,true
half-order-bessel,elementary-closed-forms,7.513987692068883e-15,1e-12,true
quadrature-exactness,polynomial-exactness,1.3877787807814457e-16,1e-12,true
bessel-sum-identity,weight-series-resummation,2.0063093773401714e-15,1e-12,true
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
      "residual": 2.422738085566759e-15,
      "tol": 1e-09,
      "pass": true
    },
    {
      "name": "ladder-lowering",
      "identity": "lowering-eigenvalue",
      "residual": 2.1388737767943983e-15,
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
      "residual": 1.5828530535979064e-16,
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
      "residual": 4.440892098500626e-15,
      "tol": 1e-07,
      "pass": true
    },
    {
      "name": "radial-closed-form",
      "identity": "k-weighted-moments",
      "residual": 2.1094237467877974e-15,
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
      "residual": 2.0063093773401714e-15,
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


# the writer's byte contract: JSON is json.dumps(payload, indent=2), a CSV row joins _fmt_cell of its cells

def _csv_parts(payload, table):
    # the columns, CSV rows and summary of a table payload ("rows") or a verify report ("checks")
    if table == "rows":
        return payload["columns"], payload["rows"], payload["summary"]
    checks = payload["checks"]
    return list(checks[0]), [list(c.values()) for c in checks], {"pass": payload["pass"]}


def _written(fmt, payload, table, capsys):
    columns, rows, summary = _csv_parts(payload, table)
    args = argparse.Namespace(format=fmt, out=None)
    cli._write(args, payload, table, "# head", columns, rows, summary)
    return capsys.readouterr().out


def _csv_cell_by_cell(payload, table, header="# head"):
    columns, rows, summary = _csv_parts(payload, table)
    lines = [header, *(f"# {k}={cli._fmt_cell(v)}" for k, v in payload["config"].items()), ",".join(columns)]
    lines += [",".join(cli._fmt_cell(v) for v in row) for row in rows]
    lines += [f"# {k}={cli._fmt_cell(v)}" for k, v in summary.items()]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, 1e16, 123456789.0]
NON_FINITE = [math.nan, math.inf, -math.inf]
WRITER_ROWS = {
    "one row": [[0, 1.0]],
    "2000 rows": [[n, n * 0.37 - 5.0, -1.0 / (n + 1)] for n in range(2000)],
    "int cells": [[n, -n, 10**20] for n in range(5)],
    "edge floats": [[n, v] for n, v in enumerate(EDGE_FLOATS)],
    "bool cells": [[True, False, 1, 0.0]],
    "str cells": [["level_mean", 9.5], ['q"uote\\ line\nbreak \u00e9', 1.0], ["", -0.0]],
    "None cells": [[None, 1.0], [2, None]],
    "non-finite floats": [[n, v, 1.0] for n, v in enumerate(NON_FINITE)],
    "no rows": [],
    "an empty row": [[1, 2.0], []],
    # the commands hand over tuples of scalars, which the encoder writes as arrays
    "2000 tuple rows": [(n, n * 0.37 - 5.0, -1.0 / (n + 1)) for n in range(2000)],
    "str and None cells in tuples": [("level_mean", 9.5), ('q"uote\nbreak', None), (None, -0.0)],
    "non-finite floats in tuples": [(n, v, 1.0) for n, v in enumerate(NON_FINITE)],
    "an empty tuple row": [(1, 2.0), ()],
}


def _table_payload(rows):
    config = {"A": 2.0, "c1": 1e-300, "interval": "half", "tol_override": None, "nmax": 3}
    width = len(rows[0]) if rows else 2
    columns = [f"c{i}" for i in range(width)]
    summary = {"a_prime": 2.0, "flag": True, "r_max": math.inf, "truncation_level": 40}
    return {"version": TABLE_SCHEMA["properties"]["version"]["const"], "command": "test", "config": config,
            "columns": columns, "rows": rows, "summary": summary}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", list(WRITER_ROWS))
def test_table_writer_keeps_the_reference_bytes(case, fmt, capsys):
    payload = _table_payload(WRITER_ROWS[case])
    expected = json.dumps(payload, indent=2) + "\n" if fmt == "json" else _csv_cell_by_cell(payload, "rows")
    assert _written(fmt, payload, "rows", capsys) == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_writer_keeps_the_reference_bytes(fmt, capsys):
    residuals = [5.713734511977526e-13, 0.0, -0.0, 5e-324, math.nan, math.inf, 1.7976931348623157e308]
    checks = [{"name": f"check-{i}", "identity": 'a "quoted"\tidentity', "residual": r, "tol": 1e-09, "pass": r < 1.0}
              for i, r in enumerate(residuals)]
    payload = {"version": "fhpt-report/1", "config": {"A": 2.0, "nmax": 10, "tol_override": None}, "checks": checks,
               "pass": False}
    expected = json.dumps(payload, indent=2) + "\n" if fmt == "json" else _csv_cell_by_cell(payload, "checks")
    assert _written(fmt, payload, "checks", capsys) == expected


EVERY_COMMAND = [
    ["spectrum", "--nmax", "20"],
    ["wavefunction", "--n", "3", "--samples", "7", "--interval", "half"],
    ["coherent", "--z", "3@0.4"],
    ["resolution", "--nmax", "3"],
    ["expect", "--z", "2+1i"],
    ["verify", "--nmax", "3", "--quad-order", "40"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_every_command_writes_the_reference_bytes(argv, capsys):
    # the JSON text is json.dumps of what it parses to, and the CSV text is that payload written cell by cell
    assert main([*argv, "--format", "json"]) in (0, 1)
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    if argv[0] == "verify":
        jsonschema.validate(payload, REPORT_SCHEMA)
        table, header = "checks", f"# {payload['version']}"
    else:
        jsonschema.validate(payload, TABLE_SCHEMA)
        table, header = "rows", f"# {payload['version']} command={payload['command']}"
    assert main([*argv, "--format", "csv"]) in (0, 1)
    assert capsys.readouterr().out == _csv_cell_by_cell(payload, table, header)


# A fresh interpreter warms CPython's free lists with one table, then counts the cyclic GC passes the same table
# sets off again.  No gc.collect() between the two: a full pass empties the free lists
GC_PROBE = """
import contextlib, gc, io, sys
from fhpt.cli import main
argv = ["wavefunction", "--A", "3.3", "--n", "100", "--samples", "2000", "--format", sys.argv[1]]
starts = []
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
    gc.callbacks.append(lambda phase, info: starts.append(info["generation"]) if phase == "start" else None)
    main(argv)
print(len(starts))
"""


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's cyclic GC passes")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_2000_row_table_sets_off_no_gc_pass(fmt):
    # one list per row made 2,000 tracked objects and 2 generation-0 passes per table; tuples of a few
    # scalars come from the tuple free list
    res = subprocess.run([sys.executable, "-c", GC_PROBE, fmt], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0\n"


# exit codes

def test_exit_one_when_checks_fail():
    res = run_cli("verify", "--nmax", "4", "--quad-order", "80", "--tol", "1e-30")
    assert res.returncode == 1
    assert "FAIL" in res.stderr


def test_verify_passes_a_correct_well_at_a_fast_time_scale():
    res = run_cli("verify", "--c1", "100")
    assert res.returncode == 0, res.stderr


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


SUM_BOUND = "verify needs 2L <= 196.48, where bessel-sum-identity's reference I_2L(4) is a normal double"
PAST_THE_RANGE = {
    "resolution --nmax 2 --A 1e6":
        "numerical failure: every K weight on [735498.7140741505, 20000045.0] is 0.0 at nu=1999999.0",
    "verify --A 1e6": f"error: well strength A=1000000.0 gives 2L=1999999.0; {SUM_BOUND}",
    "verify --A 150": f"error: well strength A=150.0 gives 2L=299.0; {SUM_BOUND}",
}


@pytest.mark.parametrize("command", list(PAST_THE_RANGE))
def test_a_well_past_the_double_range_exits_two_at_once(command):
    # every K weight of the 1e6 well is 0.0, and the grid finds that without running its 2L ~ 2e6 order
    # steps (about 11 s once); verify rejects both wells up front, where bessel-sum-identity's term
    # Gamma(n + 2L + 1) overflowed at 2L = 299, or its sum of all-zero terms never ended
    argv = [sys.executable, "-m", "fhpt.cli", *command.split()]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=5)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"{PAST_THE_RANGE[command]}\n")


OUT_OF_RANGE = {
    "spectrum --nmax -1": "--nmax must be at least 0, got -1",
    "resolution --nmax -1": "--nmax must be an integer in [0, 100], got -1",
    # unbounded before: the levels' list and their (nmax + 1) x 1,600 powers were built first
    "resolution --nmax 101": "--nmax must be an integer in [0, 100], got 101",
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
     "resolution --A 42.9288 --nmax 10"],
)
def test_moment_overflow_ends_in_one_stderr_line(command, capsys):
    # the raw powers r^degree overflowed here on the upper panels, and the call ended in one stderr line.
    # Each row is now normalized in the row and evaluated only where K is not 0.0, so every case exits 0
    # without a warning (pytest turns one into an error)
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.out and "numerical failure" not in captured.err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["spectrum --nmax 1", "expect"])
def test_momentum_past_the_double_range_exits_two(command, fmt):
    # numpy's overflow warning came first, then rows of inf (in JSON the non-standard token Infinity),
    # and the command exited 0
    res = run_cli(*command.split(), "--A", "5e153", "--c1", "10", "--c", "0.01", "--format", fmt)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: momentum of level 0 exceeds the double range\n"


def test_verify_covers_thirty_levels():
    res = run_cli("verify", "--A", "2", "--nmax", "30")
    assert res.returncode == 0, res.stderr
    assert "all 17 checks passed" in res.stderr


def test_exit_two_on_usage_error():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("wavefunction", "--interval", "bogus").returncode == 2
    assert run_cli("coherent", "--z", "abc").returncode == 2
    # every K-weighted moment takes the one K-grid, so only verify's Gram rules have an order to set
    assert run_cli("resolution", "--quad-order", "40").returncode == 2


WELL_DEFAULTS = {"A": 2.0, "c1": 1.0, "m0": 0.5, "c": 1.0, "hbar": 1.0, "format": "csv", "out": None}
PARSED_DEFAULTS = {
    "spectrum": {"nmax": 10},
    "wavefunction": {"n": 0, "samples": 201, "interval": "full"},
    "coherent": {"z": "1", "tail_tol": 1e-13},
    "resolution": {"nmax": 10},
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
    assert "level budget for the checks" in out and "Gram rule order" in out
    assert main(["resolution", "--help"]) == 0
    out = capsys.readouterr().out
    assert "highest level (default 10)" in out and "--quad-order" not in out


@pytest.mark.parametrize("nmax", ["7", "10", "30"])
@pytest.mark.parametrize("A", ["0.65", "2", "21"])
def test_resolution_prints_the_moments_verify_checks(A, nmax, capsys):
    # from nmax 7 on, verify's one moment pass takes levels 0..nmax on the cutoff of level nmax, as resolution
    # does, and both integrate on the one K-grid: the deviations agree bit for bit
    assert main(["resolution", "--A", A, "--nmax", nmax, "--format", "json"]) == 0
    deviation = json.loads(capsys.readouterr().out)["summary"]["max_abs_deviation"]
    assert main(["verify", "--A", A, "--nmax", nmax, "--format", "json"]) in (0, 1)  # A = 0.65 fails the Gram checks
    residuals = {c["name"]: c["residual"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert residuals["identity-resolution"] == deviation


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




PARSE_ARGVS = [
    [], ["-h"], ["bogus"], ["spectrum", "--bogus", "1"], ["spectrum", "--nmax", "x"], ["spectrum", "-h"],
    ["spectrum", "--nm", "3"], ["spectrum", "--A=2.5"], ["verify", "--A", "2", "extra"],
]


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_main_parses_as_the_top_level_parser_does(argv, capsys):
    # a known command goes straight to its own parser; the exit code and the usage, help and error text stay
    # those of the top-level parser's parse_args, and a clean parse prints nothing to stderr
    try:
        cli._build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = int(exc.code or 0)
    parsed = capsys.readouterr()
    assert main(argv) == code
    got = capsys.readouterr()
    assert got.err == parsed.err
    if parsed.out or parsed.err:  # help, or a usage error: nothing ran
        assert got.out == parsed.out


def test_a_known_command_is_parsed_once(monkeypatch, capsys):
    # the top-level parser is left out of a call that names a known command; the rest still go to it
    parser = cli._build_parser()
    calls = []
    top_level = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", lambda *a, **kw: calls.append(a) or top_level(*a, **kw))
    assert main(["spectrum", "--A", "1", "--nmax", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_SPECTRUM and calls == []
    assert main(["spectrum", "--bogus"]) == 2 and main(["bogus"]) == 2 and len(calls) == 1


@pytest.mark.parametrize("command", ["coherent", "expect"])
def test_label_at_the_smallest_subnormal(command, capsys):
    # |z| = 5e-324: the first term ratio underflows to 0.0, whose log raised; only the ground level is kept
    assert main([command, "--z", "2.5e-324"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "# truncation_level=0\n" in captured.out


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


def test_wavefunction_at_large_well_strength(capsys):
    # 2L = 399: the Gegenbauer-to-Legendre constant alone would overflow; the state is finite and normalized
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wavefunction", "--A", "200", "--samples", "9", "--format", "json"]) == 0
    rows = np.array(json.loads(capsys.readouterr().out)["rows"])
    with mpmath.workdps(30):
        lam = mpmath.mpf(PotentialParams(A=200.0).L) + mpmath.mpf(0.5)
        h0 = mpmath.sqrt(mpmath.pi) * mpmath.gamma(lam + 0.5) / mpmath.gamma(lam + 1)  # integral of cos^(2 lam)
        ref = np.array([float(mpmath.cos(t) ** lam / mpmath.sqrt(h0)) for t in rows[:, 0]])
    assert np.max(np.abs(rows[:, 1] - ref)) < 1e-12 * np.max(ref)


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


def test_expect_where_the_normalizer_underflows_sums_to_one(capsys):
    # I_2L(6) at A = 1e12 is far below the double range, where the ground coefficient is S^(-1/2): no terms of
    # size 2L ln 2L cancel in it
    assert main(["expect", "--A", "1e12", "--z", "3", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = {name: value for name, value in out["rows"]}
    assert abs(1.0 - rows["weight_sum"]) <= out["summary"]["tail_bound"] + 1e-13


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
