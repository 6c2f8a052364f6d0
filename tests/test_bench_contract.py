"""The program surface the benchmark depends on.

The traced benchmark run (perfbench/spans.py) wraps named public functions
of the fhpt modules and stops if one is missing or if a workload never
enters a span it expects; these tests name both faults at test time instead.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import fhpt
import fhpt.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected_spans() -> dict:
    # run.py imports its calibration kernel at load time, so the table is
    # read from its source rather than imported
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "EXPECTED_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no EXPECTED_SPANS")


SPANS = _load_spans()
SPAN_TARGETS = [
    (span, home, name) for span, (home, names) in SPANS.SPANS.items() for name in names
]

# one request per shape the workloads send: verify at an integer (2L = 3),
# a generic (2L = 7.3) and a near-integer (2L = 3.00005) Bessel order, and
# each table command
TRACED_REQUESTS = (
    ["verify", "--A", "2", "--format", "json"],
    ["verify", "--A", "4.15", "--format", "json"],
    ["verify", "--A", "2.000025", "--format", "json"],
    ["spectrum", "--nmax", "5"],
    ["wavefunction", "--n", "3", "--samples", "21"],
    ["wavefunction", "--n", "3", "--samples", "21", "--interval", "half"],
    ["coherent", "--z", "1.5@0.7"],
    ["expect", "--z", "2"],
)


@pytest.mark.parametrize("span,home,name", SPAN_TARGETS, ids=lambda v: v)
def test_span_target_exists_and_is_callable(span, home, name):
    module = importlib.import_module(home)
    assert callable(getattr(module, name, None)), f"span {span}: {home}.{name} is missing"


def test_every_public_name_resolves():
    missing = [name for name in fhpt.__all__ if not hasattr(fhpt, name)]
    assert missing == []


def test_traced_requests_enter_every_expected_span(capsys):
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        codes = [fhpt.cli.main(argv) for argv in TRACED_REQUESTS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(TRACED_REQUESTS)
    _, entries = SPANS.layer_metrics(tracer.arrays(), len(TRACED_REQUESTS))
    expected = _expected_spans()
    missing = {w: [s for s in expected[w] if not entries.get(s)] for w in ("verify-sweep", "verify-repeat", "cli-tables")}
    assert missing == {"verify-sweep": [], "verify-repeat": [], "cli-tables": []}


@pytest.mark.parametrize("path", sorted(PERFBENCH.parent.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_record_is_complete(path):
    # a committed benchmark record holds the command it ran, a summary and
    # every run of both sides, and each run's outputs passed the oracle
    record = json.loads(path.read_text())
    assert {"command", "summary", "runs"} <= set(record)
    assert {run["side"] for run in record["runs"]} == {"parent", "change"}
    assert [run for run in record["runs"] if run["result"]["correct"] is not True] == []
