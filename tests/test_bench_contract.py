"""The program surface the benchmark depends on.

The traced benchmark run (perfbench/spans.py) wraps named public functions
of the fhpt modules and stops if one is missing; these tests name a missing
target at test time instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fhpt

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPAN_TARGETS = [
    (span, home, name) for span, (home, names) in _load_spans().items() for name in names
]


@pytest.mark.parametrize("span,home,name", SPAN_TARGETS, ids=lambda v: v)
def test_span_target_exists_and_is_callable(span, home, name):
    module = importlib.import_module(home)
    assert callable(getattr(module, name, None)), f"span {span}: {home}.{name} is missing"


def test_every_public_name_resolves():
    missing = [name for name in fhpt.__all__ if not hasattr(fhpt, name)]
    assert missing == []
