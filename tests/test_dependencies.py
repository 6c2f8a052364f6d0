"""The package imports only numpy and the standard library.

scipy and mpmath serve the tests as independent oracles; the library itself
must not reach for them (or anything else outside the standard library).
Every source file also parses as Python 3.10, the oldest version
pyproject.toml admits.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fhpt"
ALLOWED = {"numpy"}
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = sorted(
        {root for root in _imported_roots(path) if root not in sys.stdlib_module_names and root not in ALLOWED}
    )
    assert foreign == [], f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
