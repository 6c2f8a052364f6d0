"""The package imports only numpy and the standard library.

scipy and mpmath serve the tests as independent oracles; the library itself
must not reach for them (or anything else outside the standard library).
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fhpt"
ALLOWED = {"numpy"}


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
