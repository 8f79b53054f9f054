"""The package imports only the standard library and NumPy, its one declared dependency."""

import ast
import sys
from pathlib import Path

import gaudin

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_absolute_imports_are_stdlib_or_numpy():
    sources = sorted(Path(gaudin.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"
