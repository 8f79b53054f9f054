"""The package imports only the standard library and NumPy, its one declared dependency, and uses what it imports."""

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


def test_every_imported_name_is_used():
    # a name that a module of the package (but for __init__.py, the re-export list) or a demo imports and never
    # reads is stale: left behind when the code that read it went
    sources = [path for path in Path(gaudin.__file__).parent.glob("*.py") if path.name != "__init__.py"]
    sources += Path(__file__).resolve().parents[1].joinpath("demos").glob("*.py")
    assert len(sources) > 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} and never uses them"
