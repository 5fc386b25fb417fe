"""Every name a module of the package imports is used in that module, and
every package-relative import sits at module level.

A deletion that leaves an import behind (say ``kron_vec`` after the last
per-basis-vector loop using it is gone) fails here, and so does an import of
a sibling module hidden inside a function body, where it runs on every call
and hides the module's dependencies.  Only the stdlib ``ast`` is used, so the
check needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncdiffop"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as "TensorPair" and the names listed in __all__
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def function_body_imports(source: str) -> list[str]:
    """Package-relative imports (``from .x import y``) inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    found.append(f"{func.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_body_imports(path):
    assert function_body_imports(path.read_text()) == []


def test_function_body_import_is_found():
    source = "import os\n\ndef f():\n    from .scalars import ZERO\n    import json\n    return ZERO, json, os\n"
    assert function_body_imports(source) == ["f (line 4)"]


def test_unused_import_is_found():
    source = "from .linalg import Mat, kron_vec\nfrom .scalars import ZERO\nimport os\n\ndef f():\n    return Mat\n"
    assert unused_imports(source) == ["ZERO (line 2)", "kron_vec (line 1)", "os (line 3)"]
