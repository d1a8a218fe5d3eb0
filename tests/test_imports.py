"""Every name a package module imports is used in that module, no module
imports inside a function body, and every function defined inside a function
is read there.

No linter ships with the project's dependencies, so this walks the syntax
tree with the standard library. ``__init__.py`` is skipped: its imports are
the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ehlcp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that no expression in source reads."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_nested_functions(source):
    """Functions defined in a function's body that nothing in that function reads."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        read = {node.id for node in ast.walk(outer)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.update((node.lineno, node.name) for node in ast.walk(outer)
                     if node is not outer and isinstance(node, FUNCTIONS)
                     and node.name not in read)
    return sorted(found)


def function_local_imports(source):
    """Import statements inside a function body, as (line, statement)."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, FUNCTIONS):
            found.update((node.lineno, ast.unparse(node)) for node in ast.walk(outer)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_unused_imports_detects_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "def f():\n    from json import dumps\n    return np.pi + len(sep)\n")
    assert unused_imports(source) == [(2, "math"), (4, "path"), (6, "dumps")]


def test_function_local_imports_detects_an_import_in_a_body():
    source = ("import math\n"
              "if math:\n    import os\n"
              "def f():\n    from .convergence import simplex_selections\n"
              "    return simplex_selections\n"
              "class C:\n    def g(self):\n        def h():\n"
              "            import json, os.path as p\n"
              "        return h\n")
    assert function_local_imports(source) == [
        (5, "from .convergence import simplex_selections"),
        (10, "import json, os.path as p")]


def test_unused_nested_functions_detects_a_dead_helper():
    source = ("def scan(xs):\n"
              "    def rho_of(x):\n        return abs(x)\n"
              "    def key(x):\n        def inner():\n            return x\n"
              "        return -x\n"
              "    async def fetch():\n        return 1\n"
              "    rho_of = None\n"
              "    return max(xs, key=key)\n"
              "def top():\n    return 0\n")
    assert unused_nested_functions(source) == [(2, "rho_of"), (5, "inner"),
                                               (8, "fetch")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_at_top_level(path):
    assert function_local_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_nested_functions_are_read(path):
    assert unused_nested_functions(path.read_text()) == []
