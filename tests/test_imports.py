"""Every name a package module imports is used in that module, no module
imports inside a function body, every function defined inside a function
is read there, every private top-level name and upper-case module
constant is read somewhere in the package, and ``import ehlcp`` does not
load ``scipy.sparse.linalg``.

No linter ships with the project's dependencies, so this walks the syntax
tree with the standard library. ``__init__.py`` is skipped by the per-module
checks: its imports are the public re-exports, which count as reads in the
package-wide one.
"""

import ast
import os
import subprocess
import sys
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


def unread_module_names(sources):
    """Private top-level names and upper-case module constants that no source
    reads (by name, as an attribute or in a from-import), as (module, line,
    name); sources maps a module name to its source."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            found.update((module, node.lineno, name) for name in bound if name not in read
                         and (name.isupper() or name.startswith("_") and not name.startswith("__")))
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


def test_unread_module_names_detects_a_leftover_constant_and_helper():
    sources = {"a": ("LIMIT = 4\n_EVERY = 4\n_A, (B, _c) = 1, (2, 3)\nlower = 1\n"
                     "def _helper():\n    return LIMIT\n"
                     "def _unused():\n    return _c\nclass _Spare:\n    pass\n"
                     "__version__ = '1'\n"),
               "b": "from .a import _helper\nimport a\nprint(a._A, _helper())\n"}
    assert unread_module_names(sources) == [("a", 2, "_EVERY"), ("a", 3, "B"),
                                            ("a", 7, "_unused"), ("a", 9, "_Spare")]


def test_private_names_and_constants_are_read_in_the_package():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unread_module_names(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_at_top_level(path):
    assert function_local_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_nested_functions_are_read(path):
    assert unused_nested_functions(path.read_text()) == []


def test_package_import_leaves_out_scipy_sparse_linalg():
    # no kernel of the package needs scipy's iterative sparse solvers or
    # estimators, so importing it must not pay for loading them
    code = "import sys, ehlcp; print('scipy.sparse.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
