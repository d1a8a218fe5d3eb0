"""Self-tests of the scripts under ``tools/``."""

import ast
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_uncovered_statements_skip_headers_imports_and_docstrings():
    source = ('"""Module doc."""\n'
              "import os\nfrom sys import argv\n"
              "X = 1\n"
              "@staticmethod\n"
              "def f(a):\n"
              '    """Doc."""\n'
              "    if a:\n"
              "        return (a +\n"
              "                1)\n"
              "    return 0\n"
              "class C:\n"
              "    y: int = 2\n")
    assert _load("uncovered").statements(source) == [
        (4, "X = 1"), (8, "if a:"), (9, "return a + 1"), (11, "return 0"),
        (13, "y: int = 2")]


def test_each_mutant_matches_one_site_and_parses():
    mutants = _load("mutants")
    src = TOOLS.parent / "src" / "ehlcp"
    for mutant in mutants.MUTANTS:
        source = (src / mutant.module).read_text()
        assert len(mutants.sites(source, mutant.original)) == 1, mutant.name
        ast.parse(mutants.mutated(source, mutant))
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"def {name}(" in (TOOLS.parent / path).read_text(), test
