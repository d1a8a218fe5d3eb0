"""Self-tests of the scripts under ``tools/``."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from ehlcp import gen_example52, gen_example55

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


def test_digest_is_reproducible_and_sees_one_flipped_bit():
    digest = _load("digest")
    cells = [(lambda: gen_example52(50), 4.0), (lambda: gen_example55(6), 5.0)]
    records = list(digest.table56_records(cells))
    assert digest.digest(records) == digest.digest(digest.table56_records(cells))
    status, iterations, y, steps, residual = records[-1]
    flipped = y.copy()
    flipped.view(np.int64)[0] ^= 1
    records[-1] = (status, iterations, flipped, steps, residual)
    assert digest.digest(records) != digest.digest(digest.table56_records(cells))
