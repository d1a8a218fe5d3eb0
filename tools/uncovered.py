"""List the statements of ``src/ehlcp`` that the test suite never runs.

coverage.py is not among the project's dependencies, so this runs the tests
through ``pytest.main`` under ``sys.settrace``/``threading.settrace`` and
prints every statement of the package that no line event reached, as
``file:line: statement``. ``def`` and ``class`` headers, imports and
docstrings are skipped. Extra arguments go to pytest; by default it runs
``tests/``. It is slower than the plain suite (the tracer sees every Python
call) and is not part of it.

    python tools/uncovered.py [pytest args]
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ehlcp"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom)


def statements(source):
    """(line, first line of the statement) for every statement in source but
    def and class headers, imports and docstrings."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        found.add((node.lineno, ast.unparse(node).splitlines()[0]))
    return sorted(found)


def run_traced(fn):
    """(fn(), set of (file, line) pairs run in the package), with this
    checkout's ``src/`` first on sys.path."""
    src = str(SRC)
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hit


def unrun(hit):
    """(path, line, statement) of every statement of the package not in hit."""
    for path in sorted(SRC.glob("*.py")):
        for line, text in statements(path.read_text()):
            if (str(path), line) not in hit:
                yield path, line, text


def main(argv):
    code, hit = run_traced(lambda: pytest.main(
        argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    missed = 0
    for path, line, text in unrun(hit):
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
        missed += 1
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
