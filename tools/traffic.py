"""List the statements of ``src/ehlcp`` that no benchmark workload runs.

The workload counterpart of ``tools/uncovered.py``, with its line tracer:
the tracer starts before ``ehlcp`` is imported, so module-level lines count.
Then each workload of ``bench/workloads.py`` is built at seed 7 and one pass
of its operations runs; their outputs are not checked. It prints every
statement of the package that no line event reached, as
``file:line: statement``, then a count per module. It reads ``bench/``,
writes nothing there (no bytecode either), takes no options and is not part
of the test suite (a few seconds).

    python tools/traffic.py
"""

import sys
from collections import Counter

from uncovered import ROOT, SRC, run_traced, statements, unrun

SEED = 7


def one_pass():
    """Build every workload at SEED and run its operations once, in order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for workload in workloads.WORKLOADS.values():
        results = {}
        for op in workload.build(SEED):
            results[op.key] = op.run(results)


def main():
    _, hit = run_traced(one_pass)
    missed = Counter()
    for path, line, text in unrun(hit):
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
        missed[path] += 1
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = len(statements(path.read_text()))
        total += count
        print(f"{path.relative_to(ROOT)}: {missed[path]} of {count} statements never ran")
    print(f"{sum(missed.values())} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
