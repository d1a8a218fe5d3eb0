"""SHA-256 digests of the package's outputs, one per group, to show that a
change keeps them bit for bit.

Run it in two checkouts of the repository and compare the lines; equal
digests mean equal bits, signed zeros and NaN payloads included. It imports
``ehlcp`` from the ``src/`` next to this file, takes no options and is not
part of the test suite (it solves the paper's largest cells, a few seconds
on one core).

    python tools/digest.py

Groups:

- ``table5-6``: method33 (lower and upper sweep) and method32 on the eight
  Tables 5/6 cells, Ex 5.2 n = 5,000..20,000 and Ex 5.5 g = 80..150;
- ``box-scaled``: method33 (lower and upper) on Ex 5.2 n = 20,000 and
  Ex 5.5 g = 150 with b times 1.5 and times 100;
- ``method31``: method31 on Ex 5.1 g = 100, mu = nu = 4;
- ``bounds``: bound42 (tags 1 and inf) and bound43 on the Tables 1-4 cells.

A solve contributes its status, iteration count, y_final, step norms and
residual norm; a bound its kind, constant, norm tag, condition flag, value
and bracket.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ehlcp import (Ehlcp2Problem, IterationConfig, bound42, bound43,  # noqa: E402
                   gen_example51, gen_example52, gen_example55, method31, method32,
                   method33)

CFG = IterationConfig(tol=1e-6)
TABLE56 = ([(lambda n=n: gen_example52(n), 4.0) for n in (5000, 10000, 15000, 20000)]
           + [(lambda g=g: gen_example55(g), 5.0) for g in (80, 100, 130, 150)])
TABLE14 = ([lambda mu=mu: gen_example51(100, mu, mu) for mu in (4, 6, 8, 10, 12, 14)]
           + [lambda g=g, mu=mu: gen_example51(g, mu, mu)
              for mu in (5, 7, 9) for g in (20, 40, 60)]
           + [lambda n=n: gen_example52(n) for n in (30, 60, 90, 120)])


def _feed(h, value):
    """Hash value with a type tag and a length, so no two values share bytes."""
    if isinstance(value, (list, tuple)):
        h.update(b"L%d;" % len(value))
        for item in value:
            _feed(h, item)
        return
    if value is None:
        tag, data = b"N", b""
    elif isinstance(value, (bool, np.bool_)):
        tag, data = b"B", b"1" if value else b"0"
    elif isinstance(value, str):
        tag, data = b"S", value.encode()
    elif isinstance(value, (int, np.integer)):
        tag, data = b"I", str(int(value)).encode()
    elif isinstance(value, (float, np.floating)):
        tag, data = b"F", np.float64(value).tobytes()
    else:
        value = np.ascontiguousarray(value)
        tag = b"A" + value.dtype.str.encode() + str(value.shape).encode()
        data = value.tobytes()
    h.update(tag + b"%d;" % len(data) + data)


def digest(records):
    """The SHA-256 hex digest of a sequence of records."""
    h = hashlib.sha256()
    for record in records:
        _feed(h, record)
    return h.hexdigest()


def solve_record(rep):
    return (rep.status, rep.iterations, rep.y_final,
            np.asarray(rep.step_norms, dtype=float), rep.residual_norm)


def bound_record(rep):
    return (rep.kind, rep.constant, rep.norm_tag, rep.condition_satisfied,
            rep.condition_value, rep.condition_bracket)


def method33_records(problem):
    for ktag in ("lower", "upper"):
        yield solve_record(method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                                    cfg=CFG))


def table56_records(cells):
    """method33 (both sweeps) and method32 on (make, omega) cells."""
    for make, omega in cells:
        problem = make().problem
        yield from method33_records(problem)
        yield solve_record(method32(problem, omega, cfg=CFG))


def box_scaled_records(makes, scales):
    """method33 (both sweeps) on each problem with b times each scale."""
    for make in makes:
        problem = make().problem
        for scale in scales:
            yield from method33_records(
                Ehlcp2Problem(problem.H1, problem.q, problem.b * scale))


def bound_records(makes):
    """bound42 (tags 1 and inf) and bound43 on each problem's blocks."""
    for make in makes:
        problem = make().problem
        if isinstance(problem, Ehlcp2Problem):
            problem = problem.as_general()
        yield bound_record(bound42(problem.blocks, "1"))
        yield bound_record(bound42(problem.blocks, "inf"))
        yield bound_record(bound43(problem.blocks))


GROUPS = {
    "table5-6": lambda: table56_records(TABLE56),
    "box-scaled": lambda: box_scaled_records(
        [lambda: gen_example52(20000), lambda: gen_example55(150)], (1.5, 100.0)),
    "method31": lambda: [solve_record(method31(gen_example51(100, 4.0, 4.0).problem,
                                               cfg=CFG))],
    "bounds": lambda: bound_records(TABLE14),
}


def main():
    for name, records in GROUPS.items():
        print(f"{name} {digest(records())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
