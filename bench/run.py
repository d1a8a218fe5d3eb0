"""ehlcp benchmark: one workload per run, closed loop, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. Set-up (generation, serialisation, a warm-up
pass on small inputs) is repeated and its median reported. Then passes over
the workload's operations run back to back until ``--seconds`` is used up;
every output is checked after its pass, outside the timed region. Timed
intervals are reported scaled to a reference machine speed (see ``Probe``)
next to their raw values. With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of the traced passes are reported, with the tracing
overhead. Everything else (per-operation times, exact counters, environment,
self-checks) is printed as one JSON document before the last line, which is
the result object.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The shared machine's speed changes by up to 2x, over seconds to minutes,
# while process CPU time stays equal to wall time: contention, not waiting.
# Every timed interval is therefore also reported scaled by NOMINAL_S over the
# time of a fixed calibration kernel measured at its two ends, which gives
# seconds at one reference speed. NOMINAL_S is the kernel's median time on
# the machine the benchmark was defined on; it only sets the scale.
NOMINAL_S = 8.0e-4
PROBE_INTERVAL_S = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHARED_NOTE = ("The machine is shared with other tenants; their load is not "
               "controlled, so timings carry noise this benchmark cannot remove.")
# Report names of the per-operation timings.
OP_METRIC = {"load": "load_s", "fp31": "solve_fp31_s", "omega32": "solve_omega32_s",
             "proj33": "solve_proj33_s", "bound42": "bound42_s", "checkw": "checkw_s",
             "oracle": "oracle_s", "underalpha": "underalpha_s",
             "overalpha": "overalpha_s", "residual": "residual_s",
             "bound43": "bound43_s", "sample_rho_L": "sample_rho_L_s"}


def parse_args(names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_package():
    """Import ehlcp from this checkout's src/ or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import ehlcp
    except ImportError as exc:
        sys.exit(f"error: cannot import ehlcp from {src}: {exc}")
    if Path(ehlcp.__file__).resolve().parent.parent != src:
        sys.exit(f"error: ehlcp was imported from {ehlcp.__file__}, not {src}")
    return ehlcp


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment():
    import numpy
    import scipy
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size:
            caches.append((int(level), size.strip()))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "llc": max(caches)[1] if caches else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "load": "closed loop, one client, single process", "note": SHARED_NOTE}


def summary(values):
    """Median, the highest nearest-rank percentile with >= 10 samples above it
    (when that is above the median), and the sample count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        rank = len(values) - 10
        out["p"] = round(100.0 * rank / len(values), 2)
        out["p_value"] = values[rank - 1]
    return out


class Probe:
    """Times a fixed kernel of interpreter float work and small numpy calls,
    the mix of the package's hot loops, to track the machine's current speed."""

    def __init__(self, np):
        self._x = np.linspace(0.0, 1.0, 64)

    def _kernel(self):
        acc = 0.0
        for i in range(300):
            y = self._x * 0.5 + acc * 1e-9
            acc += float(y[i & 63]) * 0.25
            for j in range(8):
                acc = acc * 0.999 + j
        return acc

    def sample(self):
        """Median of three kernel timings, in seconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @staticmethod
    def scale(seconds, before, after):
        """An interval in seconds at the reference speed."""
        return seconds * NOMINAL_S / (0.5 * (before + after))


@dataclasses.dataclass
class Raised:
    """An operation that raised instead of returning."""
    message: str


def run_pass(ops, layers, probe=None, tracer=None):
    """Run the operations in order; returns (outputs, op times, scaled op times).

    With a probe, the calibration kernel runs between operations, outside
    their timed regions, once at least PROBE_INTERVAL_S of operations has run
    since the last sample; each operation's time is also given scaled by the
    samples on either side of it.
    """
    results, times, scaled, group = {}, [], [], []
    before = probe.sample() if probe else None
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run(results)
            else:
                out = tracer.span(layers.OP_LAYER[op.kind], lambda: op.run(results))
        except Exception:
            out = Raised(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
        results[op.key] = out
        group.append(times[-1])
        if probe and (sum(group) >= PROBE_INTERVAL_S or len(times) == len(ops)):
            after = probe.sample()
            scaled.extend(probe.scale(t, before, after) for t in group)
            before, group = after, []
    return results, times, scaled


def verify(ops, results):
    """(failure messages by op, exact counters) of one pass's outputs."""
    failures, counts = [], defaultdict(int)
    for op in ops:
        out = results[op.key]
        if isinstance(out, Raised):
            failures.append(f"{op.kind} {op.case} raised: {out.message}")
            continue
        try:
            msgs = op.check(out, results)
        except Exception:
            msgs = [f"check raised: {traceback.format_exc(limit=3)}"]
        if msgs:
            failures.append(f"{op.kind} {op.case}: " + "; ".join(msgs))
        if op.counts is not None:
            for key, value in op.counts(out).items():
                counts[key] += value
    return failures, dict(counts)


def perturb(out):
    """A copy of an operation's output with its checked value moved."""
    if isinstance(out, tuple):  # (problem, prescribed, validation) from a load
        problem, prescribed, report = out
        return dataclasses.replace(problem, q=problem.q + 1e-3), prescribed, report
    names = {f.name for f in dataclasses.fields(out)}
    if "y_final" in names:
        sol = out.solution
        return dataclasses.replace(out, y_final=out.y_final + 1e-3,
                                   solution=type(sol)(sol.w + 1e-3, sol.x))
    if "norms" in names:
        return dataclasses.replace(out, norms={k: v * 1.001 for k, v in out.norms.items()})
    if "constant" in names:
        return dataclasses.replace(out, constant=out.constant * 1.001)
    if "holds" in names:
        return dataclasses.replace(out, holds=not out.holds)
    if "solutions" in names:
        return dataclasses.replace(out, solutions=out.solutions * 2)
    return dataclasses.replace(out, value=out.value * 1.001)


def perturbation_check(ops, results):
    """For each operation type, a perturbed output must fail its check."""
    caught = {}
    for op in ops:
        out = results[op.key]
        if op.kind in caught or isinstance(out, Raised):
            continue
        try:
            caught[op.kind] = bool(op.check(perturb(out), results))
        except Exception:
            caught[op.kind] = True
    return caught


class Tally:
    """Pass times, per-operation times, failures and the exact-counter gate."""

    def __init__(self):
        self.pass_times, self.raw_pass_times, self.op_times = [], [], defaultdict(list)
        self.attempted, self.failed, self.messages = 0, 0, []
        self.counts = None
        self.perturbation = None

    def add(self, ops, results, times, scaled):
        self.raw_pass_times.append(sum(times))
        self.pass_times.append(sum(scaled))
        for op, t in zip(ops, scaled):
            self.op_times[op.kind].append(t)
        failures, counts = verify(ops, results)
        self.attempted += len(ops)
        self.failed += len(failures)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.failed += 1
            failures.append(f"exact counters changed between passes: {counts}")
        self.messages = (self.messages + failures)[:5]


def setup(workload, seed, layers, tracer=None):
    """Build the operations and run the small warm-up pass; returns (ops, seconds)."""
    t0 = time.perf_counter()
    ops = workload.build(seed)
    run_pass(workload.build(seed, small=True), layers, tracer=tracer)
    return ops, time.perf_counter() - t0


def wrapper_checks(spans, layers):
    """A missing name is reported as absent, and uninstalling leaves no wrapper."""
    tracer = spans.Tracer("ehlcp")
    missing = ("selfcheck.absent", "ehlcp.solvers", "no_such_function", None)
    absent = tracer.install(layers.SPECS + [missing])
    tracer.uninstall()
    return {"absent_name_reported": absent == ["ehlcp.solvers.no_such_function"],
            "uninstall_restores": not tracer.installed_wrappers()}


def measure(ops, seconds, layers, probe, tally, tracer=None):
    """Closed loop of untraced passes (alternating with traced ones when a
    tracer is given) until the time budget is used; returns traced passes."""
    traced, begin = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, times, scaled = run_pass(ops, layers, probe)
        tally.add(ops, results, times, scaled)
        if not tally.perturbation:
            tally.perturbation = perturbation_check(ops, results)
        if tracer is not None:
            tracer.install(layers.SPECS)
            tracer.reset()
            try:
                t_results, t_times, t_scaled = run_pass(ops, layers, probe, tracer)
            finally:
                tracer.uninstall()
            failures, _ = verify(ops, t_results)
            tally.attempted += len(ops)
            tally.failed += len(failures)
            tally.messages = (tally.messages + failures)[:5]
            traced.append(_traced_pass(tracer, sum(t_times), sum(t_scaled)))
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return traced


def _traced_pass(tracer, wall, scaled):
    return {"wall": wall, "scaled": scaled, "self": dict(tracer.self_time),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts),
            "spans": len(tracer.spans)}


def per_layer_metrics(layers, traced, untraced_times, counts, setup_trace, absent):
    """Per-layer metrics of the traced passes, and whether the exact ones repeat."""
    first = traced[0]

    def exact(p):
        return ([p["calls"].get(k) for k in layers.EXACT_CALLS],
                [p["counts"].get(k) for k in layers.EXACT_COUNTS])
    repeat = all(exact(p) == exact(first) for p in traced)
    calls, tcounts = first["calls"], first["counts"]
    metrics = {}

    def put(name, value, unit):
        if unit == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}

    for layer in layers.SHARE_LAYERS:
        put(f"{layer}.self_frac",
            statistics.median(p["self"].get(layer, 0.0) / p["wall"] for p in traced), "frac")
    for layer in layers.GEN_LAYERS:
        put(f"{layer}.setup_frac",
            setup_trace["self"].get(layer, 0.0) / setup_trace["wall"], "frac")
    for layout in ("tridiag", "blocktridiag", "dense"):
        name = f"blockdata.matvec.{layout}"
        n = calls.get(name, 0)
        put(f"{name}.calls", n, "count")
        put(f"{name}.bytes_per_call", tcounts.get(f"{name}.bytes", 0) / n if n else 0, "B")
        put(f"{name}.flops_per_call", tcounts.get(f"{name}.flops", 0) / n if n else 0,
            "flop")
    put("solvers.factor.calls", calls.get("solvers.factor", 0), "count")
    put("solvers.factor_solve.calls", calls.get("solvers.factor_solve", 0), "count")
    sweeps, coords = calls.get("solvers.sweep", 0), tcounts.get("solvers.sweep.coords", 0)
    put("solvers.sweep.calls", sweeps, "count")
    put("solvers.sweep.coords", coords, "count")
    put("solvers.sweep.bytes_per_coord",
        tcounts.get("solvers.sweep.bytes", 0) / coords if coords else 0, "B")
    put("solvers.sweep.flops_per_coord",
        tcounts.get("solvers.sweep.flops", 0) / coords if coords else 0, "flop")
    for kind in ("fp31", "omega32", "proj33"):
        put(f"solvers.iterations.{kind}", counts.get(f"iterations.{kind}", 0), "count")
    put("transform.recover.calls", calls.get("transform.recover", 0), "count")
    put("transform.residual.calls", calls.get("transform.residual", 0), "count")
    radii = calls.get("convergence.spectral_radius", 0)
    put("convergence.spectral_radius.calls", radii, "count")
    put("convergence.spectral_radius.iterations",
        tcounts.get("convergence.spectral_radius.iterations", 0), "count")
    put("convergence.spectral_radius.closed_frac",
        tcounts.get("convergence.spectral_radius.closed", 0) / radii if radii else 0, "frac")
    reps = calls.get("wproperty.representative", 0)
    put("wproperty.representatives", reps, "count")
    put("wproperty.representative.bytes",
        tcounts.get("wproperty.representative.bytes", 0) / reps if reps else 0, "B")
    regions = counts.get("oracle.regions_checked", 0)
    put("oracle.regions_checked", regions, "count")
    put("oracle.singular_regions", counts.get("oracle.singular_regions", 0), "count")
    put("oracle.solutions_per_region",
        counts.get("oracle.solutions", 0) / regions if regions else 0, "frac")
    traced_pass = statistics.median(p["scaled"] for p in traced)
    untraced_pass = statistics.median(untraced_times)
    put("trace.pass_s", traced_pass, "s")
    put("trace.untraced_pass_s", untraced_pass, "s")
    put("trace.overhead_s", traced_pass - untraced_pass, "s")
    put("trace.spans", first["spans"], "count")
    put("trace.absent", len(absent), "count")
    return metrics, repeat


def layer_detail(traced):
    """Self seconds and calls per layer per traced pass, with sweep rates."""
    layers = sorted({name for p in traced for name in p["self"]})
    out = {}
    for name in layers:
        out[f"{name}_s"] = statistics.median(p["self"].get(name, 0.0) for p in traced)
        out[f"{name}.calls"] = traced[0]["calls"].get(name, 0)
    sweep_s = out.get("solvers.sweep_s")
    if sweep_s:
        out["solvers.sweep.sweeps_per_s"] = out["solvers.sweep.calls"] / sweep_s
        out["solvers.sweep.coords_per_s"] = \
            traced[0]["counts"]["solvers.sweep.coords"] / sweep_s
    return out


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy is imported
    start = time.perf_counter()
    import numpy
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401  (the package's dependencies)
    deps_s = time.perf_counter() - start
    probe = Probe(numpy)
    before = probe.sample()
    start = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - start
    after = probe.sample()
    import_scaled = probe.scale(import_s, before, after)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    import spans
    import workloads
    args = parse_args(sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    detail = {"benchmark": "ehlcp", "workload": workload.name, "why": workload.why,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "dependencies_import_s": deps_s,
              "import_s": import_s, "nominal_s": NOMINAL_S}
    tally = Tally()

    if args.trace:
        self_checks = wrapper_checks(spans, layers)
        tracer = spans.Tracer("ehlcp")
        tracer.install(layers.SPECS)
        try:
            ops, setup_wall = setup(workload, args.seed, layers, tracer)
            setup_trace = {"wall": setup_wall, "self": dict(tracer.self_time)}
        finally:
            tracer.uninstall()
        absent = tracer.absent
        traced = measure(ops, args.seconds, layers, probe, tally, tracer)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
        metrics, repeat = per_layer_metrics(layers, traced, tally.pass_times,
                                            tally.counts or {}, setup_trace, absent)
        if not repeat:
            tally.failed += 1
            tally.messages.append("traced exact counts changed between passes")
        self_checks["uninstall_restores_after_run"] = not tracer.installed_wrappers()
        detail.update({"traced_passes": len(traced), "absent": absent,
                       "layers": layer_detail(traced), "spans_file": str(spans_file)})
    else:
        self_checks = {}
        setups, raw_setups, before = [], [], after
        for _ in range(SETUP_REPEATS):
            ops, seconds = setup(workload, args.seed, layers)
            after = probe.sample()
            raw_setups.append(seconds)
            setups.append(probe.scale(seconds, before, after))
            before = after
        unwrapped = not spans.Tracer("ehlcp").installed_wrappers()
        measure(ops, args.seconds, layers, probe, tally)
        self_checks["untraced_run_has_no_wrappers"] = \
            unwrapped and not spans.Tracer("ehlcp").installed_wrappers()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": import_scaled + statistics.median(setups),
                               "unit": "s"},
                   "pass_s": {"value": statistics.median(tally.pass_times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        detail.update({"setup_repeats_s": setups, "setup_repeats_raw_s": raw_setups,
                       "setup_raw_s": import_s + statistics.median(raw_setups)})

    self_checks["perturbed_output_fails"] = tally.perturbation
    checks_ok = all(v if isinstance(v, bool) else all(v.values())
                    for v in self_checks.values())
    detail.update({
        "passes": len(tally.pass_times), "pass_s": summary(tally.pass_times),
        "pass_raw_s": summary(tally.raw_pass_times),
        "pass_times_s": tally.pass_times, "pass_times_raw_s": tally.raw_pass_times,
        "operations": {OP_METRIC[k]: summary(v) for k, v in sorted(tally.op_times.items())},
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures": tally.messages, "counts_per_pass": tally.counts,
        "self_checks": self_checks,
    })
    print(json.dumps(detail, indent=1))
    print(json.dumps({"correct": tally.failed == 0 and checks_ok,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
