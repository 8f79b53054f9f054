"""Run one benchmark workload against the `gaudin` sources of this checkout.

    python3 bench/run.py --workload exact-ladder --seed 1729 --seconds 40 --trace 0

One process calls the workload's operations one after another (a closed loop
with one caller), repeating whole passes while the next pass still fits in
--seconds (at least one pass).  Every pass is checked by the correctness gate
in workloads.py.  Times are wall seconds scaled to a reference CPU speed by
the calibration kernel of speed.py, sampled during every pass.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced run with --trace 1.  The line before it is a report with
the environment, the quartiles and sample counts of scaled and wall times,
per-operation wall times, every failure, the known defects and the sha256 of
each CLI output; the report (and, when tracing, every span) is also written
to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from dataclasses import dataclass
from time import perf_counter

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("exact-ladder", "bethe-newton", "module-sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 15

# what a user pays before the first call: interpreter start, `import gaudin`
# (NumPy included) and building the workload's specs
_SETUP_CHILD = """\
import sys, tempfile
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/bench"]
import workloads
with tempfile.TemporaryDirectory(dir=root, prefix=".bench-") as workdir:
    workloads.build(workload, seed, workdir)
"""


def pin_blas_threads() -> dict:
    """Pin BLAS to one thread (before NumPy loads) and return the setting.

    The matrices here are below a hundred wide, and with one caller a
    second OpenBLAS thread made solve_bethe at N=7, m=3 slower and noisier
    (15.5-17.0 s against 13.5-14.1 s on a 2-CPU x86-64 container).
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_setup(workload: str, seed: int) -> list:
    """SpeedClocks of SETUP_REPEATS fresh interpreters, each sampled just before and after."""
    clocks = []
    for _ in range(SETUP_REPEATS):
        clock = speed.SpeedClock()
        with clock.timing(armed=False):
            subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(ROOT), workload, str(seed)],
                           cwd=ROOT, check=True)
        clocks.append(clock)
    return clocks


@dataclass
class Pass:
    times: list  # wall seconds per operation, kernel samples included
    outcomes: list
    spans: list | None
    clock: speed.SpeedClock


def run_pass(workload, tracer=None, ops=None, clock=None):
    """Call every operation once; returns (wall seconds per op, results).

    A clock, if given, samples the speed kernel between operations.
    """
    times, results = [], []
    for index, op in enumerate(workload.ops if ops is None else ops):
        if clock is not None and index:
            clock.sample()
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is counted as failed
            result = exc
        times.append(perf_counter() - start)
        results.append(result)
    return times, results


def measure(workload, seconds: float, traced: bool):
    """Passes while the next one fits in `seconds`.

    An untraced pass samples the speed kernel every INTERVAL_S inside it; a
    traced pass samples only between its operations, so that no kernel time
    lands in a span.
    """
    passes = []
    start = perf_counter()
    while True:
        cycle = perf_counter()
        tracer = spans.Tracer() if traced else None
        clock = speed.SpeedClock()
        with clock.timing(armed=not traced):
            if tracer is None:
                times, results = run_pass(workload)
            else:
                with tracer.installed():
                    times, results = run_pass(workload, tracer, clock=clock)
        passes.append(Pass(times, workload.gate(results), tracer.spans if tracer else None, clock))
        del results
        now = perf_counter()
        if now - start + (now - cycle) > seconds:
            return passes


def run_known_defects(workload) -> list:
    """Run and gate the known-defect operations once, untimed; one Outcome each."""
    if not workload.known_defects:
        return []
    results = run_pass(workload, ops=workload.known_defects)[1]
    return workload.gate(results, workload.known_defects)


def end_to_end(passes, setup_clocks) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    expected = sum(o.expected for o in outcomes)
    found = sum(o.found for o in outcomes)
    return {
        "run_s": (statistics.median(p.clock.ref_s for p in passes), "s"),
        "setup_s": (statistics.median(c.ref_s for c in setup_clocks), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        # no Bethe operation means no solution can be missing
        "bethe_found_ratio": (found / expected if expected else 1.0, "ratio"),
    }


def per_layer(untraced, traced) -> dict:
    per_pass = []
    for p in traced:
        values = spans.layer_metrics(p.spans)
        values["cli.bytes_out"] = sum(o.bytes_out for o in p.outcomes)
        per_pass.append(values)
    out = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = (statistics.median(p.clock.ref_s for p in traced)
                               - statistics.median(p.clock.ref_s for p in untraced))
    return out


def run_workload(workload, seconds: float, trace: bool, setup_clocks):
    """Measure one workload: returns (passes, {metric: (value, unit)}).

    The traced run first makes one untraced pass, so that the tracing
    overhead is measured in the same process; it samples the speed kernel
    every INTERVAL_S, the traced passes between operations.
    """
    if trace:
        untraced = measure(workload, 0.0, traced=False)
        traced = measure(workload, seconds, traced=True)
        metrics = {name: (value, spans.UNITS[name]) for name, value in per_layer(untraced, traced).items()}
        return untraced + traced, metrics
    passes = measure(workload, seconds, traced=False)
    return passes, end_to_end(passes, setup_clocks)


def result_line(passes, metrics) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _first_problems(problems) -> list:
    return problems[:3] + ([f"{len(problems) - 3} more"] if len(problems) > 3 else [])


def build_report(workload, passes, metrics, setup_clocks, known, trace: bool, env: dict) -> dict:
    timed = [p for p in passes if (p.spans is not None) == trace]
    kernels = [k for p in timed for k in p.clock.kernels]
    report = {
        "workload": workload.name,
        "env": env,
        "load": "closed loop, one caller, operations run back to back",
        "passes": len(timed),
        "run_s": quartiles(p.clock.ref_s for p in timed),
        "run_wall_s": quartiles(p.clock.wall_s for p in timed),
        "setup_s": quartiles(c.ref_s for c in setup_clocks),
        "setup_wall_s": quartiles(c.wall_s for c in setup_clocks),
        "speed_kernel_s": {"reference": speed.REF_KERNEL_S, **quartiles(kernels)},
        "op_wall_s": {op.name: statistics.median(p.times[i] for p in timed) for i, op in enumerate(workload.ops)},
        "failures": {},
        "known_defects": {op.name: _first_problems(o.problems)
                          for op, o in zip(workload.known_defects, known) if o.problems},
        "cli_sha256": {op.name: o.sha256 for op, o in zip(workload.ops + workload.known_defects,
                                                          passes[0].outcomes + known) if o.sha256},
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    for p in passes:
        for op, o in zip(workload.ops, p.outcomes):
            if o.problems:
                report["failures"][op.name] = _first_problems(o.problems)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaudin" / "__init__.py").is_file():
        print(f"error: no gaudin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy
    import gaudin
    import workloads

    if Path(gaudin.__file__).resolve().parent != ROOT / "src" / "gaudin":
        print(f"error: imported gaudin from {gaudin.__file__}, not this checkout", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "git_commit": git_commit(),
        "seed": args.seed,
    }

    setup_clocks = time_setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
        workload = workloads.build(args.workload, args.seed, workdir)
        passes, metrics = run_workload(workload, args.seconds, bool(args.trace), setup_clocks)
        known = run_known_defects(workload)

    report = build_report(workload, passes, metrics, setup_clocks, known, bool(args.trace), env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        records = [[s.name, s.start, s.end, s.parent, s.op, s.note] for p in passes if p.spans for s in p.spans]
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(records) + "\n")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(passes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
