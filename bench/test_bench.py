"""Self-test of the benchmark: each workload on a reduced operation list.

    python3 -m pytest bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the gate fails both truncated-regime probe commands (reported as known
defects), that the speed clock samples inside a pass, and that the benchmark
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the cheap operations of each workload
REDUCED = {
    "exact-ladder": lambda name: "N=5" in name and name[-1] in "012",
    "bethe-newton": lambda name: "double root" in name,
    "module-sweep": lambda name: " B " in name,
}
SETUP_CLOCKS = [SimpleNamespace(ref_s=0.2, wall_s=0.3), SimpleNamespace(ref_s=0.3, wall_s=0.4)]


def reduced(name, tmp_path):
    workload = workloads.build(name, 7, str(tmp_path))
    workload.ops = [op for op in workload.ops if REDUCED[name](op.name)]
    assert workload.ops
    return workload


def emitted_units(line):
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    workload = reduced(name, tmp_path)
    originals = dict(vars(workloads.gaudin.bethe))
    passes, metrics = run.run_workload(workload, 0.0, trace, SETUP_CLOCKS)
    assert all(vars(workloads.gaudin.bethe)[k] is v for k, v in originals.items())
    line = json.loads(json.dumps(run.result_line(passes, metrics)))
    section = "per_layer" if trace else "end_to_end"
    assert emitted_units(line) == {m["name"]: m["unit"] for m in SPEC[section]}
    assert line["attempted"] == len(workload.ops) * len(passes)
    assert line["failed"] == 0 and line["correct"]
    if not trace:
        assert line["metrics"]["bethe_found_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in line["metrics"].values())
    known = run.run_known_defects(workload)
    report = run.build_report(workload, passes, metrics, SETUP_CLOCKS, known, trace, {})
    every_op = workload.ops + workload.known_defects
    assert set(report["cli_sha256"]) == ({op.name for op in every_op} if name == "module-sweep" else set())
    assert list(report["known_defects"]) == [op.name for op in workload.known_defects]


def test_probe_fails_the_gate_as_a_known_defect(tmp_path):
    workload = reduced("module-sweep", tmp_path)
    assert not any("probe" in op.name for op in workload.ops)
    known = run.run_known_defects(workload)
    assert [op.name for op in workload.known_defects] == ["cli probe bethe --m 2", "cli probe bethe --m 3"]
    assert [len(o.problems) for o in known] == [1, 17]


def test_speed_clock_samples_inside_a_pass():
    clock = speed.SpeedClock()
    with clock.timing():
        start = perf_counter()
        while perf_counter() - start < 4 * speed.INTERVAL_S:
            sum(range(1000))
    assert len(clock.kernels) >= 4
    assert 3 * speed.INTERVAL_S < clock.wall_s < 6 * speed.INTERVAL_S
    scale = speed.REF_KERNEL_S / max(clock.kernels), speed.REF_KERNEL_S / min(clock.kernels)
    assert scale[0] * clock.wall_s <= clock.ref_s <= scale[1] * clock.wall_s


def test_gate_cache_keeps_verify_solution_residuals():
    spec = workloads.ladder_spec((1, 2, 3, 4), 7)
    solutions = workloads.gaudin.solve_bethe(spec, 2, seed=7)
    plain = [workloads.gaudin.verify_solution(spec, 2, s) for s in solutions]
    with workloads._cached_bethe_builders():
        cached = [workloads.gaudin.verify_solution(spec, 2, s) for s in solutions]
    assert len(solutions) == 5 and cached == plain


def test_denominator_is_the_exact_singular_dimension():
    # the CLI's expected_count is the untruncated binomial, 6 here
    assert workloads.singular_dimension((1, 2, 3, 4), 2) == 5
    assert workloads.singular_dimension((1, 2), 2) == 0


def test_seed_shifts_every_point_and_keeps_them_distinct():
    ladder = workloads.ladder_z(7, workloads.DEFAULT_SEED)
    assert ladder[:3] == (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))
    for seed in range(50):
        z = workloads.ladder_z(7, seed)
        assert len(set(z)) == 7 and z == workloads.ladder_z(7, seed)
        assert all(a != b for a, b in zip(z, ladder))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "module-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
