"""Smoke test of the benchmark at tiny size.

    python3 bench/smoke.py

For every workload, untraced and traced, at a few seconds each:
  - the run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  - the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names with their units, and every metric, raw timing
    and error_rate prints exactly one table row with its unit;
  - error_rate is 0, and with one expected answer made wrong it is above 0,
    failed is above 0 and correct is false.
It also checks that a copy holding only BENCHMARK.json and bench/ exits
non-zero without a result.  Each case runs in a fresh interpreter because a
traced run rewires qcong; the tiny sizes are set by patching the workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _shrink(workloads) -> None:
    run.MIN_ROUNDS, run.TRACE_ROUNDS, run.SETUP_PROBES = 1, 1, 1
    workloads.SYM_PAIRS[:] = [(n, d) for n, d in workloads.SYM_PAIRS if n <= 5]
    workloads.DECIDE_NS, workloads.EXPONENT_NS = range(3, 7), range(2, 6)
    workloads.EXPONENT_BOUND = 60
    workloads.SWEEP_N, workloads.SWEEP_D = range(3, 6), range(1, 3)
    workloads.SWEEP_R, workloads.SWEEP_S = range(-1, 2), range(-1, 2)
    workloads.SWEEP_CLASSICAL_SEEDS = 1


def _inject_wrong_answer(workloads) -> None:
    """Flip the first expected verdict of every round; expect one extra sweep record."""
    for cls in (workloads.SymGrid, workloads.Decide):
        def round_(self, i, _inner=cls.round):
            ops = _inner(self, i)
            expected = ops[0].expected
            wrong = (not expected[0], expected[1]) if isinstance(expected, tuple) else not expected
            ops[0] = workloads.Op(ops[0].run, wrong)
            return ops
        cls.round = round_
    expected = workloads.expected_sweep_tasks
    workloads.expected_sweep_tasks = lambda: expected() + 1


def run_case(workload: str, trace: int, inject: bool) -> int:
    """Inside the fresh interpreter: shrink, optionally inject, run the benchmark."""
    run.import_qcong()
    import workloads

    _shrink(workloads)
    if inject:
        _inject_wrong_answer(workloads)
    return run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])


def check_case(workload: str, trace: int, inject: bool) -> list[str]:
    proc = subprocess.run(
        [sys.executable, __file__, "--case", workload, str(trace), str(int(inject))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} trace={trace} inject={inject}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != spec:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(spec))} or units")
    rows = dict(spec, error_rate="ratio")
    if not trace:
        rows.update(run.RAW_UNITS)
    table = [line.split() for line in lines[:-1] if not line.startswith("#")]
    for name, unit in rows.items():
        hits = [row for row in table if row[0] == name]
        if len(hits) != 1 or hits[0][2] != unit:
            problems.append(f"{label}: row for {name} printed {len(hits)} times or without unit {unit}")
    error_rate = next((float(row[1]) for row in table if row[0] == "error_rate"), None)
    if inject and not (result["failed"] > 0 and not result["correct"] and error_rate and error_rate > 0):
        problems.append(f"{label}: injected wrong answer not counted: {lines[-1][:120]}")
    if not inject and (result["failed"] or not result["correct"] or error_rate != 0):
        problems.append(f"{label}: unexpected failures: {proc.stderr[-2000:]}")
    return problems


def check_without_source() -> list[str]:
    """A directory with only BENCHMARK.json and bench/ must fail without a result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sym_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run without src/ did not fail cleanly"]
    return []


def main() -> int:
    if sys.argv[1:2] == ["--case"]:
        workload, trace, inject = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
        return run_case(workload, trace, inject)
    problems = check_without_source()
    for workload in ("sym_grid", "decide", "sweep"):
        for trace, inject in ((0, False), (1, False), (0, True)):
            problems += check_case(workload, trace, inject)
            print(f"checked {workload} trace={trace} inject={inject}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
