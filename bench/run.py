"""qcong benchmark: seeded workloads through the public API, checked against known answers.

    python3 bench/run.py --workload sym_grid --seed 1 --seconds 20 --trace 0

Run from the repository root; qcong is imported from src/.  With --trace 0
the run measures whole rounds of ops until --seconds have passed (at least
MIN_ROUNDS) and prints the end-to-end metrics; with --trace 1 it times a
fixed number of rounds untraced, then the same rounds with every qcong
function wrapped in a span, and prints the per-layer metrics.  Either way a
metric table comes first and the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full report (environment,
steal ticks, tail percentile, self-time table, multiply histogram) and the
spans of a traced run are written under bench/out/.  README.md documents the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_ROUNDS = 4        # floor on rounds per run; fixes the tail percentile below
TRACE_ROUNDS = 2      # rounds timed untraced and then traced with --trace 1
SETUP_PROBES = 5      # fresh interpreters timed for setup_s; the median is reported
REF_EVERY_S = 0.25    # op CPU seconds between reference-loop samples
REF_ITERS = 10_000    # one reference loop, a few ms
REF_NOMINAL_S = 0.002  # one reference loop on the baseline host in its fast spells
TOP_FUNCTIONS = 12    # rows of the per-function part of the self-time table
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
LIMITS = ("wall clock and process CPU time on a shared VM; no system-wide tracing; "
          "no hardware counters; steal ticks are read from /proc/stat")

LAYERS = ("laurent", "cyclotomic", "qcalc", "bivariate", "transforms", "families",
          "theorems", "congruence", "sweep", "cli")

# The gated end-to-end metrics (BENCHMARK.json), then the raw timings, which
# are printed but not gated: on a shared host they drift with its load (a
# 10-30% spread between runs minutes apart), while the same work divided by
# the interleaved reference loop stays within a few percent.
E2E_UNITS = {
    "setup_s": "s",
    "ref_cost": "ref/op",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {
    "setup_wall_s": "s",
    "ops_per_s": "1/s",
    "ops_per_cpu_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def import_qcong():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import qcong
    except ImportError as exc:
        sys.exit(f"error: cannot import qcong from {ROOT / 'src'}: {exc}")
    if not Path(qcong.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: qcong was imported from {qcong.__file__}, not from this checkout")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in print order."""
    from tracer import PAIR_BUCKETS

    units = {"laurent.mul.calls": "count", "laurent.mul.s": "s"}
    for cls in ("int_le2048", "int_gt2048", "frac"):
        units[f"laurent.mul.{cls}.calls"] = "count"
        units[f"laurent.mul.{cls}.s"] = "s"
    for bucket in [f"le{e}" for e in PAIR_BUCKETS] + [f"gt{PAIR_BUCKETS[-1]}"]:
        units[f"laurent.mul.pairs_hist.{bucket}.calls"] = "count"
        units[f"laurent.mul.pairs_hist.{bucket}.mean_us"] = "us"
    units.update({
        "laurent.divrem.calls": "count", "laurent.divrem.s": "s",
        "laurent.divrem.dense_terms": "count",
        "laurent.ext_gcd.calls": "count", "laurent.ext_gcd.s": "s",
        "cyclotomic.cache.hit_ratio": "ratio",
        "qcalc.qbinom_int.calls": "count", "qcalc.qbinom_int.s": "s",
        "qcalc.qpoch.calls": "count", "qcalc.qpoch.s": "s",
        "qcalc.gauss_binomial.hit_ratio": "ratio",
        "bivariate.mul.calls": "count", "bivariate.mul.s": "s",
        "transforms.hat.s": "s", "transforms.tilde.s": "s",
        "families.generate.s": "s",
        "theorems.sides.s": "s", "theorems.sides.max_num_degree": "degree",
        "congruence.congruent.s": "s", "congruence.residual.s": "s",
        "congruence.invert.s": "s",
        "sweep.expand.s": "s", "sweep.render.s": "s",
        "sweep.task_cpu_s": "s", "sweep.task_max_s": "s",
        "sweep.parallel_efficiency": "ratio",
    })
    for layer in LAYERS + ("bench",):
        units[f"{layer}.self_s"] = "s"
    units.update({
        "trace.op_s": "s", "trace.untraced_op_s": "s", "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio", "trace.attributed_share": "ratio",
    })
    return units


# -- measurement helpers -----------------------------------------------------


def _ref_loop() -> int:
    """Fixed dict/int work, independent of qcong, to normalise CPU times."""
    table: dict[int, int] = {}
    for i in range(REF_ITERS):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0) + i * k
    return len(table)


def ref_sample() -> float:
    """CPU seconds of one reference loop, the median of three."""
    times = []
    for _ in range(3):
        t0 = time.process_time()
        _ref_loop()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def steal_ticks() -> "int | None":
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with at least ten ops beyond it in every run."""
    return next((p for p in TAIL_LADDER if min_ops * (100 - p) / 100 >= 10), TAIL_LADDER[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def all_lru_caches() -> dict[str, object]:
    """qcong's lru-cached functions by qualified name, before any wrapping."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "qcong" or name.startswith("qcong.")):
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("qcong"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


class Stats:
    """Counts and per-op CPU times of one measurement, raw and in reference-loop units."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_cpu: list[float] = []
        self.op_ref: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.worker_rss_kb = 0  # largest peak RSS among pool workers
        self.first_error: "str | None" = None

    def record_failure(self, what: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = what

    def close_batch(self, ref: float) -> None:
        """Normalise the ops since the previous batch by the reference time around them."""
        self.op_ref.extend(t / ref for t in self.op_cpu[len(self.op_ref):])

    def ref_cost(self) -> float:
        return sum(self.op_ref) / len(self.op_ref)


def run_op(op, stats: Stats) -> None:
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        got, error = op.run(), None
    except Exception:
        got, error = None, traceback.format_exc()
    c1, w1 = time.process_time(), time.perf_counter()
    if error is None and got != op.expected:
        error = f"expected {op.expected!r}, got {got!r}"
    if error is not None:
        stats.record_failure(error)
    stats.attempted += 1
    stats.op_cpu.append(c1 - c0)
    stats.wall += w1 - w0
    stats.cpu += c1 - c0


def measure_ops(wl, seconds: float, probes: SetupProbes) -> Stats:
    """Whole rounds until `seconds` have passed, a reference sample every REF_EVERY_S."""
    stats = Stats()
    started = time.perf_counter()
    ref_prev = ref_sample()
    batch_start = 0.0
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for op in wl.round(i):
            run_op(op, stats)
            if stats.cpu - batch_start >= REF_EVERY_S:
                ref_next = ref_sample()
                stats.close_batch((ref_prev + ref_next) / 2)
                ref_prev, batch_start = ref_next, stats.cpu
        i += 1
        probes.between_rounds(time.perf_counter() - started)
    stats.close_batch((ref_prev + ref_sample()) / 2)
    return stats


@contextmanager
def task_timer(out_dir: Path, reference: bool = True):
    """Time every qcong.sweep.run_task call, in the pool workers too.

    The pool forks, so its workers inherit this replacement of run_task, and
    pickling finds it under the original name.  Each process appends lines
    "t <task CPU s> <peak RSS kB>" to its own file.  With `reference`, a line
    "r <reference-loop CPU s>" comes before its first task and after every
    REF_EVERY_S of task CPU, so each task is normalised by the speed of the
    CPU it ran on at the time; without it the workers do nothing but tasks.
    """
    import qcong.sweep

    inner = qcong.sweep.run_task
    files: dict[int, list] = {}  # pid -> [fd, task CPU since the last reference sample]

    def run_task(task):
        pid = os.getpid()
        if pid not in files:
            fd = os.open(out_dir / f"tasks.{pid}", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            files[pid] = [fd, 0.0]
            if reference:
                os.write(fd, b"r %r\n" % ref_sample())
        entry = files[pid]
        t0 = time.process_time()
        rec = inner(task)
        dt = time.process_time() - t0
        entry[1] += dt
        line = b"t %r %d\n" % (dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if reference and entry[1] >= REF_EVERY_S:
            line += b"r %r\n" % ref_sample()
            entry[1] = 0.0
        os.write(entry[0], line)
        return rec

    run_task.__module__, run_task.__qualname__ = inner.__module__, inner.__qualname__
    qcong.sweep.run_task = run_task
    try:
        yield
    finally:
        qcong.sweep.run_task = inner
        for fd, _ in files.values():
            os.close(fd)


def read_task_times(out_dir: Path, stats: Stats) -> None:
    """Add the tasks recorded by task_timer to stats, each normalised within its
    process if reference samples were taken."""
    for path in sorted(out_dir.glob("tasks.*")):
        ref_prev = None
        for line in path.read_text().splitlines():
            kind, value, *rss = line.split()
            if kind == "t":
                stats.op_cpu.append(float(value))
                stats.worker_rss_kb = max(stats.worker_rss_kb, int(rss[0]))
            else:
                ref = float(value)
                stats.close_batch((ref_prev + ref) / 2 if ref_prev else ref)
                ref_prev = ref
        if ref_prev is not None:
            stats.close_batch(ref_prev)
        path.unlink()


def timed_sweep(wl, stats: Stats, workers: int, tmp: Path) -> None:
    """One sweep; op CPU is the parent's plus its pool workers'."""
    w0, c0 = time.perf_counter(), time.process_time() + children_cpu()
    try:
        attempted, failed = wl.run(tmp, workers)
    except Exception:
        attempted, failed = wl.ops_per_round, wl.ops_per_round
        stats.first_error = stats.first_error or traceback.format_exc()
    stats.wall += time.perf_counter() - w0
    stats.cpu += time.process_time() + children_cpu() - c0
    stats.attempted += attempted
    stats.failed += failed
    if failed and stats.first_error is None:
        stats.first_error = f"{failed} of {attempted} sweep tasks missing or not holding"


def measure_sweep(wl, seconds: float, probes: SetupProbes, tmp: Path) -> Stats:
    stats = Stats()
    started = time.perf_counter()
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() - started < seconds:
        with task_timer(tmp):
            timed_sweep(wl, stats, wl.default_workers, tmp)
        read_task_times(tmp, stats)
        i += 1
        probes.between_rounds(time.perf_counter() - started)
    return stats


class SetupProbes:
    """Time from spawning a fresh interpreter to its workload being ready.

    setup_s scales each probe's wall time by REF_NOMINAL_S over the reference
    loop the probe times right after it is ready, on the same CPU: seconds
    at a fixed host speed, which the host's drift does not move (the raw
    wall median moved 35% between two sets of runs half an hour apart; the
    scaled one 6%).  The probes are spread over the run, one between rounds
    every seconds/SETUP_PROBES, so they see the host's slow and fast spells
    as the ops do.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        self.due = [seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def between_rounds(self, elapsed: float) -> None:
        if self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self._probe()

    def finish(self) -> None:
        while self.due:
            self.due.pop(0)
            self._probe()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t0
        ref = proc.stdout.readline().split()
        proc.stdout.close()
        if proc.wait() != 0 or ready.strip() != "ready" or len(ref) != 2:
            raise RuntimeError(f"setup probe failed: {ready!r}")
        self.wall.append(wall)
        self.scaled.append(wall * REF_NOMINAL_S / float(ref[1]))


def end_to_end(wl, stats: Stats) -> tuple[dict, dict]:
    """Every end-to-end metric but setup_s."""
    pct = tail_percentile(wl.ops_per_round * MIN_ROUNDS)
    cpu, ref = sorted(stats.op_cpu), sorted(stats.op_ref)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = stats.worker_rss_kb
    values = {
        "ref_cost": stats.ref_cost(),
        "op_p50_ref": percentile(ref, 50),
        "op_tail_ref": percentile(ref, pct),
        "peak_rss_mb": (self_rss + child_rss) / 1024,
        "ops_per_s": stats.attempted / stats.wall,
        "ops_per_cpu_s": stats.attempted / stats.cpu,
        "op_p50_ms": percentile(cpu, 50) * 1000,
        "op_tail_ms": percentile(cpu, pct) * 1000,
    }
    detail = {
        "tail_percentile": pct,
        "op_samples": len(cpu),
        "ops_beyond_tail": sum(1 for v in ref if v > values["op_tail_ref"]),
        "op_wall_s": stats.wall,
        "op_cpu_s": stats.cpu,
        "peak_rss_kb": {"self": self_rss, "largest_worker": child_rss},
    }
    return values, detail


# -- traced run ---------------------------------------------------------------


CACHE_GROUPS = {
    "cyclotomic": ("qcong.cyclotomic.cyclotomic", "qcong.cyclotomic.cyclotomic_power"),
    "gauss_binomial": ("qcong.qcalc.gauss_binomial",),
}


def hit_ratios(caches: dict) -> dict[str, float]:
    """Hit ratio per cache group since the caches were last cleared."""
    ratios = {}
    for group, names in CACHE_GROUPS.items():
        infos = [caches[name].cache_info() for name in names]
        hits, misses = sum(i.hits for i in infos), sum(i.misses for i in infos)
        ratios[group] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


def clear_caches(caches: dict) -> None:
    for cache in caches.values():
        cache.cache_clear()


def traced_ops(wl) -> tuple[Stats, float, "Tracer"]:
    from tracer import Tracer

    rounds = [wl.round(i) for i in range(TRACE_ROUNDS)]
    caches = all_lru_caches()
    clear_caches(caches)
    untraced = Stats()
    for ops in rounds:
        for op in ops:
            run_op(op, untraced)
    clear_caches(caches)
    tracer = Tracer()
    tracer.install()
    traced = Stats()
    for k, op in enumerate(op for ops in rounds for op in ops):
        tracer.op = k
        run_op(op, traced)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.first_error = untraced.first_error or traced.first_error
    return traced, untraced.wall, tracer


def traced_sweep(wl, tmp: Path) -> tuple[Stats, float, "Tracer", dict]:
    """The task and pool figures from one untraced pool sweep, then the traced
    workers=1 sweep with its untraced twin for the overhead.

    Task CPU and the pool's wall come from the same pass, so the host's drift
    between passes does not enter parallel_efficiency.
    """
    from tracer import Tracer

    total = Stats()
    caches = all_lru_caches()
    clear_caches(caches)
    parallel = Stats()
    with task_timer(tmp, reference=False):
        timed_sweep(wl, parallel, wl.default_workers, tmp)
    read_task_times(tmp, parallel)
    tasks = parallel.op_cpu
    clear_caches(caches)
    serial = Stats()
    timed_sweep(wl, serial, 1, tmp)
    clear_caches(caches)
    tracer = Tracer()
    tracer.install()
    traced = Stats()
    tracer.op = 0
    timed_sweep(wl, traced, 1, tmp)
    for part in (parallel, serial, traced):
        total.attempted += part.attempted
        total.failed += part.failed
        total.first_error = total.first_error or part.first_error
    total.wall = traced.wall
    extra = {
        "sweep.task_cpu_s": sum(tasks),
        "sweep.task_max_s": max(tasks, default=0.0),
        "sweep.parallel_efficiency": sum(tasks) / (wl.default_workers * parallel.wall),
    }
    return total, serial.wall, tracer, extra


def per_layer(tracer, traced_s: float, untraced_s: float, hits: dict, extra: dict) -> dict:
    from tracer import PAIR_BUCKETS

    by = tracer.by_name()

    def calls(name):
        return by.get(name, (0, 0))[0]

    def secs(*names):
        return sum(by.get(name, (0, 0))[1] for name in names) / 1e9

    mul = "laurent.LaurentPoly.__mul__"
    v = {"laurent.mul.calls": calls(mul), "laurent.mul.s": secs(mul)}
    for cls in ("int_le2048", "int_gt2048", "frac"):
        n, ns = tracer.mul.get(cls, (0, 0))
        v[f"laurent.mul.{cls}.calls"], v[f"laurent.mul.{cls}.s"] = n, ns / 1e9
    for bucket in [f"le{e}" for e in PAIR_BUCKETS] + [f"gt{PAIR_BUCKETS[-1]}"]:
        n, ns = tracer.mul.get(f"pairs_hist.{bucket}", (0, 0))
        v[f"laurent.mul.pairs_hist.{bucket}.calls"] = n
        v[f"laurent.mul.pairs_hist.{bucket}.mean_us"] = ns / n / 1000 if n else 0.0
    v.update({
        "laurent.divrem.calls": calls("laurent.divrem"),
        "laurent.divrem.s": secs("laurent.divrem"),
        "laurent.divrem.dense_terms": tracer.divrem_dense_terms,
        "laurent.ext_gcd.calls": calls("laurent.ext_gcd"),
        "laurent.ext_gcd.s": secs("laurent.ext_gcd"),
        "cyclotomic.cache.hit_ratio": hits["cyclotomic"],
        "qcalc.qbinom_int.calls": calls("qcalc.qbinom_int"),
        "qcalc.qbinom_int.s": secs("qcalc.qbinom_int"),
        "qcalc.qpoch.calls": calls("qcalc.qpoch"),
        "qcalc.qpoch.s": secs("qcalc.qpoch"),
        "qcalc.gauss_binomial.hit_ratio": hits["gauss_binomial"],
        "bivariate.mul.calls": calls("bivariate.BiPoly.__mul__"),
        "bivariate.mul.s": secs("bivariate.BiPoly.__mul__"),
        "transforms.hat.s": secs("transforms.hat"),
        "transforms.tilde.s": secs("transforms.tilde"),
        "families.generate.s": secs("families.generate"),
        "theorems.sides.s": tracer.sides_self_ns / 1e9,
        "theorems.sides.max_num_degree": tracer.max_num_degree,
        "congruence.congruent.s": secs("congruence.congruent"),
        "congruence.residual.s": secs("congruence.residual"),
        "congruence.invert.s": secs("congruence.invert"),
        "sweep.expand.s": secs("sweep.expand_tasks"),
        "sweep.render.s": secs("sweep.render_jsonl", "sweep.render_csv"),
        "sweep.task_cpu_s": 0.0, "sweep.task_max_s": 0.0, "sweep.parallel_efficiency": 0.0,
    })
    v.update(extra)
    attributed = 0.0
    for layer in LAYERS:
        v[f"{layer}.self_s"] = tracer.self_ns.get(layer, 0) / 1e9
        attributed += v[f"{layer}.self_s"]
    v["bench.self_s"] = traced_s - tracer.top_ns / 1e9
    v.update({
        "trace.op_s": traced_s,
        "trace.untraced_op_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.attributed_share": attributed / traced_s,
    })
    return v


def traced_run(wl, workload: str, seed: int, tmp: Path):
    """Per-layer metrics from a traced pass over fixed work, with its untraced twin."""
    caches = all_lru_caches()
    if workload == "sweep":
        stats, untraced_s, tracer, extra = traced_sweep(wl, tmp)
    else:
        stats, untraced_s, tracer = traced_ops(wl)
        extra = {}
    values = per_layer(tracer, stats.wall, untraced_s, hit_ratios(caches), extra)
    detail = {"self_time_table": self_time_table(tracer, stats.wall), "spans": tracer.span_count()}
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return values, layer_units(), stats, detail


def self_time_table(tracer, traced_s: float) -> list[str]:
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, ns in sorted(tracer.self_ns.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {ns / 1e9:>10.4f} {ns / 1e9 / traced_s:>7.1%}")
    lines.append(f"{'bench':<12} {traced_s - tracer.top_ns / 1e9:>10.4f}")
    lines.append(f"{'function':<44} {'calls':>9} {'incl_s':>9}")
    ranked = sorted(tracer.by_name().items(), key=lambda kv: -kv[1][1])[:TOP_FUNCTIONS]
    lines += [f"{name:<44} {n:>9} {ns / 1e9:>9.4f}" for name, (n, ns) in ranked]
    return lines


# -- main ---------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_qcong()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        print(f"ref {ref_sample()!r}", flush=True)
        return 0

    env = environment()
    env["steal_ticks_before"] = steal_ticks()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            values, units, stats, detail = traced_run(wl, args.workload, args.seed, tmp)
        else:
            probes = SetupProbes(args.workload, args.seed, args.seconds)
            if args.workload == "sweep":
                stats = measure_sweep(wl, args.seconds, probes, tmp)
            else:
                stats = measure_ops(wl, args.seconds, probes)
            probes.finish()
            values, detail = end_to_end(wl, stats)
            detail["setup_probes"] = {"wall_s": probes.wall, "scaled_s": probes.scaled}
            values["setup_s"] = statistics.median(probes.scaled)
            values["setup_wall_s"] = statistics.median(probes.wall)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["steal_ticks_after"] = steal_ticks()

    error_rate = stats.failed / stats.attempted
    print(f"# qcong benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={env[k]}" for k in
                               ("python", "cpu_count", "affinity", "steal_ticks_before", "steal_ticks_after")))
    print(f"# limits: {LIMITS}")
    if args.trace:
        print("# " + "\n# ".join(detail["self_time_table"]))
    else:
        print(f"# tail: p{detail['tail_percentile']:g} of {detail['op_samples']} ops "
              f"({detail['ops_beyond_tail']} beyond)")
    if stats.first_error:
        print(f"first failure: {stats.first_error}", file=sys.stderr)
    raw = {} if args.trace else RAW_UNITS
    for name, unit in {**units, **raw}.items():
        note = "  (raw timing, not gated)" if name in raw else ""
        print(f"{name:<44} {values[name]!r:>24} {unit}{note}")
    print(f"{'error_rate':<44} {error_rate!r:>24} ratio  ({stats.failed} of {stats.attempted} ops)")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "error_rate": error_rate, "detail": detail,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
              "raw": {name: {"value": values[name], "unit": unit} for name, unit in raw.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
