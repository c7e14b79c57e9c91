"""Grid sweeps over theorem checks with byte-deterministic reports.

A sweep expands its config into independent check tasks, runs them in
ring order (in a process pool when workers > 1, of at most as many
processes as there are tasks, chunks and cores), sorts the records by a
fixed key, and renders them to JSON-lines or CSV.  Ring order sorts the
tasks by the (n, d) block whose tails they read and then by CHECKS[id].key,
the n and weight spec of the statement each builds, so the tasks that read
one cell's ring weights and kernels run together while those are cached.
The pool is handed chunks of whole (n, d) blocks (chunk_tasks), so each
block's tails, weights and kernel differences are built in one worker; a
block of more than a process's share of the tasks is cut at its (n, spec)
cells instead, the tasks without a key (lemmas, even-sign, classical) are
cut by size, and each worker calls run_task once per task.  Records never
contain timing, so the emitted file depends only on the config, not on the
worker count, the run order or machine load.  Grid cells outside a
check's hypotheses (CHECKS[id].invalid) are counted as skipped, not
errored.  A task that raises ValueError or ArithmeticError (an ill-posed
cell, such as n = 1 or d = 0, which invalid never skips) becomes an error
record carrying its arguments and the message; the other records are still
written, and the sweep counts it under errors.  A grid of more than
MAX_TASKS cells, a key of more than MAX_TASKS values, or a list-valued key
with none, is refused with a ValueError before any task runs or any record
is written.

Config files are flat ``key = value`` lines; '#' starts a comment.  Values
are comma-separated atoms, each an integer, a fraction, an inclusive range
``lo..hi``, or a token such as a family label.  Every key can be overridden
by the matching command-line flag.  Each key is one row of _KEYS: the
SweepConfig field it sets and the rule that parses its atoms (integer
ranges, family labels, fractions, or one value with a lower bound or a
choice).  CONFIG_KEYS, and with it the CLI's sweep flags, is read off that
table.  The acceptance grids are the configs in configs/acceptance/.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .families import FamilySpec
from .laurent import _parse, clipped
from .theorems import CHECKS

# config `theorems` value -> the CHECKS ids it sweeps
SWEEP_GROUPS = {
    "1.1": ("thm1.1",),
    "1.2": ("thm1.2",),
    "2.1": ("thm2.1",),
    "guo_zeng": ("guo_zeng",),
    "sun_p": ("sun_p",),
    "lemmas": ("lemma-sn", "lemma-sn-minus1", "even-sign"),
    "classical": ("classical",),
}
DEFAULT_ALPHAS = (Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))

# The most values a key may list, and the most grid cells, runnable or
# skipped, a sweep may expand: a larger grid exits 2 before any task runs.
# A task costs 0.5-0.8 KB of peak RSS (lemmas sweeps of 9 360 and 37 927
# tasks peaked at 22 and 37 MB, thm1.1 sweeps of 160 004 and 320 004 at 138
# and 257 MB), so a sweep at the bound peaks near 120 MB (116 MB measured
# for 131 072 thm1.1 tasks on one worker).
MAX_TASKS = 1 << 17

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


@dataclass
class SweepConfig:
    theorems: tuple[str, ...]
    n_values: tuple[int, ...]
    d_values: tuple[int, ...] = (1,)
    r_values: tuple[int, ...] = (0,)
    s_values: tuple[int, ...] = (1,)
    a_values: "tuple[int, ...] | None" = None  # None = all residues 0..n-1
    families: tuple[FamilySpec, ...] = (FamilySpec("ones"),)
    alphas: tuple[Fraction, ...] = DEFAULT_ALPHAS
    classical_seeds: int = 10
    workers: int = 1
    output: "str | None" = None
    format: str = "jsonl"


@dataclass
class SweepSummary:
    total: int
    passed: int
    failed: int
    skipped: int
    wall_time: float
    errors: int = 0


def split_atoms(value: str) -> list[str]:
    return [a.strip() for a in value.split(",") if a.strip()]


def parse_config_text(text: str) -> dict[str, list[str]]:
    data: dict[str, list[str]] = {}
    for idx, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {idx}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in data:
            raise ValueError(f"config line {idx}: duplicate key {clipped(repr(key))}")
        data[key] = split_atoms(value)
    return data


def expand_ints(atoms: list[str], key: str) -> tuple[int, ...]:
    """The integers of a key's atoms, refused past MAX_TASKS values before
    any range is built."""
    out: list[int] = []
    for atom in atoms:
        m = _RANGE_RE.match(atom)
        if m:
            lo, hi = (_parse(int, end, key, "an integer") for end in m.groups())
            if lo > hi:
                raise ValueError(f"{key}: empty range {clipped(repr(atom))}")
        else:
            lo = hi = _parse(int, atom, key, "integer or range")
        if len(out) + hi - lo + 1 > MAX_TASKS:
            raise ValueError(f"{key}: more than {MAX_TASKS} values")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def _one(atoms: list[str], key: str) -> str:
    """The atom of a key that takes a single value."""
    if len(atoms) != 1:
        raise ValueError(f"{key} takes a single value")
    return atoms[0]


def _positive(atoms: list[str], key: str) -> int:
    value = _parse(int, _one(atoms, key), key, "an integer")
    if value < 1:
        raise ValueError(f"{key} must be at least 1")
    return value


def _format(atoms: list[str], key: str) -> str:
    if _one(atoms, key) not in ("jsonl", "csv"):
        raise ValueError(f"format must be jsonl or csv, got {clipped(repr(atoms[0]))}")
    return atoms[0]


# key: (SweepConfig field, parse rule, list-valued?), in the order the CLI
# lists their flags (--key, '_' spelled '-').  A rule maps the key's atoms
# and the key's name to the field's value.
_KEYS = {
    "theorems": ("theorems", lambda atoms, key: tuple(atoms), True),
    "n": ("n_values", expand_ints, True),
    "d": ("d_values", expand_ints, True),
    "r": ("r_values", expand_ints, True),
    "s": ("s_values", expand_ints, True),
    "a": ("a_values", expand_ints, True),
    "families": ("families", lambda atoms, key: tuple(map(FamilySpec.parse, atoms)), True),
    "alphas": ("alphas", lambda atoms, key: tuple(_parse(Fraction, a, key, "a fraction") for a in atoms), True),
    "classical_seeds": ("classical_seeds", _positive, False),
    "workers": ("workers", _positive, False),
    "output": ("output", _one, False),
    "format": ("format", _format, False),
}
CONFIG_KEYS = tuple(_KEYS)


def build_config(raw: dict[str, list[str]]) -> SweepConfig:
    """The SweepConfig of a key -> atoms map.  The required keys (theorems,
    whose values must name SWEEP_GROUPS, and n) and the empty list keys are
    refused before any key is parsed; then each key is parsed by its _KEYS
    rule, in _KEYS order, so the first fault in that order is reported."""
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(map(clipped, sorted(unknown)))}")
    if not raw.get("theorems"):
        raise ValueError("config needs a 'theorems' key")
    for t in raw["theorems"]:
        if t not in SWEEP_GROUPS:
            raise ValueError(f"unknown theorem {clipped(repr(t))}; choices: {', '.join(SWEEP_GROUPS)}")
    if "n" not in raw:
        raise ValueError("config needs an 'n' key")
    for key, (_, _, listed) in _KEYS.items():  # an empty list key would drop its cells
        if listed and raw.get(key) == []:
            raise ValueError(f"{key}: expected at least one value")
    return SweepConfig(**{field: rule(raw[key], key) for key, (field, rule, _) in _KEYS.items() if key in raw})


def load_config(path: "str | Path | None", overrides: "dict[str, str] | None" = None) -> SweepConfig:
    """The config file at path (none if None) with command-line values laid over it."""
    raw = parse_config_text(Path(path).read_text()) if path else {}
    for key, value in (overrides or {}).items():
        raw[key] = split_atoms(value)
    return build_config(raw)


# -- task expansion ---------------------------------------------------------


def _size(axis) -> int:
    """len(axis), also for a range longer than sys.maxsize."""
    return max(0, axis.stop - axis.start) if isinstance(axis, range) else len(axis)


def expand_tasks(cfg: SweepConfig) -> tuple[list[tuple], int]:
    """All runnable (check_id, args) tasks plus the count of skipped cells.
    A grid of more than MAX_TASKS cells, runnable or skipped, is refused
    from the sizes of its axes, before they are expanded."""
    tasks: list[tuple] = []
    skipped = cells = 0
    families = [fam.label() for fam in cfg.families]
    alphas = [str(alpha) for alpha in cfg.alphas]
    for group in cfg.theorems:
        for check_id in SWEEP_GROUPS[group]:
            check = CHECKS[check_id]
            for n in cfg.n_values:  # n, or p for the classical check
                axes = {
                    "d": cfg.d_values, "r": cfg.r_values, "s": cfg.s_values,
                    "a": cfg.a_values if cfg.a_values is not None else range(n),
                    "j": range(1, n), "family": families, "alpha": alphas,
                    "seed": range(cfg.classical_seeds),
                }
                cells += math.prod(_size(axes[name]) for name in check.args[1:])
                if cells > MAX_TASKS:
                    raise ValueError(f"the sweep grid has more than {MAX_TASKS} cells")
                for rest in itertools.product(*(axes[name] for name in check.args[1:])):
                    args = (n, *rest)
                    if check.invalid(*args):
                        skipped += 1
                    else:
                        tasks.append((check_id, args))
    return tasks, skipped


# -- task execution ---------------------------------------------------------


def _record_from_report(rep) -> dict:
    rec: dict = {"check": rep.check, **rep.params, "holds": rep.holds}
    for key in ("a", "exponent", "sign", "branch", "residual"):
        value = getattr(rep, key)
        if value is not None:
            rec[key] = value
    return rec


def run_task(task: tuple) -> dict:
    check_id, args = task
    check = CHECKS[check_id]
    try:
        return _record_from_report(check.run(*args))
    except (ValueError, ArithmeticError) as exc:
        return {"check": check_id, **dict(zip(check.args, args)), "error": str(exc)}


def _order(task: tuple) -> tuple:
    """A task's place in ring order: (n, d, key) for a check whose
    CHECKS[id].key is (n, (r, d)), the (n, d) block whose tails it reads
    first, and () for a check without ring weights."""
    key = CHECKS[task[0]].key(*task[1])
    return (key[0], key[1][1], key) if key else ()


def chunk_tasks(tasks: list, processes: int) -> list[list]:
    """The tasks in ring order (_order), cut into the chunks a pool of
    processes is handed, about 8 a process.  A chunk closes once it holds
    size = len(tasks) // (8 * processes) tasks, but only where an (n, d)
    block ends, so each block's tails, weights and kernel differences are
    built in one worker.  A block of more than a process's share of the
    tasks may also close a chunk where an (n, spec) cell ends, so that a
    grid of few blocks still runs in every process, each building that
    block's tails at most once; the tasks without a key are cut at size."""
    ordered = sorted(((_order(task), task) for task in tasks), key=lambda pair: pair[0])
    size = max(1, len(tasks) // (8 * max(processes, 1)))
    blocks = Counter(order[:2] for order, _ in ordered)
    chunks, last = [], None
    for order, task in ordered:
        # the unit a chunk may not split: the cell of a block beyond its share, else the block
        unit = order if blocks[order[:2]] * processes > len(tasks) else order[:2]
        if not chunks or len(chunks[-1]) >= size and (not unit or unit != last):
            chunks.append([])
        chunks[-1].append(task)
        last = unit
    return chunks


def run_chunk(chunk: list) -> list:
    """The records of a chunk's tasks, each by one call of run_task, looked
    up by its module name, so a wrapper set on qcong.sweep.run_task (the
    benchmark's task timer) sees every task in the pool workers too."""
    return [run_task(task) for task in chunk]


# -- rendering --------------------------------------------------------------

CSV_COLUMNS = (
    "check", "n", "p", "d", "r", "a", "s", "j", "alpha", "seed",
    "family", "holds", "exponent", "sign", "branch", "residual",
)


def render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)


def render_csv(records: list[dict]) -> str:
    columns = CSV_COLUMNS + ("error",) if any("error" in rec for rec in records) else CSV_COLUMNS

    def cell(rec: dict, col: str) -> str:
        v = rec.get(col)
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([cell(rec, col) for col in columns])
    return buf.getvalue()


def run_sweep(cfg: SweepConfig) -> SweepSummary:
    started = time.perf_counter()
    tasks, skipped = expand_tasks(cfg)
    # no more processes than tasks or cores, whatever workers asks for
    processes = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    # each (n, d) block, or each cell of one beyond its share, in one chunk, while its tables are cached
    chunks = chunk_tasks(tasks, processes)
    tasks = [task for chunk in chunks for task in chunk]
    processes = min(processes, len(chunks))  # and no more than chunks
    if processes > 1:
        # imported here, so that importing qcong loads no multiprocessing
        from multiprocessing import get_context

        with get_context().Pool(processes) as pool:
            records = [rec for recs in pool.map(run_chunk, chunks, chunksize=1) for rec in recs]
    else:
        records = [run_task(t) for t in tasks]
    # a task's (check_id, args) is its record's sort key
    records = [rec for _, rec in sorted(zip(tasks, records), key=lambda pair: pair[0])]
    text = render_csv(records) if cfg.format == "csv" else render_jsonl(records)
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)
    errors = sum(1 for rec in records if "error" in rec)
    failed = sum(1 for rec in records if rec.get("holds") is False)
    return SweepSummary(
        total=len(records),
        passed=len(records) - failed - errors,
        failed=failed,
        skipped=skipped,
        wall_time=time.perf_counter() - started,
        errors=errors,
    )


def format_summary(s: SweepSummary) -> str:
    errors = f" errors={s.errors}" if s.errors else ""
    return (f"total={s.total} passed={s.passed} failed={s.failed} "
            f"skipped={s.skipped}{errors} wall={s.wall_time:.2f}s")
