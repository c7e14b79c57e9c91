"""Grid sweeps over theorem checks with byte-deterministic reports.

A sweep expands its config into independent check tasks, runs them in
cell order (in a process pool when workers > 1, of at most as many
processes as there are tasks and cores), sorts the records by a
fixed key, and renders them to JSON-lines or CSV.  Cell order is the
CHECKS[id].key of each task, the n and weight spec of the statement it
builds, so the tasks that read one cell's ring weights and kernels run
together while those are cached.  Records never contain timing, so the
emitted file depends only on the config, not on the worker count, the run
order or machine load.  Grid cells outside a check's hypotheses
(CHECKS[id].invalid) are counted as skipped, not errored.  A task that raises ValueError or
ArithmeticError (an ill-posed cell, such as n = 1) becomes an error record
carrying its arguments and the message; the other records are still
written, and the sweep counts it under errors.

Config files are flat ``key = value`` lines; '#' starts a comment.  Values
are comma-separated atoms, each an integer, a fraction, an inclusive range
``lo..hi``, or a token such as a family label.  Every key can be overridden
by the matching command-line flag.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .families import DEFAULT_COEFF_BOUND, FamilySpec
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
# config keys, in the order the CLI lists their flags (--key, '_' spelled '-')
CONFIG_KEYS = (
    "theorems", "n", "d", "r", "s", "a", "families", "alphas",
    "classical_seeds", "classical_bound", "workers", "output", "format",
)

DEFAULT_ALPHAS = (Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))

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
    classical_bound: int = DEFAULT_COEFF_BOUND
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
            raise ValueError(f"config line {idx}: duplicate key {key!r}")
        data[key] = split_atoms(value)
    return data


def expand_ints(atoms: list[str], key: str) -> tuple[int, ...]:
    out: list[int] = []
    for atom in atoms:
        m = _RANGE_RE.match(atom)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise ValueError(f"{key}: empty range {atom!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(atom))
            except ValueError:
                raise ValueError(f"{key}: expected integer or range, got {atom!r}") from None
    return tuple(out)


def build_config(raw: dict[str, list[str]]) -> SweepConfig:
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def single(key: str) -> "str | None":
        atoms = raw.get(key)
        if atoms is None:
            return None
        if len(atoms) != 1:
            raise ValueError(f"{key} takes a single value")
        return atoms[0]

    theorems = tuple(raw.get("theorems", []))
    if not theorems:
        raise ValueError("config needs a 'theorems' key")
    for t in theorems:
        if t not in SWEEP_GROUPS:
            raise ValueError(f"unknown theorem {t!r}; choices: {', '.join(SWEEP_GROUPS)}")
    if "n" not in raw:
        raise ValueError("config needs an 'n' key")

    cfg = SweepConfig(theorems=theorems, n_values=expand_ints(raw["n"], "n"))
    for key in ("d", "r", "s", "a"):
        if key in raw:
            setattr(cfg, f"{key}_values", expand_ints(raw[key], key))
    if "families" in raw:
        cfg.families = tuple(FamilySpec.parse(a) for a in raw["families"])
    if "alphas" in raw:
        cfg.alphas = tuple(Fraction(a) for a in raw["alphas"])
    seeds = single("classical_seeds")
    if seeds is not None:
        cfg.classical_seeds = int(seeds)
        if cfg.classical_seeds < 1:
            raise ValueError("classical_seeds must be at least 1")
    bound = single("classical_bound")
    if bound is not None:
        cfg.classical_bound = int(bound)
        if cfg.classical_bound < 1:
            raise ValueError("classical_bound must be at least 1")
    workers = single("workers")
    if workers is not None:
        cfg.workers = int(workers)
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    output = single("output")
    if output is not None:
        cfg.output = output
    fmt = single("format")
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"format must be jsonl or csv, got {fmt!r}")
        cfg.format = fmt
    return cfg


def load_config(path: "str | Path | None", overrides: "dict[str, str] | None" = None) -> SweepConfig:
    """The config file at path (none if None) with command-line values laid over it."""
    raw = parse_config_text(Path(path).read_text()) if path else {}
    for key, value in (overrides or {}).items():
        raw[key] = split_atoms(value)
    return build_config(raw)


# -- task expansion ---------------------------------------------------------


def expand_tasks(cfg: SweepConfig) -> tuple[list[tuple], int]:
    """All runnable (check_id, args) tasks plus the count of skipped cells."""
    tasks: list[tuple] = []
    skipped = 0
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
                    "seed": range(cfg.classical_seeds), "bound": (cfg.classical_bound,),
                }
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
    # run each ring cell's tasks together, while its weights and kernels are cached
    tasks.sort(key=lambda task: CHECKS[task[0]].key(*task[1]))
    # no more processes than tasks or cores, whatever workers asks for
    processes = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        # imported here, so that importing qcong loads no multiprocessing
        from multiprocessing import get_context

        chunk = max(1, len(tasks) // (processes * 8))
        with get_context().Pool(processes) as pool:
            records = pool.map(run_task, tasks, chunksize=chunk)
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
