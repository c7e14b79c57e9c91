import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import cli, sweep, theorems
from qcong.families import FamilySpec
from qcong.qcalc import qbinom_base, qpoch
from qcong.sweep import (
    MAX_TASKS,
    SweepConfig,
    build_config,
    expand_ints,
    expand_tasks,
    load_config,
    parse_config_text,
    render_csv,
    render_jsonl,
    run_sweep,
    run_task,
)
from qcong.theorems import CHECKS, MAX_CLASSICAL_P


def record_key(rec: dict) -> tuple:
    """Sweep record order: the check id, then the check's arguments in turn."""
    return (rec["check"],) + tuple(rec[name] for name in CHECKS[rec["check"]].args if name in rec)


# -- config parsing -----------------------------------------------------------


def test_parse_config_text_basics():
    text = """
    # grid for a quick look
    theorems = 1.1, lemmas
    n = 3..5
    d = 1, 2

    families = ones, delta:1
    """
    raw = parse_config_text(text)
    assert raw["theorems"] == ["1.1", "lemmas"]
    assert raw["n"] == ["3..5"]
    assert raw["families"] == ["ones", "delta:1"]


def test_parse_config_rejects_junk():
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_text("n = 3\nn = 4\n")


def test_expand_ints():
    assert expand_ints(["3..5", "9"], "n") == (3, 4, 5, 9)
    assert expand_ints(["-2..1"], "r") == (-2, -1, 0, 1)
    with pytest.raises(ValueError):
        expand_ints(["5..3"], "n")
    with pytest.raises(ValueError):
        expand_ints(["ones"], "n")


def test_build_config_defaults_and_validation():
    cfg = build_config({"theorems": ["1.1"], "n": ["3", "5"]})
    assert cfg.n_values == (3, 5)
    assert cfg.d_values == (1,)
    assert cfg.r_values == (0,)
    assert cfg.families == (FamilySpec("ones"),)
    assert cfg.format == "jsonl"
    assert cfg.workers == 1

    with pytest.raises(ValueError):
        build_config({"n": ["3"]})
    with pytest.raises(ValueError):
        build_config({"theorems": ["1.3"], "n": ["3"]})
    with pytest.raises(ValueError):
        build_config({"theorems": ["1.1"], "n": ["3"], "volume": ["11"]})
    with pytest.raises(ValueError):
        build_config({"theorems": ["1.1"], "n": ["3"], "format": ["yaml"]})


def test_config_workers_beats_env(monkeypatch):
    # the workers key (or --workers) is the only setting; the environment is not read
    monkeypatch.setenv("QCONG_WORKERS", "4")
    cfg = build_config({"theorems": ["1.1"], "n": ["3"], "workers": ["2"]})
    assert cfg.workers == 2
    cfg = build_config({"theorems": ["1.1"], "n": ["3"]})
    assert cfg.workers == 1


# -- task expansion and skip accounting --------------------------------------


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# runnable and skipped cells of each acceptance grid
ACCEPTANCE_CELLS = {
    "symmetric": (6160, 4004),
    "integer_parameter": (1512, 0),
    "bivariate_and_rational": (203, 189),
    "lemmas": (798, 5),
    "classical": (150, 10),
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("**/*.cfg")), ids=lambda path: str(path.relative_to(CONFIGS)))
def test_every_config_file_loads_and_expands(path):
    """Each shipped config parses and expands to runnable tasks; no check runs."""
    tasks, skipped = expand_tasks(load_config(path))
    assert tasks
    if path.parent.name == "acceptance":
        assert (len(tasks), skipped) == ACCEPTANCE_CELLS[path.stem]


def test_the_acceptance_configs_are_the_pinned_grids():
    assert sorted(path.stem for path in (CONFIGS / "acceptance").glob("*.cfg")) == sorted(ACCEPTANCE_CELLS)


def test_expand_tasks_counts_gcd_skips():
    cfg = SweepConfig(theorems=("1.1",), n_values=(4, 6), d_values=(2, 3), r_values=(0, 1))
    tasks, skipped = expand_tasks(cfg)
    # n=4: d=2 shares a factor (2 r-values x 1 family skipped), d=3 runs
    # n=6: both d values share a factor
    assert skipped == 2 + 2 + 2
    assert len(tasks) == 2
    assert all(t[0] == "thm1.1" for t in tasks)


def test_expand_tasks_rational_family_skips_under_1_1():
    fams = (FamilySpec("ones"), FamilySpec("sun_p_x"))
    cfg = SweepConfig(theorems=("1.1",), n_values=(3,), families=fams)
    tasks, skipped = expand_tasks(cfg)
    assert len(tasks) == 1 and skipped == 1
    cfg = SweepConfig(theorems=("1.2",), n_values=(3,), families=fams)
    tasks, skipped = expand_tasks(cfg)
    assert len(tasks) == 2 and skipped == 0


def test_expand_tasks_sun_p_needs_odd_coprime():
    cfg = SweepConfig(theorems=("sun_p",), n_values=(3, 4, 5), d_values=(1, 3))
    tasks, skipped = expand_tasks(cfg)
    kept = [(t[1][0], t[1][1]) for t in tasks]
    assert (3, 3) not in kept and (4, 1) not in kept
    assert (3, 1) in kept and (5, 3) in kept
    assert skipped == 3  # (3,3), (4,1), (4,3)


def test_expand_tasks_classical_skips_bad_p_and_alpha():
    cfg = SweepConfig(
        theorems=("classical",), n_values=(5, 6),
        alphas=(Fraction(1, 5), Fraction(2)),
        classical_seeds=3,
    )
    tasks, skipped = expand_tasks(cfg)
    # n=6 is not prime (2 alphas x 3 seeds), alpha=1/5 is not 5-integral (3 seeds)
    assert skipped == 6 + 3
    assert len(tasks) == 3


def test_expand_tasks_lemmas_and_even_sign():
    cfg = SweepConfig(theorems=("lemmas",), n_values=(3, 4), s_values=(0, 1))
    tasks, skipped = expand_tasks(cfg)
    kinds = sorted(t[0] for t in tasks)
    assert kinds.count("lemma-sn") == 2 + 3
    assert kinds.count("lemma-sn-minus1") == 2 + 3
    assert kinds.count("even-sign") == 1
    assert skipped == 4 + 6 + 1  # s=0 rows, even-sign at odd n=3


# -- record shape and rendering ----------------------------------------------


def test_run_task_record_shapes():
    rec = run_task(("thm1.1", (5, 2, 1, "ones")))
    assert rec["check"] == "thm1.1"
    assert rec["holds"] is True
    assert set(rec) >= {"n", "d", "r", "family", "a", "exponent", "sign", "branch"}
    assert "residual" not in rec
    assert "wall_time" not in rec

    rec = run_task(("lemma-sn", (5, 1, 2)))
    assert rec == {"check": "lemma-sn", "n": 5, "s": 1, "j": 2, "holds": True}

    rec = run_task(("classical", (5, "1/2", 0)))
    assert rec == {"check": "classical", "p": 5, "alpha": "1/2", "seed": 0, "holds": True}


def test_render_jsonl_is_compact_and_sorted():
    recs = sorted(
        [run_task(("lemma-sn", (5, 1, j))) for j in (3, 1, 2)],
        key=record_key,
    )
    text = render_jsonl(recs)
    lines = text.strip().split("\n")
    assert [json.loads(line)["j"] for line in lines] == [1, 2, 3]
    assert " " not in lines[0]


def test_render_csv_has_fixed_header():
    recs = [run_task(("even-sign", (4,)))]
    text = render_csv(recs)
    head, row = text.strip().split("\n")
    assert head.startswith("check,n,p,d,r,a,s,j,alpha,seed,family,holds")
    assert row.startswith("even-sign,4,")
    assert ",true" in row


# -- determinism across worker counts ----------------------------------------


def test_sweep_output_independent_of_workers(tmp_path):
    raw = {
        "theorems": ["1.1", "lemmas"],
        "n": ["3..6"],
        "d": ["1", "5"],
        "r": ["0", "2"],
        "families": ["ones", "random_poly:3:2"],
    }
    out1 = tmp_path / "w1.jsonl"
    out2 = tmp_path / "w2.jsonl"
    cfg1 = build_config(dict(raw, workers=["1"], output=[str(out1)]))
    cfg2 = build_config(dict(raw, workers=["2"], output=[str(out2)]))
    s1 = run_sweep(cfg1)
    s2 = run_sweep(cfg2)
    assert out1.read_bytes() == out2.read_bytes()
    assert s1.failed == s2.failed == 0
    assert s1.total == s2.total


class _SerialContext:
    """A stand-in for multiprocessing.get_context(): Pool(k) records k and maps
    in this process, so no process is started."""

    def __init__(self):
        self.pools = []
        self.mapped = []

    def Pool(self, processes):
        self.pools.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        assert 1 <= chunksize <= max(1, len(tasks))
        self.mapped.extend(tasks)
        return [fn(task) for task in tasks]


# thm1.1 grids by their task count: 14 tasks in 14 (n, d) blocks, one in
# one, 21 in the 3 blocks (5, d), d = 1..3, of 17 (n, spec) cells, and 7 in
# the one block (5, 1), of 6 cells (r and 1 - r share one)
_POOL_GRIDS = {
    14: {"n": ["2..15"], "d": ["1"], "r": ["0"]},
    1: {"n": ["5"], "d": ["1"], "r": ["0"]},
    21: {"n": ["5"], "d": ["1..3"], "r": ["0..6"]},
    7: {"n": ["5"], "d": ["1"], "r": ["0..6"]},
}


@pytest.mark.parametrize("workers,cores,tasks,pool", [
    (1_000_000, 2, 14, 2),  # capped by the cores
    (1_000_000, 64, 14, 14),  # capped by the tasks, each its own block
    (3, 64, 14, 3),
    (1_000_000, 1, 14, None),  # one core: in-process, no pool
    (1_000_000, None, 14, None),  # the core count unknown
    (1_000_000, 64, 1, None),  # one task
    (1_000_000, 64, 21, 17),  # capped by the chunks: 17 (n, spec) cells
    (1_000_000, 64, 7, 6),  # one block, cut at its 6 cells
    (3, 64, 21, 3),  # 3 blocks of a process's share, each one chunk
])
def test_the_sweep_pool_is_capped_by_tasks_and_cores(workers, cores, tasks, pool, tmp_path, monkeypatch):
    """A sweep starts min(workers, tasks, cores, chunks) processes, and none
    when that is 1, however many workers it is asked for; a chunk splits an
    (n, d) block only at its (n, spec) cells, and only a block of more than
    a process's share of the tasks.  Its records and summary are those of a
    one-worker run."""
    import multiprocessing
    import os

    raw = {"theorems": ["1.1"], **_POOL_GRIDS[tasks], "families": ["ones"], "output": [str(tmp_path / "one.jsonl")]}
    one = run_sweep(build_config(raw))
    context = _SerialContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    raw.update(workers=[str(workers)], output=[str(tmp_path / "many.jsonl")])
    many = run_sweep(build_config(raw))
    assert context.pools == ([] if pool is None else [pool])
    assert one.total == tasks and (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    assert dataclasses.replace(many, wall_time=0) == dataclasses.replace(one, wall_time=0)


# Sweeps run tasks grouped by CHECKS[id].key, the (n, left weight spec) of the
# statement a check builds; these are the checks that build one.
KEYED_CHECKS = ("thm1.1", "thm1.2", "thm2.1", "guo_zeng", "sun_p")


@st.composite
def check_arguments(draw):
    """(check id, args): valid arguments for any check, its family drawn from
    polynomial, bivariate and rational labels."""
    check_id = draw(st.sampled_from(sorted(CHECKS)))
    n = draw(st.integers(min_value=2, max_value=15))
    values = {
        "n": n, "p": draw(st.sampled_from((3, 5, 7, 11))),
        "d": draw(st.integers(min_value=1, max_value=7).filter(lambda d: math.gcd(n, d) == 1)),
        "r": draw(st.integers(-5, 5)), "a": draw(st.integers(0, n - 1)), "s": draw(st.integers(-3, 3)),
        "j": draw(st.integers(1, n - 1)), "alpha": draw(st.sampled_from(("2", "1/2", "-1/3"))),
        "seed": draw(st.integers(0, 9)),
        "family": draw(st.sampled_from(("ones", "delta:1", "monomial_q:2", "random_poly:3:3",
                                        "monomial_x", "sun_p_x"))),
    }
    if check_id == "sun_p":
        values["n"] = n | 1
        values["d"] = draw(st.integers(1, 7).filter(lambda d: math.gcd(n | 1, d) == 1))
    args = tuple(values[name] for name in CHECKS[check_id].args)
    return check_id, args


@settings(max_examples=60, deadline=None)
@given(check_arguments())
def test_the_sweep_key_is_the_statement_a_check_builds(case):
    """A keyed check's key is (n, spec) of the statement its run decides:
    the n of its params and the weight spec of the cell that the builder
    passed to _check makes.  A check without a key decides no statement."""
    check_id, args = case
    check = CHECKS[check_id]
    if check.invalid(*args):
        return
    decided, decide = [], theorems._check

    def spy(name, p, fam, build):
        def built(p, seq):
            cell = build(p, seq)
            decided.append((p.n, cell[0]))
            return cell

        return decide(name, p, fam, built)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "_check", spy)
        check.run(*args)
    if check_id in KEYED_CHECKS:
        assert [check.key(*args)] == decided
    else:
        assert (check.key(*args), decided) == ((), [])


@st.composite
def sweep_cells(draw):
    """(check_id, args): any CHECKS entry at arguments a sweep can expand
    to, ill-posed ones included: n in 0..15 and d in -2..8 (below n = 2 or
    d = 1 a cell is an error record, not a skip), and j on the sweep's axis
    [1, n-1], which is empty below n = 2.  d is coprime to n or not, a in
    range or not, s zero or not; the family labels are univariate,
    bivariate and rational; p is at most MAX_CLASSICAL_P, prime or not, and
    alpha p-integral or not."""
    check_id = draw(st.sampled_from(sorted(CHECKS)))
    n = draw(st.integers(min_value=2 if "j" in CHECKS[check_id].args else 0, max_value=15))
    values = {
        "n": n, "d": draw(st.integers(-2, 8)), "r": draw(st.integers(-5, 5)), "a": draw(st.integers(-2, n + 2)),
        "s": draw(st.integers(-3, 3)), "j": draw(st.integers(1, max(n - 1, 1))),
        "p": draw(st.integers(-2, 40) | st.sampled_from((999, MAX_CLASSICAL_P))),
        "alpha": draw(st.sampled_from(("2", "1/2", "-1/3", "2/5", "5/7", "-3/4"))),
        "seed": draw(st.integers(0, 9)),
        "family": draw(st.sampled_from(("ones", "delta:1", "monomial_q:2", "random_poly:3:3",
                                        "monomial_x", "sun_p_x"))),
    }
    return check_id, tuple(values[name] for name in CHECKS[check_id].args)


@settings(max_examples=300, deadline=None)
@given(sweep_cells())
def test_the_sweep_skip_rule_is_the_check_hypothesis(case):
    """A sweep skips a cell exactly when its check refuses it on a
    hypothesis: invalid(*args) is the message run(*args) raises as
    ValueError, and None when run returns.  An ill-posed cell, n < 2 or
    d < 1, is never skipped: run raises on it, and invalid is None, so that
    a sweep writes its error record.  The one exception is lemma-sn-minus1
    at s = 0, which holds and which sweeps skip there with lemma-sn (the
    comment on its CHECKS entry)."""
    check_id, args = case
    check = CHECKS[check_id]
    values = dict(zip(check.args, args))
    try:
        check.run(*args)
        raised = None
    except ValueError as exc:
        raised = str(exc)
    if values.get("n", 2) < 2 or values.get("d", 1) < 1:
        assert (check.invalid(*args), raised is None) == (None, False)
    elif check_id == "lemma-sn-minus1" and args[1] == 0:
        assert (check.invalid(*args), raised) == ("s must be nonzero", None)
    else:
        assert check.invalid(*args) == raised


def test_sweep_output_does_not_depend_on_the_run_order(tmp_path, monkeypatch):
    """Tasks run in the reverse of their key order give the same JSONL and CSV
    bytes at one and two workers, with an n = 1 task raising.  The reversed
    key keeps the (n, spec) shape that a sweep reads its (n, d) block from,
    each task in a block of its own."""
    raw = {
        "theorems": ["1.1", "1.2", "2.1", "guo_zeng", "sun_p", "lemmas"],
        "n": ["1..6"], "d": ["1..3"], "r": ["-2", "1"], "s": ["-1", "2"],
        "families": ["ones", "random_poly:3:2", "monomial_x", "sun_p_x"],
    }
    tasks, _ = expand_tasks(build_config(raw))
    keyed = sorted(tasks, key=lambda task: CHECKS[task[0]].key(*task[1]))
    rank = {task: i for i, task in enumerate(keyed)}
    outputs = {}
    for order in ("key", "reversed"):
        if order == "reversed":
            for check_id, check in CHECKS.items():
                reverse = lambda *args, check_id=check_id: (-rank[check_id, args], (0, 0))
                monkeypatch.setitem(CHECKS, check_id, dataclasses.replace(check, key=reverse))
        for fmt in ("jsonl", "csv"):
            for workers in ("1", "2"):
                out = tmp_path / f"{order}-{workers}.{fmt}"
                summary = run_sweep(build_config(dict(raw, workers=[workers], format=[fmt], output=[str(out)])))
                assert summary.errors and not summary.failed
                outputs[order, fmt, workers] = out.read_bytes()
    for fmt in ("jsonl", "csv"):
        assert len({outputs[order, fmt, workers] for order in ("key", "reversed") for workers in "12"}) == 1


def _ring_block(task: tuple) -> tuple:
    """The (n, d) of a task's key, or () when it has none."""
    key = CHECKS[task[0]].key(*task[1])
    return key and (key[0], key[1][1])


def _runs(values: list) -> list:
    """The first value of each run of equal values."""
    return [v for i, v in enumerate(values) if i == 0 or values[i - 1] != v]


def test_tasks_run_grouped_by_their_key(monkeypatch):
    """The tasks run in ring order, at one worker and, through run_chunk,
    in a pool of two: each (n, d) block in one run, and within it every
    thm1.1, thm1.2 and guo_zeng task of one (n, spec) cell in one run.  The
    pool is handed each block in one chunk, and calls sweep.run_task by its
    module name, so a replacement sees every task."""
    import multiprocessing

    ran, context = [], _SerialContext()
    monkeypatch.setattr("qcong.sweep.run_task", lambda task: ran.append(task) or {"check": task[0]})
    monkeypatch.setattr(multiprocessing, "get_context", lambda: context)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    raw = {"theorems": ["1.1", "1.2", "guo_zeng", "lemmas"], "n": ["3..5"], "d": ["1..2"], "r": ["-1..2"],
           "families": ["ones", "delta:1"], "output": ["/dev/null"]}
    for workers in ("1", "2"):
        ran.clear()
        run_sweep(build_config(dict(raw, workers=[workers])))
        assert len(ran) == len(expand_tasks(build_config(raw))[0])
        keys = [CHECKS[check_id].key(*args) for check_id, args in ran]
        keyed = [key for key in keys if key]
        assert keys == [()] * (len(keys) - len(keyed)) + keyed  # the keyless tasks first
        blocks = _runs([(n, spec[1]) for n, spec in keyed])
        cells = _runs(keyed)
        assert blocks == sorted(set(blocks)) and len(blocks) == 5 and len(cells) == len(set(cells))
    chunks = [{_ring_block(task) for task in chunk} - {()} for chunk in context.mapped]
    assert context.pools == [2] and len(chunks) > 2 and sum(map(len, chunks)) == len(set().union(*chunks)) == 5


# a grid with every check kind of a sweep, its keyless lemma, even-sign and
# classical tasks among them
_CHUNK_GRID = {"theorems": list(sweep.SWEEP_GROUPS), "n": ["2..7"], "d": ["1..3"], "r": ["-1..1"], "s": ["-1..1"],
               "families": ["ones"], "alphas": ["2", "1/2"], "classical_seeds": ["2"]}


@pytest.mark.parametrize("processes", [1, 2, 8, 12, 40, 10**6])
def test_chunks_split_only_a_block_beyond_its_share(processes):
    """sweep.chunk_tasks: the chunks, joined, are the tasks sorted by (n, d)
    and then by key, the keyless ones first.  A chunk closes once it holds
    size tasks, where the unit it is filling ends: an (n, d) block of at most
    a process's share of the tasks, which thus never spans two chunks, or
    an (n, spec) cell of a larger block.  The keyless tasks are cut at size.
    At 1, 2 and 8 processes the grid's 13 blocks (9 to 33 tasks of 321) stay
    whole; at 12 some are cut at their cells, at 40 and more every one."""
    tasks = expand_tasks(build_config(_CHUNK_GRID))[0][::-1]
    chunks = sweep.chunk_tasks(tasks, processes)
    size = max(1, len(tasks) // (8 * processes))
    ring_order = sorted(tasks, key=lambda task: (_ring_block(task), CHECKS[task[0]].key(*task[1])))
    assert [task for chunk in chunks for task in chunk] == ring_order
    sizes = collections.Counter(map(_ring_block, tasks))

    def unit(task):
        block = _ring_block(task)
        return block and (CHECKS[task[0]].key(*task[1]) if sizes[block] * processes > len(tasks) else block)

    units = [{unit(task) for task in chunk} - {()} for chunk in chunks]
    assert sum(map(len, units)) == len(set().union(*units))  # no unit spans two chunks
    blocks = [{_ring_block(task) for task in chunk} - {()} for chunk in chunks]
    whole = sum(map(len, blocks)) == len(set().union(*blocks)) == 13
    assert whole == (processes <= 9)
    assert all(len(chunk) >= size for chunk in chunks[:-1])
    for chunk in chunks:
        if len(chunk) > size:  # past size, it holds only the rest of the unit that filled it
            assert len({unit(task) for task in chunk[size - 1:]}) == 1 and unit(chunk[-1])
    keyless = [chunk for chunk in chunks if not _ring_block(chunk[0])]
    assert all(len(chunk) == size and not any(map(_ring_block, chunk)) for chunk in keyless[:-1])
    assert 0 < sum(not _ring_block(task) for task in keyless[-1]) <= size


def test_a_one_block_grid_is_chunked_for_every_process():
    """A grid whose tasks all read one (n, d) block, here thm2.1 at n = 101
    with 21 values of s (2121 tasks, all at d = 1), is cut at its (n, spec)
    cells into 7 to 8 chunks a process, not run in one chunk."""
    tasks = expand_tasks(build_config({"theorems": ["2.1"], "n": ["101"], "s": ["-10..10"]}))[0]
    assert {_ring_block(task) for task in tasks} == {(101, 1)}
    assert len(sweep.chunk_tasks(tasks, 1)) == 1
    for processes in (2, 8):
        chunks = sweep.chunk_tasks(tasks, processes)
        assert 7 * processes <= len(chunks) <= 8 * processes + 1


def test_thm_2_1_shares_the_kernel_differences_of_thm_1_1_at_d_1(tmp_path):
    """A sweep of thm1.1 at d = 1 and of thm2.1 whose -alpha = -(a + s*n) lie
    in thm1.1's r range builds each kernel difference once: thm2.1 at alpha
    is thm1.1's cell at (n, 1, -alpha), so the _kernel_diff misses are the
    distinct (n, spec, ratio of scales) of the thm1.1 cells alone."""
    raw = {"theorems": ["1.1", "2.1"], "n": ["2..7"], "d": ["1"], "r": ["-13..7"], "s": ["-1..1"],
           "families": ["ones", "random_poly:3:2"], "workers": ["1"], "output": [str(tmp_path / "out.jsonl")]}
    cells = {(n, theorems._spec(r, 1), -p.E, p.sign)
             for n in range(2, 8) for r in range(-13, 8) for p in [theorems.SymParams.create(n, 1, r)]}
    theorems._kernel_diff.cache_clear()
    summary = run_sweep(build_config(raw))
    info = theorems._kernel_diff.cache_info()
    assert summary.total == summary.passed == 2 * (6 * 21 + 3 * sum(range(2, 8)))
    assert info.misses == len(cells) and info.hits == summary.total - len(cells)


# -- command line -------------------------------------------------------------


def test_cli_cyclotomic(capsys):
    assert cli.main(["cyclotomic", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1*q^0 + -1*q^1 + 1*q^2"


def test_cli_qbinom_and_qpoch(capsys):
    assert cli.main(["qbinom", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1*q^0 + 1*q^1 + 2*q^2 + 1*q^3 + 1*q^4"
    assert cli.main(["qbinom", "--base", "2", "--", "-1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-1*q^-2"
    assert cli.main(["qpoch", "1", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1*q^0 + -1*q^1"


def test_cli_transform(capsys):
    assert cli.main(["transform", "--kind", "hat", "--family", "ones", "--length", "3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "0: 1*q^0"
    assert out[1] == "1: 1*q^0 + -1*q^1"


def test_cli_congruent_exit_codes(tmp_path, capsys):
    lhs = tmp_path / "lhs.txt"
    rhs = tmp_path / "rhs.txt"
    lhs.write_text("1*q^7\n")
    rhs.write_text("1*q^2\n")
    assert cli.main(["congruent", "--n", "5", "--m", "1", "--lhs", str(lhs), "--rhs", str(rhs)]) == 0
    assert "CONGRUENT" in capsys.readouterr().out

    rhs.write_text("1*q^3\n")
    assert cli.main(["congruent", "--n", "5", "--m", "1", "--lhs", str(lhs), "--rhs", str(rhs)]) == 1
    out = capsys.readouterr().out
    assert "NOT CONGRUENT" in out and "residual:" in out

    # denominator sharing a factor with the modulus is usage error, not False
    bad = tmp_path / "bad.txt"
    bad.write_text("1*q^0\n1*q^0 + 1*q^1 + 1*q^2 + 1*q^3 + 1*q^4\n")
    assert cli.main(["congruent", "--n", "5", "--m", "1", "--lhs", str(bad), "--rhs", str(rhs)]) == 2


@pytest.mark.parametrize("argv,error", [
    (["transform", "--kind", "hat", "--family", "ones", "--length", "1"], "--length must be at least 2"),
    (["sweep"], "sweep needs --config or at least --theorems/--n flags"),
])
def test_cli_usage_errors(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == f"qcong: error: {error}"


def test_cli_congruent_refuses_a_file_of_three_lines(tmp_path, capsys):
    three, rhs = tmp_path / "three.txt", tmp_path / "rhs.txt"
    three.write_text("1*q^0\n1*q^1\n# a comment is not a line\n1*q^2\n")
    rhs.write_text("1*q^0\n")
    assert cli.main(["congruent", "--n", "5", "--m", "1", "--lhs", str(three), "--rhs", str(rhs)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.strip()) == ("", f"error: {three}: expected one polynomial line or numerator/denominator pair")


def test_cli_congruent_names_a_term_with_a_zero_denominator(tmp_path, capsys):
    lhs, rhs = tmp_path / "lhs.txt", tmp_path / "rhs.txt"
    lhs.write_text("1/0*q^1\n")
    rhs.write_text("1*q^0\n")
    assert cli.main(["congruent", "--n", "5", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.strip()) == ("", "error: zero denominator in polynomial term: '1/0*q^1'")


def test_cli_congruent_names_a_term_with_a_signed_denominator(tmp_path, capsys):
    """The canonical form signs only the numerator, so 1/-2 is malformed."""
    lhs, rhs = tmp_path / "lhs.txt", tmp_path / "rhs.txt"
    lhs.write_text("1/-2*q^1\n")
    rhs.write_text("1*q^0\n")
    assert cli.main(["congruent", "--n", "5", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.strip()) == ("", "error: malformed polynomial term: '1/-2*q^1'")


def test_cli_congruent_rational_files(tmp_path, capsys):
    lhs = tmp_path / "lhs.txt"
    rhs = tmp_path / "rhs.txt"
    # (1 - q^6) / (1 - q) vs the q-integer [6] mod Phi_5^2
    lhs.write_text("# numerator then denominator\n1*q^0 + -1*q^6\n1*q^0 + -1*q^1\n")
    rhs.write_text("1*q^0 + 1*q^1 + 1*q^2 + 1*q^3 + 1*q^4 + 1*q^5\n")
    assert cli.main(["congruent", "--n", "5", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 0


def test_cli_verify_pass_and_formats(capsys):
    assert cli.main(["verify", "thm1.1", "--n", "6", "--d", "5", "--r", "2",
                     "--family", "delta:1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS thm1.1 n=6 d=5 r=2 family=delta:1 ")
    assert "branch=even" in out and "a=2" in out and "exponent=21" in out and "sign=+1" in out

    assert cli.main(["verify", "thm2.1", "--n", "5", "--a", "2", "--s", "1",
                     "--family", "ones"]) == 0
    assert cli.main(["verify", "lemma-sn", "--n", "5", "--s", "1", "--j", "2"]) == 0
    assert cli.main(["verify", "s0", "--n", "5", "--a", "2"]) == 0
    assert cli.main(["verify", "classical", "--p", "7", "--alpha", "5/2"]) == 0
    capsys.readouterr()


def test_cli_verify_missing_args_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "thm1.1", "--n", "5"])
    assert exc.value.code == 2


def test_cli_verify_invalid_cell_reports_error(capsys):
    assert cli.main(["verify", "thm1.1", "--n", "6", "--d", "3", "--r", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("theorems = lemmas\nn = 3..5\ns = 1\n")
    out = tmp_path / "records.jsonl"
    code = cli.main(["sweep", "--config", str(cfg), "--n", "3..4", "--output", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "failed=0" in err
    lines = out.read_text().strip().split("\n")
    recs = [json.loads(line) for line in lines]
    assert {r["n"] for r in recs} == {3, 4}
    assert recs == sorted(recs, key=record_key)


def test_cli_sweep_csv_to_stdout(capsys):
    code = cli.main(["sweep", "--theorems", "lemmas", "--n", "3", "--s", "1",
                     "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("check,n,p,d,r,")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qcong.cli", "cyclotomic", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1*q^0 + 1*q^1 + 1*q^2 + 1*q^3 + 1*q^4 + 1*q^5 + 1*q^6"


def test_importing_qcong_loads_no_multiprocessing():
    """run_sweep imports the pool where it makes one, so neither `import qcong`
    nor the CLI module loads multiprocessing.  A fresh interpreter, since
    pytest may have loaded it already."""
    code = "import sys, qcong, qcong.cli; assert 'multiprocessing' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p,error", [
    ("1000000000000000001", "error: p must be an odd prime"),  # 101 * 9901 * ...
    ("2305843009213693951", f"error: p must be at most {MAX_CLASSICAL_P}"),  # 2^61 - 1
])
def test_cli_classical_rejects_a_huge_p_at_once(p, error, capsys):
    started = time.perf_counter()
    assert cli.main(["verify", "classical", "--p", p, "--alpha=1/2"]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err.strip() == error


@pytest.mark.parametrize("argv", [
    ["verify", "classical", "--p", "7", "--alpha", "1" * 5000 + "/3"],
    ["sweep", "--theorems=classical", "--n=7", "--alphas=1/2," + "1" * 5000],
])
def test_cli_refuses_an_alpha_past_the_int_digit_limit(argv, tmp_path, capsys):
    """Python reads no int of more than 4 300 digits from a string; the
    refusal names the flag or key and the limit, not the call that lifts it."""
    out = tmp_path / "refused.jsonl"
    assert cli.main([*argv, f"--output={out}"] if argv[0] == "sweep" else argv) == 2
    key = "alpha" if argv[0] == "verify" else "alphas"
    assert capsys.readouterr().err.strip() == f"error: {key}: a number past the limit of 4300 digits"
    assert not out.exists()


_LONG = "1" * 5000
_PAST_LIMIT = "a number past the limit of 4300 digits"


@pytest.mark.parametrize("argv,name", [
    (["verify", "thm1.1", "--n", _LONG, "--d", "1", "--r", "1"], "--n"),
    (["verify", "classical", "--p", "7", "--alpha", "1/2", "--seed", _LONG], "--seed"),
    (["congruent", "--n", _LONG, "--m", "1", "--lhs", "a", "--rhs", "b"], "--n"),
    (["qbinom", _LONG, "2"], "alpha"),
    (["qbinom", "5", "2", "--base", _LONG], "--base"),
    (["qpoch", "1", "1", _LONG], "k"),
    (["cyclotomic", _LONG], "n"),
    (["transform", "--kind", "hat", "--family", "ones", "--length", _LONG], "--length"),
])
def test_cli_argparse_refuses_an_over_long_integer_briefly(argv, name, capsys):
    """argparse would echo all 5 000 digits; the refusal names the argument
    and the limit in a few hundred bytes, usage line included."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2 and len(err.encode()) < 1000
    assert err.rstrip().endswith(f"error: argument {name}: {_PAST_LIMIT}")


def test_cli_argparse_keeps_its_message_for_a_malformed_integer(capsys):
    with pytest.raises(SystemExit):
        cli.main(["cyclotomic", "1.5"])
    assert capsys.readouterr().err.rstrip().endswith("error: argument n: invalid int value: '1.5'")


@pytest.mark.parametrize("argv,error", [
    (["sweep", "--theorems=1.1", f"--n={_LONG}"], f"n: {_PAST_LIMIT}"),
    (["sweep", "--theorems=1.1", f"--n=2..{_LONG}"], f"n: {_PAST_LIMIT}"),
    (["sweep", "--theorems=1.1", f"--n=-{_LONG}..2"], f"n: {_PAST_LIMIT}"),
    (["sweep", "--theorems=1.1", "--n=5", f"--workers={_LONG}"], f"workers: {_PAST_LIMIT}"),
    (["sweep", "--theorems=1.1", "--n=5", f"--families=ones,delta:{_LONG}"], f"family delta: {_PAST_LIMIT}"),
    (["verify", "thm1.1", "--n=5", "--d=1", "--r=1", f"--family=random_poly:3:{_LONG}"],
     f"family random_poly: {_PAST_LIMIT}"),
    (["transform", "--kind", "tilde", "--family", f"delta:{_LONG}", "--length", "3"], f"family delta: {_PAST_LIMIT}"),
    (["verify", "classical", "--p", "7", "--alpha", "1/0"], "alpha: expected a fraction, got '1/0'"),
    (["verify", "classical", "--p", "7", "--alpha", "abc"], "alpha: expected a fraction, got 'abc'"),
])
def test_cli_refuses_an_over_long_integer_or_malformed_alpha_briefly(argv, error, tmp_path, capsys):
    """Exit 2 and one line naming the key, family or flag; the alpha cases are
    worded as the sweep words a malformed alphas atom."""
    out = tmp_path / "refused.jsonl"
    assert cli.main([*argv, f"--output={out}"] if argv[0] == "sweep" else argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {error}"
    assert not out.exists()


@pytest.mark.parametrize("text,term", [
    (f"1*q^0 + {_LONG}*q^1", 2), (f"1/{_LONG}*q^1", 1), (f"1*q^{_LONG}", 1), (f"1/0*q^{_LONG}", 1), (f"{_LONG}/0*q^1", 1),
], ids=["coefficient", "denominator", "exponent", "exponent-by-a-zero-denominator", "numerator-over-zero"])
def test_cli_congruent_names_a_term_with_an_over_long_number(text, term, tmp_path, capsys):
    lhs, rhs = tmp_path / "lhs.txt", tmp_path / "rhs.txt"
    lhs.write_text(text + "\n")
    rhs.write_text("1*q^0\n")
    assert cli.main(["congruent", "--n", "5", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.strip()) == ("", f"error: polynomial term {term}: {_PAST_LIMIT}")


_NAME = "z" * 5000


@pytest.mark.parametrize("argv,named", [
    (["verify", "thm1.1", "--n=5", "--d=1", "--r=1", f"--family={_NAME}"], "error: unknown family 'zzz"),
    (["transform", "--kind", "hat", "--family", _NAME, "--length", "3"], "error: unknown family 'zzz"),
    (["sweep", "--theorems=1.1", "--n=3", f"--families={_NAME}"], "error: unknown family 'zzz"),
    (["verify", "thm1.1", "--n=5", "--d=1", "--r=1", f"--family=delta:{_NAME}"],
     "error: malformed family parameter in 'delta:zzz"),
    (["transform", "--kind", "hat", "--family", f"delta:{_NAME}", "--length", "3"],
     "error: malformed family parameter in 'delta:zzz"),
    (["sweep", "--theorems=1.1", "--n=3", f"--families=delta:{_NAME}"], "error: malformed family parameter in 'delta:zzz"),
    (["sweep", f"--theorems={_NAME}", "--n=3"], "error: unknown theorem 'zzz"),
    (["sweep", "--theorems=1.1", f"--n={_NAME}"], "error: n: expected integer or range, got 'zzz"),
    (["sweep", "--theorems=1.1", "--n=3", f"--format={_NAME}"], "error: format must be jsonl or csv, got 'zzz"),
    (["sweep", "--theorems=classical", "--n=3", f"--alphas={_NAME}"], "error: alphas: expected a fraction, got 'zzz"),
    (["verify", "classical", "--p", "7", "--alpha", _NAME], "error: alpha: expected a fraction, got 'zzz"),
    (["verify", _NAME], "error: argument theorem: invalid choice: 'zzz"),
    (["congruent", "--n", "5", "--m", "1", "--lhs", "LHS", "--rhs", "RHS"], "error: malformed polynomial term: 'zzz"),
    (["sweep", "--config", "CFG"], "error: unknown config keys: zzz"),
], ids=["verify-family", "transform-family", "sweep-families", "verify-family-parameter", "transform-family-parameter",
        "sweep-families-parameter", "sweep-theorems", "sweep-n", "sweep-format", "sweep-alphas", "verify-alpha",
        "verify-theorem", "congruent-term", "config-key"])
def test_cli_refuses_a_long_value_without_echoing_it(argv, named, tmp_path, capsys):
    """Each refusal of a 5 000-character value exits 2 with under 1 000
    bytes that name the flag or key, the value cut to its head and length."""
    files = {"LHS": f"1*q^0 + {_NAME}\n", "RHS": "1*q^0\n", "CFG": f"{_NAME} = 3\n"}
    for token, text in files.items():
        (tmp_path / token).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    try:
        code = cli.main([*argv, f"--output={tmp_path / 'refused.jsonl'}"] if argv[0] == "sweep" else argv)
    except SystemExit as exit_info:  # argparse's own refusal
        code = exit_info.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1000 and named in err
    assert "... (50" in err and " characters)" in err
    assert not (tmp_path / "refused.jsonl").exists()


@pytest.mark.parametrize("argv,error", [
    (["verify", "thm1.1", "--n=5", "--d=1", "--r=1", f"--family={'z' * 98}"], f"unknown family '{'z' * 98}'"),
    (["sweep", "--theorems=1.1", "--n=3", f"--format={'z' * 98}"], f"format must be jsonl or csv, got '{'z' * 98}'"),
    (["sweep", "--theorems=1.1", "--n=3", f"--format={'z' * 99}"],
     f"format must be jsonl or csv, got '{'z' * 59}... (101 characters)"),
], ids=["family-at-the-limit", "format-at-the-limit", "format-past-the-limit"])
def test_cli_echoes_a_value_up_to_the_quoting_limit_whole(argv, error, capsys):
    """A quoted value of 100 characters is the longest echoed whole; past it,
    its first 60 characters and its length stand for it."""
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {error}"


def test_cli_sweep_keeps_the_records_around_a_raising_task(tmp_path, capsys):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"records-{workers}.jsonl"
        assert cli.main(["sweep", "--theorems=1.1", "--n=1..3", f"--workers={workers}",
                         f"--output={out}"]) == 2
        err = capsys.readouterr().err
        assert "errors=1 " in err and "error: 1 sweep task(s) raised" in err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    recs = [json.loads(line) for line in outputs[0].decode().splitlines()]
    assert recs[0] == {"check": "thm1.1", "n": 1, "d": 1, "r": 0, "family": "ones",
                       "error": "n must be at least 2"}
    assert [(rec["n"], rec["holds"]) for rec in recs[1:]] == [(2, True), (3, True)]


@pytest.mark.parametrize("argv,skipped", [
    (["--theorems=1.1", "--n=4", "--d=2"], 1),  # no coprime (n, d)
    (["--theorems=classical", "--n=4"], 40),  # no odd prime p
])
def test_cli_sweep_of_skipped_cells_only_writes_an_empty_report(argv, skipped, tmp_path, capsys):
    """A grid whose every cell is skipped runs no task, at any worker count:
    it writes an empty report, counts its cells as skipped and exits 0."""
    for workers in (1, 2):
        out = tmp_path / f"records-{workers}.jsonl"
        assert cli.main(["sweep", *argv, f"--workers={workers}", f"--output={out}"]) == 0
        assert out.read_bytes() == b""
        assert f"total=0 passed=0 failed=0 skipped={skipped} " in capsys.readouterr().err


@pytest.mark.parametrize("flag,error", [
    ("--workers=two", "workers: expected an integer, got 'two'"),
    ("--workers=1.5", "workers: expected an integer, got '1.5'"),
    ("--classical-seeds=", "classical_seeds takes a single value"),
    ("--classical-seeds=3e2", "classical_seeds: expected an integer, got '3e2'"),
    ("--alphas=1/0", "alphas: expected a fraction, got '1/0'"),
    ("--alphas=1/2,half", "alphas: expected a fraction, got 'half'"),
    ("--n=3,x", "n: expected integer or range, got 'x'"),
    ("--n=", "n: expected at least one value"),
    ("--d=", "d: expected at least one value"),
    ("--a= ,", "a: expected at least one value"),
    ("--families=", "families: expected at least one value"),
    ("--alphas=", "alphas: expected at least one value"),
])
def test_cli_sweep_names_the_key_of_a_malformed_value(flag, error, capsys):
    assert cli.main(["sweep", "--theorems=classical", "--n=3", flag]) == 2
    assert capsys.readouterr().err.strip() == f"error: {error}"


def test_a_config_key_with_no_values_is_refused(tmp_path, capsys):
    """A config line 'd =' would drop every cell of the grid, so it exits 2
    before any record is written, as the empty flag --d= does."""
    config, out = tmp_path / "empty.cfg", tmp_path / "records.jsonl"
    config.write_text("theorems = 1.1\nn = 5\nd =\n")
    assert cli.main(["sweep", f"--config={config}", f"--output={out}"]) == 2
    assert capsys.readouterr().err.strip() == "error: d: expected at least one value" and not out.exists()


def test_a_sweep_without_n_is_refused(tmp_path, capsys):
    config = tmp_path / "no-n.cfg"
    config.write_text("theorems = 1.1\nd = 1\n")
    for argv in (["--theorems=1.1"], [f"--config={config}"]):
        assert cli.main(["sweep", *argv]) == 2
        assert capsys.readouterr().err.strip() == "error: config needs an 'n' key"


# the _KEYS rows of a single integer of at least 1
BOUNDED_KEYS = [key for key, (_, rule, _) in sweep._KEYS.items() if rule is sweep._positive]


def test_the_count_keys_are_the_bounded_ones():
    assert BOUNDED_KEYS == ["classical_seeds", "workers"]


@pytest.mark.parametrize("key", BOUNDED_KEYS)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_bounded_key_below_one_is_refused(key, value, tmp_path, capsys):
    out = tmp_path / "refused.jsonl"
    flag = "--" + key.replace("_", "-")
    assert cli.main(["sweep", "--theorems=classical", "--n=3", f"{flag}={value}", f"--output={out}"]) == 2
    assert capsys.readouterr().err.strip() == f"error: {key} must be at least 1" and not out.exists()


@pytest.mark.parametrize("flags,error", [
    (["--theorems=lemmas", "--n=2..1000000000000"], f"n: more than {MAX_TASKS} values"),
    (["--theorems=1.1", "--n=5", "--d=1..100000000000"], f"d: more than {MAX_TASKS} values"),
    (["--theorems=1.1", "--n=5", "--r=0..99999999999999999999999999"], f"r: more than {MAX_TASKS} values"),
    (["--theorems=1.1", "--n=5", f"--r=1..{MAX_TASKS},0"], f"r: more than {MAX_TASKS} values"),
    (["--theorems=1.1", "--n=5", "--d=1..1000", "--r=1..1000"], f"the sweep grid has more than {MAX_TASKS} cells"),
    (["--theorems=classical", "--n=3", "--classical-seeds=1000000000000"],
     f"the sweep grid has more than {MAX_TASKS} cells"),
])
def test_cli_sweep_refuses_a_grid_past_the_task_bound(flags, error, tmp_path, capsys):
    """A range, or a key's values together, past MAX_TASKS values, and a grid
    past MAX_TASKS cells, exit 2 naming the key or the bound, at once and
    before any record is written."""
    out = tmp_path / "refused.jsonl"
    started = time.perf_counter()
    assert cli.main(["sweep", *flags, f"--output={out}"]) == 2
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err.strip() == f"error: {error}" and not out.exists()


def test_a_grid_just_inside_the_task_bound_runs(monkeypatch):
    """A grid of exactly MAX_TASKS cells, skipped ones counted, expands and
    runs; one cell more, or one value more in a key, is refused."""
    raw = {"theorems": ["1.1"], "n": ["4"], "d": ["1..4"], "r": ["0..2"]}  # 6 tasks, 6 skipped
    monkeypatch.setattr(sweep, "MAX_TASKS", 12)
    tasks, skipped = expand_tasks(build_config(raw))
    assert (len(tasks), skipped) == (6, 6)
    summary = run_sweep(build_config(dict(raw, output=[os.devnull])))
    assert (summary.total, summary.passed, summary.skipped) == (6, 6, 6)
    assert expand_ints(["1..10", "11", "12"], "r") == tuple(range(1, 13))
    monkeypatch.setattr(sweep, "MAX_TASKS", 11)
    with pytest.raises(ValueError, match="^the sweep grid has more than 11 cells$"):
        expand_tasks(build_config(raw))
    with pytest.raises(ValueError, match="^r: more than 11 values$"):
        expand_ints(["1..10", "11", "12"], "r")


def test_cli_accepts_negative_flag_values(capsys):
    assert cli.main(["verify", "classical", "--p", "13", "--alpha", "-3/4"]) == 0
    assert "alpha=-3/4" in capsys.readouterr().out
    assert cli.main(["sweep", "--theorems", "1.2", "--n", "3", "--r", "-2..2", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["-2", "-1", "0", "1", "2"]
    assert cli.main(["qbinom", "--", "-2", "2"]) == 0  # '--' still ends the options
    assert capsys.readouterr().out == "1*q^-5 + 1*q^-4 + 1*q^-3\n"


def test_cli_congruent_file_with_a_huge_exponent(tmp_path, capsys):
    lhs = tmp_path / "lhs.txt"
    rhs = tmp_path / "rhs.txt"
    lhs.write_text("1*q^1000000000\n")
    rhs.write_text("1*q^0\n")
    started = time.perf_counter()
    assert cli.main(["congruent", "--n", "5", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 1
    assert time.perf_counter() - started < 5
    # q^(5a) == 1 + a*(q^5 - 1) mod Phi_5^2 with a = 2*10^8, already of degree < 8
    assert capsys.readouterr().out == "NOT CONGRUENT\nresidual: -200000000*q^0 + 200000000*q^5\n"


def test_cli_congruent_inverts_a_long_denominator_quickly(tmp_path, capsys):
    # q / (q^7;q^7)_60 against 1 mod Phi_61^2: the denominator has degree 12 810
    assert cli.main(["qpoch", "7", "7", "60"]) == 0
    lhs = tmp_path / "lhs.txt"
    rhs = tmp_path / "rhs.txt"
    lhs.write_text("1*q^1\n" + capsys.readouterr().out)
    rhs.write_text("1*q^0\n")
    started = time.perf_counter()
    assert cli.main(["congruent", "--n", "61", "--m", "2", "--lhs", str(lhs), "--rhs", str(rhs)]) == 1
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().out.startswith("NOT CONGRUENT\nresidual: ")


@pytest.mark.parametrize("argv", [
    ["cyclotomic", "100000000"],
    ["qbinom", "100000000", "2"],
    ["qbinom", "--", "-1", "100000000"],
    ["qpoch", "1", "1", "1000"],
    ["qpoch", "1", "1", "200"],  # degree 20 100
    ["congruent", "--n", "100000000", "--m", "2", "--lhs", "absent", "--rhs", "absent"],  # files unread
])
def test_cli_rejects_an_oversized_request_at_once(argv, capsys):
    started = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {argv[0]} would span more than {cli.MAX_SPAN} exponents"


def test_cli_accepts_a_request_at_the_span_limit(capsys):
    assert cli.main(["qpoch", str(cli.MAX_SPAN), "1", "1"]) == 0
    assert capsys.readouterr().out == f"1*q^0 + -1*q^{cli.MAX_SPAN}\n"
    assert cli.main(["qbinom", "5", "100000000"]) == 0  # k > alpha >= 0: zero, whatever k is
    assert capsys.readouterr().out == "0\n"


def _exponent_span(poly) -> int:
    return 0 if poly.is_zero() else poly.degree() - poly.valuation()


def test_span_bounds_the_qpoch_and_qbinom_results():
    for r in range(-6, 7):
        for d in (-3, -2, -1, 1, 2, 3):
            for k in range(7):
                poly = qpoch(r, d, k)
                args = cli.build_parser().parse_args(["qpoch", str(r), str(d), str(k)])
                assert args.span(args) >= _exponent_span(poly)
                if 0 not in range(r, r + k * d, d):  # no factor 1 - q^0
                    assert args.span(args) == _exponent_span(poly), (r, d, k)
    for alpha in range(-6, 11):
        for k in range(-1, 9):
            for base in (-2, 1, 3):
                args = cli.build_parser().parse_args(["qbinom", f"--base={base}", f"{alpha}", f"{k}"])
                assert args.span(args) >= _exponent_span(qbinom_base(alpha, k, base)), (alpha, k, base)


@pytest.mark.parametrize("argv", [
    ["transform", "--kind", "hat", "--family", "ones", "--length", "27"],  # span 20 475
    ["transform", "--kind", "tilde", "--family", "ones", "--length", "3000"],
    ["transform", "--kind", "hat", "--family", "random_poly:1:10000", "--length", "5"],
    ["verify", "thm1.1", "--n", "1000003", "--d", "1", "--r", "1"],
    ["verify", "thm1.2", "--n", "27", "--d", "1", "--r", "1", "--family", "sun_p_x"],
    ["verify", "thm2.1", "--n", "100", "--a", "2", "--s", "1"],
    ["verify", "s0", "--n", "60", "--a", "30"],
    ["verify", "thm1.1", "--n", "20", "--d", "1", "--r", "1", "--family", "random_poly:1:1000"],
    ["verify", "guo_zeng", "--n", "101", "--d", "1", "--r", "1"],  # span 101 * 200 = 20 200
    ["verify", "sun_p", "--n", "101", "--d", "1", "--r", "1"],
    ["verify", "sun_p", "--n", "1000000000000000000000000000001", "--d", "1", "--r", "1"],
    ["verify", "lemma-sn", "--n", "7", "--s", "100000", "--j", "4"],
    ["verify", "lemma-sn-minus1", "--n", "7", "--s", "100000", "--j", "4"],
    ["verify", "even-sign", "--n", "200000"],
])
def test_cli_rejects_an_oversized_transform_or_verify_at_once(argv, capsys):
    started = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {argv[0]} would span more than {cli.MAX_SPAN} exponents"


def test_transform_and_verify_spans():
    def span(*argv):
        args = cli.build_parser().parse_args(list(argv))
        return args.span(args)

    assert span("transform", "--kind=hat", "--family=ones", "--length=26") == 17_550
    assert span("transform", "--kind=hat", "--family=ones", "--length=27") == 20_475
    for length in range(-2, 12):  # C(L,2)(C(L,2)-1)/6, the summed degree of [k over j], j <= k < L
        kernels = sum(j * (k - j) for k in range(length) for j in range(k + 1))
        assert span("transform", "--kind=tilde", "--family=delta:1", f"--length={length}") == kernels
        assert span("verify", "thm1.2", "--n", str(length), "--d=1", "--r=0", "--family=sun_p_x") == kernels
        assert span("verify", "thm1.1", "--n", str(length), "--d=1", "--r=0",
                    "--family=random_poly:4:3") == kernels + max(length, 0) * 4
        assert span("verify", "thm2.1", "--n", str(length), "--a=0", "--s=1") == kernels
        assert span("verify", "s0", "--n", str(length), "--a=0",
                    "--family=random_poly:4:3") == kernels + max(length, 0) * 4
    for n, phi in ((2, 1), (27, 18), (41, 40), (97, 96), (105, 48), (180, 48)):  # n * 2*phi(n)
        assert span("verify", "guo_zeng", f"--n={n}", "--d=1", "--r=0") == n * 2 * phi
        assert span("verify", "sun_p", f"--n={n}", "--d=1", "--r=0") == n * 2 * phi
    assert span("verify", "lemma-sn", "--n=5", "--s=2", "--j=3") == span("qbinom", "10", "3")
    assert span("verify", "lemma-sn-minus1", "--n=5", "--s=-2", "--j=3") == span("qbinom", "--", "-11", "2")
    assert span("verify", "even-sign", "--n=20000") == 20_000
    assert span("verify", "classical", "--p=7", "--alpha=1/2") == 0
    assert span("verify", "thm1.1", "--n=100000") == 0  # --d and --r missing: the usage error comes first


def test_verify_charges_a_check_by_its_own_cost(monkeypatch, capsys):
    """One CHECKS entry is the whole of a check, its charge included: a check
    whose args lack n is charged by its cost, and refused above MAX_SPAN
    before it runs."""
    ran = []

    def run(p):
        ran.append(p)
        return theorems.CheckReport("probe", {"p": p}, True)

    monkeypatch.setitem(CHECKS, "probe", theorems.Check(("p",), lambda p: None, run, cost=lambda p: 2 * p))
    half = cli.MAX_SPAN // 2
    assert cli.main(["verify", "probe", "--p", str(half)]) == 0
    assert capsys.readouterr().out == f"PASS probe p={half} [0.0 ms]\n"
    assert cli.main(["verify", "probe", "--p", str(half + 1)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.strip()) == ("", f"error: verify would span more than {cli.MAX_SPAN} exponents")
    assert ran == [half]


def test_verify_prints_the_residual_of_a_failing_report(monkeypatch, capsys):
    def run(p):
        return theorems.CheckReport("probe", {"p": p}, False, residual="x^0: 1*q^1; x^2: -3/2*q^0")

    monkeypatch.setitem(CHECKS, "probe", theorems.Check(("p",), lambda p: None, run, cost=lambda p: p))
    assert cli.main(["verify", "probe", "--p", "3"]) == 1
    assert capsys.readouterr().out == "FAIL probe p=3 [0.0 ms]\nresidual: x^0: 1*q^1; x^2: -3/2*q^0\n"


@pytest.mark.parametrize("argv", [
    ["transform", "--kind", "hat", "--family", "ones", "--length", "26"],
    ["verify", "thm2.1", "--n", "5", "--a", "2", "--s", "1000000"],
    ["verify", "even-sign", "--n", "20000"],
    ["verify", "guo_zeng", "--n", "41", "--d", "3", "--r", "2"],
    ["verify", "sun_p", "--n", "41", "--d", "3", "--r", "2"],
])
def test_cli_accepts_large_transform_and_verify_requests(argv, capsys):
    started = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - started < 2
    capsys.readouterr()
