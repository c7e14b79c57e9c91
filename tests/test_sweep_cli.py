import dataclasses
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import cli, theorems
from qcong.families import FamilySpec
from qcong.qcalc import qbinom_base, qpoch
from qcong.sweep import (
    SweepConfig,
    build_config,
    expand_ints,
    expand_tasks,
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

    rec = run_task(("classical", (5, "1/2", 0, 9)))
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

    def Pool(self, processes):
        self.pools.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        assert 1 <= chunksize <= max(1, len(tasks))
        return [fn(task) for task in tasks]


@pytest.mark.parametrize("workers,cores,tasks,pool", [
    (1_000_000, 2, 14, 2),  # capped by the cores
    (1_000_000, 64, 14, 14),  # capped by the tasks
    (3, 64, 14, 3),
    (1_000_000, 1, 14, None),  # one core: in-process, no pool
    (1_000_000, None, 14, None),  # the core count unknown
    (1_000_000, 64, 1, None),  # one task
])
def test_the_sweep_pool_is_capped_by_tasks_and_cores(workers, cores, tasks, pool, tmp_path, monkeypatch):
    """A sweep starts min(workers, tasks, cores) processes, and none when that
    is 1, however many workers it is asked for; its records and summary are
    those of a one-worker run."""
    import multiprocessing
    import os

    grid = {"d": ["1", "2"], "r": ["0..6"]} if tasks > 1 else {"d": ["1"], "r": ["0"]}
    raw = {"theorems": ["1.1"], "n": ["5"], **grid, "families": ["ones"], "output": [str(tmp_path / "one.jsonl")]}
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
        "seed": draw(st.integers(0, 9)), "bound": 9,
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
    """A keyed check's key is (n, lweights) of the statement its run decides:
    the n of its params and the left weight spec of the cell that _report
    decides it from.  A check without a key decides no statement."""
    check_id, args = case
    check = CHECKS[check_id]
    if check.invalid(*args):
        return
    decided, report = [], theorems._report

    def spy(name, params, p, cell, fam, started):
        decided.append((p.n, cell[0]))
        return report(name, params, p, cell, fam, started)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "_report", spy)
        check.run(*args)
    if check_id in KEYED_CHECKS:
        assert [check.key(*args)] == decided
    else:
        assert (check.key(*args), decided) == ((), [])


def test_sweep_output_does_not_depend_on_the_run_order(tmp_path, monkeypatch):
    """Tasks run in the reverse of their key order give the same JSONL and CSV
    bytes at one and two workers, with an n = 1 task raising."""
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
                reverse = lambda *args, check_id=check_id: (-rank[check_id, args],)
                monkeypatch.setitem(CHECKS, check_id, dataclasses.replace(check, key=reverse))
        for fmt in ("jsonl", "csv"):
            for workers in ("1", "2"):
                out = tmp_path / f"{order}-{workers}.{fmt}"
                summary = run_sweep(build_config(dict(raw, workers=[workers], format=[fmt], output=[str(out)])))
                assert summary.errors and not summary.failed
                outputs[order, fmt, workers] = out.read_bytes()
    for fmt in ("jsonl", "csv"):
        assert len({outputs[order, fmt, workers] for order in ("key", "reversed") for workers in "12"}) == 1


def test_tasks_run_grouped_by_their_key(monkeypatch):
    """At one worker the tasks run in key order: every thm1.1, thm1.2 and
    guo_zeng task of one (n, spec) cell in one run."""
    ran = []
    monkeypatch.setattr("qcong.sweep.run_task", lambda task: ran.append(task) or {"check": task[0]})
    raw = {"theorems": ["1.1", "1.2", "guo_zeng", "lemmas"], "n": ["3..5"], "d": ["1..2"], "r": ["-1..2"],
           "families": ["ones", "delta:1"], "output": ["/dev/null"]}
    run_sweep(build_config(raw))
    keys = [CHECKS[check_id].key(*args) for check_id, args in ran]
    assert keys == sorted(keys)
    cells = [key for i, key in enumerate(keys) if key and (i == 0 or keys[i - 1] != key)]
    assert len(cells) == len(set(cells))


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
                assert cli._span(args) >= _exponent_span(poly)
                if 0 not in range(r, r + k * d, d):  # no factor 1 - q^0
                    assert cli._span(args) == _exponent_span(poly), (r, d, k)
    for alpha in range(-6, 11):
        for k in range(-1, 9):
            for base in (-2, 1, 3):
                args = cli.build_parser().parse_args(["qbinom", f"--base={base}", f"{alpha}", f"{k}"])
                assert cli._span(args) >= _exponent_span(qbinom_base(alpha, k, base)), (alpha, k, base)


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
        return cli._span(cli.build_parser().parse_args(list(argv)))

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
