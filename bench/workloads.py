"""The benchmark's workloads: seeded inputs, the calls into qcong, known answers.

A workload hands the harness its work in rounds.  Every round has the same
stratified shape and draws its free parameters from the seed, so runs with
different seeds cost about the same and a run can stop at a round boundary.

sym_grid   thm1.1/thm1.2 checks, 320 per round: every coprime (n, d) with
           n in 2..12 and d in 1..6, both theorems, and the families ones,
           delta:M, monomial_q:1 and random_poly:S:3, with r in -5..5.
           The theorems hold, so every verdict is True.
decide     73 congruent + residual pairs per round, on theorem sides built
           between rounds (the first round's at set-up).  40 sides, thm1.1 or
           thm1.2 for every coprime (n, d) with n in 3..10 or 12, d in 1..6,
           and one thm2.1 cell per n, have the lhs bumped by c*q^j*Phi_n, so the
           verdict is False and the residual is the residue of c*q^j*Phi_n.
           33 pairs q^(a*n+b) vs q^b*(1 + a'*(q^n - 1)), |a| <= 3000, agree
           mod Phi_n^2 exactly when a' = a.  The residues come from oracle.py.
sweep      one round is the example sweep grid through `qcong sweep` with two
           workers; every record must hold and the record count must equal
           the grid size counted here from the statements' hypotheses.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
import qcong
import qcong.cli
from qcong.theorems import thm_1_1_sides, thm_1_2_sides, thm_2_1_sides


@dataclass
class Op:
    """One unit of work and the answer it must give."""

    run: Callable[[], object]
    expected: object


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def _coprime_ds(n: int) -> list[int]:
    return [d for d in range(1, 7) if math.gcd(n, d) == 1]


# -- sym_grid -----------------------------------------------------------------

SYM_PAIRS = [(n, d) for n in range(2, 13) for d in _coprime_ds(n)]


def _check(thm: str, n: int, d: int, r: int, family: str) -> bool:
    # looked up per call, so a tracer installed after the round was built sees it
    check = qcong.check_thm_1_1 if thm == "1.1" else qcong.check_thm_1_2
    return check(qcong.SymParams.create(n, d, r), family).holds


class SymGrid:
    name = "sym_grid"

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def ops_per_round(self) -> int:
        return 2 * 4 * len(SYM_PAIRS)

    def round(self, i: int) -> list[Op]:
        rng = _rng(self.name, self.seed, i)
        ops = []
        for n, d in SYM_PAIRS:
            for thm in ("1.1", "1.2"):
                r = rng.randint(-5, 5)
                families = ("ones", f"delta:{rng.randrange(n)}", "monomial_q:1",
                            f"random_poly:{rng.getrandbits(32)}:3")
                for fam in families:
                    ops.append(Op(lambda a=(thm, n, d, r, fam): _check(*a), True))
        return ops


# -- decide -------------------------------------------------------------------

# n = 11 is left out: Phi_11^2 has degree 20, and its residuals cost ten times
# those of the other n, so they would fill most of a round and leave too few
# rounds for a steady tail.  n = 10 and 12 keep denominators of degree 500-700.
DECIDE_NS = (3, 4, 5, 6, 7, 8, 9, 10, 12)
EXPONENT_NS = range(2, 13)
EXPONENT_BOUND = 3000


def _decide(lhs, rhs, n: int):
    return qcong.congruent(lhs, rhs, n, 2), qcong.residual(lhs, rhs, n, 2).terms


class Decide:
    name = "decide"

    def __init__(self, seed: int):
        self.seed = seed
        self._first_sides = self._sides(0)  # set-up builds the first round's sides

    @property
    def ops_per_round(self) -> int:
        cells = sum(len(_coprime_ds(n)) for n in DECIDE_NS)
        return cells + len(DECIDE_NS) + 3 * len(EXPONENT_NS)

    def _sides(self, i: int) -> list[tuple[int, tuple]]:
        """(n, sides) for thm1.1 or thm1.2 at every coprime (n, d), and one thm2.1 cell per n.

        Every (n, d) is in every round, because the residual's cost is set
        mostly by the denominator (q^d;q^d)_(n-1)^2; r and the family are
        drawn afresh each round, since they move it by up to a third.
        """
        rng = _rng(self.name, self.seed, "sides", i)
        out = []
        for n in DECIDE_NS:
            for d in _coprime_ds(n):
                p = qcong.SymParams.create(n, d, rng.randint(-5, 5))
                seq = qcong.generate(f"random_poly:{rng.getrandbits(32)}:3", n)
                build = thm_1_1_sides if rng.randrange(2) else thm_1_2_sides
                out.append((n, build(p, seq)))
            p = qcong.AlphaParams.create(n, rng.randrange(n), rng.choice((-2, -1, 1, 2)))
            out.append((n, thm_2_1_sides(p, qcong.generate(f"random_poly:{rng.getrandbits(32)}:3", n))))
        return out

    @staticmethod
    def _bumped(rng: random.Random, n: int, sides) -> Op:
        lhs, rhs = sides
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        j = rng.randrange(2 * n)
        bump = qcong.LaurentPoly({j + e: c * x for e, x in enumerate(oracle.cyclotomic(n)) if x})
        if isinstance(lhs, qcong.RatExpr):
            lhs = qcong.RatExpr(lhs.num + bump * lhs.den, lhs.den)
        else:
            lhs = lhs + bump
        return Op(lambda: _decide(lhs, rhs, n), (False, oracle.bump_residue(n, c, j)))

    @staticmethod
    def _exponent_pair(n: int, a: int, b: int, a2: int) -> Op:
        lhs = qcong.LaurentPoly({a * n + b: 1})
        rhs = qcong.LaurentPoly({b: 1 - a2, b + n: a2})
        residue = {} if a == a2 else oracle.exponent_pair_residue(n, b, a - a2)
        return Op(lambda: _decide(lhs, rhs, n), (a == a2, residue))

    def round(self, i: int) -> list[Op]:
        rng = _rng(self.name, self.seed, i)
        sides = self._first_sides if i == 0 else self._sides(i)
        ops = [self._bumped(rng, n, pair) for n, pair in sides]
        third = EXPONENT_BOUND // 3
        for n in EXPONENT_NS:
            # |a| from the top tenth of each third of the bound: the cost grows
            # with |a|*n, so every round has the same size mix
            for delta, k in zip((0, 1, -1), rng.sample(range(1, 4), 3)):
                a = rng.choice((-1, 1)) * rng.randint(k * third - third // 10, k * third)
                ops.append(self._exponent_pair(n, a, rng.randrange(n), a + delta))
        return ops


# -- sweep --------------------------------------------------------------------

# The grid of configs/example_sweep.cfg, kept here so the workload stays fixed.
SWEEP_N = range(3, 10)
SWEEP_D = range(1, 5)
SWEEP_R = range(-2, 3)
SWEEP_S = range(-2, 3)
SWEEP_ALPHAS = (Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))
SWEEP_CLASSICAL_SEEDS = 5
SWEEP_WORKERS = 2


def _span(values: range) -> str:
    return f"{values.start}..{values.stop - 1}"


def _is_odd_prime(p: int) -> bool:
    return p > 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def expected_sweep_tasks() -> int:
    """Grid size under the statements' hypotheses, counted independently of qcong."""
    families = 4
    coprime = [(n, d) for n in SWEEP_N for d in SWEEP_D if math.gcd(n, d) == 1]
    total = 2 * len(coprime) * len(SWEEP_R) * families          # thm1.1, thm1.2
    total += sum(SWEEP_N) * len(SWEEP_S) * families              # thm2.1, a in 0..n-1
    total += len(coprime) * len(SWEEP_R)                         # guo_zeng
    total += sum(1 for n, _ in coprime if n % 2) * len(SWEEP_R)  # sun_p, odd n
    nonzero_s = sum(1 for s in SWEEP_S if s)
    total += sum(2 * (n - 1) * nonzero_s + (n % 2 == 0) for n in SWEEP_N)  # lemmas
    total += sum(SWEEP_CLASSICAL_SEEDS for p in SWEEP_N if _is_odd_prime(p)
                 for alpha in SWEEP_ALPHAS if alpha.denominator % p)
    return total


class Sweep:
    name = "sweep"
    default_workers = SWEEP_WORKERS

    def __init__(self, seed: int):
        self.families = f"ones,delta:1,monomial_q:1,random_poly:{seed}:3"

    @property
    def ops_per_round(self) -> int:
        return expected_sweep_tasks()

    def argv(self, output: Path, workers: int) -> list[str]:
        flags = {
            "theorems": "1.1,1.2,2.1,guo_zeng,sun_p,lemmas,classical",
            "n": _span(SWEEP_N), "d": _span(SWEEP_D), "r": _span(SWEEP_R), "s": _span(SWEEP_S),
            "families": self.families, "alphas": ",".join(map(str, SWEEP_ALPHAS)),
            "classical-seeds": SWEEP_CLASSICAL_SEEDS, "workers": workers,
            "format": "jsonl", "output": output,
        }
        # --flag=value, so that negative ranges are not read as options
        return ["sweep"] + [f"--{key}={value}" for key, value in flags.items()]

    def run(self, out_dir: Path, workers: int) -> tuple[int, int]:
        """One sweep; returns (tasks attempted, tasks failed) against the known answer."""
        output = out_dir / "sweep.jsonl"
        code = qcong.cli.main(self.argv(output, workers))
        records = [json.loads(line) for line in output.read_text().splitlines()]
        output.unlink()
        expected = self.ops_per_round
        failed = sum(1 for rec in records if rec.get("holds") is not True)
        failed += abs(expected - len(records))
        if code != 0:
            failed = max(failed, 1)
        return max(expected, len(records)), failed


WORKLOADS = {w.name: w for w in (SymGrid, Decide, Sweep)}
