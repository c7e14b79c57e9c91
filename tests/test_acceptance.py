"""The ten acceptance gates, one test each, one printed verdict line each.

These run the full grids, so this file dominates suite runtime (a couple of
minutes single-core).  Each test prints exactly one [PASS]/[FAIL] line; run
pytest with -s (or read the captured output on failure) to see them.
"""

import math
from fractions import Fraction

from helpers import classical_sun_by_rationals, splitmix_ints

from qcong.bivariate import BiPoly, RatExpr
from qcong.congruence import congruent
from qcong.cyclotomic import cyclotomic, divisors, totient
from qcong.families import FamilySpec, SplitMix64, generate
from qcong.laurent import LaurentPoly, divrem, ext_gcd, one, qpow
from qcong.qcalc import qbinom_int, qpoch_x_prefixes
from qcong.sweep import build_config, run_sweep
from qcong.theorems import (
    AlphaParams,
    SymParams,
    check_classical_sun,
    check_even_sign_fact,
    check_guo_zeng,
    check_lemma_sn_binom,
    check_lemma_sn_minus1,
    check_s0_identity,
    check_sun_p_analogue,
    check_thm_1_1,
    check_thm_1_2,
    check_thm_2_1,
    thm_1_1_sides,
    thm_1_2_sides,
    thm_2_1_sides,
)
from qcong.transforms import hat


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def _sym_grid(n_max: int, d_max: int, r_max: int):
    for n in range(2, n_max + 1):
        for d in range(1, d_max + 1):
            if math.gcd(n, d) != 1:
                continue
            for r in range(-r_max, r_max + 1):
                yield SymParams.create(n, d, r)


GRID_FAMILIES = ["ones", "delta:0", "delta:1", "monomial_q:1",
                 "random_poly:1:3", "random_poly:2:3", "random_poly:3:3"]


def test_acceptance_01_symmetric_hat_congruence_full_grid():
    failures = []
    total = 0
    for p in _sym_grid(12, 6, 5):
        for fam in GRID_FAMILIES:
            total += 1
            if not check_thm_1_1(p, fam).holds:
                failures.append((p.n, p.d, p.r, fam))
    _verdict("criterion 1: hat-side congruence over the full grid",
             not failures, f"{total - len(failures)}/{total} cells")


def test_acceptance_02_symmetric_tilde_congruence_full_grid():
    failures = []
    total = 0
    for p in _sym_grid(12, 6, 5):
        for fam in GRID_FAMILIES:
            total += 1
            if not check_thm_1_2(p, fam).holds:
                failures.append((p.n, p.d, p.r, fam))
    _verdict("criterion 2: tilde-side congruence over the full grid",
             not failures, f"{total - len(failures)}/{total} cells")


def test_acceptance_03_integer_parameter_congruence_and_s0():
    families = ["ones", "delta:1", "random_poly:1:3", "random_poly:2:3"]
    failures = []
    total = 0
    for n in range(2, 11):
        for a in range(n):
            for s in range(-3, 4):
                p = AlphaParams.create(n, a, s)
                for fam in families:
                    total += 1
                    if not check_thm_2_1(p, fam).holds:
                        failures.append((n, a, s, fam))
            for fam in families:
                total += 1
                if not check_s0_identity(n, a, fam):
                    failures.append((n, a, "s0", fam))
    _verdict("criterion 3: integer-parameter congruence plus exact s=0 identity",
             not failures, f"{total - len(failures)}/{total} cells")


def test_acceptance_04_bivariate_remark_and_hat_of_x_powers():
    failures = []
    total = 0
    for n in range(2, 9):
        for d in range(1, 5):
            if math.gcd(n, d) != 1:
                continue
            for r in range(-3, 4):
                total += 1
                if not check_guo_zeng(SymParams.create(n, d, r)).holds:
                    failures.append((n, d, r))
    hat_x = hat([BiPoly.x_power(k) for k in range(13)])
    for k in range(13):
        total += 1
        if hat_x[k] != qpoch_x_prefixes(1, k + 1)[k]:
            failures.append(("hat_x", k))
    _verdict("criterion 4: bivariate congruence grid and hat of x-powers",
             not failures, f"{total - len(failures)}/{total} cells")


def test_acceptance_05_rational_x_family_congruence():
    failures = []
    total = 0
    for n in (3, 5, 7, 9):
        for d in range(1, 5):
            if math.gcd(n, d) != 1:
                continue
            for r in range(-3, 4):
                total += 1
                if not check_sun_p_analogue(SymParams.create(n, d, r)).holds:
                    failures.append((n, d, r))
    _verdict("criterion 5: rational x-family congruence for odd n",
             not failures, f"{total - len(failures)}/{total} cells")


def test_acceptance_06_lemma_suite_and_chu_vandermonde():
    failures = []
    total = 0
    for n in range(2, 13):
        for s in (-3, -2, -1, 1, 2, 3):
            for j in range(1, n):
                total += 2
                if not check_lemma_sn_binom(n, s, j):
                    failures.append(("sn", n, s, j))
                if not check_lemma_sn_minus1(n, s, j):
                    failures.append(("sn-1", n, s, j))
    for n in range(2, 31, 2):
        total += 1
        if not check_even_sign_fact(n):
            failures.append(("even-sign", n))
    for a in range(-8, 9):
        for b in range(-8, 9):
            for k in range(0, 9):
                total += 1
                acc = LaurentPoly()
                for j in range(k + 1):
                    acc = acc + (qbinom_int(b, j) * qbinom_int(a, k - j)).shift(
                        (b - j) * (k - j)
                    )
                if acc != qbinom_int(a + b, k):
                    failures.append(("qcv", a, b, k))
    _verdict("criterion 6: lemma suite and q-Chu-Vandermonde",
             not failures, f"{total - len(failures)}/{total} checks")


def test_acceptance_07_classical_rational_oracle():
    alphas = [Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)]
    failures = []
    total = 0
    for p in (3, 5, 7, 11):
        for alpha in alphas:
            if alpha.denominator % p == 0:
                continue
            for seed in range(10):
                total += 1
                fs = splitmix_ints(seed, p)
                if (check_classical_sun(p, alpha), classical_sun_by_rationals(p, alpha, fs)) != (True, True):
                    failures.append((p, alpha, seed))
    _verdict("criterion 7: classical rational congruence oracle",
             not failures, f"{total - len(failures)}/{total} checks")


def _random_sym_cell(rng: SplitMix64) -> SymParams:
    while True:
        n = 2 + rng.next_u64() % 9
        d = 1 + rng.next_u64() % 5
        if math.gcd(n, d) != 1:
            continue
        r = rng.next_int(4)
        return SymParams.create(n, d, r)


def test_acceptance_08_negative_controls():
    rng = SplitMix64(20240816)
    flip_failures = []
    for trial in range(50):
        p = _random_sym_cell(rng)
        fam = FamilySpec("random_poly", (trial, 3))
        seq = generate(fam, p.n)
        which = trial % 3
        if which == 0:
            lhs, rhs = thm_1_1_sides(p, seq)
        elif which == 1:
            lhs, rhs = thm_1_2_sides(p, seq)
        else:
            ap = AlphaParams.create(p.n, p.a, 1 - (trial % 5))
            lhs, rhs = thm_2_1_sides(ap, seq)
            lhs, rhs = RatExpr(lhs), RatExpr(rhs)
        c = 0
        while c == 0:
            c = rng.next_int(9)
        bumped = RatExpr(lhs.num + c * cyclotomic(p.n) * lhs.den, lhs.den)
        if not congruent(lhs, rhs, p.n, 2):
            flip_failures.append((trial, "baseline"))
        elif congruent(bumped, rhs, p.n, 2):
            flip_failures.append((trial, "undetected bump"))

    sign_escapes = 0
    sign_total = 50
    for trial in range(sign_total):
        p = _random_sym_cell(rng)
        seq = generate(FamilySpec("random_poly", (1000 + trial, 3)), p.n)
        lhs, rhs = thm_1_1_sides(p, seq)
        if congruent(lhs, RatExpr(-1 * rhs.num, rhs.den), p.n, 2):
            sign_escapes += 1

    ok = not flip_failures and sign_escapes <= sign_total // 10
    _verdict("criterion 8: negative controls",
             ok, f"50/50 bumps detected, {sign_total - sign_escapes}/{sign_total} sign flips detected")


def _random_poly(rng: SplitMix64) -> LaurentPoly:
    terms = {}
    for _ in range(rng.next_u64() % 7):
        terms[rng.next_int(10)] = rng.next_int(20)
    return LaurentPoly(terms)


def _random_ordinary(rng: SplitMix64) -> LaurentPoly:
    terms = {}
    for _ in range(rng.next_u64() % 6):
        terms[rng.next_u64() % 9] = rng.next_int(15)
    return LaurentPoly(terms)


def test_acceptance_09_kernel_properties_exact():
    rng = SplitMix64(97)
    failures = []
    for _ in range(300):
        a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        if (a + b) + c != a + (b + c) or a * b != b * a:
            failures.append("axiom")
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            failures.append("axiom")
    for _ in range(200):
        a, b = _random_ordinary(rng), _random_ordinary(rng)
        if b.is_zero():
            continue
        quot, rem = divrem(a, b)
        if quot * b + rem != a or not (rem.is_zero() or rem.degree() < b.degree()):
            failures.append("divrem")
    for _ in range(100):
        a, b = _random_ordinary(rng), _random_ordinary(rng)
        if a.is_zero() or b.is_zero():
            continue
        g, u, v = ext_gcd(a, b)
        if u * a + v * b != g:
            failures.append("bezout")
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        t = 1 + rng.next_u64() % 3
        if (a * b).substitute_power(t) != a.substitute_power(t) * b.substitute_power(t):
            failures.append("subs-mul")
        if (a + b).substitute_power(t) != a.substitute_power(t) + b.substitute_power(t):
            failures.append("subs-add")
    for n in range(1, 51):
        prod = one
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        if prod != qpow(n) - 1:
            failures.append(f"product:{n}")
    for n in range(2, 51):
        p = cyclotomic(n)
        if p.substitute_power(-1).shift(totient(n)) != p:
            failures.append(f"reciprocal:{n}")
    _verdict("criterion 9: exact kernel properties", not failures,
             "ring axioms, divrem, Bezout, substitution, cyclotomic identities")


def test_acceptance_10_sweep_determinism_across_workers(tmp_path):
    raw = {
        "theorems": ["1.1", "2.1", "lemmas", "classical"],
        "n": ["3..7"],
        "d": ["1", "2"],
        "r": ["-1", "0", "1"],
        "s": ["-1", "1"],
        "families": ["ones", "random_poly:5:2"],
        "classical_seeds": ["4"],
    }
    out1 = tmp_path / "workers1.jsonl"
    out8 = tmp_path / "workers8.jsonl"
    s1 = run_sweep(build_config(dict(raw, workers=["1"], output=[str(out1)])))
    s8 = run_sweep(build_config(dict(raw, workers=["8"], output=[str(out8)])))
    identical = out1.read_bytes() == out8.read_bytes()
    ok = identical and s1.failed == 0 and s8.failed == 0 and s1.total == s8.total
    _verdict("criterion 10: byte-identical sweep reports at workers 1 and 8",
             ok, f"{s1.total} records")
