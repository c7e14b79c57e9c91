"""Both sides of each symmetric-congruence statement, assembled and decided.

Each statement gets a side-builder returning the two expressions over a
shared denominator (so the decision usually reduces to one divisibility
test) and a check_* wrapper that times the decision and packages a report.
Side-builders are public on purpose: the negative-control tests perturb a
side and expect the congruence to break.

Parameter conventions:

  SymParams(n, d, r):  a is the unique residue in [0, n-1] with
      a*d + r == 0 (mod n); the exponent is
      E = d*C(a+1,2) + (a*d + r)*(n-1-2a)/2, always an integer (for odd n
      the second factor is even, for even n the first is a multiple of n);
      the sign is (-1)^a for odd n and (-1)^(a + (a*d+r)/n) for even n.

  AlphaParams(n, a, s):  alpha = a + s*n, F = C(a+1,2) + s*n*a - s*C(n,2),
      sign (-1)^a for odd n and (-1)^(a+s) for even n.

The summand weight in the first two statements is
T_k = (q^r;q^d)_k (q^(d-r);q^d)_k / (q^d;q^d)_k^2; both sides are built
over the common denominator (q^d;q^d)_{n-1}^2, turning T_k into the
polynomial P_k * G_k^2 with G_k the trailing factors of (q^d;q^d)_{n-1}.

Those two statements and guo_zeng are checked in the residue ring
Q[q]/(Phi_n^2): their formulas are written once over a carrier given by
qpow(e) and lift(f, e) = f(q^d) * q^e, so that the same code builds the
full polynomials of thm_1_1_sides / thm_1_2_sides and, for the checks,
residues of degree below 2*phi(n).  The weights and the denominator are
memoized per (n, d, r), since the family varies fastest in a sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .bivariate import BiPoly, RatExpr
from .congruence import congruent, reduce, residual
from .families import FamilySpec, generate, random_int_sequence
from .laurent import LaurentPoly, divides, one, qpow, zero
from .cyclotomic import cyclotomic
from .qcalc import qbinom_int, qpoch, qpoch_x
from .transforms import RATIONAL, PolySeq, common_denominator, hat, tilde


def _tri(x: int) -> int:
    """The binomial C(x, 2)."""
    return x * (x - 1) // 2


# -- hypotheses ---------------------------------------------------------------
# Each returns None when its hypothesis holds and the reason otherwise.  The
# parameter constructors, side-builders and checks raise with the reason;
# CHECKS uses the same functions to skip out-of-hypothesis sweep cells.


def _require(reason: "str | None") -> None:
    if reason:
        raise ValueError(reason)


def _coprime(n: int, d: int) -> "str | None":
    return None if math.gcd(n, d) == 1 else f"n and d must be coprime, gcd({n},{d}) != 1"


def _a_in_range(n: int, a: int) -> "str | None":
    return None if 0 <= a < n else f"a must lie in [0, {n - 1}]"


def _odd_n(n: int) -> "str | None":
    return None if n % 2 and n >= 3 else "this statement is for odd n >= 3 only"


_EVEN_N = "n must be even and at least 2"


def _even_n(n: int) -> "str | None":
    return None if n % 2 == 0 else _EVEN_N


_RATIONAL = "rational families are out of hypothesis here"
_RATIONAL_1_1 = _RATIONAL + "; use thm_1_2"
_RATIONAL_S0 = "polynomial families only"


def _polynomial(kind: str, reason: str = _RATIONAL) -> "str | None":
    return reason if kind == RATIONAL else None


def _nonzero_s(s: int) -> "str | None":
    return None if s else "s must be nonzero"


# Miller-Rabin to these bases decides primality exactly below 3.3e24
# (Sorenson and Webster, 2015), far above MAX_CLASSICAL_P.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _odd_prime(p: int) -> "str | None":
    if p < 3 or p % 2 == 0:
        return "p must be an odd prime"
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if a >= p:
            break
        x = pow(a, d, p)
        for _ in range(s):
            if x == 1 or x == p - 1:
                break
            x = x * x % p
        else:
            return "p must be an odd prime"
    return None


# check_classical_sun makes about p^2 exact rational operations on growing
# numerators: about 12 s at p = 1000.
MAX_CLASSICAL_P = 1000


def _p_bounded(p: int) -> "str | None":
    return None if p <= MAX_CLASSICAL_P else f"p must be at most {MAX_CLASSICAL_P}"


def _p_integral(p: int, alpha: "Fraction | str") -> "str | None":
    return "alpha must be p-integral" if Fraction(alpha).denominator % p == 0 else None


@dataclass(frozen=True)
class SymParams:
    n: int
    d: int
    r: int
    a: int
    E: int
    sign: int
    branch: str

    @classmethod
    def create(cls, n: int, d: int, r: int) -> "SymParams":
        if n < 2:
            raise ValueError("n must be at least 2")
        if d < 1:
            raise ValueError("d must be at least 1")
        _require(_coprime(n, d))
        a = next(a for a in range(n) if (a * d + r) % n == 0)
        prod = (a * d + r) * (n - 1 - 2 * a)
        if prod % 2:
            raise ArithmeticError(f"exponent not integral at n={n} d={d} r={r}")
        E = d * _tri(a + 1) + prod // 2
        if n % 2:
            branch, parity = "odd", a
        else:
            branch, parity = "even", a + (a * d + r) // n
        return cls(n, d, r, a, E, -1 if parity % 2 else 1, branch)


@dataclass(frozen=True)
class AlphaParams:
    n: int
    a: int
    s: int
    alpha: int
    F: int
    sign: int
    branch: str

    @classmethod
    def create(cls, n: int, a: int, s: int) -> "AlphaParams":
        if n < 2:
            raise ValueError("n must be at least 2")
        _require(_a_in_range(n, a))
        alpha = a + s * n
        F = _tri(a + 1) + s * n * a - s * _tri(n)
        if n % 2:
            branch, parity = "odd", a
        else:
            branch, parity = "even", a + s
        return cls(n, a, s, alpha, F, -1 if parity % 2 else 1, branch)


@dataclass(frozen=True)
class CheckReport:
    check: str
    params: dict
    holds: bool
    a: "int | None" = None
    exponent: "int | None" = None
    sign: "int | None" = None
    branch: "str | None" = None
    wall_time: float = 0.0
    residual: "str | None" = None


def _resolve_family(fam, n: int) -> tuple[PolySeq, str]:
    if isinstance(fam, PolySeq):
        return fam, "custom"
    if isinstance(fam, str):
        fam = FamilySpec.parse(fam)
    return generate(fam, n), fam.label()


def _subs(entry, d: int):
    if d == 1:
        return entry
    if isinstance(entry, BiPoly):
        return entry.subs_power(d)
    return entry.substitute_power(d)


def _sym_weights(p: SymParams, qpow=qpow) -> list:
    """P_k * G_k^2, the numerator of T_k over the shared denominator.

    Built from qpow(e), the carrier's q^e: full polynomials by default,
    residues mod Phi_n^2 for the checks.
    """
    n, d, r = p.n, p.d, p.r
    unit = qpow(0)
    G = [unit] * n
    for k in range(n - 2, -1, -1):
        G[k] = G[k + 1] * (unit - qpow(d * (k + 1)))
    weights = []
    P = unit
    for k in range(n):
        if k:
            P = P * (unit - qpow(r + d * (k - 1))) * (unit - qpow(d - r + d * (k - 1)))
        weights.append(P * (G[k] * G[k]))
    return weights


def _sym_den(p: SymParams, qpow=qpow):
    """(q^d;q^d)_{n-1}^2, the shared denominator, in the carrier of qpow."""
    unit = qpow(0)
    D = unit
    for j in range(1, p.n):
        D = D * (unit - qpow(p.d * j))
    return D * D


def _weighted_sum(weights, entries, lift, extra_exp: int = 0):
    """Sum of weights[k] * lift(entries[k], extra_exp*k), where lift(f, e) is f(q^d) * q^e."""
    acc = None
    for k, f in enumerate(entries):
        term = lift(f, extra_exp * k) * weights[k]
        acc = term if acc is None else acc + term
    return acc


def _thm_1_1_nums(p: SymParams, weights, entries, hatted, lift, qpow):
    """q^E * Sum T_k q^(dk) f_k(q^d)  and  sign * Sum T_k q^(dk) hat(f)_k(q^d), over _sym_den."""
    lhs = _weighted_sum(weights, entries, lift, p.d) * qpow(p.E)
    rhs = _weighted_sum(weights, hatted, lift, p.d) * p.sign
    return lhs, rhs


def _thm_1_2_nums(p: SymParams, weights, entries, tilded, lift, qpow):
    """Sum T_k f_k(q^d)  and  sign * q^E * Sum T_k tilde(f)_k(q^d), over _sym_den."""
    lhs = _weighted_sum(weights, entries, lift)
    rhs = _weighted_sum(weights, tilded, lift) * (p.sign * qpow(p.E))
    return lhs, rhs


def _require_length(p, seq: PolySeq) -> None:
    if len(seq) != p.n:
        raise ValueError(f"need exactly n={p.n} entries, got {len(seq)}")


def _thm_1_1_inputs(p: SymParams, seq: PolySeq):
    """(entries, hat of them, family denominator, numerator formula) for Theorem 1.1."""
    _require(_polynomial(seq.kind, _RATIONAL_1_1))
    _require_length(p, seq)
    entries = list(seq.entries)
    return entries, hat(entries), one, _thm_1_1_nums


def _thm_1_2_inputs(p: SymParams, seq: PolySeq):
    """The same for Theorem 1.2; a rational sequence is rewritten over a common
    denominator first, which then multiplies the shared T_k denominator."""
    _require_length(p, seq)
    if seq.kind == RATIONAL:
        entries, fden = common_denominator(seq.entries)
    else:
        entries, fden = list(seq.entries), one
    return entries, tilde(entries), fden, _thm_1_2_nums


def _full_sides(p: SymParams, inputs) -> tuple[RatExpr, RatExpr]:
    entries, transformed, fden, nums = inputs

    def lift(f, e=0):
        return _subs(f, p.d) * qpow(e)

    lhs, rhs = nums(p, _sym_weights(p), entries, transformed, lift, qpow)
    den = _sym_den(p) * lift(fden)
    return RatExpr(lhs, den), RatExpr(rhs, den)


def _ring_qpow(n: int):
    """e -> q^e as a residue mod Phi_n^2."""
    return lambda e: reduce(qpow(e), n, 2)


@lru_cache(maxsize=4)
def _ring_weights(p: SymParams) -> tuple:
    """_sym_weights and _sym_den mod Phi_n^2, kept across the families of a cell."""
    rq = _ring_qpow(p.n)
    return _sym_weights(p, rq), _sym_den(p, rq)


def _x_coeff(f, j: int):
    """The coefficient of x^j in a univariate or bivariate entry."""
    if isinstance(f, BiPoly):
        return f.coeff(j)
    return f if j == 0 else zero


def _ring_sides(p: SymParams, inputs) -> tuple[RatExpr, RatExpr]:
    """The sides assembled in Q[q]/(Phi_n^2).

    Numerators and denominator are replaced by their canonical residues, so
    the verdict and the residual are those of the full sides.
    """
    entries, transformed, fden, nums = inputs
    n, d = p.n, p.d
    weights, den = _ring_weights(p)
    rq = _ring_qpow(n)

    def lift(f, e=0):
        return reduce(_subs(f, d).shift(e), n, 2)

    den = den * lift(fden)
    if not den.is_unit():  # ill-posed: the full sides raise the usual error
        return _full_sides(p, inputs)
    if not any(isinstance(f, BiPoly) for f in entries):
        lhs, rhs = nums(p, weights, entries, transformed, lift, rq)
        return RatExpr(lhs.rep, den.rep), RatExpr(rhs.rep, den.rep)
    # the sides are linear in the entries, which are summed coefficient-wise in x
    lhs, rhs = {}, {}
    for j in sorted({j for f in (*entries, *transformed) if isinstance(f, BiPoly) for j in f.coeffs}):
        at_j = nums(p, weights, [_x_coeff(f, j) for f in entries],
                    [_x_coeff(f, j) for f in transformed], lift, rq)
        lhs[j], rhs[j] = (side.rep for side in at_j)
    return RatExpr(BiPoly(lhs), den.rep), RatExpr(BiPoly(rhs), den.rep)


def thm_1_1_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """q^E * Sum T_k q^(dk) f_k(q^d)  vs  sign * Sum T_k q^(dk) hat(f)_k(q^d)."""
    return _full_sides(p, _thm_1_1_inputs(p, seq))


def thm_1_2_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """Sum T_k f_k(q^d)  vs  sign * q^E * Sum T_k tilde(f)_k(q^d).

    Rational families are allowed: the sequence is rewritten over a common
    denominator first, which then multiplies the shared T_k denominator.
    """
    return _full_sides(p, _thm_1_2_inputs(p, seq))


def thm_2_1_sides(p: AlphaParams, seq: PolySeq):
    """sign * q^F * Sum q^(k^2+k) [alpha,k][-1-alpha,k] f_k  vs  the hat sum.

    Both sides are plain (Laurent or bivariate) polynomials: the q-binomials
    with integer top are Laurent polynomials, so no denominators appear.
    """
    _require(_polynomial(seq.kind))
    _require_length(p, seq)
    hatted = hat(seq)
    lhs = None
    rhs = None
    for k in range(p.n):
        B = qbinom_int(p.alpha, k) * qbinom_int(-1 - p.alpha, k)
        B = B.shift(k * k + k)
        tl = seq[k] * B
        tr = hatted[k] * B
        lhs = tl if lhs is None else lhs + tl
        rhs = tr if rhs is None else rhs + tr
    lhs = lhs * (p.sign * qpow(p.F))
    return lhs, rhs


def sun_p_sides(p: SymParams) -> tuple[RatExpr, RatExpr]:
    """P_n(-r/d, x; q^d)  vs  sign * q^E * P_n(-r/d, x q^(-d); q^(-d)), odd n.

    P_n(alpha, x; Q) = Sum q^(k^2+k maps to Q) [alpha,k]_Q [-1-alpha,k]_Q (x;Q)_k / (Q;Q)_k.
    With alpha = -r/d every q-exponent is an integer: the binomial
    numerators become ordinary Pochhammer products with step +-d.  Each
    side is built over the denominator (Q;Q)_{n-1}^3.
    """
    _require(_odd_n(p.n))
    n, d, r = p.n, p.d, p.r

    def build(step: int) -> tuple[BiPoly, LaurentPoly]:
        d_alpha = -r if step == d else r  # step * alpha, alpha = -r/d
        H: list[LaurentPoly] = [one] * n
        for k in range(n - 2, -1, -1):
            H[k] = H[k + 1] * (one - qpow(step * (k + 1)))
        num = None
        for k in range(n):
            n1 = qpoch(d_alpha + step * (1 - k), step, k)
            n2 = qpoch(-d_alpha - step * k, step, k)
            w = n1 * n2 * (H[k] * H[k] * H[k])
            w = w.shift(step * (k * k + k))
            term = qpoch_x(0, k).subs_power(step) * w
            num = term if num is None else num + term
        D = qpoch(step, step, n - 1)
        return num, D * D * D

    lhs_num, lhs_den = build(d)
    rhs_num, rhs_den = build(-d)
    rhs_num = rhs_num.scale_x(qpow(-d)) * (p.sign * qpow(p.E))
    return RatExpr(lhs_num, lhs_den), RatExpr(rhs_num, rhs_den)


def _residual_text(lhs, rhs, n: int, m: int) -> str:
    res = residual(lhs, rhs, n, m)
    if isinstance(res, dict):
        return "; ".join(f"x^{j}: {res[j]}" for j in sorted(res))
    return str(res)


def _report(check: str, params: dict, p, lhs, rhs, n: int, started: float) -> CheckReport:
    holds = congruent(lhs, rhs, n, 2)
    return CheckReport(
        check=check,
        params=params,
        holds=holds,
        a=p.a,
        exponent=p.E if isinstance(p, SymParams) else p.F,
        sign=p.sign,
        branch=p.branch,
        wall_time=time.perf_counter() - started,
        residual=None if holds else _residual_text(lhs, rhs, n, 2),
    )


def check_thm_1_1(p: SymParams, fam) -> CheckReport:
    started = time.perf_counter()
    seq, label = _resolve_family(fam, p.n)
    lhs, rhs = _ring_sides(p, _thm_1_1_inputs(p, seq))
    params = {"n": p.n, "d": p.d, "r": p.r, "family": label}
    return _report("thm1.1", params, p, lhs, rhs, p.n, started)


def check_thm_1_2(p: SymParams, fam) -> CheckReport:
    started = time.perf_counter()
    seq, label = _resolve_family(fam, p.n)
    lhs, rhs = _ring_sides(p, _thm_1_2_inputs(p, seq))
    params = {"n": p.n, "d": p.d, "r": p.r, "family": label}
    return _report("thm1.2", params, p, lhs, rhs, p.n, started)


def check_thm_2_1(p: AlphaParams, fam) -> CheckReport:
    started = time.perf_counter()
    seq, label = _resolve_family(fam, p.n)
    lhs, rhs = thm_2_1_sides(p, seq)
    params = {"n": p.n, "a": p.a, "s": p.s, "family": label}
    return _report("thm2.1", params, p, lhs, rhs, p.n, started)


def check_s0_identity(n: int, a: int, fam) -> bool:
    """At s = 0 both sides of Theorem 2.1 are equal exactly, not just congruent."""
    seq, _ = _resolve_family(fam, n)
    p = AlphaParams.create(n, a, 0)
    _require(_polynomial(seq.kind, _RATIONAL_S0))
    lhs, rhs = thm_2_1_sides(p, seq)
    return lhs == rhs


def check_lemma_sn_binom(n: int, s: int, j: int) -> bool:
    """Phi_n divides [s*n over j]_q for 1 <= j <= n-1, s != 0."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _require(_nonzero_s(s))
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, {n - 1}]")
    return divides(cyclotomic(n), qbinom_int(s * n, j))


def check_lemma_sn_minus1(n: int, s: int, j: int) -> bool:
    """[s*n - 1 over j-1]_q == (-1)^(j-1) q^(-C(j,2)) mod Phi_n for 1 <= j <= n-1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, {n - 1}]")
    closed = qpow(-_tri(j)) * (-1 if (j - 1) % 2 else 1)
    return divides(cyclotomic(n), qbinom_int(s * n - 1, j - 1) - closed)


def check_even_sign_fact(n: int) -> bool:
    """Phi_n divides (-1)^(n-1) q^C(n,2) - 1 for even n."""
    if n < 2:
        raise ValueError(_EVEN_N)
    _require(_even_n(n))
    value = qpow(_tri(n)) * (-1 if (n - 1) % 2 else 1) - one
    return divides(cyclotomic(n), value)


def check_guo_zeng(p: SymParams) -> CheckReport:
    """The bivariate instance f_k = x^k, after verifying hat(x^k) = (xq;q)_k."""
    started = time.perf_counter()
    seq = generate("monomial_x", p.n)
    hatted = hat(seq)
    params = {"n": p.n, "d": p.d, "r": p.r, "family": "monomial_x"}
    for k in range(p.n):
        if hatted[k] != qpoch_x(1, k):
            return CheckReport(
                check="guo_zeng", params=params, holds=False,
                a=p.a, exponent=p.E, sign=p.sign, branch=p.branch,
                wall_time=time.perf_counter() - started,
                residual=f"hat(x^k) != (xq;q)_k at k={k}",
            )
    lhs, rhs = _ring_sides(p, _thm_1_1_inputs(p, seq))
    return _report("guo_zeng", params, p, lhs, rhs, p.n, started)


def check_sun_p_analogue(p: SymParams) -> CheckReport:
    started = time.perf_counter()
    lhs, rhs = sun_p_sides(p)
    params = {"n": p.n, "d": p.d, "r": p.r, "family": "sun_p_x"}
    return _report("sun_p", params, p, lhs, rhs, p.n, started)


def _binom_frac(alpha: Fraction, k: int) -> Fraction:
    v = Fraction(1)
    for i in range(k):
        v *= alpha - i
    return v / math.factorial(k)


def check_classical_sun(p: int, alpha: "Fraction | int | str", fs) -> bool:
    """The integer-side oracle: the p^2 congruence on exact rationals.

    Decides whether Sum C(alpha,k) C(-1-alpha,k) f_k for k < p differs from
    (-1)^<alpha>_p times the hatted sum by a rational of p-adic valuation
    at least 2.  alpha must be p-integral, p at most MAX_CLASSICAL_P, and f
    needs at least p entries.
    """
    alpha = Fraction(alpha)
    _require(_odd_prime(p) or _p_integral(p, alpha) or _p_bounded(p))
    fs = list(fs)
    if len(fs) < p:
        raise ValueError(f"need at least p={p} sequence entries")
    return _classical_sun(p, alpha, fs)


def _classical_sun(p: int, alpha: Fraction, fs: list) -> bool:
    a = alpha.numerator * pow(alpha.denominator, -1, p) % p
    hatted = [
        sum((-1) ** j * math.comb(k, j) * fs[j] for j in range(k + 1))
        for k in range(p)
    ]
    s_plain = Fraction(0)
    s_hat = Fraction(0)
    for k in range(p):
        w = _binom_frac(alpha, k) * _binom_frac(-1 - alpha, k)
        s_plain += w * fs[k]
        s_hat += w * hatted[k]
    diff = s_plain - (-1 if a % 2 else 1) * s_hat
    if diff == 0:
        return True
    if diff.denominator % p == 0:
        # cannot happen: k! for k < p and the p-integral alpha keep p out
        raise ArithmeticError("difference is not p-integral")
    num, v = diff.numerator, 0
    while num % p == 0:
        num //= p
        v += 1
    return v >= 2


# -- the check registry -------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One statement as `qcong verify` and the sweep see it.

    args     argument names, in the order sweep records sort by
    invalid  (*args) -> why a sweep skips the cell (a hypothesis fails), or None
    run      (*args) -> CheckReport; ill-posed arguments raise ValueError
    """

    args: tuple[str, ...]
    invalid: Callable[..., "str | None"]
    run: Callable[..., CheckReport]


def _kind(family: str) -> str:
    return FamilySpec.parse(family).kind


def _bool_report(check: str, holds, **params) -> CheckReport:
    """Time a bool-valued check and report it with its arguments as params."""
    started = time.perf_counter()
    result = holds(*params.values())
    return CheckReport(check, params, result, wall_time=time.perf_counter() - started)


def _classical(p: int, alpha: str, seed: int, bound: int) -> CheckReport:
    started = time.perf_counter()
    alpha = Fraction(alpha)
    _require(_odd_prime(p) or _p_integral(p, alpha) or _p_bounded(p))
    holds = _classical_sun(p, alpha, random_int_sequence(seed, p, bound))
    params = {"p": p, "alpha": str(alpha), "seed": seed}
    return CheckReport("classical", params, holds, wall_time=time.perf_counter() - started)


CHECKS: dict[str, Check] = {
    "thm1.1": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d) or _polynomial(_kind(family), _RATIONAL_1_1),
        lambda n, d, r, family: check_thm_1_1(SymParams.create(n, d, r), family),
    ),
    "thm1.2": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d),
        lambda n, d, r, family: check_thm_1_2(SymParams.create(n, d, r), family),
    ),
    "thm2.1": Check(
        ("n", "a", "s", "family"),
        lambda n, a, s, family: _a_in_range(n, a) or _polynomial(_kind(family)),
        lambda n, a, s, family: check_thm_2_1(AlphaParams.create(n, a, s), family),
    ),
    "s0": Check(
        ("n", "a", "family"),
        lambda n, a, family: _a_in_range(n, a) or _polynomial(_kind(family), _RATIONAL_S0),
        lambda n, a, family: _bool_report("s0", check_s0_identity, n=n, a=a, family=family),
    ),
    "guo_zeng": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d),
        lambda n, d, r: check_guo_zeng(SymParams.create(n, d, r)),
    ),
    "sun_p": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d) or _odd_n(n),
        lambda n, d, r: check_sun_p_analogue(SymParams.create(n, d, r)),
    ),
    "lemma-sn": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn", check_lemma_sn_binom, n=n, s=s, j=j),
    ),
    # holds at s = 0 as well, but sweeps pair it with lemma-sn and skip both there
    "lemma-sn-minus1": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn-minus1", check_lemma_sn_minus1, n=n, s=s, j=j),
    ),
    "even-sign": Check(
        ("n",),
        _even_n,
        lambda n: _bool_report("even-sign", check_even_sign_fact, n=n),
    ),
    "classical": Check(
        ("p", "alpha", "seed", "bound"),
        lambda p, alpha, seed, bound: _odd_prime(p) or _p_integral(p, alpha),
        _classical,
    ),
}
