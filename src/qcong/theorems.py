"""Both sides of each symmetric-congruence statement, assembled and decided.

Every statement is one _Statement record comparing
lscale * Sum wl_k L_k / den with rscale * Sum wr_k R_k / den mod Phi_n^2.
Its builder (_thm_1_1, _thm_1_2, _thm_2_1, _sun_p_x or _sun_p; guo_zeng is
_thm_1_1 at f_k = x^k, whose right entries hat(x^k) are (xq;q)_k, and
_sun_p_x is Theorem 1.2 on the sun_p_x label) checks the family's
hypotheses and returns the cell: every field but the sequence f, as plain
tuples and ints.  Each side is (t, d, step, poch, rescaled):
X_k = q^(step*k) T(f)_k(q^d), with T the identity (t = 0), hat (t = 1) or
tilde (t = -1).  _weights builds the weights of each side from an integer
spec, in the carrier of a lift function.  A side in Pochhammer form reads
no sequence: its f_k(q^d) is (x q^c; q^e)_k.  A named family stays a
FamilySpec, whose kind is known at once; it is generated, and the record
built with it, only where a difference is mapped or a side expanded, and
then once per check.

Both sides of a statement are over one denominator, that of its left
weights (times the family's).  sun_p's right weights have the denominator
(q^-d;q^-d)_(n-1)^3 = q^(-3d*C(n,2)) (q^d;q^d)_(n-1)^3 for odd n, so its
rscale carries q^(3d*C(n,2)) and the sides are never cross-multiplied.

_full_sides expands the sides on full polynomials: the public *_sides
builders, which the negative-control tests perturb, and the oracle of the
checks.  The checks decide in Q[q]/(Phi_n^2), and never form anything above
degree 2*phi(n), however large the exponents.  _ring_diff yields the
numerator of left minus right, by x-degree, as residues over the one
denominator of _cell_den, and _report decides on it: the statement holds
when every x-coefficient is zero.  No residue goes back to a polynomial, and
nothing is reduced or certified twice; a failing check gets its residual
from the same residues (congruence._residual_of, which residual uses too),
and the cell's denominator is inverted once (congruence._inverse).
A side is linear in f, so Sum_k w_k X_k = Sum_j u_j f_j(q^d) for a kernel
u that does not depend on f: _ring_kernel runs the q-Pascal recurrence of
hat and tilde transposed on the ring weights, with monomial shifts only,
and _ring_side maps a kernel to its side.
Each ring cache is keyed on what it reads.  The tails G_k (per
(n, step, power)) and the certified cell denominators (_cell_den, per
(n, step, power, rescaled d, fden)) depend on neither r nor alpha, so every
r of a cell, every round of a grid and every alpha of thm2.1 share them;
they are kept under the ring budget in coefficients (congruence._budgeted),
with the certified denominators of congruence and their inverses.  The
weights (per (n, spec)) and the kernel differences (_kernel_diff) are keyed
per r and keep entry counts; a kernel is not kept apart from its
difference.  A spec is keyed on min(r, d - r) (_spec), since the weights
are symmetric under r <-> d - r.  sun_p's right weights, of negative step,
are its left ones under q -> 1/q (Residue.reflect), a ring automorphism
mod Phi_n^2 since Phi_n is self-reciprocal.

Every sum stops where its weights vanish mod Phi_n^2.  Phi_n divides 1 - q^e
exactly when n divides e, so, with a*d + r == 0 (mod n) in the spec's r and
d (a = alpha mod n for thm2.1, whose d is -1), the pair product
(q^r;q^d)_k (q^(d-r);q^d)_k gains one factor Phi_n at k = a + 1 and a second
at k = n - a: every weight past K = max(a, n - 1 - a) is 0 mod Phi_n^2, and
a factor 1 - q^0 makes one 0 sooner.  _pairs stops at the first pair product
that is zero in its carrier, every later one being a multiple of it, so the
weights, the kernels and the lifted entries of a cell are w_0..w_K, u_0..u_K
and f_0..f_K, and Horner costs about K^2 shifts.  The stop is read off the
residues, not set by a cutoff; the tails still run to G_0.

thm1.1, thm1.2 and thm2.1 are linear: both sides read the same entries
(the sun_p_x Pochhammer form reads none, on both sides alike), so the
difference is lscale * Sum_j (u^L_j - (rscale/lscale) u^R_j) f_j(q^d), and
the statement holds for every family when that kernel difference is zero.
Every linear cell has one weight spec for both sides, an untransformed
left side (t = 0) and one (d, step) for both, so _kernel_diff builds the
difference once per cell, forming the t = 0 kernel once and running Horner
on it once for the right side's t, in a bounded cache keyed on n, the spec,
d, step, the right side's t and the ratio's exponent and sign: sun_p_x and
every other thm1.2 family of a cell share one entry.  The scales are signed
monomials kept as (exponent, sign) pairs, so the key holds plain ints.
_report reads both keys off the cell, which the builder made from the
params record it was given (E or F, sign and alpha included), so a
perturbed record has keys of its own.  A check of a cell whose difference
is empty is answered there: it builds no record, generates no family,
lifts no entry, forms no dot and runs no Horner.  One whose difference is
not attaches the family and maps the difference once, lifting each
f_j(q^d) once and transforming nothing, so every failing verdict and
residual comes from that.  Only sun_p, whose sides are Pochhammer products
at q^d and q^-d, maps each side's kernel and subtracts: with t = 0 and
step = 0, its kernels are its weights.  The denominator, the left spec's
(q^step;q^step)_(n-1)^power times fden or times the rescaled side's
(q^d;q^d)_(n-1), is certified once per (n, step, power) and family
denominator, not per r (_cell_den); the cache also keeps the fact that it
is not a unit, so such a cell raises on every check.  guo_zeng, being
thm1.1 at x^k, shares the weights, kernels and decision of thm1.1 at its
(n, d, r).

A Pochhammer side is Sum_j g_j (x q^c; q^e)_j with ring coefficients g_j,
and congruence.horner gives its x-coefficients from the last j down,
S <- g_j + (1 - x q^(c + j*e)) S: monomial shifts again, with no BiPoly,
no lift and no dense product per x-degree.  sun_p takes g_j = u_j.  For
sun_p_x, with Q = q^d,
1/(Q;Q)_j = H_j/(Q;Q)_(n-1) where H_j = (Q^(j+1);Q)_(n-1-j) is the tail
G_j at (n, d, 1), so g_j = u_j Q^j H_j over the family denominator
(Q;Q)_(n-1) = H_0, and no common denominator is expanded.  The transposed
recurrence of _ring_kernel is the same Horner, in a variable
that stands for the index of f; the hat kernel of thm1.1 is Horner on
(x q^d; q^d)_k, the Pochhammer right side guo_zeng would otherwise need.
The lemma checks decide mod Phi_n on Pochhammer products, one factor at a
time.

CHECKS keys each check that builds a statement by (n, its left weight
spec), from the spec helpers its builder uses (_sym_spec, _sun_p_spec,
_alpha_spec); a sweep runs its tasks grouped by that key, so the weights
and kernels of a cell are built once while the bounded caches hold them.

Parameter conventions:

  SymParams(n, d, r):  a is the unique residue in [0, n-1] with
      a*d + r == 0 (mod n); the exponent is
      E = d*C(a+1,2) + (a*d + r)*(n-1-2a)/2, always an integer (for odd n
      the second factor is even, for even n the first is a multiple of n);
      the sign is (-1)^a for odd n and (-1)^(a + (a*d+r)/n) for even n.

  AlphaParams(n, a, s):  alpha = a + s*n, F = C(a+1,2) + s*n*a - s*C(n,2),
      sign (-1)^a for odd n and (-1)^(a+s) for even n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .bivariate import BiPoly, RatExpr
from .congruence import (NoncoprimeDenominatorError, Residue, _budgeted, _residual_of, dot, horner, reduce,
                         reduce_by_degree)
from .cyclotomic import totient
from .families import FamilySpec, generate, random_int_sequence
from .laurent import LaurentPoly, one, qpow
from .qcalc import qbinom_int, qpoch, qpoch_x_prefixes
from .transforms import RATIONAL, PolySeq, common_denominator, hat, shared_denominator, tilde


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


def _n_at_least_2(n: int) -> "str | None":
    return None if n >= 2 else "n must be at least 2"


def _coprime(n: int, d: int) -> "str | None":
    return None if math.gcd(n, d) == 1 else f"n and d must be coprime, gcd({n},{d}) != 1"


def _a_in_range(n: int, a: int) -> "str | None":
    return None if 0 <= a < n else f"a must lie in [0, {n - 1}]"


def _j_in_range(n: int, j: int) -> "str | None":
    return None if 1 <= j <= n - 1 else f"j must lie in [1, {n - 1}]"


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


def _p_integral(p: int, alpha: "Fraction | str") -> "str | None":
    return "alpha must be p-integral" if Fraction(alpha).denominator % p == 0 else None


def _classical_p(p: int, alpha: Fraction) -> "str | None":
    """check_classical_sun's hypotheses; sweeps skip a cell on the first two only."""
    bounded = None if p <= MAX_CLASSICAL_P else f"p must be at most {MAX_CLASSICAL_P}"
    return _odd_prime(p) or _p_integral(p, alpha) or bounded


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
    @lru_cache(maxsize=256)
    def create(cls, n: int, d: int, r: int) -> "SymParams":
        """The parameters of a cell.  Memoized, as is AlphaParams.create: the
        record is immutable, and ill-posed arguments raise on every call."""
        _require(_n_at_least_2(n))
        if d < 1:
            raise ValueError("d must be at least 1")
        _require(_coprime(n, d))
        a = -r * pow(d, -1, n) % n
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
    @lru_cache(maxsize=256)
    def create(cls, n: int, a: int, s: int) -> "AlphaParams":
        _require(_n_at_least_2(n) or _a_in_range(n, a))
        alpha = a + s * n
        F = _tri(a + 1) + s * n * a - s * _tri(n)
        if n % 2:
            branch, parity = "odd", a
        else:
            branch, parity = "even", a + s
        return cls(n, a, s, alpha, F, -1 if parity % 2 else 1, branch)


@dataclass(frozen=True, init=False)
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

    def __init__(self, check: str, params: dict, holds: bool, a: "int | None" = None,
                 exponent: "int | None" = None, sign: "int | None" = None, branch: "str | None" = None,
                 wall_time: float = 0.0, residual: "str | None" = None):
        # the generated frozen __init__ sets each field by object.__setattr__
        # in turn; filling the instance dict in one step costs about half
        object.__setattr__(self, "__dict__", {
            "check": check, "params": params, "holds": holds, "a": a, "exponent": exponent,
            "sign": sign, "branch": branch, "wall_time": wall_time, "residual": residual})


def _resolve_family(fam) -> "tuple[PolySeq | FamilySpec, str]":
    """The family a check reads and its report label: a custom PolySeq as it
    is, a label as its FamilySpec, generated only where a difference is
    mapped (_sequence)."""
    if isinstance(fam, PolySeq):
        return fam, "custom"
    if isinstance(fam, str):
        fam = FamilySpec.parse(fam)
    return fam, fam.label()


def _sequence(fam, n: int) -> "PolySeq | None":
    """The entries a family stands for: a FamilySpec generated at length n, a
    PolySeq (or None, for sides in Pochhammer form) as it is."""
    return generate(fam, n) if isinstance(fam, FamilySpec) else fam


def _require_length(p, seq: "PolySeq | FamilySpec") -> None:
    """A custom PolySeq needs n entries; a named family is generated at n."""
    if isinstance(seq, PolySeq) and len(seq) != p.n:
        raise ValueError(f"need exactly n={p.n} entries, got {len(seq)}")


# -- weights, built factor by factor in the carrier of lift ------------------


def _tails(lift, step: int, n: int, power: int) -> list:
    """G_k = prod_{j=k+1..n-1} (1 - q^(step*j))^power for k < n, so that
    G_0 is (q^step;q^step)_{n-1}^power."""
    G = [lift(one)] * n
    for k in range(n - 2, -1, -1):
        G[k] = G[k + 1] * (one - qpow(step * (k + 1))) ** power
    return G


def _pairs(lift, r: int, d: int, n: int) -> list:
    """P_k = (q^r;q^d)_k (q^(d-r);q^d)_k for k < n, up to the last one that is
    nonzero in the carrier of lift: every later P_k is a multiple of the
    first zero one."""
    P = [lift(one)]
    for k in range(1, n):
        e = d * (k - 1)
        Pk = P[-1] * ((one - qpow(r + e)) * (one - qpow(d - r + e)))
        if Pk.is_zero():
            break
        P.append(Pk)
    return P


def _weights(lift, n: int, r: int, d: int, step: int, power: int, tri: bool, G=None) -> tuple:
    """w_k = Q^(k^2+k if tri) P_k G_k over G_0, Q = q^step: the weight
    Q^(k^2+k) (q^r;q^d)_k (q^(d-r);q^d)_k / (Q;Q)_k^power of every statement.
    G, the tails _tails(lift, step, n, power), is built here unless given.

    The weights stop where _pairs does, at w_K with P_(K+1) zero in the
    carrier, so every later weight is zero there too: mod Phi_n^2,
    K <= max(a, n - 1 - a) for a*d + r == 0 (mod n).  G runs to G_0.

    Every factor is a sparse polynomial, so a residue carrier multiplies it
    by shifted copies; only P_k G_k is a dense product.
    """
    if G is None:
        G = _tails(lift, step, n, power)
    w = [P * G[k] for k, P in enumerate(_pairs(lift, r, d, n))]
    if tri:
        w = [wk * qpow(step * (k * k + k)) for k, wk in enumerate(w)]
    return w, G[0]


def _spec(r: int, d: int, step: int, power: int, tri: bool) -> tuple:
    """The spec (r, d, step, power, tri) of _weights with r replaced by
    min(r, d - r).  P_k is symmetric under r <-> d - r (alpha <-> -1 - alpha
    for thm2.1), so the two spellings share one set of ring weights and
    kernels."""
    return min(r, d - r), d, step, power, tri


# The left weight spec of each statement, from the check's arguments alone: the
# statement builders use them, and CHECKS keys sweep tasks by them.


def _sym_spec(r: int, d: int) -> tuple:
    """thm1.1, thm1.2 (sun_p_x included) and guo_zeng."""
    return _spec(r, d, d, 2, False)


def _sun_p_spec(r: int, d: int) -> tuple:
    """sun_p's left side; its right weights are these under q -> 1/q."""
    return _spec(-r, -d, d, 3, True)


def _alpha_spec(alpha: int) -> tuple:
    """thm2.1, alpha = a + s*n."""
    return _spec(alpha, -1, 1, 2, True)


# -- the statements -----------------------------------------------------------


class _Statement(NamedTuple):
    """lscale * Sum_k wl_k L_k / (den * fden)  vs  rscale * Sum_k wr_k R_k / (den * fden).

    A builder (_thm_1_1, _thm_1_2, _thm_2_1, _sun_p_x, _sun_p) returns the
    fields from lweights to fden, the cell of the statement, as a plain
    tuple.  They hold no sequence, so _report certifies the denominator and
    looks up the kernel difference from them alone; the family is attached
    as seq, and the record built, only where a difference is mapped or a
    side expanded.

    lweights        the specs (r, d, step, power, tri) of _weights for each
    rweights        side, giving wl, den and wr in any carrier; both sides are
                    over the den of lweights, so a statement whose right
                    weights have another denominator puts the ratio, a
                    monomial, into rscale
    left, right     (t, d, step, poch, rescaled), the entries
                    X_k = q^(step*k) T(f)_k(q^d) of a side, where T is the
                    identity (t = 0), hat (t = 1) or tilde (t = -1).  A side
                    in Pochhammer form (poch not None) reads no sequence: its
                    f_k is (x q^poch; q)_k, so f_k(q^d) = (x q^c; q^e)_k with
                    (c, e) = (poch*d, d).  A rescaled side (poch = 0) has
                    f_k = q^k (q^(k+1);q)_(n-1-k) (x;q)_k, the numerators of
                    sun_p_x over (q;q)_(n-1), a denominator that the side
                    carries in place of fden (_cell_den, _full_den).  The map
                    from a kernel to the side reads seq, d, poch and rescaled
                    only (_ring_side), so two sides with one
                    (d, step, poch, rescaled) map their kernels alike.
    lscale, rscale  (exponent, sign) pairs, each the signed monomial
                    sign * q^exponent; a polynomial is built from one only
                    where a side is expanded or a difference rescaled
    fden            the family's common denominator, 1 unless the family is rational
    seq             the f of both sides, a PolySeq of untransformed entries
                    (full Laurent or bivariate polynomials or rational
                    functions); None for sides in Pochhammer form
    """

    p: "SymParams | AlphaParams"
    lweights: tuple
    rweights: tuple
    left: tuple
    right: tuple
    lscale: tuple
    rscale: tuple
    fden: LaurentPoly
    seq: "PolySeq | None"


_UNIT = (0, 1)  # the scale 1 = +q^0


def _ratio(lscale: tuple, rscale: tuple) -> tuple:
    """rscale/lscale as an (exponent, sign) pair."""
    return rscale[0] - lscale[0], rscale[1] * lscale[1]


def _thm_1_1(p: SymParams, seq: "PolySeq | FamilySpec") -> tuple:
    """q^E * Sum T_k q^(dk) f_k(q^d)  vs  sign * Sum T_k q^(dk) hat(f)_k(q^d)."""
    _require(_polynomial(seq.kind, _RATIONAL_1_1))
    _require_length(p, seq)
    spec = _sym_spec(p.r, p.d)
    return spec, spec, (0, p.d, p.d, None, False), (1, p.d, p.d, None, False), (p.E, 1), (0, p.sign), one


def _thm_1_2(p: SymParams, seq: "PolySeq | FamilySpec") -> tuple:
    """Sum T_k f_k(q^d)  vs  sign * q^E * Sum T_k tilde(f)_k(q^d).

    A rational sequence keeps its entries; their shared denominator
    multiplies the T_k denominator, and the numerators over it are built
    only where a side is lifted or expanded (_numerators).
    """
    _require_length(p, seq)
    fden = shared_denominator(seq.entries).substitute_power(p.d) if seq.kind == RATIONAL else one
    spec = _sym_spec(p.r, p.d)
    return spec, spec, (0, p.d, 0, None, False), (-1, p.d, 0, None, False), _UNIT, (p.E, p.sign), fden


def _thm_2_1(p: AlphaParams, seq: "PolySeq | FamilySpec") -> tuple:
    """sign * q^F * Sum q^(k^2+k) [alpha,k][-1-alpha,k] f_k  vs  the hat sum, where
    [alpha,k] = (q^alpha;q^-1)_k / (q;q)_k for every integer alpha."""
    _require(_polynomial(seq.kind))
    _require_length(p, seq)
    spec = _alpha_spec(p.alpha)
    return spec, spec, (0, 1, 0, None, False), (1, 1, 0, None, False), (p.F, p.sign), _UNIT, one


_SUN_P_X = FamilySpec("sun_p_x")
_MONOMIAL_X = FamilySpec("monomial_x")


def _sun_p_x(p: SymParams) -> tuple:
    """Theorem 1.2 at the sun_p_x family f_k = q^k (x;q)_k / (q;q)_k, in the
    Pochhammer form of its numerators over (q;q)_(n-1), the fden that
    _thm_1_2 finds for generate("sun_p_x").  The rescaled sides carry that
    denominator at q -> q^d: its residue is a cached tail (_cell_den), and
    only _full_den expands it."""
    spec = _sym_spec(p.r, p.d)
    return spec, spec, (0, p.d, 0, 0, True), (-1, p.d, 0, 0, True), _UNIT, (p.E, p.sign), one


def _sun_p(p: SymParams) -> tuple:
    """P_n(-r/d, x; q^d)  vs  sign * q^E * P_n(-r/d, x q^(-d); q^(-d)), odd n.

    With Q = q^step, step = +-d, the binomial numerators are the pair products
    at r -> step*alpha, d -> -step.  The entries are (x;q)_k at q -> q^d and
    (xq;q)_k at q -> q^-d, which is (x q^-d; q^-d)_k.  For odd n the right
    denominator (q^-d;q^-d)_(n-1)^3 is q^(-3d*C(n,2)) (q^d;q^d)_(n-1)^3, the
    left one times a monomial, which rscale takes.
    """
    _require(_odd_n(p.n))
    return (_sun_p_spec(p.r, p.d), _spec(p.r, p.d, -p.d, 3, True), (0, p.d, 0, 0, False), (0, -p.d, 0, 1, False),
            _UNIT, (p.E + 3 * p.d * _tri(p.n), p.sign), one)


def _sum(weights, entries):
    """Sum_k entries[k] * weights[k]."""
    terms = [f * w for w, f in zip(weights, entries)]
    return sum(terms[1:], terms[0])


def _numerators(fs: tuple) -> tuple:
    """Polynomial entries as they are; rational ones as their numerators over
    the family's shared denominator, the fden of the statement."""
    return tuple(common_denominator(fs)[0]) if isinstance(fs[0], RatExpr) else fs


def _entries(side: tuple, seq: "PolySeq | None", n: int) -> tuple:
    """The f_k of a side, as polynomials (_numerators), for _full_sides.  A
    Pochhammer form is expanded by running products; a rescaled one is
    sun_p_x over its common denominator, as _thm_1_2 has it, so the H_k of
    _ring_side are not built here."""
    _, _, _, poch, rescaled = side
    if poch is None:
        return _numerators(seq.entries)
    if rescaled:
        return _numerators(generate(_SUN_P_X, n).entries)
    return tuple(qpoch_x_prefixes(poch, n))


def _expand(side: tuple, seq: "PolySeq | None", n: int) -> tuple:
    """The entries q^(step*k) T(f)_k(q^d) of a side, as full polynomials."""
    t, d, step, _, _ = side
    fs = _entries(side, seq, n)
    fs = (hat if t == 1 else tilde)(fs) if t else fs
    return tuple(f.substitute_power(d) * qpow(step * k) if step else f.substitute_power(d) for k, f in enumerate(fs))


def _full_den(n: int, left: tuple, fden: LaurentPoly, G0: LaurentPoly) -> LaurentPoly:
    """The one denominator of both full sides, from G0, the left weights'
    (Q;Q)_(n-1)^power with Q = q^step: G0 times fden, or times
    (q^d;q^d)_(n-1) for a rescaled left side."""
    _, d, _, _, rescaled = left
    den = G0 * fden
    return den * qpoch(d, d, n - 1) if rescaled else den


def _full_sides(st: _Statement) -> tuple[RatExpr, RatExpr]:
    n = st.p.n
    built = {spec: _weights(lambda f: f, n, *spec) for spec in {st.lweights, st.rweights}}
    (wl, G0), (wr, _) = built[st.lweights], built[st.rweights]
    den = _full_den(n, st.left, st.fden, G0)
    return (RatExpr(_sum(wl, _expand(st.left, st.seq, n)) * LaurentPoly.monomial(*st.lscale), den),
            RatExpr(_sum(wr, _expand(st.right, st.seq, n)) * LaurentPoly.monomial(*st.rscale), den))


@_budgeted(lambda G, n, step, power: len(G) * len(G[0]._coeffs))
def _ring_tails(n: int, step: int, power: int) -> tuple:
    """The tails G_k of _tails mod Phi_n^2.  They depend on neither r nor
    alpha, so every r of a cell, every round of a grid and every alpha of
    thm2.1 share them.  A set costs its n residues of 2*phi(n) coefficients
    of the ring budget (congruence._budgeted): 96 at n = 12, 20 200 at
    n = 101, so the 40 sets of a sym_grid benchmark round (about 3 200) stay
    while a set at n = 401 (320 800) is held alone."""
    return tuple(_tails(partial(reduce, n=n, m=2), step, n, power))


@lru_cache(maxsize=4)
def _ring_weights(n: int, spec: tuple) -> list:
    """The weights of a spec mod Phi_n^2, kept across the families of a cell.
    Their denominator G_0 is not kept here: it depends on the spec's step and
    power alone, and _cell_den reads it off _ring_tails.

    A spec with negative step (sun_p's right one) has the weights of
    (-r, -d, -step, power, tri) under q -> 1/q, each by Residue.reflect:
    shifted copies in place of the dense products P_k G_k."""
    r, d, step, power, tri = spec
    if step < 0:
        return [wk.reflect() for wk in _ring_weights(n, _spec(-r, -d, -step, power, tri))]
    return _weights(partial(reduce, n=n, m=2), n, *spec, G=_ring_tails(n, step, power))[0]


def _ring_kernel(n: int, spec: tuple, t: int, d: int, step: int) -> tuple:
    """The u_j with Sum_k w_k q^(step*k) T(f)_k(q^d) == Sum_j u_j f_j(q^d) mod Phi_n^2
    for every sequence f.

    At q -> q^d, row_k = B_k row_(k-1) with (B_k y)[m] = y[m] - q^(t*d*k) y[m+1],
    and T(f)_k is entry 0 of B_k...B_1 f.  So with v_k = w_k q^(step*k), u is
    the transposed recurrence run from k = n-1 down:
    y <- B_k^T y + v_(k-1) e_0, where (B_k^T y)[m] = y[m] - q^(t*d*k) y[m-1].
    That is Horner in a variable x that stands for the index m: u_j is the
    coefficient of x^j in Sum_k v_k (x q^(t*d); q^(t*d))_k.

    The weights end at w_K (_weights), so u has K + 1 entries and every u_j
    past them is zero: Horner costs about K^2 shifts, not n^2.  Nothing is
    kept here: _kernel_diff, which keeps the difference of a cell, forms the
    t = 0 kernel, the v_k themselves, once and runs Horner on it once.
    """
    v = _ring_weights(n, spec)
    if step:
        v = [wk * qpow(step * k) for k, wk in enumerate(v)]
    return tuple(horner(v, t * d, t * d) if t else v)


def _times_ratio(u, e: int, sign: int):
    """The residues of u times the ratio sign * q^e of two scales: u itself
    when it is 1, negated when it is -1."""
    if e:
        ratio = LaurentPoly.monomial(e, sign)
        return [uj * ratio for uj in u]
    return u if sign == 1 else [-uj for uj in u]


@lru_cache(maxsize=16)
def _kernel_diff(n: int, spec: tuple, d: int, step: int, t: int, e: int, sign: int) -> tuple:
    """u^L - (rscale/lscale)*u^R mod Phi_n^2, the ratio being sign * q^e
    (_ratio), for a linear cell (_report), or () when the two agree: exactly
    when the statement holds for every family.  Both sides of a linear cell
    have one weight spec and one (d, step); the left side is untransformed
    (t = 0) and the right one transformed by t (hat or tilde), so u^L is the
    t = 0 kernel and u^R one Horner on it.  The key holds no sequence and no
    polynomial, so every family of a cell, the sun_p_x Pochhammer form
    included, shares one entry."""
    ul = _ring_kernel(n, spec, 0, d, step)
    ur = _times_ratio(horner(ul, t * d, t * d), e, sign)
    if tuple(ur) == ul:
        return ()
    return tuple(a - b for a, b in zip(ul, ur, strict=True))


@_budgeted(lambda den, n, step, power, rescaled_d, fden: len(fden) + 2 * totient(n))
def _cell_den(n: int, step: int, power: int, rescaled_d: int, fden: LaurentPoly) -> "Residue | None":
    """The one denominator of both sides in Q[q]/(Phi_n^2): the left weights'
    G_0 = (q^step;q^step)_(n-1)^power (_ring_tails), times fden, or, for a
    side rescaled at q -> q^d (rescaled_d = d, else 0), times the tail
    H_0 = (q^d;q^d)_(n-1).  None when it is not a unit mod Phi_n.  It depends
    on neither r nor alpha, so every r of an (n, d) and every family with
    one fden share one certification, kept under the ring budget
    (congruence._budgeted) at fden's terms and 2*phi(n) coefficients, like a
    congruence._certify_den entry."""
    den = _ring_tails(n, step, power)[0]
    if rescaled_d:
        den = den * _ring_tails(n, rescaled_d, 1)[0]
    elif fden != one:
        den = den * fden
    return den if den.is_unit() else None


def _ring_side(side: tuple, seq: "PolySeq | None", u, n: int) -> dict:
    """Sum_j u_j f_j(q^d) mod Phi_n^2 by x-degree (x^0 alone when univariate),
    for a kernel u of the side.

    A sequence side lifts f_0..f_(len(u)-1), each once, and forms one dot per
    x-degree; no entry is transformed.  A Pochhammer side is
    Sum_j g_j (x q^c; q^e)_j with g_j = u_j, or u_j q^(d*j) H_j when rescaled
    (H_j the cached tails at (n, d, 1)), and horner gives its x-coefficients:
    no entry is formed or lifted."""
    _, d, _, poch, rescaled = side
    if poch is None:
        lifted = [reduce_by_degree(f.substitute_power(d), n, 2) for f in _numerators(seq.entries)[:len(u)]]
        return {j: dot((f[j], uj) for f, uj in zip(lifted, u) if j in f) for j in sorted(set().union(*lifted))}
    if rescaled:
        u = [uj * Hj * qpow(d * j) for j, (uj, Hj) in enumerate(zip(u, _ring_tails(n, d, 1)))]
    return dict(enumerate(horner(u, poch * d, d)))


def _ring_diff(st: _Statement, u) -> dict:
    """The numerator of left minus right mod Phi_n^2 by x-degree, over
    _cell_den: lscale * (Sum u^L_j f_j - (rscale/lscale) Sum u^R_j f_j).

    u is the cell's nonempty _kernel_diff when the two sides map their
    kernels alike (_report), and the difference is its map: thm1.1, thm1.2
    (sun_p_x too), thm2.1 and guo_zeng.  u is None for sun_p, whose sides,
    Pochhammer products at q^d and q^-d, each map their own kernel: with
    t = 0 and step = 0, that kernel is the side's weights."""
    n, left, right = st.p.n, st.left, st.right
    if u is not None:
        diff = _ring_side(left, st.seq, u, n)
    else:
        lsum = _ring_side(left, st.seq, _ring_weights(n, st.lweights), n)
        rsum = _ring_side(right, st.seq, _times_ratio(_ring_weights(n, st.rweights), *_ratio(st.lscale, st.rscale)), n)
        zero = reduce(0, n, 2)
        diff = {j: lsum.get(j, zero) - rsum.get(j, zero) for j in lsum.keys() | rsum.keys()}
    if st.lscale == _UNIT:
        return diff
    lscale = LaurentPoly.monomial(*st.lscale)
    return {j: s * lscale for j, s in diff.items()}


def _bivariate(st: _Statement) -> bool:
    """Whether a statement's residual is reported by x-degree: sides in
    Pochhammer form, or an entry with x in it."""
    return st.seq is None or any(isinstance(f, BiPoly) or isinstance(f, RatExpr) and f.is_bivariate()
                                 for f in st.seq.entries)


def thm_1_1_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """q^E * Sum T_k q^(dk) f_k(q^d)  vs  sign * Sum T_k q^(dk) hat(f)_k(q^d)."""
    return _full_sides(_Statement(p, *_thm_1_1(p, seq), seq))


def thm_1_2_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """Sum T_k f_k(q^d)  vs  sign * q^E * Sum T_k tilde(f)_k(q^d).

    Rational families are allowed: the sequence is rewritten over a common
    denominator first, which then multiplies the shared T_k denominator.
    """
    return _full_sides(_Statement(p, *_thm_1_2(p, seq), seq))


def thm_2_1_sides(p: AlphaParams, seq: PolySeq):
    """sign * q^F * Sum q^(k^2+k) [alpha,k][-1-alpha,k] f_k  vs  the hat sum.

    Both sides are plain (Laurent or bivariate) polynomials: the weights are the
    Laurent polynomials of qbinom_int, not the check's pair products, so these
    sides are an independent reference for that identity.
    """
    st = _Statement(p, *_thm_2_1(p, seq), seq)
    w = [qbinom_int(p.alpha, k) * qbinom_int(-1 - p.alpha, k) * qpow(k * k + k) for k in range(p.n)]
    return (_sum(w, _expand(st.left, seq, p.n)) * LaurentPoly.monomial(*st.lscale),
            _sum(w, _expand(st.right, seq, p.n)) * LaurentPoly.monomial(*st.rscale))


def sun_p_sides(p: SymParams) -> tuple[RatExpr, RatExpr]:
    """P_n(-r/d, x; q^d)  vs  sign * q^E * P_n(-r/d, x q^(-d); q^(-d)), odd n.

    P_n(alpha, x; Q) = Sum Q^(k^2+k) [alpha,k]_Q [-1-alpha,k]_Q (x;Q)_k / (Q;Q)_k.
    With alpha = -r/d every q-exponent is an integer: the binomial
    numerators become ordinary Pochhammer products with step +-d.  Each
    side is built over the denominator (Q;Q)_{n-1}^3.
    """
    return _full_sides(_Statement(p, *_sun_p(p), None))


def _residual_text(res) -> str:
    """A residual, univariate or by x-degree, as a report prints it."""
    if isinstance(res, dict):
        return "; ".join(f"x^{j}: {res[j]}" for j in sorted(res))
    return str(res)


def _report(check: str, params: dict, p, cell: tuple, fam, started: float) -> CheckReport:
    """Decide a statement from its cell (the tuple its builder returns,
    _Statement) and family, and report it.  The cell's denominator is
    certified first (_cell_den); one that is not a unit mod Phi_n raises, on
    every check, the error congruent raises on the full sides, with the full
    denominator (_full_den), and no side is built for it.  Two sides that
    map their kernels alike make the statement linear in f: it holds for
    every family when the cell's _kernel_diff is empty, and is answered
    then, with no family generated and no record built.  Otherwise the
    family is attached (_sequence) and the difference mapped (_ring_diff):
    the statement holds when every x-coefficient is zero, and a failing one
    gets the residual of the same residues over the certified denominator."""
    lspec, _, left, right, lscale, rscale, fden = cell
    n, (_, _, step, power, _), (_, d, side_step, _, rescaled) = p.n, lspec, left
    den = _cell_den(n, step, power, d if rescaled else 0, fden)
    if den is None:
        raise NoncoprimeDenominatorError(_full_den(n, left, fden, qpoch(step, step, n - 1) ** power), n)
    u = _kernel_diff(n, lspec, d, side_step, right[0], *_ratio(lscale, rscale)) if left[1:] == right[1:] else None
    holds, residual = u == (), None
    if not holds:
        st = _Statement(p, *cell, _sequence(fam, p.n))
        diff = _ring_diff(st, u)
        holds = all(r.is_zero() for r in diff.values())
        residual = None if holds else _residual_text(_residual_of(diff, den, _bivariate(st)))
    return CheckReport(check, params, holds, p.a, p.E if isinstance(p, SymParams) else p.F, p.sign, p.branch,
                       time.perf_counter() - started, residual)


def check_thm_1_1(p: SymParams, fam) -> CheckReport:
    started = time.perf_counter()
    fam, label = _resolve_family(fam)
    params = {"n": p.n, "d": p.d, "r": p.r, "family": label}
    return _report("thm1.1", params, p, _thm_1_1(p, fam), fam, started)


def check_thm_1_2(p: SymParams, fam) -> CheckReport:
    """The sun_p_x label is decided in Pochhammer form (_sun_p_x): no entry of
    the family is built.  Every other family, a custom PolySeq of the same
    entries included, goes through _thm_1_2."""
    started = time.perf_counter()
    fam, label = _resolve_family(fam)
    if fam == _SUN_P_X:
        fam, cell = None, _sun_p_x(p)
    else:
        cell = _thm_1_2(p, fam)
    params = {"n": p.n, "d": p.d, "r": p.r, "family": label}
    return _report("thm1.2", params, p, cell, fam, started)


def check_thm_2_1(p: AlphaParams, fam) -> CheckReport:
    started = time.perf_counter()
    fam, label = _resolve_family(fam)
    params = {"n": p.n, "a": p.a, "s": p.s, "family": label}
    return _report("thm2.1", params, p, _thm_2_1(p, fam), fam, started)


def check_s0_identity(n: int, a: int, fam) -> bool:
    """At s = 0 both sides of Theorem 2.1 are equal exactly, not just congruent."""
    seq = _sequence(_resolve_family(fam)[0], n)  # a family too short for n reports first
    p = AlphaParams.create(n, a, 0)
    _require(_polynomial(seq.kind, _RATIONAL_S0))
    lhs, rhs = thm_2_1_sides(p, seq)
    return lhs == rhs


def _poch_mod(n: int, a: int, k: int):
    """(q^a;q)_k mod Phi_n, one two-term factor (1 - q^(a+i)) at a time."""
    acc = reduce(one, n)
    for i in range(k):
        acc = acc * (one - qpow(a + i))
    return acc


def check_lemma_sn_binom(n: int, s: int, j: int) -> bool:
    """Phi_n divides [s*n over j]_q for 1 <= j <= n-1, s != 0.

    [s*n, j] = (q^(s*n-j+1);q)_j / (q;q)_j for either sign of s.  Phi_n
    divides 1 - q^i only when n divides i, so for j < n the denominator
    (q;q)_j is a unit mod Phi_n and the numerator decides.
    """
    _require(_n_at_least_2(n) or _nonzero_s(s) or _j_in_range(n, j))
    return _poch_mod(n, s * n - j + 1, j).is_zero()


def check_lemma_sn_minus1(n: int, s: int, j: int) -> bool:
    """[s*n - 1 over j-1]_q == (-1)^(j-1) q^(-C(j,2)) mod Phi_n for 1 <= j <= n-1.

    [s*n-1, j-1] = (q^(s*n-j+1);q)_(j-1) / (q;q)_(j-1), whose denominator is
    a unit mod Phi_n for j < n (see check_lemma_sn_binom), so the
    cross-multiplied difference decides.
    """
    _require(_n_at_least_2(n) or _j_in_range(n, j))
    closed = qpow(-_tri(j)) * (-1 if (j - 1) % 2 else 1)
    return (_poch_mod(n, s * n - j + 1, j - 1) - _poch_mod(n, 1, j - 1) * closed).is_zero()


def check_even_sign_fact(n: int) -> bool:
    """Phi_n divides (-1)^(n-1) q^C(n,2) - 1 for even n."""
    if n < 2:
        raise ValueError(_EVEN_N)
    _require(_even_n(n))
    value = qpow(_tri(n)) * (-1 if (n - 1) % 2 else 1) - one
    return reduce(value, n).is_zero()


def check_guo_zeng(p: SymParams) -> CheckReport:
    """Theorem 1.1 at f_k = x^k, whose right entries hat(x^k) are (xq;q)_k.

    It is _thm_1_1's statement on monomial_x, so _report decides it by
    thm1.1's kernels: the kernel of the hat side is Horner on
    (x q^d; q^d)_k, which is what a Pochhammer right side would build.  Only
    _full_sides expands hat(x^k).
    """
    started = time.perf_counter()
    params = {"n": p.n, "d": p.d, "r": p.r, "family": "monomial_x"}
    return _report("guo_zeng", params, p, _thm_1_1(p, _MONOMIAL_X), _MONOMIAL_X, started)


def check_sun_p_analogue(p: SymParams) -> CheckReport:
    started = time.perf_counter()
    params = {"n": p.n, "d": p.d, "r": p.r, "family": "sun_p_x"}
    return _report("sun_p", params, p, _sun_p(p), None, started)


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
    _require(_classical_p(p, alpha))
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


# The widest exponent span a request may work over.  It bounds memory, not time:
# on a 2-core host `qbinom 200 100` takes 12 s (its exact division is dense).
MAX_SPAN = 20_000


def _poch_span(r: int, d: int, k: int) -> int:
    """Sum_{j<k} |r + j*d|, the exponent span of (q^r;q^d)_k, counted until it passes MAX_SPAN."""
    span = 0
    for j in range(k if d else 0):
        span += abs(r + j * d)
        if span > MAX_SPAN:
            break
    return span


def _qbinom_span(alpha: int, k: int) -> int:
    """The span of [alpha over k]: its numerator (q^(alpha-k+1);q)_k is the widest product."""
    k = min(k, alpha - k) if alpha >= 0 else k
    return _poch_span(alpha - k + 1, 1, k)


def _transform_span(length: int, family: str) -> int:
    """C(L+1,4) = Sum_{k<L} (L-1-k) C(k+1,2), the summed span of the row entries the
    transform forms before the last column (row_k[m] spans C(k+1,2), m + k < L - 1),
    plus the L*(D+1) dense coefficients of a random_poly:S:D prefix."""
    length, fam = max(length, 0), FamilySpec.parse(family)
    return math.comb(length + 1, 4) + length * (fam.args[1] + 1 if fam.name == "random_poly" else 0)


def _horner_span(n: int) -> int:
    """n x-coefficients of 2*phi(n) each, what a side built by Horner in x holds
    (congruence.horner); n alone once that passes MAX_SPAN."""
    return n if n > MAX_SPAN or n < 2 else n * 2 * totient(n)


@dataclass(frozen=True)
class Check:
    """One statement as `qcong verify` and the sweep see it.

    args     argument names, in the order sweep records sort by
    invalid  (*args) -> why a sweep skips the cell (a hypothesis fails), or None
    run      (*args) -> CheckReport; ill-posed arguments raise ValueError
    key      (*args) -> (n, left weight spec) of the statement run builds, by
             the spec helper its builder uses, or () for a check without
             ring weights; sweeps run tasks grouped by it.  Pure arithmetic
             on the arguments, so it never raises.
    cost     (*args) -> the exponent span run works over, from the arguments
             alone; `qcong verify` refuses a request above MAX_SPAN before it
             runs.  Required, so every entry states its charge.
    """

    args: tuple[str, ...]
    invalid: Callable[..., "str | None"]
    run: Callable[..., CheckReport]
    key: Callable[..., tuple] = lambda *args: ()
    cost: Callable[..., int] = field(kw_only=True)


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
    _require(_classical_p(p, alpha))
    holds = _classical_sun(p, alpha, random_int_sequence(seed, p, bound))
    params = {"p": p, "alpha": str(alpha), "seed": seed}
    return CheckReport("classical", params, holds, wall_time=time.perf_counter() - started)


CHECKS: dict[str, Check] = {
    "thm1.1": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d) or _polynomial(_kind(family), _RATIONAL_1_1),
        lambda n, d, r, family: check_thm_1_1(SymParams.create(n, d, r), family),
        lambda n, d, r, family: (n, _sym_spec(r, d)),
        cost=lambda n, d, r, family: _transform_span(n, family),  # its full sides transform n entries
    ),
    "thm1.2": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d),
        lambda n, d, r, family: check_thm_1_2(SymParams.create(n, d, r), family),
        lambda n, d, r, family: (n, _sym_spec(r, d)),
        cost=lambda n, d, r, family: _transform_span(n, family),
    ),
    "thm2.1": Check(
        ("n", "a", "s", "family"),
        lambda n, a, s, family: _a_in_range(n, a) or _polynomial(_kind(family)),
        lambda n, a, s, family: check_thm_2_1(AlphaParams.create(n, a, s), family),
        lambda n, a, s, family: (n, _alpha_spec(a + s * n)),
        cost=lambda n, a, s, family: _transform_span(n, family),
    ),
    "s0": Check(
        ("n", "a", "family"),
        lambda n, a, family: _a_in_range(n, a) or _polynomial(_kind(family), _RATIONAL_S0),
        lambda n, a, family: _bool_report("s0", check_s0_identity, n=n, a=a, family=family),
        cost=lambda n, a, family: _transform_span(n, family),
    ),
    "guo_zeng": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d),
        lambda n, d, r: check_guo_zeng(SymParams.create(n, d, r)),
        lambda n, d, r: (n, _sym_spec(r, d)),
        cost=lambda n, d, r: _horner_span(n),
    ),
    "sun_p": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d) or _odd_n(n),
        lambda n, d, r: check_sun_p_analogue(SymParams.create(n, d, r)),
        lambda n, d, r: (n, _sun_p_spec(r, d)),
        cost=lambda n, d, r: _horner_span(n),
    ),
    "lemma-sn": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn", check_lemma_sn_binom, n=n, s=s, j=j),
        cost=lambda n, s, j: _qbinom_span(s * n, j),
    ),
    # holds at s = 0 as well, but sweeps pair it with lemma-sn and skip both there
    "lemma-sn-minus1": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn-minus1", check_lemma_sn_minus1, n=n, s=s, j=j),
        cost=lambda n, s, j: _qbinom_span(s * n - 1, j - 1),
    ),
    "even-sign": Check(
        ("n",),
        _even_n,
        lambda n: _bool_report("even-sign", check_even_sign_fact, n=n),
        cost=lambda n: n,  # reduced mod Phi_n, like cyclotomic N
    ),
    "classical": Check(
        ("p", "alpha", "seed", "bound"),
        lambda p, alpha, seed, bound: _odd_prime(p) or _p_integral(p, alpha),
        _classical,
        cost=lambda p, alpha, seed, bound: 0,  # p is bounded by MAX_CLASSICAL_P
    ),
}
