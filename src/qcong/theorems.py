"""Both sides of each symmetric-congruence statement, assembled and decided.

Every statement compares lscale * Sum w_k X_k / (den * fden) with
rscale * Sum w_k T(X)_k / (den * fden) mod Phi_n^2: one set of weights, one
side X_k = q^(step*k) f_k(q^d), and the right side's transform T, hat
(t = 1) or tilde (t = -1), applied to f before the substitution.  Its
builder (_thm_1_1, _thm_1_2 or _thm_2_1) checks the family's hypotheses and
returns the cell, the statement's only record: the tuple
(spec, (step, rescaled), t, lscale, rscale, fden) of plain tuples, ints
and the family denominator fden (1 unless the family is rational).  The
scales are (exponent, sign) pairs, each the signed monomial
sign * q^exponent.  The weight spec is (min(r, d - r), d) (_spec), and
_weights builds the weights from it, in the carrier of a lift function:
Q = q^d, power 2.  _thm_1_2 returns the rescaled side for the sun_p_x
label, which reads no sequence, its f_k being the numerators
q^k (q^(k+1);q)_(n-1-k) (x;q)_k of sun_p_x over (q;q)_(n-1), a denominator
the side carries in place of fden.  A named family stays a FamilySpec,
whose kind is known at once; it is generated only where a difference is
mapped, and then once per check; the full sides (_full_sides) expand the
sequence they are given, and no label.

Four statements are others in disguise, and are decided as those cells,
sharing their kernel differences.  guo_zeng is Theorem 1.1 at f_k = x^k,
whose right entries hat(x^k) are (xq;q)_k.  thm2.1 is Theorem 1.1 at d = 1,
r = -alpha: its weight q^(k^2+k) [alpha,k][-1-alpha,k] is
q^k (q^-alpha;q)_k (q^(1+alpha);q)_k / (q;q)_k^2, thm1.1's weight times its
side's q^(dk) there, and its F, sign and branch are that cell's E, sign and
branch (AlphaParams).  Only its scales are its own, so its residual is the
sign times thm1.1's.  thm1.2 is Theorem 1.1 under sigma: q -> 1/q.  Phi_n is
palindromic, so sigma maps (Phi_n^2) to itself; it maps tilde to hat, each
weight T_k to q^(dk) T_k and G_0 = (Q;Q)_(n-1)^2 to q^-M G_0,
M = d*n*(n-1).  So thm1.2's kernel difference at the ratio sign * q^E is
q^M times sigma of thm1.1's at sign * q^-E, entry by entry
(Residue.mirror), and thm1.2 holds on f exactly when thm1.1 holds on
f(q^-1) at the same record.  sun_p, the q-analogue of Sun's congruence,
P_n(-r/d, x; q^d) == sign * q^E * P_n(-r/d, x q^-d; q^-d) (mod Phi_n^2) for
odd n, with P_n(alpha, x; Q) = Sum Q^(k^2+k) [alpha,k]_Q [-1-alpha,k]_Q
(x;Q)_k / (Q;Q)_k, is Theorem 1.2 at sun_p_x: each of its sides equals the
thm1.2 side there as a rational function, not only mod Phi_n^2.  So
check_sun_p_analogue decides the rescaled thm1.2 cell.

_full_sides(p, cell, seq) expands the sides on full polynomials: the
public *_sides builders, which the negative-control tests perturb, and the
oracle of the checks.  The checks decide in Q[q]/(Phi_n^2), and never form
anything above degree 2*phi(n), however large the exponents.  Each of the
five ring checks is one _check call, which certifies the cell's
denominator, looks up its kernel difference and, when that is not empty,
maps it (_ring_diff: the numerator of left minus right, by x-degree, as
residues over the cell's one denominator): the statement holds when every
x-coefficient is zero.  No
residue goes back to a polynomial, and nothing is reduced or certified
twice; a failing check gets its residual from the same residues
(congruence._residual_of, which residual uses too), and the cell's
denominator is inverted once (congruence._inverse).
Each ring cache is keyed on what it reads.  The tails G_k (per
(n, d, power)) depend on neither r nor alpha, so every r of a cell,
every round of a grid and every alpha of thm2.1 share them; they are kept
under the ring budget in coefficients (congruence._budgeted), with the
certified denominators of congruence and their inverses.  The kernel
differences (_kernel_diff) are keyed per r and keep an entry count; the
weights and the kernels are built only where a difference is, and are not
kept apart from it.  A spec is keyed on min(r, d - r), since the weights
are symmetric under r <-> d - r.

Every sum stops where its weights vanish mod Phi_n^2.  Phi_n divides 1 - q^e
exactly when n divides e, so, with a*d + r == 0 (mod n) in the spec's r and
d, the pair product
(q^r;q^d)_k (q^(d-r);q^d)_k gains one factor Phi_n at k = a + 1 and a second
at k = n - a: every weight past K = max(a, n - 1 - a) is 0 mod Phi_n^2, and
a factor 1 - q^0 makes one 0 sooner.  _pairs stops at the first pair product
that is zero in its carrier, every later one being a multiple of it, so the
weights, the kernels and the lifted entries of a cell are w_0..w_K, u_0..u_K
and f_0..f_K, and Horner costs about K^2 shifts.  The stop is read off the
residues, not set by a cutoff; the tails still run to G_0.

Every statement is linear: both sides read the same entries (the rescaled
sun_p_x side reads none, on both sides alike).  A side is linear in f, so
Sum_k w_k X_k = Sum_j u_j f_j(q^d) for a kernel u that does not depend on
f, and the difference is lscale * Sum_j (u^L_j - (rscale/lscale) u^R_j)
f_j(q^d): the statement holds for every family when that kernel
difference is zero.  _kernel_diff builds Theorem 1.1's once per cell with
one Horner pass over the weights (the transposed q-Pascal recurrence of
hat), which applies the side's q^(dk) and the ratio in eps-coordinates, so
a holding cell forms no monomial product; it is kept in a bounded cache
keyed on n, the spec, -E and the sign, plain ints: thm1.1, guo_zeng,
thm2.1 at d = 1 and every thm1.2 family of the same record, sun_p_x and
sun_p included, share one entry.  _check reads the key off the params
record it was given (E or F, and the sign), so a perturbed record has a key
of its own, and a tilde cell (t = -1) mirrors a nonempty difference before
it maps it.  A check of a cell whose difference is empty is answered
there: it generates no family, lifts no entry, forms no dot and runs no
Horner.  One whose difference is not generates the
family and maps the difference once (_ring_diff), lifting each f_j(q^d)
once and transforming nothing, so every failing verdict and residual comes
from that.  The denominator is
G_0 = (Q;Q)_(n-1)^2 times fden, or times the rescaled side's
H_0 = (Q;Q)_(n-1).  G_0 and H_0 are units mod Phi_n exactly when
gcd(n, d) = 1, which SymParams.create requires, so only a family
denominator is certified, once (congruence._certify_den, which also keeps
the fact that it is not a unit, so such a cell raises on every check); the
product is formed only on a failing cell, for its residual.

Along a period of r the kernel differences are affine, so a sweep builds at
most two keys of each empty line.  Mod Phi_n^2, eps = q^n - 1 has
eps^2 == 0, so q^(j + t*k*n) == q^j (1 + t*k*eps) is affine in t.  Take
P = n for odd n and 2n for even n: r -> r + P keeps a and the sign of a
record and moves E by dE = P*(n - 1 - 2a)/2, a multiple of n
(n - 1 - 2a is even for odd n; with P = n at even n, dE would be an odd
multiple of n/2 and the sign would flip).  So along the line of keys (n, (r + t*P, d), e - t*dE,
sign), each pair factor 1 - q^(r + t*P + j*d), each weight, q^e and the
Horner pass over them are affine in t: a product of terms whose t-parts are
multiples of eps is.  The difference is too, and an affine function with
two zeros is zero, so a line with two empty keys is empty at every t.  The
weights' symmetry puts a key on the line of d - r as well, but that line
holds the same keys: it is one line named twice, and _kernel_lines names
it once, by the spelling whose class is the sweep key's (_statement_key).
It answers a key () when its line holds two empty keys other than itself,
or one when the line is self-paired (dE = 0, for odd n and r == d/2
(mod n): its keys repeat under a reflection of t, so the difference is
constant along it), and builds it otherwise: a line with a nonempty key is
built at every key, so no difference is derived from others and every
residual is the direct build's.  The rule needs m = 2: mod Phi_n^m the
difference is a polynomial of degree m - 1 in t.  The table holds the
lines of one (n, d), cleared when a key of another comes, so it holds at
most one line per empty key of one block.  A sweep runs each (n, d) block
in one stretch of one worker, or, past a process's share, each line class
in one; sym_grid asks at most two keys of an (n, d) in a row and derives nothing;
`qcong verify` decides one key per process and always builds.

The rescaled side is Sum_j Q^j g_j (x; Q)_j, Q = q^d, with ring
coefficients g_j, and congruence.horner gives its x-coefficients from the
last j down, from S = 0, S <- S - Q^j (x S - g_j): one monomial shift a
step, which is the side step Q^j too, with no BiPoly, no lift and no
dense product per x-degree.  1/(Q;Q)_j = H_j/(Q;Q)_(n-1) where
H_j = (Q^(j+1);Q)_(n-1-j) is the tail G_j at (n, d, 1), so g_j = u_j H_j
over the family denominator (Q;Q)_(n-1) = H_0, and no common denominator
is expanded.  The transposed
recurrence of _kernel_diff is the same Horner, in a variable that stands
for the index of f: the hat kernel is Horner on (x q^d; q^d)_k, the
Pochhammer right side guo_zeng would otherwise need.  Both run
horner(g, d, scale), at base q^d with d >= 1.
The lemma checks decide mod Phi_n on Pochhammer products, formed mod
q^n - 1 by rotations and divided once (_poch_mod).  Such a product reads
its start a only mod n, so it is kept per (n, a mod n, k) under the ring
budget: a lemma sweep forms each once per (n, j), whatever its s.

CHECKS[id].key names the tables a check's tasks share, coarsest first,
and is all a sweep knows of them.  A statement's key is ((n, d), c, spec)
(_statement_key): the (n, d) block whose tails it reads, the class c of r
mod P that names the line its kernel keys lie on, and the _spec its
builder uses.  A lemma's is ((n,), j), the row of Pochhammer products it
forms; classical's is ((), p), one block of every classical task, which
shares no table with the others, so that they run in one stretch; every
other check's is ((n,),).  A sweep sorts its tasks by key and runs each
block (key[0]) in one worker, cutting a block beyond one
process's share only between units (key[:2]), so the tails and the kernel
difference of a cell are built once while the bounded caches hold them,
every line sees all its keys in one worker, and each lemma row's products
are formed once.

Parameter conventions:

  SymParams(n, d, r):  a is the unique residue in [0, n-1] with
      a*d + r == 0 (mod n); the exponent is
      E = d*C(a+1,2) + (a*d + r)*(n-1-2a)/2, always an integer (for odd n
      the second factor is even, for even n the first is a multiple of n);
      the sign is (-1)^a for odd n and (-1)^(a + (a*d+r)/n) for even n.

  AlphaParams(n, a, s):  alpha = a + s*n, and F, the sign and the branch
      are the E, sign and branch of SymParams(n, 1, -alpha):
      F = C(a+1,2) + s*n*a - s*C(n,2), sign (-1)^a for odd n and (-1)^(a+s)
      for even n.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .bivariate import BiPoly, RatExpr
from .congruence import (NoncoprimeDenominatorError, Residue, _budgeted, _certify_den, _residual_of, _ring, dot,
                         horner, reduce, reduce_by_degree)
from .cyclotomic import totient
from .families import FamilySpec, generate
from .laurent import LaurentPoly, _parse, one, qpow
from .qcalc import qbinom_int, qpoch
from .transforms import RATIONAL, PolySeq, common_denominator, hat, shared_denominator, tilde


def _tri(x: int) -> int:
    """The binomial C(x, 2)."""
    return x * (x - 1) // 2


# -- hypotheses ---------------------------------------------------------------
# Each returns None when its hypothesis holds and the reason otherwise.  The
# parameter constructors, side-builders and checks raise with the reason;
# CHECKS uses the same functions to skip out-of-hypothesis sweep cells, but
# only where _posed holds: below it run refuses the cell as ill-posed, and a
# sweep reports it as an error record.


def _require(reason: "str | None") -> None:
    if reason:
        raise ValueError(reason)


def _n_at_least_2(n: int) -> "str | None":
    return None if n >= 2 else "n must be at least 2"


def _posed(n: int, d: int = 1) -> bool:
    """n >= 2 and d >= 1: run raises on a cell below them before it tests a hypothesis."""
    return n >= 2 and d >= 1


def _coprime(n: int, d: int) -> "str | None":
    return None if math.gcd(n, d) == 1 else f"n and d must be coprime, gcd({n},{d}) != 1"


def _a_in_range(n: int, a: int) -> "str | None":
    return None if 0 <= a < n else f"a must lie in [0, {n - 1}]"


def _j_in_range(n: int, j: int) -> "str | None":
    return None if 1 <= j <= n - 1 else f"j must lie in [1, {n - 1}]"


def _odd_n(n: int) -> "str | None":
    return None if n % 2 and n >= 3 else "this statement is for odd n >= 3 only"


def _even_n(n: int) -> "str | None":
    return None if n % 2 == 0 and n >= 2 else "n must be even and at least 2"


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


# check_classical_sun decides in Z/p^2 by one Kronecker product of two p-term
# integer polynomials, which takes most of its time: on a shared 2-vCPU host,
# `qcong verify classical` at the largest accepted prime, 79 999, takes
# 2.8-3.3 s of CPU and 56 MB of RSS as a whole process.
MAX_CLASSICAL_P = 80_000


def _classical_p(p: int, alpha: "Fraction | str") -> "str | None":
    """The classical hypotheses, p an odd prime and alpha p-integral: a sweep
    skips a cell on them, and check_classical_sun raises on them before it
    refuses a p past MAX_CLASSICAL_P, which a sweep reports as an error record."""
    return _odd_prime(p) or ("alpha must be p-integral" if Fraction(alpha).denominator % p == 0 else None)


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
        """thm2.1 at alpha = a + s*n is thm1.1 at (n, 1, -alpha) (_thm_2_1), so
        F, the sign and the branch are that cell's E, sign and branch."""
        _require(_n_at_least_2(n) or _a_in_range(n, a))
        alpha = a + s * n
        cell = SymParams.create(n, 1, -alpha)
        return cls(n, a, s, alpha, cell.E, cell.sign, cell.branch)


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
    PolySeq as it is."""
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
    first zero one.  P_k is P_(k-1) times the pair factor
    (1 - q^(r+e))(1 - q^(d-r+e)), e = d*(k-1), written out as its four
    terms 1 - q^(r+e) - q^(d-r+e) + q^(d+2e)."""
    P = [lift(one)]
    for k in range(1, n):
        e = d * (k - 1)
        Pk = P[-1] * LaurentPoly(((0, 1), (r + e, -1), (d - r + e, -1), (d + 2 * e, 1)))
        if Pk.is_zero():
            break
        P.append(Pk)
    return P


def _weights(lift, n: int, r: int, d: int, G=None) -> tuple:
    """w_k = P_k G_k over G_0, Q = q^d: the weight
    (q^r;q^d)_k (q^(d-r);q^d)_k / (Q;Q)_k^2 of every statement, thm2.1's
    q^(k^2+k) [alpha,k][-1-alpha,k] being q^k times it at d = 1,
    r = -alpha (_thm_2_1).  G, the tails _tails(lift, d, n, 2), is built
    here unless given.

    The weights stop where _pairs does, at w_K with P_(K+1) zero in the
    carrier, so every later weight is zero there too: mod Phi_n^2,
    K <= max(a, n - 1 - a) for a*d + r == 0 (mod n).  G runs to G_0.

    Every factor is a sparse polynomial, so a residue carrier multiplies it
    by shifted copies; only P_k G_k is a dense product, for k >= 1: P_0 is
    1, so w_0 is G_0 itself.
    """
    if G is None:
        G = _tails(lift, d, n, 2)
    P = _pairs(lift, r, d, n)
    return [G[0]] + [Pk * Gk for Pk, Gk in zip(P[1:], G[1:])], G[0]


def _spec(r: int, d: int) -> tuple:
    """The weight spec (r, d) of _weights with r replaced by min(r, d - r):
    (r, d) for thm1.1, thm1.2, guo_zeng and sun_p, and (-alpha, 1) for
    thm2.1, which is thm1.1 there.  P_k is symmetric under r <-> d - r, so
    the two spellings share one set of ring weights and kernels.  The
    statement builders use it, and CHECKS keys sweep tasks by it."""
    return min(r, d - r), d


def _period(n: int) -> int:
    """P = n for odd n and 2n for even n: r -> r + P keeps a and the sign of
    a record (the line rule of _kernel_lines)."""
    return n if n % 2 else 2 * n


def _statement_key(n: int, d: int, r: int) -> tuple:
    """The sweep key ((n, d), c, spec) of the statement at (n, d, r): the
    block whose tails it reads, the class c = min(r mod P, (d - r) mod P)
    that names the line _kernel_lines puts its keys on, and its weight
    spec.  x -> (d - x) mod P is an involution, so c names the pair of
    classes of the key's two spellings, whose lines hold the same keys.  P
    is taken as 1 at n = 0, an ill-posed cell whose key must not raise."""
    P = _period(n) or 1
    return (n, d), min(r % P, (d - r) % P), _spec(r, d)


# -- the statements -----------------------------------------------------------


_UNIT = (0, 1)  # the scale 1 = +q^0
# parse's own specs, so that a label and sun_p or guo_zeng pass the same object
_SUN_P_X = FamilySpec.parse("sun_p_x")
_MONOMIAL_X = FamilySpec.parse("monomial_x")


def _thm_1_1(p: SymParams, seq: "PolySeq | FamilySpec") -> tuple:
    """q^E * Sum T_k q^(dk) f_k(q^d)  vs  sign * Sum T_k q^(dk) hat(f)_k(q^d)."""
    _require(_polynomial(seq.kind, _RATIONAL_1_1))
    _require_length(p, seq)
    return _spec(p.r, p.d), (p.d, False), 1, (p.E, 1), (0, p.sign), one


def _thm_1_2(p: SymParams, seq: "PolySeq | FamilySpec") -> tuple:
    """Sum T_k f_k(q^d)  vs  sign * q^E * Sum T_k tilde(f)_k(q^d).

    The sun_p_x label, f_k = q^k (x;q)_k / (q;q)_k, gives the rescaled side:
    the numerators of the family over (q;q)_(n-1), the fden found below for
    generate("sun_p_x"), which the side carries at q -> q^d.  Its residue is
    a cached tail, only _full_den expands it, and no entry is built.  Every
    other family, a custom PolySeq of the same entries included, keeps its
    entries: a rational sequence's shared denominator multiplies the T_k
    denominator, and the numerators over it are built only where a side is
    lifted or expanded (_numerators).
    """
    if seq is _SUN_P_X or seq == _SUN_P_X:  # identity first: sun_p and a parsed label pay no __eq__
        return _spec(p.r, p.d), (0, True), -1, _UNIT, (p.E, p.sign), one
    _require_length(p, seq)
    fden = shared_denominator(seq.entries).substitute_power(p.d) if seq.kind == RATIONAL else one
    return _spec(p.r, p.d), (0, False), -1, _UNIT, (p.E, p.sign), fden


def _thm_2_1(p: AlphaParams, seq: "PolySeq | FamilySpec") -> tuple:
    """sign * q^F * Sum q^(k^2+k) [alpha,k][-1-alpha,k] f_k  vs  the hat sum, where
    [alpha,k] = (q^alpha;q^-1)_k / (q;q)_k for every integer alpha.

    (q^alpha;q^-1)_k = (-1)^k q^(k*alpha - C(k,2)) (q^-alpha;q)_k, so the
    weight is q^k (q^-alpha;q)_k (q^(1+alpha);q)_k / (q;q)_k^2: thm1.1's
    weight and side at (n, 1, -alpha).  So this is thm1.1's cell there, with
    thm2.1's own scales; their ratio is thm1.1's, F and the sign being that
    cell's E and sign, and the two share one kernel difference."""
    _require(_polynomial(seq.kind))
    _require_length(p, seq)
    return _spec(-p.alpha, 1), (1, False), 1, (p.F, p.sign), _UNIT, one


def _sum(weights, entries):
    """Sum_k entries[k] * weights[k]."""
    terms = [f * w for w, f in zip(weights, entries)]
    return sum(terms[1:], terms[0])


def _numerators(fs: tuple) -> tuple:
    """Polynomial entries as they are; rational ones as their numerators over
    the family's shared denominator, the fden of the statement."""
    return tuple(common_denominator(fs)[0]) if isinstance(fs[0], RatExpr) else fs


def _expand(fs: tuple, t: int, d: int, step: int) -> tuple:
    """The entries q^(step*k) T(f)_k(q^d) of a side, as full polynomials."""
    fs = (hat if t == 1 else tilde)(fs) if t else fs
    return tuple(f.substitute_power(d) * qpow(step * k) for k, f in enumerate(fs))


def _full_den(n: int, d: int, rescaled: bool, fden: LaurentPoly, G0: LaurentPoly) -> LaurentPoly:
    """The one denominator of both full sides of a cell, which _check's error
    names, from G0, the weights' (Q;Q)_(n-1)^2 with Q = q^d: G0 times fden,
    or times (Q;Q)_(n-1) for a rescaled side."""
    den = G0 * fden
    return den * qpoch(d, d, n - 1) if rescaled else den


def _full_sides(p, cell: tuple, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """Both sides of the cell a builder made of p and the sequence seq, on
    full polynomials, with the f_k of seq as polynomials (_numerators).  A
    sequence is never a rescaled side: the sun_p_x entries, generated, have
    its numerators over their shared denominator, the one it carries."""
    spec, (step, _), t, lscale, rscale, fden = cell
    w, G0 = _weights(lambda f: f, p.n, *spec)
    fs = _numerators(seq.entries)
    return tuple(RatExpr(_sum(w, _expand(fs, tk, spec[1], step)) * LaurentPoly.monomial(*scale), G0 * fden)
                 for tk, scale in ((0, lscale), (t, rscale)))


@_budgeted(lambda G, n, step, power: len(G) * len(G[0]._coeffs))
def _ring_tails(n: int, step: int, power: int) -> tuple:
    """The tails G_k of _tails mod Phi_n^2.  They depend on neither r nor
    alpha, so every r of a cell, every round of a grid and every alpha of
    thm2.1 share them.  A set costs its n residues of 2*phi(n) coefficients
    of the ring budget (congruence._budgeted): 96 at n = 12, 20 200 at
    n = 101, so the 40 sets of a sym_grid benchmark round (about 3 200) stay
    while a set at n = 401 (320 800) is held alone."""
    return tuple(_tails(partial(reduce, n=n, m=2), step, n, power))


@lru_cache(maxsize=16)
def _kernel_diff(n: int, spec: tuple, e: int, sign: int) -> tuple:
    """Theorem 1.1's kernel difference at (n, spec, e, sign), or () when it is
    zero: _build_kernel_diff's value, kept per key.  A miss goes to the line
    table (_kernel_lines), which answers () from the empty lines of its
    (n, d) or builds it."""
    return _kernel_lines(n, spec, e, sign)


LineInfo = namedtuple("LineInfo", "hits misses currsize")
"""The line table's cache_info: keys answered, keys built, lines held."""

_lines: dict = {}  # (n, d) -> {line: the t of its known-empty points}, for one (n, d)
_line_counts = [0, 0]  # keys answered, keys built


def _kernel_lines(n: int, spec: tuple, e: int, sign: int) -> tuple:
    """_build_kernel_diff(n, spec, e, sign), answered () with no weights and
    no Horner when the key's line already holds two empty points other than
    the key's own, or one on a self-paired line, and built otherwise.  Every
    empty result, built or answered, is recorded on its line.

    Of the spec's two spellings, r and d - r, take the c whose class
    c mod P is the sweep key's, min(r mod P, (d - r) mod P)
    (_statement_key), where P = n for odd n and 2n for even n.  The key
    lies on the line (c mod P, e + t*dE, sign) at t = c // P, where
    dE = P*(n - 1 - 2a)/2 and a == -c/d (mod n): e + t*dE is the key's e
    moved back to t = 0.  The other spelling's line holds the same keys, so
    it is not kept.  Along a line the difference is affine in t (the module
    docstring), so a line with two empty points is empty at every t.  When
    dE = 0 (odd n and c == d/2 (mod n)) the line is self-paired: its keys
    repeat under t -> t1 + t2 - t, t1 and t2 the t of one key's two
    spellings, so the difference is constant along it and one empty point
    makes it empty.  The table holds the lines of one (n, d), and is cleared
    when a key of another comes."""
    r, d = spec
    held = _lines.get((n, d))
    if held is None:
        _lines.clear()
        held = _lines[n, d] = {}
    P = _period(n)
    c = r if r % P <= (d - r) % P else d - r
    t, a = c // P, -c * pow(d, -1, n) % n
    dE = P * (n - 1 - 2 * a) // 2
    line = c % P, e + t * dE, sign
    if len(ts := held.get(line, ())) - (t in ts) >= (2 if dE else 1):
        _line_counts[0] += 1
        u = ()
    else:
        _line_counts[1] += 1
        u = _build_kernel_diff(n, spec, e, sign)
    if not u:
        held.setdefault(line, set()).add(t)
    return u


def _clear_lines() -> None:
    _lines.clear()
    _line_counts[:] = [0, 0]


# lru_cache's surface, so that the caches of a test or a benchmark pass are cleared with it
_kernel_lines.cache_info = lambda: LineInfo(*_line_counts, sum(map(len, _lines.values())))
_kernel_lines.cache_clear = _clear_lines


def _build_kernel_diff(n: int, spec: tuple, e: int, sign: int) -> tuple:
    """Theorem 1.1's u^L - sign * q^e * u^R mod Phi_n^2, or () when the two
    agree: exactly when the statement holds for every family.  u^L and u^R
    are the kernels of the two sides, the u_j with
    Sum_k w_k q^(d*k) T(f)_k(q^d) == Sum_j u_j f_j(q^d) mod Phi_n^2 for every
    sequence f, d the spec's d, T the identity on the left and hat on the
    right.  The key holds no sequence and no polynomial, so every family of
    a cell shares one entry, and so do thm1.1 at d = 1 and thm2.1 at
    alpha = -r, and thm1.2 and sun_p at the same record (_check).

    On the left, u^L_k = w_k q^(d*k).  At q -> q^d,
    row_k = B_k row_(k-1) with (B_k y)[m] = y[m] - q^(d*k) y[m+1], and hat(f)_k
    is entry 0 of B_k...B_1 f.  So u^R is the transposed recurrence run from
    k = n-1 down: y <- B_k^T y + u^L_(k-1) e_0, where
    (B_k^T y)[m] = y[m] - q^(d*k) y[m-1].  That is Horner in a variable x
    that stands for the index m: u^R_j is the coefficient of x^j in
    F(x) = Sum_k q^(d*k) w_k (x q^d; q^d)_k.

    Since [x^j] F(x q^-d) = q^(-d*j) [x^j] F(x), sign * q^e * u^R_j is
    q^(d*j) out_j, where out holds the x-coefficients of
    sign * q^e * F(x q^-d), one horner pass over the weights themselves with
    the side step and the ratio applied in eps-coordinates.  So the
    statement holds exactly when out_j = w_j for every j, which costs no
    product; only a failing cell forms u_j = q^(d*j) (w_j - out_j).

    The weights end at w_K (_weights), so both kernels have K + 1 entries and
    every u_j past them is zero: Horner costs about K^2 shifts, not n^2.
    The weights are built here, from the cached tails: a cell's families and
    the thm1.2 and sun_p checks of its record read the kept difference."""
    w = _weights(partial(reduce, n=n, m=2), n, *spec, G=_ring_tails(n, spec[1], 2))[0]
    out = horner(w, spec[1], (e, sign))
    if out == w:
        return ()
    return tuple((wj - oj) * qpow(spec[1] * j) for j, (wj, oj) in enumerate(zip(w, out, strict=True)))


def _ring_diff(n: int, d: int, rescaled: bool, lscale: tuple, seq: "PolySeq | None", u) -> dict:
    """The numerator of left minus right mod Phi_n^2 by x-degree (x^0 alone
    when univariate), over the cell's denominator: lscale * Sum_j u_j f_j(q^d)
    for the cell's nonempty _kernel_diff u.

    A sequence side lifts f_0..f_(len(u)-1) of seq, each once, and forms one
    dot per x-degree; no entry is transformed.  A rescaled side reads no seq:
    it is lscale * Sum_j q^(d*j) g_j (x; q^d)_j with g_j = u_j H_j (H_j the
    cached tails at (n, d, 1)), and one horner pass gives its x-coefficients,
    the q^(d*j) as its step and lscale as its scale, so no entry is formed or
    lifted."""
    if rescaled:
        g = [uj * Hj for uj, Hj in zip(u, _ring_tails(n, d, 1))]
        return dict(enumerate(horner(g, d, lscale)))
    lifted = [reduce_by_degree(f.substitute_power(d), n, 2) for f in _numerators(seq.entries)[:len(u)]]
    lscale = LaurentPoly.monomial(*lscale)
    return {j: dot((f[j], uj) for f, uj in zip(lifted, u) if j in f) * lscale for j in sorted(set().union(*lifted))}


def thm_1_1_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """q^E * Sum T_k q^(dk) f_k(q^d)  vs  sign * Sum T_k q^(dk) hat(f)_k(q^d)."""
    return _full_sides(p, _thm_1_1(p, seq), seq)


def thm_1_2_sides(p: SymParams, seq: PolySeq) -> tuple[RatExpr, RatExpr]:
    """Sum T_k f_k(q^d)  vs  sign * q^E * Sum T_k tilde(f)_k(q^d).

    Rational families are allowed: the sequence is rewritten over a common
    denominator first, which then multiplies the shared T_k denominator.
    """
    return _full_sides(p, _thm_1_2(p, seq), seq)


def thm_2_1_sides(p: AlphaParams, seq: PolySeq):
    """sign * q^F * Sum q^(k^2+k) [alpha,k][-1-alpha,k] f_k  vs  the hat sum.

    Both sides are plain (Laurent or bivariate) polynomials: the weights are the
    Laurent polynomials of qbinom_int, not the check's pair products, so these
    sides are an independent reference for that identity.  The factor
    q^(k^2+k) is in these weights, so the entries take step 0 here, not the
    step 1 of the check's cell.
    """
    _, _, t, lscale, rscale, _ = _thm_2_1(p, seq)
    w = [qbinom_int(p.alpha, k) * qbinom_int(-1 - p.alpha, k) * qpow(k * k + k) for k in range(p.n)]
    return (_sum(w, _expand(seq.entries, 0, 1, 0)) * LaurentPoly.monomial(*lscale),
            _sum(w, _expand(seq.entries, t, 1, 0)) * LaurentPoly.monomial(*rscale))


def _residual_text(res) -> str:
    """A residual, univariate or by x-degree, as a report prints it."""
    if isinstance(res, dict):
        return "; ".join(f"x^{j}: {res[j]}" for j in sorted(res))
    return str(res)


def _check(name: str, p, fam, build) -> CheckReport:
    """Decide the statement that build (_thm_1_1, _thm_1_2 or _thm_2_1) makes
    of the params record p and a family, and report it as the check name.

    The cell's denominator is certified first, with no ring product: the
    weights' G_0 = (Q;Q)_(n-1)^2, Q = q^d, and the rescaled side's
    H_0 = (Q;Q)_(n-1) are units mod Phi_n exactly when gcd(n, d) = 1 (Phi_n
    divides 1 - q^(d*j) only when n divides d*j), and a family denominator
    is certified by congruence._certify_den, once per denominator.  One that
    is not a unit raises, on every check, the error congruent raises on the
    full sides, with the full denominator (_full_den), and no side is built
    for it.  The statement holds for every family when Theorem 1.1's
    _kernel_diff at (n, spec, -E or -F, sign), read off p, is empty, and is
    answered then, with no family generated.  Otherwise a tilde cell
    (thm1.2 and sun_p, t = -1) first turns each entry of that difference
    into its own (Residue.mirror at M = d*n*(n-1)); the family is generated
    (_sequence), unless the side is rescaled, and the difference mapped
    (_ring_diff): the statement holds when every x-coefficient is zero, and
    a failing one gets the residual of the same residues over G_0 times H_0
    or times the certified fden, formed only there."""
    started = time.perf_counter()
    fam, label = _resolve_family(fam)
    cell = build(p, fam)
    spec, (_, rescaled), t, lscale, _, fden = cell
    n, d = p.n, spec[1]
    rational = fden is not one and fden != one  # a polynomial family's fden is one itself
    if math.gcd(n, d) != 1 or rational and _certify_den(fden, n, 2) is None:
        raise NoncoprimeDenominatorError(_full_den(n, d, rescaled, fden, qpoch(d, d, n - 1) ** 2), n)
    if isinstance(p, SymParams):
        params, exponent = {"n": n, "d": p.d, "r": p.r, "family": label}, p.E
    else:
        params, exponent = {"n": n, "a": p.a, "s": p.s, "family": label}, p.F
    u = _kernel_diff(n, spec, -exponent, p.sign)
    holds, residual = u == (), None
    if not holds:
        if t < 0:  # tilde: thm1.2's difference is q^M sigma(thm1.1's), sigma: q -> 1/q
            u = [uj.mirror(d * n * (n - 1)) for uj in u]
        seq = None if rescaled else _sequence(fam, n)
        diff = _ring_diff(n, d, rescaled, lscale, seq, u)
        holds = all(r.is_zero() for r in diff.values())
        if not holds:
            den = _ring_tails(n, d, 2)[0]
            if rescaled:
                den = den * _ring_tails(n, d, 1)[0]
            elif rational:
                den = den * _certify_den(fden, n, 2)
            # reported by x-degree for a rescaled side, or an entry with x in it
            bivariate = rescaled or any(isinstance(f, BiPoly) or isinstance(f, RatExpr) and f.is_bivariate()
                                        for f in seq.entries)
            residual = _residual_text(_residual_of(diff, den, bivariate))
    return CheckReport(name, params, holds, p.a, exponent, p.sign, p.branch, time.perf_counter() - started, residual)


def check_thm_1_1(p: SymParams, fam) -> CheckReport:
    return _check("thm1.1", p, fam, _thm_1_1)


def check_thm_1_2(p: SymParams, fam) -> CheckReport:
    """The sun_p_x label is decided on its rescaled side (_thm_1_2): no entry
    of the family is built."""
    return _check("thm1.2", p, fam, _thm_1_2)


def check_thm_2_1(p: AlphaParams, fam) -> CheckReport:
    return _check("thm2.1", p, fam, _thm_2_1)


def check_s0_identity(n: int, a: int, fam) -> bool:
    """At s = 0 both sides of Theorem 2.1 are equal exactly, not just congruent."""
    fam = _resolve_family(fam)[0]
    p = AlphaParams.create(n, a, 0)  # n and a first, as for thm2.1
    _require(_polynomial(fam.kind, _RATIONAL_S0))  # a FamilySpec's kind needs no entries
    lhs, rhs = thm_2_1_sides(p, _sequence(fam, n))
    return lhs == rhs


def _poch_mod(n: int, a: int, k: int) -> Residue:
    """(q^a;q)_k mod Phi_n.  It is formed mod q^n - 1, which Phi_n divides: there
    a list v of n coefficients times 1 - q^e is v minus v rotated by e mod n,
    and 0 when n divides e.  The ring's tower divides it once, at the end.
    So it reads a only mod n, and is kept per (n, a mod n, k) (_poch_table):
    a lemma sweep forms each of its products once per (n, j), however many
    values its s axis has."""
    return _poch_table(n, a % n, k)


@_budgeted(lambda res, n, a, k: res._ring.dim)
def _poch_table(n: int, a: int, k: int) -> Residue:
    """_poch_mod at 0 <= a < n, kept under the ring budget
    (congruence._budgeted): a product costs its phi(n) coefficients."""
    v = [1] + [0] * (n - 1)
    for e in range(a, a + k):
        b = e % n
        if not b:
            v = [0] * n
            break
        v = [x - y for x, y in zip(v, v[-b:] + v[:-b])]
    ring = _ring(n, 1)
    return Residue(ring, ring.divide(v))


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
    _require(_even_n(n))
    value = qpow(_tri(n)) * (-1 if (n - 1) % 2 else 1) - one
    return reduce(value, n).is_zero()


def check_guo_zeng(p: SymParams) -> CheckReport:
    """Theorem 1.1 at f_k = x^k, whose right entries hat(x^k) are (xq;q)_k.

    It is _thm_1_1's statement on monomial_x, so it is decided by thm1.1's
    kernels: the kernel of the hat side is Horner on (x q^d; q^d)_k, which
    is what a Pochhammer right side would build.  Only _full_sides expands
    hat(x^k).
    """
    return _check("guo_zeng", p, _MONOMIAL_X, _thm_1_1)


def check_sun_p_analogue(p: SymParams) -> CheckReport:
    """P_n(-r/d, x; q^d)  vs  sign * q^E * P_n(-r/d, x q^(-d); q^(-d)), odd n.

    P_n(alpha, x; Q) = Sum Q^(k^2+k) [alpha,k]_Q [-1-alpha,k]_Q (x;Q)_k / (Q;Q)_k.
    With alpha = -r/d, each side equals the side of Theorem 1.2 at the
    sun_p_x family f_k = q^k (x;q)_k / (q;q)_k as a rational function, so
    this is decided as that cell, the rescaled side of _thm_1_2, by thm1.1's
    kernel difference mirrored, as thm1.2 is.
    """
    _require(_odd_n(p.n))
    return _check("sun_p", p, _SUN_P_X, _thm_1_2)


def check_classical_sun(p: int, alpha: "Fraction | int | str") -> bool:
    """Sun's p^2 congruence for every p-integral sequence, decided in Z/p^2.

    Decides whether Sum C(alpha,k) C(-1-alpha,k) f_k for k < p differs from
    (-1)^<alpha>_p times the hatted sum by a rational of p-adic valuation
    at least 2, for every sequence f of p-integral rationals at once: the
    check reads no sequence.  alpha is refused as a sweep refuses a
    malformed alphas atom; it must be p-integral, and p an odd prime of at
    most MAX_CLASSICAL_P (_classical_p).

    With the halves w and c of _classical_halves, the plain sum is
    Sum_j w_j f_j and the hatted one Sum_k w_k hat(f)_k = Sum_j (-1)^j c_j f_j,
    so the difference is Sum_j (w_j - (-1)^<alpha>_p (-1)^j c_j) f_j.  Every
    f_j is p-integral, so it is 0 mod p^2 for every sequence exactly when
    each kernel entry is (f = the j-th unit vector), and that exactly when
    the exact difference has valuation at least 2."""
    alpha = _parse(Fraction, alpha, "alpha", "a fraction")
    bounded = None if p <= MAX_CLASSICAL_P else f"p must be at most {MAX_CLASSICAL_P}"
    _require(_classical_p(p, alpha) or bounded)
    a = alpha.numerator * pow(alpha.denominator, -1, p) % p  # <alpha>_p
    w, c = _classical_halves(p, alpha)
    return all((wj - (-1) ** (a + j) * cj) % (p * p) == 0 for j, (wj, cj) in enumerate(zip(w, c)))


def _classical_halves(p: int, alpha: Fraction) -> "tuple[list[int], list[int]]":
    """w_j = C(alpha, j) C(-1-alpha, j) and c_j = Sum_(j<=k<p) C(k, j) w_k
    mod p^2, for j < p.

    alpha is p-integral and k! is a unit for k < p, so each has a value mod
    p^2.  w_k = P_k / k!^2 with P_k = Prod_(i<k) (alpha - i)(-1 - alpha - i),
    and c_j j! = Sum_i (j+i)! w_(j+i) / i! is a correlation: the coefficient
    of q^(p-1-j) in one product of two p-term polynomials, A_k = k! w_k at
    q^(p-1-k) and 1/i! at q^i."""
    mod = p * p
    x = alpha.numerator * pow(alpha.denominator, -1, mod) % mod
    fact = 1
    for k in range(2, p):
        fact = fact * k % mod
    inv_fact = [1] * p  # 1/k! mod p^2: (p-1)! inverted once, then 1/(k-1)! = k/k!
    inv_fact[-1] = pow(fact, -1, mod)
    for k in range(p - 1, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % mod
    A, P = [], 1
    for k in range(p):
        A.append(P * inv_fact[k] % mod)
        P = P * (x - k) * (-1 - x - k) % mod
    prod = LaurentPoly((p - 1 - k, a) for k, a in enumerate(A)) * LaurentPoly(enumerate(inv_fact))
    w = [a * inv % mod for a, inv in zip(A, inv_fact)]
    c = [prod.coeff(p - 1 - j) * inv_fact[j] % mod for j in range(p)]
    return w, c


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
    invalid  (*args) -> why a sweep skips the cell (a hypothesis fails), or
             None: also for an ill-posed cell (not _posed), which run
             raises on and a sweep reports as an error record
    run      (*args) -> CheckReport; ill-posed arguments raise ValueError
    key      (*args) -> the tables run shares with other tasks, coarsest
             first; a sweep sorts its tasks by it.  key[0] is the block a
             sweep runs in one worker, key[:2] the unit it may cut a block
             beyond a process's share between: ((n, d), c, spec) for a
             statement (_statement_key: the block of its tails, the class
             of its kernel line, its weight spec), ((n,), j) for a lemma,
             whose Pochhammer products depend on (n, j) alone, ((), p) for
             classical, whose tasks share no table and run as one block,
             and ((n,),) by default.  Pure arithmetic on the arguments, so
             it never raises.
    cost     (*args) -> the exponent span run works over, from the arguments
             alone; `qcong verify` refuses a request above MAX_SPAN before it
             runs.  Required, so every entry states its charge.
    """

    args: tuple[str, ...]
    invalid: Callable[..., "str | None"]
    run: Callable[..., CheckReport]
    key: Callable[..., tuple] = lambda n, *args: ((n,),)
    cost: Callable[..., int] = field(kw_only=True)


def _kind(family: str) -> str:
    return FamilySpec.parse(family).kind


def _bool_report(check: str, holds, **params) -> CheckReport:
    """Time a bool-valued check and report it with its arguments as params."""
    started = time.perf_counter()
    result = holds(*params.values())
    return CheckReport(check, params, result, wall_time=time.perf_counter() - started)


CHECKS: dict[str, Check] = {
    "thm1.1": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d) or _polynomial(_kind(family), _RATIONAL_1_1) if _posed(n, d) else None,
        lambda n, d, r, family: check_thm_1_1(SymParams.create(n, d, r), family),
        lambda n, d, r, family: _statement_key(n, d, r),
        cost=lambda n, d, r, family: _transform_span(n, family),  # the full sides' span: the check transforms no entry
    ),
    "thm1.2": Check(
        ("n", "d", "r", "family"),
        lambda n, d, r, family: _coprime(n, d) if _posed(n, d) else None,
        lambda n, d, r, family: check_thm_1_2(SymParams.create(n, d, r), family),
        lambda n, d, r, family: _statement_key(n, d, r),
        cost=lambda n, d, r, family: _transform_span(n, family),
    ),
    "thm2.1": Check(
        ("n", "a", "s", "family"),
        lambda n, a, s, family: _a_in_range(n, a) or _polynomial(_kind(family)) if _posed(n) else None,
        lambda n, a, s, family: check_thm_2_1(AlphaParams.create(n, a, s), family),
        lambda n, a, s, family: _statement_key(n, 1, -a - s * n),
        cost=lambda n, a, s, family: _transform_span(n, family),
    ),
    "s0": Check(
        ("n", "a", "family"),
        lambda n, a, family: _a_in_range(n, a) or _polynomial(_kind(family), _RATIONAL_S0) if _posed(n) else None,
        lambda n, a, family: _bool_report("s0", check_s0_identity, n=n, a=a, family=family),
        cost=lambda n, a, family: _transform_span(n, family),
    ),
    "guo_zeng": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d) if _posed(n, d) else None,
        lambda n, d, r: check_guo_zeng(SymParams.create(n, d, r)),
        lambda n, d, r: _statement_key(n, d, r),
        cost=lambda n, d, r: _horner_span(n),
    ),
    "sun_p": Check(
        ("n", "d", "r"),
        lambda n, d, r: _coprime(n, d) or _odd_n(n) if _posed(n, d) else None,
        lambda n, d, r: check_sun_p_analogue(SymParams.create(n, d, r)),
        lambda n, d, r: _statement_key(n, d, r),
        cost=lambda n, d, r: _horner_span(n),
    ),
    "lemma-sn": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn", check_lemma_sn_binom, n=n, s=s, j=j),
        lambda n, s, j: ((n,), j),
        cost=lambda n, s, j: _qbinom_span(s * n, j),
    ),
    # holds at s = 0 as well, but sweeps pair it with lemma-sn and skip both there
    "lemma-sn-minus1": Check(
        ("n", "s", "j"),
        lambda n, s, j: _nonzero_s(s),
        lambda n, s, j: _bool_report("lemma-sn-minus1", check_lemma_sn_minus1, n=n, s=s, j=j),
        lambda n, s, j: ((n,), j),
        cost=lambda n, s, j: _qbinom_span(s * n - 1, j - 1),
    ),
    "even-sign": Check(
        ("n",),
        lambda n: _even_n(n) if _posed(n) else None,
        lambda n: _bool_report("even-sign", check_even_sign_fact, n=n),
        cost=lambda n: n,  # reduced mod Phi_n, like cyclotomic N
    ),
    "classical": Check(
        ("p", "alpha", "seed"),
        lambda p, alpha, seed: _classical_p(p, alpha),
        # seed names the record only: the check reads no sequence
        lambda p, alpha, seed: _bool_report("classical", lambda p, alpha, _seed: check_classical_sun(p, alpha),
                                            p=p, alpha=str(_parse(Fraction, alpha, "alpha", "a fraction")), seed=seed),
        lambda p, alpha, seed: ((), p),  # no table: one block of every classical task, cut between primes
        cost=lambda p, alpha, seed: 0,  # p is bounded by MAX_CLASSICAL_P
    ),
}
