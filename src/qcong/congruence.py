"""Congruence decisions modulo powers of cyclotomic polynomials.

Every decision is computed in the residue ring Q[q]/(Phi_n^m), whose
elements are dense coefficient lists of length m*phi(n), lowest degree
first.  Below them sits Q[q]/(q^n - 1)^m, which Phi_n^m divides, in
eps-coordinates: with eps = q^n - 1, every element is Sum_{i<m} eps^i T_i
for blocks T_i of n coefficients, and

    q^(a*n + b) == q^b * (1 + eps)^a == q^b * Sum_{i<m} C(a, i) eps^i   (mod eps^m),

the binomial series of (1 + eps)^a, which holds for a of either sign
because q^n is a unit.  A Laurent polynomial enters the ring in two
steps.  First it is folded: one pass over its terms adds C(a, i)*c to
T_i[b] for each term c*q^(a*n + b), so every residue class b mod n keeps
m running sums, and the T_i are taken back to coefficients in q once, a
Taylor shift of the blocks (_taylor) that leaves the unique representative
of degree below m*n.  This costs O(terms) whatever the exponents, so
q^(10^9) and q^(-10^9) never become dense lists.  Then one division leaves
the canonical representative.

A division is a remainder tower (von zur Gathen and Gerhard, "Modern
Computer Algebra", section 9): each stage divides by a monic multiple of
the next, so the remainders agree mod Phi_n^m.  The first stage reduces
the rows from m*n up by the sparse (q^n - 1)^m, whose m+1 terms give
q^(m*n) == -Sum_{i<m} C(m, i) (-1)^(m-i) q^(i*n), m operations a row.
When n is composite and not a prime power, a second sparse stage reduces
by ((q^n - 1)/(q^(n/p) - 1))^m, p the least prime factor of n, of degree
m*(n - n/p).  Only the rows left above m*phi(n) are divided by the dense
Phi_n^m: m*(n - phi(n)) of them, or m*(n - n/p - phi(n)) after the
second stage.  For prime n that is m rows, where the one-stage division took
m*phi(n) - 1 of them for a product of two residues.

A residue times a sparse Laurent polynomial costs no dense product: a term
c*q^(k*n + b) adds the shifted copies c*w_j*a at b + j*n, j < m, where
q^(k*n) == Sum_j w_j q^(j*n) mod (q^n - 1)^m is the same binomial series,
and the sum is divided once.  So a factor such as 1 - q^e or a monomial
costs O(m * m*phi(n)) operations before the division, whatever e is.
dot sums products of residues with a single division.  horner forms the
x-coefficients of sign * q^E * Sum_k q^(d*k) g_k (x; q^d)_k, d >= 1, n^2/2
monomial shifts, in eps-coordinates: q^(K*n + b) times an element rotates
each block T_i by b and multiplies by (1 + eps)^K, or (1 + eps)^(K+1) for
the b coefficients that wrap past q^n, which adds C(K, l) times T_(i-l) to
T_i.  So a shift is a block rotation and one combination per level below,
m*n coefficients a working x-coefficient whatever n is, and one helper
(_Ring._times_qpow) makes every such shift.  Each Horner step is one:
S <- S - q^(d*k) (x S - sign * g_k), the g_k taken into eps-coordinates
in one pass, so the side step q^(d*k) of g_k is the step's own shift.
The scale q^E is one more, on every result before they are taken out in
one, each then divided by the tower.  So a side step and a scale cost no
product of their own.  Residue.mirror is the one map
q -> 1/q: q^M times it, one fold and one division, by which a Theorem 1.2
difference is read off a Theorem 1.1 one (theorems).

The working ring for rational inputs is Q[q] localized at polynomials
coprime to Phi_n.  A fraction u/s with gcd(s, Phi_n) = 1 is divisible by
Phi_n^m there exactly when Phi_n^m divides u, so a congruence of two RatExpr
is decided on residues: numerators and denominators are reduced first and
only then cross-multiplied (or merely subtracted when the denominators
coincide).  A denominator is certified coprime to Phi_n by its residue mod
Phi_n being nonzero.  A denominator of 1 is neither certified nor inverted;
any other is certified once per (den, n, m) (_certify_den, which also keeps
the fact that den is not a unit, so that it raises on every call), since
every family and every r of an (n, d) share the full theorem sides'
(q^d;q^d)_(n-1)^2, and the theorem checks certify a rational family's
denominator there.  _residual_of is the residual of sides already
in the ring, a numerator difference by x-degree over one unit denominator
or over 1: residual uses it after _difference, and the theorem checks use
it on their residues directly.  Residuals and Residue.inverse invert a
reduced element by the extended Euclidean algorithm over Z[q] against the
monic Phi_n^m (laurent._int_euclid, shared with ext_gcd): the element's
denominators are cleared first, every remainder and cofactor is kept
primitive, and the sequence ends at a constant D, so the inverse is an
integer cofactor times one rational scale.  A residual takes that pair
from a second cache (_inverse), keyed on the certified residue, multiplies
by the integer cofactor and applies the scale last; a zero difference needs
no inverse, and one over 1 is its own representative.

Both caches, and theorems._ring_tails and theorems._poch_table, are kept
by _budgeted under one budget in coefficients (RING_BUDGET = 2^18, about
13 MB at 45-50 bytes a coefficient), least recently used first: an entry's
cost is known from its shape, and the newest entry stays even when it
alone is over the budget.
So small moduli keep every entry a workload reads, and a large one holds a
few.  The rings themselves are kept for 256 moduli (_ring).

Bivariate inputs are handled coefficient-wise in x.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from operator import add, mul, sub

from .bivariate import BiPoly, as_ratexpr
from .cyclotomic import cyclotomic_power
from .laurent import LaurentPoly, _as_laurent, _int_euclid, one, qpow

__all__ = [
    "NoncoprimeDenominatorError",
    "NotInvertibleError",
    "Residue",
    "reduce",
    "congruent",
    "dot",
    "horner",
    "reduce_by_degree",
    "residual",
]


class NotInvertibleError(ValueError):
    """The element shares a factor with the modulus; carries that gcd."""

    def __init__(self, message: str, gcd: LaurentPoly):
        super().__init__(message)
        self.gcd = gcd


class NoncoprimeDenominatorError(ValueError):
    """A denominator is divisible by Phi_n, so the congruence is ill-posed."""

    def __init__(self, den: LaurentPoly, n: int):
        super().__init__(f"denominator shares a factor with Phi_{n}: {den}")
        self.den = den
        self.n = n


def _check_modulus_params(n: int, m: int) -> None:
    if n < 2:
        raise ValueError("modulus requires n >= 2")
    if m < 1:
        raise ValueError("modulus requires m >= 1")


def _binomials(m: int, a: int) -> list:
    """C(a, i) for i < m, the generalized binomials for a < 0: the
    eps-coordinates of (1 + eps)^a mod eps^m."""
    out, binom = [], 1
    for i in range(m):
        out.append(binom)
        binom = binom * (a - i) // (i + 1)
    return out


def _taylor(levels: list, t: int) -> list:
    """The coefficients T_0..T_(m-1), equal-length lists, of p(x) = Sum_i x^i T_i,
    rewritten in place as those of p(x + t), t = +-1.  With x = q^n and
    eps = q^n - 1, t = 1 takes blocks of coefficients in q to
    eps-coordinates and t = -1 takes them back."""
    m, op = len(levels), add if t > 0 else sub
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):  # T_j += t * T_(j+1), top down
            levels[j] = list(map(op, levels[j], levels[j + 1]))
    return levels


@lru_cache(maxsize=1024)
def _shift(m: int, a: int) -> tuple:
    """The w_j, j < m, with q^(a*n) == Sum_j w_j q^(j*n) mod (q^n - 1)^m for
    every n: the binomial series Sum_{i<m} C(a, i) (q^n - 1)^i of
    (1 + (q^n - 1))^a, for a of either sign."""
    return tuple(level[0] for level in _taylor([[x] for x in _binomials(m, a)], -1))


def _below_lead(p: LaurentPoly) -> tuple:
    """(the (exponent, coefficient) pairs of the monic p below its leading term, its degree)."""
    deg = p.degree()
    return [(e, c) for e, c in sorted(p.terms.items()) if e < deg], deg


class _Ring:
    """The tables of Q[q]/(Phi_n^m): the stages of a division, each a monic
    modulus below its leading term, a multiple of the next one, and Phi_n^m
    last."""

    __slots__ = ("n", "m", "dim", "span", "stages")

    def __init__(self, n: int, m: int):
        modulus = cyclotomic_power(n, m)
        self.n, self.m, self.span = n, m, m * n
        self.dim = modulus.degree()
        # (q^n - 1)^m, then, for the least prime p | n, ((q^n - 1)/(q^(n/p) - 1))^m
        # unless that is Phi_n^m itself (n a prime power): both sparse
        p = next(p for p in range(2, n + 1) if n % p == 0)
        sparse = [(qpow(n) - 1) ** m, LaurentPoly({i * (n // p): 1 for i in range(p)}) ** m]
        self.stages = [_below_lead(t) for t in sparse if t.degree() > self.dim] + [_below_lead(modulus)]

    def fold(self, terms: dict) -> list:
        """Dense coefficients, below degree m*n, of a polynomial == Sum c*q^e mod
        (q^n - 1)^m, over the exponent -> coefficient map terms.

        With eps = q^n - 1, q^(a*n + b) == q^b * Sum_{i<m} C(a, i) eps^i, so in
        one pass over the terms each adds C(a, i)*c to T_i[b], i < m, and the
        element Sum_i eps^i T_i is taken out of eps-coordinates once at the
        end (_taylor).  No term looks up a table or branches on its exponent,
        and an element with T_0 alone, such as zero, one or a monomial below
        q^n, skips that step."""
        n, span = self.n, self.span
        out = [0] * (span + n)  # T_0..T_(m-1), and one block more, which takes T_1 when m = 1
        higher = range(2 * n, span, n)
        for e, c in terms.items():
            a, b = divmod(e, n)
            out[b] += c
            out[n + b] += a * c
            if higher:
                for j, binom in zip(higher, _binomials(self.m, a)[2:]):  # T_i[b] += C(a, i) * c
                    out[j + b] += binom * c
        del out[span:]
        if not any(out[n:]):  # T_0 alone: it is the element
            return out
        out, levels = [], _taylor([out[i:i + n] for i in range(0, span, n)], -1)
        for level in levels:
            out += level
        return out

    def divide(self, vec: list) -> list:
        """Remainder of the dense vec by Phi_n^m, computed in place, stage by
        stage: the rows from m*n up by the sparse (q^n - 1)^m, which Phi_n^m
        divides, and the rows left above m*phi(n) by Phi_n^m, after a sparse
        middle stage when n has one."""
        for modulus, deg in self.stages:
            for i in range(len(vec) - 1, deg - 1, -1):
                c = vec[i]
                if c:
                    base = i - deg
                    for e, mc in modulus:
                        vec[base + e] -= c * mc
            del vec[deg:]
        return vec

    def dot(self, pairs) -> list:
        """Sum a*b over the (a, b) pairs of residue lists, divided once.  The zero
        coefficients of each a are skipped, so the sparser factor goes first."""
        out = [0] * (2 * self.dim - 1)
        for a, b in pairs:
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        out[k] += x * y
        return self.divide(out)

    def mul(self, a: list, b: list) -> list:
        return self.dot(((a, b),))

    def mul_poly(self, a: list, p: LaurentPoly) -> list:
        """a * p by shifted copies of a, then one division: a term c*q^(k*n + b)
        adds c*w_j*a at b + j*n for the w of _shift(m, k), or c*a at k*n + b
        when 0 <= k < m, whatever the number of terms."""
        n, m = self.n, self.m
        out, top = [0] * (self.span + len(a) - 1), 0
        for e, c in p._terms.items():  # the map itself: LaurentPoly.terms would copy it
            k, b = divmod(e, n)
            if 0 <= k < m:  # q^e itself is below m*n: one copy, no series
                for i, y in enumerate(a, e):
                    out[i] += c * y
                top = max(top, e)
                continue
            for j, w in enumerate(_shift(m, k)):
                if w:
                    cw = c * w
                    for i, y in enumerate(a, b + j * n):
                        out[i] += cw * y
                    top = max(top, b + j * n)
        del out[top + len(a):]  # zero above the last copy: no division row scans it
        return self.divide(out)

    def _times_qpow(self, y: list, a: int) -> list:
        """The levels of q^a times the elements whose eps-coordinates are the
        levels y, mod eps^m, one element in each block of n coefficients;
        each level an iterable, for the caller to combine.  With
        a = K*n + b, each block is rotated by b; the b coefficients that wrap
        past q^n are times (1 + eps)^(K+1), the rest times (1 + eps)^K, which
        adds C(., d) times rotated level i - d to level i."""
        n = self.n
        K, b = divmod(a, n)
        binom, blocks = _binomials(len(y), K), len(y[0]) // n
        # each block rotated by b: the whole level, then the columns that crossed a block edge
        cut, wrong = (-b, range(b)) if 2 * b <= n else (n - b, range(b, n))
        rots = []
        for level in y:
            rot = level[cut:] + level[:cut]
            for o in wrong:
                rot[o::n] = level[(o - b) % n::n]
            rots.append(rot)
        out = []
        for i, rot in enumerate(rots):
            for d in range(1, i + 1):  # C(K + 1, d) = C(K, d) + C(K, d - 1) at the offsets below b
                w = ([binom[d] + binom[d - 1]] * b + [binom[d]] * (n - b)) * blocks
                rot = map(add, rot, map(mul, w, rots[i - d]))
            out.append(rot)
        return out

    def horner(self, g: list, d: int, scale: tuple = (0, 1)) -> list:
        """The x-coefficients of sign * q^E * Sum_k q^(d*k) g_k (x; q^d)_k, for
        residue lists g and scale = (E, sign), by Horner in x from the last k
        down, from S = 0: S <- S - q^(d*k) (x S - sign * g_k).

        The work is in eps-coordinates, eps = q^n - 1, exact mod eps^m, which
        Phi_n^m divides: an element is Sum_{i<m} eps^i T_i with blocks T_i of
        n coefficients.  y[i] holds level i of every x-coefficient, x^j in
        block j, and G[i] level i of every -sign * g_k, g_k in block k, taken
        into eps-coordinates in one pass.  x S - sign * g_k is then G's block
        k joined below y, and one block rotation with binomial carries
        (_times_qpow) multiplies it by q^(d*k): one shift a step, and one
        more for q^E on every x-coefficient at once before the one pass that
        takes them out.  Each is then divided by the tower, whose first stage
        is empty."""
        n, m, span = self.n, self.m, self.span
        E, sign = scale
        pad, zero = [0] * (span - self.dim), [0] * n
        G = [[] for _ in range(m)]  # G[i]: level i of every -sign * g_k, in block k
        for r in g:
            r = [-sign * x for x in r] + pad
            for i, level in enumerate(G):
                level += r[i * n:(i + 1) * n]
        _taylor(G, 1)
        y = [[] for _ in range(m)]
        for k in range(len(g) - 1, -1, -1):  # xs: x S - sign * g_k, its x^0 block -sign * g_k
            xs = [level[k * n:(k + 1) * n] + yi for level, yi in zip(G, y)]
            y = [list(map(sub, yi + zero, shifted)) for yi, shifted in zip(y, self._times_qpow(xs, d * k))]
        y = [list(level) for level in self._times_qpow(y, E)]
        _taylor(y, -1)
        out = []
        for j in range(0, len(y[0]), n):  # x^j: its block of each level
            v = []
            for level in y:
                v += level[j:j + n]
            out.append(self.divide(v))
        return out

    def inverse(self, a: list) -> tuple:
        """(s, scale) with s*scale the inverse of the residue list a: s is an
        integer list, so a product with it does no rational arithmetic until
        it is scaled.  Raises NotInvertibleError when gcd(a, Phi_n^m) != 1.

        laurent._int_euclid runs from (Phi_n^m, L*a), L the lcm of a's
        denominators, to a last remainder r == s*L*a mod Phi_n^m.  A constant
        r gives scale = L/r; otherwise r made monic is the gcd, the power of
        Phi_n dividing a.
        """
        tail, _ = self.stages[-1]
        modulus = [0] * self.dim + [1]
        for e, c in tail:
            modulus[e] = c
        lcm, r, s = _int_euclid(modulus, a)
        if len(r) > 1:
            gcd = LaurentPoly((e, Fraction(c, r[-1])) for e, c in enumerate(r))
            raise NotInvertibleError(f"not invertible mod Phi_{self.n}^{self.m}, gcd = {gcd}", gcd)
        scale = Fraction(lcm, r[0])
        return s + [0] * (self.dim - len(s)), scale.numerator if scale.denominator == 1 else scale


@lru_cache(maxsize=256)
def _ring(n: int, m: int) -> _Ring:
    """The tables of Q[q]/(Phi_n^m), kept for 256 moduli: the test suite
    reads 91, a benchmark round at most 22.  A ring built again after its
    eviction is another object, so _ring_of compares rings by (n, m)."""
    return _Ring(n, m)


def _ring_of(residues) -> _Ring:
    """The ring of a nonempty sequence of residues mod one Phi_n^m; mixed
    moduli raise ValueError."""
    ring = residues[0]._ring
    if any(r._ring is not ring and (r.n, r.m) != (ring.n, ring.m) for r in residues):
        raise ValueError("mixed moduli in Residue arithmetic")
    return ring


def _reduce_poly(p: LaurentPoly, n: int, m: int) -> list:
    """Coefficients of the canonical representative of p mod Phi_n^m: fold, then divide."""
    ring = _ring(n, m)
    return ring.divide(ring.fold(p._terms))  # the map itself: LaurentPoly.terms would copy it


class Residue:
    """An element of Q[q]/(Phi_n^m) by the m*phi(n) coefficients of its
    canonical representative, lowest degree first.  Made by reduce() and
    arithmetic on residues.

    The coefficients are kept in a list that no operation mutates: CPython
    keeps up to 2000 freed tuples of each small length for reuse, and the
    tuples that ring arithmetic sheds would hold that memory.
    """

    __slots__ = ("_ring", "_coeffs")

    def __init__(self, ring: _Ring, coeffs: list):
        self._ring, self._coeffs = ring, coeffs

    @property
    def coeffs(self) -> tuple:
        return tuple(self._coeffs)

    @property
    def n(self) -> int:
        return self._ring.n

    @property
    def m(self) -> int:
        return self._ring.m

    @property
    def rep(self) -> LaurentPoly:
        """The canonical representative, of degree below m*phi(n)."""
        return LaurentPoly(enumerate(self._coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Residue):
            return NotImplemented
        return (self.n, self.m, self._coeffs) == (other.n, other.m, other._coeffs)

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.coeffs))

    def __repr__(self) -> str:
        return f"Residue(n={self.n}, m={self.m}, rep={self.rep!r})"

    def _coerce(self, other) -> "list | None":
        if isinstance(other, Residue):
            if other._ring is not self._ring:  # the common case pays no _ring_of
                _ring_of((self, other))
            return other._coeffs
        other = _as_laurent(other)
        return None if other is None else _reduce_poly(other, self.n, self.m)

    def _zip(self, other, op):
        """op(x, y) for each coefficient x of self and y of other."""
        o = self._coerce(other)
        return NotImplemented if o is None else Residue(self._ring, list(map(op, self._coeffs, o)))

    def __add__(self, other):
        return self._zip(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, sub)

    def __rsub__(self, other):
        return self._zip(other, lambda x, y: y - x)

    def __neg__(self):
        return Residue(self._ring, [-x for x in self._coeffs])

    def mirror(self, M: int) -> "Residue":
        """q^M times the image of self under sigma: q -> 1/q, that is
        Sum c_i q^(M - i) over the coefficients c_i of the representative,
        by one fold and one division.  Phi_n is palindromic, so sigma maps
        the ideal (Phi_n^m) to itself and is an automorphism of the ring;
        mirroring twice at one M gives self back."""
        return Residue(self._ring, self._ring.divide(self._ring.fold({M - i: c for i, c in enumerate(self._coeffs)})))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):  # first: Fraction's isinstance goes through its ABC
            return Residue(self._ring, self._ring.mul_poly(self._coeffs, other))
        if isinstance(other, (int, Fraction)):
            return Residue(self._ring, [x * other for x in self._coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self._ring, self._ring.mul(self._coeffs, o))

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        """The u with u*self == 1, by the extended Euclidean algorithm over Z[q]
        against Phi_n^m (_Ring.inverse): an integer cofactor times one rational
        scale.  Raises NotInvertibleError, carrying gcd(self, Phi_n^m) made
        monic, when that gcd is not 1."""
        s, scale = self._ring.inverse(self._coeffs)
        return Residue(self._ring, [x * scale for x in s])

    def is_unit(self) -> bool:
        """True iff gcd(self, Phi_n) = 1, that is the residue is nonzero mod Phi_n."""
        return any(_ring(self.n, 1).divide(list(self._coeffs)))

    def is_zero(self) -> bool:
        return not any(self._coeffs)


def reduce(p: LaurentPoly, n: int, m: int = 1) -> Residue:
    """Canonical residue of p mod Phi_n^m; Laurent inputs allowed."""
    _check_modulus_params(n, m)
    if not isinstance(p, LaurentPoly):
        p = LaurentPoly.const(p)
    return Residue(_ring(n, m), _reduce_poly(p, n, m))


RING_BUDGET = 1 << 18
"""Coefficients that the tables kept by _budgeted hold together."""

BudgetInfo = namedtuple("BudgetInfo", "hits misses maxsize currsize cost")

_held = OrderedDict()  # (table, args) -> (value, cost), least recently used first
_spent = 0  # the total cost of _held


def _budgeted(cost):
    """Memoize a ring table, on positional arguments, under one budget in
    coefficients (RING_BUDGET) that every table it keeps shares.

    An entry costs cost(value, *args) coefficients, known from its shape
    without measuring memory.  A hit is a dict lookup and a move to the end.
    A miss stores the new entry, then evicts least recently used entries,
    of any table, until the total is within the budget; the new entry stays
    even when it alone is over it.  Each table keeps lru_cache's surface:
    cache_info() (hits, misses, maxsize = the budget, currsize and the
    table's cost) and cache_clear()."""
    def decorate(fn):
        counts = [0, 0]  # hits, misses

        @wraps(fn)
        def table(*args):
            global _spent
            key = (table, args)
            try:
                value = _held[key][0]
            except KeyError:
                pass
            else:
                _held.move_to_end(key)
                counts[0] += 1
                return value
            value = fn(*args)
            c = cost(value, *args)
            _held[key] = value, c
            counts[1] += 1
            _spent += c
            while _spent > RING_BUDGET and len(_held) > 1:
                _spent -= _held.popitem(last=False)[1][1]
            return value

        def cache_info() -> BudgetInfo:
            mine = [c for (owner, _), (_, c) in _held.items() if owner is table]
            return BudgetInfo(counts[0], counts[1], RING_BUDGET, len(mine), sum(mine))

        def cache_clear() -> None:
            global _spent
            for key in [key for key in _held if key[0] is table]:
                _spent -= _held.pop(key)[1]
            counts[:] = [0, 0]

        table.cache_info, table.cache_clear = cache_info, cache_clear
        return table

    return decorate


@_budgeted(lambda res, den, n, m: len(den) + _ring(n, m).dim)
def _certify_den(den: LaurentPoly, n: int, m: int) -> "Residue | None":
    """The residue of den mod Phi_n^m when den is coprime to Phi_n, else None.
    Kept per (den, n, m), so a denominator that every family and every r of
    an (n, d) share is reduced and certified once.  An entry holds den, so
    it costs den's terms and m*phi(n) coefficients of the budget
    (_budgeted); the 31 distinct denominators of a decide benchmark round
    cost about 1 500 in all."""
    res = reduce(den, n, m)
    return res if res.is_unit() else None


def _certified(den: LaurentPoly, n: int, m: int) -> "Residue | None":
    """den's certified residue (_certify_den), or None for den = 1, which is
    neither reduced nor cached.  A den that is not a unit raises, on every
    call."""
    if den == one:
        return None
    res = _certify_den(den, n, m)
    if res is None:
        raise NoncoprimeDenominatorError(den, n)
    return res


@_budgeted(lambda inverse, den: 2 * den._ring.dim)
def _inverse(den: Residue) -> tuple:
    """_Ring.inverse of a certified denominator, (s, scale), kept per residue:
    residual and the failing theorem checks invert each denominator once.
    An entry holds the residue and s, 2*m*phi(n) coefficients of the budget
    (_budgeted)."""
    return den._ring.inverse(den._coeffs)


def dot(pairs) -> Residue:
    """Sum a*b over (a, b) pairs of residues mod one Phi_n^m, with one division.

    The zero coefficients of each a are skipped, so the sparser factor goes first.
    """
    pairs = list(pairs)
    ring = _ring_of([r for pair in pairs for r in pair])
    return Residue(ring, ring.dot((a._coeffs, b._coeffs) for a, b in pairs))


def horner(g: list, d: int, scale: tuple = (0, 1)) -> list:
    """The x-coefficients of sign * q^E * Sum_k q^(d*k) g_k (x; q^d)_k, for
    residues g_k mod one Phi_n^m and scale = (E, sign), as residues
    (_Ring.horner)."""
    ring = _ring_of(g)
    return [Residue(ring, v) for v in ring.horner([r._coeffs for r in g], d, scale)]


def reduce_by_degree(num, n: int, m: int) -> dict[int, Residue]:
    """Residues of a numerator by x-degree; a univariate one sits at x^0."""
    if isinstance(num, BiPoly):
        return {j: reduce(c, n, m) for j, c in num.coeffs.items()}
    return {0: reduce(num, n, m)}


def _difference(lhs, rhs, n: int, m: int, who: str):
    """Residues of lhs - rhs: (x-degree -> numerator, denominator, bivariate?).

    The denominator is the certified residue of the sides' denominators
    (_certified), their product when they differ, and None when both are 1:
    polynomial and scalar sides are then neither certified nor inverted."""
    _check_modulus_params(n, m)
    left, right = as_ratexpr(lhs), as_ratexpr(rhs)
    if left is None or right is None:
        raise TypeError(f"{who} expects polynomial or rational operands")
    bivariate = left.is_bivariate() or right.is_bivariate()
    if left.den == right.den:
        return reduce_by_degree(left.num - right.num, n, m), _certified(left.den, n, m), bivariate
    lden, rden = _certified(left.den, n, m), _certified(right.den, n, m)
    lnum, rnum = reduce_by_degree(left.num, n, m), reduce_by_degree(right.num, n, m)
    zero = reduce(0, n, m)

    def over(num: Residue, den: "Residue | None") -> Residue:
        return num if den is None else num * den

    diff = {j: over(lnum.get(j, zero), rden) - over(rnum.get(j, zero), lden) for j in lnum.keys() | rnum.keys()}
    return diff, rden if lden is None else lden if rden is None else lden * rden, bivariate


def congruent(lhs, rhs, n: int, m: int) -> bool:
    """Decide lhs == rhs mod Phi_n^m.

    Inputs may be LaurentPoly, BiPoly, RatExpr, or scalars.  Denominators
    must be coprime to Phi_n (NoncoprimeDenominatorError otherwise, which
    is distinct from the congruence failing).  Bivariate differences are
    tested coefficient-wise in x.
    """
    diff, _, _ = _difference(lhs, rhs, n, m, "congruent")
    return all(r.is_zero() for r in diff.values())


def residual(lhs, rhs, n: int, m: int):
    """Canonical representative of lhs - rhs in Q[q]/(Phi_n^m).

    Returns a LaurentPoly for univariate inputs, or an x-degree -> residue
    map (nonzero entries only) for bivariate ones.  Zero / empty exactly
    when the congruence holds.
    """
    return _residual_of(*_difference(lhs, rhs, n, m, "residual"))


def _residual_of(diff: dict, den: "Residue | None", bivariate: bool):
    """residual's answer for the difference of two sides already in the ring:
    diff maps x-degree -> numerator residue, over the unit residue den, or
    over 1 when den is None.

    When every x-coefficient is zero the answer is zero, with no inverse.
    Over 1 it is each coefficient's canonical representative, with no
    inverse and no product.  Otherwise each coefficient is multiplied by the
    integer inverse of den (_inverse, computed once per denominator) and then
    by its scale."""
    if all(r.is_zero() for r in diff.values()):
        return {} if bivariate else LaurentPoly()
    if den is None:
        def times_inverse(r: Residue) -> LaurentPoly:
            return r.rep
    else:
        ring, (s, scale) = den._ring, _inverse(den)

        def times_inverse(r: Residue) -> LaurentPoly:
            a = r._coeffs  # the factor with more zero coefficients goes first
            pair = (a, s) if a.count(0) >= s.count(0) else (s, a)
            return LaurentPoly((e, c * scale) for e, c in enumerate(ring.dot((pair,))))

    if bivariate:
        return {j: times_inverse(r) for j, r in sorted(diff.items()) if not r.is_zero()}
    return times_inverse(diff[0])
