"""Congruence decisions modulo powers of cyclotomic polynomials.

Every decision is computed in the residue ring Q[q]/(Phi_n^m), whose
elements are dense coefficient lists of length m*phi(n), lowest degree
first.  A Laurent polynomial enters the ring in two stages.  First each
term is folded below degree m*n by the closed form

    q^(a*n + b) == q^b * Sum_{i<m} C(a, i) * (q^n - 1)^i   (mod (q^n - 1)^m),

the binomial series of (1 + (q^n - 1))^a, which holds for a of either sign
because q^n is a unit; Phi_n divides q^n - 1, so it holds mod Phi_n^m too.
This costs O(terms) whatever the exponents, so q^(10^9) and q^(-10^9)
never become dense lists.  Then one dense division by Phi_n^m, of length
at most max(m*n, 2*m*phi(n) - 1), leaves the canonical representative.

A residue times a sparse Laurent polynomial goes the same way: every
product of a coefficient with a term is folded, then divided once, so a
factor such as 1 - q^e or a monomial costs O(m*phi(n)) terms and no dense
product.  dot sums products of residues with a single division.

The working ring for rational inputs is Q[q] localized at polynomials
coprime to Phi_n.  A fraction u/s with gcd(s, Phi_n) = 1 is divisible by
Phi_n^m there exactly when Phi_n^m divides u, so a congruence of two RatExpr
is decided on residues: numerators and denominators are reduced first and
only then cross-multiplied (or merely subtracted when the denominators
coincide).  A denominator is certified coprime to Phi_n by its residue mod
Phi_n being nonzero.  Residuals and Residue.inverse invert a reduced
element by the extended Euclidean algorithm over Z[q] against the monic
Phi_n^m (laurent._int_euclid, shared with ext_gcd): the element's
denominators are cleared first, every remainder and cofactor is kept
primitive, and the sequence ends at a constant D, so the inverse is an
integer cofactor times one rational scale.  A residual multiplies by the
integer cofactor and applies the scale last.

Bivariate inputs are handled coefficient-wise in x.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bivariate import BiPoly, as_ratexpr
from .cyclotomic import cyclotomic_power
from .laurent import LaurentPoly, _int_euclid

__all__ = [
    "NoncoprimeDenominatorError",
    "NotInvertibleError",
    "Residue",
    "reduce",
    "invert",
    "congruent",
    "dot",
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


class _Ring:
    """The tables of Q[q]/(Phi_n^m): the modulus below its leading term and
    the expansions of (q^n - 1)^i, i < m, that the fold uses."""

    __slots__ = ("n", "m", "dim", "tail", "expand")

    def __init__(self, n: int, m: int):
        modulus = cyclotomic_power(n, m)
        self.n, self.m = n, m
        self.dim = modulus.degree()
        self.tail = [(e, c) for e, c in sorted(modulus.terms.items()) if e < self.dim]
        self.expand = [[(j * n, math.comb(i, j) * (-1) ** (i - j)) for j in range(i + 1)]
                       for i in range(m)]

    def fold(self, terms) -> list:
        """Dense coefficients, below degree m*n, of a polynomial == Sum c*q^e mod
        (q^n - 1)^m, over the (e, c) pairs of terms."""
        n, span = self.n, self.m * self.n
        out = [0] * span
        for e, c in terms:
            if 0 <= e < span:
                out[e] += c
                continue
            a, b = divmod(e, n)
            binom = 1  # C(a, i), the generalized binomial for a < 0
            for i, row in enumerate(self.expand):
                cb = c * binom
                for off, s in row:
                    out[off + b] += cb * s
                binom = binom * (a - i) // (i + 1)
        return out

    def divide(self, vec: list) -> list:
        """Remainder of the dense vec by Phi_n^m, computed in place."""
        dim, tail = self.dim, self.tail
        for i in range(len(vec) - 1, dim - 1, -1):
            c = vec[i]
            if c:
                base = i - dim
                for e, mc in tail:
                    vec[base + e] -= c * mc
        del vec[dim:]
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
        """a * p: each term of p shifts a through the fold, then one division.
        A p with more terms than the ring dimension is reduced first."""
        terms = p.terms
        if len(terms) > self.dim:
            return self.mul(self.divide(self.fold(terms.items())), a)
        return self.divide(self.fold((i + e, x * c) for e, c in terms.items()
                                     for i, x in enumerate(a) if x))

    def inverse(self, a: list) -> tuple:
        """(s, scale) with s*scale the inverse of the residue list a: s is an
        integer list, so a product with it does no rational arithmetic until
        it is scaled.  Raises NotInvertibleError when gcd(a, Phi_n^m) != 1.

        laurent._int_euclid runs from (Phi_n^m, L*a), L the lcm of a's
        denominators, to a last remainder r == s*L*a mod Phi_n^m.  A constant
        r gives scale = L/r; otherwise r made monic is the gcd, the power of
        Phi_n dividing a.
        """
        modulus = [0] * self.dim + [1]
        for e, c in self.tail:
            modulus[e] = c
        lcm, r, s = _int_euclid(modulus, a)
        if len(r) > 1:
            gcd = LaurentPoly((e, Fraction(c, r[-1])) for e, c in enumerate(r))
            raise NotInvertibleError(f"not invertible mod Phi_{self.n}^{self.m}, gcd = {gcd}", gcd)
        scale = Fraction(lcm, r[0])
        return s + [0] * (self.dim - len(s)), scale.numerator if scale.denominator == 1 else scale


@lru_cache(maxsize=None)
def _ring(n: int, m: int) -> _Ring:
    return _Ring(n, m)


def _reduce_poly(p: LaurentPoly, n: int, m: int) -> list:
    """Coefficients of the canonical representative of p mod Phi_n^m: fold, then divide."""
    ring = _ring(n, m)
    return ring.divide(ring.fold(p.terms.items()))


class Residue:
    """An element of Q[q]/(Phi_n^m) by the m*phi(n) coefficients of its
    canonical representative, lowest degree first.  Made by reduce(),
    invert() and arithmetic on residues.

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
            if (other.n, other.m) != (self.n, self.m):
                raise ValueError("mixed moduli in Residue arithmetic")
            return other._coeffs
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return _reduce_poly(other, self.n, self.m)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self._ring, [x + y for x, y in zip(self._coeffs, o)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self._ring, [x - y for x, y in zip(self._coeffs, o)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self._ring, [y - x for x, y in zip(self._coeffs, o)])

    def __neg__(self):
        return Residue(self._ring, [-x for x in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Residue(self._ring, [x * other for x in self._coeffs])
        if isinstance(other, LaurentPoly):
            return Residue(self._ring, self._ring.mul_poly(self._coeffs, other))
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


def invert(p: LaurentPoly, n: int, m: int = 1) -> Residue:
    """Residue u with u*p == 1 mod Phi_n^m; raises NotInvertibleError otherwise."""
    return reduce(p, n, m).inverse()


def _certify_den(den: LaurentPoly, n: int, m: int) -> Residue:
    """The residue of den mod Phi_n^m, once den is certified coprime to Phi_n."""
    res = reduce(den, n, m)
    if not res.is_unit():
        raise NoncoprimeDenominatorError(den, n)
    return res


def dot(pairs) -> Residue:
    """Sum a*b over (a, b) pairs of residues mod one Phi_n^m, with one division.

    The zero coefficients of each a are skipped, so the sparser factor goes first.
    """
    pairs = [(a._coeffs, b._coeffs, b._ring) for a, b in pairs]
    ring = pairs[0][2]
    if any(r is not ring for _, _, r in pairs):
        raise ValueError("mixed moduli in Residue arithmetic")
    return Residue(ring, ring.dot((a, b) for a, b, _ in pairs))


def reduce_by_degree(num, n: int, m: int) -> dict[int, Residue]:
    """Residues of a numerator by x-degree; a univariate one sits at x^0."""
    if isinstance(num, BiPoly):
        return {j: reduce(c, n, m) for j, c in num.coeffs.items()}
    return {0: reduce(num, n, m)}


def _difference(lhs, rhs, n: int, m: int, who: str):
    """Residues of lhs - rhs: (x-degree -> numerator, denominator, bivariate?)."""
    _check_modulus_params(n, m)
    left, right = as_ratexpr(lhs), as_ratexpr(rhs)
    if left is None or right is None:
        raise TypeError(f"{who} expects polynomial or rational operands")
    bivariate = left.is_bivariate() or right.is_bivariate()
    den = _certify_den(left.den, n, m)
    if left.den == right.den:
        return reduce_by_degree(left.num - right.num, n, m), den, bivariate
    rden = _certify_den(right.den, n, m)
    lnum, rnum = reduce_by_degree(left.num, n, m), reduce_by_degree(right.num, n, m)
    zero = reduce(0, n, m)
    diff = {j: lnum.get(j, zero) * rden - rnum.get(j, zero) * den for j in lnum.keys() | rnum.keys()}
    return diff, den * rden, bivariate


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
    diff, den, bivariate = _difference(lhs, rhs, n, m, "residual")
    ring = den._ring
    s, scale = ring.inverse(den._coeffs)

    def times_inverse(r: Residue) -> LaurentPoly:
        a = r._coeffs  # the factor with more zero coefficients goes first
        pair = (a, s) if a.count(0) >= s.count(0) else (s, a)
        return LaurentPoly((e, c * scale) for e, c in enumerate(ring.dot((pair,))))

    if bivariate:
        return {j: times_inverse(r) for j, r in sorted(diff.items()) if not r.is_zero()}
    return times_inverse(diff[0])
