"""Exact sparse Laurent polynomial arithmetic over the rationals.

A Laurent polynomial in q is stored as a map {exponent: coefficient} with
integer exponents (negative allowed) and exact rational coefficients.
Coefficients are plain ints whenever they are integral and
fractions.Fraction otherwise; zero coefficients are never stored.  Two
values are therefore equal iff their term maps are equal.

Values are immutable after construction and safe to share across threads.

Large products of integer-coefficient polynomials are multiplied by packing
the coefficients into a single big integer (Kronecker substitution), which
moves the inner loop into CPython's native bignum multiply; it serves the
full-polynomial statement sides, not the residue ring.  The sparse dict
product is kept for small or rational-coefficient operands; the two paths
are checked against each other in the test suite.  ext_gcd and the ring's
inverse share one integer remainder sequence, _int_euclid.

The canonical text form sorts terms by ascending exponent and writes every
coefficient and exponent explicitly, e.g. ``-1*q^-2 + 3/2*q^0 + 1*q^3``.
The zero polynomial prints as ``0``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

Scalar = int | Fraction

# term-pair count above which integer packing beats the sparse dict product
_KRONECKER_CUTOFF = 2048

_TERM_RE = re.compile(r"^(-?\d+(?:/-?\d+)?)\*q\^(-?\d+)$")


def _norm_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int; reject inexact types."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact rational coefficient required, got {type(c).__name__}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")  # _hash: set by the first __hash__ call

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[int, Scalar] = {}
        for e, c in items:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
            c = _norm_scalar(c)
            if c:
                d[e] = d.get(e, 0) + c
                if not d[e]:
                    del d[e]
        self._terms = d

    @classmethod
    def _raw(cls, terms: dict[int, Scalar]) -> "LaurentPoly":
        # trusted constructor: terms already canonical (no zeros, normalized scalars)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def const(cls, c: Scalar) -> "LaurentPoly":
        c = _norm_scalar(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LaurentPoly":
        coeff = _norm_scalar(coeff)
        return cls._raw({exponent: coeff} if coeff else {})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        """A copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("valuation of the zero polynomial is undefined")
        return min(self._terms)

    def coeff(self, exponent: int) -> Scalar:
        return self._terms.get(exponent, 0)

    def is_laurent(self) -> bool:
        """True when some exponent is negative."""
        return bool(self._terms) and min(self._terms) < 0

    def __len__(self) -> int:
        return len(self._terms)

    # -- equality -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: _norm_scalar(other)} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        try:  # computed once: the terms never change, and a large key's frozenset costs ms
            return self._hash
        except AttributeError:
            pass
        t = self._terms
        if len(t) < 2 and (0 in t or not t):  # a constant equals its scalar, so it hashes as one
            self._hash = hash(t.get(0, 0))
        else:
            self._hash = hash(frozenset(t.items()))
        return self._hash

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return LaurentPoly.const(other) - self

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = _norm_scalar(other)
            if not other:
                return _ZERO
            return LaurentPoly._raw({e: _norm_scalar(c * other) for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            (e, c), = a.items()
            return other.shift(e) if c == 1 else LaurentPoly._raw(
                {eb + e: _norm_scalar(cb * c) for eb, cb in b.items()})
        if len(b) == 1:
            (e, c), = b.items()
            return self.shift(e) if c == 1 else LaurentPoly._raw(
                {ea + e: _norm_scalar(ca * c) for ea, ca in a.items()})
        if len(a) * len(b) > _KRONECKER_CUTOFF:
            packed = _mul_kronecker(a, b)
            if packed is not None:
                return LaurentPoly._raw(packed)
        return LaurentPoly._raw(_mul_dict(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                (e, c), = self._terms.items()
                if c == 1 or c == -1:
                    return LaurentPoly._raw({e * n: c if n % 2 else 1})
            raise ValueError("negative powers are defined only for unit monomials")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by q**e (translate every exponent by e)."""
        if e == 0:
            return self
        return LaurentPoly._raw({ee + e: c for ee, c in self._terms.items()})

    def substitute_power(self, t: int) -> "LaurentPoly":
        """Return self(q**t); the exponent map e -> t*e.  t must be nonzero."""
        if t == 0:
            raise ValueError("substitute_power requires a nonzero power")
        if t == 1:
            return self
        return LaurentPoly._raw({e * t: c for e, c in self._terms.items()})

    # -- canonical text form ---------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{self._terms[e]}*q^{e}" for e in sorted(self._terms))

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form produced by str()."""
        text = text.strip()
        if text == "0":
            return _ZERO
        terms: dict[int, Scalar] = {}
        for part in text.split(" + "):
            m = _TERM_RE.match(part.strip())
            if m is None:
                raise ValueError(f"malformed polynomial term: {part!r}")
            c = Fraction(m.group(1))
            e = int(m.group(2))
            if e in terms:
                raise ValueError(f"duplicate exponent {e} in polynomial text")
            terms[e] = c
        return cls(terms)


def _mul_dict(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    if len(a) < len(b):
        a, b = b, a
    out: dict[int, Scalar] = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return {e: _norm_scalar(c) for e, c in out.items()}


def _mul_kronecker(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar] | None:
    """Integer-packed product; None when a coefficient is not an int."""
    maxa = maxb = 0
    for c in a.values():
        if not isinstance(c, int):
            return None
        if c < 0:
            c = -c
        if c > maxa:
            maxa = c
    for c in b.values():
        if not isinstance(c, int):
            return None
        if c < 0:
            c = -c
        if c > maxb:
            maxb = c
    va, da = min(a), max(a)
    vb, db = min(b), max(b)
    span = (da - va) + (db - vb) + 1
    # any output digit is a sum of <= min(len) products, split into two
    # nonnegative parts, so 2*min(len)*maxa*maxb bounds every packed digit
    bound = 2 * min(len(a), len(b)) * maxa * maxb + 1
    wbytes = (bound.bit_length() + 7) // 8
    apos, aneg = _pack_split(a, va, da, wbytes)
    bpos, bneg = _pack_split(b, vb, db, wbytes)
    plus = apos * bpos + aneg * bneg
    minus = apos * bneg + aneg * bpos
    out: dict[int, Scalar] = {}
    nbytes = span * wbytes
    pb = plus.to_bytes(nbytes, "little")
    mb = minus.to_bytes(nbytes, "little")
    base = va + vb
    from_bytes = int.from_bytes
    for i in range(span):
        lo = i * wbytes
        hi = lo + wbytes
        c = from_bytes(pb[lo:hi], "little") - from_bytes(mb[lo:hi], "little")
        if c:
            out[base + i] = c
    return out


def _pack_split(terms: dict[int, Scalar], val: int, deg: int, wbytes: int) -> tuple[int, int]:
    # split into nonnegative/negative parts, each packed little-endian
    pos = bytearray((deg - val + 1) * wbytes)
    neg = bytearray((deg - val + 1) * wbytes)
    for e, c in terms.items():
        off = (e - val) * wbytes
        if c > 0:
            pos[off:off + (c.bit_length() + 7) // 8] = c.to_bytes((c.bit_length() + 7) // 8, "little")
        else:
            c = -c
            neg[off:off + (c.bit_length() + 7) // 8] = c.to_bytes((c.bit_length() + 7) // 8, "little")
    return int.from_bytes(pos, "little"), int.from_bytes(neg, "little")


_ZERO = LaurentPoly._raw({})
_ONE = LaurentPoly._raw({0: 1})

zero = _ZERO
one = _ONE
q = LaurentPoly._raw({1: 1})


def qpow(e: int) -> LaurentPoly:
    """The monomial q**e."""
    return LaurentPoly._raw({e: 1})


# -- Euclidean layer (ordinary polynomials, non-negative exponents) -------


def _require_ordinary(p: LaurentPoly, who: str) -> None:
    if p.is_laurent():
        raise ValueError(f"{who} requires non-negative exponents; "
                         "shift the Laurent input by its valuation first")


def divrem(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder with a = quot*b + rem and deg rem < deg b.

    Defined on ordinary polynomials (no negative exponents); exact over the
    rationals.  Laurent callers shift by the valuation first (see
    divrem_laurent).
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _require_ordinary(a, "divrem")
    _require_ordinary(b, "divrem")
    if a.is_zero():
        return _ZERO, _ZERO
    da, db = a.degree(), b.degree()
    if da < db:
        return _ZERO, a
    # dense synthetic division; divisor terms below the lead, highest first
    rem: list[Scalar] = [0] * (da + 1)
    for e, c in a._terms.items():
        rem[e] = c
    lead = b._terms[db]
    btail = [(e, c) for e, c in b._terms.items() if e != db]
    quo: list[Scalar] = [0] * (da - db + 1)
    lead_is_one = lead == 1
    lead_is_neg_one = lead == -1
    for i in range(da, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        if lead_is_one:
            t = c
        elif lead_is_neg_one:
            t = -c
        else:
            t = _norm_scalar(Fraction(c) / lead)
        quo[i - db] = t
        for e, bc in btail:
            rem[i - db + e] -= t * bc
        rem[i] = 0
    q_terms = {i: _norm_scalar(c) for i, c in enumerate(quo) if c}
    r_terms = {i: _norm_scalar(c) for i, c in enumerate(rem[:db]) if c}
    return LaurentPoly._raw(q_terms), LaurentPoly._raw(r_terms)


def divrem_laurent(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """divrem wrapper accepting Laurent inputs.

    Both operands are shifted to ordinary polynomials by their valuations;
    the result satisfies a = quot*b + rem with rem a shift of the ordinary
    remainder.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return _ZERO, _ZERO
    va = min(a.valuation(), 0)
    vb = min(b.valuation(), 0)
    quot, rem = divrem(a.shift(-va), b.shift(-vb))
    return quot.shift(va - vb), rem.shift(va)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True when b divides a exactly (Laurent inputs allowed: units of q are ignored)."""
    if a.is_zero():
        return True
    _, rem = divrem_laurent(a, b)
    return rem.is_zero()


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b, asserting the division is exact."""
    quot, rem = divrem_laurent(a, b)
    if not rem.is_zero():
        raise ValueError("division is not exact")
    return quot


def _int_euclid(r0: list, r1: list) -> tuple:
    """The extended Euclidean algorithm over Z[q] on dense lists, lowest
    degree first, as a primitive remainder sequence (Collins, "Subresultants
    and reduced polynomial remainder sequences", JACM 14, 1967).

    r0 is an integer list; r1 is scaled by the lcm L of its denominators.
    Each remainder r is kept with its cofactor s, r == s*L*r1 mod r0.  A step
    takes r0 to f0*r0 - f1*q^sh*r1 with f0 = |c1|/g, f1 = sign(c1)*c0/g for
    the leading coefficients c0, c1 and g = gcd(c0, c1), so a leading +-1
    never rescales; each finished (remainder, cofactor) pair is divided by
    the gcd of all its coefficients.  So each remainder is a scalar multiple
    of the one the Euclidean algorithm over Q takes from (r0, r1).  Returns
    (L, r, s) for the last nonzero remainder r, a constant or else the gcd
    up to a scalar, and its cofactor s.
    """
    lcm = math.lcm(*(c.denominator for c in r1))
    r1 = [int(c * lcm) for c in r1]
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [1]
    while len(r1) > 1:
        c1, top = r1[-1], len(r1)
        while len(r0) >= top:
            c0 = r0[-1]
            g = math.gcd(c0, c1)
            f0, f1 = abs(c1) // g, (c0 if c1 > 0 else -c0) // g
            if f0 != 1:
                r0 = [f0 * x for x in r0]
                s0 = [f0 * x for x in s0]
            sh = len(r0) - top
            for i, y in enumerate(r1, sh):
                r0[i] -= f1 * y
            s0.extend([0] * (sh + len(s1) - len(s0)))
            for i, y in enumerate(s1, sh):
                s0[i] -= f1 * y
            while r0 and not r0[-1]:
                r0.pop()
        g = math.gcd(*r0, *s0)
        if g != 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    return (lcm, r1, s1) if r1 else (lcm, r0, s0)


def ext_gcd(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Extended gcd (g, u, v) with u*a + v*b = g and g monic.

    Ordinary polynomials only; at least one operand must be nonzero.
    _int_euclid runs from the operand of higher degree (a on ties), its
    denominators cleared, against the other, so it takes the steps of the
    Euclidean algorithm over Q; it gives g and the second operand's
    cofactor, and one exact division gives the first's.
    """
    _require_ordinary(a, "ext_gcd")
    _require_ordinary(b, "ext_gcd")
    if a.is_zero() and b.is_zero():
        raise ValueError("ext_gcd(0, 0) is undefined")
    swap = a.is_zero() or (not b.is_zero() and b.degree() > a.degree())
    x, y = (b, a) if swap else (a, b)
    dx, dy = ([p.coeff(i) for i in range(p.degree() + 1)] if p else [] for p in (x, y))
    lx = math.lcm(*(c.denominator for c in dx))
    lcm, r, s = _int_euclid([int(c * lx) for c in dx], dy)
    g = LaurentPoly((e, Fraction(c, r[-1])) for e, c in enumerate(r))
    v = LaurentPoly((e, Fraction(c * lcm, r[-1])) for e, c in enumerate(s))
    u = exact_div(g - v * y, x)
    return (g, v, u) if swap else (g, u, v)
