"""Polynomials in an auxiliary variable x over Laurent polynomials in q.

BiPoly stores a sparse map {x-degree: LaurentPoly}; x commutes with q and
is never substituted, so all arithmetic is coefficient-wise in x.  RatExpr
is an unreduced fraction whose numerator is either univariate or bivariate
and whose denominator is a nonzero LaurentPoly in q alone; equality and
congruence checks cross-multiply instead of normalizing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .laurent import LaurentPoly

_ZERO = LaurentPoly()
_ONE = LaurentPoly.const(1)


def _as_laurent(v) -> LaurentPoly | None:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentPoly.const(v)
    return None


class BiPoly:
    """Polynomial in x with LaurentPoly-in-q coefficients; immutable."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, LaurentPoly] | Iterable[tuple[int, LaurentPoly]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d: dict[int, LaurentPoly] = {}
        for j, c in items:
            if not isinstance(j, int) or j < 0:
                raise ValueError("x-degrees must be non-negative integers")
            lc = _as_laurent(c)
            if lc is None:
                raise TypeError(f"coefficient must be LaurentPoly or scalar, got {type(c).__name__}")
            if lc:
                prev = d.get(j)
                s = lc if prev is None else prev + lc
                if s:
                    d[j] = s
                else:
                    del d[j]
        self._coeffs = d

    @classmethod
    def _raw(cls, coeffs: dict[int, LaurentPoly]) -> "BiPoly":
        p = object.__new__(cls)
        p._coeffs = coeffs
        return p

    @classmethod
    def const(cls, c) -> "BiPoly":
        lc = _as_laurent(c)
        return cls._raw({0: lc} if lc else {})

    @classmethod
    def x_power(cls, j: int, coeff=1) -> "BiPoly":
        lc = _as_laurent(coeff)
        if j < 0:
            raise ValueError("x-degrees must be non-negative")
        return cls._raw({j: lc} if lc else {})

    # -- inspection -----------------------------------------------------

    @property
    def coeffs(self) -> dict[int, LaurentPoly]:
        return dict(self._coeffs)

    def coeff(self, j: int) -> LaurentPoly:
        return self._coeffs.get(j, _ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._coeffs == other._coeffs
        lc = _as_laurent(other)
        if lc is not None:
            return self._coeffs == ({0: lc} if lc else {})
        return NotImplemented

    def __hash__(self) -> int:
        c = self._coeffs
        if len(c) < 2 and (0 in c or not c):  # equal to its x^0 coefficient, so hashed as that
            return hash(c.get(0, _ZERO))
        return hash(frozenset(c.items()))  # each coefficient's hash is cached on it

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            lc = _as_laurent(other)
            if lc is None:
                return NotImplemented
            other = BiPoly.const(lc)
        out = dict(self._coeffs)
        for j, c in other._coeffs.items():
            s = out.get(j)
            s = c if s is None else s + c
            if s:
                out[j] = s
            else:
                del out[j]
        return BiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw({j: -c for j, c in self._coeffs.items()})

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            lc = _as_laurent(other)
            if lc is None:
                return NotImplemented
            other = BiPoly.const(lc)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return (-self) + other

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            out: dict[int, LaurentPoly] = {}
            for ja, ca in self._coeffs.items():
                for jb, cb in other._coeffs.items():
                    j = ja + jb
                    prod = ca * cb
                    s = out.get(j)
                    s = prod if s is None else s + prod
                    if s:
                        out[j] = s
                    else:
                        del out[j]
            return BiPoly._raw(out)
        lc = _as_laurent(other)
        if lc is None:
            return NotImplemented
        if not lc:
            return BiPoly._raw({})
        return BiPoly._raw({j: c * lc for j, c in self._coeffs.items()})

    __rmul__ = __mul__

    def substitute_power(self, t: int) -> "BiPoly":
        """q ↦ q**t on every coefficient, as LaurentPoly.substitute_power; x untouched."""
        if t == 1:
            return self
        return BiPoly._raw({j: c.substitute_power(t) for j, c in self._coeffs.items()})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(f"({self._coeffs[j]})*x^{j}" for j in sorted(self._coeffs))

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


PolyLike = Union[LaurentPoly, BiPoly]


class RatExpr:
    """Fraction num/den with den a nonzero LaurentPoly in q; never reduced.

    The numerator may be bivariate.  Addition cross-multiplies only when
    the denominators differ, so sums that share a denominator stay small.
    Equality is the cross-multiplied exact test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if not isinstance(num, (LaurentPoly, BiPoly)):
            raise TypeError(f"numerator must be LaurentPoly or BiPoly, got {type(num).__name__}")
        den_l = _as_laurent(den)
        if den_l is None:
            raise TypeError("denominator must be a LaurentPoly or scalar")
        if den_l.is_zero():
            raise ZeroDivisionError("zero denominator in RatExpr")
        self.num = num
        self.den = den_l

    def is_bivariate(self) -> bool:
        return isinstance(self.num, BiPoly)

    def __eq__(self, other: object) -> bool:
        other = as_ratexpr(other)
        if other is None:
            return NotImplemented
        a = self.num * other.den
        b = other.num * self.den
        if isinstance(a, BiPoly) != isinstance(b, BiPoly):
            a = a if isinstance(a, BiPoly) else BiPoly.const(a)
            b = b if isinstance(b, BiPoly) else BiPoly.const(b)
        return a == b

    def __hash__(self):
        raise TypeError("RatExpr is unhashable (equality is cross-multiplied)")

    def __add__(self, other) -> "RatExpr":
        other = as_ratexpr(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatExpr(self.num + other.num, self.den)
        return RatExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatExpr":
        return RatExpr(-self.num, self.den)

    def __sub__(self, other) -> "RatExpr":
        other = as_ratexpr(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatExpr":
        return (-self) + other

    def __mul__(self, other) -> "RatExpr":
        if isinstance(other, RatExpr):
            return RatExpr(self.num * other.num, self.den * other.den)
        if isinstance(other, BiPoly):
            return RatExpr(self.num * other, self.den)
        lc = _as_laurent(other)
        if lc is None:
            return NotImplemented
        return RatExpr(self.num * lc, self.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatExpr({str(self)!r})"


def as_ratexpr(v) -> RatExpr | None:
    """View a polynomial or scalar as a RatExpr over denominator 1."""
    if isinstance(v, RatExpr):
        return v
    if isinstance(v, (LaurentPoly, BiPoly)):
        return RatExpr(v)
    if isinstance(v, (int, Fraction)):
        return RatExpr(LaurentPoly.const(v))
    return None
