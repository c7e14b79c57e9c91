"""Polynomials in an auxiliary variable x over Laurent polynomials in q.

BiPoly stores a sparse map {x-degree: LaurentPoly}; x commutes with q and
is never substituted, so all arithmetic is coefficient-wise in x.  Its sum,
product and hash are laurent's term-map rules (_merge, _mul_dict,
_hash_terms) applied to that map, and a LaurentPoly or scalar operand is
taken by laurent's one coercion (_as_laurent); only negation and the
scalar product are written here.

RatExpr is an unreduced fraction whose numerator is either univariate or
bivariate and whose denominator is a nonzero LaurentPoly in q alone;
equality and congruence checks cross-multiply instead of normalizing.  It
supports +, * by a RatExpr, LaurentPoly or scalar, and ==; it has no
subtraction, negation or BiPoly factor, since congruence subtracts the
numerators of two sides itself.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .laurent import LaurentPoly, _as_laurent, _hash_terms, _merge, _mul_dict, one, zero


def _as_bipoly(v) -> "BiPoly | None":
    if isinstance(v, BiPoly):
        return v
    lc = _as_laurent(v)
    return None if lc is None else BiPoly.const(lc)


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
        return cls.x_power(0, c)

    @classmethod
    def x_power(cls, j: int, coeff=1) -> "BiPoly":
        if j < 0:
            raise ValueError("x-degrees must be non-negative")
        return cls({j: coeff})

    # -- inspection -----------------------------------------------------

    @property
    def coeffs(self) -> dict[int, LaurentPoly]:
        return dict(self._coeffs)

    def coeff(self, j: int) -> LaurentPoly:
        return self._coeffs.get(j, zero)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        other = _as_bipoly(other)
        return NotImplemented if other is None else self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return _hash_terms(self._coeffs)  # each coefficient's hash is cached on it

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = _as_bipoly(other)
        return NotImplemented if other is None else BiPoly._raw(_merge(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw({j: -c for j, c in self._coeffs.items()})

    def __sub__(self, other) -> "BiPoly":
        other = _as_bipoly(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = _as_bipoly(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return BiPoly._raw(_mul_dict(self._coeffs, other._coeffs))
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


class RatExpr:
    """Fraction num/den with den a nonzero LaurentPoly in q; never reduced.

    The numerator may be bivariate.  Addition cross-multiplies only when
    the denominators differ, so sums that share a denominator stay small.
    Equality is the cross-multiplied exact test; a LaurentPoly product on
    one side and a BiPoly on the other compare by BiPoly.__eq__.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=one):
        self.num = num if isinstance(num, BiPoly) else _as_laurent(num)
        if self.num is None:
            raise TypeError(f"numerator must be LaurentPoly or BiPoly, got {type(num).__name__}")
        self.den = _as_laurent(den)
        if self.den is None:
            raise TypeError("denominator must be a LaurentPoly or scalar")
        if not self.den:
            raise ZeroDivisionError("zero denominator in RatExpr")

    def is_bivariate(self) -> bool:
        return isinstance(self.num, BiPoly)

    def __eq__(self, other: object) -> bool:
        other = as_ratexpr(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

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

    def __mul__(self, other) -> "RatExpr":
        if isinstance(other, RatExpr):
            return RatExpr(self.num * other.num, self.den * other.den)
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
    num = v if isinstance(v, BiPoly) else _as_laurent(v)
    return None if num is None else RatExpr(num)
