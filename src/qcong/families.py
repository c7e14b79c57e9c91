"""Named generators of f-sequences for the theorem checks.

Family grammar (used verbatim on the command line and in reports):

    ones                          f_k = 1
    delta:M                       f_k = 1 if k == M else 0
    monomial_q:C                  f_k = q^(C*k)
    random_poly:SEED:DEGMAX       f_k = random integer polynomial, degree <= DEGMAX
    random_poly:SEED:DEGMAX:BOUND same with coefficients in [-BOUND, BOUND]
    monomial_x                    f_k = x^k                      (bivariate)
    sun_p_x                       f_k = q^k (x;q)_k / (q;q)_k    (rational)

Each family is defined by its one _FAMILIES row: the least and most number
of parameters, the kind, and entries(n, *args), which builds f_0..f_{n-1}.
FamilySpec checks a label against the row, and generate calls its entries.

Random coefficients come from SplitMix64, a fixed 64-bit generator chosen
for its platform-independent definition: the sequence below is part of the
report format, not an implementation detail free to drift.  Coefficients
are drawn row by row, k = 0..n-1 outer, exponent i = 0..DEGMAX inner, each
as (next() mod (2*BOUND+1)) - BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

from .bivariate import BiPoly, RatExpr
from .laurent import LaurentPoly, clipped, digits_past_limit, one, qpow, zero
from .qcalc import qpoch_x_prefixes
from .transforms import BIVARIATE, RATIONAL, UNIVARIATE, PolySeq

DEFAULT_COEFF_BOUND = 9

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator: a 64-bit state advanced by a fixed odd gamma."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [-bound, bound] (modulo bias is irrelevant here)."""
        return self.next_u64() % (2 * bound + 1) - bound


def _random_poly(n: int, seed: int, degmax: int, bound: int = DEFAULT_COEFF_BOUND) -> list:
    rng = SplitMix64(seed)
    return [LaurentPoly({i: rng.next_int(bound) for i in range(degmax + 1)}) for _ in range(n)]


def _sun_p_x(n: int) -> list:
    # (q;q)_k as prefix products, one factor (1 - q^k) times the one before
    dens = accumulate((one - qpow(k) for k in range(1, n)), mul, initial=one)
    return [RatExpr(px * qpow(k), den) for k, (px, den) in enumerate(zip(qpoch_x_prefixes(0, n), dens))]


# name -> (least parameters, most parameters, kind, entries(n, *args))
_FAMILIES = {
    "ones": (0, 0, UNIVARIATE, lambda n: [one] * n),
    "delta": (1, 1, UNIVARIATE, lambda n, m: [one if k == m else zero for k in range(n)]),
    "monomial_q": (1, 1, UNIVARIATE, lambda n, c: [qpow(c * k) for k in range(n)]),
    "random_poly": (2, 3, UNIVARIATE, _random_poly),
    "monomial_x": (0, 0, BIVARIATE, lambda n: [BiPoly.x_power(k) for k in range(n)]),
    "sun_p_x": (0, 0, RATIONAL, _sun_p_x),
}


@dataclass(frozen=True)
class FamilySpec:
    name: str
    args: tuple[int, ...] = ()

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown family {clipped(repr(self.name))}")
        lo, hi = _FAMILIES[self.name][:2]
        if not lo <= len(self.args) <= hi:
            raise ValueError(f"family {self.name} takes {lo}..{hi} parameters, got {len(self.args)}")
        if self.name == "delta" and self.args[0] < 0:
            raise ValueError("delta index must be non-negative")
        if self.name == "random_poly":
            if self.args[1] < 0:
                raise ValueError("random_poly degree bound must be non-negative")
            if len(self.args) == 3 and self.args[2] < 1:
                raise ValueError("random_poly coefficient bound must be at least 1")

    @classmethod
    @lru_cache(maxsize=256)
    def parse(cls, text: str) -> "FamilySpec":
        """The spec of a label.  Memoized: a spec is immutable, so every check
        of one label shares one; a malformed label is not cached and raises on
        every call."""
        parts = text.strip().split(":")
        name = parts[0]
        try:
            args = tuple(int(p) for p in parts[1:])
        except ValueError:
            long = digits_past_limit(":".join(parts[1:]))
            raise ValueError(f"family {clipped(name)}: {long}" if long
                             else f"malformed family parameter in {clipped(repr(text))}") from None
        return cls(name, args)

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        """The label, joined on first read: parse shares one spec per label, so
        every check of a sweep cell reads it from here."""
        return ":".join([self.name, *map(str, self.args)])

    @property
    def kind(self) -> str:
        return _FAMILIES[self.name][2]


def generate(fam: "FamilySpec | str", n: int) -> PolySeq:
    """The sequence f_0..f_{n-1} for a family; n >= 2."""
    if isinstance(fam, str):
        fam = FamilySpec.parse(fam)
    if n < 2:
        raise ValueError("families generate sequences of length n >= 2")
    return PolySeq(tuple(_FAMILIES[fam.name][3](n, *fam.args)), fam.kind)
