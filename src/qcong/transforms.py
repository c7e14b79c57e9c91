"""Hat and tilde binomial transforms of polynomial sequences.

hat:   f -> Sum_{j=0..k} (-1)^j q^C(j+1,2)      [k over j]_q f_j
tilde: f -> Sum_{j=0..k} (-1)^j q^(C(j,2) - kj) [k over j]_q f_j

Sequences are 0-indexed; entry k of the result uses f_0..f_k, so both
transforms are lower-triangular and length-preserving.  Entries may be
LaurentPoly, BiPoly, or RatExpr; rational sequences are first brought to
a common denominator and transformed on their numerators, which keeps
denominators from compounding across the sum.

By q-Pascal, [k over j] = [k-1 over j] + q^(k-j) [k-1 over j-1]
= q^j [k-1 over j] + [k-1 over j-1], so with the shift (Sf)_j = f_(j+1):

hat_k(f)   = hat_(k-1)(f)   - q^k    hat_(k-1)(Sf)
tilde_k(f) = tilde_(k-1)(f) - q^(-k) tilde_(k-1)(Sf)

One row, row_0 = f and row_k[m] = row_(k-1)[m] - q^(+-k) row_(k-1)[m+1],
gives output k as row_k[0]: no Gaussian binomial, and no multiplication
but by the monomial q^(+-k).

The two transforms are exchanged by q -> 1/q: hat(f)_k at 1/q equals
tilde(g)_k where g_j = f_j(1/q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bivariate import BiPoly, RatExpr
from .laurent import LaurentPoly, divides, exact_div, qpow

UNIVARIATE = "univariate"
BIVARIATE = "bivariate"
RATIONAL = "rational"


@dataclass(frozen=True)
class PolySeq:
    """An f_0..f_{L-1} sequence with its variable tag."""

    entries: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in (UNIVARIATE, BIVARIATE, RATIONAL):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if len(self.entries) < 1:
            raise ValueError("a sequence needs at least one entry")
        want = {UNIVARIATE: LaurentPoly, BIVARIATE: BiPoly, RATIONAL: RatExpr}[self.kind]
        for f in self.entries:
            if not isinstance(f, want):
                raise TypeError(f"{self.kind} sequence entry of type {type(f).__name__}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)


def _pascal(fs: Sequence, sign: int) -> list:
    """Outputs 0..L-1 of the recurrence; sign 1 gives hat and -1 tilde."""
    row = list(fs)
    out = row[:1]
    for k in range(1, len(row)):
        step = qpow(sign * k)
        row = [a - b * step for a, b in zip(row, row[1:])]
        out.append(row[0])
    return out


def shared_denominator(fs: Sequence[RatExpr]) -> LaurentPoly:
    """The one denominator of common_denominator, without the numerators.

    Folds the entry denominators left to right, taking the entry's whenever
    the running one divides it (the usual case: nested Pochhammer
    denominators), keeping the running one when the entry's divides it,
    and falling back to the product otherwise.
    """
    den = LaurentPoly.const(1)
    for f in fs:
        if f.den == den:
            continue
        if divides(den, f.den):
            den = f.den
        elif not divides(f.den, den):
            den = den * f.den
    return den


def common_denominator(fs: Sequence[RatExpr]) -> tuple[list, LaurentPoly]:
    """Rewrite f_j = num_j / den with one shared denominator, that of
    shared_denominator: num_j = f_j.num * (den / f_j.den).  Every f_j.den
    divides den up to a power of q, so the quotient is taken with both at
    valuation 0 and shifted back."""
    den = shared_denominator(fs)
    v = den.valuation()
    nums = []
    for f in fs:
        if f.den == den:
            nums.append(f.num)
        else:
            w = f.den.valuation()
            nums.append(f.num * exact_div(den.shift(-v), f.den.shift(-w)).shift(v - w))
    return nums, den


def _transform(fs, sign: int):
    entries = list(fs)
    if entries and isinstance(entries[0], RatExpr):
        nums, den = common_denominator(entries)
        out = [RatExpr(nm, den) for nm in _pascal(nums, sign)]
    else:
        out = _pascal(entries, sign)
    return PolySeq(tuple(out), fs.kind) if isinstance(fs, PolySeq) else out


def hat(fs):
    """The hat transform; accepts a PolySeq or any sequence of entries."""
    return _transform(fs, 1)


def tilde(fs):
    """The tilde transform; same conventions as hat."""
    return _transform(fs, -1)
