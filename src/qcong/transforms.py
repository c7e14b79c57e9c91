"""Hat and tilde binomial transforms of polynomial sequences.

hat:   f -> Sum_{j=0..k} (-1)^j q^C(j+1,2)      [k over j]_q f_j
tilde: f -> Sum_{j=0..k} (-1)^j q^(C(j,2) - kj) [k over j]_q f_j

Sequences are 0-indexed; entry k of the result uses f_0..f_k, so both
transforms are lower-triangular and length-preserving.  Entries may be
LaurentPoly, BiPoly, or RatExpr; rational sequences are first brought to
a common denominator and transformed on their numerators, which keeps
denominators from compounding across the sum.

The two transforms are exchanged by q -> 1/q: hat(f)_k at 1/q equals
tilde(g)_k where g_j = f_j(1/q).  hat_tilde_bridge_check verifies that
relation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bivariate import BiPoly, RatExpr
from .laurent import LaurentPoly, divides, exact_div
from .qcalc import gauss_binomial

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


def _hat_kernel(k: int, j: int) -> LaurentPoly:
    w = gauss_binomial(k, j).shift(j * (j + 1) // 2)
    return -w if j % 2 else w


def _tilde_kernel(k: int, j: int) -> LaurentPoly:
    w = gauss_binomial(k, j).shift(j * (j - 1) // 2 - k * j)
    return -w if j % 2 else w


def _apply(kernel, fs: Sequence) -> list:
    out = []
    for k in range(len(fs)):
        acc = kernel(k, 0) * fs[0]
        for j in range(1, k + 1):
            acc = acc + kernel(k, j) * fs[j]
        out.append(acc)
    return out


def common_denominator(fs: Sequence[RatExpr]) -> tuple[list, LaurentPoly]:
    """Rewrite f_j = num_j / den with one shared denominator.

    Folds the entry denominators left to right, dividing exactly whenever
    one denominator divides the running one (the usual case: nested
    Pochhammer denominators) and falling back to the product otherwise.
    """
    den = LaurentPoly.const(1)
    nums: list = []
    for f in fs:
        if f.den == den:
            nums.append(f.num)
        elif divides(den, f.den):
            scale = exact_div(f.den, den)
            nums = [nm * scale for nm in nums]
            den = f.den
            nums.append(f.num)
        elif divides(f.den, den):
            nums.append(f.num * exact_div(den, f.den))
        else:
            nums = [nm * f.den for nm in nums]
            nums.append(f.num * den)
            den = den * f.den
    return nums, den


def _transform(kernel, fs):
    if isinstance(fs, PolySeq):
        if fs.kind == RATIONAL:
            nums, den = common_denominator(fs.entries)
            out = [RatExpr(nm, den) for nm in _apply(kernel, nums)]
        else:
            out = _apply(kernel, fs.entries)
        return PolySeq(tuple(out), fs.kind)
    fs = list(fs)
    if fs and isinstance(fs[0], RatExpr):
        nums, den = common_denominator(fs)
        return [RatExpr(nm, den) for nm in _apply(kernel, nums)]
    return _apply(kernel, fs)


def hat(fs):
    """The hat transform; accepts a PolySeq or any sequence of entries."""
    return _transform(_hat_kernel, fs)


def tilde(fs):
    """The tilde transform; same conventions as hat."""
    return _transform(_tilde_kernel, fs)


def hat_tilde_bridge_check(fs) -> bool:
    """Exact check that hat(f) at 1/q equals tilde of (f at 1/q), entrywise.

    Univariate sequences only.
    """
    entries = list(fs.entries if isinstance(fs, PolySeq) else fs)
    for f in entries:
        if not isinstance(f, LaurentPoly):
            raise TypeError("bridge check is defined for univariate sequences")
    hatted = _apply(_hat_kernel, entries)
    flipped = _apply(_tilde_kernel, [f.substitute_power(-1) for f in entries])
    return all(h.substitute_power(-1) == t for h, t in zip(hatted, flipped))
