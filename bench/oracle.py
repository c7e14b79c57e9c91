"""Known answers for the decide workload, computed without qcong.

Polynomials here are dense lists of ints, lowest degree first.  Phi_n is
built by the Moebius product prod_{d | n} (q^d - 1)^mu(n/d), a different
route from the recursive division qcong uses, and every residue is
reduced by plain long division by a monic integer polynomial.

Both residues the workload needs are multiples of Phi_n: a value Phi_n*g
is congruent mod Phi_n^2 to Phi_n*(g mod Phi_n), whose degree is below
2*phi(n), so that product is the canonical representative.
"""

from __future__ import annotations


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_monic(a: list[int], m: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic m."""
    a = list(a)
    dm = len(m) - 1
    quo = [0] * max(len(a) - dm, 1)
    for i in range(len(a) - 1, dm - 1, -1):
        t = a[i]
        if t:
            quo[i - dm] = t
            for k in range(dm + 1):
                a[i - dm + k] -= t * m[k]
    return quo, a[:dm]


def cyclotomic(n: int) -> list[int]:
    """Phi_n as a dense coefficient list."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _mul(num, factor)
            elif mu == -1:
                den = _mul(den, factor)
    quo, _ = _divmod_monic(num, den)
    while len(quo) > 1 and quo[-1] == 0:
        quo.pop()
    return quo


def phi_multiple_residue(n: int, g: list[int]) -> dict[int, int]:
    """Canonical residue of Phi_n*g mod Phi_n^2 as {exponent: coefficient}."""
    phi = cyclotomic(n)
    _, r = _divmod_monic(g, phi)
    return {e: c for e, c in enumerate(_mul(phi, r)) if c}


def bump_residue(n: int, c: int, j: int) -> dict[int, int]:
    """Residue of c*q^j*Phi_n mod Phi_n^2, j >= 0."""
    return phi_multiple_residue(n, [0] * j + [c])


def exponent_pair_residue(n: int, b: int, k: int) -> dict[int, int]:
    """Residue of k*q^b*(q^n - 1) mod Phi_n^2, 0 <= b."""
    cofactor, _ = _divmod_monic([-1] + [0] * (n - 1) + [1], cyclotomic(n))
    return phi_multiple_residue(n, [0] * b + [k * x for x in cofactor])
