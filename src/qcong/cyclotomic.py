"""Cyclotomic polynomials and the moduli built from their powers.

Phi_n is computed by the recursive exact division

    Phi_n(q) = (q^n - 1) / prod of Phi_d(q) over proper divisors d of n,

memoized per process.  The Moebius-product route lives in the test suite
as an independent oracle, not here.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly, exact_div, qpow


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def totient(n: int) -> int:
    """Euler's phi via the prime factorization of n."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, monic of degree totient(n)."""
    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    if n == 1:
        return qpow(1) - 1
    num = qpow(n) - 1
    for d in divisors(n):
        if d < n:
            num = exact_div(num, cyclotomic(d))
    return num


@lru_cache(maxsize=None)
def cyclotomic_power(n: int, m: int) -> LaurentPoly:
    """Phi_n(q)**m, the congruence modulus."""
    if m < 1:
        raise ValueError("cyclotomic_power requires m >= 1")
    return cyclotomic(n) ** m
