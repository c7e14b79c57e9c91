"""q-integers, q-Pochhammer products, and q-binomial coefficients.

The binomial with an arbitrary integer top is computed the same way for
every top: as the Pochhammer quotient (q^(alpha-k+1); q)_k / (q; q)_k,
with the exactness of the division asserted.  The closed negative-top
formula is deliberately not used here; it serves as the independent
oracle in the tests.
"""

from __future__ import annotations

from functools import lru_cache

from .bivariate import BiPoly
from .laurent import LaurentPoly, exact_div, one, qpow, zero


def q_int(n: int) -> LaurentPoly:
    """The q-integer [n]_q = (1 - q^n)/(1 - q) as a Laurent polynomial.

    For n >= 0 this is 1 + q + ... + q^(n-1); for negative n it equals
    -q^n - q^(n+1) - ... - q^(-1).
    """
    if n == 0:
        return zero
    if n > 0:
        return LaurentPoly({e: 1 for e in range(n)})
    return LaurentPoly({e: -1 for e in range(n, 0)})


def qpoch(r_exp: int, d: int, k: int) -> LaurentPoly:
    """The product (q^r_exp; q^d)_k = prod_{j=0..k-1} (1 - q^(r_exp + j*d))."""
    if k < 0:
        raise ValueError("qpoch length must be non-negative")
    if d == 0:
        raise ValueError("qpoch step must be nonzero")
    acc = one
    e = r_exp
    for _ in range(k):
        acc = acc * (one - qpow(e))
        e += d
    return acc


def qpoch_x(shift: int, k: int) -> BiPoly:
    """(x*q^shift; q)_k = prod_{j=0..k-1} (1 - x*q^(shift+j)) as a BiPoly."""
    if k < 0:
        raise ValueError("qpoch_x length must be non-negative")
    return qpoch_x_prefixes(shift, k + 1)[k]


def qpoch_x_prefixes(shift: int, n: int) -> list[BiPoly]:
    """(x*q^shift; q)_k for k < n, each one factor times the one before."""
    acc = [BiPoly.const(1)]
    for j in range(n - 1):
        acc.append(acc[-1] * BiPoly({0: one, 1: -qpow(shift + j)}))
    return acc


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int) -> LaurentPoly:
    """The Gaussian binomial [n over k]_q for n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("gauss_binomial requires n >= 0; use qbinom_int for negative tops")
    if k < 0 or k > n:
        return zero
    return _poch_quotient(n, min(k, n - k))


def _poch_quotient(alpha: int, k: int) -> LaurentPoly:
    """(q^(alpha-k+1); q)_k / (q; q)_k, the division asserted exact."""
    num = qpoch(alpha - k + 1, 1, k)
    if num.is_zero():
        return zero
    return exact_div(num, qpoch(1, 1, k))


def qbinom_int(alpha: int, k: int) -> LaurentPoly:
    """[alpha over k]_q for any integer alpha, as an exact Laurent polynomial.

    Zero when k < 0.  The quotient (q^(alpha-k+1); q)_k / (q; q)_k is always
    exact; a nonzero remainder would be an invariant violation and raises.
    """
    if k < 0:
        return zero
    if k == 0:
        return one
    if alpha >= 0:
        return gauss_binomial(alpha, k)
    return _poch_quotient(alpha, k)


def qbinom_base(alpha: int, k: int, d: int) -> LaurentPoly:
    """[alpha over k] in base q^d: qbinom_int followed by q -> q^d."""
    if d == 0:
        raise ValueError("base exponent must be nonzero")
    return qbinom_int(alpha, k).substitute_power(d)
