import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcong.cyclotomic import cyclotomic, cyclotomic_power, divisors, totient
from qcong.laurent import LaurentPoly, one, q, qpow

from helpers import complex_eval, cyclotomic_by_mobius

KNOWN = {
    1: q - 1,
    2: q + 1,
    3: LaurentPoly({0: 1, 1: 1, 2: 1}),
    4: LaurentPoly({0: 1, 2: 1}),
    6: LaurentPoly({0: 1, 1: -1, 2: 1}),
    12: LaurentPoly({0: 1, 2: -1, 4: 1}),
}


@pytest.mark.parametrize("n,expected", sorted(KNOWN.items()))
def test_small_known_values(n, expected):
    assert cyclotomic(n) == expected


def test_matches_mobius_product_up_to_50():
    for n in range(1, 51):
        assert cyclotomic(n) == cyclotomic_by_mobius(n), n


def test_product_over_divisors_is_qn_minus_one():
    for n in range(1, 51):
        prod = one
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == qpow(n) - 1, n


def test_degree_is_totient():
    for n in range(1, 80):
        assert cyclotomic(n).degree() == totient(n)


def test_reciprocal_symmetry():
    # Phi_n(1/q) * q^phi(n) == Phi_n for every n >= 2
    for n in range(2, 51):
        p = cyclotomic(n)
        assert p.substitute_power(-1).shift(totient(n)) == p, n


def test_105_has_coefficient_minus_two():
    assert cyclotomic(105).coeff(7) == -2


def test_vanishes_only_at_primitive_roots():
    n = 12
    p = cyclotomic(n)
    for k in range(1, n + 1):
        z = cmath.exp(2j * cmath.pi * k / n)
        value = complex_eval(p, z)
        if math.gcd(k, n) == 1:
            assert abs(value) < 1e-9
        else:
            assert abs(value) > 1e-3


@given(st.integers(min_value=1, max_value=300))
def test_totient_against_gcd_count(n):
    assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@given(st.integers(min_value=1, max_value=400))
def test_divisors_complete_and_sorted(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_cyclotomic_power_is_plain_power():
    assert cyclotomic_power(5, 2) == cyclotomic(5) ** 2
    assert cyclotomic_power(9, 3) == cyclotomic(9) ** 3


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        cyclotomic(-3)
