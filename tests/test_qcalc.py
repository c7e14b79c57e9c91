from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.bivariate import BiPoly
from qcong.laurent import LaurentPoly, one, q, qpow
from qcong.qcalc import gauss_binomial, q_int, qbinom_base, qbinom_int, qpoch, qpoch_x

from helpers import negative_top_qbinom, qpascal, terms_of


def test_q_int_small():
    assert q_int(0) == 0
    assert q_int(1) == one
    assert q_int(4) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})


@given(st.integers(min_value=-20, max_value=20))
def test_q_int_telescopes(n):
    assert q_int(n) * (one - q) == one - qpow(n)


def test_qpoch_direct_product():
    assert qpoch(1, 1, 0) == one
    assert qpoch(1, 1, 2) == (one - q) * (one - qpow(2))
    assert qpoch(2, 3, 3) == (one - qpow(2)) * (one - qpow(5)) * (one - qpow(8))
    assert qpoch(-1, 2, 2) == (one - qpow(-1)) * (one - q)


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.integers(min_value=0, max_value=6),
)
def test_qpoch_recurrence(r, d, k):
    assert qpoch(r, d, k + 1) == qpoch(r, d, k) * (one - qpow(r + k * d))


def test_qpoch_x_is_bivariate_product():
    p = qpoch_x(0, 2)
    assert isinstance(p, BiPoly)
    # (1 - x)(1 - x q) = 1 - (1 + q) x + q x^2
    assert p.coeff(0) == one
    assert p.coeff(1) == -(one + q)
    assert p.coeff(2) == q
    assert qpoch_x(0, 0) == BiPoly.const(1)


def test_qpoch_x_shift_offsets_every_factor():
    p = qpoch_x(2, 2)
    assert p.coeff(1) == -(qpow(2) + qpow(3))
    assert p.coeff(2) == qpow(5)


GAUSS_KNOWN = [
    (0, 0, one),
    (4, 2, LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})),
    (5, 1, q_int(5)),
    (6, 6, one),
]


@pytest.mark.parametrize("n,k,expected", GAUSS_KNOWN)
def test_gauss_binomial_known(n, k, expected):
    assert gauss_binomial(n, k) == expected


def test_gauss_binomial_matches_pascal_recurrence():
    for n in range(13):
        for k in range(n + 1):
            assert terms_of(gauss_binomial(n, k)) == qpascal(n, k), (n, k)


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14))
def test_gauss_binomial_symmetry_and_counting(n, k):
    if k > n:
        assert gauss_binomial(n, k) == 0
        return
    assert gauss_binomial(n, k) == gauss_binomial(n, n - k)
    assert sum(gauss_binomial(n, k).terms.values()) == comb(n, k)


def test_gauss_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        gauss_binomial(-1, 0)


def test_qbinom_int_extends_gauss():
    for n in range(9):
        for k in range(n + 1):
            assert qbinom_int(n, k) == gauss_binomial(n, k)
    assert qbinom_int(3, 5) == 0
    assert qbinom_int(5, -1) == 0
    assert qbinom_int(-4, -2) == 0
    assert qbinom_int(-7, 0) == one


def test_qbinom_int_negative_top_closed_form():
    for m in range(1, 9):
        for k in range(0, 9):
            assert qbinom_int(-m, k) == negative_top_qbinom(m, k), (m, k)


def test_qbinom_minus_one_top():
    for k in range(8):
        sign = -1 if k % 2 else 1
        assert qbinom_int(-1, k) == sign * qpow(-k * (k + 1) // 2)


@settings(max_examples=150)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_q_chu_vandermonde(a, b, k):
    total = LaurentPoly()
    for j in range(k + 1):
        total = total + (
            qbinom_int(b, j) * qbinom_int(a, k - j)
        ).shift((b - j) * (k - j))
    assert total == qbinom_int(a + b, k)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_negation_bridge(a, k):
    sign = -1 if a % 2 else 1
    lhs = sign * qbinom_int(-1 - k, a).shift(a * k + a * (a + 1) // 2)
    assert lhs == qbinom_int(a + k, a)


def test_qbinom_base_substitutes_power():
    for alpha in (-3, 2, 6):
        for k in range(0, 4):
            base = qbinom_int(alpha, k)
            assert qbinom_base(alpha, k, 3) == base.substitute_power(3)
    assert qbinom_base(5, 2, 1) == qbinom_int(5, 2)


def test_qbinom_base_rejects_zero_base():
    with pytest.raises(ValueError):
        qbinom_base(4, 2, 0)


def test_pochhammer_quotient_consistency():
    # the defining quotient: [alpha, k] * (q;q)_k == (q^(alpha-k+1);q)_k
    for alpha in range(-6, 7):
        for k in range(0, 7):
            got = qbinom_int(alpha, k) * qpoch(1, 1, k)
            assert got == qpoch(alpha - k + 1, 1, k), (alpha, k)
