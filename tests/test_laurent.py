import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcong.bivariate import BiPoly
from qcong.congruence import reduce
from qcong.cyclotomic import cyclotomic_power
from qcong.laurent import (
    LaurentPoly,
    divides,
    divrem,
    divrem_laurent,
    exact_div,
    ext_gcd,
    one,
    q,
    qpow,
    zero,
)

from helpers import dense_ext_gcd, dense_of, ref_mul, terms_of

coeffs = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
)

laurent_polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12), coeffs, max_size=8
).map(LaurentPoly)

int_polys = st.dictionaries(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=-30, max_value=30),
    max_size=7,
).map(LaurentPoly)

nonzero_int_polys = int_polys.filter(lambda p: not p.is_zero())


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, 0: Fraction(0)})
    assert p.terms == {1: 2}


def test_integral_fractions_normalize_to_int():
    p = LaurentPoly({2: Fraction(4, 2)})
    assert p.terms == {2: 2}
    assert type(p.coeff(2)) is int


def test_monomial_and_constants():
    assert qpow(0) == one
    assert qpow(1) == q
    assert zero.is_zero()
    assert LaurentPoly.const(0) == zero
    assert LaurentPoly.monomial(-3, 5) == 5 * qpow(-3)


def test_degree_valuation_leading():
    p = LaurentPoly({-2: 1, 5: -3})
    assert p.degree() == 5
    assert p.valuation() == -2
    assert p.terms[p.degree()] == -3
    with pytest.raises(ValueError):
        zero.degree()


@given(laurent_polys, laurent_polys)
def test_add_matches_reference(a, b):
    expected = {e: Fraction(c) for e, c in terms_of(a).items()}
    for e, c in terms_of(b).items():
        expected[e] = expected.get(e, Fraction(0)) + c
    expected = {e: c for e, c in expected.items() if c != 0}
    assert terms_of(a + b) == expected


@given(laurent_polys, laurent_polys)
def test_mul_matches_reference(a, b):
    assert terms_of(a * b) == ref_mul(terms_of(a), terms_of(b))


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@given(laurent_polys)
def test_negation_and_scalar_ops(a):
    assert -(-a) == a
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


def test_kronecker_path_agrees_with_schoolbook():
    # polynomials big enough that the packed-integer multiply kicks in
    a = LaurentPoly({i: (i * 7919) % 113 - 56 for i in range(90)})
    b = LaurentPoly({i: (i * 104729) % 97 - 48 for i in range(-40, 50)})
    assert terms_of(a * b) == ref_mul(terms_of(a), terms_of(b))


def test_kronecker_declined_for_fractions():
    a = LaurentPoly({i: Fraction(1, i + 2) for i in range(80)})
    b = LaurentPoly({i: 1 for i in range(80)})
    assert terms_of(a * b) == ref_mul(terms_of(a), terms_of(b))


@given(laurent_polys, st.integers(min_value=0, max_value=5))
def test_pow_is_repeated_multiplication(a, n):
    expected = one
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_pow_negative_only_for_unit_monomials():
    assert qpow(3) ** -2 == qpow(-6)
    assert (-q) ** -3 == -qpow(-3)
    with pytest.raises(ValueError):
        (one + q) ** -1


@given(laurent_polys, st.integers(min_value=-6, max_value=6))
def test_shift_multiplies_by_monomial(a, e):
    assert a.shift(e) == a * qpow(e)


@given(laurent_polys, st.integers(min_value=-3, max_value=3).filter(bool))
def test_substitute_power_is_a_homomorphism(a, t):
    """On a LaurentPoly and on a BiPoly (q only, x untouched) alike; t = 1 is the identity."""
    for p in (a, BiPoly({0: a, 2: a * q + one})):
        b = p * p + 3 * p
        assert b.substitute_power(t) == (
            p.substitute_power(t) * p.substitute_power(t) + 3 * p.substitute_power(t)
        )
        assert p.substitute_power(1) is p


@given(int_polys, nonzero_int_polys)
def test_divrem_round_trip(a, b):
    quot, rem = divrem(a, b)
    assert quot * b + rem == a
    assert rem.is_zero() or rem.degree() < b.degree()


@given(laurent_polys.filter(lambda p: not p.is_zero()), nonzero_int_polys)
def test_divrem_laurent_round_trip(a, b):
    quot, rem = divrem_laurent(a, b)
    assert quot * b + rem == a


@given(int_polys, nonzero_int_polys)
def test_divides_and_exact_div(a, b):
    prod = a * b
    assert divides(b, prod)
    if not a.is_zero():
        assert exact_div(prod, b) == a


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        exact_div(one + q, one - q)


@settings(max_examples=60)
@given(nonzero_int_polys, nonzero_int_polys)
def test_ext_gcd_bezout(a, b):
    g, u, v = ext_gcd(a, b)
    assert u * a + v * b == g
    assert divides(g, a) and divides(g, b)
    assert g.terms[g.degree()] == 1


def _of_degree(d):
    return st.tuples(st.lists(coeffs, min_size=d, max_size=d), coeffs.filter(bool)).map(
        lambda t: LaurentPoly(enumerate(t[0] + [t[1]])))


ordinary_polys = st.dictionaries(st.integers(min_value=0, max_value=8), coeffs, max_size=6).map(LaurentPoly)
euclid_pairs = st.tuples(
    st.one_of(
        st.tuples(ordinary_polys, ordinary_polys),
        st.integers(min_value=0, max_value=6).flatmap(lambda d: st.tuples(_of_degree(d), _of_degree(d))),
    ),
    st.one_of(st.just(one), ordinary_polys.filter(bool)),
).map(lambda t: (t[0][0] * t[1], t[0][1] * t[1]))


@settings(max_examples=150, deadline=None)
@given(euclid_pairs)
@example((zero, 3 * q + 1))
@example((Fraction(1, 2) * q, zero))
@example((q * q + 1, 2 * q * q - 3))
def test_ext_gcd_matches_the_dense_euclid_over_q(pair):
    """(g, u, v), exactly, against the Euclidean algorithm over Q on dense lists:
    zero operands, equal degrees and common factors included."""
    a, b = pair
    assume(a or b)
    expected = dense_ext_gcd(dense_of(a), dense_of(b))
    assert ext_gcd(a, b) == tuple(LaurentPoly(enumerate(x)) for x in expected)


def test_ext_gcd_with_large_coefficients_is_fast():
    """A residue of 1119 * prod (1 - c*q^e) with c = 10^20 + 7 against Phi_27^3,
    which the Euclidean algorithm over Q did not finish in 25 s."""
    p = LaurentPoly.const(1119)
    for e in (1, 2, 4, 5):
        p = p * (one - qpow(e) * (10**20 + 7))
    a, b = reduce(p, 27, 3).rep, cyclotomic_power(27, 3)
    started = time.perf_counter()
    g, u, v = ext_gcd(a, b)
    assert time.perf_counter() - started < 10
    assert u * a + v * b == g
    assert g.terms[g.degree()] == 1
    assert divides(g, a) and divides(g, b)


PARSE_CASES = [
    ("0", zero),
    ("1*q^0", one),
    ("-1*q^-2 + 3/2*q^0 + 1*q^3", LaurentPoly({-2: -1, 0: Fraction(3, 2), 3: 1})),
    ("2*q^1", 2 * q),
]


@pytest.mark.parametrize("text,poly", PARSE_CASES)
def test_parse_known_forms(text, poly):
    assert LaurentPoly.parse(text) == poly


@given(laurent_polys)
def test_str_parse_round_trip(a):
    assert LaurentPoly.parse(str(a)) == a


def test_str_is_canonical_ascending():
    p = LaurentPoly({3: 1, -2: -1, 0: Fraction(3, 2)})
    assert str(p) == "-1*q^-2 + 3/2*q^0 + 1*q^3"
    assert str(zero) == "0"


def test_parse_rejects_garbage():
    for bad in ("", "q^2", "1*q^2 - 1*q^0", "1*q^1.5", "+ 1*q^0"):
        with pytest.raises(ValueError):
            LaurentPoly.parse(bad)


def _equal_forms(p: LaurentPoly) -> list:
    """Values of other types equal to p: the BiPoly, and the scalar if p is constant."""
    forms = [p, BiPoly.const(p)]
    if p.terms.keys() <= {0}:
        forms += [p.coeff(0), Fraction(p.coeff(0))]
    return forms


# few terms of small degree, so that two draws are often equal
mixed_values = st.dictionaries(st.integers(min_value=-1, max_value=1), coeffs, max_size=2).map(
    LaurentPoly
).flatmap(lambda p: st.sampled_from(_equal_forms(p)))


# x-degrees 0..1 over the same small polynomials, so a draw is often x-free
bi_values = st.dictionaries(
    st.integers(min_value=0, max_value=1),
    st.dictionaries(st.integers(min_value=-1, max_value=1), coeffs, max_size=2).map(LaurentPoly),
    max_size=2,
).map(BiPoly)


@given(st.one_of(laurent_polys, mixed_values, bi_values), st.one_of(mixed_values, bi_values))
@example(LaurentPoly.const(2), 2)
@example(LaurentPoly.const(Fraction(1, 2)), Fraction(1, 2))
@example(zero, 0)
@example(BiPoly.const(2), LaurentPoly.const(2))
@example(BiPoly.const(q), q)
@example(BiPoly(), 0)
@example(LaurentPoly.const(-7), -7)
@example(LaurentPoly.const(2**70), 2**70)
@example(LaurentPoly.const(Fraction(-5, 3)), Fraction(-5, 3))
@example(q, q)
@example(LaurentPoly({-1: Fraction(1, 2), 0: 4}), 4)
@example(BiPoly({0: q + 3}), q + 3)
@example(BiPoly({0: LaurentPoly.const(Fraction(-5, 3))}), Fraction(-5, 3))
@example(BiPoly({1: q}), BiPoly.x_power(1, q))
@example(BiPoly({0: q, 1: one}), BiPoly.x_power(1) + q)
@example(BiPoly({0: zero, 1: zero}), 0)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)
    if isinstance(a, LaurentPoly):  # a constant (zero too) hashes as its scalar, the rest as their terms
        t = a.terms
        assert hash(a) == (hash(t.get(0, 0)) if t.keys() <= {0} else hash(frozenset(t.items())))
    if isinstance(a, BiPoly):  # one with an x^0 part alone hashes as that LaurentPoly, the rest by x-degree
        c = a.coeffs
        assert hash(a) == (hash(a.coeff(0)) if c.keys() <= {0} else hash(frozenset(c.items())))


def test_equality_against_scalars():
    assert LaurentPoly.const(5) == 5
    assert LaurentPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert one != 2
    assert q != 1
