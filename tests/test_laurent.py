import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcong import laurent
from qcong.bivariate import BiPoly, RatExpr
from qcong.congruence import reduce
from qcong.qcalc import qpoch
from qcong.cyclotomic import cyclotomic_power, divisors, totient
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

from helpers import dense_ext_gcd, dense_of, ref_add, ref_mul, terms_of

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


@pytest.fixture
def packed(monkeypatch):
    """The products that took the packed path, as (len a, len b) pairs."""
    calls = []

    def counting(a, b):
        out = real(a, b)
        if out is not None:
            calls.append((len(a), len(b)))
        return out

    real = laurent._mul_kronecker
    monkeypatch.setattr(laurent, "_mul_kronecker", counting)
    return calls


def test_kronecker_path_agrees_with_schoolbook(packed):
    # polynomials big enough that the packed-integer multiply kicks in
    a = LaurentPoly({i: (i * 7919) % 113 - 56 for i in range(90)})
    b = LaurentPoly({i: (i * 104729) % 97 - 48 for i in range(-40, 50)})
    assert terms_of(a * b) == ref_mul(terms_of(a), terms_of(b))
    assert packed == [(len(a), len(b))]


def _int_laurent(min_size, max_size, top):
    coefficient = st.integers(min_value=-(2**200), max_value=2**200) | st.integers(-9, 9)
    return st.dictionaries(st.integers(-40, top), coefficient,
                           min_size=min_size, max_size=max_size).map(LaurentPoly)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(_int_laurent(1, 20, 40), _int_laurent(12, 80, 120)),  # short x long
    st.tuples(_int_laurent(8, 16, 0), _int_laurent(8, 16, 0)),       # dense, near the cutoff
    st.tuples(_int_laurent(12, 30, 2000), _int_laurent(12, 30, 40)),  # sparse: wide spans
))
def test_products_on_both_sides_of_the_packing_rule_match_the_schoolbook(pair):
    a, b = pair
    assert terms_of(a * b) == ref_mul(terms_of(a), terms_of(b))
    assert terms_of(b * a) == ref_mul(terms_of(a), terms_of(b))


@pytest.mark.parametrize("k", [7, 8, 15, 63, 64, 127])
def test_packed_digits_at_the_edge_of_their_width(k, packed):
    # times a unit monomial every digit is +-(2^k - 1), the most a width of
    # (k + 8) // 8 bytes holds when k + 1 is a multiple of 8
    top = 2**k - 1
    for a in ({i: -top for i in range(40)}, {i: (1 - 2 * (i % 2)) * top for i in range(-20, 20)},
              {i: (1 - 2 * (i // 3 % 2)) * top for i in range(30)}):
        for b in ({0: 1}, {0: -1}, {7: -1}):
            assert laurent._mul_kronecker(a, b) == ref_mul(a, b)
    # mixed signs through the public product: a_i * a_(j-i) = (-1)^j, so the
    # middle digit of this square is 127 = 2^7 - 1, the edge of one byte
    alt = LaurentPoly({i: (-1) ** i for i in range(127)})
    square = alt * alt
    assert square.coeff(126) == 127 and terms_of(square) == ref_mul(terms_of(alt), terms_of(alt))
    assert packed[-1] == (127, 127)


def test_a_two_term_factor_takes_the_dict_product_at_every_length(packed):
    # the shape of every qpoch, qbinom and tail loop: a running product
    # times 1 - q^e, which packing makes about twice as slow at 256..4096 terms
    acc = one
    for e in range(1, 70):
        acc = acc * (one - qpow(e))
    assert len(acc) > 2048 and packed == []
    # the shorter operand's term count decides, whichever side it is on
    cutoff = laurent._KRONECKER_CUTOFF
    below = LaurentPoly({i: 1 for i in range(-1, cutoff - 2)})
    assert terms_of(acc * below) == ref_mul(terms_of(acc), terms_of(below)) and packed == []
    at = below + qpow(cutoff - 2)
    assert terms_of(at * acc) == ref_mul(terms_of(acc), terms_of(at))
    assert packed == [(cutoff, len(acc))]


@pytest.mark.parametrize("wide", [qpow(10**9) + one, LaurentPoly({k * 10**8: 1 - 2 * (k % 2) for k in range(12)})],
                         ids=["two-term", "twelve-term"])
def test_a_wide_sparse_operand_is_not_packed(wide):
    # packing would spend a digit on each of the 10^9 exponents between terms
    p = LaurentPoly({i: i + 1 for i in range(2049)})
    start = time.perf_counter()
    product = wide * p
    assert time.perf_counter() - start < 1.0
    assert len(product) == len(wide) * 2049
    assert terms_of(product) == ref_mul(terms_of(wide), terms_of(p))


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


def _by_x_degree(v) -> dict:
    """{x-degree: {exponent: Fraction}} of a BiPoly as stored (a zero kept
    by mistake shows as an empty map), or of a LaurentPoly or scalar."""
    if isinstance(v, BiPoly):
        return {j: terms_of(c) for j, c in v.coeffs.items()}
    t = terms_of(v if isinstance(v, LaurentPoly) else LaurentPoly.const(v))
    return {0: t} if t else {}


def _bi_ref_add(a: dict, b: dict) -> dict:
    out = {j: ref_add(a.get(j, {}), b.get(j, {})) for j in a.keys() | b.keys()}
    return {j: t for j, t in out.items() if t}


def _bi_ref_neg(a: dict) -> dict:
    return {j: {e: -c for e, c in t.items()} for j, t in a.items()}


def _bi_ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ja, ta in a.items():
        for jb, tb in b.items():
            out = _bi_ref_add(out, {ja + jb: ref_mul(ta, tb)})
    return out


# coefficients from a small set on few exponents, so that sums and products cancel often
cancelling = st.dictionaries(
    st.integers(min_value=-1, max_value=1), st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 2)]), max_size=3
).map(LaurentPoly)
cancelling_bi = st.dictionaries(st.integers(min_value=0, max_value=2), cancelling, max_size=3).map(BiPoly)


@given(cancelling_bi, st.one_of(cancelling_bi, cancelling, st.sampled_from([0, 1, -2, Fraction(1, 2)])))
@example(BiPoly({0: q, 1: one}), BiPoly({0: -q, 1: -one}))
@example(BiPoly({1: one + q}), BiPoly({1: one - q}))
@example(BiPoly({0: one + q}), -one - q)
@example(BiPoly({0: 2 + q}), -2)
def test_bipoly_arithmetic_matches_a_reference_per_x_degree(a, b):
    """+, -, * with a BiPoly, LaurentPoly or scalar on either side, against
    ref_add and ref_mul on each x-degree; every result stores no zero
    coefficient, equals the BiPoly (and, when x-free, the LaurentPoly) of
    its reference, and hashes as they do."""
    ra, rb = _by_x_degree(a), _by_x_degree(b)
    cases = [(a + b, _bi_ref_add(ra, rb)), (b + a, _bi_ref_add(ra, rb)),
             (a - b, _bi_ref_add(ra, _bi_ref_neg(rb))), (b - a, _bi_ref_add(rb, _bi_ref_neg(ra))),
             (a - a, {}), (a + (-a), {}),
             (a * b, _bi_ref_mul(ra, rb)), (b * a, _bi_ref_mul(ra, rb))]
    for got, want in cases:
        assert isinstance(got, BiPoly)
        assert _by_x_degree(got) == want
        for equal in [BiPoly({j: LaurentPoly(t) for j, t in want.items()})] + (
                [LaurentPoly(want.get(0, {}))] if want.keys() <= {0} else []):
            assert got == equal and equal == got
            assert hash(got) == hash(equal)
    assert (a == b) == (ra == rb)


def test_equality_against_scalars():
    assert LaurentPoly.const(5) == 5
    assert LaurentPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert one != 2
    assert q != 1


def test_constructors_drop_a_coefficient_that_cancels():
    assert LaurentPoly([(1, 2), (0, 1), (1, -2)]).terms == {0: 1}
    assert LaurentPoly([(3, Fraction(1, 2)), (3, Fraction(-1, 2))]).terms == {}
    assert BiPoly([(1, q), (0, one), (1, -q), (0, q)]).coeffs == {0: one + q}
    assert BiPoly([(2, q), (2, -q), (2, 1), (2, -1)]).coeffs == {}


@pytest.mark.parametrize("make,error,message", [
    (lambda: LaurentPoly({0: 1.5}), TypeError, "exact rational coefficient required, got float"),
    (lambda: LaurentPoly({1.0: 1}), TypeError, "exponents must be integers"),
    (lambda: BiPoly({-1: q}), ValueError, "x-degrees must be non-negative integers"),
    (lambda: BiPoly({0: 1.5}), TypeError, "coefficient must be LaurentPoly or scalar, got float"),
    (lambda: BiPoly.x_power(-1), ValueError, "x-degrees must be non-negative"),
    (lambda: RatExpr(1.5), TypeError, "numerator must be LaurentPoly or BiPoly, got float"),
    (lambda: RatExpr(q, "1"), TypeError, "denominator must be a LaurentPoly or scalar"),
    (lambda: RatExpr(q, BiPoly.const(q)), TypeError, "denominator must be a LaurentPoly or scalar"),
    (lambda: RatExpr(q, 0), ZeroDivisionError, "zero denominator in RatExpr"),
    (lambda: RatExpr(BiPoly.x_power(1), zero), ZeroDivisionError, "zero denominator in RatExpr"),
], ids=["float-coefficient", "float-exponent", "negative-x-degree", "bipoly-float-coefficient", "negative-x-power",
        "float-numerator", "str-denominator", "bipoly-denominator", "zero-scalar-denominator", "zero-denominator"])
def test_algebra_constructors_refuse_ill_formed_input(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_ratexpr_equality_across_univariate_and_bivariate_numerators():
    """A RatExpr over a BiPoly equals one over a LaurentPoly exactly when the
    BiPoly is x-free and the cross products agree, in either order."""
    uni = RatExpr(q + 1, one - q)
    for equal in (RatExpr(BiPoly.const(q + 1), one - q), RatExpr(BiPoly.const(2 * q + 2), 2 - 2 * q)):
        assert uni == equal and equal == uni
    for unequal in (RatExpr(BiPoly.x_power(1, q + 1), one - q), RatExpr(BiPoly.const(q), one - q),
                    RatExpr(BiPoly({0: q + 1, 1: one}), one - q)):
        assert uni != unequal and unequal != uni
        assert not (uni == unequal or unequal == uni)


@pytest.mark.parametrize("op", [
    lambda r: r - r, lambda r: r - 1, lambda r: 1 - r, lambda r: -r,
    lambda r: r * BiPoly.x_power(1), lambda r: BiPoly.x_power(1) * r,
], ids=["minus-ratexpr", "minus-scalar", "scalar-minus", "negation", "times-bipoly", "bipoly-times"])
def test_ratexpr_has_no_subtraction_and_no_bipoly_product(op):
    """RatExpr adds, multiplies by a RatExpr, LaurentPoly or scalar, and
    compares; congruence subtracts the numerators of two sides itself, so
    RatExpr has no subtraction, negation or BiPoly factor."""
    with pytest.raises(TypeError):
        op(RatExpr(q, one - q))


_ORDINARY = "requires non-negative exponents; shift the Laurent input by its valuation first"


@pytest.mark.parametrize("call, error, message", [
    (lambda: LaurentPoly.parse("1*q^2 + 3*q^2"), ValueError, "duplicate exponent 2 in polynomial text"),
    (lambda: divrem(q, qpow(-1)), ValueError, "divrem " + _ORDINARY),
    (lambda: divrem(q, zero), ZeroDivisionError, "division by the zero polynomial"),
    (lambda: divrem_laurent(qpow(-3), zero), ZeroDivisionError, "division by the zero polynomial"),
    (lambda: zero.valuation(), ValueError, "valuation of the zero polynomial is undefined"),
    (lambda: q.substitute_power(0), ValueError, "substitute_power requires a nonzero power"),
    (lambda: ext_gcd(zero, zero), ValueError, "ext_gcd(0, 0) is undefined"),
    (lambda: qpoch(1, 1, -1), ValueError, "qpoch length must be non-negative"),
    (lambda: qpoch(1, 0, 3), ValueError, "qpoch step must be nonzero"),
    (lambda: divisors(0), ValueError, "divisors requires n >= 1"),
    (lambda: totient(0), ValueError, "totient requires n >= 1"),
    (lambda: cyclotomic_power(5, 0), ValueError, "cyclotomic_power requires m >= 1"),
], ids=["parse-duplicate-exponent", "divrem-laurent-operand", "divrem-by-zero", "divrem_laurent-by-zero",
        "valuation-of-zero", "substitute_power-0", "ext_gcd-0-0", "qpoch-negative-length", "qpoch-zero-step",
        "divisors-0", "totient-0", "cyclotomic_power-m-0"])
def test_degenerate_arguments_are_refused(call, error, message):
    """Each refusal of an argument the operation is undefined at, with its
    type and whole message."""
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
