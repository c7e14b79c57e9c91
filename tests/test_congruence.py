import math
import time
from fractions import Fraction

import pytest
from helpers import (cyclotomic_by_mobius, dense_mul, inverse_by_ext_gcd, qpascal, ref_add, ref_mul,
                     residue_by_long_division, terms_of)
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import congruence, theorems
from qcong.bivariate import BiPoly, RatExpr
from qcong.congruence import (
    NoncoprimeDenominatorError,
    NotInvertibleError,
    Residue,
    _reduce_poly,
    _ring,
    congruent,
    dot,
    horner,
    reduce,
    residual,
)
from qcong.cyclotomic import cyclotomic, cyclotomic_power, totient
from qcong.laurent import LaurentPoly, one, q, qpow
from qcong.qcalc import gauss_binomial, qpoch

moduli = st.tuples(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=2))

polys = st.dictionaries(
    st.integers(min_value=-8, max_value=15),
    st.integers(min_value=-20, max_value=20),
    max_size=6,
).map(LaurentPoly)


@given(moduli, polys, polys)
def test_reduce_is_additive_and_multiplicative(nm, a, b):
    n, m = nm
    assert reduce(a + b, n, m) == reduce(a, n, m) + reduce(b, n, m)
    assert reduce(a * b, n, m) == reduce(a, n, m) * reduce(b, n, m)


@given(moduli, polys)
def test_reduce_is_idempotent_and_bounded(nm, a):
    n, m = nm
    rep = reduce(a, n, m).rep
    assert reduce(rep, n, m).rep == rep
    assert rep.is_zero() or 0 <= rep.valuation()
    assert rep.is_zero() or rep.degree() < m * totient(n)


@given(st.integers(min_value=2, max_value=40))
def test_q_to_the_n_reduces_to_one(n):
    assert reduce(qpow(n), n).rep == one
    assert reduce(qpow(-1), n).rep == reduce(qpow(n - 1), n).rep


def test_reduce_kills_the_modulus():
    for n in (2, 3, 5, 12):
        assert reduce(cyclotomic(n), n).is_zero()
        assert reduce(cyclotomic(n) ** 2, n, 2).is_zero()
        assert not reduce(cyclotomic(n), n, 2).is_zero()


@given(moduli, polys)
def test_invert_gives_a_unit(nm, a):
    n, m = nm
    try:
        u = reduce(a, n, m).inverse()
    except NotInvertibleError:
        return
    assert (u * reduce(a, n, m)).rep == one


def test_invert_failures():
    with pytest.raises(NotInvertibleError):
        reduce(LaurentPoly(), 5).inverse()
    with pytest.raises(NotInvertibleError):
        reduce(cyclotomic(5), 5).inverse()
    err = None
    try:
        reduce(cyclotomic(7) * q, 7, 2).inverse()
    except NotInvertibleError as exc:
        err = exc
    assert err is not None and err.gcd == cyclotomic(7)


def test_invert_handles_laurent_input():
    u = reduce(qpow(-3) * (one - q - qpow(2)), 5, 2).inverse()
    assert (u * reduce(qpow(-3) * (one - q - qpow(2)), 5, 2)).rep == one


def _times_one_minus_q_powers(scale_factors) -> LaurentPoly:
    scale, factors = scale_factors
    out = LaurentPoly.const(scale)
    for c, e in factors:
        out = out * (one - qpow(e) * c)
    return out


inverse_inputs = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**4),
    st.fractions(min_value=-50, max_value=50, max_denominator=12).map(LaurentPoly.const),
    st.dictionaries(st.integers(min_value=-12, max_value=40),
                    st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=6).map(LaurentPoly),
    st.tuples(
        st.integers(min_value=-10**30, max_value=10**30).filter(bool),
        st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(min_value=1, max_value=40)),
                 max_size=5),
    ).map(_times_one_minus_q_powers),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=3), inverse_inputs)
def test_inverse_matches_euclid_over_q(n, m, a):
    g, expected = inverse_by_ext_gcd(a if isinstance(a, LaurentPoly) else LaurentPoly.const(a), n, m)
    if expected is None:
        with pytest.raises(NotInvertibleError) as info:
            reduce(a, n, m).inverse()
        assert info.value.gcd == g
        assert str(info.value) == f"not invertible mod Phi_{n}^{m}, gcd = {g}"
    else:
        assert list(reduce(a, n, m).inverse().coeffs) == expected


@pytest.mark.parametrize("n", [2, 6, 7, 12, 15])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_non_unit_reports_the_power_of_phi_n_it_shares(n, m):
    unit = (qpow(5) + 2) * (3 - q)  # no root of unity is a root
    for v in range(1, m + 2):
        a = cyclotomic(n) ** v * unit * qpow(-4) * Fraction(-7, 3)
        gcd = cyclotomic_power(n, min(v, m))
        with pytest.raises(NotInvertibleError) as info:
            reduce(a, n, m).inverse()
        assert info.value.gcd == gcd == inverse_by_ext_gcd(a, n, m)[0]
        assert str(info.value) == f"not invertible mod Phi_{n}^{m}, gcd = {gcd}"


def test_inverse_of_a_long_denominator_is_fast():
    den = qpoch(1, 1, 100) * (3 - q + 2 * qpow(5))  # (q;q)_100 * a unit, mod Phi_101^2
    started = time.perf_counter()
    u = reduce(den, 101, 2).inverse()
    assert time.perf_counter() - started < 5
    assert (u * reduce(den, 101, 2)).rep == one


def test_residue_arithmetic_and_guards():
    a = reduce(q, 5)
    b = reduce(one + q, 5)
    assert (a + b).rep == reduce(one + 2 * q, 5).rep
    assert (a - a).is_zero()
    assert (-a).rep == reduce(-q, 5).rep
    assert (2 * a).rep == (a + a).rep
    assert a.inverse().rep == reduce(qpow(4), 5).rep
    with pytest.raises(ValueError):
        a + reduce(q, 7)
    with pytest.raises(ValueError):
        a * reduce(q, 5, 2)


CONGRUENT_CASES = [
    (qpow(7), qpow(2), 5, 1),
    (qpow(12), one, 6, 1),
    ((qpow(5) - 1) ** 2, LaurentPoly(), 5, 2),
    (Fraction(3, 2), Fraction(3, 2), 4, 2),
]


@pytest.mark.parametrize("lhs,rhs,n,m", CONGRUENT_CASES)
def test_known_congruences(lhs, rhs, n, m):
    assert congruent(lhs, rhs, n, m)


NONCONGRUENT_CASES = [
    (q, one, 5, 1),
    (qpow(5) - 1, LaurentPoly(), 5, 2),
    (one, 2, 3, 1),
]


@pytest.mark.parametrize("lhs,rhs,n,m", NONCONGRUENT_CASES)
def test_known_noncongruences(lhs, rhs, n, m):
    assert not congruent(lhs, rhs, n, m)


def test_rational_congruence_matches_polynomial_identity():
    # (1 - q^(n+1)) / (1 - q) is the q-integer [n+1]; check mod Phi_7^2
    n = 7
    lhs = RatExpr(one - qpow(n + 1), one - q)
    rhs = LaurentPoly({e: 1 for e in range(n + 1)})
    assert congruent(lhs, rhs, n, 2)
    assert congruent(lhs * RatExpr(one, one - qpow(2)), RatExpr(rhs, one - qpow(2)), n, 2)


def test_rational_congruence_unequal_denominators():
    lhs = RatExpr(qpow(9), one - q)
    rhs = RatExpr(qpow(2) * (one + q), (one - q) * (one + q))
    assert congruent(lhs, rhs, 7, 1)


def test_noncoprime_denominator_is_an_error_not_false():
    bad = RatExpr(one, cyclotomic(5) * q)
    with pytest.raises(NoncoprimeDenominatorError):
        congruent(bad, one, 5, 1)
    with pytest.raises(NoncoprimeDenominatorError):
        congruent(one, bad, 5, 2)
    # q^5 - 1 contains Phi_5 as a factor, so it is just as bad
    with pytest.raises(NoncoprimeDenominatorError):
        congruent(RatExpr(one, qpow(5) - 1), one, 5, 1)


def test_bivariate_congruence_is_coefficientwise():
    n = 6
    lhs = BiPoly.x_power(1, qpow(n)) + BiPoly.x_power(3, qpow(2 * n))
    rhs = BiPoly.x_power(1) + BiPoly.x_power(3)
    assert congruent(lhs, rhs, n, 1)
    assert not congruent(BiPoly.x_power(1, q), BiPoly.x_power(1), n, 1)
    # a single bad coefficient poisons the whole comparison
    mixed = lhs + BiPoly.x_power(2, q)
    assert not congruent(mixed, rhs, n, 1)


def test_residual_zero_exactly_when_congruent():
    assert residual(qpow(7), qpow(2), 5, 1).is_zero()
    r = residual(q, one, 5, 1)
    assert not r.is_zero()
    assert congruent(q, one + r, 5, 1)


def test_residual_of_rational_inputs():
    lhs = RatExpr(one, one - q)
    r = residual(lhs, one, 5, 1)
    assert not r.is_zero()
    assert congruent(lhs, one + r, 5, 1)


def test_residual_bivariate_returns_sparse_map():
    n = 6
    lhs = BiPoly.x_power(1, qpow(n)) + BiPoly.x_power(2, q)
    rhs = BiPoly.x_power(1)
    out = residual(lhs, rhs, n, 1)
    assert set(out) == {2}
    assert out[2] == reduce(q, n).rep


def test_is_unit_certifies_coprimality():
    assert reduce(one - q, 5).is_unit()
    assert reduce(LaurentPoly.const(7), 3).is_unit()
    assert not reduce(cyclotomic(5), 5).is_unit()
    assert not reduce(cyclotomic(5) * qpow(-2), 5).is_unit()


def test_modulus_parameter_guards():
    with pytest.raises(ValueError):
        reduce(q, 1)
    with pytest.raises(ValueError):
        congruent(q, q, 5, 0)


coefficients = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=15),
    st.integers(min_value=1, max_value=3),
    st.dictionaries(st.integers(min_value=-10**6, max_value=10**6), coefficients, max_size=3),
)
def test_reduce_poly_matches_long_division(n, m, terms):
    got = _reduce_poly(LaurentPoly(terms), n, m)
    assert len(got) == m * totient(n)
    assert list(got) == residue_by_long_division(terms, n, m)


@st.composite
def dense_runs(draw):
    """(n, m, terms): one or two runs of consecutive exponents, each longer
    than n, so that every residue class mod n sums several terms, starting
    near 0, below 0, or near +-10^6."""
    n, m = draw(st.integers(min_value=2, max_value=15)), draw(st.integers(min_value=1, max_value=3))
    starts = st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-200, max_value=-1),
        st.integers(min_value=10**6 - 50, max_value=10**6 + 50),
        st.integers(min_value=-10**6 - 50, max_value=-10**6 + 50),
    )
    terms: dict = {}
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        start = draw(starts)
        for i, c in enumerate(draw(st.lists(coefficients, min_size=n + 1, max_size=3 * m * n))):
            terms[start + i] = terms.get(start + i, 0) + c
    return n, m, terms


@settings(max_examples=30, deadline=None)
@given(dense_runs())
def test_dense_fold_matches_long_division(case):
    """_Ring.fold sums each residue class in eps-coordinates; dense runs put
    many terms in every class."""
    n, m, terms = case
    assert list(_reduce_poly(LaurentPoly(terms), n, m)) == residue_by_long_division(terms, n, m)


sparse = st.dictionaries(st.integers(min_value=-10**6, max_value=10**6), coefficients, max_size=9)

# n up to 12, and the primes up to 31: for prime n a product of two residues
# passes m*n, so the first, sparse stage of the division runs
ring_ns = st.one_of(st.integers(min_value=2, max_value=12), st.sampled_from([13, 17, 19, 23, 29, 31]))

# negative, above m*n for every drawn modulus (m*n <= 93), and near +-10^6
shift_exponents = st.one_of(
    st.integers(min_value=-200, max_value=-1),
    st.integers(min_value=94, max_value=400),
    st.integers(min_value=10**6 - 100, max_value=10**6 + 100),
    st.integers(min_value=-10**6 - 100, max_value=-10**6 + 100),
)
monomials_and_binomials = st.dictionaries(shift_exponents, coefficients.filter(bool), min_size=1, max_size=2)
factors = st.one_of(monomials_and_binomials, sparse)


@settings(max_examples=40, deadline=None)
@given(ring_ns, st.integers(min_value=1, max_value=3), polys, factors)
def test_residue_times_sparse_polynomial_matches_long_division(n, m, a, terms):
    """The shifted copies of a monomial or binomial factor, and the reduce-first
    product when p has more terms than m*phi(n)."""
    got = reduce(a, n, m) * LaurentPoly(terms)
    assert list(got.coeffs) == residue_by_long_division(ref_mul(terms_of(a), terms), n, m)


@settings(max_examples=40, deadline=None)
@given(ring_ns, st.integers(min_value=1, max_value=3), st.data())
def test_divide_matches_long_division(n, m, data):
    """_Ring.divide on vectors longer than m*n, so every stage of its tower runs."""
    length = data.draw(st.integers(min_value=m * n + 1, max_value=3 * m * n))
    vec = data.draw(st.lists(coefficients, min_size=length, max_size=length))
    assert _ring(n, m).divide(list(vec)) == residue_by_long_division(dict(enumerate(vec)), n, m)


@settings(max_examples=30, deadline=None)
@given(
    ring_ns,
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(polys, factors), min_size=1, max_size=4),
)
def test_dot_matches_long_division(n, m, pairs):
    got = dot((reduce(a, n, m), reduce(LaurentPoly(b), n, m)) for a, b in pairs)
    total: dict = {}
    for a, b in pairs:
        total = ref_add(total, ref_mul(terms_of(a), b))
    assert list(got.coeffs) == residue_by_long_division(total, n, m)


# small, or far: |c| up to about 10^6 and |e| above every m*n drawn (m*n <= 93),
# so the shift q^(c + k*e) = q^(K*n + b) has large K of either sign
horner_offsets = st.one_of(st.integers(min_value=-12, max_value=12),
                           st.integers(min_value=-10**6 - 100, max_value=10**6 + 100))
horner_steps = st.one_of(st.integers(min_value=-12, max_value=12), st.integers(min_value=94, max_value=400),
                         st.integers(min_value=-400, max_value=-94))


@settings(max_examples=50, deadline=None)
@given(st.one_of(ring_ns, st.sampled_from([15, 21, 30])), st.integers(min_value=1, max_value=3),
       st.lists(polys, min_size=1, max_size=5), horner_offsets, horner_steps)
def test_horner_matches_long_division(n, m, g, c, e):
    """The x-coefficients of Sum_k g_k (x q^c; q^e)_k, against the sum expanded
    on dicts, x-degree by x-degree, and reduced by the oracle.  n = 15, 21
    and 30 have a middle stage in the tower above n = 12."""
    got = horner([reduce(gk, n, m) for gk in g], c, e)
    assert [list(r.coeffs) for r in got] == _horner_by_long_division(g, c, e, n, m)


def _horner_by_long_division(g, c, e, n, m):
    """The len(g) x-coefficients of Sum_k g_k (x q^c; q^e)_k, expanded on dicts
    and each reduced by the oracle."""
    total, poch = {}, {0: {0: Fraction(1)}}  # x-degree -> q-dict; poch = (x q^c; q^e)_k
    for k, gk in enumerate(g):
        for j, coeff in poch.items():
            total[j] = ref_add(total.get(j, {}), ref_mul(terms_of(gk), coeff))
        step = {}
        for j, coeff in poch.items():
            step[j] = ref_add(step.get(j, {}), coeff)
            step[j + 1] = ref_add(step.get(j + 1, {}), ref_mul(coeff, {c + k * e: Fraction(-1)}))
        poch = step
    return [residue_by_long_division(total.get(j, {}), n, m) for j in range(len(g))]


@settings(max_examples=40, deadline=None)
@given(st.one_of(ring_ns, st.sampled_from([15, 21, 30])), st.integers(min_value=1, max_value=3),
       st.lists(polys, max_size=3), polys, st.integers(min_value=1, max_value=3), horner_offsets, horner_steps)
def test_horner_on_one_g_and_on_trailing_zeros(n, m, head, last, zeros, c, e):
    """A single g_0 is its own x^0 coefficient, and g_k that end in zeros (a
    kernel cut where its weights vanish) leave the top x-coefficients zero:
    both against the expanded sum reduced by the oracle."""
    for g in ([last], head + [last] + [LaurentPoly()] * zeros):
        got = horner([reduce(gk, n, m) for gk in g], c, e)
        assert [list(r.coeffs) for r in got] == _horner_by_long_division(g, c, e, n, m)
    assert all(r.is_zero() for r in got[len(g) - zeros:])


@settings(max_examples=60, deadline=None)
@given(ring_ns, st.integers(min_value=1, max_value=3),
       st.dictionaries(st.one_of(st.integers(min_value=-8, max_value=100), shift_exponents), coefficients,
                       max_size=1))
def test_one_term_fold_matches_long_division(n, m, terms):
    """reduce(0), reduce(c) and a monomial, placed without the level split,
    whether q^e lies below m*n or is the binomial series of q^(a*n)."""
    assert _reduce_poly(LaurentPoly(terms), n, m) == residue_by_long_division(terms, n, m)


def test_dot_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        dot([(reduce(q, 5, 2), reduce(q, 5, 2)), (reduce(q, 5, 1), reduce(q, 5, 1))])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    polys,
    st.dictionaries(st.integers(min_value=0, max_value=3), coefficients, max_size=2),
)
def test_ring_mul_is_symmetric_in_sparse_and_dense_factors(n, m, a, terms):
    dense, sparse_factor = _reduce_poly(a, n, m), _reduce_poly(LaurentPoly(terms), n, m)
    expected = residue_by_long_division(ref_mul(terms_of(a), terms), n, m)
    ring = _ring(n, m)
    assert ring.mul(dense, sparse_factor) == ring.mul(sparse_factor, dense) == expected


def _closed_form(e: int, n: int, m: int) -> LaurentPoly:
    """q^b * Sum_{i<m} C(a, i) (q^n - 1)^i for e = a*n + b, written out directly."""
    a, b = divmod(e, n)
    total = LaurentPoly()
    for i in range(m):
        binom = math.prod(a - k for k in range(i)) // math.factorial(i)
        total = total + (qpow(n) - 1) ** i * binom
    return total.shift(b)


def _expected_residual(e: int, n: int, m: int) -> LaurentPoly:
    # the closed form has degree below m*n, so long division reduces it quickly
    terms = (_closed_form(e, n, m) - 1).terms
    return LaurentPoly(enumerate(residue_by_long_division(terms, n, m)))


def test_hostile_exponents_complete_and_match_closed_form():
    started = time.perf_counter()
    assert not congruent(qpow(10**9), one, 5, 2)
    assert congruent(qpow(10**9), _closed_form(10**9, 5, 2), 5, 2)
    assert residual(qpow(10**9), one, 5, 2) == _expected_residual(10**9, 5, 2)
    assert residual(qpow(-10**9), one, 7, 3) == _expected_residual(-10**9, 7, 3)
    assert time.perf_counter() - started < 5


def test_residue_of_a_rational_is_its_numerator_times_the_inverse():
    den = one - qpow(3)
    lhs = RatExpr(qpow(10**6) + q, den)
    assert residual(lhs, 0, 5, 2) == (reduce(qpow(10**6) + q, 5, 2) * reduce(den, 5, 2).inverse()).rep


def _oracle_residual(lhs: RatExpr, rhs: RatExpr, n: int, m: int) -> "LaurentPoly | None":
    """lhs - rhs mod Phi_n^m from tests/helpers alone: the numerator
    lnum*rden - rnum*lden by long division, times the inverse of lden*rden by
    the Euclidean algorithm over Q; None when lden*rden shares a factor with
    Phi_n."""
    _, inverse = inverse_by_ext_gcd(lhs.den * rhs.den, n, m)
    if inverse is None:
        return None
    num = residue_by_long_division((lhs.num * rhs.den - rhs.num * lhs.den).terms, n, m)
    return LaurentPoly(enumerate(residue_by_long_division(dict(enumerate(dense_mul(num, inverse))), n, m)))


def _clear_denominator_caches():
    congruence._certify_den.cache_clear()
    congruence._inverse.cache_clear()


denominators = inverse_inputs.map(lambda a: a if isinstance(a, LaurentPoly) else LaurentPoly.const(a)).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=3), polys, polys,
       denominators, denominators, st.sampled_from(["same object", "equal copy", "other"]))
def test_congruent_and_residual_match_the_oracles_cold_and_warm(n, m, a, b, lden, other, pairing):
    """congruent and residual on RatExpr sides agree with the long-division
    and Euclid-over-Q oracles, first with empty denominator caches and then
    with the same denominators cached: one denominator object on both sides,
    an equal one built separately, or two different ones.  The denominators
    have integer or Fraction coefficients and are units or not; a non-unit
    raises on every call."""
    rden = {"same object": lden, "equal copy": LaurentPoly(lden.terms), "other": other}[pairing]
    lhs, rhs = RatExpr(a, lden), RatExpr(b, rden)
    expected = _oracle_residual(lhs, rhs, n, m)
    _clear_denominator_caches()
    for _ in ("cold", "warm"):
        if expected is None:
            for call in (congruent, residual):
                with pytest.raises(NoncoprimeDenominatorError):
                    call(lhs, rhs, n, m)
        else:
            assert residual(lhs, rhs, n, m) == expected
            assert congruent(lhs, rhs, n, m) == expected.is_zero()


def _numerator(v):
    return v.num if isinstance(v, RatExpr) else LaurentPoly.const(v) if isinstance(v, (int, Fraction)) else v


DENOMINATOR_ONE_CASES = {
    "LaurentPoly": (qpow(7) + Fraction(2, 3) * qpow(-4), one + q),
    "BiPoly": (BiPoly.x_power(2, qpow(6)) + BiPoly.x_power(1, q) + BiPoly.x_power(3, qpow(11)),
               BiPoly.x_power(1, q) + BiPoly.x_power(3, q)),
    "scalar": (Fraction(3, 2), 4),
    "one-line RatExpr": (RatExpr(qpow(-3) + 2), RatExpr(q)),
    "BiPoly/LaurentPoly mix": (BiPoly.x_power(1, qpow(5)) + BiPoly.const(q), qpow(5)),
    "congruent": (qpow(12) + BiPoly.x_power(1, qpow(7)), one + BiPoly.x_power(1, q)),
}


@pytest.mark.parametrize("case", DENOMINATOR_ONE_CASES)
@pytest.mark.parametrize("n,m", [(5, 1), (5, 2), (6, 2), (7, 3)])
def test_a_denominator_of_one_enters_no_cache(case, n, m):
    """Over denominator 1 the residual is the canonical representative of the
    numerator difference by long division, coefficient by coefficient in x,
    and neither denominator cache is looked up."""
    lhs, rhs = DENOMINATOR_ONE_CASES[case]
    diff = _numerator(lhs) - _numerator(rhs)
    coeffs = diff.coeffs if isinstance(diff, BiPoly) else {0: diff}
    by_degree = {j: LaurentPoly(enumerate(residue_by_long_division(c.terms, n, m))) for j, c in coeffs.items()}
    bivariate = any(isinstance(v, BiPoly) for v in (_numerator(lhs), _numerator(rhs)))
    expected = {j: r for j, r in by_degree.items() if r} if bivariate else by_degree.get(0, LaurentPoly())
    _clear_denominator_caches()
    for _ in range(2):
        assert residual(lhs, rhs, n, m) == expected
        assert congruent(lhs, rhs, n, m) == (not expected)
    for cache in (congruence._certify_den, congruence._inverse):
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_a_non_unit_denominator_raises_on_every_call():
    """A denominator divisible by Phi_5 raises on every call and for every m,
    also after the same polynomial, a unit mod Phi_7, was certified and
    inverted at (7, 2), and that certification still serves."""
    den = cyclotomic(5) * (3 - q)
    lhs = RatExpr(qpow(3) + 1, den)
    _clear_denominator_caches()
    expected = _oracle_residual(lhs, RatExpr(one), 7, 2)
    assert residual(lhs, one, 7, 2) == expected
    for n, m in ((5, 1), (5, 2), (5, 1), (5, 2)):
        for call in (congruent, residual):
            for copy in (den, LaurentPoly(den.terms)):
                with pytest.raises(NoncoprimeDenominatorError) as info:
                    call(RatExpr(qpow(3) + 1, copy), one, n, m)
                assert str(info.value) == f"denominator shares a factor with Phi_5: {den}"
                with pytest.raises(NoncoprimeDenominatorError):
                    call(q, RatExpr(q, copy), n, m)
    assert residual(lhs, one, 7, 2) == expected
    info = congruence._certify_den.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert congruence._inverse.cache_info().misses == 1


def test_one_certification_and_one_inverse_per_denominator():
    """congruent then residual, and residual again on an equal denominator
    built separately, certify (den, n, m) once and invert it once; a zero
    difference inverts nothing; another m is another entry of each cache."""
    den = qpoch(2, 2, 6) ** 2 * Fraction(3, 5)
    lhs, rhs = RatExpr(qpow(4) + 2, den), RatExpr(q, LaurentPoly(den.terms))
    _clear_denominator_caches()
    assert residual(lhs, RatExpr(qpow(4) + 2 + cyclotomic(7) ** 2 * q * den, den), 7, 2) == LaurentPoly()
    assert congruence._inverse.cache_info().misses == 0
    congruence._certify_den.cache_clear()
    assert not congruent(lhs, rhs, 7, 2)
    res = residual(lhs, rhs, 7, 2)
    assert residual(RatExpr(qpow(4) + 2, LaurentPoly(den.terms)), RatExpr(q, den), 7, 2) == res
    assert res == _oracle_residual(lhs, rhs, 7, 2)
    certify, inverse = congruence._certify_den.cache_info(), congruence._inverse.cache_info()
    assert (certify.misses, certify.hits, inverse.misses, inverse.hits) == (1, 2, 1, 1)
    residual(lhs, rhs, 7, 1)
    certify, inverse = congruence._certify_den.cache_info(), congruence._inverse.cache_info()
    assert (certify.misses, certify.currsize, inverse.misses, inverse.currsize) == (2, 2, 2, 2)


BUDGETED = (theorems._ring_tails, theorems._cell_den, congruence._certify_den, congruence._inverse)


def test_more_denominators_than_the_bound_keep_each_cache_at_its_bound(monkeypatch):
    """The denominator caches hold at most the ring budget between them,
    however many distinct denominators pass through: at a budget of 400
    coefficients, where a certified 1 + k*q costs 2 + 8 and its inverse 16
    at (5, 2), 74 denominators evict the least recently used entries after
    each miss, and every residual still matches the oracle."""
    monkeypatch.setattr(congruence, "RING_BUDGET", 400)
    for table in BUDGETED:
        table.cache_clear()
    for k in range(1, 75):
        lhs = RatExpr(qpow(k), one + k * q)
        assert residual(lhs, 0, 5, 2) == _oracle_residual(lhs, RatExpr(0), 5, 2)
        infos = [table.cache_info() for table in BUDGETED]
        assert sum(info.cost for info in infos) <= 400 and {info.maxsize for info in infos} == {400}
    certify, inverse = congruence._certify_den.cache_info(), congruence._inverse.cache_info()
    assert (certify.misses, inverse.misses) == (74, 74)
    assert (certify.cost, inverse.cost) == (10 * certify.currsize, 16 * inverse.currsize)
    assert certify.currsize + inverse.currsize < 2 * 74 and 10 * certify.currsize + 16 * inverse.currsize > 400 - 26
    residual(RatExpr(qpow(74), one + 74 * q), 0, 5, 2)  # the newest entries are kept
    assert congruence._certify_den.cache_info().hits == certify.hits + 1


@pytest.mark.parametrize("cache,keys,expected", [
    (_ring, [(n, m) for n in range(2, 135) for m in (1, 2)],
     lambda ring, n, m: ring.dim == m * totient(n) and (ring.n, ring.m) == (n, m)),
    (cyclotomic, [(n,) for n in range(1, 267)], lambda phi, n: n % 16 or phi == cyclotomic_by_mobius(n)),
    (cyclotomic_power, [(n, m) for n in range(1, 134) for m in (1, 2)],
     lambda power, n, m: power == cyclotomic(n) ** m),
    (gauss_binomial, [(n, k) for n in range(33) for k in range(n + 1)],
     lambda binom, n, k: n % 11 or k % 4 or binom.terms == qpascal(n, k)),
], ids=["_ring", "cyclotomic", "cyclotomic_power", "gauss_binomial"])
def test_more_keys_than_an_entry_bound_keep_the_cache_full_and_the_results(cache, keys, expected):
    """congruence._ring, cyclotomic, cyclotomic_power and gauss_binomial are
    lru_caches bounded by entry count: more distinct keys than the bound
    leave currsize at maxsize, each result is right, and a key looked up
    again after its entry was evicted gives an equal result.  A residue of
    an evicted ring still combines with one of its rebuilt ring."""
    def value(result):
        return (result.n, result.m, result.dim, result.stages) if cache is _ring else result

    cache.cache_clear()
    held = cache.cache_info().maxsize
    assert held is not None and len(keys) > held
    first = [cache(*key) for key in keys]
    assert all(expected(result, *key) for result, key in zip(first, keys))
    info = cache.cache_info()
    assert info.currsize == held and info.misses >= len(keys)  # cyclotomic also misses on evicted divisors
    assert [value(cache(*key)) for key in keys] == [value(result) for result in first]
    assert cache.cache_info().currsize == held
    if cache is _ring:
        old, new = Residue(first[keys.index((3, 2))], [1, 2, 0, 0]), reduce(q + 1, 3, 2)
        assert old._ring is not new._ring and old == reduce(1 + 2 * q, 3, 2)
        assert dot([(new, old), (new, new)]) == new * old + new * new
        assert horner([old, new], 1, 1) == horner([reduce(1 + 2 * q, 3, 2), new], 1, 1)
