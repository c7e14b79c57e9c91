"""Independent oracles used to cross-check library results.

Everything here is deliberately written against plain dicts and dense
coefficient lists rather than the library's own arithmetic, so a bug in
the package cannot hide itself by appearing on both sides of an assert.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from qcong.bivariate import BiPoly, RatExpr
from qcong.families import SplitMix64
from qcong.laurent import LaurentPoly, one, qpow
from qcong.qcalc import qpoch


def terms_of(p: LaurentPoly) -> dict:
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_mul(a: dict, b: dict) -> dict:
    """Schoolbook product of two exponent->coefficient dicts."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c != 0}


def ref_add(a: dict, b: dict) -> dict:
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c != 0}


# -- dense ordinary-polynomial helpers (ascending coefficient lists) --------


def dense_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def dense_divmod(num: list, den: list) -> tuple:
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(num) - len(den), -1, -1):
        coeff = rem[i + len(den) - 1] / den[-1]
        quot[i] = coeff
        if coeff:
            for j, dc in enumerate(den):
                rem[i + j] -= coeff * dc
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def dense_sub(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def dense_ext_gcd(a: list, b: list) -> tuple:
    """(g, u, v) with u*a + v*b = g and g monic: the Euclidean algorithm over
    Q on ascending coefficient lists, by dense_divmod.  Zero is [0]; a and b
    must not both be zero.

    Each new remainder is made monic, its cofactors divided alike: the final
    (g, u, v) is unchanged, and the fractions stay near their reduced size
    instead of compounding the leading coefficients of every step."""
    r0, r1 = [Fraction(c) for c in a], [Fraction(c) for c in b]
    u0, u1 = [Fraction(1)], [Fraction(0)]
    v0, v1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        quot, rem = dense_divmod(r0, r1)
        u2, v2 = dense_sub(u0, dense_mul(quot, u1)), dense_sub(v0, dense_mul(quot, v1))
        if any(rem):
            lead = rem[-1]
            rem, u2, v2 = ([c / lead for c in x] for x in (rem, u2, v2))
        r0, r1, u0, u1, v0, v1 = r1, rem, u1, u2, v1, v2
    while r0[-1] == 0:
        r0.pop()
    lead = r0[-1]
    return tuple([c / lead for c in x] for x in (r0, u0, v0))


def mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def cyclotomic_by_mobius(n: int) -> LaurentPoly:
    """Phi_n as prod over d | n of (q^(n/d) - 1)^mobius(d), no recursion."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = mobius(d)
        if mu == 0:
            continue
        factor = [Fraction(-1)] + [Fraction(0)] * (n // d - 1) + [Fraction(1)]
        if mu == 1:
            num = dense_mul(num, factor)
        else:
            den = dense_mul(den, factor)
    quot, rem = dense_divmod(num, den)
    assert rem == [Fraction(0)], "mobius product must divide exactly"
    return LaurentPoly({i: c for i, c in enumerate(quot) if c != 0})


def qpascal_rows(length: int) -> list:
    """The rows [m, 0..m] of Gaussian binomials for m < length, each by the
    q-Pascal recurrence [m, j] = [m-1, j-1] + q^j [m-1, j] from the one
    before, as dicts."""
    rows = [[{0: Fraction(1)}]]
    for m in range(1, length):
        row = rows[-1]
        rows.append([{0: Fraction(1)}] + [ref_add(row[j - 1], {e + j: c for e, c in row[j].items()})
                                          for j in range(1, m)] + [{0: Fraction(1)}])
    return rows[:length]


def qpascal(n: int, k: int) -> dict:
    """Gaussian binomial by the q-Pascal recurrence, as a dict."""
    if k < 0 or k > n:
        return {}
    return qpascal_rows(n + 1)[n][k]


def negative_top_qbinom(m: int, k: int) -> LaurentPoly:
    """Closed form for a Gaussian binomial with top index -m, m >= 1."""
    if k < 0:
        return LaurentPoly()
    sign = -1 if k % 2 else 1
    body = LaurentPoly(qpascal(m + k - 1, k))
    return body.shift(-m * k - k * (k - 1) // 2) * sign


def binom_frac(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= (alpha - i)
    return out / factorial(k)


def padic_val(x: Fraction, p: int) -> int:
    """p-adic valuation; huge sentinel for zero."""
    if x == 0:
        return 10**9
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def splitmix_ints(seed: int, length: int) -> list:
    """length SplitMix64 draws in [-9, 9], a fixed sequence per seed."""
    rng = SplitMix64(seed)
    return [rng.next_int(9) for _ in range(length)]


def classical_halves_by_rationals(p: int, alpha: Fraction) -> tuple:
    """The two halves of the classical kernel as exact rationals, for j < p:
    w_j = C(alpha,j) C(-1-alpha,j) and c_j = Sum_(j<=k<p) C(k,j) w_k."""
    w = [binom_frac(alpha, k) * binom_frac(-1 - alpha, k) for k in range(p)]
    return w, [sum(comb(k, j) * w[k] for k in range(j, p)) for j in range(p)]


def classical_sun_by_rationals(p: int, alpha: Fraction, fs) -> bool:
    """Sun's p^2 congruence on exact rationals: whether
    Sum_(k<p) C(alpha,k) C(-1-alpha,k) f_k minus (-1)^<alpha>_p times the
    same sum over hat(f)_k = Sum_(j<=k) (-1)^j C(k,j) f_j has p-adic
    valuation at least 2.  About p^2 Fraction operations."""
    a = alpha.numerator * pow(alpha.denominator, -1, p) % p
    s_plain = s_hat = Fraction(0)
    for k in range(p):
        w = binom_frac(alpha, k) * binom_frac(-1 - alpha, k)
        s_plain += w * fs[k]
        s_hat += w * sum((-1) ** j * comb(k, j) * fs[j] for j in range(k + 1))
    return padic_val(s_plain - (-1) ** a * s_hat, p) >= 2


def solve_lower_triangular(matrix, gs):
    """Recover f from g = M f when M is lower triangular with unit monomial
    diagonal entries (exact division by a +-q^e monomial)."""
    fs = []
    for k, g in enumerate(gs):
        acc = g
        for j in range(k):
            acc = acc - matrix[k][j] * fs[j]
        diag = matrix[k][k]
        (e, c), = diag.terms.items()
        assert c in (1, -1), "diagonal must be a unit monomial"
        fs.append(acc.shift(-e) * c)
    return fs


def complex_eval(p: LaurentPoly, z: complex) -> complex:
    out = 0j
    for e, c in p.terms.items():
        out += complex(c) * z**e
    return out


def transform_matrix(kind: str, length: int) -> list:
    """The lower-triangular matrix M with (M f)_k = hat(f)_k or tilde(f)_k,
    written out from the defining sums with q-Pascal binomials."""
    if length < 1:
        raise ValueError("matrix size must be at least 1")
    if kind == "hat":
        def shift(k, j):
            return j * (j + 1) // 2
    elif kind == "tilde":
        def shift(k, j):
            return j * (j - 1) // 2 - k * j
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    return [
        [
            LaurentPoly({e + shift(k, j): (-1) ** j * c for e, c in row[j].items()}) if j <= k else LaurentPoly()
            for j in range(length)
        ]
        for k, row in enumerate(qpascal_rows(length))
    ]


def sun_p_by_definition(p) -> tuple:
    """Both sides of the q-analogue of Sun's congruence at the cell p (odd n),
    from P_n(alpha, x; Q) = Sum_(k<n) Q^(k^2+k) [alpha,k]_Q [-1-alpha,k]_Q
    (x;Q)_k / (Q;Q)_k at alpha = -r/d: P_n(alpha, x; q^d) and
    sign * q^E * P_n(alpha, x q^-d; q^-d), each over its (Q;Q)_(n-1)^3.

    [alpha,k]_Q = (Q^alpha;Q^-1)_k / (Q;Q)_k, and Q^alpha = q^-r at Q = q^d
    and q^r at Q = q^-d, so every exponent is an integer."""
    sides = []
    for e, x_shift in ((p.d, 0), (-p.d, -p.d)):  # Q = q^e, x -> x q^x_shift
        a = -p.r if e > 0 else p.r  # Q^alpha = q^a
        num, x_poch = BiPoly(), BiPoly.const(one)
        for k in range(p.n):
            binoms = qpoch(a, -e, k) * qpoch(-e - a, -e, k)
            num = num + x_poch * (qpow(e * (k * k + k)) * binoms * qpoch(e * (k + 1), e, p.n - 1 - k) ** 3)
            x_poch = x_poch * BiPoly({0: one, 1: -qpow(x_shift + e * k)})
        sides.append(RatExpr(num, qpoch(e, e, p.n - 1) ** 3))
    return sides[0], sides[1] * (qpow(p.E) * p.sign)


def dense_of(p: LaurentPoly) -> list:
    """The coefficients of an ordinary polynomial, lowest degree first; [0] for zero."""
    t = p.terms
    return [Fraction(t.get(i, 0)) for i in range(max(t, default=0) + 1)]


@lru_cache(maxsize=None)
def phi_power_by_mobius(n: int, m: int) -> tuple:
    """The dense coefficients of Phi_n^m, from the Moebius product; kept per (n, m)."""
    phi = dense_of(cyclotomic_by_mobius(n))
    out = [Fraction(1)]
    for _ in range(m):
        out = dense_mul(out, phi)
    return tuple(out)


@lru_cache(maxsize=None)
def _int_modulus(n: int, m: int) -> tuple:
    """Phi_n^m from the Moebius product, as integers: for n >= 2 it is monic
    with constant term 1, so every q^e reduces to an integer list."""
    modulus = phi_power_by_mobius(n, m)
    assert modulus[0] == modulus[-1] == 1 and all(c.denominator == 1 for c in modulus)
    return tuple(int(c) for c in modulus)


def _remainder(a: list, modulus: tuple) -> list:
    """a mod the monic modulus by schoolbook long division, padded to its degree;
    integer inputs stay integers."""
    dim = len(modulus) - 1
    a = list(a) + [0] * max(0, dim - len(a))
    for i in range(len(a) - 1, dim - 1, -1):
        c = a[i]
        if c:
            for j, mc in enumerate(modulus):
                a[i - dim + j] -= c * mc
    return a[:dim]


def _mulmod(a: list, b: list, modulus: tuple) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _remainder(out, modulus)


@lru_cache(maxsize=None)
def _squarings(n: int, m: int, negative: bool) -> list:
    """[q^(+-1), q^(+-2), q^(+-4), ...] mod Phi_n^m, the squarings that
    residue_by_long_division's square-and-multiply uses, kept per (n, m) and
    extended there as exponents grow.  q^-1 = -(M - 1) / q, read off
    M = Phi_n^m, whose constant term is 1."""
    modulus = _int_modulus(n, m)
    return [[-c for c in modulus[1:]] if negative else [0, 1]]


# a run of exponents v .. v + _DENSE_SPAN - 1 is divided as one dense polynomial
_DENSE_SPAN = 4096


def residue_by_long_division(terms: dict, n: int, m: int) -> list:
    """Coefficients of Sum c*q^e mod Phi_n^m, lowest degree first, padded to m*phi(n).

    Phi_n^m comes from the Moebius product.  The terms are split, in order of
    exponent, into runs of exponents v up to v + _DENSE_SPAN, v the least
    one of its run: so a Laurent input's valuation is taken out once.  Each
    run is q^v times one dense polynomial, sized to the run and reduced by
    long division on integers, the coefficients' denominators cleared
    first.  q^v is built by square-and-multiply on dense integer
    lists, from the squarings of _squarings, and reduced by long division
    after every product.
    """
    modulus = _int_modulus(n, m)
    dim = len(modulus) - 1

    def power(e):
        squares = _squarings(n, m, e < 0)
        acc, e, i = [1], abs(e), 0
        while e:
            if i == len(squares):
                squares.append(_mulmod(squares[-1], squares[-1], modulus))
            if e & 1:
                acc = _mulmod(acc, squares[i], modulus)
            e >>= 1
            i += 1
        return acc

    den = lcm(*(Fraction(c).denominator for c in terms.values()))  # every division is on integers
    runs = {}  # v -> {e - v: c * den}
    for e in sorted(terms):
        if not runs or e - v >= _DENSE_SPAN:
            v = e
            runs[v] = {}
        runs[v][e - v] = int(terms[e] * den)
    total = [0] * dim
    for v, run in runs.items():
        dense = [0] * (max(run) + 1)
        for e, c in run.items():
            dense[e] = c
        low = _remainder(dense, modulus)
        total = [a + b for a, b in zip(total, _mulmod(power(v), low, modulus) if v else low)]
    return [Fraction(c, den) for c in total]


def inverse_by_ext_gcd(a: LaurentPoly, n: int, m: int) -> tuple:
    """(g, u) with g = gcd(a, Phi_n^m) made monic, by the extended Euclidean
    algorithm over Q (dense_ext_gcd), and, when g == 1, u the coefficients of
    a^-1 mod Phi_n^m as residue_by_long_division lists them.

    a enters as its residue by long division; Phi_n^m comes from the
    Moebius product.
    """
    g, u, _ = dense_ext_gcd(residue_by_long_division(a.terms, n, m), phi_power_by_mobius(n, m))
    g = LaurentPoly(enumerate(g))
    if g != LaurentPoly.const(1):
        return g, None
    return g, residue_by_long_division(dict(enumerate(u)), n, m)
