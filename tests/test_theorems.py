import dataclasses
import importlib.util
import inspect
import math
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from helpers import (classical_halves_by_rationals, classical_sun_by_rationals, residue_by_long_division, splitmix_ints,
                     sun_p_by_definition, transform_matrix)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcong import congruence, theorems
from qcong.bivariate import BiPoly, RatExpr
from qcong.congruence import (NoncoprimeDenominatorError, Residue, congruent, horner, reduce, reduce_by_degree,
                              residual)
from qcong.cyclotomic import cyclotomic, totient
from qcong.families import FamilySpec, generate
from qcong.laurent import LaurentPoly, one, q, qpow
from qcong.qcalc import qbinom_int, qpoch
from qcong.theorems import (
    CHECKS,
    MAX_CLASSICAL_P,
    AlphaParams,
    CheckReport,
    SymParams,
    _odd_prime,
    _full_sides,
    _residual_text,
    _ring_diff,
    _ring_weights,
    _spec,
    _thm_1_1,
    _thm_1_2,
    _thm_2_1,
    _weights,
    check_classical_sun,
    check_even_sign_fact,
    check_guo_zeng,
    check_lemma_sn_binom,
    check_lemma_sn_minus1,
    check_s0_identity,
    check_sun_p_analogue,
    check_thm_1_1,
    check_thm_1_2,
    check_thm_2_1,
    thm_1_1_sides,
    thm_1_2_sides,
    thm_2_1_sides,
)
from qcong.transforms import RATIONAL, PolySeq, UNIVARIATE, common_denominator

# -- parameter derivation ----------------------------------------------------

SYM_CASES = [
    # (n, d, r) -> (a, E, sign, branch), worked out from the defining formulas
    ((3, 1, 1), (2, 0, 1, "odd")),
    ((6, 5, 2), (2, 21, 1, "even")),
    ((5, 3, 1), (3, 8, -1, "odd")),
    ((4, 3, -1), (3, 6, -1, "even")),
    ((2, 1, 0), (0, 0, 1, "even")),
]


@pytest.mark.parametrize("ndr,expected", SYM_CASES)
def test_sym_params_known_cells(ndr, expected):
    p = SymParams.create(*ndr)
    assert (p.a, p.E, p.sign, p.branch) == expected


def test_sym_params_defining_property():
    """a, found from the inverse of d mod n, is the residue a scan of
    [0, n-1] for a*d + r == 0 (mod n) finds, on every coprime (n, d) with
    n, d <= 30."""
    for n in range(2, 31):
        for d in range(1, 31):
            if math.gcd(n, d) != 1:
                continue
            for r in range(-5, 6):
                p = SymParams.create(n, d, r)
                assert p.a == next(a for a in range(n) if (a * d + r) % n == 0), (n, d, r)


ALPHA_CASES = [
    ((5, 2, 1), (7, 3, 1, "odd")),
    ((4, 1, -2), (-7, 5, -1, "even")),
    ((7, 0, 0), (0, 0, 1, "odd")),
    ((6, 3, 2), (15, 12, -1, "even")),
]


@pytest.mark.parametrize("nas,expected", ALPHA_CASES)
def test_alpha_params_known_cells(nas, expected):
    p = AlphaParams.create(*nas)
    assert (p.alpha, p.F, p.sign, p.branch) == expected


def test_params_validation():
    """Ill-posed arguments raise on every call: the factories are memoized,
    and their errors are not.  Valid calls return equal records."""
    bad = [(SymParams.create, (6, 3, 1)), (SymParams.create, (1, 1, 0)), (SymParams.create, (5, 0, 1)),
           (AlphaParams.create, (5, 5, 0)), (AlphaParams.create, (1, 0, 1))]
    for _ in range(3):
        for create, args in bad:
            with pytest.raises(ValueError):
                create(*args)
    assert SymParams.create(6, 5, 2) == SymParams.create(6, 5, 2)
    assert AlphaParams.create(6, 3, 2) == AlphaParams.create(6, 3, 2)


# -- the symmetric congruences ----------------------------------------------

SPOT_CELLS = [(3, 1, 1), (5, 2, 1), (5, 3, -2), (6, 5, 2), (7, 4, 3), (8, 3, -1)]
SPOT_FAMILIES = ["ones", "delta:0", "delta:1", "monomial_q:1", "random_poly:2:3"]


@pytest.mark.parametrize("cell", SPOT_CELLS)
def test_thm_1_1_spot_cells(cell):
    p = SymParams.create(*cell)
    for fam in SPOT_FAMILIES:
        rep = check_thm_1_1(p, fam)
        assert rep.holds, (cell, fam)
        assert rep.check == "thm1.1"
        assert rep.residual is None
        assert rep.a == p.a and rep.exponent == p.E and rep.sign == p.sign
        assert rep.params["family"] == fam
        assert rep.wall_time >= 0.0


@pytest.mark.parametrize("cell", SPOT_CELLS)
def test_thm_1_2_spot_cells(cell):
    p = SymParams.create(*cell)
    for fam in SPOT_FAMILIES:
        assert check_thm_1_2(p, fam).holds, (cell, fam)


def test_thm_1_2_accepts_rational_families():
    for cell in [(3, 2, 1), (5, 2, 1), (7, 1, 2)]:
        assert check_thm_1_2(SymParams.create(*cell), "sun_p_x").holds, cell


def test_thm_1_1_rejects_rational_families():
    with pytest.raises(ValueError):
        check_thm_1_1(SymParams.create(5, 2, 1), "sun_p_x")


def test_sides_require_full_length_sequences():
    p = SymParams.create(5, 2, 1)
    short = PolySeq((one, one), UNIVARIATE)
    with pytest.raises(ValueError):
        thm_1_1_sides(p, short)
    with pytest.raises(ValueError):
        thm_1_2_sides(p, short)


def test_checks_accept_explicit_polyseq():
    p = SymParams.create(5, 2, 1)
    seq = PolySeq(tuple(qpow(k) for k in range(5)), UNIVARIATE)
    rep = check_thm_1_1(p, seq)
    assert rep.holds
    assert rep.params["family"] == "custom"


def test_thm_1_1_and_1_2_agree_on_bivariate():
    p = SymParams.create(5, 3, 1)
    assert check_thm_1_1(p, "monomial_x").holds
    assert check_thm_1_2(p, "monomial_x").holds


THM21_CELLS = [(2, 0, 1), (3, 2, -1), (5, 2, 1), (6, 1, 2), (7, 4, -3), (8, 5, 0)]


@pytest.mark.parametrize("cell", THM21_CELLS)
def test_thm_2_1_spot_cells(cell):
    p = AlphaParams.create(*cell)
    for fam in ("ones", "delta:1", "random_poly:4:2"):
        rep = check_thm_2_1(p, fam)
        assert rep.holds, (cell, fam)
        assert rep.exponent == p.F


def test_s0_identity_is_exact_equality():
    for n, a in [(3, 0), (5, 2), (6, 3), (8, 5)]:
        assert check_s0_identity(n, a, "ones")
        assert check_s0_identity(n, a, "random_poly:9:3")


def test_s0_sides_differ_before_normalization():
    # the s = 0 identity is Theorem 2.1's sides at s = 0
    lhs, rhs = thm_2_1_sides(AlphaParams.create(5, 2, 0), generate("ones", 5))
    assert lhs == rhs
    assert lhs != rhs + one


# -- mutation controls: breaking either side must be detected ----------------


def test_added_cyclotomic_breaks_the_congruence():
    p = SymParams.create(5, 3, 1)
    seq = generate("ones", 5)
    lhs, rhs = thm_1_1_sides(p, seq)
    assert congruent(lhs, rhs, 5, 2)
    phi = cyclotomic(5)
    from qcong.bivariate import RatExpr

    bumped = RatExpr(lhs.num + phi * lhs.den, lhs.den)
    assert not congruent(bumped, rhs, 5, 2)


def test_wrong_sign_fails():
    p = SymParams.create(5, 3, 1)  # sign is -1 here
    seq = generate("ones", 5)
    lhs, rhs = thm_1_1_sides(p, seq)
    assert not congruent(lhs, -1 * rhs, 5, 2)


def test_perturbed_family_entry_fails():
    p = AlphaParams.create(5, 2, 1)
    seq = generate("ones", 5)
    lhs, rhs = thm_2_1_sides(p, seq)
    assert congruent(lhs, rhs, 5, 2)
    mutated = PolySeq((seq[0], seq[1] + q) + seq.entries[2:], seq.kind)
    _, rhs_mut = thm_2_1_sides(p, mutated)
    assert not congruent(lhs, rhs_mut, 5, 2)


# -- the residue-ring checks against the full sides ---------------------------

RING_CELLS = [(2, 1, 0), (5, 3, 1), (6, 5, 2), (7, 2, -3), (9, 4, 2), (11, 1, 4), (12, 5, -1)]
RING_FAMILIES = ["ones", "delta:1", "monomial_q:2", "random_poly:5:3", "monomial_x", "sun_p_x"]


def _bump_exponent(p, by: int):
    """p with its exponent (E, or F for Theorem 2.1) moved by `by`."""
    name = "F" if isinstance(p, AlphaParams) else "E"
    return dataclasses.replace(p, **{name: getattr(p, name) + by})


# the true cell, then the negative controls
PERTURBATIONS = {
    "true": lambda p: p,
    "flipped sign": lambda p: dataclasses.replace(p, sign=-p.sign),
    "E+1": lambda p: _bump_exponent(p, 1),
    "E-1": lambda p: _bump_exponent(p, -1),
}
CHECKS_BY_SIDES = [(check_thm_1_1, thm_1_1_sides), (check_thm_1_2, thm_1_2_sides)]


def _full_verdict(lhs, rhs, n):
    holds = congruent(lhs, rhs, n, 2)
    return holds, None if holds else _residual_text(residual(lhs, rhs, n, 2))


SUN_P_X = FamilySpec.parse("sun_p_x")


def _statement(build, p, seq):
    """(p, cell, seq): a builder's cell at p, with the sequence seq as _check
    attaches it, None for a rescaled side (the sun_p_x label)."""
    cell = build(p, seq)
    return p, cell, None if cell[1][1] else seq


def _kernel(n, spec, t, step):
    """The kernel of a side as _kernel_diff forms it: the weights times
    q^(step*k), and Horner on them at (t*d, t*d) for a side transformed
    by t."""
    v = [wk * qpow(step * k) for k, wk in enumerate(_ring_weights(n, spec))]
    td = t * spec[1]
    return horner(v, td, td) if t else v


def _ring_ratexprs(statement):
    """Each side in the ring, its own kernel mapped by _ring_diff with its own
    (exponent, sign) scale, as two RatExpr over the cell's denominator in the
    ring: the tail G_0 at (n, d, 2) times the rescaled side's H_0 or the
    family's fden."""
    p, (spec, (step, rescaled), t, lscale, rscale, fden), seq = statement
    n, d = p.n, spec[1]
    den = theorems._ring_tails(n, d, 2)[0] * (theorems._ring_tails(n, d, 1)[0] if rescaled else fden)
    den = den.rep
    bivariate = rescaled or any(isinstance(f, BiPoly) or isinstance(f, RatExpr) and f.is_bivariate()
                                        for f in seq.entries)

    def side(t, scale):
        residues = _ring_diff(n, d, rescaled, scale, seq, _kernel(n, spec, t, step))
        if bivariate:
            return RatExpr(BiPoly({j: r.rep for j, r in residues.items()}), den)
        return RatExpr(residues[0].rep, den)

    return side(0, lscale), side(t, rscale)


@pytest.mark.parametrize("cell", RING_CELLS)
@pytest.mark.parametrize("name", PERTURBATIONS)
def test_ring_check_matches_full_sides(cell, name):
    perturb = PERTURBATIONS[name]
    p = perturb(SymParams.create(*cell))
    alpha = perturb(AlphaParams.create(p.n, p.a, cell[2]))  # Theorem 2.1 at s = r
    failures = dict.fromkeys(["thm1.1", "thm1.2", "thm2.1", "guo_zeng"] + ["sun_p"] * (p.n % 2), 0)

    def compare(rep, sides):
        assert (rep.holds, rep.residual) == _full_verdict(*sides, p.n), rep.params
        failures[rep.check] += not rep.holds

    for fam in RING_FAMILIES:
        seq = generate(fam, p.n)
        for check, sides in CHECKS_BY_SIDES:
            if check is check_thm_1_1 and seq.kind == RATIONAL:
                continue
            compare(check(p, fam), sides(p, seq))
        if seq.kind != RATIONAL:
            compare(check_thm_2_1(alpha, fam), thm_2_1_sides(alpha, seq))
    compare(check_guo_zeng(p), thm_1_1_sides(p, generate("monomial_x", p.n)))
    if p.n % 2:
        compare(check_sun_p_analogue(p), sun_p_by_definition(p))
    if name != "true" and p.n > 2:
        assert all(failures.values()), f"the perturbation went unnoticed: {failures}"
    elif name == "true":
        assert not any(failures.values())


@pytest.mark.parametrize("cell", RING_CELLS)
@pytest.mark.parametrize("fam", ["random_poly:3:3", "monomial_x", "sun_p_x"])
def test_bumped_ring_sides_match_bumped_full_sides(cell, fam):
    p = SymParams.create(*cell)
    seq = generate(fam, p.n)
    if seq.kind == RATIONAL:
        statement, sides = _thm_1_2, thm_1_2_sides
    else:
        statement, sides = _thm_1_1, thm_1_1_sides
    bump = qpow(cell[2] % p.n) * cyclotomic(p.n) * 3
    verdicts = []
    for lhs, rhs in (_ring_ratexprs(_statement(statement, p, seq)), sides(p, seq)):
        bumped = RatExpr(lhs.num + bump * lhs.den, lhs.den)
        verdicts.append(_full_verdict(bumped, rhs, p.n))
    assert verdicts[0] == verdicts[1]
    assert not verdicts[0][0]


@st.composite
def horner_cases(draw):
    """(statement, bumped): guo_zeng's statement or a rescaled side at n <= 15,
    d coprime to n, r in -5..5, and whether its lhs is bumped by c*q^j*Phi_n
    at x^i."""
    n = draw(st.integers(min_value=2, max_value=15))
    d = draw(st.integers(min_value=1, max_value=7).filter(lambda d: math.gcd(n, d) == 1))
    p = SymParams.create(n, d, draw(st.integers(min_value=-5, max_value=5)))
    statements = [partial(_statement, _thm_1_1, seq=generate("monomial_x", n)),
                  partial(_statement, _thm_1_2, seq=SUN_P_X)]
    st_ = draw(st.sampled_from(statements))(p=p)
    bump = None
    if draw(st.booleans()):
        c = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        j, i = draw(st.integers(min_value=-2 * n, max_value=2 * n)), draw(st.integers(0, n - 1))
        bump = BiPoly.x_power(i, qpow(j) * cyclotomic(n) * c)
    return st_, bump


@settings(max_examples=40, deadline=None)
@given(horner_cases())
def test_horner_sides_match_the_full_sides(case):
    """guo_zeng and thm1.2 sun_p_x (which sun_p decides), each side mapped in
    the ring by _ring_diff (Horner in x for the rescaled side), give the
    verdict and residual string of the same statement on full polynomials
    (_full_sides: BiPoly entries by running products, transformed by hat or
    tilde), on the true sides and with the lhs bumped off them.
    Each ring side is congruent to its full side, so a change that scales
    both alike is caught too."""
    st_, bump = case
    n = st_[0].n
    ring, full = _ring_ratexprs(st_), _full_sides(*st_)
    assert all(congruent(a, b, n, 2) for a, b in zip(ring, full))
    verdicts = []
    for lhs, rhs in (ring, full):
        if bump is not None:
            lhs = RatExpr(lhs.num + bump * lhs.den, lhs.den)
        verdicts.append(_full_verdict(lhs, rhs, n))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == (bump is None)


def _noncoprime_family(n: int) -> PolySeq:
    """q^k / Phi_n: a rational family whose denominator is not a unit mod Phi_n."""
    return PolySeq(tuple(RatExpr(qpow(k), cyclotomic(n)) for k in range(n)), RATIONAL)


def test_ring_check_reports_a_noncoprime_family_denominator():
    p, bad = SymParams.create(5, 2, 1), _noncoprime_family(5)
    with pytest.raises(NoncoprimeDenominatorError) as ring:
        check_thm_1_2(p, bad)
    with pytest.raises(NoncoprimeDenominatorError) as full:
        congruent(*thm_1_2_sides(p, bad), 5, 2)
    assert str(ring.value) == str(full.value)


def test_a_decided_cell_still_reports_a_noncoprime_family_denominator():
    assert check_thm_1_2(SymParams.create(5, 2, 1), "ones").holds
    test_ring_check_reports_a_noncoprime_family_denominator()


@pytest.mark.parametrize("n,d", [(6, 3), (9, 3), (10, 4)])
def test_a_hand_built_noncoprime_cell_raises_its_full_denominator(n, d, monkeypatch):
    """SymParams.create refuses gcd(n, d) > 1, but a record built by hand
    reaches the checks.  Its (q^d;q^d)_(n-1) is then not a unit mod Phi_n,
    so every check raises, twice in a row, the error congruent raises on
    the full sides, naming (q^d;q^d)_(n-1)^2, times (q^d;q^d)_(n-1) on the
    rescaled sun_p_x side, with no side built for it."""
    p = SymParams(n, d, 1, 0, d + 1, 1, "odd" if n % 2 else "even")
    runs = [(partial(check_thm_1_1, p, "ones"), thm_1_1_sides(p, generate("ones", n))),
            (partial(check_thm_1_2, p, "random_poly:4:3"), thm_1_2_sides(p, generate("random_poly:4:3", n))),
            (partial(check_thm_1_2, p, "sun_p_x"), _full_sides(*_statement(_thm_1_2, p, SUN_P_X))),
            (partial(check_guo_zeng, p), thm_1_1_sides(p, generate("monomial_x", n)))]
    if n % 2:
        runs.append((partial(check_sun_p_analogue, p), _full_sides(*_statement(_thm_1_2, p, SUN_P_X))))
    for check, sides in runs:
        with pytest.raises(NoncoprimeDenominatorError) as full:
            congruent(*sides, n, 2)
        with monkeypatch.context() as mp:
            for name in ("hat", "tilde", "_full_sides", "_ring_diff"):
                mp.setattr(theorems, name, _refuse)
            for _ in range(2):
                with pytest.raises(NoncoprimeDenominatorError) as ring:
                    check()
                assert str(ring.value) == str(full.value)


@pytest.mark.parametrize("n", [5, 9, 13])
def test_a_noncoprime_family_denominator_builds_no_side(n, monkeypatch):
    """The error names the full denominator of the sides, the one congruent
    names on them, but neither side is built or transformed for it."""
    p, bad = SymParams.create(n, 2, 1), _noncoprime_family(n)
    with pytest.raises(NoncoprimeDenominatorError) as full:
        congruent(*thm_1_2_sides(p, bad), n, 2)
    for name in ("hat", "tilde", "_full_sides"):
        monkeypatch.setattr(theorems, name, _refuse)
    with pytest.raises(NoncoprimeDenominatorError) as ring:
        check_thm_1_2(p, bad)
    assert str(ring.value) == str(full.value)


def test_one_certification_serves_every_family_of_a_cell(monkeypatch):
    """thm1.1, thm1.2 and guo_zeng on every family of one (n, spec) share one
    certified denominator: Residue.is_unit runs once, for the family
    denominator of the sun_p_x entries as a PolySeq, checked twice.  The
    weights' (q^d;q^d)_(n-1)^2, and the rescaled side's (q^d;q^d)_(n-1) of
    the sun_p_x label, are units by gcd(n, d) = 1 alone."""
    calls = []
    is_unit = Residue.is_unit
    monkeypatch.setattr(Residue, "is_unit", lambda res: calls.append(res.n) or is_unit(res))
    congruence._certify_den.cache_clear()
    p, rational = SymParams.create(13, 5, 3), generate("sun_p_x", 13)
    for fam in ("ones", "delta:2", "monomial_q:1", "random_poly:7:3", "monomial_x"):
        assert check_thm_1_1(p, fam).holds and check_thm_1_2(p, fam).holds, fam
    assert check_guo_zeng(p).holds and check_thm_1_2(p, "sun_p_x").holds
    assert calls == []
    for _ in range(2):
        assert check_thm_1_2(p, rational).holds
    assert calls == [13]


def test_a_noncoprime_family_denominator_raises_on_every_check():
    """The cached fact that a denominator is not a unit raises on every check,
    before and after a named family decides the same (n, spec), and that
    family's cell still holds after the error.  The fact is kept by
    congruence._certify_den; the polynomial families read no entry."""
    congruence._certify_den.cache_clear()
    p, bad = SymParams.create(7, 3, 2), _noncoprime_family(7)
    for fam in (bad, bad, "ones", bad, bad, "random_poly:3:2"):
        if fam is bad:
            with pytest.raises(NoncoprimeDenominatorError):
                check_thm_1_2(p, bad)
        else:
            assert check_thm_1_2(p, fam).holds and check_thm_1_1(p, fam).holds
    info = congruence._certify_den.cache_info()
    assert (info.misses, info.hits) == (1, 3)



def test_two_failing_checks_of_one_cell_invert_its_denominator_once():
    """Two failing checks of one sign-flipped cell, on two families, get
    their residuals over the cell's one certified denominator: it is
    inverted once (congruence._inverse), and the second check's residual
    reads the cached inverse."""
    cell = SymParams.create(7, 3, 2)
    p = dataclasses.replace(cell, sign=-cell.sign)
    congruence._inverse.cache_clear()
    reports = [check_thm_1_1(p, fam) for fam in ("random_poly:4:3", "random_poly:5:3")]
    assert not any(rep.holds for rep in reports) and reports[0].residual != reports[1].residual
    info = congruence._inverse.cache_info()
    assert (info.misses, info.hits) == (1, 1)

@st.composite
def linear_cases(draw):
    """(check, sides, params, families): thm1.1, thm1.2 or thm2.1 at n <= 15 and
    two families drawn from polynomial ones, monomial_x and, for thm1.2, the
    rational sun_p_x entries as a PolySeq (so not in Pochhammer form)."""
    n = draw(st.integers(min_value=2, max_value=15))
    name = draw(st.sampled_from(["thm1.1", "thm1.2", "thm2.1"]))
    if name == "thm2.1":
        p = AlphaParams.create(n, draw(st.integers(0, n - 1)), draw(st.integers(-3, 3)))
        check, sides = check_thm_2_1, thm_2_1_sides
    else:
        d = draw(st.integers(min_value=1, max_value=7).filter(lambda d: math.gcd(n, d) == 1))
        p = SymParams.create(n, d, draw(st.integers(-5, 5)))
        check, sides = (check_thm_1_1, thm_1_1_sides) if name == "thm1.1" else (check_thm_1_2, thm_1_2_sides)
    pool = ["ones", f"delta:{draw(st.integers(0, n - 1))}", f"monomial_q:{draw(st.integers(1, 3))}",
            f"random_poly:{draw(st.integers(0, 99))}:3", "monomial_x"]
    if name == "thm1.2":
        pool.append(generate("sun_p_x", n))
    return check, sides, p, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))


@settings(max_examples=30, deadline=None)
@given(linear_cases())
def test_linear_checks_match_the_full_sides(case):
    """thm1.1, thm1.2 and thm2.1, decided by the map of their cell's kernel
    difference, which is empty on a true cell, give the (holds, residual) of
    the full sides, on the cell and under each perturbation, for two families
    in a row: the second meets its cell already decided."""
    check, sides, cell, families = case
    for name, perturb in PERTURBATIONS.items():
        p = perturb(cell)
        for fam in families:
            seq = fam if isinstance(fam, PolySeq) else generate(fam, p.n)
            rep = check(p, fam)
            assert (rep.holds, rep.residual) == _full_verdict(*sides(p, seq), p.n), (name, rep.params)


def test_a_decided_cell_lifts_no_second_family(monkeypatch):
    """Once a true cell is decided, another family's check reports it holding
    without reducing a single entry, and a rational family's numerators over
    its shared denominator are never formed."""
    p, alpha = SymParams.create(7, 3, 2), AlphaParams.create(7, 4, -2)
    cells = [(check_thm_1_1, p), (check_thm_1_2, p), (check_thm_2_1, alpha)]
    for check, params in cells:
        assert check(params, "ones").holds

    def lift(*args):
        raise AssertionError("an entry was lifted")

    monkeypatch.setattr(theorems, "reduce_by_degree", lift)
    monkeypatch.setattr(theorems, "common_denominator", lift)
    for check, params in cells:
        for fam in ("random_poly:4:3", "monomial_x"):
            assert check(params, fam).holds, (check, fam)
    assert check_thm_1_2(p, generate("sun_p_x", 7)).holds


# (check, cell, family) -> the residual string of the sign-flipped cell
FLIPPED_RESIDUALS = {
    ("thm1.1", "ones"): "-2*q^2 + 4*q^7",
    ("thm1.1", "random_poly:4:3"): "-68*q^0 + -120*q^1 + -176*q^2 + -176*q^3 + -218*q^4 + -140*q^5"
                                   " + -74*q^6 + -4*q^7",
    ("thm1.2", "ones"): "-8*q^0 + -12*q^1 + -16*q^2 + -20*q^3 + -18*q^4 + -12*q^5 + -8*q^6 + -4*q^7",
    ("thm1.2", "random_poly:4:3"): "14*q^0 + 4*q^1 + 76*q^2 + 72*q^3 + 56*q^4 + 56*q^5 + 68*q^6 + 28*q^7",
    ("thm2.1", "ones"): "-2*q^6",
    ("thm2.1", "random_poly:4:3"): "22*q^0 + 34*q^1 + 46*q^2 + 54*q^3 + 36*q^4 + 46*q^5 + 6*q^6 + 32*q^7",
    ("guo_zeng", "monomial_x"): "x^0: 2*q^6; x^1: 6*q^0 + 8*q^1 + 12*q^2 + 16*q^3 + 18*q^4 + 12*q^5 + 8*q^6"
                                " + 8*q^7; x^2: -6*q^0 + -8*q^1 + -14*q^2 + -16*q^3 + -18*q^4 + -12*q^5"
                                " + -10*q^6 + -4*q^7",
    ("thm1.2", "sun_p_x"): "x^0: -14/25*q^0 + 44/25*q^1 + -8/5*q^2 + 4/5*q^3 + -8/5*q^4 + 44/25*q^5"
                           " + -14/25*q^6; x^1: 156/25*q^0 + 96/25*q^1 + 248/25*q^2 + 48/5*q^3 + 12*q^4"
                           " + 144/25*q^5 + 144/25*q^6 + 72/25*q^7; x^2: -92/25*q^0 + -28/5*q^1"
                           " + -208/25*q^2 + -52/5*q^3 + -52/5*q^4 + -188/25*q^5 + -26/5*q^6 + -72/25*q^7",
}


def test_a_decided_cell_generates_no_family(monkeypatch):
    """A check whose cell has an empty _kernel_diff never generates its family,
    the first family of the cell included; one whose kernels differ (the sign
    flipped) generates its entries once and reports the residual of the full
    sides, the pinned string at (5, 2, 1)."""
    cells = [(SymParams.create(n, d, r), AlphaParams.create(n, a, s))
             for n, d, r, a, s in ((5, 2, 1, 2, 1), (11, 4, -3, 6, -2))]

    def refuse(fam, n):
        raise AssertionError(f"{fam.label()} was generated")

    monkeypatch.setattr(theorems, "generate", refuse)
    for p, alpha in cells:
        for check, params in ((check_thm_1_1, p), (check_thm_1_2, p), (check_thm_2_1, alpha)):
            for fam in ("ones", "random_poly:4:3", "monomial_x"):
                assert check(params, fam).holds, (check, params, fam)
        assert check_thm_1_2(p, "sun_p_x").holds
        assert check_guo_zeng(p).holds

    generated = []

    def counted(fam, n):
        generated.append(fam.label())
        return generate(fam, n)

    monkeypatch.setattr(theorems, "generate", counted)
    p, alpha = (dataclasses.replace(params, sign=-params.sign) for params in cells[0])
    runs = [("thm1.1", partial(check_thm_1_1, p), partial(thm_1_1_sides, p), p.n),
            ("thm1.2", partial(check_thm_1_2, p), partial(thm_1_2_sides, p), p.n),
            ("thm2.1", partial(check_thm_2_1, alpha), partial(thm_2_1_sides, alpha), alpha.n)]
    for name, check, sides, n in runs:
        for fam in ("ones", "random_poly:4:3"):
            generated.clear()
            rep = check(fam)
            assert generated == [fam]
            assert (rep.holds, rep.residual) == _full_verdict(*sides(generate(fam, n)), n)
            assert rep.residual == FLIPPED_RESIDUALS[name, fam]
    generated.clear()
    assert check_guo_zeng(p).residual == FLIPPED_RESIDUALS["guo_zeng", "monomial_x"]
    assert generated == ["monomial_x"]


def test_a_trimmed_cell_lifts_only_its_prefix(monkeypatch):
    """The sign-flipped cell (5, 2, 1), a = 2, has ring weights w_0..w_2 (K = 2
    < n - 1), and at r = 0 the factor 1 - q^0 leaves w_0 alone.  A failing
    check there lifts f_0..f_K only, once for both sides, and reports the
    residual of the full sides, the pinned string at (5, 2, 1)."""
    lifted = []

    def counted(num, n, m):
        lifted.append(num)
        return reduce_by_degree(num, n, m)

    monkeypatch.setattr(theorems, "reduce_by_degree", counted)
    for r, K in ((1, 2), (0, 0)):
        cell = SymParams.create(5, 2, r)
        p = dataclasses.replace(cell, sign=-cell.sign)
        alpha = AlphaParams.create(5, 2, r)
        alpha = dataclasses.replace(alpha, sign=-alpha.sign)
        assert len(_ring_weights(5, _spec(r, 2))) == K + 1
        runs = [("thm1.1", partial(check_thm_1_1, p), partial(thm_1_1_sides, p), K),
                ("thm1.2", partial(check_thm_1_2, p), partial(thm_1_2_sides, p), K),
                ("thm2.1", partial(check_thm_2_1, alpha), partial(thm_2_1_sides, alpha),
                 len(_ring_weights(5, _spec(-alpha.alpha, 1))) - 1)]
        for name, check, sides, k in runs:
            for fam in ("ones", "random_poly:4:3"):
                lifted.clear()
                rep = check(fam)
                assert len(lifted) == k + 1 < 5, (name, r, fam)
                assert (rep.holds, rep.residual) == _full_verdict(*sides(generate(fam, 5)), 5)
                if r == 1:
                    assert rep.residual == FLIPPED_RESIDUALS[name, fam]
        lifted.clear()
        rep = check_guo_zeng(p)
        assert len(lifted) == K + 1
        assert (rep.holds, rep.residual) == _full_verdict(*thm_1_1_sides(p, generate("monomial_x", 5)), 5)
        if r == 1:
            assert rep.residual == FLIPPED_RESIDUALS["guo_zeng", "monomial_x"]


def _refuse(*args):
    raise AssertionError("called on the decided path")


@pytest.mark.parametrize("cell", [(7, 2, -3), (11, 3, 2)])
def test_a_decided_cell_decides_sun_p_x_without_its_sides(cell, monkeypatch):
    """Once thm1.2 has decided a cell on another family, the sun_p_x label
    holds there with no Horner run and no full Pochhammer product formed: its
    sides map the cell's empty kernel difference, and its denominator
    (q^d;q^d)_(n-1) is the cached tail H_0."""
    p = SymParams.create(*cell)
    assert check_thm_1_2(p, "ones").holds
    monkeypatch.setattr(theorems, "horner", _refuse)
    monkeypatch.setattr(theorems, "qpoch", _refuse)
    assert check_thm_1_2(p, "sun_p_x").holds


def test_sun_p_x_shares_the_kernel_diff_of_its_cell():
    """sun_p_x, then two other families at one thm1.2 cell: one _kernel_diff
    entry serves all three."""
    theorems._kernel_diff.cache_clear()
    p = SymParams.create(9, 4, -2)
    for fam in ("sun_p_x", "ones", "random_poly:4:3"):
        assert check_thm_1_2(p, fam).holds, fam
    info = theorems._kernel_diff.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_a_failing_sun_p_x_check_forms_no_full_denominator(monkeypatch):
    """The sign-flipped sun_p_x cell (5, 2, 1) gets its residual from the ring
    difference alone, with no full Pochhammer product formed: the pinned
    string, which is that of the full sides."""
    cell = SymParams.create(5, 2, 1)
    p = dataclasses.replace(cell, sign=-cell.sign)
    monkeypatch.setattr(theorems, "qpoch", _refuse)
    rep = check_thm_1_2(p, "sun_p_x")
    monkeypatch.undo()
    assert rep.residual == FLIPPED_RESIDUALS["thm1.2", "sun_p_x"]
    assert (rep.holds, rep.residual) == _full_verdict(*_full_sides(*_statement(_thm_1_2, p, SUN_P_X)), 5)


def test_one_kernel_diff_entry_per_cell_and_scale_ratio():
    """One _kernel_diff miss serves three thm1.1 families of a cell.  The same
    (n, d, r) with its sign flipped, or with E moved, has another ratio of
    scales, so each is a new miss that fails: a key without the ratio's sign
    or exponent would report them holding."""
    theorems._kernel_diff.cache_clear()
    cell = SymParams.create(9, 4, -2)
    for p, holds in ((cell, True), (dataclasses.replace(cell, sign=-cell.sign), False),
                     (_bump_exponent(cell, 1), False)):
        for fam in ("ones", "delta:2", "random_poly:4:3"):
            assert check_thm_1_1(p, fam).holds == holds, (p, fam)
    info = theorems._kernel_diff.cache_info()
    assert (info.misses, info.hits) == (3, 6)


RING_CACHES = (theorems._ring_tails, theorems._ring_weights, theorems._kernel_diff, congruence._certify_den,
               congruence._inverse)
BUDGETED = (theorems._ring_tails, congruence._certify_den, congruence._inverse)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 9), st.integers(1, 4), st.integers(1, 2)), min_size=1, max_size=14),
       st.integers(40, 400))
def test_the_ring_tails_stay_within_the_budget(lookups, budget):
    """Tail sets looked up under a small ring budget follow a least recently
    used model of their costs, n residues of 2*phi(n) coefficients: a hit
    where the model holds the key, a miss where not, and after each lookup
    the model's entries and cost, within the budget unless one newest entry
    alone is over it.  Every returned set equals a fresh _tails build, and
    clearing another budgeted table leaves the tails where they are."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruence, "RING_BUDGET", budget)
        for table in BUDGETED:
            table.cache_clear()
        model = {}  # key -> cost, least recently used first
        for key in lookups:
            n, step, power = key
            before = theorems._ring_tails.cache_info()
            assert theorems._ring_tails(*key) == tuple(theorems._tails(partial(reduce, n=n, m=2), step, n, power))
            info = theorems._ring_tails.cache_info()
            assert (info.hits - before.hits, info.misses - before.misses) == ((1, 0) if key in model else (0, 1))
            model[key] = model.pop(key, n * 2 * totient(n))
            while sum(model.values()) > budget and len(model) > 1:
                del model[next(iter(model))]
            assert (info.currsize, info.cost) == (len(model), sum(model.values()))
            total = [table.cache_info() for table in BUDGETED]
            assert sum(t.cost for t in total) <= budget or sum(t.currsize for t in total) == 1
        congruence._inverse.cache_clear()  # clears its own entries only
        theorems._ring_tails(*lookups[-1])
        assert theorems._ring_tails.cache_info().hits == info.hits + 1


SYM_GRID_PAIRS = [(n, d) for n in range(2, 13) for d in range(1, 7) if math.gcd(n, d) == 1]


def _three_sym_grid_rounds():
    """Three rounds over the 40 coprime (n, d) of the sym_grid benchmark from
    cold ring caches, thm1.1 and thm1.2 at an r that changes every round."""
    assert len(SYM_GRID_PAIRS) == 40
    for cache in RING_CACHES:
        cache.cache_clear()
    for r in (1, -2, 4):
        for n, d in SYM_GRID_PAIRS:
            assert check_thm_1_1(SymParams.create(n, d, r), "ones").holds
            assert check_thm_1_2(SymParams.create(n, d, r - 1), "ones").holds


def test_three_sym_grid_rounds_build_each_tail_set_once():
    """Three sym_grid rounds rebuild the weights of each cell (a few entries
    are kept) but build each tail set (n, d, 2) once: the 40 sets cost about
    3 200 coefficients and stay."""
    _three_sym_grid_rounds()
    info = theorems._ring_tails.cache_info()
    assert (info.misses, info.currsize) == (40, 40) and info.hits >= 80
    assert info.cost == sum(n * 2 * totient(n) for n, _ in SYM_GRID_PAIRS) == 3156


def test_three_sym_grid_rounds_certify_no_denominator(monkeypatch):
    """The cell denominator of a polynomial family is (q^d;q^d)_(n-1)^2, a
    unit mod Phi_n because gcd(n, d) = 1: three sym_grid rounds certify each
    of the 40 by that gcd alone, with no residue tested for a unit, no
    denominator certified or cached and none inverted."""
    calls = []
    is_unit = Residue.is_unit
    monkeypatch.setattr(Residue, "is_unit", lambda res: calls.append(res.n) or is_unit(res))
    _three_sym_grid_rounds()
    infos = [congruence._certify_den.cache_info(), congruence._inverse.cache_info()]
    assert calls == [] and [(info.misses, info.hits, info.currsize) for info in infos] == [(0, 0, 0)] * 2


@pytest.mark.parametrize("check", [check_thm_1_1, check_thm_1_2])
def test_a_cold_linear_cell_runs_one_horner(check, monkeypatch):
    """A cold thm1.1 or thm1.2 cell runs Horner once, on its weights, with
    the side step and the scale ratio applied in it: at c = t*d - step,
    which is 0 for thm1.1 (step d) and -d for thm1.2 (step 0).  A second
    family of the cell runs none."""
    calls = []

    def counted(g, c, e, step, scale):
        calls.append((len(g), c, e, step))
        return horner(g, c, e, step, scale)

    monkeypatch.setattr(theorems, "horner", counted)
    for cache in RING_CACHES:
        cache.cache_clear()
    p = SymParams.create(11, 3, 2)
    for fam in ("ones", "random_poly:4:3"):
        assert check(p, fam).holds
    t, step = (1, 3) if check is check_thm_1_1 else (-1, 0)
    assert calls == [(len(_ring_weights(11, _spec(2, 3))), 3 * t - step, 3 * t, step)]


def _kernel_diff_of_two_kernels(n, spec, step, t, e, sign):
    """u^L - sign * q^e * u^R from the two kernels of _kernel, each formed on
    its own with its shift products, then the ratio products, as the
    difference was formed before one Horner pass decided it: () when zero."""
    ratio = LaurentPoly.monomial(e, sign)
    u = tuple(a - b * ratio for a, b in zip(_kernel(n, spec, 0, step), _kernel(n, spec, t, step), strict=True))
    return () if all(uj.is_zero() for uj in u) else u


@pytest.mark.parametrize("n", range(2, 14))
def test_kernel_diff_matches_the_two_kernels_on_perturbed_records(n):
    """Each kernel difference of a thm1.1 and a thm1.2 cell, d 1..6, r -8..8,
    formed cold (not read from its cache) on the true record and on records
    with E + 1, E - 1, the sign flipped or the side step 1: one Horner pass
    with the step and the ratio in it against the two kernels formed apart.
    No benchmark round reaches a failing cell, so this is where the failing
    path, u_j = q^(step*j) (w_j - out_j), is checked."""
    keys = set()
    for d in (d for d in range(1, 7) if math.gcd(n, d) == 1):
        for r in range(-8, 9):
            p = SymParams.create(n, d, r)
            for build in (_thm_1_1, _thm_1_2):
                spec, (step, _), t, lscale, rscale, _ = build(p, FamilySpec.parse("ones"))
                e, sign = theorems._ratio(lscale, rscale)
                keys |= {(spec, step, t, e, sign), (spec, step, t, e + 1, sign), (spec, step, t, e - 1, sign),
                         (spec, step, t, e, -sign), (spec, 1, t, e, sign)}
    failing = 0
    for key in sorted(keys):
        got = theorems._kernel_diff.__wrapped__(n, *key)
        assert got == _kernel_diff_of_two_kernels(n, *key), key
        failing += got != ()
    assert 0 < failing < len(keys)


def test_a_cold_holding_cell_multiplies_by_sparse_factors_only_in_its_pair_chain(monkeypatch):
    """A cold holding thm1.1 cell at n = 11, d = 4, r = -5 (K = 6), its tails
    built: the pair chain calls _Ring.mul_poly K + 1 times, for the factors
    (1 - q^(r + d*k)) (1 - q^(d - r + d*k)), and nothing else does.  The one
    Horner pass applies the side step q^(d*k) and the ratio q^(-E) in
    eps-coordinates, so no monomial product is formed."""
    for cache in RING_CACHES:
        cache.cache_clear()
    theorems._ring_tails(11, 4, 2)
    calls, mul_poly = [], congruence._Ring.mul_poly
    monkeypatch.setattr(congruence._Ring, "mul_poly", lambda ring, a, p: calls.append(p) or mul_poly(ring, a, p))
    assert check_thm_1_1(SymParams.create(11, 4, -5), "ones").holds
    (r, d), K = _spec(-5, 4), len(_ring_weights(11, _spec(-5, 4))) - 1
    assert K == 6 and calls == [(one - qpow(r + d * k)) * (one - qpow(d - r + d * k)) for k in range(K + 1)]


def test_every_linear_cell_has_one_spec_and_an_untransformed_left_side():
    """_check keys a cell's _kernel_diff on its one spec, its side's step and
    the right side's t: every builder's cell is
    (spec, (step, rescaled), t, lscale, rscale, fden), with the (r, d) spec of
    its CHECKS key, a rescaled side for the sun_p_x label alone and t = 1
    (hat) or -1 (tilde); the left side is untransformed by construction.
    thm2.1's spec, side and t are thm1.1's at d = 1, r = -alpha, and so is
    its key."""
    cells = 0
    for n in range(2, 10):
        for d in (d for d in range(1, 5) if math.gcd(n, d) == 1):
            for r in range(-3, 5):
                p, alpha = SymParams.create(n, d, r), AlphaParams.create(n, r % n, d - 2)
                ones = FamilySpec.parse("ones")
                built = [(_thm_1_1(p, ones), CHECKS["thm1.1"].key(n, d, r, "ones"), (d, False), 1),
                         (_thm_1_2(p, ones), CHECKS["thm1.2"].key(n, d, r, "ones"), (0, False), -1),
                         (_thm_1_2(p, generate("sun_p_x", n)), (n, _spec(r, d)), (0, False), -1),
                         (_thm_1_2(p, SUN_P_X), CHECKS["sun_p"].key(n, d, r), (0, True), -1),
                         (_thm_2_1(alpha, ones), CHECKS["thm2.1"].key(n, alpha.a, alpha.s, "ones"), (1, False), 1),
                         (_thm_2_1(alpha, ones), CHECKS["thm1.1"].key(n, 1, -alpha.alpha, "ones"), (1, False), 1)]
                for cell, key, side, t in built:
                    assert (n, *cell[:3]) == (*key, side, t), (n, d, r)
                    assert all(sign in (1, -1) for _, sign in cell[3:5]), (n, d, r)
                    cells += 1
    assert cells > 500


def test_the_bench_cache_scan_finds_the_budgeted_tables():
    """bench/run.py finds qcong's caches by their cache_info (all_lru_caches),
    clears them all between passes and reads hit counts: the budgeted tables
    answer to all three like lru_cache, under their own qualified names."""
    spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).parents[1] / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    found = run.all_lru_caches()
    names = {"qcong.theorems._ring_tails", "qcong.congruence._certify_den", "qcong.congruence._inverse"}
    assert names <= found.keys() and {found[name] for name in names} == set(BUDGETED)
    theorems._ring_tails(5, 2, 2)
    run.clear_caches(found)
    for cache in found.values():
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize("flipped", [False, True])
def test_a_warm_report_equals_the_cold_one(flipped):
    """Each check, run cold (every ring cache cleared) and then twice warm (its
    cell decided, its kernel difference and denominator cached), gives
    reports equal in every field but wall_time: thm1.1, thm1.2 on the
    sun_p_x label and on the same entries as a rational PolySeq, thm2.1,
    guo_zeng and sun_p, and thm1.1, thm1.2 and thm2.1 on a named family and
    on its entries as a PolySeq, at the true cell and with its sign flipped.
    The flipped cells give the pinned residuals."""
    p, alpha = SymParams.create(5, 2, 1), AlphaParams.create(5, 2, 1)
    if flipped:
        p, alpha = (dataclasses.replace(params, sign=-params.sign) for params in (p, alpha))
    runs = [(("thm1.1", fam), partial(check_thm_1_1, p, fam)) for fam in ("ones", "random_poly:4:3")]
    runs += [(("thm1.2", fam), partial(check_thm_1_2, p, fam)) for fam in ("ones", "random_poly:4:3", "sun_p_x")]
    runs += [(("thm1.2", "sun_p_x"), partial(check_thm_1_2, p, generate("sun_p_x", 5))),
             (("guo_zeng", "monomial_x"), partial(check_guo_zeng, p)),
             (("sun_p", "sun_p_x"), partial(check_sun_p_analogue, p))]
    runs += [(("thm2.1", fam), partial(check_thm_2_1, alpha, fam)) for fam in ("ones", "random_poly:4:3")]
    custom = generate("random_poly:4:3", 5)
    runs += [(("thm1.1", "random_poly:4:3"), partial(check_thm_1_1, p, custom)),
             (("thm1.2", "random_poly:4:3"), partial(check_thm_1_2, p, custom)),
             (("thm2.1", "random_poly:4:3"), partial(check_thm_2_1, alpha, custom))]
    for key, check in runs:
        for cache in RING_CACHES:
            cache.cache_clear()
        cold = dataclasses.replace(check(), wall_time=0.0)
        for _ in range(2):
            warm = dataclasses.replace(check(), wall_time=0.0)
            assert warm == cold and repr(warm) == repr(cold), key
        assert cold.holds != flipped, key
        if flipped and key in FLIPPED_RESIDUALS:
            assert cold.residual == FLIPPED_RESIDUALS[key], key


def _linear_runs(p, alpha):
    """(check, full sides) for each linear check of the cells p and alpha:
    thm1.1, thm1.2 on a named family and on the sun_p_x label, thm2.1 and
    guo_zeng, and thm1.1, thm1.2 and thm2.1 on a polynomial PolySeq."""
    n, custom = p.n, generate("random_poly:4:3", p.n)
    return [(partial(check_thm_1_1, p, "ones"), partial(thm_1_1_sides, p, generate("ones", n))),
            (partial(check_thm_1_2, p, "monomial_q:1"), partial(thm_1_2_sides, p, generate("monomial_q:1", n))),
            (partial(check_thm_1_2, p, "sun_p_x"), lambda: _full_sides(*_statement(_thm_1_2, p, SUN_P_X))),
            (partial(check_thm_2_1, alpha, "ones"), partial(thm_2_1_sides, alpha, generate("ones", n))),
            (partial(check_guo_zeng, p), partial(thm_1_1_sides, p, generate("monomial_x", n))),
            (partial(check_thm_1_1, p, custom), partial(thm_1_1_sides, p, custom)),
            (partial(check_thm_1_2, p, custom), partial(thm_1_2_sides, p, custom)),
            (partial(check_thm_2_1, alpha, custom), partial(thm_2_1_sides, alpha, custom))]


@pytest.mark.parametrize("cells", [((7, 3, 2), (7, 4, -2)), ((10, 3, -1), (10, 3, 1))])
def test_a_decided_cell_is_answered_before_any_record_is_built(cells, monkeypatch):
    """Once its cell is decided, every linear check holds with no statement
    record built, no family generated, no side mapped and no Horner run: it
    is answered from its params record alone.  The same cells with the sign
    flipped or E (F) moved by 1, records the early answer must not confuse
    with the true one, fail on every check, cold and warm, with the
    (holds, residual) of the full sides."""
    p, alpha = SymParams.create(*cells[0]), AlphaParams.create(*cells[1])
    for check, _ in _linear_runs(p, alpha):
        assert check().holds
    with monkeypatch.context() as mp:
        for name in ("_sequence", "generate", "_ring_diff", "horner", "_full_sides"):
            mp.setattr(theorems, name, _refuse)
        for check, _ in _linear_runs(p, alpha):
            assert check().holds
    for name in ("flipped sign", "E+1"):
        perturb = PERTURBATIONS[name]
        for check, sides in _linear_runs(perturb(p), perturb(alpha)):
            full = _full_verdict(*sides(), p.n)
            assert not full[0], name
            for _ in range(2):
                rep = check()
                assert (rep.holds, rep.residual) == full, (name, rep.check, rep.params)


def test_errors_keep_their_order_on_a_decided_cell():
    """Each ill-posed family raises its error with its message, cold (every
    ring cache cleared) and again once a named family has decided the cell:
    a rational family under thm1.1 and thm2.1, before its length or its
    denominator is looked at; a PolySeq of the wrong length, before its
    denominator is; a malformed label; and a family denominator that is not
    a unit mod Phi_n, with the message congruent gives on the full sides."""
    p, alpha = SymParams.create(7, 3, 2), AlphaParams.create(7, 4, -2)
    bad, short = _noncoprime_family(7), PolySeq((one,) * 6, UNIVARIATE)
    short_bad = PolySeq(bad.entries[:6], RATIONAL)
    with pytest.raises(NoncoprimeDenominatorError) as full:
        congruent(*thm_1_2_sides(p, bad), 7, 2)
    rational_1_1 = "rational families are out of hypothesis here; use thm_1_2"
    cases = [(partial(check_thm_1_1, p, fam), ValueError, rational_1_1) for fam in ("sun_p_x", bad, short_bad)]
    cases += [(partial(check_thm_2_1, alpha, fam), ValueError, "rational families are out of hypothesis here")
              for fam in ("sun_p_x", bad, short_bad)]
    cases += [(partial(check, params, seq), ValueError, "need exactly n=7 entries, got 6")
              for check, params in ((check_thm_1_1, p), (check_thm_1_2, p), (check_thm_2_1, alpha))
              for seq in (short, short_bad) if check is check_thm_1_2 or seq is short]
    cases += [(partial(check_thm_1_1, p, "delta:x"), ValueError, "malformed family parameter in 'delta:x'"),
              (partial(check_thm_1_2, p, "bogus"), ValueError, "unknown family 'bogus'"),
              (partial(check_thm_2_1, alpha, "delta"), ValueError, "family delta takes 1..1 parameters, got 0"),
              (partial(check_thm_1_2, p, bad), NoncoprimeDenominatorError, str(full.value))]
    for cache in RING_CACHES:
        cache.cache_clear()
    for state in ("cold", "decided"):
        for run, error, message in cases:
            with pytest.raises(ValueError) as raised:
                run()
            assert (type(raised.value), str(raised.value)) == (error, message), state
        for check in (partial(check_thm_1_1, p), partial(check_thm_1_2, p), partial(check_thm_2_1, alpha)):
            assert check("ones").holds


def test_check_report_init_keeps_the_dataclass_behavior():
    """CheckReport's own __init__ takes the fields in order with their
    declared defaults, and the frozen dataclass around it keeps its
    equality, hash, repr, frozenness, replace and asdict."""
    signature = inspect.signature(CheckReport.__init__).parameters
    assert [(f.name, repr(f.default)) for f in dataclasses.fields(CheckReport)] == \
        [(name, repr(dataclasses.MISSING if par.default is par.empty else par.default))
         for name, par in list(signature.items())[1:]]
    full = {"check": "thm1.1", "params": {"n": 5, "d": 3, "r": 1, "family": "ones"}, "holds": False, "a": 3,
            "exponent": 8, "sign": -1, "branch": "odd", "wall_time": 0.01, "residual": "1*q^0"}
    for kwargs in (full, {"check": "even-sign", "params": {"n": 4}, "holds": True, "wall_time": 0.5}):
        rep = CheckReport(**kwargs)
        values = tuple(getattr(rep, f.name) for f in dataclasses.fields(CheckReport))
        assert CheckReport(*values) == rep and list(vars(rep)) == [f.name for f in dataclasses.fields(rep)]
        assert repr(rep) == "CheckReport(" + ", ".join(
            f"{f.name}={getattr(rep, f.name)!r}" for f in dataclasses.fields(rep)) + ")"
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rep)
        frozen = {**kwargs, "params": tuple(kwargs["params"].items())}
        assert hash(CheckReport(**frozen)) == hash(tuple(frozen.get(f.name, f.default) for f in dataclasses.fields(rep)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.holds = not rep.holds
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rep.residual
        moved = dataclasses.replace(rep, wall_time=0.0)
        assert moved != rep and moved == CheckReport(**{**kwargs, "wall_time": 0.0})
        assert dataclasses.asdict(rep) == {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("name", ["true", "flipped sign", "E+1"])
def test_guo_zeng_is_thm_1_1_at_x_powers(name):
    """check_guo_zeng and check_thm_1_1 on the monomial_x entries as a
    PolySeq, each decided afresh, give the same verdict, residual and
    parameters."""
    perturb = PERTURBATIONS[name]
    failing = 0
    for n in range(2, 13):
        xs = generate("monomial_x", n)
        for d in (d for d in range(1, 6) if math.gcd(n, d) == 1):
            for r in (-3, 0, 2):
                p = perturb(SymParams.create(n, d, r))
                reports = []
                for check in (check_guo_zeng, partial(check_thm_1_1, fam=xs)):
                    theorems._kernel_diff.cache_clear()
                    rep = check(p)
                    reports.append((rep.holds, rep.residual, rep.a, rep.exponent, rep.sign, rep.branch))
                assert reports[0] == reports[1], (n, d, r)
                failing += not reports[0][0]
    assert failing == 0 if name == "true" else failing > 100


def test_alpha_params_are_the_sym_params_at_d_1():
    """AlphaParams.create(n, a, s) is SymParams.create(n, 1, -alpha) in a,
    exponent, sign and branch, and both are the closed forms of thm2.1:
    F = C(a+1,2) + s*n*a - s*C(n,2), sign (-1)^a for odd n and (-1)^(a+s)
    for even n."""
    cells = 0
    for n in range(2, 40):
        for a in range(n):
            for s in range(-6, 7):
                p = AlphaParams.create(n, a, s)
                cell = SymParams.create(n, 1, -p.alpha)
                closed = (a, math.comb(a + 1, 2) + s * n * a - s * math.comb(n, 2), (-1) ** (a if n % 2 else a + s),
                          "odd" if n % 2 else "even")
                assert (p.a, p.F, p.sign, p.branch) == (cell.a, cell.E, cell.sign, cell.branch) == closed, (n, a, s)
                cells += 1
    assert cells == 10_127


def _residual_by_degree(text: str) -> dict:
    """A report's residual as {x-degree: LaurentPoly}, x^0 alone when univariate."""
    if not text.startswith("x^"):
        return {0: LaurentPoly.parse(text)}
    return {int(head[2:]): LaurentPoly.parse(poly) for head, poly in (part.split(": ") for part in text.split("; "))}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_thm_2_1_is_thm_1_1_at_d_1(name):
    """check_thm_2_1 at (n, a, s) and check_thm_1_1 at (n, 1, -alpha), the
    same perturbation applied to both records and each decided afresh, give
    the same verdict.  thm2.1's left scale is sign * q^F where thm1.1's is
    q^E, so its residual is the record's sign times thm1.1's."""
    perturb, failing, pairs = PERTURBATIONS[name], 0, 0
    for n in range(2, 11):
        for a in range(n):
            for s in (-2, 1):
                p = perturb(AlphaParams.create(n, a, s))
                cell = perturb(SymParams.create(n, 1, -a - s * n))
                for fam in ("ones", "random_poly:4:3", "monomial_x"):
                    reports = []
                    for check, params in ((check_thm_2_1, p), (check_thm_1_1, cell)):
                        theorems._kernel_diff.cache_clear()
                        reports.append(check(params, fam))
                    thm21, thm11 = reports
                    assert thm21.holds == thm11.holds, (n, a, s, fam)
                    assert (thm21.a, thm21.exponent, thm21.sign, thm21.branch) == \
                        (thm11.a, thm11.exponent, thm11.sign, thm11.branch)
                    if not thm21.holds:
                        by_degree = _residual_by_degree(thm11.residual)
                        assert _residual_by_degree(thm21.residual) == {j: r * p.sign for j, r in by_degree.items()}
                    failing += not thm21.holds
                    pairs += 1
    assert failing == (0 if name == "true" else pairs)


# -- the one weight formula ---------------------------------------------------

# (r, d) -> the (r, d) spec of each weight shape
SPEC_SHAPES = {
    "thm1.1/thm1.2/guo_zeng": lambda r, d: (r, d),  # sun_p too, as thm1.2
    "thm2.1": lambda r, d: (-r, 1),  # r plays alpha: thm1.1 at d = 1, r = -alpha
}


def _formula_weights(n: int, spec: tuple) -> tuple:
    """Every w_k, k < n, and den of a spec (r, d), by the formula alone:
    (q^r;q^d)_k (q^(d-r);q^d)_k (Q^(k+1);Q)_(n-1-k)^2 over (Q;Q)_(n-1)^2,
    Q = q^d, on full polynomials."""
    r, d = spec
    w = [qpoch(r, d, k) * qpoch(d - r, d, k) * qpoch(d * (k + 1), d, n - 1 - k) ** 2 for k in range(n)]
    return w, qpoch(d, d, n - 1) ** 2


@pytest.mark.parametrize("shape", SPEC_SHAPES)
def test_weights_are_the_pochhammer_formula(shape):
    """w_k (Q;Q)_k^2 == (q^r;q^d)_k (q^(d-r);q^d)_k * den, Q = q^d, for
    every weight _weights returns on full polynomials, none of them 0.
    The list stops only before a pair product that is exactly 0 (a factor
    1 - q^0), and every pair product past it is 0 too."""
    for n in range(2, 10):
        for r in (-3, -1, 0, 2, 5):
            for d in (1, 2, 3):
                spec = SPEC_SHAPES[shape](r, d)
                r_, d_ = spec
                w, den = _weights(lambda f: f, n, *spec)
                assert 1 <= len(w) <= n
                for k in range(n):
                    pairs = qpoch(r_, d_, k) * qpoch(d_ - r_, d_, k)
                    if k >= len(w):
                        assert pairs.is_zero(), (spec, n, k)
                        continue
                    assert not w[k].is_zero(), (spec, n, k)
                    assert w[k] * qpoch(d_, d_, k) ** 2 == pairs * den, (spec, n, k)


@pytest.mark.parametrize("shape", SPEC_SHAPES)
def test_r_and_d_minus_r_share_one_weight_set(shape):
    """Both spellings r and d - r of a spec have one canonical spec.  Its ring
    weights w_0..w_K are each spelling's weights by the formula reduced mod
    Phi_n^2, every later weight reduces to 0, and the denominator is the
    formula's.  For d coprime to n, with a*d + r == 0 (mod n),
    K <= max(a, n - 1 - a): the two factors Phi_n of the pair products."""
    bounded = 0
    for n in (2, 5, 6, 7, 9):
        for r in (-3, 0, 2, 5):
            for d in (1, 2, 3):
                r_, d_ = SPEC_SHAPES[shape](r, d)
                spellings = [(r_, d_), (d_ - r_, d_)]
                assert _spec(*spellings[0]) == _spec(*spellings[1])
                ring_w = _ring_weights(n, _spec(*spellings[0]))
                ring_den = theorems._ring_tails(n, d_, 2)[0]
                K = len(ring_w) - 1
                for spelling in spellings:
                    w, den = _formula_weights(n, spelling)
                    reduced = [reduce(wk, n, 2) for wk in w]
                    assert ring_w == reduced[:K + 1], (spelling, n)
                    assert all(wk.is_zero() for wk in reduced[K + 1:]), (spelling, n)
                    assert ring_den == reduce(den, n, 2), (spelling, n)
                if math.gcd(n, d_) == 1:
                    a = next(a for a in range(n) if (a * d_ + r_) % n == 0)
                    assert K <= max(a, n - 1 - a), (spellings[0], n)
                    bounded += K < n - 1
    assert bounded  # some weight sets do stop early


def test_thm_2_1_weights_are_the_q_binomial_products():
    """q^(k^2+k) [alpha,k][-1-alpha,k] from qbinom_int equals q^(step*k) w_k / den
    for the weights of the spec and the step of _thm_2_1's cell, alpha = a + s*n:
    q^k times the d = 1 weights at r = -alpha."""
    ones = FamilySpec.parse("ones")
    for n in range(2, 10):
        for a in range(n):
            for s in range(-3, 4):
                p = AlphaParams.create(n, a, s)
                spec, (step, _), *_ = _thm_2_1(p, ones)
                assert (spec, step) == (_spec(-p.alpha, 1), 1)
                w, den = _weights(lambda f: f, n, *spec)
                for k in range(n):
                    binoms = qbinom_int(p.alpha, k) * qbinom_int(-1 - p.alpha, k)
                    wk = w[k] if k < len(w) else LaurentPoly()
                    assert wk * qpow(step * k) == qpow(k * k + k) * binoms * den, (n, a, s, k)


small_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=6), st.integers(min_value=-9, max_value=9), max_size=3
).map(LaurentPoly)


@st.composite
def kernel_cases(draw):
    """(n, spec, t, step, entries): Laurent, bivariate or common-denominator
    entries, and a step of 0 or d for the spec's (r, d)."""
    n = draw(st.integers(min_value=2, max_value=8))
    d = draw(st.integers(min_value=1, max_value=5).filter(lambda d: math.gcd(n, d) == 1))
    spec = SPEC_SHAPES[draw(st.sampled_from(sorted(SPEC_SHAPES)))](draw(st.integers(-3, 5)), d)
    kind = draw(st.sampled_from(["laurent", "bivariate", "rational"]))
    if kind == "laurent":
        entries = draw(st.lists(small_polys, min_size=n, max_size=n))
    elif kind == "bivariate":
        rows = st.dictionaries(st.integers(min_value=0, max_value=2), small_polys, max_size=3)
        entries = [BiPoly(c) for c in draw(st.lists(rows, min_size=n, max_size=n))]
    else:
        dens = st.integers(min_value=1, max_value=4).map(lambda i: one - qpow(i))
        fs = draw(st.lists(st.tuples(small_polys, dens), min_size=n, max_size=n))
        entries, _ = common_denominator([RatExpr(num, den) for num, den in fs])
    return n, spec, draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([0, spec[1]])), entries


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_ring_kernel_is_the_transposed_transform(case):
    """Sum_j u_j f_j(q^d) == Sum_k w_k q^(step*k) T(f)_k(q^d) mod Phi_n^2, d the spec's d,
    T from the matrix and every w_k, k < n, from the formula, for the kernel
    u that _kernel_diff forms: Horner at (t*d, t*d) on the weights times
    q^(step*k).  u has one entry per ring weight, so the f_j past it are
    never read."""
    n, spec, t, step, entries = case
    d = spec[1]
    w, _ = _formula_weights(n, spec)
    matrix = transform_matrix("hat" if t == 1 else "tilde", n) if t else None
    total = LaurentPoly()
    for k in range(n):
        tk = entries[k]
        if t:
            tk = sum((entries[j] * matrix[k][j] for j in range(k + 1)), LaurentPoly())
        total = tk.substitute_power(d) * qpow(step * k) * w[k] + total
    u = _kernel(n, spec, t, step)
    assert len(u) == len(_ring_weights(n, spec)) <= n
    lifted = [reduce_by_degree(f.substitute_power(d), n, 2) for f in entries]
    expected = reduce_by_degree(total, n, 2)
    for j in set(expected) | set().union(*lifted):
        got = sum((f[j] * uk for f, uk in zip(lifted, u) if j in f), reduce(0, n, 2))
        assert got == expected.get(j, reduce(0, n, 2)), (j, case)


@pytest.mark.parametrize("fam", ["ones", "random_poly:4:2", "monomial_x"])
def test_thm_2_1_at_a_huge_s_decides_at_once(fam):
    p = AlphaParams.create(5, 2, 10**6)
    for name, perturb in PERTURBATIONS.items():
        started = time.perf_counter()
        rep = check_thm_2_1(perturb(p), fam)
        assert time.perf_counter() - started < 1, name
        assert rep.holds == (name == "true"), name


def test_lemmas_detect_a_perturbed_binomial(monkeypatch):
    """Both lemma checks read the binomial as numerator / (q;q)_k, by _poch_mod
    at a = 1 for the denominator; a q added to the numerator must fail them."""
    poch = theorems._poch_mod

    def bumped(n, a, k):
        return poch(n, a, k) + (q if a != 1 else 0)

    monkeypatch.setattr(theorems, "_poch_mod", bumped)
    assert not check_lemma_sn_binom(5, 1, 2)
    assert not check_lemma_sn_minus1(5, 1, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(-40, 40), st.integers(0, 40), st.integers(-10**6, 10**6))
def test_poch_mod_matches_long_division(n, a, k, t):
    """(q^a;q)_k mod Phi_n by rotation against the full qpoch product by long
    division, at a and at a + t*n, which _poch_mod keys as a mod n."""
    for start in (a, a + t * n):
        assert list(theorems._poch_mod(n, start, k).coeffs) == residue_by_long_division(qpoch(start, 1, k).terms, n, 1)


def test_a_lemma_sweep_forms_each_product_once(tmp_path):
    """A lemmas sweep forms one _poch_mod product per distinct
    (n, a mod n, k): [s*n, j] reads (q^(s*n-j+1);q)_j and [s*n-1, j-1] reads
    (q^(s*n-j+1);q)_(j-1) and (q;q)_(j-1), whatever s is."""
    from qcong.sweep import build_config, run_sweep

    raw = {"theorems": ["lemmas"], "n": ["2..9"], "s": ["-3..3"], "workers": ["1"],
           "output": [str(tmp_path / "lemmas.jsonl")]}
    cases = [(n, s, j) for n in range(2, 10) for s in range(-3, 4) if s for j in range(1, n)]
    keys = {key for n, s, j in cases
            for key in ((n, (s * n - j + 1) % n, j), (n, (s * n - j + 1) % n, j - 1), (n, 1, j - 1))}
    theorems._poch_table.cache_clear()
    summary = run_sweep(build_config(raw))
    info = theorems._poch_table.cache_info()
    assert summary.total == summary.passed == 2 * len(cases) + 4  # and even-sign at n = 2, 4, 6, 8
    assert info.misses == len(keys) < len(cases) and info.hits + info.misses == 3 * len(cases)


def test_lemmas_match_the_dense_q_binomial():
    """The ring route against reduce(qbinom_int) for every j, n 2..13, s in {-3, -1, 1, 2}."""
    for n in range(2, 14):
        for s in (-3, -1, 1, 2):
            for j in range(1, n):
                closed = qpow(-(j * (j - 1) // 2)) * (-1) ** (j - 1)
                assert check_lemma_sn_binom(n, s, j) == reduce(qbinom_int(s * n, j), n).is_zero()
                holds = reduce(qbinom_int(s * n - 1, j - 1) - closed, n).is_zero()
                assert check_lemma_sn_minus1(n, s, j) == holds, (n, s, j)


# -- corollaries and supporting facts ----------------------------------------


def test_lemma_sn_binom_cells():
    for n in (3, 5, 8, 12):
        for s in (-2, -1, 1, 3):
            for j in range(1, n):
                assert check_lemma_sn_binom(n, s, j), (n, s, j)


def test_lemma_sn_minus1_cells():
    for n in (3, 5, 8):
        for s in (-2, 1, 2):
            for j in range(1, n):
                assert check_lemma_sn_minus1(n, s, j), (n, s, j)


def test_lemma_guards():
    with pytest.raises(ValueError):
        check_lemma_sn_binom(5, 0, 1)
    with pytest.raises(ValueError):
        check_lemma_sn_binom(5, 1, 0)
    with pytest.raises(ValueError):
        check_lemma_sn_binom(5, 1, 5)
    with pytest.raises(ValueError):
        check_lemma_sn_minus1(5, 1, 0)


def test_even_sign_fact():
    for n in range(2, 21, 2):
        assert check_even_sign_fact(n)
    with pytest.raises(ValueError):
        check_even_sign_fact(5)


def test_guo_zeng_cells():
    for cell in [(3, 1, 1), (4, 3, 2), (5, 2, -1), (8, 3, 1)]:
        rep = check_guo_zeng(SymParams.create(*cell))
        assert rep.holds, cell
        assert rep.check == "guo_zeng"
        assert rep.params["family"] == "monomial_x"


def test_sun_p_analogue_cells():
    for cell in [(3, 1, 1), (5, 2, 1), (5, 4, -3), (7, 3, 2)]:
        rep = check_sun_p_analogue(SymParams.create(*cell))
        assert rep.holds, cell
        assert rep.check == "sun_p"


def test_sun_p_analogue_needs_odd_n():
    with pytest.raises(ValueError):
        check_sun_p_analogue(SymParams.create(4, 3, 1))


def test_sun_p_sides_are_rational_with_coprime_denominator():
    p = SymParams.create(5, 2, 1)
    lhs, rhs = sun_p_by_definition(p)
    assert congruent(lhs, rhs, 5, 2)


@pytest.mark.parametrize("cell", [(3, 1, 1), (5, 2, -1), (7, 3, 2), (9, 4, -3), (11, 2, 4), (13, 5, 0),
                                  (15, 4, -2)])
def test_sun_p_is_theorem_1_2_at_sun_p_x(cell):
    """Each side of sun_p, built from the paper's P_n at Q = q^d and q^-d
    over (Q;Q)_(n-1)^3, equals the thm1.2 side on the sun_p_x entries as a
    rational function, not only mod Phi_n^2; with the sign flipped the right
    sides differ."""
    p = SymParams.create(*cell)
    sides = thm_1_2_sides(p, generate("sun_p_x", p.n))
    assert sun_p_by_definition(p) == sides
    assert sun_p_by_definition(dataclasses.replace(p, sign=-p.sign))[1] != sides[1]


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_sun_p_reports_thm_1_2_on_sun_p_x(name):
    """check_sun_p_analogue and check_thm_1_2 on the sun_p_x label, each
    decided cold, give reports equal in every field but check and
    wall_time, on the true records and on perturbed ones."""
    perturb, failing = PERTURBATIONS[name], 0
    for n in range(3, 14, 2):
        for d in (d for d in range(1, 6) if math.gcd(n, d) == 1):
            for r in (-4, -1, 0, 3):
                p = perturb(SymParams.create(n, d, r))
                reports = []
                for check in (check_sun_p_analogue, partial(check_thm_1_2, fam="sun_p_x")):
                    theorems._kernel_diff.cache_clear()
                    reports.append(dataclasses.replace(check(p), check="", wall_time=0.0))
                assert reports[0] == reports[1], (n, d, r)
                failing += not reports[0].holds
    assert failing == 0 if name == "true" else failing > 50


def test_sun_p_after_thm_1_2_adds_no_kernel_diff_miss():
    """A sun_p check of a cell that thm1.2 has decided reads thm1.2's kernel
    difference: true, or with the sign flipped, it adds a hit and no miss."""
    cell = SymParams.create(11, 3, 2)
    for p in (cell, dataclasses.replace(cell, sign=-cell.sign)):
        theorems._kernel_diff.cache_clear()
        holds = check_thm_1_2(p, "ones").holds
        before = theorems._kernel_diff.cache_info()
        assert check_sun_p_analogue(p).holds == holds
        after = theorems._kernel_diff.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)


# -- the classical rational-number congruence --------------------------------


def test_classical_sun_constant_sequence():
    for p in (3, 5, 7, 11):
        assert check_classical_sun(p, Fraction(1, 2)) == classical_sun_by_rationals(p, Fraction(1, 2), [1] * p) is True


def test_classical_sun_random_sequences():
    for p in (3, 5, 7):
        for alpha in (Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)):
            if alpha.denominator % p == 0:
                continue
            for seed in range(4):
                fs = splitmix_ints(seed, p)
                assert check_classical_sun(p, alpha) == classical_sun_by_rationals(p, alpha, fs) is True, (p, alpha, seed)


def test_classical_sun_accepts_fractional_sequences():
    """The verdict covers sequences of p-integral fractions, not only integers."""
    fs = [Fraction(1, 2), Fraction(-3), Fraction(2, 3), 1, 0]
    assert check_classical_sun(5, Fraction(1, 2)) == classical_sun_by_rationals(5, Fraction(1, 2), fs) is True


def test_classical_sun_guards():
    with pytest.raises(ValueError):
        check_classical_sun(4, Fraction(1, 2))
    with pytest.raises(ValueError):
        check_classical_sun(2, 1)
    with pytest.raises(ValueError):
        check_classical_sun(5, Fraction(1, 5))
    with pytest.raises(ValueError, match="at most"):
        check_classical_sun(80021, Fraction(1, 2))


_SMALL_PRIMES = [p for p in range(3, 54) if _odd_prime(p) is None]


@st.composite
def classical_cases(draw):
    """(p, alpha, fs): an odd prime p <= 53, a p-integral alpha of denominator
    up to 12, and p entries, each an int or a p-integral Fraction; one entry
    may be bumped by a multiple of p or p^2."""
    p = draw(st.sampled_from(_SMALL_PRIMES))
    den = draw(st.integers(1, 12).filter(lambda den: den % p))
    alpha = Fraction(draw(st.integers(-60, 60)), den)
    entry = st.integers(-50, 50) | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9).filter(lambda d: d % p))
    fs = draw(st.lists(entry, min_size=p, max_size=p))
    k, bump = draw(st.integers(0, p - 1)), draw(st.sampled_from((0, 1, p, p * p)))
    fs[k] += bump
    return p, alpha, fs


@settings(max_examples=150, deadline=None)
@given(classical_cases())
@example((53, Fraction(-7, 12), list(range(53))))
def test_classical_sun_matches_the_rational_oracle(case):
    """The Z/p^2 decision against the exact rational sums of the helper."""
    p, alpha, fs = case
    assert check_classical_sun(p, alpha) == classical_sun_by_rationals(p, alpha, fs)


def _mod_p2(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p * p) % (p * p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL_PRIMES), st.integers(-60, 60), st.integers(1, 12))
@example(53, -7, 12)
def test_classical_halves_match_the_rational_sums(p, num, den):
    """Each half of the kernel, w_j and c_j mod p^2, against its exact
    rational sum.  Neither is 0 in general, so unlike the verdict, which is
    True on every input it accepts, this fails on a wrong weight or sum."""
    if den % p == 0:
        return
    alpha = Fraction(num, den)
    w, c = classical_halves_by_rationals(p, alpha)
    assert theorems._classical_halves(p, alpha) == ([_mod_p2(x, p) for x in w], [_mod_p2(x, p) for x in c])


@pytest.mark.parametrize("case", ["alpha"])
def test_classical_sun_decides_hostile_inputs_at_once(case):
    """A 5 000-digit alpha numerator is reduced mod p^2 first."""
    started = time.perf_counter()
    assert check_classical_sun(997, Fraction(10**4999 + 7, 3))
    assert time.perf_counter() - started < 1


def test_classical_p_bound_is_the_largest_accepted_prime():
    """79 999 is the largest prime the check accepts and 80 021 the next one,
    which it refuses before it decides anything; the largest is not run."""
    primes = [p for p in range(MAX_CLASSICAL_P - 100, MAX_CLASSICAL_P + 100) if _odd_prime(p) is None]
    largest = max(p for p in primes if p <= MAX_CLASSICAL_P)
    past = min(p for p in primes if p > MAX_CLASSICAL_P)
    assert (largest, past) == (79_999, 80_021)
    assert theorems._classical_p(largest, Fraction(1, 2)) is None
    with pytest.raises(ValueError, match=f"^p must be at most {MAX_CLASSICAL_P}$"):
        check_classical_sun(past, Fraction(1, 2))


def test_odd_prime_is_miller_rabin_exact():
    def trial(p):
        return p >= 3 and p % 2 == 1 and all(p % i for i in range(3, math.isqrt(p) + 1, 2))

    assert all((_odd_prime(p) is None) == trial(p) for p in range(-3, 20000))
    # strong pseudoprimes to the first few prime bases, and two known primes
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461, 10**18 + 1):
        assert _odd_prime(composite) == "p must be an odd prime"
    for prime in (2**61 - 1, 1000000007):
        assert _odd_prime(prime) is None
    assert MAX_CLASSICAL_P < 3 * 10**24


# -- report plumbing ----------------------------------------------------------


def test_check_report_fields_round_trip():
    rep = CheckReport(
        check="thm1.1",
        params={"n": 5, "d": 3, "r": 1, "family": "ones"},
        holds=False,
        a=3,
        exponent=8,
        sign=-1,
        branch="odd",
        wall_time=0.01,
        residual="1*q^0",
    )
    assert not rep.holds
    assert rep.residual == "1*q^0"
