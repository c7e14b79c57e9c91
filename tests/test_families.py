import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcong.bivariate import BiPoly, RatExpr
from qcong.families import _FAMILIES, FamilySpec, SplitMix64, generate
from qcong.laurent import LaurentPoly, one, qpow, zero
from qcong.qcalc import qpoch, qpoch_x_prefixes
from qcong.transforms import BIVARIATE, RATIONAL, UNIVARIATE


def test_splitmix64_reference_vectors():
    # first outputs for seed 0 from the published algorithm definition
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_seed_masking():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
def test_next_int_stays_in_range(seed, bound):
    g = SplitMix64(seed)
    for _ in range(20):
        v = g.next_int(bound)
        assert -bound <= v <= bound


PARSE_CASES = [
    ("ones", FamilySpec("ones")),
    ("delta:0", FamilySpec("delta", (0,))),
    ("delta:2", FamilySpec("delta", (2,))),
    ("monomial_q:1", FamilySpec("monomial_q", (1,))),
    ("random_poly:7:3", FamilySpec("random_poly", (7, 3))),
    ("random_poly:7:3:5", FamilySpec("random_poly", (7, 3, 5))),
    ("monomial_x", FamilySpec("monomial_x")),
    ("sun_p_x", FamilySpec("sun_p_x")),
]


@pytest.mark.parametrize("text,spec", PARSE_CASES)
def test_parse_and_label_round_trip(text, spec):
    assert FamilySpec.parse(text) == spec
    assert spec.label() == text
    assert FamilySpec.parse(spec.label()) == spec
    assert FamilySpec.parse(text) == FamilySpec.parse(text) == spec


BAD_SPECS = ["nope", "delta", "delta:1:2", "delta:-1", "ones:3",
             "random_poly:1", "random_poly:1:-2", "random_poly:1:2:0",
             "delta:x"]


@pytest.mark.parametrize("text", BAD_SPECS)
def test_parse_rejects_malformed(text):
    """On every call: parse is memoized, and its errors are not."""
    for _ in range(3):
        with pytest.raises(ValueError):
            FamilySpec.parse(text)


def test_kinds():
    assert FamilySpec.parse("ones").kind == UNIVARIATE
    assert FamilySpec.parse("monomial_x").kind == BIVARIATE
    assert FamilySpec.parse("sun_p_x").kind == RATIONAL


# one sample label for each _FAMILIES row
SAMPLE_LABELS = {"ones": "ones", "delta": "delta:1", "monomial_q": "monomial_q:2",
                 "random_poly": "random_poly:7:3:4", "monomial_x": "monomial_x", "sun_p_x": "sun_p_x"}
ENTRY_TYPES = {UNIVARIATE: LaurentPoly, BIVARIATE: BiPoly, RATIONAL: RatExpr}


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_every_family_row_generates_entries_of_its_kind(name):
    """Each _FAMILIES row, read through a sample label (a row without one
    fails here), generates n entries of FamilySpec.kind at n = 2..6."""
    spec = FamilySpec.parse(SAMPLE_LABELS[name])
    assert spec.name == name and spec.kind == _FAMILIES[name][2]
    for n in range(2, 7):
        seq = generate(spec, n)
        assert (len(seq), seq.kind) == (n, spec.kind)
        assert all(isinstance(f, ENTRY_TYPES[spec.kind]) for f in seq.entries)


def test_generate_ones_delta_monomial():
    assert list(generate("ones", 3)) == [one, one, one]
    assert list(generate("delta:1", 4)) == [zero, one, zero, zero]
    assert list(generate("delta:9", 3)) == [zero, zero, zero]
    assert list(generate("monomial_q:2", 4)) == [one, qpow(2), qpow(4), qpow(6)]


def test_generate_random_poly_draw_order():
    fam = FamilySpec.parse("random_poly:11:2:4")
    seq = generate(fam, 3)
    rng = SplitMix64(11)
    for k in range(3):
        expected = LaurentPoly({i: rng.next_int(4) for i in range(3)})
        assert seq[k] == expected, k


def test_generate_random_poly_is_deterministic_and_integral():
    a = generate("random_poly:5:3", 6)
    b = generate(FamilySpec("random_poly", (5, 3)), 6)
    assert list(a) == list(b)
    for f in a:
        assert all(isinstance(c, int) for c in f.terms.values())
        assert f.is_zero() or (0 <= f.valuation() and f.degree() <= 3)


def test_generate_monomial_x():
    seq = generate("monomial_x", 3)
    assert seq.kind == BIVARIATE
    assert list(seq) == [BiPoly.x_power(0), BiPoly.x_power(1), BiPoly.x_power(2)]


def test_generate_sun_p_x_entries():
    seq = generate("sun_p_x", 3)
    assert seq.kind == RATIONAL
    assert seq[0] == RatExpr(BiPoly.const(1))
    k = 2
    assert seq[k] == RatExpr(qpoch_x_prefixes(0, k + 1)[k] * qpow(k), qpoch(1, 1, k))


def test_generate_guards():
    with pytest.raises(ValueError):
        generate("ones", 1)
    with pytest.raises(ValueError):
        generate("nope", 4)
