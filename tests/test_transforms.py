import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.bivariate import BiPoly, RatExpr
from qcong.laurent import LaurentPoly, one, q, qpow
from qcong.qcalc import qpoch, qpoch_x
from qcong.transforms import (
    BIVARIATE,
    UNIVARIATE,
    PolySeq,
    common_denominator,
    hat,
    tilde,
)

from helpers import solve_lower_triangular, transform_matrix

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)

poly_lists = st.lists(polys, min_size=1, max_size=6)

bipolys = st.dictionaries(st.integers(min_value=0, max_value=3), polys, max_size=3).map(BiPoly)
rationals = st.builds(RatExpr, polys, st.sampled_from([one, one - q, qpoch(1, 1, 2), one + qpow(3)]))
entry_lists = st.one_of(
    poly_lists,
    st.lists(bipolys, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)


def test_hat_of_ones_is_q_pochhammer():
    ones = [one] * 61
    assert hat(ones) == [qpoch(1, 1, k) for k in range(61)]
    assert tilde(ones) == [qpoch(-1, -1, k) for k in range(61)]
    assert hat([]) == [] and tilde([]) == []


def test_tilde_of_ones_small():
    out = tilde([one, one])
    assert out[0] == one
    assert out[1] == one - qpow(-1)


def test_hat_entry_two_by_hand():
    f = [one, q, LaurentPoly({2: 1})]
    # k=2: f_0 - q [2,1] f_1 + q^3 f_2, with [2,1] = 1 + q
    expected = one - (q * (one + q)) * q + qpow(3) * LaurentPoly({2: 1})
    assert hat(f)[2] == expected


def test_hat_of_x_powers_matches_shifted_pochhammer():
    fs = [BiPoly.x_power(k) for k in range(7)]
    out = hat(fs)
    for k in range(7):
        assert out[k] == qpoch_x(1, k), k


@given(poly_lists)
def test_transforms_preserve_length_and_triangularity(fs):
    for op in (hat, tilde):
        out = op(fs)
        assert len(out) == len(fs)
        # entry k only depends on f_0..f_k
        truncated = op(fs[: len(fs) - 1]) if len(fs) > 1 else []
        for k, g in enumerate(truncated):
            assert out[k] == g


@given(poly_lists, poly_lists, st.integers(min_value=-5, max_value=5))
def test_transforms_are_linear(fs, gs, c):
    length = min(len(fs), len(gs))
    fs, gs = fs[:length], gs[:length]
    combo = [f + c * g for f, g in zip(fs, gs)]
    for op in (hat, tilde):
        lhs = op(combo)
        fpart, gpart = op(fs), op(gs)
        for k in range(length):
            assert lhs[k] == fpart[k] + c * gpart[k]


@settings(max_examples=200)
@given(poly_lists)
def test_hat_tilde_bridge(fs):
    # q -> 1/q exchanges the transforms: hat(f) at 1/q is tilde of f at 1/q
    flipped = tilde([f.substitute_power(-1) for f in fs])
    assert [h.substitute_power(-1) for h in hat(fs)] == flipped


@settings(max_examples=100)
@given(poly_lists)
def test_matrix_is_invertible_round_trip(fs):
    for kind in ("hat", "tilde"):
        M = transform_matrix(kind, len(fs))
        out = hat(fs) if kind == "hat" else tilde(fs)
        assert solve_lower_triangular(M, list(out)) == fs


@pytest.mark.parametrize("kind", ["hat", "tilde"])
@given(entry_lists)
def test_matrix_application_agrees(kind, fs):
    M = transform_matrix(kind, len(fs))
    out = hat(fs) if kind == "hat" else tilde(fs)
    for k in range(len(fs)):
        acc = M[k][0] * fs[0]
        for j in range(1, k + 1):
            acc = acc + M[k][j] * fs[j]
        assert acc == out[k]


def test_transform_matrix_rejects_bad_args():
    with pytest.raises(ValueError):
        transform_matrix("hat", 0)
    with pytest.raises(ValueError):
        transform_matrix("sideways", 3)


def test_polyseq_kind_validation():
    PolySeq((one, q), UNIVARIATE)
    PolySeq((BiPoly.x_power(1),), BIVARIATE)
    with pytest.raises(TypeError):
        PolySeq((one, BiPoly.x_power(1)), UNIVARIATE)
    with pytest.raises(ValueError):
        PolySeq((one,), "mixed")
    with pytest.raises(ValueError):
        PolySeq((), UNIVARIATE)


def test_polyseq_round_trips_through_transform():
    seq = PolySeq((one, one, one), UNIVARIATE)
    out = hat(seq)
    assert isinstance(out, PolySeq)
    assert out.kind == UNIVARIATE
    assert list(out) == [qpoch(1, 1, k) for k in range(3)]


def test_common_denominator_reconstructs_entries():
    fs = [
        RatExpr(one, qpoch(1, 1, 1)),
        RatExpr(q, qpoch(1, 1, 3)),
        RatExpr(one + q, qpoch(1, 1, 2)),
    ]
    nums, den = common_denominator(fs)
    assert den == qpoch(1, 1, 3)
    for f, nm in zip(fs, nums):
        assert RatExpr(nm, den) == f


def test_common_denominator_coprime_fallback():
    fs = [RatExpr(one, one - q), RatExpr(one, one + q)]
    nums, den = common_denominator(fs)
    for f, nm in zip(fs, nums):
        assert RatExpr(nm, den) == f


def test_rational_sequence_transform_matches_scaled_numerators():
    fs = [RatExpr(qpoch(0, 1, k) * qpow(k), qpoch(1, 1, k)) for k in range(5)]
    out = hat(fs)
    nums, den = common_denominator(fs)
    scaled = hat(nums)
    for k in range(5):
        assert isinstance(out[k], RatExpr)
        assert out[k] == RatExpr(scaled[k], den), k


def test_bivariate_sequence_transform():
    fs = PolySeq(tuple(qpoch_x(0, k) for k in range(4)), BIVARIATE)
    out = tilde(fs)
    assert out.kind == BIVARIATE
    M = transform_matrix("tilde", 4)
    for k in range(4):
        acc = BiPoly.const(0)
        for j in range(k + 1):
            acc = acc + fs[j] * M[k][j]
        assert out[k] == acc
