from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    AmbiguousExpansionError,
    ConfigError,
    DigitRuleError,
    HorizonError,
    InvalidInterceptError,
    SlopeSpec,
    build_table,
    decode_integer,
    decode_real,
    degenerate_expansions,
    encode_integer,
    encode_real,
    validate_real_digits,
)
from sturmian.ostrowski import IntegerDigits, InterceptDigits, digit_prefix_value

from conftest import (golden_table, random_digits, replace_raises_as_built, table_for,
                      theta_value)


def brute_force_expansions(n, table, top):
    """Every rule-satisfying digit vector with sum d_j q_{j-1} == n,
    enumerated over positions 1..top (complete for n < q_top)."""
    found = []

    def rec(j, total, digits):
        if j > top:
            if total == n:
                trimmed = list(digits)
                while trimmed and trimmed[-1] == 0:
                    trimmed.pop()
                found.append(tuple(trimmed))
            return
        if total > n:
            return
        hi = table.a(j) - 1 if j == 1 else table.a(j)
        for d in range(hi + 1):
            if d == table.a(j) and j > 1 and digits[-1] != 0:
                continue
            digits.append(d)
            rec(j + 1, total + d * table.q(j - 1), digits)
            digits.pop()

    rec(1, 0, [])
    return found


def test_golden_four_brute_force(golden):
    assert brute_force_expansions(4, golden, 8) == [(0, 1, 0, 1)]
    assert encode_integer(4, golden).digits == (0, 1, 0, 1)
    assert decode_integer((0, 1, 0, 1), golden) == 4


def test_base_elements(golden, slope532):
    for t in (golden, slope532):
        for k in range(1, 6):
            digits = encode_integer(t.q(k), t).digits
            assert digits == (0,) * k + (1,)


def test_paper_slope_36(slope532):
    assert encode_integer(36, slope532).digits == (4, 0, 2)
    assert decode_integer((4, 0, 2), slope532) == 36


def test_decode_zero_and_errors(golden, slope532):
    assert decode_integer((), golden) == 0
    with pytest.raises(DigitRuleError) as err:
        decode_integer((1, 1, 1, 1), golden)  # b_2 = a_2 = 1 after nonzero
    assert err.value.index == 1
    with pytest.raises(HorizonError):
        encode_integer(10 ** 9, slope532)
    with pytest.raises(ConfigError):
        encode_integer(0, golden)


def test_integer_digits_need_a_positive_top_digit():
    for digits in ((), (1, 0), (2, -1)):
        with pytest.raises(DigitRuleError) as err:
            IntegerDigits(digits)
        assert err.value.index == len(digits)
        replace_raises_as_built(IntegerDigits((1, 2)), digits=digits)
    assert IntegerDigits((1, 2))._replace(digits=(3,)) == IntegerDigits((3,))


def test_intercept_digits_replace_keeps_the_digits():
    # the record's length is its field count, so _replace needs no __len__
    d = InterceptDigits((1, 0, 2))
    assert d._replace(terminating=True) == InterceptDigits((1, 0, 2), True)
    assert len(d) == 2 and len(d.digits) == 3


def test_exhaustive_uniqueness_small(golden, slope532, rng):
    tables = [golden, slope532, table_for((2, 1, 3, 1, 4), horizon=12)]
    for t in tables:
        top = 12
        for n in range(1, min(200, t.q(top))):
            vecs = brute_force_expansions(n, t, top)
            assert vecs == [encode_integer(n, t).digits], (t.spec, n)
            assert decode_integer(vecs[0], t) == n


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 10 ** 6))
def test_integer_round_trip(n):
    t = golden_table(40)
    assert decode_integer(encode_integer(n, t), t) == n


def test_validate_real_digits(slope532):
    assert validate_real_digits((0, 0, 0, 0), slope532).valid
    rep = validate_real_digits((1, 3, 0), slope532)  # b_2 = a_2 with b_1 != 0
    assert not rep.valid and rep.violation_index == 1
    rep = validate_real_digits((4, 0, 2, 0), slope532)
    assert rep.valid
    assert rep.forbidden_tail_shape  # suffix 2, 0 == a_3, 0 pattern
    rep = validate_real_digits((5, 0), slope532)
    assert not rep.valid and rep.violation_index == 1
    rep = validate_real_digits((0, 1, 0, 2), slope532)
    assert rep.valid and not rep.forbidden_tail_shape


def test_decode_real_examples(golden, slope532):
    theta_g = theta_value(golden)
    lo, hi = decode_real(InterceptDigits((0, 0, 0), True), golden)
    assert lo <= 0 <= hi
    lo, hi = decode_real(InterceptDigits((0, 1), True), golden)
    assert lo < theta_g - 1 < hi  # sigma = theta_1 = theta - 1
    theta_p = theta_value(slope532)
    lo, hi = decode_real(InterceptDigits((4, 0, 2, 0), False), slope532)
    assert lo < 1 - theta_p < hi
    assert abs(float((lo + hi) / 2) - 0.8108) < 2e-2


def test_decode_real_tail_bound_wider_for_prefixes(golden):
    exact = decode_real(InterceptDigits((0, 1, 0, 1), True), golden)
    loose = decode_real(InterceptDigits((0, 1, 0, 1), False), golden)
    assert loose[0] < exact[0] <= exact[1] < loose[1]


def test_encode_real_zero_and_symbolic(golden):
    d = encode_real(Fraction(0), golden, 6)
    assert d.digits == (0,) * 6 and d.terminating
    d = encode_real((golden.q(1), -golden.p(1)), golden, 8)  # sigma = theta_1
    assert d.digits == (0, 1, 0, 0, 0, 0, 0, 0) and d.terminating


def test_encode_real_rejects_floats_and_out_of_range(golden):
    with pytest.raises(ConfigError):
        encode_real(0.5, golden)
    with pytest.raises(InvalidInterceptError):
        encode_real(Fraction(-9, 10), golden, 8)  # below -theta ~ -0.618
    with pytest.raises(InvalidInterceptError):
        encode_real(Fraction(9, 10), golden, 8)  # above 1-theta ~ 0.382


def test_encode_real_half_round_trip(golden):
    sigma_shift = Fraction(1, 2)  # rho = 1/2, sigma = 1/2 - theta
    d = encode_real((-1, sigma_shift), golden, 12)
    assert not d.terminating
    lo, hi = decode_real(d, golden)
    theta = theta_value(golden)
    assert lo < sigma_shift - theta < hi


def test_encode_real_ambiguous_cases(golden, slope532):
    with pytest.raises(AmbiguousExpansionError) as err:
        encode_real((-1, 0), golden, 8)  # sigma = -theta
    assert (err.value.m, err.value.p) == (1, 0)
    with pytest.raises(AmbiguousExpansionError) as err:
        encode_real((-7, 2), slope532, 10)
    assert (err.value.m, err.value.p) == (7, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_encode_decode_round_trip_on_digit_vectors(data):
    quotients = data.draw(st.lists(st.integers(1, 6), min_size=6, max_size=10))
    t = build_table(SlopeSpec(tuple(quotients), tuple(quotients), 14))
    digs = []
    prev = 1
    for k in range(1, 9):
        hi = t.a(k) - 1 if prev >= 1 else t.a(k)
        d = data.draw(st.integers(0, hi))
        digs.append(d)
        prev = d
    u, p = digit_prefix_value(digs, t)
    got = encode_real((u, -p), t, 14)
    assert got.terminating
    assert got.digits[: len(digs)] == tuple(digs)
    assert all(d == 0 for d in got.digits[len(digs):])


def test_degenerate_m1_paper_slope(slope532):
    deg = degenerate_expansions(1, 0, slope532)
    assert deg.level == 0
    assert deg.stream.digits[:6] == (4, 0, 2, 0, 3, 0)
    assert deg.stream_alt.digits[:6] == (0, 3, 0, 5, 0, 2)
    # l = 0 is even: lower word uses the alternate stream
    assert deg.lower is deg.stream_alt
    assert deg.upper is deg.stream


def test_degenerate_m1_golden(golden):
    deg = degenerate_expansions(1, 0, golden)
    assert deg.stream.digits[:6] == (0, 0, 1, 0, 1, 0)
    assert deg.stream_alt.digits[:6] == (0, 1, 0, 1, 0, 1)


def test_degenerate_level_bounds(golden, slope532):
    for t in (golden, slope532):
        for m in range(2, 30):
            p = None
            for cand in range(-m, m + 2):
                try:
                    deg = degenerate_expansions(m, cand, t)
                    p = cand
                    break
                except InvalidInterceptError:
                    continue
            assert p is not None, (t.spec.preperiod, m)
            assert t.q(deg.level) < m <= t.q(deg.level + 1)
            for stream in (deg.stream, deg.stream_alt):
                assert validate_real_digits(stream, t).valid


def test_degenerate_streams_enclose_same_value(slope532):
    theta = theta_value(slope532)
    for m, p in [(2, 1), (3, 2), (7, 3), (16, 7)]:
        try:
            deg = degenerate_expansions(m, p, slope532)
        except InvalidInterceptError:
            p2 = next(c for c in range(-m, m + 2)
                      if 0 < c - (m - 1) * theta < 1 or True)
            continue
        sigma = -m * theta + p
        for stream in (deg.stream, deg.stream_alt):
            lo, hi = decode_real(stream, slope532)
            assert lo < sigma < hi, (m, p, stream.digits)


def test_degenerate_m1_streams_differ_by_one(golden):
    deg = degenerate_expansions(1, 0, golden)
    theta = theta_value(golden)
    lo, hi = decode_real(deg.stream, golden)
    assert lo < 1 - theta < hi
    lo, hi = decode_real(deg.stream_alt, golden)
    assert lo < -theta < hi


def test_degenerate_rejects_bad_pairs(golden):
    with pytest.raises(InvalidInterceptError):
        degenerate_expansions(1, 1, golden)
    with pytest.raises(InvalidInterceptError):
        degenerate_expansions(3, 9, golden)
    with pytest.raises(InvalidInterceptError):
        degenerate_expansions(0, 0, golden)
