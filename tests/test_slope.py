from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    ConfigError,
    HorizonError,
    SlopeSpec,
    build_table,
    theta_enclosure,
    theta_k_enclosure,
)
from sturmian.slope import (
    compare_with_theta,
    floor_linear,
    floor_theta_multiple,
    sign_linear,
)

from conftest import golden_table, table_for, theta_value


def test_fibonacci_denominators():
    t = table_for((1, 1, 1, 1, 1), period=(), horizon=5)
    assert [t.q(k) for k in range(6)] == [1, 1, 2, 3, 5, 8]


def test_paper_slope_denominators(slope532):
    assert slope532.q(1) == 5
    assert slope532.q(2) == 16
    assert slope532.q(3) == 37


def test_seed_rows(slope532):
    assert slope532.q(-1) == 0
    assert slope532.q(0) == 1
    assert slope532.p(-1) == 1
    assert slope532.p(0) == 0


def test_periodic_extension():
    t = table_for((5, 3, 2), horizon=7)
    assert [t.a(k) for k in range(1, 8)] == [5, 3, 2, 5, 3, 2, 5]


def test_finite_spec_horizon_error():
    with pytest.raises(HorizonError):
        SlopeSpec((1, 2), (), 5)
    with pytest.raises(ConfigError):
        SlopeSpec((0, 2), (), 2)
    with pytest.raises(ConfigError):
        SlopeSpec((1,), (1,), 0)


def test_slope_json_round_trip():
    spec = SlopeSpec((5, 3, 2), (7,), 9)
    assert SlopeSpec.from_json(spec.to_json()) == spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 9), min_size=3, max_size=12))
def test_determinant_identity(quotients):
    t = build_table(SlopeSpec(tuple(quotients), (), len(quotients)))
    for k in range(1, t.horizon + 1):
        assert t.p(k) * t.q(k - 1) - t.p(k - 1) * t.q(k) == (-1) ** (k - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 9), min_size=4, max_size=10))
def test_denominators_strictly_increase(quotients):
    t = build_table(SlopeSpec(tuple(quotients), (), len(quotients)))
    for k in range(2, t.horizon + 1):
        assert t.q(k) > t.q(k - 1)


def test_golden_enclosure_level_2(golden):
    enc = theta_enclosure(golden, 2)
    assert (enc.lower, enc.upper) == (Fraction(1, 2), Fraction(2, 3))


def test_enclosure_width_and_nesting(golden, slope532):
    for t in (golden, slope532):
        for level in range(t.horizon - 2):
            enc = theta_enclosure(t, level)
            assert enc.width == Fraction(1, t.q(level) * t.q(level + 1))
            nxt = theta_enclosure(t, level + 1)
            assert enc.lower <= nxt.lower and nxt.upper <= enc.upper


def test_paper_slope_level_1_bracket(slope532):
    enc = theta_enclosure(slope532, 1)
    assert (enc.lower, enc.upper) == (Fraction(3, 16), Fraction(1, 5))


def test_theta_k_level_0_matches_theta(golden):
    base = theta_enclosure(golden, 8)
    enc = theta_k_enclosure(golden, 0, 8)
    assert (enc.lower, enc.upper) == (base.lower, base.upper)


def test_theta_1_negative_golden(golden):
    enc = theta_k_enclosure(golden, 1, 10)
    assert enc.upper < 0
    assert abs(float(enc.lower) + 0.382) < 1e-3


def test_theta_k_signs_and_magnitudes(slope532, golden):
    for t in (slope532, golden):
        level = t.horizon - 1
        for k in range(level):
            enc = theta_k_enclosure(t, k, level)
            if k % 2:
                assert enc.upper < 0
            else:
                assert enc.lower > 0
            mag_lo = min(abs(enc.lower), abs(enc.upper))
            mag_hi = max(abs(enc.lower), abs(enc.upper))
            assert mag_lo >= Fraction(1, t.q(k) + t.q(k + 1))
            assert mag_hi <= Fraction(1, t.q(k + 1))


def test_theta_k_interval_separation(slope532):
    t = slope532
    level = t.horizon - 1
    encs = [theta_k_enclosure(t, k, level) for k in range(level - 1)]
    for k in range(1, level - 2):
        prev_min = min(abs(encs[k - 1].lower), abs(encs[k - 1].upper))
        cur_max = max(abs(encs[k].lower), abs(encs[k].upper))
        assert cur_max < prev_min


def test_theta_k_level_preconditions(golden):
    with pytest.raises(ConfigError):
        theta_k_enclosure(golden, 3, 3)
    with pytest.raises(HorizonError):
        theta_enclosure(golden, golden.horizon)


def test_compare_and_sign(golden):
    theta = theta_value(golden)
    assert compare_with_theta(golden, Fraction(1, 2)) == -1
    assert compare_with_theta(golden, Fraction(2, 3)) == 1
    # sign of a + b*theta against the high-precision stand-in
    for a, b in [(-1, 2), (1, -2), (0, 1), (3, -5), (-3, 5), (-2, 3)]:
        expect = 1 if a + b * theta > 0 else -1
        assert sign_linear(golden, a, b) == expect
    assert sign_linear(golden, 0, 0) == 0
    assert sign_linear(golden, Fraction(1, 7), 0) == 1


def test_floor_paths_agree_with_high_precision(golden):
    theta = theta_value(golden)
    for x in list(range(-50, 51)) + [997, -997]:
        expect = (x * theta.numerator) // theta.denominator
        assert floor_theta_multiple(golden, x) == expect
        assert floor_linear(golden, 0, x) == expect
    assert floor_linear(golden, Fraction(7, 2), 0) == 3
    assert floor_linear(golden, Fraction(-7, 2), 0) == -4


def test_recomputed_denominator_matches_word_length(slope532):
    from sturmian.words import WordSystem

    ws = WordSystem.characteristic(slope532)
    for k in range(1, 6):
        telescoped = slope532.a(k) * slope532.q(k - 1) + slope532.q(k - 2)
        assert telescoped == slope532.q(k) == len(ws.standard(k))
