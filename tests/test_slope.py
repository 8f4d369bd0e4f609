import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    ConfigError,
    errors,
    HorizonError,
    PrecisionError,
    SlopeSpec,
    build_table,
)
from sturmian.slope import floor_ratio, sign_linear

from conftest import (
    golden_table,
    outcome,
    reference_floor_theta_multiple,
    reference_sign_linear,
    replace_raises_as_built,
    slope_json,
    table_for,
    theta_value,
)


def test_fibonacci_denominators():
    t = table_for((1, 1, 1, 1, 1), period=(), horizon=5)
    assert [t.q(k) for k in range(6)] == [1, 1, 2, 3, 5, 8]


def table_bits(spec):
    """The bits of p_1..p_K and q_1..q_K at each level K of `spec`."""
    ps, qs, bits = [1, 0], [0, 1], [0]
    for k in range(1, spec.horizon + 1):
        a = spec.partial_quotient(k)
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
        bits.append(bits[-1] + ps[-1].bit_length() + qs[-1].bit_length())
    return bits


def test_a_table_past_the_size_budget_is_refused_as_it_grows(monkeypatch):
    # golden K=4,000 holds 1.1e7 bits and is built; the budget's 2^24 bits
    # run out after about 4,900 levels, so a horizon of 100,000 reads no
    # quotient past them, and the refusal names neither horizon nor size
    assert table_bits(SlopeSpec((1,), (1,), 4000))[-1] <= errors.SIZE_BUDGET
    assert build_table(SlopeSpec((1,), (1,), 4000)).horizon == 4000
    read = []
    quotient = SlopeSpec.partial_quotient
    monkeypatch.setattr(SlopeSpec, "partial_quotient",
                        lambda spec, k: read.append(k) or quotient(spec, k))
    with pytest.raises(HorizonError) as refused:
        build_table(SlopeSpec((1,), (1,), 100_000))
    assert str(refused.value) == "the convergent table of the slope horizon is past 16777216 bits"
    levels = len(read)
    assert read == list(range(1, levels + 1)) and 4_800 < levels < 5_000
    bits = table_bits(SlopeSpec((1,), (1,), levels))
    assert bits[-2] <= errors.SIZE_BUDGET < bits[-1]


@pytest.mark.parametrize("pre, per", [((1,), (1,)), ((5, 3, 2), (5, 3, 2)), ((2, 1, 3), (1, 4)),
                                      ((10 ** 639 + 7,), (1,))])
def test_the_table_budget_refuses_the_first_level_past_it(monkeypatch, pre, per):
    bits = table_bits(SlopeSpec(pre, per, 60))
    monkeypatch.setattr(errors, "SIZE_BUDGET", bits[30])
    assert build_table(SlopeSpec(pre, per, 30)).horizon == 30
    with pytest.raises(HorizonError, match="convergent table"):
        build_table(SlopeSpec(pre, per, 31))


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


def test_quotients_and_horizon_are_integers():
    for bad in (1.5, 2.0, True, "2", Fraction(2)):
        with pytest.raises(ConfigError, match="is not an integer"):
            SlopeSpec((bad,), (2,), 4)
        with pytest.raises(ConfigError, match="is not an integer"):
            SlopeSpec((1,), (2, bad), 4)
        with pytest.raises(ConfigError, match="horizon must be a positive integer"):
            SlopeSpec((1,), (2,), bad)
    with pytest.raises(ConfigError, match="horizon must be a positive integer"):
        SlopeSpec((1,), (2,), 1e3)


def test_from_json_refuses_floats_and_booleans():
    for obj in ({"preperiod": [1.5], "period": [1], "horizon": 8},
                {"preperiod": [1], "period": [True], "horizon": 8},
                {"preperiod": [1], "period": [1], "horizon": 1e3},
                {"preperiod": [1], "period": [1], "horizon": 8.0},
                {"preperiod": [1], "period": [1], "horizon": False}):
        with pytest.raises(ConfigError):
            SlopeSpec.from_json(obj)
    # decimal strings stay accepted, and read as the integers they spell
    assert (SlopeSpec.from_json({"preperiod": ["5", 3], "period": ["2"], "horizon": "9"})
            == SlopeSpec((5, 3), (2,), 9))
    with pytest.raises(ConfigError, match="bad slope"):
        SlopeSpec.from_json({"preperiod": ["1.5"], "period": [1], "horizon": 8})


def test_replace_validates_as_the_constructor_does():
    spec = SlopeSpec((1, 2), (), 2)
    for changes in ({"horizon": 0}, {"horizon": 5}, {"preperiod": ()},
                    {"preperiod": (0, 2)}, {"preperiod": (1.5, 2)}, {"horizon": True},
                    {"preperiod": [1.5, 2]}, {"preperiod": [1, 2], "horizon": 3}):
        replace_raises_as_built(spec, **changes)
    assert spec._replace(horizon=1) == SlopeSpec((1, 2), (), 1)
    # a list preperiod with a tuple period is checked as one sequence
    assert build_table(SlopeSpec([1], (1,), 4)).qs == golden_table(4).qs


def test_slope_json_round_trip():
    spec = SlopeSpec((5, 3, 2), (7,), 9)
    assert SlopeSpec.from_json(json.loads(slope_json(spec))) == spec
    with pytest.raises(ConfigError, match="slope must be a JSON object, got '"):
        SlopeSpec.from_json(slope_json(spec))  # text is not decoded a second time


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
    assert reference_enclosure(golden, 2) == (Fraction(1, 2), Fraction(2, 3))


def test_enclosure_width_and_nesting(golden, slope532):
    # the nesting is why `floor_ratio`, and the signs read from its
    # bounds, take only the last pair
    for t in (golden, slope532):
        brackets = [reference_enclosure(t, level) for level in range(t.horizon)]
        for level, (lo, hi) in enumerate(brackets):
            assert hi - lo == Fraction(1, t.q(level) * t.q(level + 1))
        for (lo, hi), (nlo, nhi) in zip(brackets, brackets[1:]):
            assert lo <= nlo and nhi <= hi


def test_paper_slope_level_1_bracket(slope532):
    assert reference_enclosure(slope532, 1) == (Fraction(3, 16), Fraction(1, 5))


def theta_k_sign(t, k, offset=0):
    """Certified sign of theta_k - offset = q_k theta - p_k - offset."""
    return sign_linear(t, -t.p(k) - offset, t.q(k))


def test_theta_1_negative_golden(golden):
    assert theta_k_sign(golden, 1) == -1
    # theta_1 = theta - 1 lies within 1e-3 of -0.382
    assert theta_k_sign(golden, 1, Fraction(-383, 1000)) == 1
    assert theta_k_sign(golden, 1, Fraction(-381, 1000)) == -1


def test_theta_k_signs_and_magnitudes(slope532, golden):
    for t in (slope532, golden):
        for k in range(t.horizon - 1):
            sign = -1 if k % 2 else 1
            assert theta_k_sign(t, k) == sign
            # 1/(q_k + q_{k+1}) < |theta_k| < 1/q_{k+1}
            assert theta_k_sign(t, k, Fraction(sign, t.q(k) + t.q(k + 1))) == sign
            assert theta_k_sign(t, k, Fraction(sign, t.q(k + 1))) == -sign


def test_theta_k_interval_separation(slope532):
    t = slope532
    for k in range(1, t.horizon - 3):
        # theta_{k-1} and theta_k have opposite signs, so |theta_k| <
        # |theta_{k-1}| exactly when their sum has theta_{k-1}'s sign
        total = sign_linear(t, -t.p(k) - t.p(k - 1), t.q(k) + t.q(k - 1))
        assert total == (1 if k % 2 else -1)


def test_compare_and_sign(golden):
    theta = theta_value(golden)
    assert sign_linear(golden, Fraction(1, 2), -1) == -1
    assert sign_linear(golden, Fraction(2, 3), -1) == 1
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
        assert reference_floor_theta_multiple(golden, x) == expect
        # bounds that meet, or (0, -1) for the integer 0*theta
        assert floor_ratio(golden, 0, x, 1, 0) == (expect, expect - (x == 0))


# Reference bracket walks: one Fraction comparison per bracket end, with
# the bracket ordered by comparing its two ends.


def reference_enclosure(table, level):
    x = Fraction(table.p(level), table.q(level))
    y = Fraction(table.p(level + 1), table.q(level + 1))
    return (x, y) if x < y else (y, x)


def reference_floor_linear(table, const, coeff):
    """Floor of const + coeff*theta from Fraction enclosures, from level 0."""
    if coeff == 0:
        f = Fraction(const)
        return f.numerator // f.denominator
    for level in range(table.horizon):
        lo, hi = reference_enclosure(table, level)
        v1 = Fraction(const) + coeff * lo
        v2 = Fraction(const) + coeff * hi
        if v1.numerator // v1.denominator == v2.numerator // v2.denominator:
            return v1.numerator // v1.denominator
    raise PrecisionError(
        f"floor of {const} + {coeff}*theta not certified within horizon "
        f"{table.horizon}; raise the slope horizon"
    )


def test_bracket_walks_match_the_fraction_references():
    rng = random.Random(20261018)
    seen, deepened = set(), set()
    for _ in range(60):
        horizon = rng.randint(4, 12)
        t = table_for([rng.randint(1, 9) for _ in range(horizon)], (), horizon)
        qk, span = t.q(horizon), 2 * t.q(horizon)
        brackets = [reference_enclosure(t, level) for level in range(horizon)]
        for (lo, hi), (nlo, nhi) in zip(brackets, brackets[1:]):
            assert lo <= nlo and nhi <= hi
        # forms vanishing at a convergent or at the mediant of the last
        # bracket (never separable), then random ones
        forms = []
        for k in range(horizon + 1):
            for j in (1, -1, 2):
                forms += [(-j * t.p(k), j * t.q(k)), (-j * t.p(k) + 1, j * t.q(k))]
        forms.append((-(t.p(horizon - 1) + t.p(horizon)), t.q(horizon - 1) + qk))
        for _ in range(40):
            coeff = rng.randint(-span, span)
            const = Fraction(rng.randint(-span, span), rng.randint(1, span))
            forms.append((const if rng.random() < 0.7 else const.numerator, coeff))
        for const, coeff in forms:
            got = outcome(sign_linear, t, const, coeff)
            assert got == outcome(reference_sign_linear, t, const, coeff), (
                t.spec.preperiod, const, coeff)
            seen.add(("sign", isinstance(got, tuple)))
        for x in [rng.randint(-span, span) for _ in range(40)] + [qk, -qk, 0]:
            lo, hi = floor_ratio(t, 0, x, 1, 0)
            want = outcome(reference_floor_theta_multiple, t, x)
            where = (t.spec.preperiod, x)
            if isinstance(want, int):
                assert (lo, hi) == (want, want - (x == 0)), where
                assert want == reference_floor_linear(t, 0, x)
            elif lo == hi:
                # an end of the last pair is the integer x*p/q, which the
                # strict walk refuses and two more levels settle
                assert x % qk == 0 or x % t.q(horizon - 1) == 0, where
                deeper = table_for((*t.spec.preperiod, 1, 1), (), horizon + 2)
                assert lo == reference_floor_theta_multiple(deeper, x), where
                assert lo == reference_floor_linear(deeper, 0, x), where
                deepened.add(x // qk if x % qk == 0 else None)
            else:
                with pytest.raises(PrecisionError):
                    reference_floor_linear(t, 0, x)
            seen.add(("floor", lo < hi))
    # both functions were seen to certify and to run out of horizon, and
    # floor_ratio to settle x*theta at x = q_K and -q_K
    assert seen == {(kind, fails) for kind in ("sign", "floor") for fails in (False, True)}
    assert {1, -1} <= deepened


def reference_floor_ratio(table, a, b, c, d):
    """`floor_ratio` by bisection with `reference_sign_linear`: lo is the
    largest m with y >= m certified, hi the smallest m with y <= m
    certified, less 1, each None when no m of size up to the largest |y|
    at a convergent is; sign(y - m) is the sign of a - m*c + (b - m*d)*theta times that
    of the denominator, and both are None when the denominator's sign is
    not certified (its pole is inside the bracket)."""
    try:
        side = reference_sign_linear(table, c, d)
    except PrecisionError:
        return None, None

    def holds(m, sign):
        try:
            return side * reference_sign_linear(table, a - m * c, b - m * d) in (0, sign)
        except PrecisionError:
            return False

    a = Fraction(a)
    reach = (abs(a.numerator) + a.denominator * abs(b)) * table.q(table.horizon) + 1
    lo = hi = None
    if holds(-reach, 1):
        low, high = -reach, reach  # the largest m with y >= m certified
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if holds(mid, 1) else (low, mid - 1)
        lo = low
    if holds(reach, -1):
        low, high = -reach, reach  # the smallest m with y <= m certified
        while low < high:
            mid = (low + high) // 2
            low, high = (low, mid) if holds(mid, -1) else (mid + 1, high)
        hi = low - 1
    return lo, hi


@st.composite
def ratio_cases(draw):
    """A finite or periodic slope of horizon 1..8 and a ratio (a, b, c, d):
    a denominator j*theta_i vanishing at a convergent, K = 1 included (its
    pole p_0/q_0 is an end of the last bracket), one vanishing at the
    mediant of the last pair, or any denominator; a
    numerator of any size, or a rational multiple of the denominator (a
    constant map, integer or not)."""
    horizon = draw(st.integers(1, 8))
    quotients = tuple(draw(st.lists(st.integers(1, 9), min_size=horizon,
                                    max_size=horizon)))
    period = draw(st.sampled_from([(), quotients[-1:], quotients]))
    t = build_table(SlopeSpec(quotients, period, horizon))
    span = 2 * t.q(horizon)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, horizon + 1)), draw(st.sampled_from([1, -1, 2, -3]))
        if i > horizon:  # the pole is the mediant of the last pair, inside it
            c, d = -j * (t.p(horizon - 1) + t.p(horizon)), j * (t.q(horizon - 1) + t.q(horizon))
        else:
            c, d = -j * t.p(i), j * t.q(i)
    else:
        c, d = draw(st.integers(-span, span)), draw(st.integers(-span, span))
        if c == d == 0:
            d = 1
    if draw(st.booleans()):
        u, v = draw(st.integers(-3 * span, 3 * span)), draw(st.sampled_from([1, 1, 2, 3]))
        a, b = Fraction(u * c, v), u * d  # y = u/v when v divides d, else not constant
        if b % v:
            b += draw(st.integers(-2, 2))
        else:
            b //= v
    else:
        a = Fraction(draw(st.integers(-span, span)), draw(st.integers(1, 9)))
        b = draw(st.integers(-span, span))
    return t, (a, b, c, d)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ratio_cases())
def test_floor_ratio_matches_a_sign_bisection(case):
    t, ratio = case
    lo, hi = floor_ratio(t, *ratio)
    assert (lo, hi) == reference_floor_ratio(t, *ratio)
    if lo is not None and hi is not None and lo > hi:  # a constant integer y
        a, b, c, d = ratio
        assert lo == hi + 1 and a * d == b * c


def test_floor_ratio_constant_maps_and_a_pole_at_a_convergent():
    t = golden_table(1)  # theta in (0, 1): the pole of 1/theta is p_0/q_0
    assert floor_ratio(t, 1, 0, 0, 1) == (1, None)  # 1/theta > 1
    assert floor_ratio(t, -1, 0, 0, 1) == (None, -2)  # -1/theta < -1
    assert floor_ratio(t, 0, 3, 0, 1) == (3, 2)  # 3theta/theta is the integer 3
    assert floor_ratio(t, 0, 5, 0, 2) == (2, 2)  # 5/2, not an integer
    golden = golden_table()
    for k in range(1, golden.horizon - 1):
        # theta_k/theta_{k-1} lies in (-1, 0)
        assert floor_ratio(golden, -golden.p(k), golden.q(k),
                           -golden.p(k - 1), golden.q(k - 1)) == (-1, -1)
    # a pole inside the bracket, at the mediant of the last pair
    assert floor_ratio(golden, 1, 0, -golden.p(25) - golden.p(24),
                       golden.q(25) + golden.q(24)) == (None, None)


def test_recomputed_denominator_matches_word_length(slope532):
    from sturmian.words import WordSystem

    ws = WordSystem.characteristic(slope532)
    for k in range(1, 6):
        telescoped = slope532.a(k) * slope532.q(k - 1) + slope532.q(k - 2)
        assert telescoped == slope532.q(k) == len(ws.standard(k))
