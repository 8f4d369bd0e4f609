from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sturmian import (
    AmbiguousExpansionError,
    ConfigError,
    DigitRuleError,
    HorizonError,
    InvalidInterceptError,
    PrecisionError,
    SlopeSpec,
    build_table,
    decode_integer,
    decode_real,
    degenerate_expansions,
    encode_integer,
    encode_real,
    validate_real_digits,
)
from sturmian import (NumberSpec, WordSystem, boehmer_term, check_family_recurrences,
                      continued_fraction, family_fraction, ostrowski)
from sturmian.cfrac import formal_family_fraction
from sturmian.ostrowski import (IntegerDigits, InterceptDigits, _raise_ambiguous,
                                 digit_prefix_value)
from sturmian.slope import sign_linear

from conftest import (golden_table, random_digits, random_slope_table, reference_sign_linear,
                      replace_raises_as_built, table_for, theta_value)


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
    for digits in ((0, 0, 0, 0), (4, 0, 2, 0), (0, 1, 0, 2)):
        validate_real_digits(digits, slope532)
    for digits in ((1, 3, 0),  # b_2 = a_2 with b_1 != 0
                   (5, 0)):
        with pytest.raises(DigitRuleError) as err:
            validate_real_digits(digits, slope532)
        assert err.value.index == 1


def test_integer_and_real_rules_differ_only_in_the_leading_digit(slope532):
    for check, leading in ((decode_integer, "< a_1 = 5"),
                           (validate_real_digits, "<= a_1 - 1")):
        with pytest.raises(DigitRuleError) as err:
            check((5, 0), slope532)
        assert (err.value.index, err.value.rule) == (1, f"leading digit 5 must be {leading}")
        assert str(err.value) == f"digit rule violated at index 1: {err.value.rule}"
        for digits, index, rule in (((1, -1), 2, "negative digit -1"),
                                    ((1, 4), 2, "digit 4 exceeds a_2 = 3"),
                                    ((1, 3), 1, "digit before a maximal digit must vanish")):
            with pytest.raises(DigitRuleError) as err:
                check(digits, slope532)
            assert (err.value.index, err.value.rule) == (index, rule)
        with pytest.raises(HorizonError):
            check((0,) * 13, slope532)


def first_broken_rule(digits, table, leading):
    """(index, rule) of the first broken digit in index order, or None:
    digit j breaks its sign, its bound a_j, the leading rule at j = 1, or
    (reported at j - 1) adjacency, when d_j = a_j follows a nonzero digit."""
    for j, d in enumerate(digits, start=1):
        if d < 0:
            return j, f"negative digit {d}"
        if d > table.a(j):
            return j, f"digit {d} exceeds a_{j} = {table.a(j)}"
        if j == 1 and d == table.a(1):
            return 1, f"leading digit {d} must be {leading}"
        if j > 1 and d == table.a(j) and digits[j - 2] != 0:
            return j - 1, "digit before a maximal digit must vanish"
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2, 7), max_size=8))
@example([5, 0, 9])  # leading rule at 1 before the bound at 3
@example([1, 3, -1])  # adjacency at 1 before the sign at 3
def test_the_first_broken_digit_is_reported_in_index_order(digits):
    t = table_for((5, 3, 2), horizon=8)
    for check, leading in ((decode_integer, "< a_1 = 5"),
                           (validate_real_digits, "<= a_1 - 1")):
        want = first_broken_rule(digits, t, leading)
        if want is None:
            check(digits, t)
            continue
        with pytest.raises(DigitRuleError) as err:
            check(digits, t)
        assert (err.value.index, err.value.rule) == want


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
    d = encode_real(Fraction(0), golden)
    assert d.digits == (0,) * 23 and d.terminating  # K - 2 digits
    d = encode_real((golden.q(1), -golden.p(1)), golden)  # sigma = theta_1
    assert d.digits == (0, 1) + (0,) * 21 and d.terminating
    assert encode_real(Fraction(0), golden_table(3)).digits == (0,)  # at least one


def test_encode_real_rejects_floats_and_out_of_range(golden):
    with pytest.raises(ConfigError):
        encode_real(0.5, golden)
    with pytest.raises(InvalidInterceptError):
        encode_real(Fraction(-9, 10), golden)  # below -theta ~ -0.618
    with pytest.raises(InvalidInterceptError):
        encode_real(Fraction(9, 10), golden)  # above 1-theta ~ 0.382


def test_encode_real_half_round_trip(golden):
    sigma_shift = Fraction(1, 2)  # rho = 1/2, sigma = 1/2 - theta
    d = encode_real((-1, sigma_shift), golden)
    assert len(d.digits) == 23 and not d.terminating
    lo, hi = decode_real(d, golden)
    theta = theta_value(golden)
    assert lo < sigma_shift - theta < hi


def test_encode_real_ambiguous_cases(golden, slope532):
    with pytest.raises(AmbiguousExpansionError) as err:
        encode_real((-1, 0), golden)  # sigma = -theta
    assert (err.value.m, err.value.p) == (1, 0)
    with pytest.raises(AmbiguousExpansionError) as err:
        encode_real((-7, 2), slope532)
    assert (err.value.m, err.value.p) == (7, 2)


def _window_boundary(table, k, b):
    """Boundary between digits b-1 and b at step k: (b-1)theta_{k-1} - theta_k,
    as the coefficient pair (const, coeff) of const + coeff*theta."""
    coeff = (b - 1) * table.q(k - 1) - table.q(k)
    const = table.p(k) - (b - 1) * table.p(k - 1)
    return const, coeff


def reference_encode_real(sigma, table):
    """`encode_real` with the digit search it had before: a separate probe
    of boundary 1 settles digit 0, and a step with cap 0 skips the search."""
    if isinstance(sigma, float):
        raise ConfigError("float intercepts are rejected; pass a Fraction or (u, v) pair")
    if isinstance(sigma, tuple):
        coeff, const = int(sigma[0]), Fraction(sigma[1])
    else:
        coeff, const = 0, Fraction(sigma)
    orig_coeff, orig_const = coeff, const
    limit = max(table.horizon - 2, 1)

    digits = []
    prev = 1
    for k in range(1, limit + 1):
        if coeff == 0 and const == 0:
            return InterceptDigits(tuple(digits + [0] * (limit - len(digits))), True)
        cap = table.a(k) - 1 if prev >= 1 else table.a(k)
        direction = 1 if k % 2 == 1 else -1

        def above(b):
            bc, bk = _window_boundary(table, k, b)
            s = reference_sign_linear(table, const - bc, coeff - bk)
            return s * direction

        s_bot = direction * reference_sign_linear(table, const - table.p(k - 1),
                                                  coeff + table.q(k - 1))
        if s_bot == 0:
            _raise_ambiguous(digits, (0, 0), orig_coeff, orig_const)
        if s_bot < 0:
            raise InvalidInterceptError(
                f"value below -theta at digit {k}; not in [-theta, 1-theta]"
            )
        s_top = above(cap + 1)
        if s_top == 0:
            _raise_ambiguous(digits, (cap, cap), orig_coeff, orig_const)
        if s_top > 0:
            raise InvalidInterceptError(
                f"value beyond the top of the digit range at digit {k}"
            )
        if cap == 0:
            b_k = 0
        else:
            s1 = above(1)
            if s1 == 0:
                _raise_ambiguous(digits, (0, 1), orig_coeff, orig_const)
            if s1 < 0:
                b_k = 0
            else:
                lo, hi = 1, cap
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    s = above(mid)
                    if s == 0:
                        _raise_ambiguous(digits, (mid - 1, mid), orig_coeff, orig_const)
                    if s > 0:
                        lo = mid
                    else:
                        hi = mid - 1
                b_k = lo
        digits.append(b_k)
        const += b_k * table.p(k - 1)
        coeff -= b_k * table.q(k - 1)
        prev = b_k
    return InterceptDigits(tuple(digits), coeff == 0 and const == 0)


def encode_outcome(encode, sigma, table):
    """The digits, or the error with its message and branches; a
    PrecisionError by type only, since the probe order decides which
    boundary its message names."""
    try:
        return encode(sigma, table)
    except PrecisionError:
        return "PrecisionError"
    except AmbiguousExpansionError as exc:
        return ("ambiguous", str(exc), exc.prefix, exc.branch_digits, exc.m, exc.p)
    except InvalidInterceptError as exc:
        return ("invalid", str(exc))


def _kind(result):
    if isinstance(result, InterceptDigits):
        return "digits"
    if result[0] != "ambiguous":
        return result if result == "PrecisionError" else "invalid"
    low, high = result[3]
    if low == high:
        return "(cap, cap)" if low else "(0, 0)"
    return "(0, 1)" if high == 1 else "(j-1, j)"


def _constant_map(rng, table, k, cap):
    """(branch, residual) for a residual X = r theta_{k-1} - theta_k, on
    which y = (X + theta_k)/theta_{k-1} is the constant r: -1, an integer
    in 0..cap, one above cap, or a fraction of denominator q_{k-1} (the
    coefficient of theta must be an integer).  The residual is the pair
    (const, coeff)."""
    q = table.q(k - 1)
    r = rng.choice([-1, rng.randint(0, cap), cap + rng.randint(1, 3),
                    Fraction(rng.randint(-q, (cap + 2) * q), q)])
    branch = ("fraction" if r.denominator > 1 else "-1" if r == -1 else "cap" if r == cap
              else "below cap" if r < cap else "above cap")
    return branch, (table.p(k) - r * table.p(k - 1), int(r * q) - table.q(k))


def test_digit_search_matches_the_reference(rng):
    seen, seen_small, built = set(), set(), set()
    for horizon in [rng.randint(4, 14) for _ in range(60)] + [1, 2, 3] * 20:
        # K = 1-3 on finite slopes, whose PrecisionErrors no exact theta removes
        t = (random_slope_table(rng, horizon) if horizon > 3 else
             table_for([rng.randint(1, 9) for _ in range(horizon)], (), horizon))
        K = t.horizon
        sigmas = []
        for _ in range(10):  # rationals inside and just outside [-theta, 1-theta]
            d = rng.randint(1, 10 ** rng.randint(1, 6))
            n = round(theta_value(t) * d)
            sigmas.append(Fraction(rng.randint(-n - d // 10 - 1, d - n + d // 10 + 1), d))
        for _ in range(4):  # u*theta + v near anything
            sigmas.append((rng.randint(-t.q(K), t.q(K)),
                           Fraction(rng.randint(-t.q(K), t.q(K)), rng.randint(1, 9))))
        for _ in range(16):  # a valid prefix, then the bottom of the window at
            # step k, one of its boundaries or another constant map
            k = rng.randint(1, max(K - 2, 1))
            prefix = random_digits(rng, t, k - 1)
            cap = t.a(k) - 1 if k == 1 or prefix[-1] else t.a(k)
            j = rng.randint(0, cap + 1)
            if j == 0:
                const, coeff = t.p(k - 1), -t.q(k - 1)
            elif rng.random() < 0.5:
                const, coeff = _window_boundary(t, k, j)
            else:
                branch, (const, coeff) = _constant_map(rng, t, k, cap)
                built.add((branch, K < 4))
            u, p = digit_prefix_value(prefix, t)
            sigmas.append((u + coeff, const - p))
        for sigma in sigmas:
            got = encode_outcome(encode_real, sigma, t)
            assert got == encode_outcome(reference_encode_real, sigma, t), (t.spec, sigma)
            (seen_small if K < 4 else seen).add(_kind(got))
    kinds = {"digits", "invalid", "PrecisionError", "(0, 0)", "(0, 1)", "(j-1, j)", "(cap, cap)"}
    assert seen == seen_small == kinds
    # every branch of a constant y, on K = 1-3 tables too (where the only
    # step is k = 1 and q_0 = 1 leaves no fraction)
    assert built == {(branch, k_small) for branch in ("-1", "below cap", "cap", "above cap")
                     for k_small in (False, True)} | {("fraction", False)}


def test_an_encoding_takes_one_sign_test(monkeypatch):
    # the range test sigma + theta > 0 comes once, before digit 1: every
    # accepted digit keeps the next residual in range, so 8 digits on
    # 600-digit quotients take one sign test, where the per-digit bottom
    # test took 8 and the digit search about 2,000 per digit
    t = table_for([10 ** 599 + j for j in (1, 3, 7, 9, 11, 13, 17, 19, 21, 23)], (), 10)
    calls = []
    monkeypatch.setattr(ostrowski, "sign_linear",
                        lambda *args: calls.append(args) or sign_linear(*args))
    digits = encode_real(Fraction(1, 3), t)
    assert len(digits.digits) == 8 and len(calls) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_encode_decode_round_trip_on_digit_vectors(data):
    quotients = data.draw(st.lists(st.integers(1, 6), min_size=6, max_size=10))
    t = build_table(SlopeSpec(tuple(quotients), tuple(quotients), 16))
    digs = []
    prev = 1
    for k in range(1, 9):
        hi = t.a(k) - 1 if prev >= 1 else t.a(k)
        d = data.draw(st.integers(0, hi))
        digs.append(d)
        prev = d
    u, p = digit_prefix_value(digs, t)
    got = encode_real((u, -p), t)  # K - 2 = 14 digits
    assert len(got.digits) == 14 and got.terminating
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
                validate_real_digits(stream, t)


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


@pytest.mark.parametrize("call", [
    lambda t, ws: decode_integer((0.5, 2.5), t),
    lambda t, ws: decode_integer((1, True), t),
    lambda t, ws: validate_real_digits((1.5,), t),
    lambda t, ws: validate_real_digits((0, 1, "2"), t),
    lambda t, ws: WordSystem.from_digits(t, [0.9, 1.7]),
    lambda t, ws: encode_integer(7.0, t),
    lambda t, ws: encode_integer(True, t),
    lambda t, ws: degenerate_expansions(1.0, 0, t),
    lambda t, ws: degenerate_expansions(2, 1.0, t),
    lambda t, ws: NumberSpec(2.5, ws),
    lambda t, ws: NumberSpec(Fraction(3), ws),
    lambda t, ws: ws.letter(2.0),
    lambda t, ws: ws.floor_letter(2.0),
    lambda t, ws: ws.prefix(3.5),
    lambda t, ws: ws.prefix_blocks(True),
    lambda t, ws: ws.prefix_blocks(-3),
    lambda t, ws: ws.letter(-10 ** 5000),
    lambda t, ws: encode_real((0.5, Fraction(0)), t),
    lambda t, ws: encode_real((0, 0.1), t),
    lambda t, ws: encode_real(("1", Fraction(0)), t),
    lambda t, ws: IntegerDigits(("x",)),
    lambda t, ws: IntegerDigits((1.5,)),
    lambda t, ws: formal_family_fraction(NumberSpec(2, ws), "4", 1.0),
    lambda t, ws: family_fraction(NumberSpec(2, ws), "4", True),
    lambda t, ws: check_family_recurrences(NumberSpec(2, ws), 1.0),
    lambda t, ws: boehmer_term(t, 2.0, 1),
    lambda t, ws: boehmer_term(t, 2, 1.0),
    lambda t, ws: continued_fraction(NumberSpec(2, ws), terms=2.5),
    lambda t, ws: continued_fraction(NumberSpec(2, ws), terms=-1),
], ids=["decode-float", "decode-bool", "validate-float", "validate-str", "from-digits",
        "encode-float", "encode-bool", "degenerate-m", "degenerate-p", "base-float",
        "base-fraction", "letter", "floor-letter", "prefix", "prefix-blocks-bool",
        "prefix-blocks-negative", "letter-huge-negative", "encode-real-float-u",
        "encode-real-float-v", "encode-real-str-u", "integer-digits-str",
        "integer-digits-float", "formal-family-float-k", "family-bool-k",
        "recurrences-float-k", "boehmer-float-base", "boehmer-float-k", "terms-float",
        "terms-negative"])
def test_a_non_integer_or_out_of_range_argument_is_refused(call, slope532):
    # a library call answers exactly or refuses with a typed error: never a
    # value from truncated or float digits, never TypeError, AttributeError
    # or the ValueError of an integer past the int-to-str limit
    with pytest.raises(ConfigError):
        call(slope532, WordSystem.characteristic(slope532))


def test_a_non_integer_digit_is_refused_at_its_index(slope532):
    with pytest.raises(DigitRuleError) as err:
        validate_real_digits((0, 1, 2.0, -1), slope532)
    assert (err.value.index, err.value.rule) == (3, "digit 2.0 is not an integer")
    with pytest.raises(DigitRuleError) as err:
        IntegerDigits((1, True, 0))
    assert (err.value.index, err.value.rule) == (2, "digit True is not an integer")
