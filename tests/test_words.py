import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    ConfigError,
    HorizonError,
    PrecisionError,
    SlopeSpec,
    build_table,
    degenerate_expansions,
    encode_integer,
    encode_real,
)
from sturmian import errors
from sturmian.ostrowski import decode_real
from sturmian.words import (PREFIX_BLOCK, WordSystem, formal_intercept, run_length,
                            run_length_blocks)

from conftest import (
    degenerate_p,
    golden_table,
    outcome,
    random_digits,
    random_slope_table,
    reference_aligned,
    table_for,
    theta_value,
    word_system,
)


def test_from_spec_forms_match_the_constructors(slope532):
    t = slope532
    cases = [
        ("characteristic", False, WordSystem.characteristic(t)),
        ({"digits": [1, 0, 2]}, False, word_system(t, (1, 0, 2))),
        ({"digits": [1, 0, 2], "terminating": False}, False,
         word_system(t, (1, 0, 2), terminating=False)),
        ({"m": 3, "p": 1}, True,
         WordSystem.from_degenerate(t, degenerate_expansions(3, 1, t), upper=True)),
        ({"sigma": "1/2"}, False,
         WordSystem.from_digits(t, encode_real(Fraction(1, 2), t))),
        ({"sigma_pair": [1, "-1/5"]}, False,
         WordSystem.from_digits(t, encode_real((1, Fraction(-1, 5)), t))),
    ]
    for intercept, upper, want in cases:
        got = WordSystem.from_spec(t, intercept, upper=upper)
        assert (got.digits, got.rho, got.upper) == (want.digits, want.rho, want.upper)
    for bad in ("bogus", {}, {"digits": [0], "m": 1}, {"sigma": "1/0"}):
        with pytest.raises(ConfigError):
            WordSystem.from_spec(t, bad)


def floor_formula_letters(table, count, shift_u=0):
    """Independent floor oracle: s_n = floor((n+1+u) theta) - floor((n+u) theta),
    evaluated with a high-precision rational stand-in for theta."""
    theta = theta_value(table)

    def fl(x):
        v = x * theta
        return v.numerator // v.denominator

    return [fl(n + 1 + shift_u) - fl(n + shift_u) for n in range(1, count + 1)]


def test_standard_words_golden(golden):
    ws = WordSystem.characteristic(golden)
    assert ws.standard(1) == "1"
    assert ws.standard(2) == "10"
    assert ws.standard(3) == "101"
    assert ws.standard(4) == "10110"


def test_standard_words_532(slope532):
    ws = WordSystem.characteristic(slope532)
    assert ws.standard(2) == "0000100001000010"
    assert run_length(ws.standard(2)) == "0^4 1 0^4 1 0^4 1 0"
    for k in range(6):
        assert len(ws.standard(k)) == slope532.q(k)


def test_aligned_words_from_section4_digits(slope532):
    lower = word_system(slope532, (4, 0, 2), terminating=False)
    assert lower.aligned(1) == "10000"
    assert lower.aligned(2) == "1000010000100000"
    alt = word_system(slope532, (0, 3, 0), terminating=False)
    assert alt.aligned(1) == "00001"
    assert alt.aligned(2) == "0000010000100001"


def test_aligned_equals_standard_with_zero_digits(golden, slope532):
    for t in (golden, slope532):
        ws = WordSystem.characteristic(t)
        for k in range(7):
            assert ws.aligned(k) == ws.standard(k)


def test_split_identities_random(rng):
    for _ in range(25):
        t = random_slope_table(rng, 10, amax=5)
        digs = random_digits(rng, t, 7)
        ws = word_system(t, digs)
        for k in range(1, 7):
            head, tail = ws.split(k)
            assert len(head) == ws.offset(k)
            assert len(tail) == ws.suffix_len(k)
            assert head + tail == ws.standard(k)
            assert tail + head == ws.aligned(k) == reference_aligned(ws, k)
            assert len(ws.aligned(k)) == t.q(k)


def test_consecutive_aligned_words_share_prefix(rng):
    for _ in range(15):
        t = random_slope_table(rng, 9, amax=4)
        digs = random_digits(rng, t, 8)
        ws = word_system(t, digs)
        for k in range(1, 7):
            shared = t.q(k) - 1
            assert ws.aligned(k + 1)[:shared] == ws.aligned(k)[:shared]


def test_letter_examples(slope532, golden):
    deg = degenerate_expansions(1, 0, slope532)
    upper = WordSystem.from_degenerate(slope532, deg, upper=True)
    assert [upper.letter(n) for n in range(1, 6)] == [1, 0, 0, 0, 0]
    char = WordSystem.characteristic(golden)
    assert [char.letter(n) for n in range(1, 6)] == [1, 0, 1, 1, 0]
    assert floor_formula_letters(golden, 5) == [1, 0, 1, 1, 0]


def test_letters_match_materialized(rng):
    for _ in range(20):
        t = random_slope_table(rng, 9, amax=4)
        digs = random_digits(rng, t, 8)
        ws = word_system(t, digs)
        k = 6
        word = ws.aligned(k)
        for n in range(1, t.q(k)):
            assert ws.letter(n) == int(word[n - 1])


def test_floor_letters_characteristic(golden):
    ws = WordSystem.characteristic(golden)
    assert [ws.floor_letter(n) for n in (1, 2, 3)] == [1, 0, 1]


@pytest.mark.parametrize("preperiod, period", [((1,), (1,)), ((5, 3, 2), (5, 3, 2)),
                                               ((2, 1, 3), (1, 4))],
                         ids=["golden", "532", "213-14"])
def test_floor_letter_at_the_last_denominator(preperiod, period):
    # letter q_K - 1 of the characteristic word needs floor(q_K theta),
    # whose end p_K of the last pair is an integer; at odd K the other end
    # lies below it, and the bounds still meet at p_K - 1
    t = table_for(preperiod, period, 7)
    ws = WordSystem.characteristic(t)
    n = t.q(7) - 1
    assert ws.floor_letter(n) == ws.letter(n)


def test_rho_zero_first_letters(golden):
    deg = degenerate_expansions(1, 0, golden)
    lower = WordSystem.from_degenerate(golden, deg, upper=False)
    upper = WordSystem.from_degenerate(golden, deg, upper=True)
    assert lower.floor_letter(1) == 0
    assert upper.floor_letter(1) == 1
    # both continue with the characteristic word
    char = WordSystem.characteristic(golden)
    for n in range(2, 40):
        c = char.letter(n - 1)
        assert lower.letter(n) == c == upper.letter(n)
        assert lower.floor_letter(n) == c == upper.floor_letter(n)


def test_recursion_equals_floor_formula_small(rng):
    for _ in range(30):
        t = random_slope_table(rng, 9, amax=9)
        digs = random_digits(rng, t, 6)
        limit = min(t.q(6) - 1, 300)
        for upper in (False, True):  # the upper word takes ceilings
            ws = word_system(t, digs, upper=upper)
            for n in range(1, limit + 1):
                assert ws.letter(n) == ws.floor_letter(n), (t.spec.preperiod, digs, n)


def test_prefix_mode_floor_certifies_or_raises(golden):
    digs = (0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1)
    ws = word_system(golden, digs, terminating=False)
    exact = word_system(golden, digs, terminating=True)
    for n in range(1, 9):
        assert ws.floor_letter(n) == exact.floor_letter(n)
    short = word_system(golden, (0, 1), terminating=False)
    with pytest.raises(PrecisionError):
        for n in range(1, 9):
            short.floor_letter(n)


def reference_floor_letter(ws, n, sigma):
    """Digit-prefix letter n from Fraction intervals: sigma = (lo, hi) is
    `decode_real` of the prefix, and theta ranges over the deepest
    convergent bracket independently of it."""
    t = ws.table
    lo, hi = sigma
    th_lo, th_hi = sorted((Fraction(t.p(t.horizon - 1), t.q(t.horizon - 1)),
                           Fraction(t.p(t.horizon), t.q(t.horizon))))

    def bracket(x):
        # x*theta + rho = (x+1)*theta + sigma
        v_lo = (x + 1) * (th_lo if x + 1 >= 0 else th_hi) + lo
        v_hi = (x + 1) * (th_hi if x + 1 >= 0 else th_lo) + hi
        return v_lo, v_hi

    def int_part(x):
        v_lo, v_hi = bracket(x)
        if ws.upper:
            c1 = -((-v_lo.numerator) // v_lo.denominator)
            c2 = -((-v_hi.numerator) // v_hi.denominator)
        else:
            c1 = v_lo.numerator // v_lo.denominator
            c2 = v_hi.numerator // v_hi.denominator
        if c1 != c2:
            raise PrecisionError(
                f"floor at n={n} not certified from the digit prefix; "
                "declare the intercept exactly (terminating or degenerate)"
            )
        return c1

    return int_part(n) - int_part(n - 1)


def test_prefix_floor_letters_match_the_interval_reference():
    """300 prefixes b_1..b_m of random valid K-digit streams, lower and
    upper words.  For n < q_m the letter depends on b_1..b_m alone:
    floor_letter agrees with the reference wherever that certifies, and
    with `letter`.  Past q_m every completion of the prefix is a possible
    intercept, so a certified letter must also be the completed word's;
    only this catches a tail bound that is too small."""
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(300):
        horizon = rng.randint(6, 12)
        t = random_slope_table(rng, horizon, amax=5)
        full = random_digits(rng, t, horizon)
        m = rng.randint(2, horizon - 1)
        for upper in (False, True):
            ws = word_system(t, full[:m], terminating=False, upper=upper)
            done = word_system(t, full, terminating=False, upper=upper)
            sigma = decode_real(ws.digits, t)
            for n in range(1, min(t.q(m) - 1, 200) + 1):
                got = outcome(ws.floor_letter, n)
                want = outcome(reference_floor_letter, ws, n, sigma)
                where = (t.spec.preperiod, full[:m], upper, n)
                if isinstance(want, int):
                    assert got == want, where
                if isinstance(got, int):
                    assert got == ws.letter(n), where
                seen[isinstance(got, int), isinstance(want, int)] += 1
            for n in range(t.q(m), min(t.q(horizon) - 1, t.q(m) + 30) + 1):
                got = outcome(ws.floor_letter, n)
                if isinstance(got, int):
                    assert got == done.letter(n), (t.spec.preperiod, full, upper, n)
    # both paths were seen to certify and to refuse
    assert {(True, True), (False, False)} <= set(seen)


def test_formal_intercept_round_trip(slope532, rng):
    src = word_system(slope532, (4, 0, 2), terminating=False)
    got = formal_intercept(src, slope532, 3)
    assert got.digits == (4, 0, 2)
    for _ in range(10):
        t = random_slope_table(rng, 9, amax=4)
        digs = random_digits(rng, t, 6)
        ws = word_system(t, digs)
        assert formal_intercept(ws, t, 6).digits == digs


def test_formal_intercept_reads_a_word_system_by_one_window_per_level(slope532, monkeypatch):
    digs = (4, 0, 2, 1, 0, 1)
    src = word_system(slope532, digs, terminating=False)
    lengths, prefix = [], src.prefix
    monkeypatch.setattr(src, "letter", None)
    monkeypatch.setattr(src, "prefix", lambda n: lengths.append(n) or prefix(n))
    assert formal_intercept(src, slope532, 6).digits == digs
    assert lengths == [slope532.q(k) - 1 for k in range(1, 7)]
    # a source known to fewer levels has no window for the next one
    with pytest.raises(HorizonError):
        formal_intercept(src, slope532, 7)


def test_formal_intercept_characteristic(golden):
    ws = WordSystem.characteristic(golden)
    assert formal_intercept(ws, golden, 8).digits == (0,) * 8


def test_formal_intercept_level_one_is_first_digit(rng):
    for _ in range(10):
        t = random_slope_table(rng, 8, amax=6)
        digs = random_digits(rng, t, 5)
        ws = word_system(t, digs)
        got = formal_intercept(ws, t, 1)
        assert got.digits == (digs[0],)
        assert ws.offset(1) == digs[0]


def test_formal_intercept_rejects_non_sturmian(golden):
    letters = {1: 1, 2: 1, 3: 1}

    def fake(n):
        return letters.get(n, 0)

    with pytest.raises(ConfigError):
        formal_intercept(fake, golden, 4)


def test_formal_intercept_reads_each_source_letter_once(rng):
    for _ in range(10):
        t = random_slope_table(rng, 9, amax=4)
        digs = random_digits(rng, t, 6)
        ws = word_system(t, digs)
        reads = []

        def source(n):
            reads.append(n)
            return ws.letter(n)

        assert formal_intercept(source, t, 6).digits == digs
        assert reads == list(range(1, t.q(6)))  # in order, none twice


def test_formal_intercept_reads_no_letter_past_every_candidate(golden):
    # both level-5 candidates have letter 5 = 0 (windows 010 and 011 of
    # letters 5..7), so after a flipped letter 5 no candidate needs letter
    # 6, which this source cannot give
    word = WordSystem.characteristic(golden).prefix(5)
    assert word[4] == "0"

    def source(n):
        if n > len(word):
            raise HorizonError(f"no letter {n}")
        return int(word[n - 1]) ^ (n == 5)

    with pytest.raises(ConfigError, match="at level 5"):
        formal_intercept(source, golden, 6)


def test_common_prefix_examples(slope532):
    ws = word_system(slope532, (4, 0, 2), terminating=False)
    w0, n0 = ws.common_prefix(0)
    assert n0 == slope532.a(1) - 1 - 4 == 0
    _, n2 = ws.common_prefix(2)
    assert n2 == slope532.q(3) + slope532.q(2) - ws.offset(3) - 2 == 15


def test_common_prefix_closed_form_and_recursion(rng):
    for _ in range(15):
        t = random_slope_table(rng, 9, amax=4)
        digs = random_digits(rng, t, 8)
        ws = word_system(t, digs)
        for k in range(0, 6):
            w, n = ws.common_prefix(k)
            assert n == t.q(k + 1) + t.q(k) - ws.offset(k + 1) - 2
            if k > 0:
                prev, _ = ws.common_prefix(k - 1)
                gap = t.a(k + 1) - ws.digit(k + 1)
                assert w == ws.aligned(k) * gap + prev


def test_common_prefix_zero_digits(golden):
    ws = WordSystem.characteristic(golden)
    for k in range(0, 6):
        _, n = ws.common_prefix(k)
        assert n == golden.q(k + 1) + golden.q(k) - 2


def test_is_aligned_prefix(golden, slope532, rng):
    char = WordSystem.characteristic(golden)
    for k in range(1, 8):
        assert char.is_aligned_prefix(k)
    # extremal pattern 0, a_2, 0, a_4 (k odd) is exactly the non-prefix case
    t = table_for((2, 3, 2, 3), horizon=10)
    bad = word_system(t, (0, 3, 0, 3), terminating=False)
    assert not bad.is_aligned_prefix(3)
    ws = word_system(slope532, (4, 0, 2), terminating=False)
    ws.is_aligned_prefix(1)  # internal cross-check runs
    for _ in range(20):
        tt = random_slope_table(rng, 9, amax=4)
        ww = word_system(tt, random_digits(rng, tt, 8))
        for k in range(0, 6):
            ww.is_aligned_prefix(k)  # direct comparison vs criterion


def test_repetition_zero_digits(rng):
    for _ in range(10):
        t = random_slope_table(rng, 9, amax=4)
        ws = WordSystem.characteristic(t)
        for k in range(1, 5):
            rep = ws.repetition(k)
            assert rep.head == ws.split(k + 1)[1]
            if t.a(k + 2) >= 2:
                assert rep.count == t.a(k + 1)
            else:
                assert rep.count == t.a(k + 1) + 1


def test_repetition_section4_digits(slope532):
    deg = degenerate_expansions(1, 0, slope532)
    ws = WordSystem.from_degenerate(slope532, deg, upper=True)
    rep = ws.repetition(1)
    # digits (4,0,2,...): gap at k+2=3 is a_3 - b_3 = 0 -> head = R_1 M_2
    assert rep.head == ws.split(1)[1] + ws.standard(2)
    assert rep.count in (slope532.a(2), slope532.a(2) + 1)


def test_repetition_bumped_count_case():
    # force a_{k+2} = b_{k+2} with a_{k+2} = 1 and a_{k+3} - b_{k+3} >= 2 at k = 1
    t = table_for((2, 2, 1, 3, 2, 2, 1, 3), horizon=12)
    digs = (0, 0, 1, 0, 0, 0, 0, 0)  # b_3 = a_3 = 1 with b_2 = 0
    ws = word_system(t, digs)
    rep = ws.repetition(1)
    assert rep.head == ws.split(1)[1] + ws.standard(2)
    assert rep.count == t.a(2) + 1


def test_repetition_random_verified(rng):
    # the decomposition is verified letterwise inside repetition()
    for _ in range(20):
        t = random_slope_table(rng, 10, amax=4)
        digs = random_digits(rng, t, 9)
        ws = word_system(t, digs)
        for k in range(1, 5):
            ws.repetition(k)


def test_prefix_product_formula(rng):
    for _ in range(15):
        t = random_slope_table(rng, 9, amax=5)
        ws = WordSystem.characteristic(t)
        n = 4
        for target in sorted(rng.sample(range(1, t.q(n + 1)), 12)):
            digs = encode_integer(target, t).digits
            digs = digs + (0,) * (n + 1 - len(digs))
            m_side = "".join(
                ws.standard(j) * digs[j] for j in range(n, -1, -1)
            )
            v_sys = word_system(t, digs, terminating=False)
            v_side = "".join(
                v_sys.aligned(j) * digs[j] for j in range(0, n + 1)
            )
            prefix = ws.standard(n + 1)[:target]
            assert m_side == prefix
            assert v_side == prefix


def test_mirror_and_palindrome_section4(slope532):
    deg = degenerate_expansions(1, 0, slope532)
    v = WordSystem.from_degenerate(slope532, deg, upper=True)
    v_alt = WordSystem.from_degenerate(slope532, deg, upper=False)
    for n in range(1, 5):
        a, b = v.aligned(n), v_alt.aligned(n)
        assert a == b[::-1]
        core = v.standard(n)[:-2]
        assert a[1:-1] == b[1:-1] == core
        assert core == core[::-1]


def test_factor_counts(golden, slope532, rng):
    char = WordSystem.characteristic(golden)
    assert char.factor_count(100, 1).count == 2
    assert char.factor_count(100, 4).count == 5
    w532 = WordSystem.characteristic(slope532)
    assert w532.factor_count(500, 10).count == 11
    for _ in range(8):
        t = random_slope_table(rng, 10, amax=5)
        ws = word_system(t, random_digits(rng, t, 8))
        for n in (1, 2, 9, 30):
            j = t.level_covering(n)
            length = t.q(j) + t.q(j - 1) + n
            rep = ws.factor_count(length, n)
            assert rep.window_ok
            assert rep.count == n + 1


def test_factor_count_insufficient_window(golden):
    ws = WordSystem.characteristic(golden)
    rep = ws.factor_count(6, 4)
    assert not rep.window_ok


def test_materialize_cap(monkeypatch):
    # one size budget, errors.SIZE_BUDGET = 2^24 letters, for standard
    # words and prefixes alike
    ws = WordSystem.characteristic(golden_table(37))
    assert ws.q(35) <= errors.SIZE_BUDGET < ws.q(36)  # q_36 = 24,157,817
    with pytest.raises(HorizonError, match="^the standard word at level 36 is past 16777216 letters$"):
        ws.standard(36)
    assert ws._standard == {-1: "1", 0: "0"}  # refused before any level is built
    tracemalloc.start()
    try:
        with pytest.raises(HorizonError, match="^the requested word prefix is past 16777216 letters$"):
            ws.prefix(2 ** 24 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the word's 16 MB were never allocated
    # a short digit prefix still names its first missing digit
    short = word_system(golden_table(37), (0, 1), terminating=False)
    with pytest.raises(HorizonError, match="^digit b_3 beyond"):
        short.prefix(2 ** 24 + 1)
    # the budget itself is served: under a budget of 20,000 letters (above
    # PREFIX_BLOCK, the longest level a prefix builds) a prefix of 20,000
    # is read as without it, one of 20,001 refused
    word = reference_aligned(ws, 22)
    monkeypatch.setattr(errors, "SIZE_BUDGET", 20_000)
    assert ws.prefix(20_000) == word[:20_000]
    with pytest.raises(HorizonError):
        ws.prefix(20_001)
    monkeypatch.undo()
    # below the budget, letters and prefixes are read as before
    word = reference_aligned(ws, 30)
    assert ws.letter(1_300_000) == int(word[1_299_999])
    assert ws.prefix(1_300_000) == word[:1_300_000]


def lengths_to_check(rng, ws, k):
    """Prefix lengths below q_k: 1, q_{k-1}, q_k - 1, a random one, the
    two around PREFIX_BLOCK, and the first that wraps past the end of M_k
    (t_k + n > q_k)."""
    q, t = ws.q(k), ws.offset(k)
    ns = {1, ws.q(k - 1), q - 1, rng.randint(1, q - 1), PREFIX_BLOCK,
          PREFIX_BLOCK + 1, q - t + 1}
    return sorted(n for n in ns if 1 <= n < q)


def degenerate_systems(rng, table, k):
    """The lower and upper words of a random degenerate intercept
    rho = -(m-1) theta + p with m <= q_k: digit streams with maximal
    patterns."""
    m = rng.randint(1, table.q(k))
    deg = degenerate_expansions(m, degenerate_p(table, m), table)
    return [WordSystem.from_degenerate(table, deg, upper=upper) for upper in (False, True)]


def test_prefix_matches_the_aligned_words(rng):
    # prefixes and letters of levels above PREFIX_BLOCK letters descend the
    # standard words; small levels repeated many times (a_k up to 3000) go
    # out as shared chunks; every length is checked against the paper's
    # aligned recursion, wrapping windows included
    checked = 0
    while checked < 30:
        t = random_slope_table(rng, 12, amax=rng.choice((2, 9, 3000)))
        k = max(j for j in range(1, 12) if t.q(j) <= 300_000)
        if t.q(k) <= PREFIX_BLOCK:
            continue
        systems = [word_system(t, random_digits(rng, t, 12), upper=upper)
                   for upper in (False, True)]
        for ws in systems + degenerate_systems(rng, t, k):
            word = reference_aligned(ws, k)
            for n in lengths_to_check(rng, ws, k):
                assert ws.prefix(n) == word[:n], (t.spec, ws.digits, n)
                assert ws.letter(n) == int(word[n - 1]), (t.spec, ws.digits, n)
        checked += 1


def test_windows_past_a_first_quotient_above_the_block(rng):
    # a_1 > PREFIX_BLOCK: level 1, 0^(a_1 - 1) 1, is walked as its runs,
    # and so is every level above it; digits wrap the windows at each level
    for a1 in (PREFIX_BLOCK + 1, PREFIX_BLOCK + 2, 3 * PREFIX_BLOCK + 7):
        t = table_for((a1, 1, 2), horizon=4)
        systems = [word_system(t, random_digits(rng, t, 4)) for _ in range(3)]
        for ws in systems + degenerate_systems(rng, t, 3):
            for k in (1, 2, 3):
                word = reference_aligned(ws, k)
                for n in lengths_to_check(rng, ws, k):
                    assert ws.prefix(n) == word[:n], (a1, ws.digits, n)
                    assert ws.letter(n) == int(word[n - 1]), (a1, ws.digits, n)


def test_prefix_past_a_first_quotient_above_the_cap():
    # q_1 = a_1 > 2^20: level 1 is 0^(a_1 - 1) 1 and never materialized
    a1 = (1 << 20) + 5
    ws = WordSystem.characteristic(table_for((a1,), (1,), 5))
    word = ws.prefix(a1 + 3)
    assert word.count("1") == 1
    for n in range(a1 - 3, a1 + 4):
        assert int(word[n - 1]) == ws.letter(n) == ws.floor_letter(n), n


def test_prefix_peak_memory_is_its_one_copy():
    # the returned word plus blocks of at most PREFIX_BLOCK letters; caching
    # every level word to 2^20 peaked at 3.6 n on golden K=28, n = q_28 - 1.
    # (5,3,2) K=10 with digits 1,0,2,0,1 has t_10 = 234, so its window wraps
    golden = WordSystem.characteristic(golden_table(28))
    wrapping = word_system(table_for((5, 3, 2), horizon=10), (1, 0, 2, 0, 1))
    assert wrapping.offset(10) + 322_000 > wrapping.q(10)
    for ws, n in ((golden, 514_228), (wrapping, 322_000)):
        tracemalloc.start()
        try:
            word = ws.prefix(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == n
        assert peak < 1.5 * n, (ws.digits, peak / n)


def test_prefix_blocks_spell_the_prefix_from_a_few_shared_strings():
    # the windows of the test above: the blocks join to the prefix, none
    # is longer than PREFIX_BLOCK, and 39-55 blocks are 3-5 strings
    golden = WordSystem.characteristic(golden_table(28))
    wrapping = word_system(table_for((5, 3, 2), horizon=10), (1, 0, 2, 0, 1))
    for ws, n in ((golden, 514_228), (wrapping, 322_000)):
        blocks = ws.prefix_blocks(n)
        assert isinstance(blocks, tuple) and "".join(blocks) == ws.prefix(n)
        assert all(0 < len(block) <= PREFIX_BLOCK for block in blocks)
        assert len({id(block) for block in blocks}) <= 5 < len(blocks) // 5
    assert golden.prefix_blocks(0) == ()


def reference_run_length(word: str) -> str:
    return " ".join(run if len(run) == 1 else f"{run[0]}^{len(run)}"
                    for run in re.findall("0+|1+", word))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.text("01", max_size=12), max_size=8))
def test_run_length_blocks_carry_runs_across_blocks(blocks):
    # any split of a word, empty blocks and repeated blocks included, and
    # runs longer than a block, gives the form of the whole word
    for split in (blocks, blocks * 3):
        word = "".join(split)
        assert "".join(run_length_blocks(split)) == reference_run_length(word)
        assert run_length(word) == reference_run_length(word)


def test_run_length_exponents_are_never_read_as_runs():
    # "0^100" holds "00" and "1^11" holds "11", but after a "^", never a space
    word = "0" * 100 + "1" * 11 + "0" * 1000 + "1" + "0" * 100
    assert run_length(word) == "0^100 1^11 0^1000 1 0^100"
    split = [word[i:i + 7] for i in range(0, len(word), 7)]
    assert "".join(run_length_blocks(split)) == run_length(word)


def test_letters_beyond_horizon_raise(golden):
    # a letter and a prefix read b_1..b_k through the same offset, so a
    # digit prefix too short is refused alike, at its first missing digit
    ws = word_system(golden, (0, 1), terminating=False)
    assert ws.letter(golden.q(2) - 1) == int(ws.prefix(golden.q(2) - 1)[-1])
    for n in (golden.q(2), golden.q(2) + 1, golden.q(9)):
        with pytest.raises(HorizonError) as by_letter:
            ws.letter(n)
        with pytest.raises(HorizonError) as by_prefix:
            ws.prefix_blocks(n)
        assert str(by_letter.value) == str(by_prefix.value) == \
            "digit b_3 beyond stored prefix of length 2"


def test_run_length_round_trip():
    assert run_length("10000") == "1 0^4"
    assert run_length("0000100001000010") == "0^4 1 0^4 1 0^4 1 0"
    assert run_length("1") == "1"
    assert run_length("110") == "1^2 0"
