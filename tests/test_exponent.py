from fractions import Fraction

import pytest

from sturmian import (
    ConfigError,
    HorizonError,
    InternalError,
    SlopeSpec,
    build_table,
    classify_families,
    enclose_value,
    extremal_intercept,
    irrationality_estimate,
    legendre_check,
    liouville_diagnostic,
    nu_row,
    nu_table,
    ordered_strong_sequence,
)
from sturmian.cfrac import NumberSpec, formal_family_fraction
from sturmian.exponent import _ACCEPT, _ELIGIBLE, _REPLACE, ExtremalIntercept, _atoms, _holds
from sturmian.oracle import certified_cf_prefix, exponent_bracket
from sturmian.words import WordSystem

from conftest import (cf_convergents, golden_table, random_digits, random_slope_table,
                      shallower_word, table_for, word_system)

PHI = (1 + 5 ** 0.5) / 2


def test_nu_characteristic(golden):
    ws = WordSystem.characteristic(golden)
    for row in nu_table(shallower_word(ws, 10)):
        k = row.k
        assert row.nu1 == 2
        assert row.nu4 == 1 + Fraction(golden.q(k + 2), golden.q(k + 1))
        assert row.nu2 == 2 + Fraction(golden.q(k), golden.q(k + 1))
    ratios = [float(r.nu4 - 1) for r in nu_table(shallower_word(ws, 12))]
    assert abs(ratios[-1] - PHI) < 1e-3


def test_nu_532_exact(slope532):
    ws = word_system(slope532, (4, 0, 2, 0), terminating=False)
    # t_3 = 36, r_3 = 1, q_3 = 37
    assert ws.offset(3) == 36 and ws.suffix_len(3) == 1
    row = nu_row(ws, 1)
    t1, r2, r1, q2, q1, r3 = (ws.offset(1), ws.suffix_len(2), ws.suffix_len(1),
                              slope532.q(2), slope532.q(1), ws.suffix_len(3))
    assert row.nu1 == 2 + Fraction(t1, r2)
    assert row.nu2 == 2 + Fraction(r1, r2 + t1)
    assert row.nu3 == 1 + Fraction(q2, r2 + q1)
    assert row.nu4 == 1 + Fraction(r3, q2)
    assert all(v > 1 for v in (row.nu1, row.nu2, row.nu3, row.nu4))


def test_nu_table_ends_where_the_word_does(golden):
    # row k reads digits through k + 2: rows 0..L-2 for L known levels
    assert len(nu_table(WordSystem.characteristic(golden))) == golden.horizon - 1
    ws = word_system(golden, (0, 1, 0, 0, 1), terminating=False)
    assert [row.k for row in nu_table(ws)] == [0, 1, 2, 3]
    for levels in (0, 1):
        assert nu_table(shallower_word(ws, levels)) == []


def test_classify_rejects_characteristic_window(golden):
    with pytest.raises(ConfigError):
        classify_families(WordSystem.characteristic(golden), 4)


def strong_test_system(seed_digits, quotients, horizon=16):
    t = table_for(quotients, horizon=horizon)
    digs = tuple(seed_digits) + (0,) * (horizon - len(seed_digits))
    return word_system(t, digs, terminating=True)


def test_classify_char_like_tail():
    # nonzero head, zero tail: family (4) accepted when the gaps are wide
    ws = strong_test_system((1, 0, 0, 0, 0, 0, 0, 0), (3, 3, 3, 3))
    for k in range(2, 6):
        recs = {r.family: r for r in classify_families(ws, k)}
        assert recs["4"].accepted
        assert recs["4"].mu == nu_row(ws, k).nu4


def test_classify_merge_rules_against_fractions():
    # a_{k+2} = b_{k+2} at k = 2 (digit b_4 maxed)
    t = table_for((2, 3, 2, 3), horizon=16)
    digs = (1, 0, 0, t.a(4)) + (0,) * 10
    ws = word_system(t, digs)
    recs = {r.family: r for r in classify_families(ws, 2)}
    assert not recs["2"].accepted  # gap(k+2) = 0
    assert not recs["3"].accepted
    assert not recs["4"].accepted
    # (1)_2 falls under the second acceptance branch only if a_3 = 1; here rejected
    assert not recs["1"].accepted
    # at k = 1 the family (4) survives via the gap(k+3) = 0 branch
    recs1 = {r.family: r for r in classify_families(ws, 3)}
    assert recs1["2"].accepted


def test_ordered_sequence_groups_share_value(rng):
    made = 0
    for _ in range(30):
        t = random_slope_table(rng, 14, amax=3)
        digs = list(random_digits(rng, t, 12))
        if all(d == 0 for d in digs[:2]):
            digs[0] = max(0, t.a(1) - 2)
        spec = NumberSpec(2, word_system(t, tuple(digs)))
        s = spec.system
        if s.offset(3) < 1:
            continue
        k_lo, k_hi = 4, 8
        seq = ordered_strong_sequence(s, k_lo, k_hi)
        made += 1
        heights = []
        for group in seq:
            fracs = {formal_family_fraction(spec, fam, k).reduced()
                     for fam, k in group}
            assert len(fracs) == 1, (t.spec.preperiod, digs, group)
        # every accepted interior record appears in the sequence by value
        # (an element may be dropped in favour of an equal-valued one)
        accepted = set()
        for k in range(k_lo, k_hi + 1):
            if s.offset(k - 1) < 1 or k < 2:
                continue
            for r in classify_families(s, k):
                if r.accepted and k_lo + 2 <= r.k <= k_hi - 2:
                    accepted.add(formal_family_fraction(spec, r.family, r.k).reduced())
        group_values = {
            formal_family_fraction(spec, fam, k).reduced()
            for group in seq
            for fam, k in group[:1]
        }
        assert accepted <= group_values, (t.spec.preperiod, digs)
    assert made >= 10


def test_estimate_golden_characteristic():
    t = golden_table(22)
    ws = WordSystem.characteristic(t)
    est = irrationality_estimate(ws)
    assert (est.window_full, est.window_tail) == ((0, 20), (10, 20))
    assert abs(float(est.mu_estimate) - (1 + PHI)) < 0.02
    # the tail maximum overshoots the limsup 1 + phi = (3 + sqrt 5)/2:
    # 377/144 > (3 + sqrt 5)/2 <=> 322 > 144 sqrt 5 <=> 322^2 > 5 * 144^2
    assert est.mu_estimate == Fraction(377, 144)
    assert 2 * 377 - 3 * 144 == 322 and 322 ** 2 == 103_684 > 5 * 144 ** 2 == 103_680


def test_estimate_stabilizes_on_periodic_data(slope532):
    ws = word_system(slope532, (4, 0, 2, 0, 3, 0, 5, 0, 2, 0), terminating=False)
    e1 = irrationality_estimate(shallower_word(ws, 8))
    e2 = irrationality_estimate(ws)
    assert e2.mu_estimate >= Fraction(2)
    assert e1.mu_estimate >= Fraction(2)


def test_estimates_always_at_least_two(rng):
    for _ in range(15):
        t = random_slope_table(rng, 12, amax=5)
        digs = random_digits(rng, t, 10)
        ws = word_system(t, digs)
        est = irrationality_estimate(shallower_word(ws, 10))
        assert est.mu_estimate >= 2


def test_liouville_verdicts(golden):
    ws = WordSystem.characteristic(golden)
    rep = liouville_diagnostic(shallower_word(ws, 10))
    assert rep.verdict == "not_liouville"
    assert rep.max_partial_quotient == 1
    growing = build_table(SlopeSpec(tuple(range(1, 13)), (), 12))
    ws2 = shallower_word(WordSystem.characteristic(growing), 10)
    rep2 = liouville_diagnostic(ws2)
    assert rep2.verdict == "inconclusive"
    assert rep2.max_partial_quotient == 10  # a_1..a_L, not a_{L+1}..a_K
    assert max(rep2.witness) > 3  # growth visible in the finite window
    with pytest.raises(HorizonError):
        liouville_diagnostic(shallower_word(ws2, 0))


def test_liouville_witness_is_the_growth_of_r_k(rng):
    # the nu4 column: row k - 2 is 1 + r_k/q_{k-1}, for k = 2..L
    for _ in range(20):
        t = random_slope_table(rng, 12, amax=5)
        ws = word_system(t, random_digits(rng, t, rng.randint(2, 12)),
                         terminating=rng.random() < 0.5)
        assert liouville_diagnostic(ws).witness == tuple(
            1 + Fraction(ws.suffix_len(k), t.q(k - 1)) for k in range(2, ws.levels + 1))


def test_extremal_intercept_golden():
    t = golden_table(30)
    ex = extremal_intercept(t)
    assert len(ex.spikes) >= 2
    digs = ex.digits
    ws = word_system(t, digs, terminating=False)
    # the exact lower-bound inequality at every spike, as rationals
    for j, k in enumerate(ex.spikes, start=1):
        if j == 1:
            continue
        assert j * ws.suffix_len(k) >= (j - 1) * t.q(k)
    # nu_k(2) at the spikes reaches the scheduled bound
    for j, k in enumerate(ex.spikes, start=1):
        if k + 2 > len(digs.digits):
            continue
        row = nu_row(ws, k)
        assert row.nu2 == 2 + Fraction(ws.suffix_len(k), t.q(k - 1))
        assert row.nu2 >= 2 + Fraction((j - 1) * t.q(k), j * t.q(k - 1))


def test_extremal_reaches_fraction_of_limsup():
    t = golden_table(30)
    ex = extremal_intercept(t)
    ws = word_system(t, ex.digits, terminating=False)
    last = max(k for k in ex.spikes if k + 2 <= len(ex.digits.digits))
    nu2 = nu_row(ws, last).nu2
    # tail estimate of limsup q_k/q_{k-1}
    ratios = [Fraction(t.q(k), t.q(k - 1)) for k in range(15, 30)]
    limsup_est = max(ratios)
    assert nu2 >= 2 + Fraction(9, 10) * limsup_est


def test_zero_digits_obey_upper_bound():
    # all-zero digits: estimate stays below 2 + limsup q_k/q_{k-1}
    t = golden_table(22)
    est = irrationality_estimate(WordSystem.characteristic(t))
    ratios = [Fraction(t.q(k), t.q(k - 1)) for k in range(2, 22)]
    assert est.mu_estimate <= 2 + max(ratios)


def test_extremal_requires_periodic_slope():
    t = build_table(SlopeSpec(tuple([2] * 12), (), 12))
    with pytest.raises(ConfigError):
        extremal_intercept(t)


def test_extremal_needs_room():
    t = golden_table(5)
    with pytest.raises(HorizonError):
        extremal_intercept(t)


def test_classification_against_oracle_small():
    # one fully-checked instance: accepted families pass the Legendre
    # test, rejected ones are absent from the oracle convergent list,
    # and measured error exponents sit within 2 of the prediction
    t = table_for((3, 2, 3, 2), horizon=14)
    digs = (1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0)
    spec = NumberSpec(2, word_system(t, digs))
    n_digits = 6 * t.q(9)
    enc = enclose_value(spec, n_digits)
    oracle_convs = set(cf_convergents(certified_cf_prefix(enc)))
    for k in range(3, 7):
        for rec in classify_families(spec.system, k):
            frac = formal_family_fraction(spec, rec.family, rec.k)
            red = frac.reduced()
            if rec.accepted:
                assert legendre_check(red.numerator, red.denominator, enc) == "yes", (
                    rec,
                )
                lo, hi = exponent_bracket(red.numerator, red.denominator, enc)
                assert rec.error_exponent - 2 <= lo
                assert hi <= rec.error_exponent + 2
            else:
                assert red not in oracle_convs, rec


def test_nu2_nu4_ordering(rng):
    # with a zero digit at k+1 and a positive gap at k+2:
    # nu_k(2) <= nu_k(4), equality exactly when the gap is 1
    found_eq = found_lt = 0
    for _ in range(40):
        t = random_slope_table(rng, 12, amax=3)
        digs = random_digits(rng, t, 10)
        ws = word_system(t, digs)
        for k in range(1, 7):
            if ws.digit(k + 1) != 0:
                continue
            gap = t.a(k + 2) - ws.digit(k + 2)
            if gap < 1:
                continue
            row = nu_row(ws, k)
            assert row.nu2 <= row.nu4
            if gap == 1:
                assert row.nu2 == row.nu4
                found_eq += 1
            else:
                assert row.nu2 < row.nu4
                found_lt += 1
    assert found_eq and found_lt


def test_estimate_monotone_in_horizon(slope532):
    ws = word_system(slope532, (4, 0, 2, 0, 3, 0, 5, 0, 2, 0), terminating=False)
    values = [irrationality_estimate(shallower_word(ws, levels)).mu_estimate
              for levels in range(6, 11)]
    assert all(b >= a for a, b in zip(values, values[1:]))


TABLE_PATTERNS = [
    *(pattern for rules in _ACCEPT.values() for pattern, _, _ in rules),
    *(pattern for pattern, _, _ in _REPLACE),
    *_ELIGIBLE.values(),
]


@pytest.mark.parametrize("pattern", TABLE_PATTERNS)
def test_every_table_pattern_is_read_in_full(pattern):
    # `_atoms` matches each " & "-separated atom whole, so a pattern that
    # parses is read to its last character, one atom per part
    assert len(_atoms(pattern)) == pattern.count(" & ") + 1


@pytest.mark.parametrize("text", ["gap(k+2)>1", "gap(k+2)>=1 and b_{k+1}=0",
                                  "b_{k+1}>=1 &gap(k+2)>=2", "c_k=0", "b_k+1=0", ""])
def test_a_text_that_is_no_pattern_is_refused(text):
    with pytest.raises(InternalError):
        _atoms(text)


def test_every_rule_fires_and_takes_precedence_in_order(rng):
    # periodic slopes with random valid digits: each acceptance rule, each
    # family's rejection and each replacement rule holds somewhere, and an
    # accepted record's rule holds while no earlier rule of its family does
    fired = set()
    for _ in range(60):
        t = random_slope_table(rng, 12, amax=3)
        ws = word_system(t, random_digits(rng, t, 12))
        for k in range(2, 11):
            try:
                records = classify_families(ws, k)
            except (ConfigError, HorizonError):  # as `exponent` skips a level
                continue
            for r in records:
                patterns = [pattern for pattern, _, _ in _ACCEPT[r.family]]
                earlier = patterns[:patterns.index(r.rule)] if r.accepted else patterns
                assert not any(_holds(ws, k, p) for p in earlier), (r, t.spec.period)
                assert not r.accepted or _holds(ws, k, r.rule)
                fired.add((r.family, r.rule))
            fired.update(("replace", p) for p, _, _ in _REPLACE if _holds(ws, k, p))
    assert fired == {*((fam, p) for fam, rules in _ACCEPT.items() for p, _, _ in rules),
                     *((fam, "rejected") for fam in _ACCEPT),
                     *(("replace", p) for p, _, _ in _REPLACE)}
