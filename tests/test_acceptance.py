"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction

import pytest

from sturmian import (
    SlopeSpec,
    build_table,
    boehmer_term,
    cf_of_rational,
    certified_cf_prefix,
    check_family_recurrences,
    classify_families,
    continued_fraction,
    convergents,
    decode_integer,
    degenerate_expansions,
    enclose_value,
    encode_integer,
    encode_real,
    exponent_bracket,
    extremal_intercept,
    irrationality_estimate,
    legendre_check,
    nu_row,
)
from sturmian.cfrac import NumberSpec, formal_family_fraction
from sturmian.oracle import verify_agreement
from sturmian.ostrowski import digit_prefix_value
from sturmian.words import WordSystem, run_length

from conftest import cf_convergents, reference_floor_theta_multiple, shallower

SEED = 109


def _report(num, desc, ok):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")


def make_table(quotients, horizon):
    return build_table(SlopeSpec(tuple(quotients), tuple(quotients), horizon))


def valid_digits(rng, table, n):
    digs, prev = [], 1
    for k in range(1, n + 1):
        hi = table.a(k) - 1 if (k == 1 or prev >= 1) else table.a(k)
        d = rng.randint(0, hi)
        digs.append(d)
        prev = d
    return tuple(digs)


def word_of(table, digits, terminating=True):
    return WordSystem.from_digits(table, digits, terminating=terminating)


def small_slope(rng, horizon, amax=3, q_cap=None, level=None):
    """Random slope, rejecting those whose q at `level` exceeds q_cap."""
    while True:
        t = make_table([rng.randint(1, amax) for _ in range(horizon)], horizon)
        if q_cap is None or t.q(level) <= q_cap:
            return t


def corpus_for_pipeline(rng, count):
    """(slope, digits, base, levels) covering the digit corner cases."""
    out = []
    # crafted corners: maxed digit (negative c), gap-1 digit, zero head,
    # all on a fixed mixed slope
    t = make_table((2, 3, 2, 3), 17)
    out.append((t, (1, 0, 0, t.a(4), 0, 0, 0, 0, 0, 0), 2, 10))   # a = b branch
    out.append((t, (0, 0, 0, t.a(4), 0, 0, 0, 0, 0, 0), 3, 10))   # zero head + maxed
    out.append((t, (1, 2, 1, 2, 1, 2, 1, 2, 1, 2), 2, 10))        # gap 1 everywhere
    out.append((t, (0, 0, 0, 0, 1, 0, 2, 0, 1, 0), 10, 10))       # long zero head
    out.append((t, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 5, 10))        # zeros after head
    g = make_table((1,), 24)
    out.append((g, (0,) * 10, 2, 16))                              # characteristic
    out.append((g, (0, 1, 0, 1, 0, 0, 1, 0, 0, 1), 2, 14))
    s2 = make_table((2,), 18)
    out.append((s2, (1, 0, 2, 0, 1, 0, 2, 0, 1, 0), 3, 12))
    deg_g = degenerate_expansions(1, 0, g)
    out.append((g, deg_g.stream.digits[:16], 2, 16))
    out.append((g, deg_g.stream_alt.digits[:16], 3, 16))
    deg_p = degenerate_expansions(2, 1, s2)
    out.append((s2, deg_p.stream.digits[:12], 2, 12))
    out.append((s2, deg_p.stream_alt.digits[:12], 10, 12))
    bases = [2, 3, 10]
    while len(out) < count:
        t = small_slope(rng, 17, amax=3, q_cap=6000, level=11)
        digs = valid_digits(rng, t, 10)
        out.append((t, digs, bases[len(out) % 3], 12))
    return out


def test_criterion_1_recursion_equals_floor():
    """Letters from the concatenation recursion equal certified floors."""
    ok = False
    t0 = time.monotonic()
    try:
        rng = random.Random(SEED)
        instances = 0
        while instances < 100:
            table = make_table([rng.randint(1, 9) for _ in range(8)], 12)
            digs = valid_digits(rng, table, 8)
            ws = word_of(table, digs)
            limit = min(table.q(8), 5000) - 1
            word = ws.prefix(limit)
            u, _ = digit_prefix_value(digs, table)
            prev = reference_floor_theta_multiple(table, 1 + u)
            for n in range(1, limit + 1):
                cur = reference_floor_theta_multiple(table, n + 1 + u)
                assert cur - prev == int(word[n - 1]), (table.spec.preperiod,
                                                        digs, n)
                prev = cur
            instances += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, f"recursion = floor formula on 100 instances "
                   f"({time.monotonic() - t0:.1f}s)", ok)


def test_criterion_2_worked_example_words():
    """The (5,3,2), rho = 0 words match the displayed forms verbatim."""
    ok = False
    try:
        t = make_table((5, 3, 2), 12)
        deg = degenerate_expansions(1, 0, t)
        v = WordSystem.from_degenerate(t, deg, upper=True)
        v_alt = WordSystem.from_degenerate(t, deg, upper=False)
        assert v.aligned(1) == "10000"
        assert v.aligned(2) == "1000010000100000"
        assert run_length(v.aligned(3)) == \
            "1 0^4 1 0^4 1 0^4 1 0^5 1 0^4 1 0^4 1 0^5"
        assert v_alt.aligned(1) == "00001"
        assert v_alt.aligned(2) == "0000010000100001"
        assert run_length(v_alt.aligned(3)) == \
            "0^5 1 0^4 1 0^4 1 0^5 1 0^4 1 0^4 1 0^4 1"
        m = WordSystem.characteristic(t)
        assert m.standard(1) == "00001"
        assert run_length(m.standard(2)) == "0^4 1 0^4 1 0^4 1 0"
        assert run_length(m.standard(3)) == \
            "0^4 1 0^4 1 0^4 1 0^5 1 0^4 1 0^4 1 0^5 1"
        for n in range(1, 4):
            a, b = v.aligned(n), v_alt.aligned(n)
            assert a == b[::-1]
            core = m.standard(n)[:-2]
            assert a[1:-1] == b[1:-1] == core == core[::-1]
        ok = True
    finally:
        _report(2, "worked-example words, mirror and palindrome", ok)


def test_criterion_3_boehmer_reproduction():
    """Characteristic expansions equal the closed form and the oracle."""
    ok = False
    try:
        for quotients, horizon, levels in (((1,), 22, 16), ((2,), 18, 15)):
            for base in (2, 3, 10):
                t = make_table(quotients, horizon)
                spec = NumberSpec(base, WordSystem.characteristic(t))
                got = [t.value for t in continued_fraction(shallower(spec, levels))]
                assert len(got) >= 12
                want = [boehmer_term(t, base, k) for k in range(1, 13)]
                assert got[:12] == want, (quotients, base)
                rep = verify_agreement(shallower(spec, 13), min_terms=10)
                assert rep.matches and rep.overlap >= 10, (quotients, base)
        ok = True
    finally:
        _report(3, "closed-form terms = pipeline = oracle, b in {2,3,10}", ok)


def test_criterion_4_pipeline_oracle_corpus():
    """Pipeline vs oracle on 50+ triples with all digit corner cases."""
    ok = False
    t0 = time.monotonic()
    checked = 0
    try:
        rng = random.Random(SEED + 1)
        for table, digs, base, levels in corpus_for_pipeline(rng, 50):
            spec = NumberSpec(base, word_of(table, digs))
            while (levels + 2 <= spec.system.levels
                   and table.q(levels + 1) <= 150_000
                   and len(continued_fraction(shallower(spec, levels))) < 10):
                levels += 2
            rep = verify_agreement(shallower(spec, levels), min_terms=10)
            assert rep.matches, (table.spec.preperiod, digs, base, rep)
            assert rep.overlap >= 10, (table.spec.preperiod, digs, base,
                                       rep.overlap)
            checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 300, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _report(4, f"pipeline = oracle on {checked} corpus triples "
                   f"({time.monotonic() - t0:.1f}s)", ok)


def test_criterion_5_recurrence_and_matrix_identities():
    """Componentwise recurrences and the 2x2 identities, k <= 10."""
    ok = False
    try:
        from sturmian.cfrac import _rewrite
        from conftest import evaluated, raw_terms, stream_matrix

        def mat(x):
            return ((x, 1), (1, 0))

        def mul(a, b):
            return (
                (a[0][0] * b[0][0] + a[0][1] * b[1][0],
                 a[0][0] * b[0][1] + a[0][1] * b[1][1]),
                (a[1][0] * b[0][0] + a[1][1] * b[1][0],
                 a[1][0] * b[0][1] + a[1][1] * b[1][1]),
            )

        for x in (0, 1, 2, 5, 11):
            assert mul(mul(mat(x), mat(0)), mat(-x - 1)) == ((-1, 1), (1, 0))
            assert mul(mul(mul(mul(mat(x), mat(1)), mat(-1)), mat(x)),
                       mat(1)) == ((0, 1), (1, 1))

        rng = random.Random(SEED + 2)
        cases = []
        t = make_table((2, 3, 2, 3), 16)
        cases.append((t, (1, 0, 0, t.a(4), 0, 0, 0, 0, 0, 0, 0, 0), 2))
        for _ in range(6):
            tt = small_slope(rng, 16, amax=3, q_cap=4000, level=12)
            cases.append((tt, valid_digits(rng, tt, 12),
                          rng.choice([2, 3, 10])))
        for table, digs, base in cases:
            spec = NumberSpec(base, word_of(table, digs))
            for k in range(0, 11):
                assert all(check_family_recurrences(spec, k).values())
            final = evaluated(spec, _rewrite(shallower(spec, 12)))
            assert (stream_matrix(raw_terms(spec, 12), base)
                    == stream_matrix(final, base))
            pairs = convergents(continued_fraction(shallower(spec, 12)), base)
            for i in range(len(pairs) - 1):
                det = pairs[i + 1].p * pairs[i].q - pairs[i].p * pairs[i + 1].q
                assert abs(det) == (base - 1) ** 2
        ok = True
    finally:
        _report(5, "family recurrences + matrix identities, k <= 10", ok)


def test_criterion_6_dispatch_against_oracle():
    """Accepted families are convergents (Legendre yes, exponent within
    2 of prediction); rejected families are absent from the oracle list."""
    ok = False
    t0 = time.monotonic()
    window_count = 0
    try:
        rng = random.Random(SEED + 3)
        cases = [
            (make_table((3, 2, 3, 2), 16), (1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0), 2),
            (make_table((2, 3, 2, 3), 16), (1, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0), 2),
            (make_table((3, 1, 2, 2), 16), (2, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0), 3),
        ]
        for _ in range(5):
            t = small_slope(rng, 16, amax=3, q_cap=1500, level=8)
            digs = list(valid_digits(rng, t, 12))
            digs[0] = max(digs[0], min(1, t.a(1) - 1))
            if digs[0] == 0:
                digs[1] = max(digs[1], 1)
            cases.append((t, tuple(digs), rng.choice([2, 3])))
        for table, digs, base in cases:
            spec = NumberSpec(base, word_of(table, digs))
            s = spec.system
            n_digits = 8 * table.q(8)
            enc = enclose_value(spec, n_digits)
            oracle_terms = certified_cf_prefix(enc)
            oracle_convs = cf_convergents(oracle_terms)
            deepest = oracle_convs[-1].denominator
            oracle_set = set(oracle_convs)
            for k in range(3, 7):
                if s.offset(k - 1) < 1:
                    continue
                for rec in classify_families(s, k):
                    if rec.height < table.q(4):
                        continue  # below the height floor
                    frac = formal_family_fraction(spec, rec.family, rec.k)
                    red = frac.reduced()
                    if red.denominator > deepest:
                        continue
                    window_count += 1
                    if rec.accepted:
                        verdict = legendre_check(red.numerator,
                                                 red.denominator, enc)
                        assert verdict == "yes", (table.spec.preperiod, digs,
                                                  base, rec)
                        lo, hi = exponent_bracket(red.numerator,
                                                  red.denominator, enc)
                        assert rec.error_exponent - 2 <= lo, (rec, lo, hi)
                        assert hi <= rec.error_exponent + 2, (rec, lo, hi)
                    else:
                        assert red not in oracle_set, (table.spec.preperiod,
                                                       digs, base, rec)
        assert window_count >= 40
        ok = True
    finally:
        _report(6, f"dispatch vs oracle on {window_count} window records "
                   f"({time.monotonic() - t0:.1f}s)", ok)


def test_criterion_7_word_combinatorics():
    """Common prefixes, prefix criterion, prefix products, repetitions."""
    ok = False
    try:
        rng = random.Random(SEED + 4)
        for _ in range(12):
            t = small_slope(rng, 14, amax=3, q_cap=15000, level=9)
            digs = valid_digits(rng, t, 12)
            ws = word_of(t, digs, terminating=False)
            for k in range(0, 8):
                w, n = ws.common_prefix(k)
                assert n == t.q(k + 1) + t.q(k) - ws.offset(k + 1) - 2
                if k > 0:
                    prev, _ = ws.common_prefix(k - 1)
                    gap = t.a(k + 1) - ws.digit(k + 1)
                    assert w == ws.aligned(k) * gap + prev
                ws.is_aligned_prefix(k)  # direct vs criterion cross-check
            for k in range(1, 8):
                ws.repetition(k)  # letterwise-verified internally
            char = WordSystem.characteristic(t)
            for target in rng.sample(range(1, t.q(6)), 8):
                digits = encode_integer(target, t).digits
                digits = digits + (0,) * (6 - len(digits))
                m_side = "".join(char.standard(j) * digits[j]
                                 for j in range(5, -1, -1))
                v_sys = word_of(t, digits, terminating=False)
                v_side = "".join(v_sys.aligned(j) * digits[j]
                                 for j in range(0, 6))
                assert m_side == v_side == char.standard(6)[:target]
        ok = True
    finally:
        _report(7, "common-prefix forms, prefix products, repetitions, k <= 8", ok)


def test_criterion_8_ostrowski_round_trips():
    """Exhaustive integer uniqueness to 10^4; 100 real round trips."""
    ok = False
    try:
        tables = [make_table((1,), 24), make_table((5, 3, 2), 14),
                  make_table((2, 1, 3, 1, 4), 14)]
        bound = 10 ** 4
        for t in tables:
            top = t.level_covering(bound)
            reached = {}

            def enumerate_vectors(j, total, digits):
                if total > bound:
                    return
                if j > top:
                    if total:
                        reached.setdefault(total, []).append(tuple(digits))
                    return
                hi = t.a(j) - 1 if j == 1 else t.a(j)
                for d in range(hi + 1):
                    if d == t.a(j) and j > 1 and digits[-1] != 0:
                        continue
                    digits.append(d)
                    enumerate_vectors(j + 1, total + d * t.q(j - 1), digits)
                    digits.pop()

            enumerate_vectors(1, 0, [])
            for n in range(1, bound + 1):
                vecs = reached.get(n, [])
                assert len(vecs) == 1, (t.spec.preperiod, n, len(vecs))
                enc = encode_integer(n, t).digits
                trimmed = list(vecs[0])
                while trimmed and trimmed[-1] == 0:
                    trimmed.pop()
                assert tuple(trimmed) == enc
                assert decode_integer(enc, t) == n
        rng = random.Random(SEED + 5)
        done = 0
        while done < 100:
            t = small_slope(rng, 14, amax=5)
            digs = valid_digits(rng, t, 10)
            u, p = digit_prefix_value(digs, t)
            got = encode_real((u, -p), t)  # K - 2 = 12 digits
            assert got.terminating
            assert got.digits[:10] == digs
            done += 1
        ok = True
    finally:
        _report(8, "integer uniqueness to 10^4 on 3 slopes; 100 real round trips", ok)


def test_criterion_9_exponent_estimates():
    """Golden estimate near 1+phi; extremal construction reaches its bound."""
    ok = False
    try:
        t20 = make_table((1,), 22)  # 22 levels: the window runs to k = 20
        est = irrationality_estimate(WordSystem.characteristic(t20))
        assert abs(float(est.mu_estimate) - 2.6180339887) < 0.02
        # upper bound (zero digits) never exceeded
        ratios = [Fraction(t20.q(k), t20.q(k - 1)) for k in range(2, 22)]
        assert est.mu_estimate <= 2 + max(ratios)

        t30 = make_table((1,), 30)
        ex = extremal_intercept(t30)
        ws = WordSystem.from_digits(t30, ex.digits, terminating=False)
        for j, k in enumerate(ex.spikes, start=1):
            assert j * ws.suffix_len(k) >= (j - 1) * t30.q(k)  # exact rationals
            if k + 2 <= len(ex.digits.digits):
                assert nu_row(ws, k).nu2 >= 2 + Fraction((j - 1) * t30.q(k),
                                                         j * t30.q(k - 1))
        last = max(k for k in ex.spikes if k + 2 <= len(ex.digits.digits))
        tail_ratios = [Fraction(t30.q(k), t30.q(k - 1)) for k in range(15, 31)]
        target = 2 + Fraction(9, 10) * max(tail_ratios)
        assert nu_row(ws, last).nu2 >= target

        rng = random.Random(SEED + 6)
        for _ in range(10):
            t = small_slope(rng, 14, amax=5)
            ws = word_of(t, valid_digits(rng, t, 12), terminating=False)
            assert irrationality_estimate(ws).mu_estimate >= 2
        ok = True
    finally:
        _report(9, "estimates: golden ~ 1+phi; extremal spikes hit the bound", ok)


def test_criterion_10_factor_complexity():
    """Exactly n+1 factors of each length n <= 50 in valid windows."""
    ok = False
    try:
        rng = random.Random(SEED + 7)
        words = [WordSystem.characteristic(make_table((1,), 24)),
                 WordSystem.characteristic(make_table((5, 3, 2), 14))]
        deg = degenerate_expansions(1, 0, make_table((5, 3, 2), 14))
        words.append(WordSystem.from_degenerate(
            make_table((5, 3, 2), 14), deg, upper=False))
        for _ in range(7):
            t = small_slope(rng, 14, amax=4)
            words.append(word_of(t, valid_digits(rng, t, 12)))
        for ws in words:
            for n in range(1, 51):
                j = ws.table.level_covering(n)
                length = ws.q(j) + ws.q(j - 1) + n
                rep = ws.factor_count(length, n)
                assert rep.window_ok
                assert rep.count == n + 1, (ws.table.spec.preperiod, n)
        ok = True
    finally:
        _report(10, "factor complexity n+1 for n <= 50 on 10 corpus words", ok)
