import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    ConfigError,
    HorizonError,
    PrecisionError,
    SlopeSpec,
    build_table,
    cf_of_rational,
    certified_cf_prefix,
    continued_fraction,
    enclose_value,
    encode_real,
    exponent_bracket,
    family_fraction,
    legendre_check,
)
from sturmian.cfrac import NumberSpec
from sturmian import errors, oracle
from sturmian.oracle import ValueEnclosure, _floor_range, verify_agreement
from sturmian.ostrowski import InterceptDigits
from sturmian.words import WordSystem

from conftest import (cf_convergents, cf_value, degenerate_p, golden_table, lower, random_digits,
                      random_slope_table, replace_raises_as_built, shallower, table_for,
                      upper, width, word_system)


def golden_char_spec(base=2):
    return NumberSpec(base, WordSystem.characteristic(golden_table()))


def test_enclosure_golden_n8():
    enc = enclose_value(golden_char_spec(), 8)
    want = Fraction(1, 2) + Fraction(1, 8) + Fraction(1, 16) + Fraction(1, 64) \
        + Fraction(1, 256)
    assert lower(enc) == want
    assert upper(enc) - lower(enc) == Fraction(1, 256)


def test_enclosures_nested_and_in_unit_interval():
    spec = golden_char_spec(3)
    prev = None
    for n in (5, 9, 16, 30):
        enc = enclose_value(spec, n)
        assert 0 < lower(enc) < upper(enc) < 1
        if prev is not None:
            assert lower(prev) <= lower(enc) and upper(enc) <= upper(prev)
        prev = enc


def test_an_enclosure_past_the_power_cap_is_refused_before_its_prefix(monkeypatch):
    # under a size budget of 20,000 * ceil(log2 b) bits, 20,000 digits are
    # enclosed as without it, and 20,001 are refused before a letter is
    # read (20,000 is past PREFIX_BLOCK, so the prefix of 20,000 letters
    # builds no level word longer than the budget either)
    for base in (2, 3, 10):
        spec = golden_char_spec(base)
        enc = enclose_value(spec, 20_000)
        with monkeypatch.context() as m:
            m.setattr(errors, "SIZE_BUDGET", 20_000 * (base - 1).bit_length())
            assert enclose_value(spec, 20_000) == enc
            m.setattr(spec.system, "prefix", None)
            with pytest.raises(HorizonError, match="^the oracle's enclosure needs"):
                enclose_value(spec, 20_001)


def test_cf_of_rational_examples():
    assert cf_of_rational(Fraction(7, 37)) == [0, 5, 3, 2]
    assert cf_of_rational(Fraction(0)) == [0]
    assert cf_of_rational(Fraction(1, 2)) == [0, 2]
    with pytest.raises(ConfigError):
        cf_of_rational(Fraction(3, 2))


def test_cf_canonical_last_term():
    # 3/5 = [0;1,1,2] canonically, never [0;1,1,1,1]
    assert cf_of_rational(Fraction(3, 5)) == [0, 1, 1, 2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6))
def test_euclid_round_trip(p, q):
    x = Fraction(p % q, q)
    terms = cf_of_rational(x)
    assert cf_value(terms) == x
    if len(terms) > 1:
        assert terms[-1] >= 2
        assert all(a >= 1 for a in terms[1:])


def test_certified_prefix_golden():
    spec = golden_char_spec()
    prefix = certified_cf_prefix(enclose_value(spec, 60))
    assert prefix[:6] == [1, 2, 2, 4, 8, 32]


def test_certified_prefix_exact_rational():
    enc = ValueEnclosure(7 * 10 ** 9, 7 * 10 ** 9 + 37, 37 * 10 ** 9, 30, 10)
    prefix = certified_cf_prefix(enc)
    assert prefix[:3] == [5, 3, 2][: len(prefix)]


def test_certified_prefix_too_wide():
    enc = ValueEnclosure(1, 2, 3, 1, 2)
    with pytest.raises(PrecisionError):
        certified_cf_prefix(enc)


def test_certified_prefix_is_sound(rng):
    # every certified term must agree with a much deeper enclosure
    for _ in range(8):
        t = random_slope_table(rng, 16, amax=3)
        digs = random_digits(rng, t, 8)
        spec = NumberSpec(rng.choice([2, 3]), word_system(t, digs))
        shallow = certified_cf_prefix(enclose_value(spec, 3 * t.q(6)))
        deep = certified_cf_prefix(enclose_value(spec, 12 * t.q(6)))
        assert deep[: len(shallow)] == shallow


def _check_floor_range(x, y, *addends):
    lo, hi = _floor_range(y, *addends)
    q = x // y
    assert lo <= q <= hi, (x, y, addends)
    if y >= 2 ** 63:  # from 64 top bits: about q / 2^63 wide, plus slack
        assert hi - lo <= (q >> 61) + 3
    return lo, hi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 400), st.integers(1, 2 ** 200), st.integers(-2 ** 150, 2 ** 150))
def test_floor_range_brackets_the_quotient(x, y, split):
    _check_floor_range(x, y, x)
    # two addends, one of them negative, as hi's dividend den + t_prev*w
    _check_floor_range(x, y, x - split, split)


def test_floor_range_edge_cases():
    for y in (1, 2, 3, 2 ** 63 - 1, 2 ** 64 - 1):  # below 2^64: no shift
        for x in (0, 1, y - 1, y, 5 * y, 10 ** 30 + 7):
            _check_floor_range(x, y, x)
    for k in (0, 1, 63, 64, 65, 200, 3000):  # y = 2^k
        y = 2 ** k
        for x in (0, y - 1, y, 3 * y + 1, 2 ** (2 * k + 7) - 1):
            _check_floor_range(x, y, x)
    for y in (3 ** 100, 2 ** 64 + 1, 2 ** 500 - 1):  # x/y an exact integer
        for q in (1, 2, 2 ** 64, 7 ** 200):
            lo, hi = _check_floor_range(q * y, y, q * y)
            _check_floor_range(q * y, y, q * y + 5, -5)


def _euclid_divisions(monkeypatch, spec):
    """(divisions, certified terms) of the Euclid at the N verify settles on."""
    enc = enclose_value(spec, verify_agreement(spec).digits_used)
    calls = []
    real = oracle.int_divmod

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(oracle, "int_divmod", counted)
        prefix = certified_cf_prefix(enc)
    return len(calls), len(prefix)


def test_euclid_skips_the_division_whose_quotient_is_discarded(monkeypatch):
    # one division per agreeing step, i.e. per certified term; without the
    # early exit there is one more
    for pre, per, horizon, base in (((1,), (1,), 28, 2), ((2, 1, 3), (1, 4), 16, 5)):
        table = build_table(SlopeSpec(pre, per, horizon))
        spec = NumberSpec(base, WordSystem.characteristic(table))
        divisions, certified = _euclid_divisions(monkeypatch, spec)
        assert divisions == certified, (pre, divisions, certified)
    # (5,3,2) K=10 b=3: lo's and hi's quotients differ by exactly 1 after
    # the last certified term, so the ranges overlap and the division runs
    table = build_table(SlopeSpec((5, 3, 2), (5, 3, 2), 10))
    spec = NumberSpec(3, WordSystem.characteristic(table))
    divisions, certified = _euclid_divisions(monkeypatch, spec)
    assert divisions == certified + 1


def test_early_exit_fires_exactly_when_the_quotient_ranges_are_disjoint(monkeypatch):
    # two plain Euclids on (den, lo) and (den, hi) find the step where
    # the quotients part; the oracle divides there unless the top-bits
    # ranges of the two true quotients are disjoint (the oracle bounds
    # hi's dividend from two addends, a range at most one unit wider,
    # and no seeded case sits on that edge)
    rng = random.Random(20261019)
    fired = 0
    calls = []
    real = oracle.int_divmod

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(oracle, "int_divmod", counted)
    for _ in range(1500):
        bits = rng.choice((100, 300, 900))
        den = rng.randint(2, 1 << bits)
        lo = rng.randrange(den)
        hi = min(den, lo + rng.randint(1, 1 << rng.randint(0, bits)))
        if hi <= lo:
            continue
        (d1, n1), (d2, n2), steps = (den, lo), (den, hi), 0
        while n1 and n2 and d1 // n1 == d2 // n2:
            (d1, n1), (d2, n2), steps = (n1, d1 % n1), (n2, d2 % n2), steps + 1
        parted = n1 and n2
        if parted:
            (a1, b1), (a2, b2) = _floor_range(n1, d1), _floor_range(n2, d2)
            disjoint = b1 < a2 or b2 < a1
            fired += disjoint
        calls.clear()
        _prefix_or_error(certified_cf_prefix, ValueEnclosure(lo, hi, den, 1, 2))
        assert len(calls) == steps + (parted and not disjoint), (lo, hi, den)
    assert fired >= 100


def test_enclosure_rejects_bad_endpoints():
    # an upper endpoint above 1 used to surface as a PrecisionError
    for lo, hi, den in ((1, 5, 4), (-1, 1, 4), (2, 2, 4), (3, 2, 4), (0, 1, 0)):
        with pytest.raises(ConfigError):
            ValueEnclosure(lo, hi, den, 1, 2)
    enc = ValueEnclosure(0, 4, 4, 1, 2)
    assert (lower(enc), upper(enc), width(enc)) == (0, 1, 1)
    for lo, hi, den in ((1, 5, 4), (-1, 1, 4), (2, 2, 4), (3, 2, 4), (0, 1, 0)):
        replace_raises_as_built(enc, lo=lo, hi=hi, den=den)
    assert enc._replace(lo=3) == ValueEnclosure(3, 4, 4, 1, 2)


def reference_cf_prefix(lower: Fraction, upper: Fraction) -> list[int]:
    """The two-endpoint lockstep: a reduced-fraction Euclid on each endpoint,
    one divmod each per step, stopping at the first disagreement and
    keeping every agreeing quotient."""
    if not 0 <= lower < 1:
        raise ConfigError("expected an enclosure inside [0, 1)")
    common = [0]
    n1, d1 = lower.numerator, lower.denominator
    n2, d2 = upper.numerator, upper.denominator
    while n1 and n2:
        a1, r1 = divmod(d1, n1)
        a2, r2 = divmod(d2, n2)
        if a1 != a2:
            break
        common.append(a1)
        d1, n1 = n1, r1
        d2, n2 = n2, r2
    if len(common) == 1:
        raise PrecisionError(
            "enclosure too wide to certify any partial quotient; raise N"
        )
    return common[1:]


def _prefix_or_error(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return PrecisionError


def test_certified_prefix_matches_two_endpoint_reference():
    rng = random.Random(20261018)
    kinds = ("random", "unit", "lo=0", "hi=den", "wide", "scaled")
    outcomes = {kind: set() for kind in kinds}
    for i in range(12000):
        kind = kinds[i % len(kinds)]
        den = rng.randint(2, 1 << rng.choice((4, 12, 40, 120)))
        lo = 0 if kind == "lo=0" else rng.randrange(den)
        if kind == "unit":
            hi = lo + 1
        elif kind == "hi=den":
            hi = den
        elif kind == "wide":
            lo = rng.randrange(den // 2)
            hi = rng.randint(lo + den // 2, den)
        else:
            hi = rng.randint(lo + 1, min(den, lo + rng.choice((1, 3, den))))
        g = rng.randint(2, 10 ** 6) if kind == "scaled" else 1
        got = _prefix_or_error(
            certified_cf_prefix, ValueEnclosure(g * lo, g * hi, g * den, 1, 2))
        want = _prefix_or_error(
            reference_cf_prefix, Fraction(lo, den), Fraction(hi, den))
        assert got == want, (lo, hi, den, g)
        outcomes[kind].add(got is PrecisionError)
        if kind == "hi=den":  # both first quotients are 1 when lo/den > 1/2
            assert got == ([1] if 2 * lo > den else PrecisionError), (lo, den)
    # an endpoint at 0, or a width above 1/2 (lo/den < 1/2 < hi/den), leaves
    # nothing to certify; an endpoint at 1 certifies [1] or nothing
    assert all(outcomes.pop(kind) == {True} for kind in ("lo=0", "wide"))
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


def _interior_rationals(rng, lo, hi, den):
    """Rationals strictly between lo/den and hi/den: a few of each small
    denominator drawn, nearest the endpoints, and a few of large ones."""
    out = []
    for w in rng.sample(range(1, 200), 12):
        first = lo * w // den + 1  # the least u with u/w > lo/den
        last = -(-hi * w // den) - 1  # the largest u with u/w < hi/den
        out += [Fraction(u, w) for u in {first, first + 1, last - 1, last}
                if first <= u <= last]
    for _ in range(4):
        k = rng.randint(2, 1 << 40)
        out.append(Fraction(lo * k + rng.randint(1, (hi - lo) * k - 1), den * k))
    return out


def test_every_interior_rational_begins_with_the_certified_prefix():
    # soundness: a value strictly inside the enclosure, here a rational,
    # has an expansion that begins with every certified term.  Two thirds
    # of the enclosures have an endpoint at a rational u/v with v <= 60,
    # whose expansion ends where the certified prefix may end
    rng = random.Random(20261021)
    points = certified = 0
    for i in range(3000):
        v = rng.randint(1, 60)
        den = v * rng.randint(1, 1 << rng.choice((2, 10, 40)))
        width = rng.randint(1, max(1, den >> rng.choice((1, 3, 8, 20, 40))))
        short = rng.randint(0, v) * (den // v)
        lo = (short, short - width, rng.randrange(den))[i % 3]
        lo, hi = max(lo, 0), min(lo + width, den)
        if not lo < hi:
            continue
        prefix = _prefix_or_error(certified_cf_prefix, ValueEnclosure(lo, hi, den, 1, 2))
        if prefix is PrecisionError:
            continue
        certified += 1
        for x in _interior_rationals(rng, lo, hi, den):
            assert Fraction(lo, den) < x < Fraction(hi, den)
            assert cf_of_rational(x)[1:len(prefix) + 1] == prefix, (lo, hi, den, x)
            points += 1
    assert certified > 1500 and points > 30_000, (certified, points)


def test_legendre_examples():
    spec = golden_char_spec()
    enc = enclose_value(spec, 140)
    red = family_fraction(spec, "4", 3).reduced()
    assert legendre_check(red.numerator, red.denominator, enc) == "yes"
    assert legendre_check(1, 3, enclose_value(spec, 60)) == "no"
    wide = enclose_value(spec, 4)
    assert legendre_check(1234567, 7654321, wide) == "inconclusive"


def test_exponent_bracket_tight_power():
    spec = golden_char_spec()
    enc = enclose_value(spec, 50)
    # a rational at distance about 2^-20 from the value
    x = lower(enc) + Fraction(1, 2 ** 20)
    lo, hi = exponent_bracket(x.numerator, x.denominator, enc)
    assert lo <= 20 <= hi
    assert hi - lo <= 2


def test_exponent_bracket_requires_separation():
    spec = golden_char_spec()
    enc = enclose_value(spec, 12)
    mid = (lower(enc) + upper(enc)) / 2
    with pytest.raises(PrecisionError):
        exponent_bracket(mid.numerator, mid.denominator, enc)


def test_a_non_positive_denominator_is_refused():
    # by one check both functions share, not by a ZeroDivisionError or a
    # refusal of the logarithm's argument
    enc = enclose_value(golden_char_spec(), 12)
    for q in (0, -3):
        for fn in (legendre_check, exponent_bracket):
            with pytest.raises(ConfigError, match="^denominator must be positive$"):
                fn(1, q, enc)


def test_verify_agreement_golden_and_random(rng):
    rep = verify_agreement(shallower(golden_char_spec(), 18), min_terms=10)
    assert rep.matches and rep.overlap >= 10
    for _ in range(4):
        t = random_slope_table(rng, 16, amax=3)
        digs = random_digits(rng, t, 8)
        spec = NumberSpec(rng.choice([2, 3, 10]), word_system(t, digs))
        rep = verify_agreement(shallower(spec, 8), min_terms=6)
        assert rep.matches, (t.spec.preperiod, digs, rep)


def test_verify_agreement_non_terminating_intercepts():
    # a digit prefix serves letters below q_levels only, so N stays there
    table = golden_table(16)
    open_digits = InterceptDigits((0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0), False)
    for digits in (encode_real(Fraction(1, 5), table), open_digits):
        system = WordSystem.from_digits(table, digits)
        rep = verify_agreement(NumberSpec(2, system))
        assert rep.matches and rep.overlap >= 10
        assert rep.digits_used < table.q(system.levels)


def reference_verify_agreement(spec, min_terms=10):
    """`verify_agreement` before the two-pass skip: every schedule starts
    at n_0, so a first pass whose successor is n_max still runs.  A word
    with no pipeline term or no digit is refused before any enclosure."""
    pipeline = tuple(t.value for t in continued_fraction(spec))
    levels = spec.system.levels
    n_max = spec.system.q(levels) - 1
    if not pipeline or n_max < 1:
        raise HorizonError("nothing to verify")
    n = min(4 * spec.system.q(levels - 1), n_max)
    wanted = min(min_terms, len(pipeline))
    prev_len = -1
    prefix = []
    for passes in range(1, 13):
        try:
            prefix = oracle.certified_cf_prefix(oracle.enclose_value(spec, n))
        except PrecisionError:
            prefix = []
        if passes == 12 or n == n_max or min(len(prefix), prev_len) >= wanted:
            break
        prev_len = len(prefix)
        n = min(2 * n, n_max)
    overlap = min(len(prefix), len(pipeline))
    mismatch = next((i for i in range(overlap) if prefix[i] != pipeline[i]), None)
    return oracle.VerificationReport(
        n, tuple(prefix), tuple(pipeline), overlap,
        mismatch is None and overlap >= wanted, mismatch)


def _certifies_nothing(enc):
    raise PrecisionError("certifies nothing")


def _one_term_fewer(enc):
    """`certified_cf_prefix` less its last term: a weaker certifier, whose
    schedules run longer."""
    prefix = certified_cf_prefix(enc)[:-1]
    if not prefix:
        raise PrecisionError("certifies nothing")
    return prefix


def _enclosures(monkeypatch, verify, spec, **kw):
    """(report, digit counts enclosed) of one verify run; the report is
    None when it refuses with `HorizonError`."""
    calls = []
    real = oracle.enclose_value

    def counted(s, n):
        calls.append(n)
        return real(s, n)

    with monkeypatch.context() as m:
        m.setattr(oracle, "enclose_value", counted)
        try:
            rep = verify(spec, **kw)
        except HorizonError:
            rep = None
    return rep, calls


def test_verify_agreement_matches_the_reference_schedule(monkeypatch):
    # the same report on 1-, 2- and >=3-pass schedules; only a two-pass
    # schedule ending at n_max loses its first enclosure.  The oracle
    # certifies these words' terms by the second pass, so the first two
    # cases take 3 and 4 passes under a certifier one term weaker, which
    # both sides then use; n_max = q_2 - 1 = 8 q_1 = 2 n_0 exactly, where
    # the K=2 word gives no pipeline term and is refused
    rng = random.Random(20261020)
    cases = [(table_for((2,), (9,), 5), None, 3, 3),
             (table_for((3,), (20,), 4), None, 3, 3),
             (table_for((3,), (8,), 2), None, 2, 3)]
    quotients = (1, 2, 3, 5, 9, 14)
    for _ in range(60):
        pre = tuple(rng.choice(quotients) for _ in range(rng.randint(0, 2)))
        period = tuple(rng.choice(quotients) for _ in range(rng.randint(1, 2)))
        deep = build_table(SlopeSpec(pre, period, 25))
        horizon = max(k for k in range(2, 26) if deep.q(k) <= 20000)
        table = table_for(pre, period, horizon)
        digits = rng.choice((None, random_digits(rng, table, horizon)))
        cases.append((table, digits, rng.randint(2, 5), rng.randint(1, 12)))
    seen, refused = set(), 0
    for i, (table, digits, base, min_terms) in enumerate(cases):
        system = (WordSystem.characteristic(table) if digits is None else
                  word_system(table, digits, terminating=rng.random() < 0.5))
        spec = NumberSpec(base, system)
        with monkeypatch.context() as m:
            if i < 2:
                m.setattr(oracle, "certified_cf_prefix", _one_term_fewer)
            rep, calls = _enclosures(monkeypatch, verify_agreement, spec,
                                     min_terms=min_terms)
            want, want_calls = _enclosures(monkeypatch, reference_verify_agreement,
                                           spec, min_terms=min_terms)
        if i < 2:
            assert len(calls) == 3 + i, calls
        assert rep == want, (table.spec, digits, base, min_terms)
        n_max = system.q(system.levels) - 1
        dead = len(want_calls) == 2 and want_calls[1] == n_max
        assert calls == want_calls[dead:], (table.spec, digits, want_calls)
        if rep is None:  # refused: the word gives no pipeline term
            assert calls == want_calls == [] and not continued_fraction(spec)
            refused += 1
            continue
        seen.add((min(len(want_calls), 3), dead, digits is None, rep.matches))
    assert refused == 1
    assert {(1, False), (2, True), (2, False), (3, False)} == {s[:2] for s in seen}
    assert {s[2] for s in seen} == {s[3] for s in seen} == {False, True}, seen


def test_verify_encloses_once_on_the_two_pass_commands(monkeypatch):
    # both (5,3,2) K=10 b=3 benchmark commands: N = 237,108 was enclosed
    # and certified, then discarded for N = 322,000
    table = table_for((5, 3, 2), horizon=10)
    for digits, min_terms in ((None, 10), ((1, 0, 2, 0, 1), 6)):
        system = (WordSystem.characteristic(table) if digits is None
                  else word_system(table, digits))
        spec = NumberSpec(3, system)
        rep, calls = _enclosures(monkeypatch, verify_agreement, spec,
                                 min_terms=min_terms)
        want, want_calls = _enclosures(monkeypatch, reference_verify_agreement,
                                       spec, min_terms=min_terms)
        assert rep == want
        assert (calls, want_calls) == ([322000], [237108, 322000])


def test_verify_reports_the_last_enclosed_n_when_the_pass_cap_ends_it(monkeypatch):
    # (1,1)(9000) K=3: n_0 = 4 q_2 = 8 and n_max = q_3 - 1 = 18,000.  Both
    # passes certify the one pipeline term by N = 16; under a certifier
    # that certifies nothing, the twelfth pass ends the doubling at
    # 8 * 2^11 with neither bound reached
    table = table_for((1, 1), (9000,), 3)
    spec = NumberSpec(2, WordSystem.characteristic(table))
    rep, calls = _enclosures(monkeypatch, verify_agreement, spec, min_terms=50)
    assert calls == [8, 16] and rep.matches and rep.overlap == 1
    monkeypatch.setattr(oracle, "certified_cf_prefix", _certifies_nothing)
    rep, calls = _enclosures(monkeypatch, verify_agreement, spec, min_terms=50)
    assert len(rep.pipeline_terms) == 1 and rep.certified_prefix == ()
    assert calls == [8 << i for i in range(12)]
    assert rep.digits_used == calls[-1] == 16384


def test_verify_reports_the_passes_under_the_power_cap(monkeypatch):
    # (2)(9000) K=3 b=2: the one pipeline term is certified by the second
    # pass, N = 144,008.  Under a certifier that certifies nothing, after
    # N = 72,004 * 2^7 = 9,216,512 the next pass, 18,433,024 digits, would
    # pass the cap; the schedule ends there with a shortfall report, not
    # a HorizonError, while a first pass past the cap, N = 4 q_3 on K=4,
    # is refused
    spec = NumberSpec(2, WordSystem.characteristic(table_for((2,), (9000,), 3)))
    rep, calls = _enclosures(monkeypatch, verify_agreement, spec, min_terms=50)
    assert calls == [72004, 144008] and rep.matches and rep.overlap == 1
    monkeypatch.setattr(oracle, "certified_cf_prefix", _certifies_nothing)
    rep, calls = _enclosures(monkeypatch, verify_agreement, spec, min_terms=50)
    assert calls == [72004 << i for i in range(8)]
    assert rep.digits_used == 9216512 and not rep.matches
    assert len(rep.pipeline_terms) == 1 and rep.certified_prefix == ()
    deep = NumberSpec(2, WordSystem.characteristic(table_for((2,), (9000,), 4)))
    assert _enclosures(monkeypatch, verify_agreement, deep) == (None, [648036008])


def test_verify_refuses_a_word_with_nothing_to_compare(monkeypatch):
    # golden K=16 digit prefixes: [0, 1, 0] gives no pipeline term (and
    # passed with nothing compared), [0] not even a digit (n_max = q_1 - 1)
    table = golden_table(16)
    for digits in ((0, 1, 0), (0,)):
        spec = NumberSpec(2, word_system(table, digits, terminating=False))
        with pytest.raises(HorizonError, match="nothing to verify"):
            verify_agreement(spec)
        assert _enclosures(monkeypatch, verify_agreement, spec) == (None, [])


def test_verify_agreement_needs_a_positive_term_count():
    for min_terms in (0, -1):
        with pytest.raises(ConfigError):
            verify_agreement(golden_char_spec(), min_terms=min_terms)


def test_oracle_convergents_fold():
    convs = cf_convergents([1, 2, 2, 4])
    assert convs[0] == Fraction(1)
    assert convs[1] == Fraction(2, 3)
    assert convs[2] == Fraction(5, 7)
    assert convs[3] == Fraction(22, 31)


def test_euclid_round_trip_bulk(rng):
    for _ in range(10 ** 4):
        q = rng.randint(1, 10 ** 9)
        p = rng.randint(0, q - 1)
        x = Fraction(p, q)
        assert cf_value(cf_of_rational(x)) == x


def test_every_pipeline_pair_is_high_quality(rng):
    # reduced pipeline convergents approximate to better than 1/Q^2
    from sturmian.cfrac import convergents as stream_convergents

    for _ in range(5):
        t = random_slope_table(rng, 16, amax=3)
        digs = random_digits(rng, t, 8)
        base = rng.choice([2, 3])
        spec = NumberSpec(base, word_system(t, digs))
        pairs = stream_convergents(continued_fraction(shallower(spec, 8)), base)
        enc = enclose_value(spec, 6 * t.q(7))
        for pair in pairs[:-1]:
            red = pair.reduced()
            dist = max(abs(lower(enc) - red), abs(upper(enc) - red))
            assert dist < Fraction(1, red.denominator ** 2), (
                t.spec.preperiod, digs, pair.index
            )


def test_oracle_convergents_complete_against_pipeline(rng):
    # every certified oracle convergent above the height floor appears
    # among the reduced pipeline pairs, families per the classification
    from sturmian.cfrac import convergents as stream_convergents

    for _ in range(5):
        t = random_slope_table(rng, 16, amax=3)
        digs = random_digits(rng, t, 8)
        base = rng.choice([2, 3])
        spec = NumberSpec(base, word_system(t, digs))
        pairs = stream_convergents(continued_fraction(shallower(spec, 8)), base)
        reduced = {p.reduced(): p.family for p in pairs}
        floor = base ** t.q(4)
        prefix = certified_cf_prefix(enclose_value(spec, 6 * t.q(7)))
        deepest = max(f.denominator for f in reduced)
        for conv in cf_convergents(prefix):
            if conv.denominator < floor or conv.denominator > deepest:
                continue
            assert conv in reduced, (t.spec.preperiod, digs, conv)


@st.composite
def pipeline_numbers(draw):
    """A slope at the deepest horizon with q_K <= 3000, a characteristic,
    valid-digit or degenerate (m, p) intercept, and a base in 2..10."""
    pre = tuple(draw(st.lists(st.integers(1, 9), max_size=4)))
    period = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    deep = build_table(SlopeSpec(pre, period, 25))
    horizon = max(k for k in range(1, 26) if deep.q(k) <= 3000)
    table = build_table(SlopeSpec(pre, period, horizon))
    form = draw(st.sampled_from(("characteristic", "digits", "degenerate")))
    if form == "characteristic":
        system = WordSystem.characteristic(table)
    elif form == "digits":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        system = word_system(table, random_digits(rng, table, horizon),
                             terminating=draw(st.booleans()))
    else:
        m = draw(st.integers(1, table.q(horizon)))
        system = WordSystem.from_spec(table, {"m": m, "p": degenerate_p(table, m)},
                                      upper=draw(st.booleans()))
    return NumberSpec(draw(st.integers(2, 10)), system)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pipeline_numbers())
def test_pipeline_agrees_with_certified_prefix(spec):
    rep = verify_agreement(spec)
    overlap = rep.overlap
    assert rep.certified_prefix[:overlap] == rep.pipeline_terms[:overlap]
    assert rep.first_mismatch is None


def test_verify_stops_once_the_whole_pipeline_is_covered(monkeypatch):
    # an empty pipeline leaves nothing to compare: refused before any
    # enclosure, not after the 12-pass cap (N = 8 ... 16,384) that
    # `min_terms` alone would ask for, nor with "matches" on nothing
    spec = NumberSpec(2, WordSystem.characteristic(table_for((2,), (9000,), 2)))
    assert not continued_fraction(spec)
    assert _enclosures(monkeypatch, verify_agreement, spec, min_terms=50) == (None, [])
