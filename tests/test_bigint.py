"""The big-integer kernels against the built-ins they replace.

`int_divmod` is the built-in `divmod` from CPython 3.12 on, so the
recursion is also driven through `_int_divmod`, and with small cut-offs,
on every interpreter.  Reference strings for ints past the interpreter's
int-to-str limit are made with the limit lifted, then restored.
"""

import decimal
import gc
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import bigint

DIVMODS = [bigint.int_divmod, bigint._int_divmod]


@contextmanager
def patched(**values):
    """Set module constants of `bigint` for the duration of the block."""
    old = {name: getattr(bigint, name) for name in values}
    for name, value in values.items():
        setattr(bigint, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(bigint, name, value)


@contextmanager
def int_str_limit(digits):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def reference_str(n):
    with int_str_limit(0):
        return str(n)


def _near(*sizes):
    return [s + d for s in sizes for d in (-1, 0, 1)]


# divisor bits around the built-in cut-off, and quotient bits around the
# recursion's leaf (m + 64 vs 8000), the guard (m + 64 vs the divisor)
# and the split of quotients longer than the divisor (m vs the divisor)
DIVISOR = _near(bigint._DIVISOR_BITS) + [1, 64, 31_000, 45_000]
QUOTIENT = _near(1, 8000 - 64, 31_000 - 64, 31_000, 45_000) + [0, 32, 100_000]


@st.composite
def operands(draw, divisor_bits, quotient_bits):
    """(a, b) with b of about the drawn bit size and a // b of about the
    other, shaped as a random dividend, a multiple of b, one below the next
    multiple, a power of two, 0 or a dividend below b."""
    nb = draw(divisor_bits)
    m = draw(quotient_bits)
    b = draw(st.integers(1 << (nb - 1), (1 << nb) - 1))
    q = draw(st.integers(0, (1 << m) - 1)) if m else 0
    shape = draw(st.sampled_from(
        ["random", "multiple", "below", "power", "zero", "small"]))
    if shape == "random":
        a = q * b + draw(st.integers(0, b - 1))
    elif shape == "multiple":
        a = q * b
    elif shape == "below":
        a = q * b + b - 1
    elif shape == "power":
        a, b = 1 << (nb + m), 1 << (nb - 1)
    elif shape == "zero":
        a = 0
    else:
        a = draw(st.integers(0, b - 1))
    return a, b


def _signed(a, b, signs):
    return (-a if signs & 1 else a), (-b if signs & 2 else b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operands(st.sampled_from(DIVISOR), st.sampled_from(QUOTIENT)), st.integers(0, 3))
def test_int_divmod_equals_divmod_around_each_cutoff(ab, signs):
    a, b = _signed(*ab, signs)
    for fn in DIVMODS:
        assert fn(a, b) == divmod(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operands(st.integers(1, 400), st.integers(0, 900)), st.integers(0, 3))
def test_recursion_with_small_cutoffs(ab, signs):
    # every branch on small ints: the top-bits cut, the split of long
    # quotients and several levels of Burnikel-Ziegler with odd sizes
    a, b = _signed(*ab, signs)
    with patched(_DIVISOR_BITS=2, _GUARD_BITS=3, _BZ_LEAF_BITS=4):
        assert bigint._int_divmod(a, b) == divmod(a, b)


def test_div2n1n_exhaustive_at_small_sizes():
    # some of these need the second correction of a 3n/2n step
    with patched(_BZ_LEAF_BITS=1):
        for n in range(1, 7):
            for b in range(1 << (n - 1), 1 << n):
                for a in range(b << n):
                    assert bigint._div2n1n(a, b, n) == divmod(a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.data())
def test_div2n1n_with_a_small_leaf(n, data):
    b = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    a = data.draw(st.integers(0, (b << n) - 1) | st.just((b << n) - 1))
    with patched(_BZ_LEAF_BITS=2):
        assert bigint._div2n1n(a, b, n) == divmod(a, b)


@pytest.mark.parametrize("a", [0, 5, -5, 1 << 100_000, -(1 << 100_000)],
                         ids=["0", "5", "-5", "2^100000", "-2^100000"])
def test_zero_divisor_raises(a):
    for fn in DIVMODS:
        with pytest.raises(ZeroDivisionError):
            fn(a, 0)


def test_to_decimal_fixed_values():
    values = [0, 1, -1, 9, 10]
    for k in (1, 640, 3010, 3011, 4300, 4301, 20_000):
        values += [10 ** k - 1, 10 ** k, -(10 ** k)]
    want = [reference_str(n) for n in values]
    for limit in (0, 640, 4300):
        with int_str_limit(limit):
            assert [bigint.to_decimal(n) for n in values] == want
            assert sys.get_int_max_str_digits() == limit


# halving leaves: the default and the one under the lowest limit
LEAF_DIGITS = (640, bigint._HALVING_LEAF_DIGITS)


def sized_ints(bits=(), digits=()):
    """Ints of one of the bit lengths `bits` or the digit counts `digits`."""
    ranges = [(1 << (b - 1), (1 << b) - 1) for b in bits]
    ranges += [(10 ** (d - 1), 10 ** d - 1) for d in digits]
    return st.sampled_from(ranges).flatmap(lambda r: st.integers(*r))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sized_ints(_near(3 * 640, 3 * 4300, bigint._HALVING_BITS) + [20_000, 70_000],
                  _near(*LEAF_DIGITS)),
       st.sampled_from([0, 640, 4300]), st.booleans())
def test_to_decimal_equals_str_around_its_thresholds(n, limit, negative):
    # around the limits, the halving leaves (in digits) and the cut to the
    # ladder (in bits), and in both regimes
    n = -n if negative else n
    want = reference_str(n)
    with int_str_limit(limit):
        assert bigint.to_decimal(n) == want
        assert bigint.to_decimals([n, -n, 0]) == [want, reference_str(-n), "0"]


def test_to_decimal_pads_long_zero_runs():
    # 10^k - 1, 10^k and 10^k + 1 split into halves of all nines, or a one
    # and a low half of zeros: the padding of each half shows
    leaf = bigint._HALVING_LEAF_DIGITS
    ks = sorted({k + d for k in (1, 640, 1280, leaf, 2 * leaf, 4 * leaf, 14_449)
                 for d in (-2, -1, 0, 1, 2) if k + d > 0})
    values = [10 ** k + d for k in ks for d in (-1, 0, 1)]
    values += [10 ** k + 10 ** (k // 2) for k in ks]  # zeros on both sides of a 1
    want = [reference_str(n) for n in values]
    for limit in (0, 640, 4300):
        with int_str_limit(limit):
            assert bigint.to_decimals(values) == want
            assert [bigint.to_decimal(n) for n in values] == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(-(1 << 3000), 1 << 3000))
def test_to_decimal_recursion_with_a_small_leaf(n):
    # both regimes with tiny leaves: halving past 2 digits up to 200 bits,
    # the ladder of 7-bit leaves past them
    with patched(_HALVING_BITS=200, _HALVING_LEAF_DIGITS=2, _DECIMAL_LEAF_BITS=7):
        assert bigint.to_decimal(n) == reference_str(n)


def test_to_decimal_frees_its_power_ladder():
    # the ladder of Decimal powers and the powers of ten are passed down
    # the recursions, not closed over: a self-recursive closure is a
    # reference cycle that would keep them alive past the call until the
    # cyclic GC.  One value goes down the ladder, the other is halved.
    values = [7 ** 40_000, 7 ** 10_000]
    assert values[0].bit_length() > bigint._HALVING_BITS > values[1].bit_length() > \
        3.33 * bigint._HALVING_LEAF_DIGITS
    want = [reference_str(n) for n in values]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert [bigint.to_decimal(n) for n in values] == want
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def reference_continuants(terms, starts):
    """The recurrence x_j = t_j x_{j-1} + x_{j-2} on ints, as strings."""
    out = []
    for prev, cur in starts:
        strings = []
        for t in terms:
            prev, cur = cur, t * cur + prev
            strings.append(reference_str(cur))
        out.append(strings)
    return out


# the CLI's seeds for P and Q, in base 3, plus a pair of large seeds
SEEDS = [(2, 0), (0, 2), (1 << 20_000, 3 ** 5000)]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.just(0) | sized_ints(_near(2, 1024, bigint._HALVING_BITS),
                                        _near(*LEAF_DIGITS)),
                min_size=1, max_size=6), st.sampled_from([0, 640]))
def test_continuants_equal_the_int_recurrence_around_the_cut(terms, limit):
    want = reference_continuants(terms, SEEDS)
    with int_str_limit(limit):
        assert bigint.continuants_to_decimal(terms, SEEDS) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1 << 300), max_size=12),
       st.lists(st.tuples(st.integers(0, 1 << 200), st.integers(0, 1 << 200)),
                max_size=3))
def test_continuants_with_a_small_leaf(terms, starts):
    with patched(_HALVING_BITS=100, _HALVING_LEAF_DIGITS=2, _DECIMAL_LEAF_BITS=7):
        assert bigint.continuants_to_decimal(terms, starts) == \
            reference_continuants(terms, starts)


def test_continuants_under_the_cut_build_no_ladder(monkeypatch):
    def no_ladder(bits):
        raise AssertionError(f"a ladder for {bits} bits")

    monkeypatch.setattr(bigint, "_ladder", no_ladder)
    terms = [(1 << bigint._HALVING_BITS) - 1, 3, 7 ** 5000]
    seeds = [(2, 0), (0, 2), ((1 << bigint._HALVING_BITS) - 1, 10 ** 9000)]
    assert bigint.continuants_to_decimal(terms, seeds) == reference_continuants(terms, seeds)
    assert bigint.to_decimals(terms) == [reference_str(t) for t in terms]


def test_continuants_with_a_zero_first_term():
    # a number below 1 opens its expansion with 0: x_1 = x_{-1}
    terms = [0, 1, 2, 7 ** 5000, 1]
    assert bigint.continuants_to_decimal(terms, SEEDS) == \
        reference_continuants(terms, SEEDS)
    assert bigint.continuants_to_decimal([0], [(4, 9)]) == [["4"]]
    assert bigint.continuants_to_decimal([], [(4, 9)]) == [[]]


def test_continuants_refuse_negative_values():
    for terms, starts in (([1, -1], [(1, 0)]), ([1], [(0, -1)])):
        with pytest.raises(ValueError):
            bigint.continuants_to_decimal(terms, starts)


def test_continuants_leave_the_callers_decimal_context_alone():
    # the kernel runs in its own exact context whatever the caller's is,
    # and a rounding there would raise, not pass silently
    terms = [7 ** 3000, 5, 11 ** 2000]
    want = reference_continuants(terms, SEEDS)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = 5, 10
        ctx.traps[decimal.Inexact] = False
        before = (ctx.prec, ctx.Emax, dict(ctx.traps))
        assert bigint.continuants_to_decimal(terms, SEEDS) == want
        assert bigint.to_decimal(7 ** 40_000) == reference_str(7 ** 40_000)
        ctx = decimal.getcontext()
        assert (ctx.prec, ctx.Emax, dict(ctx.traps)) == before
    inexact = bigint._EXACT.copy()
    inexact.prec = 50
    with patched(_EXACT=inexact), pytest.raises((decimal.Inexact, decimal.Rounded)):
        bigint.continuants_to_decimal(terms, SEEDS)


def test_continuants_free_their_power_ladder():
    terms = [7 ** 5000, 3, 5 ** 4000]  # a ladder of several powers
    want = reference_continuants(terms, SEEDS)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert bigint.continuants_to_decimal(terms, SEEDS) == want
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# shorter operands in words on each side of the pad band's edges, and
# longer ones on each side of libmpdec's schoolbook bound and past it
SHORT_WORDS = _near(bigint._PAD_WORDS, bigint._SCHOOLBOOK_WORDS)
LONG_WORDS = _near(bigint._SCHOOLBOOK_WORDS) + [441, 5000]


def _in_band(short_words, long_words):
    return (bigint._PAD_WORDS <= short_words <= bigint._SCHOOLBOOK_WORDS
            < long_words)


def random_decimal(rng, digits):
    return decimal.Decimal(reference_str(rng.randrange(10 ** (digits - 1), 10 ** digits)))


@pytest.mark.parametrize("word", [19, 9])
def test_padding_takes_the_shorter_operand_to_257_words_in_the_band(word):
    def words(digits):
        return (digits - 1) // word + 1

    with patched(_WORD_DIGITS=word):
        for short in SHORT_WORDS:
            for long in LONG_WORDS:
                for s_digits in ((short - 1) * word + 1, short * word):
                    z = bigint._padding(s_digits, long * word)
                    if _in_band(short, long):  # the fewest zeros that do it
                        assert words(s_digits + z) == 257
                        assert words(s_digits + z - 1) == 256
                    else:
                        assert z == 0


@pytest.mark.parametrize("word", [19, 9])
def test_mul_equals_the_plain_product_around_the_band(word):
    rng = random.Random(word)
    with patched(_WORD_DIGITS=word), decimal.localcontext(bigint._EXACT) as ctx:
        for short in SHORT_WORDS:
            for long in LONG_WORDS:
                # the shortest or the longest operand of each word count
                x = random_decimal(rng, short * word - rng.randrange(2) * (word - 1))
                y = random_decimal(rng, long * word - rng.randrange(2) * (word - 1))
                want = x * y
                for a, b in ((x, y), (y, x)):
                    got = bigint._mul(a, b)
                    assert got == want and str(got) == str(want)
        assert not any(ctx.flags.values())


@pytest.mark.parametrize("word", [19, 9])
def test_continuants_with_operands_in_the_pad_band(word):
    # in the band: from seeds (0, 2), t_2 (120 words) times x_1 = 2 t_1
    # (300); from (2, 0), t_4 (441) times x_3 = 2 t_2 + 2 (120); from the
    # third pair, t_1 (300) times its x_0 (200)
    rng = random.Random(word)

    def digits(words):
        return rng.randrange(10 ** ((words - 1) * word), 10 ** (words * word))

    terms = [digits(300), digits(120), 1, digits(441), digits(2), digits(256)]
    starts = [(2, 0), (0, 2), (digits(96), digits(200))]
    with patched(_WORD_DIGITS=word):
        assert bigint.continuants_to_decimal(terms, starts) == \
            reference_continuants(terms, starts)
