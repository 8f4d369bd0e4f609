"""Big-integer division and decimal output, subquadratic on every CPython.

Before CPython 3.12, `divmod` of large ints and `str` of a large int are
schoolbook algorithms, quadratic in the bit size.  Partial quotients here
have about q_k*log2(b) bits, the oracle runs its Euclid on integers of
about N*log2(b) bits, and the CLI prints terms and convergents in decimal,
so at the sizes the CLI serves those two built-ins dominate.

* `int_divmod(a, b)` returns `divmod(a, b)`.  Divisors under 30,000
  bits go to the built-in.  Otherwise an m-bit quotient is fixed, up to a
  correction of one, by the top 2m + 64 bits of a over the top m + 64
  bits of b (a quotient longer than b is split in two first); that balanced
  division is the recursion of C. Burnikel and J. Ziegler, "Fast
  Recursive Division" (MPI-I-98-1-022, 1998), and the remainder is
  a - q*b.  From CPython 3.12 on the built-in is itself subquadratic and
  faster than this recursion, so there the name is the built-in.
* `to_decimals(values)` returns `[str(n) for n in values]`, whatever
  their size, converted divide and conquer (Knuth, TAOCP vol. 2, 4.4)
  down one ladder of powers 2^(1024*2^j), held as Decimals and built for
  the largest value of the call: n is split on bits, which costs shifts
  only, and rebuilt exactly in `decimal`, whose products (by
  number-theoretic transform, through `_mul`) are subquadratic and whose
  `str` is linear and has no digit limit.  A value of at most 1,024
  bits, the ladder's leaf, goes to `str` whole: it has at most 309
  digits, under the lowest int-to-str limit CPython accepts (640), so
  the limit is never read here.  Splitting on bits also makes a value
  whose bits are sparse, such as a base-2 term of the golden slope,
  cheaper than dividing it by powers of ten would.
* `forms_to_decimal(base, terms)` returns, as exact integral Decimals,
  the values of terms given as closed forms: a constant plus forms
  (s, x, z, y, c0), each s*b^x*G(b^z, y) + c0 with G(X, y) = 1 + X + ...
  + X^(y-1), the shape of every partial quotient the CLI prints (see
  `cfrac`).  Every power of b is built in `decimal` by squaring, once
  per call, and G by the halving of `cfrac._geom`, so no term is ever
  converted from binary.  The first eight terms of (5,3,2) K=11 b=3
  (m = 1, p = 0; at most 8,384 digits) take 0.95 ms this way, against
  0.44 ms to build them as ints and 1.55 ms more for `to_decimals` of
  those (CPython 3.11.7, 2 vCPUs, medians of 15).
* `continuants_to_decimal(terms, starts)` yields, one row per term, the
  strings of the continuants x_j = t_j*x_{j-1} + x_{j-2} for each seed
  pair, such as the convergents (P_j, Q_j) of a continued fraction.  The
  terms come as Decimals, those of `forms_to_decimal`, and the
  recurrence runs in `decimal`, one multiplication per step, so no x_j
  is ever converted from binary (which would cost O(M(n) log n) apiece).
  Rows come one at a time, so a caller that writes each as it comes
  holds only the last few: the x_j grow geometrically, and the last
  rows are most of the output.
* `_mul(x, y)` is the product of two integral Decimals >= 0 that the
  recurrence, the powers and the ladder's splits use.  libmpdec
  multiplies by schoolbook whenever the shorter operand has at most 256
  words (of 19 digits on 64-bit builds, 9 on 32-bit ones), however long
  the other is, as in a 441-word term times a 202-word convergent.  When
  the shorter operand has 96-256 words and the longer more than 256,
  `_mul` shifts the shorter left by z digits to 257 words, multiplies by
  transform, and shifts the product right by z; that is exact, since the
  z digits dropped are the zeros just added.  Timed on CPython 3.11
  (shorter x longer in words, plain -> padded): 64 x 2000 1.12 -> 1.32
  ms, 80 x 1000 0.72 -> 0.72 ms, 96 x 1000 0.84 -> 0.66 ms, 128 x 441
  0.53 -> 0.34 ms, 256 x 5000 11.5 -> 3.0 ms; padding breaks even at
  about 80 words whatever the longer operand's size.  When both have at
  most 256 words, as in squaring a power of the base, the transform of
  two operands padded to 257 words costs about 0.2 ms whatever their
  size, and schoolbook about 0.011 us per pair of words, so both are
  padded from 20,000 pairs on (CPython 3.11.7, plain -> padded): 120 x
  120 0.160 -> 0.188 ms, 140 x 140 0.223 -> 0.211 ms, 100 x 200 0.233 ->
  0.212 ms, 256 x 256 0.674 -> 0.182 ms.

All decimal paths compute in one exact context (precision and exponent
at their maxima, `Inexact` and `Rounded` trapped), so a rounding raises
rather than passing silently, and the caller's context is left as it was;
the continuant rows enter it afresh for each row, so it is never left in
force while their generator is suspended.

Nothing here imports from the package.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)

# cut-overs to the built-ins, timed on CPython 3.11: under 30,000 divisor
# bits the recursion gains little and loses on quotients longer than the
# divisor; from there on it wins at every quotient size, even one bit
_DIVISOR_BITS = 30_000
_GUARD_BITS = 64  # divisor bits kept beyond the quotient's
_BZ_LEAF_BITS = 8000  # the recursion hands n-bit quotients below this to divmod
_DECIMAL_LEAF_BITS = 1024  # ladder parts this small become Decimal, or str, directly
# libmpdec's word in digits: MAX_PREC is 10^18 - 1 on 64-bit builds, whose
# words hold 19 digits, and 425,000,000 on 32-bit ones, whose words hold 9
_WORD_DIGITS = 19 if MAX_PREC > 425_000_000 else 9
_SCHOOLBOOK_WORDS = 256  # libmpdec's schoolbook bound on the shorter operand
_PAD_WORDS = 96  # shorter operands from here to the bound are padded
_PAD_PRODUCT = 20_000  # operands both within the bound are padded from here

# exact decimal arithmetic: a result that would need rounding raises
# instead (`localcontext` copies this, so it is never changed)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b << n."""
    if n <= _BZ_LEAF_BITS:
        return divmod(a, b)
    if n & 1:  # even n splits b into two halves
        q, r = _div2n1n(a << 1, b << 1, n + 1)
        return q, r >> 1
    h = n >> 1
    mask = (1 << h) - 1
    b_hi, b_lo = b >> h, b & mask
    q_hi, r = _div3n2n(a >> h, b, b_hi, b_lo, h)
    q_lo, r = _div3n2n(r << h | a & mask, b, b_hi, b_lo, h)
    return q_hi << h | q_lo, r


def _div3n2n(a: int, b: int, b_hi: int, b_lo: int, h: int) -> tuple[int, int]:
    """divmod(a, b) for b = b_hi*2^h + b_lo of exactly 2h bits and
    0 <= a < b << h: the top 2h bits of a over b_hi estimate the
    quotient, at most 2 too large."""
    top = a >> h
    if top >> h == b_hi:
        q = (1 << h) - 1
        r = top - q * b_hi
    else:
        q, r = _div2n1n(top, b_hi, h)
    r = (r << h | a & ((1 << h) - 1)) - q * b_lo
    while r < 0:
        q -= 1
        r += b
    return q, r


def _divmod_nonneg(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b >= 0 (b = 0 raises in the built-in)."""
    nb = b.bit_length()
    m = a.bit_length() - nb + 1  # a // b < 2^m
    if nb < _DIVISOR_BITS or m < 1:
        return divmod(a, b)
    if m > nb:  # the quotient outgrows the divisor: its top half first
        k = m >> 1
        q_hi, r = _divmod_nonneg(a >> k, b)
        q_lo, r = _divmod_nonneg(r << k | a & ((1 << k) - 1), b)
        return q_hi << k | q_lo, r
    # cut both at the same bit, keeping n >= m bits of b: the quotient of
    # the tops is never too small, and at most one too large
    n = min(nb, m + _GUARD_BITS)
    q = _div2n1n(a >> (nb - n), b >> (nb - n), n)[0]
    r = a - q * b
    if r < 0:
        q, r = q - 1, r + b
    return q, r


def _int_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b), subquadratic in the operands' size."""
    if b < 0:
        q, r = _int_divmod(-a, -b)
        return q, -r
    if a < 0:  # floor division through a = ~x, x >= 0
        q, r = _divmod_nonneg(~a, b)
        return ~q, b + ~r
    return _divmod_nonneg(a, b)


int_divmod = divmod if sys.version_info >= (3, 12) else _int_divmod


def to_decimals(values: Sequence[int]) -> list[str]:
    """[str(n) for n in values], whatever their size and the interpreter's
    int-to-str limit, down one ladder built for the largest of them."""
    with localcontext(_EXACT):
        ladder = _ladder(max(map(int.bit_length, values), default=0))
        return [_to_str(n, ladder) for n in values]


def forms_to_decimal(base: int, terms: Iterable[tuple[int, Iterable[Sequence[int]]]]) -> list[Decimal]:
    """For each term (const, forms), const plus the values of its forms as
    one exact integral Decimal, a form (s, x, z, y, c0) being
    s*b^x*G(b^z, y) + c0 with G(X, y) = 1 + X + ... + X^(y-1), zero for
    y <= 0.  Nothing is converted from binary: every power of b is built
    in `decimal`, once per call, and G as `cfrac._geom` computes it."""
    with localcontext(_EXACT):
        powers = {0: Decimal(1)}
        return [sum((_form_value(base, form, powers) for form in forms), Decimal(const))
                for const, forms in terms]


def _form_value(base: int, form: Sequence[int], powers: dict[int, Decimal]) -> Decimal:
    """The value of one form.  Call it inside the `_EXACT` context."""
    s, x, z, y, c0 = form
    v = _mul(_power(base, x, powers), _geom(base, z, y, powers))
    return (v if s > 0 else -v) + c0


def _power(base: int, e: int, powers: dict[int, Decimal]) -> Decimal:
    """b^e from the cache `powers`, by squaring the cached b^(e // 2)."""
    p = powers.get(e)
    if p is None:
        h = _power(base, e >> 1, powers)
        p = powers[e] = _mul(h, h) * base if e & 1 else _mul(h, h)
    return p


def _geom(base: int, step: int, count: int, powers: dict[int, Decimal]) -> Decimal:
    """G(b^step, count) by halving, as `cfrac._geom` computes it in ints.
    Call it inside the `_EXACT` context."""
    if count <= 1:
        return Decimal(max(count, 0))
    half = count >> 1
    g = _mul(_geom(base, step, half, powers), _power(base, half * step, powers) + 1)
    if count & 1:
        g += _power(base, 2 * half * step, powers)
    return g


def continuants_to_decimal(terms: Sequence[Decimal],
                           starts: Sequence[tuple[int, int]]) -> Iterator[tuple[str, ...]]:
    """For each term t_j in turn, the decimal strings of x_j for each seed
    pair (x_{-1}, x_0) in `starts`, where x_j = t_j*x_{j-1} + x_{j-2}.

    The terms are integral Decimals, such as those of `forms_to_decimal`,
    and the seeds ints.  Terms and seeds must be >= 0, which is checked
    here, as the call is made; so are the seeds converted, a seed past
    the ladder's leaf size down a ladder built for it alone.  The
    recurrence runs in exact `decimal`.  The rows come from a generator
    that enters the exact context afresh for each row and leaves it
    before yielding, so the caller's context is in force whenever the
    generator is suspended.  It holds the terms still to come, a copy of
    `terms` from which each is dropped as its row is computed, and the
    last two values of each seed, which go with it once it is exhausted;
    a caller that keeps no reference of its own to `terms` so holds no
    term past its row."""
    seeds = [x for pair in starts for x in pair]
    if min([*terms, *seeds], default=0) < 0:
        raise ValueError("continuant terms and seeds must be >= 0")
    with localcontext(_EXACT):
        ladder = _ladder(max(map(int.bit_length, seeds), default=0))
        pairs = [tuple(Decimal(x) if x.bit_length() <= _DECIMAL_LEAF_BITS else _exact(x, ladder)
                       for x in pair) for pair in starts]
    return _continuant_rows(list(reversed(terms)), pairs)


def _continuant_rows(pending: list[Decimal],
                     pairs: list[tuple[Decimal, Decimal]]) -> Iterator[tuple[str, ...]]:
    """The rows of `continuants_to_decimal`, from its converted seeds and
    its terms in reverse order, each popped, and so let go, as its row is
    computed."""
    while pending:
        t = pending.pop()
        with localcontext(_EXACT):
            row = []
            for i, (prev, cur) in enumerate(pairs):
                nxt = _mul(t, cur) + prev
                pairs[i] = cur, nxt
                row.append(str(nxt))
        del t  # let go before the row is handed over
        yield tuple(row)


def _to_str(n: int, ladder: list[Decimal]) -> str:
    """str(n), by `str` at most at the ladder's leaf size, else down the
    ladder.  Call it inside the `_EXACT` context."""
    if n.bit_length() <= _DECIMAL_LEAF_BITS:
        return str(n)
    return ("-" if n < 0 else "") + str(_exact(abs(n), ladder))


def _exact(n: int, ladder: list[Decimal]) -> Decimal:
    """n >= 0 as a Decimal, down the ladder.  Call it inside the `_EXACT`
    context.  The ladder is passed down the recursion, not closed over: a
    recursive closure is a reference cycle that would keep it alive past
    the call until the cyclic GC runs."""
    # the least j with _DECIMAL_LEAF_BITS * 2^j >= n's bits
    j = (max(n.bit_length() - 1, 0) // _DECIMAL_LEAF_BITS).bit_length()
    return _as_decimal(n, j, ladder)


def _ladder(bits: int) -> list[Decimal]:
    """powers[j] = 2^(leaf * 2^j), each the square of the one before, for
    j < L, the least L >= 1 with leaf * 2^L >= bits."""
    powers = [Decimal(1 << _DECIMAL_LEAF_BITS)]
    while _DECIMAL_LEAF_BITS << len(powers) < bits:
        powers.append(powers[-1] * powers[-1])
    return powers


def _as_decimal(x: int, j: int, powers: list[Decimal]) -> Decimal:
    """x < 2^(leaf * 2^j) as a Decimal, split on bits down the ladder."""
    if j == 0:
        return Decimal(x)
    j -= 1
    k = _DECIMAL_LEAF_BITS << j
    hi = x >> k
    return (_mul(_as_decimal(hi, j, powers), powers[j])
            + _as_decimal(x - (hi << k), j, powers))


def _padding(short: int, long: int) -> tuple[int, int]:
    """The zeros `_mul` appends to its operands of `short` <= `long` digits,
    each padded operand taken to 257 words: the shorter alone when it has
    _PAD_WORDS to 256 words and the longer more than 256; both when both
    have at most 256 and the product of their word counts is at least
    _PAD_PRODUCT; else neither."""
    words = (short - 1) // _WORD_DIGITS + 1
    long_words = (long - 1) // _WORD_DIGITS + 1
    top = _SCHOOLBOOK_WORDS * _WORD_DIGITS + 1
    if long_words <= _SCHOOLBOOK_WORDS:
        return (top - short, top - long) if words * long_words >= _PAD_PRODUCT else (0, 0)
    return (top - short, 0) if _PAD_WORDS <= words <= _SCHOOLBOOK_WORDS else (0, 0)


def _mul(x: Decimal, y: Decimal) -> Decimal:
    """x*y for integral Decimals x, y >= 0, with operands zero-padded past
    libmpdec's schoolbook bound when that is faster.  Call it inside the
    `_EXACT` context."""
    if x.adjusted() > y.adjusted():
        x, y = y, x
    zx, zy = _padding(x.adjusted() + 1, y.adjusted() + 1)
    if not zx:
        return x * y
    # `shift` drops digits without signalling: these are the zeros added
    return (x.shift(zx) * y.shift(zy)).shift(-zx - zy)
