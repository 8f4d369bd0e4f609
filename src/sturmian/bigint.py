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
* `to_decimals(values)` returns `[str(n) for n in values]`.  Values are
  converted divide and conquer (Knuth, TAOCP vol. 2, 4.4), in one of two
  regimes chosen by the largest value of the call, whose powers all its
  values share:
  - up to 48,000 bits, halving in int: n is split by `divmod` on 10^k,
    k about half its digits, down to leaves of at most 1,200 digits (or
    the int-to-str limit, if lower), which go to `str`;
  - past that, the Decimal ladder: n is split on bits down to 1,024-bit
    leaves and rebuilt exactly in `decimal`, whose products (by
    number-theoretic transform) are then the cheaper and whose `str` is
    linear and has no digit limit.
  The cut and the leaf were timed on CPython 3.11.  The two regimes
  cross at 43,000-46,000 bits, once the high part of the ladder's top
  split is long enough for `_mul` to pad (96 words, about 6,000 bits),
  and up to the cut they stay within 10% of each other; from there to
  88,000 bits the ladder is 10-30% faster.  The leaf size moves the time
  by under 5% anywhere from 600 to 2,400 digits.  Once a call has built
  the ladder, its smaller values go down it too: there it costs about
  what halving does, and much less on values whose bits are sparse, such
  as the base-2 terms of the golden slope (0.09 against 0.38 ms for a
  17,712-bit one).  CPython 3.12+ keeps the same paths.  The interpreter's int-to-str limit is
  read, never set.
* `continuants_to_decimal(terms, starts)` yields, one row per term, the
  strings of the continuants x_j = t_j*x_{j-1} + x_{j-2} for each seed
  pair, such as the convergents (P_j, Q_j) of a continued fraction.
  Converting each x_j from binary would cost O(M(n) log n) apiece;
  instead each term and seed is converted once, in the regime of
  `to_decimals` (a halving string becomes a Decimal in linear time), and
  the recurrence runs in `decimal`, one multiplication per step (libmpdec
  multiplies large operands by number-theoretic transform), so no x_j is
  ever converted from binary.  Rows come one at a time, so a caller that
  writes each as it comes holds only the last few: the x_j grow
  geometrically, and the last rows are most of the output.
* `_mul(x, y)` is the product of two integral Decimals >= 0 that the
  recurrence and the ladder's splits use.  libmpdec multiplies by
  schoolbook whenever the shorter operand has at most 256 words (of 19
  digits on 64-bit builds, 9 on 32-bit ones), however long the other is,
  as in a 441-word term times a 202-word convergent.  When the shorter operand has 96-256 words and the longer
  more than 256, `_mul` shifts the shorter left by z digits to 257 words,
  multiplies by transform, and shifts the product right by z; that is
  exact, since the z digits dropped are the zeros just added.  Timed on
  CPython 3.11 (shorter x longer in words, plain -> padded): 64 x 2000
  1.12 -> 1.32 ms, 80 x 1000 0.72 -> 0.72 ms, 96 x 1000 0.84 -> 0.66 ms,
  128 x 441 0.53 -> 0.34 ms, 256 x 5000 11.5 -> 3.0 ms; padding breaks
  even at about 80 words whatever the longer operand's size.

Both decimal paths compute in one exact context (precision and exponent
at their maxima, `Inexact` and `Rounded` trapped), so a rounding raises
rather than passing silently, and the caller's context is left as it was;
the continuant rows enter it afresh for each row, so it is never left in
force while their generator is suspended.

Nothing here imports from the package.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)

# cut-overs to the built-ins, timed on CPython 3.11: under 30,000 divisor
# bits the recursion gains little and loses on quotients longer than the
# divisor; from there on it wins at every quotient size, even one bit
_DIVISOR_BITS = 30_000
_GUARD_BITS = 64  # divisor bits kept beyond the quotient's
_BZ_LEAF_BITS = 8000  # the recursion hands n-bit quotients below this to divmod
_HALVING_BITS = 48_000  # up to here values are halved in int, past it laddered
_HALVING_LEAF_DIGITS = 1200  # halves this short go to str
_DECIMAL_LEAF_BITS = 1024  # ladder parts this small become Decimal directly
# libmpdec's word in digits: MAX_PREC is 10^18 - 1 on 64-bit builds, whose
# words hold 19 digits, and 425,000,000 on 32-bit ones, whose words hold 9
_WORD_DIGITS = 19 if MAX_PREC > 425_000_000 else 9
_SCHOOLBOOK_WORDS = 256  # libmpdec's schoolbook bound on the shorter operand
_PAD_WORDS = 96  # shorter operands from here to the bound are padded

# exact decimal arithmetic: a result that would need rounding raises
# instead (`localcontext` copies this, so it is never changed)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])

_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


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
    int-to-str limit, through one set of powers built for the largest of
    them."""
    with localcontext(_EXACT):
        powers = _powers(values)
        return [_to_str(n, powers) for n in values]


def continuants_to_decimal(terms: Sequence[int],
                           starts: Sequence[tuple[int, int]]) -> Iterator[tuple[str, ...]]:
    """For each term t_j in turn, the decimal strings of x_j for each seed
    pair (x_{-1}, x_0) in `starts`, where x_j = t_j*x_{j-1} + x_{j-2}.

    Terms and seeds must be >= 0, which is checked here, as the call is
    made; so are the seeds converted and the one set of powers built.
    Each term is converted as its row is reached, and the recurrence runs
    in exact `decimal`.  The rows come from a generator that enters the
    exact context afresh for each row and leaves it before yielding, so
    the caller's context is in force whenever the generator is suspended;
    the powers and the last two values of each seed go with it once it is
    exhausted."""
    values = [*terms, *(x for pair in starts for x in pair)]
    if min(values, default=0) < 0:
        raise ValueError("continuant terms and seeds must be >= 0")
    with localcontext(_EXACT):
        powers = _powers(values)
        pairs = [(_exact(a, powers), _exact(b, powers)) for a, b in starts]
    return _continuant_rows(terms, pairs, powers)


def _continuant_rows(terms: Sequence[int], pairs: list[tuple[Decimal, Decimal]],
                     powers: tuple) -> Iterator[tuple[str, ...]]:
    """The rows of `continuants_to_decimal`, from its converted seeds."""
    for t in terms:
        with localcontext(_EXACT):
            d = _exact(t, powers)
            row = []
            for i, (prev, cur) in enumerate(pairs):
                nxt = _mul(d, cur) + prev
                pairs[i] = cur, nxt
                row.append(str(nxt))
        yield tuple(row)


def _powers(values: Sequence[int]) -> tuple[int, dict[int, int], list[Decimal] | None]:
    """What converting `values` draws on: the halving's leaf size in digits,
    a cache {k: 10^k} that the halvings fill, and, if the largest value is
    past the cut, the ladder reaching it, which then converts every value
    (else None).  Call it inside the `_EXACT` context.  The powers are
    passed down the recursions, not closed over: a recursive closure is a
    reference cycle that would keep them alive past the call until the
    cyclic GC runs."""
    limit = _max_str_digits()
    leaf = min(_HALVING_LEAF_DIGITS, limit) if limit else _HALVING_LEAF_DIGITS
    bits = max(map(int.bit_length, values), default=0)
    return leaf, {}, (_ladder(bits) if bits > _HALVING_BITS else None)


def _to_str(n: int, powers: tuple) -> str:
    """str(n), from what `_powers` built.  Call it inside the `_EXACT`
    context."""
    if n < 0:
        return "-" + _to_str(-n, powers)
    leaf, tens, ladder = powers
    if ladder is not None:
        return str(_exact(n, powers))
    # at least n's digits, and for n under 2^1,000,000 at most one more
    # (0.30103 is just above log10(2))
    return _halved(n, int(n.bit_length() * 0.30103) + 1, leaf, tens)


def _exact(n: int, powers: tuple) -> Decimal:
    """n >= 0 as a Decimal, from what `_powers` built.  Call it inside the
    `_EXACT` context."""
    if powers[2] is None:  # Decimal parses the string in linear time
        return Decimal(_to_str(n, powers))
    # the least j with _DECIMAL_LEAF_BITS * 2^j >= n's bits
    j = (max(n.bit_length() - 1, 0) // _DECIMAL_LEAF_BITS).bit_length()
    return _as_decimal(n, j, powers[2])


def _halved(n: int, width: int, leaf: int, tens: dict[int, int]) -> str:
    """The digits of 0 <= n < 10^width, at most `width` of them: n is split
    on 10^k, k = width // 2, and the low half is zero-padded to k digits.
    Leading zeros come out only where n has under width - 1 digits, as a
    low half may; called with at most one digit to spare, as `_to_str`
    calls it, each high part keeps at least width - 1 digits, so none is
    zero and str(n) comes out."""
    if width <= leaf:
        return str(n)
    k = width >> 1
    if k not in tens:
        tens[k] = 10 ** k
    hi, lo = divmod(n, tens[k])
    return _halved(hi, width - k, leaf, tens) + _halved(lo, k, leaf, tens).zfill(k)


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


def _padding(short: int, long: int) -> int:
    """The zeros `_mul` appends to its shorter operand, for operands of
    `short` <= `long` digits: enough to take it to 257 words when it has
    _PAD_WORDS to 256 and the longer more than 256, else 0."""
    words = (short - 1) // _WORD_DIGITS + 1
    if _PAD_WORDS <= words <= _SCHOOLBOOK_WORDS < (long - 1) // _WORD_DIGITS + 1:
        return _SCHOOLBOOK_WORDS * _WORD_DIGITS + 1 - short
    return 0


def _mul(x: Decimal, y: Decimal) -> Decimal:
    """x*y for integral Decimals x, y >= 0, with the shorter operand
    zero-padded past libmpdec's schoolbook bound when that is faster.
    Call it inside the `_EXACT` context."""
    if x.adjusted() > y.adjusted():
        x, y = y, x
    z = _padding(x.adjusted() + 1, y.adjusted() + 1)
    if not z:
        return x * y
    # `shift` drops digits without signalling: these are the z zeros added
    return (x.shift(z) * y).shift(-z)
