"""Independent ground truth for the pipeline.

Everything here goes the long way around on purpose: the number is
enclosed by lo/den < x < hi/den, never-reduced integers from its digit
prefix; continued fractions come from the Euclidean algorithm, and the
certified prefix is the common prefix of the endpoint expansions, from
one Euclid on lo that carries hi by a cofactor.
None of it shares code with the term pipeline it is used to check but
`cfrac._check_power`, which refuses an N whose b^N may have bits past
the size budget of `errors` before any digit is read; its estimate of
those bits is at least N, so the N-letter prefix is within the budget
too.  The Euclid divides with `bigint.int_divmod`, which equals `divmod`
and stays subquadratic on million-bit operands before CPython 3.12, and
skips the division whose quotient would be thrown away: when the
quotient ranges of the two endpoints, read from the divisors' top 64
bits, are disjoint, the walk ends there (the top-bits early exit).  With
L = `system.levels`, the depth of the number's word, `verify_agreement`
doubles the digit count N from 4 q_{L-1} up to q_L - 1, the deepest
letter the L known intercept digits serve, until two consecutive
prefixes reach the requested length; as a first pass can never stop it,
it starts at q_L - 1 when its second pass would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bigint import int_divmod
from .cfrac import NumberSpec, _check_power, continued_fraction, word_value
from .errors import ConfigError, HorizonError, PrecisionError, validated


@validated
class ValueEnclosure(NamedTuple):
    """Exact bracket lo/den < value < hi/den from N digits, kept unreduced."""

    lo: int
    hi: int
    den: int
    digits_used: int
    base: int

    def _check(self):
        if not 0 <= self.lo < self.hi <= self.den:
            raise ConfigError("enclosure needs 0 <= lo < hi <= den")


def enclose_value(spec: NumberSpec, n_digits: int) -> ValueEnclosure:
    """Bracket the number by its digit prefix: lo = partial sum,
    hi = lo + 1, den = b^N (strict on both sides for a non-constant word),
    with b^N held to the size budget."""
    if n_digits < 1:
        raise ConfigError("need at least one digit")
    _check_power(spec.base, n_digits, "the oracle's enclosure")
    acc = word_value(spec.system.prefix(n_digits), spec.base)
    return ValueEnclosure(acc, acc + 1, spec.base ** n_digits, n_digits, spec.base)


def cf_of_rational(x: Fraction) -> list[int]:
    """Canonical continued fraction of x in [0, 1) by the Euclidean
    algorithm, starting with the integer part 0 and ending with a final
    quotient >= 2 (except for [0] itself)."""
    if not 0 <= x < 1:
        raise ConfigError(f"expected a value in [0, 1), got {x}")
    terms = [0]
    num, den = x.numerator, x.denominator
    while num:
        a, rem = int_divmod(den, num)
        terms.append(a)
        den, num = num, rem
    return terms


def _floor_range(y: int, *addends: int) -> tuple[int, int]:
    """Bounds lo <= floor(x/y) <= hi for x = sum(addends) >= 0, y >= 1.

    Read from the top bits: with s = max(0, bitlen(y) - 64), x >> s lies
    in [X, X + n - 1] for X the sum of the n shifted addends, and
    Y 2^s <= y < (Y + 1) 2^s for Y = y >> s >= 1, so X / (Y + 1) < x/y
    < (X + n) / Y and floor(x/y) lies in [X // (Y + 1), (X + n - 1) // Y].
    """
    shift = max(0, y.bit_length() - 64)
    x, y = sum(a >> shift for a in addends), y >> shift
    return x // (y + 1), (x + len(addends) - 1) // y


def certified_cf_prefix(enc: ValueEnclosure) -> list[int]:
    """Partial quotients shared by every value inside the enclosure.

    One Euclid on (den, lo), with remainders r_i, quotients a_i and
    cofactors t_i (t_-1 = 0, t_0 = 1, t_i = t_(i-2) - a_i*t_(i-1)).  While
    the quotients agree, the remainders of (den, hi) are s_i = r_i +
    t_i*(hi - lo), and hi's i-th quotient is a_i exactly when
    0 <= s_i < s_(i-1): one divmod per step.  Before it, both quotients
    are bounded from the top 64 bits of their divisors, and the walk
    stops without dividing when the two ranges are disjoint (the last
    step's quotient, thrown away, is often the largest).  Stops at the
    first disagreement and keeps every agreeing term a_1..a_n, all of them
    certified: each endpoint's expansion begins a_1..a_n, and may end
    there.  The reals whose expansion begins a_1..a_n are the image of
    the complete quotient x_(n+1) in (1, inf] under a monotone Moebius
    map, x_(n+1) = inf where the expansion ends at a_n; that image is an
    interval, so every value between the endpoints shares a_1..a_n.
    Returns a_1, a_2, ... (unreduced endpoints give the quotients of
    reduced ones); an enclosure that certifies none is refused.
    """
    common: list[int] = []
    w = enc.hi - enc.lo
    den, r, s, t_prev, t = enc.den, enc.lo, enc.hi, 0, 1
    while r and s:
        lo_min, lo_max = _floor_range(r, den)
        # hi's dividend s_(i-2) is den + t_prev*w
        hi_min, hi_max = _floor_range(s, den, t_prev * w)
        if lo_max < hi_min or hi_max < lo_min:
            break
        a, rem = int_divmod(den, r)
        t_prev, t = t, t_prev - a * t
        s_next = rem + t * w
        if not 0 <= s_next < s:
            break
        common.append(a)
        den, r, s = r, rem, s_next
    if not common:
        raise PrecisionError("enclosure too wide to certify any partial quotient; raise N")
    return common


def _offsets(p: int, q: int, enc: ValueEnclosure) -> tuple[int, int, int]:
    """(v, e1, e2) with p/q = u/v reduced and e1, e2 = (lo, hi)*v - u*den;
    q must be positive."""
    if q < 1:
        raise ConfigError("denominator must be positive")
    x = Fraction(p, q)
    u, v = x.numerator, x.denominator
    return v, enc.lo * v - u * enc.den, enc.hi * v - u * enc.den


def legendre_check(p: int, q: int, enc: ValueEnclosure) -> str:
    """Three-valued convergent test for the reduced fraction p/q.

    "yes" when |value - p/q| < 1/(2q^2) holds against the worst endpoint,
    "no" when |value - p/q| > 1/q^2 holds against the best endpoint, else
    "inconclusive" (also when the enclosure is wider than 1/(4q^2))."""
    v, e1, e2 = _offsets(p, q, enc)
    qq, scale = v * v, enc.den * v
    if 4 * qq * (enc.hi - enc.lo) < enc.den:  # narrower than 1/(4q^2)
        if 2 * qq * max(-e1, e2) < scale:
            return "yes"
        if qq * max(e1, -e2, 0) > scale:
            return "no"
    return "inconclusive"


def _ilog_floor(num: int, den: int, base: int) -> int:
    """Largest e with base^e <= num/den, for num/den >= 1."""
    if num < den:
        raise ConfigError("x must be >= 1")
    bits = num.bit_length() - den.bit_length()
    e = max(int(bits / math.log2(base)) - 2, 0)
    while pow(base, e + 1) * den <= num:
        e += 1
    while e > 0 and pow(base, e) * den > num:
        e -= 1
    return e


def exponent_bracket(p: int, q: int, enc: ValueEnclosure) -> tuple[int, int]:
    """Integer bracket [lo, hi] of -log_b |value - p/q|.

    Guarantees b^-hi <= |value - p/q| <= b^-lo.  The enclosure must
    exclude p/q; otherwise N has to be raised.
    """
    v, e1, e2 = _offsets(p, q, enc)
    if e1 <= 0 <= e2:
        raise PrecisionError("enclosure contains p/q; raise N")
    dmin, dmax, scale = max(e1, -e2), max(-e1, e2), enc.den * v
    lo = _ilog_floor(scale, dmax, enc.base)
    hi = _ilog_floor(scale, dmin, enc.base)
    if pow(enc.base, hi) * dmin < scale:
        hi += 1
    return lo, hi


class VerificationReport(NamedTuple):
    """Pipeline-vs-oracle agreement on the shared expansion prefix."""

    digits_used: int
    certified_prefix: tuple[int, ...]
    pipeline_terms: tuple[int, ...]
    overlap: int
    matches: bool
    first_mismatch: int | None


def verify_agreement(spec: NumberSpec, min_terms: int = 10) -> VerificationReport:
    """Check the term pipeline against the certified oracle prefix.

    With L = `spec.system.levels`, the digit count N runs n_0, 2 n_0,
    4 n_0, ..., capped at n_max = q_L - 1, the deepest letter the L known
    intercept digits serve, from n_0 = 4 q_{L-1}.  It stops at n_max, at
    the first N whose prefix and the previous N's both reach
    min(`min_terms`, pipeline length), after 12 passes, or before a pass
    past the size budget (a first one raises HorizonError).  A first pass
    can never stop it, so when 2 n_0 >= n_max (its second pass would be
    n_max) it starts at n_max: one pass, not two.  Each prefix is
    certified regardless, so the schedule only affects how many terms get
    compared.  `min_terms` must be >= 1.  A word too shallow to give a
    pipeline term, or a digit (n_max = 0), has nothing to compare and is
    refused with `HorizonError` before any enclosure.
    """
    if min_terms < 1:
        raise ConfigError("min_terms must be a positive integer")
    pipeline = tuple(t.value for t in continued_fraction(spec))
    system = spec.system
    n_max = system.q(system.levels) - 1
    if not pipeline or n_max < 1:
        raise HorizonError(
            f"nothing to verify: {system.levels} known level(s) give "
            f"{len(pipeline)} pipeline terms and serve {n_max} digits")
    n = 4 * system.q(system.levels - 1)
    if 2 * n >= n_max:
        n = n_max
    wanted = min(min_terms, len(pipeline))  # more could not be compared
    prev_len = -1
    prefix: list[int] = []
    for passes in range(1, 13):
        try:
            prefix = certified_cf_prefix(enclose_value(spec, n))
        except PrecisionError:
            prefix = []
        if passes == 12 or n == n_max or min(len(prefix), prev_len) >= wanted:
            break
        try:  # a pass past the size budget ends the schedule with the passes made
            _check_power(spec.base, min(2 * n, n_max), "the next enclosure")
        except HorizonError:
            break
        prev_len, n = len(prefix), min(2 * n, n_max)
    overlap = min(len(prefix), len(pipeline))
    mismatch = next((i for i in range(overlap) if prefix[i] != pipeline[i]), None)
    return VerificationReport(
        n, tuple(prefix), tuple(pipeline), overlap,
        mismatch is None and overlap >= wanted, mismatch)
