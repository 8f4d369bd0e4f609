"""Independent ground truth for the pipeline.

Everything here goes the long way around on purpose: the number is
enclosed by exact rational truncations of its digit expansion, continued
fractions of rationals come from the Euclidean algorithm, and the
certified prefix of the number's expansion is the common prefix of the
endpoint expansions with a one-term guard.  None of it shares code with
the term pipeline it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import NumberSpec, continued_fraction, word_value
from .errors import ConfigError, PrecisionError


@dataclass(frozen=True)
class ValueEnclosure:
    """Exact rational bracket of the number from its first N digits."""

    lower: Fraction
    upper: Fraction
    digits_used: int
    base: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ConfigError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def enclose_value(spec: NumberSpec, n_digits: int) -> ValueEnclosure:
    """Bracket the number by its digit prefix: lower = partial sum,
    upper = lower + b^-N (strict on both sides for a non-constant word)."""
    if n_digits < 1:
        raise ConfigError("need at least one digit")
    b = spec.base
    word = spec.system.prefix(n_digits)
    acc = word_value(word, b)
    scale = pow(b, n_digits)
    return ValueEnclosure(Fraction(acc, scale), Fraction(acc + 1, scale),
                          n_digits, b)


def cf_of_rational(x: Fraction) -> list[int]:
    """Canonical continued fraction of x in [0, 1) by the Euclidean
    algorithm, starting with the integer part 0 and ending with a final
    quotient >= 2 (except for [0] itself)."""
    if not 0 <= x < 1:
        raise ConfigError(f"expected a value in [0, 1), got {x}")
    terms = [0]
    num, den = x.numerator, x.denominator
    while num:
        a, rem = divmod(den, num)
        terms.append(a)
        den, num = num, rem
    if len(terms) > 2 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def cf_value(terms) -> Fraction:
    """Fold a continued fraction [a0; a1, ...] back into a fraction."""
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + (1 / value if value else Fraction(0))
    return value


def cf_convergents(partial_quotients) -> list[Fraction]:
    """Convergents of [0; a_1, a_2, ...] (no leading integer part)."""
    out = []
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    for a in partial_quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append(Fraction(p, q))
    return out


def certified_cf_prefix(enc: ValueEnclosure) -> list[int]:
    """Partial quotients shared by every value inside the enclosure.

    Runs the Euclidean algorithm on both endpoints in lockstep, stopping
    at the first disagreement, and drops the last agreeing term; that
    guard sidesteps the [..., a] vs [..., a-1, 1] boundary ambiguity of
    rational endpoints.  Returns the quotients a_1, a_2, ... without the
    leading integer part.
    """
    if not 0 <= enc.lower < 1:
        raise ConfigError("expected an enclosure inside [0, 1)")
    common = [0]
    n1, d1 = enc.lower.numerator, enc.lower.denominator
    n2, d2 = enc.upper.numerator, enc.upper.denominator
    while n1 and n2:
        a1, r1 = divmod(d1, n1)
        a2, r2 = divmod(d2, n2)
        if a1 != a2:
            break
        common.append(a1)
        d1, n1 = n1, r1
        d2, n2 = n2, r2
    if len(common) <= 2:
        raise PrecisionError(
            "enclosure too wide to certify any partial quotient; raise N"
        )
    return common[1:-1]


def legendre_check(p: int, q: int, enc: ValueEnclosure) -> str:
    """Three-valued convergent test for the reduced fraction p/q.

    "yes" when |value - p/q| < 1/(2q^2) holds against the worst endpoint,
    "no" when |value - p/q| > 1/q^2 holds against the best endpoint, else
    "inconclusive" (also when the enclosure is wider than 1/(4q^2))."""
    if q < 1:
        raise ConfigError("denominator must be positive")
    x = Fraction(p, q)
    qq = x.denominator * x.denominator
    if enc.width >= Fraction(1, 4 * qq):
        return "inconclusive"
    dmax = max(abs(enc.lower - x), abs(enc.upper - x))
    dmin = Fraction(0) if enc.lower <= x <= enc.upper else min(
        abs(enc.lower - x), abs(enc.upper - x))
    if dmax < Fraction(1, 2 * qq):
        return "yes"
    if dmin > Fraction(1, qq):
        return "no"
    return "inconclusive"


def _ilog_floor(x: Fraction, base: int) -> int:
    """Largest e with base^e <= x, for x >= 1."""
    if x < 1:
        raise ConfigError("x must be >= 1")
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    e = max(int(bits / math.log2(base)) - 2, 0)
    while pow(base, e + 1) <= x:
        e += 1
    while e > 0 and pow(base, e) > x:
        e -= 1
    return e


def exponent_bracket(p: int, q: int, enc: ValueEnclosure) -> tuple[int, int]:
    """Integer bracket [lo, hi] of -log_b |value - p/q|.

    Guarantees b^-hi <= |value - p/q| <= b^-lo.  The enclosure must
    exclude p/q; otherwise N has to be raised.
    """
    x = Fraction(p, q)
    if enc.lower <= x <= enc.upper:
        raise PrecisionError("enclosure contains p/q; raise N")
    dmin = min(abs(enc.lower - x), abs(enc.upper - x))
    dmax = max(abs(enc.lower - x), abs(enc.upper - x))
    lo = _ilog_floor(1 / dmax, enc.base)
    hi = _ilog_floor(1 / dmin, enc.base)
    if pow(enc.base, hi) * dmin.numerator < dmin.denominator:
        hi += 1
    return lo, hi


@dataclass(frozen=True)
class VerificationReport:
    """Pipeline-vs-oracle agreement on the shared expansion prefix."""

    digits_used: int
    certified_prefix: tuple[int, ...]
    pipeline_terms: tuple[int, ...]
    overlap: int
    matches: bool
    first_mismatch: int | None


def verify_agreement(spec: NumberSpec, min_terms: int = 10,
                     levels: int | None = None) -> VerificationReport:
    """Check the term pipeline against the certified oracle prefix.

    The digit count starts at four times the deepest convergent
    denominator in play and doubles until the certified prefix reaches
    `min_terms` twice in a row (each prefix is certified regardless, so
    the schedule only affects how many terms get compared).
    """
    if levels is None:
        levels = spec.system.levels
    pipeline = continued_fraction(spec, levels).values()
    horizon = spec.system.table.horizon
    # deepest letter the known intercept digits can serve
    n_max = spec.system.q(min(spec.system.levels, horizon)) - 1
    n = min(4 * spec.system.q(min(levels - 1, horizon - 1)), n_max)
    prev_len = -1
    prefix: list[int] = []
    for _ in range(12):
        try:
            prefix = certified_cf_prefix(enclose_value(spec, n))
        except PrecisionError:
            prefix = []
        if len(prefix) >= min_terms and (prev_len >= min_terms or n == n_max):
            break
        prev_len = len(prefix)
        if n == n_max:
            break
        n = min(2 * n, n_max)
    overlap = min(len(prefix), len(pipeline))
    mismatch = next(
        (i for i in range(overlap) if prefix[i] != pipeline[i]), None
    )
    return VerificationReport(
        n, tuple(prefix), tuple(pipeline), overlap,
        mismatch is None and overlap >= min(min_terms, len(pipeline)),
        mismatch,
    )
