"""Continued fraction of a number whose base-b digits form a Sturmian word.

The expansion is assembled per level from four integer term families
(c, d, e, f below, plus a constant 1), giving an improper expansion that
may contain zeros and one negative-term shape.  Two local rewrite rules
repair it into the regular expansion:

  (i)  a negative term c_{k+1} = -e_k - 1 collapses the nine terms
       c_k, d_k, 1, e_k, f_k, c_{k+1}, d_{k+1}, 1, e_{k+1} into the
       single positive term c_k + 1 + e_{k+1};
  (ii) any window x, 0, y collapses to x + y (adjacent zero pairs act
       as the identity and are simply deleted).

Both rules are elementary 2x2 matrix identities, so the value of the
expansion is preserved exactly at every step; tests check the matrix
products.  Every term carries provenance: which raw parts were merged
into it and hence which convergent family the corresponding convergent
belongs to.

The rules look only at signs, and every sign is fixed by the digits:
c_k < 0 iff a_{k+1} = b_{k+1}, c_k = 0 iff a_{k+1} - b_{k+1} = 1,
d_k = 0 iff t_k = 0, e_k >= 1, and f_k = 0 iff b_{k+1} = 0.  So the
rewrite runs on signs, and each term it builds carries its value as a
constant plus the names of the raw entries it sums (c_k + 1 + e_{k+1}
for rule (i), x + y for rule (ii)).

`final_terms` is one generator: rule (i) sees one level ahead, and rule
(ii) is a left-to-right stack pass that releases a term as soon as the
term above it on the stack is nonzero, since from then on no later input
can fold into it.  Once the last known level is read, the two-level
stability rule applies: terms involving the last two levels are
withheld, because a longer stream could still rewrite them, and a
trailing zero is dropped.  Everything released is final and equal to the
corresponding term of the expansion over all known levels.  Each raw
part ends up in exactly one released term, which computes the entries it
names and nothing else: none is computed twice or kept, `--terms N` pays
only for its N terms, and no expansion computes its last two levels.  The
depth belongs to the word system: one level per known intercept digit
(`WordSystem.levels`), so a shallower number is a shorter digit prefix.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import ConfigError, DigitRuleError, HorizonError, InternalError, validated
from .words import WordSystem

# Family tag of a surviving raw part: position in the 5-term level block.
_PART_FAMILY = {"c": "1", "d": "2-1", "one": "2", "e": "3", "f": "4"}
_KINDS = tuple(_PART_FAMILY)


@validated
class NumberSpec(NamedTuple):
    """A Sturmian number: base b >= 2 digits over {0, b-1} from a word."""

    base: int
    system: WordSystem

    def _check(self):
        if self.base < 2:
            raise ConfigError(f"base must be >= 2, got {self.base}")


class TermBlock(NamedTuple):
    """The four per-level integers feeding the improper expansion.

    c = b^(r_k + q_{k-1}) (b^((a_{k+1}-b_{k+1}-1) q_k) - 1)/(b^(q_k) - 1),
    d = b^(t_k) - 1,   e = b^(r_k) - 1,
    f = b^(t_k) (b^(b_{k+1} q_k) - 1)/(b^(q_k) - 1).
    c is negative exactly when a_{k+1} = b_{k+1}; d and f may vanish.
    """

    k: int
    c: int
    d: int
    e: int
    f: int


class Term(NamedTuple):
    """One stream term plus the raw parts merged into it."""

    value: int
    parts: tuple[tuple[str, int], ...]

    @property
    def level(self) -> int:
        return max(k for _, k in self.parts)

    @property
    def family(self) -> tuple[str, int]:
        """Convergent family of this term: that of its last merged part."""
        kind, k = self.parts[-1]
        return _PART_FAMILY[kind], k


class ConvergentPair(NamedTuple):
    """Numerator/denominator pair P_j, Q_j of the expansion, unreduced.

    Both are divisible by b-1; the reduced fraction is the actual
    convergent.  |P_{j+1} Q_j - P_j Q_{j+1}| = (b-1)^2 throughout.
    """

    p: int
    q: int
    index: int
    family: tuple[str, int]
    term: int

    def reduced(self) -> Fraction:
        return Fraction(self.p, self.q)


class FamilyFraction(NamedTuple):
    """One of the candidate approximant families, as an exact fraction."""

    numerator: int
    denominator: int
    family: str
    k: int
    height: int

    def reduced(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


# sys.int_info.str_digits_check_threshold, the lowest int-to-str limit
# CPython allows: int(s, base) never refuses a string this short
_LEAF_LETTERS = 640


def _bits_as_base(word: str, base: int, lo: int = 0, hi: int | None = None,
                  power=None) -> int:
    """Positional value of word[lo:hi], a 0/1 word, in base `base` (digits
    0 and 1), by halving the offsets: only leaves of at most _LEAF_LETTERS
    letters are sliced.  The halves at one depth differ in length by at
    most one, so `power`, a cache of base^e shared by the whole recursion,
    computes each power once.  It is passed down, not closed over: a
    recursive closure is a reference cycle that keeps the powers alive
    past the call until the cyclic GC runs."""
    hi = len(word) if hi is None else hi
    n = hi - lo
    if n <= _LEAF_LETTERS:
        leaf = word[lo:hi]
        if base <= 36:
            return int(leaf, base) if leaf else 0
        v = 0
        for ch in leaf:
            v = v * base + (ch == "1")
        return v
    power = power or functools.cache(functools.partial(pow, base))
    mid = lo + n // 2
    return (_bits_as_base(word, base, lo, mid, power) * power(hi - mid)
            + _bits_as_base(word, base, mid, hi, power))


def word_value(word: str, base: int) -> int:
    """A 0/1 word read as an integer in base `base` over {0, base-1}."""
    if base == 2:
        return int(word, 2) if word else 0
    return (base - 1) * _bits_as_base(word, base)


def _geom(base: int, step: int, count: int) -> int:
    """1 + x + ... + x^(count-1) with x = b^step, zero when count <= 0.

    Multiplications only, by halving: G(2m) = G(m) (x^m + 1) and
    G(2m+1) = G(2m) + x^(2m).
    """
    if count <= 1:
        return max(count, 0)
    half = count >> 1
    xh = pow(base, half * step)
    g = _geom(base, step, half) * (xh + 1)
    if count & 1:
        g += xh * xh
    return g


# the most bits a power of the base may have, checked before it is
# computed: ten times the most a test needs (1.66 million, a base-2 entry
# at level 13) and seventy times the most a perfbench workload needs
# (232,000).  A term near it (a_2 = 1,600,000, base 2) prints in about
# 4 s; an a_2 of a few hundred digits would never finish.
_MAX_POWER_BITS = 1 << 24


def _check_power(base: int, exponent: int, what: str):
    """Refuse with HorizonError a power base^e, e <= `exponent`, that may
    have more than _MAX_POWER_BITS bits ((b - 1).bit_length() is the
    ceiling of log2 b)."""
    if exponent * (base - 1).bit_length() > _MAX_POWER_BITS:
        raise HorizonError(f"{what} needs powers of the base past "
                           f"{_MAX_POWER_BITS} bits")


def _entry(spec: NumberSpec, kind: str, k: int) -> int:
    """Entry `kind` (c, d, e or f) of the level-k `TermBlock`; its powers
    of the base reach at most b^(q_{k+1})."""
    sys_, b = spec.system, spec.base
    _check_power(b, sys_.table.q(k + 1), f"level {k}")
    if kind == "d":
        return pow(b, sys_.offset(k)) - 1
    if kind == "e":
        return pow(b, sys_.suffix_len(k)) - 1
    if kind == "f":
        return pow(b, sys_.offset(k)) * _geom(b, sys_.q(k), sys_.digit(k + 1))
    r, qk, qk1 = sys_.suffix_len(k), sys_.q(k), sys_.table.q(k - 1)
    gap = sys_.gap(k + 1)
    if gap == 0:
        # b_k = 0 here, so r_{k-1} = r_k + q_{k-1} - q_k
        return -pow(b, r + qk1 - qk)
    return pow(b, r + qk1) * _geom(b, qk, gap - 1)


def term_block(spec: NumberSpec, k: int) -> TermBlock:
    """Exact term values at level k (reads intercept digit k+1)."""
    return TermBlock(k, *(_entry(spec, kind, k) for kind in "cdef"))


def boehmer_term(table, base: int, k: int) -> int:
    """Closed-form partial quotient (b^(q_k) - b^(q_{k-2}))/(b^(q_{k-1}) - 1).

    Only valid for the characteristic word (all intercept digits zero).
    """
    if k < 1:
        raise ConfigError("closed-form terms start at k = 1")
    _check_power(base, table.q(k), f"closed-form term {k}")  # b^(q_k) at most
    return pow(base, table.q(k - 2)) * _geom(base, table.q(k - 1), table.a(k))


class _Pending(NamedTuple):
    """A term inside the rewrite: its sign, and its value as `const` plus
    the entries named in `refs`, (kind, level) pairs."""

    sign: int
    const: int
    refs: tuple[tuple[str, int], ...]
    parts: tuple[tuple[str, int], ...]

    @property
    def level(self) -> int:
        return max(k for _, k in self.parts)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _level_signs(spec: NumberSpec, k: int) -> tuple[_Pending, ...]:
    """The raw terms of level k, signed from the digits, values deferred.

    c_k < 0 iff a_{k+1} = b_{k+1} and c_k = 0 iff a_{k+1} - b_{k+1} = 1;
    d_k = 0 iff t_k = 0; e_k >= 1 since r_k >= 1; f_k = 0 iff b_{k+1} = 0.
    """
    sys_ = spec.system
    t = sys_.offset(k)
    sys_.suffix_len(k)  # raises unless r_k >= 1
    gap = sys_.gap(k + 1)
    signs = (-1 if gap == 0 else int(gap > 1), int(t > 0), 1, 1,
             int(sys_.digit(k + 1) > 0))
    # a zero part is the constant 0, so it names no entry
    return tuple(_Pending(1, 1, (), ((kind, k),)) if kind == "one"
                 else _Pending(sign, 0, ((kind, k),) if sign else (), ((kind, k),))
                 for kind, sign in zip(_KINDS, signs))


def _merge(terms: tuple[_Pending, ...], const: int, parts) -> _Pending:
    """The sum of `terms` and `const` as one term with provenance `parts`."""
    const += sum(t.const for t in terms)
    refs = tuple(r for t in terms for r in t.refs)
    if not refs:
        return _Pending(_sign(const), const, (), parts)
    # deferred addends are never negative here (rule (i) has run), so the
    # sum is positive as soon as one addend is
    return _Pending(max(_sign(const), *(t.sign for t in terms)), const, refs, parts)


def _exponents_fit(sys_: WordSystem, k: int) -> bool:
    """Rule (i)'s window (f_k = 0, d_{k+1} = d_k, c_{k+1} = -e_k - 1) on
    exponents: b_{k+1} = 0, t_{k+1} = t_k, r_{k+1} + q_k - q_{k+1} = r_k."""
    return (sys_.digit(k + 1) == 0 and sys_.offset(k + 1) == sys_.offset(k)
            and sys_.suffix_len(k + 1) + sys_.q(k) - sys_.q(k + 1)
            == sys_.suffix_len(k))


def _collapse(sys_: WordSystem, blocks: Iterator) -> Iterator[_Pending]:
    """Rule (i) over the 5-term level blocks of `sys_`, one level ahead."""
    k, cur = 0, next(blocks, None)
    while cur is not None:
        if cur[0].sign < 0:  # not folded into the window of the level below
            if k == 0:
                raise InternalError("leading term cannot be negative")
            raise DigitRuleError(k, "two consecutive negative terms")
        nxt = next(blocks, None)
        if nxt is None or nxt[0].sign >= 0:
            yield from cur
            cur, k = nxt, k + 1
            continue
        if not _exponents_fit(sys_, k):
            raise InternalError(f"negative-term window malformed at k={k}")
        # c_k, ..., f_k, c_{k+1}, d_{k+1}, 1, e_{k+1} -> c_k + 1 + e_{k+1}
        yield _merge((cur[0], nxt[3]), 1,
                     tuple(p for t in cur + nxt[:4] for p in t.parts))
        yield nxt[4]  # f_{k+1} survives
        cur, k = next(blocks, None), k + 2


def _settled(t: _Pending, last: bool) -> _Pending:
    if t.sign == 0 and not last:
        raise InternalError("a non-trailing zero survived exhaustive rewriting")
    if t.sign < 0:
        raise InternalError("a negative term survived rewriting")
    return t


def _fold_zeros(terms: Iterable[_Pending]) -> Iterator[_Pending]:
    """Rule (ii) as one left-to-right stack pass, releasing settled terms.

    A zero run of odd length leaves its last zero, which folds its
    neighbours once the next term arrives (terms are nonnegative after
    rule (i), so a fold makes no new zero).  Hence a zero can only sit
    on top of the stack or at its bottom, and a term with a nonzero
    term above it can no longer change: it is released at once.
    """
    items: list[_Pending] = []
    done = 0  # items[:done] are released
    for t in terms:
        if items and items[-1].sign == 0:
            if t.sign == 0:
                items.pop()  # adjacent zero pairs act as the identity matrix
                continue
            if len(items) >= 2:
                z, x = items.pop(), items.pop()
                t = _merge((x, t), 0, x.parts + z.parts + t.parts)
        items.append(t)
        while done + 1 < len(items) and items[done + 1].sign != 0:
            yield _settled(items[done], last=False)
            done += 1
    for i in range(done, len(items)):
        yield _settled(items[i], last=i + 1 == len(items))


def _rewrite(spec: NumberSpec) -> Iterator[_Pending]:
    """Rules (i) and (ii) over every known level, nothing withheld."""
    signed = (_level_signs(spec, k) for k in range(spec.system.levels))
    return _fold_zeros(_collapse(spec.system, signed))


def final_terms(spec: NumberSpec) -> Iterator[Term]:
    """The regular expansion over the L = `spec.system.levels` known
    levels, built on demand: the terms of `_rewrite` less those involving
    levels L-2 and L-1 (a longer stream could still rewrite them) and a
    trailing zero, each valued from the entries it names."""
    levels = spec.system.levels
    if levels < 1:
        raise ConfigError("need at least one level")
    for t in _rewrite(spec):
        if t.sign and t.level <= levels - 3:
            yield Term(t.const + sum(_entry(spec, kind, k) for kind, k in t.refs),
                       t.parts)


class _Terms(tuple):
    terms = property(lambda self: self)  # the name perfbench/tracing.py reads


def continued_fraction(spec: NumberSpec, *, terms: int | None = None) -> tuple[Term, ...]:
    """The first `terms` terms of `final_terms` (all of them by default)."""
    return _Terms(islice(final_terms(spec), terms))


def convergents(terms: tuple[Term, ...], base: int) -> list[ConvergentPair]:
    """Numerator/denominator pairs along the final terms.

    The CLI prints P_j, Q_j from the same recurrence run in decimal
    (`bigint.continuants_to_decimal`); this int version is the reference
    its output is tested against."""
    pairs = []
    p_prev, q_prev = base - 1, 0  # index -1
    p_cur, q_cur = 0, base - 1  # index 0
    for j, t in enumerate(terms, start=1):
        p_prev, p_cur = p_cur, t.value * p_cur + p_prev
        q_prev, q_cur = q_cur, t.value * q_cur + q_prev
        pairs.append(ConvergentPair(p_cur, q_cur, j, t.family, t.value))
    return pairs


# height of each family's approximant at level k, shared with `exponent`
_HEIGHT = {
    "1": lambda s, k: s.suffix_len(k + 1),
    "2-1": lambda s, k: s.suffix_len(k + 1) + s.offset(k),
    "2": lambda s, k: s.suffix_len(k + 1) + s.offset(k),
    "3": lambda s, k: s.suffix_len(k + 1) + s.q(k),
    "4": lambda s, k: s.q(k + 1),
}


def formal_family_fraction(spec: NumberSpec, family: str, k: int) -> FamilyFraction:
    """Family fraction without sign restrictions (numerator and denominator
    may be negative or zero in the formal edge cases)."""
    sys_, b = spec.system, spec.base
    if family not in _HEIGHT:
        raise ConfigError(f"unknown family {family!r}")
    if k == -1:
        if family == "4":
            return FamilyFraction(word_value("0", b), b - 1, "4", -1, 1)
        if family == "3":
            # suffix at level 0 followed by the level -1 word
            num = word_value("01", b) - word_value("0", b)
            return FamilyFraction(num, 0, "3", -1, 0)
        raise ConfigError(f"family ({family}) undefined at k = -1")
    t_k, r_k = sys_.offset(k), sys_.suffix_len(k)
    r_k1 = sys_.suffix_len(k + 1)
    if family == "1":
        num = word_value(sys_.split(k + 1)[1], b) - word_value(sys_.split(k)[1], b)
        den = pow(b, r_k1) - pow(b, r_k)
        return FamilyFraction(num, den, "1", k, _HEIGHT["1"](sys_, k))
    if family == "2":
        num = word_value(sys_.split(k + 1)[1] + sys_.split(k)[0], b)
        den = pow(b, r_k1 + t_k) - 1
        return FamilyFraction(num, den, "2", k, _HEIGHT["2"](sys_, k))
    if family == "2-1":
        f2 = formal_family_fraction(spec, "2", k)
        f1 = formal_family_fraction(spec, "1", k)
        return FamilyFraction(f2.numerator - f1.numerator,
                              f2.denominator - f1.denominator,
                              "2-1", k, _HEIGHT["2-1"](sys_, k))
    if family == "3":
        rw = sys_.split(k + 1)[1]
        num = word_value(rw + sys_.standard(k), b) - word_value(rw, b)
        den = pow(b, r_k1) * (pow(b, sys_.q(k)) - 1)
        return FamilyFraction(num, den, "3", k, _HEIGHT["3"](sys_, k))
    num = word_value(sys_.aligned(k + 1), b)
    den = pow(b, sys_.q(k + 1)) - 1
    return FamilyFraction(num, den, "4", k, _HEIGHT["4"](sys_, k))


def family_fraction(spec: NumberSpec, family: str, k: int) -> FamilyFraction:
    """Family fraction as a genuine positive-denominator approximant."""
    if family == "1" and k >= 0:
        sys_ = spec.system
        if sys_.suffix_len(k + 1) <= sys_.suffix_len(k):
            raise ConfigError(
                f"family (1) at k={k} needs a_{k + 1} - b_{k + 1} >= 1"
            )
    frac = formal_family_fraction(spec, family, k)
    if frac.denominator <= 0:
        raise ConfigError(f"family ({family}) at k={k} is only formal here")
    return frac


def check_family_recurrences(spec: NumberSpec, k: int) -> dict[str, bool]:
    """Verify the five per-level recurrences between family fractions.

    Each states numerator and denominator separately, e.g. family (1) at
    level k equals c_k times family (4) at k-1 plus family (3) at k-1.
    Failure is an implementation bug, not bad input.
    """
    blk = term_block(spec, k)
    f1 = formal_family_fraction(spec, "1", k)
    f21 = formal_family_fraction(spec, "2-1", k)
    f2 = formal_family_fraction(spec, "2", k)
    f3 = formal_family_fraction(spec, "3", k)
    f4 = formal_family_fraction(spec, "4", k)
    f4p = formal_family_fraction(spec, "4", k - 1)
    results = {}

    def comp(name, left, coeff, mid, right):
        ok = (left.numerator == coeff * mid.numerator + right.numerator
              and left.denominator == coeff * mid.denominator + right.denominator)
        results[name] = ok

    if k >= 1:
        f3p = formal_family_fraction(spec, "3", k - 1)
        comp("(1)=c*(4')+(3')", f1, blk.c, f4p, f3p)
    comp("(2-1)=d*(1)+(4')", f21, blk.d, f1, f4p)
    comp("(2)=1*(2-1)+(1)", f2, 1, f21, f1)
    comp("(3)=e*(2)+(2-1)", f3, blk.e, f2, f21)
    comp("(4)=f*(3)+(2)", f4, blk.f, f3, f2)
    if not all(results.values()):
        bad = [name for name, ok in results.items() if not ok]
        raise InternalError(f"family recurrences failed at k={k}: {bad}")
    return results
