"""Continued fraction of a number whose base-b digits form a Sturmian word.

The expansion is assembled per level from four integer term families
(c, d, e, f of `_entry`, plus a constant 1), giving an improper
expansion that may contain zeros and one negative-term shape.  Two local
rewrite rules repair it into the regular expansion:

  (i)  a negative term c_{k+1} = -e_k - 1 collapses the nine terms
       c_k, d_k, 1, e_k, f_k, c_{k+1}, d_{k+1}, 1, e_{k+1} into the
       single positive term c_k + 1 + e_{k+1};
  (ii) any window x, 0, y collapses to x + y (adjacent zero pairs act
       as the identity and are simply deleted).

Both rules are elementary 2x2 matrix identities, so the value of the
expansion is preserved exactly at every step; tests check the matrix
products.  Every term carries provenance: which raw parts were merged
into it and hence which convergent family the corresponding convergent
belongs to.  The convergent after each part of the block c_k, d_k, 1,
e_k, f_k is a family fraction, (1)_k, (2-1)_k, (2)_k, (3)_k and (4)_k in
turn, and each family but (2-1) is the value of the eventually periodic
word that its `_WORDS` pair (x, y) gives, y followed by x's rest forever;
(2-1) is (2) minus (1).

Every entry is a closed form (s, x, z, y, c0), the value
s*b^x*G(b^z, y) + c0 with G(X, y) = 1 + X + ... + X^(y-1), and so is
each of Böhmer's closed-form terms: `_entry` and `boehmer_form` write
them, and `_evaluate` alone values one as an int.  A released term
(`TermForm`) is its constant plus the forms of the entries it sums.
`continued_fraction` values it as an int (`Term`), which the oracle and
the library's references use; the CLI prints it from its forms in exact
decimal (`bigint.forms_to_decimal`), so no printed term is converted
from binary.

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
part ends up in exactly one released term, which builds the forms of the
entries it names and nothing else: none is built twice or kept,
`--terms N` pays only for its N terms, and no expansion builds its last
two levels.  The depth belongs to the word system: one level per known
intercept digit (`WordSystem.levels`), so a shallower number is a
shorter digit prefix.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import (ConfigError, DigitRuleError, InternalError, check_budget, check_int,
                     check_type, shown_int, validated)
from .slope import ConvergentTable
from .words import WordSystem

# Family tag of a surviving raw part: position in the 5-term level block.
_PART_FAMILY = {"c": "1", "d": "2-1", "one": "2", "e": "3", "f": "4"}
_KINDS = tuple(_PART_FAMILY)

# Each entry of the improper expansion, and each Böhmer term, is a form
# (s, x, z, y, c0): the value s * b^x * G(b^z, y) + c0, where the geometric
# sum G(X, y) = 1 + X + ... + X^(y-1) is 0 for y <= 0
Form = tuple[int, int, int, int, int]


@validated
class NumberSpec(NamedTuple):
    """A Sturmian number: base b >= 2 digits over {0, b-1} from a word."""

    base: int
    system: WordSystem

    def _check(self):
        check_int(self.base, "base", least=2)
        check_type(self.system, WordSystem, "system")


# the deepest level of a term's raw parts, and its convergent family: that
# of its last merged part
_LEVEL = property(lambda self: max(k for _, k in self.parts))
_FAMILY = property(lambda self: (_PART_FAMILY[self.parts[-1][0]], self.parts[-1][1]))


class Term(NamedTuple):
    """One stream term plus the raw parts merged into it."""

    value: int
    parts: tuple[tuple[str, int], ...]

    level = _LEVEL
    family = _FAMILY


class TermForm(NamedTuple):
    """One stream term as its closed form, `const` plus the `Form`s of the
    entries it sums, with the raw parts merged into it."""

    const: int
    forms: tuple[Form, ...]
    parts: tuple[tuple[str, int], ...]

    level = _LEVEL
    family = _FAMILY

    def value(self, base: int) -> int:
        return self.const + sum(_evaluate(f, base) for f in self.forms)


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
    past the call until the cyclic GC runs.  A leaf is read by `int` up
    to base 36, letter by letter past it."""
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
    """G(b^step, count) = 1 + x + ... + x^(count-1) with x = b^step, zero
    when count <= 0.

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


def _evaluate(form: Form, base: int) -> int:
    """The int value of a form, s * b^x * G(b^z, y) + c0."""
    s, x, z, y, c0 = form
    v = pow(base, x) if y == 1 else pow(base, x) * _geom(base, z, y)
    return (v if s > 0 else -v) + c0


def _check_power(base: int, exponent: int, what: str):
    """Refuse with HorizonError a power base^e, e <= `exponent`, that may
    have bits past the size budget ((b - 1).bit_length() is the ceiling
    of log2 b)."""
    check_budget(exponent * (base - 1).bit_length(), f"{what} needs powers of the base", "bits")


def _entry(spec: NumberSpec, kind: str, k: int) -> Form:
    """Entry `kind` of level k, one of the four integers that feed the
    improper expansion beside the constant 1, as its form:

      c_k = b^(r_k + q_{k-1}) G(b^(q_k), a_{k+1} - b_{k+1} - 1),
            or -b^(r_k + q_{k-1} - q_k) when a_{k+1} = b_{k+1},
      d_k = b^(t_k) - 1,   e_k = b^(r_k) - 1,
      f_k = b^(t_k) G(b^(q_k), b_{k+1}).

    Signs are as the module docstring states.  Reads intercept digit
    k+1; its powers of the base reach at most b^(q_{k+1})."""
    sys_, b = spec.system, spec.base
    _check_power(b, sys_.table.q(k + 1), f"level {k}")
    if kind == "d":
        return 1, sys_.offset(k), 0, 1, -1
    if kind == "e":
        return 1, sys_.suffix_len(k), 0, 1, -1
    if kind == "f":
        return 1, sys_.offset(k), sys_.q(k), sys_.digit(k + 1), 0
    r, qk, qk1 = sys_.suffix_len(k), sys_.q(k), sys_.table.q(k - 1)
    gap = sys_.gap(k + 1)
    if gap == 0:
        # b_k = 0 here, so r_{k-1} = r_k + q_{k-1} - q_k
        return -1, r + qk1 - qk, 0, 1, 0
    return 1, r + qk1, qk, gap - 1, 0


def boehmer_form(table, base: int, k: int) -> Form:
    """The form of Böhmer's closed-form partial quotient
    (b^(q_k) - b^(q_{k-2}))/(b^(q_{k-1}) - 1) = b^(q_{k-2}) G(b^(q_{k-1}), a_k).

    Only valid for the characteristic word (all intercept digits zero).
    """
    check_type(table, ConvergentTable, "table")
    check_int(base, "base", least=2)
    check_int(k, "level")
    if k < 1:
        raise ConfigError("closed-form terms start at k = 1")
    _check_power(base, table.q(k), f"closed-form term {k}")  # b^(q_k) at most
    return 1, table.q(k - 2), table.q(k - 1), table.a(k), 0


def boehmer_term(table, base: int, k: int) -> int:
    """The value of `boehmer_form`."""
    return _evaluate(boehmer_form(table, base, k), base)


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


def final_terms(spec: NumberSpec) -> Iterator[TermForm]:
    """The regular expansion over the L = `spec.system.levels` known
    levels, built on demand: the terms of `_rewrite` less those involving
    levels L-2 and L-1 (a longer stream could still rewrite them) and a
    trailing zero, each as the forms of the entries it names."""
    levels = spec.system.levels
    if levels < 1:
        raise ConfigError("need at least one level")
    for t in _rewrite(spec):
        if t.sign and t.level <= levels - 3:
            yield TermForm(t.const, tuple(_entry(spec, kind, k) for kind, k in t.refs),
                           t.parts)


def term_forms(spec: NumberSpec, *, terms: int | None = None) -> tuple[TermForm, ...]:
    """The first `terms` terms of `final_terms` (all of them by default,
    or when `terms` is past what any expansion could hold)."""
    check_type(spec, NumberSpec, "spec")
    if terms is not None:
        check_int(terms, "terms", least=0)
    return tuple(islice(final_terms(spec), None if terms is None else min(terms, sys.maxsize)))


class _Terms(tuple):
    terms = property(lambda self: self)  # the name perfbench/tracing.py reads


def continued_fraction(spec: NumberSpec, *, terms: int | None = None) -> tuple[Term, ...]:
    """The terms of `term_forms`, valued as ints."""
    return _Terms(Term(t.value(spec.base), t.parts) for t in term_forms(spec, terms=terms))


def convergents(terms: tuple[Term, ...], base: int) -> list[ConvergentPair]:
    """Numerator/denominator pairs along the final terms.

    The CLI prints P_j, Q_j from the same recurrence run in decimal
    (`bigint.continuants_to_decimal`); this int version is the reference
    its output is tested against."""
    check_int(base, "base", least=2)
    if not isinstance(terms, (tuple, list)) or not all(isinstance(t, Term) for t in terms):
        raise ConfigError(f"terms {terms!r:.200} is not a sequence of Term records")
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
    "2": lambda s, k: s.suffix_len(k + 1) + s.offset(k),
    "3": lambda s, k: s.suffix_len(k + 1) + s.q(k),
    "4": lambda s, k: s.q(k + 1),
}

# the words (x, y) of each family at level k, y a prefix of x: the family
# fraction is (V(x) - V(y))/(b^|x| - b^|y|), the value of y w^omega where
# x = y w; (2-1) is (2) minus (1)
_WORDS = {
    "1": lambda s, k: (s.split(k + 1)[1], s.split(k)[1]),
    "2": lambda s, k: (s.split(k + 1)[1] + s.split(k)[0], ""),
    "3": lambda s, k: (s.split(k + 1)[1] + s.standard(k), s.split(k + 1)[1]),
    "4": lambda s, k: (s.aligned(k + 1), ""),
}


def formal_family_fraction(spec: NumberSpec, family: str, k: int) -> FamilyFraction:
    """Family fraction without sign restrictions (numerator and denominator
    may be negative or zero in the formal edge cases).  Only (4) is
    defined at k = -1, where aligned(0) = "0" gives 0/(b - 1)."""
    check_type(spec, NumberSpec, "spec")
    if family not in _PART_FAMILY.values():
        raise ConfigError(f"unknown family {family!r:.200}")
    check_int(k, "level")
    if k < -1 or k == -1 and family != "4":
        raise ConfigError(f"family ({family}) undefined at k = {shown_int(k)}")
    if family == "2-1":
        two, one = (formal_family_fraction(spec, j, k) for j in "21")
        return two._replace(numerator=two.numerator - one.numerator,
                            denominator=two.denominator - one.denominator, family="2-1")
    b = spec.base
    x, y = _WORDS[family](spec.system, k)
    return FamilyFraction(word_value(x, b) - word_value(y, b), pow(b, len(x)) - pow(b, len(y)),
                          family, k, _HEIGHT[family](spec.system, k))


def family_fraction(spec: NumberSpec, family: str, k: int) -> FamilyFraction:
    """Family fraction as a genuine positive-denominator approximant.  The
    denominator of (1) is b^(r_{k+1}) - b^(r_k), positive exactly when
    a_{k+1} - b_{k+1} >= 1."""
    frac = formal_family_fraction(spec, family, k)
    if frac.denominator > 0:
        return frac
    if family == "1":
        raise ConfigError(f"family (1) at k={k} needs a_{k + 1} - b_{k + 1} >= 1")
    raise ConfigError(f"family ({family}) at k={k} is only formal here")


def check_family_recurrences(spec: NumberSpec, k: int) -> dict[str, bool]:
    """Verify the five per-level recurrences between family fractions.

    The families are the convergents after each part of the level block,
    so one walk in block order, from (3) and (4) at level k-1, checks that
    each equals its entry times the previous family plus the one before,
    numerator and denominator apart: (1) at k is c_k times (4) at k-1 plus
    (3) at k-1, and so on up to (4) at k.  At k = 0 the (1) check is
    skipped, (3) being undefined at -1.  Failure is an implementation
    bug, not bad input.
    """
    check_type(spec, NumberSpec, "spec")
    check_int(k, "level")
    entries = {kind: _evaluate(_entry(spec, kind, k), spec.base) for kind in "cdef"} | {"one": 1}
    walk = [("3'", formal_family_fraction(spec, "3", k - 1) if k else None),
            ("4'", formal_family_fraction(spec, "4", k - 1))]
    results = {}
    for kind in _KINDS:
        (older_name, older), (last_name, last) = walk[-2:]
        family = _PART_FAMILY[kind]
        frac = formal_family_fraction(spec, family, k)
        if older is not None:
            coeff = entries[kind]
            name = f"({family})={coeff if kind == 'one' else kind}*({last_name})+({older_name})"
            results[name] = (
                frac.numerator == coeff * last.numerator + older.numerator
                and frac.denominator == coeff * last.denominator + older.denominator)
        walk.append((family, frac))
    if not all(results.values()):
        bad = [name for name, ok in results.items() if not ok]
        raise InternalError(f"family recurrences failed at k={k}: {bad}")
    return results
