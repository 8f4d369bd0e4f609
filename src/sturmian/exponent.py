"""Irrationality exponent machinery, as functions of the word system alone.

Each level k contributes four candidate approximants; which of them are
true convergents, and with which approximation exponent, is decided by
an exact digit-pattern dispatch.  The dispatch is data, patterns over
the digits such as "gap(k+2)>=1 & b_{k+1}=0": the acceptance rules of
each family (`_ACCEPT`), the replacement rules that merge convergents of
one value (`_REPLACE`) and the levels at which a growth ratio enters the
estimate (`_ELIGIBLE`).  One reader, `_holds`, tests them, so the rule a
record prints is the pattern that was tested.  The growth table runs to
k = L - 2 for L = `WordSystem.levels`, and the finite-horizon
irrationality exponent estimate is the running maximum of its ratios
over a trailing window, reported as exact rationals; limits are never
extrapolated.  No function takes a depth: a shallower estimate is that
of a shorter digit prefix.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .cfrac import _HEIGHT
from .errors import ConfigError, DigitRuleError, HorizonError, InternalError
from .ostrowski import InterceptDigits, validate_real_digits
from .slope import ConvergentTable
from .words import WordSystem


class NuRow(NamedTuple):
    """The four growth ratios at one level, as exact rationals."""

    k: int
    nu1: Fraction
    nu2: Fraction
    nu3: Fraction
    nu4: Fraction

    def nu(self, j: int) -> Fraction:
        return self[j]  # the fields are k, nu1, ..., nu4


class StrongRecord(NamedTuple):
    """Verdict for one family at one level.

    `mu` is the approximation exponent when accepted; `error_exponent`
    is mu times the height, the predicted base-b log of the inverse
    distance to the number (an integer up to the bounded constants).
    """

    family: str
    k: int
    accepted: bool
    rule: str
    mu: Fraction | None
    height: int
    error_exponent: Fraction | None


class EstimateReport(NamedTuple):
    """Finite-horizon exponent estimate: tail-window maxima, never limits."""

    window_full: tuple[int, int]
    window_tail: tuple[int, int]
    tail_max: dict[int, Fraction | None]
    mu_estimate: Fraction


class LiouvilleReport(NamedTuple):
    verdict: str  # "not_liouville" | "inconclusive"
    max_partial_quotient: int
    witness: tuple[Fraction, ...]  # the nu4 column: 1 + r_k/q_{k-1}, k = 2..L


class ExtremalIntercept(NamedTuple):
    digits: InterceptDigits
    spikes: tuple[int, ...]  # levels k_j; the bumped digit sits at k_j + 1


def nu_row(system: WordSystem, k: int) -> NuRow:
    t_k = system.offset(k)
    r_k = system.suffix_len(k)
    r_k1 = system.suffix_len(k + 1)
    r_k2 = system.suffix_len(k + 2)
    q_k, q_k1 = system.q(k), system.q(k + 1)
    return NuRow(
        k,
        2 + Fraction(t_k, r_k1),
        2 + Fraction(r_k, r_k1 + t_k),
        1 + Fraction(q_k1, r_k1 + q_k),
        1 + Fraction(r_k2, q_k1),
    )


def nu_table(system: WordSystem) -> list[NuRow]:
    """Rows k = 0..L-2 for L = `system.levels`: row k reads digits and
    convergents through k + 2, so the table ends where the word does."""
    return [nu_row(system, k) for k in range(system.levels - 1)]


# A pattern is atoms joined by " & ", each a read at a level relative to
# k (gap(k+i) = a_{k+i} - b_{k+i}, a_{k+i} or b_{k+i}, with k for k+0)
# and a bound (">=n" or "=n"); it holds when every atom does, the atoms
# read in the order written up to the first that fails.

# per family, its acceptance rules in order: (pattern, shift, j) accepts
# with mu = nu_j in the growth row of level k + shift
_ACCEPT = {
    "1": (("gap(k+1)>=1 & gap(k+2)>=1", 0, 1),
          ("b_k>=1 & a_{k+1}=1 & b_{k+1}=0 & gap(k+2)=0", -1, 3)),
    "2": (("gap(k+2)>=1 & b_{k+1}>=1", 0, 2),
          ("gap(k+2)>=1 & b_{k+1}=0 & gap(k+3)>=1", 0, 4),
          ("gap(k+2)>=1 & b_{k+1}=0 & gap(k+3)=0", 2, 2)),
    "3": (("b_{k+1}>=1 & gap(k+2)>=2", 0, 3),
          ("gap(k+2)=1 & gap(k+3)>=1", 1, 1),
          ("b_{k+1}>=1 & a_{k+2}=1 & b_{k+2}=0 & gap(k+3)=0", 0, 3)),
    "4": (("gap(k+2)>=2 & gap(k+3)>=1", 0, 4),
          ("b_{k+1}=0 & gap(k+2)=1 & gap(k+3)>=1", 0, 2),
          ("gap(k+3)=0", 2, 2)),
}

# the replacement rules, at most one per level: (pattern, groups,
# dropped), each id a (family, level - k); a group's ids share one value
_REPLACE = (
    ("gap(k+2)=0 & b_k>=1", ((("4", -1), ("2", 1)),),
     (("1", 0), ("2", 0), ("3", 0), ("4", 0), ("1", 1))),
    ("gap(k+2)=0 & b_k=0", ((("2", -1), ("4", -1), ("2", 1)),),
     (("3", -1), ("1", 0), ("2", 0), ("3", 0), ("4", 0), ("1", 1))),
    ("gap(k+2)=1 & gap(k+3)>=1 & b_{k+1}>=1", ((("3", 0), ("1", 1)),), (("4", 0),)),
    ("gap(k+2)=1 & gap(k+3)>=1 & b_{k+1}=0", ((("2", 0), ("4", 0)), (("3", 0), ("1", 1))), ()),
    ("gap(k+2)>=2 & gap(k+3)>=1 & b_{k+1}=0", ((("2", 0), ("4", 0)),), (("3", 0),)),
)

# the levels k whose nu_j enters the estimate; nu3 and nu4 enter at every k
_ELIGIBLE = {1: "gap(k+1)>=1 & gap(k+2)>=1", 2: "gap(k+2)>=1"}

_ATOM = re.compile(r"(?:(gap)\(k(\+\d+)?\)|([ab])_(?:k|\{k(\+\d+)\}))(>=|=)(\d+)")


@functools.cache
def _atoms(pattern: str) -> tuple:
    """A pattern as its atoms (read, shift, compare, bound), each read
    an unbound `WordSystem` method; a text that is no pattern raises."""
    reads = {"gap": WordSystem.gap, "a": WordSystem.a, "b": WordSystem.digit}
    found = [_ATOM.fullmatch(text) for text in pattern.split(" & ")]
    if None in found:
        raise InternalError(f"unreadable rule pattern {pattern!r}")
    return tuple((reads[m[1] or m[3]], int(m[2] or m[4] or 0),
                  operator.ge if m[5] == ">=" else operator.eq, int(m[6])) for m in found)


def _holds(system: WordSystem, k: int, pattern: str) -> bool:
    """Whether `pattern` holds at level k, its atoms read in order."""
    for read, i, compare, bound in _atoms(pattern):
        if not compare(read(system, k + i), bound):
            return False
    return True


def classify_families(system: WordSystem, k: int) -> list[StrongRecord]:
    """The acceptance dispatch for the four families at level k: each
    family takes the first of its `_ACCEPT` rules that holds, and is
    rejected when none does.

    Valid for k >= 2 with offset(k-1) >= 1 (words that already differ
    from the characteristic one); reads digits through k + 4.
    """
    if k < 2:
        raise ConfigError("the dispatch needs k >= 2")
    if system.offset(k - 1) < 1:
        raise ConfigError(
            f"dispatch needs offset(k-1) >= 1 at k={k}; "
            "use the pipeline classification for characteristic heads"
        )
    records = []
    for fam, rules in _ACCEPT.items():
        rule, mu = "rejected", None
        for pattern, shift, j in rules:
            if _holds(system, k, pattern):
                rule, mu = pattern, nu_row(system, k + shift).nu(j)
                break
        h = _HEIGHT[fam](system, k)
        err = None if mu is None else mu * h
        if err is not None and err.denominator != 1:
            raise InternalError(f"error exponent for ({fam})_{k} is not integral")
        records.append(StrongRecord(fam, k, mu is not None, rule, mu, h, err))
    return records


def ordered_strong_sequence(system: WordSystem, k_lo: int, k_hi: int):
    """The strong-convergent sequence after the replacement rules.

    Starts from the cyclic family list over k_lo..k_hi; at each level k
    the first `_REPLACE` rule that holds merges its groups, each a list
    of (family, level) ids sharing one value, and drops its other ids.
    Returns the groups in family order.  A rule whose ids leave the range
    is skipped, so only the interior of the window is meaningful.
    """
    group_of: dict[tuple[str, int], tuple] = {}
    removed: set[tuple[str, int]] = set()
    for k in range(k_lo, k_hi + 1):
        for pattern, groups, dropped in _REPLACE:
            if _holds(system, k, pattern):
                groups = [tuple((fam, k + i) for fam, i in g) for g in groups]
                dropped = [(fam, k + i) for fam, i in dropped]
                ids = [el for g in groups for el in g] + dropped
                if all(k_lo <= kk <= k_hi for _, kk in ids):
                    if any(el in group_of or el in removed for el in ids):
                        raise InternalError(f"replacement rules overlap at level {k}")
                    group_of.update((el, g) for g in groups for el in g)
                    removed.update(dropped)
                break
    order = [(fam, k) for k in range(k_lo, k_hi + 1) for fam in "1234"]
    # the group of each id not dropped (an ungrouped id alone), once, at its first id
    return [list(g) for g in dict.fromkeys(group_of.get(el, (el,)) for el in order
                                           if el not in removed)]


def irrationality_estimate(system: WordSystem) -> EstimateReport:
    """Finite-horizon exponent estimate over the growth table's rows
    k = 0..L-2, whose trailing half starts at (L-2)//2.

    nu(1) and nu(2) range over the k where their `_ELIGIBLE` pattern
    holds, nu(3) and nu(4) over all k; each is reported as its maximum
    over the trailing half, and the estimate is the largest of
    those.  A finite maximum is no bound on the limsup from either
    side: the golden characteristic word of 22 levels gives 377/144,
    above its exponent 1 + phi.
    """
    rows = nu_table(system)
    last = system.levels - 2
    tail_lo = last // 2
    tail_max = {j: max((r.nu(j) for r in rows[tail_lo:]
                        if j not in _ELIGIBLE or _holds(system, r.k, _ELIGIBLE[j])),
                       default=None)
                for j in range(1, 5)}
    candidates = [v for v in tail_max.values() if v is not None]
    if not candidates:
        raise HorizonError("no eligible levels in the trailing window")
    return EstimateReport((0, last), (tail_lo, last), tail_max, max(candidates))


def liouville_diagnostic(system: WordSystem) -> LiouvilleReport:
    """Bounded-slope verdict plus finite-horizon growth witnesses.

    A periodic slope spec has bounded partial quotients, hence the
    number is certainly not Liouville.  A finite spec can never prove
    unboundedness, so only the observed growth is reported: the largest
    of a_1..a_L, and the nu4 column, 1 + r_k/q_{k-1} in row k - 2.
    """
    spec = system.table.spec
    witness = tuple(row.nu4 for row in nu_table(system))
    if spec.period:
        return LiouvilleReport("not_liouville", max(spec.preperiod + spec.period),
                               witness)
    if not system.levels:
        raise HorizonError("no known level to read a partial quotient from")
    seen = map(spec.partial_quotient, range(1, system.levels + 1))
    return LiouvilleReport("inconclusive", max(seen), witness)


def extremal_intercept(table: ConvergentTable) -> ExtremalIntercept:
    """Digit stream pushing the exponent to its slope-determined maximum.

    Sparse maximal digits are placed at levels k_j + 1, where k_j is the
    smallest admissible index (respecting the spacing k_j > k_{j-1} + 2,
    the period phase that maximizes the convergent ratio, and the lower
    bound r_{k_j} >= (j-1) q_{k_j} / j).  All other digits vanish.
    """
    spec = table.spec
    if not spec.period:
        raise ConfigError("the construction needs a periodic (bounded) slope")
    K = table.horizon
    s, period_len = len(spec.preperiod), len(spec.period)

    # Phase of k (mod period) with the largest ratio q_k/q_{k-1} near the end.
    best_phase, best_ratio = None, None
    for k in range(max(K - period_len + 1, s + 2), K + 1):
        ratio = Fraction(table.q(k), table.q(k - 1))
        if best_ratio is None or ratio > best_ratio:
            best_ratio, best_phase = ratio, (k - s) % period_len

    digits = [0] * K
    spikes: list[int] = []
    t_cur = 0
    j = 1
    k = max(3, s + 1)
    while k + 1 <= K:
        admissible = (k - s) % period_len == best_phase and k > s
        if admissible and j >= 2:
            admissible = j * (table.q(k) - t_cur) >= (j - 1) * table.q(k)
        if admissible:
            digits[k] = table.a(k + 1)  # digit b_{k+1}
            spikes.append(k)
            t_cur += table.a(k + 1) * table.q(k)
            j += 1
            k += 3
        else:
            k += 1
    if len(spikes) < 2:
        raise HorizonError(
            f"horizon {K} too small to place two maximal digits"
        )
    out = InterceptDigits(tuple(digits), False)
    try:
        validate_real_digits(out, table)
    except DigitRuleError as exc:
        raise InternalError(f"extremal digits violate the rules: {exc.rule}") from exc
    return ExtremalIntercept(out, tuple(spikes))
