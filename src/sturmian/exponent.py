"""Irrationality exponent machinery, as functions of the word system alone.

Each level k contributes four candidate approximants; which of them are
true convergents, and with which approximation exponent, is decided by
an exact digit-pattern dispatch.  The growth table runs to k = L - 2 for
L = `WordSystem.levels`, and the finite-horizon irrationality exponent
estimate is the running maximum of its ratios over a trailing window,
reported as exact rationals; limits are never extrapolated.  No function
takes a depth: a shallower estimate is that of a shorter digit prefix.
"""

from __future__ import annotations

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


def classify_families(system: WordSystem, k: int) -> list[StrongRecord]:
    """The acceptance dispatch for the four families at level k.

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

    a, b, gap = system.a, system.digit, system.gap
    records = []

    def emit(fam, accepted, rule, mu):
        h = _HEIGHT[fam](system, k)
        err = mu * h if mu is not None else None
        if err is not None and err.denominator != 1:
            raise InternalError(f"error exponent for ({fam})_{k} is not integral")
        records.append(StrongRecord(fam, k, accepted, rule, mu, h, err))

    # family (1)
    if gap(k + 1) >= 1 and gap(k + 2) >= 1:
        emit("1", True, "gap(k+1)>=1 & gap(k+2)>=1", nu_row(system, k).nu1)
    elif b(k) >= 1 and a(k + 1) == 1 and b(k + 1) == 0 and gap(k + 2) == 0:
        emit("1", True, "b_k>=1 & a_{k+1}=1 & b_{k+1}=0 & gap(k+2)=0",
             nu_row(system, k - 1).nu3)
    else:
        emit("1", False, "rejected", None)

    # family (2)
    if gap(k + 2) >= 1:
        if b(k + 1) >= 1:
            emit("2", True, "gap(k+2)>=1 & b_{k+1}>=1", nu_row(system, k).nu2)
        elif gap(k + 3) >= 1:
            emit("2", True, "gap(k+2)>=1 & b_{k+1}=0 & gap(k+3)>=1",
                 nu_row(system, k).nu4)
        else:
            emit("2", True, "gap(k+2)>=1 & b_{k+1}=0 & gap(k+3)=0",
                 nu_row(system, k + 2).nu2)
    else:
        emit("2", False, "rejected", None)

    # family (3)
    if b(k + 1) >= 1 and gap(k + 2) >= 2:
        emit("3", True, "b_{k+1}>=1 & gap(k+2)>=2", nu_row(system, k).nu3)
    elif gap(k + 2) == 1 and gap(k + 3) >= 1:
        emit("3", True, "gap(k+2)=1 & gap(k+3)>=1", nu_row(system, k + 1).nu1)
    elif (b(k + 1) >= 1 and a(k + 2) == 1 and b(k + 2) == 0
          and gap(k + 3) == 0):
        emit("3", True, "b_{k+1}>=1 & a_{k+2}=1 & b_{k+2}=0 & gap(k+3)=0",
             nu_row(system, k).nu3)
    else:
        emit("3", False, "rejected", None)

    # family (4)
    if gap(k + 2) >= 2 and gap(k + 3) >= 1:
        emit("4", True, "gap(k+2)>=2 & gap(k+3)>=1", nu_row(system, k).nu4)
    elif b(k + 1) == 0 and gap(k + 2) == 1 and gap(k + 3) >= 1:
        emit("4", True, "b_{k+1}=0 & gap(k+2)=1 & gap(k+3)>=1",
             nu_row(system, k).nu2)
    elif gap(k + 3) == 0:
        emit("4", True, "gap(k+3)=0", nu_row(system, k + 2).nu2)
    else:
        emit("4", False, "rejected", None)
    return records


def ordered_strong_sequence(system: WordSystem, k_lo: int, k_hi: int):
    """The strong-convergent sequence after the replacement rules.

    Starts from the cyclic family list over k_lo..k_hi and applies the
    three merge rules; returns a list of groups, each a list of (family,
    level) ids sharing one value.  Rules whose window leaves the range
    are skipped, so only the interior of the window is meaningful.
    """
    gap = system.gap
    order = [(fam, k) for k in range(k_lo, k_hi + 1) for fam in "1234"]
    group_of: dict[tuple[str, int], list] = {}
    removed: set[tuple[str, int]] = set()

    def make_group(members, dropped):
        for el in members + dropped:
            if el in group_of or el in removed:
                raise InternalError(f"replacement rules overlap at {el}")
        g = list(members)
        for el in members:
            group_of[el] = g
        removed.update(dropped)

    for k in range(k_lo, k_hi + 1):
        in_range = lambda *els: all(k_lo <= kk <= k_hi for _, kk in els)
        if gap(k + 2) == 0:
            if system.digit(k) >= 1:
                members = [("4", k - 1), ("2", k + 1)]
                dropped = [("1", k), ("2", k), ("3", k), ("4", k), ("1", k + 1)]
            else:
                members = [("2", k - 1), ("4", k - 1), ("2", k + 1)]
                dropped = [("3", k - 1), ("1", k), ("2", k), ("3", k),
                           ("4", k), ("1", k + 1)]
            if in_range(*(members + dropped)):
                make_group(members, dropped)
        elif gap(k + 2) == 1 and gap(k + 3) >= 1:
            if system.digit(k + 1) >= 1:
                if in_range(("3", k), ("4", k), ("1", k + 1)):
                    make_group([("3", k), ("1", k + 1)], [("4", k)])
            else:
                if in_range(("2", k), ("3", k), ("4", k), ("1", k + 1)):
                    make_group([("2", k), ("4", k)], [])
                    make_group([("3", k), ("1", k + 1)], [])
        elif gap(k + 2) >= 2 and gap(k + 3) >= 1 and system.digit(k + 1) == 0:
            if in_range(("2", k), ("3", k), ("4", k)):
                make_group([("2", k), ("4", k)], [("3", k)])

    sequence = []
    seen = set()
    for el in order:
        if el in removed:
            continue
        if el in group_of:
            g = tuple(group_of[el])
            if g not in seen:
                seen.add(g)
                sequence.append(list(g))
        else:
            sequence.append([el])
    return sequence


def irrationality_estimate(system: WordSystem) -> EstimateReport:
    """Finite-horizon exponent estimate over the growth table's rows
    k = 0..L-2, whose trailing half starts at (L-2)//2.

    nu(1) ranges over k with both gaps positive, nu(2) over k with
    gap(k+2) >= 1, nu(3) and nu(4) over all k; each is reported as its
    maximum over the trailing half, and the estimate is the largest of
    those.  A finite maximum is no bound on the limsup from either
    side: the golden characteristic word of 22 levels gives 377/144,
    above its exponent 1 + phi.
    """
    rows = nu_table(system)
    last = system.levels - 2
    tail_lo = last // 2
    gap = system.gap
    eligible = {
        1: lambda k: gap(k + 1) >= 1 and gap(k + 2) >= 1,
        2: lambda k: gap(k + 2) >= 1,
        3: lambda k: True,
        4: lambda k: True,
    }
    tail_max = {j: max((r.nu(j) for r in rows[tail_lo:] if eligible[j](r.k)), default=None)
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
