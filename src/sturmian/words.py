"""Word construction and letter access for a slope/intercept pair.

A `WordSystem` serves one binary word: the limit of the aligned words
built from an intercept digit stream.  Level words are plain '0'/'1'
strings.  Only the standard words M_k are built, by one cached recursion;
lengths grow like q_k, so a level or a prefix past the size budget
(`errors.check_budget`) is refused before it is built.  The level-k
aligned word is the conjugate of M_k at t_k, so aligned words, prefixes
and single letters are all windows of M_k read from t_k.
One descent reads such a window as blocks of at most PREFIX_BLOCK
letters, most of them one cached string: `prefix_blocks` returns them,
so a caller that only writes a prefix holds about one block, `prefix`
joins them once, its cost the one copy it returns, and a letter costs
O(K) with no storage.  `run_length_blocks` reads the run-length form
from the same blocks, one piece per block.  The floor-formula path
evaluates the same letters from the intercept directly, each floor
certified where the bounds of `slope.floor_ratio` meet.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    ConfigError,
    DigitRuleError,
    HorizonError,
    InternalError,
    PrecisionError,
    check_budget,
    check_int,
    read_int,
    read_list,
    shown_int,
)
from .ostrowski import (
    DegenerateIntercept,
    InterceptDigits,
    _max_digit,
    degenerate_expansions,
    digit_prefix_value,
    encode_real,
    parse_fraction,
    validate_real_digits,
)
from .slope import ConvergentTable, floor_ratio

# the longest level word a prefix reads whole: a prefix of n letters is
# O(n / PREFIX_BLOCK) blocks
PREFIX_BLOCK = 1 << 14


class Repetition(NamedTuple):
    """Initial repetition data: the word is head + block^(count+1) + ...

    `head` is a suffix of the level-k standard blocks, `count` is the
    certified number of whole copies of the level-k block following it
    (one more copy plus a partial block is verified letterwise).
    """

    head: str
    count: int


class FactorCountReport(NamedTuple):
    """Distinct factor count of a prefix, with the validity margin."""

    length: int
    factor_length: int
    count: int
    window_ok: bool


# a whole run of two or more equal letters, in a word spaced between its
# runs (an exponent follows "^", never a space)
_LONG_RUN = re.compile("(?<= )(?:0{2,}|1{2,})(?= )")


def _run(letter: str, count: int) -> str:
    return letter if count == 1 else f"{letter}^{count}"


def _block_runs(block: str) -> tuple[str, int, str | None, str, int]:
    """(first letter, length of the first run, the run-length form of the
    runs between the first and the last, last letter, length of the last
    run) of a nonempty block; the form is None when one run fills the
    block.  A space goes between letters that differ, then each distinct
    run of two or more is rewritten wherever it stands: C loops over the
    block, a few passes, and no list of its runs."""
    first, last = block[0], block[-1]
    head = len(block) - len(block.lstrip(first))
    if head == len(block):
        return first, head, None, last, head
    tail = len(block) - len(block.rstrip(last))
    body = block[head:len(block) - tail]
    spaced = f" {body.replace('01', '0 1').replace('10', '1 0')} "
    while match := _LONG_RUN.search(spaced):
        run = match.group()
        spaced = spaced.replace(f" {run} ", f" {_run(run[0], len(run))} ")
    return first, head, spaced[1:-1], last, tail


def run_length_blocks(blocks) -> Iterator[str]:
    """The run-length form of the word that `blocks` spell, in consecutive
    pieces of at most about one block's form each.  A run that reaches
    the end of a block is held as its letter and count, and goes out once
    a later block ends it or the blocks end.  A prefix's blocks are a few
    distinct strings, so each is read once, in a cache of a few entries
    that lives as long as the pieces."""
    runs = functools.lru_cache(maxsize=8)(_block_runs)
    letter, count, sep = "", 0, ""
    for block in blocks:
        if not block:
            continue
        first, head, body, last, tail = runs(block)
        if first == letter:
            count += head
        else:
            if count:
                yield sep + _run(letter, count)
                sep = " "
            letter, count = first, head
        if body is None:
            continue
        yield sep + _run(letter, count)
        sep = " "
        if body:
            yield " " + body
        letter, count = last, tail
    if count:
        yield sep + _run(letter, count)


def run_length(word: str) -> str:
    """Run-length form of a binary word: '1 0^4 1 0^5' style, single
    letters unexponentiated (`run_length_blocks` of the one block)."""
    return "".join(run_length_blocks([word]))


class WordSystem:
    """One Sturmian word: slope table + intercept digit stream.

    `rho` is the intercept's exact form, a pair (c, d) of integers with
    rho = c*theta + d.  Digits b_1..b_m give sigma = U*theta - P + tau,
    where the tail tau vanishes for terminating digits, so there
    rho = theta + sigma = (U+1)*theta - P (the characteristic word has
    U = P = 0); a degenerate intercept passes rho = -(m-1)*theta + p
    itself.  A digit prefix only bounds its tail, |tau| <= 1/q_m, and
    leaves `rho` None.  `upper` marks the upper word, whose floor formula
    takes ceilings (`from_degenerate` also gives it the upper digit stream).
    """

    def __init__(self, table: ConvergentTable, digits: InterceptDigits, *,
                 rho: tuple[int, int] | None = None, upper: bool = False):
        try:
            validate_real_digits(digits, table)
        except DigitRuleError as exc:
            raise ConfigError(
                f"invalid intercept digits at index {exc.index}: {exc.rule}") from exc
        self.table = table
        self.digits = digits
        self.upper = upper
        if rho is None and digits.terminating:
            u, p = digit_prefix_value(digits, table)
            rho = (u + 1, -p)
        self.rho = rho
        self._standard = {-1: "1", 0: "0"}
        self._offsets = [0]  # t_k prefix sums, index k

    # -- factories ---------------------------------------------------------

    @classmethod
    def characteristic(cls, table: ConvergentTable, **kw) -> "WordSystem":
        """The word of intercept rho = theta: all intercept digits vanish."""
        return cls(table, InterceptDigits((0,) * table.horizon, True), **kw)

    @classmethod
    def from_digits(cls, table: ConvergentTable, digits, *, terminating=None,
                    **kw) -> "WordSystem":
        if not isinstance(digits, InterceptDigits):
            digits = InterceptDigits(tuple(digits), bool(terminating))
        elif terminating is not None:
            digits = InterceptDigits(digits.digits, bool(terminating))
        return cls(table, digits, **kw)

    @classmethod
    def from_degenerate(cls, table: ConvergentTable, deg: DegenerateIntercept,
                        *, upper: bool = False) -> "WordSystem":
        stream = deg.upper if upper else deg.lower
        return cls(table, stream, rho=(1 - deg.m, deg.p), upper=upper)

    @classmethod
    def from_spec(cls, table: ConvergentTable, intercept="characteristic", *,
                  upper: bool = False) -> "WordSystem":
        """The word of an intercept in its JSON form; `upper` picks the upper word.

        `intercept` is "characteristic" (rho = theta) or an object with
        exactly one of: {"digits": [b_1, ...]} plus an optional
        boolean "terminating" (default true; false marks a digit prefix);
        {"m": m, "p": p}, the degenerate rho = -(m-1)*theta + p ("p"
        defaults to 0); {"sigma": "u/v"}, the rational sigma = rho - theta;
        {"sigma_pair": [u, "v"]}, sigma = u*theta + v.  Digits and
        sigma_pair are JSON lists (`errors.read_list`); digits, m, p and
        u are integers or decimal strings (`errors.read_int`).
        """
        if intercept == "characteristic":
            return cls.characteristic(table, upper=upper)
        if not isinstance(intercept, dict):
            raise ConfigError(f"bad intercept spec {intercept!r:.200}")
        forms = [key for key in ("digits", "m", "sigma", "sigma_pair")
                 if key in intercept]
        if len(forms) != 1:
            raise ConfigError(
                "intercept must carry exactly one of digits/m,p/sigma/sigma_pair")
        try:
            if "digits" in intercept:
                digits = tuple(read_int(b, "intercept digit")
                               for b in read_list(intercept, "digits", "intercept"))
                terminating = intercept.get("terminating", True)
                if not isinstance(terminating, bool):
                    raise ConfigError(
                        f"intercept 'terminating' must be a JSON boolean, got {terminating!r:.200}")
                return cls.from_digits(table, digits, terminating=terminating, upper=upper)
            if "m" in intercept:
                m = read_int(intercept["m"], "intercept m")
                p = read_int(intercept.get("p", 0), "intercept p")
                return cls.from_degenerate(table, degenerate_expansions(m, p, table), upper=upper)
            if "sigma" in intercept:
                return cls(table, encode_real(parse_fraction(str(intercept["sigma"])), table),
                           upper=upper)
            u, v = read_list(intercept, "sigma_pair", "intercept")
            sigma = (read_int(u, "sigma_pair u"), parse_fraction(str(v)))
            return cls(table, encode_real(sigma, table), upper=upper)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad intercept spec {intercept!r:.200}: {exc}") from exc

    # -- basic quantities ----------------------------------------------------

    def a(self, k: int) -> int:
        return self.table.a(k)

    def q(self, k: int) -> int:
        return self.table.q(k)

    def digit(self, k: int) -> int:
        return self.digits.digit(k)

    def gap(self, k: int) -> int:
        """a_k - b_k: copies of the level-(k-1) word ahead of the level-(k-2) one."""
        return self.a(k) - self.digit(k)

    @property
    def levels(self) -> int:
        """Number of levels with a known intercept digit: the number's depth."""
        return self.table.horizon if self.digits.terminating else len(self.digits.digits)

    def offset(self, k: int) -> int:
        """t_k = b_1 + b_2 q_1 + ... + b_k q_{k-1}: length of the prefix part."""
        if k < 0:
            raise ConfigError(f"offset index {k} out of range")
        while len(self._offsets) <= k:
            j = len(self._offsets)
            self._offsets.append(self._offsets[-1] + self.digit(j) * self.q(j - 1))
        return self._offsets[k]

    def suffix_len(self, k: int) -> int:
        """r_k = q_k - t_k: length of the suffix part (always >= 1)."""
        r = self.q(k) - self.offset(k)
        if r < 1:
            raise InternalError(f"suffix length r_{k} = {r} < 1")
        return r

    # -- materialized words --------------------------------------------------

    def standard(self, k: int) -> str:
        """The standard word M_k, length q_k for k >= 0: the one cached
        recursion, M_{-1} = 1, M_0 = 0, M_1 = 0^(a_1-1) 1 and
        M_k = M_{k-1}^(a_k) M_{k-2} above it; a level past the size
        budget is refused before any is built."""
        if k < -1:
            raise ConfigError(f"no standard word at level {k}")
        check_budget(self.q(max(k, 0)), f"the standard word at level {k} is", "letters")
        words = self._standard
        top = max(words)
        while top < k:
            top += 1
            words[top] = words[top - 1] * self._copies(top) + words[top - 2]
        return words[k]

    def _copies(self, k: int) -> int:
        """Copies of M_{k-1} ahead of M_{k-2} in M_k: a_k, or a_1 - 1 at level 1."""
        return self.a(k) - (k == 1)

    def aligned(self, k: int) -> str:
        """The level-k aligned word: the conjugate of M_k at t_k, so it
        starts at letter t_k of M_k and wraps; not cached.  The tests hold
        the paper's own recursion, w_k = w_{k-1}^(a_k - b_k) w_{k-2}
        w_{k-1}^(b_k), as the reference it must match."""
        head, tail = self.split(k)
        return tail + head

    def split(self, k: int) -> tuple[str, str]:
        """(prefix, suffix) of the standard word: lengths t_k and r_k."""
        w = self.standard(k)
        t = self.offset(k) if k >= 1 else 0
        return w[:t], w[t:]

    # -- windows of the standard words ---------------------------------------

    def letter(self, n: int) -> int:
        """Letter n (1-based) of the word: letter (t_k + n - 1) mod q_k of
        M_k for the least q_k > n, read by `_window` in O(K) time.  The
        offset t_k reads b_1..b_k, so a digit prefix too short is refused,
        as in `prefix_blocks`, at its first missing digit."""
        check_int(n, "letter index")
        if n < 1:
            raise ConfigError(f"letters are 1-based, got {shown_int(n)}")
        k = self.table.level_covering(n)
        i = (self.offset(k) + n - 1) % self.q(k)
        parts: list[str] = []
        self._window(k, i, i + 1, parts, {})
        return int(parts[0])

    def prefix(self, length: int) -> str:
        """First `length` letters, joined once from `prefix_blocks`."""
        return "".join(self.prefix_blocks(length))

    def prefix_blocks(self, length: int) -> tuple[str, ...]:
        """First `length` letters as consecutive blocks of at most
        PREFIX_BLOCK letters: for the least q_k > length, letters
        t_k..min(q_k, t_k + length) of M_k, then from its start on if the
        window wraps.  Whole levels and chunks go out as the one cached
        string each, and only the window's ends are copies, so the blocks
        hold a few blocks' letters per level however long the prefix.
        Every check runs here, before any block is returned: a digit
        prefix too short or a prefix past the size budget is refused
        before a caller writes anything."""
        check_int(length, "prefix length")
        if length < 0:
            raise ConfigError(f"prefix length {shown_int(length)} is negative")
        if length == 0:
            return ()
        k = self.table.level_covering(length)
        # reads b_1..b_k in order: a digit prefix too short is refused at
        # its first missing digit, whatever the length
        t, q = self.offset(k), self.q(k)
        check_budget(length, "the requested word prefix is", "letters")
        parts: list[str] = []
        chunks: dict = {}
        self._window(k, t, min(q, t + length), parts, chunks)
        if t + length > q:
            self._window(k, 0, t + length - q, parts, chunks)
        return tuple(parts)

    def _window(self, k: int, lo: int, hi: int, parts: list[str], chunks: dict) -> None:
        """Append letters lo..hi-1 (0-based) of M_k to `parts`.

        A level of at most PREFIX_BLOCK letters is a slice of its cached
        word; a larger one is walked as its runs, `_copies(k)` copies of
        M_{k-1} and then M_{k-2}.  Copies of a small level go out in
        `chunks`, repeats of its word of at most PREFIX_BLOCK letters,
        built once per (level, copies) and shared: a whole chunk is
        appended, not copied.
        """
        if self.q(k) <= PREFIX_BLOCK:  # M_{-1} too: q_{-1} = 0
            parts.append(self.standard(k)[lo:hi])
            return
        size = self.q(k - 1)
        lead = self._copies(k) * size
        per = max(PREFIX_BLOCK // size, 1)
        end = min(hi, lead)
        while lo < end:
            first = lo // size
            m = min(per, (end - 1) // size + 1 - first)
            base = first * size
            stop = min(end, base + m * size)
            if size > PREFIX_BLOCK:
                self._window(k - 1, lo - base, stop - base, parts, chunks)
            else:
                if (k - 1, m) not in chunks:
                    chunks[k - 1, m] = self.standard(k - 1) * m
                parts.append(chunks[k - 1, m][lo - base:stop - base])
            lo = stop
        if hi > lead:
            self._window(k - 2, max(lo - lead, 0), hi - lead, parts, chunks)

    # -- exact floor-formula letters -----------------------------------------

    def floor_letter(self, n: int) -> int:
        """s_n = floor(n theta + rho) - floor((n-1) theta + rho), certified.

        With rho = c*theta + d the integer d cancels, leaving
        floor((x+1) theta) - floor(x theta) for x = n - 1 + c.  A digit
        prefix has c = U + 1 up to its tail tau, |tau| <= 1/q_m, and an
        exact rho has tail 0.  Each part floor(y theta + tau) is certified
        when the low bound on floor(y theta - tail) meets the high bound on
        floor(y theta + tail), two `floor_ratio` calls; y = 0 with no tail
        is the integer 0.  An upper word takes ceilings, which add 1 to
        every part but that of 0 theta.  Else the letter is refused.
        """
        check_int(n, "letter index")
        if n < 1:
            raise ConfigError(f"letters are 1-based, got {shown_int(n)}")
        if self.rho is None:
            c = digit_prefix_value(self.digits, self.table)[0] + 1
            tail = Fraction(1, self.q(len(self.digits.digits)))
        else:
            c, tail = self.rho[0], 0

        def part(y):
            f = floor_ratio(self.table, -tail, y, 1, 0)[0]
            if f != floor_ratio(self.table, tail, y, 1, 0)[1] and (y or tail):
                if tail:
                    raise PrecisionError(
                        f"floor at n={n} not certified from the digit prefix; "
                        "declare the intercept exactly (terminating or degenerate)")
                raise PrecisionError(f"floor of {y}*theta not certified within horizon "
                                     f"{self.table.horizon}; raise the slope horizon")
            return f + 1 if self.upper and y else f

        x = n - 1 + c
        return part(x + 1) - part(x)

    # -- structural operations -----------------------------------------------

    def is_aligned_prefix(self, k: int) -> bool:
        """Whether the level-k aligned word prefixes the level-(k+1) one.

        Cross-checks the direct comparison against the digit-pattern
        criterion: the prefix fails exactly when b_1..b_{k+1} are those of
        the degenerate intercept m = 1, p = 0, of its lower stream for odd k
        and of its upper stream for even k.
        """
        direct = self.aligned(k + 1)[: self.q(k)] == self.aligned(k)
        deg = degenerate_expansions(1, 0, self.table)
        extremal = deg.lower if k % 2 == 1 else deg.upper
        criterion = any(extremal.digit(j) != self.digit(j) for j in range(1, k + 2))
        if direct != criterion:
            raise InternalError(
                f"prefix criterion mismatch at k={k}: direct={direct}"
            )
        return direct

    def common_prefix(self, k: int) -> tuple[str, int]:
        """Longest common prefix of the two concatenation orders at level k."""
        v, w = self.aligned(k + 1), self.aligned(k)
        x, y = v + w, w + v
        i = 0
        while i < len(x) and x[i] == y[i]:
            i += 1
        return x[:i], i

    def repetition(self, k: int) -> Repetition:
        """Head and repeat count of the initial level-k repetition.

        Dispatches on the digit window (reads up to digit k+4), then
        verifies the claimed decomposition letter-by-letter against the
        word itself.
        """
        if k < 0:
            raise ConfigError("repetition level must be >= 0")
        gap2 = self.gap(k + 2)
        if gap2 >= 1:
            head = self.split(k + 1)[1]
            count = self.a(k + 1)
            if gap2 == 1 and self.digit(k + 3) < self.a(k + 3):
                count += 1
        else:  # b_{k+2} = a_{k+2}
            head = self.split(k)[1] + self.standard(k + 1)
            count = self.a(k + 1)
            if self.a(k + 2) == 1:
                if self.gap(k + 3) >= 2:
                    count += 1
                elif (self.a(k + 3) == 1 and self.digit(k + 3) == 0
                      and self.gap(k + 4) == 0):
                    count += 1
        mk = self.standard(k)
        mk_prev = self.standard(k - 1)
        expected = head + mk * count + mk_prev + mk[: max(self.q(k) - 1, 0)]
        if self.prefix(len(expected)) != expected:
            raise InternalError(f"repetition decomposition failed at k={k}")
        return Repetition(head, count)

    def factor_count(self, length: int, n: int) -> FactorCountReport:
        """Distinct length-n factors among the first `length` letters.

        The window is marked valid when length >= q_j + q_{j-1} + n for
        the least q_j > n (the recurrence-function margin), which is
        enough for every length-n factor to have appeared.
        """
        if n < 1 or length < n:
            raise ConfigError("need length >= n >= 1")
        w = self.prefix(length)
        count = len({w[i:i + n] for i in range(length - n + 1)})
        try:
            j = self.table.level_covering(n)
            ok = length >= self.q(j) + self.q(j - 1) + n
        except HorizonError:
            ok = False
        return FactorCountReport(length, n, count, ok)


def formal_intercept(source, table: ConvergentTable, levels: int) -> InterceptDigits:
    """Recover the intercept digits of a word from its letters alone.

    `source` is a `WordSystem` or a function giving letter n.  At each
    level the aligned word is the unique conjugate of the standard word
    matching the source's first q_k - 1 letters; candidate offsets differ
    by multiples of q_{k-1}, so each level tries at most a_k + 1 digit
    candidates and keeps the one whose candidate word matches the source.
    Letters below q_{k-1} were matched one level down, so level k compares
    letters q_{k-1}..q_k - 1, a `prefix` window of each candidate, with
    the same window of the source: one `prefix` of a `WordSystem`, or the
    letters of a function, each read once and only as needed.
    """
    if levels > table.horizon:
        raise HorizonError(f"{levels} levels exceed horizon {table.horizon}")
    word_source = isinstance(source, WordSystem)
    digits: list[int] = []
    for k in range(1, levels + 1):
        start, stop = table.q(k - 1), table.q(k)
        seen = source.prefix(stop - 1)[start - 1:] if word_source else ""
        survivors = []
        for b in range(_max_digit(table, digits) + 1):
            probe = WordSystem.from_digits(table, (*digits, b) + (0,) * (table.horizon - k),
                                           terminating=False)
            window = probe.prefix(stop - 1)[start - 1:]
            if not word_source and window.startswith(seen):
                for c in window[len(seen):]:  # read on while the letters agree
                    seen += str(source(start + len(seen)))
                    if seen[-1] != c:
                        break
            if window == seen:
                survivors.append(b)
        if not survivors:
            raise ConfigError(
                f"no conjugate matches at level {k}: not a Sturmian word of this slope"
            )
        if len(survivors) > 1:
            raise InternalError(f"conjugate match not unique at level {k}")
        digits.append(survivors[0])
    return InterceptDigits(tuple(digits), False)
