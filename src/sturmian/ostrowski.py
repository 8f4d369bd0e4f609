"""Integer and real numeration in base theta.

Integers are written as N = d_1 q_0 + d_2 q_1 + ... with digits bounded
by the partial quotients and the adjacency rule d_j = 0 whenever
d_{j+1} = a_{j+1}.  Reals sigma in [-theta, 1-theta] are written as
sigma = sum b_k theta_{k-1} under the analogous rules.  Everything here
is exact: digit extraction works on the symbolic form A + B*theta and
certifies each digit against the convergent bracket, a real one by a
floor, so no digit is guessed.  Values lying in Z theta + Z have two
admissible expansions; those are either produced explicitly by
`degenerate_expansions` or reported as `AmbiguousExpansionError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AmbiguousExpansionError,
    ConfigError,
    DigitRuleError,
    HorizonError,
    InternalError,
    InvalidInterceptError,
    PrecisionError,
    check_int,
    read_int,
    shown_int,
    validated,
)
from .slope import ConvergentTable, floor_ratio, sign_linear


@validated
class IntegerDigits(NamedTuple):
    """Digits d_1..d_{r+1} of a positive integer, most significant last."""

    digits: tuple[int, ...]

    def _check(self):
        for j, d in enumerate(self.digits, start=1):
            if type(d) is not int:
                raise DigitRuleError(j, f"digit {d!r:.200} is not an integer")
        if not self.digits or self.digits[-1] <= 0:
            raise DigitRuleError(len(self.digits), "top digit must be positive")


class InterceptDigits(NamedTuple):
    """Digit prefix b_1..b_K of a real expansion.

    `terminating` marks the prefix as the complete expansion (all later
    digits vanish), which happens exactly for values of the form
    U*theta - P with U >= 0.  A non-terminating prefix only pins the
    value down to an interval.
    """

    digits: tuple[int, ...]
    terminating: bool = False

    def digit(self, k: int) -> int:
        """b_k, reading 0 beyond the prefix when terminating."""
        digits = self.digits
        if 1 <= k <= len(digits):
            return digits[k - 1]
        if self.terminating:
            return 0
        raise HorizonError(f"digit b_{k} beyond stored prefix of length {len(digits)}")


class DegenerateIntercept(NamedTuple):
    """The two digit streams of an intercept with rho - theta = -m*theta + p.

    `level` is the l with q_l < m <= q_{l+1} (l = 0 when m = 1).  Which
    stream serves the lower word depends on the parity of l: odd l pairs
    the plain stream with the lower word, even l swaps them.
    """

    m: int
    p: int
    level: int
    stream: InterceptDigits
    stream_alt: InterceptDigits

    @property
    def lower(self) -> InterceptDigits:
        return self.stream if self.level % 2 == 1 else self.stream_alt

    @property
    def upper(self) -> InterceptDigits:
        return self.stream_alt if self.level % 2 == 1 else self.stream


def parse_fraction(text: str) -> Fraction:
    """An exact rational from the text "n" or "n/d"."""
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(read_int(num, "numerator"), read_int(den, "denominator"))
        return Fraction(read_int(text, "rational"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r:.200}: {exc}") from exc


def encode_integer(n: int, table: ConvergentTable) -> IntegerDigits:
    """Greedy expansion of a positive integer over the weights q_0, q_1, ...

    The greedy choice from the top automatically satisfies the digit
    bounds and the adjacency rule, and the result is the unique valid
    vector summing to n.
    """
    check_int(n, "integer to expand")
    if n < 1:
        raise ConfigError(f"only positive integers have an expansion, got {shown_int(n)}")
    if n >= table.q(table.horizon):
        raise HorizonError(f"{shown_int(n)} >= q_{table.horizon} = {shown_int(table.q(table.horizon))}")
    top = table.level_covering(n)  # q_top > n >= q_{top-1}: digit top is positive
    digits = [0] * top
    rem = n
    for j in range(top, 0, -1):
        digits[j - 1] = rem // table.q(j - 1)
        rem %= table.q(j - 1)
    if rem != 0:
        raise InternalError("greedy expansion left a remainder")
    return IntegerDigits(tuple(digits))


def _check_digit_rules(seq, table: ConvergentTable, leading: str) -> None:
    """Raise DigitRuleError at the first broken digit, in index order: one
    pass checks digit j for its type (an int, not a bool), for its sign,
    for d_j <= a_j, for d_1 < a_1 (`leading` is that rule's text) and,
    when d_j = a_j, for d_{j-1} = 0, a rule reported at index j - 1."""
    if len(seq) > table.horizon:
        raise HorizonError(f"{len(seq)} digits exceed horizon {table.horizon}")
    prev = 0
    for j, d in enumerate(seq, start=1):
        a = table.a(j)
        if type(d) is not int:
            raise DigitRuleError(j, f"digit {d!r:.200} is not an integer")
        if d < 0:
            raise DigitRuleError(j, f"negative digit {shown_int(d)}")
        if d > a:
            raise DigitRuleError(j, f"digit {shown_int(d)} exceeds a_{j} = {shown_int(a)}")
        if d == a and j == 1:
            raise DigitRuleError(1, f"leading digit {shown_int(d)} must be {leading}")
        if d == a and prev:
            raise DigitRuleError(j - 1, "digit before a maximal digit must vanish")
        prev = d


def _max_digit(table: ConvergentTable, digits) -> int:
    """The largest admissible b_k after b_1..b_{k-1} = `digits`, the bound
    `_check_digit_rules` enforces: a_k - 1 at k = 1 and after a nonzero
    digit, a_k after a 0."""
    return table.a(len(digits) + 1) - (not digits or digits[-1] > 0)


def decode_integer(digits, table: ConvergentTable) -> int:
    """Sum d_j q_{j-1} after validating the digit rules."""
    seq = digits.digits if isinstance(digits, IntegerDigits) else tuple(digits)
    _check_digit_rules(seq, table, f"< a_1 = {table.a(1)}")
    return sum(d * table.q(j - 1) for j, d in enumerate(seq, start=1))


def validate_real_digits(digits, table: ConvergentTable) -> None:
    """Raise DigitRuleError unless b_1 <= a_1 - 1, b_k <= a_k and the
    adjacency rule hold (no finite prefix can certify canonical form)."""
    seq = digits.digits if isinstance(digits, InterceptDigits) else tuple(digits)
    _check_digit_rules(seq, table, "<= a_1 - 1")


def digit_prefix_value(digits, table: ConvergentTable) -> tuple[int, int]:
    """(U, P) with sum of b_h theta_{h-1} over the prefix equal to U*theta - P."""
    seq = digits.digits if isinstance(digits, InterceptDigits) else tuple(digits)
    u = sum(b * table.q(h - 1) for h, b in enumerate(seq, start=1))
    p = sum(b * table.p(h - 1) for h, b in enumerate(seq, start=1))
    return u, p


def decode_real(digits, table: ConvergentTable):
    """Exact rational interval enclosing sum b_k theta_{k-1}.

    The prefix value U*theta - P is evaluated at p_{K-1}/q_{K-1} and
    p_K/q_K, which bracket theta; for a non-terminating prefix the unknown
    tail is bounded by |theta_{m-1}| < 1/q_m at the truncation index m.
    """
    if not isinstance(digits, InterceptDigits):
        digits = InterceptDigits(tuple(digits))
    validate_real_digits(digits, table)
    u, p = digit_prefix_value(digits.digits, table)
    lo, hi = sorted(Fraction(u * pk, qk) - p for pk, qk in zip(table.ps[-2:], table.qs[-2:]))
    if not digits.terminating:
        tail = Fraction(1, table.q(len(digits.digits)))
        lo, hi = lo - tail, hi + tail
    return lo, hi


def encode_real(sigma, table: ConvergentTable) -> InterceptDigits:
    """Greedy digit extraction for sigma in [-theta, 1-theta], always
    max(K - 2, 1) digits: digit k compares theta with rationals of
    convergent scale k + 2, and the last convergent pair separates theta
    from every rational of denominator below q_{K-1} + q_K.

    `sigma` is an exact Fraction (or int) or a coefficient pair (u, v)
    standing for u*theta + v, u an int and v an int or a Fraction; floats,
    and any other type, are refused because no floor can be certified
    from them.  The residual X passes the boundary between digits b - 1
    and b exactly when y = (X + theta_k)/theta_{k-1} > b - 1, so digit k
    is ceil(y) by one `floor_ratio`, clamped to 0..cap + 1 (past the
    top).  An integer y in 0..cap is a window boundary: sigma in
    Z theta + Z with two admissible branches, reported as
    AmbiguousExpansionError rather than guessed.  The bottom of the
    range is tested once, sigma + theta > 0: an accepted digit b exceeds
    y (a non-integer y rounds up, a negative one clamps to 0, an integer
    one in range is refused), so X - b theta_{k-1} + theta_k =
    theta_{k-1}(y - b) has the sign of theta_k and would pass the test.
    """
    if isinstance(sigma, float):
        raise ConfigError("float intercepts are rejected; pass a Fraction or (u, v) pair")
    coeff, const = sigma if isinstance(sigma, tuple) and len(sigma) == 2 else (0, sigma)
    check_int(coeff, "intercept coefficient u")
    if type(const) not in (int, Fraction):
        raise ConfigError(f"intercept constant {const!r:.200} is not an int or a Fraction")
    const = Fraction(const)
    orig_coeff, orig_const = coeff, const
    limit = max(table.horizon - 2, 1)

    bottom = sign_linear(table, const, coeff + 1)  # sigma + theta
    if bottom == 0:
        _raise_ambiguous((), (0, 0), coeff, const)
    if bottom < 0:
        raise InvalidInterceptError("value below -theta at digit 1; not in [-theta, 1-theta]")
    digits: list[int] = []
    for k in range(1, limit + 1):
        cap = _max_digit(table, digits)
        lo, hi = floor_ratio(table, const - table.p(k), coeff + table.q(k),
                             -table.p(k - 1), table.q(k - 1))
        # the digits ceil(y) may be, an unbounded side standing for its end
        low, high = (min(max(f + 1, 0), cap + 1)
                     for f in (-1 if lo is None else lo, cap if hi is None else hi))
        if low > high:  # y is the integer high <= cap
            _raise_ambiguous(digits, (high, min(low, cap)), orig_coeff, orig_const)
        if low < high:
            raise PrecisionError(f"digit {k} of the intercept not certified within "
                                 f"horizon {table.horizon}; raise the slope horizon")
        if low > cap:
            raise InvalidInterceptError(f"value beyond the top of the digit range at digit {k}")
        digits.append(low)
        const, coeff = const + low * table.p(k - 1), coeff - low * table.q(k - 1)
    return InterceptDigits(tuple(digits), coeff == 0 and const == 0)


def _raise_ambiguous(digits, branches, coeff, const):
    # sigma = coeff*theta + const names its degenerate form when it is
    # -m*theta + p with integers m >= 1 and p
    m, p = (-coeff, int(const)) if const.denominator == 1 and coeff < 0 else (None, None)
    raise AmbiguousExpansionError(digits, branches, m=m, p=p)


def _alternating_tail(table: ConvergentTable, first: int) -> list[int]:
    """Digits 0, a_{first+1}, 0, a_{first+3}, ... at indices first..K."""
    return [table.a(k) if (k - first) % 2 else 0
            for k in range(first, table.horizon + 1)]


def degenerate_expansions(m: int, p: int, table: ConvergentTable) -> DegenerateIntercept:
    """Both digit streams for rho - theta = -m*theta + p with m >= 1.

    The plain stream pads the integer expansion of q_{l+1} - m with the
    tail 0, a_{l+3}, 0, a_{l+5}, ...; the alternate stream bumps digit
    l+1 and continues a_{l+2}-1, 0, a_{l+4}, ... (with the special
    closed forms when m = 1, where the two streams expand 1-theta and
    -theta respectively).
    """
    check_int(m, "intercept m")
    check_int(p, "intercept p")
    if m < 1:
        raise InvalidInterceptError(f"m must be >= 1, got {shown_int(m)}")
    K = table.horizon
    if m == 1:
        if p != 0:
            raise InvalidInterceptError(f"m = 1 requires p = 0 for rho in [0,1), got p={shown_int(p)}")
        level = 0
        b = [table.a(1) - 1] + _alternating_tail(table, 2)
        b_alt = _alternating_tail(table, 1)
    else:
        # rho = -(m-1) theta + p must land in (0, 1)
        if sign_linear(table, p, -(m - 1)) <= 0:
            raise InvalidInterceptError(f"rho = -({shown_int(m)}-1)theta + {shown_int(p)} is not positive")
        if sign_linear(table, p - 1, -(m - 1)) >= 0:
            raise InvalidInterceptError(f"rho = -({shown_int(m)}-1)theta + {shown_int(p)} is not below 1")
        if m > table.q(K):
            raise HorizonError(f"m = {shown_int(m)} exceeds q_{K} = {shown_int(table.q(K))}")
        level = table.level_covering(m - 1) - 1  # q_level < m <= q_{level+1}
        x = table.q(level + 1) - m
        head = list(encode_integer(x, table).digits) if x else []
        head += [0] * (level + 1 - len(head))
        if head[level] > table.a(level + 1) - 1:
            raise InternalError("head digit b_{l+1} out of range")
        b = head + _alternating_tail(table, level + 2)
        b_alt = list(head)
        b_alt[level] += 1
        if level + 2 <= K:
            b_alt += [table.a(level + 2) - 1] + _alternating_tail(table, level + 3)
    try:
        for seq in (b, b_alt):
            validate_real_digits(seq, table)
    except DigitRuleError as exc:
        raise InternalError(f"degenerate stream breaks digit rules: {exc.rule}") from exc
    return DegenerateIntercept(
        m, p, level, InterceptDigits(tuple(b)), InterceptDigits(tuple(b_alt))
    )
