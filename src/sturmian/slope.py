"""Slope data: partial quotients, convergents, certified theta arithmetic.

The slope is an irrational number theta in (0, 1) given by its continued
fraction expansion [0; a_1, a_2, ...].  A spec either carries a periodic
tail (covering quadratic irrationals exactly) or is a plain finite list
with an explicit horizon.  theta itself is never stored, as a float or
as a rational interval: every certified question about it is a sign,
`sign_linear`, or bounds on the floor of a Mobius image of theta,
`floor_ratio`, a floor where the two bounds meet.  Only `floor_ratio`
reads the last convergent pair, which encloses theta; a sign reads its
bounds.  The brackets of consecutive convergents nest, so whatever a
shallower pair certifies the last pair certifies with the same answer,
and when the last pair cannot, PrecisionError asks for a deeper horizon.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .errors import (ConfigError, HorizonError, InternalError, PrecisionError, check_budget,
                     read_int, read_list, shown_int, validated)


@validated
class SlopeSpec(NamedTuple):
    """Partial quotients a_1..a_K, optionally periodic after a preperiod.

    For k > len(preperiod) the quotient repeats period cyclically; with an
    empty period the horizon may not exceed the preperiod length.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()
    horizon: int = 0

    def _check(self):
        preperiod, period, horizon = self
        if type(horizon) is not int or horizon < 1:  # a bool is no horizon
            raise ConfigError("horizon must be a positive integer")
        if not preperiod and not period:
            raise ConfigError("at least one partial quotient is required")
        for a in (*preperiod, *period):
            if type(a) is not int:
                raise ConfigError(f"partial quotient {a!r} is not an integer")
            if a < 1:
                raise ConfigError("every partial quotient must be >= 1")
        if not period and horizon > len(preperiod):
            raise HorizonError(
                f"horizon {horizon} exceeds the {len(preperiod)} "
                "available partial quotients and no period was given"
            )

    def partial_quotient(self, k: int) -> int:
        """a_k for 1 <= k <= horizon."""
        preperiod, period, horizon = self
        if k < 1:
            raise ConfigError(f"partial quotient index {k} out of range")
        if k > horizon:
            raise HorizonError(f"a_{k} requested but horizon is {horizon}")
        s = len(preperiod)
        if k <= s:
            return preperiod[k - 1]
        return period[(k - s - 1) % len(period)]

    @classmethod
    def from_json(cls, obj) -> "SlopeSpec":
        """The spec of a decoded slope object.

        The object is {"preperiod": [...], "period": [...], "horizon": K};
        the lists are JSON lists (`errors.read_list`), empty if missing,
        and quotients and horizon integers or decimal strings
        (`errors.read_int`).  Anything but a dict, JSON text too, is refused.
        """
        def quotients(key):
            return tuple(read_int(a, "partial quotient")
                         for a in read_list(obj, key, "slope"))

        try:
            if not isinstance(obj, dict):
                raise ConfigError(f"slope must be a JSON object, got {obj!r:.200}")
            return cls(quotients("preperiod"), quotients("period"),
                       read_int(obj.get("horizon", 0), "horizon"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad slope {obj!r:.200}: {exc}") from exc


class ConvergentTable(NamedTuple):
    """Convergents p_k/q_k for k = -1..K with the usual seeds.

    q_{-1} = 0, q_0 = 1, p_{-1} = 1, p_0 = 0 and
    q_k = a_k q_{k-1} + q_{k-2}, likewise for p; `ps` and `qs` hold
    indices -1..K, so `ps[-2:]` and `qs[-2:]` are the last pair.
    """

    spec: SlopeSpec
    ps: tuple[int, ...]
    qs: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    def a(self, k: int) -> int:
        return self.spec.partial_quotient(k)

    def p(self, k: int) -> int:
        ps = self.ps
        if not 0 <= k + 1 < len(ps):
            raise HorizonError(f"p_{k} outside table range -1..{self.horizon}")
        return ps[k + 1]

    def q(self, k: int) -> int:
        qs = self.qs
        if not 0 <= k + 1 < len(qs):
            raise HorizonError(f"q_{k} outside table range -1..{self.horizon}")
        return qs[k + 1]

    def level_covering(self, n: int) -> int:
        """Smallest k >= 1 with q_k > n."""
        i = bisect_right(self.qs, n)  # first index with qs[i] > n
        k = max(i - 1, 1)
        if k > self.horizon or self.qs[k + 1] <= n:
            raise HorizonError(f"no level with q_k > {shown_int(n)} within horizon {self.horizon}")
        return k


def build_table(spec: SlopeSpec) -> ConvergentTable:
    """Evaluate the convergent recurrence through the spec horizon,
    checking p_k q_{k-1} - p_{k-1} q_k = (-1)^(k-1) at each step and
    refusing, level by level, a table past the size budget in bits."""
    ps = [1, 0]
    qs = [0, 1]
    bits = 0
    for k in range(1, spec.horizon + 1):
        a = spec.partial_quotient(k)
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
        bits += ps[-1].bit_length() + qs[-1].bit_length()
        check_budget(bits, "the convergent table of the slope horizon is", "bits")
        if ps[-1] * qs[-2] - ps[-2] * qs[-1] != (-1) ** (k - 1):
            raise InternalError(f"determinant identity failed at k={k}")
    return ConvergentTable(spec, tuple(ps), tuple(qs))


def sign_linear(table: ConvergentTable, const, coeff: int) -> int:
    """Certified sign of const + coeff * theta, for a rational const.

    Returns 0 exactly when const == coeff == 0 (the form is identically
    zero); for coeff != 0 the value is irrational, and its sign is a
    reading of `floor_ratio`'s bounds on its floor: +1 when the low bound
    is >= 0, -1 when the high bound is < 0.
    """
    if coeff == 0:
        return (const > 0) - (const < 0)
    lo, hi = floor_ratio(table, const, coeff, 1, 0)
    if lo >= 0:
        return 1
    if hi < 0:
        return -1
    raise PrecisionError(
        f"cannot separate {Fraction(-const, coeff)} from theta within horizon "
        f"{table.horizon}; raise the slope horizon"
    )


def floor_ratio(table: ConvergentTable, a, b: int, c: int, d: int) -> tuple[int | None, int | None]:
    """Certified bounds (lo, hi) on the floor of y = (a + b*theta)/(c + d*theta),
    for a rational a and integers b, c, d, c or d nonzero: y lies strictly
    between its values at the last pair, so lo is the floor of the smaller
    and hi the ceiling of the larger, less 1.  A pole -c/d at a convergent
    leaves y unbounded on that side, and one inside the bracket on both:
    such a bound is None.  A constant map gives its floor twice, or
    (j, j - 1) for an integer y = j.  The only reader of the last pair.
    """
    n, m = a.numerator, a.denominator  # y at x = p/q: den has the sign of c + d*x
    ends = [(n * q + m * b * p, m * (c * q + d * p))
            for p, q in zip(table.ps[-2:], table.qs[-2:])]
    (_, d0), (_, d1) = ends
    if d0 * d1 < 0:
        return None, None
    # at a pole (den 0) y tends to the infinity of num * (d0 + d1); 0/0 bounds nothing
    floors = [num // den if den else None for num, den in ends if den or num * (d0 + d1) < 0]
    ceils = [-(-num // den) if den else None for num, den in ends if den or num * (d0 + d1) > 0]
    return (None if None in floors else min(floors),
            None if None in ceils else max(ceils) - 1)
