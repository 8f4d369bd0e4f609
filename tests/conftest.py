import functools
import json
import random
from fractions import Fraction

import pytest

from sturmian import PrecisionError, SlopeSpec, SturmianError, build_table
from sturmian.cfrac import NumberSpec, Term, _entry, _evaluate
from sturmian.ostrowski import InterceptDigits
from sturmian.words import WordSystem


def table_for(preperiod, period=None, horizon=12):
    period = preperiod if period is None else period
    return build_table(SlopeSpec(tuple(preperiod), tuple(period), horizon))


def golden_table(horizon=25):
    return table_for((1,), (1,), horizon)


def random_slope_table(rng, horizon, amax=9):
    pre = tuple(rng.randint(1, amax) for _ in range(horizon))
    return build_table(SlopeSpec(pre, pre, horizon))


def random_digits(rng, table, n, allow_max=True):
    """A uniformly-made valid digit vector b_1..b_n."""
    digs = []
    prev = 1
    for k in range(1, n + 1):
        hi = table.a(k) - 1 if (k == 1 or prev >= 1 or not allow_max) else table.a(k)
        d = rng.randint(0, hi)
        digs.append(d)
        prev = d
    return tuple(digs)


def replace_raises_as_built(record, **changes):
    """`record._replace(**changes)`, and `_make` over the same fields,
    raise the error its constructor raises there, type and message."""
    cls, fields = type(record), {**record._asdict(), **changes}
    with pytest.raises(SturmianError) as built:
        cls(**fields)
    for remake in (lambda: record._replace(**changes), lambda: cls._make(fields.values())):
        with pytest.raises(SturmianError) as got:
            remake()
        assert (type(got.value), str(got.value)) == (type(built.value), str(built.value))


def slope_json(spec):
    """The slope object of `spec` as JSON text, numbers as decimal strings
    (the form `SlopeSpec.from_json` reads back once decoded)."""
    return json.dumps(
        {
            "preperiod": [str(a) for a in spec.preperiod],
            "period": [str(a) for a in spec.period],
            "horizon": str(spec.horizon),
        },
        sort_keys=True,
    )


def lower(enc):
    """The lower end lo/den of a `ValueEnclosure`, as a Fraction."""
    return Fraction(enc.lo, enc.den)


def upper(enc):
    """The upper end hi/den of a `ValueEnclosure`, as a Fraction."""
    return Fraction(enc.hi, enc.den)


def width(enc):
    """The width (hi - lo)/den of a `ValueEnclosure`, as a Fraction."""
    return Fraction(enc.hi - enc.lo, enc.den)


def cf_value(terms):
    """Fold a continued fraction [a0; a1, ...] back into a fraction."""
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + (1 / value if value else Fraction(0))
    return value


def cf_convergents(partial_quotients):
    """Convergents of [0; a_1, a_2, ...] (no leading integer part)."""
    out = []
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    for a in partial_quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append(Fraction(p, q))
    return out


def theta_value(table):
    """High-precision rational stand-in for theta, strictly inside the
    deepest convergent bracket (error below half its width)."""
    k = table.horizon
    a = Fraction(table.p(k - 1), table.q(k - 1))
    b = Fraction(table.p(k), table.q(k))
    return (a + b) / 2


def reference_compare_with_theta(table, x):
    """Sign of x - theta for a Fraction x: refine the convergent brackets
    from level 0 until x falls outside one, with one Fraction comparison
    per bracket end (kept apart from `slope`'s reading of the last pair)."""
    for level in range(table.horizon):
        pl, ql = table.p(level), table.q(level)
        ph, qh = table.p(level + 1), table.q(level + 1)
        if level % 2:  # odd level: p_l/q_l above theta
            pl, ql, ph, qh = ph, qh, pl, ql
        if x.numerator * ql <= pl * x.denominator:
            return -1
        if x.numerator * qh >= ph * x.denominator:
            return 1
    raise PrecisionError(
        f"cannot separate {x} from theta within horizon {table.horizon}; "
        "raise the slope horizon"
    )


def reference_sign_linear(table, const, coeff):
    """`slope.sign_linear` by the bracket walk: the sign of const + coeff*theta."""
    if coeff == 0:
        if const > 0:
            return 1
        if const < 0:
            return -1
        return 0
    x = Fraction(-const, coeff) if isinstance(const, int) else -Fraction(const) / coeff
    c = reference_compare_with_theta(table, x)
    return -c if coeff > 0 else c


def reference_floor_theta_multiple(table, x):
    """Floor of x*theta from the first convergent pair, walking up from
    the level below q_k > |x|, whose two ends have one floor."""
    if x == 0:
        return 0
    start = max(table.level_covering(abs(x)) - 1, 0) if abs(x) < table.q(table.horizon) else 0
    for level in range(start, table.horizon):
        pl, ql = table.p(level), table.q(level)
        ph, qh = table.p(level + 1), table.q(level + 1)
        f1 = (x * pl) // ql
        f2 = (x * ph) // qh
        if f1 == f2:
            return f1
    raise PrecisionError(
        f"floor of {x}*theta not certified within horizon {table.horizon}; "
        "raise the slope horizon"
    )


def degenerate_p(table, m):
    """The p that puts the degenerate intercept rho = -(m-1) theta + p in
    (0, 1): ceil((m-1) theta), from `reference_floor_theta_multiple`."""
    return -reference_floor_theta_multiple(table, 1 - m)


def outcome(fn, *args):
    """The result, or the PrecisionError's message."""
    try:
        return fn(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture
def golden():
    return golden_table()


@pytest.fixture
def slope532():
    """Slope a = (5, 3, 2) repeated; a small slope with mixed quotients."""
    return table_for((5, 3, 2), horizon=12)


def word_system(table, digits, terminating=True, **kw):
    return WordSystem.from_digits(table, digits, terminating=terminating, **kw)


def reference_aligned(system, k):
    """The level-k aligned word by the paper's own recursion, kept apart
    from `WordSystem`'s windows of the standard words: w_{-1} = 1,
    w_0 = 0, w_1 = 0^(gap_1 - 1) 1 0^(b_1) and
    w_k = w_{k-1}^(gap_k) w_{k-2} w_{k-1}^(b_k), with gap_k = a_k - b_k."""
    words = ["1", "0"]  # levels -1 and 0
    for j in range(1, k + 1):
        gap, b = system.gap(j), system.digit(j)
        if j == 1:
            words.append("0" * (gap - 1) + "1" + "0" * b)
        else:
            words.append(words[-1] * gap + words[-2] + words[-1] * b)
    return words[k + 1]


def shallower_word(system, levels):
    """`system` known to `levels` levels only: its intercept digits
    1..levels as a digit prefix on the same table, with the same `upper`."""
    digits = tuple(system.digit(k) for k in range(1, levels + 1))
    return WordSystem(system.table, InterceptDigits(digits, False), upper=system.upper)


def shallower(spec, levels):
    """`spec` known to `levels` levels only (`shallower_word`).  The term
    pipeline reads no other digit, so its terms are those of `spec` over
    `levels` levels."""
    return NumberSpec(spec.base, shallower_word(spec.system, levels))


def entry_value(spec, kind, k):
    """The int value of entry `kind` of level k, from the form `_entry`
    gives."""
    return _evaluate(_entry(spec, kind, k), spec.base)


def raw_terms(spec, levels):
    """The improper stream c_0, d_0, 1, e_0, f_0, c_1, ... of `levels`
    levels as concrete terms, each entry from `_entry`."""
    return [Term(1 if kind == "one" else entry_value(spec, kind, k), ((kind, k),))
            for k in range(levels) for kind in ("c", "d", "one", "e", "f")]


def value_refs(spec, terms):
    """The entries (kind, level) that the values of `terms` read, in
    order: each term's parts less the constant 1s, the zero parts and the
    interior of a rule-(i) window, whose value is c_k + 1 + e_{k+1}.
    Signs are read from the entries' values."""
    entry = functools.cache(functools.partial(entry_value, spec))
    refs = []
    for t in terms:
        interior = set()
        for kind, k in t.parts:
            if kind == "c" and entry(kind, k) < 0:
                interior |= {("d", k - 1), ("e", k - 1), ("f", k - 1), ("c", k), ("d", k)}
        refs += [(kind, k) for kind, k in t.parts if kind != "one"
                 and entry(kind, k) != 0 and (kind, k) not in interior]
    return refs


def evaluated(spec, pending):
    """Concrete terms of rewrite terms: each one's constant plus the
    entries it names."""
    return [Term(t.const + sum(entry_value(spec, kind, k) for kind, k in t.refs),
                 t.parts) for t in pending]


def stream_matrix(terms, base):
    """Seeded 2x2 product over a term sequence; invariant under both rules."""
    m = ((0, base - 1), (base - 1, 0))
    for t in terms:
        a, b_, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
        m = ((a * t.value + b_, a), (c * t.value + d, c))
    return m
