import functools
import gc
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import (
    ConfigError,
    DigitRuleError,
    HorizonError,
    InternalError,
    SlopeSpec,
    SturmianError,
    build_table,
    boehmer_term,
    check_family_recurrences,
    continued_fraction,
    convergents,
    degenerate_expansions,
    family_fraction,
)
from sturmian import cfrac, errors
from sturmian.cfrac import (
    NumberSpec,
    Term,
    _bits_as_base,
    _collapse,
    _exponents_fit,
    _fold_zeros,
    _geom,
    _level_signs,
    _Pending,
    _rewrite,
    final_terms,
    term_forms,
    formal_family_fraction,
    word_value,
)
from sturmian.words import WordSystem

from conftest import (
    entry_value,
    evaluated,
    golden_table,
    random_digits,
    random_slope_table,
    raw_terms,
    replace_raises_as_built,
    shallower,
    stream_matrix,
    table_for,
    value_refs,
    word_system,
)


def mat(x):
    return ((x, 1), (1, 0))


def matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def characteristic_spec(table, base):
    return NumberSpec(base, WordSystem.characteristic(table))


def negative_term_spec(base=2):
    # digits 0, 0, 0, a_4, 0, ... make a_4 = b_4 (negative c_3 branch)
    t = table_for((2, 3, 2, 3), horizon=14)
    digs = [0] * 12
    digs[3] = t.a(4)
    return NumberSpec(base, word_system(t, tuple(digs)))


def test_number_spec_replace_validates_as_the_constructor_does(golden):
    spec = characteristic_spec(golden, 3)
    for base in (1, 0, -2):
        replace_raises_as_built(spec, base=base)
    assert spec._replace(base=2).base == 2


def test_entries_of_level_zero(golden, slope532):
    for t, b in [(golden, 2), (slope532, 3), (slope532, 10)]:
        spec = characteristic_spec(t, b)
        assert entry_value(spec, "d", 0) == 0
        assert entry_value(spec, "e", 0) == b - 1
        assert entry_value(spec, "c", 0) == (b ** t.a(1) - b) // (b - 1)


def test_entry_examples():
    t = table_for((2, 2, 2), horizon=10)
    spec = characteristic_spec(t, 2)
    assert entry_value(spec, "c", 0) == 2  # (2^2 - 2)/(2 - 1)
    # zero digit b_{k+1} = 0 -> f_k = 0
    assert entry_value(spec, "f", 3) == 0


def test_entry_negative_branch():
    spec = negative_term_spec()
    c3 = entry_value(spec, "c", 3)
    assert c3 == -(entry_value(spec, "e", 2) + 1)
    assert c3 < 0
    assert entry_value(spec, "c", 4) >= 0  # no two consecutive negatives


def test_boehmer_terms_golden():
    t = golden_table()
    assert [boehmer_term(t, 2, k) for k in range(1, 7)] == [1, 2, 2, 4, 8, 32]
    for b in (2, 3, 10):
        assert boehmer_term(t, b, 1) == (b ** t.q(1) - 1) // (b ** t.q(0) - 1)
        for k in range(2, 10):
            assert boehmer_term(t, b, k) % (b ** t.q(k - 2)) == 0


def test_powers_past_the_cap_are_refused_before_they_are_computed(monkeypatch):
    # the entries of level k raise b to at most q_{k+1}, Boehmer term k to
    # at most q_k: under a size budget of q_5 * ceil(log2 b) bits, level 4
    # and term 5 are computed as without it, level 5 and term 6 refused
    t = table_for((5, 3, 2), horizon=12)
    for b in (2, 3, 10):
        spec = characteristic_spec(t, b)
        entries = [entry_value(spec, kind, k) for k in range(5) for kind in "cdef"]
        closed = [boehmer_term(t, b, k) for k in range(1, 6)]
        with monkeypatch.context() as m:
            m.setattr(errors, "SIZE_BUDGET", t.q(5) * (b - 1).bit_length())
            assert [entry_value(spec, kind, k) for k in range(5) for kind in "cdef"] == entries
            assert [boehmer_term(t, b, k) for k in range(1, 6)] == closed
            for refused in (*(functools.partial(entry_value, spec, kind, 5) for kind in "cdef"),
                            lambda: boehmer_term(t, b, 6), lambda: continued_fraction(spec)):
                with pytest.raises(HorizonError):
                    refused()


def division_geom(base, step, count):
    """Reference for _geom: the closed form (x^count - 1)/(x - 1), x = b^step."""
    if count <= 0:
        return 0
    return (pow(base, count * step) - 1) // (pow(base, step) - 1)


def test_geom_matches_division_reference():
    for base in range(2, 10):
        for step in range(1, 7):
            for count in range(0, 71):
                assert _geom(base, step, count) == division_geom(base, step, count)
    # a Böhmer-size count: a partial quotient in the thousands
    assert _geom(3, 100, 3001) == division_geom(3, 100, 3001)
    assert _geom(2, 5, -1) == 0


def test_level_signs_shape(golden):
    # the improper stream the rewrite reads: five signed parts per level,
    # each naming its own term-block entry unless it is a constant
    spec = characteristic_spec(golden, 2)
    signed = [t for k in range(6) for t in _level_signs(spec, k)]
    assert len(signed) == 30
    kinds = [t.parts[0][0] for t in signed[:5]]
    assert kinds == ["c", "d", "one", "e", "f"]
    values = [t.value for t in evaluated(spec, signed)]
    assert values == [t.value for t in raw_terms(spec, 6)]
    assert values[1] == 0 and values[2] == 1 and values[4] == 0
    for t, v in zip(signed, values):
        assert t.refs == (() if v == 0 or t.parts[0][0] == "one" else t.parts)


def test_matrix_identities_7_1_and_7_2():
    for x in (0, 1, 2, 7):
        lhs = matmul(matmul(mat(x), mat(0)), mat(-x - 1))
        assert lhs == ((-1, 1), (1, 0))
    for y in (0, 1, 3, 9):
        lhs = matmul(
            matmul(matmul(matmul(mat(y), mat(1)), mat(-1)), mat(y)), mat(1)
        )
        assert lhs == ((0, 1), (1, 1))


def collapsed(spec, levels, negative_c=()):
    """Rule (i) alone over the signed levels of `spec`, with the c term of
    each level in `negative_c` made negative."""
    blocks = (tuple(t._replace(sign=-1) if k in negative_c
                    and t.parts == (("c", k),) else t
                    for t in _level_signs(spec, k)) for k in range(levels))
    return list(_collapse(spec.system, blocks))


def test_negative_window_shape_and_collapse():
    spec = negative_term_spec()
    raw = raw_terms(spec, 8)
    vals = [t.value for t in raw]
    # septuple d_k, 1, e_k, 0, -e_k-1, d_{k+1}, 1 around the negative c
    i = next(j for j, v in enumerate(vals) if v < 0)
    d, one, e, f = vals[i - 4], vals[i - 3], vals[i - 2], vals[i - 1]
    assert (d, one, f) == (vals[i + 1], 1, 0)
    assert vals[i] == -e - 1
    nonneg = evaluated(spec, collapsed(spec, 8))
    assert all(t.value >= 0 for t in nonneg)
    assert len(nonneg) == len(raw) - 8
    # matrix value preserved
    assert stream_matrix(raw, spec.base) == stream_matrix(nonneg, spec.base)
    # the merged term value is c_k + 1 + e_{k+1}
    assert entry_value(spec, "c", 2) + 1 + entry_value(spec, "e", 3) in [t.value for t in nonneg]


def test_consecutive_negatives_rejected():
    # b_1 = 1, so no rule-(i) window fits at k = 0: the window of a
    # negative c_1 is malformed, and that is found before c_2 is read
    t = table_for((2, 3, 2, 3), horizon=14)
    spec = NumberSpec(2, word_system(t, (1,) + (0,) * 11))
    assert not _exponents_fit(spec.system, 0)
    with pytest.raises(InternalError,
                       match=r"^negative-term window malformed at k=0$"):
        collapsed(spec, 8, negative_c=(1, 2))


def test_negative_leading_term_is_an_internal_error():
    t = table_for((2, 3, 2, 3), horizon=14)
    spec = NumberSpec(2, word_system(t, (1,) + (0,) * 11))
    for negative_c in ((0,), (0, 1)):
        with pytest.raises(InternalError,
                           match=r"^leading term cannot be negative$"):
            collapsed(spec, 8, negative_c)


def test_negative_after_a_collapsed_window_is_a_digit_rule_error(golden):
    spec = characteristic_spec(golden, 2)
    assert _exponents_fit(spec.system, 0)  # a negative c_1 collapses at k=0
    with pytest.raises(DigitRuleError, match="index 2: two consecutive"):
        collapsed(spec, 8, negative_c=(1, 2))


def test_zero_elimination_matrix_preserved(rng):
    # the whole sign-driven rewrite over every level, nothing withheld,
    # keeps the matrix of the raw stream
    negative_windows = 0
    for _ in range(10):
        t = random_slope_table(rng, 8, amax=3)
        digs = random_digits(rng, t, 7)
        spec = NumberSpec(rng.choice([2, 3, 10]), word_system(t, digs))
        raw = raw_terms(spec, 6)
        negative_windows += any(t.value < 0 for t in raw)
        final = evaluated(spec, _rewrite(shallower(spec, 6)))
        assert stream_matrix(raw, spec.base) == stream_matrix(final, spec.base)
        assert all(t.value >= 1 for t in final[:-1])
    assert negative_windows >= 2  # rule (i) fires


def rescanning_collapse_negatives(terms):
    """Reference rule (i) on values: rescan from index 0 after every
    rewrite, replacing the nine terms c_k, d_k, 1, e_k, f_k, c_{k+1},
    d_{k+1}, 1, e_{k+1} around the leftmost negative term c_{k+1} with
    c_k + 1 + e_{k+1}, once the window is f_k = 0, d_{k+1} = d_k and
    c_{k+1} = -e_k - 1."""
    items = list(terms)
    while True:
        i = next((j for j, t in enumerate(items) if t.value < 0), None)
        if i is None:
            return items
        window = items[i - 5: i + 4] if i >= 5 else []
        if len(window) < 9:
            raise InternalError("negative term without a full window")
        c, d, one, e, f, neg, d1, one1, e1 = (t.value for t in window)
        if (one, f, one1, d1, neg) != (1, 0, 1, d, -e - 1):
            raise InternalError("negative-term window malformed")
        items[i - 5: i + 4] = [
            Term(c + 1 + e1, tuple(p for t in window for p in t.parts))]


def rescanning_eliminate_zeros(terms):
    """Reference rule (ii): rescan from index 0 after every rewrite,
    deleting the leftmost zero pair before folding the leftmost x, 0, y."""
    items = list(terms)
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            if items[i].value == 0 and items[i + 1].value == 0:
                del items[i: i + 2]
                changed = True
                break
        if changed:
            continue
        for i in range(1, len(items) - 1):
            if items[i].value == 0:
                x, z, y = items[i - 1], items[i], items[i + 1]
                items[i - 1: i + 2] = [
                    Term(x.value + y.value, x.parts + z.parts + y.parts)
                ]
                changed = True
                break
    for i, t in enumerate(items):
        if t.value == 0 and i + 1 < len(items):
            raise InternalError("a non-trailing zero survived exhaustive rewriting")
        if t.value < 0:
            raise InternalError("a negative term survived rewriting")
    return tuple(items)


def test_one_pass_zero_elimination_matches_rescanning(rng):
    # nonnegative streams (the output of rule (i)) with zero runs of
    # length 1-4 anywhere, leading ones included; every part is distinct
    # so any difference in how terms merge shows in `parts`
    kinds = ("c", "d", "one", "e", "f")
    for _ in range(3000):
        terms = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.4:
                values = [0] * rng.randint(1, 4)
            else:
                values = [rng.randint(1, 9)]
            for v in values:
                terms.append(Term(v, ((rng.choice(kinds), len(terms)),)))
        outcomes = []
        for rule in (one_pass_eliminate_zeros, rescanning_eliminate_zeros):
            try:
                outcomes.append(rule(terms))
            except InternalError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], terms


def one_pass_eliminate_zeros(terms):
    """The pipeline's rule (ii), `_fold_zeros`, on concrete terms."""
    pending = (_Pending(_sign(t.value), t.value, (), t.parts) for t in terms)
    return tuple(Term(t.const, t.parts) for t in _fold_zeros(pending))


def batch_continued_fraction(spec, levels):
    """Reference pipeline: both rules over the whole raw stream of `levels`
    levels, then the stability truncation and the trailing-zero drop.
    Both rules are the rescanning references on values, so no rewrite
    code is shared with the sign-driven pipeline."""
    final = rescanning_eliminate_zeros(
        rescanning_collapse_negatives(raw_terms(spec, levels)))
    kept = []
    for t in final:
        if t.level > levels - 3:
            break
        kept.append(t)
    while kept and kept[-1].value == 0:
        kept.pop()
    return tuple(kept)


def _intercepts(table, digits, sigma):
    """Characteristic, digits, m = 1 and m = 3 (both words each) and sigma."""
    k = table.horizon
    p3 = 2 * table.p(k) // table.q(k) + 1  # rho = -2 theta + p3 lies in (0, 1)
    forms = [("characteristic", False), ({"digits": digits}, False),
             ({"sigma": sigma}, False)]
    for m, p in ((1, 0), (3, p3)):
        forms += [({"m": m, "p": p}, False), ({"m": m, "p": p}, True)]
    return forms


def test_demand_driven_prefixes_equal_full_expansion():
    negative_c = negative_term_spec()
    cases = [
        (golden_table(16), 2, [0, 1, 0, 0, 1], "1/5"),
        (table_for((5, 3, 2), horizon=8), 3, [1, 0, 2, 0, 1], "1/2"),
        (negative_c.system.table, 2, list(negative_c.system.digits.digits), "1/3"),
    ]
    negative_windows = 0
    for table, base, digits, sigma in cases:
        for intercept, upper in _intercepts(table, digits, sigma):
            spec = NumberSpec(base, WordSystem.from_spec(table, intercept,
                                                         upper=upper))
            levels = spec.system.levels
            negative_windows += any(t.value < 0 for t in raw_terms(spec, levels))
            full = continued_fraction(spec)
            assert full == batch_continued_fraction(spec, levels), intercept
            # a shallower number is a shorter digit prefix
            for depth in range(1, levels + 1):
                assert (continued_fraction(shallower(spec, depth))
                        == batch_continued_fraction(spec, depth)), (intercept, depth)
            for n in range(1, len(full) + 2):
                forms = tuple(islice(final_terms(spec), n))
                assert term_forms(spec, terms=n) == forms
                assert [Term(t.value(base), t.parts) for t in forms] == list(full[:n])
                assert continued_fraction(spec, terms=n) == full[:n]
    assert negative_windows >= 3  # rule (i) fires in the corpus


def test_a_term_count_past_sys_maxsize_means_every_term():
    # islice takes counts up to sys.maxsize; a larger one asks for more
    # terms than any expansion has
    spec = characteristic_spec(golden_table(8), 2)
    full = continued_fraction(spec)
    for n in (len(full), sys.maxsize, sys.maxsize + 1, 10 ** 20):
        assert continued_fraction(spec, terms=n) == full


def _sign(v):
    return (v > 0) - (v < 0)


def test_level_signs_match_entry_values():
    # the rewrite reads signs from the digits alone; each must be the sign
    # of the value of the form _entry gives, for every level, kind and form
    rng = random.Random(20261018)
    seen = {"c<0": 0, "c=0": 0, "d=0": 0, "f=0": 0}
    for _ in range(12):
        table = random_slope_table(rng, 6, amax=5)
        digits = list(random_digits(rng, table, 6))
        sigma = f"1/{rng.randint(2, 9)}"
        for intercept, upper in _intercepts(table, digits, sigma):
            base = rng.randint(2, 10)
            spec = NumberSpec(base, WordSystem.from_spec(table, intercept,
                                                         upper=upper))
            for k in range(spec.system.levels):
                c, d, e, f = (entry_value(spec, kind, k) for kind in "cdef")
                signs = [t.sign for t in _level_signs(spec, k)]
                assert signs == [_sign(v) for v in (c, d, 1, e, f)], (intercept, k)
                seen["c<0"] += c < 0
                seen["c=0"] += c == 0
                seen["d=0"] += d == 0
                seen["f=0"] += f == 0
    assert min(seen.values()) >= 3, seen


def test_only_the_levels_of_released_values_are_built(monkeypatch):
    # each released term computes the entries its value names, each once,
    # and no other entry is computed
    computed = []
    original = cfrac._entry

    def counted(spec, kind, k):
        computed.append((kind, k))
        return original(spec, kind, k)

    negative_c = negative_term_spec()
    cases = [
        (golden_table(16), 2, [0, 1, 0, 0, 1], "1/5"),
        (table_for((5, 3, 2), horizon=8), 3, [1, 0, 2, 0, 1], "1/2"),
        (negative_c.system.table, 2, list(negative_c.system.digits.digits), "1/3"),
    ]
    for table, base, digits, sigma in cases:
        for intercept, upper in _intercepts(table, digits, sigma):
            spec = NumberSpec(base, WordSystem.from_spec(table, intercept,
                                                         upper=upper))
            levels = spec.system.levels
            full = continued_fraction(spec)
            wants = [value_refs(spec, full[:n]) for n in range(1, len(full) + 2)]
            with monkeypatch.context() as m:
                m.setattr(cfrac, "_entry", counted)
                for n, want in enumerate(wants, start=1):
                    computed.clear()
                    got = continued_fraction(spec, terms=n)
                    assert got == full[:n]
                    assert computed == want, (intercept, n)
                    assert len(set(computed)) == len(computed)
            # a full expansion never reads the two withheld levels
            assert all(k < levels - 2 for _, k in computed)


def test_golden_pipeline_equals_boehmer():
    t = golden_table()
    spec = characteristic_spec(t, 2)
    got = [t.value for t in continued_fraction(shallower(spec, 20))]
    want = [boehmer_term(t, 2, k) for k in range(1, len(got) + 1)]
    assert got == want


def test_pipeline_head_forms():
    # digits with a_k - b_k >= 2 and b_k >= 1 throughout: expansion is
    # c_0 + 1, e_0, f_0, c_1, d_1, 1, e_1, f_1, ... with no other rewrites
    t = table_for((4, 5), horizon=10)
    digs = tuple(1 for _ in range(8))
    spec = NumberSpec(2, word_system(t, digs))
    final = continued_fraction(shallower(spec, 8))
    entry = functools.partial(entry_value, spec)
    want = [entry("c", 0) + 1, entry("e", 0), entry("f", 0),
            entry("c", 1), entry("d", 1), 1, entry("e", 1), entry("f", 1),
            entry("c", 2)]
    assert [t.value for t in final[: len(want)]] == want


def test_pipeline_stability_under_extension(rng):
    for _ in range(10):
        t = random_slope_table(rng, 10, amax=3)
        digs = random_digits(rng, t, 9)
        spec = NumberSpec(2, word_system(t, digs))
        short = [t.value for t in continued_fraction(shallower(spec, 7))]
        long = [t.value for t in continued_fraction(shallower(spec, 9))]
        assert long[: len(short)] == short


def test_convergent_seeds_and_determinant(rng):
    for base in (2, 3, 10):
        t = table_for((3, 2, 4), horizon=12)
        digs = (1, 0, 2, 0, 1, 0, 0, 1, 0, 0)
        spec = NumberSpec(base, word_system(t, digs))
        # raw-stream recurrence gives the seed pair of the improper stream
        c0 = entry_value(spec, "c", 0)
        p1 = c0 * 0 + (base - 1)
        q1 = c0 * (base - 1) + 0
        assert p1 == base - 1
        assert q1 == base ** (t.a(1) - digs[0]) - base
        stream = continued_fraction(shallower(spec, 10))
        pairs = convergents(stream, base)
        dets = {
            pairs[i + 1].p * pairs[i].q - pairs[i].p * pairs[i + 1].q
            for i in range(len(pairs) - 1)
        }
        assert dets <= {(base - 1) ** 2, -((base - 1) ** 2)}


def test_golden_reduced_convergents():
    spec = characteristic_spec(golden_table(), 2)
    pairs = convergents(continued_fraction(shallower(spec, 20)), 2)
    reduced = [c.reduced() for c in pairs[:5]]
    assert reduced == [Fraction(1), Fraction(2, 3), Fraction(5, 7),
                       Fraction(22, 31), Fraction(181, 255)]


def test_pairs_match_family_fractions(rng):
    for _ in range(8):
        t = random_slope_table(rng, 9, amax=3)
        digs = random_digits(rng, t, 8)
        base = rng.choice([2, 3, 5])
        spec = NumberSpec(base, word_system(t, digs))
        stream = continued_fraction(shallower(spec, 8))
        for pair in convergents(stream, base):
            fam, k = pair.family
            frac = formal_family_fraction(spec, fam, k)
            assert (pair.p, pair.q) == (frac.numerator, frac.denominator), (
                t.spec.preperiod, digs, pair.index, pair.family
            )


def test_term_values_in_allowed_combos(rng):
    # every final term value lies in the closed candidate set of
    # per-level terms and their admissible merges
    for _ in range(10):
        t = random_slope_table(rng, 9, amax=3)
        digs = random_digits(rng, t, 8)
        spec = NumberSpec(2, word_system(t, digs))
        levels = 8
        c, d, e, f = ([entry_value(spec, kind, k) for k in range(levels)] for kind in "cdef")
        allowed = {1}
        for k in range(levels):
            allowed.update({c[k], d[k], e[k], f[k], c[k] + 1, e[k] + 1})
            if k + 1 < levels:
                allowed.update({
                    c[k] + e[k + 1] + 1,
                    e[k] + c[k + 1],
                    f[k] + d[k + 1],
                    e[k] + c[k + 1] + 1,
                })
                if k >= 1:
                    allowed.add(e[k - 1] + c[k] + e[k + 1] + 1)
        for term in continued_fraction(shallower(spec, levels)):
            assert term.value in allowed, (t.spec.preperiod, digs, term)


def test_family_fraction_edges(golden, slope532):
    spec = characteristic_spec(golden, 2)
    f = family_fraction(spec, "4", -1)
    assert (f.numerator, f.denominator) == (0, 1)
    for k in range(1, 5):
        f = family_fraction(spec, "4", k)
        assert f.numerator == word_value(spec.system.standard(k + 1), 2)
        assert f.denominator == 2 ** golden.q(k + 1) - 1
    for b in (3, 5):
        f = family_fraction(characteristic_spec(golden, b), "4", -1)
        assert (f.numerator, f.denominator, f.height) == (0, b - 1, 1)
    with pytest.raises(ConfigError):
        # at k = 0 with a_1 - b_1 = 1 the family-(1) denominator vanishes
        family_fraction(spec, "1", 0)
    neg = negative_term_spec()
    k = next(k for k in range(2, 8)
             if neg.system.a(k + 1) == neg.system.digit(k + 1))
    with pytest.raises(ConfigError):
        family_fraction(neg, "1", k)


def test_family_equality_2k_equals_4k_minus_2():
    spec = negative_term_spec()
    s = spec.system
    k = next(k for k in range(2, 8) if s.a(k + 1) == s.digit(k + 1))
    f2 = formal_family_fraction(spec, "2", k)
    f4 = formal_family_fraction(spec, "4", k - 2)
    assert (f2.numerator, f2.denominator) == (f4.numerator, f4.denominator)


def test_family_recurrences_examples(slope532):
    deg = degenerate_expansions(1, 0, slope532)
    ws = WordSystem.from_degenerate(slope532, deg, upper=True)
    spec = NumberSpec(2, ws)
    assert all(check_family_recurrences(spec, 1).values())
    char = characteristic_spec(slope532, 2)
    for k in range(0, 5):
        assert all(check_family_recurrences(char, k).values())
    neg = negative_term_spec()
    for k in range(0, 6):
        assert all(check_family_recurrences(neg, k).values())


def test_family_recurrences_walk_the_level_block(slope532):
    spec = characteristic_spec(slope532, 3)
    names = ["(1)=c*(4')+(3')", "(2-1)=d*(1)+(4')", "(2)=1*(2-1)+(1)",
             "(3)=e*(2)+(2-1)", "(4)=f*(3)+(2)"]
    assert list(check_family_recurrences(spec, 2)) == names
    assert list(check_family_recurrences(spec, 0)) == names[1:]
    for family in ("1", "2-1", "2", "3", "4"):
        for k in (-2, -1) if family != "4" else (-2,):
            for fraction in (formal_family_fraction, family_fraction):
                with pytest.raises(ConfigError,
                                   match=re.escape(f"family ({family}) undefined at k = {k}")):
                    fraction(spec, family, k)


def test_family_recurrences_random(rng):
    for _ in range(6):
        t = random_slope_table(rng, 9, amax=3)
        digs = random_digits(rng, t, 8)
        spec = NumberSpec(rng.choice([2, 3, 10]), word_system(t, digs))
        for k in range(0, 6):
            assert all(check_family_recurrences(spec, k).values())


def test_word_value():
    assert word_value("101", 2) == 5
    assert word_value("101", 10) == 909
    assert word_value("", 7) == 0
    assert word_value("1", 37) == 36


def test_bits_as_base_matches_the_digit_loop():
    # int(word, base) reads leaves of up to 640 letters for bases <= 36,
    # bytes of 8 letters beyond (a leaf of 639 letters starts with a byte
    # of 7); longer words split in halves
    rng = random.Random(640)
    for n in (0, 1, 639, 640, 641, 1281, 5000):
        word = "".join(rng.choice("01") for _ in range(n))
        for base in (*range(2, 41), 1000):
            v = 0
            for ch in word:
                v = v * base + (ch == "1")
            assert _bits_as_base(word, base) == v, (n, base)


def test_bits_as_base_computes_each_power_once_and_frees_it(monkeypatch):
    # halves at one depth differ by at most one letter, so the recursion
    # needs two powers per depth; a reference cycle (a self-recursive
    # closure) would keep them alive past the call until the cyclic GC
    exponents = []

    def counted(b, e):
        exponents.append(e)
        return b ** e

    monkeypatch.setattr(cfrac, "pow", counted, raising=False)
    word = "".join(random.Random(5001).choice("01") for _ in range(5001))
    v = 0
    for ch in word:
        v = v * 3 + (ch == "1")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _bits_as_base(word, 3) == v
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert sorted(exponents) == [625, 626, 1250, 1251, 2501]


def test_word_value_slices_only_leaves():
    # the recursion passes offsets into the one word, so at the peak only
    # the big integers are alive: 1.18 bytes per letter of a base-3 word
    # beyond the result, 1.43 when each half was sliced.  (At base 5 the
    # Karatsuba temporaries of the top product, 1.7 bytes per letter,
    # hide the slices.)
    n = 200_000
    rng = random.Random(3)
    word = "".join(rng.choice("01") for _ in range(n))
    tracemalloc.start()
    try:
        extra = sys.getsizeof(word_value(word, 3))
        extra = tracemalloc.get_traced_memory()[1] - extra
    finally:
        tracemalloc.stop()
    assert extra < 1.3 * n


def test_wrong_type_arguments_are_refused(slope532):
    # each once raised TypeError or AttributeError, or returned a result
    spec = characteristic_spec(slope532, 3)
    terms = continued_fraction(spec, terms=3)
    for call in (lambda: convergents(terms, 1), lambda: convergents(terms, True),
                 lambda: convergents(terms, 2.5), lambda: NumberSpec(3, "x"),
                 lambda: continued_fraction("x"), lambda: continued_fraction("x", terms=0),
                 lambda: boehmer_term(None, 3, 2)):
        with pytest.raises(ConfigError):
            call()


# values of a wrong type for any argument of the cfrac exports; None is
# the default of `continued_fraction`'s `terms`, so not drawn there
WRONG = [2.5, 2.0, True, False, "x", "3", Fraction(3), Fraction(5, 2), None]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_cfrac_export_refuses_a_wrong_type_argument(data):
    table = table_for((5, 3, 2), horizon=8)
    spec = characteristic_spec(table, 3)
    terms = continued_fraction(spec, terms=3)
    calls = {
        "continued_fraction": (continued_fraction, [spec, 3]),
        "convergents": (convergents, [terms, 3]),
        "boehmer_term": (boehmer_term, [table, 3, 2]),
        "family_fraction": (family_fraction, [spec, "3", 2]),
        "formal_family_fraction": (formal_family_fraction, [spec, "3", 2]),
        "check_family_recurrences": (check_family_recurrences, [spec, 2]),
        "NumberSpec": (NumberSpec, [3, spec.system]),
    }
    name = data.draw(st.sampled_from(sorted(calls)))
    fn, args = calls[name]
    i = data.draw(st.integers(0, len(args) - 1))
    wrong = data.draw(st.sampled_from(WRONG))
    if name == "continued_fraction":
        args, kwargs = args[:1], {"terms": args[1]}
        if i:
            if wrong is None:
                return
            kwargs["terms"] = wrong
        else:
            args = [wrong]
    else:
        args, kwargs = args[:i] + [wrong] + args[i + 1:], {}
    if name.endswith("family_fraction") and i == 1 and wrong == "3":
        return  # family (3) is a valid family
    try:
        result = fn(*args, **kwargs)
    except SturmianError:
        return
    pytest.fail(f"{name}{tuple(args)} {kwargs} returned {result!r:.200}")
