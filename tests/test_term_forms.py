"""Terms as closed forms, printed from their forms in exact decimal.

`cfrac` gives every term the CLI prints as a constant plus forms
(s, x, z, y, c0), each s*b^x*G(b^z, y) + c0; `cf`, `convergents` and
`boehmer` evaluate them with `bigint.forms_to_decimal` and print the
Decimals, while `continued_fraction`, `cfrac.convergents` and
`boehmer_term` keep the int route.  The two routes must print the same
strings and refuse in the same words, and the decimal route must never
convert a term from binary.
"""

import json
import random
from decimal import Decimal, localcontext

from hypothesis import given, settings, strategies as st

from sturmian import bigint, cfrac, cli, errors
from sturmian.errors import SturmianError

from test_cli_argv import compact, convergents, intercepts
from test_golden_cli import RECORDED, execute, record

Q_MAX = 3000
FORMS = ["characteristic", "digits", "digits-open", "m", "sigma", "sigma-pair"]


def division_geom(base, step, count):
    """Reference for G(b^step, count): (x^count - 1)/(x - 1), x = b^step."""
    if count <= 0:
        return 0
    return (pow(base, count * step) - 1) // (pow(base, step) - 1)


def decimal_geom(base, step, count):
    with localcontext(bigint._EXACT):
        return bigint._geom(base, step, count, {0: Decimal(1)})


def test_decimal_geom_matches_the_division_reference():
    for base in range(2, 10):
        for step in range(1, 7):
            for count in range(0, 71):
                got = decimal_geom(base, step, count)
                assert str(got) == str(division_geom(base, step, count))
    # a Böhmer-size count, against the same division done in decimal
    with localcontext(bigint._EXACT) as ctx:
        x = ctx.power(Decimal(3), 1000)
        want = (ctx.power(x, 3000) - 1) // (x - 1)
        assert decimal_geom(3, 1000, 3000) == want
    assert cfrac._geom(3, 1000, 3000) == division_geom(3, 1000, 3000)


def test_forms_evaluate_alike_in_int_and_decimal():
    # negative signs, zero counts and exponents, constants of either sign;
    # one call shares its powers between all its terms
    rng = random.Random(20261022)
    for _ in range(40):
        base = rng.randint(2, 40)
        terms = [(rng.randint(-2, 2),
                  tuple((rng.choice((1, -1)), rng.randint(0, 400), rng.randint(0, 60),
                         rng.randint(-1, 30), rng.randint(-1, 1))
                        for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(1, 6))]
        got = bigint.forms_to_decimal(base, terms)
        want = [const + sum(cfrac._evaluate(f, base) for f in forms) for const, forms in terms]
        assert [str(d) for d in got] == bigint.to_decimals(want)


@st.composite
def periodic_slopes(draw):
    """(slope JSON text, its quotients a_1..a_K) with q_K <= Q_MAX."""
    pre = draw(st.lists(st.integers(1, 9), max_size=6))
    per = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    cyc = pre + per * 40
    _, qs = convergents(cyc)  # qs[k + 1] is q_k
    top = max(k for k in range(4, len(cyc)) if k == 4 or qs[k + 1] <= Q_MAX)
    horizon = top - draw(st.integers(0, min(top - 4, 3)))  # deep: many terms
    return compact({"preperiod": pre, "period": per, "horizon": horizon}), cyc[:horizon]


def cfg_of(slope, flags, base):
    """The config the CLI builds from `--slope slope flags --base base`."""
    cfg = {"slope": json.loads(slope), "base": base, "upper": "--upper" in flags}
    if "--intercept" in flags:
        text = flags[flags.index("--intercept") + 1]
        cfg["intercept"] = text if text == "characteristic" else json.loads(text)
    return cfg


def int_route(cfg):
    """What `cf`, `convergents` and `boehmer --check` print, from the int
    route and `to_decimals`; a refusal in place of any it refuses."""
    try:
        system = cli._build_system(cfg)
        spec = cfrac.NumberSpec(cfg["base"], system)
    except SturmianError as exc:
        return {sub: exc for sub in ("cf", "convergents", "boehmer")}
    out = {}
    try:
        terms = cfrac.continued_fraction(spec)
        out["cf"] = bigint.to_decimals([t.value for t in terms])
        pairs = cfrac.convergents(terms, spec.base)
        out["convergents"] = [bigint.to_decimals([c.p, c.q]) for c in pairs]
    except SturmianError as exc:
        out["cf"] = out["convergents"] = exc
    if system.rho != (1, 0):
        return out
    try:
        closed = [cfrac.boehmer_term(system.table, spec.base, k)
                  for k in range(1, system.levels - 3)]
        out["boehmer"] = bigint.to_decimals(closed)
    except SturmianError as exc:
        out["boehmer"] = exc
    return out


def printed(argv):
    """The printed strings of a `cf`, `convergents` or `boehmer` run, or
    its refusal as (error name, message)."""
    code, out, err = execute(argv)
    if code:
        refusal = json.loads(err)
        return refusal["error"], refusal["message"]
    payload = json.loads(out)
    if "convergents" in payload:
        return [[c["P"], c["Q"]] for c in payload["convergents"]]
    return [t["term"] if isinstance(t, dict) else t for t in payload["terms"]]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_decimal_terms_equal_the_int_route(data):
    slope, quotients = data.draw(periodic_slopes())
    flags = data.draw(intercepts(data.draw(st.sampled_from(FORMS)), quotients))
    base = data.draw(st.integers(2, 40))
    cfg = cfg_of(slope, flags, base)
    # a budget that refuses the deeper levels of some draws: both routes
    # must refuse them in the same words
    _, qs = convergents(quotients)
    bits = (base - 1).bit_length()
    budget = data.draw(st.sampled_from([errors.SIZE_BUDGET, qs[-3] * bits, qs[-5] * bits]))
    old = errors.SIZE_BUDGET
    errors.SIZE_BUDGET = budget
    try:
        want = int_route(cfg)
        for sub, expected in want.items():
            argv = ["--slope", slope, *flags, f"--base={base}",
                    *(["boehmer", "--check"] if sub == "boehmer" else [sub])]
            if isinstance(expected, SturmianError):
                expected = type(expected).__name__, str(expected)
            assert printed(argv) == expected, (sub, argv)
    finally:
        errors.SIZE_BUDGET = old


def test_no_term_is_converted_from_binary(monkeypatch):
    # every corpus run of `cf`, `convergents` and `boehmer`, on every
    # slope and intercept form, prints as recorded with the int-to-Decimal
    # conversion and the int converter of the CLI made to fail
    def refused(*args):
        raise AssertionError("a term was converted from binary")

    monkeypatch.setattr(bigint, "_exact", refused)
    monkeypatch.setattr(cli, "to_decimals", refused)
    entries = [e for e in RECORDED
               if {"cf", "convergents", "boehmer"} & set(e["argv"])]
    assert len(entries) > 150 and sum(e["exit"] == 0 for e in entries) > 100
    for entry in entries:
        assert record(entry["argv"]) == entry
