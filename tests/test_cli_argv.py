"""Every command line the parser accepts ends in exit 0, 2 or 3, or in
exit 4 from `verify` with its shortfall report.

A derandomized property test over argv: all eight subcommands, every
intercept form, the three output formats, valid and invalid slopes,
huge integer literals, huge partial quotients and huge horizons.  A
refusal (exit 2 or 3) writes one JSON error object, of the error class
its exit code names and under 400 bytes, to stderr and nothing to
stdout; a command that runs writes to stdout alone.  Sizes stay those
of the benchmark's seeded sweep (q_K <= 3,000, bases up to 36), except
in the inputs that must be refused.  Argv that argparse itself rejects,
such as `--terms 0`, ends in argparse's usage text and is not drawn
here (`test_cli.py` covers it).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sturmian import errors

from test_golden_cli import execute

Q_MAX = 3000
HUGE = 10 ** 639 + 7  # a quotient of 640 digits, the most any int-to-str limit lets in
LITERAL = "1" + "0" * 4400  # past the default int-to-str limit of 4,300 digits
SUBCOMMANDS = ["word", "ostrowski-int", "ostrowski-real", "cf", "convergents",
               "exponent", "verify", "boehmer"]
# valid forms first: a derandomized draw leans to the front of a list
INTERCEPTS = ["none", "characteristic", "digits", "digits-open", "m", "sigma",
              "sigma-pair", "bogus", "huge", "literal"]
REFUSALS = {name: cls.exit_code for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.SturmianError)}


def convergents(quotients):
    """(ps, qs) for k = -1..K."""
    ps, qs = [1, 0], [0, 1]
    for a in quotients:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    return ps, qs


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@st.composite
def slopes(draw):
    """(slope JSON text, quotients a_1..a_K of a runnable slope or None,
    the exit code the slope alone forces or None)."""
    kind = draw(st.sampled_from(["periodic"] * 4 + ["finite"] * 2 + [
        "short", "bad", "huge quotient", "literal", "huge horizon"]))
    small = st.integers(1, 5)
    if kind in ("periodic", "finite"):
        pre = draw(st.lists(small, min_size=0 if kind == "periodic" else 6, max_size=8))
        per = draw(st.lists(small, min_size=1, max_size=3)) if kind == "periodic" else []
        cyc = pre + per * 20
        _, qs = convergents(cyc)
        top = max(k for k in range(4, min(len(cyc), 40) + 1) if k == 4 or qs[k + 1] <= Q_MAX)
        horizon = draw(st.integers(4, top))
        return compact({"preperiod": pre, "period": per, "horizon": horizon}), cyc[:horizon], None
    if kind == "short":  # a horizon below 4, or past a finite list
        text, code = draw(st.sampled_from([
            (compact({"preperiod": [1], "period": [1], "horizon": 3}), 2),
            (compact({"preperiod": [1, 2, 3, 4, 5], "horizon": 9}), 3),
            (compact({"preperiod": [1], "period": [1], "horizon": 0}), 2)]))
        return text, None, code
    if kind == "bad":
        bad = draw(st.sampled_from([0, -1, 1.5, True, "x", None, [1]]))
        text = draw(st.sampled_from([
            compact({"preperiod": [2, bad], "period": [1], "horizon": 6}),
            compact({"preperiod": [1], "period": [bad], "horizon": 6}),
            compact({"preperiod": [1], "period": [1], "horizon": bad}),
            '{"preperiod":"12","horizon":4}', "[1,1]", '"golden"', "{", "null"]))
        return text, None, 2
    if kind == "huge quotient":  # q_K near 10^640: the terms are refused, not the word
        pre = draw(st.permutations([str(HUGE), "1", "2", "1"]))
        return compact({"preperiod": pre, "period": ["1"], "horizon": 6}), None, None
    if kind == "literal":
        text = draw(st.sampled_from([
            '{"preperiod":[%s],"horizon":4}' % LITERAL,
            '{"preperiod":["%s"],"horizon":4}' % LITERAL,
            '{"preperiod":[1],"period":[1],"horizon":"%s"}' % LITERAL]))
        return text, None, 2
    # a horizon whose convergent table is past the size budget
    per = draw(st.lists(small, min_size=1, max_size=3))
    horizon = draw(st.sampled_from([10 ** 5, 10 ** 6, 10 ** 30, str(10 ** 600)]))
    return compact({"preperiod": [], "period": per, "horizon": horizon}), None, 3


def fraction_text(draw):
    """A rational in [-1, 1], where sigma and its neighbours lie."""
    den = draw(st.integers(1, 60))
    return str(Fraction(draw(st.integers(-den, den)), den))


def digit_text(draw, quotients):
    """Digits b_1..b_n, which obey the digit rules of a known slope when
    the draw says so."""
    if quotients and draw(st.booleans()):
        digits = []
        for a in quotients[:draw(st.integers(1, len(quotients) - 2))]:
            cap = a - 1 if not digits or digits[-1] else a
            digits.append(draw(st.integers(0, cap)))
        return digits
    return draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))


@st.composite
def intercepts(draw, kind, quotients):
    """The --intercept (and --upper) flags of an intercept of `kind`;
    `quotients` (or None) sizes a degenerate m to the slope."""
    upper = ["--upper"] if draw(st.booleans()) else []
    if kind == "none":
        return upper
    if kind == "characteristic":
        return ["--intercept", "characteristic", *upper]
    if kind in ("digits", "digits-open"):
        obj = {"digits": digit_text(draw, quotients)}
        if kind == "digits-open":
            obj["terminating"] = False
        return ["--intercept", compact(obj), *upper]
    ps, qs = convergents(quotients or [1] * 6)
    if kind == "m":
        m = draw(st.integers(1, qs[-2] + 2))
        # rho = -(m-1) theta + p lies in (0, 1) for p = floor((m-1) theta) + 1
        p = (m - 1) * ps[-1] // qs[-1] + 1 + draw(st.sampled_from([0, 0, 1, -1])) if m > 1 else 0
        return ["--intercept", compact({"m": m, "p": p}), *upper]
    if kind == "sigma":
        return ["--intercept", compact({"sigma": fraction_text(draw)}), *upper]
    if kind == "sigma-pair":
        # u theta + v in [-theta, 1 - theta] about half the time
        u = draw(st.sampled_from([1, -1, 2, 0, -3]))
        v = Fraction(fraction_text(draw)) - (u + 1) * ps[-1] // qs[-1]
        return ["--intercept", compact({"sigma_pair": [u, str(v)]}), *upper]
    if kind == "bogus":
        return ["--intercept", draw(st.sampled_from([
            "bogus", "{}", '{"m":0,"p":0}', '{"digits":[0],"m":1}', '{"sigma":"1/0"}', '{"sigma":0.5}',
            '{"digits":"01"}', '{"m":1,"p":1}', '{"sigma_pair":[1]}'])), *upper]
    if kind == "huge":  # integers of 640 digits where small ones belong
        return ["--intercept", draw(st.sampled_from([
            compact({"m": str(HUGE), "p": "0"}), compact({"digits": [str(HUGE)]}),
            compact({"sigma": f"{HUGE}/{HUGE + 1}"}),
            compact({"sigma_pair": [str(HUGE), "1/2"]})])), *upper]
    return ["--intercept", draw(st.sampled_from([
        '{"m":%s,"p":0}' % LITERAL, '{"digits":["%s"]}' % LITERAL,
        compact({"sigma": "1/" + LITERAL})])), *upper]


@st.composite
def subcommand_flags(draw, sub, quotients):
    """The subcommand and its own flags, sized to the slope."""
    q = convergents(quotients or [1] * 6)[1][-1]
    terms = ["--terms", str(draw(st.sampled_from([1, 3, 8, 10 ** 30])))]
    if sub == "word":
        length = draw(st.sampled_from([q - 1, 1, q, q + 1, 10 ** 30, 0, -5]))
        return ["word", f"--length={length}", *(["--binary"] if draw(st.booleans()) else [])]
    if sub == "ostrowski-int":
        return draw(st.sampled_from([
            ["ostrowski-int", f"--encode={draw(st.sampled_from([q - 1, 1, q, 0, HUGE]))}"],
            ["ostrowski-int", "--digits", ",".join(map(str, digit_text(draw, quotients)))],
            ["ostrowski-int", "--digits", LITERAL], ["ostrowski-int"]]))
    if sub == "ostrowski-real":
        return draw(st.sampled_from([
            ["ostrowski-real", f"--sigma={fraction_text(draw)}"],
            ["ostrowski-real", f"--sigma-pair={draw(st.integers(-3, 3))},{fraction_text(draw)}"],
            ["ostrowski-real", "--digits", ",".join(map(str, digit_text(draw, quotients)))],
            ["ostrowski-real", "--sigma", "1/" + LITERAL], ["ostrowski-real"]]))
    if sub in ("cf", "convergents"):
        return [sub, *(terms if draw(st.booleans()) else [])]
    if sub == "verify":
        return ["verify", *(["--terms", str(draw(st.integers(1, 12)))]
                            if draw(st.booleans()) else [])]
    if sub == "boehmer":
        return ["boehmer", *(terms if draw(st.booleans()) else []),
                *(["--check"] if draw(st.booleans()) else [])]
    return [sub]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_exits_0_2_or_3_and_refuses_in_one_json_line(sub, data):
    slope, quotients, forced = data.draw(slopes())
    intercept_kind = data.draw(st.sampled_from(INTERCEPTS))
    argv = ["--slope", slope, "--format", data.draw(st.sampled_from(["json", "text", "rle"])),
            *data.draw(intercepts(intercept_kind, quotients))]
    base = data.draw(st.sampled_from([2, 3, 5, 10, 36, 2, 1]))
    argv += [f"--base={base}", *data.draw(subcommand_flags(sub, quotients))]
    code, out, err = execute(argv)
    if code in (2, 3):
        assert out == b"" and err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 400  # integers past 200 digits go by their digit count
        refusal = json.loads(err)
        assert set(refusal) == {"error", "message"}
        assert REFUSALS[refusal["error"]] == code
    else:
        assert (code == 0 or code == 4 and sub == "verify") and out and err == ""
    if forced is not None and intercept_kind != "literal":
        # the slope is read before anything but the flags' JSON
        assert code == forced
