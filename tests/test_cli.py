import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sturmian
from sturmian import SlopeSpec, build_table, cfrac, exponent, ostrowski
from sturmian.bigint import to_decimals
from sturmian.cli import _emit, _Pieces, main
from sturmian.errors import (ConfigError, DigitLimitError, HorizonError, InternalError,
                             SturmianError, read_int, shown_int)
from sturmian.words import WordSystem

from conftest import degenerate_p, random_digits, value_refs

GOLDEN = '{"preperiod":[1],"period":[1],"horizon":16}'
S532 = '{"preperiod":[5,3,2],"period":[5,3,2],"horizon":12}'


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_word_rle_section4(capsys):
    code, out, _ = run(
        capsys, "--slope", S532, "--intercept", '{"m":1,"p":0}', "--upper",
        "--format", "rle", "word", "--length", "37",
    )
    assert code == 0
    assert out.strip() == "1 0^4 1 0^4 1 0^4 1 0^5 1 0^4 1 0^4 1 0^5"


def test_word_characteristic_golden(capsys, monkeypatch):
    # the text format prints the word alone and builds no run-length form
    monkeypatch.setattr(sturmian.words, "run_length", None)
    monkeypatch.setattr(sturmian.words, "run_length_blocks", None)
    code, out, _ = run(capsys, "--slope", GOLDEN, "--format", "text",
                       "word", "--length", "5")
    assert code == 0
    assert out.strip() == "10110"


def test_word_json_payload(capsys):
    code, out, _ = run(capsys, "--slope", GOLDEN, "word", "--length", "5")
    payload = json.loads(out)
    assert payload["word"] == "10110"
    assert payload["length"] == "5"


def test_invalid_digits_exit_2(capsys):
    code, out, err = run(
        capsys, "--slope", GOLDEN, "--intercept", '{"digits":[1,1]}',
        "word", "--length", "5",
    )
    assert code == 2
    assert "error" in err


def test_horizon_too_small_exit_2(capsys):
    code, _, err = run(
        capsys, "--slope", '{"preperiod":[1],"period":[1],"horizon":3}',
        "word", "--length", "5",
    )
    assert code == 2


def test_cf_golden_terms(capsys):
    code, out, _ = run(capsys, "--slope",
                       '{"preperiod":[1],"period":[1],"horizon":20}',
                       "--base", "2", "cf", "--terms", "6")
    payload = json.loads(out)
    assert [t["term"] for t in payload["terms"]] == ["1", "2", "2", "4", "8", "32"]
    assert payload["terms"][2]["family"] == "(2)_2"


def test_boehmer_check(capsys):
    code, out, _ = run(capsys, "--slope",
                       '{"preperiod":[1],"period":[1],"horizon":20}',
                       "--base", "2", "--format", "text",
                       "boehmer", "--terms", "6", "--check")
    assert code == 0
    assert out.strip() == "1 2 2 4 8 32"


def test_boehmer_rejects_nonzero_digits(capsys):
    code, _, err = run(capsys, "--slope", S532, "--intercept",
                       '{"digits":[1,0,0,0]}', "boehmer", "--terms", "4")
    assert code == 2


@pytest.mark.parametrize("digits", [[], [0, 0]])
def test_boehmer_refuses_a_digit_prefix(capsys, digits):
    # zero digits so far do not make rho = theta: the closed form would be
    # printed for a number it need not describe, and --check would compare
    # it against a pipeline too short to disagree
    intercept = json.dumps({"digits": digits, "terminating": False})
    code, out, err = run(capsys, "--slope", GOLDEN, "--intercept", intercept,
                         "boehmer", "--check")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ConfigError",
        "message": "closed-form terms need the characteristic intercept"}


@pytest.mark.parametrize("sub", ["cf", "verify"])
def test_a_word_with_no_known_level_is_refused(capsys, sub):
    code, out, err = run(capsys, "--slope", GOLDEN, "--intercept",
                         '{"digits":[],"terminating":false}', sub)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "need at least one level"}


def test_ostrowski_int_encode(capsys):
    code, out, _ = run(capsys, "--slope", GOLDEN, "--format", "text",
                       "ostrowski-int", "--encode", "4")
    assert code == 0
    assert out.strip() == "0,1,0,1"


def test_ostrowski_int_decode(capsys):
    code, out, _ = run(capsys, "--slope", S532, "ostrowski-int",
                       "--digits", "4,0,2")
    assert json.loads(out)["n"] == "36"


def test_ostrowski_real_round_trip(capsys):
    code, out, _ = run(capsys, "--slope", GOLDEN, "ostrowski-real",
                       "--sigma-pair=-1,1/2")
    payload = json.loads(out)
    assert payload["terminating"] is False
    assert payload["digits"][:4] == ["0", "0", "0", "1"]


def test_verify_matches(capsys):
    code, out, _ = run(capsys, "--slope",
                       '{"preperiod":[1],"period":[1],"horizon":24}',
                       "--base", "2", "verify", "--terms", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["matches"] is True
    assert payload["firstMismatchIndex"] is None


@pytest.mark.parametrize("horizon", [8, 10, 12])
def test_verify_certifies_the_last_term_of_a_shallow_golden_word(capsys, horizon):
    # the oracle keeps every term both endpoints agree on, the last one
    # included, so the few terms of these words are all certified
    slope = '{"preperiod":[1],"period":[1],"horizon":%d}' % horizon
    assert run(capsys, "--slope", slope, "--base", "2", "--format", "text", "verify") == \
        (0, "match\n", "")


def test_verify_shortfall_returns_4_with_its_report(capsys):
    command = ("--slope", '{"preperiod":[2,1,3],"period":[1,4],"horizon":10}',
               "--base", "5", "--intercept", '{"m":1,"p":0}')
    code, out, err = run(capsys, *command, "verify")
    # the oracle certifies 7 of the 8 pipeline terms at N = q_10 - 1 =
    # 2,750, the deepest letter the word's 10 levels serve: a shortfall,
    # not a disagreement
    payload = json.loads(out)
    assert (code, err) == (4, "")
    assert (payload["N"], payload["matches"], payload["overlap"]) == ("2750", False, 7)
    assert len(payload["pipeline"]) == 8 and payload["firstMismatchIndex"] is None
    for fmt in ("text", "rle"):  # the verdict alone
        assert run(capsys, "--format", fmt, *command, "verify") == (4, "shortfall\n", "")


def test_verify_prints_each_pipeline_term_from_its_own_value(capsys, monkeypatch):
    # equal terms share one decimal string; a mismatch must not borrow
    # the certified term's, and the terms after it agree again
    big = 7 ** 300
    prefix = (3, big, 5, 2 ** 200)
    terms = (3, big + 1, 5, 2 ** 200 - 1, 11)
    monkeypatch.setattr(sturmian.oracle, "verify_agreement",
                        lambda spec, min_terms: sturmian.oracle.VerificationReport(
                            99, prefix, terms, 4, False, 1))
    code, out, _ = run(capsys, "--slope", GOLDEN, "verify")
    payload = json.loads(out)
    assert code == InternalError.exit_code
    assert payload["certifiedPrefix"] == [to_decimals([t])[0] for t in prefix]
    assert payload["pipeline"] == [to_decimals([t])[0] for t in terms]
    assert payload["firstMismatchIndex"] == 1
    for fmt in ("text", "rle"):  # a term that disagrees is no shortfall
        assert run(capsys, "--format", fmt, "--slope", GOLDEN, "verify") == \
            (InternalError.exit_code, "MISMATCH\n", "")


def test_exponent_report(capsys):
    code, out, _ = run(capsys, "--slope",
                       '{"preperiod":[1],"period":[1],"horizon":25}',
                       "--base", "2", "exponent")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["estimate"]["muFloat"] - 2.618) < 0.02
    assert payload["nu"][0]["nu1"] == "2/1"
    assert payload["strong"] == []  # characteristic word has no valid window


def test_exponent_with_digits_reports_strong(capsys):
    code, out, _ = run(capsys, "--slope", S532, "--intercept",
                       '{"digits":[1,1,1,0,1,0,1,0]}', "--base", "2",
                       "exponent")
    payload = json.loads(out)
    assert code == 0
    families = {rec["family"] for rec in payload["strong"]}
    assert families  # dispatch ran on the valid window


def test_exponent_reports_internal_errors(capsys, monkeypatch):
    def broken(spec, k):
        raise InternalError("dispatch invariant failed")

    monkeypatch.setattr(exponent, "classify_families", broken)
    code, _, err = run(capsys, "--slope", S532, "--intercept",
                       '{"digits":[1,1,1,0,1,0,1,0]}', "--base", "2",
                       "exponent")
    assert code == 4
    assert json.loads(err)["error"] == "InternalError"


def test_boehmer_disagreement_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(cfrac, "boehmer_form", lambda table, base, k: (1, 0, 0, 0, 0))
    code, _, err = run(capsys, "--slope", GOLDEN, "--base", "2",
                       "boehmer", "--terms", "6", "--check")
    assert code == 4
    assert json.loads(err) == {"error": "InternalError",
                               "message": "closed form disagrees with the pipeline"}


def test_determinism(capsys):
    args = ("--slope", S532, "--intercept", '{"m":1,"p":0}', "--base", "3",
            "cf", "--terms", "8")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "slope": {"preperiod": [1], "period": [1], "horizon": 16},
        "intercept": "characteristic",
        "base": 2,
        "length": 5,
    }))
    code, out, _ = run(capsys, "--config", str(cfg), "--format", "text",
                       "word")
    assert code == 0
    assert out.strip() == "10110"


def test_intercept_must_be_single_form(capsys):
    code, _, err = run(capsys, "--slope", GOLDEN, "--intercept",
                       '{"digits":[0],"m":1}', "word", "--length", "3")
    assert code == 2


def test_flags_allowed_after_subcommand(capsys):
    code, out, _ = run(capsys, "word", "--length", "5", "--slope", GOLDEN,
                       "--format", "text")
    assert code == 0
    assert out.strip() == "10110"


@pytest.mark.parametrize("argv", [
    ["--slope", "{bad", "cf"],
    ["--slope", "[1]", "cf"],
    ["--slope", '{"preperiod":["a"],"period":[1],"horizon":8}', "cf"],
    ["--slope", GOLDEN, "--intercept", '{"digits":["x"]}', "cf"],
    ["--slope", GOLDEN, "ostrowski-int", "--digits", "a"],
    ["--slope", GOLDEN, "ostrowski-real", "--sigma-pair", "1"],
    ["--slope", "[1]", "--horizon", "5", "cf"],
    ["--slope", '"x"', "--horizon", "5", "cf"],
    ["--slope", '"x"', "cf"],
    ["--slope", json.dumps(GOLDEN), "cf"],
    ["--slope", '{"preperiod":[1.5],"period":[1],"horizon":8}', "cf"],
    ["--slope", '{"preperiod":[1],"period":[true],"horizon":8}', "cf"],
    ["--slope", '{"preperiod":[1],"period":[1],"horizon":1e3}', "cf"],
    ["--slope", GOLDEN, "--intercept", '{"digits":[0,1],"terminating":"false"}',
     "word", "--length", "5"],
    ["--config", {"slope": json.loads(GOLDEN), "upper": "false"}, "word", "--length", "5"],
    ["--slope", GOLDEN, "--intercept", '{"digits":[0.9,1.7]}', "word", "--length", "12"],
    ["--slope", GOLDEN, "--intercept", '{"m":true,"p":false}', "cf"],
    ["--slope", GOLDEN, "--intercept", '{"m":2,"p":false}', "cf"],
    ["--slope", GOLDEN, "--intercept", '{"sigma_pair":[1.9,"-1/2"]}', "cf"],
    ["--config", {"slope": json.loads(GOLDEN), "base": 2.9, "length": 5.5}, "cf"],
    ["--config", {"slope": json.loads(GOLDEN), "base": 2.9, "length": 5.5}, "word"],
    ["--config", {"slope": json.loads(GOLDEN), "base": True}, "cf"],
    ["--slope", GOLDEN, "ostrowski-int", "--digits", "1_0"],
    ["--slope", GOLDEN, "ostrowski-int", "--digits", " 7"],
    ["--slope", GOLDEN, "ostrowski-real", "--digits", "0,\u0661"],
    ["--slope", GOLDEN, "ostrowski-real", "--sigma-pair", "1_0,-1/2"],
    ["--slope", GOLDEN, "ostrowski-real", "--sigma", "1_0/3"],
    ["--slope", GOLDEN, "ostrowski-real", "--sigma", "1/ 3"],
    ["--slope", GOLDEN, "ostrowski-real", "--sigma", "\u0663"],
    ["--slope", GOLDEN, "--intercept", '{"digits":[" 0"]}', "cf"],
    ["--slope", GOLDEN, "--intercept", '{"sigma":"1/1_0"}', "cf"],
    ["--slope", '{"preperiod":["1_0"],"period":[1],"horizon":8}', "cf"],
    ["--config", {"slope": json.loads(GOLDEN), "base": "\uff13"}, "cf"],
], ids=["slope-json", "slope-list", "slope-quotient", "intercept-digit",
        "int-digits", "sigma-pair", "slope-list-horizon", "slope-string-horizon",
        "slope-string", "slope-json-text", "slope-float-quotient",
        "slope-bool-quotient", "slope-float-horizon", "terminating-string",
        "upper-string", "intercept-float-digit", "intercept-bool-m",
        "intercept-bool-p", "sigma-pair-float-u", "config-float-base",
        "config-float-length", "config-bool-base", "int-digits-underscore",
        "int-digits-space", "real-digits-non-ascii", "sigma-pair-underscore-u",
        "sigma-underscore-numerator", "sigma-space-denominator",
        "sigma-non-ascii", "intercept-digit-space", "intercept-sigma-underscore",
        "slope-quotient-underscore", "config-fullwidth-base"])
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    config = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):  # a config object, passed as its file
            config.write_text(json.dumps(arg))
    code, out, err = run(capsys, *(str(config) if isinstance(arg, dict) else arg
                                   for arg in argv))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ["cf", "--terms", "-3"],
    ["cf", "--terms", "0"],
    ["convergents", "--terms", "0"],
    ["verify", "--terms", "-1"],
    ["boehmer", "--terms", "-2"],
])
def test_terms_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--slope", GOLDEN, *argv])
    assert exc.value.code == 2
    assert "--terms: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["cf", "convergents"])
def test_a_term_count_past_sys_maxsize_prints_every_term(capsys, sub):
    slope = '{"preperiod":[1],"period":[1],"horizon":8}'
    code, out, err = run(capsys, "--slope", slope, sub, "--terms", str(10 ** 20))
    assert (code, err) == (0, "")
    assert run(capsys, "--slope", slope, sub) == (0, out, "")


def test_a_word_past_the_size_budget_exits_3(capsys):
    # golden K=40 serves 39,088,169 letters; the budget is 2^24
    slope = '{"preperiod":[1],"period":[1],"horizon":40}'
    code, out, err = run(capsys, "--slope", slope, "word", "--length", str(2 ** 24 + 1))
    assert (code, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) < 400
    assert json.loads(err) == {"error": "HorizonError",
                               "message": "the requested word prefix is past 16777216 letters"}


@pytest.mark.parametrize("sub", [["word", "--length", "5"], ["ostrowski-int", "--encode", "5"],
                                 ["ostrowski-real", "--sigma", "1/3"], ["cf"], ["convergents"],
                                 ["exponent"], ["verify"], ["boehmer"]])
@pytest.mark.parametrize("horizon", [["--slope", '{"preperiod":[1],"period":[1],"horizon":100000}'],
                                     ["--slope", GOLDEN, "--horizon", "1" + "0" * 600]])
def test_a_horizon_past_the_table_budget_exits_3(capsys, sub, horizon):
    # the table is refused as it grows, after about 4,900 golden levels,
    # before any command reads it; the refusal echoes no horizon
    code, out, err = run(capsys, *horizon, *sub)
    assert (code, out) == (3, "")
    assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) < 400
    assert json.loads(err) == {
        "error": "HorizonError",
        "message": "the convergent table of the slope horizon is past 16777216 bits"}


@pytest.mark.parametrize("argv", [
    ["--base", "1_0", "cf"],
    ["--horizon", " 8", "cf"],
    ["word", "--length", "\u0665"],
    ["ostrowski-int", "--encode", "1_00"],
    ["cf", "--terms", "+\u0662"],
])
def test_integer_flags_take_a_sign_and_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--slope", GOLDEN, *argv])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x", "+-1", "", "1" * 150 + "x" * 100, "1_" * 120])
def test_read_int_words_a_refusal_as_int_does(text):
    with pytest.raises(ValueError) as want:
        int(text)
    with pytest.raises(ValueError) as got:
        read_int(text, "value")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["1_0", " 7", "7\n", "\u0663"])
def test_read_int_refuses_what_int_forgives(text):
    int(text)  # raises nothing
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: "):
        read_int(text, "value")


def test_shown_int_names_an_integer_past_200_digits_by_its_digit_count():
    assert shown_int(10 ** 200 - 1) == "9" * 200
    assert shown_int(-(10 ** 200 - 1)) == "-" + "9" * 200
    assert shown_int(10 ** 200) == "<201-digit integer>"
    assert shown_int(-(10 ** 200)) == "-<201-digit integer>"
    # past the int-to-str limit too, and exact on both sides of a power of ten
    for e in (4299, 4300, 4301, 100_000):
        assert shown_int(10 ** e - 1) == f"<{e}-digit integer>"
        assert shown_int(10 ** e) == f"<{e + 1}-digit integer>"


@pytest.mark.parametrize("argv, message", [
    (["ostrowski-int", f"--encode={10 ** 639 + 7}"], "<640-digit integer> >= q_16 = 1597"),
    (["ostrowski-int", "--digits", str(10 ** 4000)],
     "digit rule violated at index 1: digit <4001-digit integer> exceeds a_1 = 1"),
    (["--intercept", '{"m":%d,"p":0}' % 10 ** 4000, "cf"],
     "rho = -(<4001-digit integer>-1)theta + 0 is not positive"),
    (["--intercept", '{"m":1,"p":%d}' % -10 ** 4000, "cf"],
     "m = 1 requires p = 0 for rho in [0,1), got p=-<4001-digit integer>"),
    ([f"--base=-{10 ** 4000}", "cf"], "base must be >= 2, got -<4001-digit integer>"),
    (["word", "--length", str(10 ** 300)], "no level with q_k > <301-digit integer> within horizon 16"),
])
def test_a_refusal_names_a_long_integer_by_its_digit_count(capsys, argv, message):
    # the refusal stays one short line, whatever the integers it names
    code, out, err = run(capsys, "--slope", GOLDEN, *argv)
    assert code in (2, 3) and out == ""
    assert json.loads(err)["message"] == message and len(err.encode()) < 400


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_read_int_refuses_a_string_past_the_int_str_limit_in_one_wording(limit):
    # the limit is read, never set; 0 means no limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        if limit:
            assert read_int("-" + "7" * limit, "value") == -int("7" * limit)
            # a ValueError of its own type, so a caller can name the reason
            with pytest.raises(DigitLimitError) as exc:
                read_int("1" + "0" * 4400, "value")
            assert str(exc.value) == "value of 4401 digits is past the int-to-str digit limit"
        else:
            assert read_int("1" + "0" * 4400, "value") == 10 ** 4400
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)


def test_prefix_builds_only_the_levels_it_needs(capsys, monkeypatch):
    # the 8 printed terms reach level 7; the levels that settle the last
    # of them (one more level, characteristic, or the rule-(i) window of
    # levels 8 and 9, m = 1) are read for their signs only, so the command
    # computes the entries the 8 values name, each once, and no other
    computed = []
    entry = cfrac._entry

    def counted(spec, kind, k):
        computed.append((kind, k))
        return entry(spec, kind, k)

    slope = '{"preperiod":[5,3,2],"period":[5,3,2],"horizon":11}'
    table = build_table(SlopeSpec.from_json(json.loads(slope)))
    for intercept in ("characteristic", {"m": 1, "p": 0}):
        spec = cfrac.NumberSpec(3, WordSystem.from_spec(table, intercept))
        want = value_refs(spec, cfrac.continued_fraction(spec, terms=8))
        assert max(k for _, k in want) == 7
        flags = [] if intercept == "characteristic" else ["--intercept", json.dumps(intercept)]
        with monkeypatch.context() as m:
            m.setattr(cfrac, "_entry", counted)
            for sub in ("cf", "convergents"):
                computed.clear()
                code, out, _ = run(capsys, "--slope", slope, *flags,
                                   "--base", "3", sub, "--terms", "8")
                assert code == 0 and len(json.loads(out)[
                    "terms" if sub == "cf" else "convergents"]) == 8
                assert computed == want


def test_one_parser_serves_every_command_of_a_process(capsys):
    # the parser is built once per process: a parse error, then a text
    # command, then a default (JSON) one must each print what a fresh
    # process prints
    src = os.path.dirname(os.path.dirname(sturmian.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["--slope", GOLDEN, "cf", "--terms", "0"],
                 ["--slope", GOLDEN, "--format", "text", "cf", "--terms", "5"],
                 ["--slope", GOLDEN, "convergents", "--terms", "3"]):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "sturmian.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == (2 if argv[-1] == "0" else 0)


def test_import_leaves_the_int_str_limit_alone():
    src = os.path.dirname(os.path.dirname(sturmian.__file__))
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
    probe = ("import sys; before = sys.get_int_max_str_digits(); "
             "import sturmian.cli; print(before, sys.get_int_max_str_digits())")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["640", "640"]


INTERCEPT_FORMS = ("characteristic", "digits", "prefix", "m", "sigma", "sigma_pair")


@st.composite
def convergents_commands(draw, form):
    """(slope, intercept or None, upper, base, terms or None) with an
    intercept of the given form, over slopes with q_K <= 2000 and bases 2..9."""
    pre = draw(st.lists(st.integers(1, 9), max_size=3))
    period = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    deep = build_table(SlopeSpec(tuple(pre), tuple(period), 25))
    horizon = max(k for k in range(4, 26) if deep.q(k) <= 2000 or k == 4)
    table = build_table(SlopeSpec(tuple(pre), tuple(period), horizon))
    theta = Fraction(table.p(horizon), table.q(horizon))
    upper = False
    if form == "characteristic":
        intercept = None
    elif form in ("digits", "prefix"):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        digits = random_digits(rng, table, draw(st.integers(1, horizon)))
        intercept = {"digits": list(digits), "terminating": form == "digits"}
    elif form == "m":
        m = draw(st.integers(1, table.q(horizon)))
        intercept = {"m": m, "p": degenerate_p(table, m)}
        upper = draw(st.booleans())
    else:  # u*theta + v inside (-theta, 1 - theta), u = 0 for sigma
        u = draw(st.integers(-2, 2)) if form == "sigma_pair" else 0
        den = draw(st.integers(2, 30))
        lo, hi = -(u + 1) * theta * den, (1 - (u + 1) * theta) * den
        v = str(Fraction(draw(st.integers(math.floor(lo) + 1, math.ceil(hi) - 1)), den))
        intercept = {"sigma": v} if form == "sigma" else {"sigma_pair": [u, v]}
    return ({"preperiod": pre, "period": period, "horizon": horizon}, intercept,
            upper, draw(st.integers(2, 9)), draw(st.none() | st.integers(1, 12)))


def reference_convergents(slope, intercept, upper, base, terms):
    """The payload's pairs from the int recurrence of `cfrac.convergents`."""
    system = WordSystem.from_spec(build_table(SlopeSpec.from_json(slope)),
                                  intercept or "characteristic", upper=upper)
    spec = cfrac.NumberSpec(base, system)
    return [{"P": str(c.p), "Q": str(c.q), "j": str(c.index),
             "family": f"({c.family[0]})_{c.family[1]}"}
            for c in cfrac.convergents(cfrac.continued_fraction(spec, terms=terms),
                                       base)]


def run_convergents(slope, intercept, upper, base, terms):
    """(exit code, stdout, stderr) of one in-process `convergents` command."""
    argv = ["--slope", json.dumps(slope), "--base", str(base)]
    argv += ["--intercept", json.dumps(intercept)] if intercept else []
    argv += ["--upper"] if upper else []
    argv += ["convergents"] + (["--terms", str(terms)] if terms else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("form", INTERCEPT_FORMS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_convergents_payload_equals_the_int_recurrence(form, data):
    command = data.draw(convergents_commands(form))
    code, out, err = run_convergents(*command)
    try:
        want = reference_convergents(*command)
    except SturmianError as exc:  # refused alike, e.g. sigma too close to theta
        assert (code, json.loads(err)["error"]) == (exc.exit_code, type(exc).__name__)
        return
    assert code == 0
    assert json.loads(out)["convergents"] == want


def test_convergents_past_the_lowest_int_str_limit():
    # golden K=22 b=2 has terms of up to 4,200 bits (1,260 digits) and P/Q
    # of about 10,900 bits (3,300 digits), which the CLI prints under a
    # 640-digit limit without lifting it
    command = ({"preperiod": [1], "period": [1], "horizon": 22}, None, False, 2, None)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = reference_convergents(*command)
        sys.set_int_max_str_digits(640)
        code, out, _ = run_convergents(*command)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0 and json.loads(out)["convergents"] == want
    system = WordSystem.from_spec(build_table(SlopeSpec.from_json(command[0])))
    terms = [t.value for t in cfrac.continued_fraction(cfrac.NumberSpec(2, system))]
    assert len(str(max(terms))) > 640 and len(want[-1]["Q"]) > 640


class CountingSink(io.TextIOBase):
    """A stdout that keeps nothing and counts the characters written; its
    `buffer`, where `word --binary` writes, is itself and counts bytes."""

    def __init__(self):
        self.chars = 0
        self.buffer = self

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_convergents_hold_less_than_twice_what_they_write(fmt):
    # golden K=31 b=2: 1.3 MB of P/Q, the last row 38% of it.  Written row
    # by row, the traced peak stays under twice the output (1.3-1.7x),
    # where keeping every row and joining them took 3.1x
    argv = ["--slope", '{"preperiod":[1],"period":[1],"horizon":31}', "--base", "2",
            "--format", fmt]
    with contextlib.redirect_stdout(CountingSink()):  # the parser and lazy imports
        assert main(argv + ["cf", "--terms", "1"]) == 0
    sink = CountingSink()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv + ["convergents"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert code == 0 and sink.chars > 1_300_000
    assert peak < 2 * sink.chars


@pytest.mark.parametrize("flags", [["--format", "json"], ["--format", "text"],
                                   ["--format", "rle"], ["--binary"]])
def test_word_writes_a_million_letters_in_under_half_a_megabyte(flags):
    # the prefix goes out block by block, and its blocks are a few shared
    # strings: the traced peak is 0.04-0.13 MB on (5,3,2) K=12, where the
    # joined word and its list of runs took 1.0-15.3 MB
    argv = ["--slope", S532, "word", *flags, "--length"]
    with contextlib.redirect_stdout(CountingSink()):  # the parser and lazy imports
        assert main(argv + ["5"]) == 0
    sink = CountingSink()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv + ["1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert code == 0 and sink.chars > 125_000
    assert peak < 500_000


# strings with quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7fa\xe9\u20ac\U0001f600') | st.characters(),
                    max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=6), st.data())
def test_emit_writes_what_json_dumps_writes(payload, data):
    # list fields may be passed as iterators, which `_emit` writes item by
    # item, and string fields as `_Pieces`, written piece by piece
    def streamed_value(value):
        if isinstance(value, list) and data.draw(st.booleans()):
            return (x for x in value)
        if isinstance(value, str) and data.draw(st.booleans()):
            cuts = sorted(data.draw(st.lists(st.integers(0, len(value)), max_size=4)))
            return _Pieces([value[i:j] for i, j in zip([0, *cuts], [*cuts, len(value)])])
        return value

    streamed = {key: streamed_value(value) for key, value in payload.items()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(streamed, "json", None)
    assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"


def test_emit_writes_a_string_of_pieces_as_json_dumps_writes_the_string():
    # JSON escapes each character on its own, so cut anywhere, even
    # between a character that needs a surrogate pair and the next, the
    # escaped pieces concatenate to the escaped string
    text = 'a"b\\c\x00\x1f\n\t\x7f\xe9\u20ac\U0001f600 ' * 2
    want = json.dumps({"n": "1", "w": text}, sort_keys=True) + "\n"
    for cut in range(len(text) + 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit({"w": _Pieces(iter([text[:cut], "", text[cut:]])), "n": "1"}, "json", None)
        assert out.getvalue() == want, cut


def test_computed_integers_print_past_the_int_str_limit(capsys):
    # partial quotients of 100 digits: under the lowest int-to-str limit
    # the digit sums, interval ends, digits, growth ratios and heights
    # are past it, and each prints as the integer it is
    quotients = [str(10 ** 99 + j) for j in (1, 3, 7, 9)]
    slope = json.dumps({"preperiod": [], "period": quotients, "horizon": 12})
    table = build_table(SlopeSpec.from_json(json.loads(slope)))
    commands = [["ostrowski-int", "--digits", "0,0,0,0,0,0,0,0,0,5"],
                ["ostrowski-real", "--digits", "0,0,5"],
                ["ostrowski-real", "--sigma", "1/3"],
                ["--intercept", '{"digits":[1]}', "exponent"]]

    def fr(x):
        return None if x is None else f"{x.numerator}/{x.denominator}"

    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        outs = []
        for argv in commands:
            code, out, err = run(capsys, "--slope", slope, *argv)
            assert code == 0, err
            outs.append(json.loads(out))
        sys.set_int_max_str_digits(0)  # for the reference strings
        got_int, got_real, got_sigma, got_exp = outs
        assert got_int["n"] == str(5 * table.q(9)) and len(got_int["n"]) > 640
        sigma_digits = ostrowski.encode_real(Fraction(1, 3), table)
        assert got_sigma["digits"] == [str(d) for d in sigma_digits.digits]
        for got, digits in ((got_real, (0, 0, 5)), (got_sigma, sigma_digits)):
            lo, hi = ostrowski.decode_real(digits, table)
            assert (got["lower"], got["upper"]) == (fr(lo), fr(hi))
            assert len(got["lower"]) > 2 * 640
        system = WordSystem.from_spec(table, {"digits": [1]})
        rows = exponent.nu_table(system)
        assert got_exp["nu"] == [{"k": str(r.k), **{f"nu{j}": fr(r.nu(j)) for j in range(1, 5)}}
                                 for r in rows]
        records = []
        for k in range(2, len(rows)):
            try:
                records += exponent.classify_families(system, k)
            except (ConfigError, HorizonError):
                pass
        assert [(s["height"], s["mu"], s["errorExponent"]) for s in got_exp["strong"]] == [
            (str(r.height), fr(r.mu), fr(r.error_exponent)) for r in records]
        assert max(len(s["height"]) for s in got_exp["strong"]) > 640
        est = exponent.irrationality_estimate(system)
        assert got_exp["estimate"]["mu"] == fr(est.mu_estimate)
        assert got_exp["estimate"]["muFloat"] == float(est.mu_estimate)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("flag, value", [
    ("--slope", '{"preperiod":"5325","horizon":4}'),
    ("--slope", '{"preperiod":[1],"period":"532","horizon":8}'),
    ("--intercept", '{"digits":"12"}'),
    ("--intercept", '{"sigma_pair":"00"}'),
], ids=["preperiod", "period", "digits", "sigma_pair"])
def test_a_json_string_is_no_list(capsys, flag, value):
    # a string would iterate as its characters: "5325" as 5, 3, 2, 5
    argv = [flag, value] if flag == "--slope" else ["--slope", S532, flag, value]
    code, out, err = run(capsys, *argv, "cf")
    assert (code, out) == (2, "")
    assert "must be a JSON list, got '" in json.loads(err)["message"]


@pytest.mark.parametrize("where", ["slope", "intercept", "config"])
def test_a_json_integer_literal_past_the_int_str_limit_exits_2(capsys, tmp_path, where):
    # json.loads refuses the literal with a plain ValueError, which is no
    # JSONDecodeError
    literal = "1" + "0" * 4400
    slope = '{"preperiod":[%s],"horizon":4}' % literal
    argv = {"slope": ["--slope", slope],
            "intercept": ["--slope", GOLDEN, "--intercept", '{"m":%s,"p":0}' % literal],
            "config": ["--config", str(tmp_path / "config.json")]}[where]
    (tmp_path / "config.json").write_text('{"slope":%s}' % slope)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, *argv, "cf")
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


def test_the_benchmark_tracer_leaves_traced_commands_working():
    # perfbench/tracing.py wraps the public functions of every layer from
    # outside and reads some of the values they return; a return value it
    # cannot read makes every traced command fail
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    s532 = '{"preperiod":[5,3,2],"period":[5,3,2],"horizon":11}'
    argvs = [["--slope", s532, "--base", "3", "cf", "--terms", "8"],
             ["--slope", s532, "--base", "3", "convergents", "--terms", "8"],
             ["--slope", GOLDEN, "verify"]]
    script = "\n".join([
        "import io, json, sys",
        f"sys.path[:0] = [{os.path.join(root, 'src')!r}, {os.path.join(root, 'perfbench')!r}]",
        "import sturmian.cli as cli",
        "from tracing import Tracer",
        "tracer, codes, out = Tracer(), [], sys.stdout",
        "tracer.install()",
        "for i, argv in enumerate(json.loads(sys.argv[1])):",
        "    tracer.begin(i, argv)",
        "    sys.stdout = io.StringIO()",
        "    codes.append(cli.main(argv))",
        "out.write(json.dumps([codes, tracer.metrics()]))",
    ])
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, metrics = json.loads(done.stdout)
    assert codes == [0, 0, 0]
    assert metrics["oracle.enclosures"] >= 1
