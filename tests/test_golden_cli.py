"""Golden CLI corpus: a fixed command list replayed against recorded output.

For each command `golden_cli.json` holds the exit code, the sha256 of
stdout and the stderr text.  A change meant to keep behaviour must leave
every entry as recorded; a change meant to alter an output re-records
the data and says which entries moved.  Re-record with

    PYTHONPATH=src python tests/test_golden_cli.py --record

which prints each entry whose record changed (its index, its old and
new exit code and its argv) and then their count, so the list of moved
entries comes from the tool.  Replay the corpus without pytest (on any
interpreter that runs the package) with

    PYTHONPATH=src python tests/test_golden_cli.py --check

The corpus covers all eight subcommands on three small slopes, every
intercept form the CLI accepts, the three output formats, `--binary`,
and refusals with exit codes 2 and 3, none of which prints anything.
Commands run in this directory, so a config file the corpus names is one
kept here.
"""

import hashlib
import io
import json
import os
import subprocess
import sys

import sturmian
from sturmian.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "golden_cli.json")


def _slope(pre, per, horizon):
    return json.dumps({"preperiod": pre, "period": per, "horizon": horizon},
                      separators=(",", ":"))


def _intercept(obj):
    return ["--intercept", json.dumps(obj, separators=(",", ":"))]


# slope JSON, base, intercepts by name, m > 1 degenerate pair, sigma values
SLOPES = {
    "golden": dict(
        slope=_slope([1], [1], 16), base="2",
        digits=[0, 1, 0, 0, 1], open_digits=[0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
        m=(3, 2), sigma="1/5", sigma_pair=[1, "-1/2"], encode="100",
    ),
    "532": dict(
        slope=_slope([5, 3, 2], [5, 3, 2], 8), base="3",
        digits=[1, 0, 2, 0, 1], open_digits=[1, 0, 2, 0, 1, 1, 0],
        m=(3, 1), sigma="1/2", sigma_pair=[1, "-1/5"], encode="1000",
    ),
    "213-14": dict(
        slope=_slope([2, 1, 3], [1, 4], 10), base="5",
        digits=[1, 0, 3, 0, 2], open_digits=[1, 0, 3, 0, 2, 0, 3, 0],
        m=(3, 1), sigma="1/3", sigma_pair=[1, "-1/2"], encode="2000",
    ),
}


def _intercepts(s):
    m, p = s["m"]
    return {
        "characteristic": [],
        "characteristic-named": ["--intercept", "characteristic"],
        "digits": _intercept({"digits": s["digits"]}),
        "digits-open": _intercept({"digits": s["open_digits"],
                                   "terminating": False}),
        "m1": _intercept({"m": 1, "p": 0}),
        "m1-upper": _intercept({"m": 1, "p": 0}) + ["--upper"],
        "m": _intercept({"m": m, "p": p}),
        "m-upper": _intercept({"m": m, "p": p}) + ["--upper"],
        "sigma": _intercept({"sigma": s["sigma"]}),
        "sigma-pair": _intercept({"sigma_pair": s["sigma_pair"]}),
    }


SUBCOMMANDS = [
    ["word", "--length", "40"],
    ["--format", "text", "word", "--length", "40"],
    ["--format", "rle", "word", "--length", "40"],
    ["word", "--binary", "--length", "45"],
    ["cf"],
    ["--format", "text", "cf", "--terms", "4"],
    ["convergents"],
    ["--format", "text", "convergents", "--terms", "3"],
    ["exponent"],
    ["--format", "text", "exponent"],
    ["verify"],
    ["verify", "--terms", "4"],
    ["--format", "text", "boehmer", "--terms", "4"],
    ["boehmer", "--check"],
]


def corpus() -> list[list[str]]:
    cmds = []
    for s in SLOPES.values():
        head = ["--slope", s["slope"], "--base", s["base"]]
        for intercept in _intercepts(s).values():
            for sub in SUBCOMMANDS:
                cmds.append(head + intercept + sub)
        sl = ["--slope", s["slope"]]
        pair = ",".join(str(x) for x in s["sigma_pair"])
        cmds += [
            sl + ["ostrowski-int", "--encode", s["encode"]],
            sl + ["--format", "text", "ostrowski-int", "--encode", s["encode"]],
            sl + ["ostrowski-int", "--digits", "1,0,1"],
            sl + ["ostrowski-real", "--sigma", s["sigma"]],
            sl + ["--format", "text", "ostrowski-real", "--sigma=-1/7"],
            sl + ["ostrowski-real", "--sigma-pair", pair],
            sl + ["ostrowski-real", "--digits", ",".join(map(str, s["digits"]))],
            sl + ["--format", "text", "ostrowski-real", "--digits", "0,0,1"],
            sl + ["--horizon", "5", "cf"],
            # exit 3: beyond the slope horizon
            sl + ["word", "--length", "100000"],
            sl + ["ostrowski-int", "--encode", "10000000"],
        ]
    golden = SLOPES["golden"]["slope"]
    g = ["--slope", golden]
    cmds += [
        # exit 2: bad configuration or digits
        ["--slope", _slope([1], [1], 3), "word", "--length", "5"],
        g + _intercept({"digits": [1, 1]}) + ["word", "--length", "5"],
        g + _intercept({"digits": [0, 1], "m": 1}) + ["cf"],
        g + _intercept({"sigma": "1/0"}) + ["cf"],
        g + _intercept({"sigma": "5/4"}) + ["cf"],
        g + _intercept({"sigma_pair": [1, "0"]}) + ["cf"],
        g + _intercept({"sigma_pair": [-1, "1"]}) + ["cf"],
        g + _intercept({"m": 0, "p": 0}) + ["cf"],
        g + _intercept({"m": 1, "p": 1}) + ["cf"],
        g + ["--intercept", "bogus", "cf"],
        g + ["--base", "1", "cf"],
        g + ["word"],
        g + ["ostrowski-int"],
        g + ["ostrowski-int", "--digits", "1,1"],
        g + ["ostrowski-real"],
        g + ["ostrowski-real", "--sigma", "x/2"],
        ["--config", "no-such-config.json", "cf"],
        ["cf"],
        # exit 3: horizon exhausted
        g + _intercept({"m": 5000, "p": 3090}) + ["cf"],
        g + _intercept({"digits": [0, 1], "terminating": False})
        + ["word", "--length", "30"],
        # exit 2: a JSON float or boolean where an integer or boolean belongs
        ["--slope", _slope([1.5], [1], 8), "cf"],
        ["--slope", _slope([1], [True], 8), "cf"],
        g + _intercept({"digits": [0, 1], "terminating": "false"})
        + ["word", "--length", "5"],
        g + _intercept({"digits": [0.9, 1.7]}) + ["word", "--length", "12"],
        g + _intercept({"m": True, "p": False}) + ["cf"],
        ["--config", "golden_float_base_config.json"] + g + ["cf"],
        # exit 2: a digit prefix is not rho = theta, even one of zeros, and
        # a word with no known level has no expansion
        g + _intercept({"digits": [], "terminating": False}) + ["boehmer", "--check"],
        g + _intercept({"digits": [0, 0], "terminating": False}) + ["boehmer", "--check"],
        g + _intercept({"digits": [], "terminating": False}) + ["cf"],
        g + _intercept({"digits": [], "terminating": False}) + ["verify"],
        # exit 2: an integer is an optional sign and ASCII digits
        g + ["ostrowski-int", "--digits", "1_0"],
        g + ["ostrowski-real", "--sigma", "1_0/3"],
        g + ["ostrowski-real", "--sigma-pair", " 1,-1/2"],
        g + _intercept({"digits": ["0", " 1"]}) + ["word", "--length", "5"],
        # exit 3: a word that gives no pipeline term (or no digit) has
        # nothing to verify
        g + _intercept({"digits": [0, 1, 0], "terminating": False}) + ["verify"],
        g + _intercept({"digits": [0], "terminating": False}) + ["verify"],
        # a_1 = 2^20 + 5: M_1 is read in blocks, never built; letter a_1 is the 1
        ["--slope", _slope([(1 << 20) + 5], [1], 5), "word", "--binary",
         "--length", str((1 << 20) + 6)],
        # exit 2: `exponent` refuses a bad base like every number command;
        # exit 3: a word of one level has no row in the growth table
        g + ["--base", "1", "exponent"],
        g + _intercept({"digits": [0], "terminating": False}) + ["exponent"],
        # text and rle print verify's verdict alone, here a match on both
        # (`test_cli` prints a shortfall's)
        g + ["--base", "2", "--format", "text", "verify"],
        ["--slope", SLOPES["532"]["slope"], "--base", "3", "--format", "rle", "verify"],
    ]
    # the first terms of (5,3,2) K=11 b=3: terms and P/Q of 10k-41k bits,
    # printed down the ladder of `bigint`
    for intercept in (_intercept({"m": 1, "p": 0}), []):
        for sub in ("cf", "convergents"):
            cmds.append(["--slope", _slope([5, 3, 2], [5, 3, 2], 11), *intercept,
                         "--base", "3", sub, "--terms", "8"])
    # exit 2: a JSON string where a list belongs is not read as its
    # characters
    s532 = ["--slope", SLOPES["532"]["slope"]]
    cmds += [
        ["--slope", '{"preperiod":"5325","horizon":4}', "cf"],
        ["--slope", '{"preperiod":[1],"period":"532","horizon":8}', "cf"],
        s532 + ["--intercept", '{"digits":"12"}', "cf"],
        s532 + ["--intercept", '{"sigma_pair":"00"}', "cf"],
    ]
    # partial quotients of 640 digits, the most an input may have under
    # the lowest int-to-str limit: digit sums, interval ends, growth
    # ratios and heights of 2,500-20,000 digits, and a mu past the float
    # range ("muFloat" null, text "mu ~= inf")
    big = ["--slope", _slope([], [str(10 ** 639 + j) for j in (1, 3, 7, 9)], 10)]
    cmds += [
        big + ["ostrowski-int", "--digits", "0,0,0,0,0,0,0,0,5"],
        big + ["ostrowski-real", "--digits", "0,0,5"],
        big + ["--horizon", "5", "ostrowski-real", "--sigma", "1/3"],
        big + ["exponent"],
        big + _intercept({"digits": [1]}) + ["exponent"],
        big + _intercept({"digits": [1]}) + ["--format", "text", "exponent"],
    ]
    # exit 2: a JSON integer literal past the int-to-str limit, 4,300
    # digits by default and 640 at the lowest
    literal = "1" + "0" * 4400
    cmds += [
        ["--slope", '{"preperiod":[%s],"horizon":4}' % literal, "cf"],
        g + ["--intercept", '{"m":%s,"p":0}' % literal, "cf"],
    ]
    # exit 3: an a_2 of 640 digits makes q_2 about 10^640, so the terms of
    # level 1 and the closed-form terms from k = 2 need powers of the base
    # of about that many bits
    huge = ["--slope", _slope(["10", str(10 ** 639), "1", "1"], [], 4)]
    cmds += [huge + ["cf"], huge + ["boehmer", "--terms", "3"]]
    # exit 2: a decimal string past the int-to-str limit, refused in the
    # same words under any limit, with at most 200 characters of the input
    cmds += [
        ["--slope", '{"preperiod":["%s"],"horizon":4}' % literal, "cf"],
        g + ["--intercept", '{"digits":["%s"]}' % literal, "cf"],
        g + ["ostrowski-real", "--sigma", "1/" + literal],
    ]
    # exit 3: verify's first enclosure, N = 4 q_3 = 648,036,008 digits,
    # needs a power of the base past the cap; exit 0: two passes, the
    # second of N = 641,616 digits, certify both pipeline terms under it
    cmds.append(["--slope", _slope([2], [9000], 4), "verify"])
    cmds.append(["--slope", _slope([2], [200], 4), "verify"])
    # seven partial quotients of 600 digits: each sigma digit is one
    # certified floor, where a search over 0..a_k took seconds
    wide = ["--slope", _slope([str(10 ** 599 + j) for j in (1, 3, 7, 9, 11, 13, 17)], [], 7)]
    cmds += [
        wide + ["ostrowski-real", "--sigma", "1/3"],
        wide + _intercept({"sigma": "1/3"}) + ["word", "--length", "1000"],
        # exit 2: on the boundary between digits 1 and 2 after b_1 = 1
        # (sigma = 2 - 10 theta), and beyond the top of the digit range
        s532 + ["ostrowski-real", "--sigma-pair=-10,2"],
        s532 + ["ostrowski-real", "--sigma-pair", "2,1/2"],
        # exit 2: an integer past the int-to-str limit, refused with why
        g + ["ostrowski-int", "--digits", literal],
        g + ["ostrowski-real", "--sigma-pair", literal + ",1/2"],
    ]
    # the rle form of `convergents`, which like text is written row by row
    cmds += [["--slope", s["slope"], "--base", s["base"], "--format", "rle", "convergents"]
             for s in SLOPES.values()]
    # exit 3: a word prefix past the size budget of 2^24 letters, refused
    # before it is built
    cmds.append(["--slope", _slope([1], [1], 40), "word", "--length", str((1 << 24) + 1)])
    # exit 3: a convergent table past the size budget, refused as it grows
    # (after about 4,900 levels), however few letters are asked for
    cmds.append(["--slope", _slope([1], [1], 100000), "word", "--length", "5"])
    # word prefixes longer than one block of 16,384 letters, in every
    # format: runs and packed bits carry across blocks; the digits'
    # window at t_k = 18,210 wraps past q_k for both lengths
    s532_12 = ["--slope", _slope([5, 3, 2], [5, 3, 2], 12), "--base", "3"]
    for intercept in ([], _intercept({"digits": [4, 0, 2, 0, 3, 0, 1, 2, 0, 3]}),
                      _intercept({"m": 1, "p": 0}) + ["--upper"]):
        for length in ("16385", "50003"):
            cmds += [s532_12 + intercept + fmt + ["word", *flag, "--length", length]
                     for fmt, flag in (([], []), (["--format", "text"], []),
                                       (["--format", "rle"], []), ([], ["--binary"]))]
    # exit 3, with nothing written, not even the --binary header: past the
    # size budget, and a digit prefix too short for the length
    big_g = ["--slope", _slope([1], [1], 40)]
    short = g + _intercept({"digits": [0, 1], "terminating": False})
    cmds += [big_g + ["word", "--binary", "--length", str((1 << 24) + 1)],
             big_g + ["--format", "text", "word", "--length", str((1 << 24) + 1)],
             short + ["word", "--binary", "--length", "30"],
             short + ["--format", "text", "word", "--length", "30"]]
    # exit 2: digits 5,0,9 on (5,3,2) break the leading rule at index 1
    # and the bound a_3 = 2 at index 3; the first in index order is named
    cmds += [s532 + _intercept({"digits": [5, 0, 9]}) + ["word", "--length", "5"],
             s532 + ["ostrowski-int", "--digits", "5,0,9"],
             s532 + ["ostrowski-real", "--digits", "5,0,9"]]
    return cmds


def execute(argv):
    """(exit code, stdout bytes, stderr text) of `sturmian.cli.main(argv)`."""
    buf = io.BytesIO()
    real_out, real_err, cwd = sys.stdout, sys.stderr, os.getcwd()
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
    sys.stderr = io.StringIO()
    os.chdir(HERE)
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
        err = sys.stderr.getvalue()
    finally:
        os.chdir(cwd)
        sys.stdout.detach()
        sys.stdout, sys.stderr = real_out, real_err
    return code, buf.getvalue(), err


def record(argv):
    code, out, err = execute(argv)
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest(), "stderr": err}


def _load():
    # missing data (before the first recording) fails the corpus test below
    if not os.path.exists(DATA):
        return []
    with open(DATA) as fh:
        return json.load(fh)


RECORDED = _load()


def test_corpus_matches_recorded_commands():
    assert [e["argv"] for e in RECORDED] == corpus()


def pytest_generate_tests(metafunc):
    # parametrized here rather than by decorator, so that --check below
    # needs no pytest
    if "entry" in metafunc.fixturenames:
        metafunc.parametrize("entry", RECORDED,
                             ids=[f"{i:03d}" for i in range(len(RECORDED))])


def test_golden_output(entry):
    assert record(entry["argv"]) == entry


def test_corpus_replays_under_the_lowest_int_str_limit():
    # 640 is the lowest int-to-str limit CPython accepts; the payloads past
    # it must print as recorded without the CLI lifting the limit
    src = os.path.dirname(os.path.dirname(sturmian.__file__))
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, __file__, "--check"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    assert f"{len(RECORDED)} of {len(RECORDED)} entries match" in done.stdout


def test_every_recorded_stderr_is_short():
    # an error echoes at most 200 characters of its input
    assert max(len(e["stderr"].encode()) for e in RECORDED) < 400


def test_every_recorded_refusal_prints_nothing():
    # every check that can refuse runs before the first byte is written,
    # so a refused command never leaves part of an output behind
    empty = hashlib.sha256(b"").hexdigest()
    refused = [e for e in RECORDED if e["exit"] in (2, 3)]
    assert refused and all(e["stdout_sha256"] == empty for e in refused)


def check() -> int:
    """Replay the corpus and print each differing entry; return how many
    differ (1 when the command list itself no longer matches)."""
    if [e["argv"] for e in RECORDED] != corpus():
        print("golden_cli.json does not hold the current corpus")
        return 1
    bad = 0
    for i, entry in enumerate(RECORDED):
        got = record(entry["argv"])
        if got != entry:
            bad += 1
            print(f"{i:03d} differs: exit {got['exit']} "
                  f"(recorded {entry['exit']}) {' '.join(entry['argv'])}")
    print(f"{len(RECORDED) - bad} of {len(RECORDED)} entries match "
          f"(Python {sys.version.split()[0]})")
    return bad


def record_all() -> int:
    """Re-record the corpus, print each entry whose record changed (a new
    entry has no old exit code) and their count; return the count."""
    entries = [record(argv) for argv in corpus()]
    changed = 0
    for i, entry in enumerate(entries):
        old = RECORDED[i] if i < len(RECORDED) else None
        if entry != old:
            changed += 1
            was = "new" if old is None else f"exit {old['exit']}"
            print(f"{i:03d} changed: {was} -> exit {entry['exit']} {' '.join(entry['argv'])}")
    with open(DATA, "w") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    dropped = max(len(RECORDED) - len(entries), 0)
    print(f"{changed} of {len(entries)} entries changed"
          + (f", {dropped} dropped from the end" if dropped else ""))
    return changed


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record_all()
