"""Output checks for one pass of a workload.

Every command ends in one of three states:

* ok     -- the exit code is in the expected class and the output passes
            its check;
* failed -- the exit code is outside the expected class but nothing
            printed contradicts the checks (a refusal, a crash, or the
            known `verify` precision shortfall reported as exit 4);
* wrong  -- the output contradicts its check, or an invalid input was
            accepted.  A wrong command is also failed.

A command that fails in any pass of a run is failed; failed commands
over the workload's commands is its `fail_frac`.  The run is `correct`
only while no command is wrong.  The fixed commands compare stdout and
exit code with digests recorded at the seed commit (`expected.json`),
except `verify`, whose report must carry the recorded pipeline terms and
a certified prefix that agrees with them, so that fixing the known
shortfall is not reported as a wrong output.  A fixed command is always
checked, whatever its exit code, so a crash or refusal there is wrong.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import accumulate

_FAMILY = re.compile(r"\((1|2-1|2|3|4)\)_(\d+)")


class Wrong(Exception):
    """An output contradicts its check."""


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from None


def _require(cond, message):
    if not cond:
        raise Wrong(message)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def run_length(word: str) -> str:
    return " ".join(m.group(0)[0] if len(m.group(0)) == 1
                    else f"{m.group(0)[0]}^{len(m.group(0))}"
                    for m in re.finditer(r"0+|1+", word))


def characteristic_word(a, length):
    """Prefix of the characteristic word: s_k = s_{k-1}^{a_k} s_{k-2}."""
    prev, cur = "0", "0" * (a[0] - 1) + "1"
    k = 1
    while len(cur) < length and k < len(a):
        prev, cur = cur, cur * a[k] + prev
        k += 1
    return cur[:length]


def _balanced(word: str) -> bool:
    """Sturmian words are balanced: windows of one length differ by at most
    one in their count of 1s."""
    ones = [0, *accumulate(ch == "1" for ch in word)]
    for n in (1, 2, 3, 5, 8, 13, 21):
        if n > len(word):
            break
        counts = [ones[i + n] - ones[i] for i in range(len(word) - n + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def check_digest(cmd, code, out, ctx):
    rec = ctx["expected"][cmd.key]
    _require(code == rec["exit"] and digest(out) == rec["sha256"],
             f"stdout/exit differ from the recorded digest of {cmd.key}")


def check_verify(cmd, code, out, ctx):
    """The certified prefix must agree with the pipeline on their overlap;
    exit 0 additionally needs `matches`.  A fixed command must print the
    recorded pipeline and exit 0 or with the recorded code (the known
    shortfall exits 4 until it is fixed)."""
    rec = ctx["expected"].get(cmd.key)
    if rec is not None:
        _require(code in (0, rec["exit"]), f"exit {code}, recorded {rec['exit']}")
    rep = _json(out)
    cert, pipe = rep["certifiedPrefix"], rep["pipeline"]
    overlap = min(len(cert), len(pipe))
    _require(rep["overlap"] == overlap, "overlap field is wrong")
    _require(cert[:overlap] == pipe[:overlap] and rep["firstMismatchIndex"] is None,
             "pipeline disagrees with the certified oracle prefix")
    _require(rep["matches"] == (code == 0), "matches flag contradicts exit code")
    terms = rec["pipeline"] if rec is not None else ctx["cf"].get(cmd.info.get("case"))
    if terms is not None:
        _require(pipe == terms, "verify pipeline differs from the expected terms")


def check_word(cmd, code, out, ctx):
    rep = _json(out)
    word, length = rep["word"], cmd.info["length"]
    _require(rep["length"] == str(length) and len(word) == length,
             "word length is wrong")
    _require(set(word) <= {"0", "1"}, "word is not binary")
    _require(rep["rle"] == run_length(word), "run-length form is wrong")
    _require(_balanced(word), "word is not balanced")
    if cmd.info["form"] == "characteristic":
        _require(word == characteristic_word(cmd.info["a"], length),
                 "characteristic word differs from s_k = s_{k-1}^a_k s_{k-2}")


def check_ostrowski_int(cmd, code, out, ctx):
    rep = _json(out)
    _require(rep["n"] == str(cmd.info["n"]), "integer differs")
    _require(rep["digits"] == [str(d) for d in cmd.info["digits"]],
             "digits differ from the unique valid expansion")


def check_ostrowski_real(cmd, code, out, ctx):
    rep = _json(out)
    lo, hi = Fraction(rep["lower"]), Fraction(rep["upper"])
    _require(lo <= hi, "empty interval")
    _require(lo <= cmd.info["value_hi"] and hi >= cmd.info["value_lo"],
             "interval misses the value")


def check_cf(cmd, code, out, ctx):
    rep = _json(out)
    _require(rep["base"] == str(cmd.info["base"]), "base differs")
    terms = []
    for t in rep["terms"]:
        m = _FAMILY.fullmatch(t["family"])
        _require(m is not None and m.group(2) == t["k"], "bad family tag")
        _require(int(t["term"]) >= 1, "non-positive partial quotient")
        terms.append(t["term"])
    ctx["cf"][cmd.info["case"]] = terms


def check_convergents(cmd, code, out, ctx):
    """P_j, Q_j follow the convergent recurrence over the cf terms, seeded
    with (b-1, 0) and (0, b-1)."""
    rep = _json(out)
    w = cmd.info["base"] - 1
    pairs = [(int(c["P"]), int(c["Q"])) for c in rep["convergents"]]
    terms = ctx["cf"].get(cmd.info["case"])
    if terms is not None:
        _require(len(terms) == len(pairs), "convergent count differs from cf")
        p0, q0, p1, q1 = w, 0, 0, w
        for t, (p, q) in zip(terms, pairs):
            p0, p1 = p1, int(t) * p1 + p0
            q0, q1 = q1, int(t) * q1 + q0
            _require((p, q) == (p1, q1), "convergent recurrence broken")
    for (p0, q0), (p1, q1) in zip(pairs, pairs[1:]):
        _require(abs(p1 * q0 - p0 * q1) == w * w, "determinant is not (b-1)^2")


def check_exponent(cmd, code, out, ctx):
    rep = _json(out)
    est = rep["estimate"]
    cands = [Fraction(est[f"nu{j}"]) for j in range(1, 5) if est[f"nu{j}"]]
    _require(Fraction(est["mu"]) == max(cands), "mu is not the largest nu")
    if cmd.info["form"] == "characteristic":
        # t_k = 0 and r_k = q_k, so each nu_j is a ratio of denominators
        qs = cmd.info["qs"]
        for row in rep["nu"]:
            k = int(row["k"])
            q0, q1, q2 = qs[k + 1], qs[k + 2], qs[k + 3]
            want = (Fraction(2), 2 + Fraction(q0, q1),
                    1 + Fraction(q1, q1 + q0), 1 + Fraction(q2, q1))
            got = tuple(Fraction(row[f"nu{j}"]) for j in range(1, 5))
            _require(got == want, f"nu row {k} differs from the q_k ratios")


def check_boehmer(cmd, code, out, ctx):
    """Closed form (b^q_k - b^q_{k-2}) / (b^q_{k-1} - 1), k = 1..K-4."""
    rep = _json(out)
    b, qs = cmd.info["base"], cmd.info["qs"]
    want = [str((b ** qs[k + 1] - b ** qs[k - 1]) // (b ** qs[k] - 1))
            for k in range(1, len(qs) - 5)]
    _require(rep["terms"] == want, "closed-form terms differ")
    terms = ctx["cf"].get(cmd.info["case"])
    if cmd.info["form"] == "characteristic" and terms is not None:
        n = min(len(terms), len(want))
        _require(terms[:n] == want[:n], "closed form differs from cf terms")


def check_refused(cmd, code, out, ctx):
    _require(code != 0, "invalid input was accepted")


CHECKS = {
    "digest": check_digest,
    "verify": check_verify,
    "word": check_word,
    "ostrowski-int": check_ostrowski_int,
    "ostrowski-real": check_ostrowski_real,
    "cf": check_cf,
    "convergents": check_convergents,
    "exponent": check_exponent,
    "boehmer": check_boehmer,
    "refused": check_refused,
}


def judge(commands, results, expected):
    """(indices of failed commands, wrong messages) over one pass;
    results are (code, stdout).

    A fixed command (one with a recorded output) is always checked.  A
    refusal of a valid random input is checked no further.  `verify`
    exit 4 still prints its report, which must be consistent: a real
    mismatch is wrong, a short certified prefix only failed.
    """
    ctx = {"expected": expected, "cf": {}}
    failed, wrong = [], []
    for i, (cmd, (code, out)) in enumerate(zip(commands, results)):
        ok = code in cmd.expect
        checked = (ok or cmd.key is not None or cmd.check == "refused"
                   or (cmd.check == "verify" and code == 4 and out))
        if checked:
            try:
                CHECKS[cmd.check](cmd, code, out, ctx)
            except (Wrong, KeyError, TypeError, ValueError) as exc:
                ok = False
                wrong.append(f"#{i} {' '.join(cmd.argv)[-120:]}: "
                             f"{type(exc).__name__}: {exc}")
        if not ok:
            failed.append(i)
    return failed, wrong
