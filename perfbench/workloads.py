"""Workload definitions: each workload is a list of `Command`s.

A command is the argv handed to `sturmian.cli.main` plus what the checks
need to judge its output.  The fixed commands never read the seed; the
small sweep inside `full-expansion` derives every input from it.  The
program only ever receives the generated argv.

Why each workload exists (ROADMAP aim 1 asks for a benchmark whose
workloads load the layers separately):

* prefix-terms   -- few `cf`/`convergents` terms from a deep horizon.
  `cfrac.term_block` builds every level although the printed terms need
  only a handful, so it is ~99% of the time.  It is the workload a
  demand-driven term pipeline (ROADMAP item 2) should speed up.
* full-expansion -- every level is printed, so `cfrac` is used the other
  way round and the decimal serialisation in `cli` of multi-Mbit
  convergents is about a third of the time.  A demand-driven pipeline
  that costs full expansions shows here; so does `words` at 10^6
  letters.  It also runs a seeded sweep of ~185 small commands over all
  eight subcommands and all intercept forms, with a fixed share of
  invalid inputs, checked independently of the program: the only
  place `exponent`, `ostrowski` and the per-call paths of `slope` and
  `cli` run, so the traced run measures every layer.  The sweep is
  about a tenth of a pass, so the workload's time stays dominated by
  big-int work.
* oracle-verify  -- `verify`, where the oracle's enclosure and lockstep
  Euclid (ROADMAP item 3) do most of the work.  It keeps the known
  (5,3,2) K=10 b=3 precision shortfall (exit 4), counted as a failure.

The small commands run as a sweep inside full-expansion, not as a timed
workload of their own: their cost is interpreter overhead, whose speed
on a shared host drifts by 20-40% from minute to minute, far more than
that of big-int work, so their timings could not hold a bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

OK = (0,)  # expected exit-code class of a valid input


@dataclass
class Command:
    """One CLI invocation and what its output is checked against."""

    argv: list[str]
    check: str  # key into checks.CHECKS
    expect: tuple[int, ...] = OK
    info: dict = field(default_factory=dict)  # data the check needs
    key: str | None = None  # id of the recorded digest (fixed workloads)


def _slope(pre, per, horizon) -> str:
    return json.dumps({"preperiod": list(pre), "period": list(per),
                       "horizon": horizon}, separators=(",", ":"))


# The (5,3,2) term workloads use K=11, not the K=12 of the ROADMAP
# profile: at K=12 one prefix-terms pass takes ~15 s, which leaves one or
# two passes per run and a run-to-run spread above 10%.  At K=11
# term_block is still ~98% of a `cf --terms 8`.
S532_12 = _slope([5, 3, 2], [5, 3, 2], 12)
S532_11 = _slope([5, 3, 2], [5, 3, 2], 11)
S532_10 = _slope([5, 3, 2], [5, 3, 2], 10)
GOLDEN_29 = _slope([1], [1], 29)
GOLDEN_28 = _slope([1], [1], 28)
S213_14_K16 = _slope([2, 1, 3], [1, 4], 16)
M1P0 = '{"m":1,"p":0}'


def _fixed(name: str, argvs: list[list[str]]) -> list[Command]:
    return [Command(argv, "verify" if "verify" in argv else "digest",
                    key=f"{name}/{i}") for i, argv in enumerate(argvs)]


def prefix_terms() -> list[Command]:
    argvs = []
    for intercept in (["--intercept", M1P0], []):
        for sub in ("cf", "convergents"):
            argvs.append(["--slope", S532_11, *intercept, "--base", "3",
                          sub, "--terms", "8"])
    return _fixed("prefix-terms", argvs)


def full_expansion(seed: int) -> list[Command]:
    argvs = []
    for slope, base in ((S532_11, "3"), (GOLDEN_29, "2")):
        argvs.append(["--slope", slope, "--base", base, "cf"])
        argvs.append(["--slope", slope, "--base", base, "convergents"])
        argvs.append(["--slope", slope, "--base", base, "boehmer", "--check"])
    argvs.append(["--slope", S532_12, "--base", "3", "word", "--binary",
                  "--length", "1000000"])
    return _fixed("full-expansion", argvs) + small_sweep(seed)


def oracle_verify() -> list[Command]:
    argvs = [
        ["--slope", GOLDEN_28, "--base", "2", "verify"],
        # known defect: certified prefix (7 terms) shorter than the 8
        # pipeline terms, reported as exit 4; kept and counted as failed
        ["--slope", S532_10, "--base", "3", "verify"],
        ["--slope", S532_10, "--base", "3", "--intercept",
         '{"digits":[1,0,2,0,1]}', "verify", "--terms", "6"],
        ["--slope", S213_14_K16, "--base", "5", "verify"],
    ]
    return _fixed("oracle-verify", argvs)


# -- seeded sweep of small commands -----------------------------------------

Q_MIN, Q_MAX = 300, 3000  # bound on q_K: cost scales with q_K, not K
SWEEP_CASES = 20  # nine commands per case, plus an invalid one every fourth


def partial_quotients(pre, per, horizon):
    """a_1..a_K of a slope given by preperiod and period."""
    return [pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]
            for k in range(horizon)]


def convergent_table(a):
    """(p_k, q_k) lists for k = -1..K, recomputed here for the checks."""
    ps, qs = [1, 0], [0, 1]
    for ak in a:
        ps.append(ak * ps[-1] + ps[-2])
        qs.append(ak * qs[-1] + qs[-2])
    return ps, qs


def _random_slope(rng):
    """Slope whose deepest denominator q_K lies in [Q_MIN, Q_MAX].

    Bounding by q_K rather than K keeps every big-int small: q_K sets
    the bit size of the terms and the oracle's digit count.
    """
    while True:
        pre = [rng.randint(1, 5) for _ in range(rng.randint(0, 3))]
        per = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        cap = rng.randint(Q_MIN, Q_MAX)
        _, qs = convergent_table(partial_quotients(pre, per, 60))
        horizon = max(k for k in range(61) if qs[k + 1] <= cap)
        if horizon >= 6 and qs[horizon + 1] >= Q_MIN:
            return pre, per, horizon


def _valid_digits(rng, a, length, first_cap):
    """Random digits obeying b_1 <= first_cap, b_k <= a_k, and
    b_k = a_k only after a zero digit."""
    out = []
    for k in range(length):
        cap = first_cap if k == 0 else a[k]
        d = rng.randint(0, cap)
        if k > 0 and d == a[k] and out[-1] != 0:
            d -= 1
        out.append(d)
    return out


def _fraction_between(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """A small-denominator non-integer rational well inside (lo, hi).

    Integers are left out: u*theta + v with integer v lies on a digit
    window boundary, where the expansion is ambiguous by design."""
    while True:
        den = rng.randint(2, 60)
        num = rng.randint(int(lo * den) - 1, int(hi * den) + 1)
        x = Fraction(num, den)
        margin = (hi - lo) / 50
        if x.denominator > 1 and lo + margin < x < hi - margin:
            return x


def _random_sigma(rng, theta, pair):
    """(u, v) with u*theta + v inside [-theta, 1 - theta]; u = 0 unless pair."""
    u = rng.choice([-2, -1, 1, 2]) if pair else 0
    return u, _fraction_between(rng, -(u + 1) * theta, 1 - (u + 1) * theta)


def _intercept(rng, form, a, ps, qs, horizon):
    """Intercept JSON of the given form, or None for the characteristic
    word; sigma must lie in [-theta, 1 - theta]."""
    theta = Fraction(ps[horizon + 1], qs[horizon + 1])  # within 1/q_K^2
    if form == "characteristic":
        return None
    if form == "digits":
        digs = _valid_digits(rng, a, rng.randint(1, horizon - 2), a[0] - 1)
        return json.dumps({"digits": digs})
    if form == "m":
        # rho = -(m-1) theta + p lies in (0, 1) for p = floor((m-1) theta) + 1;
        # m - 1 < q_K, so p_K/q_K gives the same floor as theta
        m = rng.randint(1, min(qs[horizon - 1], 60))
        p = 0 if m == 1 else (m - 1) * ps[horizon + 1] // qs[horizon + 1] + 1
        return json.dumps({"m": m, "p": p})
    u, v = _random_sigma(rng, theta, form == "sigma_pair")
    if form == "sigma":
        return json.dumps({"sigma": str(v)})
    return json.dumps({"sigma_pair": [u, str(v)]})


FORMS = ("characteristic", "digits", "m", "sigma", "sigma_pair")
TERMINATING = ("characteristic", "digits", "m")


def _invalid(rng, i, slope, a, qs, horizon):
    """The i-th invalid input, cycling through the refusal classes."""
    kinds = [
        (["--slope", _slope([1], [1], 3), "cf"], 2),  # horizon < 4
        (["--slope", slope, "--base", "1", "cf"], 2),
        (["--slope", slope, "--intercept",
          json.dumps({"digits": [a[0]]}), "word", "--length", "5"], 2),
        (["--slope", slope, "--intercept", '{"m":1,"p":1}', "cf"], 2),
        (["--slope", slope, "ostrowski-int", "--encode",
          str(qs[horizon + 1] + rng.randint(0, 9))], 3),
        (["--slope", slope, "word", "--length", "0"], 2),
        (["--slope", slope, "cf", "--terms", "x"], 2),  # argparse error
        (["--slope", _slope([2, 0], [1], 8), "cf"], 2),
        (["--slope", _slope([1, 2, 3, 4, 5], [], 9), "cf"], 3),
    ]
    argv, code = kinds[i % len(kinds)]
    return Command(argv, "refused", expect=(code,))


def _ostrowski_real(rng, i, common, a, ps, qs, horizon):
    """Encode a value (rational or u*theta + v) or decode real digits; the
    check brackets the value with theta between p_{K-1}/q_{K-1} and
    p_K/q_K and requires the returned interval to meet that bracket."""
    thetas = (Fraction(ps[horizon], qs[horizon]),
              Fraction(ps[horizon + 1], qs[horizon + 1]))
    kind = i % 3
    if kind < 2:
        coeff, const = _random_sigma(rng, thetas[1], pair=kind == 1)
        flag = f"--sigma-pair={coeff},{const}" if kind else f"--sigma={const}"
    else:
        digs = _valid_digits(rng, a, rng.randint(1, horizon - 2), a[0] - 1)
        u = sum(d * qs[h] for h, d in enumerate(digs, start=1))
        p = sum(d * ps[h] for h, d in enumerate(digs, start=1))
        flag, coeff, const = f"--digits={','.join(map(str, digs))}", u, Fraction(-p)
    vals = [coeff * t + const for t in thetas]
    return Command([*common, "ostrowski-real", flag], "ostrowski-real",
                   info={"value_lo": min(vals), "value_hi": max(vals)})


def small_sweep(seed: int) -> list[Command]:
    rng = random.Random(seed)
    cmds: list[Command] = []
    for i in range(SWEEP_CASES):
        pre, per, horizon = _random_slope(rng)
        slope = _slope(pre, per, horizon)
        a = partial_quotients(pre, per, horizon)
        ps, qs = convergent_table(a)
        base = str(rng.randint(2, 9))
        form = FORMS[i % len(FORMS)]
        icpt = _intercept(rng, form, a, ps, qs, horizon)
        common = ["--slope", slope, "--base", base]
        if icpt is not None:
            common += ["--intercept", icpt]
        info = {"a": a, "qs": qs, "base": int(base), "form": form, "case": i}
        # a non-terminating intercept only knows digits through K-2, so
        # letters past q_{K-2} are beyond the input, not a valid request
        served = qs[horizon + 1 if form in TERMINATING else horizon - 1]
        length = rng.randint(1, min(served - 1, 1500))
        cmds.append(Command([*common, "word", "--length", str(length)], "word",
                            info={**info, "length": length}))
        # a random valid integer digit vector, so encode and decode of the
        # same n must round-trip exactly (the valid vector is unique)
        while True:
            idig = _valid_digits(rng, a, rng.randint(1, horizon), a[0] - 1)
            while idig and idig[-1] == 0:
                idig.pop()
            if idig:
                break
        n = sum(d * qs[j] for j, d in enumerate(idig, start=1))
        cmds.append(Command([*common, "ostrowski-int", "--encode", str(n)],
                            "ostrowski-int", info={"n": n, "digits": idig}))
        cmds.append(Command([*common, "ostrowski-int", "--digits",
                             ",".join(map(str, idig))],
                            "ostrowski-int", info={"n": n, "digits": idig}))
        cmds.append(_ostrowski_real(rng, i, common, a, ps, qs, horizon))
        cmds.append(Command([*common, "cf"], "cf", info=info))
        cmds.append(Command([*common, "convergents"], "convergents", info=info))
        cmds.append(Command([*common, "exponent"], "exponent", info=info))
        cmds.append(Command([*common, "verify"], "verify", info=info))
        cmds.append(Command(["--slope", slope, "--base", base, "boehmer",
                             "--check"], "boehmer", info=info))
        if i % 4 == 0:
            cmds.append(_invalid(rng, i // 4, slope, a, qs, horizon))
    return cmds


WORKLOADS = {
    "prefix-terms": lambda seed: prefix_terms(),
    "full-expansion": full_expansion,
    "oracle-verify": lambda seed: oracle_verify(),
}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](seed)
