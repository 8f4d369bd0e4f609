"""Command-line front door.

Commands: word | ostrowski-int | ostrowski-real | cf | convergents |
exponent | verify | boehmer.  A JSON config file supplies the slope and
intercept; flags override.  Data goes to stdout, diagnostics to stderr;
all numeric payloads are decimal strings.  Every printed integer comes
from `bigint`, all of a command's values in one call, so each power is
built once per command; P/Q from `continuants_to_decimal`, which runs
the recurrence of `cfrac.convergents` in decimal over the printed terms,
and the rest from `to_decimals`.  Both are subquadratic and never change
the interpreter's int-to-str digit limit.  The only exceptions, printed
by `str`, are level and term indices and the echoed base and length:
inputs are held to that limit.  Exit codes: 0 success, 2 invalid
config/digits, 3 horizon or precision exhaustion, 4 internal invariant
failure.

The slope is {"preperiod": [...], "period": [...], "horizon": K >= 4},
its numbers integers or decimal strings.  The intercept (parsed by
`WordSystem.from_spec`) is "characteristic", the default, or an object
with exactly one of {"digits": [b_1, ...]} (plus "terminating": false
for a digit prefix), {"m": m, "p": p} (the degenerate
rho = -(m-1)*theta + p), {"sigma": "u/v"} (sigma = rho - theta) or
{"sigma_pair": [u, "v"]} (sigma = u*theta + v); `--upper` (or the
config's "upper": true) picks the upper word of a degenerate intercept.
"preperiod", "period", "digits" and "sigma_pair" are JSON lists, and
"terminating" and "upper" JSON booleans; digits, m, p, u and the
config's "base" and "length" are integers or decimal strings, which
like every integer flag take a sign and ASCII digits only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cfrac, exponent, oracle, ostrowski, slope, words
from .bigint import continuants_to_decimal, to_decimals
from .errors import ConfigError, HorizonError, InternalError, SturmianError, read_int


def _decimals(ints, fractions=()) -> dict[int, str]:
    """The decimal strings of `ints` and of the numerators and denominators
    of `fractions` (None skipped), each converted once, in one call."""
    values = list(dict.fromkeys([*ints, *(n for x in fractions if x is not None
                                          for n in (x.numerator, x.denominator))]))
    return dict(zip(values, to_decimals(values)))


def _fr(dec: dict[int, str], x: Fraction | None) -> str | None:
    return None if x is None else f"{dec[x.numerator]}/{dec[x.denominator]}"


def _ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, as in --digits 1,0,2."""
    try:
        return tuple(read_int(d, what) for d in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _config_int(cfg, key: str, default: int) -> int:
    try:
        return read_int(cfg.get(key, default), f"config {key!r}")
    except ValueError as exc:
        raise ConfigError(f"config {key!r} must be an integer: {exc}") from exc


# json.loads raises a plain ValueError, not JSONDecodeError, for an integer
# literal past the int-to-str limit; the message leaves the limit out, so it
# reads the same under any limit
_LONG_LITERAL = "{} holds an integer literal past the int-to-str digit limit"


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # also bad UTF-8 and long literals
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    if args.slope:
        try:
            cfg["slope"] = json.loads(args.slope)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--slope is not valid JSON: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(_LONG_LITERAL.format("--slope")) from exc
    if args.intercept:
        try:
            cfg["intercept"] = json.loads(args.intercept)
        except json.JSONDecodeError:
            cfg["intercept"] = args.intercept  # bare "characteristic"
        except ValueError as exc:
            raise ConfigError(_LONG_LITERAL.format("--intercept")) from exc
    if args.base is not None:
        cfg["base"] = args.base
    if args.horizon is not None:
        spec = cfg.setdefault("slope", {})
        if isinstance(spec, dict):  # SlopeSpec.from_json refuses any other slope
            spec["horizon"] = args.horizon
    if args.upper:
        cfg["upper"] = True
    return cfg


def _build_system(cfg) -> words.WordSystem:
    if "slope" not in cfg:
        raise ConfigError("config needs a 'slope' object")
    spec = slope.SlopeSpec.from_json(cfg["slope"])
    if spec.horizon < 4:
        raise ConfigError("horizon must be at least 4")
    upper = cfg.get("upper", False)
    if not isinstance(upper, bool):
        raise ConfigError(f"config 'upper' must be a JSON boolean, got {upper!r}")
    return words.WordSystem.from_spec(
        slope.build_table(spec), cfg.get("intercept", "characteristic"), upper=upper)


def _emit(payload: dict, fmt: str, text):
    """The payload as sorted JSON, or for the text and rle formats the
    string that `text()` builds, called only then; each is written once,
    with the newline after it."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) if fmt == "json" else text())
    sys.stdout.write("\n")


def cmd_word(args, cfg, system):
    length = args.length if args.length is not None else _config_int(cfg, "length", 0)
    if length < 1:
        raise ConfigError("word command needs --length >= 1")
    word = system.prefix(length)
    if args.binary:
        # length-prefixed packed bits: 8-byte big-endian letter count,
        # then the letters packed MSB-first
        nbytes = (length + 7) // 8
        out = sys.stdout.buffer
        out.write(length.to_bytes(8, "big"))
        out.write((int(word, 2) << (8 * nbytes - length)).to_bytes(nbytes, "big"))
        out.flush()
        return
    if args.format == "text":  # the word alone: no run-length form to build
        _emit({}, "text", lambda: word)
        return
    payload = {"length": str(length), "word": word, "rle": words.run_length(word)}
    _emit(payload, args.format, lambda: payload["rle"])


def cmd_ostrowski_int(args, cfg, system):
    table = system.table
    if args.encode is not None:
        n, digits = args.encode, ostrowski.encode_integer(args.encode, table).digits
    elif args.digits:
        digits = _ints(args.digits, "--digits")
        n = ostrowski.decode_integer(digits, table)
    else:
        raise ConfigError("ostrowski-int needs --encode N or --digits d1,d2,...")
    n_text, *digit_texts = to_decimals([n, *digits])
    payload = {"n": n_text, "digits": digit_texts}
    _emit(payload, args.format,
          lambda: n_text if args.encode is None else ",".join(digit_texts))


def cmd_ostrowski_real(args, cfg, system):
    table = system.table
    if args.sigma is not None:
        digits = ostrowski.encode_real(ostrowski.parse_fraction(args.sigma), table)
    elif args.sigma_pair is not None:
        try:
            u, v = args.sigma_pair.split(",")
            u = read_int(u, "--sigma-pair u")
        except ValueError as exc:
            raise ConfigError(
                f"--sigma-pair must be u,v with an integer u, got {args.sigma_pair!r}"
            ) from exc
        digits = ostrowski.encode_real((u, ostrowski.parse_fraction(v)), table)
    elif args.digits:
        digits = ostrowski.InterceptDigits(_ints(args.digits, "--digits"))
    else:
        raise ConfigError("ostrowski-real needs --sigma, --sigma-pair or --digits")
    lo, hi = ostrowski.decode_real(digits, table)
    dec = _decimals(digits.digits, (lo, hi))
    payload = {"digits": [dec[d] for d in digits.digits],
               "lower": _fr(dec, lo), "upper": _fr(dec, hi)}
    if args.sigma is None and args.sigma_pair is None:  # decoding --digits
        _emit(payload, args.format, lambda: f"[{payload['lower']}, {payload['upper']}]")
    else:
        payload["terminating"] = digits.terminating
        _emit(payload, args.format, lambda: ",".join(payload["digits"]))


def _number_spec(cfg, system) -> cfrac.NumberSpec:
    return cfrac.NumberSpec(_config_int(cfg, "base", 2), system)


def cmd_cf(args, cfg, system):
    spec = _number_spec(cfg, system)
    terms = cfrac.continued_fraction(spec, terms=args.terms)
    values = to_decimals([t.value for t in terms])
    payload = {
        "base": str(spec.base),
        "terms": [
            {"term": value, "family": f"({t.family[0]})_{t.family[1]}",
             "k": str(t.family[1])}
            for t, value in zip(terms, values)
        ],
    }
    _emit(payload, args.format, lambda: " ".join(t["term"] for t in payload["terms"]))


def cmd_convergents(args, cfg, system):
    spec = _number_spec(cfg, system)
    terms = cfrac.continued_fraction(spec, terms=args.terms)
    # P_j and Q_j by the recurrence of `cfrac.convergents`, run in decimal,
    # whose products `bigint._mul` keeps off libmpdec's schoolbook path
    b1 = spec.base - 1
    ps, qs = continuants_to_decimal([t.value for t in terms], [(b1, 0), (0, b1)])
    payload = {
        "base": str(spec.base),
        "convergents": [
            {"P": p, "Q": q, "j": str(j), "family": f"({t.family[0]})_{t.family[1]}"}
            for j, (t, p, q) in enumerate(zip(terms, ps, qs), start=1)
        ],
    }
    _emit(payload, args.format,
          lambda: " ".join(f"{c['P']}/{c['Q']}" for c in payload["convergents"]))


def cmd_exponent(args, cfg, system):
    _number_spec(cfg, system)  # refuses a bad base, as every number command does
    rows = exponent.nu_table(system)
    est = exponent.irrationality_estimate(system)
    records = []
    for k in range(2, len(rows)):
        try:
            records += exponent.classify_families(system, k)
        except (ConfigError, HorizonError):
            # levels outside the dispatch's domain, or whose digit window
            # runs past the known digits, carry no verdict
            continue
    tail = [est.tail_max[j] for j in range(1, 5)]
    huge = est.mu_estimate > sys.float_info.max  # past floats: only "mu" holds it
    dec = _decimals((r.height for r in records), [
        *(x for r in rows for x in r[1:]), *tail, est.mu_estimate,
        *(x for r in records for x in (r.mu, r.error_exponent))])
    payload = {
        "nu": [
            {"k": str(r.k), "nu1": _fr(dec, r.nu1), "nu2": _fr(dec, r.nu2),
             "nu3": _fr(dec, r.nu3), "nu4": _fr(dec, r.nu4)}
            for r in rows
        ],
        "strong": [
            {"family": f"({r.family})_{r.k}", "k": str(r.k),
             "accepted": r.accepted, "rule": r.rule, "mu": _fr(dec, r.mu),
             "height": dec[r.height], "errorExponent": _fr(dec, r.error_exponent)}
            for r in records
        ],
        "estimate": {
            **{f"nu{j}": _fr(dec, x) for j, x in enumerate(tail, start=1)},
            "mu": _fr(dec, est.mu_estimate),
            "muFloat": None if huge else float(est.mu_estimate),
        },
        "window": {"full": list(est.window_full), "tail": list(est.window_tail)},
    }
    _emit(payload, args.format,
          lambda: "mu ~= inf" if huge else f"mu ~= {float(est.mu_estimate):.6f}")


def cmd_verify(args, cfg, system):
    spec = _number_spec(cfg, system)
    rep = oracle.verify_agreement(spec, min_terms=args.terms or 10)
    payload = {}
    if args.format == "json":  # text and rle print the verdict alone
        # the two lists share most terms: convert each value once
        decimal = _decimals([*rep.certified_prefix, *rep.pipeline_terms])
        payload = {
            "N": str(rep.digits_used),
            "certifiedPrefix": [decimal[t] for t in rep.certified_prefix],
            "pipeline": [decimal[t] for t in rep.pipeline_terms],
            "overlap": rep.overlap,
            "matches": rep.matches,
            "firstMismatchIndex": rep.first_mismatch,
        }
    _emit(payload, args.format, lambda: "match" if rep.matches else "MISMATCH")
    return 0 if rep.matches else InternalError.exit_code


def cmd_boehmer(args, cfg, system):
    spec = _number_spec(cfg, system)
    if system.rho != (1, 0):  # rho = theta: every intercept digit is zero
        raise ConfigError("closed-form terms need the characteristic intercept")
    upto = args.terms or (system.levels - 4)
    closed = [cfrac.boehmer_term(system.table, spec.base, k) for k in range(1, upto + 1)]
    if args.check:
        stream = [t.value for t in cfrac.continued_fraction(spec, terms=len(closed))]
        overlap = min(len(stream), len(closed))
        if closed[:overlap] != stream[:overlap]:
            raise InternalError("closed form disagrees with the pipeline")
    payload = {"terms": to_decimals(closed)}
    _emit(payload, args.format, lambda: " ".join(payload["terms"]))


_COMMON_DEFAULTS = {
    "config": None, "format": "json", "slope": None, "intercept": None,
    "base": None, "horizon": None, "upper": False,
}


def _common_flags() -> argparse.ArgumentParser:
    # defaults are SUPPRESS so a subcommand-position flag never clobbers
    # one given before the subcommand; real defaults are filled in main()
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--format", choices=["json", "text", "rle"])
    p.add_argument("--slope", help="inline slope JSON (overrides config)")
    p.add_argument("--intercept", help="inline intercept JSON or 'characteristic'")
    p.add_argument("--base", type=integer, help="number base b >= 2")
    p.add_argument("--horizon", type=integer, help="slope horizon K")
    p.add_argument("--upper", action="store_true",
                   help="use the upper (ceiling) word")
    return p


def integer(text: str) -> int:
    """argparse type of the integer flags (`errors.read_int`)."""
    return read_int(text, "integer")


def positive_int(text: str) -> int:
    """argparse type of the --terms flags: an integer >= 1."""
    n = integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing leaves it unchanged)."""
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="sturmian",
        description="Sturmian words, their continued fractions, and "
                    "irrationality exponents, in exact arithmetic.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("word", help="emit a word prefix")
    p.add_argument("--length", type=integer)
    p.add_argument("--binary", action="store_true",
                   help="length-prefixed packed bits on stdout")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("ostrowski-int", help="encode/decode integers")
    p.add_argument("--encode", type=integer)
    p.add_argument("--digits", help="comma-separated digits to decode")
    p.set_defaults(func=cmd_ostrowski_int)

    p = sub.add_parser("ostrowski-real", help="encode/decode intercept digits")
    p.add_argument("--sigma", help="exact rational like 1/2")
    p.add_argument("--sigma-pair", help="u,v meaning u*theta + v")
    p.add_argument("--digits", help="comma-separated digits to decode")
    p.set_defaults(func=cmd_ostrowski_real)

    p = sub.add_parser("cf", help="continued fraction terms with provenance")
    p.add_argument("--terms", type=positive_int)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("convergents", help="convergent pairs P_j/Q_j")
    p.add_argument("--terms", type=positive_int)
    p.set_defaults(func=cmd_convergents)

    p = sub.add_parser("exponent", help="irrationality exponent report")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("verify", help="pipeline vs oracle agreement")
    p.add_argument("--terms", type=positive_int, help="minimum certified terms")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("boehmer", help="closed-form characteristic terms")
    p.add_argument("--terms", type=positive_int)
    p.add_argument("--check", action="store_true",
                   help="assert agreement with the pipeline")
    p.set_defaults(func=cmd_boehmer)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code (a command that returns
    nothing succeeded)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in _COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg, _build_system(cfg)) or 0
    except SturmianError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return exc.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
