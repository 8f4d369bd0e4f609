"""Command-line front door.

Commands: word | ostrowski-int | ostrowski-real | cf | convergents |
exponent | verify | boehmer.  A JSON config file supplies the slope and
intercept; flags override.  Data goes to stdout, diagnostics to stderr;
all numeric payloads are decimal strings.  Every printed integer comes
from `bigint`, all of a command's values in one call, so each power is
built once per command.  The terms of `cf`, `convergents` and `boehmer`
are never built as ints: `cfrac` gives each as its closed forms
(`cfrac.term_forms`, `cfrac.boehmer_form`), and `forms_to_decimal`
evaluates those in exact decimal, once per command, `boehmer --check`
comparing the two lists of Decimals.  P/Q come from
`continuants_to_decimal`, which runs the recurrence of
`cfrac.convergents` in decimal over those terms and hands over one row
at a time, written as it comes; every other value goes through
`to_decimals`.  All of them are subquadratic and never read the
interpreter's int-to-str digit limit, let alone change it.  The only
exceptions, printed by `str`, are level and term indices and the echoed
base and length: inputs are held to that limit, which `errors.read_int`
alone reads.  `word` writes its prefix block by block from
`WordSystem.prefix_blocks`, in every format, so no command holds the
whole word as one string only to print it.  Every check that
can refuse a command runs before its first byte is written, so a
refused command prints nothing.  Exit codes: 0 success, 2 invalid
config/digits, 3 horizon or precision exhaustion, 4 internal invariant
failure.  In text and rle `verify` prints its verdict alone: "match"
(exit 0), "shortfall" when every compared term agrees but fewer than
the wanted terms were certified, or "MISMATCH" when a term disagrees
(both exit 4).

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
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from . import cfrac, exponent, oracle, ostrowski, slope, words
from .bigint import continuants_to_decimal, forms_to_decimal, to_decimals
from .errors import (ConfigError, DigitLimitError, HorizonError, InternalError, SturmianError,
                     read_int, shown_int)


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
    except ValueError as exc:  # the digit limit is named; a malformed integer is shown
        why = f": {exc}" if isinstance(exc, DigitLimitError) else ""
        raise ConfigError(
            f"{what} must be comma-separated integers, got {text!r:.200}{why}") from exc


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
        raise ConfigError(f"config 'upper' must be a JSON boolean, got {upper!r:.200}")
    return words.WordSystem.from_spec(
        slope.build_table(spec), cfg.get("intercept", "characteristic"), upper=upper)


# one encoder for every field `_emit` writes; it holds no state between calls
_JSON = json.JSONEncoder(sort_keys=True)


class _Pieces(NamedTuple):
    """A string field of `_emit` given as the pieces it concatenates."""

    pieces: Iterable[str]


def _emit(payload: dict, fmt: str, text):
    """Write the payload as `json.dumps(payload, sort_keys=True)` would
    (`_write_json`).  For the text and rle formats, write instead what
    `text()` returns, called only then: a string, or an iterable of
    strings written one after another.  The newline follows either."""
    write = sys.stdout.write
    if fmt != "json":
        body = text()
        for piece in [body] if isinstance(body, str) else body:
            write(piece)
    else:
        _write_json(payload, write)
    write("\n")


def _write_json(value, write):
    """Write `value` as `json.dumps(value, sort_keys=True)` would: a dict
    field by field, its keys strings, so that the JSON text of its largest
    field is the most of it that exists at once, and an iterator item by
    item, so that each item need only exist while it is written.  A
    `_Pieces` value is written piece by piece as one JSON string: JSON
    escapes each character on its own, so the escaped pieces concatenate
    to the escaped string."""
    if isinstance(value, dict):
        write("{")
        for n, key in enumerate(sorted(value)):
            write(f"{', ' if n else ''}{_JSON.encode(key)}: ")
            _write_json(value[key], write)
        write("}")
    elif isinstance(value, Iterator):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _write_json(item, write)
        write("]")
    elif isinstance(value, _Pieces):
        write('"')
        for piece in value.pieces:
            write(_JSON.encode(piece)[1:-1])
        write('"')
    else:
        write(_JSON.encode(value))


def _write_bits(length: int, blocks):
    """`word --binary`: the 8-byte big-endian letter count, then the
    letters packed MSB-first, the last byte padded with zeros.  Whole
    bytes go out as each block fills them; fewer than 8 letters carry
    into the next block."""
    out = sys.stdout.buffer
    out.write(length.to_bytes(8, "big"))
    carry = ""
    for block in blocks:
        bits = carry + block
        cut = len(bits) - len(bits) % 8
        if cut:
            out.write((int(bits, 2) >> (len(bits) - cut)).to_bytes(cut // 8, "big"))
        carry = bits[cut:]
    if carry:
        out.write((int(carry, 2) << (8 - len(carry))).to_bytes(1, "big"))
    out.flush()


def cmd_word(args, cfg, system):
    length = args.length if args.length is not None else _config_int(cfg, "length", 0)
    if length < 1:
        raise ConfigError("word command needs --length >= 1")
    # every refusal comes here, before the first byte; each format then
    # writes the prefix block by block, never joined into one string
    blocks = system.prefix_blocks(length)
    if args.binary:
        _write_bits(length, blocks)
        return
    if args.format == "text":  # the word alone: no run-length form to build
        _emit({}, "text", lambda: blocks)
        return
    rle = _Pieces(words.run_length_blocks(blocks))
    payload = {"length": str(length), "word": _Pieces(blocks), "rle": rle}
    _emit(payload, args.format, lambda: rle.pieces)


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
            why = f": {exc}" if isinstance(exc, DigitLimitError) else ""
            raise ConfigError("--sigma-pair must be u,v with an integer u, "
                              f"got {args.sigma_pair!r:.200}{why}") from exc
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


def _term_values(spec: cfrac.NumberSpec, terms) -> list:
    """The exact Decimal values of `cfrac.TermForm`s, from their forms."""
    return forms_to_decimal(spec.base, ((t.const, t.forms) for t in terms))


def cmd_cf(args, cfg, system):
    spec = _number_spec(cfg, system)
    terms = cfrac.term_forms(spec, terms=args.terms)
    payload = {
        "base": str(spec.base),
        "terms": [
            {"term": str(value), "family": f"({t.family[0]})_{t.family[1]}",
             "k": str(t.family[1])}
            for t, value in zip(terms, _term_values(spec, terms))
        ],
    }
    _emit(payload, args.format, lambda: " ".join(t["term"] for t in payload["terms"]))


def cmd_convergents(args, cfg, system):
    spec = _number_spec(cfg, system)
    terms = cfrac.term_forms(spec, terms=args.terms)
    # P_j and Q_j by the recurrence of `cfrac.convergents`, run in decimal,
    # whose products `bigint._mul` keeps off libmpdec's schoolbook path;
    # each row is written as it comes, so only the last ones are held
    b1 = spec.base - 1
    rows = continuants_to_decimal(_term_values(spec, terms), [(b1, 0), (0, b1)])
    payload = {
        "base": str(spec.base),
        "convergents": (
            {"P": p, "Q": q, "j": str(j), "family": f"({t.family[0]})_{t.family[1]}"}
            for j, (t, (p, q)) in enumerate(zip(terms, rows), start=1)
        ),
    }

    def text():  # "P/Q P/Q ...", never joined into one string
        for j, (p, q) in enumerate(rows):
            yield from (" " if j else "", p, "/", q)

    _emit(payload, args.format, text)


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
    verdict = ("match" if rep.matches else
               "shortfall" if rep.first_mismatch is None else "MISMATCH")
    _emit(payload, args.format, lambda: verdict)
    return 0 if rep.matches else InternalError.exit_code


def cmd_boehmer(args, cfg, system):
    spec = _number_spec(cfg, system)
    if system.rho != (1, 0):  # rho = theta: every intercept digit is zero
        raise ConfigError("closed-form terms need the characteristic intercept")
    table = system.table
    upto = args.terms or (system.levels - 4)
    if upto > table.horizon:  # term k reads q_k
        raise HorizonError(f"closed-form term {shown_int(upto)} is past the horizon "
                           f"K = {table.horizon}")
    closed = [(0, (cfrac.boehmer_form(table, spec.base, k),)) for k in range(1, upto + 1)]
    stream = cfrac.term_forms(spec, terms=len(closed)) if args.check else ()
    # both in one call, so the two share their powers of the base
    values = forms_to_decimal(spec.base, [*closed, *((t.const, t.forms) for t in stream)])
    closed, stream = values[:len(closed)], values[len(closed):]
    overlap = min(len(stream), len(closed))
    if closed[:overlap] != stream[:overlap]:
        raise InternalError("closed form disagrees with the pipeline")
    payload = {"terms": [str(v) for v in closed]}
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
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shown_int(n)}")
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
