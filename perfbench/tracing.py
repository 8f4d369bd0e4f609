"""Span tracing of the `sturmian` layers, done entirely from outside.

`Tracer.install` wraps the public functions of each package module and
the public `WordSystem` methods, and rebinds every name that refers to
an original in every `sturmian` namespace: `oracle` imports
`continued_fraction` and `word_value` from `cfrac` by name, `words`
imports `floor_theta_multiple` from `slope`, and so on, so patching only
the defining module would miss those calls.

A span is (name, start, end, parent, run): `run` is the index of the
CLI command that caused it.  Spans stay in memory and are written once,
when the pass ends.  A span's self time is its duration minus the time
covered by its child spans.  Counters are read at the same boundaries
from the values the layers return; the program itself is not touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("slope", "ostrowski", "words", "cfrac", "oracle", "exponent", "cli")

# span groups reported as their own self times
GROUPS = {
    "cfrac.term_block": ("cfrac.term_block",),
    "cfrac.rewrite": ("cfrac.collapse_negatives", "cfrac.eliminate_zeros"),
    "cfrac.convergents": ("cfrac.convergents",),
    "oracle.enclose": ("oracle.enclose_value",),
    "oracle.euclid": ("oracle.certified_cf_prefix", "oracle.cf_of_rational"),
}

SUBCOMMANDS = ("word", "ostrowski-int", "ostrowski-real", "cf", "convergents",
               "exponent", "verify", "boehmer")

# name, unit, better -- the per-layer metrics every traced run reports
METRICS = [
    ("cfrac.term_block.self_s", "s", "lower"),
    ("cfrac.term_block.calls", "count", "lower"),
    ("cfrac.max_term_bits", "bit", "lower"),
    ("cfrac.levels_built", "count", "lower"),
    ("cfrac.levels_used", "count", "lower"),
    ("cfrac.useful_level_frac", "ratio", "higher"),
    ("cfrac.useful_bits_frac", "ratio", "higher"),
    ("cfrac.rewrite.self_s", "s", "lower"),
    ("cfrac.rewrite.terms_removed", "count", "lower"),
    ("cfrac.convergents.self_s", "s", "lower"),
    ("cfrac.self_s", "s", "lower"),
    ("oracle.enclose.self_s", "s", "lower"),
    ("oracle.euclid.self_s", "s", "lower"),
    ("oracle.enclosures", "count", "lower"),
    ("oracle.digits_N", "digits", "lower"),
    ("oracle.certified_terms", "count", "higher"),
    ("oracle.certified_frac", "ratio", "higher"),
    ("oracle.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("cli.max_payload_digits", "digits", "lower"),
    ("slope.self_s", "s", "lower"),
    ("slope.calls", "count", "lower"),
    ("ostrowski.self_s", "s", "lower"),
    ("ostrowski.calls", "count", "lower"),
    ("words.self_s", "s", "lower"),
    ("words.calls", "count", "lower"),
    ("words.letters_out", "count", "lower"),
    ("exponent.self_s", "s", "lower"),
    ("exponent.calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _terms_wanted(argv):
    """(subcommand, --terms value or None) of one CLI argv."""
    sub = next((a for a in argv if a in SUBCOMMANDS), None)
    try:
        n = int(argv[argv.index("--terms") + 1])
    except (ValueError, IndexError):
        n = None
    return sub, n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.top = -1  # index of the innermost open span
        self.run = -1
        self.command = (None, None)
        self.counts = Counter()
        self.max_term_bits = 0
        self.level_bits: list[int] = []  # of the last raw stream

    def begin(self, run: int, argv) -> None:
        self.run = run
        self.command = _terms_wanted(argv)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"sturmian.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        ws = modules["words"].WordSystem
        for name, raw in list(vars(ws).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(ws, name, classmethod(
                    self._wrap(f"words.WordSystem.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(ws, name, self._wrap(f"words.WordSystem.{name}", raw))
        for modname, mod in list(sys.modules.items()):
            if modname == "sturmian" or modname.startswith("sturmian."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def _wrap(self, name, fn):
        spans, observe = self.spans, _OBSERVERS.get(name)
        outer_words = name.startswith("words.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self.top
            self.top = len(spans)
            entry = [name, perf_counter(), 0.0, parent, self.run]
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                self.top = parent
            if observe is not None:
                observe(self, args, kwargs, result)
            if outer_words and (parent < 0 or not spans[parent][0].startswith("words.")):
                self._letters_out(result)
            return result

        return span

    # -- counters ----------------------------------------------------------

    def _letters_out(self, result):
        if isinstance(result, str):
            self.counts["letters_out"] += len(result)
        elif isinstance(result, tuple) and all(isinstance(s, str) for s in result):
            self.counts["letters_out"] += sum(map(len, result))

    def _raw_stream(self, args, kwargs, stream):
        bits = [abs(t.value).bit_length() for t in stream.terms]
        self.level_bits = [sum(bits[i:i + 5]) for i in range(0, len(bits), 5)]
        self.counts["levels_built"] += len(self.level_bits)
        self.max_term_bits = max(self.max_term_bits, max(bits, default=0))

    def _continued_fraction(self, args, kwargs, stream):
        """Levels the printed terms need: the deepest level among them
        plus the two withheld stability levels."""
        spec = args[0]
        levels = (args[1] if len(args) > 1 else kwargs.get("levels")) or spec.system.levels
        sub, n = self.command
        if sub == "boehmer" and n is None:
            n = spec.system.table.horizon - 4
        used = stream.terms[:n] if sub in ("cf", "convergents", "boehmer") else stream.terms
        need = min(levels, 3 + max((t.level for t in used), default=-1))
        self.counts["levels_used"] += need
        # levels cost roughly their term bits, so this share is the
        # useful fraction of the term-block work
        self.counts["bits_used"] += sum(self.level_bits[:need])
        self.counts["bits_built"] += sum(self.level_bits)

    def _rewrite(self, args, kwargs, stream):
        self.counts["terms_removed"] += len(args[0].terms) - len(stream.terms)

    def _verify(self, args, kwargs, rep):
        self.counts["digits_N"] += rep.digits_used
        self.counts["certified_terms"] += len(rep.certified_prefix)
        self.counts["compared_terms"] += len(rep.pipeline_terms)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(self seconds, calls) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            self_s[name] += end - start - cov
            calls[name] += 1
        return self_s, calls

    def metrics(self) -> dict:
        self_s, calls = self.self_times()
        out = {}
        for layer in LAYERS:
            names = [n for n in self_s if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_s[n] for n in names)
        c = self.counts
        out["cfrac.term_block.calls"] = calls["cfrac.term_block"]
        out["cfrac.max_term_bits"] = self.max_term_bits
        out["cfrac.levels_built"] = c["levels_built"]
        out["cfrac.levels_used"] = c["levels_used"]
        out["cfrac.useful_level_frac"] = _ratio(c["levels_used"], c["levels_built"])
        out["cfrac.useful_bits_frac"] = _ratio(c["bits_used"], c["bits_built"])
        out["cfrac.rewrite.terms_removed"] = c["terms_removed"]
        out["oracle.enclosures"] = calls["oracle.enclose_value"]
        out["oracle.digits_N"] = c["digits_N"]
        out["oracle.certified_terms"] = c["certified_terms"]
        out["oracle.certified_frac"] = _ratio(c["certified_terms"], c["compared_terms"])
        out["words.letters_out"] = c["letters_out"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for entry in self.spans:
                fh.write(json.dumps(entry) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


_OBSERVERS = {
    "cfrac.raw_stream": Tracer._raw_stream,
    "cfrac.continued_fraction": Tracer._continued_fraction,
    "cfrac.collapse_negatives": Tracer._rewrite,
    "cfrac.eliminate_zeros": Tracer._rewrite,
    "oracle.verify_agreement": Tracer._verify,
}
