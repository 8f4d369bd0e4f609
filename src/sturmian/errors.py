"""Exception hierarchy, the hook that validates records, the size
budget, the one readers of integers and of lists from JSON input, and
the one writer of an integer into a refusal text.

Exit-code mapping used by the CLI: bad configuration or bad digit data
is exit 2, running out of horizon/precision is exit 3, and a violated
internal invariant is exit 4.
"""

import functools
import sys


def validated(cls):
    """Class decorator for a NamedTuple record with a `_check` method:
    every instance made by the constructor or by `_make` (which
    `_replace` calls) goes through `_check`, which raises the record's
    typed error."""
    new, make = cls.__new__, cls._make.__func__

    def checked(record):
        record._check()
        return record

    cls.__new__ = staticmethod(functools.wraps(new)(
        lambda cls_, *args, **kwargs: checked(new(cls_, *args, **kwargs))))
    cls._make = classmethod(functools.wraps(make)(
        lambda cls_, iterable: checked(make(cls_, iterable))))
    return cls


class SturmianError(Exception):
    """Base class for all library errors."""

    exit_code = 4


class ConfigError(SturmianError):
    """Invalid user-supplied configuration or parameters."""

    exit_code = 2


class DigitRuleError(ConfigError):
    """A digit vector violates the numeration rules."""

    def __init__(self, index, message):
        super().__init__(f"digit rule violated at index {index}: {message}")
        self.index = index
        self.rule = message


class InvalidInterceptError(ConfigError):
    """Intercept data does not describe a point of [0, 1)."""


class AmbiguousExpansionError(ConfigError):
    """The value admits two digit expansions and no branch hint was given.

    Carries the two candidate digit branches (common prefix plus the two
    admissible next digits) and, when the input was symbolic, the (m, p)
    pair that identifies the degenerate intercept.
    """

    def __init__(self, prefix, branch_digits, m=None, p=None):
        self.prefix = tuple(prefix)
        self.branch_digits = tuple(branch_digits)
        self.m = m
        self.p = p
        hint = f"; degenerate form m={shown_int(m)}, p={shown_int(p)}" if m is not None else ""
        super().__init__(
            f"two admissible expansions after digits {self.prefix} "
            f"(next digit {branch_digits[0]} or {branch_digits[1]}){hint}"
        )


class HorizonError(SturmianError):
    """More partial quotients or digits are needed than the spec provides."""

    exit_code = 3


class PrecisionError(SturmianError):
    """An enclosure could not be refined enough to certify a result."""

    exit_code = 3


class InternalError(SturmianError):
    """An internal invariant failed; indicates a bug, not bad input."""


# the one size budget: the most bits of a power of the base (as
# `cfrac._check_power` estimates them) or of a convergent table's p_k and
# q_k (counted as `slope.build_table` grows it), or letters of a standard
# word or prefix, refused before it is built.  Ten times the most bits a
# test needs (1.66 million), just above the longest prefix a test reads
# (16,040,800 letters); a term near it (a_2 = 1,600,000, base 2) prints
# in about 4 s, and an a_2 of a few hundred digits would never finish.
SIZE_BUDGET = 1 << 24


def check_budget(size: int, what: str, unit: str):
    """Refuse with HorizonError an object of `size` units past SIZE_BUDGET;
    the message names `what` and the budget, never the size, which may be
    past the int-to-str limit."""
    if size > SIZE_BUDGET:
        raise HorizonError(f"{what} past {SIZE_BUDGET} {unit}")


# a refusal text echoes an integer of at most this many digits whole
_SHOWN_DIGITS = 200


def shown_int(n: int) -> str:
    """n in decimal for a refusal text, or past _SHOWN_DIGITS digits its
    digit count, as "<4001-digit integer>" (with a sign when negative): a
    refusal stays one short line, and never converts an integer past the
    int-to-str limit.  The count starts at most two below the truth, from
    the bit length times log10(2) rounded down."""
    m = abs(n)
    if m < 10 ** _SHOWN_DIGITS:
        return str(n)
    count = m.bit_length() * 301029995 // 10 ** 9
    power = 10 ** count
    while power <= m:
        power *= 10
        count += 1
    return f"{'-' if n < 0 else ''}<{count}-digit integer>"


class DigitLimitError(ValueError):
    """A decimal string past the int-to-str digit limit (`read_int`)."""


def read_int(x, what: str) -> int:
    """x as an int, for a JSON integer or a decimal string (an optional
    sign and ASCII digits); a float, a boolean or any other type raises
    ConfigError.  Any other string raises a ValueError for the caller to
    wrap, one past the int-to-str limit a DigitLimitError, in the same
    words under any limit."""
    if isinstance(x, str):
        unsigned = x[1:] if x.startswith(("+", "-")) else x
        if not (unsigned.isascii() and unsigned.isdigit()):
            raise ValueError(f"invalid literal for int() with base 10: {x!r:.200}")
        if len(unsigned) > (sys.get_int_max_str_digits() or len(unsigned)):
            raise DigitLimitError(f"{what} of {len(unsigned)} digits is past the int-to-str digit limit")
        return int(x)
    check_int(x, what)
    return x


def check_int(x, what: str, least: int | None = None) -> None:
    """Refuse with ConfigError an `x` whose type is not int (a bool is
    not): a library argument is never truncated or compared as a float.
    With `least`, refuse an x below it too."""
    if type(x) is not int:
        raise ConfigError(f"{what} {x!r:.200} is not an integer")
    if least is not None and x < least:
        raise ConfigError(f"{what} must be >= {least}, got {shown_int(x)}")


def check_type(x, cls: type, what: str) -> None:
    """Refuse with ConfigError an `x` that is not a `cls`."""
    if not isinstance(x, cls):
        raise ConfigError(f"{what} {x!r:.200} is not a {cls.__name__}")


def read_list(obj: dict, key: str, what: str) -> list:
    """obj[key] (missing: empty), a JSON list; a string, which would read
    as its characters, or any other type raises ConfigError."""
    x = obj.get(key, [])
    if not isinstance(x, list):
        raise ConfigError(f"{what} {key!r} must be a JSON list, got {x!r:.200}")
    return x
