"""Exact-arithmetic toolkit for Sturmian words and Sturmian numbers.

Builds arbitrary Sturmian words from slope/intercept data, computes the
continued fraction expansion of the base-b numbers whose digits they
form, and evaluates irrationality exponents, cross-verifying everything
against independent brute-force oracles.

The records (`SlopeSpec`, `ConvergentTable`, `NumberSpec`, `Term`,
`ValueEnclosure`, ...) are immutable `typing.NamedTuple`s.  A record
equals the plain tuple of its fields, iterates and unpacks, and `len` of
it counts fields (an `InterceptDigits` has `len(x.digits)` digits).
`record._replace(field=value)` makes a changed copy, validated as the
constructor validates; assigning to a field raises `AttributeError`.
The fields `ConvergentPair.index`, `Repetition.count` and
`FactorCountReport.count` shadow the tuple methods of those names.

A number's depth is its word system's `levels`, the count of known
intercept digits; the term pipeline, the oracle and the exponent
functions take no depth of their own, `encode_real` always gives the
K - 2 digits its table reaches, and a shallower number is a shorter prefix.

`validate_real_digits`, like `decode_integer`, raises `DigitRuleError` at
the first broken digit, in index order.  `liouville_diagnostic`,
`ordered_strong_sequence`, `formal_intercept` and
`check_family_recurrences`, which reads each term entry c_k, d_k, e_k and
f_k, are library API that no command prints, as are the paper results
the acceptance tests check.
"""

from .cfrac import (
    ConvergentPair,
    FamilyFraction,
    NumberSpec,
    boehmer_term,
    check_family_recurrences,
    continued_fraction,
    convergents,
    family_fraction,
    word_value,
)
from .errors import (
    AmbiguousExpansionError,
    ConfigError,
    DigitRuleError,
    HorizonError,
    InternalError,
    InvalidInterceptError,
    PrecisionError,
    SturmianError,
)
from .exponent import (
    classify_families,
    extremal_intercept,
    irrationality_estimate,
    liouville_diagnostic,
    nu_row,
    nu_table,
    ordered_strong_sequence,
)
from .oracle import (
    ValueEnclosure,
    cf_of_rational,
    certified_cf_prefix,
    enclose_value,
    exponent_bracket,
    legendre_check,
)
from .ostrowski import (
    DegenerateIntercept,
    IntegerDigits,
    InterceptDigits,
    decode_integer,
    decode_real,
    degenerate_expansions,
    encode_integer,
    encode_real,
    validate_real_digits,
)
from .slope import ConvergentTable, SlopeSpec, build_table
from .words import WordSystem, formal_intercept, run_length

__version__ = "0.1.0"
