"""Import boundaries inside the package, read from the source with `ast`.

The oracle stays independent of the term pipeline: from the package it
takes only the number spec, `continued_fraction`, `word_value` and
`_check_power`, the estimate of the bits of a power of the base, from
`cfrac`, `int_divmod` from `bigint`, and errors and the size budget from
`errors`.  The size budget has one owner: `SIZE_BUDGET`, 2^24, is
assigned in `errors` alone, its value written nowhere else, and the caps
it replaced are defined nowhere.  The big-integer kernels in `bigint`
import nothing from the package, and the pipeline
and theta modules take nothing from them.  Certified theta arithmetic
has one owner: the modules that need theta take from `slope` only the
convergent table and its two certifying functions, a sign and bounds on
the floor of a ratio.  The sign is a reading of those bounds, so one
function, `slope.floor_ratio`, reads the last convergent pair: it is the
only code in `slope` that slices the table's `ps` or `qs`; outside
`slope` only `ostrowski.decode_real` does, for the rational interval
that `ostrowski-real` prints.

The depth of a number is read in one place, `WordSystem.levels`: no
function in `cfrac`, `oracle`, `exponent` or `ostrowski` takes a
`levels`, `upto` or `horizon` parameter, and neither `cfrac` nor
`oracle` reads a table's `horizon` (`exponent` and `ostrowski` read it
where they build digits for the whole table).

The records are NamedTuples, so importing the CLI generates no dataclass
code and loads neither `dataclasses` nor the `inspect` it pulls in, and
every record stays immutable.

The CLI prints a word prefix from `WordSystem.prefix_blocks`, block by
block, and never reads `WordSystem.prefix`, which joins the whole word
into one string.

The Ostrowski digit rules have one owner: inside `ostrowski` only
`_check_digit_rules` and `IntegerDigits._check`, the positive top digit
of an integer, construct a `DigitRuleError`.

The exponent dispatch has one reader of the digits: inside `exponent`
only `_atoms`, the parse of a rule pattern, names `gap` or `digit`, so
every digit-pattern decision is a pattern in a rule table.

The interpreter's int-to-str limit has one reader: `get_int_max_str_digits`
is named in `errors` alone, where `read_int` holds inputs to the limit;
decimal output (`bigint`) prints every value whatever the limit, without
reading it.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import sturmian

PACKAGE = Path(sturmian.__file__).parent


def package_imports(module: str) -> dict[str, set[str]]:
    """{sibling module: names imported from it}; a whole module is '*'."""
    found: dict[str, set[str]] = {}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if not source.startswith("sturmian"):
                    continue
                source = source.partition(".")[2]
            for alias in node.names:
                if source:
                    found.setdefault(source, set()).add(alias.name)
                else:  # from . import words
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sturmian"):
                    found.setdefault(alias.name.partition(".")[2], set()).add("*")
    return found


def test_package_imports_sees_every_form():
    assert package_imports("cli")["slope"] == {"*"}
    assert package_imports("exponent")["cfrac"] == {"_HEIGHT"}


def test_oracle_takes_only_values_from_the_pipeline():
    imports = package_imports("oracle")
    assert set(imports) <= {"bigint", "cfrac", "errors"}
    assert imports["cfrac"] <= {"NumberSpec", "continued_fraction", "word_value",
                                "_check_power"}
    assert imports.get("bigint", set()) <= {"int_divmod"}


def _defined_names(tree) -> set[str]:
    """Names a module binds: assignments, functions, classes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _is_budget_value(node) -> bool:
    """`1 << 24` or the literal 16777216."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
        return (isinstance(node.left, ast.Constant) and node.left.value == 1
                and isinstance(node.right, ast.Constant) and node.right.value == 24)
    return isinstance(node, ast.Constant) and node.value == 1 << 24


def test_the_size_budget_has_one_owner():
    owners, retired, values = [], {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _defined_names(tree)
        if any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
               and node.id == "SIZE_BUDGET" for node in ast.walk(tree)):
            owners.append(path.stem)
        gone = names & {"MATERIALIZE_CAP", "_MAX_POWER_BITS", "MaterializeCapError"}
        if gone:
            retired[path.stem] = gone
        values += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if _is_budget_value(node)]
    assert owners == ["errors"]
    assert retired == {}
    assert len(values) == 1 and values[0].startswith("errors:"), values


def test_bigint_imports_nothing_from_the_package():
    assert package_imports("bigint") == {}


@pytest.mark.parametrize("module", ["cfrac", "words", "slope", "ostrowski", "exponent"])
def test_pipeline_and_theta_modules_take_nothing_from_bigint(module):
    assert "bigint" not in package_imports(module)


@pytest.mark.parametrize("module", ["words", "ostrowski", "exponent"])
def test_theta_arithmetic_comes_from_the_two_slope_loops(module):
    taken = package_imports(module).get("slope", set())
    assert taken <= {"ConvergentTable", "sign_linear", "floor_ratio"}


def test_the_last_convergent_pair_has_one_reader():
    slicers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                slicers |= {f"{path.stem}.{getattr(node, 'name', '')}"
                            for sub in ast.walk(node)
                            if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Slice)
                            and getattr(sub.value, "attr", getattr(sub.value, "id", None))
                            in {"ps", "qs"}}
    assert slicers == {"slope.floor_ratio", "ostrowski.decode_real"}


@pytest.mark.parametrize("module", ["cfrac", "oracle", "exponent", "ostrowski"])
def test_the_depth_comes_from_the_word_system(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert [getattr(f, "name", "lambda") for f in functions
            if any(isinstance(a, ast.arg) and a.arg in {"levels", "upto", "horizon"}
                   for a in ast.walk(f.args))] == []
    if module in {"cfrac", "oracle"}:
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "horizon"]


def test_the_cli_never_joins_a_word_prefix():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "prefix_blocks" in read and "prefix" not in read


def test_the_digit_rules_have_one_owner():
    # a DigitRuleError raised anywhere else in `ostrowski` would state a
    # rule a second time
    tree = ast.parse((PACKAGE / "ostrowski.py").read_text())
    builders = set()
    for top in tree.body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            name = getattr(node, "name", f"line {node.lineno}")
            if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "DigitRuleError"
                   for sub in ast.walk(node)):
                builders.add(name if node is top else f"{top.name}.{name}")
    assert builders == {"_check_digit_rules", "IntegerDigits._check"}


def test_the_digit_patterns_have_one_reader():
    # a gap or a digit read anywhere else in `exponent` would test a
    # digit pattern outside the rule tables, one no record prints
    tree = ast.parse((PACKAGE / "exponent.py").read_text())
    readers = set()
    for top in tree.body:
        if any(getattr(sub, "attr", getattr(sub, "id", None)) in ("gap", "digit")
               for sub in ast.walk(top) if isinstance(sub, (ast.Attribute, ast.Name))):
            readers.add(getattr(top, "name", f"line {top.lineno}"))
    assert readers == {"_atoms"}


def test_the_int_str_limit_has_one_reader():
    # an attribute, a bare name or a string (as for `getattr`) all count
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "get_int_max_str_digits" in (getattr(node, "attr", None), getattr(node, "id", None),
                                            getattr(node, "value", None)):
                readers.add(path.stem)
    assert readers == {"errors"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps `site` from loading either module first
    code = ("import sys, sturmian.cli; "
            "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-E", "-S", "-c", code], cwd=PACKAGE.parent,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


RECORDS = {
    "cfrac": {"NumberSpec", "Term", "ConvergentPair", "FamilyFraction"},
    "exponent": {"NuRow", "StrongRecord", "EstimateReport", "LiouvilleReport",
                 "ExtremalIntercept"},
    "oracle": {"ValueEnclosure", "VerificationReport"},
    "ostrowski": {"IntegerDigits", "InterceptDigits", "DegenerateIntercept"},
    "slope": {"SlopeSpec", "ConvergentTable"},
    "words": {"Repetition", "FactorCountReport"},
}


def test_the_public_records_are_the_listed_namedtuples():
    found = {}
    for path in PACKAGE.glob("*.py"):
        mod = importlib.import_module(f"sturmian.{path.stem}")
        names = {name for name, obj in vars(mod).items()
                 if isinstance(obj, type) and issubclass(obj, tuple)
                 and hasattr(obj, "_fields") and obj.__module__ == mod.__name__
                 and not name.startswith("_")}
        if names:
            found[path.stem] = names
    assert found == RECORDS


@pytest.mark.parametrize("module, name", sorted(
    (module, name) for module, names in RECORDS.items() for name in names))
def test_record_fields_cannot_be_assigned(module, name):
    cls = getattr(importlib.import_module(f"sturmian.{module}"), name)
    record = tuple.__new__(cls, range(len(cls._fields)))  # any values will do
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.other = 0  # no instance dict to take new attributes
