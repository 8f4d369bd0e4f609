"""Import boundaries inside the package, read from the source with `ast`.

The oracle stays independent of the term pipeline: from the package it
takes only the number spec, `continued_fraction` and `word_value` from
`cfrac`, `int_divmod` from `bigint`, and errors.  The big-integer
kernels in `bigint` import nothing from the package, and the pipeline
and theta modules take nothing from them.  Certified theta arithmetic
has one owner: the modules that need theta take from `slope` only the
convergent table and its two certifying loops.
"""

import ast
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
    assert package_imports("exponent")["cfrac"] == {"_HEIGHT", "NumberSpec"}


def test_oracle_takes_only_values_from_the_pipeline():
    imports = package_imports("oracle")
    assert set(imports) <= {"bigint", "cfrac", "errors"}
    assert imports["cfrac"] <= {"NumberSpec", "continued_fraction", "word_value"}
    assert imports.get("bigint", set()) <= {"int_divmod"}


def test_bigint_imports_nothing_from_the_package():
    assert package_imports("bigint") == {}


@pytest.mark.parametrize("module", ["cfrac", "words", "slope", "ostrowski", "exponent"])
def test_pipeline_and_theta_modules_take_nothing_from_bigint(module):
    assert "bigint" not in package_imports(module)


@pytest.mark.parametrize("module", ["words", "ostrowski", "exponent"])
def test_theta_arithmetic_comes_from_the_two_slope_loops(module):
    taken = package_imports(module).get("slope", set())
    assert taken <= {"ConvergentTable", "sign_linear", "floor_theta_multiple"}
