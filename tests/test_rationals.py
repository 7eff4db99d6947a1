import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godbersen.linalg import scale_to_integers
from godbersen.rationals import (
    as_rat,
    format_rational,
    parse_rational,
)


def test_parse_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a/b", "1/2/3", "1 / 2", "1/0", "-2/00",
                                 # Arabic-Indic digits: only ASCII digits are read
                                 "\u0661", "\u0661/2", "1/\u0662"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_round_trip_is_lowest_terms(p, q):
    x = Fraction(p, q)
    text = format_rational(x)
    assert parse_rational(text) == x
    # writers emit lowest terms: re-rendering is a fixed point
    assert format_rational(parse_rational(text)) == text
    assert "/" not in text or Fraction(text).denominator > 1


@pytest.mark.parametrize("x, text", [
    # past the 4,300 digits that str() converts by default
    (10 ** 5000 + 7, "1" + "0" * 4999 + "7"),
    (Fraction(-(10 ** 9000) - 1, 3), "-1" + "0" * 8999 + "1/3"),
    (Fraction(1, 2 * 10 ** 4400), "1/2" + "0" * 4400),
    (Fraction(10 ** 640 - 1, 2 * 10 ** 4700), "9" * 640 + "/2" + "0" * 4700),
], ids=["int", "numerator", "denominator", "both"])
def test_formats_integers_past_the_conversion_limit(x, text):
    # written in pieces, with the interpreter's limit left as it is
    limit = sys.get_int_max_str_digits()
    assert format_rational(x) == text
    assert parse_rational(text) == x
    assert sys.get_int_max_str_digits() == limit


def test_formats_under_the_least_conversion_limit():
    # the pieces stay under the least limit the interpreter accepts
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert format_rational(Fraction(-(10 ** 3000) - 3, 7)) == "-1" + "0" * 2999 + "3/7"
    finally:
        sys.set_int_max_str_digits(limit)


def test_parses_past_the_conversion_limit():
    # a 4,401-digit numerator and denominator, read in pieces under the
    # default limit and under the least one the interpreter accepts
    x = Fraction(-(10 ** 4400) - 3, 7 * 10 ** 4400 + 1)
    text = "-1" + "0" * 4399 + "3/7" + "0" * 4399 + "1"
    limit = sys.get_int_max_str_digits()
    try:
        for least in (limit, 640):
            sys.set_int_max_str_digits(least)
            assert parse_rational(text) == x
            assert parse_rational("+" + text[1:].replace("/", "/000")) == -x
    finally:
        sys.set_int_max_str_digits(limit)


def test_as_rat_refuses_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_vector_helpers():
    # a vector is read at the one API edge: ints, Fractions and rational
    # strings over their least common multiplier; a bad literal raises
    # ValueError, a float TypeError
    assert scale_to_integers([("1/2", 3, Fraction(-1, 4))]) == ([(2, 12, -1)], 4)
    with pytest.raises(ValueError):
        scale_to_integers([("1", "0.5")])
    with pytest.raises(TypeError):
        scale_to_integers([(1, 0.5)])


SRC = Path(__file__).resolve().parents[1] / "src" / "godbersen"
# math functions whose values are integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(tree) -> list[tuple[str, str]]:
    """(enclosing function or class, what) for every float literal, every use
    of the name ``float`` (a call, a ``map(float, ...)``, an annotation) and
    every name imported from ``math`` that is not integer-valued."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, float):
                found.append((scope, repr(child.value)))
            elif isinstance(child, ast.Name) and child.id == "float":
                found.append((scope, "float"))
            elif isinstance(child, ast.ImportFrom) and child.module == "math":
                found.extend((scope, f"math.{a.name}") for a in child.names
                             if a.name not in INTEGER_MATH)
            elif isinstance(child, ast.Import):
                found.extend((scope, a.name) for a in child.names if a.name == "math")
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_src_decides_nothing_in_floating_point():
    # the one float is the decimal column that ``sweep(..., floats=True)``
    # writes beside the exact ratio
    found = {path.name: float_uses(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: uses for name, uses in found.items() if uses} == \
        {"sweep.py": [("sweep", "float")]}


def test_float_guard_sees_each_kind():
    tree = ast.parse("from math import comb, sqrt\n"
                     "import math\n"
                     "class A:\n"
                     "    x: float\n"
                     "def f(v):\n"
                     "    return float(v) >= 1e-9 + comb(2, 1)\n")
    assert float_uses(tree) == [("<module>", "math.sqrt"), ("<module>", "math"),
                                ("A", "float"), ("f", "float"), ("f", "1e-09")]
