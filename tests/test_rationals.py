from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godbersen.rationals import (
    as_rat,
    as_vector,
    dot,
    format_rational,
    parse_rational,
)


def test_parse_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a/b", "1/2/3", "1 / 2", "1/0", "-2/00"])
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


def test_as_rat_refuses_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_vector_helpers():
    v = as_vector(("1/2", 3, Fraction(-1, 4)))
    assert v == (Fraction(1, 2), Fraction(3), Fraction(-1, 4))
    assert dot(v, (2, 0, 4)) == 0
    with pytest.raises(ValueError):
        as_vector((1, 2), dim=3)
