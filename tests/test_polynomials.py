from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from godbersen.polynomials import Poly, add, definite_integral, evaluate, trim


# Polynomial products, used only by the reference routes in the tests.

def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def power(p: Poly, k: int) -> Poly:
    out: Poly = [Fraction(1)]
    for _ in range(k):
        out = mul(out, p)
    return out


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)
polys = st.lists(rationals, max_size=5)


@given(polys, polys, rationals)
def test_ring_operations_agree_with_evaluation(p, q, x):
    assert evaluate(add(p, q), x) == evaluate(p, x) + evaluate(q, x)
    assert evaluate(mul(p, q), x) == evaluate(p, x) * evaluate(q, x)


def test_definite_integral_oracle():
    # integral of 1 + 2t + 3t^2 over [1, 2] = [t + t^2 + t^3] = 14 - 3
    p = [Fraction(1), Fraction(2), Fraction(3)]
    assert definite_integral(p, 1, 2) == 11


def test_power():
    assert power([Fraction(1), Fraction(1)], 3) == [
        Fraction(1), Fraction(3), Fraction(3), Fraction(1)]
