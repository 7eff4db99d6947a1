import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godbersen.polynomials import (
    Poly,
    add,
    evaluate,
    mul,
    nonpositive_between,
    roots_between,
)


# Integration and powers, used only by the reference routes in the tests.

def antiderivative(p: Poly) -> Poly:
    return [Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(p)]


def definite_integral(p: Poly, lo, hi) -> Fraction:
    prim = antiderivative(p)
    return evaluate(prim, hi) - evaluate(prim, lo)


def power(p: Poly, k: int) -> Poly:
    out: Poly = [1]
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


def _from_roots(scale: int, roots) -> list[int]:
    """scale * prod (b T - a)^mult over the (a / b, mult) pairs in ``roots``."""
    p = [scale]
    for r, mult in roots:
        for _ in range(mult):
            p = mul(p, [-r.numerator, r.denominator])
    return p


@pytest.mark.parametrize("p, lo, hi, expected", [
    ([-5, 1], 0, 10, False),                  # simple root inside
    ([5, -1], 0, 10, False),
    (_from_roots(-1, [(Fraction(5), 2)]), 0, 10, True),   # -(T-5)^2 touches 0
    (_from_roots(1, [(Fraction(5), 2)]), 0, 10, False),   # (T-5)^2
    (_from_roots(-1, [(Fraction(9, 2), 2)]), 4, 5, True),  # touches at a half
    ([0, -10, 1], 0, 10, True),               # T (T - 10): roots at lo and hi
    ([0, 10, -1], 0, 10, False),              # -T (T - 10)
    ([0, -1], 0, 10, True),                   # root at lo only
    ([-10, 1], 0, 10, True),                  # root at hi only
    (_from_roots(1, [(Fraction(0), 2), (Fraction(10), 3)]), 0, 10, True),
    (_from_roots(1, [(Fraction(0), 3), (Fraction(10), 2)]), 0, 10, False),
    ([], 0, 10, True),                        # P identically 0
    ([0, 0, 0], -3, 3, True),
    ([-7], 0, 1, True),                       # constant negative
    ([7], 0, 1, False),                       # constant positive
    ([-1, 0, -1], -5, 5, True),               # -(1 + T^2), no real root
])
def test_nonpositive_between_cases(p, lo, hi, expected):
    assert nonpositive_between(p, lo, hi) is expected


def test_roots_between_counts_open_interval():
    p = _from_roots(3, [(Fraction(0), 2), (Fraction(10), 3), (Fraction(4), 1)])
    assert roots_between(p, 0, 10) == 1
    assert roots_between(p, -1, 11) == 3
    assert roots_between(p, 4, 10) == 0
    assert roots_between(p, 3, 5) == 1
    assert roots_between([5], 0, 1) == 0


def _brute_nonpositive(p, cuts, lo, hi) -> bool:
    """p <= 0 on (lo, hi) iff p <= 0 at one point of every open gap between
    the distinct roots inside, given here (or closely approximated) by
    ``cuts``."""
    cuts = sorted({lo, hi} | {r for r in cuts if lo < r < hi})
    return all(evaluate(p, (a + b) / 2) <= 0 for a, b in zip(cuts, cuts[1:]))


def test_sign_test_matches_factored_oracle():
    # 600 polynomials with known rational roots and multiplicities, some with
    # an irrational pair +-sqrt(d) or a factor T^2 + e with no real root; the
    # interval ends often sit on a root
    rng = random.Random(71)
    for _ in range(600):
        roots = {}
        for _ in range(rng.randint(0, 4)):
            r = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
            roots[r] = roots.get(r, 0) + rng.randint(1, 3)
        roots = sorted(roots.items())
        scale = rng.choice((-5, -2, -1, 1, 3))
        lo = rng.randint(-10, 8)
        hi = lo + rng.randint(1, 10)
        p = _from_roots(scale, roots)
        cuts = [r for r, _ in roots]
        if rng.random() < 0.3:
            d = rng.choice((2, 3, 5, 7, 27))
            p = mul(p, power([-d, 0, 1], rng.randint(1, 2)))
            root = Fraction(d ** 0.5)
            cuts += [root, -root]
        if rng.random() < 0.3:
            p = mul(p, [rng.randint(1, 9), 0, 1])
        inside = sum(1 for r in set(cuts) if lo < r < hi)
        assert roots_between(p, lo, hi) == inside, (p, lo, hi)
        assert nonpositive_between(p, lo, hi) == \
            _brute_nonpositive(p, cuts, lo, hi), (p, lo, hi)
