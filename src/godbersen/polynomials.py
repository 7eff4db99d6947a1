"""Dense univariate polynomials with exact rational coefficients.

Coefficient lists are low-degree-first: [c0, c1, c2] is c0 + c1*t + c2*t^2.
Used for section profiles, where every integration must stay in Q.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import Rat

Poly = list[Fraction]


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def evaluate(p: Poly, t: Rat) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def antiderivative(p: Poly) -> Poly:
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


def definite_integral(p: Poly, lo: Rat, hi: Rat) -> Fraction:
    prim = antiderivative(p)
    return evaluate(prim, hi) - evaluate(prim, lo)
