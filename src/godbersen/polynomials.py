"""Dense univariate polynomials and an exact sign test on an interval.

Coefficient lists are low-degree-first: [c0, c1, c2] is c0 + c1*t + c2*t^2.
The ring operations work on integer or Fraction coefficients alike.  The
sign test works on integer polynomials only, so every step of it stays in Z.

``nonpositive_between(p, lo, hi)`` decides p <= 0 on an open interval with
integer ends.  It counts the distinct roots of p inside the interval with a
Sturm sequence of primitive integer pseudo-remainders (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2).  With no root inside, the
sign at the midpoint decides.  Otherwise p changes sign only at its roots of
odd multiplicity: writing p = c prod_i a_i^i with the a_i square-free and
coprime (Yun's factorisation), p has the sign of c times the odd part
prod_{i odd} a_i wherever p != 0.  So p <= 0 on the interval iff the odd
part has no root inside and c times it is negative at the midpoint.  A
double root that touches 0 thus passes.
"""

from __future__ import annotations

from .linalg import primitive
from .rationals import Rat

Poly = list


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


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def derivative(p: Poly) -> Poly:
    return [k * c for k, c in enumerate(p)][1:]


def evaluate(p: Poly, t: Rat) -> Rat:
    """p(t) by Horner's rule; an int for integer p and t."""
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by b: each step
    scales by |lc(b)|, so the sign of the true remainder is kept."""
    lead, shift_b = abs(b[-1]), len(b) - 1
    sign = 1 if b[-1] > 0 else -1
    r = a
    while len(r) > shift_b:
        top, shift = sign * r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= top * c
        r = trim(r)
    return r


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a; the quotient is integral by
    Gauss's lemma, so every leading division is exact."""
    r = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = r[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            r[k + i] -= q * c
    return out


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient; a is nonzero."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(_prem(a, b))
    a = primitive(a)
    return a if a[-1] > 0 else [-c for c in a]


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm sequence of a nonconstant p, divided by gcd(p, p'), so it stays a
    Sturm sequence of the square-free part at the roots of p as well."""
    seq = [p, primitive(derivative(p))]
    while True:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(primitive([-c for c in r]))
    g = seq[-1]
    if len(g) > 1:
        seq = [_exact_div(s, g) for s in seq]
    return seq


def _variations(seq: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (evaluate(s, x) for s in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def roots_between(p: list[int], lo: int, hi: int) -> int:
    """Number of distinct roots of the nonzero p in the open interval (lo, hi).

    The variation count is right-continuous at a root, so V(lo) - V(hi)
    counts the roots in (lo, hi]; a root at hi is taken off."""
    if len(p) < 2:
        return 0
    seq = _sturm(p)
    return (_variations(seq, lo) - _variations(seq, hi)
            - (evaluate(seq[0], hi) == 0))


def _odd_part(p: list[int]) -> list[int]:
    """Product of the square-free factors of odd multiplicity of p (Yun),
    primitive with a positive leading coefficient."""
    dp = derivative(p)
    a = _gcd(p, dp)
    b, c = _exact_div(p, a), _exact_div(dp, a)
    odd, multiplicity = [1], 1
    while len(b) > 1:
        d = add(c, [-x for x in derivative(b)])
        a = _gcd(b, d)
        if multiplicity % 2:
            odd = mul(odd, a)
        b, c = _exact_div(b, a), _exact_div(d, a)
        multiplicity += 1
    return odd


def _mid_sign(p: list[int], lo: int, hi: int) -> int:
    """Sign of p((lo + hi) / 2), from the integer 2^deg p times it."""
    s, acc, deg = lo + hi, 0, len(p) - 1
    for k in range(deg, -1, -1):
        acc = acc * s + p[k] * 2 ** (deg - k)
    return (acc > 0) - (acc < 0)


def positive_between(p: list[int], lo: int, hi: int) -> bool:
    """Exactly whether the integer polynomial p is > 0 on (lo, hi), lo < hi:
    no root there and positive at the midpoint."""
    p = trim(p)
    return roots_between(p, lo, hi) == 0 and _mid_sign(p, lo, hi) > 0


def nonpositive_between(p: list[int], lo: int, hi: int) -> bool:
    """Exactly whether the integer polynomial p is <= 0 on (lo, hi), lo < hi."""
    p = trim(p)
    if not p:
        return True
    if roots_between(p, lo, hi) == 0:
        return _mid_sign(p, lo, hi) < 0
    odd = _odd_part(p)
    if roots_between(odd, lo, hi):
        return False
    return (1 if p[-1] > 0 else -1) * _mid_sign(odd, lo, hi) < 0
