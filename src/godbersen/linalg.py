"""Exact linear algebra on integer and rational matrices.

Hull enumeration and facet normals run on integer-rescaled coordinates, so
the hot paths here are pure-integer (Bareiss determinants, cofactor normals).
Rational Gaussian elimination is kept for the small dense solves
(interpolation systems, invertibility checks).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrix
from .rationals import Matrix, Rat, Vector


def scale_to_integers(points) -> tuple[list[tuple[int, ...]], int]:
    """Common positive integer multiplier turning all coordinates integral.

    Returns (scaled integer points, multiplier).  Scaling by a positive
    constant preserves all hull combinatorics.
    """
    mult = 1
    for p in points:
        for c in p:
            mult = lcm(mult, Fraction(c).denominator)
    scaled = [tuple(int(c * mult) for c in p) for p in points]
    return scaled, mult


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    if g <= 1:
        return tuple(vec)
    return tuple(c // g for c in vec)


def int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_rank(rows) -> int:
    """Rank of an integer (or rational) matrix via exact elimination."""
    a = [[Fraction(c) for c in r] for r in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        for i in range(rank + 1, m):
            if a[i][col] != 0:
                f = a[i][col] * inv
                for j in range(col, n):
                    a[i][j] -= f * a[rank][j]
        rank += 1
        col += 1
    return rank


def normal_to_span(rows: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Integer vector orthogonal to n-1 given integer vectors (cofactor rule).

    Returns the zero vector when the rows do not span an (n-1)-dimensional
    space; otherwise a nonzero normal, components reduced to coprime integers.
    """
    w = []
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in rows]
        d = int_det(minor)
        w.append(-d if j % 2 else d)
    return primitive(w)


def det(mat: Matrix) -> Rat:
    """Exact determinant of a square rational matrix."""
    a = [[Fraction(c) for c in r] for r in mat]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        result *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * result


def solve_linear(mat: Matrix, rhs) -> Vector:
    """Solve a square rational system exactly; raises SingularMatrix."""
    n = len(rhs)
    a = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrix("linear system is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n + 1):
                    a[i][j] -= f * a[k][j]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return int_rank(rows)
