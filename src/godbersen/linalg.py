"""Exact linear algebra on integer and rational matrices.

Every rank, determinant and adjugate runs through one fraction-free kernel,
``_echelon``: Bareiss elimination on integer rows, whose every entry is an
integer minor of the input, so each division is exact (Bareiss 1968).  The
facet kernel of ``geometry`` draws on it twice: the pivot columns of its
transposed rows pick the first linearly independent rows, and the adjugate
of those rows gives the first rays.  No normal of a span is formed.
Rational input is scaled to integers first (``scale_to_integers``), which
reads each coordinate's numerator and denominator and makes no Fraction.
"""

from __future__ import annotations

from math import gcd, lcm


def scale_to_integers(points) -> tuple[list[tuple[int, ...]], int]:
    """Common positive integer multiplier turning all coordinates integral.

    Returns (scaled integer points, multiplier).  Scaling by a positive
    constant preserves all hull combinatorics.
    """
    mult = lcm(*(c.denominator for p in points for c in p))
    # tuple() of a list: from a generator it over-allocates and shrinks each
    # tuple, which on the audit workload raised the peak RSS by about 0.5 MB
    scaled = [tuple([c.numerator * (mult // c.denominator) for c in p]) for p in points]
    return scaled, mult


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(c // g for c in vec)


def _echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """Bareiss row echelon form of an integer matrix.

    Returns (rows, pivot columns, sign of the row swaps).  A column with no
    nonzero entry at or below the current row is skipped.  After the k-th
    pivot, every entry below it is a (k+1)-minor of the input, so the
    division by the previous pivot is exact; the last pivot of a square
    nonsingular matrix is its determinant up to the sign.
    """
    a = [list(r) for r in rows]
    m = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(width):
        if r == m:
            break
        if a[r][c] == 0:
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                continue
        top = a[r]
        p = top[c]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            for j in range(c + 1, width):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return a, pivots, sign


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def adjugate(rows) -> list[list[int]]:
    """Adjugate of a square integer matrix: adj(A) A = det(A) I."""
    n = len(rows)
    return [[(-1) ** (i + j) * int_det([r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
             for j in range(n)] for i in range(n)]


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows)[1])
