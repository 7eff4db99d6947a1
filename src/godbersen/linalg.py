"""Exact linear algebra on integer and rational matrices.

Every rank and determinant runs on Bareiss's fraction-free elimination of
integer rows, whose every entry is an integer minor of the input, so each
division is exact (Bareiss 1968).  Here it is one kernel, ``_echelon``; no
minor is taken on its own.  ``geometry.transform`` refuses a singular matrix
by the pivots of one pass over its rows.  The facet kernel
``dd._cone_rays`` seeds from one pass too: on its transposed rows followed
by I, the pivot columns pick the first linearly independent rows B, and an
integer back-substitution (``_back_substitute``) gives the rows of adj(B)^T
up to sign, the first rays.  The same pass decides the span: the rows fail
to span exactly when a pivot falls in the I block, so a hull takes no rank
of its points on its own.  The fan simplices' determinants come from the
same kernel: ``fan._pulling_fan`` takes each simplex's as the last pivot, up
to sign, of one ``_echelon`` pass over its rows.  A body's fan takes n x n
determinants in R^n, and so does the fan of a Cayley polytope in R^(n+1),
whose simplices' rows are taken against two apices, one at each end
(``fan._cayley_mixed_volumes``).  No normal of a span is formed.

``scale_to_integers`` is the package's one API edge: every public entry that
takes coordinates from outside (``build_hull``, ``support``, ``transform``,
``section_profile``, ``HalfSpace`` and ``make_system``, the ``PLConcave``
constructor) hands them to it and works on the integers it returns.  It
reads an int as it is and a Fraction by its numerator and denominator,
parses a rational string (``as_rat``), and refuses a float with TypeError.
All-int input comes back as it is, over 1, with no Fraction made; the
generators and ``random_concave`` make integers from the start.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import as_rat


def scale_to_integers(points) -> tuple[list[tuple[int, ...]], int]:
    """Common positive integer multiplier turning all coordinates integral.

    Returns (scaled integer points, multiplier), the multiplier the least
    one: the lcm of the coordinates' denominators.  A coordinate is an int, a
    Fraction or a rational string; anything else, a float included, raises
    TypeError.  All-int points come back as tuples over 1 and make no
    Fraction.  Scaling by a positive constant preserves all hull
    combinatorics.
    """
    points = [tuple(p) for p in points]
    if all(type(c) is int for p in points for c in p):
        return points, 1
    points = [[c if isinstance(c, (int, Fraction)) else as_rat(c) for c in p]
              for p in points]
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
    return tuple([c // g for c in vec])


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
    sign = prev = 1
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


def _with_identity(rows) -> list[list[int]]:
    """[A | I]: each of the k rows followed by the matching row of I_k."""
    k = len(rows)
    return [[*r, *(0,) * i, 1, *(0,) * (k - 1 - i)] for i, r in enumerate(rows)]


def _back_substitute(a, pivots: list[int], start: int) -> tuple[int, list[list[int]]]:
    """(D, rows of D M^-1) from the Bareiss echelon ``a`` of [N | I_k].

    The k ``pivots`` must all be columns of N, and I_k starts at column
    ``start``.  M is the square submatrix of N on the pivot columns and D the
    last pivot, det M times the sign of the row swaps.  The echelon rows are
    L P [N | I] for some invertible L, so U X = D V, with U and V their
    pivot and identity columns, is solved by X = D M^-1, which is integral
    (Cramer's rule): each division by a pivot is exact.
    """
    k = len(pivots)
    d = a[k - 1][pivots[-1]] if k else 1
    x: list[list[int]] = [[]] * k
    for i in reversed(range(k)):
        row = a[i]
        acc = [d * c for c in row[start:start + k]]
        for j in range(i + 1, k):
            c = row[pivots[j]]
            if c:
                acc = [u - c * v for u, v in zip(acc, x[j])]
        p = row[pivots[i]]
        x[i] = [u // p for u in acc]
    return d, x

