"""Exact linear algebra on integer and rational matrices.

Every rank and determinant runs through one fraction-free kernel,
``_echelon``: Bareiss elimination on integer rows, whose every entry is an
integer minor of the input, so each division is exact (Bareiss 1968).
Rational input is scaled to integers first (``scale_to_integers``), which
reads each coordinate's numerator and denominator and makes no Fraction.

Normals to spans do not use that kernel: ``span_normals`` takes the cofactor
normal of every (n-1)-subset of a list of vectors in one exterior-product
pass, extending each prefix's minors by Laplace expansion along the next row;
``cofactor_normal`` takes the same steps for a single set of n - 1 vectors.
The per-subset cofactor route they replaced is their oracle in the tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
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


@lru_cache(maxsize=None)
def _laplace_steps(n: int):
    """Laplace expansion tables for the minors of rows of length n >= 2.

    ``steps[k][s]`` lists (sign, column, index of a k-minor) whose sum of
    sign * row[column] * minor is the s-th (k+1)-minor, expanded along a new
    last row; minors of one size are indexed by their column subsets in
    ``combinations`` order.  The last table is folded into the normal: its
    j-th entry gives (-1)^j times the minor that omits column j.
    """
    index = [{cols: i for i, cols in enumerate(combinations(range(n), k))}
             for k in range(n)]
    steps = [[tuple(((-1) ** (k + p), t, index[k][cols[:p] + cols[p + 1:]])
                    for p, t in enumerate(cols))
              for cols in combinations(range(n), k + 1)]
             for k in range(n - 1)]
    last = steps[-1]
    steps[-1] = [tuple(((-1) ** j * s, t, q) for s, t, q in last[n - 1 - j])
                 for j in range(n)]
    return steps


def span_normals(dirs, n: int):
    """Integer normal of each (n-1)-combination of integer vectors, n >= 2.

    Yields, in ``itertools.combinations`` order, the vector whose j-th
    component is (-1)^j times the (n-1)-minor omitting column j, reduced to
    coprime integers: the zero vector when the combination does not span an
    (n-1)-dimensional space, else a nonzero normal to it (cofactor rule).
    The combinations are walked depth first, and each prefix's minors are
    extended by one Laplace expansion along the new row, so every prefix is
    expanded once for all its extensions.
    """
    steps = _laplace_steps(n)
    depth = n - 1
    total = len(dirs)

    def walk(minors, start, k):
        table = steps[k]
        for i in range(start, total - depth + k + 1):
            r = dirs[i]
            nxt = [sum(s * r[t] * minors[q] for s, t, q in terms) for terms in table]
            if k + 1 == depth:
                yield primitive(nxt)
            else:
                yield from walk(nxt, i + 1, k + 1)

    return walk([1], 0, 0)


def cofactor_normal(rows, n: int) -> tuple[int, ...]:
    """Coprime integer normal of n - 1 integer rows of length n, n >= 2.

    The j-th component is (-1)^j times the minor omitting column j, built by
    the Laplace steps of ``span_normals`` for this one combination: the zero
    vector when the rows are dependent.
    """
    minors = [1]
    for table, r in zip(_laplace_steps(n), rows):
        minors = [sum(s * r[t] * minors[q] for s, t, q in terms) for terms in table]
    return primitive(minors)

