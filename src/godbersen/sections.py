"""Exact one-dimensional section profiles of polytopes.

For a body K and a nonzero direction w, the profile s(t) is the derivative of
the cumulative volume function V(t) = Vol(K intersect {x . w <= t}), stored in
the scaled coordinate t = x . w.  Between consecutive vertex levels V is a
polynomial of degree <= n, so s is piecewise polynomial of degree <= n-1 and
integrates exactly to Vol(K).

V(t) is summed over the precomputed simplicial decomposition.  The fraction of
a simplex below the level t follows the cut-volume recursion over its vertices
below (heights H_i) and above (heights H_j) the level,

    F[i][j] = ((H_j - t) F[i-1][j] + (t - H_i) F[i][j-1]) / (H_j - H_i),

with F[i][0] = 1 and F[0][j] = 0.  On an open interval between consecutive
vertex levels no vertex changes side, the factors H_j - t and t - H_i are
linear in t and the divisors H_j - H_i are positive constants, so one run of
the recursion over polynomials gives the exact piece (the density of a linear
image of a simplex is a spline in the vertex heights; Curry & Schoenberg 1966).
Only simplices straddling the interval contribute to s; the others add a
constant to V.  The recursion runs on integer heights, with the constant
divisors cleared, and Fractions are formed once per coefficient.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod

from .errors import DimensionMismatch, ZeroDirection
from .geometry import Polytope, _idot, _simplex_int_volume
from .linalg import scale_to_integers
from .polynomials import add, definite_integral, evaluate
from .rationals import Rat, Vector, as_vector, is_zero_vector


@dataclass(frozen=True)
class SectionProfile:
    """Piecewise polynomial slice-measure profile along a fixed direction."""

    direction: Vector
    breakpoints: tuple[Rat, ...]
    pieces: tuple[tuple[Fraction, ...], ...]

    def value(self, t) -> Fraction:
        """s(t); zero outside the support, exact everywhere."""
        x = Fraction(t)
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return Fraction(0)
        i = bisect.bisect_right(bp, x) - 1
        i = min(i, len(self.pieces) - 1)
        return evaluate(list(self.pieces[i]), x)

    def integral(self) -> Fraction:
        """Integral of s over its support; equals the body volume."""
        return sum(
            (definite_integral(list(p), self.breakpoints[i], self.breakpoints[i + 1])
             for i, p in enumerate(self.pieces)),
            Fraction(0),
        )

    def moment(self) -> Fraction:
        """Integral of t * s(t) over the support."""
        return sum(
            (definite_integral([Fraction(0), *p],
                               self.breakpoints[i], self.breakpoints[i + 1])
             for i, p in enumerate(self.pieces)),
            Fraction(0),
        )

    def support_interval(self) -> tuple[Rat, Rat]:
        return self.breakpoints[0], self.breakpoints[-1]


def _times_linear(p: list[int], c0: int, c1: int) -> list[int]:
    """Integer polynomial p(T) * (c0 + c1 T), low degree first."""
    out = [c0 * a for a in p] + [0]
    for k, a in enumerate(p):
        out[k + 1] += c1 * a
    return out


def _cut_polynomial(below: list[int], above: list[int]) -> tuple[list[int], int]:
    """Fraction of a simplex under the level T, as (G, D) with value G(T) / D.

    ``below`` and ``above`` are the integer heights of the vertices under and
    over an open interval of levels that contains T.  G[i][j] is F[i][j]
    times the product of d_ab = H_b - H_a over a <= i, b <= j, which turns
    the cut-volume recursion into integer polynomial steps

        G[i][j] = (H_j - T) G[i-1][j] prod_{b<j} d_ib
                  + (T - H_i) G[i][j-1] prod_{a<i} d_aj.
    """
    q = len(above)
    row: list[list[int]] = [[1]] + [[] for _ in range(q)]
    col = [1] * q  # prod_{a<i} d_aj for each j
    for hi in below:
        new = [[1]] + [[] for _ in range(q)]
        along = 1  # prod_{b<j} d_ib
        for j, hj in enumerate(above):
            new[j + 1] = add(_times_linear(row[j + 1], along * hj, -along),
                             _times_linear(new[j], -col[j] * hi, col[j]))
            d = hj - hi
            along *= d
            col[j] *= d
        row = new
    return row[q], prod(col)


def section_profile(K: Polytope, w) -> SectionProfile:
    """Exact profile of K along w, in the t = x . w coordinate.

    Breakpoints are the distinct vertex levels; on each open interval the
    piece is the exact derivative of the cumulative volume polynomial.
    """
    v = as_vector(w)
    if len(v) != K.dim:
        raise DimensionMismatch("direction length does not match the body")
    if is_zero_vector(v):
        raise ZeroDirection("section direction must be nonzero")
    n = K.dim
    # With w = W / m and the vertices P / m_v, the integer heights are
    # H = W . P = M (x . w) for M = m m_v (``level_scale``); level t is T / M.
    (iw,), m = scale_to_integers([v])
    level_scale = m * K._int_scale
    heights = [_idot(iw, p) for p in K._int_vertices]
    levels = sorted(set(heights))

    simplex_data = []
    for s in K._simplices:
        vol = _simplex_int_volume(K._int_vertices, s, n)
        if vol != 0:
            hs = [heights[i] for i in s]
            simplex_data.append((vol, min(hs), max(hs), hs))

    # On an interval, V(t) = A(M t) / (den n! m_v^n) + const, where A / den
    # sums the straddling cut polynomials weighted by the integer simplex
    # volumes; so s(t) = M A'(M t) / (den n! m_v^n).
    unit = factorial(n) * K._int_scale ** n
    pieces = []
    for lo, hi in zip(levels, levels[1:]):
        acc: list[int] = []
        den = 1
        for vol, low, high, hs in simplex_data:
            if low > lo or high < hi:
                continue
            poly, d = _cut_polynomial([h for h in hs if h <= lo],
                                      [h for h in hs if h >= hi])
            g = gcd(den, d)
            acc = add([a * (d // g) for a in acc],
                      [vol * (den // g) * c for c in poly])
            den *= d // g
        pieces.append(tuple(Fraction(k * c * level_scale ** k, den * unit)
                            for k, c in enumerate(acc) if k))
    breakpoints = tuple(Fraction(h, level_scale) for h in levels)
    return SectionProfile(v, breakpoints, tuple(pieces))
