"""Exact one-dimensional section profiles of polytopes.

For a body K and a nonzero direction w, the profile s(t) is the derivative of
the cumulative volume function V(t) = Vol(K intersect {x . w <= t}), in the
coordinate t = x . w.  Between consecutive vertex levels V is a polynomial of
degree <= n, so s is piecewise polynomial of degree <= n-1 and integrates
exactly to Vol(K).

V(t) is summed over the body's fan, the simplicial decomposition that
``geometry`` builds with the body; the fan's integer simplex volumes come
with it, so no profile takes a determinant.  The fraction of a simplex below
the level t follows the cut-volume recursion over its vertices below
(heights H_i) and above (heights H_j) the level,

    F[i][j] = ((H_j - t) F[i-1][j] + (t - H_i) F[i][j-1]) / (H_j - H_i),

with F[i][0] = 1 and F[0][j] = 0.  On an open interval between consecutive
vertex levels no vertex changes side, the factors H_j - t and t - H_i are
linear in t and the divisors H_j - H_i are positive constants, so one run of
the recursion over polynomials gives the exact piece (the density of a linear
image of a simplex is a spline in the vertex heights; Curry & Schoenberg 1966).
Only simplices straddling the interval contribute to s; the others add a
constant to V.

A simplex keeps one split of its vertices into below and above across every
interval between two of its consecutive heights, so the recursion runs once
per split, not once per interval.  With one vertex on either side it is a
single power of a linear form, taken in closed form.  The recursion runs on
the integer levels T = M t with the constant divisors cleared, and its
results sum to the one stored form of a piece: an integer accumulator A(T)
over a positive integer denominator, with s = M A'(M t) / den.
The integral, the moment and the slice-root concavity test are integer
computations on that form, each reduced to one Fraction at the end.  The
rational coefficients of s (``pieces``) and its values are made on demand.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm, prod

from .errors import DimensionMismatch, ZeroDirection
from .geometry import Polytope, _idot
from .linalg import scale_to_integers
from .polynomials import add, derivative, evaluate, mul, nonpositive_between, trim
from .rationals import Rat, Vector, as_vector, is_zero_vector


@dataclass(frozen=True, eq=False)
class SectionProfile:
    """Piecewise polynomial slice-measure profile along a fixed direction.

    Piece i lies between the integer levels T = ``levels[i]`` and
    ``levels[i + 1]`` of T = M t, M = ``level_scale``.  It is stored as the
    integer accumulator A_i = ``accumulators[i]`` (low degree first) over the
    positive integer ``denominators[i]``: s(t) = M A_i'(M t) / den_i.  Two
    profiles are equal when their directions, breakpoints and rational
    pieces are.
    """

    direction: Vector
    level_scale: int
    levels: tuple[int, ...]
    accumulators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(h, self.level_scale) for h in self.levels)

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rational coefficients of s in t on each piece, low degree first."""
        m = self.level_scale
        return tuple(tuple(Fraction(k * c * m ** k, den)
                           for k, c in enumerate(acc) if k)
                     for acc, den in zip(self.accumulators, self.denominators))

    def _key(self):
        return self.direction, self.breakpoints, self.pieces

    def __eq__(self, other):
        if not isinstance(other, SectionProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def value(self, t) -> Fraction:
        """s(t); zero outside the support, exact everywhere."""
        x = Fraction(t)
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return Fraction(0)
        i = bisect.bisect_right(bp, x) - 1
        i = min(i, len(self.pieces) - 1)
        return evaluate(self.pieces[i], x)

    def _spans(self):
        """(A_i, den_i, lo_i, hi_i) for every piece."""
        return zip(self.accumulators, self.denominators,
                   self.levels, self.levels[1:])

    def integral(self) -> Fraction:
        """Integral of s over its support; equals the body volume.  A piece
        contributes (A(hi) - A(lo)) / den."""
        common = lcm(*self.denominators)
        total = sum(common // den * sum(c * (hi ** k - lo ** k)
                                        for k, c in enumerate(acc))
                    for acc, den, lo, hi in self._spans())
        return Fraction(total, common)

    def moment(self) -> Fraction:
        """Integral of t * s(t) over the support.  A piece contributes
        (1 / (M den)) integral T A'(T) dT, the power sum
        sum_k k c_k (hi^(k+1) - lo^(k+1)) / (k+1), taken times the lcm of
        1..d+1 for the top degree d so that every term is an integer."""
        big = lcm(*range(1, max(map(len, self.accumulators)) + 1))
        common = lcm(*self.denominators)
        total = sum(common // den * sum(big // (k + 1) * k * c
                                        * (hi ** (k + 1) - lo ** (k + 1))
                                        for k, c in enumerate(acc))
                    for acc, den, lo, hi in self._spans())
        return Fraction(total, big * self.level_scale * common)

    def root_concave(self) -> bool:
        """Exactly whether s^(1/k), k = n - 1, is concave on the support.

        On a piece q = A' is a positive multiple of s in T, and where q > 0
        the root has second derivative q^(1/k - 2) P / k^2 (up to a positive
        factor) with P = k q q'' - (k-1) q'^2, so P <= 0 on the open piece
        (``nonpositive_between``).  P vanishes identically for n = 2 and for
        cones.  At an interior level the pieces must meet at a positive value,
        q-(T) den+ = q+(T) den- > 0, and bend down, q-'(T) den+ >= q+'(T) den-.
        """
        k = len(self.direction) - 1
        qs = [derivative(acc) for acc in self.accumulators]
        for q, (_, _, lo, hi) in zip(qs, self._spans()):
            dq = derivative(q)
            p = add(mul([k * c for c in q], derivative(dq)),
                    mul([(1 - k) * c for c in dq], dq))
            if not nonpositive_between(p, lo, hi):
                return False
        dens = self.denominators
        for i, level in enumerate(self.levels[1:-1]):
            left, right = qs[i], qs[i + 1]
            value = evaluate(left, level) * dens[i + 1]
            if value <= 0 or value != evaluate(right, level) * dens[i]:
                return False
            if (evaluate(derivative(left), level) * dens[i + 1]
                    < evaluate(derivative(right), level) * dens[i]):
                return False
        return True

    def support_interval(self) -> tuple[Rat, Rat]:
        return self.breakpoints[0], self.breakpoints[-1]


def _linear_combination(a: list[int], a0: int, a1: int,
                        b: list[int], b0: int, b1: int) -> list[int]:
    """Integer polynomial a(T) (a0 + a1 T) + b(T) (b0 + b1 T), low degree
    first and untrimmed."""
    out = [0] * (max(len(a), len(b)) + 1)
    for k, c in enumerate(a):
        out[k] += a0 * c
        out[k + 1] += a1 * c
    for k, c in enumerate(b):
        out[k] += b0 * c
        out[k + 1] += b1 * c
    return out


def _shifted_power(h: int, e: int) -> list[int]:
    """(T - h)^e, low degree first."""
    return [comb(e, k) * (-h) ** (e - k) for k in range(e + 1)]


def _cut_polynomial(below: list[int], above: list[int]) -> tuple[list[int], int]:
    """Fraction of a simplex under the level T, as (G, D) with value G(T) / D.

    ``below`` and ``above`` are the integer heights of the vertices under and
    over an open interval of levels that contains T.  D is the product of
    d_ab = H_b - H_a over every below vertex a and above vertex b, and
    G = F D.  With one vertex h below, F is the similar simplex's share
    prod_j (T - h) / (H_j - h), so G = (T - h)^q; with one vertex h above,
    G = D - (h - T)^p.  Otherwise G[i][j], F[i][j] times the product of d_ab
    over a <= i, b <= j, turns the cut-volume recursion into integer
    polynomial steps

        G[i][j] = (H_j - T) G[i-1][j] prod_{b<j} d_ib
                  + (T - H_i) G[i][j-1] prod_{a<i} d_aj.
    """
    p, q = len(below), len(above)
    if p == 1:
        h = below[0]
        return _shifted_power(h, q), prod(hj - h for hj in above)
    if q == 1:
        h = above[0]
        d = prod(h - hi for hi in below)
        sign = 1 if p % 2 else -1  # (h - T)^p = (-1)^p (T - h)^p
        g = [sign * c for c in _shifted_power(h, p)]
        g[0] += d
        return g, d
    row: list[list[int]] = [[1]] + [[] for _ in range(q)]
    col = [1] * q  # prod_{a<i} d_aj for each j
    for hi in below:
        new = [[1]] + [[] for _ in range(q)]
        along = 1  # prod_{b<j} d_ib
        for j, hj in enumerate(above):
            new[j + 1] = _linear_combination(row[j + 1], along * hj, -along,
                                             new[j], -col[j] * hi, col[j])
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
    index = {h: i for i, h in enumerate(levels)}

    # A simplex with sorted heights hs splits the same way, hs[:k] below and
    # hs[k:] above, on every interval from level hs[k-1] to hs[k]; so each
    # split's cut polynomial is made once and, weighted by the simplex's
    # integer volume, listed for each of those intervals.
    parts: list[list[tuple[int, list[int], int]]] = [[] for _ in levels[1:]]
    for s, vol in zip(K._simplices, K._fan_volumes):
        hs = sorted([heights[i] for i in s])
        for k in range(1, n + 1):
            if hs[k - 1] < hs[k]:
                poly, d = _cut_polynomial(hs[:k], hs[k:])
                for i in range(index[hs[k - 1]], index[hs[k]]):
                    parts[i].append((vol, poly, d))

    # On an interval, V(t) = A(M t) / (den n! m_v^n) + const, where A / den
    # sums the straddling cut polynomials G / D weighted by the integer
    # simplex volumes over den = lcm of the D; so s(t) = M A'(M t) /
    # (den n! m_v^n).
    unit = factorial(n) * K._int_scale ** n
    accumulators, denominators = [], []
    for interval in parts:
        den = lcm(*(d for _, _, d in interval))
        acc = [0] * (n + 1)
        for vol, poly, d in interval:
            f = vol * (den // d)
            for k, c in enumerate(poly):
                acc[k] += f * c
        accumulators.append(tuple(trim(acc)))
        denominators.append(den * unit)
    return SectionProfile(v, level_scale, tuple(levels), tuple(accumulators),
                          tuple(denominators))
