"""Exact one-dimensional section profiles of polytopes.

For a body K and a nonzero direction w, the profile s(t) is the derivative of
the cumulative volume function V(t) = Vol(K intersect {x . w <= t}), in the
coordinate t = x . w.  Between consecutive vertex levels V is a polynomial of
degree <= n, so s is piecewise polynomial of degree <= n-1 and integrates
exactly to Vol(K).

V(t) is summed over the body's fan, the simplicial decomposition that
``geometry`` builds with the body; the fan's integer simplex volumes come
with it, so no profile takes a determinant.  The share of a simplex below
the level T, for vertex heights H_0..H_n, is a spline in the heights
(Curry & Schoenberg 1966): a divided difference of the truncated power
(T - x)_+^n (de Boor, *A Practical Guide to Splines*, ch. I and IX),

    F(T) = sum over the distinct heights g < T of term_g(T),

where term_g is minus the residue at x = g of (T - x)^n / prod_j (H_j - x).
A height met once gives the single term (T - g)^n / prod_h (h - g); a
height tied r times gives r terms in (T - g)^n .. (T - g)^(n-r+1), whose
integer coefficients are complete homogeneous symmetric sums of the
cofactors p0 / (h - g), p0 = prod_h (h - g), over the other heights
(Macdonald, *Symmetric Functions and Hall Polynomials*, I.2;
``_level_terms``).  So F needs no recursion, and its terms depend on the
level they sit at, not on the interval: the r-entry lists of integer
numerators that ``_level_terms`` gives are weighted by their simplex's
volume and added in one flat sum per height over one lcm denominator, den.
That sum, the numerators d_k of (T - g)^k, is the profile's level form:
the cumulative volume on piece i is V(t) = A_i(M t) / den on the integer
levels T = M t, A_i the sum of the level sums through ``levels[i]``, so
s = M A_i'(M t) / den.  The terms of the top level are never needed, and
no profile is expanded in powers of T: V is kept in the truncated power
form of a spline, sum d_k (T - g)_+^k (de Boor, ch. IX).  The integral and
the moment follow from the level sums by one integration by parts, each
reduced to one Fraction at the end.  The root test carries A' from level to
level by one Taylor shift of the gap, maps each piece to [0, 1] and settles
it by the signs of integer Bernstein coefficients, of s (positive inside)
and of the Brunn form (nonpositive), sufficient certificates; the Sturm
sign tests of ``polynomials`` decide any piece a certificate leaves open,
and a Brunn form that is identically zero (every piece at n = 2, and cones)
needs neither.  The power form (``accumulators``), the rational
coefficients of s (``pieces``) and its values are made on demand.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, lcm, prod
from operator import ge

from .errors import DimensionMismatch, ZeroDirection
from .geometry import Polytope, _idot
from .linalg import scale_to_integers
from .polynomials import (
    evaluate, nonpositive_between, positive_between, trim)
from .rationals import Rat, Vector, as_rat


@dataclass(frozen=True, eq=False, kw_only=True)
class SectionProfile:
    """Piecewise polynomial slice-measure profile along a fixed direction.

    Piece i lies between the integer levels T = ``levels[i]`` and
    ``levels[i + 1]`` of T = M t, M = ``level_scale``.  In level form,
    ``level_sums[j]`` holds the integer numerators d_k of (T - g)^k, low
    degree first, for the level g = ``levels[j]`` below the top, over the
    positive ``denominator`` that every level shares.  On piece i the
    cumulative volume is V(t) = A_i(M t) / den, A_i(T) the sum of d_k (T -
    g)^k over the levels through ``levels[i]``, so s(t) = M A_i'(M t) / den;
    ``accumulators`` holds the A_i in powers of T.  Two profiles are equal
    when their directions, breakpoints and rational pieces are.
    """

    direction: Vector
    level_scale: int
    levels: tuple[int, ...]
    level_sums: tuple[tuple[int, ...], ...]
    denominator: int

    def __post_init__(self):
        if (not 0 < len(self.level_sums) == len(self.levels) - 1 or self.denominator <= 0
                or any(map(ge, self.levels, self.levels[1:]))):
            raise ValueError("a section profile needs two or more strictly increasing "
                             "levels, one level sum per piece and a positive denominator")

    @cached_property
    def accumulators(self) -> tuple[tuple[int, ...], ...]:
        """A_i in powers of T, low degree first and trimmed: each level's
        d_k (T - g)^k added by the binomial rows C(k, j) d_k (-g)^(k-j), and
        A_i the prefix sum of the levels through ``levels[i]``."""
        acc, out = [0] * max(map(len, self.level_sums)), []
        for g, d in zip(self.levels, self.level_sums):
            for k, c in enumerate(d):
                for j in range(k, -1, -1):
                    acc[j] += comb(k, j) * c
                    c *= -g
            out.append(tuple(trim(acc)))
        return tuple(out)

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(h, self.level_scale) for h in self.levels)

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rational coefficients of s in t on each piece, low degree first."""
        m, den = self.level_scale, self.denominator
        return tuple(tuple(Fraction(k * c * m ** k, den)
                           for k, c in enumerate(acc) if k)
                     for acc in self.accumulators)

    def _key(self):
        return self.direction, self.breakpoints, self.pieces

    def __eq__(self, other):
        if not isinstance(other, SectionProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def value(self, t) -> Fraction:
        """s(t); zero outside the support, exact everywhere.  ``t`` is an int,
        a Fraction or a rational string; a float is refused (``as_rat``)."""
        x = as_rat(t)
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return Fraction(0)
        i = min(bisect.bisect_right(bp, x) - 1, len(self.pieces) - 1)
        return evaluate(self.pieces[i], x)

    def integral(self) -> Fraction:
        """Integral of s over its support; equals the body volume.  The
        level g adds A's growth from g to the top, sum over k >= 1 of
        d_k x^k for x = top - g; a d_0, a jump of A, no body makes and s
        does not see."""
        top, total = self.levels[-1], 0
        for g, d in zip(self.levels, self.level_sums):
            x, s = top - g, 0
            for c in d[:0:-1]:
                s = (s + c) * x
            total += s
        return Fraction(total, self.denominator)

    def moment(self) -> Fraction:
        """Integral of t * s(t) over the support, that of T A'(T) dT over
        M den.  By parts the level g adds, for x = top - g, the sum over
        k >= 1 of d_k (top x^k - x^(k+1) / (k+1)), taken times big, the lcm
        of 1..d+1 for the top degree d, so that every term is an integer."""
        top = self.levels[-1]
        big = lcm(*range(1, max(map(len, self.level_sums)) + 1))
        lead, total = big * top, 0
        for g, d in zip(self.levels, self.level_sums):
            x, s = top - g, 0
            for k in range(len(d) - 1, 0, -1):
                s = (s + d[k] * (lead - big // (k + 1) * x)) * x
            total += s
        return Fraction(total, big * self.level_scale * self.denominator)

    def root_concave(self) -> bool:
        """Exactly whether s^(1/k), k = n - 1, is concave on the support.

        On a piece q = A' is a positive multiple of s in T, and where q > 0
        the root has second derivative q^(1/k - 2) P / k^2 (up to a positive
        factor) with P = k q q'' - (k-1) q'^2, so P <= 0 on the open piece;
        P vanishes identically for n = 2 and for cones.  q is carried in
        u = T - lo: each level adds j d_j to the coefficient of u^(j-1), and
        each piece but the last shifts q by its gap h = hi - lo.  The piece
        is taken in u / h as r(u) = q(lo + h u), r_j = q_j h^j.
        The root is smooth only where s > 0, so r must be > 0 on (0, 1):
        certified when its Bernstein coefficients are >= 0 and not all 0
        (``_bernstein_positive``), else decided by Sturm
        (``positive_between``).  Then k r r'' - (k-1) r'^2 = h^2 P(lo + h u)
        (``_brunn_form``) is <= 0 on [0, 1] when it is identically 0, which
        needs no test, or when its Bernstein coefficients are
        (``_bernstein_nonpositive``).  Both certificates are sufficient,
        not necessary, so a piece they leave open goes to the complete Sturm
        tests on (0, 1): a double root of P touching 0 still passes
        ``nonpositive_between``.  At an interior level g the pieces, over
        their one denominator, must meet at a positive value and bend down,
        q-(g) = q+(g) > 0 and q-'(g) >= q+'(g).  The level adds d_1 to q and
        2 d_2 to q' there (the jumps of A's derivatives in the truncated
        power form), so that holds iff d_1 = 0, d_2 <= 0 and q, carried past
        the level, is positive at u = 0; a junction is read off before the
        piece above it is certified.
        """
        k, top = len(self.direction) - 1, self.levels[-1]
        q = [0] * (max(map(len, self.level_sums)) - 1)
        spans = zip(self.level_sums, self.levels, self.levels[1:])
        for i, (d, lo, hi) in enumerate(spans):
            for j in range(1, len(d)):
                q[j - 1] += j * d[j]
            if i and (any(d[1:2]) or max(d[2:3], default=0) > 0 or q[0] <= 0):
                return False
            h = hi - lo
            r = [c * h ** j for j, c in enumerate(trim(q))]
            if not (_bernstein_positive(r) or positive_between(r, 0, 1)):
                return False
            p = _brunn_form(r, k)
            if p and not (_bernstein_nonpositive(p) or nonpositive_between(p, 0, 1)):
                return False
            if hi != top:
                _taylor_shift(q, h)
        return True

    def support_interval(self) -> tuple[Rat, Rat]:
        return self.breakpoints[0], self.breakpoints[-1]


def _taylor_shift(c: list[int], g: int) -> list[int]:
    """Shift c, low degree first, to the coefficients of c(x + g) in place,
    by the n(n+1)/2 steps of Horner's shift, and return it."""
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += g * c[j + 1]
    return c


@cache
def _brunn_weights(k: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero (i, j, w), i <= j, with k r r'' - (k-1) r'^2 = sum of
    w r_i r_j u^(i+j-2) for r of degree d.  The products r_i r_j and r_j r_i
    give w = k (i (i-1) + j (j-1)) - 2 (k-1) i j, and r_i^2 gives i (i - k)."""
    weights = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            w = (i * (i - k) if i == j
                 else k * (i * (i - 1) + j * (j - 1)) - 2 * (k - 1) * i * j)
            if w:
                weights.append((i, j, w))
    return tuple(weights)


def _brunn_form(r: list[int], k: int) -> list[int]:
    """k r r'' - (k-1) r'^2 for the integer polynomial r, low degree first
    and trimmed, from the weights of its degree: the same products the
    polynomial ring would make, taken once per pair of coefficients."""
    p = [0] * max(2 * len(r) - 3, 0)
    for i, j, w in _brunn_weights(k, len(r) - 1):
        p[i + j - 2] += w * r[i] * r[j]
    return trim(p)


def _bernstein_nonpositive(p: list[int]) -> bool:
    """Whether every Bernstein coefficient of p on [0, 1] is <= 0, which
    makes p <= 0 on [0, 1] (Farouki & Rajan, "Algorithms for polynomials in
    Bernstein form", CAGD 5, 1988).

    For p of degree D, C(D, i) times the i-th coefficient is sum_{j <= i}
    C(D - j, i - j) p_j, the coefficient of x^(D - i) in sum_j p_j (x + 1)^(D
    - j): the reversed p shifted by 1, made with additions alone.
    """
    return all(c <= 0 for c in _taylor_shift(p[::-1], 1))


def _bernstein_positive(r: list[int]) -> bool:
    """Whether every Bernstein coefficient of r on [0, 1] is >= 0 and not all
    of them 0, which makes r > 0 on (0, 1), where every Bernstein basis
    polynomial is positive.  The coefficients are made as in
    ``_bernstein_nonpositive``."""
    b = _taylor_shift(r[::-1], 1)
    return bool(b) and min(b) >= 0 and max(b) > 0


def _level_terms(hs: list[int], top) -> list[tuple[int, tuple[int, ...], int]]:
    """The level terms of a simplex with integer vertex heights ``hs``, for
    its distinct heights g below ``top``.

    One (g, c, den) per such g, den != 0: term_g(T) = sum_l c[l] (T - g)^(n - l)
    / den.  On an open interval of T, the share of the simplex below T is the
    sum of term_g(T) over the heights g < T, and the terms of all heights sum
    to 1 (a divided difference of (T - x)_+^n, a spline in the heights).
    term_g is minus the residue at x = g of (T - x)^n / prod_j (H_j - x).  For
    a height of multiplicity 1 that is (T - g)^n / p0, p0 = prod_x x over the
    gaps x = h - g to the other heights.  A height tied r > 1 times has r
    terms: 1 / prod_x (x - e) = sum_m E_m e^m / p0^(m+1), where E_m is the
    complete homogeneous symmetric sum h_m of the integer cofactors p0 / x,
    and c[l] = (-1)^(r+1+l) C(n, l) E_(r-1-l) p0^l over den = p0^r.  E is
    built one gap at a time, as the product of the series 1 / (1 - (p0 / x)
    e) truncated after e^(r-1).
    """
    n = len(hs) - 1
    out = []
    for g in set(hs):
        if g >= top:
            continue
        gaps = [h - g for h in hs if h != g]
        p0 = prod(gaps)
        r = n + 1 - len(gaps)
        if r == 1:
            out.append((g, (1,), p0))
            continue
        e = [1] + [0] * (r - 1)
        for x in gaps:
            y = p0 // x
            for m in range(1, r):
                e[m] += y * e[m - 1]
        out.append((g, tuple((-1) ** (r + 1 + l) * comb(n, l) * e[r - 1 - l] * p0 ** l
                             for l in range(r)), p0 ** r))
    return out


def section_profile(K: Polytope, w) -> SectionProfile:
    """Exact profile of K along w, in the t = x . w coordinate.

    Breakpoints are the distinct vertex levels; on each open interval the
    piece is the exact derivative of the cumulative volume polynomial.  The
    direction is read by ``scale_to_integers`` as W / m (ints, Fractions and
    rational strings, never floats), and the profile's ``direction`` is the
    int tuple W when m = 1, an integer direction among them, and the
    Fractions W / m otherwise.
    """
    (iw,), m = scale_to_integers([w])
    if len(iw) != K.dim:
        raise DimensionMismatch("direction length does not match the body")
    if not any(iw):
        raise ZeroDirection("section direction must be nonzero")
    v = iw if m == 1 else tuple(Fraction(c, m) for c in iw)
    n = K.dim
    # With w = W / m and the vertices P / m_v, the integer heights are
    # H = W . P = M (x . w) for M = m m_v (``level_scale``); level t is T / M.
    level_scale = m * K._int_scale
    heights = [_idot(iw, p) for p in K._int_vertices]
    levels = sorted(set(heights))

    # The level terms of every simplex, weighted by its integer volume, over
    # den, the lcm of all the terms' denominators, and summed per height:
    # entry l of a sum is the numerator of (T - g)^(n - l).  No piece reaches
    # past the top level, so its terms are never made.
    terms = [(g, d, vol, c) for s, vol in zip(K._simplices, K._fan_volumes)
             for g, c, d in _level_terms([heights[i] for i in s], levels[-1])]
    den = lcm(*{d for _, d, _, _ in terms})
    sums = {g: [0] * (n + 1) for g in levels[:-1]}
    for g, d, vol, c in terms:
        f, level = den // d * vol, sums[g]
        for l, b in enumerate(c):
            level[l] += f * b

    # Each height's sum, reversed, holds the numerators of (T - g)^k: the
    # level form, with V(t) = A_i(M t) / (den n! m_v^n) on piece i.
    return SectionProfile(direction=v, level_scale=level_scale, levels=tuple(levels),
                          level_sums=tuple(tuple(c[::-1]) for c in sums.values()),
                          denominator=den * factorial(n) * K._int_scale ** n)
