"""Nonnegative piecewise-linear concave functions on [0,1] and the integral
inequality driving the inclusion proof, plus the Brunn-Minkowski and
slice-root-concavity checks.

The central fact: for any integer m >= 2 and concave f : [0,1] -> [0, inf),

    integral_0^1 (r - 1/(m+1)) f^{m-1}(r) dr >= 0,

with equality exactly when f(1) = 0 and f is linear.  On a knot piece [k1, k2]
of width h, f runs linearly from v1 to v2, and r = k1 + h s with the Beta
integrals integral_0^1 (1-s)^a s^b ds = a! b! / (a+b+1)! gives the power sum

    h / (m (m+1)) * sum_{i=0}^{m-1} v1^(m-1-i) v2^i ((m+1) k1 - 1 + (i+1) h),

with no slope division.  With d = v2 - v1, the power sums
S0 = sum_i v1^(m-1-i) v2^i and S1 = sum_i i v1^(m-1-i) v2^i have the closed
forms of the geometric sum,

    S0 = (v2^m - v1^m) / d,    S1 = (m v2^m d - v2 (v2^m - v1^m)) / d^2,

both exact divisions, since they are polynomial identities over the
integers; when d = 0, S0 = m v1^(m-1) and S1 = C(m, 2) v1^(m-1).  The piece
then contributes h / (m (m+1)) * (((m+1) k1 - 1 + h) S0 + h S1), a fixed
number of integer operations whatever m is.  A function is held as integer
knots and values over one denominator, its Fraction knots and values only
views made when first read, and ``random_concave`` draws and integrates it
in integers, so a drawn function's integral check makes one Fraction, its
result.
Slice-root concavity (Brunn's principle) is decided exactly on the integer
section pieces, with no root taken: a Bernstein certificate settles a piece,
and a Sturm sign test any piece it leaves open
(``SectionProfile.root_concave``).  Brunn-Minkowski is decided exactly too
(``bm_check``): it reads Vol(K + L) = sum_j C(n,j) m_j off the mixed-volume
profile, with no sum built, and compares integer powers of the profile's
integer numerators instead of n-th roots.  No verdict here takes a float.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .errors import InvalidM, LemmaViolation, NotConcave, TheoremViolation
from .geometry import Polytope
from .inclusion import center_at_centroid
from .linalg import scale_to_integers
from .mixedvol import mv_profile
from .rationals import Rat
from .sections import section_profile

MAX_EXTRA_KNOTS = 6
DENOMINATOR_BOUND = 8


@dataclass(frozen=True, init=False)
class PLConcave:
    """Piecewise-linear concave f >= 0 on [0,1]; knots include 0 and 1.
    Knots and values are read by ``scale_to_integers``: ints, Fractions and
    rational strings, never floats.

    The function is held as one integer form: the knots and values are
    ``_int_knots`` and ``_int_values`` over the positive ``_int_scale``, with
    no common factor, so equal functions have equal forms.  The constructor
    makes it with its one ``scale_to_integers`` call, whose multiplier is the
    least one; ``random_concave`` hands it over in integers (``_from_ints``),
    and the same checks run on it.  ``knots`` and ``values`` are Fraction
    views, made when first read.  A piece's slope is its (width, rise) pair,
    compared by cross-multiplication, so no slope is divided out."""

    _int_knots: tuple[int, ...]
    _int_values: tuple[int, ...]
    _int_scale: int

    def __init__(self, knots, values):
        (ks, vs), den = scale_to_integers([knots, values])
        self._set_form(ks, vs, den)

    @classmethod
    def _from_ints(cls, ks: list[int], vs: list[int], den: int) -> PLConcave:
        """The function with knots ``ks`` and values ``vs`` over the positive
        ``den``: the form is reduced by its gcd, which is the one
        ``scale_to_integers`` makes from the Fractions, and checked as the
        public constructor checks it."""
        g = gcd(den, *ks, *vs)
        f = object.__new__(cls)
        f._set_form(tuple(x // g for x in ks), tuple(x // g for x in vs), den // g)
        return f

    def _set_form(self, ks: tuple[int, ...], vs: tuple[int, ...], den: int) -> None:
        """Check the integer knots and values over ``den`` and keep them."""
        if len(ks) != len(vs) or len(ks) < 2:
            raise NotConcave("knots and values must match and cover [0,1]")
        if ks[0] != 0 or ks[-1] != den:
            raise NotConcave("domain must be exactly [0,1]")
        pieces = [(k2 - k1, v2 - v1)
                  for k1, k2, v1, v2 in zip(ks, ks[1:], vs, vs[1:])]
        if any(h <= 0 for h, _ in pieces):
            raise NotConcave("knots must be strictly increasing")
        if any(x < 0 for x in vs):
            raise NotConcave("values must be nonnegative")
        # rise2 / h2 > rise1 / h1, with both widths positive
        if any(r2 * h1 > r1 * h2 for (h1, r1), (h2, r2) in zip(pieces, pieces[1:])):
            raise NotConcave("slopes must be nonincreasing")
        object.__setattr__(self, "_int_knots", ks)
        object.__setattr__(self, "_int_values", vs)
        object.__setattr__(self, "_int_scale", den)

    @cached_property
    def knots(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self._int_scale) for k in self._int_knots)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._int_scale) for v in self._int_values)

    def __repr__(self):
        return f"PLConcave(knots={self.knots!r}, values={self.values!r})"

    def is_linear(self) -> bool:
        """Single slope across all of [0,1]; the slopes never increase, so
        the first and the last piece decide."""
        ks, vs = self._int_knots, self._int_values
        return ((vs[1] - vs[0]) * (ks[-1] - ks[-2])
                == (vs[-1] - vs[-2]) * (ks[1] - ks[0]))


@dataclass(frozen=True)
class IntegralCheckResult:
    value: Rat
    nonneg: bool
    equality: bool


@dataclass(frozen=True)
class BrunnMinkowskiResult:
    """The exact Vol(K + L), and whether Brunn-Minkowski holds with equality;
    ``ok``, that it holds, is always True, since ``bm_check`` raises
    otherwise."""

    volume: Rat
    equality: bool
    ok: bool


def godbersen_integral(f: PLConcave, m: int) -> Rat:
    """Exact value of integral_0^1 (r - 1/(m+1)) f^{m-1}(r) dr for m >= 2:
    the closed-form power sums S0 and S1 of the module docstring on f's
    integer knots and values over their common denominator D, over
    m (m+1) D^(m+1).  Each piece costs a fixed number of integer operations,
    whatever m is."""
    if type(m) is not int or m < 2:
        raise InvalidM(f"exponent must be an integer >= 2, got {m}")
    ks, vs, den = f._int_knots, f._int_values, f._int_scale
    total = 0
    for k1, k2, v1, v2 in zip(ks, ks[1:], vs, vs[1:]):
        h = k2 - k1
        d = v2 - v1
        if d:
            top = v2 ** m
            rise = top - v1 ** m
            s0, s1 = rise // d, (m * top * d - v2 * rise) // (d * d)
        else:
            low = v1 ** (m - 1)
            s0, s1 = m * low, m * (m - 1) // 2 * low
        total += h * (((m + 1) * k1 - den + h) * s0 + h * s1)
    return Fraction(total, m * (m + 1) * den ** (m + 1))


def godbersen_integral_check(f: PLConcave, m: int) -> IntegralCheckResult:
    """Value, nonnegativity and the exact equality characterization.

    Equality must coincide with (f(1) = 0 and f linear); either a negative
    value or a mismatch of the characterization indicates a bug and raises.
    The zero function is linear with f(1) = 0 and counts as characterized.
    """
    value = godbersen_integral(f, m)
    # decided on the numerator: a Fraction keeps its denominator positive
    if value.numerator < 0:
        raise LemmaViolation(f"integral {value} < 0 for a concave input")
    equality = not value.numerator
    characterized = f._int_values[-1] == 0 and f.is_linear()
    if equality != characterized:
        raise LemmaViolation(
            f"equality={equality} but characterization={characterized}")
    return IntegralCheckResult(value, True, equality)


def random_concave(rng: random.Random) -> PLConcave:
    """Seeded random nonnegative concave PL function on [0,1].

    Recipe: sample up to ``MAX_EXTRA_KNOTS`` interior knots k / 33, sample
    one slope p / q per interval (q up to ``DENOMINATOR_BOUND``), sort the
    slopes in decreasing order, integrate to values, then shift so the
    minimum value is exactly 0.  The draws are held as integers, knots over
    33 and slopes over lcm(1..``DENOMINATOR_BOUND``), and integrated in
    integers, so no Fraction is made.
    """
    q = DENOMINATOR_BOUND * 4 + 1
    big = lcm(*range(1, DENOMINATOR_BOUND + 1))
    extra = rng.randint(0, MAX_EXTRA_KNOTS)
    knots = sorted({0, q} | {rng.randint(1, q - 1) for _ in range(extra)})
    slopes = sorted(
        (rng.randint(-24, 24) * (big // rng.randint(1, DENOMINATOR_BOUND))
         for _ in range(len(knots) - 1)),
        reverse=True,
    )
    values = [0]
    for k1, k2, s in zip(knots, knots[1:], slopes):
        values.append(values[-1] + s * (k2 - k1))
    low = min(values)
    return PLConcave._from_ints([k * big for k in knots],
                                [v - low for v in values], q * big)


def slice_root_concavity(K: Polytope, w) -> bool:
    """Whether the (n-1)-st root of the section profile along w is concave,
    decided exactly for every n >= 2 (Brunn's principle says it always is)."""
    return section_profile(K, w).root_concave()


def bm_check(K: Polytope, L: Polytope) -> BrunnMinkowskiResult:
    """Vol(K+L)^(1/n) >= Vol(K)^(1/n) + Vol(L)^(1/n), decided exactly; equality
    holds exactly for homothets.

    The profile m_j = V(K[n-j], L[j]), which ``mv_profile`` takes from the
    Cayley fan and checks as it goes, runs from m_0 = Vol K to m_n = Vol L and
    gives Vol(K + L) = sum_j C(n,j) m_j.  It is log-concave, so
    m_j^n >= m_0^(n-j) m_n^j for every j (Minkowski's inequalities): each
    term is at least C(n,j) Vol(K)^((n-j)/n) Vol(L)^(j/n), and those bounds
    sum to the right-hand side to the n-th power.  ``equality`` is that every
    comparison is tight, which is the case iff L is a homothet of K
    (Schneider, *Convex Bodies*, ch. 7).  The comparisons follow from the
    log-concavity that ``mv_profile`` asserts (each log m_j lies above its
    chord), so a failing one is a bug and raises TheoremViolation; ``ok``
    is kept in the result and is always True.
    """
    profile = mv_profile(K, L)  # raises DimensionMismatch on unequal dims
    n, raw = profile.n, profile.raw
    total = Fraction(sum(comb(n, j) * r for j, r in enumerate(raw)), profile.unit)
    # m_j = raw_j / unit and both sides have degree n, so unit cancels
    sides = [(r ** n, raw[0] ** (n - j) * raw[n] ** j) for j, r in enumerate(raw)]
    if any(a < b for a, b in sides):
        raise TheoremViolation("a Minkowski inequality m_j^n >= m_0^(n-j) m_n^j failed")
    return BrunnMinkowskiResult(total, all(a == b for a, b in sides), True)


def bridge_inequality(K: Polytope, w) -> Rat:
    """The profile-form inequality behind the inclusion proof.

    For the centered body with support [lo, hi] and wid = hi - lo, the
    normalized section root f(r) = s(lo + r wid)^(1/(n-1)) turns the moment
    identity into integral_0^1 (r - 1/(n+1)) f^{n-1}(r) dr >= 0.  With
    t = lo + r wid that is (integral t s - (lo + wid/(n+1)) integral s) / wid^2,
    exact and root-free from the profile's own moments.  Returns the exact
    integral (nonnegative for centered bodies).
    """
    prof = section_profile(center_at_centroid(K), w)
    lo, hi = prof.support_interval()
    wid = hi - lo
    return (prof.moment() - (lo + wid / (K.dim + 1)) * prof.integral()) / wid ** 2
