"""Mixed volumes of polytope pairs and the Godbersen inequality report.

Two independent routes are kept deliberately separate: the first mixed volume
comes from the facet formula

    V(K[1], T[n-1]) = (1/n) * sum over facets F of T of h_K(w_F) * mu_F,

while the full coefficient profile comes from the fan of the Cayley polytope
C = conv(K x {0} u L x {1}) (``fan._cayley_mixed_volumes``), whose slice at
height l is (1-l)K + lL (the Cayley trick; Huber, Rambau & Santos, J. Eur.
Math. Soc. 2, 2000).  A fan simplex with j + 1 vertices at the L end
contributes only to m_j, so each coefficient is one sum of integer
determinants, with no Minkowski sum and no interpolation.  The profile's
second coefficient must reproduce the facet formula exactly, and its ends
the volumes of K and L; those cross-checks run on every call.

Three more exact identities are asserted on every profile for free: it is
log-concave, m_j^2 >= m_{j-1} m_{j+1} (Aleksandrov-Fenchel; Schneider, Convex
Bodies, 7.3); for the pair (K, -K) it is palindromic, m_j = m_{n-j}; and its
binomial sum Vol(K - K) obeys Rogers-Shephard, at most C(2n, n) Vol K with
equality exactly for simplices (Rogers & Shephard 1957).  Each coefficient
sums fan simplices of one type, so the ends and the palindrome compare
simplices of different types with each other.

A profile is held as integers: the fan's determinant sums raw_j over one
positive unit, m_j = raw_j / unit, reduced by their gcd.  Every check above
runs on that form, m_1 against the facet formula and Rogers-Shephard against
the body's fan volumes cross-multiplied, so building a profile makes no
Fraction; the coefficients ``coeffs`` are a view, made when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm

from .errors import DimensionMismatch, TheoremViolation
from .fan import _cayley_mixed_volumes
from .geometry import Polytope, _idot, reflect
from .rationals import Rat


@dataclass(frozen=True)
class MixedVolumeProfile:
    """Coefficients m_j = V(K[n-j], L[j]) for j = 0..n, so
    Vol(K + tL) = sum_j C(n,j) m_j t^j.

    The profile is held as integers, m_j = ``raw[j]`` / ``unit`` over the
    positive ``unit``, reduced by their gcd at construction, so equal
    profiles compare equal.  ``coeffs`` is the Fraction view, made when first
    read."""

    n: int
    raw: tuple[int, ...]
    unit: int

    def __post_init__(self):
        if len(self.raw) != self.n + 1 or self.unit <= 0:
            raise ValueError("mixed volume profile needs n + 1 entries over a positive unit")
        g = gcd(self.unit, *self.raw)
        object.__setattr__(self, "raw", tuple(r // g for r in self.raw))
        object.__setattr__(self, "unit", self.unit // g)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.unit) for r in self.raw)


@dataclass(frozen=True)
class GodbersenEntry:
    """One j-row of the report; ``mixed`` is V(K[j], -K[n-j])."""

    j: int
    mixed: Rat
    binom: int
    ratio: Rat
    bound_nmin: Rat
    nmin_ok: bool
    artstein_ok: bool


@dataclass(frozen=True)
class GodbersenReport:
    n: int
    volume: Rat
    entries: tuple[GodbersenEntry, ...]
    is_simplex: bool

    def entry(self, j: int) -> GodbersenEntry:
        for e in self.entries:
            if e.j == j:
                return e
        raise KeyError(j)


def mv_first(K: Polytope, T: Polytope) -> Rat:
    """V(K[1], T[n-1]) by the facet formula, as one integer sum: over the
    lcm D of the measure denominators, h_K(w) mu is max(w . p) (mu_num D /
    mu_den) / (D m) for K's lattice points p / m."""
    if K.dim != T.dim:
        raise DimensionMismatch("mixed volume needs equal dimensions")
    den = lcm(*(f._measure_den for f in T.facets))
    pts = K._int_vertices
    total = sum(max(_idot(f.normal, p) for p in pts) * f._measure_num
                * (den // f._measure_den) for f in T.facets)
    return Fraction(total, den * K._int_scale * T.dim)


def mv_profile(K: Polytope, L: Polytope) -> MixedVolumeProfile:
    """All coefficients V(K[n-j], L[j]) from the Cayley polytope's fan.

    m_j is n + 1 times the volume of the fan simplices of C = conv(K x {0}
    u L x {1}) with j + 1 vertices at the L end.  Nonnegativity,
    log-concavity, m_0 = Vol K, m_n = Vol L and m_1 against the facet
    formula are asserted, all on the fan's integer sums raw_j = m_j unit:
    raw_j^2 >= raw_(j-1) raw_(j+1), an end against a body's fan volumes over
    n! s^n, and m_1 against the facet formula's p / q as raw_1 q = p unit,
    cross-multiplied.  So the profile makes no Fraction; the facet formula
    makes its one.
    """
    n = K.dim
    if L.dim != n:
        raise DimensionMismatch("mixed volume needs equal dimensions")
    profile = MixedVolumeProfile(n, *_cayley_mixed_volumes(K, L))
    raw, unit = profile.raw, profile.unit
    for j, r in enumerate(raw):
        if r < 0:
            raise TheoremViolation(f"negative mixed volume m_{j} = {Fraction(r, unit)}")
    for j in range(1, n):
        if raw[j] ** 2 < raw[j - 1] * raw[j + 1]:
            raise TheoremViolation(f"profile is not log-concave at m_{j}")
    for r, body, end in ((raw[0], K, "m_0 disagrees with Vol(K)"),
                         (raw[n], L, "m_n disagrees with Vol(L)")):
        if r * factorial(n) * body._int_scale ** n != sum(body._fan_volumes) * unit:
            raise TheoremViolation(f"profile endpoint {end}")
    first = mv_first(L, K)
    if raw[1] * first.denominator != first.numerator * unit:
        raise TheoremViolation(
            f"profile coefficient m_1 = {profile.coeffs[1]} disagrees with the "
            f"facet formula value {first}")
    return profile


def _nmin_ok(j: int, n: int, mixed: Rat, vol: Rat) -> bool:
    """mixed <= n^min(j, n-j) vol, which -K0 in nK0 gives by the monotonicity
    and homogeneity of mixed volumes."""
    return mixed <= n ** min(j, n - j) * vol


def _artstein_ok(j: int, n: int, mixed: Rat, vol: Rat) -> bool:
    """lambda^j (1-lambda)^(n-j) mixed <= vol for every lambda in [0, 1].

    The left side peaks at lambda = j / n, so the one integer comparison
    j^j (n-j)^(n-j) mixed <= n^n vol, cross-multiplied, decides it."""
    return (j ** j * (n - j) ** (n - j) * mixed.numerator * vol.denominator
            <= n ** n * vol.numerator * mixed.denominator)


def godbersen_report(K: Polytope) -> GodbersenReport:
    """Per-j Godbersen data for the pair (K, -K).

    ratio = V(K[j], -K[n-j]) / (C(n,j) Vol K).  For j = 1 and j = n-1 the
    ratio is at most 1, with equality exactly when K is a simplex (proven);
    a violation raises.  Middle j are reported but never asserted (open
    conjecture).  Each row also asserts two proven bounds, reported as the
    always-true flags ``nmin_ok`` and ``artstein_ok``: mixed <= n^min(j, n-j)
    Vol K, from -K0 in nK0, and lambda^j (1-lambda)^(n-j) mixed <= Vol K for
    every lambda in [0, 1] (Artstein-Avidan, Einhorn, Florentin & Ostrover
    2015), decided exactly at its peak lambda = j / n.  The profile must be
    palindromic and meet Rogers-Shephard, with equality exactly when K is a
    simplex, decided on integers; a failure raises.
    """
    n = K.dim
    vol = K.volume
    is_simplex = len(K._int_vertices) == n + 1
    profile = mv_profile(K, reflect(K))
    raw = profile.raw
    if raw != raw[::-1]:
        raise TheoremViolation("the (K, -K) profile is not palindromic")
    # Vol(K - K) = sum_j C(n,j) raw_j / unit against C(2n,n) sum fan / (n! m^n),
    # cross-multiplied
    difference = sum(comb(n, j) * r for j, r in enumerate(raw))
    lhs = difference * factorial(n) * K._int_scale ** n
    rhs = comb(2 * n, n) * sum(K._fan_volumes) * profile.unit
    if lhs > rhs or (lhs == rhs) != is_simplex:
        raise TheoremViolation(
            f"Vol(K - K) = {Fraction(difference, profile.unit)} against the "
            f"Rogers-Shephard bound {comb(2 * n, n) * vol}: equality must hold "
            f"exactly for simplices")
    entries = []
    for j in range(1, n):
        mixed = profile.coeffs[n - j]
        binom = comb(n, j)
        if mixed <= 0:
            raise TheoremViolation(
                f"mixed volume at j={j} is {mixed}; must be positive for "
                f"full-dimensional bodies")
        ratio = mixed / (binom * vol)
        if j in (1, n - 1) and ratio > 1:
            raise TheoremViolation(
                f"ratio {ratio} > 1 at j={j}; the proven case failed")
        if j in (1, n - 1) and (ratio == 1) != is_simplex:
            raise TheoremViolation(
                f"ratio {ratio} at j={j}: it must be 1 exactly for simplices")
        for name, bound_ok in (("n^min(j, n-j)", _nmin_ok), ("Artstein-Avidan", _artstein_ok)):
            if not bound_ok(j, n, mixed, vol):
                raise TheoremViolation(f"the {name} bound fails at j={j}: {mixed}")
        entries.append(GodbersenEntry(j, mixed, binom, ratio,
                                      Fraction(n ** min(j, n - j)), True, True))
    return GodbersenReport(n, vol, tuple(entries), is_simplex)
