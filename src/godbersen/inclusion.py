"""Centroid-centered inclusion -K in nK, tightness per facet normal, and the
directional moment identity.

With the centroid at the origin the reflected body sits inside the n-fold
dilate; per facet normal u the comparison h_{-K}(u) <= n h_K(u) is evaluated
at the unnormalized integer normals (both sides are 1-homogeneous, so the
scaling drops out) and "tight" means exact rational equality.  A row is tight
exactly when K is a pyramid over the row's facet (the equality case of the
Minkowski-Radon inequality; Grunbaum, "Measures of symmetry for convex sets",
1963), and for a polytope that is one integer comparison: the facet holds
every vertex but one.  Each row is checked against that count, so "every row
tight exactly on a simplex" follows and needs no check of its own.  The
centering shift is the centroid the body holds in lowest terms, c_num / c_den,
so it is taken as integers and never read back from Fractions.  The moment of
the section profile of the centered body vanishes exactly in every direction;
it is computed by exact piecewise-polynomial integration, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolation
from .geometry import Polytope, _homothety, _idot
from .rationals import Rat
from .sections import section_profile


@dataclass(frozen=True)
class TightnessEntry:
    normal: tuple[int, ...]
    lhs: Rat
    rhs: Rat
    tight: bool


@dataclass(frozen=True)
class TightnessProfile:
    """Per-facet comparison h_{-K0}(u) vs n * h_{K0}(u) for the centered body."""

    entries: tuple[TightnessEntry, ...]

    @property
    def tight_count(self) -> int:
        return sum(1 for e in self.entries if e.tight)


def center_at_centroid(K: Polytope) -> Polytope:
    """Translate of K with centroid exactly at the origin."""
    den = K._centroid_den
    return _homothety(K, den, tuple(-c for c in K._centroid_num), den)


def tightness_profile(K: Polytope) -> TightnessProfile:
    """Exact lhs/rhs/tight data at every facet normal of the centered body."""
    return _centered_tightness(center_at_centroid(K))


def _centered_tightness(k0: Polytope) -> TightnessProfile:
    """``tightness_profile`` of a body already centered at its centroid.

    A failed row comparison raises TheoremViolation, and so does a row that
    is tight on a facet missing more than one vertex, or not tight on a
    facet missing exactly one: h_{K0}(-u) = n h_{K0}(u) exactly when K0 is a
    pyramid over the facet with normal u.
    """
    n = k0.dim
    m = k0._int_scale
    base = len(k0._int_vertices) - 1  # a pyramid's base: every vertex but the apex
    entries = []
    for f in k0.facets:
        # both sides over the lattice scale m: h_{K0}(-u) = -low / m
        lhs = -min(_idot(f.normal, p) for p in k0._int_vertices)
        rhs = n * f._offset_num
        if lhs > rhs:
            raise TheoremViolation("support comparison failed on a facet normal")
        tight = lhs == rhs
        if tight != (len(f.vertex_ids) == base):
            raise TheoremViolation(f"row {f.normal}: tight must mean its facet misses "
                                   "exactly one vertex, and only then")
        entries.append(TightnessEntry(f.normal, Fraction(lhs, m), Fraction(rhs, m), tight))
    return TightnessProfile(tuple(entries))


def directional_moment(K: Polytope, w, center: bool = True) -> Rat:
    """Exact integral of t * s(t) over the section profile along w.

    By default the body is centered at its centroid first, which makes the
    moment vanish exactly; with center=False the raw moment of K as given is
    returned (it equals Vol(K) times the centroid coordinate along w).
    """
    body = center_at_centroid(K) if center else K
    return section_profile(body, w).moment()
