"""Halfspace systems, exact feasibility, and the anchor-point construction.

For a polytope K with facet normals u, the anchor system collects the
halfspaces  a . u <= n/(n+1) h_K(u) - 1/(n+1) h_K(-u).  Any point of the
intersection certifies the support inequality h_{-K+a}(u) <= n h_{K-a}(u) at
every facet normal, which is the exact input the first-mixed-volume bound
needs.  The centroid c always lies in it: at a = c the row for u reads
h_{K0}(-u) <= n h_{K0}(u) for the centered body K0 = K - c, which is the
inclusion -K0 in nK0 that ``tightness_profile`` checks row by row.  So the
anchor point is that witness, checked, never searched for.  The region is the
single point {c} exactly when the rows tight at c positively span R^n, and
that is decided by counting them: only a simplex has n+1 tight rows.

A ``HalfSpace`` is the integer pair (normal, rhs) that the kernel reads.
A rational row is scaled once, when it is built, normal and rhs together by
their least positive common multiplier (``scale_to_integers``), which
changes no Farkas sign and no feasible point; an integer row is kept as
given, and ``ak_system`` builds its rows in integers.  Fractions appear only
in a rational row as given and in the witness that ``feasibility`` reads
back.

Feasibility has one entry, ``_feasible_rows``, which takes those integer
rows to the double description kernel ``dd._cone_rays``, the one that
also finds every facet: the system is feasible iff its homogenized cone has
a ray off the hyperplane at infinity, and such a ray is a vertex of the
region.  That vertex is checked against every row in integers and returned
as integers, so a feasible verdict always rests on a checked point.
``feasibility`` and the Helly audit pass it their rows as they are, and only
``feasibility`` makes the vertex a Fraction witness.

Helly's theorem says a finite system in R^n is infeasible iff some
subsystem of at most n+1 rows is.  A feasible system needs no search: its
checked vertex lies in every subsystem.  An infeasible one hands over its
witness too: a deletion filter (Chinneck & Dravnieks 1991) drops each row
whose removal leaves the rest infeasible, one ``_feasible_rows`` run per
row, and what is left is an irreducible infeasible subsystem (IIS), at most
n+1 rows by Helly.  An IIS Aa <= b is checked by its Farkas certificate
(Schrijver, section 7.3): its left kernel {y : y A = 0} is one line (Gleeson
& Ryan 1990), read off one Bareiss pass over [A | I], and the rows are
infeasible iff a spanning vector lam or -lam is componentwise >= 0 with that
sign giving lam . b < 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    TheoremViolation,
    ZeroDirection,
)
from .dd import _cone_rays
from .geometry import Polytope, _idot
from .inclusion import TightnessProfile, tightness_profile
from .linalg import _echelon, _with_identity, primitive, scale_to_integers
from .rationals import Point


class _Row(NamedTuple):
    normal: tuple[int, ...]
    rhs: int


class HalfSpace(_Row):
    """Closed halfspace {a : a . normal <= rhs}, held as one integer row.

    A row with an entry that is not an int (a Fraction or a rational string;
    a float is refused) is scaled to integers, normal and rhs together, by
    their least positive common multiplier: ((1/2, 1/3), 5/4) is held as
    ((6, 4), 15).  An all-int row is kept as given.  The normal is
    unnormalized and must be nonzero.  A HalfSpace unpacks as the pair
    (normal, rhs).
    """

    __slots__ = ()

    def __new__(cls, normal, rhs):
        (row,), _ = scale_to_integers([(*normal, rhs)])
        if not any(row[:-1]):
            raise ZeroDirection("halfspace normal must be nonzero")
        return super().__new__(cls, row[:-1], row[-1])


@dataclass(frozen=True)
class System:
    """Finite conjunction of halfspaces in a fixed ambient dimension."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        if not self.halfspaces:
            raise ValueError("a system needs at least one halfspace")
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise DimensionMismatch("halfspace normal of wrong length")


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Point | None
    unique: bool


def make_system(dim: int, rows) -> System:
    """Rows are (normal, rhs) pairs with rational entries, each read by
    ``HalfSpace``; ``System`` then checks them, so a normal of another length
    than ``dim`` raises DimensionMismatch."""
    return System(dim, tuple(HalfSpace(w, b) for w, b in rows))


def feasibility(system: System) -> FeasibilityResult:
    """Exact feasibility of a ``System``, with a vertex of the region as
    witness: its rows decided by ``_feasible_rows``, and the integer vertex
    read back as Fractions."""
    found = _feasible_rows(system.halfspaces, system.dim)
    if found is None:
        return FeasibilityResult(False, None, False)
    nums, t, unique = found
    return FeasibilityResult(True, tuple(Fraction(x, t) for x in nums), unique)


def _feasible_rows(rows: Sequence[_Row], n: int) -> tuple[list[int], int, bool] | None:
    """Feasibility of integer rows (w, b), each meaning w . x <= b for x in
    R^n, by the double description kernel ``_cone_rays``.

    Only the pivot columns of W (the normals as a matrix) are kept: each
    other column is a combination of them, so with the other variables set
    to 0, W x still takes every value it takes on R^n.  The homogenized cone
    {(x, t) : w . x <= b t, t >= 0} on the pivot columns is pointed, since W
    has full column rank there, and its extreme rays with t > 0 are the
    vertices (x / t, 1) of the region, those with t = 0 its extreme
    directions.  So the system is feasible iff some ray has t > 0, and the
    region is a single point iff rank W = n and that ray is the only one.
    An infeasible system gives None, a feasible one (x, t, unique): the
    first such vertex as the integers x / t, x 0 off the pivot columns,
    checked as w . x <= b t on every row; a failure is a kernel bug and
    raises TheoremViolation.  A row with w = 0 becomes a multiple of the row
    t >= 0 and needs no filter.  Each cone row is divided by the gcd of its
    entries, which changes no ray, so a row repeated at any positive scale
    goes to the kernel once, whose size guard counts the rows it is given.
    """
    _, piv, _ = _echelon([w for w, _ in rows])
    cone = list(dict.fromkeys(primitive(tuple(w[c] for c in piv) + (-b,))
                              for w, b in rows))
    rays = [ray for ray, _ in _cone_rays(cone + [(0,) * len(piv) + (-1,)])]
    ray = next((r for r in rays if r[-1] > 0), None)
    if ray is None:
        return None
    nums = [0] * n
    for c, x in zip(piv, ray):
        nums[c] = x
    t = ray[-1]
    if any(_idot(w, nums) > b * t for w, b in rows):
        raise TheoremViolation("feasibility vertex violates a row")
    return nums, t, len(piv) == n and len(rays) == 1


def ak_system(K: Polytope) -> System:
    """One halfspace per facet normal u of K:
    a . u <= n/(n+1) h_K(u) - 1/(n+1) h_K(-u).

    On K's lattice of scale m that rhs is N / D, with N = n off + low and
    D = m (n+1), so the row is held in lowest terms as the integer row
    ((D/g) u, N/g) for g = gcd(N, D)."""
    n = K.dim
    den = K._int_scale * (n + 1)
    rows = []
    for f in K.facets:
        # h_K(-u) = -low / m for the least value low of u on the lattice points
        low = min(_idot(f.normal, p) for p in K._int_vertices)
        num = n * f._offset_num + low
        g = gcd(num, den)
        rows.append(HalfSpace(tuple(den // g * c for c in f.normal), num // g))
    return System(n, tuple(rows))


def anchor_unique(profile: TightnessProfile) -> bool:
    """True iff the anchor region is the single point {c}.

    The region is a polyhedron containing c, so it is {c} iff no d != 0 has
    u . d <= 0 on every row tight at c, i.e. iff the tight normals positively
    span R^n.  That needs at least n+1 of them, and a count decides it.
    ``tightness_profile`` has checked that a row is tight exactly when its
    facet misses one vertex.  If k facets each miss exactly one vertex,
    those vertices are distinct (two facets holding the same V-1 vertices
    are one facet).  Their common face then has V-k vertices and dimension
    n-k, since each facet in turn is a pyramid over its intersection with
    the next.  A face of dimension at most 1 has one vertex more than its
    dimension, so k >= n-1 forces V = n+1.  So n+1 or more tight rows mean
    a simplex, whose n+1 rows are all tight and positively span R^n (their
    normals, weighted by the facet measures, sum to 0), and a body that is
    not a simplex has at most n-2 tight rows.  The double description run
    on the tight rows is the tests' oracle for this count.
    """
    return profile.tight_count == len(profile.entries[0].normal) + 1


def ak_feasibility(K: Polytope) -> FeasibilityResult:
    """The centroid as anchor witness, with exact uniqueness.

    The witness is checked by the exact row comparison of
    ``tightness_profile``, which raises TheoremViolation if the support
    inequality h_{-K}(u) + (n+1) c . u <= n h_K(u) fails at any facet normal;
    that would be a bug, never a property of the input body.
    """
    return FeasibilityResult(True, K.centroid, anchor_unique(tightness_profile(K)))


def _farkas_infeasible(rows: Sequence[_Row], subset: tuple[int, ...]) -> bool | None:
    """Decide the integer rows ``rows[i]``, i in ``subset``, of a . w <= b
    in R^n by their Farkas certificate.

    The Bareiss echelon of [A | I] is L [A | I] for an invertible L, so its
    rows whose A part is zero have I parts spanning the left kernel of A.
    True if infeasible, False if feasible, None if that kernel has dimension
    2 or more (no single certificate; for n+1 rows, rank A < n).  No kernel
    means independent rows, which are feasible.  One spanning vector lam
    makes the rows infeasible iff some y = t lam >= 0 has y . b < 0, so
    never when lam has entries of both signs.
    """
    n = len(rows[subset[0]][0])
    echelon, _, _ = _echelon(_with_identity([rows[i][0] for i in subset]))
    kernel = [row[n:] for row in echelon if not any(row[:n])]
    if len(kernel) != 1:
        return None if kernel else False
    (lam,) = kernel
    if min(lam) < 0 < max(lam):
        return False
    lam_b = sum(c * rows[i][1] for c, i in zip(lam, subset))
    return lam_b < 0 if max(lam) > 0 else lam_b > 0


def helly_audit(system: System) -> bool:
    """True iff every subsystem of at most dim+1 halfspaces is feasible.

    By Helly's theorem that is the full system's feasibility, whatever its
    row count, and ``_feasible_rows`` decides the full system on its integer
    rows as they are.  A feasible system ends there: its checked vertex lies
    in every subsystem.  An infeasible one is cut down by a deletion filter,
    one ``_feasible_rows`` run per row, to an irreducible infeasible
    subsystem.  Helly's theorem bounds it by dim+1 rows and
    ``_farkas_infeasible`` must certify it; either failing raises.
    """
    n = system.dim
    rows = system.halfspaces
    if _feasible_rows(rows, n) is not None:
        return True
    kept = list(range(len(rows)))
    for i in range(len(rows)):
        rest = [j for j in kept if j != i]
        if _feasible_rows([rows[j] for j in rest], n) is None:
            kept = rest
    if len(kept) > n + 1:
        raise TheoremViolation(
            f"irreducible infeasible subsystem of {len(kept)} rows in R^{n}")
    if not _farkas_infeasible(rows, tuple(kept)):
        raise TheoremViolation("no Farkas certificate for the infeasible subsystem")
    return False
