"""Exact rational polytopes and their primitive operations.

Everything here is exact and held as integers: a body's vertices are
integer lattice points over one common denominator (its scale), facet
normals are unnormalized coprime integer vectors, and unit normals are never
formed.  In place of the Euclidean facet area we carry the scaled measure
``mu = area / |normal|``, which is rational for rational polytopes and is
exactly the weight that turns ``support * mu`` sums into surface-area-measure
integrals; it is kept as an integer numerator and denominator, each facet
offset as its numerator on the body's lattice, and the centroid as integer
numerators over one denominator.  The Fraction vertices, volume, centroid,
offsets and measures are views, made when first read and then kept, so
building and transforming a body makes no Fraction.

Every facet comes from one kernel, ``_cone_rays``: the double description
method (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996)
on integer rows.  The facets w . x <= b of conv(P) are the extreme rays
(w, -b) of the cone {y : (p, 1) . y <= 0 for p in P}, and the points on a
facet are the rows tight on its ray.  The method is complete by
construction: it keeps the extreme rays of the cone cut by the rows seen so
far, and each new row adds the rays of adjacent pairs it separates.  Two
rays that share k - 2 of the rows (k their length) are adjacent outright
when either is tight on exactly k - 1 rows; only pairs of rays that are
each tight on more are scanned for a third ray.  A hull runs it on the
input points; the Cayley polytope conv(K x {0} u L x {1}) runs it on its
lifted vertices, and its fan gives the mixed volumes of K and L, so no sum
is built.

Everything else follows from the vertex-facet incidence: the smallest face
through some points is the intersection of the facets containing them
(Ziegler, Lectures on Polytopes, 2.2; Kaibel and Pfetsch, Comput. Geom. 23,
2002).  So a point is a vertex iff its facets share no other point, and the
facets of a face are its maximal proper intersections with facets.  Each
facet's pulling triangulation, coned from a vertex off it, gives the facet's
measure (cone volume = measure * height / n); the cones from vertex 0 give
the fan, volume and centroid.  The fan kernel, ``_pulling_fan``, recurses on
the vertex bitmasks of the faces and carries one fraction-free elimination
down the recursion: each face that is not a simplex reduces only its lowest
vertex row against its ancestors' pivot rows (Bareiss's step) and passes it
down as a pivot row; a face that is a simplex reduces all its rows against
them and finishes them in one ``linalg._echelon`` pass from the chain's last
pivot, whose last pivot is the simplex's determinant up to sign.  No
determinant is taken on its own.
An invertible affine map keeps the incidence, so ``transform`` relabels its
source's facets and fan instead of rebuilding them.  A homothety x -> lam x
+ t keeps more: each normal up to the sign of lam, and the order of the
vertices and facets, reversed when lam < 0.  So ``translate``, ``scale`` and
``reflect`` go through ``_homothety``, which takes no adjugate and sorts
nothing; ``transform`` maps by a general A.  ``_homothety`` takes lam and t
as integers over one denominator, so ``translate`` and ``scale`` read their
input first, and centering at the centroid passes the integers the body
holds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, factorial, gcd, lcm
from operator import and_, mul

from .errors import (
    CombinatorialBlowup,
    DegenerateInput,
    DimensionMismatch,
    SingularMatrix,
    ZeroDirection,
)
from .linalg import (
    _back_substitute,
    _echelon,
    _with_identity,
    adjugate,
    primitive,
    scale_to_integers,
)
from .rationals import Point, Rat


@dataclass(eq=False)
class Facet:
    """One facet: outward integer normal, offset, scaled measure, vertex ids.

    The facet lies in {x . normal = offset}; every polytope vertex satisfies
    x . normal <= offset.  ``measure`` is the Euclidean (n-1)-area divided by
    the Euclidean length of ``normal``.  Both are kept as integers: the offset
    as its numerator on the body's lattice of scale ``_scale``, the measure as
    a numerator and a positive denominator.  ``offset`` and ``measure`` are
    Fraction views, made when first read.
    """

    normal: tuple[int, ...]
    _offset_num: int
    _scale: int
    _measure_num: int
    _measure_den: int
    vertex_ids: tuple[int, ...]

    @cached_property
    def offset(self) -> Fraction:
        return Fraction(self._offset_num, self._scale)

    @cached_property
    def measure(self) -> Fraction:
        return Fraction(self._measure_num, self._measure_den)

    def __repr__(self):
        return f"Facet(normal={self.normal}, offset={self.offset}, measure={self.measure})"

    def __eq__(self, other):
        return (isinstance(other, Facet)
                and self.normal == other.normal
                and self._offset_num * other._scale == other._offset_num * self._scale)

    def __hash__(self):
        return hash((self.normal, self.offset))


@dataclass(eq=False)
class Polytope:
    """Full-dimensional bounded rational polytope.

    Immutable after construction.  The body is held as integer data: the
    vertices are the lattice points ``_int_vertices`` standing for c /
    ``_int_scale`` (the smallest such scale), sorted lexicographically and
    irredundant; facets are sorted lexicographically by normal.  An exact
    simplicial decomposition is precomputed so that downstream machinery
    (sections, mixed volumes) can reuse it: ``_fan_volumes[i]`` is the
    integer |det| v of ``_simplices[i]`` on the lattice points, so the
    simplex has volume v / (n! ``_int_scale``^n).  The centroid is
    ``_centroid_num`` over the positive ``_centroid_den``.

    ``vertices``, ``volume`` and ``centroid`` are Fraction views, made when
    first read and then kept.
    """

    dim: int
    _int_vertices: list[tuple[int, ...]]
    _int_scale: int
    facets: tuple[Facet, ...]
    _simplices: tuple[tuple[int, ...], ...]
    _fan_volumes: tuple[int, ...]
    _centroid_num: tuple[int, ...]
    _centroid_den: int

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        m = self._int_scale
        return tuple(tuple(Fraction(c, m) for c in p) for p in self._int_vertices)

    @cached_property
    def volume(self) -> Fraction:
        return Fraction(sum(self._fan_volumes), factorial(self.dim) * self._int_scale ** self.dim)

    @cached_property
    def centroid(self) -> Point:
        return tuple(Fraction(c, self._centroid_den) for c in self._centroid_num)

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self._int_vertices)}, "
                f"facets={len(self.facets)}, volume={self.volume})")

    def __eq__(self, other):
        return (isinstance(other, Polytope) and self.dim == other.dim
                and self._int_scale == other._int_scale
                and self._int_vertices == other._int_vertices)

    def __hash__(self):
        return hash((self.dim, self._int_scale, tuple(self._int_vertices)))


def _reduced(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """The integer vector ``num`` over the positive ``den``, in lowest terms
    over one denominator."""
    g = gcd(den, *num)
    return tuple(c // g for c in num), den // g


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


SUBSET_CAP_ENV = "GODBERSEN_SUBSET_CAP"
DEFAULT_SUBSET_CAP = 200_000


def check_subset_cap(total: int, what: str) -> None:
    """Raise CombinatorialBlowup before a hull that may have ``total``
    facets above the cap (``GODBERSEN_SUBSET_CAP``, default 200000)."""
    raw = os.environ.get(SUBSET_CAP_ENV, DEFAULT_SUBSET_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{SUBSET_CAP_ENV} must be an integer, not {raw!r}") from None
    if total > cap:
        raise CombinatorialBlowup(
            f"{what}: {total} possible facets exceed the cap of {cap}; "
            f"raise {SUBSET_CAP_ENV}")


def _max_facets(v: int, n: int) -> int:
    """The most facets a polytope in R^n with v >= n + 1 vertices can have:
    those of the cyclic polytope (McMullen's upper bound theorem, 1970)."""
    return comb(v - (n + 1) // 2, n // 2) + comb(v - n // 2 - 1, (n + 1) // 2 - 1)


def _ids(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _rays_on(z: int, tights: list[int]) -> int:
    """The number of rays, by their tight bitmasks, tight on every row of
    ``z``."""
    return list(map(z.__and__, tights)).count(z)


def _seed_rays(rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """(seed, rays): the first linearly independent rows B of ``rows`` and
    the extreme rays of the simplicial cone {y : B y <= 0}, the j-th tight on
    every seed row but the j-th.

    One Bareiss pass over [R^T | I], R the rows: its pivot columns are the
    seed, and the back-substitution gives the rows of D (B^T)^-1, D = +-det B.
    Row j is D B^-1 e_j, so -sign(D) times it is -|det B| B^-1 e_j, the
    j-th column of -sign(det B) adj(B).  The rows fail to span R^k exactly
    when a pivot falls in the identity block, which raises DegenerateInput:
    for lifted points (p, 1), that the points do not affinely span R^(k-1).
    """
    a, seed, _ = _echelon(_with_identity(list(zip(*rows))))
    if seed[-1] >= len(rows):
        raise DegenerateInput(f"points do not span R^{len(rows[0]) - 1}")
    d, inv = _back_substitute(a, seed, len(rows))
    sign = -1 if d > 0 else 1
    return seed, [primitive([sign * c for c in r]) for r in inv]


def _cone_rays(rows) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : a . y <= 0 for every row a}.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon, "Double description method revisited", 1996) on
    integer rows of length k, which must span R^k: the seed raises
    DegenerateInput if they do not.  Returns (ray, tight) pairs: the ray as a
    primitive integer vector, ``tight`` the bitmask of the rows a with
    a . ray = 0.

    The first linearly independent rows B seed the cone, from one
    elimination (``_seed_rays``): its rays are the columns of
    -sign(det B) adj(B), the j-th tight on every seed row but the j-th.
    Each further row a cuts the cone.  One pass over the rays keeps those
    with a . r <= 0, adding a to the tight rows of those with a . r = 0, and
    indexes the rest by sign; a pair with a . r+ > 0 > a . r- gives the ray
    (a . r+) r- - (a . r-) r+ if the two are adjacent, that is, if their
    common tight rows z number at least k - 2 and no third ray is tight on
    all of them (the combinatorial adjacency test of Fukuda and Prodon).

    The scan for a third ray is skipped when either ray is simple, tight on
    exactly k - 1 rows: then the pair is adjacent (the algebraic test of
    Fukuda and Prodon, rank z = k - 2, comes free).  An extreme ray of the
    pointed current cone has tight rows of rank k - 1, so a simple ray's
    k - 1 rows are independent, and the other ray, a different extreme ray,
    is not tight on all of them.  So z is k - 2 independent rows: |z| = k - 2
    exactly, and z cuts out a 2-dimensional face of the cone, which holds
    both rays.  A 2-dimensional pointed cone has exactly two extreme rays, so
    no third ray is tight on z and the scan would pass.  Only pairs of rays
    tight on k or more rows each, which degenerate inputs make, are scanned.
    """
    k = len(rows[0])
    seed, rays = _seed_rays(rows)
    full = sum(1 << i for i in seed)
    tights = [full ^ (1 << i) for i in seed]
    taken = set(seed)
    low = k - 2  # the fewest common tight rows of an adjacent pair
    for i, a in enumerate(rows):
        if i in taken:
            continue
        bit = 1 << i
        vals = [sum(map(mul, a, r)) for r in rays]
        pos, neg, kept, masks = [], [], [], []
        for j, (s, r, t) in enumerate(zip(vals, rays, tights)):
            if s > 0:
                pos.append(j)
                continue
            if s:
                neg.append(j)
            kept.append(r)
            masks.append(t if s else t | bit)
        for p in pos:
            sp, rp, tp = vals[p], rays[p], tights[p]
            simple = tp.bit_count() == k - 1
            for q in neg:
                z = tp & tights[q]
                if z.bit_count() < low:
                    continue
                # p and q are tight on z themselves
                if not (simple or tights[q].bit_count() == k - 1) and _rays_on(z, tights) > 2:
                    continue
                sq = vals[q]
                kept.append(primitive([sp * x - sq * y for x, y in zip(rays[q], rp)]))
                masks.append(z | bit)
        rays, tights = kept, masks
    return list(zip(rays, tights))


def _hull_facets_int(pts: list[tuple[int, ...]], d: int):
    """Facets of conv(pts) in R^d as (normal, offset, ids of points on it).

    The facet w . x <= b is the extreme ray (w, -b) of the cone
    {y : (p, 1) . y <= 0 for every point p}, and the points on it are the
    rows tight on that ray; the normal is made coprime.  Points that do not
    affinely span R^d raise DegenerateInput.
    """
    facets = []
    for ray, tight in _cone_rays([p + (1,) for p in pts]):
        g = gcd(*ray[:d])
        facets.append((tuple(c // g for c in ray[:d]), -ray[d] // g, _ids(tight)))
    return sorted(facets)


def _chain_reduced(rs, chain) -> tuple[list[list[int]], int]:
    """(the rows rs reduced against the pivot rows ``chain``, its last pivot).

    Each pivot row t_j with pivot column c_j takes a row r to
    (p_j r - r[c_j] t_j) / p_(j-1), exact by Sylvester's identity (Bareiss
    1968), and column c_j then leaves the row.
    """
    prev = 1
    for c, t in chain:
        p = t[c]
        rs = [[(p * x - r[c] * y) // prev for x, y in zip(r, t)] for r in rs]
        for r in rs:
            del r[c]
        prev = p
    return rs, prev


def _pulling_fan(face: int, cands, rows, chain=(), above: int = 0) -> list[tuple[int, int]]:
    """Pulling triangulation of a face coned from an apex, as (simplex, |det|)
    pairs: the bitmask of each simplex's vertices other than the apex, and
    its integer volume on the lattice.

    ``face`` is the bitmask of the face's vertex ids and ``cands`` bitmasks
    whose intersections with it include its facets (the facets' do).  Its
    facets are the inclusion-maximal proper intersections: scanned by
    decreasing size, an intersection is kept when no facet kept so far holds
    it.  The face is coned from its lowest id over the facets that miss it,
    each triangulated with the facets alone as candidates, since every facet
    of a facet g is g n h for another facet h.

    ``rows[i]`` is vertex i minus the apex.  Each level reduces only its
    lowest row against the pivot rows ``chain`` of its ancestors
    (``_chain_reduced``) and adds it to the chain, its pivot column the
    row's first nonzero entry.  A face with as many vertices as its rows
    have entries left is a simplex, and so is a single vertex (on facets
    that close a polytope it has one entry left).  A simplex is its own
    triangulation: all its rows are reduced against the chain and finished
    in one ``_echelon`` pass that continues the elimination from the
    chain's last pivot, so that pass's last pivot is +-det of the simplex.
    ``above`` holds the ancestors' ids.  A simplex whose rows leave a pivot
    short, or a face whose lowest row reduces to zero, raises
    DegenerateInput.
    """
    low = face & -face
    k = face.bit_count()
    if k == len(rows[0]) - len(chain) or face == low:
        a, pivots, _ = _echelon(*_chain_reduced(
            [rows[i] for i in range(face.bit_length()) if face >> i & 1], chain))
        if len(pivots) < k:
            raise DegenerateInput("fan simplex is degenerate")
        return [(above | face, abs(a[-1][pivots[-1]]))]
    r = _chain_reduced([rows[low.bit_length() - 1]], chain)[0][0]
    c = next((j for j, x in enumerate(r) if x), None)
    if c is None:
        raise DegenerateInput("fan simplex is degenerate")
    above |= low
    chain += ((c, r),)
    subs = {face & g for g in cands}
    subs.discard(face)
    facets: list[int] = []
    for g in sorted(subs, key=int.bit_count, reverse=True):
        for h in facets:
            if g & h == g:
                break
        else:
            facets.append(g)
    return [s for g in facets if not g & low
            for s in _pulling_fan(g, facets, rows, chain, above)]


def _relative_rows(pts, apex: int) -> list[tuple[int, ...]]:
    """Every point minus ``pts[apex]``."""
    o = pts[apex]
    return [tuple(a - b for a, b in zip(p, o)) for p in pts]


def _common_lattice(K: Polytope, L: Polytope):
    """(m, ps, qs): the vertices of K and L as integer points c standing for
    c / m, with m = lcm of their lattice scales."""
    m = lcm(K._int_scale, L._int_scale)
    ps = [tuple(c * (m // K._int_scale) for c in p) for p in K._int_vertices]
    qs = [tuple(c * (m // L._int_scale) for c in q) for q in L._int_vertices]
    return m, ps, qs


def _cayley_mixed_volumes(K: Polytope, L: Polytope) -> tuple[tuple[int, ...], int]:
    """(raw, unit) with m_j = V(K[n-j], L[j]) = raw_j / unit for j = 0..n,
    from the fan of the Cayley polytope.

    C = conv(K x {0} u L x {1}) has the points (p, 0) and (q, m) on the
    common lattice m, all of them vertices.  Its facets, K x {0} and
    L x {1} among them, are the extreme rays of the cone over its points
    (``_cone_rays``), each with the bitmask of the points on it.  The fan
    cones vertex 0 over the pulling triangulation of every facet that misses
    it (``_pulling_fan``).  A simplex with j + 1 vertices at the L end cuts
    the slice (1-l)K + lL in a piece of volume proportional to
    (1-l)^(n-j) l^j, so m_j is n + 1 times the volume of the fan's type-j
    simplices: raw_j is the sum of their integer determinants, and unit is
    n! m^(n+1).
    """
    n = K.dim
    m, ps, qs = _common_lattice(K, L)
    vk = len(ps)
    pts = [p + (0,) for p in ps] + [q + (m,) for q in qs]
    faces = [tight for _, tight in _cone_rays([p + (1,) for p in pts])]
    rows = _relative_rows(pts, 0)
    raw = [0] * (n + 1)
    for face in faces:
        if face & 1:
            continue
        for s, v in _pulling_fan(face, faces, rows):
            raw[(s >> vk).bit_count() - 1] += v
    return tuple(raw), factorial(n) * m ** (n + 1)


def _from_lattice(ipts: list[tuple[int, ...]], mult: int, raw_facets) -> Polytope:
    """Polytope of the integer points c / mult, given their hull's facets.

    ``raw_facets`` holds (normal, offset on the lattice, ids of the points on
    the facet).  The points are distinct and include every vertex of their
    hull, so a point is a vertex iff its (at least n) facets share no other
    point; the others are dropped, the facet ids remapped and the lattice
    coarsened to the smallest one holding the vertices.  Facets that leave
    fewer than n + 1 vertices, or a facet with fewer than n, close no
    polytope and raise DegenerateInput.  So do facets that break Minkowski's
    relation, sum_F mu_F w_F = 0 for the scaled measures mu_F (the facets'
    area vectors close up; Schneider, *Convex Bodies*, ch. 8), which is
    checked as one integer sum over the lcm of the measure denominators:
    a facet list missing a facet fails it.  A normal that points inward
    flips its measure with it, which leaves mu_F w_F and the relation as
    they were, so each facet's height above its apex, w . (p_F - apex),
    must be positive.

    Each facet's pulling triangulation (``_pulling_fan``) is coned from
    vertex 0, or from the lowest vertex off the facet when 0 is on it, with
    the points' rows relative to each apex made once.  A cone's integer
    volume over its integer height gives the facet's scaled measure, and the
    cones from vertex 0 are the body's fan.
    """
    n = len(ipts[0])
    through: list[list[int]] = [[] for _ in ipts]
    for _, _, ids in raw_facets:
        face = sum(1 << i for i in ids)
        for i in ids:
            through[i].append(face)
    keep = [i for i, fs in enumerate(through)
            if len(fs) >= n and reduce(and_, fs) == 1 << i]
    new = {old: k for k, old in enumerate(keep)}
    specs = sorted((w, b, tuple(new[i] for i in ids if i in new))
                   for w, b, ids in raw_facets)
    if len(keep) <= n or any(len(vids) < n for _, _, vids in specs):
        raise DegenerateInput("the facets leave fewer than n + 1 vertices, "
                              "or a facet with fewer than n")
    g = gcd(mult, *(c for i in keep for c in ipts[i]))
    ipts = [tuple(c // g for c in ipts[i]) for i in keep]
    mult //= g
    faces = [sum(1 << i for i in vids) for _, _, vids in specs]
    unit = factorial(n - 1) * mult ** (n - 1)
    rows_from: dict[int, list[tuple[int, ...]]] = {}
    facets = []
    fan: list[tuple[int, ...]] = []
    dets: list[int] = []
    for (w, b, vids), face in zip(specs, faces):
        apex = (~face & (face + 1)).bit_length() - 1
        rows = rows_from.get(apex)
        if rows is None:
            rows = rows_from[apex] = _relative_rows(ipts, apex)
        height = _idot(w, rows[vids[0]])
        if height <= 0:
            raise DegenerateInput(f"facet normal {w} does not point outward")
        cones = _pulling_fan(face, faces, rows)
        facets.append(Facet(w, b // g, mult, sum(v for _, v in cones),
                            unit * height, vids))
        if apex == 0:
            fan += [_ids(s | 1) for s, _ in cones]
            dets += [v for _, v in cones]
    big = lcm(*(f._measure_den for f in facets))
    weights = [f._measure_num * (big // f._measure_den) for f in facets]
    if any(sum(u * f.normal[c] for u, f in zip(weights, facets)) for c in range(n)):
        raise DegenerateInput("the facets break Minkowski's relation")
    total = sum(dets)
    if total <= 0:
        raise DegenerateInput("assembled polytope has zero volume")
    centroid = _reduced(
        tuple(sum(d * sum(ipts[i][c] for i in s) for s, d in zip(fan, dets))
              for c in range(n)),
        total * (n + 1) * mult)
    return Polytope(n, ipts, mult, tuple(facets), tuple(fan), tuple(dets), *centroid)


def build_hull(points) -> Polytope:
    """Convex hull of rational points; must affinely span the ambient space.

    Facets come from the double description kernel ``_cone_rays``.  After
    each step its rays are the facets of the hull of the points so far, at
    most ``_max_facets(V, n)`` for V distinct points; a bound above
    ``GODBERSEN_SUBSET_CAP`` raises CombinatorialBlowup before the first
    step.  The bound never exceeds C(V, n).

    Redundant input points are dropped; the result carries the full facet
    structure with outward coprime-integer normals, exact offsets and scaled
    measures, facets ordered lexicographically by normal.
    """
    pts, mult = scale_to_integers(points)
    if not pts:
        raise DegenerateInput("no points given")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    if n < 1:
        raise DegenerateInput("points must have dimension at least 1")
    return _lattice_hull(pts, mult)


def _lattice_hull(points: list[tuple[int, ...]], mult: int) -> Polytope:
    """``build_hull`` of the integer points c / mult, which share one
    dimension n >= 1: the points are deduplicated and sorted (a positive
    common scale keeps their lexicographic order), must number at least
    n + 1, and their bound ``_max_facets`` must pass the cap; the seed of
    ``_cone_rays`` then finds whether they span R^n.  ``_from_lattice``
    coarsens to the smallest lattice, so any common scale gives the same
    body."""
    ipts = sorted(set(points))
    n = len(ipts[0])
    if len(ipts) < n + 1:
        raise DegenerateInput(f"points do not span R^{n}")
    check_subset_cap(_max_facets(len(ipts), n), f"hull of {len(ipts)} points in R^{n}")
    return _from_lattice(ipts, mult, _hull_facets_int(ipts, n))


def support(K: Polytope, w) -> Rat:
    """Support value max{x . w : x in K}; homogeneous of degree 1 in w."""
    (iw,), m = scale_to_integers([w])
    if len(iw) != K.dim:
        raise DimensionMismatch(f"direction has length {len(iw)}, body has dim {K.dim}")
    if not any(iw):
        raise ZeroDirection("support direction must be nonzero")
    return Fraction(max(_idot(iw, p) for p in K._int_vertices), m * K._int_scale)


def transform(K: Polytope, mat=None, shift=None) -> Polytope:
    """Image of K under x -> A x + t for invertible rational A.

    An invertible affine map keeps the vertex-facet incidence, so the image
    carries over K's facets and fan, relabelled by the sorted image vertices,
    its facets sorted by their mapped normals.
    With A = Ai / a and t = ti / a over one positive integer a, the vertex
    p / m maps to (Ai p + m ti) / (a m).  A normal w maps to the coprime part
    u / g of u = sign(det Ai) adj(Ai)^T w, a positive multiple of A^-T w, and
    its scaled measure to mu g / a^(n-1), with the gcd of g and a^(n-1)
    divided out.  The centroid c_num / c_den maps to
    (Ai c_num + c_den ti) / (a c_den).  The image's lattice points are
    (Ai p + m ti) / c, c the gcd of their entries and a m, so a fan simplex's
    integer volume v maps to v |det Ai| / c^n, an exact division.  det Ai
    and adj(Ai) come together from one elimination (``adjugate``), which
    rejects a singular Ai before any other work.  A and t are read by one
    ``scale_to_integers`` call, before their shapes are checked, so integer
    entries make no Fraction.  ``translate``, ``scale`` and ``reflect`` take
    the shorter route of ``_homothety``, which the tests check against this
    one.
    """
    n = K.dim
    if mat is None:
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
    (*ai, ti), a = scale_to_integers([*mat, (0,) * n if shift is None else shift])
    if len(ai) != n or any(len(r) != n for r in ai):
        raise DimensionMismatch("matrix shape does not match the body")
    if len(ti) != n:
        raise DimensionMismatch("translation length does not match the body")
    try:
        d, adj = adjugate(ai)
    except SingularMatrix:
        raise SingularMatrix("transform matrix is singular") from None

    m = K._int_scale
    mapped = [tuple(_idot(r, p) + m * s for r, s in zip(ai, ti)) for p in K._int_vertices]
    common = gcd(a * m, *(c for q in mapped for c in q))
    mult = a * m // common
    order = sorted(range(len(mapped)), key=mapped.__getitem__)
    new = {old: k for k, old in enumerate(order)}
    ipts = [tuple(c // common for c in mapped[i]) for i in order]
    sign = 1 if d > 0 else -1
    cols = list(zip(*adj))
    grow = a ** (n - 1)
    facets = []
    for f in K.facets:
        u = [sign * _idot(col, f.normal) for col in cols]
        g = gcd(*u)
        w = tuple(c // g for c in u)
        vids = tuple(sorted(new[i] for i in f.vertex_ids))
        h = gcd(g, grow)  # a translation has g = a^(n-1): the measure stays put
        facets.append(Facet(w, _idot(w, ipts[vids[0]]), mult, f._measure_num * (g // h),
                            f._measure_den * (grow // h), vids))
    facets.sort(key=lambda f: f.normal)
    den = K._centroid_den
    return Polytope(n, ipts, mult, tuple(facets),
                    tuple(tuple(new[i] for i in s) for s in K._simplices),
                    tuple(v * abs(d) // common ** n for v in K._fan_volumes),
                    *_reduced(tuple(_idot(r, K._centroid_num) + den * s
                                    for r, s in zip(ai, ti)), a * den))


def _homothety(K: Polytope, l: int, ti: tuple[int, ...], a: int) -> Polytope:
    """``transform`` of K with A = lam I for a nonzero rational lam, by
    relabelling alone: no adjugate, no gcd per normal and no sort.

    It reads no input: lam = l / a and t = ti / a come as integers over one
    positive integer a, as ``translate`` and ``scale`` read them.  The
    vertex p / m maps to (l p + m ti) / (a m), and the image's lattice points
    are those over c, the gcd of their entries and a m.  The map keeps the
    lexicographic order of the points when l > 0 and reverses it when l < 0,
    so the vertex ids, the facet order and the simplices stay, or id i
    becomes V - 1 - i and the facets run backwards.  adj(l I) = l^(n-1) I,
    so a normal w maps to sign(l) w, the offset b / m to
    sign(l) (l b + m w . ti) / c on the image's lattice, and the scaled
    measure to mu |l|^(n-1) / a^(n-1), with the gcd of the two powers divided
    out as ``transform`` does.  A fan volume v maps to v |l|^n / c^n, the
    centroid c_num / c_den to (l c_num + c_den ti) / (a c_den).  A shift of
    the wrong length and l = 0 raise ``transform``'s errors.
    """
    n = K.dim
    if len(ti) != n:
        raise DimensionMismatch("translation length does not match the body")
    if not l:
        raise SingularMatrix("transform matrix is singular")
    m = K._int_scale
    mapped = [tuple(l * c + m * s for c, s in zip(p, ti)) for p in K._int_vertices]
    common = gcd(a * m, *(c for q in mapped for c in q))
    mult = a * m // common
    g, grow = abs(l) ** (n - 1), a ** (n - 1)
    h = gcd(g, grow)
    g, grow = g // h, grow // h
    facets = K.facets
    simplices = K._simplices
    if l < 0:
        mapped.reverse()
        last = len(mapped) - 1
        facets = reversed(facets)
        simplices = tuple(tuple(last - i for i in s) for s in simplices)
    ipts = [tuple(c // common for c in q) for q in mapped]
    image = []
    for f in facets:
        w, vids = f.normal, f.vertex_ids
        b = (l * f._offset_num + m * _idot(w, ti)) // common
        if l < 0:
            w, vids, b = tuple(-c for c in w), tuple(last - i for i in reversed(vids)), -b
        image.append(Facet(w, b, mult, f._measure_num * g, f._measure_den * grow, vids))
    grow_volume, shrink = abs(l) ** n, common ** n
    volumes = K._fan_volumes
    if grow_volume != shrink:
        volumes = tuple(v * grow_volume // shrink for v in volumes)
    den = K._centroid_den
    return Polytope(n, ipts, mult, tuple(image), simplices, volumes,
                    *_reduced(tuple(l * c + den * s for c, s in zip(K._centroid_num, ti)),
                              a * den))


def translate(K: Polytope, t) -> Polytope:
    (ti,), a = scale_to_integers([t])
    return _homothety(K, a, ti, a)


def scale(K: Polytope, c) -> Polytope:
    ((l,),), a = scale_to_integers([(c,)])
    return _homothety(K, l, (0,) * K.dim, a)


def reflect(K: Polytope) -> Polytope:
    return _homothety(K, -1, (0,) * K.dim, 1)


def includes(outer: Polytope, inner: Polytope) -> bool:
    """True iff every vertex of inner satisfies every facet inequality of outer."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    # w . p / m_in <= b / m_out, both scales positive
    m_in, m_out = inner._int_scale, outer._int_scale
    return all(_idot(f.normal, p) * m_out <= f._offset_num * m_in
               for f in outer.facets for p in inner._int_vertices)
