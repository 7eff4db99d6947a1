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

Hull facets of raw point sets are enumerated by brute force over d-subsets
with exact orientation tests (fine at input scale), every candidate normal
from one exterior-product pass, ``linalg.span_normals``: the subsets are
walked depth first and each prefix's minors are extended by Laplace
expansion, so a prefix shared by many subsets is expanded once.  The Cayley
polytope conv(K x {0} u L x {1}) gets its facets with no hull: besides
K x {0} and L x {1} they are the faces over the facets of K + L, and each
facet of K + L is a face of K plus a face of L, so the candidate normals
come from face pairs of the summands (their facets, ridge-edge crossings
and, from dim 5, pairs of lower faces), and each is verified exactly.  That
polytope's fan gives the mixed volumes of K and L; no sum is built.

Everything else follows from the vertex-facet incidence, which fixes the face
lattice: the smallest face through some points is the intersection of the
facets containing them (Ziegler, Lectures on Polytopes, 2.2; Kaibel and
Pfetsch, Comput. Geom. 23, 2002).  So a point is a vertex iff its facets
share no other point, and the facets of a face are its maximal proper
intersections with facets.  Each facet's pulling triangulation, coned from a
vertex off it, gives the facet's measure (cone volume = measure * height /
n); the cones from vertex 0 give the fan, volume and centroid.  That is one
integer determinant per simplex.  The whole lattice is built once per body,
on first use, level by level down from the facets; the body's edges, its
ridges with the two facets holding each, and the faces whose bases the
face-pair candidates need are all read off it.  An invertible affine map
keeps the lattice, so ``transform`` relabels its source's lattice and fan
instead of rebuilding them.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul

from .errors import (
    CombinatorialBlowup,
    DegenerateInput,
    DimensionMismatch,
    SingularMatrix,
    ZeroDirection,
)
from .linalg import (
    _echelon,
    adjugate,
    cofactor_normal,
    int_det,
    int_rank,
    primitive,
    scale_to_integers,
    span_normals,
)
from .rationals import Point, Rat, as_rat, as_vector, dot, is_zero_vector


class Facet:
    """One facet: outward integer normal, offset, scaled measure, vertex ids.

    The facet lies in {x . normal = offset}; every polytope vertex satisfies
    x . normal <= offset.  ``measure`` is the Euclidean (n-1)-area divided by
    the Euclidean length of ``normal``.  Both are kept as integers: the offset
    as its numerator on the body's lattice of scale ``_scale``, the measure as
    a numerator and a positive denominator.  ``offset`` and ``measure`` are
    Fraction views, made when first read.
    """

    __slots__ = ("normal", "vertex_ids", "_offset_num", "_scale", "_measure_num",
                 "_measure_den", "_offset", "_measure")

    def __init__(self, normal: tuple[int, ...], offset_num: int, scale: int,
                 measure_num: int, measure_den: int, vertex_ids: tuple[int, ...]):
        self.normal = normal
        self.vertex_ids = vertex_ids
        self._offset_num = offset_num
        self._scale = scale
        self._measure_num = measure_num
        self._measure_den = measure_den
        self._offset = None
        self._measure = None

    @property
    def offset(self) -> Fraction:
        if self._offset is None:
            self._offset = Fraction(self._offset_num, self._scale)
        return self._offset

    @property
    def measure(self) -> Fraction:
        if self._measure is None:
            self._measure = Fraction(self._measure_num, self._measure_den)
        return self._measure

    def __repr__(self):
        return f"Facet(normal={self.normal}, offset={self.offset}, measure={self.measure})"

    def __eq__(self, other):
        return (isinstance(other, Facet)
                and self.normal == other.normal
                and self._offset_num * other._scale == other._offset_num * self._scale)

    def __hash__(self):
        return hash((self.normal, self.offset))


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

    __slots__ = ("dim", "facets", "_int_vertices", "_int_scale", "_simplices",
                 "_fan_volumes", "_centroid_num", "_centroid_den", "_lattice",
                 "_vertices", "_volume", "_centroid")

    def __init__(self, dim, int_vertices, int_scale, facets, simplices,
                 fan_volumes, centroid_num, centroid_den):
        self.dim = dim
        self.facets = facets
        self._int_vertices = int_vertices
        self._int_scale = int_scale
        self._simplices = simplices
        self._fan_volumes = fan_volumes
        self._centroid_num = centroid_num
        self._centroid_den = centroid_den
        self._lattice = None
        self._vertices = None
        self._volume = None
        self._centroid = None

    @property
    def vertices(self) -> tuple[Point, ...]:
        if self._vertices is None:
            m = self._int_scale
            self._vertices = tuple(tuple(Fraction(c, m) for c in p)
                                   for p in self._int_vertices)
        return self._vertices

    @property
    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = Fraction(sum(self._fan_volumes),
                                    factorial(self.dim) * self._int_scale ** self.dim)
        return self._volume

    @property
    def centroid(self) -> Point:
        if self._centroid is None:
            self._centroid = tuple(Fraction(c, self._centroid_den)
                                   for c in self._centroid_num)
        return self._centroid

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, vertices={len(self._int_vertices)}, "
                f"facets={len(self.facets)}, volume={self.volume})")

    def __eq__(self, other):
        return (isinstance(other, Polytope) and self.dim == other.dim
                and self._int_scale == other._int_scale
                and self._int_vertices == other._int_vertices)

    def __hash__(self):
        return hash((self.dim, self._int_scale, tuple(self._int_vertices)))

    def edges(self) -> list[tuple[int, int]]:
        """Vertex-index pairs forming 1-faces, from the face lattice."""
        return list(_face_lattice(self)[1])


def _reduced(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """The integer vector ``num`` over the positive ``den``, in lowest terms
    over one denominator."""
    g = gcd(den, *num)
    return tuple(c // g for c in num), den // g


def _lex_positive(vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c > 0:
            return vec
        if c < 0:
            return tuple(-x for x in vec)
    return vec


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


SUBSET_CAP_ENV = "GODBERSEN_SUBSET_CAP"
DEFAULT_SUBSET_CAP = 200_000


def check_subset_cap(total: int, what: str, unit: str = "subsets") -> None:
    """Raise CombinatorialBlowup before a brute-force enumeration of ``total``
    items (``unit`` names them in the message) that exceeds the cap
    (``GODBERSEN_SUBSET_CAP``, default 200000)."""
    raw = os.environ.get(SUBSET_CAP_ENV, DEFAULT_SUBSET_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{SUBSET_CAP_ENV} must be an integer, not {raw!r}") from None
    if total > cap:
        raise CombinatorialBlowup(
            f"{what}: {total} {unit} exceed the cap of {cap}; raise {SUBSET_CAP_ENV}")


def _hull_facets_int(pts: list[tuple[int, ...]], d: int):
    """Facets of conv(pts) in R^d as (normal, offset, ids of points on it).

    Brute force over d-subsets with exact orientation tests; coplanar subsets
    merge because facets are keyed by the coprime-integer normal and offset.
    The subsets are taken one lowest point at a time, so each base point's
    normals come from one ``span_normals`` pass over the differences to the
    points after it.  Assumes the points affinely span R^d.
    """
    if d == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        if lo == hi:
            raise DegenerateInput("all points coincide")
        return [((-1,), -lo, tuple(i for i, x in enumerate(xs) if x == lo)),
                ((1,), hi, tuple(i for i, x in enumerate(xs) if x == hi))]
    tested: set = set()
    found: dict = {}
    for i, base in enumerate(pts):
        rows = [tuple(a - b for a, b in zip(p, base)) for p in pts[i + 1:]]
        for w in span_normals(rows, d):
            if not any(w):
                continue
            b = _idot(w, base)
            key = (w, b) if _lex_positive(w) == w else (tuple(-c for c in w), -b)
            if key in tested:
                continue
            tested.add(key)
            above = below = False
            for p in pts:
                s = _idot(w, p) - b
                if s > 0:
                    above = True
                elif s < 0:
                    below = True
                if above and below:
                    break
            if above and below:
                continue
            if not above and not below:
                raise DegenerateInput("points do not span the ambient space")
            if above:
                w = tuple(-c for c in w)
                b = -b
            ids = tuple(i for i, p in enumerate(pts) if _idot(w, p) == b)
            found[(w, b)] = ids
    return sorted((w, b, ids) for (w, b), ids in found.items())


def _pulling_fan(face: frozenset, cands) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face, as vertex-id tuples.

    ``face`` holds the face's vertex ids and ``cands`` sets whose
    intersections with it include its facets (the facets' vertex sets do).
    Its facets are the inclusion-maximal proper intersections: scanned by
    decreasing size, an intersection is kept when no facet kept so far holds
    it.  The face is coned from its lowest id over the facets that miss it,
    each triangulated with the facets alone as candidates, since every facet
    of a facet g is g n h for another facet h.
    """
    if len(face) == 1:
        return [tuple(face)]
    subs = {face & c for c in cands}
    subs.discard(face)
    facets: list[frozenset] = []
    for g in sorted(subs, key=len, reverse=True):
        for h in facets:
            if g <= h:
                break
        else:
            facets.append(g)
    top = min(face)
    return [(top,) + s for g in facets if top not in g
            for s in _pulling_fan(g, facets)]


def _simplex_int_volume(pts, simplex, d: int) -> int:
    base = pts[simplex[0]]
    rows = [[pts[i][c] - base[c] for c in range(d)] for i in simplex[1:]]
    return abs(int_det(rows))


def _common_lattice(K: Polytope, L: Polytope):
    """(m, ps, qs): the vertices of K and L as integer points c standing for
    c / m, with m = lcm of their lattice scales."""
    m = lcm(K._int_scale, L._int_scale)
    ps = [tuple(c * (m // K._int_scale) for c in p) for p in K._int_vertices]
    qs = [tuple(c * (m // L._int_scale) for c in q) for q in L._int_vertices]
    return m, ps, qs


def _cayley_mixed_volumes(K: Polytope, L: Polytope) -> tuple[Fraction, ...]:
    """m_j = V(K[n-j], L[j]) for j = 0..n from the fan of the Cayley polytope.

    C = conv(K x {0} u L x {1}) has the points (p, 0) and (q, m) on the
    common lattice m, all of them vertices.  Its facets are K x {0},
    L x {1} and F_K(u) x {0} u F_L(u) x {1} for each facet normal u of
    K + L, so its face lattice needs no hull.  The fan cones vertex 0 over
    the pulling triangulation of every facet that misses it.  A simplex with
    j + 1 vertices at the L end cuts the slice (1-l)K + lL in a piece of
    volume proportional to (1-l)^(n-j) l^j, so m_j is n + 1 times the volume
    of the fan's type-j simplices: their integer determinants over n! m^(n+1).
    """
    n = K.dim
    m, ps, qs = _common_lattice(K, L)
    vk = len(ps)
    pts = [p + (0,) for p in ps] + [q + (m,) for q in qs]
    faces = [frozenset(range(vk)), frozenset(range(vk, len(pts)))]
    faces += [frozenset(ik).union([vk + i for i in il])
              for _, ik, il in _sum_facet_supports(K, L)]
    raw = [0] * (n + 1)
    for face in faces:
        if 0 in face:
            continue
        for s in _pulling_fan(face, faces):
            v = _simplex_int_volume(pts, (0,) + s, n + 1)
            if v == 0:
                raise DegenerateInput("Cayley fan simplex is degenerate")
            raw[sum(i >= vk for i in s) - 1] += v
    unit = factorial(n) * m ** (n + 1)
    return tuple(Fraction(r, unit) for r in raw)


def _from_lattice(ipts: list[tuple[int, ...]], mult: int, raw_facets) -> Polytope:
    """Polytope of the integer points c / mult, given their hull's facets.

    ``raw_facets`` holds (normal, offset on the lattice, ids of the points on
    the facet).  The points are distinct and include every vertex of their
    hull, so a point is a vertex iff its (at least n) facets share no other
    point; the others are dropped, the facet ids remapped and the lattice
    coarsened to the smallest one holding the vertices.

    Each facet's pulling triangulation is coned from vertex 0, or from the
    lowest vertex off the facet when 0 is on it.  A cone's integer volume over
    its integer height gives the facet's scaled measure, and the cones from
    vertex 0 are the body's fan.
    """
    n = len(ipts[0])
    through: list[list[frozenset]] = [[] for _ in ipts]
    for _, _, ids in raw_facets:
        face = frozenset(ids)
        for i in ids:
            through[i].append(face)
    keep = [i for i, fs in enumerate(through)
            if len(fs) >= n and frozenset.intersection(*fs) == {i}]
    new = {old: k for k, old in enumerate(keep)}
    specs = sorted((w, b, tuple(new[i] for i in ids if i in new))
                   for w, b, ids in raw_facets)
    g = gcd(mult, *(c for i in keep for c in ipts[i]))
    ipts = [tuple(c // g for c in ipts[i]) for i in keep]
    mult //= g
    faces = [frozenset(vids) for _, _, vids in specs]
    unit = factorial(n - 1) * mult ** (n - 1)
    facets = []
    fan: list[tuple[int, ...]] = []
    dets: list[int] = []
    for (w, b, vids), face in zip(specs, faces):
        apex = next(i for i in range(len(ipts)) if i not in face)
        cones = [(apex,) + s for s in _pulling_fan(face, faces)]
        raw = [_simplex_int_volume(ipts, s, n) for s in cones]
        height = _idot(w, ipts[vids[0]]) - _idot(w, ipts[apex])
        facets.append(Facet(w, b // g, mult, sum(raw), unit * height, vids))
        if apex == 0:
            fan += cones
            dets += raw
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

    Facets are enumerated over all n-subsets of the distinct points, so more
    than ``GODBERSEN_SUBSET_CAP`` of them raises CombinatorialBlowup first.

    Redundant input points are dropped; the result carries the full facet
    structure with outward coprime-integer normals, exact offsets and scaled
    measures, facets ordered lexicographically by normal.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        raise DegenerateInput("no points given")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    if n < 1:
        raise DegenerateInput("points must have dimension at least 1")
    # a positive common scale keeps the lexicographic order of the points
    scaled, mult = scale_to_integers(pts)
    ipts = sorted(set(scaled))
    check_subset_cap(comb(len(ipts), n), f"hull of {len(ipts)} points in R^{n}")
    base = ipts[0]
    if len(ipts) < n + 1 or int_rank([tuple(a - b for a, b in zip(p, base))
                                      for p in ipts[1:]]) < n:
        raise DegenerateInput(f"points do not span R^{n}")
    return _from_lattice(ipts, mult, _hull_facets_int(ipts, n))


def support(K: Polytope, w) -> Rat:
    """Support value max{x . w : x in K}; homogeneous of degree 1 in w."""
    v = as_vector(w)
    if len(v) != K.dim:
        raise DimensionMismatch(f"direction has length {len(v)}, body has dim {K.dim}")
    if is_zero_vector(v):
        raise ZeroDirection("support direction must be nonzero")
    (iw,), m = scale_to_integers([v])
    return _int_support(K, iw) / m


def _int_support(K: Polytope, w: tuple[int, ...]) -> Fraction:
    """``support`` at a nonzero integer direction of the body's length."""
    return Fraction(max(_idot(w, p) for p in K._int_vertices), K._int_scale)


def _face_lattice(K: Polytope) -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """The face lattice of K, made once and kept on K: level d, d = 0..n,
    maps each d-face's sorted vertex ids to the sorted indices of the facets
    holding it, in order of the vertex ids.

    Below the facets, a level holds the facets of the faces one level up: a
    face g's are its inclusion-maximal intersections with the facets not
    holding g, and such an h is held by g's facets and by those that cut g
    in h.  A ``transform`` image holds (source, vertex renaming, facet
    renaming) until first asked, then relabels the source's lattice.
    """
    if isinstance(K._lattice, tuple):
        source, new, fnew = K._lattice
        K._lattice = [dict(sorted((tuple(sorted(map(new.__getitem__, face))),
                                   tuple(sorted(map(fnew.__getitem__, on))))
                                  for face, on in level.items()))
                      for level in _face_lattice(source)]
    elif K._lattice is None:
        facets = [frozenset(f.vertex_ids) for f in K.facets]
        below = {f: (k,) for k, f in enumerate(facets)}
        levels = [{tuple(range(len(K._int_vertices))): ()}]
        while True:
            levels.append(dict(sorted((tuple(sorted(g)), on) for g, on in below.items())))
            if len(levels) > K.dim:
                break
            upper, below = below, {}
            for g, on in upper.items():
                subs: dict = {}
                for k, f in enumerate(facets):
                    if k not in on:
                        subs.setdefault(g & f, []).append(k)
                for h, ks in subs.items():
                    if h not in below and not any(map(h.__lt__, subs)):
                        below[h] = tuple(sorted(on + tuple(ks)))
        K._lattice = levels[::-1]
    return K._lattice


def _exact(c):
    """An int as it is, anything else through ``as_rat``."""
    return c if type(c) is int else as_rat(c)


def transform(K: Polytope, mat=None, shift=None) -> Polytope:
    """Image of K under x -> A x + t for invertible rational A.

    An invertible affine map keeps the face lattice, so the image carries over
    K's facets, face lattice and fan, relabelled by the sorted image vertices
    and facets (the lattice when it is first read).
    With A = Ai / a and t = ti / a over one positive integer a, the vertex
    p / m maps to (Ai p + m ti) / (a m).  A normal w maps to the coprime part
    u / g of u = sign(det Ai) adj(Ai)^T w, a positive multiple of A^-T w, and
    its scaled measure to mu g / a^(n-1), with the gcd of g and a^(n-1)
    divided out.  The centroid c_num / c_den maps to
    (Ai c_num + c_den ti) / (a c_den).  The image's lattice points are
    (Ai p + m ti) / c, c the gcd of their entries and a m, so a fan simplex's
    integer volume v maps to v |det Ai| / c^n, an exact division.  Integer
    entries of A and t make no Fraction.
    """
    n = K.dim
    if mat is None:
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [tuple(map(_exact, row)) for row in mat]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("matrix shape does not match the body")
    t = tuple(map(_exact, shift)) if shift is not None else (0,) * n
    if len(t) != n:
        raise DimensionMismatch("translation length does not match the body")
    (*ai, ti), a = scale_to_integers(rows + [t])
    adj = adjugate(ai)
    d = _idot(ai[0], [r[0] for r in adj])  # the first entry of Ai adj(Ai) = det(Ai) I
    if d == 0:
        raise SingularMatrix("transform matrix is singular")

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
    forder = sorted(range(len(facets)), key=lambda k: facets[k].normal)
    fnew = {old: k for k, old in enumerate(forder)}
    den = K._centroid_den
    image = Polytope(n, ipts, mult, tuple(facets[k] for k in forder),
                     tuple(tuple(new[i] for i in s) for s in K._simplices),
                     tuple(v * abs(d) // common ** n for v in K._fan_volumes),
                     *_reduced(tuple(_idot(r, K._centroid_num) + den * s
                                     for r, s in zip(ai, ti)), a * den))
    image._lattice = (K, new, fnew)
    return image


def translate(K: Polytope, t) -> Polytope:
    return transform(K, None, t)


def scale(K: Polytope, c) -> Polytope:
    n = K.dim
    return transform(K, [[c if i == j else 0 for j in range(n)] for i in range(n)], None)


def reflect(K: Polytope) -> Polytope:
    return scale(K, -1)


def _ridges(K: Polytope) -> list[tuple[int, int]]:
    """Facet index pairs meeting in a ridge, from the face lattice."""
    return sorted(_face_lattice(K)[K.dim - 2].values())


def _ridge_crossings(K: Polytope, L: Polytope):
    """primitive((b.e) a - (a.e) b) for each ridge of K, with facet normals a
    and b, and each edge vector e of L with (a.e)(b.e) < 0."""
    normals = [f.normal for f in K.facets]
    ridges = _ridges(K)
    qs = L._int_vertices
    for i, j in L.edges():
        e = tuple(x - y for x, y in zip(qs[j], qs[i]))
        de = [_idot(a, e) for a in normals]
        for ra, rb in ridges:
            x, y = de[ra], de[rb]
            if x * y < 0:
                yield primitive(tuple(y * p - x * q
                                      for p, q in zip(normals[ra], normals[rb])))


def _face_bases(K: Polytope) -> dict[int, list[list[tuple[int, ...]]]]:
    """A basis of the direction space of each face of K, by dimension, for
    dimensions 2 to n - 3, in the face lattice's order: the nonzero rows of
    the Bareiss echelon form of a face's vertex differences.
    """
    ps = K._int_vertices
    bases = {}
    for d in range(2, K.dim - 2):
        bases[d] = []
        for face in _face_lattice(K)[d]:
            base = ps[face[0]]
            rows = _echelon([tuple(a - b for a, b in zip(ps[i], base))
                             for i in face[1:]])[0]
            bases[d].append([tuple(r) for r in rows[:d]])
    return bases


def _sum_candidate_lines(K: Polytope, L: Polytope):
    """Candidate facet normals of K + L, n >= 2: see ``_sum_facet_supports``."""
    n = K.dim
    for body in (K, L):
        for f in body.facets:
            yield f.normal
    if n >= 3:
        yield from _ridge_crossings(K, L)
        # for L = -K the swapped pass yields the same lines negated
        if not (L._int_scale == K._int_scale and L._int_vertices ==
                sorted(tuple(-c for c in p) for p in K._int_vertices)):
            yield from _ridge_crossings(L, K)
    if n >= 5:
        faces_k, faces_l = _face_bases(K), _face_bases(L)
        for d in range(2, n - 2):
            for basis_f in faces_k[d]:
                for basis_g in faces_l[n - 1 - d]:
                    w = cofactor_normal(basis_f + basis_g, n)
                    if any(w):
                        yield w


def _sum_facet_supports(K: Polytope, L: Polytope):
    """Each facet normal u of K + L, with the vertex ids of F_K(u) and F_L(u).

    Every facet of K + L is F + G with F = F_K(u) and G = F_L(u) (Ziegler,
    Lectures on Polytopes, 7.1; Fukuda, J. Symbolic Comput. 38, 2004), so its
    normal is fixed by a pair of faces, one from each summand.  The candidate
    lines are, for n >= 2:

    - the facet normals of K and of L;
    - for n >= 3, each ridge-edge crossing: for a ridge of K with facet
      normals a and b and an edge vector e of L with (a.e)(b.e) < 0, the line
      of (b.e) a - (a.e) b; and the same with K and L swapped;
    - for n >= 5, each pair of faces F of K and G of L with dim F, dim G in
      [2, n-3], dim F + dim G = n - 1 and independent direction spaces: the
      cofactor normal of a basis of their directions.

    These are all the facet normals.  If F or G is a facet, u is in the first
    list.  If F is a ridge of K, with normal cone cone(a, b), then G has an
    edge e outside lin F, since lin F + lin G = u^perp; u is the one line of
    cone(a, b) orthogonal to e, and u = s a + t b with s, t > 0 forces
    (a.e)(b.e) < 0 (were it 0, u would be a or b, already listed).  Likewise
    when G is a ridge of L.  Otherwise dim F, dim G <= n - 3, and
    dim F + dim G >= n - 1 forces n >= 5.  If W = lin F n lin G is 0,
    (F, G) is in the third list.  Otherwise F has a face F' with
    lin F' + W = lin F, a direct sum: project F along W,
    fix a generic c on W, and take the faces of F that carry the c-highest
    point of each fibre.  Then F' + G spans u^perp with dim F' =
    n - 1 - dim G in [2, n - 3], so (F', G) is in the third list.

    Each new line through the origin is verified exactly for both of its
    signs, with the summand faces read off one set of vertex values (maximum
    for the line, minimum for its negative).  A candidate is a facet normal
    when the two faces together span n - 1 dimensions, which needs at least
    n + 1 vertices between them.  At n = 1 the one line is (1,).
    """
    n = K.dim
    ps, qs = K._int_vertices, L._int_vertices
    seen_lines: set = set()
    for w in _sum_candidate_lines(K, L) if n > 1 else [(1,)]:
        line = _lex_positive(w)
        if line in seen_lines:
            continue
        seen_lines.add(line)
        vals_k = [_idot(line, p) for p in ps]
        vals_l = [_idot(line, q) for q in qs]
        for sign, top_k, top_l in ((1, max(vals_k), max(vals_l)),
                                   (-1, min(vals_k), min(vals_l))):
            ids_k = [i for i, x in enumerate(vals_k) if x == top_k]
            ids_l = [i for i, x in enumerate(vals_l) if x == top_l]
            if len(ids_k) + len(ids_l) < n + 1:
                continue
            rows = [tuple(a - b for a, b in zip(ps[i], ps[ids_k[0]])) for i in ids_k[1:]]
            rows += [tuple(a - b for a, b in zip(qs[i], qs[ids_l[0]])) for i in ids_l[1:]]
            if int_rank(rows) != n - 1:
                continue
            yield (line if sign > 0 else tuple(-c for c in line)), ids_k, ids_l


def volume(K: Polytope) -> Rat:
    """Exact n-volume, read off the fan determinants."""
    return K.volume


def centroid(K: Polytope) -> Point:
    """Exact volume-weighted centroid."""
    return K.centroid


def includes(outer: Polytope, inner: Polytope) -> bool:
    """True iff every vertex of inner satisfies every facet inequality of outer."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    # w . p / m_in <= b / m_out, both scales positive
    m_in, m_out = inner._int_scale, outer._int_scale
    return all(_idot(f.normal, p) * m_out <= f._offset_num * m_in
               for f in outer.facets for p in inner._int_vertices)


def contains_point(K: Polytope, p) -> bool:
    """Exact membership test for a single point."""
    v = as_vector(p, K.dim)
    return all(dot(f.normal, v) <= f.offset for f in K.facets)
