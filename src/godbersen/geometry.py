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

Every facet comes from the double description kernel ``dd._cone_rays``
(``dd._hull_facets_int``), and every fan from the pulling fan
``fan._pulling_fan``; everything else follows from the vertex-facet
incidence: the smallest face through some points is the intersection of the
facets containing them (Ziegler, Lectures on Polytopes, 2.2; Kaibel and
Pfetsch, Comput. Geom. 23, 2002).  So a point is a vertex iff its facets
share no other point.  Each facet's pulling triangulation, coned from a
vertex off it, gives the facet's measure (cone volume = measure * height /
n); the cones from vertex 0 give the fan, volume and centroid.
``transform`` builds an affine image by the same kernels, as the hull of
the mapped vertices.  A homothety x -> lam x + t keeps the incidence and
more: each normal up to the sign of lam, and the order of the vertices and
facets, reversed when lam < 0.  So ``translate``, ``scale`` and ``reflect``
go through ``_homothety``, which relabels K's facets and fan and sorts
nothing.  ``_homothety`` takes lam and t as integers over one denominator,
so ``translate`` and ``scale`` read their input first, and centering at the
centroid passes the integers the body holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, gcd, lcm
from operator import and_, mul

from .dd import _hull_facets_int, _ids
from .errors import DegenerateInput, DimensionMismatch, SingularMatrix, ZeroDirection
from .fan import _pulling_fan, _relative_rows
from .linalg import _echelon, scale_to_integers
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


def _from_lattice(ipts: list[tuple[int, ...]], mult: int, raw_facets) -> Polytope:
    """Polytope of the integer points c / mult, given their hull's facets.

    ``raw_facets`` holds (normal, offset on the lattice, ids of the points on
    the facet).  The points are distinct and include every vertex of their
    hull, so a point is a vertex iff its (at least n) facets share no other
    point; the others are dropped, the facet ids remapped, the facets sorted
    (the one sort of a hull's facets) and the lattice coarsened to the
    smallest one holding the vertices.  Facets that leave
    fewer than n + 1 vertices, or a facet with fewer than n, close no
    polytope and raise DegenerateInput.  So do facets that break Minkowski's
    relation, sum_F mu_F w_F = 0 for the scaled measures mu_F (the facets'
    area vectors close up; Schneider, *Convex Bodies*, ch. 8), which is
    checked as one integer sum over the lcm of the measure denominators:
    a facet list missing a facet fails it.  A normal that points inward
    flips its measure with it, which leaves mu_F w_F and the relation as
    they were, so each facet's height above its apex, w . (p_F - apex),
    must be positive.

    Each facet's pulling triangulation (``fan._pulling_fan``) is coned from
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

    Facets come from the double description kernel ``dd._cone_rays``.  After
    each step its rays are the facets of the hull of the points so far, at
    most the upper bound theorem's count for V distinct points in R^n, which
    never exceeds C(V, n); the kernel raises CombinatorialBlowup before its
    first step when that count is above ``GODBERSEN_SUBSET_CAP``.

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
    common scale keeps their lexicographic order), and ``dd._cone_rays``
    checks, in this order, that they number at least n + 1, that their facet
    bound passes the cap, and from its seed that they span R^n.
    ``_from_lattice`` coarsens to the smallest lattice, so any common scale
    gives the same body."""
    ipts = sorted(set(points))
    return _from_lattice(ipts, mult, _hull_facets_int(ipts, len(ipts[0])))


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

    With A = Ai / a and t = ti / a over one positive integer a, the vertex
    p / m maps to (Ai p + m ti) / (a m), and the image is the hull of these
    lattice points (``_lattice_hull``), built by the kernels that build every
    body.  A and t are read by one ``scale_to_integers`` call, before their
    shapes are checked, so integer entries make no Fraction.  One elimination
    of Ai's n rows refuses a singular Ai (fewer than n pivots) before any
    hull work.  ``translate``, ``scale`` and ``reflect`` take the shorter
    route of ``_homothety``.
    """
    n = K.dim
    if mat is None:
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
    (*ai, ti), a = scale_to_integers([*mat, (0,) * n if shift is None else shift])
    if len(ai) != n or any(len(r) != n for r in ai):
        raise DimensionMismatch("matrix shape does not match the body")
    if len(ti) != n:
        raise DimensionMismatch("translation length does not match the body")
    if len(_echelon(ai)[1]) < n:
        raise SingularMatrix("transform matrix is singular")
    m = K._int_scale
    return _lattice_hull([tuple(_idot(r, p) + m * s for r, s in zip(ai, ti))
                          for p in K._int_vertices], a * m)


def _homothety(K: Polytope, l: int, ti: tuple[int, ...], a: int) -> Polytope:
    """``transform`` of K with A = lam I for a nonzero rational lam, by
    relabelling K's facets and fan: no hull, no gcd per normal and no sort.

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
    out.  A fan volume v maps to v |l|^n / c^n, the centroid c_num / c_den
    to (l c_num + c_den ti) / (a c_den).  A shift of the wrong length and
    l = 0 raise ``transform``'s errors.
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

