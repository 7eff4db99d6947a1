"""The pulling fan: triangulations of faces by vertex bitmasks, with their
integer determinants, and the mixed volumes of a Cayley polytope's fan.

The facets of a face are its maximal proper intersections with facets
(``_facets_of``), so a face's pulling triangulation needs no hull beyond
the facets.  The fan kernel, ``_pulling_fan``, recurses on the vertex
bitmasks of the faces, coning each from its lowest vertex (De Loera, Rambau
and Santos, *Triangulations*, 2010), and takes each simplex's determinant,
up to sign, as the last pivot of one ``linalg._echelon`` pass over its rows.

The Cayley polytope of K and L in R^(n+1) is coned twice: from its vertex 0
at the K end over the facets that miss it, and each such cone from the
facet's lowest vertex at the L end over the facets of the facet that miss
that vertex.  Each simplex then has one apex at each end, and its volume is
m times an n x n determinant of rows taken against them: the mixed-cell
form, one dimension below the polytope.  The bodies K and L of
``_cayley_mixed_volumes`` are read by their integer fields
(``_int_vertices``, ``_int_scale``, ``dim``) alone.
"""

from __future__ import annotations

from math import factorial, lcm
from operator import sub

from .dd import _cone_rays
from .errors import DegenerateInput
from .linalg import _echelon


def _facets_of(face: int, cands) -> list[int]:
    """The facets of a face, as bitmasks: its inclusion-maximal proper
    intersections with ``cands``, bitmasks whose intersections with it
    include its facets (the facets' do).  Scanned by decreasing size, an
    intersection is kept when no facet kept so far holds it."""
    subs = {face & g for g in cands}
    subs.discard(face)
    facets: list[int] = []
    for g in sorted(subs, key=int.bit_count, reverse=True):
        for h in facets:
            if g & h == g:
                break
        else:
            facets.append(g)
    return facets


def _pulling_fan(face: int, cands, rows, above: int = 0) -> list[tuple[int, int]]:
    """Pulling triangulation of a face coned from an apex, as (simplex, |det|)
    pairs: the bitmask of each simplex's vertices other than the apex, and
    the |det| of their rows.

    ``face`` is the bitmask of the face's vertex ids; its facets are
    ``_facets_of(face, cands)``.  The face is coned from its lowest id over
    the facets that miss it, each triangulated with the facets alone as
    candidates, since every facet of a facet g is g n h for another facet h.
    ``above`` holds the ids it was coned from, its ancestors' lowest ids.

    ``rows[i]`` is vertex i's row: vertex i minus the apex for a body's fan, so
    that |det| is the simplex's integer volume on the lattice (the Cayley
    fan's rows are in ``_cayley_mixed_volumes``).  A face is a simplex when
    it and the ids above it number as many as a row has entries, and so is a
    single vertex (on facets that close a polytope the two agree).  A simplex
    is its own triangulation: one ``_echelon`` pass over the rows of its ids
    and those above it has the simplex's +-det as its last pivot.  A simplex
    whose rows leave a pivot short, or a face that yields no simplex, raises
    DegenerateInput.
    """
    low = face & -face
    s = above | face
    k = s.bit_count()
    if k == len(rows[0]) or face == low:
        a, pivots, _ = _echelon([rows[i] for i in range(s.bit_length()) if s >> i & 1])
        if len(pivots) < k:
            raise DegenerateInput("fan simplex is degenerate")
        return [(s, abs(a[-1][pivots[-1]]))]
    facets = _facets_of(face, cands)
    cones = [c for g in facets if not g & low
             for c in _pulling_fan(g, facets, rows, above | low)]
    if not cones:
        raise DegenerateInput("fan simplex is degenerate")
    return cones


def _relative_rows(pts, apex: int) -> list[tuple[int, ...]]:
    """Every point minus ``pts[apex]``."""
    o = pts[apex]
    return [tuple(map(sub, p, o)) for p in pts]


def _common_lattice(K, L):
    """(m, ps, qs): the vertices of K and L as integer points c standing for
    c / m, with m = lcm of their lattice scales."""
    m = lcm(K._int_scale, L._int_scale)
    ps = [tuple(c * (m // K._int_scale) for c in p) for p in K._int_vertices]
    qs = [tuple(c * (m // L._int_scale) for c in q) for q in L._int_vertices]
    return m, ps, qs


def _cayley_mixed_volumes(K, L) -> tuple[tuple[int, ...], int]:
    """(raw, unit) with m_j = V(K[n-j], L[j]) = raw_j / unit for j = 0..n,
    from a dissection of the Cayley polytope into mixed cells.

    C = conv(K x {0} u L x {1}) has the points (p, 0) and (q, m) on the
    common lattice m, all of them vertices.  Its facets, K x {0} and
    L x {1} among them, are the extreme rays of the cone over its points
    (``_cone_rays``), each with the bitmask of the points on it.  C is the
    union of the cones from vertex 0 = (p_0, 0) over the facets F that miss
    it, and each such cone is the union of the cones from F's lowest L-end
    vertex (q, m) over the facets G of F that miss q: these are F ^ q when F
    is a simplex, and ``_facets_of(F, faces)`` otherwise.  So every simplex
    is (p_0, 0), (q, m) and a simplex T of G's pulling triangulation
    (``_pulling_fan``).  Subtracting q's row from the other L-end rows of its
    (n+1)-matrix leaves m in the last column of q's row alone, so its
    determinant is m times the n x n one of T's rows p - p_0 at the K end
    and q' - q at the L end: the mixed-cell form (Huber & Sturmfels, Math.
    Comp. 64, 1995), with one table of rows per q.

    A simplex with j + 1 vertices at the L end, j of them in T, cuts the
    slice (1-l)K + lL in a piece of volume proportional to
    (1-l)^(n-j) l^j, so m_j is n + 1 times the volume of the type-j
    simplices: raw_j is the sum of their n x n determinants, and unit is
    n! m^n.
    """
    n = K.dim
    m, ps, qs = _common_lattice(K, L)
    vk = len(ps)
    faces = [tight for _, tight in _cone_rays(
        [p + (0, 1) for p in ps] + [q + (m, 1) for q in qs])]
    k_rows = _relative_rows(ps, 0)
    tables: dict[int, list[tuple[int, ...]]] = {}
    raw = [0] * (n + 1)
    for face in faces:
        if face & 1:
            continue
        ends = face >> vk
        q = (ends & -ends).bit_length() - 1
        rows = tables.get(q)
        if rows is None:
            rows = tables[q] = k_rows + _relative_rows(qs, q)
        apex = 1 << (vk + q)
        if face.bit_count() == n + 1:
            cones = _pulling_fan(face ^ apex, (), rows)
        else:
            facets = _facets_of(face, faces)
            cones = [s for g in facets if not g & apex
                     for s in _pulling_fan(g, facets, rows)]
        for s, v in cones:
            raw[(s >> vk).bit_count()] += v
    return tuple(raw), factorial(n) * m ** n
