"""The pulling fan: triangulations of faces by vertex bitmasks, with their
integer determinants, and the mixed volumes of a Cayley polytope's fan.

The facets of a face are its maximal proper intersections with facets
(``_facets_of``), so a face's pulling triangulation needs no hull beyond
the facets.  The fan kernel, ``_pulling_fan``, recurses on the vertex
bitmasks of the faces and carries one fraction-free elimination down the
recursion: each face that is not a simplex reduces only its lowest vertex
row against its ancestors' pivot rows (Bareiss's step) and passes it down
as a pivot row; a face that is a simplex reduces all its rows against them
and finishes them in one ``linalg._echelon`` pass from the chain's last
pivot, whose last pivot is the simplex's determinant up to sign.  No
determinant is taken on its own.

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


def _pulling_fan(face: int, cands, rows, chain=(), above: int = 0) -> list[tuple[int, int]]:
    """Pulling triangulation of a face coned from an apex, as (simplex, |det|)
    pairs: the bitmask of each simplex's vertices other than the apex, and
    the |det| of their rows.

    ``face`` is the bitmask of the face's vertex ids; its facets are
    ``_facets_of(face, cands)``.  The face is coned from its lowest id over
    the facets that miss it, each triangulated with the facets alone as
    candidates, since every facet of a facet g is g n h for another facet h.

    ``rows[i]`` is vertex i's row: vertex i minus the apex for a body's fan, so
    that |det| is the simplex's integer volume on the lattice (the Cayley
    fan's rows are in ``_cayley_mixed_volumes``).  Each level reduces only
    its lowest row against the pivot rows ``chain`` of its ancestors
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
    facets = _facets_of(face, cands)
    return [s for g in facets if not g & low
            for s in _pulling_fan(g, facets, rows, chain, above)]


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
