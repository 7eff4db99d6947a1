"""Shared corpora, and the Minkowski sum, face lattice, frozenset and
row-by-row chain pulling fans, single-apex Cayley fan, per-simplex
determinant, integer determinant, rank and adjugate, vertex inclusion test and
Fraction vector kept as references, and a counter of the Fractions made.

The acceptance corpus is 300 seeded random polytopes (100 each in dimensions
2, 3, 4; 80 generic hulls plus 20 origin-symmetric per dimension).  Heavy
per-body results (reports, anchor points, tightness, moments) are computed
once per session and shared by the acceptance criteria.  Each body also keeps
the time its report took, so criterion 2 can bound the report phase alone.
"""

import importlib
import pkgutil
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial

import pytest

import godbersen
from godbersen import (
    DegenerateInput,
    DimensionMismatch,
    FeasibilityResult,
    GenSpec,
    GodbersenReport,
    Polytope,
    SectionProfile,
    TightnessProfile,
    ak_feasibility,
    build_hull,
    center_at_centroid,
    directional_moment,
    generate,
    godbersen_report,
    reflect,
    scale,
    standard_simplex,
    tightness_profile,
    translate,
)
from godbersen import dd, fan, geometry, sections
from godbersen.errors import SingularMatrix
from godbersen.linalg import _back_substitute, _echelon, _with_identity
from godbersen.rationals import as_rat


def as_vector(coords, dim: int | None = None) -> tuple[F, ...]:
    """The coordinates as Fractions (``as_rat``), of length ``dim`` if given:
    the Fraction route that reference oracles take."""
    v = tuple(as_rat(c) for c in coords)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(v)}")
    return v


def package_modules() -> list:
    """Every module of the ``godbersen`` package, imported."""
    return [importlib.import_module(f"godbersen.{info.name}")
            for info in pkgutil.iter_modules(godbersen.__path__)]


def count_fractions(monkeypatch) -> list:
    """Record every ``Fraction.__new__`` call from now on; the list grows."""
    made = []
    new = F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(spy))
    return made


def minkowski_sum(K: Polytope, L: Polytope) -> Polytope:
    """Minkowski sum of two polytopes of the same dimension: the hull of all
    pairwise vertex sums, taken on the common lattice of K and L.  Each
    facet is checked against every sum: none lies beyond it, and the sums on
    it are the ones the hull names.  The program builds no sum
    (``mv_profile`` and ``bm_check`` read the Cayley fan); the tests compare
    those with this sum.
    """
    n = K.dim
    if L.dim != n:
        raise DimensionMismatch(f"cannot add bodies of dim {K.dim} and {L.dim}")
    m, ps, qs = fan._common_lattice(K, L)
    sums = sorted({tuple(x + y for x, y in zip(p, q)) for p in ps for q in qs})
    raw_facets = dd._hull_facets_int(sums, n)
    for w, offset, ids in raw_facets:
        vals = [geometry._idot(w, p) for p in sums]
        if max(vals) > offset:
            raise DegenerateInput("sum point escapes a claimed facet")
        if ids != tuple(i for i, v in enumerate(vals) if v == offset):
            raise DegenerateInput("a facet names the wrong sums")
    return geometry._from_lattice(sums, m, raw_facets)


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, from one Bareiss pass."""
    n = len(rows)
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def int_rank(rows) -> int:
    """Rank of an integer matrix: the pivot count of one Bareiss pass.  The
    hull's seed elimination decides the span itself."""
    return len(_echelon(rows)[1])


def adjugate(rows) -> tuple[int, list[list[int]]]:
    """(det A, adj A) of a square nonsingular integer matrix A, so that
    adj(A) A = det(A) I.

    One Bareiss pass over [A | I] and one back-substitution, the two steps of
    the double description kernel's seed: with D the last pivot and s the
    sign of the row swaps, det A = s D and adj A = s D A^-1.  A singular
    matrix raises SingularMatrix.
    """
    n = len(rows)
    a, pivots, sign = _echelon(_with_identity(rows))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    d, x = _back_substitute(a, pivots, n)
    if sign < 0:
        x = [[-c for c in r] for r in x]
    return sign * d, x


def includes(outer: Polytope, inner: Polytope) -> bool:
    """True iff every vertex of inner satisfies every facet inequality of
    outer, in integers on the two bodies' lattices."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    # w . p / m_in <= b / m_out, both scales positive
    m_in, m_out = inner._int_scale, outer._int_scale
    return all(geometry._idot(f.normal, p) * m_out <= f._offset_num * m_in
               for f in outer.facets for p in inner._int_vertices)


def power_form_profile(direction, level_scale, levels, accumulators,
                       denominator) -> SectionProfile:
    """A ``SectionProfile`` from its power form: piece i's accumulator A_i in
    powers of T (low degree first) on ``levels``, over ``denominator``.  The
    level sum of levels[i] is A_i - A_(i-1) in powers of T - levels[i], by a
    Taylor shift; a cumulative volume that jumps at a level gives it d_0 != 0."""
    size = max(map(len, accumulators))
    prev, sums = [0] * size, []
    for g, acc in zip(levels, accumulators):
        acc = list(acc) + [0] * (size - len(acc))
        sums.append(tuple(sections._taylor_shift([a - b for a, b in zip(acc, prev)], g)))
        prev = acc
    return SectionProfile(direction=direction, level_scale=level_scale,
                          levels=tuple(levels), level_sums=tuple(sums),
                          denominator=denominator)


def simplex_int_volume(pts, simplex, d: int) -> int:
    """|det| of the simplex on ``pts[i]`` for i in ``simplex``, from one
    (d+1)-point elimination of its rows relative to its first vertex: the
    per-simplex route ``fan._pulling_fan`` replaced."""
    base = pts[simplex[0]]
    rows = [[pts[i][c] - base[c] for c in range(d)] for i in simplex[1:]]
    return abs(int_det(rows))


def frozenset_pulling_fan(face: frozenset, cands) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face, as vertex-id tuples, on vertex-id
    frozensets: the route ``fan._pulling_fan`` took before it worked on
    bitmasks.

    ``cands`` are sets whose intersections with ``face`` include its facets.
    Its facets are the inclusion-maximal proper intersections: scanned by
    decreasing size, an intersection is kept when no facet kept so far holds
    it.  The face is coned from its lowest id over the facets that miss it,
    each triangulated with the facets alone as candidates.
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
            for s in frozenset_pulling_fan(g, facets)]


def chain_pulling_fan(face: int, cands, rows, chain=(), above: int = 0):
    """The pulling fan of ``fan._pulling_fan(face, cands, rows)``, as its
    (simplex, |det|) pairs, by a route that carries one elimination down the
    recursion: every level, simplex faces included, reduces its lowest row
    against its ancestors' pivot rows ``chain`` one Bareiss step at a time
    and adds it to them, and a simplex recurses once per vertex down to its
    last row, whose pivot is +-det."""
    low = face & -face
    r = rows[low.bit_length() - 1]
    prev = 1
    for c, t in chain:
        f, p = r[c], t[c]
        r = [(p * x - f * y) // prev for x, y in zip(r, t)]
        del r[c]
        prev = p
    c = next((j for j, x in enumerate(r) if x), None)
    if c is None:
        raise DegenerateInput("fan simplex is degenerate")
    above |= low
    if face == low:
        return [(above, abs(r[c]))]
    chain += ((c, r),)
    if face.bit_count() == len(r):
        return chain_pulling_fan(face ^ low, cands, rows, chain, above)
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
            for s in chain_pulling_fan(g, facets, rows, chain, above)]


def single_apex_mixed_volumes(K, L) -> tuple[tuple[int, ...], int]:
    """(raw, unit) of ``fan._cayley_mixed_volumes`` by the route it took
    before it coned each facet from a second apex: vertex 0 of the Cayley
    polytope is coned over the pulling triangulation of every facet that
    misses it, each simplex's (n+1) x (n+1) determinant counts toward m_j
    for its j + 1 vertices at the L end, and the unit is n! m^(n+1)."""
    n = K.dim
    m, ps, qs = fan._common_lattice(K, L)
    vk = len(ps)
    pts = [p + (0,) for p in ps] + [q + (m,) for q in qs]
    faces = [tight for _, tight in dd._cone_rays([p + (1,) for p in pts])]
    rows = fan._relative_rows(pts, 0)
    raw = [0] * (n + 1)
    for face in faces:
        if face & 1:
            continue
        for s, v in fan._pulling_fan(face, faces, rows):
            raw[(s >> vk).bit_count() - 1] += v
    return tuple(raw), factorial(n) * m ** (n + 1)


def face_lattice(body) -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """The face lattice of a body, built from its facets: level d, d = 0..n,
    maps each d-face's sorted vertex ids to the sorted indices of the facets
    holding it, in order of the vertex ids.

    Below the facets, a level holds the facets of the faces one level up: a
    face g's are its inclusion-maximal intersections with the facets not
    holding g, and such an h is held by g's facets and by those that cut g
    in h.
    """
    facets = [frozenset(f.vertex_ids) for f in body.facets]
    below = {f: (k,) for k, f in enumerate(facets)}
    levels = [{tuple(range(len(body.vertices))): ()}]
    while True:
        levels.append(dict(sorted((tuple(sorted(g)), on) for g, on in below.items())))
        if len(levels) > body.dim:
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
    return levels[::-1]


def edges(body) -> list[tuple[int, int]]:
    """Vertex-index pairs forming 1-faces, from the face lattice."""
    return list(face_lattice(body)[1])


def centered_inclusion(body: Polytope) -> bool:
    """Whether -K0 lies in n K0 for the centroid-centered K0, by the vertex
    test of ``includes``: an oracle for the row-by-row tightness pass, which
    proves the same inclusion and raises on a failed row."""
    k0 = center_at_centroid(body)
    return includes(scale(k0, body.dim), reflect(k0))


def corpus_specs() -> list[GenSpec]:
    specs = []
    for dim, vc_hull, vc_sym, denom, base in (
        (2, 8, 4, 4, 20_000),
        (3, 7, 4, 3, 30_000),
        (4, 6, 4, 2, 40_000),
    ):
        for i in range(80):
            specs.append(GenSpec("random_hull", dim, vc_hull,
                                 seed=base + i, denominator_bound=denom))
        for i in range(20):
            specs.append(GenSpec("random_symmetric", dim, vc_sym,
                                 seed=base + 500 + i, denominator_bound=denom))
    return specs


def lattice_grid_bodies(seed: int, per_dim: int) -> list[Polytope]:
    """A degenerate stratum: ``per_dim`` hulls in each of dims 2-4, each of
    n + 5 seeded draws from {0, 1, 2}^n (a draw that spans no body is drawn
    again).  Their facets are often non-simplicial and their vertex heights
    often tie, which the corpus barely reaches."""
    rng = random.Random(seed)
    bodies = []
    for n in (2, 3, 4):
        made = 0
        while made < per_dim:
            pts = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n + 5)]
            try:
                bodies.append(build_hull(pts))
            except DegenerateInput:
                continue
            made += 1
    return bodies


def profile_pairs(bodies) -> list[tuple[Polytope, Polytope]]:
    """Each body with its reflection, and with the next body (the first after
    the last) when the two share a dimension."""
    pairs = []
    for body, nxt in zip(bodies, bodies[1:] + bodies[:1]):
        pairs += [(body, reflect(body))] + [(body, nxt)] * (nxt.dim == body.dim)
    return pairs


def brunn_minkowski_pairs(corpus):
    """The Brunn-Minkowski pairs of acceptance criterion 9: consecutive corpus
    bodies (40 pairs in dim 2, 35 in dim 3, 15 in dim 4), and 10 dim-2
    bodies each with a scaled and translated copy, its homothet."""
    bodies_by_dim = {2: [], 3: [], 4: []}
    for _, body in corpus:
        bodies_by_dim[body.dim].append(body)
    pairs = []
    pairs += [(bodies_by_dim[2][i], bodies_by_dim[2][i + 1]) for i in range(40)]
    pairs += [(bodies_by_dim[3][i], bodies_by_dim[3][i + 1]) for i in range(35)]
    pairs += [(bodies_by_dim[4][i], bodies_by_dim[4][i + 1]) for i in range(15)]
    homothets = []
    for i in range(10):
        base = bodies_by_dim[2][50 + i]
        lam = F(i + 2, 3)
        homothets.append((base, translate(scale(base, lam), (F(i), F(-i, 2)))))
    return pairs, homothets


@dataclass(frozen=True)
class BodyResult:
    spec: GenSpec
    body: Polytope
    report: GodbersenReport
    report_seconds: float
    anchor: FeasibilityResult
    inclusion_ok: bool
    tightness: TightnessProfile
    moments_zero: bool


@pytest.fixture(scope="session")
def corpus() -> list[tuple[GenSpec, Polytope]]:
    return [(spec, generate(spec)) for spec in corpus_specs()]


@pytest.fixture(scope="session")
def corpus_results(corpus) -> list[BodyResult]:
    results = []
    for spec, body in corpus:
        t0 = time.monotonic()
        report = godbersen_report(body)
        report_seconds = time.monotonic() - t0
        results.append(BodyResult(
            spec=spec,
            body=body,
            report=report,
            report_seconds=report_seconds,
            anchor=ak_feasibility(body),
            inclusion_ok=centered_inclusion(body),
            tightness=tightness_profile(body),
            moments_zero=all(directional_moment(body, f.normal) == 0
                             for f in body.facets),
        ))
    return results


@pytest.fixture(scope="session")
def simplices() -> dict[int, Polytope]:
    return {n: standard_simplex(n) for n in (2, 3, 4, 5)}
