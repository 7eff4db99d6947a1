import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial
from types import SimpleNamespace

import pytest

from godbersen import (
    CombinatorialBlowup,
    DegenerateInput,
    DimensionMismatch,
    GenSpec,
    MixedVolumeProfile,
    SingularMatrix,
    ZeroDirection,
    build_hull,
    center_at_centroid,
    cross_polytope,
    generate,
    reflect,
    scale,
    standard_simplex,
    support,
    transform,
    translate,
    unit_cube,
)
from godbersen import dd, fan, geometry, linalg
from godbersen.dd import _cone_rays, _hull_facets_int
from godbersen.geometry import Polytope
from godbersen.linalg import _echelon, scale_to_integers
from godbersen.sections import section_profile
from tests.conftest import (
    chain_pulling_fan,
    corpus_specs,
    count_fractions,
    edges,
    face_lattice,
    frozenset_pulling_fan,
    includes,
    int_rank,
    lattice_grid_bodies,
    minkowski_sum,
    package_modules,
    profile_pairs,
    simplex_int_volume,
    single_apex_mixed_volumes,
)
from tests.test_linalg import (
    cofactor_adjugate,
    det,
    fraction_rank,
    normal_to_span,
    span_normals,
)

TRIANGLE = [(0, 0), (1, 0), (0, 1)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def shoelace(ordered):
    """Polygon area oracle: half the absolute cyclic cross-product sum."""
    acc = F(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        acc += F(x1) * F(y2) - F(x2) * F(y1)
    return abs(acc) / 2


def polygon_area(K):
    import math

    cx = sum(v[0] for v in K.vertices) / len(K.vertices)
    cy = sum(v[1] for v in K.vertices) / len(K.vertices)
    ordered = sorted(K.vertices,
                     key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))
    return shoelace(ordered)


def dot(u, v):
    """The exact inner product of two rational vectors."""
    return sum(a * b for a, b in zip(u, v))


def contains_point(K, p) -> bool:
    """Membership of one rational point by the Fraction facet offsets: the
    oracle of the integer vertex test in ``includes``."""
    return all(dot(f.normal, p) <= f.offset for f in K.facets)


def rational_points_in(body, count, rng):
    """Exact rational points of the body: random convex combinations."""
    pts = []
    verts = body.vertices
    for _ in range(count):
        weights = [rng.randint(0, 10) for _ in verts]
        total = sum(weights)
        if total == 0:
            weights[0] = 1
            total = 1
        pts.append(tuple(
            sum(F(w) * v[c] for w, v in zip(weights, verts)) / total
            for c in range(body.dim)))
    return pts


def lex_positive(vec):
    """The one of vec and -vec whose first nonzero entry is positive."""
    for c in vec:
        if c:
            return vec if c > 0 else tuple(-x for x in vec)
    return vec


def moment_curve(count, n):
    return [tuple(t ** e for e in range(1, n + 1)) for t in range(count)]


def random_polytope(rng, dim, npts, denom=3):
    while True:
        pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, denom))
                     for _ in range(dim)) for _ in range(npts)]
        try:
            return build_hull(pts)
        except DegenerateInput:
            continue


class TestBuildHull:
    def test_square(self):
        sq = build_hull(SQUARE)
        assert len(sq.vertices) == 4 and len(sq.facets) == 4

    def test_interior_point_dropped(self):
        sq = build_hull(SQUARE + [(F(1, 2), F(1, 2))])
        assert len(sq.vertices) == 4
        assert sq == build_hull(SQUARE)

    def test_triangle_facet_data(self):
        # hand computation: the diagonal edge has length sqrt(2) and normal
        # (1,1) of the same length, so its scaled measure is exactly 1
        tri = build_hull(TRIANGLE)
        got = {(f.normal, f.offset, f.measure) for f in tri.facets}
        assert got == {((-1, 0), F(0), F(1)),
                       ((0, -1), F(0), F(1)),
                       ((1, 1), F(1), F(1))}

    def test_facets_sorted_by_normal(self):
        cube = build_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        normals = [f.normal for f in cube.facets]
        assert normals == sorted(normals)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            build_hull([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateInput):
            build_hull([(0, 0), (1, 1)])

    def test_subset_cap_raises_before_enumerating(self, monkeypatch):
        # by the upper bound theorem the hull of 120 points in R^6 may have
        # 266,800 facets, over the default cap of 200,000: the kernel's
        # guard refuses it before the seed, so no elimination runs
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        monkeypatch.setattr(dd, "_seed_rays", lambda rows: pytest.fail("kernel ran"))
        with pytest.raises(CombinatorialBlowup,
                           match=r"hull of 120 points in R\^6: 266800 possible facets exceed"
                                 r".*GODBERSEN_SUBSET_CAP"):
            build_hull(moment_curve(120, 6))

    def test_a_count_past_the_conversion_limit_is_written_by_its_size(self, monkeypatch):
        # the hull of 40,000 points in R^20000 may have a count of 8,291
        # digits, more than str() converts: the refusal names its size
        # rather than failing while it is formatted
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        with pytest.raises(CombinatorialBlowup) as refused:
            dd.check_hull_size(40000, 20000)
        assert str(refused.value) == (
            "hull of 40000 points in R^20000: about 10^8290 possible facets exceed "
            "the cap of 200000; raise GODBERSEN_SUBSET_CAP")

    def test_moment_curve_builds(self, monkeypatch):
        # its C(108, 3) = 204,156 triples once exceeded the cap; the points
        # are in general position, so the hull is simplicial with 2 V - 4
        # triangles, the most the upper bound theorem allows
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        body = build_hull(moment_curve(108, 3))
        assert len(body.vertices) == 108 and len(body.facets) == 212

    def test_facet_bound_is_the_cyclic_polytope(self):
        # cyclic polytopes attain the bound, which never exceeds C(V, n), so
        # every input under the cap on n-subsets stays under the cap
        for count, n in ((12, 2), (20, 3), (14, 4), (11, 5), (10, 6)):
            body = build_hull(moment_curve(count, n))
            assert len(body.facets) == dd._max_facets(count, n)
        for n in range(1, 13):
            assert dd._max_facets(n + 1, n) == n + 1
            assert all(dd._max_facets(v, n) <= comb(v, n) for v in range(n + 1, 120))

    def test_subset_cap_env_override(self, monkeypatch):
        # a square's hull may have 4 facets
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "3")
        with pytest.raises(CombinatorialBlowup,
                           match=r"hull of 4 points in R\^2: 4 possible facets exceed"):
            build_hull(SQUARE)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "4")
        assert len(build_hull(SQUARE).facets) == 4

    @pytest.mark.parametrize("value", ["x", "2.5", ""])
    def test_subset_cap_env_must_be_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", value)
        with pytest.raises(ValueError, match="GODBERSEN_SUBSET_CAP must be an integer"):
            build_hull(SQUARE)

    def test_every_vertex_on_n_facets(self):
        rng = random.Random(1)
        for dim in (2, 3):
            body = random_polytope(rng, dim, 8)
            for i, v in enumerate(body.vertices):
                incident = [f for f in body.facets if i in f.vertex_ids]
                assert len(incident) >= dim


class TestSupport:
    def test_examples(self):
        assert support(build_hull(SQUARE), (1, 1)) == 2
        tri = build_hull(TRIANGLE)
        assert support(tri, (1, 1)) == 1
        # reflected triangle: max over {(0,0), (-1,0), (0,-1)}
        assert support(reflect(tri), (1, 1)) == 0

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            support(build_hull(SQUARE), (0, 0))

    def test_homogeneity_and_subadditivity(self):
        rng = random.Random(2)
        body = random_polytope(rng, 3, 7)
        for _ in range(50):
            w1 = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            w2 = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            if all(c == 0 for c in w1) or all(c == 0 for c in w2):
                continue
            lam = F(rng.randint(1, 12), rng.randint(1, 5))
            assert support(body, tuple(lam * c for c in w1)) == lam * support(body, w1)
            if any(a + b != 0 for a, b in zip(w1, w2)):
                assert (support(body, tuple(a + b for a, b in zip(w1, w2)))
                        <= support(body, w1) + support(body, w2))


class TestTransform:
    def test_translate_square(self):
        sq = build_hull(SQUARE)
        moved = transform(sq, None, (1, 1))
        assert moved.volume == 1
        assert moved.vertices[0] == (F(1), F(1))

    def test_reflect_triangle(self):
        tri = build_hull(TRIANGLE)
        neg = transform(tri, [[-1, 0], [0, -1]], None)
        assert set(neg.vertices) == {(F(0), F(0)), (F(-1), F(0)), (F(0), F(-1))}

    def test_scale_homogeneity(self):
        tri = build_hull(TRIANGLE)
        assert transform(tri, [[2, 0], [0, 2]], None).volume == 2

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            transform(build_hull(SQUARE), [[1, 1], [1, 1]], None)

    def test_volume_and_centroid_equivariance(self):
        rng = random.Random(3)
        for dim in (2, 3):
            body = random_polytope(rng, dim, 6)
            for _ in range(8):
                mat = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
                       for _ in range(dim)]
                if det(mat) == 0:
                    continue
                shift = tuple(F(rng.randint(-5, 5), 2) for _ in range(dim))
                image = transform(body, mat, shift)
                assert image.volume == abs(det(mat)) * body.volume
                expected = tuple(
                    sum(mat[r][c] * body.centroid[c] for c in range(dim)) + shift[r]
                    for r in range(dim))
                assert image.centroid == expected

    def test_entry_types_and_roundtrip(self):
        rng = random.Random(4)
        body = random_polytope(rng, 3, 7)
        c, t = F(3, 2), (F(1, 3), F(-2), F(5, 7))
        ints = transform(body, [[c, 0, 0], [0, c, 0], [0, 0, c]], t)
        fracs = transform(body, [[c, 0, F(0)], [0, c, 0], [F(0), 0, c]], t)
        assert ints == fracs
        assert ints.volume == fracs.volume
        roundtrip = transform(transform(body, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                              [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert roundtrip == body


def rebuilt_fields(body, lam):
    """The fields of a homothety's image that its rebuilt hull must share:
    vertices, scale, facets, volume and centroid, and for lam > 0 also the
    fan, which both then cone from the same vertex 0."""
    fields = (body._int_vertices, body._int_scale, facet_data(body), body.volume,
              body.centroid, body._centroid_num, body._centroid_den)
    if lam > 0:
        fields += (body._simplices, body._fan_volumes)
    return fields


class TestHomothety:
    """``_homothety`` against ``transform`` with A = lam I, which builds the
    image by the hull kernel, on lam and t read as ``translate`` and
    ``scale`` read them.  For lam < 0 the rebuilt fan cones from another
    vertex 0, so only the fields it determines are compared."""

    LAMBDAS = (1, -1, 2, F(-5, 3), F(1, 2))

    def test_matches_transform_field_by_field(self, corpus):
        rng = random.Random(36)
        bodies = ([body for _, body in corpus[::2]] + lattice_grid_bodies(36, 20)
                  + recipe_bodies())
        maps = 0
        for body in bodies:
            n = body.dim
            for lam in self.LAMBDAS:
                shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                for t in (None, shift):
                    mat = [[lam if i == j else 0 for j in range(n)] for i in range(n)]
                    ((l,), ti), a = scale_to_integers([(lam,), t or (0,) * n])
                    image = geometry._homothety(body, l, ti, a)
                    assert_fan_volumes(image)
                    assert rebuilt_fields(image, lam) == \
                        rebuilt_fields(transform(body, mat, t), lam), (body, lam, t)
                    maps += 1
        assert maps > 1500

    def test_public_maps_are_homotheties(self):
        body = generate(GenSpec("random_hull", 3, 7, seed=30_003, denominator_bound=3))
        t = (F(1, 3), -2, F(5, 7))
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        for image, lam, mat, shift in (
                (translate(body, t), 1, eye, t),
                (scale(body, F(-5, 3)), F(-5, 3), [[F(-5, 3) * c for c in r] for r in eye],
                 None),
                (reflect(body), -1, [[-c for c in r] for r in eye], None)):
            assert_fan_volumes(image)
            assert rebuilt_fields(image, lam) == \
                rebuilt_fields(transform(body, mat, shift), lam)

    def test_errors(self):
        sq = build_hull(SQUARE)
        with pytest.raises(SingularMatrix, match="^transform matrix is singular$"):
            scale(sq, 0)
        with pytest.raises(TypeError, match="^cannot coerce float to an exact rational$"):
            scale(sq, 0.5)
        with pytest.raises(TypeError, match="^cannot coerce float to an exact rational$"):
            translate(sq, (1, 0.5))
        with pytest.raises(DimensionMismatch,
                           match="^translation length does not match the body$"):
            translate(sq, (1, 2, 3))


class TestMinkowskiSum:
    def test_square_plus_square(self):
        sq = build_hull(SQUARE)
        big = minkowski_sum(sq, sq)
        assert big.volume == 4
        assert max(v[0] for v in big.vertices) == 2

    def test_hexagon_oracle(self):
        # oracle: shoelace area of the known difference hexagon
        hex_vertices = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
        assert shoelace(hex_vertices) == 3
        tri = build_hull(TRIANGLE)
        hexagon = minkowski_sum(tri, reflect(tri))
        assert set(hexagon.vertices) == {tuple(map(F, p)) for p in hex_vertices}
        assert hexagon.volume == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minkowski_sum(build_hull(SQUARE), build_hull(
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))

    def test_support_additivity(self):
        rng = random.Random(5)
        for dim in (2, 3):
            a = random_polytope(rng, dim, 6)
            b = random_polytope(rng, dim, 6)
            s = minkowski_sum(a, b)
            directions = [f.normal for f in s.facets]
            directions += [tuple(rng.randint(-7, 7) for _ in range(dim))
                           for _ in range(20)]
            for w in directions:
                if all(c == 0 for c in w):
                    continue
                assert support(s, w) == support(a, w) + support(b, w)

    def test_matches_brute_force_hull(self):
        # dual route: optimized facet enumeration vs hull of pairwise sums
        rng = random.Random(6)
        for dim in (2, 3):
            for _ in range(6):
                a = random_polytope(rng, dim, 5)
                b = random_polytope(rng, dim, 5)
                fast = minkowski_sum(a, b)
                brute = build_hull([tuple(x + y for x, y in zip(u, v))
                                    for u in a.vertices for v in b.vertices])
                assert fast == brute
                assert {(f.normal, f.offset) for f in fast.facets} == \
                       {(f.normal, f.offset) for f in brute.facets}
                assert fast.volume == brute.volume


def measure_bodies(corpus):
    """Every corpus body, the dim-5 and dim-6 recipe bodies and the 5-cube,
    each followed by its image under one seeded affine map."""
    rng = random.Random(25)
    bodies = []
    for body in [body for _, body in corpus] + recipe_bodies() + [unit_cube(5)]:
        mat, shift = rng.choice(affine_maps(rng, body.dim))
        bodies += [body, image_of(body, mat, shift)[0]]
    return bodies


class TestVolumeAndCentroid:
    def test_unit_cube(self):
        cube = build_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert cube.volume == 1
        assert cube.centroid == (F(1, 2), F(1, 2), F(1, 2))

    def test_standard_3_simplex(self):
        s = build_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert s.volume == F(1, 6)
        assert s.centroid == (F(1, 4), F(1, 4), F(1, 4))

    def test_hexagon_volume_and_pyramid_identity(self):
        tri = build_hull(TRIANGLE)
        hexagon = minkowski_sum(tri, reflect(tri))
        assert hexagon.volume == 3
        # pyramid decomposition from the centroid, in scaled normal form
        c = hexagon.centroid
        total = sum((f.offset - dot(f.normal, c)) * f.measure
                    for f in hexagon.facets)
        assert total / hexagon.dim == hexagon.volume

    def test_divergence_identity(self, corpus):
        # n Vol = sum over facets of (b_F - w_F . c) mu_F, the pyramids from
        # the centroid c; the facet measures come from the fan kernel coned
        # from each facet's own apex, the volume from the cones at vertex 0
        for body in measure_bodies(corpus):
            c = body.centroid
            total = sum((f.offset - dot(f.normal, c)) * f.measure for f in body.facets)
            assert total == body.dim * body.volume

    def test_minkowski_relation(self, corpus):
        # sum over facets of mu_F * w_F vanishes for every closed polytope
        tri = build_hull(TRIANGLE)
        bodies = measure_bodies(corpus)
        bodies += [standard_simplex(n) for n in (2, 3, 4)]
        bodies += [unit_cube(n) for n in (2, 3, 4)]
        bodies += [minkowski_sum(tri, reflect(tri)),
                   minkowski_sum(unit_cube(3), reflect(standard_simplex(3)))]
        for body in bodies:
            for c in range(body.dim):
                assert sum(f.measure * f.normal[c] for f in body.facets) == 0

    def test_triangle_centroid(self):
        assert build_hull(TRIANGLE).centroid == (F(1, 3), F(1, 3))

    def test_square_centroid(self):
        assert build_hull(SQUARE).centroid == (F(1, 2), F(1, 2))

    def test_simplex_centroid_is_vertex_average(self):
        rng = random.Random(7)
        for dim in (2, 3, 4):
            while True:
                pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                             for _ in range(dim)) for _ in range(dim + 1)]
                try:
                    body = build_hull(pts)
                except DegenerateInput:
                    continue
                if len(body.vertices) == dim + 1:
                    break
            avg = tuple(sum(v[c] for v in body.vertices) / (dim + 1)
                        for c in range(dim))
            assert body.centroid == avg

    def test_pyramid_identity_random(self):
        rng = random.Random(8)
        for dim in (2, 3, 4):
            body = random_polytope(rng, dim, dim + 4)
            c = body.centroid
            total = sum((f.offset - dot(f.normal, c)) * f.measure
                        for f in body.facets)
            assert total / dim == body.volume

    def test_polygon_area_matches_shoelace(self):
        rng = random.Random(9)
        for _ in range(20):
            body = random_polytope(rng, 2, 7)
            assert body.volume == polygon_area(body)


class TestIncludes:
    def test_examples(self):
        sq = build_hull(SQUARE)
        centered = translate(sq, (F(-1, 2), F(-1, 2)))
        assert includes(scale(centered, 2), centered)
        assert not includes(centered, scale(centered, 2))

    def test_centered_triangle_in_double(self):
        # vertices of -K0 from the hand computation
        tri = build_hull(TRIANGLE)
        k0 = translate(tri, (F(-1, 3), F(-1, 3)))
        neg = reflect(k0)
        assert set(neg.vertices) == {(F(1, 3), F(1, 3)), (F(-2, 3), F(1, 3)),
                                     (F(1, 3), F(-2, 3))}
        outer = scale(k0, 2)
        assert includes(outer, neg)
        # every facet inequality of 2K0 is tight at some vertex of -K0
        for f in outer.facets:
            assert max(dot(f.normal, v) for v in neg.vertices) == f.offset

    def test_agrees_with_membership_sampling(self):
        rng = random.Random(10)
        for _ in range(6):
            a = random_polytope(rng, 2, 6)
            b = random_polytope(rng, 2, 6)
            if includes(a, b):
                assert all(contains_point(a, p)
                           for p in rational_points_in(b, 1000, rng))
            else:
                assert any(not contains_point(a, v) for v in b.vertices)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            includes(build_hull(SQUARE),
                     build_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def square_times_octahedron() -> Polytope:
    """The dim-5 product of the unit square and the unit octahedron, built
    from its known facets."""
    octahedron = [tuple(s * (k == j) for k in range(3))
                  for j in range(3) for s in (1, -1)]
    pts = [p + q for p in SQUARE for q in octahedron]
    normals = [tuple(s * (k == j) for k in range(5))
               for j in (0, 1) for s in (1, -1)]
    normals += [(0, 0) + signs for signs in product((1, -1), repeat=3)]
    raw = []
    for w in normals:
        vals = [sum(x * y for x, y in zip(w, p)) for p in pts]
        top = max(vals)
        raw.append((w, top, tuple(i for i, v in enumerate(vals) if v == top)))
    return geometry._from_lattice(pts, 1, raw)


class TestEdges:
    def test_cube_edges(self):
        cube = build_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert len(edges(cube)) == 12
        assert edge_directions(cube) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_simplex_edges_complete_graph(self):
        s = build_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert sorted(edges(s)) == sorted(combinations(range(4), 2))

    def test_segment(self):
        # in dim 1 the one edge is the body itself, on no common facet
        assert edges(build_hull([(F(-1, 2),), (3,), (1,)])) == [(0, 1)]

    def test_square_diagonals_in_dim_5(self):
        # Up to dim 4, two vertices on n-1 common facets always span an edge.
        # In square x octahedron, square x {v} is a 2-face on the 4 facets
        # square x (facet through v), so its diagonals share n-1 facets but
        # are no edges.
        body = square_times_octahedron()
        assert len(body.vertices) == 24
        assert len(edges(body)) == 4 * 6 + 4 * 12
        assert edges(body) == rank_edges(body)


# The facet re-hull route that the incidence route replaced.  Each facet is
# hulled again by brute force in the coordinate projection that drops its
# largest normal component, triangulated there by recursive pulling, and
# measured as the projected area over |w_k|.  Kept as the oracle of
# ``geometry._from_lattice``.

def _triangulate_points(pts, d):
    """Pulling triangulation of conv(pts) from pts[0], as index tuples."""
    if d == 1:
        xs = [p[0] for p in pts]
        return [(xs.index(min(xs)), xs.index(max(xs)))]
    simplices = []
    for w, b, ids in _hull_facets_int(pts, d):
        if 0 in ids:
            continue
        k = max(range(d), key=lambda i: abs(w[i]))
        sub = [tuple(pts[i][c] for c in range(d) if c != k) for i in ids]
        for s in _triangulate_points(sub, d - 1):
            simplices.append((0,) + tuple(ids[i] for i in s))
    return simplices


def rehull_assemble(dim, vertices, facet_specs):
    """The body on the Fraction ``vertices`` with the facets (normal, offset,
    vertex ids) of ``facet_specs``, every quantity eager: Fraction facet
    offsets and measures, volume and centroid."""
    ipts, mult = scale_to_integers(vertices)
    facets = []
    fan = []
    fact = factorial(dim - 1)
    for w, b, vids in sorted(facet_specs):
        k = max(range(dim), key=lambda i: abs(w[i]))
        sub = [tuple(ipts[i][c] for c in range(dim) if c != k) for i in vids]
        tri = _triangulate_points(sub, dim - 1)
        raw = sum(simplex_int_volume(sub, s, dim - 1) for s in tri)
        facets.append(SimpleNamespace(
            normal=w, offset=b, vertex_ids=vids,
            measure=F(raw, fact * mult ** (dim - 1) * abs(w[k]))))
        if 0 not in vids:
            fan.extend((0,) + tuple(vids[i] for i in s) for s in tri)
    total = F(0)
    cx = [F(0)] * dim
    dets = [simplex_int_volume(ipts, s, dim) for s in fan]
    for s, raw in zip(fan, dets):
        v = F(raw, factorial(dim) * mult ** dim)
        total += v
        for c in range(dim):
            cx[c] += v * sum(vertices[i][c] for i in s)
    centroid = tuple(x / (total * (dim + 1)) for x in cx)
    return SimpleNamespace(dim=dim, vertices=vertices, facets=tuple(facets),
                           volume=total, centroid=centroid, _simplices=tuple(fan),
                           _fan_volumes=tuple(dets), _int_vertices=ipts,
                           _int_scale=mult)


def facet_data(body):
    return [(f.normal, f.offset, f.vertex_ids, f.measure) for f in body.facets]


def assert_fan_volumes(body):
    assert list(body._fan_volumes) == [
        simplex_int_volume(body._int_vertices, s, body.dim) for s in body._simplices]


def fan_by_simplex(body):
    return {frozenset(s): v for s, v in zip(body._simplices, body._fan_volumes)}


def assert_matches_rehull(body):
    specs = [(f.normal, f.offset, f.vertex_ids) for f in body.facets]
    old = rehull_assemble(body.dim, body.vertices, specs)
    assert old.vertices == body.vertices
    assert old._int_vertices == body._int_vertices
    assert old._int_scale == body._int_scale
    assert facet_data(old) == facet_data(body)
    assert old.volume == body.volume
    assert old.centroid == body.centroid
    assert fan_by_simplex(old) == fan_by_simplex(body)
    assert len(old._simplices) == len(body._simplices)


def oracle_bodies(step):
    """Every step-th corpus body, its K + (-K) and K + next sums, and the
    standard bodies, all built afresh."""
    specs = corpus_specs()
    picked = [generate(spec) for spec in specs[::step]]
    nexts = [generate(spec) for spec in specs[1::step]]
    bodies = list(picked)
    for body, nxt in zip(picked, nexts):
        bodies.append(minkowski_sum(body, reflect(body)))
        if nxt.dim == body.dim:
            bodies.append(minkowski_sum(body, nxt))
    for n in (2, 3, 4):
        bodies += [unit_cube(n), cross_polytope(n), standard_simplex(n)]
    return bodies


# The rank rules that the incidence rules replaced, kept as the oracles of
# the vertex test in ``_from_lattice`` and of ``conftest.edges``: a candidate
# point is a vertex iff the normals of its facets have rank n, and two
# vertices span an edge iff the normals of their common facets have rank n - 1.

def rank_vertices(ipts, raw_facets):
    n = len(ipts[0])
    normals = [[] for _ in ipts]
    for w, _, ids in raw_facets:
        for i in ids:
            normals[i].append(w)
    return [i for i, ws in enumerate(normals)
            if len(ws) >= n and fraction_rank(ws) == n]


def rank_edges(body):
    n = body.dim
    incident = [set() for _ in body.vertices]
    for fi, f in enumerate(body.facets):
        for v in f.vertex_ids:
            incident[v].add(fi)
    pairs = []
    for i, j in combinations(range(len(body.vertices)), 2):
        common = incident[i] & incident[j]
        if len(common) >= n - 1 and \
                fraction_rank([body.facets[fi].normal for fi in common]) == n - 1:
            pairs.append((i, j))
    return pairs


# Oracles of ``conftest.face_lattice``: edges by vertex pairs, ridges by
# facet pairs, and the faces of dimensions 2 to n - 3 by a descent of their
# own through the levels below the facets.

def pair_edges(body):
    """Vertex pairs whose (at least n-1) common facets share no other vertex."""
    faces = [frozenset(f.vertex_ids) for f in body.facets]
    everything = frozenset(range(len(body.vertices)))
    pairs = []
    for i, j in combinations(range(len(body.vertices)), 2):
        common = [f for f in faces if i in f and j in f]
        if len(common) >= body.dim - 1 and everything.intersection(*common) == {i, j}:
            pairs.append((i, j))
    return pairs


def pair_ridges(body):
    """Facet index pairs whose common vertex set has at least n - 1 vertices
    and lies in no third facet (a smaller face lies in at least three)."""
    faces = [frozenset(f.vertex_ids) for f in body.facets]
    pairs = []
    for a, b in combinations(range(len(faces)), 2):
        common = faces[a] & faces[b]
        if len(common) >= body.dim - 1 and sum(common <= f for f in faces) == 2:
            pairs.append((a, b))
    return pairs


def descent_faces(body):
    """The sorted vertex ids of the faces of each dimension 2 to n - 3, each
    level the inclusion-maximal proper intersections of the level above with
    the facets."""
    facets = [frozenset(f.vertex_ids) for f in body.facets]
    level = set(facets)
    faces = {}
    for d in range(body.dim - 2, 1, -1):
        below = set()
        for g in level:
            subs = {g & f for f in facets}
            subs.discard(g)
            below.update(h for h in subs if not any(h < k for k in subs))
        if d <= body.dim - 3:
            faces[d] = sorted(tuple(sorted(h)) for h in below)
        level = below
    return faces


def f_vector(body):
    return [len(level) for level in face_lattice(body)]


def recipe_bodies():
    """The dim-5 and dim-6 recipe bodies: random_hull, V = 8, denominator
    bound 2, seeds 1-3."""
    return [generate(GenSpec("random_hull", dim, vertex_count=8, seed=seed,
                             denominator_bound=2))
            for dim in (5, 6) for seed in (1, 2, 3)]


class TestFaceLattice:
    def test_matches_incidence_oracles(self, corpus):
        rng = random.Random(18)
        bodies = [square_times_octahedron()] + recipe_bodies()[:3]
        for _, body in corpus:
            bodies += [body] + [image_of(body, mat, shift)[0]
                                for mat, shift in affine_maps(rng, body.dim)]
        assert len(bodies) == 4 + 300 * 7
        for body in bodies:
            lattice = face_lattice(body)
            assert list(lattice[1]) == pair_edges(body)
            assert sorted(lattice[body.dim - 2].values()) == pair_ridges(body)
            assert {d: list(lattice[d]) for d in range(2, body.dim - 2)} == \
                descent_faces(body)

    def test_f_vectors(self):
        for n in (2, 3, 4, 5):
            assert f_vector(cross_polytope(n)) == \
                [2 ** (d + 1) * comb(n, d + 1) for d in range(n)] + [1]
            assert f_vector(standard_simplex(n)) == [comb(n + 1, d + 1) for d in range(n + 1)]
            assert f_vector(unit_cube(n)) == [comb(n, d) * 2 ** (n - d) for d in range(n + 1)]

    def test_euler_poincare(self, corpus):
        bodies = [body for _, body in corpus] + [square_times_octahedron()]
        for body in bodies:
            n = body.dim
            f = f_vector(body)
            assert f[n] == 1
            assert sum((-1) ** d * f[d] for d in range(n)) == 1 - (-1) ** n


def lattice_calls(monkeypatch, build):
    """Run ``build`` and return each ``_from_lattice`` call it made, as
    (candidate points, lattice scale, raw facets, resulting body)."""
    calls = []
    from_lattice = geometry._from_lattice

    def recording(ipts, mult, raw_facets):
        body = from_lattice(ipts, mult, raw_facets)
        calls.append((ipts, mult, raw_facets, body))
        return body

    monkeypatch.setattr(geometry, "_from_lattice", recording)
    build()
    return calls


def assert_matches_rank_rules(calls):
    for ipts, mult, raw_facets, body in calls:
        kept = rank_vertices(ipts, raw_facets)
        assert body.vertices == tuple(tuple(F(c, mult) for c in ipts[i])
                                      for i in kept)
        assert edges(body) == rank_edges(body)


class TestIncidenceAssembly:
    def test_facets_that_close_no_polytope_raise(self):
        # the unit cube's facets without its z caps: each point keeps only
        # its two side facets, so no point passes as a vertex
        ipts = list(unit_cube(3)._int_vertices)
        raw = _hull_facets_int(ipts, 3)
        sides = [f for f in raw if f[0][2] == 0]
        assert len(sides) == 4
        with pytest.raises(DegenerateInput, match="fewer than n"):
            geometry._from_lattice(ipts, 1, sides)
        # all six facets and a seventh through one vertex alone: every point
        # stays a vertex, but the seventh facet has one of them, not three
        corner = ((1, 1, 1), 3, (ipts.index((1, 1, 1)),))
        with pytest.raises(DegenerateInput, match="fewer than n"):
            geometry._from_lattice(ipts, 1, raw + [corner])
        assert geometry._from_lattice(ipts, 1, raw) == unit_cube(3)

    def test_facet_lists_missing_a_facet_raise(self, corpus):
        # drop each facet of the first 30 corpus bodies per dimension in
        # turn: 309 of the 657 lists pass the vertex and facet-size tests,
        # and only Minkowski's relation refuses them
        drops = by_minkowski = 0
        for n in (2, 3, 4):
            for _, body in [c for c in corpus if c[0].dim == n][:30]:
                ipts = list(body._int_vertices)
                raw = _hull_facets_int(ipts, n)
                for k in range(len(raw)):
                    with pytest.raises(DegenerateInput) as err:
                        geometry._from_lattice(ipts, body._int_scale, raw[:k] + raw[k + 1:])
                    drops += 1
                    by_minkowski += "Minkowski" in str(err.value)
        assert (drops, by_minkowski) == (657, 309)

    def test_facet_lists_with_an_inward_normal_raise(self, corpus):
        # a flipped normal flips its measure too, so mu_F w_F and Minkowski's
        # relation stay as they were; the facet's height above its apex
        # turns negative instead.  The unit cube with its x = 0 facet
        # flipped built a body equal to unit_cube(3) with a measure of -1
        ipts = list(unit_cube(3)._int_vertices)
        raw = _hull_facets_int(ipts, 3)
        k = next(i for i, (w, _, _) in enumerate(raw) if w == (-1, 0, 0))
        flipped = raw[:k] + [((1, 0, 0), 0, raw[k][2])] + raw[k + 1:]
        with pytest.raises(DegenerateInput, match="does not point outward"):
            geometry._from_lattice(ipts, 1, flipped)
        # every facet of the first 10 corpus bodies per dimension, in turn
        for n in (2, 3, 4):
            for _, body in [c for c in corpus if c[0].dim == n][:10]:
                ipts = list(body._int_vertices)
                raw = _hull_facets_int(ipts, n)
                for k, (w, b, ids) in enumerate(raw):
                    flip = (tuple(-c for c in w), -b, ids)
                    with pytest.raises(DegenerateInput, match="does not point outward"):
                        geometry._from_lattice(ipts, body._int_scale,
                                               raw[:k] + [flip] + raw[k + 1:])

    def test_matches_facet_rehull(self):
        for body in oracle_bodies(20):
            assert_matches_rehull(body)

    def test_matches_rank_rules(self, monkeypatch):
        # sum candidates are all pairwise vertex sums, some of them inside
        # faces, where the two rules could part
        calls = lattice_calls(monkeypatch, lambda: oracle_bodies(20))
        assert len(calls) > 50
        on_faces = sum(len({i for *_, ids in raw for i in ids}) - len(body.vertices)
                       for _, _, raw, body in calls)
        assert on_faces > 40
        assert_matches_rank_rules(calls)

    def test_fan_volumes_match_recompute(self, corpus):
        # the volumes _from_lattice carries, and their images under transform,
        # which shrinks the lattice for scale(K, 3/7) and the centered bodies
        for _, body in corpus:
            n = body.dim
            shear = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                shear[i][n - 1] = F(2 * i - 1, 3)
            shift = tuple(F((-1) ** k * (k + 1), 7) for k in range(n))
            for image in (body, reflect(body), center_at_centroid(body),
                          scale(body, F(3, 7)), transform(body, shear, shift)):
                assert_fan_volumes(image)

    def test_lattice_coarsens_to_the_vertices(self):
        # a candidate point off the vertices' lattice, and a sum of bodies on
        # the half-integer lattice whose vertices are integral
        tri = build_hull([(0, 0), (2, 0), (0, 2), (F(1, 2), F(1, 2))])
        assert tri._int_vertices == [(0, 0), (0, 2), (2, 0)] and tri._int_scale == 1
        half = build_hull([(0, 0), (F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2))])
        whole = minkowski_sum(half, half)
        assert whole._int_vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert whole._int_scale == 1

    def test_interval(self):
        seg = build_hull([(F(-1, 2),), (3,), (1,)])
        assert seg.vertices == ((F(-1, 2),), (F(3),))
        assert [f.measure for f in seg.facets] == [1, 1]
        assert seg.volume == F(7, 2) and seg.centroid == (F(5, 4),)


def recursive_pulling_fan(face, cands):
    """The pulling triangulation with every proper intersection kept as a
    candidate at each step and its facets found by pairwise inclusion, as
    ``_pulling_fan`` made it before it kept the facets alone."""
    if len(face) == 1:
        return [tuple(face)]
    subs = {face & c for c in cands}
    subs.discard(face)
    top = min(face)
    return [(top,) + s
            for g in subs if top not in g and not any(g < h for h in subs)
            for s in recursive_pulling_fan(g, subs)]


def cayley_rows(K, L):
    """The rows of the cone over the Cayley polytope of K and L, as
    ``_cayley_mixed_volumes`` builds them: (p, 0, 1) for the vertices p of
    K, then (q, m, 1) for those of L, on their common lattice m."""
    m, ps, qs = fan._common_lattice(K, L)
    return [p + (0, 1) for p in ps] + [q + (m, 1) for q in qs]


def cayley_faces(K, L):
    """The facets of the Cayley polytope of K and L as vertex-id bitmasks,
    the vertices of L numbered after those of K."""
    return [tight for _, tight in _cone_rays(cayley_rows(K, L))]


def fan_families(corpus):
    """(points, facet bitmasks) of every 5th corpus body, of two dim-5
    recipe bodies, and of the Cayley polytopes of (K, -K) and of (K, next
    body) for consecutive ones of equal dimension."""
    bodies = [body for _, body in corpus[::5]] + recipe_bodies()[:2]
    families = [(body._int_vertices, [sum(1 << i for i in f.vertex_ids) for f in body.facets])
                for body in bodies]
    for body, nxt in zip(bodies, bodies[1:]):
        pairs = [(body, reflect(body))] + [(body, nxt)] * (nxt.dim == body.dim)
        families += [([r[:-1] for r in cayley_rows(K, L)], cayley_faces(K, L))
                     for K, L in pairs]
    return families


def prism(body):
    """body x [0, 1]: its facets other than the two ends are prisms over the
    body's facets, and no prism is a simplex."""
    return build_hull([v + (z,) for v in body.vertices for z in (0, 1)])


def lowest_off(face: int) -> int:
    """The lowest vertex id not in the bitmask ``face``."""
    return next(i for i in range(face.bit_length() + 1) if not face >> i & 1)


class TestPullingFan:
    def test_matches_recursive_oracle(self, corpus):
        # each facet coned from its lowest vertex off it: the simplices are
        # those of both frozenset routes, each with its own determinant
        families = fan_families(corpus)
        simplices = 0
        for pts, faces in families:
            sets = [frozenset(dd._ids(f)) for f in faces]
            for face, fset in zip(faces, sets):
                apex = lowest_off(face)
                got = fan._pulling_fan(face, faces, fan._relative_rows(pts, apex))
                ids = [dd._ids(s) for s, _ in got]
                assert len(ids) == len(set(ids))
                assert set(ids) == set(recursive_pulling_fan(fset, sets))
                assert sorted(ids) == sorted(frozenset_pulling_fan(fset, sets))
                assert [v for _, v in got] == [
                    simplex_int_volume(pts, (apex,) + s, len(pts[0])) for s in ids]
                simplices += len(got)
        assert len(families) > 180 and simplices > 5000

    def test_matches_the_chain_oracle_on_every_call(self, monkeypatch):
        # every top-level call made while building the bodies and their
        # Cayley fans returns the row-by-row chain's pairs in its order; the
        # nested calls reach simplices under faces that are not simplices
        kernel = fan._pulling_fan
        kinds = Counter()

        def checked(face, cands, rows, above=0):
            got = kernel(face, cands, rows, above)
            if not above:
                assert got == chain_pulling_fan(face, cands, rows)
            kinds[(above | face).bit_count() == len(rows[0]), bool(above)] += 1
            return got

        # the bodies' fans call it through geometry's own import of it
        for module in (fan, geometry):
            monkeypatch.setattr(module, "_pulling_fan", checked)
        corpus = [generate(spec) for spec in corpus_specs()]
        # the prisms bring faces that are not simplices below the Cayley
        # fans' top level, where n-entry rows leave few of them
        bodies = (corpus + recipe_bodies() + lattice_grid_bodies(40, 10)
                  + [make(n) for make in (standard_simplex, unit_cube, cross_polytope)
                     for n in (2, 3, 4, 5)]
                  + [prism(body) for body in corpus[::20]])
        for body, nxt in zip(bodies, bodies[1:] + bodies[:1]):
            fan._cayley_mixed_volumes(body, reflect(body))
            if nxt.dim == body.dim:
                fan._cayley_mixed_volumes(body, nxt)
        assert kinds[True, True] > 1000 and kinds[False, True] > 1000
        assert kinds[True, False] > 10000 and kinds[False, False] > 1000

    def test_cayley_fan_matches_the_single_apex_oracle(self, corpus, monkeypatch):
        # coned from each facet's lowest L-end vertex, the fan's n x n
        # determinants over n! m^n give the profile of the single-apex
        # route's (n+1) x (n+1) ones over n! m^(n+1), for (K, -K) and
        # (K, next body); no elimination is wider than n
        echelon = fan._echelon
        widths = set()

        def recording(rows):
            widths.add((len(rows), len(rows[0])))
            return echelon(rows)

        bodies = ([body for _, body in corpus] + recipe_bodies()
                  + lattice_grid_bodies(40, 10)
                  + [make(n) for make in (standard_simplex, unit_cube, cross_polytope)
                     for n in (2, 3, 4, 5)])
        pairs = profile_pairs(bodies)
        for K, L in pairs:
            n = K.dim
            monkeypatch.setattr(fan, "_echelon", recording)
            got = MixedVolumeProfile(n, *fan._cayley_mixed_volumes(K, L))
            monkeypatch.setattr(fan, "_echelon", echelon)
            assert got == MixedVolumeProfile(n, *single_apex_mixed_volumes(K, L))
            assert all(k == w <= n for k, w in widths)
            widths.clear()
        assert len(pairs) > 650

    def test_any_apex_off_the_face(self, corpus):
        # the fan of a facet does not depend on its apex, and from every
        # apex off the facet each cone has its own determinant
        for pts, faces in fan_families(corpus)[::7]:
            for face in faces:
                fans = {}
                for apex in range(len(pts)):
                    if not face >> apex & 1:
                        got = fan._pulling_fan(face, faces,
                                               fan._relative_rows(pts, apex))
                        fans[apex] = got
                        assert [v for _, v in got] == [
                            simplex_int_volume(pts, (apex,) + dd._ids(s), len(pts[0]))
                            for s, _ in got]
                assert len({tuple(s for s, _ in got) for got in fans.values()}) == 1

    def test_no_determinant_taken(self, corpus, monkeypatch):
        bodies = [body for _, body in corpus[::3]]
        expected = [(facet_data(body), body._simplices, body._fan_volumes,
                     fan._cayley_mixed_volumes(body, reflect(body)))
                    for body in bodies]

        assert not any(hasattr(module, "int_det") for module in package_modules())
        for body, (facets, simplices, dets, mixed) in zip(bodies, expected):
            built = build_hull(body.vertices)
            assert (facet_data(built), built._simplices, built._fan_volumes) == \
                (facets, simplices, dets)
            assert fan._cayley_mixed_volumes(body, reflect(body)) == mixed

    @pytest.mark.parametrize("pts, face, cands", [
        # the leaf's row is parallel to its parent's
        ([(0, 0), (1, 1), (2, 2)], 0b110, [0b110, 0b010, 0b100]),
        # a level above the leaf reduces to zero
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], 0b1110,
         [0b1110, 0b0110, 0b1100, 0b1010]),
        # not a simplex, so its facets are searched before the leaf
        ([(0, 0), (1, 1), (2, 2), (3, 3)], 0b1110,
         [0b1110, 0b0110, 0b1100, 0b0010, 0b0100, 0b1000]),
    ])
    def test_degenerate_face_raises(self, pts, face, cands):
        with pytest.raises(DegenerateInput, match="fan simplex is degenerate"):
            fan._pulling_fan(face, cands, fan._relative_rows(pts, 0))


def affine_maps(rng, n):
    """(A, t) pairs: cI with rational c > 0 and c < 0, a signed permutation,
    an integer matrix with |det| > 1 and a rational matrix, each with a
    rational shift, then the plain reflection."""
    def shift():
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))

    def draw(entry, accept):
        while True:
            mat = [[entry() for _ in range(n)] for _ in range(n)]
            if accept(det(mat)):
                return mat

    maps = []
    for sign in (1, -1):
        c = sign * F(rng.randint(1, 9), rng.randint(2, 5))
        maps.append([[c if i == j else 0 for j in range(n)] for i in range(n)])
    perm = rng.sample(range(n), n)
    maps.append([[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)]
                 for i in range(n)])
    maps.append(draw(lambda: rng.randint(-3, 3), lambda d: abs(d) > 1))
    maps.append(draw(lambda: F(rng.randint(-3, 3), rng.randint(1, 4)),
                     lambda d: d != 0 and d.denominator > 1))
    return [(mat, shift()) for mat in maps] + [(None, None)]


def image_of(body, mat, shift):
    if mat is None:
        return reflect(body), [tuple(-c for c in v) for v in body.vertices]
    n = body.dim
    pts = [tuple(sum(mat[r][c] * v[c] for c in range(n)) + shift[r] for r in range(n))
           for v in body.vertices]
    return transform(body, mat, shift), pts


# Bodies hold integer data; their Fraction quantities are views made on
# first read.  The eager oracle builds each view from the lattice data alone:
# the vertices as Fraction(c, scale), the volume and centroid from the fan in
# Fractions, and the facet offsets and measures by ``rehull_assemble``.

def eager_views(body):
    n, m = body.dim, body._int_scale
    vertices = tuple(tuple(F(c, m) for c in p) for p in body._int_vertices)
    vols = [F(v, factorial(n) * m ** n) for v in body._fan_volumes]
    volume = sum(vols, F(0))
    centroid = tuple(
        sum((v * sum(vertices[i][c] for i in s) for s, v in zip(body._simplices, vols)), F(0))
        / (volume * (n + 1))
        for c in range(n))
    specs = [(f.normal, dot(f.normal, vertices[f.vertex_ids[0]]), f.vertex_ids)
             for f in body.facets]
    return vertices, volume, centroid, facet_data(rehull_assemble(n, vertices, specs))


class TestIntegerBodies:
    def test_views_match_eager_oracle(self, corpus):
        rng = random.Random(19)
        count = 0
        for _, body in corpus:
            images = [body, center_at_centroid(body)]
            images += [image_of(body, mat, shift)[0] for mat, shift in affine_maps(rng, body.dim)]
            for image in images:
                got = (image.vertices, image.volume, image.centroid, facet_data(image))
                assert got == eager_views(image)
                count += 1
        assert count == 300 * 8

    def test_no_fraction_until_a_view_is_read(self, monkeypatch):
        body = generate(GenSpec("random_hull", 3, 7, seed=30_004, denominator_bound=3))
        rational = [tuple(F(c, body._int_scale) for c in p) for p in body._int_vertices]
        ipts, mult = scale_to_integers(rational)
        raw = _hull_facets_int(ipts, 3)
        made = count_fractions(monkeypatch)
        assert scale_to_integers(rational) == (ipts, mult)
        assert scale_to_integers([(1, -2, 3)]) == ([(1, -2, 3)], 1)
        bodies = [geometry._from_lattice(ipts, mult, raw), reflect(body), scale(body, 3),
                  translate(body, (1, -2, 3)),
                  transform(body, [[1, 2, 0], [0, 1, 0], [-1, 0, 3]], (0, 4, -1))]
        assert made == []
        for image in bodies:
            image.vertices, image.volume, image.centroid
            [(f.offset, f.measure) for f in image.facets]
        assert made
        # each view is made once and kept
        seen = len(made)
        for image in bodies:
            image.vertices, image.volume, image.centroid
            [(f.offset, f.measure) for f in image.facets]
        assert len(made) == seen

    def test_rational_hull_input_makes_no_fraction(self, monkeypatch):
        # Fraction and int coordinates are read by their numerators and
        # denominators; only the views read afterwards make Fractions
        points = [(F(1, 2), 0, 0), (0, F(2, 3), 0), (0, 0, F(-5, 4)),
                  (1, 1, 1), (F(1, 5), F(1, 5), F(1, 5))]
        made = count_fractions(monkeypatch)
        body = build_hull(points)
        assert made == []
        assert body.vertices[0] == (0, 0, F(-5, 4))

    def test_translation_keeps_measure_pairs(self):
        # Ai = aI gives g = a^(n-1) for every facet, so nothing grows
        body = generate(GenSpec("random_hull", 4, 6, seed=40_002, denominator_bound=2))
        for image in (center_at_centroid(body), translate(body, (F(1, 7), 0, F(-2, 9), 3))):
            assert [(f._measure_num, f._measure_den) for f in image.facets] == \
                [(f._measure_num, f._measure_den) for f in body.facets]

    def test_equality_and_hash_read_the_lattice(self):
        body = build_hull(TRIANGLE)
        moved = translate(translate(body, (F(1, 3), 2)), (F(-1, 3), -2))
        assert moved == body and hash(moved) == hash(body)
        assert scale(body, 2) != body
        assert build_hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))]) != body
        assert moved.facets == body.facets


def relabelled_lattice(body, image, pts):
    """The face lattice of body with vertex i renamed to the index of pts[i]
    among the image's vertices, and each facet to the image facet on the
    renamed vertices."""
    new = {i: image.vertices.index(p) for i, p in enumerate(pts)}
    fids = {frozenset(f.vertex_ids): k for k, f in enumerate(image.facets)}
    fnew = {k: fids[frozenset(map(new.get, f.vertex_ids))]
            for k, f in enumerate(body.facets)}
    return [dict(sorted((tuple(sorted(map(new.get, face))),
                         tuple(sorted(map(fnew.get, on))))
                        for face, on in level.items()))
            for level in face_lattice(body)]


class TestReflect:
    def test_matches_rebuilt_hull(self, corpus):
        rng = random.Random(13)
        bodies = [body for _, body in corpus[::3]]
        bodies += [unit_cube(3), cross_polytope(3), standard_simplex(4)]
        for body in bodies:
            n = body.dim
            for mat, shift in affine_maps(rng, n):
                image, pts = image_of(body, mat, shift)
                rebuilt = build_hull(pts)
                assert image.vertices == rebuilt.vertices
                assert facet_data(image) == facet_data(rebuilt)
                assert image.volume == rebuilt.volume
                assert image.centroid == rebuilt.centroid
                assert image._int_vertices == rebuilt._int_vertices
                assert image._int_scale == rebuilt._int_scale
                # the face lattice is K's, relabelled
                assert face_lattice(image) == relabelled_lattice(body, image, pts)
                # the fan is K's, relabelled: a triangulation of the image
                assert_fan_volumes(image)
                assert F(sum(image._fan_volumes),
                         factorial(n) * image._int_scale ** n) == image.volume
                for f in image.facets:
                    assert section_profile(image, f.normal) == \
                        section_profile(rebuilt, f.normal)

    def test_negative_scalar_with_shift(self):
        body = random_polytope(random.Random(11), 3, 7)
        shift = (F(1, 2), F(-3), F(2, 7))
        image = transform(body, [[-2, 0, 0], [0, -2, 0], [0, 0, -2]], shift)
        rebuilt = build_hull([tuple(-2 * c + s for c, s in zip(v, shift))
                              for v in body.vertices])
        assert image.vertices == rebuilt.vertices
        assert facet_data(image) == facet_data(rebuilt)
        assert image.volume == 8 * body.volume
        assert image.centroid == rebuilt.centroid

    def test_no_solve_and_no_assembly(self, monkeypatch):
        body = random_polytope(random.Random(12), 3, 7)
        calls = []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapped)

        assert not hasattr(geometry, "solve_linear")
        assert not hasattr(linalg, "solve_linear")
        counting(geometry, "_from_lattice")
        reflect(body)
        scale(body, -1)
        translate(body, (F(1, 2), 0, F(-1, 3)))
        assert calls == []


# The per-subset routes kept as oracles of the double description kernel.
# The hull's oracle gives each d-subset of points its own cofactor normal.
# The oracle of the Cayley polytope's facets over K + L takes a candidate
# normal from every (n-1)-subset of the summands' edge directions; it gets
# them from ``span_normals``, which ``test_span_normals_match_cofactor_oracle``
# holds to the per-subset cofactors, and reads each candidate's summand faces
# by a separate argmax.

def subset_hull_facets(pts, d):
    tested = set()
    found = {}
    for subset in combinations(range(len(pts)), d):
        base = pts[subset[0]]
        rows = [tuple(pts[i][c] - base[c] for c in range(d)) for i in subset[1:]]
        w = normal_to_span(rows, d)
        if all(c == 0 for c in w):
            continue
        b = geometry._idot(w, base)
        key = (w, b) if lex_positive(w) == w else (tuple(-c for c in w), -b)
        if key in tested:
            continue
        tested.add(key)
        signs = {(geometry._idot(w, p) > b) - (geometry._idot(w, p) < b) for p in pts}
        if {1, -1} <= signs:
            continue
        if signs == {0}:
            raise DegenerateInput("points do not span the ambient space")
        if 1 in signs:
            w, b = tuple(-c for c in w), -b
        found[(w, b)] = tuple(i for i, p in enumerate(pts) if geometry._idot(w, p) == b)
    return sorted((w, b, ids) for (w, b), ids in found.items())


def subset_build_hull(points):
    uniq = sorted(set(tuple(F(c) for c in p) for p in points))
    ipts, mult = scale_to_integers(uniq)
    return geometry._from_lattice(ipts, mult, subset_hull_facets(ipts, len(uniq[0])))


def argmax_face(K, w):
    vals = [geometry._idot(w, p) for p in K._int_vertices]
    best = max(vals)
    return [i for i, x in enumerate(vals) if x == best]


def edge_directions(body):
    """Primitive integer edge directions, sign-normalized, deduplicated."""
    dirs = set()
    for i, j in edges(body):
        d = linalg.primitive(tuple(a - b for a, b in
                                   zip(body._int_vertices[i], body._int_vertices[j])))
        dirs.add(lex_positive(d))
    return sorted(dirs)


def subset_sum_facet_supports(K, L):
    """Sorted (u, ids of F_K(u), ids of F_L(u)) over the facet normals u of
    K + L, each candidate normal spanned by n - 1 edge directions."""
    n = K.dim
    dirs = sorted(set(edge_directions(K)) | set(edge_directions(L)))
    seen_lines = set()
    supports = []
    for w in span_normals(dirs, n) if n > 1 else [(1,)]:
        if all(c == 0 for c in w):
            continue
        line = lex_positive(w)
        if line in seen_lines:
            continue
        seen_lines.add(line)
        for cand in (line, tuple(-c for c in line)):
            face_k = argmax_face(K, cand)
            face_l = argmax_face(L, cand)
            rows = [tuple(a - b for a, b in zip(K._int_vertices[i], K._int_vertices[face_k[0]]))
                    for i in face_k[1:]]
            rows += [tuple(a - b for a, b in zip(L._int_vertices[i], L._int_vertices[face_l[0]]))
                     for i in face_l[1:]]
            if int_rank(rows) == n - 1:
                supports.append((cand, face_k, face_l))
    return sorted(supports)


def dd_sum_facet_supports(K, L):
    """Sorted (u, ids of F_K(u), ids of F_L(u)) over the facets of the
    Cayley polytope of K and L other than its two ends: u is the coprime
    part of the ray's first n entries, a facet normal of K + L."""
    n, vk = K.dim, len(K._int_vertices)
    supports = []
    for ray, tight in _cone_rays(cayley_rows(K, L)):
        if any(ray[:n]):
            ids = dd._ids(tight)
            supports.append((linalg.primitive(ray[:n]), [i for i in ids if i < vk],
                             [i - vk for i in ids if i >= vk]))
    return sorted(supports)


def subset_minkowski_sum(K, L):
    m, ps, qs = fan._common_lattice(K, L)
    facets = {u: geometry._idot(u, ps[ik[0]]) + geometry._idot(u, qs[il[0]])
              for u, ik, il in subset_sum_facet_supports(K, L)}
    sums = sorted({tuple(x + y for x, y in zip(p, q)) for p in ps for q in qs})
    raw_facets = []
    for w, offset in sorted(facets.items()):
        vals = [geometry._idot(w, p) for p in sums]
        assert max(vals) == offset
        raw_facets.append((w, offset, tuple(i for i, v in enumerate(vals) if v == offset)))
    return geometry._from_lattice(sums, m, raw_facets)


def assert_same_polytope(got, expected):
    assert got.vertices == expected.vertices
    assert facet_data(got) == facet_data(expected)
    assert got._simplices == expected._simplices
    assert got._fan_volumes == expected._fan_volumes
    assert got.volume == expected.volume
    assert got.centroid == expected.centroid


def subset_oracle_bodies(corpus):
    """Every 10th corpus body with the body after it, and, on their own, one
    dim-5 random_hull body and square x octahedron."""
    bodies = [body for _, body in corpus]
    pairs = [(bodies[i], bodies[i + 1]) for i in range(0, len(bodies) - 1, 10)]
    dim5 = generate(GenSpec("random_hull", 5, vertex_count=8, seed=1,
                            denominator_bound=2))
    return pairs, [dim5, square_times_octahedron()]


class TestSubsetOracles:
    def test_minkowski_sum_matches_subset_route(self, corpus):
        pairs, extra = subset_oracle_bodies(corpus)
        pairs = [(body, other) for body, nxt in pairs for other in (reflect(body), nxt)]
        pairs += [(body, reflect(body)) for body in extra]
        for body, other in pairs:
            assert_same_polytope(minkowski_sum(body, other),
                                 subset_minkowski_sum(body, other))

    def test_sum_facet_supports_matches_subset_route(self, corpus):
        # the mixed facets of the Cayley polytope, from the double
        # description kernel, against the edge-direction subsets
        pairs = []
        for n in (2, 3, 4, 5):
            standard = [cross_polytope(n), standard_simplex(n), unit_cube(n)]
            for body in standard:
                pairs += [(body, other) for other in standard if other is not body]
                pairs += [(body, reflect(other)) for other in standard]
        for _, body in corpus[::50]:
            n = body.dim
            shear = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                shear[i][n - 1] = F(2 * i - 1, 3)
            shift = tuple(F((-1) ** k * (k + 1), 7) for k in range(n))
            pairs += [(body, transform(body, shear, shift)), (body, scale(body, 2))]
        recipes = recipe_bodies()[:3]
        for body, nxt in zip(recipes, recipes[1:] + recipes[:1]):
            pairs += [(body, reflect(body)), (body, nxt)]
        for body, other in pairs:
            assert dd_sum_facet_supports(body, other) == \
                subset_sum_facet_supports(body, other)
        assert len(pairs) == 78

    def test_hull_matches_subset_route(self, corpus):
        _, extra = subset_oracle_bodies(corpus)
        rng = random.Random(17)
        clouds = [list(body.vertices) for _, body in corpus]
        clouds += [list(body.vertices) for body in extra + recipe_bodies()]
        # clouds with interior and coplanar points on a small grid
        for dim in (2, 3, 4, 5):
            for _ in range(24):
                clouds.append([tuple(F(rng.randint(-2, 2), rng.randint(1, 2))
                                     for _ in range(dim)) for _ in range(dim + 6)])
        clouds.append([(x, y, x + y) for x in range(3) for y in range(3)])
        built = 0
        for pts in clouds:
            try:
                expected = subset_build_hull(pts)
            except DegenerateInput:
                with pytest.raises(DegenerateInput):
                    build_hull(pts)
                continue
            assert_same_polytope(build_hull(pts), expected)
            built += 1
        assert built > 380


# The double description kernel.  Its rays and tight rows cannot depend on
# the order in which the rows after the seed are inserted.  The per-subset
# oracles above check the facets it gives; at dim 6, where the subset walk
# over edge directions is too slow, the hull of the pairwise vertex sums
# checks the Cayley facets.

def ray_set(rows, order):
    """The rays of ``rows`` taken in ``order``, with their tight rows named
    by their index in ``rows``."""
    return {(ray, frozenset(order[i] for i in dd._ids(tight)))
            for ray, tight in _cone_rays([rows[i] for i in order])}


def reordered_after_seed(rows, rng):
    """The seed rows first, in their order, and the other rows shuffled."""
    seed = _echelon(list(zip(*rows)))[1]
    rest = [i for i in range(len(rows)) if i not in seed]
    rng.shuffle(rest)
    return seed + rest


class TestConeRays:
    def test_row_order_after_the_seed(self, corpus):
        rng = random.Random(23)
        bodies = [body for _, body in corpus]
        recipes = recipe_bodies()
        inputs = [[p + (1,) for p in body._int_vertices] for body in bodies + recipes]
        for group in (bodies, recipes):
            for body, nxt in zip(group, group[1:] + group[:1]):
                inputs.append(cayley_rows(body, reflect(body)))
                if nxt.dim == body.dim:
                    inputs.append(cayley_rows(body, nxt))
        for rows in inputs:
            expected = ray_set(rows, list(range(len(rows))))
            for _ in range(2):
                assert ray_set(rows, reordered_after_seed(rows, rng)) == expected
        # 306 hulls, 597 corpus and 10 recipe Cayley polytopes
        assert len(inputs) == 913

    def test_seed_rays(self):
        # the simplex's seed rays are its facets: -x_j <= 0 and x1 + x2 <= 1
        rows = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
        assert sorted(_cone_rays(rows)) == [
            ((-1, 0, 0), 0b101), ((0, -1, 0), 0b011), ((1, 1, -1), 0b110)]

    def test_seed_decides_the_span(self, monkeypatch):
        # rows that do not span leave a seed pivot in the identity block:
        # coplanar points lifted to (p, 1) in R^4, and collinear points in
        # the plane through build_hull.  The hull path takes no rank, and
        # checks its facet bound before the span
        assert not any(hasattr(module, "int_rank") for module in package_modules())
        coplanar = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)]
        with pytest.raises(DegenerateInput, match=r"^points do not span R\^3$"):
            _cone_rays([p + (1,) for p in coplanar])
        collinear = [(0, 0), (1, 1), (2, 2), (3, 3)]
        with pytest.raises(DegenerateInput, match=r"^points do not span R\^2$"):
            build_hull(collinear)
        build_hull(SQUARE)
        build_hull(moment_curve(12, 4))
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "3")
        with pytest.raises(CombinatorialBlowup, match=r"hull of 4 points in R\^2"):
            build_hull(collinear)
        # fewer than k rows raise before the cap is read: the upper bound
        # theorem has no count for fewer than n + 1 points
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "0")
        with pytest.raises(DegenerateInput, match=r"^points do not span R\^2$"):
            build_hull([(0, 0)])
        with pytest.raises(DegenerateInput, match=r"^points do not span R\^4$"):
            _cone_rays([(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)])

    def test_recipe_cayley_facets_match_the_sum(self):
        # the mixed Cayley facets against the facets of K + L, hulled from
        # the pairwise vertex sums, with each summand face by argmax.  Both
        # sides run _cone_rays, on other rows: a consistency check of the
        # kernel, whose sum facets minkowski_sum checks against every sum
        recipes = recipe_bodies()
        for body, nxt in zip(recipes, recipes[1:] + recipes[:1]):
            for other in (reflect(body), nxt):
                if other.dim != body.dim:
                    continue
                expected = sorted((f.normal, argmax_face(body, f.normal),
                                   argmax_face(other, f.normal))
                                  for f in minkowski_sum(body, other).facets)
                assert dd_sum_facet_supports(body, other) == expected

    def test_bound_decides_adjacency_in_general_position(self, monkeypatch):
        # any 4 rows (p, 1) of the moment curve in R^3 are independent, so
        # every ray is simple, tight on k - 1 = 3 rows: every pair that
        # passes the bound is adjacent, and the kernel makes each of those
        # rays with no third-ray scan
        rows = [p + (1,) for p in moment_curve(40, 3)]
        expected, passed, rejected = scanning_cone_rays(rows)
        scans, made = [], []
        rays_on, primitive = dd._rays_on, dd.primitive
        monkeypatch.setattr(dd, "_rays_on",
                            lambda z, tights: scans.append(z) or rays_on(z, tights))
        monkeypatch.setattr(dd, "primitive",
                            lambda vec: made.append(vec) or primitive(vec))
        rays = _cone_rays(rows)
        assert rays == expected and len(rays) == 2 * (40 - 2)
        assert rejected == 0 and scans == []
        assert len(made) - 4 == passed > len(rays)

    def test_scan_rejects_pairs_on_a_prism(self, monkeypatch):
        # the Cayley polytope of the 4-cube and its reflection is a prism
        # over the cube, with no simplex facet: pairs of rays tight on k or
        # more rows each still take the scan, and it rejects the pairs that
        # share their k - 2 rows with a third ray, as the scan of every pair
        # that passes the bound does
        cube = unit_cube(4)
        rows = cayley_rows(cube, reflect(cube))
        expected, passed, rejected = scanning_cone_rays(rows)
        counts = []
        rays_on = dd._rays_on
        monkeypatch.setattr(dd, "_rays_on",
                            lambda z, tights: counts.append(rays_on(z, tights)) or counts[-1])
        rays = _cone_rays(rows)
        assert rays == expected and len(rays) == 2 + 8
        assert sum(c > 2 for c in counts) == rejected > 0
        assert len(counts) < passed

    def test_simple_rays_skip_only_adjacent_pairs(self, corpus):
        # the kernel against the scan of every pair that passes the bound:
        # the same (ray, tight) list, in the same order, on hulls and Cayley
        # polytopes of the corpus, the lattice-grid stratum and the fixed
        # kinds, where non-simplicial facets leave rays tight on k or more
        # rows
        bodies = [body for _, body in corpus]
        grid = lattice_grid_bodies(41, 10)
        fixed = [kind(n) for n in (2, 3, 4, 5)
                 for kind in (standard_simplex, unit_cube, cross_polytope)]
        inputs = []
        for group in (bodies, grid, fixed):
            for body, nxt in zip(group, group[1:] + group[:1]):
                inputs += [[p + (1,) for p in body._int_vertices],
                           cayley_rows(body, reflect(body))]
                if nxt.dim == body.dim:
                    inputs.append(cayley_rows(body, nxt))
        rejected = 0
        for rows in inputs:
            expected, _, r = scanning_cone_rays(rows)
            assert _cone_rays(rows) == expected
            rejected += r
        # 342 hulls, 342 (K, -K) and 332 (K, next) Cayley polytopes
        assert len(inputs) == 1016 and rejected > 0


def scanning_cone_rays(rows):
    """The double description kernel with the third-ray scan on every pair
    that passes the k - 2 bound, simple or not, as the oracle of the
    simple-ray rule: the (ray, tight) list, the pairs that passed the bound
    and the pairs that the scan rejected."""
    k = len(rows[0])
    seed, rays = dd._seed_rays(rows)
    full = sum(1 << i for i in seed)
    tights = [full ^ (1 << i) for i in seed]
    passed = rejected = 0
    for i, a in enumerate(rows):
        if i in seed:
            continue
        bit = 1 << i
        vals = [geometry._idot(a, r) for r in rays]
        new_rays, new_tights = [], []
        for p in (j for j, s in enumerate(vals) if s > 0):
            for q in (j for j, s in enumerate(vals) if s < 0):
                z = tights[p] & tights[q]
                if z.bit_count() < k - 2:
                    continue
                passed += 1
                if [t & z for t in tights].count(z) > 2:
                    rejected += 1
                    continue
                new_rays.append(linalg.primitive(
                    [vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p])]))
                new_tights.append(z | bit)
        keep = [j for j, s in enumerate(vals) if s <= 0]
        rays = [rays[j] for j in keep] + new_rays
        tights = [tights[j] | bit if vals[j] == 0 else tights[j] for j in keep] + new_tights
    return list(zip(rays, tights)), passed, rejected


# The seed of the double description kernel takes its adjugate from one
# elimination.  The cofactor route it replaced, k^2 minors of the seed rows B
# and -sign(det B) times the columns of adj(B), stays as the oracle seed.

def cofactor_seed_rays(rows):
    seed = _echelon(list(zip(*rows)))[1]
    basis = [rows[i] for i in seed]
    adj = cofactor_adjugate(basis)
    sign = -1 if geometry._idot(basis[0], [r[0] for r in adj]) > 0 else 1
    return seed, [linalg.primitive([sign * r[j] for r in adj]) for j in range(len(adj))]


def seed_inputs(corpus):
    """Rows of four sets: every 10th corpus body's hull and its (K, -K)
    Cayley polytope, the dim-5/6 recipe bodies' hulls and (K, -K), and the
    5-cube's."""
    bodies = [body for _, body in corpus[::10]]
    recipes = recipe_bodies()
    cube = [unit_cube(5)]
    return {name: [rows for body in group
                   for rows in ([p + (1,) for p in body._int_vertices],
                                cayley_rows(body, reflect(body)))]
            for name, group in (("corpus", bodies), ("recipes", recipes), ("cube", cube))}


class TestOneEliminationAdjugate:
    def test_cone_rays_match_the_cofactor_seed(self, corpus, monkeypatch):
        inputs = seed_inputs(corpus)
        expected = {name: [_cone_rays(rows) for rows in group]
                    for name, group in inputs.items()}
        seeds = []
        monkeypatch.setattr(dd, "_seed_rays",
                            lambda rows: seeds.append(rows) or cofactor_seed_rays(rows))
        for name, group in inputs.items():
            assert [_cone_rays(rows) for rows in group] == expected[name], name
        assert [len(group) for group in inputs.values()] == [60, 12, 2]
        assert seeds == [rows for group in inputs.values() for rows in group]

    def test_one_elimination_and_no_determinant(self, corpus, monkeypatch):
        inputs = [rows for group in seed_inputs(corpus).values() for rows in group]
        calls = []
        echelon = linalg._echelon

        def counted(rows):
            calls.append(len(rows))
            return echelon(rows)

        for module in (dd, geometry):
            monkeypatch.setattr(module, "_echelon", counted)
        assert not any(hasattr(module, "int_det") for module in package_modules())
        for rows in inputs:
            calls.clear()
            _cone_rays(rows)
            assert calls == [len(rows[0])]
        # a singular matrix is refused by one elimination of its n rows,
        # before the hull kernel runs
        cube = unit_cube(3)
        monkeypatch.setattr(geometry, "_lattice_hull", None)
        for mat in ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[F(1, 2), 1, 0], [1, 2, 0], [0, 0, 5]]):
            calls.clear()
            with pytest.raises(SingularMatrix, match="^transform matrix is singular$"):
                transform(cube, mat, (1, 0, 0))
            assert calls == [3]
