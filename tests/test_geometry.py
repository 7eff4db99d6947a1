import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from godbersen import (
    DegenerateInput,
    DimensionMismatch,
    SingularMatrix,
    ZeroDirection,
    build_hull,
    centroid,
    contains_point,
    includes,
    minkowski_sum,
    reflect,
    scale,
    standard_simplex,
    support,
    transform,
    translate,
    unit_cube,
    volume,
)
from godbersen.rationals import dot

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
        from godbersen.linalg import det

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

    def test_fast_and_general_paths_agree(self):
        rng = random.Random(4)
        body = random_polytope(rng, 3, 7)
        c, t = F(3, 2), (F(1, 3), F(-2), F(5, 7))
        fast = transform(body, [[c, 0, 0], [0, c, 0], [0, 0, c]], t)
        general = transform(body, [[c, 0, F(0)], [0, c, 0], [F(0), 0, c]], t)
        # force the general path with a non-scalar matrix times its inverse
        assert fast == general
        assert fast.volume == general.volume
        roundtrip = transform(transform(body, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                              [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert roundtrip == body


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

    def test_point_summand_translates(self):
        tri = build_hull(TRIANGLE)
        moved = minkowski_sum(tri, (F(2), F(-1)))
        assert moved == translate(tri, (2, -1))

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

    def test_minkowski_relation(self, corpus):
        # sum over facets of mu_F * w_F vanishes for every closed polytope
        tri = build_hull(TRIANGLE)
        bodies = [body for _, body in corpus]
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


class TestEdges:
    def test_cube_edges(self):
        cube = build_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert len(cube.edges()) == 12
        assert cube.edge_directions() == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_simplex_edges_complete_graph(self):
        s = build_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert sorted(s.edges()) == sorted(combinations(range(4), 2))
