import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from godbersen import (
    TheoremViolation,
    ZeroDirection,
    build_hull,
    center_at_centroid,
    directional_moment,
    reflect,
    scale,
    standard_simplex,
    support,
    tightness_profile,
    transform,
    translate,
    unit_cube,
)
from tests.conftest import centered_inclusion
from tests.test_geometry import TRIANGLE, SQUARE, random_polytope


def width(K, w):
    """h_K(w) + h_K(-w): the extent of K along w."""
    return support(K, w) + support(K, tuple(-c for c in w))


def cone_volume_identity(K) -> bool:
    """Whether every facet of the centroid-centered K has the cone volume
    (1/n) h_K0(u) mu = Vol(K) / (n+1), in the scaled normal form; it holds
    for every simplex."""
    k0 = center_at_centroid(K)
    n = K.dim
    return all(F(f.offset * f.measure, n) == k0.volume / (n + 1) for f in k0.facets)


def all_tight(profile):
    """Whether every row of the tightness profile is tight."""
    return all(e.tight for e in profile.entries)


class TestInclusion:
    def test_triangle_true_and_tight(self):
        tri = build_hull(TRIANGLE)
        assert centered_inclusion(tri)
        profile = tightness_profile(tri)
        assert profile.tight_count == 3 and all_tight(profile)

    def test_square_strict(self):
        sq = build_hull(SQUARE)
        assert centered_inclusion(sq)
        profile = tightness_profile(sq)
        assert profile.tight_count == 0
        for e in profile.entries:
            assert e.lhs == F(1, 2) and e.rhs == F(1)

    def test_simplex3_all_tight(self):
        profile = tightness_profile(standard_simplex(3))
        assert len(profile.entries) == 4 and all_tight(profile)

    def test_random_bodies(self):
        rng = random.Random(51)
        for dim in (2, 3):
            for _ in range(10):
                body = random_polytope(rng, dim, dim + 4)
                assert centered_inclusion(body)
                profile = tightness_profile(body)
                assert all(e.lhs <= e.rhs for e in profile.entries)

    def test_invariant_under_affine_maps(self):
        rng = random.Random(52)
        body = random_polytope(rng, 2, 6)
        for mat, shift in (
            ([[2, 1], [0, 1]], (3, -2)),
            ([[-1, 0], [0, -1]], (F(1, 2), F(1, 3))),
            ([[0, 1], [1, 0]], None),
        ):
            image = transform(body, mat, shift)
            assert centered_inclusion(image) and centered_inclusion(body)
            assert tightness_profile(image).tight_count == \
                tightness_profile(body).tight_count


class TestDirectionalMoment:
    def test_centered_square(self):
        assert directional_moment(build_hull(SQUARE), (1, 0)) == 0

    def test_centered_triangle_diagonal(self):
        assert directional_moment(build_hull(TRIANGLE), (1, 1)) == 0

    def test_uncentered_triangle_raw_moment(self):
        # oracle: the raw moment equals Vol(K) * (centroid . w); here
        # (1/2)(1/3) = 1/6, and centering shifts it to exactly zero
        tri = build_hull(TRIANGLE)
        raw = directional_moment(tri, (1, 0), center=False)
        assert raw == tri.volume * tri.centroid[0] == F(1, 6)
        assert directional_moment(tri, (1, 0)) == 0

    def test_zero_everywhere_on_random_bodies(self):
        rng = random.Random(53)
        for dim in (2, 3):
            for _ in range(6):
                body = random_polytope(rng, dim, dim + 3)
                for f in body.facets:
                    assert directional_moment(body, f.normal) == 0
                for _ in range(20):
                    w = tuple(rng.randint(-7, 7) for _ in range(dim))
                    if all(c == 0 for c in w):
                        continue
                    assert directional_moment(body, w) == 0

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            directional_moment(build_hull(SQUARE), (0, 0))


class TestWidth:
    def test_examples(self):
        sq = build_hull(SQUARE)
        assert width(sq, (1, 0)) == 1
        assert width(sq, (1, 1)) == 2
        assert width(build_hull(TRIANGLE), (1, 1)) == 1

    def test_translation_invariance_and_positivity(self):
        rng = random.Random(54)
        body = random_polytope(rng, 3, 6)
        moved = translate(body, (F(5), F(-7, 2), F(1, 3)))
        for _ in range(15):
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            if all(c == 0 for c in w):
                continue
            assert width(body, w) == width(moved, w) > 0


class TestEqualityCase:
    def test_all_tight_iff_simplex_on_samples(self):
        rng = random.Random(55)
        for dim in (2, 3):
            # simplices: all facets tight
            for _ in range(5):
                body = random_polytope(rng, dim, dim + 1)
                if len(body.vertices) != dim + 1:
                    continue
                assert all_tight(tightness_profile(body))
            # bodies with more vertices: at least one strict facet
            for _ in range(5):
                body = random_polytope(rng, dim, dim + 5)
                if len(body.vertices) == dim + 1:
                    continue
                assert not all_tight(tightness_profile(body))

    def test_all_tight_has_n_plus_1_facets(self):
        for n in (2, 3, 4):
            body = standard_simplex(n)
            profile = tightness_profile(body)
            assert all_tight(profile) and len(profile.entries) == n + 1

    @pytest.mark.parametrize("body, grow", [
        (standard_simplex(3), False), (unit_cube(2), True)], ids=["cut", "grown"])
    def test_row_that_disagrees_with_its_facet_raises(self, body, grow):
        # a row is tight exactly when its facet misses one vertex, so a tight
        # simplex row whose facet lost a vertex, or a strict square row whose
        # facet gained one, is a bug; every row still agrees on "all tight
        # exactly for a simplex"
        first = body.facets[0]
        ids = first.vertex_ids
        ids = ids + (min(set(range(len(body.vertices))) - set(ids)),) if grow else ids[1:]
        broken = replace(body, facets=(replace(first, vertex_ids=ids), *body.facets[1:]))
        message = f"^row {re.escape(str(first.normal))}: tight must mean its facet misses"
        with pytest.raises(TheoremViolation, match=message):
            tightness_profile(broken)

    def test_j1_gap_is_the_weighted_row_slack(self, corpus_results):
        # n Vol K - V(K[n-1], -K[1]) = (1/n) sum_F mu_F (rhs_F - lhs_F) by the
        # facet formula on the centered body; V(K[1], -K[n-1]) is the same
        # mixed volume, reflected
        for r in corpus_results:
            n = r.body.dim
            facets = r.body.facets
            assert [f.normal for f in facets] == [e.normal for e in r.tightness.entries]
            slack = sum(f.measure * (e.rhs - e.lhs)
                        for f, e in zip(facets, r.tightness.entries))
            assert n * r.report.volume - r.report.entry(1).mixed == slack / n

    def test_cone_volume_identity_for_simplices(self):
        rng = random.Random(56)
        assert cone_volume_identity(standard_simplex(2))
        assert cone_volume_identity(standard_simplex(3))
        body = random_polytope(rng, 3, 4)
        if len(body.vertices) == 4:
            assert cone_volume_identity(body)
        # the centered square's four cones have Vol / 4, not Vol / 3
        assert not cone_volume_identity(unit_cube(2))


def test_center_at_centroid():
    tri = build_hull(TRIANGLE)
    k0 = center_at_centroid(tri)
    assert k0.centroid == (F(0), F(0))
    assert set(k0.vertices) == {(F(-1, 3), F(-1, 3)), (F(2, 3), F(-1, 3)),
                                (F(-1, 3), F(2, 3))}
    assert reflect(k0).volume == k0.volume == tri.volume
    assert centered_inclusion(tri) and scale(k0, 2).volume == 4 * tri.volume
