import dataclasses
import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial, gcd

import pytest

from godbersen import (
    DimensionMismatch,
    GenSpec,
    TheoremViolation,
    build_hull,
    cross_polytope,
    fan,
    generate,
    geometry,
    godbersen_report,
    linalg,
    mixedvol,
    mv_first,
    mv_profile,
    reflect,
    scale,
    section_profile,
    standard_simplex,
    support,
    translate,
    unit_cube,
)
from godbersen.polynomials import trim
from tests.conftest import (
    count_fractions,
    lattice_grid_bodies,
    minkowski_sum,
    profile_pairs,
    simplex_int_volume,
)
from tests.test_geometry import SQUARE, TRIANGLE, random_polytope, square_times_octahedron
from tests.test_linalg import solve_linear


class TestMvFirst:
    def test_self_pair_is_volume(self):
        tri = build_hull(TRIANGLE)
        assert mv_first(tri, tri) == tri.volume == F(1, 2)

    def test_triangle_reflection(self):
        # facet formula by hand: (1/2)(1*1 + 1*1 + 0*1) = 1 = n Vol
        tri = build_hull(TRIANGLE)
        assert mv_first(reflect(tri), tri) == 1

    def test_simplex_reflection(self):
        s = standard_simplex(3)
        assert mv_first(reflect(s), s) == F(1, 2) == 3 * s.volume

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mv_first(unit_cube(3), build_hull(SQUARE))

    def test_integer_sum_matches_the_fraction_sum(self, corpus):
        # the one integer sum against the Fraction sum of support values
        # times measures it replaced, on consecutive corpus bodies both ways
        bodies = [body for _, body in corpus]
        for K, T in zip(bodies, bodies[1:]):
            if K.dim == T.dim:
                assert mv_first(K, T) == fraction_mv_first(K, T)
                assert mv_first(T, K) == fraction_mv_first(T, K)


def fraction_mv_first(K, T):
    """The facet formula as a Fraction sum, kept as the oracle of
    ``mv_first``."""
    return sum((support(K, f.normal) * f.measure for f in T.facets), F(0)) / T.dim


class TestMvProfile:
    def test_equal_bodies(self):
        tri = build_hull(TRIANGLE)
        prof = mv_profile(tri, tri)
        assert prof.coeffs == (F(1, 2), F(1, 2), F(1, 2))

    def test_triangle_difference_profile(self):
        # oracle: Vol(K + (-K)) = 3 for the difference hexagon, so
        # 3 = 1/2 + 2 m1 + 1/2 forces m1 = 1
        tri = build_hull(TRIANGLE)
        hexvol = minkowski_sum(tri, reflect(tri)).volume
        m1 = (hexvol - tri.volume - tri.volume) / 2
        prof = mv_profile(tri, reflect(tri))
        assert prof.coeffs == (F(1, 2), m1, F(1, 2)) == (F(1, 2), F(1), F(1, 2))

    def test_square_difference_profile(self):
        sq = build_hull(SQUARE)
        prof = mv_profile(sq, reflect(sq))
        assert prof.coeffs == (F(1), F(1), F(1))

    def test_reversal_symmetry(self):
        rng = random.Random(41)
        for dim in (2, 3):
            a = random_polytope(rng, dim, dim + 3)
            b = random_polytope(rng, dim, dim + 3)
            assert mv_profile(a, b).coeffs == tuple(
                reversed(mv_profile(b, a).coeffs))

    def test_first_coefficient_cross_check(self):
        # mv_profile verifies m1 against the facet formula internally; also
        # check the symmetric coefficient here
        rng = random.Random(42)
        for dim in (2, 3):
            a = random_polytope(rng, dim, dim + 3)
            b = random_polytope(rng, dim, dim + 3)
            prof = mv_profile(a, b)
            assert prof.coeffs[1] == mv_first(b, a)
            assert prof.coeffs[dim - 1] == mv_first(a, b)
            assert prof.coeffs[0] == a.volume and prof.coeffs[dim] == b.volume
            assert all(m >= 0 for m in prof.coeffs)

    def test_expansion_identity(self):
        # Vol(K + tL) must equal sum_j C(n,j) m_j t^j off the nodes t = 1..n+1
        rng = random.Random(43)
        pairs = [(unit_cube(n), unit_cube(n)) for n in (2, 3)]
        pairs += [(unit_cube(n), cross_polytope(n)) for n in (2, 3)]
        pairs += [(cross_polytope(3), unit_cube(3))]
        pairs += [(standard_simplex(n), reflect(standard_simplex(n)))
                  for n in (2, 3, 4)]
        pairs += [(random_polytope(rng, n, n + 3), random_polytope(rng, n, n + 3))
                  for n in (2, 2, 3, 3, 4)]
        for a, b in pairs:
            n = a.dim
            prof = mv_profile(a, b)
            for t in (F(1, 2), F(5, 3), F(7)):
                direct = minkowski_sum(a, scale(b, t)).volume
                assert direct == sum(comb(n, j) * prof.coeffs[j] * t ** j
                                     for j in range(n + 1))

    def test_builds_no_sum(self, monkeypatch):
        body = random_polytope(random.Random(46), 3, 7)
        neg = reflect(body)

        def forbidden(name):
            def fail(*args):
                raise AssertionError(f"mv_profile reached {name}")
            return fail

        monkeypatch.setattr(geometry, "_from_lattice", forbidden("_from_lattice"))
        for module, name in ((geometry, "minkowski_sum"), (linalg, "solve_linear"),
                             (linalg, "det"), (mixedvol, "minkowski_sum"),
                             (mixedvol, "solve_linear")):
            assert not hasattr(module, name), name
        mv_profile(body, neg)


# The profile route that the Cayley fan replaced, kept as the oracle: one sum
# S = K + L, whose fan with each vertex p_i + q_j moved to p_i + t q_j
# triangulates K + tL, gives Vol(K + tL) at t = 1..n+1, and an exact
# Vandermonde solve gives the coefficients.

def vandermonde_profile(K, L):
    n = K.dim
    total = minkowski_sum(K, L)
    m, ps, qs = fan._common_lattice(K, L)
    pair = {tuple(a + b for a, b in zip(p, q)): (p, q) for p in ps for q in qs}
    up = m // total._int_scale
    summands = [pair[tuple(c * up for c in v)] for v in total._int_vertices]
    vols = []
    for t in range(1, n + 2):
        pts = [tuple(a + t * b for a, b in zip(p, q)) for p, q in summands]
        raw = sum(simplex_int_volume(pts, s, n) for s in total._simplices)
        vols.append(F(raw, factorial(n) * m ** n))
    assert vols[0] == total.volume
    vmat = tuple(tuple(F(t ** j) for j in range(n + 1)) for t in range(1, n + 2))
    c = solve_linear(vmat, vols)
    return tuple(c[j] / comb(n, j) for j in range(n + 1))


def cube_from_facets(n):
    """The unit n-cube from its known facets, the check of ``unit_cube``."""
    pts = list(product((0, 1), repeat=n))
    raw = []
    for w in (tuple(s * (i == k) for i in range(n)) for k in range(n) for s in (1, -1)):
        vals = [geometry._idot(w, p) for p in pts]
        top = max(vals)
        raw.append((w, top, tuple(i for i, v in enumerate(vals) if v == top)))
    return geometry._from_lattice(pts, 1, raw)


def assert_matches_oracle(pairs):
    for a, b in pairs:
        assert mv_profile(a, b).coeffs == vandermonde_profile(a, b), (a, b)


class TestVandermondeOracle:
    def test_corpus_pairs(self, corpus):
        bodies = [body for _, body in corpus]
        pairs = []
        for i in range(0, len(bodies), 5):
            body = bodies[i]
            nxt = bodies[i + 1]
            pairs += [(body, reflect(body)), (body, nxt)]
        assert_matches_oracle(pairs)

    def test_equal_and_homothetic_bodies(self, corpus):
        rng = random.Random(47)
        for _, body in corpus[3::25]:
            t = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(body.dim))
            double = translate(scale(body, 2), t)
            assert_matches_oracle([(body, body), (body, double)])
            assert mv_profile(body, double).coeffs == tuple(
                2 ** j * body.volume for j in range(body.dim + 1))

    def test_lattice_grid_stratum(self):
        # a sixth of the stratum's facets are not simplices: their fans
        # recurse below the top level, where the corpus's facets rarely go
        assert_matches_oracle(profile_pairs(lattice_grid_bodies(40, 10)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_standard_bodies(self, n):
        bodies = [standard_simplex(n), cube_from_facets(n), cross_polytope(n)]
        assert bodies[1] == unit_cube(n) and bodies[1].facets == unit_cube(n).facets
        assert_matches_oracle([(body, reflect(body)) for body in bodies])
        assert_matches_oracle([(bodies[0], bodies[1]), (bodies[2], bodies[0])])

    def test_dim_5_bodies(self):
        body = generate(GenSpec("random_hull", 5, vertex_count=8, seed=1,
                                denominator_bound=2))
        assert_matches_oracle([(body, reflect(body)),
                               (square_times_octahedron(),
                                reflect(square_times_octahedron()))])


def cayley_section_matches_profile(K, L) -> bool:
    """Whether the section profile of C = conv(K x {0} u L x {1}) along the
    last axis is one piece on [0, 1], the volume of the slice (1 - t) K + t L:
    sum_j C(n, j) (1 - t)^(n-j) t^j m_j, with the m_j of ``mv_profile``."""
    n = K.dim
    m = mv_profile(K, L).coeffs
    cayley = build_hull([p + (0,) for p in K.vertices] + [q + (1,) for q in L.vertices])
    prof = section_profile(cayley, (0,) * n + (1,))
    # (1 - t)^(n-j) t^j holds t^i with the sign and count of t^(i-j)
    expected = [sum(comb(n, j) * m[j] * comb(n - j, i - j) * (-1) ** (i - j)
                    for j in range(i + 1)) for i in range(n + 1)]
    return prof.breakpoints == (0, 1) and prof.pieces == (tuple(trim(expected)),)


class TestCayleySection:
    """The section kernel and the Cayley fan's type rule on one polytope:
    the mixed-volume profile is the Cayley polytope's section profile."""

    def test_corpus_pairs(self, corpus):
        bodies = [body for _, body in corpus[1::2]]
        pairs = profile_pairs(bodies)
        assert len(pairs) > 290
        for K, L in pairs:
            assert cayley_section_matches_profile(K, L), (K, L)

    def test_recipe_bodies_and_lattice_grid_stratum(self):
        # the dim-5 and dim-6 recipe bodies of the section tests
        recipes = [generate(GenSpec("random_hull", dim, vertex_count=8, seed=seed,
                                    denominator_bound=2))
                   for dim in (5, 6) for seed in (1, 2, 3)]
        pairs = profile_pairs(recipes) + profile_pairs(lattice_grid_bodies(41, 12))
        for K, L in pairs:
            assert cayley_section_matches_profile(K, L), (K, L)


class TestGodbersenReport:
    def test_triangle_equality(self):
        rep = godbersen_report(build_hull(TRIANGLE))
        assert rep.is_simplex
        assert rep.entry(1).ratio == 1
        assert rep.entry(1).mixed == 1 and rep.entry(1).binom == 2

    def test_square_ratio(self):
        rep = godbersen_report(build_hull(SQUARE))
        assert not rep.is_simplex
        assert rep.entry(1).ratio == F(1, 2)

    def test_simplex3_lambda_grid_value(self):
        # closed form at lambda = j/n = 1/3: (1/3)(2/3)^2 * (1/2) = 2/27 <= 1/6
        rep = godbersen_report(standard_simplex(3))
        e = rep.entry(1)
        assert e.mixed == F(1, 2)
        assert F(1, 3) * F(2, 3) ** 2 * e.mixed == F(2, 27) <= F(1, 6)
        assert e.artstein_ok
        assert e.bound_nmin == 3 and e.nmin_ok

    def test_translation_invariance(self):
        rng = random.Random(44)
        for dim in (2, 3):
            body = random_polytope(rng, dim, dim + 3)
            t = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
            assert godbersen_report(body) == godbersen_report(translate(body, t))

    def test_ratios_bounded_for_proven_cases(self):
        rng = random.Random(45)
        for dim in (2, 3):
            for _ in range(10):
                body = random_polytope(rng, dim, dim + 4)
                rep = godbersen_report(body)
                assert rep.entry(1).ratio <= 1
                assert rep.entry(dim - 1).ratio <= 1
                if rep.entry(1).ratio == 1:
                    assert len(body.vertices) == dim + 1


# The Fraction lambda grid that the integer comparison of ``_artstein_ok``
# replaced, kept as its oracle: the grid holds j / n, where the bound peaks,
# so the two verdicts agree.

def fraction_grid_ok(j, n, mixed, vol):
    lambdas = tuple(F(i, 10) for i in range(1, 10)) + (F(j, n),)
    return all(lam ** j * (1 - lam) ** (n - j) * mixed <= vol for lam in lambdas)


class TestLambdaGrid:
    def test_reports_match_fraction_grid(self, corpus_results):
        for res in corpus_results:
            rep = res.report
            for e in rep.entries:
                assert e.artstein_ok == fraction_grid_ok(e.j, rep.n, e.mixed, rep.volume)

    def test_matches_fraction_grid_at_the_threshold(self):
        # mixed / vol around the least bound 1 / max lambda^j (1-lambda)^(n-j)
        # of the grid, so that both outcomes occur
        rng = random.Random(19)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(2, 6)
            j = rng.randint(1, n - 1)
            vol = F(rng.randint(1, 50), rng.randint(1, 50))
            top = max(lam ** j * (1 - lam) ** (n - j)
                      for lam in [F(i, 10) for i in range(1, 10)] + [F(j, n)])
            mixed = vol / top * F(rng.randint(90, 110), 100)
            expected = fraction_grid_ok(j, n, mixed, vol)
            assert mixedvol._artstein_ok(j, n, mixed, vol) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestProfileIdentities:
    def test_rogers_shephard_equality_on_simplices(self):
        for n in (2, 3, 4, 5):
            body = standard_simplex(n)
            prof = mv_profile(body, reflect(body))
            assert sum(comb(n, j) * m for j, m in enumerate(prof.coeffs)) == \
                comb(2 * n, n) * body.volume
            assert godbersen_report(body).is_simplex

    def test_cube_is_strict(self):
        cube = unit_cube(3)
        prof = mv_profile(cube, reflect(cube))
        assert prof.coeffs == (1, 1, 1, 1)
        assert minkowski_sum(cube, reflect(cube)).volume == 8 < comb(6, 3)
        assert not godbersen_report(cube).is_simplex

    def test_log_concavity_violation_raises(self, monkeypatch):
        cayley = mixedvol._cayley_mixed_volumes

        def bumped(K, L):
            raw, unit = cayley(K, L)
            raw = list(raw)
            raw[2] = 5 * unit  # m_2 = 5 > m_1^2 / m_0 = 1
            return tuple(raw), unit

        monkeypatch.setattr(mixedvol, "_cayley_mixed_volumes", bumped)
        cube = unit_cube(3)
        with pytest.raises(TheoremViolation, match="log-concave"):
            mv_profile(cube, reflect(cube))

    @pytest.mark.parametrize("j, delta, message", [
        (0, -2, "negative mixed volume m_0 = -1"),
        (0, -1, "endpoint m_0 disagrees with Vol"),
        (3, -1, "endpoint m_n disagrees with Vol"),
    ])
    def test_integer_check_violation_raises(self, monkeypatch, j, delta, message):
        # every cube coefficient is 1, raw_j = unit; one end moved by delta
        # units keeps raw_j^2 >= raw_(j-1) raw_(j+1), so the named check fires
        cayley = mixedvol._cayley_mixed_volumes

        def moved(K, L):
            raw, unit = cayley(K, L)
            raw = list(raw)
            raw[j] += delta * unit
            return tuple(raw), unit

        monkeypatch.setattr(mixedvol, "_cayley_mixed_volumes", moved)
        cube = unit_cube(3)
        with pytest.raises(TheoremViolation, match=message):
            mv_profile(cube, reflect(cube))

    def test_integer_form_holds_the_coefficients(self, corpus):
        # mv_profile's raw sums over its unit, in lowest terms, are the
        # Fraction coefficients, and the constructor reduces any multiple of
        # them to the same profile
        assert [fd.name for fd in dataclasses.fields(mixedvol.MixedVolumeProfile)] == [
            "n", "raw", "unit"]
        for _, body in corpus[::9]:
            for partner in (reflect(body), body):
                prof = mv_profile(body, partner)
                assert prof.unit > 0 and gcd(prof.unit, *prof.raw) == 1
                assert prof.coeffs == tuple(F(r, prof.unit) for r in prof.raw)
                again = mixedvol.MixedVolumeProfile(
                    prof.n, tuple(6 * r for r in prof.raw), 6 * prof.unit)
                assert again == prof
                assert again.coeffs == prof.coeffs
        assert mixedvol.MixedVolumeProfile(2, (2, 4, 3), 4).coeffs == (F(1, 2), 1, F(3, 4))

    @pytest.mark.parametrize("raw, unit", [((2, 4), 4), ((2, 4, 3, 1), 4),
                                           ((2, 4, 3), 0), ((2, 4, 3), -4)])
    def test_shape_is_checked_at_construction(self, raw, unit):
        with pytest.raises(ValueError, match="mixed volume profile"):
            mixedvol.MixedVolumeProfile(2, raw, unit)

    def test_every_corpus_profile_builds(self, corpus):
        # the shape check refuses none of the profiles the sweep builds
        for _, body in corpus:
            prof = mv_profile(body, reflect(body))
            assert len(prof.raw) == body.dim + 1 and prof.unit > 0

    def test_equal_profiles_compare_equal(self):
        a = mixedvol.MixedVolumeProfile(2, (2, 4, 3), 4)
        b = mixedvol.MixedVolumeProfile(2, (4, 8, 6), 8)
        assert a == b and hash(a) == hash(b)
        assert (a.raw, a.unit) == ((2, 4, 3), 4)
        assert a != mixedvol.MixedVolumeProfile(2, (2, 4, 3), 5)

    def test_profile_makes_only_the_facet_formula_value(self, corpus, monkeypatch):
        # every check runs on the integer form; m_1 is cross-multiplied
        # against mv_first's one Fraction
        pairs = [(body, partner) for _, body in corpus[::15]
                 for partner in (reflect(body), body)]
        made = count_fractions(monkeypatch)
        for K, L in pairs:
            prof = mv_profile(K, L)
            assert len(made) == 1
            first = made.pop()
            assert prof.coeffs is prof.coeffs and len(made) == K.dim + 1
            assert F(*first) == prof.coeffs[1] == mv_first(L, K)
            made.clear()

    def test_palindrome_violation_raises(self, monkeypatch):
        monkeypatch.setattr(mixedvol, "mv_profile", lambda K, L: (
            mixedvol.MixedVolumeProfile(3, (1, 1, 2, 1), 1)))
        with pytest.raises(TheoremViolation, match="palindromic"):
            godbersen_report(unit_cube(3))

    def test_proven_equality_case_raises_off_simplices(self, monkeypatch):
        # ratio 1 at j = 1 and j = n - 1 on a cube, with the palindrome and a
        # strict Rogers-Shephard bound (64 < 70) left standing
        monkeypatch.setattr(mixedvol, "mv_profile", lambda K, L: (
            mixedvol.MixedVolumeProfile(4, (1, 4, 5, 4, 1), 1)))
        with pytest.raises(TheoremViolation,
                           match="ratio 1 at j=1: it must be 1 exactly for simplices"):
            godbersen_report(unit_cube(4))

    @pytest.mark.parametrize("check, name", [
        ("_nmin_ok", r"n\^min\(j, n-j\)"), ("_artstein_ok", "Artstein-Avidan")])
    def test_proven_bound_violation_raises(self, monkeypatch, check, name):
        # both bounds are proven, so a failed one is a bug, not a report flag
        monkeypatch.setattr(mixedvol, check, lambda j, n, mixed, vol: False)
        with pytest.raises(TheoremViolation, match=f"the {name} bound fails at j=1: 1$"):
            godbersen_report(unit_cube(3))

    @pytest.mark.parametrize("body, raw, unit", [
        (unit_cube(4), (1, 1, 100, 1, 1), 1),  # above C(8,4) Vol K = 70
        (build_hull(SQUARE), (1, 2, 1), 1),  # equality for a square
        (build_hull(TRIANGLE), (1, 1, 1), 2),  # strict for a simplex
    ], ids=["above-bound", "equality-non-simplex", "strict-simplex"])
    def test_rogers_shephard_violation_raises(self, monkeypatch, body, raw, unit):
        monkeypatch.setattr(mixedvol, "mv_profile", lambda K, L: (
            mixedvol.MixedVolumeProfile(K.dim, raw, unit)))
        with pytest.raises(TheoremViolation, match="Rogers-Shephard"):
            godbersen_report(body)
