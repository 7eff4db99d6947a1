import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godbersen import (
    DimensionMismatch,
    GenSpec,
    ZeroDirection,
    build_hull,
    center_at_centroid,
    generate,
    section_profile,
    sections,
    standard_simplex,
    unit_cube,
)
from godbersen.geometry import _idot
from godbersen.linalg import scale_to_integers
from godbersen.polynomials import (
    add, derivative, evaluate, mul, nonpositive_between, roots_between, trim)
from godbersen.sections import SectionProfile, _level_terms
from godbersen.sweep import ROOT_CONCAVITY_DIRECTIONS, _random_direction
from tests.conftest import (
    as_vector, corpus_specs, count_fractions, edges, lattice_grid_bodies,
    power_form_profile, simplex_int_volume)
from tests.test_concave import dip_profile
from tests.test_geometry import dot, random_polytope
from tests.test_polynomials import antiderivative


def _cut_fraction(heights: list[F]) -> F:
    """Volume fraction of a simplex on the <=0 side of a linear functional.

    ``heights`` are the functional's (nonzero) values at the vertices.  The
    recursion F[i][j] over i processed negatives and j processed positives,
    F[i][0] = 1 and F[0][j] = 0, with
    F[i][j] = (g_j F[i-1][j] + h_i F[i][j-1]) / (g_j + h_i),
    yields the fraction at F[p][q].
    """
    neg = [-v for v in heights if v < 0]
    pos = [v for v in heights if v > 0]
    if not neg:
        return F(0)
    if not pos:
        return F(1)
    row = [F(1)] + [F(0)] * len(pos)
    for h in neg:
        new = [F(1)] * (len(pos) + 1)
        for j, g in enumerate(pos, start=1):
            new[j] = (g * row[j] + h * new[j - 1]) / (g + h)
        row = new
    return row[-1]


# Lagrange interpolation, used only by the reference profile below.

def interpolate(nodes, values):
    """Exact Lagrange interpolation through distinct rational nodes."""
    assert len(nodes) == len(values)
    result = []
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = [F(yi)]
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = mul(basis, [F(-xj), F(1)])
            basis = [c / (F(xi) - F(xj)) for c in basis]
        result = add(result, basis)
    return result


@given(st.lists(st.fractions(min_value=F(-50), max_value=F(50),
                             max_denominator=12), max_size=5))
def test_derivative_of_antiderivative(p):
    assert trim(derivative(antiderivative(p))) == trim(list(p))


def test_interpolation_reproduces_polynomials():
    rng = random.Random(9)
    for deg in range(5):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(deg + 1)]
        nodes = [F(i, 3) for i in range(deg + 1)]
        values = [evaluate(coeffs, x) for x in nodes]
        assert interpolate(nodes, values) == trim(coeffs)


def _rational(prof):
    """A profile as (direction, breakpoints, pieces), all rational."""
    return prof.direction, prof.breakpoints, prof.pieces


def _reference_profile(K, w):
    """The profile by sampling: the cumulative volume at n+1 interior nodes
    of each interval, summed over all simplices with ``_cut_fraction``, then
    Lagrange-interpolated and differentiated.  Returned in the form of
    ``_rational``."""
    v = as_vector(w)
    n = K.dim
    levels = [dot(v, p) for p in K.vertices]
    breakpoints = sorted(set(levels))
    simplex_data = []
    for s in K._simplices:
        vol = F(simplex_int_volume(K._int_vertices, s, n),
                factorial(n) * K._int_scale ** n)
        if vol != 0:
            simplex_data.append((vol, [levels[i] for i in s]))

    def cumulative(t):
        return sum((vol * _cut_fraction([h - t for h in hs])
                    for vol, hs in simplex_data), F(0))

    pieces = []
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        nodes = [lo + (hi - lo) * F(j, n + 2) for j in range(1, n + 2)]
        values = [cumulative(t) for t in nodes]
        pieces.append(tuple(derivative(interpolate(nodes, values))))
    return v, tuple(breakpoints), tuple(pieces)


def test_cube_profile_is_constant_one():
    prof = section_profile(unit_cube(3), (1, 0, 0))
    assert prof.breakpoints == (F(0), F(1))
    assert prof.pieces == ((F(1),),)
    assert prof.integral() == 1


def test_triangle_profile():
    # cumulative volume t - t^2/2, so the density is 1 - t
    prof = section_profile(build_hull([(0, 0), (1, 0), (0, 1)]), (1, 0))
    assert prof.pieces == ((F(1), F(-1)),)
    assert prof.integral() == F(1, 2)


def test_simplex_diagonal_profile():
    # for t in [0,1] the cut {x+y+z <= t} of the standard simplex is the
    # t-dilate, volume t^3/6, so the density is t^2/2
    prof = section_profile(standard_simplex(3), (1, 1, 1))
    assert prof.breakpoints == (F(0), F(1))
    assert prof.pieces == ((F(0), F(0), F(1, 2)),)


def test_value_takes_exact_arguments_only():
    # the triangle (0,0), (2,0), (0,2) along (1,0): s(t) = 2 - t
    prof = section_profile(build_hull([(0, 0), (2, 0), (0, 2)]), (1, 0))
    assert prof.value(F(1, 2)) == prof.value("1/2") == F(3, 2)
    assert prof.value(1) == 1 and prof.value(3) == 0
    with pytest.raises(TypeError):
        prof.value(0.5)
    with pytest.raises(ValueError):
        prof.value("0.5")


def test_zero_direction_rejected():
    with pytest.raises(ZeroDirection):
        section_profile(unit_cube(2), (0, 0))


def test_cut_fraction_closed_forms():
    # segment: fraction below = h / (h + g)
    assert _cut_fraction([F(-3), F(1)]) == F(3, 4)
    # triangle with one vertex below: similar-triangle squared ratio
    assert _cut_fraction([F(-1), F(2), F(2)]) == F(1, 9)
    # two below one above: complement of the similar triangle above
    assert _cut_fraction([F(-1), F(-1), F(2)]) == 1 - F(4, 9)
    assert _cut_fraction([F(1), F(2)]) == 0
    assert _cut_fraction([F(-1), F(-2)]) == 1


def _expand(g, c, n):
    """sum_l c[l] (T - g)^(n - l) in powers of T, low degree first."""
    return [sum(a * comb(n - l, k) * (-g) ** (n - l - k)
                for l, a in enumerate(c) if n - l >= k) for k in range(n + 1)]


def _tied_heights(rng, n):
    """n + 1 integer heights on at least two distinct values, drawn from a
    few values so that ties are common."""
    while True:
        values = rng.sample(range(-9, 10), rng.randint(2, min(n + 1, 4)))
        hs = [rng.choice(values) for _ in range(n + 1)]
        if len(set(hs)) > 1:
            return hs


def test_level_terms_partition_of_unity():
    # the terms of all levels, the top one included, sum to the constant 1
    rng = random.Random(43)
    for n in range(1, 7):
        cases = [_tied_heights(rng, n) for _ in range(30)]
        cases += [[0] * n + [5], [0] + [5] * n, list(range(n + 1))]
        for hs in cases:
            terms = _level_terms(hs, max(hs) + 1)
            assert sorted(g for g, _, _ in terms) == sorted(set(hs))
            assert all(d != 0 and len(c) == hs.count(g) for g, c, d in terms)
            common = lcm(*(d for _, _, d in terms))
            total = [0] * (n + 1)
            for g, c, d in terms:
                for k, a in enumerate(_expand(g, c, n)):
                    total[k] += common // d * a
            assert trim(total) == [common], hs


# The series inversion that the complete homogeneous sums replaced, kept as
# the oracle of ``_level_terms``: the truncated product P(e) = prod_x (x - e)
# over the gaps x, and 1 / P by the recursion on its coefficients.

def inversion_level_terms(hs, top):
    """``_level_terms`` with E_0 = 1, E_m = -sum_{k=1..m} P_k E_(m-k)
    p0^(k-1), so that 1 / P = sum_m E_m e^m / p0^(m+1)."""
    n = len(hs) - 1
    out = []
    for g in set(hs):
        if g >= top:
            continue
        gaps = [h - g for h in hs if h != g]
        p0 = prod(gaps)
        r = n + 1 - len(gaps)
        if r == 1:
            out.append((g, (1,), p0))
            continue
        poly = [1] + [0] * (r - 1)  # P up to e^(r-1)
        for x in gaps:
            poly = [x * a - b for a, b in zip(poly, [0] + poly)]
        e = [1]
        for m in range(1, r):
            e.append(-sum(poly[k] * e[m - k] * p0 ** (k - 1) for k in range(1, m + 1)))
        out.append((g, tuple((-1) ** (r + 1 + l) * comb(n, l) * e[r - 1 - l] * p0 ** l
                             for l in range(r)), p0 ** r))
    return out


def test_level_terms_match_the_inversion_oracle():
    # term by term, with the top level's terms: tied heights in dims 1-6,
    # and every fan simplex of the profiles check_body would build on the
    # lattice-grid stratum, where ties reach every multiplicity below n + 1
    rng = random.Random(44)
    cases = [_tied_heights(rng, n) for n in range(1, 7) for _ in range(30)]
    for body in lattice_grid_bodies(7, 40):
        k0 = center_at_centroid(body)
        for K, w in [(k0, f.normal) for f in k0.facets] + [
                (body, _random_direction(rng, body.dim)) for _ in range(5)]:
            (iw,), _ = scale_to_integers([w])
            heights = [_idot(iw, p) for p in K._int_vertices]
            cases += [[heights[i] for i in s] for s in K._simplices]
    for hs in cases:
        assert _level_terms(hs, max(hs) + 1) == inversion_level_terms(hs, max(hs) + 1), hs
    ties = Counter((len(hs) - 1, max(Counter(hs).values())) for hs in cases)
    assert all(ties[n, r] for n in (2, 3, 4) for r in range(2, n + 1)), ties


def test_level_terms_match_cut_fraction():
    # sum_{g < T} term_g(T) is the share of the simplex below T, with heights
    # tied on either side of T and multiplicities up to n, in dims 1-6
    rng = random.Random(41)
    for n in range(1, 7):
        cases = [_tied_heights(rng, n) for _ in range(30)]
        cases += [[0] * n + [5], [0] + [5] * n]
        for hs in cases:
            levels = sorted(set(hs))
            for lo, hi in zip(levels, levels[1:]):
                for k in (1, 2, 3):
                    t = lo + F(k * (hi - lo), 4)
                    below = sum(F(evaluate(_expand(g, c, n), t), d)
                                for g, c, d in _level_terms(hs, t))
                    assert below == _cut_fraction([h - t for h in hs]), hs


# The cut-volume recursion, kept as the oracle of the level terms: one run
# per (simplex, split of its vertices into below and above), its result
# added to every interval the split spans.

def _linear_combination(a, a0, a1, b, b0, b1):
    """Integer polynomial a(T) (a0 + a1 T) + b(T) (b0 + b1 T), low degree
    first and untrimmed."""
    out = [0] * (max(len(a), len(b)) + 1)
    for k, c in enumerate(a):
        out[k] += a0 * c
        out[k + 1] += a1 * c
    for k, c in enumerate(b):
        out[k] += b0 * c
        out[k + 1] += b1 * c
    return out


def _shifted_power(h, e):
    """(T - h)^e, low degree first."""
    return [comb(e, k) * (-h) ** (e - k) for k in range(e + 1)]


def _cut_polynomial(below, above):
    """Fraction of a simplex under the level T, as (G, D) with value G(T) / D.

    ``below`` and ``above`` are the integer heights of the vertices under and
    over an open interval of levels that contains T, and D is the product of
    d_ab = H_b - H_a over every below vertex a and above vertex b.  G[i][j],
    F[i][j] times the product of d_ab over a <= i, b <= j, turns the
    cut-volume recursion into integer polynomial steps

        G[i][j] = (H_j - T) G[i-1][j] prod_{b<j} d_ib
                  + (T - H_i) G[i][j-1] prod_{a<i} d_aj,

    with closed forms when one side has a single vertex.
    """
    p, q = len(below), len(above)
    if p == 1:
        h = below[0]
        return _shifted_power(h, q), prod(hj - h for hj in above)
    if q == 1:
        h = above[0]
        d = prod(h - hi for hi in below)
        sign = 1 if p % 2 else -1  # (h - T)^p = (-1)^p (T - h)^p
        g = [sign * c for c in _shifted_power(h, p)]
        g[0] += d
        return g, d
    row = [[1]] + [[] for _ in range(q)]
    col = [1] * q  # prod_{a<i} d_aj for each j
    for hi in below:
        new = [[1]] + [[] for _ in range(q)]
        along = 1  # prod_{b<j} d_ib
        for j, hj in enumerate(above):
            new[j + 1] = _linear_combination(row[j + 1], along * hj, -along,
                                             new[j], -col[j] * hi, col[j])
            d = hj - hi
            along *= d
            col[j] *= d
        row = new
    return row[q], prod(col)


def _recursion_profile(K, w):
    """The profile of K along w as the builder made it with the cut-volume
    recursion: each accumulator sums the cut polynomials of the simplices
    straddling its interval and leaves out the constant of those below."""
    v = as_vector(w)
    (iw,), m = scale_to_integers([v])
    heights = [_idot(iw, p) for p in K._int_vertices]
    levels = sorted(set(heights))
    index = {h: i for i, h in enumerate(levels)}
    parts = [[] for _ in levels[1:]]
    for s, vol in zip(K._simplices, K._fan_volumes):
        hs = sorted(heights[i] for i in s)
        for k in range(1, K.dim + 1):
            if hs[k - 1] < hs[k]:
                poly, d = _cut_polynomial(hs[:k], hs[k:])
                for i in range(index[hs[k - 1]], index[hs[k]]):
                    parts[i].append((vol, poly, d))
    den = lcm(*(d for interval in parts for _, _, d in interval))
    accumulators = []
    for interval in parts:
        acc = [0] * (K.dim + 1)
        for vol, poly, d in interval:
            for k, c in enumerate(poly):
                acc[k] += vol * (den // d) * c
        accumulators.append(tuple(trim(acc)))
    return power_form_profile(v, m * K._int_scale, tuple(levels), tuple(accumulators),
                              den * factorial(K.dim) * K._int_scale ** K.dim)


def _recipe_bodies():
    return [generate(GenSpec("random_hull", dim, vertex_count=8, seed=seed,
                             denominator_bound=2))
            for dim in (5, 6) for seed in (1, 2, 3)]


def test_high_dimensional_profiles_match_recursion_oracle():
    # the dim-5 and dim-6 recipe bodies: the centered body along each facet
    # normal and the body along five seeded directions
    rng = random.Random(45)
    pairs = 0
    for body in _recipe_bodies():
        k0 = center_at_centroid(body)
        for K, w in [(k0, f.normal) for f in k0.facets] + [
                (body, _random_direction(rng, body.dim)) for _ in range(5)]:
            prof, oracle = section_profile(K, w), _recursion_profile(K, w)
            assert prof == oracle, (body, w)
            assert (prof.integral(), prof.moment(), prof.root_concave()) == \
                (oracle.integral(), oracle.moment(), oracle.root_concave())
            pairs += 1
    assert pairs > 100


def check_body_profiles(spec, body=None):
    """(body, direction) for the profiles check_body built while it took a
    moment along every facet normal and Brunn's test on the body itself: the
    centered body along each of its facet normals, and the body along the
    root-concavity directions of its spec.  The digests below pin this set;
    ``body`` is generated from ``spec`` unless given."""
    if body is None:
        body = generate(spec)
    k0 = center_at_centroid(body)
    rng = random.Random(spec.seed ^ 0x5EED5EED)
    return [(k0, f.normal) for f in k0.facets] + [
        (body, _random_direction(rng, body.dim))
        for _ in range(ROOT_CONCAVITY_DIRECTIONS)]


def test_translation_shifts_the_seeded_profiles(corpus):
    # check_body reads Brunn's principle for K off the profiles of its
    # centered translate K0 = K - c along the seeded directions: along u the
    # translation shifts every level by u . c and keeps the integral and the
    # concavity verdict.  K's own moment is Vol(K) (u . c), the identity that
    # makes K0's vanish.
    for spec, body in corpus[::10]:
        k0 = center_at_centroid(body)
        rng = random.Random(spec.seed ^ 0x5EED5EED)
        for _ in range(ROOT_CONCAVITY_DIRECTIONS):
            u = _random_direction(rng, body.dim)
            prof, centered = section_profile(body, u), section_profile(k0, u)
            shift = F(_idot(u, body._centroid_num), body._centroid_den)
            assert centered.breakpoints == tuple(t - shift for t in prof.breakpoints)
            assert prof.integral() == centered.integral() == body.volume
            assert prof.root_concave() == centered.root_concave()
            assert prof.moment() * body._centroid_den == \
                body.volume * _idot(u, body._centroid_num)
            assert centered.moment() == 0


def test_profile_matches_reference_on_corpus_sample():
    pick = random.Random(31)
    sample = [spec for dim in (2, 3, 4) for spec in pick.sample(
        [s for s in corpus_specs() if s.dim == dim], 3)]
    pairs = 0
    for spec in sample:
        for body, w in check_body_profiles(spec):
            assert _rational(section_profile(body, w)) == \
                _reference_profile(body, w), (spec, w)
            pairs += 1
    assert pairs > 100


# sha256 of the rational profiles (breakpoints, pieces) check_body builds on
# every 10th corpus body (394 profiles), recorded while each profile was still
# built by one cut-volume recursion per (interval, simplex).
CHECK_BODY_PROFILES_DIGEST = \
    "92d5ecc0095e483d642d5bc09aa2d6cd96ec19359d3fd9baedd6287457cb8f55"


def test_check_body_profiles_digest():
    digest = hashlib.sha256()
    for spec in corpus_specs()[::10]:
        for body, w in check_body_profiles(spec):
            prof = section_profile(body, w)
            digest.update(f"{prof.breakpoints} {prof.pieces}\n".encode())
    assert digest.hexdigest() == CHECK_BODY_PROFILES_DIGEST


# sha256 of the integer forms (levels, accumulators, denominator) of the same
# profiles.
CHECK_BODY_INTEGER_FORMS_DIGEST = \
    "e29c1a07c28ad8f06f3b574c9cc3d1ec2be6d367a1723d0c561e2fbfbd5d8849"


def test_check_body_integer_forms_digest():
    digest = hashlib.sha256()
    for spec in corpus_specs()[::10]:
        for body, w in check_body_profiles(spec):
            prof = section_profile(body, w)
            digest.update(
                f"{prof.levels} {prof.accumulators} {prof.denominator}\n".encode())
    assert digest.hexdigest() == CHECK_BODY_INTEGER_FORMS_DIGEST


@pytest.mark.parametrize("body, w", [
    (build_hull([(F(-2, 3),), (F(5, 2),)]), (F(-3, 7),)),
    (unit_cube(3), (1, 0, 0)),
    (unit_cube(3), (0, 1, 0)),
    (unit_cube(3), (0, 0, 1)),
    (build_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]),
     (1, F(2, 3), F(-1, 2))),
    (unit_cube(4), (1, F(2, 3), F(-1, 2), 3)),
], ids=["segment", "cube-x", "cube-y", "cube-z", "pyramid-rational",
        "cube4-rational"])
def test_profile_matches_reference_on_special_bodies(body, w):
    # a segment, whole facets tied at one level, and rational directions
    assert _rational(section_profile(body, w)) == _reference_profile(body, w)


def test_integral_equals_volume_and_moment_identity():
    # 200 random (body, direction) pairs; the moment identity
    # integral t s(t) dt = Vol * (centroid . w) is the independent oracle
    rng = random.Random(21)
    pairs = 0
    while pairs < 200:
        dim = rng.choice((2, 2, 3))
        body = random_polytope(rng, dim, dim + 4)
        for _ in range(4):
            w = tuple(rng.randint(-6, 6) for _ in range(dim))
            if all(c == 0 for c in w):
                continue
            prof = section_profile(body, w)
            assert prof.integral() == body.volume
            assert prof.moment() == body.volume * sum(
                F(a) * b for a, b in zip(w, body.centroid))
            pairs += 1


def test_profile_nonnegative_and_continuous():
    rng = random.Random(22)
    for dim in (2, 3, 4):
        body = random_polytope(rng, dim, dim + 3)
        w = tuple(rng.randint(-4, 4) or 1 for _ in range(dim))
        prof = section_profile(body, w)
        for i in range(1, len(prof.breakpoints) - 1):
            t = prof.breakpoints[i]
            left = evaluate(list(prof.pieces[i - 1]), t)
            right = evaluate(list(prof.pieces[i]), t)
            assert left == right
        lo, hi = prof.support_interval()
        for k in range(33):
            t = lo + (hi - lo) * F(k, 32)
            assert prof.value(t) >= 0


def test_values_match_first_principles_slice():
    # oracle: at a level t crossing no vertex, the slice is the hull of the
    # edge crossings; projecting out a coordinate where w_k != 0 divides the
    # Euclidean area by |w_k|/|w|, so s(t) equals the projected hull volume
    # over |w_k|
    rng = random.Random(24)
    for dim in (2, 3):
        for _ in range(5):
            body = random_polytope(rng, dim, dim + 3)
            w = tuple(rng.randint(-4, 4) for _ in range(dim))
            if all(c == 0 for c in w):
                w = (1,) * dim
            prof = section_profile(body, w)
            levels = prof.breakpoints
            for i in range(len(levels) - 1):
                t = (levels[i] + levels[i + 1]) / 2
                crossings = []
                for a, b in edges(body):
                    va, vb = body.vertices[a], body.vertices[b]
                    ha = sum(F(c) * x for c, x in zip(w, va))
                    hb = sum(F(c) * x for c, x in zip(w, vb))
                    if min(ha, hb) < t < max(ha, hb):
                        lam = (t - ha) / (hb - ha)
                        crossings.append(tuple(
                            x + lam * (y - x) for x, y in zip(va, vb)))
                k = max(range(dim), key=lambda c: abs(w[c]))
                proj = [tuple(p[c] for c in range(dim) if c != k)
                        for p in crossings]
                if dim == 2:
                    xs = [p[0] for p in proj]
                    area = max(xs) - min(xs)
                else:
                    area = build_hull(proj).volume
                assert prof.value(t) == area / abs(w[k])


def test_piece_degree_bound():
    rng = random.Random(23)
    for dim in (2, 3, 4):
        body = random_polytope(rng, dim, dim + 3)
        prof = section_profile(body, tuple(1 for _ in range(dim)))
        assert all(len(p) <= dim for p in prof.pieces)


def test_accumulator_is_the_cumulative_volume():
    # V(t) = A_i(M t) / den_i on piece i: 0 at the bottom, continuous across
    # the levels, Vol at the top, and the sampled cumulative volume between
    rng = random.Random(25)
    for dim in (2, 3, 4):
        for _ in range(3):
            body = random_polytope(rng, dim, dim + 4)
            w = tuple(rng.randint(-4, 4) or 1 for _ in range(dim))
            prof = section_profile(body, w)
            m, lv, den = prof.level_scale, prof.levels, prof.denominator
            cumulative = [F(evaluate(acc, h), den)
                          for acc, h in zip(prof.accumulators, lv)]
            cumulative.append(F(evaluate(prof.accumulators[-1], lv[-1]), den))
            assert cumulative[0] == 0 and cumulative[-1] == body.volume
            for i, h in enumerate(lv[1:-1]):
                assert F(evaluate(prof.accumulators[i], h), den) == cumulative[i + 1]
            fan = [(F(vol, factorial(dim) * body._int_scale ** dim),
                    [dot(prof.direction, body.vertices[i]) for i in s])
                   for s, vol in zip(body._simplices, body._fan_volumes)]
            for acc, lo, hi in zip(prof.accumulators, lv, lv[1:]):
                t = F(lo + hi, 2 * m)
                assert F(evaluate(acc, m * t), den) == sum(
                    vol * _cut_fraction([h - t for h in hs]) for vol, hs in fan)


def test_integer_form_and_rational_equality():
    # s(t) = M A'(M t) / den on each piece; equality and hashing go by the
    # rational profile, not by the integer form that produced it
    prof = section_profile(build_hull([(0, 0), (2, 0), (0, 2)]), (F(1, 2), 0))
    m, den = prof.level_scale, prof.denominator
    assert prof.breakpoints == tuple(F(h, m) for h in prof.levels)
    assert den > 0
    for acc, piece in zip(prof.accumulators, prof.pieces):
        assert piece == tuple(F(k * c * m ** k, den)
                              for k, c in enumerate(acc) if k)
    # the same profile on the levels T' = 2 T: A'(T') = 3 * 4 A(T' / 2)
    # over 3 * 4 den, for accumulators of degree <= 2
    assert all(len(acc) <= 3 for acc in prof.accumulators)
    same = power_form_profile(
        prof.direction, 2 * m, tuple(2 * h for h in prof.levels),
        tuple(tuple(3 * 2 ** (2 - k) * c for k, c in enumerate(acc))
              for acc in prof.accumulators),
        12 * den)
    assert same == prof and hash(same) == hash(prof)
    assert same.integral() == prof.integral() == 2
    assert same.moment() == prof.moment()


def test_fields_are_keyword_only():
    # the fourth field once held the accumulators; a caller that still
    # passes the fields by position is refused, not read as level sums
    prof = section_profile(build_hull([(0, 0), (2, 0), (0, 2)]), (1, 0))
    fields = {f.name: getattr(prof, f.name) for f in dataclasses.fields(prof)}
    assert list(fields)[3] == "level_sums"
    with pytest.raises(TypeError):
        SectionProfile(*fields.values())
    assert SectionProfile(**fields) == prof


def test_shape_is_checked_at_construction():
    # two pieces on the levels 0, 1, 2 need two level sums; with one, the
    # profile once built, read value("3/2") = 1 off piece 0 outside its
    # interval and gave integral() = 2
    fields = dict(direction=(1, 0), level_scale=1, levels=(0, 1, 2),
                  level_sums=((0, 1), (0, -1)), denominator=1)
    prof = SectionProfile(**fields)
    assert (prof.value("1/2"), prof.value("3/2"), prof.integral()) == (1, 0, 1)
    for change in ({"level_sums": ((0, 1),)}, {"level_sums": ((0, 1),) * 3},
                   {"levels": (0, 2, 1)}, {"levels": (0, 1, 1)},
                   {"levels": (0,), "level_sums": ()}, {"levels": (), "level_sums": ()},
                   {"denominator": 0}, {"denominator": -1}):
        with pytest.raises(ValueError, match="section profile"):
            SectionProfile(**{**fields, **change})


def test_every_corpus_profile_builds():
    # the shape check refuses none of the profiles check_body builds
    profiles = [section_profile(body, w) for spec in corpus_specs()
                for body, w in check_body_profiles(spec)]
    assert len(profiles) > 3000
    assert all(len(p.level_sums) == len(p.levels) - 1 for p in profiles)


# The one-term levels of ``section_profile`` and the tied ones, each on a
# hand case against the cut-volume recursion.

def _spy_level_terms(monkeypatch) -> list:
    """Every (g, c, den) that ``_level_terms`` returns to the profile."""
    terms = []
    level_terms = sections._level_terms

    def spying(hs, top):
        out = level_terms(hs, top)
        terms.extend(out)
        return out

    monkeypatch.setattr(sections, "_level_terms", spying)
    return terms


def test_distinct_heights_give_one_term_levels(monkeypatch):
    # a dim-4 body whose eight vertices sit on eight levels: every height is
    # met once in its simplex, so every level holds one-term sums alone
    body = generate(GenSpec("random_hull", 4, 8, seed=40_000, denominator_bound=2))
    w = (1, 9, 81, 729)
    heights = [_idot(w, p) for p in body._int_vertices]
    assert len(set(heights)) == len(heights) == 8
    terms = _spy_level_terms(monkeypatch)
    prof = section_profile(body, w)
    assert terms and all(c == (1,) for _, c, _ in terms)
    assert prof.levels == tuple(sorted(heights))
    assert prof == _recursion_profile(body, w)


def test_tie_below_the_top_gives_tied_terms(monkeypatch):
    # a centrally symmetric body along a facet normal: the opposite facet
    # lies on the bottom level, so the simplices over it tie there, while
    # the levels above it also hold one-term sums
    body = center_at_centroid(generate(GenSpec(
        "random_symmetric", 3, 4, seed=30_500, denominator_bound=3)))
    w = body.facets[0].normal
    heights = [_idot(w, p) for p in body._int_vertices]
    assert heights.count(min(heights)) >= 3
    terms = _spy_level_terms(monkeypatch)
    prof = section_profile(body, w)
    assert any(g == min(heights) and len(c) > 1 for g, c, _ in terms)
    assert any(len(c) == 1 for _, c, _ in terms)
    assert prof == _recursion_profile(body, w)


# The level expansion that the binomial rows replaced, kept as the oracle of
# ``section_profile``: each level's terms as one (n+1)-vector of numerators
# of (T - g)^k, expanded in powers of T by a Taylor shift by -g.

def taylor_shift_profile(K, w):
    """(levels, accumulators, denominator) of K along w by the old level
    expansion."""
    (iw,), _ = scale_to_integers([w])
    n = K.dim
    heights = [_idot(iw, p) for p in K._int_vertices]
    levels = sorted(set(heights))
    index = {h: i for i, h in enumerate(levels)}
    groups = [{} for _ in levels[:-1]]
    for s, vol in zip(K._simplices, K._fan_volumes):
        for g, c, d in _level_terms([heights[i] for i in s], levels[-1]):
            nums = groups[index[g]].setdefault(d, [0] * (n + 1))
            for l, b in enumerate(c):
                nums[n - l] += vol * b
    den = lcm(*(d for group in groups for d in group))
    acc = [0] * (n + 1)
    accumulators = []
    for g, group in zip(levels, groups):
        level = [0] * (n + 1)
        for d, nums in group.items():
            level = [a + den // d * b for a, b in zip(level, nums)]
        acc = [a + b for a, b in zip(acc, sections._taylor_shift(level, -g))]
        accumulators.append(tuple(trim(acc)))
    return tuple(levels), tuple(accumulators), den * factorial(n) * K._int_scale ** n


def test_binomial_rows_match_taylor_shift_oracle(monkeypatch, corpus):
    # every profile check_body builds on the corpus, and the same kind on
    # the lattice-grid stratum, whose tied heights reach levels below the
    # top with r >= 2 terms
    def same(K, w):
        prof = section_profile(K, w)
        assert (prof.levels, prof.accumulators, prof.denominator) == \
            taylor_shift_profile(K, w), (K, w)

    pairs = [bw for spec, body in corpus for bw in check_body_profiles(spec, body)]
    for K, w in pairs:
        same(K, w)
    rng = random.Random(36)
    grid = [(K, w) for body in lattice_grid_bodies(7, 40)
            for K, w in [(k0, f.normal) for k0 in [center_at_centroid(body)]
                         for f in k0.facets]
            + [(body, _random_direction(rng, body.dim)) for _ in range(5)]]
    terms = _spy_level_terms(monkeypatch)
    for K, w in grid:
        same(K, w)
    assert len(pairs) > 3000 and len(grid) > 1000
    assert any(len(c) >= 2 for _, c, _ in terms)


def test_integer_and_rational_directions_agree():
    # an integer direction is its own integer form; a rational one is
    # scaled, and both give the same profile up to the level scale
    body = generate(GenSpec("random_hull", 3, 7, seed=30_001, denominator_bound=3))
    prof = section_profile(body, (2, -1, 3))
    assert prof.direction == (2, -1, 3) and prof.level_scale == body._int_scale
    same = section_profile(body, (F(2), F(-1), "3"))
    assert same == prof and hash(same) == hash(prof)
    assert same.accumulators == prof.accumulators
    half = section_profile(body, (1, F(-1, 2), F(3, 2)))
    assert half.levels == prof.levels and half.level_scale == 2 * prof.level_scale
    with pytest.raises(TypeError):
        section_profile(body, (2.0, -1, 3))


def test_integer_direction_is_used_as_it_is(monkeypatch):
    # an integer direction, given as a list or a tuple, makes no Fraction and
    # is kept as its int tuple; rational strings give the same profile
    body = generate(GenSpec("random_hull", 3, 7, seed=30_002, denominator_bound=3))
    made = count_fractions(monkeypatch)
    prof = section_profile(body, [1, 0, -2])
    assert made == [] and prof.direction == (1, 0, -2)
    assert all(type(c) is int for c in prof.direction)
    parsed = section_profile(body, ("1", "0", "-2"))
    assert parsed == prof and hash(parsed) == hash(prof)
    assert parsed.moment() == prof.moment() and parsed.integral() == prof.integral()
    with pytest.raises(ZeroDirection):
        section_profile(body, (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        section_profile(body, (1, 0))


# The Sturm-only rule that decided slice-root concavity before the Bernstein
# certificates went ahead of it, kept as the oracle of ``root_concave``.

def brunn_p(q, k):
    """P = k q q'' - (k-1) q'^2 in T, by the products of the polynomial
    ring."""
    dq = derivative(q)
    return add(mul([k * c for c in q], derivative(dq)),
               mul([(1 - k) * c for c in dq], dq))


def sturm_root_concave(prof) -> bool:
    """q > 0 on every piece (lo, hi), by no root there and a positive value
    at the midpoint; P = k q q'' - (k-1) q'^2 in T by
    ``nonpositive_between`` there; and q and q' evaluated at every interior
    level."""
    k = len(prof.direction) - 1
    qs = [derivative(acc) for acc in prof.accumulators]
    for q, lo, hi in zip(qs, prof.levels, prof.levels[1:]):
        if roots_between(trim(q), lo, hi) or evaluate(q, F(lo + hi, 2)) <= 0:
            return False
        if not nonpositive_between(brunn_p(q, k), lo, hi):
            return False
    for i, level in enumerate(prof.levels[1:-1]):
        left, right = qs[i], qs[i + 1]
        value = evaluate(left, level)
        if value <= 0 or value != evaluate(right, level):
            return False
        if evaluate(derivative(left), level) < evaluate(derivative(right), level):
            return False
    return True


def count_routes(monkeypatch) -> Counter:
    """Spy on the two routes of ``root_concave``: the returned counter gets
    (route, verdict) for every piece a route decides, route "certificate"
    or "sturm"."""
    counts = Counter()
    certificate, sturm = sections._bernstein_nonpositive, sections.nonpositive_between

    def counted_certificate(p):
        ok = certificate(p)
        counts["certificate", ok] += 1
        return ok

    def counted_sturm(p, lo, hi):
        ok = sturm(p, lo, hi)
        counts["sturm", ok] += 1
        return ok

    monkeypatch.setattr(sections, "_bernstein_nonpositive", counted_certificate)
    monkeypatch.setattr(sections, "nonpositive_between", counted_sturm)
    return counts


def count_positivity_routes(monkeypatch) -> Counter:
    """Spy on the two routes of the s > 0 test of ``root_concave``: the
    returned counter gets (route, verdict) for every piece a route decides,
    route "certificate" or "sturm"."""
    counts = Counter()
    certificate, sturm = sections._bernstein_positive, sections.positive_between

    def counted_certificate(r):
        ok = certificate(r)
        counts["certificate", ok] += 1
        return ok

    def counted_sturm(r, lo, hi):
        ok = sturm(r, lo, hi)
        counts["sturm", ok] += 1
        return ok

    monkeypatch.setattr(sections, "_bernstein_positive", counted_certificate)
    monkeypatch.setattr(sections, "positive_between", counted_sturm)
    return counts


def double_root_profile() -> SectionProfile:
    """A dim-5 profile of one piece on [0, 1]: s = 5 (2 - (2T - 1)^4) > 0,
    so q = s and P = 4 q q'' - 3 q'^2 = -9600 (2T - 1)^2, which touches 0 at
    T = 1/2.  The root is concave, but P's Bernstein coefficients are -9600,
    9600 and -9600, so the certificate cannot settle the piece."""
    return power_form_profile((F(1),) + (F(0),) * 4, 1, (0, 1),
                              ((0, 5, 20, -40, 40, -16),), 1)


def test_brunn_form_is_the_scaled_p():
    # h^2 P(lo + h u) from the weights, against P built by products
    rng = random.Random(47)
    for _ in range(200):
        k = rng.randint(1, 6)
        q = [rng.randint(-9, 9) for _ in range(rng.randint(0, k + 2))]
        lo, h = rng.randint(-9, 9), rng.randint(1, 5)
        dq = derivative(q)
        p = add(mul([k * c for c in q], derivative(dq)),
                mul([(1 - k) * c for c in dq], dq))
        r = [c * h ** j for j, c in enumerate(sections._taylor_shift(q, lo))]
        expected = trim([h * h * c * h ** j
                         for j, c in enumerate(sections._taylor_shift(p, lo))])
        assert sections._brunn_form(r, k) == expected, (k, q, lo, h)
    assert sections._brunn_form([5, 40, -120, 160, -80], 4) == [-9600, 38400, -38400]


def test_bernstein_coefficients():
    # C(D, i) times the i-th coefficient is sum_{j <= i} C(D - j, i - j) p_j
    rng = random.Random(48)
    for _ in range(200):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        d = len(p) - 1
        scaled = [sum(comb(d - j, i - j) * p[j] for j in range(i + 1))
                  for i in range(d + 1)]
        assert sections._taylor_shift(p[::-1], 1)[::-1] == scaled
        assert sections._bernstein_nonpositive(p) is all(b <= 0 for b in scaled)
    assert sections._bernstein_nonpositive([])
    assert not sections._bernstein_nonpositive([-9600, 38400, -38400])


def test_bernstein_positive_coefficients():
    # every C(D, i) b_i >= 0 and one > 0, from the definition
    rng = random.Random(50)
    for _ in range(200):
        r = [rng.randint(-3, 9) for _ in range(rng.randint(1, 6))]
        d = len(r) - 1
        scaled = [sum(comb(d - j, i - j) * r[j] for j in range(i + 1))
                  for i in range(d + 1)]
        assert sections._bernstein_positive(r) is (
            all(b >= 0 for b in scaled) and any(scaled))
    assert not sections._bernstein_positive([])
    assert not sections._bernstein_positive([0, 0])
    assert sections._bernstein_positive([0, 1])  # u > 0 on (0, 1)
    assert not sections._bernstein_positive([1, -6, 9])  # (1 - 3u)^2: 1, -2, 4


@pytest.mark.parametrize("prof", [
    # dim 4, s = (1 - 3T)^2 on [0, 1]: P = -162 (T - 1/3)^2 <= 0, but the
    # root |1 - 3T|^(2/3) has a cusp where s touches 0 at T = 1/3
    power_form_profile((F(1), F(0), F(0), F(0)), 1, (0, 1), ((0, 1, -3, 3),), 1),
    # dim 3, s = 1 - 2T on [0, 1]: P = -4 <= 0, and s < 0 past T = 1/2
    power_form_profile((F(1), F(0), F(0)), 1, (0, 1), ((0, 1, -1),), 1),
], ids=["touches-zero", "negative-at-an-end"])
def test_root_concave_needs_s_positive_inside(monkeypatch, prof):
    # the Brunn form alone passes both; the s > 0 test refuses them by Sturm
    counts = count_routes(monkeypatch)
    positivity = count_positivity_routes(monkeypatch)
    assert not prof.root_concave() and not sturm_root_concave(prof)
    assert positivity == {("certificate", False): 1, ("sturm", False): 1}
    assert counts == {}
    r = [c * (k + 1) for k, c in enumerate(prof.accumulators[0][1:])]
    assert nonpositive_between(sections._brunn_form(r, len(prof.direction) - 1), 0, 1)


def test_double_root_passes_by_sturm_alone(monkeypatch):
    prof = double_root_profile()
    assert prof.value(F(1, 2)) == 10 and prof.value(0) == prof.value(1) == 5
    counts = count_routes(monkeypatch)
    assert prof.root_concave() and sturm_root_concave(prof)
    assert counts == {("certificate", False): 1, ("sturm", True): 1}


@pytest.mark.parametrize("prof", [
    dip_profile(),
    power_form_profile((F(1), F(0), F(0)), 1, (1, 3), ((0, 3, 0, 1),), 3),
], ids=["dip", "exponent"])
def test_convex_pieces_fail_both_routes(monkeypatch, prof):
    # dip_profile and the profile of test_exponent_of_the_root_matters have
    # P > 0 inside a piece: the certificate leaves it open and Sturm refuses
    counts = count_routes(monkeypatch)
    assert not prof.root_concave() and not sturm_root_concave(prof)
    assert counts["certificate", False] == 1 and counts["sturm", False] == 1
    assert counts["sturm", True] == 0


def _positive_linear(rng, lo, hi):
    while True:
        a, b = rng.randint(-30, 30), rng.randint(-6, 6)
        if a + b * lo > 0 and a + b * hi > 0:
            return [a, b]


def _integer_antiderivative(q, n):
    """An integer accumulator A with A' = lcm(1..n) q."""
    big = lcm(*range(1, n + 1))
    return tuple([0] + [big * c // (j + 1) for j, c in enumerate(q)])


def _random_route_profiles(rng):
    """Hand-made profiles that reach both routes with both verdicts.

    Two pieces meeting at L: q1 a product of n - 1 linear factors positive on
    the support (a concave root), perturbed half the time, and q2 = q1 + (T -
    L) g, which meets q1 at L and bends down there iff g(L) <= 0.  And one
    piece q = a0 + a (T - t)^k, a < 0, for even k, whose P is a multiple of
    (T - t)^(k-2), tilted half the time."""
    out = []
    for _ in range(400):
        n = rng.randint(3, 6)
        lo = rng.randint(-10, 10)
        level = lo + rng.randint(1, 8)
        hi = level + rng.randint(1, 8)
        q1 = [1]
        for _ in range(n - 1):
            q1 = mul(q1, _positive_linear(rng, lo, hi))
        if rng.random() < 0.5:
            q1 = add(q1, [rng.randint(-3, 3) for _ in range(n)])
        g = [rng.randint(-3, 3) for _ in range(rng.randint(1, n - 1))]
        q2 = add(q1, mul([-level, 1], g))
        out.append(power_form_profile((F(1),) + (F(0),) * (n - 1), 1, (lo, level, hi),
                                      (_integer_antiderivative(q1, n),
                                       _integer_antiderivative(q2, n)), 1))
    for _ in range(200):
        n = rng.choice((5, 7))
        t = rng.randint(-5, 5)
        lo, hi = t - rng.randint(1, 3), t + rng.randint(1, 3)
        a = -rng.randint(1, 3)
        q = add([-a * max(t - lo, hi - t) ** (n - 1) + rng.randint(1, 5)],
                [a * c for c in _shifted_power(t, n - 1)])
        if rng.random() < 0.5:
            q = add(q, [0] * (n - 2) + [rng.randint(-2, 2)])
        out.append(power_form_profile((F(1),) + (F(0),) * (n - 1), 1, (lo, hi),
                                      (_integer_antiderivative(q, n),), 1))
    return out


def test_root_concave_agrees_with_sturm_rule_on_hand_made_profiles(monkeypatch):
    counts = count_routes(monkeypatch)
    verdicts = Counter()
    for prof in _random_route_profiles(random.Random(49)):
        verdict = prof.root_concave()
        assert verdict == sturm_root_concave(prof), prof
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) > 150
    assert min(counts.values()) > 50 and len(counts) == 4, counts


def test_root_concave_agrees_with_sturm_rule_on_bodies(monkeypatch, corpus):
    # every profile check_body builds on the corpus, and the dim-5/6 recipe
    # bodies along their facet normals and seeded directions: all concave,
    # every piece with a Brunn form not identically zero settled by the
    # certificate, none sent to Sturm; a zero form (every dim-2 piece, and
    # cones) needs neither
    rng = random.Random(45)
    pairs = [pair for spec, body in corpus for pair in check_body_profiles(spec, body)]
    for body in _recipe_bodies():
        k0 = center_at_centroid(body)
        pairs += [(k0, f.normal) for f in k0.facets]
        pairs += [(body, _random_direction(rng, body.dim)) for _ in range(5)]
    profiles = [section_profile(K, w) for K, w in pairs]
    counts = count_routes(monkeypatch)
    positivity = count_positivity_routes(monkeypatch)
    for prof in profiles:
        assert prof.root_concave() and sturm_root_concave(prof)
    assert len(profiles) > 4000
    pieces = sum(len(prof.levels) - 1 for prof in profiles)
    nonzero = sum(1 for prof in profiles for acc in prof.accumulators
                  if trim(brunn_p(derivative(acc), len(prof.direction) - 1)))
    assert 0 < nonzero < pieces
    assert counts == {("certificate", True): nonzero}
    assert counts["sturm", True] + counts["sturm", False] == 0
    # s > 0 inside every piece is certified too: no piece reaches Sturm
    assert positivity == {("certificate", True): pieces}


# The power-form routes that the level form replaced, kept as the oracles of
# ``integral``, ``moment`` and ``root_concave``: each reads the accumulators
# A_i in powers of T, piece by piece.

def _power_spans(prof):
    return zip(prof.accumulators, prof.levels, prof.levels[1:])


def power_integral(prof) -> F:
    """A piece contributes (A(hi) - A(lo)) / den."""
    total = sum(c * (hi ** k - lo ** k)
                for acc, lo, hi in _power_spans(prof) for k, c in enumerate(acc))
    return F(total, prof.denominator)


def power_moment(prof) -> F:
    """A piece contributes (1 / (M den)) integral T A'(T) dT, the power sum
    sum_k k c_k (hi^(k+1) - lo^(k+1)) / (k+1)."""
    big = lcm(*range(1, max(map(len, prof.accumulators)) + 1))
    total = sum(big // (k + 1) * k * c * (hi ** (k + 1) - lo ** (k + 1))
                for acc, lo, hi in _power_spans(prof) for k, c in enumerate(acc))
    return F(total, big * prof.level_scale * prof.denominator)


def power_root_concave(prof) -> bool:
    """``root_concave`` with each piece's A' Taylor-shifted to its own lower
    level from powers of T, through the same certificates and Sturm tests.
    Each junction is tested by value and slope, before the piece above it
    is certified: the pieces below and above must meet at a positive value,
    sum(r) = r_next(0), and bend down, the slope sum(j r_j) / h of the piece
    below at least r_next_1 / h_next."""
    k = len(prof.direction) - 1
    below = None
    for acc, lo, hi in _power_spans(prof):
        h = hi - lo
        r = [c * h ** j for j, c in
             enumerate(sections._taylor_shift(derivative(acc), lo))]
        if below is not None:
            h_below, value, slope = below
            if (value <= 0 or value != (r[0] if r else 0)
                    or slope * h < (r[1] if len(r) > 1 else 0) * h_below):
                return False
        if not (sections._bernstein_positive(r) or sections.positive_between(r, 0, 1)):
            return False
        p = sections._brunn_form(r, k)
        if p and not (sections._bernstein_nonpositive(p)
                      or sections.nonpositive_between(p, 0, 1)):
            return False
        below = h, sum(r), sum(j * c for j, c in enumerate(r))
    return True


def assert_power_form_routes(monkeypatch, prof):
    """The level-form integral, moment and root verdict equal the power-form
    ones, and the certificates see the same r on every piece."""
    seen = []
    positive = sections._bernstein_positive
    monkeypatch.setattr(sections, "_bernstein_positive",
                        lambda r: seen.append(list(r)) or positive(r))
    verdict = prof.root_concave()
    level_rs, seen[:] = seen[:], []
    assert verdict == power_root_concave(prof), prof
    assert level_rs == seen, prof
    assert prof.integral() == power_integral(prof), prof
    assert prof.moment() == power_moment(prof), prof
    monkeypatch.setattr(sections, "_bernstein_positive", positive)


def test_level_form_routes_match_power_form_oracles(monkeypatch, corpus):
    # every profile check_body builds on the corpus, the dim-5/6 recipe
    # bodies and the lattice-grid stratum: the centered body along each
    # facet normal and the body along five seeded directions.  No body's
    # cumulative volume jumps, so every level's d_0 is 0
    rng = random.Random(52)
    pairs = [pair for spec, body in corpus for pair in check_body_profiles(spec, body)]
    for body in _recipe_bodies() + lattice_grid_bodies(7, 40):
        k0 = center_at_centroid(body)
        pairs += [(k0, f.normal) for f in k0.facets]
        pairs += [(body, _random_direction(rng, body.dim)) for _ in range(5)]
    for K, w in pairs:
        prof = section_profile(K, w)
        assert all(d[0] == 0 for d in prof.level_sums), (K, w)
        assert_power_form_routes(monkeypatch, prof)
    assert len(pairs) > 4000


def test_level_form_routes_match_power_form_oracles_with_jumps(monkeypatch):
    # hand-made profiles whose levels carry a jump d_0 != 0, which no body
    # makes: s, and so every route, does not see it
    rng = random.Random(53)
    profiles = _random_route_profiles(random.Random(49))[::4] + [
        dip_profile(), double_root_profile()]
    jumps = 0
    for prof in profiles:
        sums = tuple((d[0] + rng.randint(-9, 9),) + d[1:] for d in prof.level_sums)
        jumped = SectionProfile(direction=prof.direction, level_scale=prof.level_scale,
                                levels=prof.levels, level_sums=sums,
                                denominator=prof.denominator)
        jumps += any(d[0] for d in sums)
        assert jumped.pieces == prof.pieces
        assert_power_form_routes(monkeypatch, jumped)
        assert (jumped.integral(), jumped.moment(), jumped.root_concave()) == \
            (prof.integral(), prof.moment(), prof.root_concave())
    assert jumps > 100


def _perturbed_junctions(rng, prof):
    """``prof`` with d_1 or d_2 of one interior level moved, which s sees
    only at that level: a step of s, or a kink of either sign."""
    interior = [i for i in range(1, len(prof.level_sums)) if len(prof.level_sums[i]) > 2]
    if not interior:
        return None
    sums = [list(d) for d in prof.level_sums]
    d = sums[rng.choice(interior)]
    j = rng.choice((1, 2, 2))
    d[j] += rng.choice((-1, 1)) * max(1, abs(d[j]) // rng.randint(1, 20))
    return SectionProfile(direction=prof.direction, level_scale=prof.level_scale,
                          levels=prof.levels, level_sums=tuple(map(tuple, sums)),
                          denominator=prof.denominator)


def test_junction_rule_matches_value_and_slope_oracles(corpus):
    # a junction is read off its level sum (d_1 = 0, d_2 <= 0, q > 0 there);
    # the power-form and Sturm oracles test it by q's value and slope on
    # both sides.  Corpus profiles with one level's d_1 or d_2 moved take
    # both verdicts; s = T^2 on [-1, 1] at n = 4 has a concave root on each
    # piece and a cusp where the pieces meet at 0, which only q > 0 refuses
    rng = random.Random(55)
    profiles = [section_profile(K, w) for spec, body in corpus[::6]
                for K, w in check_body_profiles(spec, body)]
    moved = [_perturbed_junctions(rng, prof) for prof in profiles]
    cusp = power_form_profile((F(1),) + (F(0),) * 3, 1, (-1, 0, 1),
                              (_integer_antiderivative([0, 0, 1], 4),) * 2, 1)
    verdicts = Counter()
    for prof in [prof for prof in moved if prof] + [cusp]:
        verdict = prof.root_concave()
        assert verdict == power_root_concave(prof) == sturm_root_concave(prof), prof
        verdicts[verdict] += 1
    assert not cusp.root_concave() and not any(cusp.level_sums[1])
    assert min(verdicts[True], verdicts[False]) > 50, verdicts


def test_reflected_direction_mirrors_the_profile(corpus):
    # s_(-w)(t) = s_w(-t) on the corpus and the lattice-grid stratum, for w
    # each facet normal of the centered body and five seeded directions:
    # the breakpoints negated and reversed, the pieces and values mirrored,
    # the moment negated, the integral and the root verdict equal
    rng = random.Random(54)
    pairs = 0
    for body in [body for _, body in corpus] + lattice_grid_bodies(8, 20):
        k0 = center_at_centroid(body)
        for K, w in [(k0, f.normal) for f in k0.facets] + [
                (body, _random_direction(rng, body.dim)) for _ in range(5)]:
            prof, mirror = section_profile(K, w), section_profile(K, tuple(-c for c in w))
            bp = prof.breakpoints
            assert mirror.levels == tuple(-h for h in reversed(prof.levels))
            assert mirror.breakpoints == tuple(-t for t in reversed(bp))
            assert mirror.pieces == tuple(tuple((-1) ** k * c for k, c in enumerate(piece))
                                          for piece in reversed(prof.pieces))
            for t in bp + tuple((a + b) / 2 for a, b in zip(bp, bp[1:])):
                assert mirror.value(-t) == prof.value(t)
            assert mirror.moment() == -prof.moment()
            assert mirror.integral() == prof.integral()
            assert mirror.root_concave() == prof.root_concave()
            pairs += 1
    assert pairs > 3000
