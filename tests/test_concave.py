import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godbersen import (
    DimensionMismatch,
    InvalidM,
    LemmaViolation,
    NotConcave,
    PLConcave,
    bm_check,
    bridge_inequality,
    build_hull,
    center_at_centroid,
    concave,
    cross_polytope,
    geometry,
    godbersen_integral,
    godbersen_integral_check,
    random_concave,
    reflect,
    scale,
    SectionProfile,
    section_profile,
    slice_root_concavity,
    standard_simplex,
    TheoremViolation,
    translate,
    unit_cube,
)
from godbersen.linalg import scale_to_integers
from godbersen.mixedvol import MixedVolumeProfile
from godbersen.polynomials import mul
from godbersen.rationals import as_rat
from tests.conftest import (
    as_vector, brunn_minkowski_pairs, count_fractions, minkowski_sum,
    power_form_profile)
from tests.test_geometry import TRIANGLE, SQUARE, random_polytope
from tests.test_polynomials import definite_integral, power

LINEAR_DOWN = PLConcave((F(0), F(1)), (F(1), F(0)))       # 1 - r
CONSTANT_ONE = PLConcave((F(0), F(1)), (F(1), F(1)))
LINEAR_UP = PLConcave((F(0), F(1)), (F(0), F(1)))         # r
TENT = PLConcave((F(0), F(1, 2), F(1)), (F(0), F(1), F(1)))  # min(2r, 1)
ZERO = PLConcave((F(0), F(1)), (F(0), F(0)))
PLATEAU = PLConcave((F(0), F(1, 4), F(2, 3), F(1)),          # flat middle piece
                    (F(0), F(1), F(1), F(1, 2)))

# sha256 of "m value" lines of godbersen_integral over _seeded_concave() and
# m = 2..8, in that order.  Recorded from the polynomial-expansion route.
INTEGRAL_DIGEST = "a2dcfc80073f0f257692bb65d5d86381871b1253192dbd9db186608a67036fec"


def _integral_by_expansion(f: PLConcave, m: int) -> F:
    """Reference route: on each piece f = alpha + beta r, expand
    (r - 1/(m+1)) (alpha + beta r)^(m-1) and integrate the polynomial.  The
    knots and values may be ints, so the slope is taken as a Fraction."""
    shift = [-F(1, m + 1), F(1)]
    total = F(0)
    for (k1, v1), (k2, v2) in zip(zip(f.knots, f.values),
                                  zip(f.knots[1:], f.values[1:])):
        slope = F(v2 - v1, k2 - k1)
        line = [v1 - slope * k1, slope]
        total += definite_integral(mul(shift, power(line, m - 1)), k1, k2)
    return total


def _integral_by_power_sum(f: PLConcave, m: int) -> F:
    """Second reference route: on each piece of width h from v1 to v2, the
    m-term power sum h sum_i v1^(m-1-i) v2^i ((m+1) k1 - 1 + (i+1) h), one
    term per i, on f's integer knots and values over their denominator."""
    ks, vs, den = f._int_knots, f._int_values, f._int_scale
    total = 0
    for k1, k2, v1, v2 in zip(ks, ks[1:], vs, vs[1:]):
        h = k2 - k1
        base = (m + 1) * k1 - den + h
        total += h * sum(v1 ** (m - 1 - i) * v2 ** i * (base + i * h)
                         for i in range(m))
    return F(total, m * (m + 1) * den ** (m + 1))


@st.composite
def integer_pieces(draw):
    """A concave function in integer form: knots 0 < ... < den, integer
    slopes in nonincreasing order, 0 among them often (pieces with
    v1 == v2), the minimum shifted to 0 or just above it (a zero endpoint
    or none), or one piece from any v1 to any v2."""
    den = draw(st.integers(1, 60))
    if den == 1 or draw(st.booleans()):
        ks = [0, den]
        vs = [draw(st.integers(0, 50)), draw(st.integers(0, 50))]
        if draw(st.booleans()):
            vs[1] = vs[0]
    else:
        ks = [0, *sorted(draw(st.lists(st.integers(1, den - 1), max_size=6,
                                       unique=True))), den]
        slopes = sorted(draw(st.lists(st.integers(-5, 5) | st.just(0),
                                      min_size=len(ks) - 1,
                                      max_size=len(ks) - 1)), reverse=True)
        vs = [0]
        for k1, k2, s in zip(ks, ks[1:], slopes):
            vs.append(vs[-1] + s * (k2 - k1))
        low = min(vs) - draw(st.sampled_from((0, 0, 1, 7)))
        vs = [v - low for v in vs]
    return ks, vs, den


def _bridge_by_substitution(K, w) -> F:
    """Reference route: substitute r = (t - lo) / wid into r - 1/(n+1) and
    integrate its product with each profile piece."""
    prof = section_profile(center_at_centroid(K), as_vector(w))
    lo, hi = prof.support_interval()
    wid = hi - lo
    total = F(0)
    for i, piece in enumerate(prof.pieces):
        a, b = prof.breakpoints[i], prof.breakpoints[i + 1]
        integrand = mul([-lo / wid - F(1, K.dim + 1), 1 / wid], list(piece))
        total += definite_integral(integrand, a, b) / wid
    return total


def _fraction_rule(knots, values) -> tuple[str | None, bool | None]:
    """The Fraction-slope validation that ``PLConcave`` ran before its
    integer form, kept as the oracle: the ``NotConcave`` message it raised,
    or None, and whether an accepted function is linear."""
    k = tuple(as_rat(x) for x in knots)
    v = tuple(as_rat(x) for x in values)
    if len(k) != len(v) or len(k) < 2:
        return "knots and values must match and cover [0,1]", None
    if k[0] != 0 or k[-1] != 1:
        return "domain must be exactly [0,1]", None
    if any(b <= a for a, b in zip(k, k[1:])):
        return "knots must be strictly increasing", None
    if any(x < 0 for x in v):
        return "values must be nonnegative", None
    slopes = tuple((v2 - v1) / (k2 - k1)
                   for k1, k2, v1, v2 in zip(k, k[1:], v, v[1:]))
    if any(s2 > s1 for s1, s2 in zip(slopes, slopes[1:])):
        return "slopes must be nonincreasing", None
    return None, slopes[0] == slopes[-1]


def _integer_rule(knots, values) -> tuple[str | None, bool | None]:
    """``PLConcave``'s verdict in the oracle's terms."""
    try:
        f = PLConcave(knots, values)
    except NotConcave as err:
        return str(err), None
    return None, f.is_linear()


M61 = 2 ** 61 - 1  # a prime, so coprime to every smaller denominator


@st.composite
def knots_and_values(draw):
    """Rational knots and values near the concavity boundary: slopes sorted
    or not, ties, a shifted minimum, a repeated knot, a wrong domain end,
    denominators up to 2^61 - 1."""
    den = draw(st.sampled_from((12, M61)))
    inner = draw(st.lists(st.fractions(0, 1, max_denominator=den)
                          .filter(lambda x: 0 < x < 1), max_size=5, unique=True))
    knots = [F(0), *sorted(inner), draw(st.sampled_from((F(1),) * 5 + (F(3, 4),)))]
    if draw(st.sampled_from((False,) * 9 + (True,))):
        knots.insert(1, knots[1])
    slopes = draw(st.lists(st.fractions(-8, 8, max_denominator=den),
                           min_size=len(knots) - 1, max_size=len(knots) - 1))
    if len(slopes) > 1 and draw(st.booleans()):
        slopes[1] = slopes[0]
    if draw(st.booleans()):
        slopes.sort(reverse=True)
    values = [F(0)]
    for k1, k2, s in zip(knots, knots[1:], slopes):
        values.append(values[-1] + s * (k2 - k1))
    low = min(values) - draw(st.sampled_from((F(0), F(0), F(1, den), F(-1, 7))))
    return knots, [x - low for x in values]


def _fraction_random_concave(rng: random.Random) -> PLConcave:
    """``random_concave`` as it drew before its integer form: Fraction knots
    and slopes, integrated in Fractions and parsed by the constructor.  Kept
    as the oracle of the integer draw."""
    extra = rng.randint(0, concave.MAX_EXTRA_KNOTS)
    interior = {F(rng.randint(1, concave.DENOMINATOR_BOUND * 4),
                  concave.DENOMINATOR_BOUND * 4 + 1) for _ in range(extra)}
    knots = sorted({F(0), F(1)} | interior)
    slopes = sorted((F(rng.randint(-24, 24), rng.randint(1, concave.DENOMINATOR_BOUND))
                     for _ in range(len(knots) - 1)), reverse=True)
    values = [F(0)]
    for k1, k2, s in zip(knots, knots[1:], slopes):
        values.append(values[-1] + s * (k2 - k1))
    low = min(values)
    return PLConcave(tuple(knots), tuple(v - low for v in values))


def _all_fields(f: PLConcave) -> tuple:
    return tuple(getattr(f, fd.name) for fd in dataclasses.fields(PLConcave))


def _seeded_concave() -> list[PLConcave]:
    """200 seeded random functions, then the named ones, flat pieces included."""
    rng = random.Random(68)
    return ([random_concave(rng) for _ in range(200)]
            + [ZERO, CONSTANT_ONE, TENT, PLATEAU])


class TestPLConcave:
    def test_validation(self):
        with pytest.raises(NotConcave):
            PLConcave((F(0), F(1)), (F(-1), F(0)))          # negative value
        with pytest.raises(NotConcave):
            PLConcave((F(0), F(1, 2)), (F(0), F(1)))        # domain not [0,1]
        with pytest.raises(NotConcave):
            PLConcave((F(0), F(1, 2), F(1)), (F(0), F(0), F(1)))  # convex kink
        with pytest.raises(NotConcave):
            PLConcave((F(0), F(1, 2), F(1, 2), F(1)), (F(0),) * 4)  # repeated knot

    def test_floats_refused_at_the_edge(self):
        # the constructor refuses float knots and values, and decimal
        # strings, before any scaling
        with pytest.raises(TypeError):
            PLConcave((0, 0.5, 1), (0.0, 1.0, 1.0))
        with pytest.raises(TypeError):
            PLConcave((F(0), F(1)), (F(1), 0.0))
        with pytest.raises(ValueError):
            PLConcave(("0", "0.5", "1"), ("0", "1", "1"))

    def test_ints_and_rational_strings_become_fractions(self):
        f = PLConcave((0, "1/2", 1), ("0", 1, F(1)))
        assert f == TENT and not f.is_linear()
        assert all(type(x) is F for x in f.knots + f.values)
        assert godbersen_integral(f, 3) == godbersen_integral(TENT, 3)

    def test_linearity(self):
        assert not TENT.is_linear() and LINEAR_DOWN.is_linear() and ZERO.is_linear()
        # collinear knots: several pieces, one slope
        assert PLConcave((F(0), F(1, 3), F(1)), (F(1), F(2, 3), F(0))).is_linear()
        assert not PLATEAU.is_linear()

    def test_scaled_once(self, monkeypatch):
        # random_concave hands its integer form over and scales nothing, the
        # public constructor scales once, and no integral scales; every
        # function keeps its integer form and no Fraction slope
        calls = []

        def spy(points):
            calls.append(points)
            return scale_to_integers(points)

        monkeypatch.setattr(concave, "scale_to_integers", spy)
        rng = random.Random(68)
        functions = [random_concave(rng) for _ in range(20)]
        assert calls == []
        functions.append(PLConcave((0, "1/2", 1), (0, 1, 1)))
        assert len(calls) == 1
        for f in functions:
            for m in range(2, 9):
                godbersen_integral_check(f, m)
        assert len(calls) == 1
        assert [fd.name for fd in dataclasses.fields(PLConcave)] == [
            "_int_knots", "_int_values", "_int_scale"]
        assert all(type(x) is int for f in functions
                   for x in f._int_knots + f._int_values + (f._int_scale,))

    def test_random_concave_matches_the_fraction_draw(self):
        # the integer draw against the Fraction draw it replaced and against
        # re-parsing its own views: all five fields agree, and the stream is
        # left at the same state
        for seed in range(1000):
            rng, ref = random.Random(seed), random.Random(seed)
            f, g = random_concave(rng), _fraction_random_concave(ref)
            again = PLConcave(f.knots, f.values)
            for other in (g, again):
                assert _all_fields(f) == _all_fields(other)
            assert all(type(x) is F for x in f.knots + f.values)
            assert rng.random() == ref.random()

    def test_random_concave_makes_only_its_views(self, monkeypatch):
        # the draw makes no Fraction; its two views are made once, when
        # first read
        made = count_fractions(monkeypatch)
        rng = random.Random(5)
        for _ in range(50):
            f = random_concave(rng)
            assert made == []
            assert f.knots is f.knots and f.values is f.values
            assert len(made) == 2 * len(f._int_knots)
            made.clear()

    def test_integral_check_makes_only_its_value(self, monkeypatch):
        made = count_fractions(monkeypatch)
        rng = random.Random(6)
        for m in range(2, 9):
            res = godbersen_integral_check(random_concave(rng), m)
            assert len(made) == 1 and F(*made[0]) == res.value
            made.clear()

    def test_constructor_and_integer_form_give_equal_functions(self):
        f = PLConcave._from_ints([0, 6, 12], [0, 12, 12], 12)
        assert f == TENT and hash(f) == hash(TENT)

    def test_integer_form_is_checked_like_the_constructor(self):
        # _from_ints reduces its form and runs the constructor's checks
        f = PLConcave._from_ints([0, 6, 12], [0, 12, 12], 12)
        assert _all_fields(f) == _all_fields(TENT)
        for ks, vs, den, message in (
                ([0, 6], [0, 6, 6], 12, "must match"),
                ([0, 6, 11], [0, 6, 6], 12, "domain"),
                ([0, 6, 6, 12], [0, 6, 6, 6], 12, "strictly increasing"),
                ([0, 6, 12], [0, -1, 6], 12, "nonnegative"),
                ([0, 6, 12], [0, 0, 6], 12, "nonincreasing")):
            with pytest.raises(NotConcave, match=message):
                PLConcave._from_ints(ks, vs, den)

    def test_integer_form_agrees_with_the_fraction_rule_on_seeded_functions(self):
        for f in _seeded_concave():
            assert _fraction_rule(f.knots, f.values) == (None, f.is_linear())

    @settings(max_examples=300, deadline=None)
    @given(knots_and_values())
    def test_integer_form_agrees_with_the_fraction_rule(self, kv):
        assert _integer_rule(*kv) == _fraction_rule(*kv)

    @pytest.mark.parametrize("knots, values, verdict", [
        # a collinear interior knot: equal slopes, accepted and linear
        ((0, F(1, 3), 1), (1, F(2, 3), 0), (None, True)),
        ((0, F(2, 5), 1), (F(1, 2), F(7, 10), 1), (None, True)),
        # a kink of one unit of the common denominator 7 at knot 3/7
        ((0, F(3, 7), 1), (1, F(6, 7), 1), ("slopes must be nonincreasing", None)),
        ((0, F(3, 7), 1), (1, F(8, 7), 1), (None, False)),
        # large coprime denominators: one unit of 2^61 - 1, then of
        # (2^61 - 1)(2^31 - 1)
        ((0, F(1, M61), 1), (1, 1 - F(1, M61), 1), ("slopes must be nonincreasing", None)),
        ((0, F(1, M61), 1), (1, 1 + F(1, M61), 1), (None, False)),
        ((0, F(1, M61), 1), (1, 1 - F(1, M61), 0), (None, True)),
        ((0, F(1, M61), F(1, 2 ** 31 - 1), 1),
         (1, 1 - F(1, M61), 1 - F(1, 2 ** 31 - 1), 0), (None, True)),
        ((0, F(1, M61), F(1, 2 ** 31 - 1), 1),
         (1, 1 - F(1, M61), 1 - F(1, 2 ** 31 - 1) - F(1, M61 * (2 ** 31 - 1)), 0),
         ("slopes must be nonincreasing", None)),
    ])
    def test_integer_form_edge_cases(self, knots, values, verdict):
        assert _fraction_rule(knots, values) == verdict
        assert _integer_rule(knots, values) == verdict

    def test_equality_hash_and_repr_see_knots_and_values_only(self):
        again = PLConcave((F(0), F(1, 2), F(1)), (F(0), F(1), F(1)))
        assert again == TENT and hash(again) == hash(TENT)
        assert repr(TENT) == ("PLConcave(knots=(Fraction(0, 1), Fraction(1, 2), "
                              "Fraction(1, 1)), values=(Fraction(0, 1), "
                              "Fraction(1, 1), Fraction(1, 1)))")
        # same slopes, other values
        assert LINEAR_UP != PLConcave((F(0), F(1)), (F(1), F(2)))


class TestGodbersenIntegral:
    def test_equality_case(self):
        assert godbersen_integral(LINEAR_DOWN, 2) == 0

    def test_constant(self):
        # integral of (r - 1/3) over [0,1] = 1/2 - 1/3
        assert godbersen_integral(CONSTANT_ONE, 2) == F(1, 6)

    def test_linear_up(self):
        # integral of r(r - 1/3) = 1/3 - 1/6
        assert godbersen_integral(LINEAR_UP, 2) == F(1, 6)

    def test_tent_by_piecewise_oracle(self):
        # piece [0,1/2]: integral (r - 1/3) 2r dr = 2[r^3/3 - r^2/6] = 0
        # piece [1/2,1]: integral (r - 1/3) dr = [r^2/2 - r/3] = 1/6 + 1/24
        assert godbersen_integral(TENT, 2) == F(0) + F(1, 6) + F(1, 24) == F(5, 24)

    def test_flat_interior_piece(self):
        # pieces (r - 1/3) 4r on [0,1/4], (r - 1/3) on [1/4,2/3] and
        # (r - 1/3)(2 - 3r/2) on [2/3,1]
        assert godbersen_integral(PLATEAU, 2) == F(-1, 48) + F(5, 96) + F(13, 108)

    def test_closed_form_equals_expansion(self):
        for f in _seeded_concave():
            for m in range(2, 9):
                assert godbersen_integral(f, m) == _integral_by_expansion(f, m) \
                    == _integral_by_power_sum(f, m)

    @settings(max_examples=300, deadline=None)
    @given(integer_pieces(), st.integers(2, 16))
    def test_closed_form_equals_power_sum_on_integer_pieces(self, piece, m):
        # the closed-form S0 and S1 against the m-term sum they replace, on
        # flat pieces, zero endpoints and exponents past the corpus's 8
        f = PLConcave._from_ints(*piece)
        assert godbersen_integral(f, m) == _integral_by_power_sum(f, m)

    def test_flat_and_zero_pieces_by_hand(self):
        # v1 == v2 takes S0 = m v1^(m-1) and S1 = C(m, 2) v1^(m-1): the
        # constant 1 gives integral (r - 1/(m+1)) dr = 1/2 - 1/(m+1), and the
        # zero function 0 for every m
        for m in range(2, 17):
            assert godbersen_integral(CONSTANT_ONE, m) == F(1, 2) - F(1, m + 1)
            assert godbersen_integral(ZERO, m) == 0

    def test_values_match_recorded_digest(self):
        digest = hashlib.sha256()
        for f in _seeded_concave():
            for m in range(2, 9):
                digest.update(f"{m} {godbersen_integral(f, m)}\n".encode())
        assert digest.hexdigest() == INTEGRAL_DIGEST

    @pytest.mark.parametrize("m", [1, 0, -3, True, 2.0, 3.5, "3", F(3), None])
    def test_invalid_m(self, m):
        with pytest.raises(InvalidM):
            godbersen_integral(LINEAR_DOWN, m)

    def test_scale_covariance(self):
        rng = random.Random(61)
        for _ in range(30):
            f = random_concave(rng)
            c = F(rng.randint(1, 20), rng.randint(1, 7))
            for m in (2, 3, 5):
                scaled = PLConcave(f.knots, tuple(c * v for v in f.values))
                assert godbersen_integral(scaled, m) == \
                    c ** (m - 1) * godbersen_integral(f, m)


class TestIntegralCheck:
    def test_linear_down_all_m(self):
        for m in (2, 3, 4, 7):
            res = godbersen_integral_check(LINEAR_DOWN, m)
            assert res.equality and res.nonneg

    def test_tent_positive(self):
        res = godbersen_integral_check(TENT, 2)
        assert res.value == F(5, 24) and not res.equality

    def test_zero_function_counts_as_characterized(self):
        # godbersen_integral_check raises unless equality matches
        # (f(1) = 0 and f linear)
        res = godbersen_integral_check(ZERO, 2)
        assert res.equality

    def test_scaled_equality_family(self):
        # every c(1 - r) hits equality; every linear f with f(1) > 0 does not
        for c in (F(1, 3), F(2), F(7, 5)):
            f = PLConcave((F(0), F(1)), (c, F(0)))
            assert godbersen_integral_check(f, 3).equality
        g = PLConcave((F(0), F(1)), (F(2), F(1)))
        assert not godbersen_integral_check(g, 3).equality

    def test_random_corpus(self):
        rng = random.Random(62)
        eq = 0
        for _ in range(200):
            f = random_concave(rng)
            for m in (2, 3, 8):
                res = godbersen_integral_check(f, m)  # raises on any violation
                eq += res.equality
        assert eq >= 1  # the generator does produce equality cases

    @pytest.mark.parametrize("f, value, match", [
        (TENT, F(-1, 12), r"^integral -1/12 < 0 for a concave input$"),
        (TENT, F(0), r"^equality=True but characterization=False$"),
        (LINEAR_DOWN, F(1, 12), r"^equality=False but characterization=True$"),
    ], ids=["negative", "zero", "positive"])
    def test_sign_and_equality_of_a_wrong_value_raise(self, monkeypatch, f, value, match):
        # the check decides the sign of the value the integral returns, and
        # equality against the characterization, on its numerator
        monkeypatch.setattr(concave, "godbersen_integral", lambda f, m: value)
        with pytest.raises(LemmaViolation, match=match):
            godbersen_integral_check(f, 2)


ROOT_SAMPLES = 33
CONCAVITY_TOL = 1e-9


def float_root_concavity(prof) -> bool:
    """The float route that decided slice-root concavity before the exact
    test, kept as the oracle: for n = 2 the slopes of the linear pieces are
    compared exactly; for n >= 3 the root is sampled in floating point at
    ``ROOT_SAMPLES`` equispaced points and midpoint concavity is required
    within a relative tolerance ``CONCAVITY_TOL``."""
    n = len(prof.direction)
    if n == 2:
        slopes = []
        for piece in prof.pieces:
            if len(piece) > 2:
                return False
            slopes.append(piece[1] if len(piece) == 2 else F(0))
        return all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))
    lo, hi = prof.support_interval()
    vals = []
    for i in range(ROOT_SAMPLES):
        s = prof.value(lo + (hi - lo) * F(i, ROOT_SAMPLES - 1))
        vals.append(float(s) ** (1.0 / (n - 1)) if s > 0 else 0.0)
    tol = CONCAVITY_TOL * (max(vals) if max(vals) > 0 else 1.0)
    return all(vals[i] >= (vals[i - 1] + vals[i + 1]) / 2 - tol
               for i in range(1, ROOT_SAMPLES - 1))


def dip_profile() -> SectionProfile:
    """A dim-3 profile on the levels 0..32 (so the oracle samples every
    integer level): s = 1, except on (10, 11) where s = 2T^2 - 42T + 221
    dips to 1/2 and back.  The pieces meet at value 1 with concave kinks, so
    only the sign of P on the middle piece gives the dip away."""
    return power_form_profile((F(1), F(0), F(0)), 1, (0, 10, 11, 32),
                              ((0, 3), (0, 663, -63, 2), (0, 3)), 3)


class TestSliceRootConcavity:
    def test_cube_constant_profile(self):
        assert slice_root_concavity(unit_cube(3), (1, 0, 0))

    def test_triangle_exact_path(self):
        assert slice_root_concavity(build_hull(TRIANGLE), (1, 0))

    def test_simplex_diagonal(self):
        assert slice_root_concavity(standard_simplex(3), (1, 1, 1))

    def test_random_bodies_and_directions(self):
        rng = random.Random(63)
        for dim in (2, 3, 4):
            body = random_polytope(rng, dim, dim + 3)
            for _ in range(5):
                w = tuple(rng.randint(-5, 5) for _ in range(dim))
                if all(c == 0 for c in w):
                    continue
                assert slice_root_concavity(body, w)
                assert float_root_concavity(section_profile(body, w))

    def test_cone_has_zero_p(self):
        # s is a square of a linear function along the pyramid's axis: P = 0
        pyramid = build_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0),
                              (1, 1, 2)])
        prof = section_profile(pyramid, (0, 0, 1))
        assert len(prof.pieces) == 1 and prof.root_concave()

    def test_dip_between_samples_is_caught(self):
        prof = dip_profile()
        assert prof.value(F(10)) == prof.value(F(11)) == 1
        assert prof.value(F(21, 2)) == F(1, 2)
        assert float_root_concavity(prof)
        assert not prof.root_concave()

    def test_exponent_of_the_root_matters(self):
        # s = 1 + T^2 on [1, 3] in dim 3: sqrt(s) is convex, though log(s)
        # is concave there, so a test of the wrong root would pass it
        prof = power_form_profile((F(1), F(0), F(0)), 1, (1, 3), ((0, 3, 0, 1),),
                                  3)
        assert prof.value(F(2)) == 5
        assert not prof.root_concave() and not float_root_concavity(prof)

    def test_breakpoint_checks(self):
        # a convex kink: s = 1 then 1 + (T - 10)
        kink = power_form_profile((F(1), F(0), F(0)), 1, (0, 10, 20),
                                  ((0, 2), (0, -18, 1)), 2)
        assert kink.value(F(15)) == 6 and not kink.root_concave()
        # a jump: s = 1 then 2
        jump = power_form_profile((F(1), F(0), F(0)), 1, (0, 10, 20),
                                  ((0, 1), (0, 2)), 1)
        assert not jump.root_concave()
        # a concave kink at a positive common value passes
        tent = power_form_profile((F(1), F(0)), 1, (0, 10, 20),
                                  ((0, 1, 1), (0, 41, -1)), 1)
        assert tent.root_concave() and float_root_concavity(tent)


def float_brunn_minkowski(volume, a, b) -> tuple[bool, bool]:
    """The float route that decided Brunn-Minkowski before the exact test,
    kept as the oracle: (Vol(a + b)^(1/n) >= Vol(a)^(1/n) + Vol(b)^(1/n),
    the two sides equal) for the exact ``volume`` of the sum, with floating
    n-th roots compared within a relative tolerance ``CONCAVITY_TOL``."""
    n = a.dim
    lhs = float(volume) ** (1.0 / n)
    rhs = float(a.volume) ** (1.0 / n) + float(b.volume) ** (1.0 / n)
    return lhs >= rhs - CONCAVITY_TOL * rhs, abs(lhs - rhs) <= CONCAVITY_TOL * rhs


class TestBrunnMinkowski:
    def test_cube_homothety_equality(self):
        res = bm_check(unit_cube(3), unit_cube(3))
        assert res.volume == 8 and res.equality and res.ok

    def test_square_triple_equality(self):
        sq = build_hull(SQUARE)
        res = bm_check(sq, scale(sq, 3))
        # (1 + 3)^2 = 1 + 3^2 + 2 * 1 * 3
        assert res.volume == 16 and res.equality and res.ok

    def test_triangle_difference(self):
        # Vol(T - T) = 3 > (2 sqrt(1/2))^2 = 2: the profile is (1/2, 1, 1/2),
        # and m_1^2 = 1 > m_0 m_2 = 1/4, since -T is no homothet of T
        tri = build_hull(TRIANGLE)
        res = bm_check(tri, reflect(tri))
        assert res.volume == 3 and not res.equality and res.ok

    def test_random_pairs_hold(self):
        rng = random.Random(64)
        for dim in (2, 3):
            for _ in range(6):
                a = random_polytope(rng, dim, dim + 3)
                b = random_polytope(rng, dim, dim + 3)
                res = bm_check(a, b)
                assert res.ok and not res.equality

    def test_equality_only_for_homothets(self):
        rng = random.Random(65)
        for _ in range(6):
            a = random_polytope(rng, 2, 6)
            hom = translate(scale(a, F(5, 2)), (F(1), F(-3, 2)))
            res = bm_check(a, hom)
            assert res.ok and res.equality
            assert res.volume == F(7, 2) ** 2 * a.volume

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bm_check(build_hull(SQUARE), unit_cube(3))

    def test_profile_that_is_not_log_concave_fails(self, monkeypatch):
        # m_1^2 = 1/4 < m_0 m_2 = 1: the comparisons follow from the
        # log-concavity that mv_profile asserts, so a profile that breaks
        # them is a bug and raises, though its sum 1 + 2 (1/2) + 1 = 3 is
        # below (1 + 1)^2 = 4 anyway
        monkeypatch.setattr(concave, "mv_profile",
                            lambda K, L: MixedVolumeProfile(2, (2, 1, 2), 2))
        sq = build_hull(SQUARE)
        with pytest.raises(TheoremViolation, match="Minkowski inequality"):
            bm_check(sq, sq)

    def test_sum_volume_from_profile(self, corpus, monkeypatch):
        # Vol(K + L) from the mixed-volume profile equals the volume of the
        # reference sum, the verdict agrees with the float oracle on it, and
        # with polytope assembly made to raise, bm_check shows that it builds
        # no sum
        pairs, homothets = brunn_minkowski_pairs(corpus)
        pairs += homothets
        pairs.append((build_hull([(0,), (1,)]), build_hull([(F(-1, 3),), (2,)])))
        pairs += [(cross_polytope(n), standard_simplex(n)) for n in (4, 5)]
        volumes = [minkowski_sum(a, b).volume for a, b in pairs]

        def refuse(*args):
            raise AssertionError("bm_check assembled a polytope")

        monkeypatch.setattr(geometry, "_from_lattice", refuse)
        for (a, b), volume in zip(pairs, volumes):
            res = bm_check(a, b)
            assert res.volume == volume
            assert (res.ok, res.equality) == float_brunn_minkowski(volume, a, b)


class TestBridgeInequality:
    def test_triangle_axis_hits_zero(self):
        # along (1,0) the centered triangle profile is linear and vanishes at
        # the top endpoint: the equality case
        assert bridge_inequality(build_hull(TRIANGLE), (1, 0)) == 0

    def test_nonnegative_on_random_bodies(self):
        rng = random.Random(66)
        for dim in (2, 3):
            for _ in range(8):
                body = random_polytope(rng, dim, dim + 3)
                for _ in range(4):
                    w = tuple(rng.randint(-5, 5) for _ in range(dim))
                    if all(c == 0 for c in w):
                        continue
                    assert bridge_inequality(body, w) >= 0

    def test_profile_moments_equal_substitution(self, corpus):
        rng = random.Random(69)
        for _, body in corpus[::10]:
            dirs = [f.normal for f in body.facets]
            while len(dirs) < len(body.facets) + 2:
                w = tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(body.dim))
                if any(w):
                    dirs.append(w)
            for w in dirs:
                assert bridge_inequality(body, w) == _bridge_by_substitution(body, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.integers(2, 8))
def test_random_concave_is_valid_and_inequality_holds(seed, m):
    f = random_concave(random.Random(seed))
    assert min(f.values) == 0
    res = godbersen_integral_check(f, m)
    assert res.value >= 0
    assert res.value == _integral_by_expansion(f, m)
