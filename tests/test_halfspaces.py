import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb, gcd, lcm
from types import SimpleNamespace

import pytest

from godbersen import (
    CombinatorialBlowup,
    DegenerateInput,
    DimensionMismatch,
    FeasibilityResult,
    GenSpec,
    SingularMatrix,
    System,
    TheoremViolation,
    ZeroDirection,
    ak_feasibility,
    ak_system,
    anchor_unique,
    build_hull,
    cross_polytope,
    feasibility,
    generate,
    helly_audit,
    make_system,
    mv_first,
    reflect,
    standard_simplex,
    support,
    tightness_profile,
    transform,
    translate,
    unit_cube,
)
from godbersen import halfspaces
from godbersen.dd import _cone_rays, _max_facets
from godbersen.halfspaces import HalfSpace, _farkas_infeasible, _feasible_rows
from godbersen.linalg import scale_to_integers
from godbersen.rationals import as_rat
from tests.conftest import as_vector, count_fractions, int_det, int_rank, lattice_grid_bodies
from tests.test_geometry import TRIANGLE, cayley_rows, dot, random_polytope

CENTERED_SQUARE = [(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)),
                   (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
# one row (the base) is tight at the centroid, so the anchor is not unique
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]


def holds(system, point) -> bool:
    """Whether ``point`` satisfies every row of ``system``."""
    return all(dot(w, point) <= b for w, b in system.halfspaces)


class TestSystemTypes:
    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroDirection):
            HalfSpace((F(0), F(0)), F(1))

    def test_make_system(self):
        s = make_system(2, [((1, 0), "1/2"), ((-1, 0), 0)])
        assert s.dim == 2 and s.halfspaces == (((2, 0), 1), ((-1, 0), 0))
        assert holds(s, (F(1, 4), F(99))) and not holds(s, (F(3, 4), F(0)))

    def test_wrong_length_normal_has_one_error(self):
        # make_system leaves the length check to System, so both routes
        # raise the same error
        for build in (lambda: make_system(2, [((1, 0, 0), 1)]),
                      lambda: System(2, (HalfSpace((1, 0, 0), 1),))):
            with pytest.raises(DimensionMismatch, match="^halfspace normal of wrong length$"):
                build()


def _assert_vertex(rows, n, res):
    """The witness of a feasible result satisfies every integer row (w, b)
    and is a vertex of the region: the rows tight at it have the rank of
    W, the normals as a matrix."""
    x = res.witness
    assert res.feasible and len(x) == n
    vals = [sum(c * v for c, v in zip(w, x)) for w, _ in rows]
    assert all(v <= b for v, (_, b) in zip(vals, rows))
    tight = [w for v, (w, b) in zip(vals, rows) if v == b]
    assert int_rank(tight) == int_rank([w for w, _ in rows])


def rows_feasibility(rows, n) -> FeasibilityResult:
    """``_feasible_rows`` on integer rows, its integer vertex x / t read back
    as the Fraction witness, as ``feasibility`` reads it."""
    found = _feasible_rows(rows, n)
    if found is None:
        return FeasibilityResult(False, None, False)
    nums, t, unique = found
    return FeasibilityResult(True, tuple(F(x, t) for x in nums), unique)


class TestFourierMotzkin:
    """``feasibility`` on small systems whose regions are known."""

    def test_infeasible_pair(self):
        s = make_system(1, [((1,), 0), ((-1,), -1)])  # x <= 0 and x >= 1
        res = feasibility(s)
        assert not res.feasible and res.witness is None and not res.unique

    def test_forced_point(self):
        s = make_system(2, [((-1, 0), F(-1, 3)), ((0, -1), F(-1, 3)),
                            ((1, 1), F(2, 3))])
        res = feasibility(s)
        assert res.feasible and res.unique
        assert res.witness == (F(1, 3), F(1, 3))

    def test_one_sided_interval_witness(self):
        s = make_system(1, [((-1,), 0)])  # x >= 0: its one vertex is 0
        res = feasibility(s)
        _assert_vertex(s.halfspaces, 1, res)
        assert res.witness == (F(0),) and not res.unique

    def test_unconstrained_variable_defaults_to_zero(self):
        # y is free: its column is not a pivot column, so it is set to 0,
        # and x sits at an end of [-5, 5]
        s = make_system(2, [((1, 0), 5), ((-1, 0), 5)])
        res = feasibility(s)
        _assert_vertex(s.halfspaces, 2, res)
        assert res.witness in {(F(-5), F(0)), (F(5), F(0))} and not res.unique

    def test_witness_always_satisfies_system(self):
        rng = random.Random(31)
        feasible_seen = infeasible_seen = 0
        for _ in range(120):
            dim = rng.choice((1, 2, 3))
            rows = []
            for _ in range(rng.randint(1, 7)):
                w = tuple(rng.randint(-4, 4) for _ in range(dim))
                if all(c == 0 for c in w):
                    continue
                rows.append((w, F(rng.randint(-6, 6), rng.randint(1, 3))))
            if not rows:
                continue
            system = make_system(dim, rows)
            res = feasibility(system)
            if res.feasible:
                feasible_seen += 1
                assert holds(system, res.witness)
                _assert_vertex(system.halfspaces, dim, res)
            else:
                infeasible_seen += 1
        assert feasible_seen > 10 and infeasible_seen > 10

    def test_vertex_of_box(self):
        s = make_system(2, [((1, 0), 3), ((-1, 0), 1), ((0, 1), 7), ((0, -1), -5)])
        res = feasibility(s)  # box [-1,3] x [5,7]
        _assert_vertex(s.halfspaces, 2, res)
        assert res.witness[0] in (-1, 3) and res.witness[1] in (5, 7)
        assert not res.unique


class TestAkSystem:
    def test_triangle_rows(self):
        # a . u <= -1/3, -1/3 and 2/3, each held as its integer row
        s = ak_system(build_hull(TRIANGLE))
        assert set(s.halfspaces) == {((-3, 0), -1), ((0, -3), -1), ((3, 3), 2)}
        assert all(type(c) is int for w, b in s.halfspaces for c in (*w, b))

    def test_centered_square_rows(self):
        # a . u <= 1/6 on each of the four facets
        s = ak_system(build_hull(CENTERED_SQUARE))
        assert set(s.halfspaces) == {
            ((-6, 0), 1), ((6, 0), 1), ((0, -6), 1), ((0, 6), 1)}

    def test_reflection_symmetry(self):
        body = build_hull(TRIANGLE)
        neg = reflect(body)
        rows = {(h.normal, h.rhs) for h in ak_system(body).halfspaces}
        neg_rows = {(h.normal, h.rhs) for h in ak_system(neg).halfspaces}
        assert neg_rows == {(tuple(-c for c in w), b) for w, b in rows}


class TestAkPoint:
    def test_triangle(self):
        res = ak_feasibility(build_hull(TRIANGLE))
        assert res.witness == (F(1, 3), F(1, 3)) and res.unique

    def test_standard_simplices_hit_centroid(self):
        for n in (2, 3, 4, 5):
            body = standard_simplex(n)
            res = ak_feasibility(body)
            assert res.witness == tuple(F(1, n + 1) for _ in range(n))
            assert res.witness == body.centroid
            assert res.unique

    def test_centered_square_region(self):
        body = build_hull(CENTERED_SQUARE)
        res = ak_feasibility(body)
        assert res.witness == (F(0), F(0)) and not res.unique
        system = ak_system(body)
        # the region is the box [-1/6, 1/6]^2: all four corners lie inside,
        # pushing past any corner leaves it
        for sx in (1, -1):
            for sy in (1, -1):
                assert holds(system, (F(sx, 6), F(sy, 6)))
                assert not holds(system, (F(sx, 6) + F(sx, 100), F(sy, 6)))

    def test_support_inequality_at_witness(self):
        rng = random.Random(32)
        for dim in (2, 3):
            for _ in range(10):
                body = random_polytope(rng, dim, dim + 4)
                a = ak_feasibility(body).witness
                for f in body.facets:
                    lhs = support(body, tuple(-c for c in f.normal)) \
                        + (dim + 1) * dot(f.normal, a)
                    assert lhs <= dim * f.offset

    def test_first_mixed_volume_bound_through_anchor(self):
        # the anchor point makes the facet-formula bound land below n Vol(K)
        rng = random.Random(33)
        for dim in (2, 3):
            for _ in range(8):
                body = random_polytope(rng, dim, dim + 4)
                a = ak_feasibility(body).witness
                shifted = translate(body, tuple(-c for c in a))
                assert mv_first(reflect(shifted), shifted) <= dim * body.volume


def _fm_reference_bodies():
    bodies = [standard_simplex(n) for n in (2, 3, 4, 5)]
    bodies += [build_hull(TRIANGLE), build_hull(CENTERED_SQUARE),
               build_hull(SQUARE_PYRAMID)]
    for dim, vertex_count in ((2, 7), (3, 6)):
        for seed in range(6):
            bodies.append(generate(GenSpec("random_hull", dim, vertex_count,
                                           seed=700 + seed,
                                           denominator_bound=3)))
            bodies.append(generate(GenSpec("random_symmetric", dim, dim + 1,
                                           seed=800 + seed,
                                           denominator_bound=3)))
    return bodies


class TestAkAgainstFullFM:
    """Fourier-Motzkin on the full anchor system (``oracle_fm_feasible``) is
    the reference route for the centroid witness and the tight-row
    uniqueness rule."""

    @pytest.mark.parametrize("body", _fm_reference_bodies(),
                             ids=lambda b: f"n{b.dim}v{len(b.vertices)}")
    def test_unique_and_witness_match_fm(self, body):
        system = ak_system(body)
        res = ak_feasibility(body)
        assert res.feasible and res.witness == body.centroid
        assert holds(system, res.witness)
        assert res.unique == oracle_fm_feasible(system).unique

    def test_square_pyramid_has_one_tight_row(self):
        profile = tightness_profile(build_hull(SQUARE_PYRAMID))
        assert [e.normal for e in profile.entries if e.tight] == [(0, 0, -1)]
        assert not anchor_unique(profile)


# an anchor system whose subset count is above the default cap
DIM5_ABOVE_CAP_SPEC = GenSpec("random_hull", 5, vertex_count=10, seed=1,
                              denominator_bound=2)


class TestHelly:
    def test_single_subset(self):
        assert helly_audit(ak_system(build_hull(TRIANGLE)))

    def test_infeasible_quadruple(self):
        s = make_system(2, [((1, 0), 0), ((-1, 0), -1),
                            ((0, 1), 0), ((0, -1), -1)])
        assert not helly_audit(s)

    def test_below_dim_plus_one_rows_is_the_full_system(self, monkeypatch):
        # fewer than n+1 rows are decided as any system is: x <= 0, x >= 1
        # in R^2 is infeasible, and both rows make its certified witness
        certified = []
        farkas = halfspaces._farkas_infeasible
        monkeypatch.setattr(halfspaces, "_farkas_infeasible",
                            lambda rows, subset: certified.append(subset)
                            or farkas(rows, subset))
        assert not helly_audit(make_system(2, [((1, 0), 0), ((-1, 0), -1)]))
        assert certified == [(0, 1)]
        assert helly_audit(make_system(2, [((1, 0), 1), ((-1, 0), -1)]))
        assert helly_audit(make_system(3, [((1, 2, 3), -5)]))

    def test_matches_full_feasibility(self):
        rng = random.Random(34)
        checked = 0
        for _ in range(80):
            dim = rng.choice((2, 3))
            rows = []
            for _ in range(rng.randint(dim + 1, 9)):
                w = tuple(rng.randint(-3, 3) for _ in range(dim))
                if all(c == 0 for c in w):
                    continue
                rows.append((w, F(rng.randint(-5, 5), rng.randint(1, 2))))
            if len(rows) < dim + 1 or len(rows) > 12:
                continue
            system = make_system(dim, rows)
            # helly_audit raises internally if the audit disagrees with the
            # full solve, so calling it is the assertion
            helly_audit(system)
            checked += 1
        assert checked > 30

    def test_search_that_finds_nothing_raises(self, monkeypatch):
        # an infeasible system whose filtered witness is not certified, or
        # has more than n+1 rows, would contradict Farkas' lemma or Helly's
        # theorem: the audit must raise, not return
        s = make_system(2, [((1, 0), 0), ((-1, 0), -1),
                            ((0, 1), 0), ((0, -1), -1)])
        for refusal in (False, None):
            monkeypatch.setattr(halfspaces, "_farkas_infeasible",
                                lambda rows, subset, v=refusal: v)
            with pytest.raises(TheoremViolation, match="no Farkas certificate"):
                helly_audit(s)

    def test_witness_above_n_plus_one_rows_raises(self, monkeypatch):
        # a kernel that calls only the full system infeasible leaves all 4
        # rows in R^2 to the filter; even a certificate that accepts them
        # does not pass the size check
        s = make_system(2, [((1, 0), 0), ((-1, 0), -1),
                            ((0, 1), 0), ((0, -1), -1)])
        feasible_rows = halfspaces._feasible_rows

        def only_the_full_system_infeasible(rows, n):
            res = feasible_rows(rows, n)
            return res if len(rows) == 4 else ([0, 0], 1, False)

        monkeypatch.setattr(halfspaces, "_feasible_rows", only_the_full_system_infeasible)
        monkeypatch.setattr(halfspaces, "_farkas_infeasible", lambda rows, subset: True)
        with pytest.raises(TheoremViolation, match="subsystem of 4 rows"):
            helly_audit(s)

    def test_cap(self, monkeypatch):
        # x <= 1..9 and x >= 10 among 18 rows in R^3: 3,060 subsets, which
        # the audit does not enumerate.  Its kernel runs read the cap: the
        # full system's cone, 18 rows and the t-row on the two pivot
        # columns, may have _max_facets(19, 2) = 19 rays.  Under a cap that
        # admits it, the filter drops each upper bound but the last, so the
        # witness is x <= 9 and x >= 10.
        rows = [((1, 0, 0), i) for i in range(1, 10)]
        rows += [((0, 1, 0), i) for i in range(1, 9)] + [((-1, 0, 0), -10)]
        s = make_system(3, rows)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "10")
        with pytest.raises(CombinatorialBlowup,
                           match=r"^hull of 19 points in R\^2: 19 possible facets exceed "
                                 r"the cap of 10;"):
            helly_audit(s)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "19")
        certified = []
        farkas = halfspaces._farkas_infeasible

        def spy(rows, subset):
            certified.append(subset)
            return farkas(rows, subset)

        monkeypatch.setattr(halfspaces, "_farkas_infeasible", spy)
        assert not helly_audit(s)
        assert certified == [(8, 17)]

    def test_cap_env_override(self, monkeypatch):
        # an infeasible and a feasible system both read the cap: 4 rows and
        # the t-row in R^3 may have _max_facets(5, 2) = 5 rays
        s = make_system(2, [((1, 0), 0), ((0, 1), 1), ((-1, 0), -1), ((0, -1), 0)])
        box = make_system(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "1")
        for system in (s, box):
            with pytest.raises(CombinatorialBlowup,
                               match=r"^hull of 5 points in R\^2: 5 possible facets "
                                     r"exceed the cap of 1;"):
                helly_audit(system)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "5")
        assert not helly_audit(s)
        assert helly_audit(box)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "100000")
        assert not helly_audit(s)

    def test_feasible_system_above_the_cap(self, monkeypatch):
        # 36 rows in R^5: 1,947,792 subsets, above the default cap, and
        # feasible, so no subset is searched
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        system = ak_system(generate(DIM5_ABOVE_CAP_SPEC))
        assert comb(len(system.halfspaces), 6) == 1_947_792
        assert helly_audit(system) and feasibility(system).feasible

    def test_feasibility_of_anchor_subsystems(self):
        # audits of anchor systems must come out feasible throughout
        rng = random.Random(35)
        for dim in (2, 3):
            for _ in range(8):
                body = random_polytope(rng, dim, dim + 3)
                system = ak_system(body)
                if len(system.halfspaces) <= 12:
                    assert helly_audit(system)


# The Fraction-rhs route that the integer rows replaced, kept as the oracle:
# Fourier-Motzkin on primitive integer rows with a Fraction rhs, and each
# subset's Farkas cofactors taken from scratch.

def _oracle_canonical_rows(rows):
    best = {}
    for coeffs, rhs in rows:
        if all(c == 0 for c in coeffs):
            if rhs < 0:
                return [], False
            continue
        mult = 1
        for c in coeffs:
            mult = lcm(mult, c.denominator)
        ints = [int(c * mult) for c in coeffs]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        key = tuple(c // g for c in ints)
        scaled = rhs * mult / g
        if key not in best or scaled < best[key]:
            best[key] = scaled
    return [(k, v) for k, v in best.items()], True


def _oracle_eliminate(rows, k):
    zero, pos, neg = [], [], []
    for coeffs, rhs in rows:
        c = coeffs[k]
        if c == 0:
            zero.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    combined = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = -nc[k], pc[k]
            coeffs = tuple(a * x + b * y for x, y in zip(pc, nc))
            combined.append((coeffs, a * pr + b * nr))
    return _oracle_canonical_rows(combined)


def oracle_fm_feasible(system):
    n = system.dim
    base = [(h.normal, F(h.rhs)) for h in system.halfspaces]
    stage, ok = _oracle_canonical_rows(base)
    stages = [stage]
    for k in range(n - 1, 0, -1):
        if not ok:
            break
        stage, ok = _oracle_eliminate(stage, k)
        stages.append(stage)
    if not ok:
        return FeasibilityResult(False, None, False)
    witness = []
    unique = True
    for k in range(n):
        rows = stages[n - 1 - k]
        lo = hi = None
        for coeffs, rhs in rows:
            c = coeffs[k]
            if c == 0:
                continue
            resid = rhs - sum(coeffs[j] * witness[j] for j in range(k))
            bound = resid / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            if lo > hi:
                return FeasibilityResult(False, None, False)
            witness.append((lo + hi) / 2)
            unique = unique and lo == hi
        elif lo is not None:
            witness.append(lo + 1)
            unique = False
        elif hi is not None:
            witness.append(hi - 1)
            unique = False
        else:
            witness.append(F(0))
            unique = False
    return FeasibilityResult(True, tuple(witness), unique)


def oracle_fm_rows(rows, n):
    """``oracle_fm_feasible`` on integer rows (w, b); a zero normal, which
    no ``System`` holds, is allowed."""
    return oracle_fm_feasible(SimpleNamespace(dim=n, halfspaces=[
        SimpleNamespace(normal=tuple(F(c) for c in w), rhs=F(b)) for w, b in rows]))


def _oracle_farkas(system, subset):
    """The subset's n+1 cofactors from scratch, each normal scaled alone and
    its rhs by the same multiplier, a Fraction."""
    rows = []
    for i in subset:
        h = system.halfspaces[i]
        (normal,), mult = scale_to_integers([h.normal])
        rows.append((normal, F(h.rhs) * mult))
    lam = []
    pos = neg = False
    for i in range(len(rows)):
        d = int_det([w for w, _ in rows[:i] + rows[i + 1:]])
        c = -d if i % 2 else d
        pos |= c > 0
        neg |= c < 0
        if pos and neg:
            return False
        lam.append(c)
    if not (pos or neg):
        return None
    lam_b = sum(c * b for c, (_, b) in zip(lam, rows))
    return lam_b < 0 if pos else lam_b > 0


def _check_certificates(system) -> int:
    """Assert the Farkas verdict on the integer rows equals the Fraction-rhs
    cofactor route and Fourier-Motzkin on every (n+1)-subset; None exactly
    when the normals have rank < n.  Returns the number of rank-deficient
    subsets."""
    n = system.dim
    ints = system.halfspaces
    fallbacks = 0
    for subset in combinations(range(len(ints)), n + 1):
        verdict = _farkas_infeasible(ints, subset)
        assert verdict == _oracle_farkas(system, subset), subset
        rank = int_rank([ints[i][0] for i in subset])
        if verdict is None:
            assert rank < n
            fallbacks += 1
            continue
        assert rank == n
        sub = halfspaces.System(n, tuple(system.halfspaces[i] for i in subset))
        assert verdict == (not oracle_fm_feasible(sub).feasible), subset
    return fallbacks


def _random_rows(rng, dim, count, normals=None):
    rows = []
    while len(rows) < count:
        if normals:
            w = rng.choice(normals)
        else:
            w = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        if any(w):
            rows.append((w, F(rng.randint(-5, 5), rng.randint(1, 3))))
    return rows


class TestFarkasCertificate:
    """Fourier-Motzkin on each subset (``oracle_fm_feasible``) is the oracle
    for the certificate."""

    def test_criterion_6_bodies(self, corpus):
        fallbacks = audited = 0
        for _, body in corpus:
            if body.dim > 3 or len(body.facets) > 12:
                continue
            fallbacks += _check_certificates(ak_system(body))
            audited += 1
        assert audited == 200
        # all on the dim-3 origin-symmetric bodies, where +-u, +-v span a
        # plane; recorded count over 17,302 subsets
        assert fallbacks == 237

    def test_cube_has_rank_deficient_subsets(self):
        # {+-e1, +-e2} and the like: 3 of the 15 subsets have rank 2
        assert _check_certificates(ak_system(unit_cube(3))) == 3

    def test_random_rational_systems(self):
        rng = random.Random(91)
        infeasible = fallbacks = 0
        for _ in range(150):
            dim = rng.choice((1, 2, 3))
            system = make_system(dim, _random_rows(rng, dim, rng.randint(dim + 1, 7)))
            fallbacks += _check_certificates(system)
            infeasible += not feasibility(system).feasible
        assert infeasible > 20 and fallbacks > 0

    def test_duplicate_normals(self):
        rng = random.Random(92)
        for dim in (2, 3):
            pool = [tuple(F(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(3)]
            pool = [w for w in pool if any(w)]
            pool += [tuple(k * c for c in w) for w in pool for k in (2, -1)]
            fallbacks = infeasible = 0
            for _ in range(30):
                system = make_system(dim, _random_rows(rng, dim, 6, pool))
                fallbacks += _check_certificates(system)
                infeasible += not feasibility(system).feasible
            assert fallbacks > 0 and infeasible > 0

    @pytest.mark.parametrize("rows", [
        # lam = (-1, -1, 0) <= 0 and lam . b = 1 > 0
        [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)],
        # lam = (1, 1, 0) >= 0 and lam . b = -1 < 0
        [((-1, 0), -1), ((1, 0), 0), ((0, 1), 0)],
        # x >= 1, y >= 1, x + y <= 1: lam = (1, 1, 1), lam . b = -1
        [((-1, 0), -1), ((0, -1), -1), ((1, 1), 1)],
    ])
    def test_infeasible_by_certificate(self, rows):
        ints = make_system(2, rows).halfspaces
        assert _farkas_infeasible(ints, (0, 1, 2)) is True
        assert not helly_audit(make_system(2, rows))

    def test_feasible_by_certificate(self):
        # the same rows with room: lam . b has the wrong sign, or lam is mixed
        for rows in ([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)],
                     [((-1, 0), -1), ((0, -1), -1), ((1, 1), 2)],
                     [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]):
            ints = make_system(2, rows).halfspaces
            assert _farkas_infeasible(ints, (0, 1, 2)) is False

    def test_rank_deficient_infeasible_subset(self):
        # in R^3, x <= 0, x >= 1, y <= 0, y >= 0 has rank 2: no certificate,
        # and only the fallback sees that it is infeasible
        s = make_system(3, [((1, 0, 0), 0), ((-1, 0, 0), -1),
                            ((0, 1, 0), 0), ((0, -1, 0), 0)])
        assert _farkas_infeasible(s.halfspaces, (0, 1, 2, 3)) is None
        assert not helly_audit(s)


def _oracle_helly(system) -> bool:
    """The audit's old route: every subset of min(m, n+1) of the m rows
    decided from scratch, by its Fraction-rhs cofactors or, when
    rank-deficient or shorter than n+1 rows, by Fourier-Motzkin, with no
    full-system run first."""
    n = system.dim
    size = min(len(system.halfspaces), n + 1)
    for subset in combinations(range(len(system.halfspaces)), size):
        infeasible = _oracle_farkas(system, subset) if size == n + 1 else None
        if infeasible is None:
            sub = halfspaces.System(n, tuple(system.halfspaces[i] for i in subset))
            infeasible = not oracle_fm_feasible(sub).feasible
        if infeasible:
            return False
    return True


class TestHellyAgainstSubsetOracle:
    """A feasible audit ends at the full system's checked vertex; the
    all-subsets route it replaced must give the same verdict."""

    def test_corpus_anchor_systems(self, corpus):
        # every corpus body but 18 of the 20 dim-4 origin-symmetric ones,
        # whose 4,368 subsets each hold the oracle to seconds per system
        symmetric = 0
        for spec, body in corpus:
            if spec.dim == 4 and spec.kind == "random_symmetric":
                symmetric += 1
                if symmetric > 2:
                    continue
            system = ak_system(body)
            assert helly_audit(system) and _oracle_helly(system)

    def test_random_rational_systems(self):
        # both verdicts on systems of at least n+1 rows and on shorter ones
        seen, short = [0, 0], [0, 0]
        for system in _oracle_reference_systems():
            verdict = helly_audit(system)
            assert verdict == _oracle_helly(system)
            (seen if len(system.halfspaces) > system.dim else short)[verdict] += 1
        assert min(seen) > 300 and min(short) > 30, (seen, short)


def _with_conflicting_rows(system):
    """The system plus, one at a time, the reverse of its first row moved
    past it, and the reverse of the sum of its first n rows moved past that
    sum: each conflicts with the rows it reverses."""
    rows = [(h.normal, h.rhs) for h in system.halfspaces]
    n = system.dim
    w, b = rows[0]
    extra = [(tuple(-c for c in w), -b - 1)]
    total = tuple(sum(r[0][j] for r in rows[:n]) for j in range(n))
    if any(total):
        extra.append((tuple(-c for c in total), -sum(r[1] for r in rows[:n]) - 1))
    return [make_system(n, rows + [e]) for e in extra]


class TestIrreducibleWitness:
    """An infeasible audit ends at one certificate, taken on an irreducible
    infeasible subsystem: at most n+1 rows, infeasible by the
    Fourier-Motzkin oracle, and every proper subset feasible."""

    @pytest.fixture
    def certified(self, monkeypatch):
        """The row subsets ``_farkas_infeasible`` is called on, in order."""
        subsets = []
        farkas = halfspaces._farkas_infeasible

        def spy(rows, subset):
            subsets.append(subset)
            return farkas(rows, subset)

        monkeypatch.setattr(halfspaces, "_farkas_infeasible", spy)
        return subsets

    @staticmethod
    def _check(certified, system) -> int:
        n = system.dim
        del certified[:]
        assert not helly_audit(system)
        (subset,) = certified
        assert len(subset) <= n + 1
        rows = [system.halfspaces[i] for i in subset]
        assert not oracle_fm_feasible(halfspaces.System(n, tuple(rows))).feasible
        for i in range(len(rows)):
            rest = tuple(rows[:i] + rows[i + 1:])
            assert oracle_fm_feasible(halfspaces.System(n, rest)).feasible, subset
        return len(subset)

    @pytest.mark.parametrize("rows, verdict", [
        ([((1, 0), 1), ((-1, 0), -2)], True),  # x <= 1, x >= 2: rank 1
        ([((1, 0), 1), ((-1, 0), 0)], False),  # 0 <= x <= 1
        ([((1, 0), 0), ((0, 1), 0)], False),  # independent rows
        ([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], None),
    ])
    def test_certificate_of_any_row_count(self, rows, verdict):
        # a left kernel of dimension 1 certifies, 0 means feasible, 2 or
        # more gives no single certificate
        ints = make_system(2, rows).halfspaces
        assert _farkas_infeasible(ints, tuple(range(len(rows)))) is verdict

    def test_reference_systems(self, certified):
        sizes = Counter()
        for system in _oracle_reference_systems():
            if len(system.halfspaces) > system.dim and not feasibility(system).feasible:
                sizes[system.dim, self._check(certified, system)] += 1
        # witnesses of every size from 2 rows to n+1 in each dimension
        assert all(sizes[n, k] for n in (1, 2, 3, 4) for k in range(2, n + 2)), sizes

    def test_corpus_anchor_systems_with_a_conflicting_row(self, certified, corpus):
        sizes = Counter()
        for spec, body in corpus:
            for system in _with_conflicting_rows(ak_system(body)):
                sizes[spec.dim, self._check(certified, system)] += 1
        assert sum(sizes.values()) == 600
        assert all(sizes[n, k] for n in (2, 3, 4) for k in (2, n + 1)), sizes


class TestVertexCheck:
    """``_feasible_rows`` checks its vertex on every row before it returns."""

    def test_ray_outside_the_region_raises(self, monkeypatch):
        # x <= 1, y <= 1, x + y >= 0: a kernel that hands back the point
        # (5, 0), as the ray (5, 0, 1), has a bug, and the check says so
        system = make_system(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 0)])
        assert feasibility(system).feasible
        monkeypatch.setattr(halfspaces, "_cone_rays",
                            lambda rows: [((5, 0, 1), 0)])
        with pytest.raises(TheoremViolation, match="vertex violates a row"):
            feasibility(system)
        with pytest.raises(TheoremViolation):
            helly_audit(system)


def _fraction_route_rows(dim, rows):
    """The rows as the Fraction route made them before a ``HalfSpace`` held
    its integer row: each (normal, rhs) taken as Fractions, then scaled to
    integers row by row, normal and rhs together.  The oracle of the
    integer form."""
    scaled = []
    for w, b in rows:
        (row,), _ = scale_to_integers([as_vector(w, dim) + (as_rat(b),)])
        scaled.append((row[:-1], row[-1]))
    return scaled


def _fraction_anchor_rows(K):
    """``ak_system``'s rows by the Fraction route: the rhs
    n/(n+1) h_K(u) - 1/(n+1) h_K(-u) from ``support``, then scaled."""
    n = K.dim
    return _fraction_route_rows(n, [
        (f.normal, (n * support(K, f.normal) - support(K, tuple(-c for c in f.normal)))
         / (n + 1)) for f in K.facets])


class TestIntegerRows:
    """A ``HalfSpace`` holds the integer row that the kernel reads: a
    rational row scaled once, at construction, an integer row as given."""

    def test_row_and_rhs_scaled_together(self):
        s = make_system(2, [((F(1, 2), F(1, 3)), F(5, 4)), ((2, 0), F(-1, 3)),
                            ((-1, 1), 0)])
        assert s.halfspaces == (((6, 4), 15), ((6, 0), -1), ((-1, 1), 0))
        h = HalfSpace((F(1, 2), "1/3"), F(5, 4))
        assert (h.normal, h.rhs) == ((6, 4), 15) and h == HalfSpace((6, 4), 15)

    def test_integer_row_kept_as_given(self):
        h = HalfSpace([4, -2], 6)
        assert h == ((4, -2), 6) and type(h.normal) is tuple

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            HalfSpace((F(1, 2), 0.5), 1)
        with pytest.raises(TypeError):
            make_system(1, [((1,), 0.5)])

    def test_corpus_anchor_rows_match_the_fraction_route(self, corpus):
        for _, body in corpus:
            rows = ak_system(body).halfspaces
            assert list(rows) == _fraction_anchor_rows(body)
            assert all(type(c) is int for w, b in rows for c in (*w, b))

    def test_random_rational_rows_match_the_fraction_route(self):
        for dim, rows in _oracle_reference_rows():
            assert list(make_system(dim, rows).halfspaces) == _fraction_route_rows(dim, rows)

    def test_anchor_audit_makes_only_its_witness(self, monkeypatch, corpus):
        # neither ak_system nor the audit of the feasible system makes a
        # Fraction: the audit reads its kernel vertex as integers
        made = count_fractions(monkeypatch)
        for _, body in corpus:
            system = ak_system(body)
            assert helly_audit(system)
            assert made == []


def _oracle_reference_rows():
    """Seeded random rational rows in dims 1-4, as (dim, rows) pairs.  Half
    draw normals from a small pool with positive and negative multiples, so
    duplicate, dominated and opposite rows (constant rows after elimination)
    occur."""
    rng = random.Random(94)
    systems = []
    for _ in range(2200):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 8 if dim < 4 else 7)
        pool = None
        if rng.random() < 0.5:
            pool = []
            while len(pool) < 3:
                w = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
                if any(w):
                    pool.append(w)
            pool += [tuple(k * c for c in w) for w in pool
                     for k in (2, F(-1, 2), -3)]
        systems.append((dim, _random_rows(rng, dim, count, pool)))
    return systems


def _oracle_reference_systems():
    """``_oracle_reference_rows`` as systems."""
    return [make_system(dim, rows) for dim, rows in _oracle_reference_rows()]


def _random_int_rows(rng, dim):
    """Integer rows (w, b) in R^dim.  The normals come from a pool that may
    span less than R^dim, with multiples of either sign and zero normals,
    and some rows come with their opposite as an equation, so duplicate,
    dominated, opposite, constant and rank-deficient rows occur, as do
    unbounded regions and single points."""
    rank = rng.randint(1, dim)
    basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rank)]
    pool = []
    for _ in range(dim + 1):
        coef = [rng.randint(-2, 2) for _ in range(rank)]
        pool.append(tuple(sum(c * v[j] for c, v in zip(coef, basis))
                          for j in range(dim)))
    pool += [tuple(k * c for c in w) for w in pool for k in (2, -1)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        w, b = rng.choice(pool), rng.randint(-6, 6)
        rows.append((w, b))
        if rng.random() < 0.4:  # and w . x >= b, making an equation
            rows.append((tuple(-c for c in w), -b))
    return rows


def _random_int_systems(seed, count):
    """``count`` pairs (rows, n) of ``_random_int_rows`` in dims 1-4."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        n = rng.randint(1, 4)
        systems.append((_random_int_rows(rng, n), n))
    return systems


def _verdict(res):
    return res.feasible, res.unique


def pyramid_bodies(seed: int, per_dim: int) -> list:
    """``per_dim`` pyramids in each of dims 2-5: a base of n + 3 seeded
    draws from [-3, 3]^(n-1) at height 0 (drawn again until it spans the
    hyperplane) and an apex drawn above it."""
    rng = random.Random(seed)
    bodies = []
    for n in (2, 3, 4, 5):
        while len(bodies) < per_dim * (n - 1):
            base = [tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (0,)
                    for _ in range(n + 3)]
            if int_rank([[a - b for a, b in zip(p, base[0])] for p in base]) < n - 1:
                continue
            apex = tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (rng.randint(1, 3),)
            bodies.append(build_hull(base + [apex]))
    return bodies


class TestAgainstFractionOracle:
    """The double description entry must give the Fraction-rhs
    Fourier-Motzkin's feasibility and uniqueness exactly, and a vertex of the
    region as witness."""

    def test_corpus_anchor_systems(self, corpus):
        for _, body in corpus:
            system = ak_system(body)
            res = feasibility(system)
            assert _verdict(res) == _verdict(oracle_fm_feasible(system))
            _assert_vertex(system.halfspaces, body.dim, res)

    def test_tight_row_systems(self, corpus):
        # ``anchor_unique`` counts the tight rows; the kernel and
        # Fourier-Motzkin decide their homogeneous system.  Lattice-grid
        # bodies, pyramids and the fixed kinds add bodies with tight rows
        # that are not simplices, which have at most n - 2 of them.
        bodies = [body for _, body in corpus] + lattice_grid_bodies(37, 40)
        bodies += pyramid_bodies(37, 20) + [
            make(n) for make in (standard_simplex, unit_cube, cross_polytope)
            for n in (2, 3, 4, 5)]
        most = dict.fromkeys((2, 3, 4, 5), 0)
        for body in bodies:
            profile = tightness_profile(body)
            n = body.dim
            rows = [(e.normal, 0) for e in profile.entries if e.tight]
            res = rows_feasibility(rows, n)
            assert _verdict(res) == _verdict(oracle_fm_rows(rows, n))
            assert anchor_unique(profile) == res.unique
            _assert_vertex(rows, n, res)
            if len(body.vertices) > n + 1:
                assert len(rows) <= n - 2, body
                most[n] = max(most[n], len(rows))
        assert most == {2: 0, 3: 1, 4: 2, 5: 1}

    def test_random_rational_systems(self):
        infeasible = unique = deficient = 0
        systems = _oracle_reference_systems()
        for system in systems:
            res = feasibility(system)
            assert _verdict(res) == _verdict(oracle_fm_feasible(system))
            assert all(type(c) is F for c in res.witness or ())
            rows = system.halfspaces
            if res.feasible:
                _assert_vertex(rows, system.dim, res)
            infeasible += not res.feasible
            unique += res.unique
            deficient += int_rank([w for w, _ in rows]) < system.dim
        assert len(systems) >= 2000
        assert infeasible > 300 and unique > 5 and deficient > 300

    def test_random_integer_rows(self):
        seen = {"infeasible": 0, "unique": 0, "unbounded": 0, "deficient": 0,
                "zero": 0}
        for rows, n in _random_int_systems(97, 3000):
            res = rows_feasibility(rows, n)
            assert _verdict(res) == _verdict(oracle_fm_rows(rows, n))
            if res.feasible:
                _assert_vertex(rows, n, res)
                # a nonempty region is unbounded iff W x <= 0 has a point
                # other than 0
                seen["unbounded"] += not oracle_fm_rows(
                    [(w, 0) for w, _ in rows], n).unique
            seen["infeasible"] += not res.feasible
            seen["unique"] += res.unique
            seen["deficient"] += int_rank([w for w, _ in rows]) < n
            seen["zero"] += any(not any(w) for w, _ in rows)
        assert min(seen.values()) > 50, seen

    def test_one_fraction_per_witness_coordinate(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return F(*args)

        systems = _oracle_reference_systems()[:300]
        monkeypatch.setattr(halfspaces, "Fraction", counting)
        for system in systems:
            del made[:]
            res = feasibility(system)
            assert len(made) == (system.dim if res.feasible else 0)


def _random_unimodular(rng, n):
    """An integer n x n matrix of determinant +-1, from row operations."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    if rng.random() < 0.5:
        mat[0] = [-a for a in mat[0]]
    return mat


def prefix_ray_ratios(rows) -> list:
    """rays / _max_facets(p, k - 1) for every prefix of p rows that spans
    R^k, k the rows' length: the size guard's premise is that none exceeds
    1."""
    k = len(rows[0])
    ratios = []
    for p in range(k, len(rows) + 1):
        try:
            rays = _cone_rays(rows[:p])
        except DegenerateInput:
            continue
        ratios.append(F(len(rays), _max_facets(p, k - 1)))
    return ratios


class TestConeSizeGuard:
    """``dd._cone_rays`` refuses a run whose cone of M rows in R^k may have
    more than the cap's ``_max_facets(M, k - 1)`` rays, whatever its
    caller."""

    def test_every_prefix_cone_is_under_the_bound(self, monkeypatch, corpus):
        # the premise: each intermediate cone of a run has at most the
        # upper bound theorem's count of rays for the rows cut so far.
        # Cayley polytopes of (K, -K), and the homogenized rows that
        # _feasible_rows hands the kernel for anchor systems and for random
        # systems with reversed-row pairs, which can make the cone flat
        bodies = [body for _, body in corpus]
        inputs = [cayley_rows(body, reflect(body)) for body in bodies]
        cone_rays = halfspaces._cone_rays
        monkeypatch.setattr(halfspaces, "_cone_rays",
                            lambda rows: inputs.append(rows) or cone_rays(rows))
        for body in bodies:
            feasibility(ak_system(body))
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(2, 4)
            rows = []
            for _ in range(rng.randint(n + 1, n + 5)):
                w = tuple(rng.randint(-3, 3) for _ in range(n))
                if any(w):
                    b = rng.randint(-4, 4)
                    rows.append((w, b))
                    if rng.random() < 0.4:
                        rows.append((tuple(-c for c in w), rng.randint(-1, 1) - b))
            _feasible_rows(rows, n)
        ratios = [r for rows in inputs if len(rows[0]) > 1
                  for r in prefix_ray_ratios(rows)]
        # 300 Cayley polytopes, 300 anchor systems and 300 random systems,
        # three of which repeat a row and three a row at another scale, each
        # of which reaches the kernel once; the seed cone, k rays for k rows,
        # attains the bound
        assert len(inputs) == 900 and len(ratios) == 5219
        assert max(ratios) == 1

    def test_a_cone_on_the_line_is_not_checked(self, monkeypatch):
        # all-zero normals leave no pivot column, so the cone lies on the t
        # axis (k = 1), where the upper bound theorem has no count: a cap of
        # 0 refuses neither run
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "0")
        assert _cone_rays([(-1,), (0,), (-1,)]) == [((1,), 0b010)]
        assert _feasible_rows([((0, 0), 1), ((0, 0), 0)], 2) == ([0, 0], 1, False)
        assert _feasible_rows([((0, 0), -1)], 2) is None
        with pytest.raises(CombinatorialBlowup, match=r"^hull of 3 points in R\^1"):
            _cone_rays([(-1, 0), (0, -1), (1, 1)])

    def test_repeated_rows_reach_the_kernel_once(self, monkeypatch):
        # x_i <= 1 in R^4 and 629 copies of -(x_1 + .. + x_4) <= 1: counted
        # with its copies the cone of 634 rows may have 200,027 rays, over
        # the default cap; its 5 distinct rows and the t-row are under it
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        assert _max_facets(634, 4) > 200_000
        rows = [(tuple(int(i == j) for j in range(4)), 1) for i in range(4)]
        s = make_system(4, rows + [((-1, -1, -1, -1), 1)] * 629)
        sizes = []
        cone_rays = halfspaces._cone_rays
        monkeypatch.setattr(halfspaces, "_cone_rays",
                            lambda rows: sizes.append(len(rows)) or cone_rays(rows))
        result = feasibility(s)
        assert result.feasible and not result.unique
        assert all(sum(c * x for c, x in zip(h.normal, result.witness)) <= h.rhs
                   for h in s.halfspaces)
        assert helly_audit(s)
        assert sizes == [6, 6]

    def test_scaled_copies_reach_the_kernel_once(self, monkeypatch):
        # x_i <= 1 in R^4 and -k (x_1 + .. + x_4) <= k for k = 1..629: one
        # halfspace at 629 scales, each cone row divided by its gcd, so the
        # kernel sees the 5 distinct halfspaces and the t-row
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        rows = [(tuple(int(i == j) for j in range(4)), 1) for i in range(4)]
        s = make_system(4, rows + [((-k, -k, -k, -k), k) for k in range(1, 630)])
        sizes = []
        cone_rays = halfspaces._cone_rays
        monkeypatch.setattr(halfspaces, "_cone_rays",
                            lambda rows: sizes.append(len(rows)) or cone_rays(rows))
        result = feasibility(s)
        assert result.feasible and not result.unique
        assert result == feasibility(make_system(4, rows + [((-1, -1, -1, -1), 1)]))
        assert helly_audit(s)
        assert sizes == [6, 6, 6]


class TestFeasibleRowsMetamorphic:
    """Changes of the rows that keep the region, or map it one to one, keep
    ``feasible`` and ``unique``, and every witness is a vertex."""

    SYSTEMS = _random_int_systems(98, 400)

    @staticmethod
    def _check(rows, n, want):
        res = rows_feasibility(rows, n)
        assert _verdict(res) == want
        if res.feasible:
            _assert_vertex(rows, n, res)
        return res

    def test_permuted_and_scaled_rows(self):
        rng = random.Random(99)
        for rows, n in self.SYSTEMS:
            want = _verdict(rows_feasibility(rows, n))
            moved = []
            for w, b in rows:
                k = rng.randint(1, 5)
                moved.append((tuple(k * c for c in w), k * b))
            rng.shuffle(moved)
            self._check(moved, n, want)

    def test_duplicate_and_dominated_rows(self):
        rng = random.Random(100)
        for rows, n in self.SYSTEMS:
            want = _verdict(rows_feasibility(rows, n))
            w, b = rng.choice(rows)
            self._check(rows + [(w, b)], n, want)
            self._check([(w, b + rng.randint(0, 4))] + rows, n, want)

    def test_unimodular_change_of_variables(self):
        # w . x <= b becomes (w U) . y <= b, so y = U^-1 x maps one region
        # onto the other, and x = U y maps the new witness to a vertex
        rng = random.Random(101)
        for rows, n in self.SYSTEMS:
            want = _verdict(rows_feasibility(rows, n))
            u = _random_unimodular(rng, n)
            moved = [(tuple(sum(w[i] * u[i][j] for i in range(n)) for j in range(n)), b)
                     for w, b in rows]
            res = self._check(moved, n, want)
            if res.feasible:
                x = tuple(sum(u[i][j] * res.witness[j] for j in range(n))
                          for i in range(n))
                _assert_vertex(rows, n, FeasibilityResult(True, x, res.unique))


# anchor systems whose Fourier-Motzkin elimination paired more rows in one
# step than the default subset cap: 468,649 pairs in dim 4 and 1,247,260 in
# the first dim-5 one
FM_REFUSED_SPECS = [
    GenSpec("random_hull", 4, vertex_count=8, seed=4, denominator_bound=2),
    *(GenSpec("random_hull", 5, vertex_count=8, seed=seed, denominator_bound=2)
      for seed in (1, 2, 3)),
]


class TestFourierMotzkinGuard:
    """The anchor systems that Fourier-Motzkin's step guard refused are
    decided, and so is an infeasible one whose subsets the audit's former
    subset cap refused."""

    def test_anchor_systems_decided(self):
        for spec in FM_REFUSED_SPECS:
            body = generate(spec)
            system = ak_system(body)
            res = feasibility(system)
            _assert_vertex(system.halfspaces, spec.dim, res)
            assert not res.unique and not ak_feasibility(body).unique

    def test_helly_audit_decides_them(self, monkeypatch):
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        systems = [ak_system(generate(spec)) for spec in FM_REFUSED_SPECS]
        # the first dim-5 system: 20 rows, 38,760 subsets, under the cap
        assert comb(len(systems[1].halfspaces), 6) == 38760
        assert all(helly_audit(system) for system in systems)

    def test_subset_cap_comes_before_the_kernel(self, monkeypatch):
        # the first dim-5 anchor system plus the reverse of its first row,
        # moved past it: 21 rows, infeasible, 54,264 subsets, which the
        # audit does not enumerate.  Its kernel runs read the cap, and pass
        # it: the full system's cone, 21 rows and the t-row in R^6, may have
        # _max_facets(22, 5) = 342 rays.  The full-system run and one filter
        # run per row cut it to the row and its reverse, and one certificate
        # settles those.
        rows = [(h.normal, h.rhs)
                for h in ak_system(generate(FM_REFUSED_SPECS[1])).halfspaces]
        w, b = rows[0]
        system = make_system(5, rows + [(tuple(-c for c in w), -b - 1)])
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "54263")
        runs, certified = [], []
        feasible_rows, farkas = halfspaces._feasible_rows, halfspaces._farkas_infeasible

        def run(rows, n):
            runs.append(len(rows))
            return feasible_rows(rows, n)

        def certificate(rows, subset):
            certified.append(subset)
            return farkas(rows, subset)

        monkeypatch.setattr(halfspaces, "_feasible_rows", run)
        monkeypatch.setattr(halfspaces, "_farkas_infeasible", certificate)
        assert not helly_audit(system)
        assert len(runs) == 22 and runs[0] == 21
        assert certified == [(0, 20)]


class TestHellyCallCounts:
    """The audit decides every feasibility question on the system's integer
    rows as they are, with ``_feasible_rows``, the full system first; it
    scales nothing and goes through no ``System``.  A feasible system ends at its
    checked vertex, with no certificate taken; an infeasible one takes one
    filter run per row and one certificate."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """``spy()`` wraps the named module functions and constructors and
        returns the argument tuples of their calls from then on, by name."""
        def install():
            seen = {"_feasible_rows": [], "feasibility": [],
                    "scale_to_integers": [], "_farkas_infeasible": [],
                    "System": [], "HalfSpace": []}
            for name in seen:
                def counting(*args, _calls=seen[name], _orig=getattr(halfspaces, name)):
                    _calls.append(args)
                    return _orig(*args)
                monkeypatch.setattr(halfspaces, name, counting)
            return seen
        return install

    def test_dim_2_body_runs_fm_once(self, spy):
        system = ak_system(random_polytope(random.Random(93), 2, 8))
        assert len(system.halfspaces) >= 5
        calls = spy()
        assert helly_audit(system)
        assert calls["_feasible_rows"] == [(system.halfspaces, 2)]
        assert calls["_farkas_infeasible"] == []
        assert calls["feasibility"] == []
        # feasibility, too, hands the kernel the rows as they are
        assert feasibility(system).feasible
        assert calls["_feasible_rows"][1:] == [(system.halfspaces, 2)]
        assert calls["scale_to_integers"] == []

    def test_feasible_audit_takes_no_certificate(self, spy, corpus):
        systems = [ak_system(body) for _, body in corpus[::10]]
        systems += [ak_system(unit_cube(3)),
                    make_system(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 0)])]
        calls = spy()
        for system in systems:
            for seen in calls.values():
                del seen[:]
            assert helly_audit(system)
            assert len(calls["_feasible_rows"]) == 1
            assert calls["_farkas_infeasible"] == []

    def test_cube_runs_fm_on_its_fallback_subsets(self, spy):
        # the cube's anchor rows and x + y + z >= 10: infeasible only with
        # the three upper bounds, so the filter keeps those and the new row,
        # one run per row after the full system, and one certificate
        cube = ak_system(unit_cube(3))
        system = halfspaces.System(3, cube.halfspaces + (
            HalfSpace((F(-1),) * 3, F(-10)),))
        ints = system.halfspaces
        calls = spy()
        assert not helly_audit(system)
        assert calls["_farkas_infeasible"] == [(ints, (3, 4, 5, 6))]
        assert len(calls["_feasible_rows"]) == 1 + 7
        assert calls["_feasible_rows"][0] == (ints, 3)
        # each filter run is six of the scaled rows or fewer, not a new System
        assert all(len(rows) <= 6 and all(r in ints for r in rows)
                   for rows, _ in calls["_feasible_rows"][1:])
        assert calls["feasibility"] == [] and calls["scale_to_integers"] == []
        assert calls["System"] == [] and calls["HalfSpace"] == []

    def test_search_stops_at_the_first_infeasible_subset(self, spy):
        # x <= 1, y <= 1, x + y >= 0, x >= 2, x + y <= 5, y >= -3: only x <= 1
        # and x >= 2 conflict, so the filter keeps rows 0 and 3, and a
        # certificate of two rows in R^2 settles them
        system = make_system(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 0),
                                 ((-1, 0), -2), ((1, 1), 5), ((0, -1), 3)])
        calls = spy()
        assert not helly_audit(system)
        assert calls["_farkas_infeasible"] == [(system.halfspaces, (0, 3))]
        assert len(calls["_feasible_rows"]) == 1 + 6

    def test_anchor_unique_builds_no_halfspace(self, spy, corpus):
        profiles = [tightness_profile(body) for _, body in corpus[:40]]
        profiles += [tightness_profile(standard_simplex(n)) for n in (2, 3, 4)]
        calls = spy()
        verdicts = [anchor_unique(p) for p in profiles]
        assert all(verdicts[-3:]) and not all(verdicts)
        assert calls["_feasible_rows"] == []
        assert calls["HalfSpace"] == [] and calls["System"] == []
        assert calls["feasibility"] == [] and calls["scale_to_integers"] == []


def gl_equivariant(K, mat) -> bool:
    """Whether the anchor construction is equivariant under the invertible
    linear map ``mat``: K and its image agree on uniqueness, and the mapped
    witness A a satisfies the image's anchor system (the image's facet
    normals are the inverse-transpose images of K's, up to positive scale,
    so the two systems correspond row by row).  The witness is the centroid,
    so A a is the image's witness.  A singular matrix raises SingularMatrix
    from ``transform``."""
    a = [[F(c) for c in row] for row in mat]
    image = transform(K, a)
    res_k, res_img = ak_feasibility(K), ak_feasibility(image)
    mapped = tuple(dot(row, res_k.witness) for row in a)
    return (res_k.unique == res_img.unique and mapped == res_img.witness
            and holds(ak_system(image), mapped))


class TestGLInvariance:
    def test_identity(self):
        assert gl_equivariant(build_hull(TRIANGLE), [[1, 0], [0, 1]])

    def test_diagonal(self):
        assert gl_equivariant(build_hull(TRIANGLE), [[2, 0], [0, 3]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            gl_equivariant(build_hull(TRIANGLE), [[1, 1], [2, 2]])

    def test_random_unimodular_on_cube(self):
        rng = random.Random(36)
        cube = unit_cube(3)
        for _ in range(6):
            mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            for _ in range(4):  # random integer row operations keep det = +-1
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            assert gl_equivariant(cube, mat)
