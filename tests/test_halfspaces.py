import random
from fractions import Fraction as F
from itertools import combinations
from math import comb, gcd, lcm

import pytest

from godbersen import (
    CombinatorialBlowup,
    FeasibilityResult,
    GenSpec,
    SingularMatrix,
    ZeroDirection,
    ak_feasibility,
    ak_system,
    anchor_unique,
    build_hull,
    fm_feasible,
    generate,
    gl_invariance_check,
    helly_audit,
    make_system,
    mv_first,
    reflect,
    standard_simplex,
    support,
    tightness_profile,
    translate,
    unit_cube,
)
from godbersen import halfspaces
from godbersen.halfspaces import HalfSpace, _farkas_infeasible, _integer_rows
from godbersen.linalg import int_det, int_rank, primitive, scale_to_integers
from godbersen.rationals import dot
from tests.test_geometry import TRIANGLE, random_polytope

CENTERED_SQUARE = [(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)),
                   (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
# one row (the base) is tight at the centroid, so the anchor is not unique
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]


class TestSystemTypes:
    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroDirection):
            HalfSpace((F(0), F(0)), F(1))

    def test_make_system(self):
        s = make_system(2, [((1, 0), "1/2"), ((-1, 0), 0)])
        assert s.dim == 2 and len(s.halfspaces) == 2
        assert s.contains((F(1, 4), F(99)))


class TestFourierMotzkin:
    def test_infeasible_pair(self):
        s = make_system(1, [((1,), 0), ((-1,), -1)])  # x <= 0 and x >= 1
        res = fm_feasible(s)
        assert not res.feasible and res.witness is None and not res.unique

    def test_forced_point(self):
        s = make_system(2, [((-1, 0), F(-1, 3)), ((0, -1), F(-1, 3)),
                            ((1, 1), F(2, 3))])
        res = fm_feasible(s)
        assert res.feasible and res.unique
        assert res.witness == (F(1, 3), F(1, 3))

    def test_one_sided_interval_witness(self):
        res = fm_feasible(make_system(1, [((-1,), 0)]))  # x >= 0
        assert res.feasible and res.witness == (F(1),) and not res.unique

    def test_unconstrained_variable_defaults_to_zero(self):
        res = fm_feasible(make_system(2, [((1, 0), 5), ((-1, 0), 5)]))
        assert res.witness == (F(0), F(0)) and not res.unique

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
            res = fm_feasible(system)
            if res.feasible:
                feasible_seen += 1
                assert system.contains(res.witness)
            else:
                infeasible_seen += 1
        assert feasible_seen > 10 and infeasible_seen > 10

    def test_midpoint_of_box(self):
        s = make_system(2, [((1, 0), 3), ((-1, 0), 1), ((0, 1), 7), ((0, -1), -5)])
        res = fm_feasible(s)  # box [-1,3] x [5,7]
        assert res.witness == (F(1), F(6)) and not res.unique


class TestAkSystem:
    def test_triangle_rows(self):
        s = ak_system(build_hull(TRIANGLE))
        rows = {(h.normal, h.rhs) for h in s.halfspaces}
        assert rows == {((F(-1), F(0)), F(-1, 3)),
                        ((F(0), F(-1)), F(-1, 3)),
                        ((F(1), F(1)), F(2, 3))}

    def test_centered_square_rows(self):
        s = ak_system(build_hull(CENTERED_SQUARE))
        assert {(h.normal, h.rhs) for h in s.halfspaces} == {
            ((F(-1), F(0)), F(1, 6)), ((F(1), F(0)), F(1, 6)),
            ((F(0), F(-1)), F(1, 6)), ((F(0), F(1)), F(1, 6))}

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
                assert system.contains((F(sx, 6), F(sy, 6)))
                assert not system.contains((F(sx, 6) + F(sx, 100), F(sy, 6)))

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
    """Fourier-Motzkin on the full anchor system is the reference route for
    the centroid witness and the tight-row uniqueness rule."""

    @pytest.mark.parametrize("body", _fm_reference_bodies(),
                             ids=lambda b: f"n{b.dim}v{len(b.vertices)}")
    def test_unique_and_witness_match_fm(self, body):
        system = ak_system(body)
        res = ak_feasibility(body)
        assert res.feasible and res.witness == body.centroid
        assert system.contains(res.witness)
        assert res.unique == fm_feasible(system).unique

    def test_square_pyramid_has_one_tight_row(self):
        profile = tightness_profile(build_hull(SQUARE_PYRAMID))
        assert [e.normal for e in profile.entries if e.tight] == [(0, 0, -1)]
        assert not anchor_unique(profile)


class TestHelly:
    def test_single_subset(self):
        assert helly_audit(ak_system(build_hull(TRIANGLE)))

    def test_infeasible_quadruple(self):
        s = make_system(2, [((1, 0), 0), ((-1, 0), -1),
                            ((0, 1), 0), ((0, -1), -1)])
        assert not helly_audit(s)

    def test_vacuous_below_dim_plus_one(self):
        s = make_system(2, [((1, 0), 0), ((-1, 0), -1)])
        assert helly_audit(s)  # fewer than n+1 rows: vacuously true

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

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "10")
        rows = [((1, 0, 0), i) for i in range(1, 10)]
        rows += [((0, 1, 0), i) for i in range(1, 10)]
        s = make_system(3, rows)
        with pytest.raises(CombinatorialBlowup, match="Helly audit: 3060 subsets exceed"):
            helly_audit(s)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "1")
        s = make_system(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(CombinatorialBlowup):
            helly_audit(s)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "100000")
        assert helly_audit(s)

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


def _oracle_farkas(system, subset):
    """The subset's n+1 cofactors from scratch, normals scaled alone and the
    rhs left a Fraction."""
    rows = []
    for i in subset:
        h = system.halfspaces[i]
        (normal,), mult = scale_to_integers([h.normal])
        rows.append((normal, h.rhs * mult))
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
    """Assert the Farkas verdict read from one shared minor table equals the
    per-subset cofactor route and Fourier-Motzkin on every (n+1)-subset;
    None exactly when the normals have rank < n.  Returns the number of
    rank-deficient subsets."""
    n = system.dim
    ints = _integer_rows(system)
    minors = {}
    fallbacks = 0
    for subset in combinations(range(len(ints)), n + 1):
        verdict = _farkas_infeasible(ints, subset, minors)
        assert verdict == _oracle_farkas(system, subset), subset
        rank = int_rank([ints[i][0] for i in subset])
        if verdict is None:
            assert rank < n
            fallbacks += 1
            continue
        assert rank == n
        sub = halfspaces.System(n, tuple(system.halfspaces[i] for i in subset))
        assert verdict == (not fm_feasible(sub).feasible), subset
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
    """Fourier-Motzkin on each subset is the oracle for the certificate."""

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
            infeasible += not fm_feasible(system).feasible
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
                infeasible += not fm_feasible(system).feasible
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
        ints = _integer_rows(make_system(2, rows))
        assert _farkas_infeasible(ints, (0, 1, 2), {}) is True
        assert not helly_audit(make_system(2, rows))

    def test_feasible_by_certificate(self):
        # the same rows with room: lam . b has the wrong sign, or lam is mixed
        for rows in ([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)],
                     [((-1, 0), -1), ((0, -1), -1), ((1, 1), 2)],
                     [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]):
            ints = _integer_rows(make_system(2, rows))
            assert _farkas_infeasible(ints, (0, 1, 2), {}) is False

    def test_rank_deficient_infeasible_subset(self):
        # in R^3, x <= 0, x >= 1, y <= 0, y >= 0 has rank 2: no certificate,
        # and only the fallback sees that it is infeasible
        s = make_system(3, [((1, 0, 0), 0), ((-1, 0, 0), -1),
                            ((0, 1, 0), 0), ((0, -1, 0), 0)])
        assert _farkas_infeasible(_integer_rows(s), (0, 1, 2, 3), {}) is None
        assert not helly_audit(s)


class TestIntegerRows:
    def test_row_and_rhs_scaled_together(self):
        s = make_system(2, [((F(1, 2), F(1, 3)), F(5, 4)), ((2, 0), F(-1, 3)),
                            ((-1, 1), 0)])
        assert _integer_rows(s) == [((6, 4), 15), ((6, 0), -1), ((-1, 1), 0)]

    def test_canonical_rows_keep_least_rhs_per_direction(self):
        rows = [((2, 4), 3), ((1, 2), 1), ((3, 6), 2), ((-1, 0), 4),
                ((-2, 0), 8), ((0, 0), 5)]
        # (1, 2): rhs/g is 3/2, 1, 2/3, so (3, 6) <= 2 stays; the two rows
        # along (-1, 0) tie and the first stays; 0 <= 5 is dropped
        assert halfspaces._canonical_rows(rows) == (
            [((3, 6), 2), ((-1, 0), 4)], True)
        assert halfspaces._canonical_rows(rows + [((0, 0), -1)]) == ([], False)

    def test_kept_rows_divided_by_gcd_of_all_entries(self):
        rows, ok = halfspaces._canonical_rows([((4, 6), 10), ((4, 6), 3),
                                               ((0, 3), 0), ((-6, 0), -4)])
        assert ok and rows == [((4, 6), 3), ((0, 1), 0), ((-3, 0), -2)]


def _oracle_reference_systems():
    """Seeded random rational systems in dims 1-4.  Half draw normals from a
    small pool with positive and negative multiples, so duplicate,
    dominated and opposite rows (constant rows after elimination) occur."""
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
        systems.append(make_system(dim, _random_rows(rng, dim, count, pool)))
    return systems


class TestAgainstFractionOracle:
    """The integer-row Fourier-Motzkin must give the Fraction-rhs route's
    feasibility, witness and uniqueness exactly."""

    def test_corpus_anchor_systems(self, corpus):
        bodies = [body for _, body in corpus if body.dim < 4]
        bodies += [body for spec, body in corpus
                   if body.dim == 4 and spec.kind == "random_hull"][:20]
        for body in bodies:
            system = ak_system(body)
            assert fm_feasible(system) == oracle_fm_feasible(system)

    def test_random_rational_systems(self, monkeypatch):
        constant = []
        canonical = halfspaces._canonical_rows

        def spy(rows):
            rows = list(rows)
            constant.extend(r for r in rows if not any(r[0]))
            return canonical(rows)

        monkeypatch.setattr(halfspaces, "_canonical_rows", spy)
        infeasible = unique = 0
        systems = _oracle_reference_systems()
        for system in systems:
            res = fm_feasible(system)
            assert res == oracle_fm_feasible(system)
            assert all(type(c) is F for c in res.witness or ())
            infeasible += not res.feasible
            unique += res.unique
        assert len(systems) >= 2000
        assert infeasible > 300 and unique > 5 and len(constant) > 300

    def test_one_fraction_per_witness_coordinate(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return F(*args)

        systems = _oracle_reference_systems()[:300]
        monkeypatch.setattr(halfspaces, "Fraction", counting)
        for system in systems:
            del made[:]
            res = fm_feasible(system)
            assert len(made) == (system.dim if res.feasible else 0)

    def test_canonical_rows_match_oracle(self):
        rng = random.Random(95)
        for _ in range(400):
            dim = rng.randint(1, 3)
            rows = [(tuple(rng.randint(-2, 2) * rng.choice((1, 2, 6))
                           for _ in range(dim)), rng.randint(-9, 9))
                    for _ in range(rng.randint(1, 8))]
            got, ok = halfspaces._canonical_rows(rows)
            want, want_ok = _oracle_canonical_rows(
                [(tuple(F(c) for c in w), F(b)) for w, b in rows])
            assert ok == want_ok
            assert [(primitive(w), F(b, gcd(*w))) for w, b in got] == want
            assert all(gcd(*w, b) == 1 for w, b in got)


class TestFourierMotzkinGuard:
    def test_step_cap_counts_row_pairs(self, monkeypatch):
        # eliminating y pairs the three rows with +y and the three with -y
        rows = [((i, 1), 9) for i in range(3)] + [((i, -1), 9) for i in range(3)]
        system = make_system(2, rows)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "8")
        with pytest.raises(CombinatorialBlowup, match="Fourier-Motzkin step: 9 "):
            fm_feasible(system)
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "9")
        assert fm_feasible(system).feasible

    def test_dim_5_anchor_system_raises(self, monkeypatch):
        # its elimination steps pair 99, 2420, 1247260, ... rows: the third
        # step exceeds the default cap of 200000 before it combines any
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        body = generate(GenSpec("random_hull", 5, vertex_count=8, seed=1,
                                denominator_bound=2))
        with pytest.raises(CombinatorialBlowup, match="1247260"):
            fm_feasible(ak_system(body))

    def test_helly_audit_raises_before_any_subset(self, monkeypatch):
        # its 20 rows make 38,760 subsets, under the cap; the full-system
        # Fourier-Motzkin runs first and trips the step cap
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        body = generate(GenSpec("random_hull", 5, vertex_count=8, seed=1,
                                denominator_bound=2))
        system = ak_system(body)
        assert comb(len(system.halfspaces), 6) == 38760
        visited = []
        farkas = halfspaces._farkas_infeasible

        def record_farkas(rows, subset, minors):
            visited.append(subset)
            return farkas(rows, subset, minors)

        monkeypatch.setattr(halfspaces, "_farkas_infeasible", record_farkas)
        with pytest.raises(CombinatorialBlowup,
                           match="Fourier-Motzkin step: 1247260 row pairs exceed"):
            helly_audit(system)
        assert visited == []


class TestMinorTable:
    # x <= 1, y <= 1, x + y >= 0, x >= 2, x + y <= 5, y >= -3: the second
    # subset (0, 1, 3) is infeasible, so the loop stops after 2 of 20
    EARLY_EXIT = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 0), ((-1, 0), -2),
                  ((1, 1), 5), ((0, -1), 3)]

    def _recorded_audit(self, monkeypatch, system):
        visited, tables, dets = [], [], []
        farkas, det = halfspaces._farkas_infeasible, halfspaces.int_det

        def record_farkas(rows, subset, minors):
            visited.append(subset)
            tables.append(minors)
            return farkas(rows, subset, minors)

        def record_det(rows):
            dets.append(rows)
            return det(rows)

        monkeypatch.setattr(halfspaces, "_farkas_infeasible", record_farkas)
        monkeypatch.setattr(halfspaces, "int_det", record_det)
        verdict = helly_audit(system)
        assert all(t is tables[0] for t in tables)
        return verdict, visited, tables[0], dets

    def test_early_exit_fills_only_visited_minors(self, monkeypatch):
        system = make_system(2, self.EARLY_EXIT)
        verdict, visited, table, dets = self._recorded_audit(monkeypatch, system)
        assert not verdict
        assert visited == [(0, 1, 2), (0, 1, 3)]
        # (0, 1) lies in both subsets and is taken once
        assert set(table) == {(1, 2), (0, 2), (0, 1), (1, 3), (0, 3)}
        assert len(dets) == len(table)
        ints = _integer_rows(system)
        for key, value in table.items():
            assert value == int_det([ints[i][0] for i in key])

    def test_each_minor_taken_once(self, monkeypatch):
        system = ak_system(random_polytope(random.Random(96), 3, 9))
        rows = len(system.halfspaces)
        verdict, visited, table, dets = self._recorded_audit(monkeypatch, system)
        assert verdict and len(visited) == comb(rows, 4)
        assert len(dets) == len(table) <= comb(rows, 3) < 4 * len(visited)
        assert all(key == tuple(sorted(key)) and len(key) == 3 for key in table)
        ints = _integer_rows(system)
        for key, value in table.items():
            assert value == int_det([ints[i][0] for i in key])


class TestHellyCallCounts:
    """The audit scales its system once and runs every Fourier-Motzkin on
    integer rows, the full system first; it goes through no ``System``."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """``spy()`` wraps the named module functions and constructors and
        returns the argument tuples of their calls from then on, by name."""
        def install():
            seen = {"_fm_rows": [], "fm_feasible": [], "_integer_rows": [],
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
        ints = _integer_rows(system)
        calls = spy()
        assert helly_audit(system)
        assert calls["_fm_rows"] == [(ints, 2)]
        assert calls["fm_feasible"] == []
        assert calls["_integer_rows"] == [(system,)]

    def test_cube_runs_fm_on_its_fallback_subsets(self, spy):
        system = ak_system(unit_cube(3))
        ints = _integer_rows(system)
        calls = spy()
        assert helly_audit(system)
        assert len(calls["_fm_rows"]) == 1 + 3
        assert calls["_fm_rows"][0] == (ints, 3)
        # each fallback subset is four of the scaled rows, not a new System
        assert all(len(rows) == 4 and all(r in ints for r in rows)
                   for rows, _ in calls["_fm_rows"][1:])
        assert calls["fm_feasible"] == []
        assert calls["_integer_rows"] == [(system,)]
        assert calls["System"] == [] and calls["HalfSpace"] == []

    def test_anchor_unique_builds_no_halfspace(self, spy, corpus):
        profiles = [tightness_profile(body) for _, body in corpus[:40]]
        profiles += [tightness_profile(standard_simplex(n)) for n in (2, 3, 4)]
        calls = spy()
        verdicts = [anchor_unique(p) for p in profiles]
        assert all(verdicts[-3:]) and not all(verdicts)
        assert len(calls["_fm_rows"]) >= 3
        assert calls["HalfSpace"] == [] and calls["System"] == []
        assert calls["fm_feasible"] == [] and calls["_integer_rows"] == []


class TestGLInvariance:
    def test_identity(self):
        assert gl_invariance_check(build_hull(TRIANGLE), [[1, 0], [0, 1]])

    def test_diagonal(self):
        assert gl_invariance_check(build_hull(TRIANGLE), [[2, 0], [0, 3]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            gl_invariance_check(build_hull(TRIANGLE), [[1, 1], [2, 2]])

    def test_random_unimodular_on_cube(self):
        rng = random.Random(36)
        cube = unit_cube(3)
        for _ in range(6):
            mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            for _ in range(4):  # random integer row operations keep det = +-1
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            assert gl_invariance_check(cube, mat)
