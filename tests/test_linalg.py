import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from godbersen import (
    HalfSpace,
    PLConcave,
    build_hull,
    make_system,
    section_profile,
    support,
    transform,
)
from godbersen.errors import SingularMatrix
from godbersen.linalg import (
    _echelon,
    primitive,
    scale_to_integers,
)
from tests.conftest import adjugate, count_fractions, int_det, int_rank


# A rational determinant, solve and affine rank on the Bareiss kernel.  The
# program needs none of them; the tests' Vandermonde oracle and affine-map
# checks use the first two, and the affine rank is the reference for the
# integer rank check of ``build_hull``.

def det(mat) -> Fraction:
    """Exact determinant of a square rational matrix."""
    ints, mult = scale_to_integers(mat)
    return Fraction(int_det(ints), mult ** len(ints))


def solve_linear(mat, rhs) -> tuple[Fraction, ...]:
    """Solve a square rational system exactly; raises SingularMatrix.

    Back-substitution stays in integers: with D the last pivot, D x is
    integral (Cramer's rule), so each division by a pivot is exact.
    """
    n = len(rhs)
    ints, _ = scale_to_integers([tuple(row) + (b,) for row, b in zip(mat, rhs)])
    a, pivots, _ = _echelon(ints)
    if pivots != list(range(n)):
        raise SingularMatrix("linear system is singular")
    d = a[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        y[i] = (d * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return tuple(Fraction(v, d) for v in y)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    if len(points) < 2:
        return 0
    ints, _ = scale_to_integers(points)
    base = ints[0]
    return int_rank([[c - b for c, b in zip(p, base)] for p in ints[1:]])


# The Fraction elimination routes that the Bareiss kernel replaced, kept as
# oracles.

def fraction_rank(rows) -> int:
    a = [[Fraction(c) for c in r] for r in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        for i in range(rank + 1, m):
            if a[i][col] != 0:
                f = a[i][col] * inv
                for j in range(col, n):
                    a[i][j] -= f * a[rank][j]
        rank += 1
        col += 1
    return rank


def fraction_det(mat) -> Fraction:
    a = [[Fraction(c) for c in r] for r in mat]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        result *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * result


def gauss_jordan_solve(mat, rhs):
    n = len(rhs)
    a = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrix("linear system is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n + 1):
                    a[i][j] -= f * a[k][j]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def random_matrix(rng, m, n, rational):
    """Small entries, often zero, so pivots are missing; some matrices get a
    zero column, and a random low-rank factorization makes some of them
    rank-deficient."""
    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.randint(-7, 7)
        return Fraction(num, rng.randint(1, 6)) if rational else num

    if n and m > 1 and rng.random() < 0.3:
        k = rng.randint(0, min(m, n) - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        mat = [[sum((left[i][t] * right[t][j] for t in range(k)), 0)
                 for j in range(n)] for i in range(m)]
    else:
        mat = [[entry() for _ in range(n)] for _ in range(m)]
    if n and rng.random() < 0.2:
        zero = rng.randrange(n)
        for row in mat:
            row[zero] = 0
    return mat


def test_kernel_matches_fraction_oracles():
    rng = random.Random(7)
    singular = 0
    for trial in range(1500):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        mat = random_matrix(rng, m, n, rational=False)
        if m:
            assert int_rank(mat) == fraction_rank(mat), mat
        if m == n:
            d = fraction_det(mat)
            assert int_det(mat) == d, mat
            if d == 0:
                with pytest.raises(SingularMatrix):
                    adjugate(mat)
            else:
                det_a, adj = adjugate(mat)
                assert det_a == d, mat
                assert [[sum(adj[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
                        for i in range(n)] == [[d * (i == j) for j in range(n)]
                                               for i in range(n)], mat
        square = random_matrix(rng, n, n, rational=trial % 2 == 1)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        assert det(square) == fraction_det(square), square
        assert affine_rank([tuple(r) for r in square]) == \
            (fraction_rank([[c - b for c, b in zip(r, square[0])]
                            for r in square[1:]]) if n > 1 else 0)
        try:
            expected = gauss_jordan_solve(square, rhs)
        except SingularMatrix:
            singular += 1
            with pytest.raises(SingularMatrix):
                solve_linear(square, rhs)
        else:
            assert solve_linear(square, rhs) == expected, (square, rhs)
    assert singular > 100


# The adjugate as k^2 cofactor determinants, one Bareiss elimination each,
# is the oracle of ``adjugate``'s single elimination of [A | I] and
# back-substitution: the two steps, ``_echelon`` and ``_back_substitute``,
# that seed the double description kernel.

def cofactor_adjugate(rows) -> list[list[int]]:
    """adj(A)[i][j] = (-1)^(i+j) det of A without row j and column i."""
    n = len(rows)
    return [[(-1) ** (i + j) * int_det([r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
             for j in range(n)] for i in range(n)]


def oracle_matrix(rng, k):
    """A square integer matrix: small entries or entries up to +-2^60, often
    zero; some get a zero column, some a zero top-left entry, so the
    elimination must swap rows, and some are rank-deficient products."""
    bound = 2 ** 60 if rng.random() < 0.3 else 4

    def entry():
        return 0 if rng.random() < 0.25 else rng.randint(-bound, bound)

    if k > 1 and rng.random() < 0.15:
        r = rng.randint(1, k - 1)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        right = [[entry() for _ in range(k)] for _ in range(r)]
        mat = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(k)]
               for i in range(k)]
    else:
        mat = [[entry() for _ in range(k)] for _ in range(k)]
    if rng.random() < 0.1:
        zero = rng.randrange(k)
        for row in mat:
            row[zero] = 0
    if k > 1 and rng.random() < 0.3:
        mat[0][0] = 0
    return mat


def test_adjugate_matches_cofactor_oracle():
    rng = random.Random(31)
    swapped = singular = zero_column = huge = 0
    for trial in range(1600):
        k = trial % 8 + 1
        mat = oracle_matrix(rng, k)
        d = int_det(mat)
        zero_column += any(not any(col) for col in zip(*mat))
        if d == 0:
            singular += 1
            with pytest.raises(SingularMatrix, match="matrix is singular"):
                adjugate(mat)
            continue
        assert adjugate(mat) == (d, cofactor_adjugate(mat)), mat
        swapped += mat[0][0] == 0
        huge += max(abs(c) for row in mat for c in row) > 2 ** 50
    assert swapped > 200 and singular > 150 and zero_column > 100 and huge > 300
    assert adjugate([]) == (1, [])
    assert adjugate([[-7]]) == (-7, [[1]])
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    with pytest.raises(SingularMatrix):
        adjugate([[0]])


def test_kernel_edge_shapes():
    assert int_rank([]) == fraction_rank([]) == 0
    assert int_rank([[], []]) == fraction_rank([[], []]) == 0
    assert int_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert int_rank([[0, 0, 5], [0, 3, 1]]) == 2
    assert int_det([]) == 1 and det(()) == 1
    assert solve_linear((), ()) == ()
    with pytest.raises(SingularMatrix):
        solve_linear(((0, 1), (0, 2)), (1, 2))


def test_int_det_known_values():
    assert int_det([[1, 3, 5], [2, 0, 4], [4, 2, 7]]) == 18
    assert int_det([[2, 1, 3, 0], [1, 0, 2, 3], [3, 2, 0, 1], [2, 0, 1, 3]]) == -24
    assert int_det([[1, 2], [2, 4]]) == 0


def test_int_det_matches_permutation_expansion():
    # oracle: Leibniz expansion over all permutations, 4x4
    from itertools import permutations

    rng = random.Random(3)
    for _ in range(25):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        expected = 0
        for perm in permutations(range(4)):
            sign = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = 1
            for i in range(4):
                term *= m[i][perm[i]]
            expected += sign * term
        assert int_det(m) == expected
        assert det(m) == expected


def test_rank():
    assert int_rank([[1, 0], [0, 1]]) == 2
    assert int_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert int_rank([]) == 0
    assert affine_rank([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2


# The cofactor normal of every (n-1)-subset of a list of vectors, in one
# exterior-product pass: the candidate normals of the per-subset oracle of
# the Cayley facets, ``tests.test_geometry.subset_sum_facet_supports``.  The
# per-subset cofactor route, one Bareiss determinant per minor, is its oracle.

@lru_cache(maxsize=None)
def laplace_steps(n: int):
    """Laplace expansion tables for the minors of rows of length n >= 2.

    ``steps[k][s]`` lists (sign, column, index of a k-minor) whose sum of
    sign * row[column] * minor is the s-th (k+1)-minor, expanded along a new
    last row; minors of one size are indexed by their column subsets in
    ``combinations`` order.  The last table is folded into the normal: its
    j-th entry gives (-1)^j times the minor that omits column j.
    """
    index = [{cols: i for i, cols in enumerate(combinations(range(n), k))}
             for k in range(n)]
    steps = [[tuple(((-1) ** (k + p), t, index[k][cols[:p] + cols[p + 1:]])
                    for p, t in enumerate(cols))
              for cols in combinations(range(n), k + 1)]
             for k in range(n - 1)]
    last = steps[-1]
    steps[-1] = [tuple(((-1) ** j * s, t, q) for s, t, q in last[n - 1 - j])
                 for j in range(n)]
    return steps


def span_normals(dirs, n: int):
    """Integer normal of each (n-1)-combination of integer vectors, n >= 2.

    Yields, in ``itertools.combinations`` order, the vector whose j-th
    component is (-1)^j times the (n-1)-minor omitting column j, reduced to
    coprime integers: the zero vector when the combination does not span an
    (n-1)-dimensional space, else a nonzero normal to it (cofactor rule).
    The combinations are walked depth first, and each prefix's minors are
    extended by one Laplace expansion along the new row, so every prefix is
    expanded once for all its extensions.
    """
    steps = laplace_steps(n)
    depth = n - 1
    total = len(dirs)

    def walk(minors, start, k):
        table = steps[k]
        for i in range(start, total - depth + k + 1):
            r = dirs[i]
            nxt = [sum(s * r[t] * minors[q] for s, t, q in terms) for terms in table]
            if k + 1 == depth:
                yield primitive(nxt)
            else:
                yield from walk(nxt, i + 1, k + 1)

    return walk([1], 0, 0)


def normal_to_span(rows, n):
    w = []
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in rows]
        d = int_det(minor)
        w.append(-d if j % 2 else d)
    return primitive(w)


def random_directions(rng, n):
    """Up to 9 small vectors, some repeated, zero, or in a low-rank span."""
    dirs = [tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(0, 9))]
    if dirs and rng.random() < 0.3:
        basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        for i in range(0, len(dirs), 2):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            dirs[i] = tuple(a * x + b * y for x, y in zip(*basis))
    if dirs and rng.random() < 0.3:
        dirs.insert(rng.randrange(len(dirs)), (0,) * n)
    if dirs and rng.random() < 0.3:
        dirs.insert(rng.randrange(len(dirs)), rng.choice(dirs))
    return dirs


def test_span_normals_match_cofactor_oracle():
    rng = random.Random(13)
    zero = short = 0
    for n in (2, 3, 4, 5):
        for _ in range(150):
            dirs = random_directions(rng, n)
            expected = [normal_to_span(list(c), n) for c in combinations(dirs, n - 1)]
            assert list(span_normals(dirs, n)) == expected, (n, dirs)
            zero += sum(not any(w) for w in expected)
            short += len(dirs) < n - 1
    assert zero > 500 and short > 20


def test_cofactor_normal_matches_oracle():
    rng = random.Random(19)
    zero = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(120):
            dirs = random_directions(rng, n)
            while len(dirs) < n - 1:
                dirs.append(tuple(rng.randint(-4, 4) for _ in range(n)))
            rows = dirs[:n - 1]
            expected = normal_to_span(rows, n)
            assert list(span_normals(rows, n)) == [expected], (n, rows)
            zero += not any(expected)
    assert zero > 30
    assert list(span_normals([(1, 0, 0), (0, 1, 0)], 3)) == [(0, 0, 1)]


def test_span_normals_edge_shapes():
    assert list(span_normals([], 3)) == []
    assert list(span_normals([(1, 2, 3)], 3)) == []
    assert list(span_normals([(1, 2, 3), (2, 4, 6)], 3)) == [(0, 0, 0)]
    assert list(span_normals([(0, 0, 0), (0, 1, 0)], 3)) == [(0, 0, 0)]
    assert list(span_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)) == \
        [(0, 0, 1), (0, -1, 0), (1, 0, 0)]
    assert list(span_normals([(3, -6)], 2)) == [(-2, -1)]


def test_normal_to_span_is_orthogonal():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            dirs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n + 1)]
            for rows, w in zip(combinations(dirs, n - 1), span_normals(dirs, n)):
                for r in rows:
                    assert sum(a * b for a, b in zip(w, r)) == 0
                if int_rank(rows) == n - 1:
                    assert any(c != 0 for c in w)
                else:
                    assert all(c == 0 for c in w)


def test_primitive_and_scaling():
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive((0, 0)) == (0, 0)
    pts, mult = scale_to_integers([(Fraction(1, 2), Fraction(2, 3))])
    assert mult == 6 and pts == [(3, 4)]


def test_all_int_rows_come_back_unchanged(monkeypatch):
    # as tuples over 1, the same objects where they are tuples, with no
    # Fraction made
    row = (1, -2, 3)
    made = count_fractions(monkeypatch)
    pts, mult = scale_to_integers([row, [4, 5, 6]])
    assert (pts, mult) == ([(1, -2, 3), (4, 5, 6)], 1) and pts[0] is row
    assert made == []


# Every public entry that reads coordinates from outside, on integer data
# spelled by ``s``: as ints, Fractions, rational strings or floats.  With
# ints, an entry makes no Fraction but the ones it returns: the support
# value is one.
TRIANGLE_3 = build_hull([(0, 0), (3, 0), (0, 3)])
EDGE_ENTRIES = {
    "build_hull": (lambda s: build_hull([(s(0), s(0)), (s(4), s(0)), (s(0), s(2)),
                                         (s(1), s(1))]), 0),
    "support": (lambda s: support(TRIANGLE_3, (s(1), s(-2))), 1),
    "transform": (lambda s: transform(TRIANGLE_3, [[s(2), s(1)], [s(0), s(-1)]],
                                      (s(1), s(-3))), 0),
    "section_profile": (lambda s: section_profile(TRIANGLE_3, [s(1), s(2)]), 0),
    "HalfSpace": (lambda s: HalfSpace((s(2), s(-4)), s(6)), 0),
    "make_system": (lambda s: make_system(2, [((s(1), s(0)), s(1)),
                                              ((s(0), s(-1)), s(3))]), 0),
    "PLConcave": (lambda s: PLConcave((s(0), s(1)), (s(2), s(1))), 0),
}


@pytest.mark.parametrize("name", EDGE_ENTRIES)
def test_every_entry_reads_each_spelling(monkeypatch, name):
    entry, returned = EDGE_ENTRIES[name]
    got = entry(int)
    assert entry(Fraction) == got and entry(str) == got
    with pytest.raises(TypeError):
        entry(float)
    made = count_fractions(monkeypatch)
    entry(int)
    assert len(made) == returned


def test_solve_linear():
    x = solve_linear(((2, 1), (1, 3)), (5, 10))
    assert x == (Fraction(1), Fraction(3))
    with pytest.raises(SingularMatrix):
        solve_linear(((1, 2), (2, 4)), (1, 2))
