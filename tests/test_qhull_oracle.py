"""The mixed-volume profile against an oracle that shares no code with the
double description or the fan: qhull's floating-point volumes of K + tL
(``scipy.spatial.ConvexHull``) at t = 0..n, solved for the m_j through
Vol(K + tL) = sum_j C(n, j) m_j t^j.  Skipped where scipy is missing."""

from math import comb

import pytest

np = pytest.importorskip("numpy")
spatial = pytest.importorskip("scipy.spatial")

from godbersen import cross_polytope, mv_profile, reflect, unit_cube  # noqa: E402
from tests.conftest import lattice_grid_bodies, profile_pairs  # noqa: E402

# the largest relative error of an m_j: qhull's volumes are floating point,
# and the Vandermonde solve at t = 0..n widens their error; on the pairs
# below the profile matched to a relative 2.6e-12 at most
RTOL = 1e-8


def qhull_profile(K, L):
    """m_0..m_n of (K, L) from qhull's volumes of K + tL at t = 0..n."""
    n = K.dim
    ps = np.array(K.vertices, dtype=float)
    qs = np.array(L.vertices, dtype=float)
    vols = [spatial.ConvexHull((ps[:, None] + t * qs[None]).reshape(-1, n)).volume
            for t in range(n + 1)]
    nodes = [[comb(n, j) * t ** j for j in range(n + 1)] for t in range(n + 1)]
    return np.linalg.solve(np.array(nodes, dtype=float), vols)


def assert_matches_qhull(pairs):
    for K, L in pairs:
        exact = np.array(mv_profile(K, L).coeffs, dtype=float)
        err = np.abs(qhull_profile(K, L) - exact) / exact
        assert err.max() <= RTOL, (K, L, err)


def test_corpus_pairs(corpus):
    pairs = profile_pairs([body for _, body in corpus])
    assert len(pairs) > 590
    assert_matches_qhull(pairs)


def test_lattice_grid_stratum():
    assert_matches_qhull(profile_pairs(lattice_grid_bodies(40, 10)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cubes_and_cross_polytopes(n):
    cube, cross = unit_cube(n), cross_polytope(n)
    assert_matches_qhull([(cube, reflect(cube)), (cross, reflect(cross)),
                          (cube, cross), (cross, cube)])
