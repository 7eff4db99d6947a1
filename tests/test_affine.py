"""Affine invariance of the report: x -> Ax + t with A invertible.

Mixed volumes and the volume both scale by |det A|, the centroid maps to the
image centroid and facets map to facets, so the Godbersen ratios, the tight
count, the anchor's uniqueness and the simplex flag are all unchanged.  The
property runs over corpus bodies with A = -I, A = -2I, unimodular and
rational A.

Two cheap identities of mixed volumes hold the Cayley fan to account on
pairs of bodies: m_j(K, tL) = t^j m_j(K, L) for t > 0 (``scale``), and
m_j(AK + s, AL + s') = |det A| m_j(K, L) (``transform``, whose images get a
hull kernel run and a fan of their own; Schneider, *Convex Bodies*, ch. 5).
"""

from fractions import Fraction as F
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from godbersen import (
    anchor_unique,
    generate,
    godbersen_report,
    mv_profile,
    scale,
    tightness_profile,
    transform,
)
from tests.conftest import corpus_specs
from tests.test_linalg import det

_CORPUS = corpus_specs()
# dims 2 and 3 from both recipes, and a few dim-4 bodies
SPECS = ([s for s in _CORPUS if s.dim < 4 and s.seed % 10 < 3]
         + [s for s in _CORPUS if s.dim == 4][78:82])


@lru_cache(maxsize=None)
def _body(spec):
    return generate(spec)


def invariants(body):
    report = godbersen_report(body)
    tight = tightness_profile(body)
    return (tuple(e.ratio for e in report.entries), report.is_simplex,
            tight.tight_count, anchor_unique(tight))


@lru_cache(maxsize=None)
def _body_invariants(spec):
    return invariants(_body(spec))


def scalar(n, c):
    return [[F(c) if i == j else F(0) for j in range(n)] for i in range(n)]


@st.composite
def unimodular(draw, n):
    """Signed permutation times a unit lower-triangular integer matrix."""
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    low = [[1 if i == j else (draw(st.integers(-2, 2)) if j < i else 0)
            for j in range(n)] for i in range(n)]
    return [[signs[i] * low[perm[i]][j] for j in range(n)] for i in range(n)]


@st.composite
def rational_matrix(draw, n):
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n).filter(lambda m: det(m) != 0))


@st.composite
def affine_maps(draw, n):
    mat = draw(st.one_of(st.just(scalar(n, -1)), st.just(scalar(n, -2)),
                         unimodular(n), rational_matrix(n)))
    shift = tuple(draw(st.builds(F, st.integers(-9, 9), st.integers(1, 4)))
                  for _ in range(n))
    return mat, shift


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_report_is_affine_invariant(data):
    spec = data.draw(st.sampled_from(SPECS))
    mat, shift = data.draw(affine_maps(spec.dim))
    image = transform(_body(spec), mat, shift)
    assert image.volume == abs(det(mat)) * _body(spec).volume
    assert invariants(image) == _body_invariants(spec)


def test_reflections_keep_invariants():
    # A = -I and A = -2I on a body of each dim, the dim-4 ones included
    for spec in SPECS[::7]:
        for c in (-1, -2):
            shift = tuple(F(k, 3) for k in range(spec.dim))
            image = transform(_body(spec), scalar(spec.dim, c), shift)
            assert invariants(image) == _body_invariants(spec)


@lru_cache(maxsize=None)
def _profile(spec_k, spec_l):
    return mv_profile(_body(spec_k), _body(spec_l)).coeffs


@st.composite
def body_pairs(draw):
    """Two corpus specs of one dimension, possibly the same."""
    spec_k = draw(st.sampled_from(SPECS))
    spec_l = draw(st.sampled_from([s for s in SPECS if s.dim == spec_k.dim]))
    return spec_k, spec_l


@settings(max_examples=100, deadline=None, derandomize=True)
@given(body_pairs(), st.builds(F, st.integers(1, 9), st.integers(1, 9)))
def test_mixed_volumes_scale_by_powers_of_t(pair, t):
    # m_j(K, tL) = t^j m_j(K, L) for t > 0
    spec_k, spec_l = pair
    coeffs = mv_profile(_body(spec_k), scale(_body(spec_l), t)).coeffs
    assert coeffs == tuple(t ** j * m for j, m in enumerate(_profile(spec_k, spec_l)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mixed_volumes_scale_by_the_determinant(data):
    # m_j(AK + s, AL + s') = |det A| m_j(K, L): both images are rebuilt
    spec_k, spec_l = data.draw(body_pairs())
    mat, shift = data.draw(affine_maps(spec_k.dim))
    _, other = data.draw(affine_maps(spec_k.dim))
    coeffs = mv_profile(transform(_body(spec_k), mat, shift),
                        transform(_body(spec_l), mat, other)).coeffs
    assert coeffs == tuple(abs(det(mat)) * m for m in _profile(spec_k, spec_l))
