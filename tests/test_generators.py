from fractions import Fraction as F

import pytest

from godbersen import (
    GenSpec,
    build_hull,
    cross_polytope,
    generate,
    standard_simplex,
)


def test_standard_simplex():
    s = generate(GenSpec("simplex", 3))
    assert s == standard_simplex(3)
    assert s.volume == F(1, 6) and len(s.vertices) == 4


def test_cube():
    c = generate(GenSpec("cube", 2))
    assert c == build_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_cross_polytope():
    c = cross_polytope(3)
    assert len(c.vertices) == 6 and len(c.facets) == 8
    assert c.volume == F(4, 3)  # 2^n / n!


def test_determinism():
    spec = GenSpec("random_hull", 2, vertex_count=8, seed=42, denominator_bound=3)
    assert generate(spec).vertices == generate(spec).vertices
    spec_sym = GenSpec("random_symmetric", 3, vertex_count=5, seed=7,
                       denominator_bound=2)
    assert generate(spec_sym) == generate(spec_sym)


def test_different_seeds_differ():
    a = generate(GenSpec("random_hull", 2, vertex_count=8, seed=1))
    b = generate(GenSpec("random_hull", 2, vertex_count=8, seed=2))
    assert a.vertices != b.vertices


def test_symmetric_bodies_are_symmetric():
    body = generate(GenSpec("random_symmetric", 2, vertex_count=4, seed=3,
                            denominator_bound=2))
    assert set(body.vertices) == {tuple(-c for c in v) for v in body.vertices}


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("ball", 2)
    with pytest.raises(ValueError):
        GenSpec("simplex", 1)
    with pytest.raises(ValueError):
        GenSpec("random_hull", 3, vertex_count=3)
    with pytest.raises(ValueError):
        GenSpec("random_hull", 2, vertex_count=5, denominator_bound=0)


@pytest.mark.parametrize("kind", ["simplex", "cube", "cross_polytope"])
def test_fixed_kinds_reject_a_vertex_count(kind):
    # the count would be dropped without a word
    with pytest.raises(ValueError, match=f"^{kind} takes no vertex_count"):
        GenSpec(kind, 3, vertex_count=5)
    assert GenSpec(kind, 3).vertex_count is None


@pytest.mark.parametrize("kind", ["simplex", "cube", "cross_polytope"])
def test_fixed_kinds_reject_a_denominator_bound(kind):
    # the bound would be dropped without a word
    for bound in (0, 2, 5):
        with pytest.raises(ValueError, match=f"^{kind} takes no denominator_bound"):
            GenSpec(kind, 3, denominator_bound=bound)
    assert generate(GenSpec(kind, 3, denominator_bound=1)) == generate(GenSpec(kind, 3))


@pytest.mark.parametrize("kind", ["random_hull", "random_symmetric"])
def test_random_kinds_name_a_missing_count(kind):
    with pytest.raises(ValueError, match=f"^{kind} needs a vertex_count$"):
        GenSpec(kind, 3)
    with pytest.raises(ValueError, match=f"^{kind} needs vertex_count >= dim"):
        GenSpec(kind, 3, vertex_count=2)


def test_full_dimensional_output():
    for seed in range(10):
        body = generate(GenSpec("random_hull", 3, vertex_count=5, seed=seed,
                                denominator_bound=2))
        assert body.dim == 3 and len(body.vertices) >= 4
        assert body.volume > 0
