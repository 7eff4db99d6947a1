import random
from fractions import Fraction as F

import pytest

from godbersen import (
    CombinatorialBlowup,
    DegenerateInput,
    GenSpec,
    build_hull,
    cross_polytope,
    generate,
    standard_simplex,
    unit_cube,
)
from godbersen import dd, generators
from tests.conftest import corpus_specs, count_fractions


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


@pytest.mark.parametrize("make", [standard_simplex, unit_cube, cross_polytope])
@pytest.mark.parametrize("n", [0, -1])
def test_fixed_kinds_refuse_n_below_one(make, n, monkeypatch):
    # one typed refusal naming n, before the size check: math.comb's own
    # ValueError, or at n = -1 the cube's 2^-1, used to escape untyped
    monkeypatch.setattr(generators, "check_hull_size",
                        lambda v, n: pytest.fail("size check ran"))
    with pytest.raises(ValueError) as refused:
        make(n)
    assert str(refused.value) == f"a fixed kind needs dimension n >= 1, not {n}"


@pytest.mark.parametrize("kind, vertices", [("simplex", 5), ("cube", 16),
                                             ("cross_polytope", 8)])
def test_fixed_kinds_check_the_cap_before_making_a_point(kind, vertices, monkeypatch):
    # a fixed kind knows its vertex count, so a cap one under its facet bound
    # refuses it before any point is made, with the kernel's own message
    spec = GenSpec(kind, 4)
    points = generate(spec).vertices
    assert len(points) == vertices
    bound = dd._max_facets(vertices, 4)
    hull = generators._lattice_hull
    built = []

    def spy(pts, mult):
        built.append(len(pts))
        return hull(pts, mult)

    monkeypatch.setattr(generators, "_lattice_hull", spy)
    monkeypatch.setenv("GODBERSEN_SUBSET_CAP", str(bound - 1))
    with pytest.raises(CombinatorialBlowup) as kernel:
        build_hull(points)
    with pytest.raises(CombinatorialBlowup) as refused:
        generate(spec)
    assert str(refused.value) == str(kernel.value) == (
        f"hull of {vertices} points in R^4: {bound} possible facets exceed the "
        f"cap of {bound - 1}; raise GODBERSEN_SUBSET_CAP")
    assert built == []
    monkeypatch.setenv("GODBERSEN_SUBSET_CAP", str(bound))
    assert generate(spec).vertices == points and built == [vertices]


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


def _fraction_generate(spec: GenSpec, draws: list | None = None):
    """A random kind as ``generate`` drew it before its integer draw: Fraction
    points through ``build_hull``, the same stream and retries.  Kept as the
    oracle of the integer draw; ``draws`` gets the number of draws made."""
    rng = random.Random(spec.seed)
    for attempt in range(1, 17):
        pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, spec.denominator_bound))
                     for _ in range(spec.dim)) for _ in range(spec.vertex_count)]
        if spec.kind == "random_symmetric":
            pts = pts + [tuple(-c for c in p) for p in pts]
        try:
            body = build_hull(pts)
        except DegenerateInput as err:
            last_error = err
            continue
        if draws is not None:
            draws.append(attempt)
        return body
    raise last_error


def _shape(body):
    return (body.vertices, body._int_scale,
            [(f.normal, f.offset, f.measure, f.vertex_ids) for f in body.facets],
            body._simplices, body._fan_volumes, body.centroid)


DIM5_SPECS = [GenSpec("random_hull", 5, 8, seed=1, denominator_bound=2),
              GenSpec("random_symmetric", 5, 5, seed=1, denominator_bound=2)]


def test_integer_draw_matches_the_fraction_draw():
    # the dim 2-4 corpus recipes and a dim-5 recipe of both random kinds
    for spec in corpus_specs() + DIM5_SPECS:
        assert _shape(generate(spec)) == _shape(_fraction_generate(spec))


def test_integer_draw_retries_like_the_fraction_draw():
    # so few points make degenerate draws that the retries run
    draws = []
    for seed in range(60):
        for spec in (GenSpec("random_hull", 2, 3, seed=seed),
                     GenSpec("random_symmetric", 2, 2, seed=seed)):
            assert _shape(generate(spec)) == _shape(_fraction_generate(spec, draws))
    assert max(draws) > 1


def test_generate_makes_no_fraction(monkeypatch):
    made = count_fractions(monkeypatch)
    for spec in corpus_specs()[::25] + DIM5_SPECS:
        generate(spec)
    for n in (2, 3, 4):
        for make in (standard_simplex, unit_cube, cross_polytope):
            make(n)
    assert made == []
