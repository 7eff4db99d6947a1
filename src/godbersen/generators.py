"""Deterministic polytope generators for experiments and test corpora.

Every generator is a pure function of its GenSpec: the seed fully determines
the output, including the retry sequence when random draws come out
degenerate.  Points are drawn as integer lattice points over one common
scale and go straight to the hull's lattice entry (``_lattice_hull``), so no
generator makes a Fraction; the body's Fraction views are made when read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .dd import check_hull_size
from .errors import DegenerateInput
from .geometry import Polytope, _lattice_hull

KINDS = ("simplex", "cube", "cross_polytope", "random_hull", "random_symmetric")

_NUMERATOR_BOUND = 9
_MAX_RETRIES = 16


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one body.  ``vertex_count`` is the number of points drawn
    and ``denominator_bound`` the largest denominator of their coordinates
    (random kinds only; a fixed kind takes neither); the hull may end up
    with fewer vertices."""

    kind: str
    dim: int
    vertex_count: int | None = None
    seed: int = 0
    denominator_bound: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        # the +-p pairs of random_symmetric double its points; the draws
        # only need to span the space
        least = {"random_hull": ("dim+1", self.dim + 1),
                 "random_symmetric": ("dim", self.dim)}.get(self.kind)
        if least is None:
            if self.vertex_count is not None:
                raise ValueError(f"{self.kind} takes no vertex_count; only the "
                                 "random kinds do")
            if self.denominator_bound != 1:
                raise ValueError(f"{self.kind} takes no denominator_bound; only "
                                 "the random kinds do")
        elif self.vertex_count is None:
            raise ValueError(f"{self.kind} needs a vertex_count")
        elif self.vertex_count < least[1]:
            raise ValueError(f"{self.kind} needs vertex_count >= {least[0]}")
        if self.denominator_bound < 1:
            raise ValueError("denominator bound must be positive")


# Each fixed kind knows its vertex count, so it passes the kernel's size
# check before it makes a point: 2^n points of a 30-cube are never made.

def _check_fixed(n: int, v: int) -> None:
    """Refuse a fixed kind's n < 1, then ask the kernel's size check about
    its v points in R^n."""
    if n < 1:
        raise ValueError(f"a fixed kind needs dimension n >= 1, not {n}")
    check_hull_size(v, n)


def standard_simplex(n: int) -> Polytope:
    _check_fixed(n, n + 1)
    pts = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return _lattice_hull(pts, 1)


def unit_cube(n: int) -> Polytope:
    _check_fixed(n, 2 ** n)
    return _lattice_hull([tuple((mask >> i) & 1 for i in range(n))
                          for mask in range(2 ** n)], 1)


def cross_polytope(n: int) -> Polytope:
    _check_fixed(n, 2 * n)
    return _lattice_hull([tuple(s * (i == j) for i in range(n))
                          for j in range(n) for s in (1, -1)], 1)


def generate(spec: GenSpec) -> Polytope:
    """Build the body described by ``spec`` deterministically.

    A random kind draws each coordinate as a numerator in [-9, 9] and then
    a denominator in [1, denominator_bound], and holds it as an integer over
    M = lcm(1..denominator_bound), so no Fraction is made.  Random kinds
    retry degenerate draws up to 16 times from the same stream before giving
    up with DegenerateInput.
    """
    if spec.kind == "simplex":
        return standard_simplex(spec.dim)
    if spec.kind == "cube":
        return unit_cube(spec.dim)
    if spec.kind == "cross_polytope":
        return cross_polytope(spec.dim)

    rng = random.Random(spec.seed)
    bound = spec.denominator_bound
    big = lcm(*range(1, bound + 1))
    last_error: DegenerateInput | None = None
    for _ in range(_MAX_RETRIES):
        pts = [tuple(rng.randint(-_NUMERATOR_BOUND, _NUMERATOR_BOUND)
                     * (big // rng.randint(1, bound)) for _ in range(spec.dim))
               for _ in range(spec.vertex_count)]
        if spec.kind == "random_symmetric":
            pts = pts + [tuple(-c for c in p) for p in pts]
        try:
            return _lattice_hull(pts, big)
        except DegenerateInput as err:
            last_error = err
    raise DegenerateInput(
        f"no full-dimensional body after {_MAX_RETRIES} draws: {last_error}")
