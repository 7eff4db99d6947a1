"""The double description kernel: the extreme rays of a cone over integer
rows, and the facets of a hull read off them.

Every facet comes from one kernel, ``_cone_rays``: the double description
method (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996)
on integer rows.  The facets w . x <= b of conv(P) are the extreme rays
(w, -b) of the cone {y : (p, 1) . y <= 0 for p in P}, and the points on a
facet are the rows tight on its ray.  The method is complete by
construction: it keeps the extreme rays of the cone cut by the rows seen so
far, and each new row adds the rays of adjacent pairs it separates.  Two
rays that share k - 2 of the rows (k their length) are adjacent outright
when either is tight on exactly k - 1 rows; only pairs of rays that are
each tight on more are scanned for a third ray.  A hull runs it on the
input points; the Cayley polytope conv(K x {0} u L x {1}) runs it on its
lifted vertices, and its fan gives the mixed volumes of K and L, so no sum
is built; a feasibility question runs it on its homogenized rows.

The kernel also owns the size policy: every run, whoever calls it, checks
the upper bound theorem's count of its rays against ``GODBERSEN_SUBSET_CAP``
before the seed (``check_subset_cap``).  The generators of fixed kinds ask it
the same question (``check_hull_size``) before they make their points.
"""

from __future__ import annotations

import os
from math import comb
from operator import mul

from .errors import CombinatorialBlowup, DegenerateInput
from .linalg import _back_substitute, _echelon, _with_identity, primitive

SUBSET_CAP_ENV = "GODBERSEN_SUBSET_CAP"
DEFAULT_SUBSET_CAP = 200_000


def check_subset_cap(total: int, what: str) -> None:
    """Raise CombinatorialBlowup, naming ``what``, before a ``_cone_rays``
    run that may have ``total`` rays (the facets of a hull) above the cap
    (``GODBERSEN_SUBSET_CAP``, default 200000).  A count past Python's limit
    on integer string conversion is written by its size, "about 10^k" for
    the k with 10^k <= total < 10^(k+1), found in integers: since log10 2 >
    3/10, k starts at or below it."""
    raw = os.environ.get(SUBSET_CAP_ENV, DEFAULT_SUBSET_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{SUBSET_CAP_ENV} must be an integer, not {raw!r}") from None
    if total > cap:
        try:
            count = str(total)
        except ValueError:  # more digits than Python converts
            k = (total.bit_length() - 1) * 3 // 10
            while 10 ** (k + 1) <= total:
                k += 1
            count = f"about 10^{k}"
        raise CombinatorialBlowup(
            f"{what}: {count} possible facets exceed the cap of {cap}; "
            f"raise {SUBSET_CAP_ENV}")


def _max_facets(v: int, n: int) -> int:
    """The most facets a polytope in R^n with v >= n + 1 vertices can have:
    those of the cyclic polytope (McMullen's upper bound theorem, 1970)."""
    return comb(v - (n + 1) // 2, n // 2) + comb(v - n // 2 - 1, (n + 1) // 2 - 1)


def check_hull_size(v: int, n: int) -> None:
    """``check_subset_cap`` for the hull of v >= n + 1 points in R^n, which
    has at most ``_max_facets(v, n)`` facets."""
    check_subset_cap(_max_facets(v, n), f"hull of {v} points in R^{n}")


def _ids(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _rays_on(z: int, tights: list[int]) -> int:
    """The number of rays, by their tight bitmasks, tight on every row of
    ``z``."""
    return list(map(z.__and__, tights)).count(z)


def _seed_rays(rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """(seed, rays): the first linearly independent rows B of ``rows`` and
    the extreme rays of the simplicial cone {y : B y <= 0}, the j-th tight on
    every seed row but the j-th.

    One Bareiss pass over [R^T | I], R the rows: its pivot columns are the
    seed, and the back-substitution gives the rows of D (B^T)^-1, D = +-det B.
    Row j is D B^-1 e_j, so -sign(D) times it is -|det B| B^-1 e_j, the
    j-th column of -sign(det B) adj(B).  The rows fail to span R^k exactly
    when a pivot falls in the identity block, which raises DegenerateInput:
    for lifted points (p, 1), that the points do not affinely span R^(k-1).
    """
    a, seed, _ = _echelon(_with_identity(list(zip(*rows))))
    if seed[-1] >= len(rows):
        raise DegenerateInput(f"points do not span R^{len(rows[0]) - 1}")
    d, inv = _back_substitute(a, seed, len(rows))
    sign = -1 if d > 0 else 1
    return seed, [primitive([sign * c for c in r]) for r in inv]


def _cone_rays(rows) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : a . y <= 0 for every row a}.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon, "Double description method revisited", 1996) on
    integer rows of length k, which must span R^k: fewer than k rows, or a
    seed that finds them dependent, raise DegenerateInput.  Returns (ray,
    tight) pairs: the ray as a primitive integer vector, ``tight`` the
    bitmask of the rows a with a . ray = 0.

    Before the seed, M rows with k >= 2 pass the size check
    (``check_subset_cap``) as the hull of M points in R^(k-1).  The rays of
    the cone are the facets of its polar, which the rows generate, so there
    are at most ``_max_facets(M, k - 1)`` of them, the facets of a polytope
    in R^(k-1) on M vertices (McMullen's upper bound theorem, 1970); every
    intermediate cone of the run is cut by fewer rows and has at most as
    many.  A cone on the line (k = 1) has at most one ray and is not
    checked.

    The first linearly independent rows B seed the cone, from one
    elimination (``_seed_rays``): its rays are the columns of
    -sign(det B) adj(B), the j-th tight on every seed row but the j-th.
    Each further row a cuts the cone.  One pass over the rays keeps those
    with a . r <= 0, adding a to the tight rows of those with a . r = 0, and
    indexes the rest by sign; a pair with a . r+ > 0 > a . r- gives the ray
    (a . r+) r- - (a . r-) r+ if the two are adjacent, that is, if their
    common tight rows z number at least k - 2 and no third ray is tight on
    all of them (the combinatorial adjacency test of Fukuda and Prodon).

    The scan for a third ray is skipped when either ray is simple, tight on
    exactly k - 1 rows: then the pair is adjacent (the algebraic test of
    Fukuda and Prodon, rank z = k - 2, comes free).  An extreme ray of the
    pointed current cone has tight rows of rank k - 1, so a simple ray's
    k - 1 rows are independent, and the other ray, a different extreme ray,
    is not tight on all of them.  So z is k - 2 independent rows: |z| = k - 2
    exactly, and z cuts out a 2-dimensional face of the cone, which holds
    both rays.  A 2-dimensional pointed cone has exactly two extreme rays, so
    no third ray is tight on z and the scan would pass.  Only pairs of rays
    tight on k or more rows each, which degenerate inputs make, are scanned.
    """
    k, m = len(rows[0]), len(rows)
    if m < k:
        raise DegenerateInput(f"points do not span R^{k - 1}")
    if k > 1:
        check_hull_size(m, k - 1)
    seed, rays = _seed_rays(rows)
    full = sum(1 << i for i in seed)
    tights = [full ^ (1 << i) for i in seed]
    taken = set(seed)
    low = k - 2  # the fewest common tight rows of an adjacent pair
    for i, a in enumerate(rows):
        if i in taken:
            continue
        bit = 1 << i
        vals = [sum(map(mul, a, r)) for r in rays]
        pos, neg, kept, masks = [], [], [], []
        for j, (s, r, t) in enumerate(zip(vals, rays, tights)):
            if s > 0:
                pos.append(j)
                continue
            if s:
                neg.append(j)
            kept.append(r)
            masks.append(t if s else t | bit)
        for p in pos:
            sp, rp, tp = vals[p], rays[p], tights[p]
            simple = tp.bit_count() == k - 1
            for q in neg:
                z = tp & tights[q]
                if z.bit_count() < low:
                    continue
                # p and q are tight on z themselves
                if not (simple or tights[q].bit_count() == k - 1) and _rays_on(z, tights) > 2:
                    continue
                sq = vals[q]
                kept.append(primitive([sp * x - sq * y for x, y in zip(rays[q], rp)]))
                masks.append(z | bit)
        rays, tights = kept, masks
    return list(zip(rays, tights))


def _hull_facets_int(pts: list[tuple[int, ...]], d: int):
    """Facets of conv(pts) in R^d as (normal, offset, ids of points on it).

    The facet w . x <= b is the extreme ray (w, -b) of the cone
    {y : (p, 1) . y <= 0 for every point p}, and the points on it are the
    rows tight on that ray.  The kernel's rays are primitive, and w . p = b
    at each of the d or more points p on the facet, so gcd(w) divides
    gcd(w, b) = 1: the normal is coprime as it comes.  The facets come in
    the kernel's ray order; ``geometry._from_lattice`` sorts them.  Points
    that do not affinely span R^d raise DegenerateInput.
    """
    return [(ray[:d], -ray[d], _ids(tight))
            for ray, tight in _cone_rays([p + (1,) for p in pts])]
