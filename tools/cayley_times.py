"""Time the Cayley polytope's DD and fan, and the body fans, per input class:
python3 tools/cayley_times.py [--bodies N] [--repeat R] [--large]

For each class of inputs it prints the mean process-time milliseconds per
pair (K, L) of the double description run (``dd._cone_rays`` on the Cayley
polytope's cone rows), of the whole ``fan._cayley_mixed_volumes`` call, and
of the fan, their difference.  It also prints the mean milliseconds per body
(each K and L of the class once) of its assembly from its hull's facets,
made beforehand: ``geometry._from_lattice``, whose work is mostly the fan of
every facet.  Each pair and body is timed ``--repeat`` times and the best
run kept.  The classes are:

- the benchmark's corpus recipes (``perfbench/workloads.py``, seed 0), the
  first ``--bodies`` bodies of dims 2, 3 and 4, each paired with its
  reflection (K, -K) and with the next body (K, next);
- ``random_hull`` bodies with denominator bound 2 at dims 5-8, seeds 1
  and 2, paired with their reflection: dim 5 and 6 at V = 8, dim 7 at
  V = 10 and dim 8 at V = 11, and with ``--large`` dim 8 at V = 14 (about
  a second per run);
- the 4- and 5-cubes and cross-polytopes, each with its reflection.

Standard library only; it reads ``perfbench/workloads.py`` and changes
nothing there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from godbersen import GenSpec, cross_polytope, generate, reflect, unit_cube  # noqa: E402
from godbersen.dd import _cone_rays, _hull_facets_int  # noqa: E402
from godbersen.fan import _cayley_mixed_volumes, _common_lattice  # noqa: E402
from godbersen.geometry import _from_lattice  # noqa: E402
from workloads import body_spec  # noqa: E402


def best_ms(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        call()
        best = min(best, time.process_time() - t0)
    return best * 1000


def cayley_rows(K, L):
    """The cone rows ``_cayley_mixed_volumes`` hands to ``_cone_rays``."""
    m, ps, qs = _common_lattice(K, L)
    return [p + (0, 1) for p in ps] + [q + (m, 1) for q in qs]


def time_pairs(pairs, repeat: int) -> tuple[float, float]:
    """Mean best-of-``repeat`` ms per pair of the DD alone and of the whole
    call."""
    dd = total = 0.0
    for K, L in pairs:
        rows = cayley_rows(K, L)
        dd += best_ms(lambda: _cone_rays(rows), repeat)
        total += best_ms(lambda: _cayley_mixed_volumes(K, L), repeat)
    return dd / len(pairs), total / len(pairs)


def time_bodies(pairs, repeat: int) -> float:
    """Mean best-of-``repeat`` ms per body of the pairs of its assembly from
    its hull's facets."""
    bodies = {id(body): body for pair in pairs for body in pair}.values()
    total = 0.0
    for body in bodies:
        pts = body._int_vertices
        facets = _hull_facets_int(pts, body.dim)
        total += best_ms(lambda: _from_lattice(pts, body._int_scale, facets), repeat)
    return total / len(bodies)


def classes(bodies: int, large: bool):
    """(name, pairs) for every input class."""
    for dim in (2, 3, 4):
        made = [generate(body_spec(dim, i, 0)) for i in range(bodies + 1)]
        yield f"corpus d{dim} (K,-K)", [(K, reflect(K)) for K in made[:-1]]
        yield f"corpus d{dim} (K,next)", list(zip(made, made[1:]))
    sizes = [(5, 8), (6, 8), (7, 10), (8, 11)] + [(8, 14)] * large
    for dim, count in sizes:
        made = [generate(GenSpec("random_hull", dim, count, seed=seed, denominator_bound=2))
                for seed in (1, 2)]
        yield f"d{dim} V={count} (K,-K)", [(K, reflect(K)) for K in made]
    for make, name in ((unit_cube, "cube"), (cross_polytope, "cross-polytope")):
        for dim in (4, 5):
            body = make(dim)
            yield f"{dim}-{name} (K,-K)", [(body, reflect(body))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bodies", type=int, default=50,
                        help="corpus bodies per dimension (default 50)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per pair, the best kept (default 3)")
    parser.add_argument("--large", action="store_true",
                        help="add dim 8 at V = 14")
    args = parser.parse_args(argv)
    if args.bodies < 1 or args.repeat < 1:
        parser.error("--bodies and --repeat must be at least 1")
    print(f"{'input':<24} {'pairs':>5} {'DD ms':>9} {'fan ms':>9} {'DD+fan ms':>10} "
          f"{'body ms':>9}")
    for name, pairs in classes(args.bodies, args.large):
        dd, total = time_pairs(pairs, args.repeat)
        body = time_bodies(pairs, args.repeat)
        print(f"{name:<24} {len(pairs):>5} {dd:>9.3f} {total - dd:>9.3f} {total:>10.3f} "
              f"{body:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
