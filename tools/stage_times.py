"""Time each stage of the sweep's per-body checks, per input class:
python3 tools/stage_times.py [--tree PATH]

It drives ``sweep._stages`` with ``next()``, as ``check_body`` does, and
charges the process time between two yields to the stage the first one
named; the last stage runs until the generator returns.  Nothing is patched,
so the stage names and their order come from the tree under test.  For
each class of inputs it prints the mean milliseconds per body of every
stage, beside the class's mean vertex count V and facet count F, then the
sum of the stages and the mean ``check_body`` time of the same bodies.  Each
body runs ``REPEAT`` times through the stages and as many times through
``check_body``, alternately; the fastest run of each is kept, so the two
totals should agree within a few percent.  The classes are:

- the benchmark's corpus recipes (``perfbench/workloads.py``, seed 0), the
  first ``BODIES`` bodies of dims 2, 3 and 4;
- a mid class: ``random_hull`` bodies with denominator bound 2 at dim 3
  from 20 and 40 drawn points, dim 4 from 12 and 20 and dim 5 from 12,
  seeds 1-3 each;
- the dim-5 and dim-6 recipes: ``random_hull`` from 8 drawn points (all of
  them vertices), denominator bound 2, seeds 1-3.

``--tree PATH`` times the ``src`` and ``perfbench`` of another checkout
(default: the one holding this file), so two trees compare by two runs.
Standard library only; it reads ``perfbench/workloads.py`` and changes
nothing there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

BODIES = 50
REPEAT = 5
MID = [(3, 20), (3, 40), (4, 12), (4, 20), (5, 12)]
RECIPES = [(5, 8), (6, 8)]
SEEDS = (1, 2, 3)


def classes():
    """(name, specs) for every input class."""
    from godbersen import GenSpec
    from workloads import body_spec

    for dim in (2, 3, 4):
        yield f"corpus d{dim}", [body_spec(dim, i, 0) for i in range(BODIES)]
    for label, sizes in (("mid", MID), ("recipe", RECIPES)):
        for dim, count in sizes:
            yield f"{label} d{dim} N={count}", [
                GenSpec("random_hull", dim, count, seed=seed, denominator_bound=2)
                for seed in SEEDS]


def stage_ms(spec) -> tuple[dict[str, float], object]:
    """(ms of process time per stage, the body) of one run of the stages."""
    from godbersen.sweep import _stages

    clock = time.process_time
    times: dict[str, float] = {}
    stages = _stages("body", spec)
    name, body = next(stages)
    start = clock()
    try:
        while True:
            stage, body = next(stages)
            now = clock()
            times[name], name, start = (now - start) * 1000, stage, now
    except StopIteration:
        times[name] = (clock() - start) * 1000
    return times, body


def time_body(spec) -> tuple[dict[str, float], float, object]:
    """The fastest of ``REPEAT`` stage runs, the fastest of as many
    ``check_body`` runs in ms, and the body."""
    from godbersen.sweep import check_body

    best, whole = None, float("inf")
    for _ in range(REPEAT):
        times, body = stage_ms(spec)
        if best is None or sum(times.values()) < sum(best.values()):
            best = times
        start = time.process_time()
        check_body("body", spec)
        whole = min(whole, (time.process_time() - start) * 1000)
    return best, whole, body


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and perfbench to time")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.tree / "src"), str(args.tree / "perfbench")]

    header = None
    for name, specs in classes():
        totals: dict[str, float] = {}
        whole = vertices = facets = 0.0
        for spec in specs:
            times, body_ms, body = time_body(spec)
            for stage, ms in times.items():
                totals[stage] = totals.get(stage, 0.0) + ms
            whole += body_ms
            vertices += len(body.vertices)
            facets += len(body.facets)
        if header is None:
            header = list(totals)
            print(f"{'class':<16} {'bodies':>6} {'V':>5} {'F':>5} "
                  + " ".join(f"{s:>9}" for s in header)
                  + f" {'stages':>9} {'check_body':>10} {'ratio':>6}")
        k = len(specs)
        stages = sum(totals.values()) / k
        print(f"{name:<16} {k:>6} {vertices / k:>5.1f} {facets / k:>5.1f} "
              + " ".join(f"{totals[s] / k:>9.3f}" for s in header)
              + f" {stages:>9.3f} {whole / k:>10.3f} {stages / (whole / k):>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
