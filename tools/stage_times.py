"""Time each stage of the sweep's per-body checks, per input class:
python3 tools/stage_times.py [--tree PATH] [--against PATH | --json]

It drives ``sweep._stages`` with ``next()``, as ``check_body`` does, and
charges the process time between two yields to the stage the first one
named; the last stage runs until the generator returns.  Nothing is patched,
so the stage names and their order come from the tree under test.  For
each class of inputs it prints the mean milliseconds per body of every
stage, beside the class's mean vertex count V and facet count F, then the
sum of the stages and the mean ``check_body`` time of the same bodies.  Each
body runs ``REPEAT`` times through the stages and as many times through
``check_body``, alternately; the fastest run of each is kept, so the two
totals should agree within a few percent (``ratio``, stages / check_body).

Three kernel columns follow, each the fastest of ``REPEAT`` runs and outside
the stage sum: ``cayley_dd``, the double description (``dd._cone_rays``) of
the Cayley polytope of (K, -K), whose fan gives the report's mixed volumes;
``cayley_fan``, the whole ``fan._cayley_mixed_volumes(K, -K)`` call less that
DD; and ``assembly``, the body's ``geometry._from_lattice`` from its hull's
facets, found beforehand.  The classes are:

- the benchmark's corpus recipes (``perfbench/workloads.py``, seed 0), the
  first ``BODIES`` bodies of dims 2, 3 and 4;
- a mid class: ``random_hull`` bodies with denominator bound 2 at dim 3
  from 20 and 40 drawn points, dim 4 from 12 and 20 and dim 5 from 12,
  seeds 1-3 each;
- the dim-5 to dim-8 recipes: ``random_hull`` with denominator bound 2 from
  8 drawn points at dims 5 and 6, 10 at dim 7 and 11 at dim 8 (all of them
  vertices), seeds 1-3;
- the 4- and 5-cube and cross-polytope.

``--tree PATH`` times the ``src`` and ``perfbench`` of another checkout
(default: the one holding this file); the run stops if ``godbersen`` would
be imported from anywhere else.  ``--json`` prints the table as one JSON
list of rows instead.  ``--against PATH`` compares the two trees: it runs
this tool with ``--json`` in ``PAIRS`` alternating pairs of processes, one
per tree (the first pair starts with the ``--against`` tree, the next with
``--tree``), and prints, per class and column, each tree's median with its
quartiles (``statistics.quantiles``, inclusive method), the change of the
median and the pairs in which the ``--tree`` run was faster.  Standard
library only; it reads ``perfbench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BODIES = 50
REPEAT = 5
PAIRS = 5
MID = [(3, 20), (3, 40), (4, 12), (4, 20), (5, 12)]
RECIPES = [(5, 8), (6, 8), (7, 10), (8, 11)]
SEEDS = (1, 2, 3)
KERNELS = ("cayley_dd", "cayley_fan", "assembly")


def import_tree(tree: Path) -> None:
    """Put ``tree``'s src and perfbench first on ``sys.path``; stop the run
    unless ``godbersen`` then comes from ``tree``'s src."""
    tree = tree.resolve()
    src = tree / "src"
    sys.path[:0] = [str(src), str(tree / "perfbench")]
    origin = getattr(importlib.util.find_spec("godbersen"), "origin", None)
    if origin is None or Path(origin).resolve().parent != (src / "godbersen").resolve():
        sys.exit(f"no godbersen under {src} to time (the import would find {origin})")


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
    for kind in ("cube", "cross_polytope"):
        for dim in (4, 5):
            yield f"{kind} d{dim}", [GenSpec(kind, dim)]


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


def best_ms(call) -> float:
    """The fastest of ``REPEAT`` runs of ``call()``, in ms of process time."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best * 1000


def cayley_rows(K, L):
    """The cone rows of the Cayley polytope of (K, L), lifted as
    ``fan._cayley_mixed_volumes`` lifts them for ``dd._cone_rays``."""
    from godbersen.fan import _common_lattice

    m, ps, qs = _common_lattice(K, L)
    return [p + (0, 1) for p in ps] + [q + (m, 1) for q in qs]


def kernel_ms(body) -> dict[str, float]:
    """The kernel columns of ``body``, in ms."""
    from godbersen import reflect
    from godbersen.dd import _cone_rays, _hull_facets_int
    from godbersen.fan import _cayley_mixed_volumes
    from godbersen.geometry import _from_lattice

    minus = reflect(body)
    rows = cayley_rows(body, minus)
    dd = best_ms(lambda: _cone_rays(rows))
    points = body._int_vertices
    facets = _hull_facets_int(points, body.dim)
    return {"cayley_dd": dd,
            "cayley_fan": best_ms(lambda: _cayley_mixed_volumes(body, minus)) - dd,
            "assembly": best_ms(lambda: _from_lattice(points, body._int_scale, facets))}


def time_body(spec) -> dict[str, float]:
    """V, F, the fastest of ``REPEAT`` stage runs, its sum, the fastest of as
    many ``check_body`` runs and the kernel columns of one body, in ms."""
    from godbersen.sweep import check_body

    best, whole = None, float("inf")
    for _ in range(REPEAT):
        times, body = stage_ms(spec)
        if best is None or sum(times.values()) < sum(best.values()):
            best = times
        start = time.process_time()
        check_body("body", spec)
        whole = min(whole, (time.process_time() - start) * 1000)
    return {"V": len(body.vertices), "F": len(body.facets), **best,
            "stages": sum(best.values()), "check_body": whole, **kernel_ms(body)}


def measure() -> list[dict]:
    """One row per class: its name, body count and the mean of every column
    of ``time_body`` over its bodies."""
    rows = []
    for name, specs in classes():
        bodies = [time_body(spec) for spec in specs]
        rows.append({"class": name, "bodies": len(bodies),
                     **{c: statistics.fmean(b[c] for b in bodies) for c in bodies[0]}})
    return rows


def print_table(rows: list[dict]) -> None:
    columns = list(rows[0])[4:]
    print(f"{'class':<18} {'bodies':>6} {'V':>5} {'F':>5} "
          + " ".join(f"{c:>10}" for c in columns) + f" {'ratio':>6}")
    for row in rows:
        print(f"{row['class']:<18} {row['bodies']:>6} {row['V']:>5.1f} {row['F']:>5.1f} "
              + " ".join(f"{row[c]:>10.3f}" for c in columns)
              + f" {row['stages'] / row['check_body']:>6.3f}")


def compare(base: Path, tree: Path) -> None:
    """Run both trees in ``PAIRS`` alternating pairs of processes and print
    medians, quartiles and wins per class and column."""
    runs: dict[Path, list[list[dict]]] = {base: [], tree: []}
    for pair in range(PAIRS):
        for side in (base, tree) if pair % 2 == 0 else (tree, base):
            run = subprocess.run([sys.executable, __file__, "--tree", str(side), "--json"],
                                 capture_output=True, text=True)
            if run.returncode:
                sys.stderr.write(run.stderr)
                sys.exit(f"the run on {side} exited with status {run.returncode}")
            runs[side].append(json.loads(run.stdout))
    print(f"{PAIRS} alternating pairs; base {base}, tree {tree}; ms per body, "
          "median [q1, q3]; wins = pairs where tree was faster")
    print(f"{'class':<18} {'column':<10} {'base':>26} {'tree':>26} {'change':>7} {'wins':>5}")
    for i, row in enumerate(runs[base][0]):
        for column in list(row)[4:]:
            a = [run[i][column] for run in runs[base]]
            b = [run[i][column] for run in runs[tree]]
            cells = []
            for values in (a, b):
                q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
                cells.append(f"{q2:.3f} [{q1:.3f}, {q3:.3f}]")
            wins = sum(y < x for x, y in zip(a, b))
            change = statistics.median(b) / statistics.median(a) - 1
            print(f"{row['class']:<18} {column:<10} {cells[0]:>26} {cells[1]:>26} "
                  f"{change:>+7.1%} {wins:>2}/{PAIRS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and perfbench to time")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", type=Path,
                      help="checkout to compare --tree with, in alternating processes")
    mode.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = parser.parse_args(argv)
    if args.against is not None:
        compare(args.against.resolve(), args.tree.resolve())
        return 0
    import_tree(args.tree)
    if args.json:
        print(json.dumps(measure()))
    else:
        print_table(measure())
    return 0


if __name__ == "__main__":
    sys.exit(main())
