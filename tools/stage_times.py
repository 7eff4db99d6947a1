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
totals should agree within a few percent.  The classes are:

- the benchmark's corpus recipes (``perfbench/workloads.py``, seed 0), the
  first ``BODIES`` bodies of dims 2, 3 and 4;
- a mid class: ``random_hull`` bodies with denominator bound 2 at dim 3
  from 20 and 40 drawn points, dim 4 from 12 and 20 and dim 5 from 12,
  seeds 1-3 each;
- the dim-5 and dim-6 recipes: ``random_hull`` from 8 drawn points (all of
  them vertices), denominator bound 2, seeds 1-3.

``--tree PATH`` times the ``src`` and ``perfbench`` of another checkout
(default: the one holding this file).  ``--json`` prints the table as one
JSON list of rows instead.  ``--against PATH`` compares the two trees: it
runs this tool with ``--json`` in ``PAIRS`` alternating pairs of processes,
one per tree (the first pair starts with the ``--against`` tree, the next
with ``--tree``), and prints, per class and column, each tree's median with
its quartiles (``statistics.quantiles``, inclusive method), the change of
the median and the pairs in which the ``--tree`` run was faster.
Standard library only; it reads ``perfbench/workloads.py`` and changes
nothing there.
"""

from __future__ import annotations

import argparse
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


def measure(tree: Path) -> list[dict]:
    """One row per class: its name, body count, mean V and F, the mean ms
    per body of each stage, their sum and the mean ``check_body`` ms."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    rows = []
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
        k = len(specs)
        rows.append({"class": name, "bodies": k, "V": vertices / k, "F": facets / k,
                     **{stage: ms / k for stage, ms in totals.items()},
                     "stages": sum(totals.values()) / k, "check_body": whole / k})
    return rows


def print_table(rows: list[dict]) -> None:
    stages = [c for c in rows[0] if c not in ("class", "bodies", "V", "F", "stages",
                                              "check_body")]
    print(f"{'class':<16} {'bodies':>6} {'V':>5} {'F':>5} "
          + " ".join(f"{s:>9}" for s in stages)
          + f" {'stages':>9} {'check_body':>10} {'ratio':>6}")
    for row in rows:
        print(f"{row['class']:<16} {row['bodies']:>6} {row['V']:>5.1f} {row['F']:>5.1f} "
              + " ".join(f"{row[s]:>9.3f}" for s in stages)
              + f" {row['stages']:>9.3f} {row['check_body']:>10.3f}"
              + f" {row['stages'] / row['check_body']:>6.3f}")


def compare(base: Path, tree: Path) -> None:
    """Run both trees in ``PAIRS`` alternating pairs of processes and print
    medians, quartiles and wins per class and column."""
    runs: dict[Path, list[list[dict]]] = {base: [], tree: []}
    for pair in range(PAIRS):
        for side in (base, tree) if pair % 2 == 0 else (tree, base):
            out = subprocess.run([sys.executable, __file__, "--tree", str(side), "--json"],
                                 check=True, capture_output=True, text=True).stdout
            runs[side].append(json.loads(out))
    print(f"{PAIRS} alternating pairs; base {base}, tree {tree}; ms per body, "
          "median [q1, q3]; wins = pairs where tree was faster")
    print(f"{'class':<16} {'column':<10} {'base':>26} {'tree':>26} {'change':>7} {'wins':>5}")
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
            print(f"{row['class']:<16} {column:<10} {cells[0]:>26} {cells[1]:>26} "
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
    elif args.json:
        print(json.dumps(measure(args.tree)))
    else:
        print_table(measure(args.tree))
    return 0


if __name__ == "__main__":
    sys.exit(main())
