"""Command-line front end.

Subcommands:
  gen     write a generated polytope to a JSON file
  verify  Godbersen report for one body (JSON on stdout)
  ak      anchor point of one body, with uniqueness
  helly   whether every subsystem of at most dim+1 rows of a halfspace-system
          file is feasible, which by Helly's theorem is the full system's
          feasibility: one verdict, printed under both of its keys
  moment  directional moment of one body
  sweep   run the corpus checks described in a spec file, write CSV

Integer flags (--dim, --vertices, --seed, --denominator-bound, --j, --jobs)
are read as a file's integer fields are: ASCII digits with an optional sign.

Exit codes: 0 on success (including reported-but-unproven observations),
1 on usage/input errors, 2 when an exactly-proven statement fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import polyio
from .errors import GodbersenError, TheoremViolation
from .generators import KINDS, GenSpec, generate
from .halfspaces import ak_feasibility, helly_audit
from .inclusion import directional_moment
from .mixedvol import godbersen_report
from .polyio import (
    load_json,
    polytope_from_dict,
    polytope_to_dict,
    report_to_dict,
    save_json,
    specs_from_dict,
    system_from_dict,
)
from .rationals import format_rational, parse_rational
from .sweep import sweep


def integer(text: str) -> int:
    """An integer flag, read by the rule of a file's integer fields
    (``polyio``): ASCII digits with an optional sign.  Python's ``int``
    reads "1_0" and "٢"; here they are usage errors, which argparse words
    as "invalid integer value", after this function's name."""
    return polyio._integer(text, "an integer flag")


def _load_body(path):
    return polytope_from_dict(load_json(path))


def _cmd_gen(args) -> int:
    spec = GenSpec(kind=args.kind, dim=args.dim, vertex_count=args.vertices,
                   seed=args.seed, denominator_bound=args.denominator_bound)
    body = generate(spec)
    save_json(args.out, polytope_to_dict(body))
    print(f"wrote {args.out}: {len(body.vertices)} vertices, "
          f"{len(body.facets)} facets, volume {format_rational(body.volume)}")
    return 0


def _cmd_verify(args) -> int:
    body = _load_body(args.input)
    report = godbersen_report(body)
    data = report_to_dict(report)
    if args.j is not None:
        data["entries"] = [e for e in data["entries"] if e["j"] == args.j]
        if not data["entries"]:
            print(f"no entry for j={args.j} (valid range 1..{report.n - 1})",
                  file=sys.stderr)
            return 1
    print(json.dumps(data, indent=2))
    return 0


def _cmd_ak(args) -> int:
    body = _load_body(args.input)
    res = ak_feasibility(body)
    print(json.dumps({
        "feasible": res.feasible,
        "witness": [format_rational(c) for c in res.witness],
        "unique": res.unique,
    }, indent=2))
    return 0


def _cmd_helly(args) -> int:
    system = system_from_dict(load_json(args.input))
    # the audit is the full system's feasibility (Helly's theorem): True at
    # the full system's checked vertex, False only at a certified infeasible
    # subsystem of at most dim+1 rows
    ok = helly_audit(system)
    print(json.dumps({"all_subsystems_feasible": ok, "full_system_feasible": ok},
                     indent=2))
    return 0


def _cmd_moment(args) -> int:
    body = _load_body(args.input)
    w = tuple(parse_rational(c) for c in args.w.split(","))
    value = directional_moment(body, w, center=not args.no_center)
    print(json.dumps({
        "w": [format_rational(c) for c in w],
        "centered": not args.no_center,
        "moment": format_rational(value),
    }, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    specs = specs_from_dict(load_json(args.spec), args.seed)
    summary = sweep(specs, args.out, jobs=args.jobs, floats=args.floats)
    for line in summary.observations:
        print(line)
    print(f"bodies={summary.bodies} rows={summary.rows} "
          f"errors={summary.errors} observations={len(summary.observations)} "
          f"violations={summary.violations}")
    for message in summary.violation_messages:
        print(f"THEOREM VIOLATION: {message}", file=sys.stderr)
    return 2 if summary.violations else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as input errors do: exit
    2 is kept for a failed proven statement.  Its subcommands' parsers are of
    the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="godbersen",
        description="Exact rational checks of mixed-volume inequalities on polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a polytope and write it as JSON")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--dim", type=integer, required=True)
    p.add_argument("--vertices", type=integer, default=None)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--denominator-bound", type=integer, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="Godbersen report for one polytope file")
    p.add_argument("--input", required=True)
    p.add_argument("--j", type=integer, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ak", help="anchor point of one polytope file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_ak)

    p = sub.add_parser("helly", help="subset audit of a halfspace-system file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_helly)

    p = sub.add_parser("moment", help="directional section moment of one body")
    p.add_argument("--input", required=True)
    p.add_argument("--w", required=True, help="direction, e.g. \"1,0,2/3\" or -1,0")
    p.add_argument("--no-center", action="store_true",
                   help="skip the centroid centering (raw moment)")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("sweep", help="run all checks over a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=integer, default=1)
    p.add_argument("--seed", type=integer, default=0,
                   help="base seed for spec rows that do not fix one")
    p.add_argument("--floats", action="store_true",
                   help="append decimal-approximation columns")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value that starts with "-", such as the direction
    # -1,0, as an option, so join the direction to its --w
    if "--w" in argv[:-1]:
        i = argv.index("--w")
        argv[i:i + 2] = ["--w=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as err:
        print(f"THEOREM VIOLATION: {err}", file=sys.stderr)
        return 2
    except (GodbersenError, ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
