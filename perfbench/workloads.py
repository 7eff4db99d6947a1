"""Seeded workloads of the godbersen benchmark.

Every workload is an endless, deterministic sequence of ops; one op is one
body's full check bundle.  Bodies come from the acceptance-corpus recipes of
``tests/conftest.py::corpus_specs`` (same vertex counts, denominator bounds
and seed bases).  Seed 0 reproduces the corpus bodies recipe by recipe; any
other seed shifts every body seed by ``seed * SEED_STRIDE`` and so draws fresh
bodies from the same recipes.

Within each dimension the kinds follow the corpus mix exactly on every
five bodies: four ``random_hull`` then one ``random_symmetric``.  The
dim-2/dim-3 workloads take two dim-2 bodies for every dim-3 body.  A dim-3
body costs about seven dim-2 bodies, so at 1:1 the median op would sit on the
gap between the two dimensions and jump from run to run; at 2:1 the median is
a dim-2 body and the tail is a dim-3 body.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# dim -> (hull vertex count, symmetric vertex count, denominator bound, seed base)
RECIPES = {
    2: (8, 4, 4, 20_000),
    3: (7, 4, 3, 30_000),
    4: (6, 4, 2, 40_000),
}
SYMMETRIC_SEED_OFFSET = 500
SEED_STRIDE = 1_000_000
KIND_CYCLE = ("random_hull",) * 4 + ("random_symmetric",)

# Dimension of each op, repeated.
DIM_PATTERNS = {
    "sweep-d23": (2, 2, 3),
    "sweep-d4": (4,),
    "audit": (2, 2, 3),
}
WORKLOADS = tuple(DIM_PATTERNS)

# Rounds in the traced pass of a --trace 1 run: a fixed count, so per-op
# counts are exact and repeat for a given seed.
TRACED_ROUNDS = {"sweep-d23": 2, "sweep-d4": 1, "audit": 2}

# Reference seconds (see calibrate.py) one round takes, as measured over
# seeds 1-5.  A --trace 0 run sizes its batch with these, so it measures at
# least --seconds of work and runs the same bodies for every version of the
# program.
ROUND_SECONDS = {"sweep-d23": 1.95, "sweep-d4": 5.95, "audit": 1.58}

CONCAVE_PER_OP = 4
CONCAVE_M = range(2, 9)
CONCAVE_SEED_MASK = 0xC0C0A5E


def body_spec(dim: int, index: int, seed: int):
    """The ``index``-th body of dimension ``dim`` in every workload's order."""
    # imported here: run.py puts the checkout's src on sys.path after import
    from godbersen.generators import GenSpec

    vc_hull, vc_sym, denom, base = RECIPES[dim]
    rnd, pos = divmod(index, len(KIND_CYCLE))
    kind = KIND_CYCLE[pos]
    if kind == "random_hull":
        body_seed = base + rnd * 4 + pos
        vertex_count = vc_hull
    else:
        body_seed = base + SYMMETRIC_SEED_OFFSET + rnd
        vertex_count = vc_sym
    return GenSpec(kind, dim, vertex_count, seed=body_seed + seed * SEED_STRIDE,
                   denominator_bound=denom)


def round_ops(workload: str) -> int:
    """Ops in one round: one pass of the dimension pattern through the kind
    cycle of every dimension, so each round has the exact dim and kind mix."""
    return len(DIM_PATTERNS[workload]) * len(KIND_CYCLE)


def run_ops(workload: str, seconds: float) -> int:
    """Ops in a run of at least ``seconds``: whole rounds, at least one."""
    rounds = math.ceil(seconds / ROUND_SECONDS[workload])
    return max(1, rounds) * round_ops(workload)


@dataclass(frozen=True)
class OpInput:
    """One op: the body under test and, for ``audit``, its partner body
    (the next body of the same dimension)."""

    index: int
    spec: object
    partner: object


def op_inputs(workload: str, seed: int):
    """Endless generator of the workload's ops for ``seed``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    pattern = DIM_PATTERNS[workload]
    seen = dict.fromkeys(pattern, 0)
    for k in itertools.count():
        dim = pattern[k % len(pattern)]
        i = seen[dim]
        seen[dim] += 1
        yield OpInput(k, body_spec(dim, i, seed), body_spec(dim, i + 1, seed))


class Ops:
    """Runs ops against the ``godbersen`` modules.

    Functions are looked up on their modules at call time, so the tracer's
    patched wrappers are seen.  ``run`` returns the op's output lines; the
    gate (``check``) and digest are computed from them outside the timed op.
    """

    def __init__(self, workload: str, scratch: Path):
        self.workload = workload
        self.csv_path = scratch / f"{workload}-op.csv"
        self.sweep = importlib.import_module("godbersen.sweep")
        self.generators = importlib.import_module("godbersen.generators")
        self.halfspaces = importlib.import_module("godbersen.halfspaces")
        self.concave = importlib.import_module("godbersen.concave")

    def run(self, op: OpInput) -> list[str]:
        if self.workload == "audit":
            return self._audit(op)
        self.sweep.sweep([op.spec], self.csv_path)
        return self.csv_path.read_text().splitlines()

    def _audit(self, op: OpInput) -> list[str]:
        gen, hs, cc = self.generators, self.halfspaces, self.concave
        body = gen.generate(op.spec)
        partner = gen.generate(op.partner)
        lines = [f"helly,{hs.helly_audit(hs.ak_system(body))}",
                 f"bm,{cc.bm_check(body, partner).ok}"]
        rng = random.Random(op.spec.seed ^ CONCAVE_SEED_MASK)
        for i in range(CONCAVE_PER_OP):
            f = cc.random_concave(rng)
            for m in CONCAVE_M:
                res = cc.godbersen_integral_check(f, m)
                lines.append(f"int,{i},{m},{res.value},{res.nonneg},"
                             f"{res.equality}")
        return lines

    def check(self, lines: list[str]) -> str:
        """Empty when the op's outputs pass the gate, else the reason."""
        if self.workload == "audit":
            return _check_audit(lines)
        return _check_sweep(lines)


def _check_sweep(lines: list[str]) -> str:
    rows = list(csv.DictReader(lines[1:]))
    if not rows:
        return "sweep wrote no rows"
    for row in rows:
        if row["error"]:
            return f"error row: {row['error']}"
        if row["inclusion_ok"] != "true" or row["moment_zero"] != "true":
            return f"row failed inclusion/moment: {row}"
    return ""


def _check_audit(lines: list[str]) -> str:
    fields = [line.split(",") for line in lines]
    if fields[0] != ["helly", "True"]:
        return "helly audit false"
    if fields[1] != ["bm", "True"]:
        return "Brunn-Minkowski check false"
    ints = fields[2:]
    if len(ints) != CONCAVE_PER_OP * len(CONCAVE_M):
        return "missing integral checks"
    for f in ints:
        if f[4] != "True" or Fraction(f[3]) < 0:
            return f"negative integral: {','.join(f)}"
    return ""


def digest(lines: list[str]) -> str:
    """Short digest of one op's sorted output rows."""
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]
