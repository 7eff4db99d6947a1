"""Corpus sweeps: run every check over generated bodies and emit a CSV.

One row per (body, j).  Each body runs the stages of ``_stages`` in order:
generate, report, tightness, moments, brunn (slice-root concavity along
seeded directions) and rows.  Proven statements are asserted; a body that
raises TheoremViolation is counted and left out, with a message
``<body_id> <spec>: <stage>: <message>`` naming the stage, and the sweep
goes on.  Ratios for middle j (the open cases) are reported, and an
exceedance there is recorded as an observation without failing the run.
Output is fully deterministic: identical specs produce byte-identical CSV,
whatever the worker count, because rows are sorted before writing.
"""

from __future__ import annotations

import csv
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import CombinatorialBlowup, GodbersenError, TheoremViolation
from .generators import GenSpec, generate
from .halfspaces import anchor_unique
from .inclusion import _centered_tightness, center_at_centroid, directional_moment
from .concave import slice_root_concavity
from .mixedvol import godbersen_report
from .polyio import polytope_to_dict, save_json
from .rationals import Rat, format_rational

CSV_VERSION = "godbersen-sweep-v1"
COLUMNS = ("body_id", "n", "vertex_count", "j", "ratio", "tight_count",
           "ak_unique", "moment_zero", "inclusion_ok", "error")
ROOT_CONCAVITY_DIRECTIONS = 5


@dataclass(frozen=True)
class SweepRow:
    body_id: str
    n: int
    vertex_count: int
    j: int
    ratio: Rat | None
    tight_count: int
    ak_unique: bool
    moment_zero: bool
    inclusion_ok: bool
    error: str = ""


@dataclass(frozen=True)
class SweepSummary:
    bodies: int
    rows: int
    errors: int
    observations: tuple[str, ...]
    violation_messages: tuple[str, ...] = ()

    @property
    def violations(self) -> int:
        return len(self.violation_messages)


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _random_direction(rng: random.Random, dim: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-5, 5) for _ in range(dim))
        if any(c != 0 for c in v):
            return v


def check_body(body_id: str, spec: GenSpec) -> tuple[list[SweepRow], list[str]]:
    """All per-body checks, the stages of ``_stages`` in order; returns
    (rows, observations).

    One handler covers every stage and knows which one ran.  A violated
    theorem propagates as ``<body_id> <spec>: <stage>: <message>``, with its
    ``stage`` and ``body`` (None in the generate stage) set, so that its
    reproducer needs no second build.  Any
    other error of this package in the generate stage, and a later kernel
    run that the size cap refuses (the Cayley polytope's), become a single
    error row, with vertex count 0 and with the body's vertex count.
    """
    stages = _stages(body_id, spec)
    # the first next() stops at the first yield, so every handler sees
    # stage and body bound
    try:
        while True:
            stage, body = next(stages)
    except StopIteration as done:
        return done.value
    except TheoremViolation as err:
        violation = TheoremViolation(f"{body_id} {spec}: {stage}: {err}")
        violation.stage, violation.body = stage, body
        raise violation from err
    except GodbersenError as err:
        if body is not None and not isinstance(err, CombinatorialBlowup):
            raise
        count = 0 if body is None else len(body._int_vertices)
        return [SweepRow(body_id, spec.dim, count, 0, None, 0, False, False, False,
                         f"{type(err).__name__}: {err}")], []


def _stages(body_id: str, spec: GenSpec):
    """Yield each stage's name, with the body once generated, before running
    it; return (rows, observations) after the last."""
    yield "generate", None
    body = generate(spec)
    yield "report", body
    report = godbersen_report(body)
    # One pass over the centered body's facets gives the tight count, and the
    # count the anchor's uniqueness: n + 1 tight rows exactly on a simplex.
    # It raises on any failed row, and on a row whose tightness disagrees
    # with its facet's vertex count, so returning at all proves -K0 in nK0.
    yield "tightness", body
    k0 = center_at_centroid(body)
    tight = _centered_tightness(k0)
    ak_unique = anchor_unique(tight)
    # The centered body's moment vanishes by the centroid's definition.
    # Translation keeps the facet normals, so the centered body's facets give
    # the same directions.
    yield "moments", body
    if any(directional_moment(k0, f.normal, center=False) for f in k0.facets):
        raise TheoremViolation("the centered body has a nonzero moment")
    yield "brunn", body
    rng = random.Random(spec.seed ^ 0x5EED5EED)
    for _ in range(ROOT_CONCAVITY_DIRECTIONS):
        direction = _random_direction(rng, body.dim)
        if not slice_root_concavity(body, direction):
            raise TheoremViolation(f"section root not concave along {direction}")
    yield "rows", body
    observations = [
        f"OBSERVATION {body_id}: ratio {e.ratio} > 1 at middle j={e.j} "
        "(open case, not asserted)"
        for e in report.entries if e.ratio > 1 and e.j not in (1, report.n - 1)]
    return [SweepRow(body_id, body.dim, len(body._int_vertices), e.j, e.ratio,
                     tight.tight_count, ak_unique, moment_zero=True, inclusion_ok=True)
            for e in report.entries], observations


def _worker(item: tuple[str, GenSpec]):
    """check_body's rows and observations, and a violation's reproducer or
    None: id, spec, stage and message, and the body's vertices once built."""
    try:
        return (*check_body(*item), None)
    except TheoremViolation as err:
        body_id, spec = item
        repro = {"body_id": body_id, "spec": asdict(spec), "stage": err.stage,
                 "message": str(err)}
        if err.body is not None:
            repro.update(polytope_to_dict(err.body))
        return [], [], repro


def sweep(specs: list[GenSpec], out, jobs: int = 1,
          floats: bool = False) -> SweepSummary:
    """Run the full check battery over ``specs`` and write the CSV to ``out``.

    Bodies are processed independently (optionally in parallel); rows are
    sorted by (body_id, j) before writing so output never depends on worker
    scheduling.  A violating body leaves ``<out>.violation-<body_id>.json``
    (id, spec, stage, message and the vertices of the body the stages built,
    so it loads as a polytope file; a body that failed to build has no
    vertices there).  ``jobs`` below 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    items = [(f"{i:04d}-{s.kind}-n{s.dim}", s) for i, s in enumerate(specs)]
    if jobs > 1 and len(items) > 1:
        # imported here: the pool pulls in multiprocessing, pickle, socket and
        # logging, which a serial sweep and every other command never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            results = list(pool.map(_worker, items))
    else:
        results = [_worker(item) for item in items]

    path = Path(out)
    rows: list[SweepRow] = []
    observations: list[str] = []
    violations: list[str] = []
    for body_rows, body_obs, repro in results:
        rows.extend(body_rows)
        observations.extend(body_obs)
        if repro is not None:
            violations.append(repro["message"])
            save_json(f"{path}.violation-{repro['body_id']}.json", repro)
    rows.sort(key=lambda r: (r.body_id, r.j))

    columns = list(COLUMNS) + (["ratio_float"] if floats else [])
    with path.open("w", newline="") as fh:
        fh.write(f"# {CSV_VERSION} columns={','.join(columns)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            record = [
                r.body_id, r.n, r.vertex_count, r.j,
                format_rational(r.ratio) if r.ratio is not None else "",
                r.tight_count, _bool(r.ak_unique), _bool(r.moment_zero),
                _bool(r.inclusion_ok), r.error,
            ]
            if floats:
                record.append("" if r.ratio is None else f"{float(r.ratio):.17g}")
            writer.writerow(record)

    errors = sum(1 for r in rows if r.error)
    return SweepSummary(len(items), len(rows), errors, tuple(observations),
                        tuple(violations))
