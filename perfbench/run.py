"""The godbersen benchmark.

    python3 perfbench/run.py --workload sweep-d23 --seed 0 --seconds 24 --trace 0

Each run is one workload in one process, closed loop: one body's check
bundle (an op) at a time, the next starting only when the previous one has
finished.  Times are CPU seconds of the benchmark process plus any children
it has reaped (``cpu_seconds``): the program is single-threaded and
CPU-bound, so that is its wall time on an idle machine, without the time a
shared host steals from a virtual machine.  Wall-clock figures are printed
beside them.

``--trace 0`` measures the end-to-end metrics with no tracing installed, on
a fixed batch of whole rounds sized from ``--seconds`` by
``workloads.ROUND_SECONDS``, so every version of the program is timed on the
same bodies.  Its times are in reference seconds (``calibrate``): each op's
CPU time is scaled by a calibration loop timed just before and just after
it, which takes out the host's changing speed.  The raw CPU times are
printed and recorded beside them.

``--trace 1`` runs a fixed batch of ops untraced, traced and untraced again,
and reports per-layer metrics and the tracing overhead.  ``--workload all``
runs every workload, each in its own process.

Every op's outputs pass a gate (``workloads.Ops.check``); with seed 0 each
op's output digest must also match ``digests.json``.  The last line printed
is the JSON result; a fuller record with provenance is written to
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics of the traced run, by kind.
INCLUSIVE_MS = ("halfspaces.fm_feasible", "geometry.minkowski_sum",
                "geometry.transform", "geometry.build_hull",
                "linalg.solve_linear", "mixedvol.mv_first",
                "sections.section_profile", "concave.godbersen_integral_check")
SELF_MS = ("halfspaces.ak_feasibility", "halfspaces.helly_audit",
           "mixedvol.mv_profile", "mixedvol.godbersen_report",
           "concave.slice_root_concavity", "concave.bm_check",
           "generators.generate", "sweep.check_body", "sweep.sweep")
CALLS = ("halfspaces.fm_feasible", "geometry.minkowski_sum",
         "geometry.transform", "linalg.solve_linear",
         "sections.section_profile")
# (metric, traced function, result counter): mean of the counter per call.
PER_CALL_SIZES = (
    ("halfspaces.ak_system.rows", "halfspaces.ak_system", "rows"),
    ("geometry.minkowski_sum.out_facets", "geometry.minkowski_sum",
     "out_facets"),
    ("sections.section_profile.pieces", "sections.section_profile", "pieces"),
)


def import_program():
    """Import ``godbersen`` from the checkout's ``src``, never elsewhere."""
    if not (SRC / "godbersen" / "__init__.py").is_file():
        sys.exit(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("godbersen")
    if Path(pkg.__file__).resolve().parent != SRC / "godbersen":
        sys.exit(f"imported godbersen from {pkg.__file__}, not from {SRC}")


def prepare(workload: str, seed: int):
    """Everything a run does before its first op."""
    import_program()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return workloads.Ops(workload, SCRATCH), workloads.op_inputs(workload, seed)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup_seconds(workload: str, seed: int) -> tuple[list, list]:
    """CPU time of a fresh interpreter process that does everything a run
    does before its first op, and then exits: (raw, reference seconds)."""
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    before = calibrate.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = cpu_seconds()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            sys.exit(f"setup probe failed with code {proc.returncode}")
        raw.append(cpu_seconds() - t0)
        after = calibrate.sample()
        scaled.append(calibrate.scale(raw[-1], before, after))
        before = after
    return raw, scaled


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, level in %) at the highest percentile that still has at least
    ten samples beyond it; the maximum (level 100) when there are not eleven
    samples."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND
    return s[k - 1], 100.0 * k / len(s)


class Gate:
    """Checks each op's outputs and, for seed 0, its recorded digest."""

    def __init__(self, ops, workload: str, seed: int):
        self.ops = ops
        self.expected = []
        if seed == 0:
            self.expected = json.loads(DIGESTS.read_text())[workload]
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []
        self.failed_ops: set[int] = set()

    def fail(self, index: int, error: str) -> None:
        self.errors.append(f"op {index}: {error}")
        self.failed_ops.add(index)

    def check(self, index: int, lines: list[str] | None, error: str) -> bool:
        if not error:
            error = self.ops.check(lines)
        if not error:
            got = workloads.digest(lines)
            self.digests[index] = got
            if index < len(self.expected) and got != self.expected[index]:
                error = f"digest {got} != recorded {self.expected[index]}"
        if error:
            self.fail(index, error)
        return not error


def run_op(ops, op, call=None):
    """Run one op; returns (output lines or None, error text)."""
    try:
        lines = call(op.index, ops.run, op) if call else ops.run(op)
    except Exception as err:  # one failed op must not end the run
        return None, f"{type(err).__name__}: {err}"
    return lines, ""


def counted_loop(ops, inputs, gate: Gate, count: int):
    """The first ``count`` ops, closed loop, with a calibration sample
    before each op and after the last.  Returns (op CPU seconds, op
    reference seconds, ops)."""
    raw, scaled, done = [], [], []
    before = calibrate.sample()
    for op in itertools.islice(inputs, count):
        t0 = cpu_seconds()
        lines, error = run_op(ops, op)
        raw.append(cpu_seconds() - t0)
        after = calibrate.sample()
        scaled.append(calibrate.scale(raw[-1], before, after))
        before = after
        done.append(op)
        gate.check(op.index, lines, error)
    return raw, scaled, done


def fixed_pass(ops, batch, gate: Gate, call=None) -> tuple[float, float]:
    """Run ``batch`` once; returns (CPU seconds, wall seconds)."""
    start, cpu_start = time.perf_counter(), cpu_seconds()
    for op in batch:
        lines, error = run_op(ops, op, call)
        gate.check(op.index, lines, error)
    return cpu_seconds() - cpu_start, time.perf_counter() - start


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, ops_done: int, **extra) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "ops": ops_done, "loop": "closed, 1 process, 1 op in flight",
            **extra}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_run(args, ops, inputs) -> dict:
    setup_raw, setups = setup_seconds(args.workload, args.seed)
    gate = Gate(ops, args.workload, args.seed)
    count = workloads.run_ops(args.workload, args.seconds)
    start, cpu_start = time.perf_counter(), cpu_seconds()
    raw, times, done = counted_loop(ops, inputs, gate, count)
    cpu, wall = cpu_seconds() - cpu_start, time.perf_counter() - start
    tail, level = tail_percentile(times)
    failed = len(gate.failed_ops)
    per_dim = defaultdict(list)
    for op, t in zip(done, times):
        per_dim[op.spec.dim].append(t * 1e3)
    return {
        "correct": failed == 0,
        "attempted": count,
        "failed": failed,
        "metrics": {
            "bodies_per_s": metric(count / sum(times), "1/s"),
            "body_ms_p50": metric(statistics.median(times) * 1e3, "ms"),
            "body_ms_tail": metric(tail * 1e3, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
        "failed_frac": failed / count,
        "raw": {"bodies_per_s": count / sum(raw),
                "body_ms_p50": statistics.median(raw) * 1e3,
                "setup_s": statistics.median(setup_raw)},
        "host_slowdown_p50": statistics.median(r / t for r, t in zip(raw, times)),
        "cpu_s": cpu,
        "wall_s": wall,
        "wall_bodies_per_s": count / wall,
        "tail_percentile": level,
        "setup_samples_s": setups,
        "per_dim": {d: {"ops": len(v), "op_ms_p50": statistics.median(v)}
                    for d, v in sorted(per_dim.items())},
        "run_digest": workloads.digest(list(gate.digests.values())),
        "errors": gate.errors[:20],
        "provenance": provenance(args, count, tail_percentile=level,
                                 seconds=args.seconds),
    }


def per_layer(spans, own, count: int) -> dict:
    """Per-layer metrics over ``count`` traced ops."""
    total, selfns, calls, sums = Counter(), Counter(), Counter(), Counter()
    bits = 0
    for s, o in zip(spans, own):
        total[s.name] += s.duration
        selfns[s.name] += o
        calls[s.name] += 1
        for key, v in (s.counts or {}).items():
            sums[f"{s.name}.{key}"] += v
        if s.name == "mixedvol.godbersen_report":
            bits = max(bits, s.counts["bits"])
    module_self = Counter()
    for name, ns in selfns.items():
        module_self[name.split(".")[0]] += ns
    subsets = sum(1 for s in spans if s.name == "halfspaces.fm_feasible"
                  and s.parent >= 0
                  and spans[s.parent].name == "halfspaces.helly_audit")
    subsets -= calls["halfspaces.helly_audit"]  # each also checks the full system

    def ms(ns):
        return ns / 1e6 / count

    m = {}
    for fn in INCLUSIVE_MS:
        m[f"{fn}.ms"] = metric(ms(total[fn]), "ms/op")
    for fn in SELF_MS:
        m[f"{fn}.self_ms"] = metric(ms(selfns[fn]), "ms/op")
    for fn in CALLS:
        m[f"{fn}.calls"] = metric(calls[fn] / count, "calls/op")
    for name, fn, key in PER_CALL_SIZES:
        m[name] = metric(sums[f"{fn}.{key}"] / calls[fn] if calls[fn] else 0.0,
                         "count")
    m["halfspaces.helly_audit.subsets"] = metric(subsets / count, "count/op")
    m["mixedvol.report_bits"] = metric(bits, "bits")
    for layer in spantrace.LAYERS:
        m[f"{layer}.self_ms"] = metric(ms(module_self[layer]), "ms/op")
    m["halfspaces.self_pct"] = metric(
        100.0 * module_self["halfspaces"] / sum(own), "%")
    return m


def op_bodies(spans) -> dict[int, tuple[int, int]]:
    """(V, F) of each op's body: the first body the op generated."""
    bodies = {}
    for s in spans:
        if s.name == "generators.generate" and s.op not in bodies:
            bodies[s.op] = (s.counts["V"], s.counts["F"])
    return bodies


def per_layer_run(args, ops, inputs) -> dict:
    count = (workloads.TRACED_ROUNDS[args.workload]
             * workloads.round_ops(args.workload))
    batch = [next(inputs) for _ in range(count)]
    gate = Gate(ops, args.workload, args.seed)
    before = fixed_pass(ops, batch, gate)
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        traced_pass = fixed_pass(ops, batch, gate, tracer.root)
    finally:
        tracer.uninstall()
    # untraced passes on both sides cancel a machine speed drift that is
    # linear over the three passes
    after = fixed_pass(ops, batch, gate)
    plain_pass = tuple((x + y) / 2 for x, y in zip(before, after))
    spans = tracer.spans
    own = spantrace.self_times(spans)
    sums = spantrace.subtree_sums(spans, own)
    for i, s in enumerate(spans):
        if s.name in (spantrace.ROOT, "sweep.check_body") and sums[i] != s.duration:
            gate.fail(s.op, f"self times of {s.name} sum to {sums[i]} ns, "
                            f"span is {s.duration} ns")
    m = per_layer(spans, own, count)
    bodies = op_bodies(spans)
    m["body.V"] = metric(statistics.mean(v for v, _ in bodies.values()), "count")
    m["body.F"] = metric(statistics.mean(f for _, f in bodies.values()), "count")
    overhead = traced_pass[0] - plain_pass[0]
    m["trace.overhead_ms"] = metric(overhead * 1e3 / count, "ms/op")
    m["trace.overhead_pct"] = metric(100.0 * overhead / plain_pass[0], "%")

    per_dim = defaultdict(lambda: defaultdict(float))
    for op in batch:
        d = per_dim[op.spec.dim]
        v, f = bodies.get(op.index, (0, 0))
        d["ops"] += 1
        d["V"] += v
        d["F"] += f
    for s, o in zip(spans, own):
        dim = batch[s.op].spec.dim
        per_dim[dim][s.name.split(".")[0] + ".self_ms"] += o / 1e6
    for d in per_dim.values():
        n = d["ops"]
        for key in d:
            if key != "ops":
                d[key] /= n
    return {
        "correct": not gate.errors,
        "attempted": count,
        "failed": len(gate.failed_ops),
        "metrics": m,
        "untraced_cpu_wall_s": plain_pass,
        "traced_cpu_wall_s": traced_pass,
        "spans": len(spans),
        "per_dim": {dim: dict(v) for dim, v in sorted(per_dim.items())},
        "errors": gate.errors[:20],
        "provenance": provenance(args, count),
    }


def print_report(args, result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {prov['ops']}  ({prov['loop']})")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:14.4f} {m['unit']}")
    if args.trace == 0:
        print(f"  {'failed_frac':42s} {result['failed_frac']:14.4f} "
              f"({result['failed']} of {result['attempted']})")
        print(f"  times are reference seconds; body_ms_tail is "
              f"p{result['tail_percentile']:.1f} of {result['attempted']} ops; "
              f"setup_s is the median of {SETUP_SAMPLES} fresh processes")
        print("  raw CPU time: " + "  ".join(
            f"{k} {v:.4f}" for k, v in result["raw"].items())
            + f"  (host slowdown p50 {result['host_slowdown_p50']:.3f})")
        print(f"  wall clock: {result['wall_s']:.3f} s, "
              f"{result['wall_bodies_per_s']:.4f} bodies/s")
    else:
        (tc, tw), (uc, uw) = (result["traced_cpu_wall_s"],
                              result["untraced_cpu_wall_s"])
        print(f"  traced pass {tc:.3f} s CPU / {tw:.3f} s wall, untraced "
              f"{uc:.3f} s CPU / {uw:.3f} s wall, {result['spans']} spans")
    for dim, row in result["per_dim"].items():
        cells = "  ".join(f"{k}={v:.4g}" for k, v in row.items())
        print(f"  dim {dim}: {cells}")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    ops, inputs = prepare(args.workload, args.seed)
    if args.setup_probe:
        next(inputs)
        print("ready", flush=True)
        return 0
    result = (per_layer_run if args.trace else end_to_end_run)(args, ops, inputs)
    print_report(args, result)
    record = SCRATCH / (f"results-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
