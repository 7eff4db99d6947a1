"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

from spantrace import Span  # noqa: E402

run.import_program()
from godbersen.generators import generate  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def specs(workload, seed, count):
    return [(op.spec, op.partner) for op in
            itertools.islice(workloads.op_inputs(workload, seed), count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_specs(workload):
    assert specs(workload, 7, 40) == specs(workload, 7, 40)


def test_other_seed_other_bodies():
    bodies = {seed: [generate(s).vertices for s, _ in specs("sweep-d23", seed, 6)]
              for seed in (0, 1, 2)}
    for a, b in itertools.combinations(bodies.values(), 2):
        assert all(x != y for x, y in zip(a, b))


def test_default_seed_reproduces_corpus():
    spec = importlib.util.spec_from_file_location(
        "corpus_conftest", HERE.parent / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    corpus = conftest.corpus_specs()
    for dim in workloads.RECIPES:
        ours = [workloads.body_spec(dim, i, 0) for i in range(100)]
        theirs = [s for s in corpus if s.dim == dim]
        assert sorted(ours, key=repr) == sorted(theirs, key=repr)
        # the corpus order of each recipe is kept
        for kind in ("random_hull", "random_symmetric"):
            assert ([s for s in ours if s.kind == kind]
                    == [s for s in theirs if s.kind == kind])


def test_kind_and_dim_mix():
    ops = specs("sweep-d23", 3, 150)
    dims = [s.dim for s, _ in ops]
    assert dims.count(2) == 2 * dims.count(3)
    for dim in (2, 3):
        kinds = [s.kind for s, _ in ops if s.dim == dim]
        assert kinds.count("random_hull") == 4 * kinds.count("random_symmetric")
    for spec, partner in ops:
        assert partner.dim == spec.dim and partner != spec


def test_run_ops_are_whole_rounds():
    for workload in workloads.WORKLOADS:
        per_round = workloads.round_ops(workload)
        assert workloads.run_ops(workload, 0.1) == per_round
        ops = workloads.run_ops(workload, BENCHMARK["run_seconds"])
        assert ops % per_round == 0
    assert workloads.run_ops("sweep-d4", 24) == 25


def test_calibration_scale():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(1.5, ref, ref) == pytest.approx(1.5)
    # a host running at half speed doubles the op and the samples alike
    assert calibrate.scale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert calibrate.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert calibrate.sample() > 0


def test_tail_percentile():
    assert run.tail_percentile([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail_percentile([3.0] * 10 + [1.0]) == (1.0, 100.0 / 11)
    assert run.tail_percentile([2.0, 5.0, 1.0]) == (5.0, 100.0)


def test_self_times_on_nested_spans():
    spans = [Span("bench.op", 0, 100, -1, 0),
             Span("a.f", 10, 40, 0, 0),
             Span("b.g", 15, 20, 1, 0),
             Span("a.h", 50, 90, 0, 0)]
    own = spantrace.self_times(spans)
    assert own == [30, 25, 5, 40]
    assert spantrace.subtree_sums(spans, own) == [100, 30, 5, 40]


def test_self_times_expose_bad_nesting():
    leaking = [Span("bench.op", 0, 100, -1, 0), Span("a.f", 50, 120, 0, 0)]
    own = spantrace.self_times(leaking)
    assert spantrace.subtree_sums(leaking, own)[0] != 100
    overlapping = [Span("bench.op", 0, 100, -1, 0), Span("a.f", 10, 60, 0, 0),
                   Span("a.g", 40, 70, 0, 0)]
    own = spantrace.self_times(overlapping)
    assert own[0] == 40
    assert spantrace.subtree_sums(overlapping, own)[0] != 100


def test_tracer_patches_and_restores():
    import godbersen.geometry as geometry
    import godbersen.mixedvol as mixedvol

    original = geometry.minkowski_sum
    ops, inputs = run.prepare("sweep-d23", 0)
    op = next(inputs)
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        assert mixedvol.minkowski_sum is geometry.minkowski_sum is not original
        tracer.root(op.index, ops.run, op)
    finally:
        tracer.uninstall()
    assert geometry.minkowski_sum is original
    assert mixedvol.minkowski_sum is original
    spans = tracer.spans
    names = [s.name for s in spans]
    assert names[:3] == ["bench.op", "sweep.sweep", "sweep.check_body"]
    own = spantrace.self_times(spans)
    sums = spantrace.subtree_sums(spans, own)
    assert all(o >= 0 for o in own)
    assert all(sums[i] == s.duration for i, s in enumerate(spans))
    mink = [s for s in spans if s.name == "geometry.minkowski_sum"]
    assert mink and all(spans[s.parent].name == "mixedvol.mv_profile"
                        for s in mink)
    assert all(s.counts["out_facets"] > 0 for s in mink)


def test_gate_rejects_bad_outputs():
    ops, inputs = run.prepare("sweep-d23", 0)
    op = next(inputs)
    lines = ops.run(op)
    gate = run.Gate(ops, "sweep-d23", 0)
    assert gate.check(op.index, lines, "")
    gate.expected = ["0" * 16]
    assert not gate.check(op.index, lines, "")
    assert "digest" in gate.errors[0]
    bad = lines[:2] + [lines[2].replace("true", "false")]
    assert "inclusion" in ops.check(bad)
    assert "error row" in ops.check(lines[:2] + [lines[2] + "Boom"])


def _result(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_metrics_match_benchmark_json(monkeypatch):
    res = _result(["--workload", "audit", "--seed", "1", "--seconds", "0.1",
                   "--trace", "0"])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert ({k: m["unit"] for k, m in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
    assert all(m["value"] > 0 for m in res["metrics"].values())

    monkeypatch.setitem(workloads.TRACED_ROUNDS, "audit", 1)
    monkeypatch.setitem(workloads.DIM_PATTERNS, "audit", (2,))
    res = _result(["--workload", "audit", "--seed", "1", "--trace", "1"])
    assert res["correct"]
    assert ({k: m["unit"] for k, m in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
    assert res["metrics"]["halfspaces.helly_audit.subsets"]["value"] > 0


def test_predictions_cite_benchmark_names():
    table = json.loads((HERE / "predictions.json").read_text())
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"] for m in BENCHMARK["per_layer"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for row in table["predictions"]:
        assert set(row["layer_metrics"]) <= layer
        for move in row["moves"]:
            assert move["metric"] in e2e and move["workload"] in names
        assert set(row["flat_on"]) <= names
