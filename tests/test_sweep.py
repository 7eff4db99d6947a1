import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from godbersen import GenSpec, inclusion
from godbersen.cli import main
from godbersen.errors import (
    CombinatorialBlowup, DegenerateInput, TheoremViolation, ZeroDirection)
from godbersen.polyio import polytope_from_dict
from tests.conftest import corpus_specs
from tests.test_concave import dip_profile

# the package re-exports a function named sweep, so reach the module through
# sys.modules
sweep_module = sys.modules["godbersen.sweep"]
concave_module = sys.modules["godbersen.concave"]

# sha256 of the `sweep --floats` CSV over every 10th corpus body (30 bodies),
# recorded before slice-root concavity became an exact test.
FLOATS_CSV_DIGEST = "539f022e64190a9087a34e8fb59c95e26ab20c49ebce03a850087b0ca2e1441c"


def test_centers_once_for_the_moments(monkeypatch):
    calls = []
    center = inclusion.center_at_centroid

    def counting_center(K):
        calls.append(K)
        return center(K)

    monkeypatch.setattr(inclusion, "center_at_centroid", counting_center)
    monkeypatch.setattr(sweep_module, "center_at_centroid", counting_center)
    spec = GenSpec("random_hull", 3, 7, seed=30_001, denominator_bound=3)
    sweep_module.check_body("0000-random_hull-n3", spec)
    # one centering shared by the tightness profile and all facet moments
    assert len(calls) == 1


def test_violation_names_the_body(tmp_path, monkeypatch, capsys):
    tightness = sweep_module._centered_tightness

    def boom(K):
        if len(K.vertices) == K.dim + 1:
            raise TheoremViolation("forced on a facet normal")
        return tightness(K)

    monkeypatch.setattr(sweep_module, "_centered_tightness", boom)
    spec = GenSpec("simplex", 2, seed=7)
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0003-simplex-n2", spec)
    assert str(info.value) == f"0003-simplex-n2 {spec}: tightness: forced on a facet normal"
    assert isinstance(info.value.__cause__, TheoremViolation)

    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"kind": "cube", "dim": 2},
                                 {"kind": "simplex", "dim": 2}]))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(specs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "0001-simplex-n2" in captured.err
    assert "forced on a facet normal" in captured.err
    assert "violations=1" in captured.out
    # the cube's rows survive the simplex's violation
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["0000-cube-n2"]
    repro = json.loads((tmp_path / "x.csv.violation-0001-simplex-n2.json").read_text())
    assert repro["spec"]["kind"] == "simplex"
    assert "forced on a facet normal" in repro["message"]
    assert polytope_from_dict(repro) == sweep_module.generate(GenSpec("simplex", 2))

    summary = sweep_module.sweep([GenSpec("cube", 2), GenSpec("simplex", 2)],
                                 tmp_path / "y.csv")
    assert summary.violations == 1 and summary.rows == 1


def test_nonzero_moment_is_a_violation(monkeypatch):
    # the centered body's moment vanishes by the centroid's definition, so a
    # nonzero one is a bug, not a CSV flag
    monkeypatch.setattr(sweep_module, "directional_moment",
                        lambda K, w, center: Fraction(1, 7))
    spec = GenSpec("cube", 2)
    with pytest.raises(TheoremViolation, match="nonzero moment"):
        sweep_module.check_body("0000-cube-n2", spec)


def test_root_concavity_failure_is_a_violation(tmp_path, monkeypatch, capsys):
    # every dim-3 section profile is replaced by one whose root dips between
    # the old float sampler's points
    profile = concave_module.section_profile

    def dipping(K, w):
        return dip_profile() if K.dim == 3 else profile(K, w)

    monkeypatch.setattr(concave_module, "section_profile", dipping)
    spec = GenSpec("cube", 3)
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0001-cube-n3", spec)
    assert str(info.value).startswith(f"0001-cube-n3 {spec}: brunn: section root "
                                      "not concave along (")

    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"kind": "cube", "dim": 2},
                                 {"kind": "cube", "dim": 3}]))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(specs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "0001-cube-n3" in captured.err and "not concave" in captured.err
    assert "observations=0 violations=1" in captured.out
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["0000-cube-n2"]
    repro = json.loads((tmp_path / "x.csv.violation-0001-cube-n3.json").read_text())
    assert "section root not concave" in repro["message"]
    assert polytope_from_dict(repro) == sweep_module.generate(spec)


# each stage of check_body, in order, and the function it calls as sweep names
# it; a stage's first call of that function comes only after its name
STAGE_CALLS = {"generate": "generate", "report": "godbersen_report",
               "tightness": "_centered_tightness", "moments": "directional_moment",
               "brunn": "slice_root_concavity", "rows": "SweepRow"}


def test_each_stage_runs_once_in_order(monkeypatch):
    spec = corpus_specs()[130]  # a dim-3 random hull
    healthy = sweep_module.check_body("0130-random_hull-n3", spec)
    log = []
    stages = sweep_module._stages

    def spying_stages(*args):
        inner = stages(*args)
        try:
            while True:
                stage, body = next(inner)
                log.append(stage)
                yield stage, body
        except StopIteration as done:
            return done.value

    def spy(name, real):
        def called(*args, **kwargs):
            log.append(name + "()")
            return real(*args, **kwargs)
        return called

    monkeypatch.setattr(sweep_module, "_stages", spying_stages)
    for name in STAGE_CALLS.values():
        monkeypatch.setattr(sweep_module, name, spy(name, getattr(sweep_module, name)))
    assert sweep_module.check_body("0130-random_hull-n3", spec) == healthy
    # the moments, brunn and rows stages call theirs more than once
    runs = [x for i, x in enumerate(log) if i == 0 or log[i - 1] != x]
    assert runs == [x for stage, name in STAGE_CALLS.items() for x in (stage, name + "()")]


@pytest.mark.parametrize("stage", STAGE_CALLS)
def test_forced_violation_names_its_stage(stage, tmp_path, monkeypatch, capsys):
    name = STAGE_CALLS[stage]
    real = getattr(sweep_module, name)
    calls = []

    def forced(*args, **kwargs):
        # only the stage's first call fails
        calls.append(args)
        if len(calls) == 1:
            raise TheoremViolation(f"forced in {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep_module, name, forced)
    spec = GenSpec("simplex", 3)
    message = f"0000-simplex-n3 {spec}: {stage}: forced in {name}"
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0000-simplex-n3", spec)
    assert str(info.value) == message

    calls.clear()
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([asdict(spec)]))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(specs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"THEOREM VIOLATION: {message}\n"
    repro = json.loads((tmp_path / "x.csv.violation-0000-simplex-n3.json").read_text())
    assert repro["message"] == message and repro["stage"] == stage
    if stage == "generate":
        # no body was built, so the reproducer names it and holds no vertices
        assert repro == {"body_id": "0000-simplex-n3", "spec": asdict(spec),
                         "stage": stage, "message": message}
    else:
        assert polytope_from_dict(repro) == sweep_module.generate(spec)


def test_generate_violation_keeps_the_csv_and_summary(tmp_path, monkeypatch, capsys):
    # a violation while building a body leaves a reproducer without vertices
    # and does not build the body again, so the other bodies' rows and the
    # summary are still written
    generate = sweep_module.generate
    built = []

    def failing(spec):
        built.append(spec)
        if spec.dim == 3:
            raise TheoremViolation("forced in generate")
        return generate(spec)

    monkeypatch.setattr(sweep_module, "generate", failing)
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"kind": "cube", "dim": 2},
                                 {"kind": "simplex", "dim": 3}]))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--spec", str(specs), "--out", str(out)]) == 2
    assert [s.dim for s in built] == [2, 3]
    captured = capsys.readouterr()
    spec = built[1]
    message = f"0001-simplex-n3 {spec}: generate: forced in generate"
    assert captured.err == f"THEOREM VIOLATION: {message}\n"
    assert "bodies=2" in captured.out and "violations=1" in captured.out
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["0000-cube-n2"]
    repro = json.loads((tmp_path / "x.csv.violation-0001-simplex-n3.json").read_text())
    assert repro == {"body_id": "0001-simplex-n3", "spec": asdict(spec),
                     "stage": "generate", "message": message}


@pytest.mark.parametrize("name, error, vertex_count", [
    ("generate", DegenerateInput, 0), ("generate", CombinatorialBlowup, 0),
    ("godbersen_report", CombinatorialBlowup, 3), ("slice_root_concavity", CombinatorialBlowup, 3)])
def test_error_row_by_stage(monkeypatch, name, error, vertex_count):
    # any package error in the generate stage, and a refused kernel run after
    # it, give one error row; the row counts the body's vertices once it is made
    def refused(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(sweep_module, name, refused)
    assert sweep_module.check_body("0000-simplex-n2", GenSpec("simplex", 2)) == (
        [sweep_module.SweepRow("0000-simplex-n2", 2, vertex_count, 0, None, 0, False,
                               False, False, f"{error.__name__}: forced")], [])


@pytest.mark.parametrize("name, error", [
    ("generate", RuntimeError), ("godbersen_report", DegenerateInput),
    ("directional_moment", ZeroDirection)])
def test_other_errors_propagate(monkeypatch, name, error):
    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(sweep_module, name, failing)
    with pytest.raises(error, match="^forced$"):
        sweep_module.check_body("0000-simplex-n2", GenSpec("simplex", 2))


def test_floats_csv_digest(tmp_path):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([asdict(s) for s in corpus_specs()[::10]]))
    out = tmp_path / "corpus.csv"
    assert main(["sweep", "--spec", str(specs), "--out", str(out),
                 "--floats"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FLOATS_CSV_DIGEST


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_one(tmp_path, jobs):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="jobs"):
        sweep_module.sweep([GenSpec("simplex", 2)], out, jobs=jobs)
    assert not out.exists()


def test_pool_size_is_capped_by_body_count(tmp_path, monkeypatch):
    # sweep imports the pool class from concurrent.futures when it needs one
    pool_class = concurrent.futures.ProcessPoolExecutor
    workers = []

    def recording_pool(max_workers):
        workers.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    specs = [GenSpec("cube", 2), GenSpec("simplex", 3)]
    sweep_module.sweep(specs, tmp_path / "parallel.csv", jobs=6)
    sweep_module.sweep(specs, tmp_path / "serial.csv", jobs=1)
    assert workers == [2]
    assert (tmp_path / "parallel.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_importing_the_cli_loads_no_process_pool():
    # only a parallel sweep needs the pool, so a fresh process that imports
    # the CLI has loaded none of its modules
    src = str(Path(sweep_module.__file__).parents[1])
    code = ("import sys, godbersen.cli; print(sorted(m for m in ("
            "'concurrent.futures', 'multiprocessing', 'logging', 'pickle', "
            "'socket') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
