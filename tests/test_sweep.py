import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from godbersen import GenSpec, build_hull, inclusion
from godbersen.cli import main
from godbersen.errors import (
    CombinatorialBlowup, DegenerateInput, TheoremViolation, ZeroDirection)
from godbersen.polyio import polytope_from_dict
from godbersen.sections import SectionProfile
from tests.conftest import corpus_specs, int_rank
from tests.test_concave import dip_profile

# the package re-exports a function named sweep, so reach the module through
# sys.modules
sweep_module = sys.modules["godbersen.sweep"]

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
    # one centering shared by the tightness profile and every section profile
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
    monkeypatch.setattr(SectionProfile, "moment", lambda self: Fraction(1, 7))
    spec = GenSpec("cube", 2)
    with pytest.raises(TheoremViolation, match="nonzero moment"):
        sweep_module.check_body("0000-cube-n2", spec)


def seeded_directions(spec):
    """The five directions check_body draws for ``spec``, in order."""
    rng = random.Random(spec.seed ^ 0x5EED5EED)
    return [sweep_module._random_direction(rng, spec.dim)
            for _ in range(sweep_module.ROOT_CONCAVITY_DIRECTIONS)]


def record_profiles(monkeypatch):
    """Spy on check_body's centering, section profiles and moments: returns
    the list of centered bodies, of (body, direction) per profile built, and
    of the direction of each moment taken."""
    centered, built, moments = [], [], []
    center, profile, moment = (sweep_module.center_at_centroid,
                               sweep_module.section_profile, SectionProfile.moment)

    def centering(K):
        centered.append(center(K))
        return centered[-1]

    def building(K, w):
        built.append((K, w))
        return profile(K, w)

    def taking(self):
        moments.append(self.direction)
        return moment(self)

    monkeypatch.setattr(sweep_module, "center_at_centroid", centering)
    monkeypatch.setattr(sweep_module, "section_profile", building)
    monkeypatch.setattr(SectionProfile, "moment", taking)
    return centered, built, moments


def first_independent(columns):
    """The columns, in order, that raise the rank of those before them."""
    chosen = []
    for w in columns:
        if int_rank(chosen + [w]) > len(chosen):
            chosen.append(w)
    return chosen


def test_moments_reach_past_dependent_leading_normals(monkeypatch):
    # the seeded directions all lie in the plane z = 0, and so do the first
    # three facet normals, in facet order, of a prism over a hexagon; a
    # moment that is nonzero only off that plane must still be found, so the
    # seeded directions are completed by a facet normal that leaves the plane
    hexagon = [(1, -2), (0, -1), (0, 1), (1, 2), (3, 2), (3, -2)]
    prism = build_hull([(x, y, z) for x, y in hexagon for z in (0, 1)])
    k0 = inclusion.center_at_centroid(prism)
    assert int_rank([f.normal for f in k0.facets[:3]]) == 2
    planar = iter([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0), (-3, 5, 0)])
    monkeypatch.setattr(sweep_module, "generate", lambda spec: prism)
    monkeypatch.setattr(sweep_module, "_random_direction", lambda rng, dim: next(planar))
    monkeypatch.setattr(SectionProfile, "moment", lambda self: Fraction(self.direction[2]))
    with pytest.raises(TheoremViolation, match="nonzero moment"):
        sweep_module.check_body("0000-cube-n3", GenSpec("cube", 3))


@pytest.mark.parametrize("index", [0, 100, 200])
def test_moments_take_the_first_independent_facet_normals(monkeypatch, index):
    # one corpus body of each dim 2-4: one moment per dimension, along the
    # first of the seeded directions, then of K0's facet normals in facet
    # order, that raise the rank; the five seeded directions span, so no
    # facet normal gets a profile
    spec = corpus_specs()[index]
    centered, built, moments = record_profiles(monkeypatch)
    sweep_module.check_body(f"{index:04d}-random_hull-n{spec.dim}", spec)
    [k0] = centered
    assert k0 == inclusion.center_at_centroid(sweep_module.generate(spec))
    seeded = seeded_directions(spec)
    assert [w for _, w in built] == seeded and all(K is k0 for K, _ in built)
    assert moments == first_independent(seeded + [f.normal for f in k0.facets])
    assert len(moments) == spec.dim


def test_moments_complete_the_seeded_directions_by_a_facet_normal(monkeypatch):
    # five directions cannot span R^6: the profiles are the five seeded ones
    # and one along the first facet normal of K0 that raises their rank
    spec = GenSpec("random_hull", 6, 8, seed=1, denominator_bound=2)
    centered, built, moments = record_profiles(monkeypatch)
    sweep_module.check_body("0000-random_hull-n6", spec)
    [k0] = centered
    seeded = seeded_directions(spec)
    basis = first_independent(seeded + [f.normal for f in k0.facets])
    assert basis[:5] == seeded and basis[5] in [f.normal for f in k0.facets]
    assert built == [(k0, w) for w in basis] and all(K is k0 for K, _ in built)
    assert moments == basis


def test_corpus_bodies_build_five_profiles_on_k0(monkeypatch):
    # at dims 2-4 the five seeded directions always span, so every corpus
    # body builds exactly their five profiles, all on K0, and none along a
    # facet normal
    centered, built, _ = record_profiles(monkeypatch)
    for i, spec in enumerate(corpus_specs()):
        centered.clear()
        built.clear()
        sweep_module.check_body(f"{i:04d}-{spec.kind}-n{spec.dim}", spec)
        [k0] = centered
        assert [w for _, w in built] == seeded_directions(spec), spec
        assert all(K is k0 for K, _ in built), spec


def test_brunn_reads_every_seeded_profile(monkeypatch):
    # Brunn's test runs on all five seeded profiles, not only on the n that
    # decide the moment: a root that fails only along the last direction is
    # a violation named by that direction
    spec = corpus_specs()[0]
    last = seeded_directions(spec)[-1]
    concave = SectionProfile.root_concave
    monkeypatch.setattr(SectionProfile, "root_concave",
                        lambda self: self.direction != last and concave(self))
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0000-random_hull-n2", spec)
    assert str(info.value).endswith(f": brunn: section root not concave along {last}")


def test_root_concavity_failure_is_a_violation(tmp_path, monkeypatch, capsys):
    # every dim-3 section profile is replaced by one whose root dips between
    # the old float sampler's points; it stands in for K0's sections, so its
    # moment is taken as theirs, zero
    profile, moment = sweep_module.section_profile, SectionProfile.moment
    dip = dip_profile()

    def dipping(K, w):
        return dip if K.dim == 3 else profile(K, w)

    monkeypatch.setattr(sweep_module, "section_profile", dipping)
    monkeypatch.setattr(SectionProfile, "moment",
                        lambda self: Fraction(0) if self is dip else moment(self))
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


# each stage of check_body, in order, and the function it calls, as (owner,
# name): a name in sweep's namespace, or the section profile's Brunn test; a
# stage's first call of that function comes only after its name
STAGE_CALLS = {"generate": (sweep_module, "generate"),
               "report": (sweep_module, "godbersen_report"),
               "tightness": (sweep_module, "_centered_tightness"),
               "moments": (sweep_module, "section_profile"),
               "brunn": (SectionProfile, "root_concave"),
               "rows": (sweep_module, "SweepRow")}


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
    for owner, name in STAGE_CALLS.values():
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    assert sweep_module.check_body("0130-random_hull-n3", spec) == healthy
    # the moments, brunn and rows stages call theirs more than once
    runs = [x for i, x in enumerate(log) if i == 0 or log[i - 1] != x]
    assert runs == [x for stage, (_, name) in STAGE_CALLS.items()
                    for x in (stage, name + "()")]


@pytest.mark.parametrize("stage", STAGE_CALLS)
def test_forced_violation_names_its_stage(stage, tmp_path, monkeypatch, capsys):
    owner, name = STAGE_CALLS[stage]
    real = getattr(owner, name)
    calls = []

    def forced(*args, **kwargs):
        # only the stage's first call fails
        calls.append(args)
        if len(calls) == 1:
            raise TheoremViolation(f"forced in {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, forced)
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
    ("godbersen_report", CombinatorialBlowup, 3), ("section_profile", CombinatorialBlowup, 3)])
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
    ("section_profile", ZeroDirection)])
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
