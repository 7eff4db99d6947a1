import json
import sys

import pytest

from godbersen import GenSpec, inclusion
from godbersen.cli import main
from godbersen.errors import TheoremViolation
from godbersen.polyio import polytope_from_dict

# the package re-exports a function named sweep, so reach the module through
# sys.modules
sweep_module = sys.modules["godbersen.sweep"]


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
    # one centering for the tightness profile, one for all facet moments
    assert len(calls) == 2


def test_violation_names_the_body(tmp_path, monkeypatch, capsys):
    tightness = sweep_module.tightness_profile

    def boom(K):
        if len(K.vertices) == K.dim + 1:
            raise TheoremViolation("forced on a facet normal")
        return tightness(K)

    monkeypatch.setattr(sweep_module, "tightness_profile", boom)
    spec = GenSpec("simplex", 2, seed=7)
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0003-simplex-n2", spec)
    assert str(info.value) == f"0003-simplex-n2 {spec}: forced on a facet normal"
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
