import json
import sys

import pytest

from godbersen import GenSpec, inclusion
from godbersen.cli import main
from godbersen.errors import TheoremViolation

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
    def boom(*args, **kwargs):
        raise TheoremViolation("forced on a facet normal")

    monkeypatch.setattr(sweep_module, "tightness_profile", boom)
    spec = GenSpec("simplex", 2, seed=7)
    with pytest.raises(TheoremViolation) as info:
        sweep_module.check_body("0003-simplex-n2", spec)
    assert str(info.value) == f"0003-simplex-n2 {spec}: forced on a facet normal"
    assert isinstance(info.value.__cause__, TheoremViolation)

    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"kind": "cube", "dim": 2},
                                 {"kind": "simplex", "dim": 2}]))
    assert main(["sweep", "--spec", str(specs),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "0000-cube-n2" in err and "forced on a facet normal" in err
