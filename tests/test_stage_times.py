"""tools/stage_times.py reads private names of ``src``: a rename there fails
here, not in the next timing run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from godbersen.sweep import _stages

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def stage_times(monkeypatch):
    """The tool as a module; ``sys.path`` is restored after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("stage_times",
                                                  ROOT / "tools" / "stage_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_body_columns(stage_times):
    stage_times.import_tree(ROOT)
    from workloads import body_spec

    spec = body_spec(2, 0, 0)
    row = stage_times.time_body(spec)
    names = [name for name, _ in _stages("body", spec)]
    assert list(row) == ["V", "F", *names, "stages", "check_body", *stage_times.KERNELS]
    assert all(row[column] >= 0 for column in stage_times.KERNELS)


def test_refuses_a_tree_that_does_not_hold_the_imported_package(stage_times, tmp_path):
    with pytest.raises(SystemExit, match="no godbersen under"):
        stage_times.import_tree(tmp_path)
