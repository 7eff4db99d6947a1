"""JSON wire formats for polytopes, halfspace systems, sweep specs and reports.

Rationals travel as decimal-free strings "p/q" or "k"; writers emit lowest
terms, readers accept any equivalent fraction.  A polytope file stores only
the vertex list; reading re-derives the facet structure, so redundant points
in a hand-written file are tolerated and dropped.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .generators import GenSpec
from .geometry import Polytope, build_hull
from .halfspaces import System, make_system
from .mixedvol import GodbersenReport
from .rationals import format_rational, parse_rational


def polytope_to_dict(K: Polytope) -> dict:
    return {
        "dim": K.dim,
        "vertices": [[format_rational(c) for c in p] for p in K.vertices],
    }


def _checked(data, kind, what: str):
    """``data``, or ValueError when it is not an instance of ``kind``."""
    if not isinstance(data, kind):
        raise ValueError(f"unexpected {type(data).__name__} for {what}")
    return data


def _field(data: dict, key: str, what: str):
    """``data[key]``, or ValueError naming the key that ``what`` lacks."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f'{what} has no "{key}"') from None


def _integer(value, what: str) -> int:
    """An int (not a bool) or an integer string of ASCII digits with an
    optional sign, as an int; else ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value.strip()):
        try:
            return int(value)
        except ValueError:  # more digits than Python converts
            pass
    raise ValueError(f"{what} must be an integer, not {json.dumps(value)}")


def _vector(data, what: str) -> tuple:
    return tuple(parse_rational(c) for c in _checked(data, list, what))


def polytope_from_dict(data: dict) -> Polytope:
    data = _checked(data, dict, "a polytope file")
    dim = _integer(_field(data, "dim", "a polytope file"), "dim")
    vertices = [_vector(p, "a vertex")
                for p in _checked(_field(data, "vertices", "a polytope file"), list, "vertices")]
    if any(len(p) != dim for p in vertices):
        raise ValueError("vertex length disagrees with the declared dimension")
    return build_hull(vertices)


def system_from_dict(data: dict) -> System:
    data = _checked(data, dict, "a system file")
    dim = _integer(_field(data, "dim", "a system file"), "dim")
    rows = [(_vector(_field(_checked(r, dict, "a row"), "w", "a system row"), "a normal"),
             parse_rational(_field(r, "beta", "a system row")))
            for r in _checked(_field(data, "rows", "a system file"), list, "rows")]
    return make_system(dim, rows)


def specs_from_dict(data, base_seed: int) -> list[GenSpec]:
    """The ``GenSpec`` rows of a sweep spec file: a list of rows, or a dict
    whose "specs" is that list.  A row without a seed takes
    ``base_seed * 1_000_003`` plus its index."""
    raw = _field(data, "specs", "a spec file") if isinstance(data, dict) else data
    specs = []
    for i, row in enumerate(_checked(raw, list, "the spec list")):
        _checked(row, dict, f"spec row {i}")
        unknown = set(row) - {"kind", "dim", "vertex_count", "seed", "denominator_bound"}
        if unknown:
            raise ValueError(f"spec row {i} has unknown keys {sorted(unknown)}")
        seed = row.get("seed")
        vertex_count = row.get("vertex_count")
        specs.append(GenSpec(
            kind=_field(row, "kind", f"spec row {i}"),
            dim=_integer(_field(row, "dim", f"spec row {i}"), f"spec row {i} dim"),
            vertex_count=None if vertex_count is None
            else _integer(vertex_count, f"spec row {i} vertex_count"),
            seed=base_seed * 1_000_003 + i if seed is None
            else _integer(seed, f"spec row {i} seed"),
            denominator_bound=_integer(row.get("denominator_bound", 1),
                                       f"spec row {i} denominator_bound"),
        ))
    return specs


def report_to_dict(report: GodbersenReport) -> dict:
    return {
        "n": report.n,
        "volume": format_rational(report.volume),
        "entries": [
            {
                "j": e.j,
                "mixed": format_rational(e.mixed),
                "ratio": format_rational(e.ratio),
                "nmin_ok": e.nmin_ok,
                "artstein_ok": e.artstein_ok,
            }
            for e in report.entries
        ],
        "is_simplex": report.is_simplex,
    }


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_json(path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n")
