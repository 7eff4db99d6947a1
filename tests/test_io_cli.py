import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from godbersen import (
    GenSpec,
    ak_system,
    build_hull,
    generate,
    godbersen_report,
    make_system,
    unit_cube,
)
from godbersen import cli, dd, generators
from godbersen.cli import main
from godbersen.errors import GodbersenError
from godbersen.generators import KINDS
from godbersen.rationals import format_rational
from godbersen.polyio import (
    polytope_from_dict,
    polytope_to_dict,
    report_to_dict,
    specs_from_dict,
    system_from_dict,
)
from tests.test_geometry import TRIANGLE, SQUARE

CUBE = unit_cube(3)
# the first dim-3 origin-symmetric body of the acceptance corpus
SYMMETRIC_BODY = generate(GenSpec("random_symmetric", 3, 4, seed=30_500,
                                  denominator_bound=3))

# the anchor systems (``ak_system``) of the triangle, CUBE and SYMMETRIC_BODY
# as (w, beta) rows of a system file
TRIANGLE_ANCHOR_ROWS = [(["-1", "0"], "-1/3"), (["0", "-1"], "-1/3"), (["1", "1"], "2/3")]
CUBE_ANCHOR_ROWS = [
    (["-1", "0", "0"], "-1/4"), (["0", "-1", "0"], "-1/4"), (["0", "0", "-1"], "-1/4"),
    (["0", "0", "1"], "3/4"), (["0", "1", "0"], "3/4"), (["1", "0", "0"], "3/4")]
SYMMETRIC_ANCHOR_ROWS = [
    (["-236", "111", "87"], "297"), (["-76", "-75", "-123"], "297"),
    (["-20", "39", "-3"], "54"), (["-10", "6", "3"], "27/2"),
    (["-4", "-3", "-15"], "27"), (["-4", "-3", "21"], "27"),
    (["4", "3", "-21"], "27"), (["4", "3", "15"], "27"),
    (["10", "-6", "-3"], "27/2"), (["20", "-39", "3"], "54"),
    (["76", "75", "123"], "297"), (["236", "-111", "-87"], "297")]


def _system_dict(rows):
    return {"dim": len(rows[0][0]), "rows": [{"w": w, "beta": b} for w, b in rows]}


class TestPolytopeFormat:
    def test_round_trip(self):
        body = build_hull([(F(1, 2), F(-3, 4)), (2, 0), (0, 2), (-1, -1)])
        again = polytope_from_dict(polytope_to_dict(body))
        assert again == body

    def test_round_trip_past_the_conversion_limit(self):
        # the writer emits 4,401-digit coordinates in pieces; the reader
        # reads them in pieces
        body = build_hull([(0, 0), (10 ** 4400, 0), (0, 10 ** 4400)])
        assert polytope_from_dict(polytope_to_dict(body)) == body

    def test_writer_emits_lowest_terms(self):
        body = build_hull([(F(2, 4), 0), (1, 0), (0, 1)])
        data = polytope_to_dict(body)
        assert ["1/2", "0"] in data["vertices"]

    def test_reader_accepts_unreduced_fractions(self):
        data = {"dim": 2, "vertices": [["0", "0"], ["2/2", "0"], ["0", "4/4"]]}
        assert polytope_from_dict(data) == build_hull(TRIANGLE)

    def test_reader_drops_redundant_points(self):
        data = {"dim": 2,
                "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"],
                             ["1/2", "1/2"]]}
        assert len(polytope_from_dict(data).vertices) == 4

    def test_reader_rejects_bad_vertex_length(self):
        with pytest.raises(ValueError):
            polytope_from_dict({"dim": 3, "vertices": [["0", "0"]]})

    def test_reader_rejects_decimals(self):
        with pytest.raises(ValueError):
            polytope_from_dict({"dim": 2, "vertices": [["0.5", "0"], ["1", "0"],
                                                       ["0", "1"]]})


class TestSystemFormat:
    def test_reader(self):
        data = _system_dict([(["1", "0"], "1/6"), (["-2/6", "1"], "-2/7")])
        assert system_from_dict(data) == make_system(
            2, [((1, 0), F(1, 6)), ((F(-1, 3), 1), F(-2, 7))])

    def test_reader_reads_anchor_systems(self):
        for body, rows in ((build_hull(TRIANGLE), TRIANGLE_ANCHOR_ROWS),
                           (CUBE, CUBE_ANCHOR_ROWS),
                           (SYMMETRIC_BODY, SYMMETRIC_ANCHOR_ROWS)):
            assert system_from_dict(_system_dict(rows)) == ak_system(body)


class TestReportFormat:
    def test_schema_keys(self):
        data = report_to_dict(godbersen_report(build_hull(SQUARE)))
        assert set(data) == {"n", "volume", "entries", "is_simplex"}
        assert set(data["entries"][0]) == {"j", "mixed", "ratio", "nmin_ok",
                                           "artstein_ok"}
        assert data["volume"] == "1" and data["entries"][0]["ratio"] == "1/2"


class TestCli:
    def _write_body(self, tmp_path, pts, name="body.json"):
        path = tmp_path / name
        body = build_hull(pts)
        path.write_text(json.dumps(polytope_to_dict(body)))
        return path

    def test_gen_and_verify(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["gen", "--kind", "simplex", "--dim", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--input", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_simplex"] and report["entries"][0]["ratio"] == "1"

    def test_verify_j_filter(self, tmp_path, capsys):
        path = self._write_body(tmp_path, TRIANGLE)
        assert main(["verify", "--input", str(path), "--j", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["j"] for e in report["entries"]] == [1]
        assert main(["verify", "--input", str(path), "--j", "5"]) == 1

    def test_verify_writes_results_past_the_conversion_limit(self, tmp_path, capsys):
        # a 3-simplex with 3,001-digit coordinates has a 9,001-digit volume,
        # more digits than str() converts by default; it is written whole
        big = "1" + "0" * 2999 + "1"  # N = 10^3000 + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 3, "vertices": [
            ["0", "0", "0"], [big, "0", "0"], ["0", big, "0"], ["0", "0", big]]}))
        assert main(["verify", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        cube = "1" + ("0" * 2999 + "3") * 2 + "0" * 2999 + "1"  # N^3
        assert report["volume"] == cube + "/6"
        assert [(e["j"], e["mixed"], e["ratio"]) for e in report["entries"]] == [
            (1, cube + "/2", "1"), (2, cube + "/2", "1")]
        assert report["is_simplex"]

    def test_ak(self, tmp_path, capsys):
        path = self._write_body(tmp_path, TRIANGLE)
        assert main(["ak", "--input", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"feasible": True, "witness": ["1/3", "1/3"],
                        "unique": True}

    def test_ak_witness_is_centroid(self, tmp_path, capsys):
        # the anchor region of this pyramid is not a point; the witness is
        # its centroid, not a point picked by a solver
        pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]
        path = self._write_body(tmp_path, pyramid)
        assert main(["ak", "--input", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"feasible": True, "witness": ["1", "1", "1/2"],
                        "unique": False}

    def test_helly(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(TRIANGLE_ANCHOR_ROWS)))
        assert main(["helly", "--input", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_subsystems_feasible"] and data["full_system_feasible"]

    @pytest.mark.parametrize("body, witness, unique", [
        (CUBE, ["1/2", "1/2", "1/2"], "false"),
        (SYMMETRIC_BODY, ["0", "0", "0"], "false"),
    ], ids=["cube", "symmetric"])
    def test_ak_output(self, tmp_path, capsys, body, witness, unique):
        path = tmp_path / "body.json"
        path.write_text(json.dumps(polytope_to_dict(body)))
        assert main(["ak", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{\n  "feasible": true,\n  "witness": [\n'
            + ",\n".join(f'    "{c}"' for c in witness)
            + f'\n  ],\n  "unique": {unique}\n}}\n')

    @pytest.mark.parametrize("rows, verdicts", [
        ([(["1", "0"], "1"), (["0", "1"], "1"), (["-1", "-1"], "0")], ("true", "true")),
        ([(["1", "0"], "0"), (["-1", "0"], "-1"), (["0", "1"], "0")], ("false", "false")),
        # fewer than n+1 rows, infeasible: decided as any system is
        ([(["1", "0"], "0"), (["-1", "0"], "-1")], ("false", "false")),
        # rank 2 in R^3: no Farkas certificate, the fallback finds it infeasible
        ([(["1", "0", "0"], "0"), (["-1", "0", "0"], "-1"),
          (["0", "1", "0"], "0"), (["0", "-1", "0"], "0")], ("false", "false")),
        (CUBE_ANCHOR_ROWS, ("true", "true")),
        (SYMMETRIC_ANCHOR_ROWS, ("true", "true")),
    ])
    def test_helly_output(self, tmp_path, capsys, rows, verdicts):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(rows)))
        assert main(["helly", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            f'  "all_subsystems_feasible": {verdicts[0]},\n'
            f'  "full_system_feasible": {verdicts[1]}\n'
            "}\n")

    @pytest.mark.parametrize("dim, seed", [(4, 4), (5, 1), (5, 2), (5, 3)])
    def test_helly_on_anchor_systems_fm_refused(self, tmp_path, capsys,
                                                monkeypatch, dim, seed):
        # Fourier-Motzkin refused these with a step-cap error and exit 1
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        system = ak_system(generate(GenSpec("random_hull", dim, vertex_count=8,
                                            seed=seed, denominator_bound=2)))
        rows = [([format_rational(c) for c in h.normal], format_rational(h.rhs))
                for h in system.halfspaces]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(rows)))
        assert main(["helly", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "all_subsystems_feasible": True, "full_system_feasible": True}

    def test_helly_feasible_system_above_the_subset_cap(self, tmp_path, capsys,
                                                         monkeypatch):
        # 36 rows in R^5, 1,947,792 subsets: a feasible system is settled by
        # its vertex, and its one kernel run, 36 rows and the t-row in R^6,
        # may have _max_facets(37, 5) = 1,122 rays, under the cap
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        system = ak_system(generate(GenSpec("random_hull", 5, vertex_count=10,
                                            seed=1, denominator_bound=2)))
        rows = [([format_rational(c) for c in h.normal], format_rational(h.rhs))
                for h in system.halfspaces]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(rows)))
        assert main(["helly", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "all_subsystems_feasible": True, "full_system_feasible": True}

    def test_helly_infeasible_system_above_the_subset_cap(self, tmp_path, capsys,
                                                           monkeypatch):
        # the 36 rows above plus the reverse of the first, moved past it:
        # 2,324,784 subsets, infeasible, and settled by the two conflicting
        # rows; its largest kernel run, 37 rows and the t-row in R^6, may
        # have _max_facets(38, 5) = 1,190 rays, under the cap
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        system = ak_system(generate(GenSpec("random_hull", 5, vertex_count=10,
                                            seed=1, denominator_bound=2)))
        rows = [(h.normal, h.rhs) for h in system.halfspaces]
        w, b = rows[0]
        rows.append((tuple(-c for c in w), -b - 1))
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(
            [([format_rational(c) for c in w], format_rational(b)) for w, b in rows])))
        assert main(["helly", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "all_subsystems_feasible": False, "full_system_feasible": False}

    def test_moment(self, tmp_path, capsys):
        path = self._write_body(tmp_path, TRIANGLE)
        assert main(["moment", "--input", str(path), "--w", "1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["moment"] == "0"
        assert main(["moment", "--input", str(path), "--w", "1,0",
                     "--no-center"]) == 0
        assert json.loads(capsys.readouterr().out)["moment"] == "1/6"

    def test_moment_rational_direction(self, tmp_path, capsys):
        path = self._write_body(tmp_path, SQUARE)
        assert main(["moment", "--input", str(path), "--w", "1/2,2/3"]) == 0
        assert json.loads(capsys.readouterr().out)["moment"] == "0"

    def test_moment_negative_direction(self, tmp_path, capsys):
        # argparse reads "-1,0" as an option; the space-separated form must
        # still take it as the direction
        path = self._write_body(tmp_path, TRIANGLE)
        outs = []
        for w in (["--w", "-1,0"], ["--w=-1,0"]):
            assert main(["moment", "--input", str(path), *w, "--no-center"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["w"] == ["-1", "0"]

    def test_usage_errors_exit_1(self, capsys):
        # exit 2 is kept for a failed proven statement
        with pytest.raises(SystemExit) as stop:
            main(["verify"])
        assert stop.value.code == 1
        assert "the following arguments are required: --input" in capsys.readouterr().err
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0

    def test_missing_file_is_an_error(self, capsys):
        assert main(["verify", "--input", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("command, extra", [
        ("verify", []), ("ak", []), ("moment", ["--w", "1,0"]), ("helly", []),
    ])
    def test_json_numbers_are_an_error(self, tmp_path, capsys, command, extra):
        # the wire format is strings only
        path = tmp_path / "in.json"
        if command == "helly":
            data = {"dim": 2, "rows": [{"w": [1, 0], "beta": 1}]}
        else:
            data = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
        path.write_text(json.dumps(data))
        assert main([command, "--input", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not a rational literal")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, data, extra", [
        ("verify", {"dim": 2, "vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}, []),
        ("ak", {"dim": 2, "vertices": [["0", "0"], ["1", "1/0"], ["0", "1"]]}, []),
        ("moment", {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1/0"]]},
         ["--w", "1,0"]),
        ("moment", {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
         ["--w", "1/0,1"]),
        ("helly", {"dim": 2, "rows": [{"w": ["1", "0"], "beta": "1/0"}]}, []),
        ("verify", [], []),
        ("helly", [], []),
        ("verify", {"dim": 2, "vertices": [1, 2]}, []),
        ("ak", {"dim": 2, "vertices": ["00", "10", "01"]}, []),
        ("helly", {"dim": 2, "rows": [{"w": "10", "beta": "1"}]}, []),
        ("helly", {"dim": 2, "rows": [["1", "0"]]}, []),
        ("verify", {"dim": [2], "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}, []),
    ])
    def test_malformed_files_are_an_error(self, tmp_path, capsys, command, data,
                                          extra):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert main([command, "--input", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_too_many_points_is_an_error(self, tmp_path, capsys, monkeypatch):
        # the hull of 120 points in R^6 may have 266,800 facets
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        path = tmp_path / "in.json"
        curve = [[str(t ** e) for e in range(1, 7)] for t in range(120)]
        path.write_text(json.dumps({"dim": 6, "vertices": curve}))
        assert main(["verify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "266800 possible facets" in err
        assert "GODBERSEN_SUBSET_CAP" in err

    @pytest.mark.parametrize("count, n, volume, mixed", [
        (107, 3, "7877155104", ["15840492756"] * 2),
        (48, 4, "2073120698880", ["5056840469856", "6896410658400", "5056840469856"])])
    def test_verify_the_largest_curves_under_the_subset_cap(
            self, tmp_path, capsys, monkeypatch, count, n, volume, mixed):
        # C(107, 3) = 198,485 and C(48, 4) = 194,580 n-subsets were under
        # the former cap on them; verify still runs the hull and the Cayley
        # polytope of (K, -K), its largest step separating 474,884 and
        # 2,343,950 ray pairs, and prints the same report
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        path = tmp_path / "in.json"
        curve = [[str(t ** e) for e in range(1, n + 1)] for t in range(count)]
        path.write_text(json.dumps({"dim": n, "vertices": curve}))
        assert main(["verify", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["volume"] == volume
        assert [e["mixed"] for e in report["entries"]] == mixed

    def test_gen_and_verify_the_5_cube(self, tmp_path, capsys, monkeypatch):
        # its 32 vertices once gave C(32, 5) = 201,376 subsets, over the cap
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        out = tmp_path / "cube.json"
        assert main(["gen", "--kind", "cube", "--dim", "5", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["vertices"]) == 32
        capsys.readouterr()
        assert main(["verify", "--input", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["volume"] == "1"
        assert all(e["mixed"] == "1" for e in report["entries"])

    def test_verify_refuses_the_5_cube_cayley_run_under_a_low_cap(
            self, tmp_path, capsys, monkeypatch):
        # the hull of its 32 vertices in R^5 may have 812 facets, under a cap
        # of 1000; the Cayley polytope of (K, -K), 64 points in R^6, may have
        # 37,760, over it: the kernel refuses that run before its seed, so
        # the hull's seed is the only one
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        out = tmp_path / "cube.json"
        assert main(["gen", "--kind", "cube", "--dim", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "1000")
        seeds = []
        seed_rays = dd._seed_rays
        monkeypatch.setattr(dd, "_seed_rays", lambda rows: seeds.append(len(rows))
                            or seed_rays(rows))
        assert main(["verify", "--input", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: hull of 64 points in R^6: 37760 possible facets exceed the cap "
            "of 1000; raise GODBERSEN_SUBSET_CAP\n")
        assert seeds == [32]

    def test_gen_refuses_a_count_past_the_conversion_limit(self, tmp_path, capsys,
                                                           monkeypatch):
        # the 20000-cross-polytope's facet bound has 8,291 digits; the cap's
        # message names its size, and no point is made
        monkeypatch.delenv("GODBERSEN_SUBSET_CAP", raising=False)
        monkeypatch.setattr(generators, "_lattice_hull",
                            lambda pts, mult: pytest.fail("points were made"))
        out = tmp_path / "x.json"
        assert main(["gen", "--kind", "cross_polytope", "--dim", "20000",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: hull of 40000 points in R^20000: about 10^8290 possible facets "
            "exceed the cap of 200000; raise GODBERSEN_SUBSET_CAP\n")
        assert not out.exists()

    def test_helly_refused_before_any_seed_under_a_low_cap(
            self, tmp_path, capsys, monkeypatch):
        # the triangle's anchor system: 3 rows and the t-row in R^3 may have
        # _max_facets(4, 2) = 4 rays
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system_dict(TRIANGLE_ANCHOR_ROWS)))
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "3")
        monkeypatch.setattr(dd, "_seed_rays", lambda rows: pytest.fail("kernel ran"))
        assert main(["helly", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: hull of 4 points in R^2: 4 possible facets exceed the cap of 3; "
            "raise GODBERSEN_SUBSET_CAP\n")

    @pytest.mark.parametrize("command, dim", [
        ("verify", True), ("verify", False), ("verify", 1.0), ("helly", True),
        ("verify", "\u0662"), ("verify", "1_0"), ("helly", "\u0661")])
    def test_non_integer_dim_is_an_error(self, tmp_path, capsys, command, dim):
        # a bool is an int in Python; {"dim": true} once loaded as dim 1.
        # int() reads other scripts' digits and underscores, which the
        # format does not admit: "\u0662" once loaded a triangle
        path = tmp_path / "in.json"
        if command == "helly":
            data = {"dim": dim, "rows": [{"w": ["1"], "beta": "1"}]}
        else:
            data = {"dim": dim, "vertices": [["0"], ["1"]]}
        path.write_text(json.dumps(data))
        assert main([command, "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dim must be an integer")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        ("verify", []), ("ak", []), ("moment", ["--w", "1"])])
    def test_dim_zero_is_an_error(self, tmp_path, capsys, command, extra):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 0, "vertices": [[]]}))
        assert main([command, "--input", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: points must have dimension at least 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, data, extra, message", [
        ("verify", {"vertices": [["0"], ["1"]]}, [], 'a polytope file has no "dim"'),
        ("ak", {"dim": 1}, [], 'a polytope file has no "vertices"'),
        ("moment", {"dim": 1}, ["--w", "1"], 'a polytope file has no "vertices"'),
        ("helly", {"rows": []}, [], 'a system file has no "dim"'),
        ("helly", {"dim": 1}, [], 'a system file has no "rows"'),
        ("helly", {"dim": 1, "rows": [{"beta": "1"}]}, [], 'a system row has no "w"'),
        ("helly", {"dim": 1, "rows": [{"w": ["1"]}]}, [], 'a system row has no "beta"'),
    ])
    def test_missing_key_is_named(self, tmp_path, capsys, command, data, extra, message):
        # once the bare KeyError text, "error: 'dim'"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert main([command, "--input", str(path)] + extra) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_wrong_length_normal_is_an_error(self, tmp_path, capsys):
        # the length check is System's, so the file reader and the System
        # constructor give one message
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 2, "rows": [{"w": ["1", "0", "0"], "beta": "1"}]}))
        assert main(["helly", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: halfspace normal of wrong length\n"

    @pytest.mark.parametrize("data, message", [
        ([{"dim": 2}], 'spec row 0 has no "kind"'),
        ([{"kind": "cube", "dim": 2}, {"kind": "cube"}], 'spec row 1 has no "dim"'),
        ({"rows": []}, 'a spec file has no "specs"'),
    ])
    def test_sweep_missing_key_is_named(self, tmp_path, capsys, data, message):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data", [[1], {"specs": 3}, ["x"]])
    def test_malformed_spec_files_are_an_error(self, tmp_path, capsys, data):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_sweep_vertex_count_string(self, tmp_path, capsys):
        # an integer string stands for its int in every integer field
        spec = tmp_path / "specs.json"
        outs = []
        for count in (6, "6", "six"):
            row = {"kind": "random_hull", "dim": 2, "vertex_count": count,
                   "seed": 5, "denominator_bound": 2}
            if count == "6":
                row.update(dim="2", seed="5", denominator_bound="2")
            spec.write_text(json.dumps([row]))
            outs.append(tmp_path / f"{count}-{len(outs)}.csv")
            code = main(["sweep", "--spec", str(spec), "--out", str(outs[-1])])
            assert code == (1 if count == "six" else 0)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_sweep_empty_specs(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps({"specs": []}))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# godbersen-sweep-v1")
        assert lines[1].split(",")[0] == "body_id"
        assert len(lines) == 2

    def test_sweep_deterministic(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps({"specs": [
            {"kind": "simplex", "dim": 2},
            {"kind": "random_hull", "dim": 2, "vertex_count": 6,
             "denominator_bound": 3},
        ]}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out1),
                     "--seed", "42"]) == 0
        assert main(["sweep", "--spec", str(spec), "--out", str(out2),
                     "--seed", "42"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        simplex_row = out1.read_text().splitlines()[2].split(",")
        # ratio 1, tight count n+1, unique anchor: the equality-case row
        assert simplex_row[4] == "1" and simplex_row[5] == "3"
        assert simplex_row[6] == "true"
        out3 = tmp_path / "c.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out3),
                     "--seed", "43"]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_sweep_floats_column(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "cube", "dim": 2}]))
        out = tmp_path / "f.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out),
                     "--floats"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith("ratio_float")
        assert lines[2].endswith("0.5")

    def test_sweep_rejects_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps({"specs": [
            {"kind": "simplex", "dim": 2},
            {"kind": "random_hull", "dim": 2, "vertex_count": 6,
             "coordinate_denominator_bound": 3},
        ]}))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert "'coordinate_denominator_bound'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("dim", 2.7), ("dim", 2.0), ("dim", True), ("dim", None), ("dim", "2.5"),
        ("seed", True), ("seed", 1.5), ("seed", [1]),
        ("vertex_count", 6.0), ("vertex_count", False),
        ("denominator_bound", 2.5), ("denominator_bound", True),
        ("denominator_bound", None),
        ("dim", "\u0662"), ("vertex_count", "1_0"), ("seed", "\u0665"),
    ])
    def test_sweep_rejects_non_integer_field(self, tmp_path, capsys, key, value):
        # a float is not truncated and a bool is not read as 0 or 1; nor is
        # a string read with int()'s other scripts' digits or underscores
        row = {"kind": "random_hull", "dim": 2, "vertex_count": 6, "seed": 5,
               "denominator_bound": 2}
        row[key] = value
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([row]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_keeps_going_past_a_refused_cayley_run(self, tmp_path, capsys,
                                                         monkeypatch):
        # under a cap of 1000 the 5-cube's hull (bound 812) is built, but the
        # Cayley run of its report (bound 37,760) is refused: the cube gets
        # one error row with its 32 vertices, and the sweep goes on
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "1000")
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "simplex", "dim": 2},
                                    {"kind": "cube", "dim": 5}]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(
            "bodies=2 rows=2 errors=1 observations=0 violations=0\n")
        lines = out.read_text().splitlines()[2:]
        assert [line.split(",")[:4] for line in lines] == [
            ["0000-simplex-n2", "2", "3", "1"], ["0001-cube-n5", "5", "32", "0"]]
        assert lines[1].endswith(
            ",,0,false,false,false,CombinatorialBlowup: hull of 64 points in R^6: "
            "37760 possible facets exceed the cap of 1000; raise GODBERSEN_SUBSET_CAP")

    def test_sweep_row_of_a_refused_generation_has_no_vertices(
            self, tmp_path, capsys, monkeypatch):
        # under the same cap the 6-cube's hull (bound 37,760) is refused, so
        # no body is built and its error row counts 0 vertices
        monkeypatch.setenv("GODBERSEN_SUBSET_CAP", "1000")
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "cube", "dim": 6}]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(
            "bodies=1 rows=1 errors=1 observations=0 violations=0\n")
        assert out.read_text().splitlines()[2:] == [
            "0000-cube-n6,6,0,0,,0,false,false,false,CombinatorialBlowup: hull of "
            "64 points in R^6: 37760 possible facets exceed the cap of 1000; "
            "raise GODBERSEN_SUBSET_CAP"]

    def test_sweep_jobs_match_serial(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps({"specs": [
            {"kind": "random_hull", "dim": 2, "vertex_count": 6, "seed": 5},
            {"kind": "random_hull", "dim": 2, "vertex_count": 6, "seed": 6},
            {"kind": "simplex", "dim": 3},
        ]}))
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(serial)]) == 0
        assert main(["sweep", "--spec", str(spec), "--out", str(parallel),
                     "--jobs", "3"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        # no silent serial run
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "simplex", "dim": 2}]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err and "Traceback" not in err
        assert not out.exists()

    def _flag_argv(self, tmp_path, command, flag, value, name="out"):
        """A ``command`` line that runs with the integer ``flag`` at ``value``
        and writes to ``name`` under ``tmp_path``."""
        out = str(tmp_path / name)
        if command == "verify":
            return ["verify", "--input", str(self._write_body(tmp_path, TRIANGLE)),
                    flag, value]
        if command == "gen":
            flags = {"--dim": "2", "--vertices": "6", "--seed": "3",
                     "--denominator-bound": "1", flag: value}
            return ["gen", "--kind", "random_hull", *sum(flags.items(), ()), "--out", out]
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "random_hull", "dim": 2, "vertex_count": 5}]))
        flags = {"--jobs": "1", "--seed": "0", flag: value}
        return ["sweep", "--spec", str(spec), *sum(flags.items(), ()), "--out", out]

    @pytest.mark.parametrize("command, flag, signed", [
        ("gen", "--dim", "+3"), ("gen", "--vertices", "+7"), ("gen", "--seed", "-5"),
        ("gen", "--denominator-bound", "+2"), ("verify", "--j", "+1"),
        ("sweep", "--jobs", "+1"), ("sweep", "--seed", "-4")])
    def test_integer_flags_are_read_as_file_fields(self, tmp_path, capsys, command,
                                                   flag, signed):
        # one rule for every integer field: "1_0" and "٢", which int()
        # reads, are usage errors (exit 1, one usage line); a sign is read
        for value in ("1_0", "\u0662"):
            with pytest.raises(SystemExit) as stop:
                main(self._flag_argv(tmp_path, command, flag, value))
            assert stop.value.code == 1
            err = capsys.readouterr().err
            assert err.count("usage:") == 1 and "Traceback" not in err
            assert err.endswith(f"error: argument {flag}: invalid integer value: "
                                f"'{value}'\n")
        outputs = []
        for value, name in ((signed, "a"), (str(int(signed)), "b")):
            assert main(self._flag_argv(tmp_path, command, flag, value, name)) == 0
            written = tmp_path / name
            outputs.append((capsys.readouterr().out.replace(str(written), "OUT"),
                            written.read_bytes() if written.exists() else None))
        assert outputs[0] == outputs[1]

    def test_theorem_violation_exits_2(self, tmp_path, monkeypatch, capsys):
        # the proven statements cannot fail on real inputs, so force one to
        # pin down the exit-code contract
        from godbersen.errors import TheoremViolation

        path = self._write_body(tmp_path, TRIANGLE)

        def boom(*args, **kwargs):
            raise TheoremViolation("forced for the exit-code test")

        monkeypatch.setattr("godbersen.cli.godbersen_report", boom)
        assert main(["verify", "--input", str(path)]) == 2

        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "simplex", "dim": 2}]))
        # the package re-exports a function named sweep, so reach the module
        # through sys.modules
        import sys

        monkeypatch.setattr(sys.modules["godbersen.sweep"], "check_body", boom)
        assert main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_gen_rejects_vertices_for_a_fixed_kind(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["gen", "--kind", "cube", "--dim", "3", "--vertices", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: cube takes no vertex_count; only the random kinds do\n"
        assert not out.exists()
        assert main(["gen", "--kind", "random_hull", "--dim", "3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: random_hull needs a vertex_count\n"

    def test_sweep_rejects_vertex_count_for_a_fixed_kind(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "simplex", "dim": 2},
                                    {"kind": "cube", "dim": 3, "vertex_count": 5}]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cube takes no vertex_count")
        assert not out.exists()

    def test_gen_rejects_a_denominator_bound_for_a_fixed_kind(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["gen", "--kind", "cube", "--dim", "3", "--denominator-bound", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: cube takes no denominator_bound; only the random "
                       "kinds do\n")
        assert not out.exists()
        assert main(["gen", "--kind", "cube", "--dim", "3", "--denominator-bound", "1",
                     "--out", str(out)]) == 0

    def test_sweep_rejects_a_denominator_bound_for_a_fixed_kind(self, tmp_path, capsys):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([{"kind": "simplex", "dim": 2},
                                    {"kind": "cross_polytope", "dim": 3,
                                     "denominator_bound": 2}]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cross_polytope takes no denominator_bound")
        assert not out.exists()

    def test_gen_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "random_hull", "--dim", "2", "--vertices", "8",
                "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_spec_rows_are_read_by_polyio():
    # a list or a {"specs": list}; a row without a seed takes the base seed
    # times 1,000,003 plus its index; integer fields may be strings
    rows = [{"kind": "random_hull", "dim": 2, "vertex_count": "5"},
            {"kind": "cube", "dim": 3, "seed": 7}]
    want = [GenSpec("random_hull", 2, 5, seed=2 * 1_000_003, denominator_bound=1),
            GenSpec("cube", 3, None, seed=7, denominator_bound=1)]
    assert specs_from_dict(rows, 2) == specs_from_dict({"specs": rows}, 2) == want
    with pytest.raises(ValueError, match="spec row 1 has unknown keys"):
        specs_from_dict([rows[0], {**rows[1], "size": 2}], 0)
    # the wire formats' field checks stay in polyio
    assert not {"_checked", "_field", "_integer"} & set(vars(cli))


# No reader or command shows a traceback: arbitrary JSON values and near-miss
# files (wrong shapes, JSON numbers and bools, "1_0", "٢", zero and
# negative dims, mismatched lengths) and near-miss integer flags exit 0, 1 or
# 2.  Dims stay at most 4 with at most 10 points, so every run is small.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(-10, 10, allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "vertices", "rows", "w", "beta", "specs",
                                       "kind", "x"]), inner, max_size=3),
    max_leaves=10)
RATIONALS = st.integers(-3, 3).map(str) | st.sampled_from(["1/2", "-3/4", "4/2"])
NEAR_INTEGERS = st.sampled_from(
    [0, -1, "0", "-2", "1_0", "٢", "", "x", True, 2.0, None, [2]])
NEAR_RATIONALS = st.sampled_from(["1/0", "0.5", "1_0", "٢", "", 1, True, None, [1]])
INTEGER_FLAGS = st.sampled_from(["1", "+1", "2", "0", "-1", "1_0", "٢", "x", ""])


def _spoiled(draw, data: dict, lists: str, inner: str | None = None):
    """``data`` as drawn, or with one near miss: its dim, or a value of one
    entry of ``data[lists]`` (of its ``inner`` list, if given) replaced, the
    entry shortened or lengthened, or replaced by an arbitrary value."""
    if draw(st.booleans()):
        return data
    how = draw(st.sampled_from(["dim", "value", "length", "entry"]))
    entries = data[lists]
    if how == "dim":
        data["dim"] = draw(NEAR_INTEGERS)
    elif entries:
        i = draw(st.integers(0, len(entries) - 1))
        if how == "entry":
            entries[i] = draw(JSON_VALUES)
            return data
        target = entries[i] if inner is None else entries[i][inner]
        if how == "value":
            target[draw(st.integers(0, len(target) - 1))] = draw(NEAR_RATIONALS)
        elif len(target) > 1 and draw(st.booleans()):
            target.pop()
        else:
            target.append("1")
    return data


@st.composite
def polytope_files(draw):
    """An arbitrary JSON value, or a polytope file of at most 10 points in
    R^1 to R^4, perhaps with one near miss."""
    if not draw(st.integers(0, 2)):
        return draw(JSON_VALUES)
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n),
                           min_size=n + 1, max_size=10))
    return _spoiled(draw, {"dim": n, "vertices": points}, "vertices")


@st.composite
def system_files(draw):
    """An arbitrary JSON value, or a system file of at most 6 rows in R^1 to
    R^4, perhaps with one near miss."""
    if not draw(st.integers(0, 2)):
        return draw(JSON_VALUES)
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.fixed_dictionaries({
        "w": st.lists(RATIONALS, min_size=n, max_size=n), "beta": RATIONALS}),
        min_size=1, max_size=6))
    return _spoiled(draw, {"dim": n, "rows": rows}, "rows", "w")


@st.composite
def spec_files(draw):
    """An arbitrary JSON value, or a spec list of at most 3 rows in dims 2
    to 4 drawing at most 10 points, one field perhaps a near miss."""
    if not draw(st.integers(0, 2)):
        return draw(JSON_VALUES)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        kind, dim = draw(st.sampled_from(KINDS)), draw(st.integers(2, 4))
        row = {"kind": kind, "dim": dim, "seed": draw(st.integers(-3, 3))}
        if kind.startswith("random"):
            row["vertex_count"] = draw(st.integers(dim + 1, 5))
        rows.append(row)
    if rows and draw(st.booleans()):
        key = draw(st.sampled_from(["kind", "dim", "vertex_count", "seed",
                                    "denominator_bound", "size"]))
        rows[-1][key] = draw(NEAR_INTEGERS | st.just("sphere"))
    return {"specs": rows} if draw(st.booleans()) else rows


def _run_cli(argv) -> int:
    """``main(argv)``'s exit code, its usage errors included, with no
    traceback on stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code


def _write(path, data) -> str:
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=120)
@given(data=polytope_files() | st.sampled_from(["", "{", "[1,", "null"]),
       command=st.sampled_from(["verify", "ak", "moment"]),
       j=st.just([]) | INTEGER_FLAGS.map(lambda j: ["--j", j]),
       w=st.sampled_from(["fit"] * 4 + ["1,0", "1/2,1,0", "0,0", "1_0,1", "x"]))
def test_polytope_commands_show_no_traceback(tmp_path_factory, data, command, j, w):
    # "fit" is a direction of the file's dim, when that is a positive int
    dim = data.get("dim") if isinstance(data, dict) else None
    if w == "fit":
        w = ",".join(["-1"] + ["1/2"] * (dim - 1)) if type(dim) is int and dim > 0 else "1"
    path = _write(tmp_path_factory.mktemp("fuzz") / "body.json", data)
    extra = {"verify": j, "ak": [], "moment": ["--w", w]}[command]
    code = _run_cli([command, "--input", path] + extra)
    try:
        body = polytope_from_dict(data)
    except (GodbersenError, ValueError):
        return
    assert code == 0 or command != "ak"
    assert polytope_from_dict(polytope_to_dict(body)) == body


@FUZZ
@given(data=system_files())
def test_helly_shows_no_traceback(tmp_path_factory, data):
    path = _write(tmp_path_factory.mktemp("fuzz") / "system.json", data)
    _run_cli(["helly", "--input", path])


@FUZZ
@given(data=spec_files(), jobs=st.just([]) | INTEGER_FLAGS.map(lambda v: ["--jobs", v]),
       seed=st.just([]) | INTEGER_FLAGS.map(lambda v: ["--seed", v]))
def test_sweep_shows_no_traceback(tmp_path_factory, data, jobs, seed):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = _write(tmp / "specs.json", data)
    _run_cli(["sweep", "--spec", path, "--out", str(tmp / "out.csv"), *jobs, *seed])


@FUZZ
@given(kind=st.sampled_from(list(KINDS) + ["sphere"]),
       flags=st.fixed_dictionaries(
           {"--dim": st.sampled_from(["2", "+3", "4", "0", "-1", "1_0", "٢", "x"]),
            "--seed": INTEGER_FLAGS},
           optional={"--vertices": st.sampled_from(["5", "+6", "0", "1_0"]),
                     "--denominator-bound": INTEGER_FLAGS}))
def test_gen_integer_flags_show_no_traceback(tmp_path_factory, kind, flags):
    out = tmp_path_factory.mktemp("fuzz") / "body.json"
    argv = ["gen", "--kind", kind, "--out", str(out)]
    for flag, value in flags.items():
        argv += [flag, value]
    if _run_cli(argv) == 0:
        data = json.loads(out.read_text())
        assert polytope_to_dict(polytope_from_dict(data)) == data
