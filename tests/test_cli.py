"""CLI subcommands: JSON shapes, exit codes, SVG output."""

import json

import pytest

from markov_morse.harness import StabilityReport
from markov_morse.cli import main

from conftest import WORKED_CSV


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text(WORKED_CSV)
    return str(path)


@pytest.fixture
def matrix_json_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        '{"states": ["N1", "N2", "N3"],'
        ' "matrix": [[0.5, 0.17, 0.33], [0.17, 0.6, 0.23], [0.15, 0.15, 0.7]]}'
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholds:
    def test_golden_grid(self, capsys, matrix_file):
        code, out, _ = run(capsys, "thresholds", matrix_file)
        assert code == 0
        assert json.loads(out) == {"grid": [0.0, 0.15, 0.17, 0.23, 0.33]}

    def test_json_input(self, capsys, matrix_json_file):
        code, out, _ = run(capsys, "thresholds", matrix_json_file)
        assert code == 0
        assert json.loads(out)["grid"] == [0.0, 0.15, 0.17, 0.23, 0.33]


class TestMvf:
    def test_partition_at_gamma(self, capsys, matrix_file):
        code, out, _ = run(capsys, "mvf", matrix_file, "--gamma", "0.15")
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma"] == 0.15
        assert obj["multivectors"] == [
            ["N1"],
            ["N2"],
            ["N3", "N1-N3", "N2-N3"],
            ["N1-N2"],
        ]


class TestMorse:
    def test_sets_indices_order(self, capsys, matrix_file):
        code, out, _ = run(capsys, "morse", matrix_file, "--gamma", "0.15")
        assert code == 0
        obj = json.loads(out)
        assert obj["morse_sets"] == [
            {"label": "N1", "cells": ["N1"], "index": [0, 0]},
            {"label": "N2", "cells": ["N2"], "index": [0, 0]},
            {"label": "N3", "cells": ["N3", "N1-N3", "N2-N3"], "index": [0, 1]},
            {"label": "N1-N2", "cells": ["N1-N2"], "index": [0, 1]},
        ]
        assert sorted(map(tuple, obj["order"])) == [
            ("N1-N2", "N1"),
            ("N1-N2", "N2"),
            ("N3", "N1"),
            ("N3", "N2"),
        ]


class TestDiagram:
    def test_diagram_json(self, capsys, matrix_file):
        code, out, _ = run(capsys, "diagram", matrix_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["grid"] == [0.0, 0.15, 0.17, 0.23, 0.33]
        assert {"birth": 0.23, "death": "inf", "index": [1, 1]} in obj["points"]
        assert len(obj["points"]) == 7

    def test_svg_render(self, capsys, matrix_file, tmp_path):
        svg_path = tmp_path / "out.svg"
        code, out, err = run(capsys, "diagram", matrix_file, "--svg", str(svg_path))
        assert code == 0
        assert json.loads(out)["points"]  # JSON still on stdout
        assert "out.svg" in err  # diagnostics on stderr
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert "&#8734;" in svg  # infinity rail label
        assert "index (1, 1)" in svg  # legend carries the classes
        assert svg.count("<circle") >= 1


class TestBottleneck:
    def test_self_distance_zero(self, capsys, matrix_file):
        code, out, _ = run(capsys, "bottleneck", matrix_file, matrix_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["distance"] == 0.0
        assert all(pair["cost"] == 0.0 for pair in obj["matching"])

    def test_matrix_against_its_diagram_json(self, capsys, matrix_file, tmp_path):
        code, out, _ = run(capsys, "diagram", matrix_file)
        diagram_path = tmp_path / "d.json"
        diagram_path.write_text(out)
        code, out, _ = run(capsys, "bottleneck", matrix_file, str(diagram_path))
        assert code == 0
        assert json.loads(out)["distance"] == 0.0

    def test_perturbed_distance(self, capsys, matrix_file, tmp_path):
        perturbed = tmp_path / "q.csv"
        perturbed.write_text("# N1,N2,N3\n0.49,0.18,0.33\n0.17,0.6,0.23\n0.15,0.15,0.7\n")
        code, out, _ = run(capsys, "bottleneck", matrix_file, str(perturbed))
        assert code == 0
        obj = json.loads(out)
        assert obj["distance"] == pytest.approx(0.01, abs=1e-12)
        pairs = [m["pair"] for m in obj["matching"]]
        assert all(len(p) == 2 for p in pairs)


    def test_shrunk_stability_counterexample(self, capsys, tmp_path):
        # TestShrunkStabilityCounterexample in test_harness.py: Q is P with
        # p21 += 0.02 compensated on the diagonal, and d_B exceeds that edit
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("# N1,N2,N3,N4\n0.98,0,0.02,0\n0.003,0.297,0.4,0.3\n0.2,0.4,0.4,0\n0.2,0.3,0,0.5\n")
        q.write_text(
            "# N1,N2,N3,N4\n0.98,0,0.02,0\n0.023,0.27699999999999997,0.4,0.3\n0.2,0.4,0.4,0\n0.2,0.3,0,0.5\n"
        )
        code, out, _ = run(capsys, "bottleneck", str(p), str(q))
        assert code == 0
        assert repr(json.loads(out)["distance"]) == "0.023"

    def test_overflowing_span_has_a_finite_distance(self, capsys, tmp_path):
        # death - birth overflows, yet the point's way to the diagonal costs 1e308
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"grid": [0.0], "points": [{"birth": -1e308, "death": 1e308, "index": [0, 1]}]}))
        b.write_text(json.dumps({"grid": [0.0], "points": []}))
        code, out, _ = run(capsys, "bottleneck", str(a), str(b))
        assert code == 0
        obj = json.loads(out)
        assert obj["distance"] == 1e308
        assert [(m["pair"], m["cost"]) for m in obj["matching"]] == [(["a0", "diag"], 1e308)]

    def test_subnormal_points_return(self, capsys, tmp_path, bounded_search):
        # the radius search returns on subnormal radii
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, points in [
            (a, [(5e-324, 2e-323)]),
            (b, [(0.0, 1e-323), (5e-324, 1.5e-323), (5e-324, 2e-323), (1e-323, 1.5e-323), (1e-323, 2.5e-323)]),
        ]:
            rows = [{"birth": birth, "death": death, "index": [0, 1]} for birth, death in points]
            path.write_text(json.dumps({"grid": [0.0], "points": rows}))
        code, out, _ = run(capsys, "bottleneck", str(a), str(b))
        assert code == 0
        assert json.loads(out)["distance"] == 1e-323

    def test_duplicate_points_get_their_own_ids(self, capsys, tmp_path):
        point = {"birth": 0.0, "death": 1.0, "index": [0, 0]}
        twice, once = tmp_path / "twice.json", tmp_path / "once.json"
        twice.write_text(json.dumps({"grid": [0.0, 1.0], "points": [point, point]}))
        once.write_text(json.dumps({"grid": [0.0, 1.0], "points": [point]}))
        for a, b, lefts, rights in [
            (twice, once, ["a0", "a1"], ["b0", "diag"]),
            (once, twice, ["a0", "diag"], ["b0", "b1"]),
        ]:
            code, out, _ = run(capsys, "bottleneck", str(a), str(b))
            assert code == 0
            obj = json.loads(out)
            assert obj["distance"] == 0.5
            assert sorted(m["pair"][0] for m in obj["matching"]) == lefts
            assert sorted(m["pair"][1] for m in obj["matching"]) == rights


class TestStabilityCommand:
    def test_random_chains_clean(self, capsys):
        code, out, _ = run(
            capsys, "stability", "--random", "4,0.8", "--trials", "5", "--seed", "9"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "single"
        assert obj["violations"] == 0
        assert len(obj["records"]) == 5

    def test_multi_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "stability", "--random", "4", "--trials", "3", "--multi", "2", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "multi"

    def test_fixed_matrix(self, capsys, matrix_file):
        code, out, _ = run(capsys, "stability", matrix_file, "--trials", "3", "--seed", "2")
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_matrix_and_random_together_is_usage_error(self, capsys, matrix_file):
        code, _, err = run(
            capsys, "stability", matrix_file, "--random", "4", "--trials", "2"
        )
        assert code == 1
        assert "error" in err

    def test_violation_exit_code(self, capsys, monkeypatch, matrix_file):
        # wire-level check: a report carrying violations must exit 3
        fake = StabilityReport("single", 1, 1, 2.0, (), ())
        monkeypatch.setattr("markov_morse.cli.stability_trials", lambda *a, **k: fake)
        code, _, err = run(capsys, "stability", matrix_file, "--trials", "1")
        assert code == 3
        assert "violation" in err

    def test_pinned_counterexample_exits_3(self, capsys):
        # the n=8 chain on which one compensated edit moves the diagram by more
        # than the edit (see TestKnownStabilityCounterexample in test_harness.py)
        code, out, err = run(
            capsys, "stability", "--random", "8,0.7", "--trials", "1", "--seed", "1637403276"
        )
        assert code == 3
        assert "1 violation" in err
        (record,) = json.loads(out)["records"]
        assert repr(record["d_b"]) == "0.017983687388272256"
        assert repr(record["bound"]) == "0.016519472107721127"
        assert record["violation"] is True


class TestPropertiesCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(
            capsys, "properties", "--random", "4,0.7", "--trials", "4", "--seed", "3"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["violations"] == 0
        assert set(obj["checks"]) == {"static_route", "containment", "diagram_shape"}
        assert all(count > 0 for count in obj["checks"].values())


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "thresholds", "/does/not/exist.csv")
        assert code == 2
        assert "error" in err

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.5,0.5\n")
        code, _, err = run(capsys, "thresholds", str(bad))
        assert code == 2
        assert "not a number" in err

    def test_nonstochastic_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.6\n0.5,0.5\n")
        code, _, err = run(capsys, "thresholds", str(bad))
        assert code == 2
        assert "row" in err

    def test_matrix_entry_beyond_float_range(self, capsys, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"matrix": [[%d]]}' % 10**401)
        code, out, err = run(capsys, "thresholds", str(bad))
        assert code == 2
        assert out == ""
        assert "too large for a float" in err

    @pytest.mark.parametrize(
        "grid, point, message",
        [
            ([0.0], {"birth": 10**401}, "point 0: birth must be a finite number"),
            ([0.0, 10**401], {}, "grid must be a list of finite numbers"),
            ([0.0], {"index": [-1, 0]}, "point 0: index must be a pair of ints >= 0"),
            ([0.0], {"birth": 0.4, "death": 0.2}, "point 0: death 0.2 must exceed birth 0.4"),
            ([0.1, 0.2], {}, "grid must start at 0.0"),
            ([0.0, 0.3, 0.2], {}, "grid values must be strictly increasing"),
        ],
        ids=[
            "huge_birth",
            "huge_grid_value",
            "negative_index",
            "death_below_birth",
            "grid_not_from_0",
            "grid_not_increasing",
        ],
    )
    def test_out_of_range_diagram_field(self, capsys, tmp_path, grid, point, message):
        bad = tmp_path / "d.json"
        fields = {"birth": 0.0, "death": "inf", "index": [0, 0], **point}
        bad.write_text(json.dumps({"grid": grid, "points": [fields]}))
        code, out, err = run(capsys, "bottleneck", str(bad), str(bad))
        assert code == 2
        assert out == ""
        assert message in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_argument(self, capsys, matrix_file):
        code, _, _ = run(capsys, "mvf", matrix_file)  # no --gamma
        assert code == 1

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    @pytest.mark.parametrize("command", ["mvf", "morse"])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_non_finite_gamma(self, capsys, matrix_file, command, gamma):
        code, out, err = run(capsys, command, matrix_file, "--gamma", gamma)
        assert code == 2
        assert out == ""
        assert "gamma must be finite" in err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-1", "0"])
    def test_bad_stability_delta(self, capsys, matrix_file, delta):
        code, out, err = run(capsys, "stability", matrix_file, "--trials", "1", "--delta", delta)
        assert code == 2
        assert out == ""
        assert "delta_cap must be finite and > 0" in err

    @pytest.mark.parametrize(
        "spec, extra, message",
        [
            ("3", ["--multi", "100"], "n_entries=100"),
            ("1", [], "n_entries=1"),
            ("2,0", [], "could not sample feasible perturbations"),
        ],
    )
    def test_impossible_random_perturbation(self, capsys, spec, extra, message):
        code, out, err = run(capsys, "stability", "--random", spec, "--trials", "1", *extra)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--random", "4", "--trials", "1", "--seed", "-1"],
            ["stability", "MATRIX", "--trials", "1", "--seed", "-1"],
            ["properties", "--random", "4", "--trials", "1", "--seed", "-3"],
        ],
    )
    def test_negative_seed(self, capsys, matrix_file, argv):
        argv = [matrix_file if a == "MATRIX" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("command", ["stability", "properties"])
    @pytest.mark.parametrize(
        "spec", ["3,0.5,junk", "3,0.5,", "x", "2.5", "", "3,y", "3,", "0", "3,1.5", "3,nan"]
    )
    def test_bad_random_spec(self, capsys, command, spec):
        code, out, err = run(capsys, command, "--random", spec, "--trials", "1")
        assert code == 2
        assert out == ""
        assert "--random" in err

    @pytest.mark.parametrize("command", ["stability", "properties"])
    def test_unbuildable_random_size(self, capsys, command):
        # refused while parsing --random, before any matrix is allocated
        code, out, err = run(capsys, command, "--random", "100000", "--trials", "1")
        assert code == 2
        assert out == ""
        assert "--random '100000': n=100000 exceeds 4096 states" in err

    def test_malformed_diagram_json(self, capsys, matrix_file, tmp_path):
        bad = tmp_path / "d.json"
        bad.write_text('{"grid": [0.0], "points": [{"birth": 0.0, "death": "inf", "index": [0]}]}')
        code, out, err = run(capsys, "bottleneck", matrix_file, str(bad))
        assert code == 2
        assert out == ""
        assert "index must be a pair of ints" in err

    def test_bare_array_json_is_refused_alike(self, capsys, tmp_path):
        # a .json file is JSON to every command: a bare array is not a matrix
        # object, and bottleneck says so as thresholds does, not as a CSV
        bare = tmp_path / "arr.json"
        bare.write_text("[[0.5, 0.5], [0.5, 0.5]]")
        results = [run(capsys, "thresholds", str(bare)), run(capsys, "bottleneck", str(bare), str(bare))]
        assert [(code, out) for code, out, _ in results] == [(2, ""), (2, "")]
        assert results[0][2] == results[1][2] == 'error: expected an object with a "matrix" key\n'

    def test_array_text_is_json_whatever_the_name(self, capsys, tmp_path):
        # a leading "[" makes the file JSON, as a leading "{" does
        bare = tmp_path / "arr.txt"
        bare.write_text("[[0.5, 0.5], [0.5, 0.5]]")
        code, out, err = run(capsys, "bottleneck", str(bare), str(bare))
        assert (code, out) == (2, "")
        assert err == 'error: expected an object with a "matrix" key\n'

    def test_each_input_file_is_decoded_once(self, capsys, monkeypatch, tmp_path, matrix_file, matrix_json_file):
        diagram = tmp_path / "d.json"
        assert main(["diagram", matrix_file]) == 0
        diagram.write_text(capsys.readouterr().out)
        loads, calls = json.loads, []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        code, _, _ = run(capsys, "bottleneck", str(diagram), matrix_json_file)
        assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "command, wrap",
        [
            ("thresholds", "{}"),
            ("thresholds", '{{"matrix": {}}}'),
            ("diagram", "{}"),
            ("diagram", '{{"points": {}}}'),
            ("bottleneck", '{{"points": {}}}'),
            ("bottleneck", '{{"matrix": {}}}'),
        ],
        ids=[
            "thresholds-bare",
            "thresholds-matrix",
            "diagram-bare",
            "diagram-points",
            "bottleneck-points",
            "bottleneck-matrix",
        ],
    )
    def test_deeply_nested_json(self, capsys, matrix_file, tmp_path, command, wrap):
        # the JSON decoder recurses once per level; the input is refused, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text(wrap.format("[" * 100000 + "]" * 100000))
        extra = [matrix_file] if command == "bottleneck" else []
        code, out, err = run(capsys, command, str(deep), *extra)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("bottleneck", "x" * 50000),
            ("thresholds", '{"matrix": [["' + "x" * 50000 + '"]]}'),
            ("bottleneck", '{"grid": [0.0], "points": "' + "x" * 50000 + '"}'),
        ],
        ids=["csv-token", "matrix-field", "points-field"],
    )
    def test_long_bad_value_is_not_echoed_whole(self, capsys, matrix_file, tmp_path, command, text):
        # the message names the bad value by its first characters only
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        extra = [matrix_file] if command == "bottleneck" else []
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == 2
        assert out == ""
        assert len(err.encode()) < 1024
        assert "..." in err

