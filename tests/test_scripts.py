"""The scripts under scripts/ import, and the library names they reach into still work.

The scripts use private names of `markov_morse.bottleneck`, so a rename there
fails here rather than at the next measurement. `scale_table.measure`, the
row behind README's filtration table, runs once on a small chain, and its
two-checkout form, `bottleneck_scale`'s on the n=100 chain pair and
`ab_items` (for a moment on `match`) run with this checkout on both sides.
"""

import importlib
from pathlib import Path

import pytest

import markov_morse as mm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module


@pytest.mark.parametrize("name", sorted(path.stem for path in SCRIPTS.glob("*.py")))
def test_imports(scripts, name):
    scripts(name)


def test_route_crossover_solves_a_class_on_every_route(scripts):
    crossover = scripts("route_crossover")
    A, B = crossover.class_pair(25, near=True, one_birth=True)
    for report in (False, True):
        results = [crossover.solve(route, A, B, report) for route in crossover.ROUTES.values()]
        assert results == [results[0]] * len(crossover.ROUTES)
    assert len(results[0][1]) >= 25


def test_route_crossover_counts_each_routes_probes(scripts):
    crossover = scripts("route_crossover")
    A, B = crossover.class_pair(25, near=True, one_birth=True)
    counts = {name: crossover.probes(route, A, B) for name, route in crossover.ROUTES.items()}
    assert all(count >= 1 for count in counts.values())
    row = crossover.row(25, near=True, one_birth=True)
    assert row.count("|") == 16  # 15 columns
    assert row.split(" | ")[6:9] == [str(counts[name]) for name in crossover.ROUTES]


def test_ab_items_times_this_checkout_against_itself(scripts, capsys):
    root = str(SCRIPTS.parent)
    assert scripts("ab_items").main([root, root, "match", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "match at seed 1: " in out and "every summary equal" in out


def test_ab_items_takes_the_held_out_seed(scripts, capsys):
    root = str(SCRIPTS.parent)
    assert scripts("ab_items").main([root, root, "match", "0.2", "2"]) == 0
    out = capsys.readouterr().out
    assert "match at seed 2: " in out and "every summary equal" in out


def test_bottleneck_scale_builds_the_independent_pair(scripts):
    D1, D2 = scripts("bottleneck_scale").independent_pair(mm, 50)
    assert len(D1.points) == len(D2.points) == 50
    assert {tuple(p.index) for p in D1.points + D2.points} == {(0, 1)}


def test_bottleneck_scale_builds_a_class_pair(scripts):
    # the line10000 pair's kind, at 50 points a side: one class, one birth, each side in diagram order
    A, B = scripts("route_crossover").class_pair(50, near=True, one_birth=True)
    assert A == sorted(A) and B == sorted(B)
    D1, D2 = scripts("bottleneck_scale").class_diagrams(mm, 50, near=True, one_birth=True)
    assert [p[:2] for p in D1.points] == [p[:2] for p in A] and [p[:2] for p in D2.points] == [p[:2] for p in B]
    assert {p.index for p in D1.points + D2.points} == {(0, 1)} and {p.birth for p in D1.points + D2.points} == {0.0}
    line = scripts("route_crossover").ROUTES["line"]
    assert scripts("route_crossover").solve(line, A, B, False)[0] == mm.bottleneck_distance(D1, D2)


def test_bottleneck_scale_compares_this_checkout_against_itself(scripts, capsys):
    root = str(SCRIPTS.parent)
    assert scripts("bottleneck_scale").main([root, root, "n100"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| n100 |")]
    assert len(rows) == 2 and all(row.count(" / ") == 3 for row in rows)
    assert [row.split(" | ")[3] for row in rows] == ["`bottleneck_distance`", "`bottleneck_matching`"]


def test_scale_table_measures_a_small_chain(scripts):
    row = scripts("scale_table").measure(8)
    F = mm.run_filtration(mm.random_chain(mm.RandomChainSpec(8, 0.7, 1)))
    assert row["n"] == 8 and row["grid_values"] == len(F.grid)
    assert row["filtration_s"] > 0 and row["diagram_s"] > 0 and row["peak_mb"] > 0
    assert 0 <= row["gc_s"] < row["filtration_s"] and row["traced_mib"] > 0


def test_scale_table_compares_this_checkout_against_itself(scripts, capsys):
    root = str(SCRIPTS.parent)
    scripts("scale_table").main([root, root, "8", "12"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("| 8 |", "| 12 |"))]
    assert len(rows) == 2 and all(row.count(" / ") == 3 for row in rows)
    load = scripts("ab_items").load
    package = SCRIPTS.parent / "src" / "markov_morse"
    libs = {side: load(f"{side}_markov_morse", package, package=True) for side in ("parent", "change")}
    row = scripts("scale_table").compare(libs, 8)
    for side in ("parent", "change"):
        assert row[side]["filtration_s"] > 0 and 0 <= row[side]["gc_s"] and row[side]["traced_mib"] > 0
