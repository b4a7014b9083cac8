"""Filtration stages, containment tracking, and diagram extraction."""

import copy
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_morse import (
    PersistenceDiagram,
    PerturbationSpec,
    RandomChainSpec,
    TransitionMatrix,
    bottleneck_matching,
    build_diagram,
    diagram_from_json,
    diagram_to_json,
    perturb,
    random_chain,
    run_filtration,
    threshold_grid,
)
from markov_morse.harness import containment_map
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import ThresholdGrid
from markov_morse.persistence import PersistencePoint

from conftest import E, V
from test_event_sweep import weight_rows, weighted_chain

INF = math.inf


def pt(birth, death, h1, c1):
    return PersistencePoint(birth, death, TopologicalIndex(h1, c1))


def as_multiset(diagram):
    return sorted((p.birth, p.death, tuple(p.index)) for p in diagram.points)


# Four states: a triangle cycle closing at 0.2 while state 4 hangs on by two
# stiffer edges that only give way at 0.4, where a second independent cycle
# appears. Exercises mid-filtration births that later die.
TWO_CYCLE_ROWS = [
    [0.2, 0.2, 0.2, 0.4],
    [0.2, 0.2, 0.2, 0.4],
    [0.2, 0.2, 0.6, 0.0],
    [0.4, 0.4, 0.0, 0.2],
]


class TestRunFiltration:
    def test_stage_gammas_follow_grid(self, worked_matrix):
        F = run_filtration(worked_matrix)
        assert [s.gamma for s in F.stages] == list(threshold_grid(worked_matrix))

    def test_worked_example_stage_shapes(self, worked_matrix):
        F = run_filtration(worked_matrix)
        assert [len(s.morse_sets) for s in F.stages] == [6, 4, 2, 1, 1]

    def test_worked_example_indices_per_stage(self, worked_matrix):
        F = run_filtration(worked_matrix)
        indices = [sorted(tuple(k) for k in s.index_of.values()) for s in F.stages]
        assert indices == [
            [(0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 1)],
            [(0, 0), (0, 0), (0, 1), (0, 1)],
            [(0, 0), (0, 1)],
            [(1, 1)],
            [(1, 1)],
        ]

    def test_identity_matrix_single_stage(self):
        import numpy as np

        F = run_filtration(TransitionMatrix(np.eye(4)))
        assert len(F.stages) == 1
        assert len(F.stages[0].morse_sets) == 4


def assert_sweep_grid_is_threshold_grid(P):
    """The grid the sweep reads off its sorted entries is `threshold_grid(P)`, bit for bit."""
    swept, direct = run_filtration(P).grid.values, threshold_grid(P).values
    assert list(map(float.hex, swept)) == list(map(float.hex, direct))


class TestSweepGrid:
    """`run_filtration` reads the grid off its sorted entries; `threshold_grid` reads it off the matrix."""

    @pytest.mark.parametrize(
        "rows, grid",
        [
            pytest.param([[1.0]], [0.0], id="one-state"),
            pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0], id="identity-no-edges"),
            pytest.param(
                [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], [0.0, 0.25], id="ties-across-rows"
            ),
            pytest.param([[1.0, -0.0], [0.5, 0.5]], [0.0, 0.5], id="negative-zero"),
            pytest.param([[1.0, 5e-324], [0.5, 0.5]], [0.0, 5e-324, 0.5], id="subnormal"),
        ],
    )
    def test_explicit(self, rows, grid):
        P = TransitionMatrix(rows)
        assert_sweep_grid_is_threshold_grid(P)
        assert list(map(float.hex, threshold_grid(P))) == list(map(float.hex, grid))

    @settings(deadline=None, max_examples=150)
    @given(weight_rows)
    def test_property_weighted_chains(self, weights):
        # small integer weights: ties and zero entries are the common case
        assert_sweep_grid_is_threshold_grid(weighted_chain(weights))


class TestContainmentMap:
    def test_base_to_015(self, worked_matrix):
        F = run_filtration(worked_matrix)
        cmap = containment_map(F.stages[0], F.stages[1])
        assert cmap == {
            V(1): V(1),
            V(2): V(2),
            V(3): V(3),
            E(1, 2): E(1, 2),
            E(1, 3): V(3),
            E(2, 3): V(3),
        }

    def test_015_to_017(self, worked_matrix):
        F = run_filtration(worked_matrix)
        cmap = containment_map(F.stages[1], F.stages[2])
        assert cmap == {V(1): V(1), V(2): V(1), V(3): V(3), E(1, 2): V(1)}

    def test_017_to_023_collapse(self, worked_matrix):
        F = run_filtration(worked_matrix)
        cmap = containment_map(F.stages[2], F.stages[3])
        assert cmap == {V(1): V(1), V(3): V(1)}

    def test_straddling_raises(self, worked_matrix):
        # running the map against the refinement direction must straddle
        F = run_filtration(worked_matrix)
        with pytest.raises(RuntimeError, match="straddles"):
            containment_map(F.stages[2], F.stages[0])


class TestWorkedDiagram:
    def test_the_seven_points(self, worked_matrix):
        D = build_diagram(run_filtration(worked_matrix))
        assert as_multiset(D) == sorted(
            [
                (0.0, 0.23, (0, 0)),
                (0.0, 0.17, (0, 0)),
                (0.0, 0.15, (0, 0)),
                (0.0, 0.17, (0, 1)),
                (0.0, 0.23, (0, 1)),
                (0.0, 0.15, (0, 1)),
                (0.23, INF, (1, 1)),
            ]
        )

    def test_canonical_point_order(self, worked_matrix):
        D = build_diagram(run_filtration(worked_matrix))
        assert D.points == (
            pt(0.0, 0.15, 0, 0),
            pt(0.0, 0.17, 0, 0),
            pt(0.0, 0.23, 0, 0),
            pt(0.0, 0.15, 0, 1),
            pt(0.0, 0.17, 0, 1),
            pt(0.0, 0.23, 0, 1),
            pt(0.23, INF, 1, 1),
        )

    def test_births_all_at_grid_values(self, worked_matrix):
        D = build_diagram(run_filtration(worked_matrix))
        grid = set(D.grid)
        assert all(p.birth in grid for p in D.points)
        assert all(math.isinf(p.death) or p.death in grid for p in D.points)

    def test_quiet_tail_stage_emits_nothing(self, worked_matrix):
        # the final grid value 0.33 changes no partition: no birth or death there
        D = build_diagram(run_filtration(worked_matrix))
        assert all(p.death != 0.33 and p.birth != 0.33 for p in D.points)


class TestTwoCycleDiagram:
    """Hand-traced oracle for the 4-state two-cycle chain."""

    def test_grid(self):
        P = TransitionMatrix(TWO_CYCLE_ROWS)
        assert list(threshold_grid(P)) == [0.0, 0.2, 0.4]

    def test_stage_shapes(self):
        F = run_filtration(TransitionMatrix(TWO_CYCLE_ROWS))
        # 9 cells; triangle + V4 + two stiff edges; whole space
        assert [len(s.morse_sets) for s in F.stages] == [9, 4, 1]

    def test_diagram(self):
        D = build_diagram(run_filtration(TransitionMatrix(TWO_CYCLE_ROWS)))
        assert as_multiset(D) == sorted(
            [
                # vertices die into the triangle at 0.2; V4 hangs on to 0.4
                (0.0, 0.2, (0, 0)),
                (0.0, 0.2, (0, 0)),
                (0.0, 0.2, (0, 0)),
                (0.0, 0.4, (0, 0)),
                # triangle edges die at 0.2; the two stiff edges at 0.4
                (0.0, 0.2, (0, 1)),
                (0.0, 0.2, (0, 1)),
                (0.0, 0.2, (0, 1)),
                (0.0, 0.4, (0, 1)),
                (0.0, 0.4, (0, 1)),
                # the triangle cycle is born at 0.2 and absorbed at 0.4
                (0.2, 0.4, (1, 1)),
                # the double cycle survives
                (0.4, INF, (2, 2)),
            ]
        )

    def test_immortals_match_final_stage(self):
        F = run_filtration(TransitionMatrix(TWO_CYCLE_ROWS))
        D = build_diagram(F)
        immortal = [p for p in D.points if math.isinf(p.death)]
        assert len(immortal) == len(F.stages[-1].morse_sets)


class TestSurvivorRule:
    def test_older_track_survives_merge(self, worked_matrix):
        # both vertex tracks are born at 0, so the smaller birth label (V1)
        # survives the 0.17 merge and carries on to die at 0.23
        D = build_diagram(run_filtration(worked_matrix))
        zero_zero = [p for p in D.points if p.index == (0, 0)]
        assert (0.0, 0.17, TopologicalIndex(0, 0)) in zero_zero

    def test_two_state_symmetric(self):
        P = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        D = build_diagram(run_filtration(P))
        assert as_multiset(D) == sorted(
            [
                (0.0, 0.5, (0, 0)),  # V2's track loses the merge tie to V1
                (0.0, 0.5, (0, 1)),  # the edge joins a (0,0) set: index death
                (0.0, INF, (0, 0)),
            ]
        )

    def test_one_directional_two_state(self):
        # V2 and the edge merge at gamma 0; only two tracks are ever live
        P = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
        D = build_diagram(run_filtration(P))
        assert as_multiset(D) == sorted(
            [
                (0.0, 1.0, (0, 0)),
                (0.0, INF, (0, 0)),
            ]
        )


class TestPersistencePoint:
    def test_death_must_exceed_birth(self):
        with pytest.raises(ValueError):
            PersistencePoint(0.3, 0.3, TopologicalIndex(0, 0))
        with pytest.raises(ValueError):
            PersistencePoint(0.3, 0.1, TopologicalIndex(0, 0))

    def test_tuple_compatibility(self):
        p = pt(0.0, 0.5, 0, 1)
        assert p == (0.0, 0.5, (0, 1))
        assert p.persistence == 0.5

    def test_infinite_death_allowed(self):
        assert math.isinf(pt(0.1, INF, 1, 1).death)


@pytest.fixture(scope="module")
def results():
    """A chain, its filtration, its diagram, one point and a matching against a perturbed chain."""
    P = random_chain(RandomChainSpec(12, 0.7, seed=3))
    F = run_filtration(P)
    D = build_diagram(F)
    M = bottleneck_matching(D, build_diagram(run_filtration(perturb(P, PerturbationSpec(1, 2, 0.01)))))
    assert M.pairs
    return {"P": P, "F": F, "D": D, "point": D.points[0], "matching": M}


@pytest.mark.parametrize("name", ["P", "F", "D", "point", "matching"])
@pytest.mark.parametrize(
    "round_trip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_results_pickle_and_copy(results, name, round_trip):
    original = results[name]
    copied = round_trip(original)
    assert copied == original and repr(copied) == repr(original)
    if name == "F":  # the copy replays and follows its tracks as the original does
        stages = [(s.morse_sets, s.index_of, s.absorbed) for s in copied.stages]
        assert stages == [(s.morse_sets, s.index_of, s.absorbed) for s in original.stages]
        assert build_diagram(copied) == results["D"]


finite = st.floats(allow_nan=False, allow_infinity=False)
any_diagram = st.builds(
    PersistenceDiagram,
    st.lists(
        st.tuples(finite, finite | st.just(INF), st.integers(0, 3), st.integers(0, 3))
        .filter(lambda t: t[1] > t[0])
        .map(lambda t: pt(*t)),
        max_size=6,
    ).map(tuple),
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), unique=True).map(
        lambda values: ThresholdGrid((0.0, *sorted(values)))
    ),
)


class TestDiagramJson:
    def test_round_trip(self, worked_matrix):
        D = build_diagram(run_filtration(worked_matrix))
        again = diagram_from_json(diagram_to_json(D))
        assert again == D

    @settings(deadline=None)
    @given(any_diagram)
    def test_round_trip_of_any_diagram(self, D):
        text = diagram_to_json(D)
        assert diagram_from_json(text) == D
        assert diagram_to_json(diagram_from_json(text)) == text

    def test_infinite_death_serialized_as_string(self, worked_matrix):
        import json

        D = build_diagram(run_filtration(worked_matrix))
        obj = json.loads(diagram_to_json(D))
        deaths = [p["death"] for p in obj["points"]]
        assert "inf" in deaths
        assert all(isinstance(d, (float, int)) or d == "inf" for d in deaths)

    def test_points_sorted_in_json(self, worked_matrix):
        import json

        D = build_diagram(run_filtration(worked_matrix))
        obj = json.loads(diagram_to_json(D))
        keys = [
            (tuple(p["index"]), p["birth"], INF if p["death"] == "inf" else p["death"])
            for p in obj["points"]
        ]
        assert keys == sorted(keys)

    @staticmethod
    def one_point(**fields):
        point = {"birth": 0.0, "death": "inf", "index": [0, 0], **fields}
        return json.dumps({"grid": [0.0], "points": [point]})

    def test_well_formed_point_parses(self):
        D = diagram_from_json(self.one_point())
        assert D.points == (pt(0.0, INF, 0, 0),)

    @pytest.mark.parametrize("index", [[0], [0, 0, 0], [0, 1.0], [0, "1"], [True, 0], None, 3, [-1, 0], [0, -1]])
    def test_bad_index(self, index):
        with pytest.raises(ValueError, match="point 0: index must be a pair of ints"):
            diagram_from_json(self.one_point(index=index))

    @pytest.mark.parametrize(
        "birth", ["0.1", None, [0.1], True, float("nan"), float("inf"), pytest.param(-(10**401), id="huge_int")]
    )
    def test_bad_birth(self, birth):
        with pytest.raises(ValueError, match="point 0: birth must be a finite number"):
            diagram_from_json(self.one_point(birth=birth))

    @pytest.mark.parametrize(
        "death", ["0.5", "Infinity", None, [0.5], False, float("nan"), pytest.param(10**401, id="huge_int")]
    )
    def test_bad_death(self, death):
        with pytest.raises(ValueError, match="point 0: death must be a finite number or \"inf\""):
            diagram_from_json(self.one_point(death=death))

    @pytest.mark.parametrize("birth, death", [(0.4, 0.2), (0.3, 0.3), (1, 1)])
    def test_death_not_above_birth(self, birth, death):
        with pytest.raises(ValueError, match="point 0: death .* must exceed birth"):
            diagram_from_json(self.one_point(birth=birth, death=death))

    @pytest.mark.parametrize(
        "grid", [None, 0.0, [[0.0]], ["0.0"], [0.0, float("nan")], pytest.param([0.0, 10**401], id="huge_int")]
    )
    def test_bad_grid(self, grid):
        with pytest.raises(ValueError, match="grid must be a list of finite numbers"):
            diagram_from_json(json.dumps({"grid": grid, "points": []}))

    @pytest.mark.parametrize("points", [None, 5, {"birth": 0.0}])
    def test_bad_points(self, points):
        with pytest.raises(ValueError, match="points must be a list"):
            diagram_from_json(json.dumps({"grid": [0.0], "points": points}))

    @pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
    def test_diagram_not_an_object(self, text):
        with pytest.raises(ValueError, match="diagram must be an object"):
            diagram_from_json(text)

    def test_deeply_nested_json(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            diagram_from_json('{"points": ' + "[" * 100000 + "]" * 100000 + "}")

    def test_point_not_an_object(self):
        with pytest.raises(ValueError, match="point 0: expected an object"):
            diagram_from_json('{"grid": [0.0], "points": [[0.0, "inf", [0, 0]]]}')

    def test_constructor_canonicalizes_order(self):
        rng = random.Random(0)
        points = [pt(0.0, 0.2, 0, 0), pt(0.1, 0.3, 0, 1), pt(0.0, 0.4, 0, 0), pt(0.2, INF, 1, 1)]
        for _ in range(5):
            rng.shuffle(points)
            D = PersistenceDiagram(tuple(points), ThresholdGrid((0.0, 0.1, 0.2, 0.3, 0.4)))
            assert list(D.points) == sorted(points, key=lambda p: (p.index, p.birth, p.death))
