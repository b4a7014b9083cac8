"""The induced map, M-graph arcs, Morse sets (SCCs), and the Morse order.

The library finds Morse sets as SCCs of a digraph on cells; the M-graph on
multivectors that it replaced lives in `tests/mgraph_oracle.py`, and the
tests below compare the two.
"""

import random

import pytest
from hypothesis import given, settings

from markov_morse import (
    RandomChainSpec,
    build_complex,
    build_mvf,
    morse_order,
    morse_sets,
    random_chain,
    threshold_grid,
)

from cells_oracle import mouth
from conftest import E, V, WORKED_COMPLEX
import mgraph_oracle as oracle
from mgraph_oracle import build_mgraph, mgraph_by_mouths, pi_map
from test_event_sweep import weight_rows, weighted_chain
from test_frozen_diagrams import specs as frozen_specs


@pytest.fixture
def field_at(worked_matrix, worked_complex):
    def make(gamma):
        return build_mvf(worked_complex, worked_matrix, gamma)

    return make


def ge(order, above, below):
    """above >= below in the reflexive closure of the strict Morse order."""
    return above == below or (above, below) in order


def probe_gammas(P):
    """Every grid value, every midpoint between two, and one value above the last."""
    grid = list(threshold_grid(P))
    return grid + [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1.0]


def assert_matches_mgraph_oracle(P, where=""):
    """At every probe gamma, the library's Morse sets and order are those of
    the oracle's M-graph; returns the probe and proper-arc counts."""
    X = build_complex(P)
    probes = proper = 0
    for gamma in probe_gammas(P):
        fld = build_mvf(X, P, gamma)
        G = mgraph_by_mouths(fld, X)
        assert build_mgraph(fld, X) == G
        sets = morse_sets(X, P, gamma)
        assert sets == oracle.morse_sets(G, fld), f"{where} at gamma={gamma}"
        assert morse_order(X, sets) == oracle.morse_order(G, sets), f"{where} at gamma={gamma}"
        probes += 1
        proper += sum(u != w for u, w in G.arcs)
    return probes, proper


class TestPiMap:
    def test_vertex_in_singleton(self, field_at):
        fld = field_at(0.0)
        assert pi_map(fld, WORKED_COMPLEX, V(1)) == {V(1)}

    def test_edge_in_singleton_adds_closure(self, field_at):
        fld = field_at(0.0)
        assert pi_map(fld, WORKED_COMPLEX, E(1, 2)) == {E(1, 2), V(1), V(2)}

    def test_cell_in_larger_vector(self, field_at):
        fld = field_at(0.15)
        # [E1-3] is {V3, E1-3, E2-3}; closure of the edge adds V1
        assert pi_map(fld, WORKED_COMPLEX, E(1, 3)) == {V(3), E(1, 3), E(2, 3), V(1)}

    def test_vertex_of_larger_vector(self, field_at):
        fld = field_at(0.15)
        assert pi_map(fld, WORKED_COMPLEX, V(3)) == {V(3), E(1, 3), E(2, 3)}

    def test_unknown_cell(self, field_at):
        with pytest.raises(KeyError):
            pi_map(field_at(0.0), WORKED_COMPLEX, WORKED_COMPLEX.cell_count)


class TestMGraph:
    def test_base_graph_arcs(self, field_at, worked_complex):
        G = build_mgraph(field_at(0.0), worked_complex)
        loops = {(u, u) for u in G.nodes}
        proper = set(G.arcs) - loops
        assert proper == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (E(1, 3), V(1)),
            (E(1, 3), V(3)),
            (E(2, 3), V(2)),
            (E(2, 3), V(3)),
        }
        assert loops <= set(G.arcs)

    def test_gamma_015_arcs(self, field_at, worked_complex):
        G = build_mgraph(field_at(0.15), worked_complex)
        proper = {(u, w) for u, w in G.arcs if u != w}
        assert proper == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (V(3), V(1)),  # the big vector, labelled V3, spills onto V1 and V2
            (V(3), V(2)),
        }

    def test_single_vector_graph(self, field_at, worked_complex):
        G = build_mgraph(field_at(0.23), worked_complex)
        assert G.nodes == (V(1),)
        assert G.arcs == frozenset({(V(1), V(1))})

    def test_arc_semantics_match_pi_map(self, worked_complex, worked_matrix):
        # V -> W (V != W) iff pi(x) meets W for some x in V
        for gamma in threshold_grid(worked_matrix):
            fld = build_mvf(worked_complex, worked_matrix, gamma)
            G = build_mgraph(fld, worked_complex)
            for vec in fld:
                for other in fld:
                    if min(vec) == min(other):
                        continue
                    expected = any(pi_map(fld, worked_complex, x) & other for x in vec)
                    assert ((min(vec), min(other)) in G.arcs) == expected

    def test_edge_list_arcs_match_the_mouth_oracle(self):
        # the 216 chains frozen in frozen_diagrams.json, on and between the grid
        probes = proper = 0
        for spec in frozen_specs():
            counts = assert_matches_mgraph_oracle(random_chain(spec), spec)
            probes, proper = probes + counts[0], proper + counts[1]
        assert probes > 8000 and proper > 80000


@settings(deadline=None, max_examples=150)
@given(weight_rows)
def test_property_morse_sets_and_order_match_the_mgraph_oracle(weights):
    # small integer weights: ties and zero entries are the common case
    assert_matches_mgraph_oracle(weighted_chain(weights))


class TestMorseSets:
    def test_base_stage_every_singleton_counts(self, worked_matrix, worked_complex):
        sets = morse_sets(worked_complex, worked_matrix, 0.0)
        assert [m.cells for m in sets] == [
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3)}),
            frozenset({E(1, 2)}),
            frozenset({E(1, 3)}),
            frozenset({E(2, 3)}),
        ]

    def test_gamma_015_sets(self, worked_matrix, worked_complex):
        sets = morse_sets(worked_complex, worked_matrix, 0.15)
        assert {m.cells for m in sets} == {
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3), E(1, 3), E(2, 3)}),
            frozenset({E(1, 2)}),
        }

    def test_morse_sets_partition_cells(self, worked_matrix, worked_complex):
        for gamma in threshold_grid(worked_matrix):
            sets = morse_sets(worked_complex, worked_matrix, gamma)
            seen = [c for m in sets for c in m.cells]
            assert len(seen) == len(set(seen)) == worked_complex.cell_count

    def test_nontrivial_scc_collapses(self):
        # two states trading all their mass: at gamma=0.5 the M-graph of the
        # base field has a genuine 2-cycle through the edge vector
        from markov_morse import TransitionMatrix

        P = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        X = build_complex(P)
        fld = build_mvf(X, P, 0.5)
        assert len(fld) == 1  # everything merged already
        sets = morse_sets(X, P, 0.5)
        assert len(sets) == 1
        assert sets[0].cells == frozenset(X.cells())

    def test_labels_are_minimal_cells(self, worked_matrix, worked_complex):
        sets = morse_sets(worked_complex, worked_matrix, 0.15)
        for m in sets:
            assert m.label == min(m.cells)


def cell_sets(X, *groups):
    """Cell sets named by states: an int i is vertex Ni, a pair (i, j) the edge Ni-Nj."""

    def cell(c):
        return X.n + X.edges.index(c) if isinstance(c, tuple) else X.vertex(c)

    return {frozenset(map(cell, g)) for g in groups}


class TestStateDigraph:
    """`morse_sets` runs Tarjan on the states; each edge joins the SCC of an endpoint it may be entered from.

    Every case is checked against the oracle's M-graph at every probe gamma,
    and the sets at one gamma are spelled out.
    """

    @pytest.mark.parametrize(
        "rows, gamma, expected",
        [
            pytest.param(  # p12 = p23 = p31 = 0: the states 1 -> 2 -> 3 -> 1 form a cycle at gamma 0
                [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
                0.0,
                [(1, 2, 3, (1, 2), (1, 3), (2, 3))],
                id="zero-entry-3-cycle",
            ),
            pytest.param(
                [[0.6, 0.4], [0.3, 0.7]], 0.4, [(1, 2, (1, 2))], id="both-entries-at-or-below"
            ),
            pytest.param(
                [[0.6, 0.4], [0.3, 0.7]], 0.2, [(1,), (2,), ((1, 2),)], id="both-entries-above"
            ),
            pytest.param(  # p32 <= gamma < p23: the edge goes with state 3 alone
                [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]],
                0.3,
                [(1,), (2,), (3, (2, 3))],
                id="isolated-state-and-one-sided-edge",
            ),
        ],
    )
    def test_explicit(self, rows, gamma, expected):
        from markov_morse import TransitionMatrix

        P = TransitionMatrix(rows)
        X = build_complex(P)
        assert {m.cells for m in morse_sets(X, P, gamma)} == cell_sets(X, *expected)
        assert_matches_mgraph_oracle(P)


class TestMorseOrder:
    def test_base_stage_order(self, worked_matrix, worked_complex):
        order = morse_order(worked_complex, morse_sets(worked_complex, worked_matrix, 0.0))
        assert set(order) == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (E(1, 3), V(1)),
            (E(1, 3), V(3)),
            (E(2, 3), V(2)),
            (E(2, 3), V(3)),
        }

    def test_gamma_015_order(self, worked_matrix, worked_complex):
        order = morse_order(worked_complex, morse_sets(worked_complex, worked_matrix, 0.15))
        assert set(order) == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (V(3), V(1)),
            (V(3), V(2)),
        }

    def test_ge_is_reflexive(self, worked_matrix, worked_complex):
        # the pairs are strict and sorted; >= is their reflexive closure on the labels
        sets = morse_sets(worked_complex, worked_matrix, 0.15)
        order = morse_order(worked_complex, sets)
        assert order == sorted(set(order))
        for m in sets:
            assert (m.label, m.label) not in order
            assert ge(order, m.label, m.label)

    def test_antisymmetry_and_transitivity_on_random_chains(self):
        rng = random.Random(99)
        for _ in range(25):
            spec = RandomChainSpec(n=rng.randint(3, 7), density=0.6, seed=rng.getrandbits(32))
            P = random_chain(spec)
            X = build_complex(P)
            for gamma in list(threshold_grid(P))[:: max(1, spec.n - 2)]:
                sets = morse_sets(X, P, gamma)
                order = morse_order(X, sets)
                rel = set(order)
                for a, b in rel:
                    assert (b, a) not in rel, "antisymmetry"
                for a, b in rel:
                    for c, d in rel:
                        if b == c:
                            assert (a, d) in rel, "transitivity"

    def test_mouth_sits_below(self, worked_matrix, worked_complex):
        # anything a Morse set spills onto is a smaller Morse set
        for gamma in threshold_grid(worked_matrix):
            sets = morse_sets(worked_complex, worked_matrix, gamma)
            order = morse_order(worked_complex, sets)
            owner = {}
            for m in sets:
                for c in m.cells:
                    owner[c] = m.label
            for m in sets:
                for c in mouth(worked_complex, m.cells):
                    assert ge(order, m.label, owner[c])

