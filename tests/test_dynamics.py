"""The induced map, M-graph arcs, Morse sets (SCCs), and the Morse order."""

import random

import pytest

from markov_morse import (
    RandomChainSpec,
    build_complex,
    build_mgraph,
    build_mvf,
    morse_order,
    morse_sets,
    random_chain,
    threshold_grid,
)
from markov_morse.cells import mouth
from markov_morse.dynamics import pi_map

from conftest import WORKED_COMPLEX
from mgraph_oracle import mgraph_by_mouths
from test_frozen_diagrams import specs as frozen_specs

V, E = WORKED_COMPLEX.vertex, WORKED_COMPLEX.edge


@pytest.fixture
def field_at(worked_matrix, worked_complex):
    def make(gamma):
        return build_mvf(worked_complex, worked_matrix, gamma)

    return make


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
            for vec in fld.multivectors:
                for other in fld.multivectors:
                    if min(vec) == min(other):
                        continue
                    expected = any(pi_map(fld, worked_complex, x) & other for x in vec)
                    assert ((min(vec), min(other)) in G.arcs) == expected

    def test_edge_list_arcs_match_the_mouth_oracle(self):
        # every grid value of the 216 chains frozen in frozen_diagrams.json
        stages = proper = 0
        for spec in frozen_specs():
            P = random_chain(spec)
            X = build_complex(P)
            for gamma in threshold_grid(P):
                fld = build_mvf(X, P, gamma)
                G = build_mgraph(fld, X)
                assert G == mgraph_by_mouths(fld, X), f"{spec} at gamma={gamma}"
                stages += 1
                proper += sum(u != w for u, w in G.arcs)
        assert stages > 4000 and proper > 40000


class TestMorseSets:
    def test_base_stage_every_singleton_counts(self, field_at, worked_complex):
        fld = field_at(0.0)
        sets = morse_sets(build_mgraph(fld, worked_complex), fld)
        assert [m.cells for m in sets] == [
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3)}),
            frozenset({E(1, 2)}),
            frozenset({E(1, 3)}),
            frozenset({E(2, 3)}),
        ]

    def test_gamma_015_sets(self, field_at, worked_complex):
        fld = field_at(0.15)
        sets = morse_sets(build_mgraph(fld, worked_complex), fld)
        assert {m.cells for m in sets} == {
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3), E(1, 3), E(2, 3)}),
            frozenset({E(1, 2)}),
        }

    def test_morse_sets_partition_cells(self, worked_matrix, worked_complex):
        for gamma in threshold_grid(worked_matrix):
            fld = build_mvf(worked_complex, worked_matrix, gamma)
            sets = morse_sets(build_mgraph(fld, worked_complex), fld)
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
        sets = morse_sets(build_mgraph(fld, X), fld)
        assert len(sets) == 1
        assert sets[0].cells == frozenset(X.cells())

    def test_labels_are_minimal_cells(self, field_at, worked_complex):
        fld = field_at(0.15)
        sets = morse_sets(build_mgraph(fld, worked_complex), fld)
        for m in sets:
            assert m.label == min(m.cells)


class TestMorseOrder:
    def test_base_stage_order(self, field_at, worked_complex):
        fld = field_at(0.0)
        G = build_mgraph(fld, worked_complex)
        order = morse_order(G, morse_sets(G, fld))
        assert set(order.pairs()) == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (E(1, 3), V(1)),
            (E(1, 3), V(3)),
            (E(2, 3), V(2)),
            (E(2, 3), V(3)),
        }

    def test_gamma_015_order(self, field_at, worked_complex):
        fld = field_at(0.15)
        G = build_mgraph(fld, worked_complex)
        order = morse_order(G, morse_sets(G, fld))
        assert set(order.pairs()) == {
            (E(1, 2), V(1)),
            (E(1, 2), V(2)),
            (V(3), V(1)),
            (V(3), V(2)),
        }

    def test_ge_is_reflexive(self, field_at, worked_complex):
        fld = field_at(0.15)
        G = build_mgraph(fld, worked_complex)
        order = morse_order(G, morse_sets(G, fld))
        for lbl in order.labels:
            assert order.ge(lbl, lbl)

    def test_antisymmetry_and_transitivity_on_random_chains(self):
        rng = random.Random(99)
        for _ in range(25):
            spec = RandomChainSpec(n=rng.randint(3, 7), density=0.6, seed=rng.getrandbits(32))
            P = random_chain(spec)
            X = build_complex(P)
            for gamma in list(threshold_grid(P))[:: max(1, spec.n - 2)]:
                fld = build_mvf(X, P, gamma)
                G = build_mgraph(fld, X)
                sets = morse_sets(G, fld)
                order = morse_order(G, sets)
                rel = set(order.pairs())
                for a, b in rel:
                    assert (b, a) not in rel, "antisymmetry"
                for a, b in rel:
                    for c, d in rel:
                        if b == c:
                            assert (a, d) in rel, "transitivity"

    def test_mouth_sits_below(self, worked_matrix, worked_complex):
        # anything a Morse set spills onto is a smaller Morse set
        for gamma in threshold_grid(worked_matrix):
            fld = build_mvf(worked_complex, worked_matrix, gamma)
            G = build_mgraph(fld, worked_complex)
            sets = morse_sets(G, fld)
            order = morse_order(G, sets)
            owner = {}
            for m in sets:
                for c in m.cells:
                    owner[c] = m.label
            for m in sets:
                for c in mouth(worked_complex, m.cells):
                    assert order.ge(m.label, owner[c])
