"""State complex construction; closure, mouth and local closedness from the cell oracle."""

import random

import pytest

from markov_morse import TransitionMatrix, build_complex, format_cell
from markov_morse.cells import StateComplex

from cells_oracle import closure, contains, edge, is_closed, is_locally_closed, mouth
from conftest import E, V, WORKED_COMPLEX

X17 = StateComplex(17, ((1, 2), (1, 3), (2, 3), (2, 4)))


@pytest.fixture
def X3(worked_complex):
    return worked_complex


class TestCellOrder:
    """Cell ids are dense ints whose order is the canonical cell order."""

    def test_vertices_before_edges(self):
        assert X17.vertex(17) < edge(X17, 1, 2)
        assert [X17.is_edge(c) for c in X17.cells()] == [False] * 17 + [True] * 4

    def test_vertices_by_index(self):
        assert X17.vertex(1) < X17.vertex(2) < X17.vertex(17)
        assert [X17.vertex(i) for i in range(1, 18)] == list(range(17))

    def test_edges_lexicographic(self):
        ids = [edge(X17, 1, 2), edge(X17, 1, 3), edge(X17, 2, 3), edge(X17, 2, 4)]
        assert ids == [17, 18, 19, 20] == list(X17.cells()[17:])

    def test_edge_endpoints_normalized(self):
        assert edge(X17, 3, 1) == edge(X17, 1, 3)
        assert X17.endpoints(edge(X17, 3, 1)) == (X17.vertex(1), X17.vertex(3))
        with pytest.raises(ValueError):
            X17.endpoints(X17.vertex(3))

    def test_degenerate_edge_rejected(self):
        with pytest.raises(ValueError):
            edge(X17, 2, 2)
        with pytest.raises(ValueError):
            edge(X17, 3, 4)  # absent from the complex
        with pytest.raises(ValueError):
            X17.vertex(18)

    def test_formatting_uses_labels(self):
        states = ("N1", "N2", "N3")
        assert format_cell(WORKED_COMPLEX, V(2), states) == "N2"
        assert format_cell(WORKED_COMPLEX, E(3, 1), states) == "N1-N3"


class TestBuildComplex:
    def test_worked_example_has_all_edges(self, X3):
        assert X3.n == 3
        assert X3.edges == ((1, 2), (1, 3), (2, 3))
        assert list(X3.cells()) == [V(1), V(2), V(3), E(1, 2), E(1, 3), E(2, 3)]

    def test_identity_chain_has_no_edges(self):
        import numpy as np

        X = build_complex(TransitionMatrix(np.eye(3)))
        assert X.edges == ()
        assert X.cell_count == 3

    def test_one_directional_transition_still_makes_an_edge(self):
        P = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
        X = build_complex(P)
        assert X.edges == ((1, 2),)

    def test_zero_pair_makes_no_edge(self):
        # no mass in either direction between states 2 and 3
        P = TransitionMatrix(
            [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]
        )
        X = build_complex(P)
        assert X.edges == ((1, 2), (1, 3))

    def test_membership(self, X3):
        assert contains(X3, V(2))
        assert contains(X3, E(1, 3))
        assert not contains(X3, X3.cell_count)
        assert not contains(X3, -1)

    def test_invalid_edge_in_constructor(self):
        with pytest.raises(ValueError):
            StateComplex(2, ((1, 3),))
        with pytest.raises(ValueError):
            StateComplex(3, ((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            StateComplex(3, ((1, 3), (1, 2)))


class TestClosureMouth:
    def test_closure_of_edge_adds_endpoints(self, X3):
        assert closure(X3, {E(1, 2)}) == {E(1, 2), V(1), V(2)}

    def test_closure_of_vertex_is_itself(self, X3):
        assert closure(X3, {V(1)}) == {V(1)}

    def test_mouth_of_edge_is_its_endpoints(self, X3):
        assert mouth(X3, {E(2, 3)}) == {V(2), V(3)}

    def test_mouth_with_partial_overlap(self, X3):
        assert mouth(X3, {V(3), E(1, 3)}) == {V(1)}

    def test_mouth_of_triple(self, X3):
        assert mouth(X3, {V(3), E(1, 3), E(2, 3)}) == {V(1), V(2)}

    def test_closed_sets(self, X3):
        assert is_closed(X3, {V(1), V(3)})
        assert is_closed(X3, {V(1), V(2), E(1, 2)})
        assert not is_closed(X3, {E(1, 2)})
        assert not is_closed(X3, {V(1), E(1, 2)})

    def test_locally_closed_examples(self, X3):
        assert is_locally_closed(X3, {V(3), E(1, 3), E(2, 3)})
        assert is_locally_closed(X3, {E(1, 2)})
        assert is_locally_closed(X3, frozenset())

    def test_foreign_cell_rejected(self, X3):
        with pytest.raises(ValueError):
            closure(X3, {7})
        with pytest.raises(ValueError):
            mouth(X3, {X3.cell_count})


class TestClosureProperties:
    """Randomized closure-operator laws on subsets of a dense 5-state complex."""

    def setup_method(self):
        rows = [[0.2] * 5 for _ in range(5)]
        self.X = build_complex(TransitionMatrix(rows))
        self.rng = random.Random(2024)

    def random_subset(self):
        cells = self.X.cells()
        k = self.rng.randint(0, len(cells))
        return frozenset(self.rng.sample(cells, k))

    def test_extensive_idempotent_monotone(self):
        for _ in range(200):
            A = self.random_subset()
            B = self.random_subset()
            clA = closure(self.X, A)
            assert A <= clA
            assert closure(self.X, clA) == clA
            if A <= B:
                assert clA <= closure(self.X, B)
            assert closure(self.X, A | B) == clA | closure(self.X, B)

    def test_mouth_is_disjoint_remainder(self):
        for _ in range(200):
            A = self.random_subset()
            mo = mouth(self.X, A)
            assert mo.isdisjoint(A)
            assert closure(self.X, A) == A | mo

    def test_mouth_has_no_edges_in_a_1_complex(self):
        for _ in range(200):
            A = self.random_subset()
            assert not any(map(self.X.is_edge, mouth(self.X, A)))
            assert is_locally_closed(self.X, A)
