"""GF(2) rank (the test oracle), absolute and relative homology, indices, criticality."""

import random

import numpy as np
import pytest

from markov_morse import (
    TransitionMatrix,
    build_complex,
    build_mvf,
    morse_sets,
    topological_index,
)
from markov_morse.cells import closure
from markov_morse.homology import TopologicalIndex

from components_oracle import conley_index_dims, homology_dims, is_critical
from conftest import WORKED_COMPLEX
from gf2_oracle import Gf2Matrix, betti_by_rank, boundary_matrix, rank_gf2

V, E = WORKED_COMPLEX.vertex, WORKED_COMPLEX.edge


class TestRankGf2:
    def test_identity(self):
        assert rank_gf2(Gf2Matrix.from_rows(np.eye(4, dtype=int).tolist(), 4)) == 4

    def test_zero(self):
        assert rank_gf2(Gf2Matrix.from_rows([[0, 0], [0, 0]], 2)) == 0

    def test_empty(self):
        assert rank_gf2(Gf2Matrix.from_rows([], 3)) == 0
        assert rank_gf2(Gf2Matrix(2, 0, np.zeros((2, 0), dtype=np.uint8))) == 0

    def test_characteristic_two_matters(self):
        # invertible over the rationals, singular mod 2
        M = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)
        assert rank_gf2(M) == 2

    def test_duplicate_rows_collapse(self):
        M = Gf2Matrix.from_rows([[1, 0, 1], [1, 0, 1], [0, 1, 0]], 3)
        assert rank_gf2(M) == 2

    def test_triangle_boundary(self, worked_complex):
        cl = closure(worked_complex, worked_complex.cells()[worked_complex.n :])
        M = boundary_matrix(worked_complex, cl)
        assert (M.rows, M.cols) == (3, 3)
        assert rank_gf2(M) == 2


class TestHomologyDims:
    def test_full_triangle_is_a_circle(self, worked_complex):
        cl = frozenset(worked_complex.cells())
        assert homology_dims(worked_complex, cl) == (1, 1)

    def test_single_vertex(self, worked_complex):
        assert homology_dims(worked_complex, {V(1)}) == (1, 0)

    def test_closed_edge_is_contractible(self, worked_complex):
        assert homology_dims(worked_complex, {V(1), V(2), E(1, 2)}) == (1, 0)

    def test_two_components(self, worked_complex):
        assert homology_dims(worked_complex, {V(1), V(2)}) == (2, 0)

    def test_path_of_two_edges(self, worked_complex):
        A = {V(1), V(2), V(3), E(1, 3), E(2, 3)}
        assert homology_dims(worked_complex, A) == (1, 0)

    def test_open_set_rejected(self, worked_complex):
        with pytest.raises(ValueError, match="closed"):
            homology_dims(worked_complex, {E(1, 2)})

    def test_euler_characteristic(self, worked_complex):
        rng = random.Random(5)
        cells = worked_complex.cells()
        for _ in range(100):
            A = closure(worked_complex, rng.sample(cells, rng.randint(0, len(cells))))
            h0, h1 = homology_dims(worked_complex, A)
            n_v = sum(1 for c in A if not worked_complex.is_edge(c))
            n_e = len(A) - n_v
            assert h0 - h1 == n_v - n_e

    def test_component_oracle_matches_rank_route(self):
        # a bigger complex: dense 6-state chain; the library's component
        # counts against the oracle's rank, absolute and relative
        P = TransitionMatrix([[1 / 6] * 6] * 6)
        X = build_complex(P)
        rng = random.Random(11)
        cells = X.cells()
        for _ in range(150):
            B = rng.sample(cells, rng.randint(0, len(cells)))
            A = closure(X, B)
            assert homology_dims(X, A) == betti_by_rank(X, A)
            assert conley_index_dims(X, B) == betti_by_rank(X, B)


class TestConleyIndexDims:
    def test_bare_edge(self, worked_complex):
        assert conley_index_dims(worked_complex, {E(1, 2)}) == (0, 1)

    def test_bare_vertex(self, worked_complex):
        assert conley_index_dims(worked_complex, {V(2)}) == (1, 0)

    def test_arrow_is_trivial(self, worked_complex):
        assert conley_index_dims(worked_complex, {V(2), E(1, 2)}) == (0, 0)

    def test_vertex_with_two_edges(self, worked_complex):
        A = {V(3), E(1, 3), E(2, 3)}
        assert conley_index_dims(worked_complex, A) == (0, 1)

    def test_closed_set_gives_absolute_homology(self, worked_complex):
        # empty mouth: relative and absolute dimensions agree
        A = frozenset(worked_complex.cells())
        assert conley_index_dims(worked_complex, A) == homology_dims(worked_complex, A)
        B = {V(1), V(2), E(1, 2)}
        assert conley_index_dims(worked_complex, B) == homology_dims(worked_complex, B)


class TestTopologicalIndex:
    def worked_sets(self, worked_matrix, worked_complex, gamma):
        return morse_sets(worked_complex, worked_matrix, gamma)

    def test_base_stage_indices(self, worked_matrix, worked_complex):
        sets = self.worked_sets(worked_matrix, worked_complex, 0.0)
        by_label = {m.label: topological_index(worked_complex, m) for m in sets}
        assert by_label == {
            V(1): (0, 0),
            V(2): (0, 0),
            V(3): (0, 0),
            E(1, 2): (0, 1),
            E(1, 3): (0, 1),
            E(2, 3): (0, 1),
        }

    def test_gamma_017_indices(self, worked_matrix, worked_complex):
        sets = self.worked_sets(worked_matrix, worked_complex, 0.17)
        by_label = {m.label: topological_index(worked_complex, m) for m in sets}
        # {N1,N2,edge} is contractible with empty mouth; the other wraps
        # vertex 3 between two edges whose far endpoints fall in the mouth
        assert by_label == {V(1): (0, 0), V(3): (0, 1)}

    def test_whole_space_index(self, worked_matrix, worked_complex):
        sets = self.worked_sets(worked_matrix, worked_complex, 0.23)
        assert topological_index(worked_complex, sets[0]) == TopologicalIndex(1, 1)

    def test_index_is_a_named_pair(self, worked_matrix, worked_complex):
        sets = self.worked_sets(worked_matrix, worked_complex, 0.23)
        k = topological_index(worked_complex, sets[0])
        assert (k.h1, k.c1) == (1, 1)
        assert k == (1, 1)


class TestCriticality:
    def test_singletons_are_critical(self, worked_matrix, worked_complex):
        fld = build_mvf(worked_complex, worked_matrix, 0.0)
        assert all(is_critical(worked_complex, v) for v in fld.multivectors)

    def test_arrow_is_regular(self, worked_complex):
        assert not is_critical(worked_complex, frozenset({V(2), E(1, 2)}))

    def test_star_vector_is_critical(self, worked_complex):
        vec = frozenset({V(3), E(1, 3), E(2, 3)})
        assert is_critical(worked_complex, vec)

    def test_whole_space_is_critical(self, worked_matrix, worked_complex):
        fld = build_mvf(worked_complex, worked_matrix, 0.33)
        assert len(fld) == 1
        assert is_critical(worked_complex, fld.multivectors[0])
