"""Field construction at thresholds; validity and coarsening from the cell oracle."""

import pytest

from markov_morse import RandomChainSpec, TransitionMatrix, build_complex, build_mvf, random_chain, threshold_grid

from cells_oracle import edge, is_coarsening, is_valid_mvf
from components_oracle import build_mvf_by_union
from conftest import E, V
from mgraph_oracle import vector_of


def partition(field):
    return set(field)


class TestWorkedExample:
    """The 3-state chain traced by hand at every interesting threshold."""

    def fields(self, worked_matrix, worked_complex, gamma):
        return build_mvf(worked_complex, worked_matrix, gamma)

    def test_gamma_zero_all_singletons(self, worked_matrix, worked_complex):
        fld = self.fields(worked_matrix, worked_complex, 0.0)
        assert partition(fld) == {
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3)}),
            frozenset({E(1, 2)}),
            frozenset({E(1, 3)}),
            frozenset({E(2, 3)}),
        }

    def test_gamma_015(self, worked_matrix, worked_complex):
        fld = self.fields(worked_matrix, worked_complex, 0.15)
        assert partition(fld) == {
            frozenset({V(1)}),
            frozenset({V(2)}),
            frozenset({V(3), E(1, 3), E(2, 3)}),
            frozenset({E(1, 2)}),
        }

    def test_gamma_017(self, worked_matrix, worked_complex):
        fld = self.fields(worked_matrix, worked_complex, 0.17)
        assert partition(fld) == {
            frozenset({V(1), V(2), E(1, 2)}),
            frozenset({V(3), E(1, 3), E(2, 3)}),
        }

    def test_gamma_between_grid_values(self, worked_matrix, worked_complex):
        # 0.2 sits strictly between grid values 0.17 and 0.23
        assert partition(self.fields(worked_matrix, worked_complex, 0.2)) == partition(
            self.fields(worked_matrix, worked_complex, 0.17)
        )

    def test_gamma_023_everything_merges(self, worked_matrix, worked_complex):
        fld = self.fields(worked_matrix, worked_complex, 0.23)
        assert partition(fld) == {frozenset(worked_complex.cells())}

    def test_grid_tail_changes_nothing(self, worked_matrix, worked_complex):
        assert partition(self.fields(worked_matrix, worked_complex, 0.33)) == partition(
            self.fields(worked_matrix, worked_complex, 0.23)
        )

    def test_labels_are_minimal_cells(self, worked_matrix, worked_complex):
        fld = self.fields(worked_matrix, worked_complex, 0.15)
        assert [min(v) for v in fld] == [V(1), V(2), V(3), E(1, 2)]

    def test_determinism(self, worked_matrix, worked_complex):
        a = self.fields(worked_matrix, worked_complex, 0.15)
        b = self.fields(worked_matrix, worked_complex, 0.15)
        assert a == b


class TestZeroEntries:
    def test_zero_reverse_probability_merges_at_base(self):
        # mass only 1 -> 2; the reverse entry is 0 <= gamma for every gamma
        P = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
        X = build_complex(P)
        fld = build_mvf(X, P, 0.0)
        assert partition(fld) == {frozenset({X.vertex(1)}), frozenset({X.vertex(2), edge(X, 1, 2)})}

    def test_absent_edge_never_merges(self):
        P = TransitionMatrix([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        X = build_complex(P)
        fld = build_mvf(X, P, 1.0)
        # no (2,3) edge exists, so states 2 and 3 can only meet through state 1
        assert len(fld) == 1
        assert fld[0] == frozenset(X.cells())


class TestValidity:
    def test_valid_on_worked_fields(self, worked_matrix, worked_complex):
        for gamma in threshold_grid(worked_matrix):
            assert is_valid_mvf(build_mvf(worked_complex, worked_matrix, gamma), worked_complex)

    def test_missing_cell_is_invalid(self, worked_complex):
        fld = (frozenset({V(1)}),)
        assert not is_valid_mvf(fld, worked_complex)

    def test_overlapping_parts_rejected_by_constructor(self, worked_complex):
        # every cell covered, but V1 lies in two parts
        rest = frozenset(worked_complex.cells()) - {V(1)}
        assert not is_valid_mvf((frozenset({V(1)}), rest | {V(1)}), worked_complex)
        assert not is_valid_mvf((frozenset({V(1)}), frozenset({V(1), V(2)})), worked_complex)

    def test_empty_part_rejected_by_constructor(self, worked_complex):
        cells = frozenset(worked_complex.cells())
        assert not is_valid_mvf((cells, frozenset()), worked_complex)
        assert not is_valid_mvf((frozenset({V(1)}), frozenset()), worked_complex)

    def test_negative_gamma_rejected(self, worked_matrix, worked_complex):
        with pytest.raises(ValueError):
            build_mvf(worked_complex, worked_matrix, -0.1)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, worked_matrix, worked_complex, gamma):
        with pytest.raises(ValueError, match="finite"):
            build_mvf(worked_complex, worked_matrix, gamma)

    def test_vector_of(self, worked_matrix, worked_complex):
        fld = build_mvf(worked_complex, worked_matrix, 0.15)
        assert vector_of(fld, E(2, 3)) == {V(3), E(1, 3), E(2, 3)}
        assert fld[2] == vector_of(fld, E(2, 3)) and min(fld[2]) == V(3)
        with pytest.raises(KeyError):
            vector_of(fld, worked_complex.cell_count)


class TestCoarsening:
    def test_worked_grid_is_a_filtration(self, worked_matrix, worked_complex):
        grid = list(threshold_grid(worked_matrix))
        fields = [build_mvf(worked_complex, worked_matrix, g) for g in grid]
        for fine, coarse in zip(fields, fields[1:]):
            assert is_coarsening(coarse, fine)

    def test_coarsening_is_directional(self, worked_matrix, worked_complex):
        fine = build_mvf(worked_complex, worked_matrix, 0.0)
        coarse = build_mvf(worked_complex, worked_matrix, 0.17)
        assert is_coarsening(coarse, fine)
        assert not is_coarsening(fine, coarse)

    def test_equal_fields_coarsen_both_ways(self, worked_matrix, worked_complex):
        a = build_mvf(worked_complex, worked_matrix, 0.17)
        b = build_mvf(worked_complex, worked_matrix, 0.2)
        assert is_coarsening(a, b) and is_coarsening(b, a)

    def test_different_complexes_rejected(self, worked_matrix, worked_complex):
        import numpy as np

        other_P = TransitionMatrix(np.eye(3))
        other = build_mvf(build_complex(other_P), other_P, 0.0)
        mine = build_mvf(worked_complex, worked_matrix, 0.0)
        with pytest.raises(ValueError, match="different complexes"):
            is_coarsening(mine, other)


@pytest.mark.parametrize("density", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("n", [9, 12, 16, 24])
def test_scc_field_matches_the_union_find_route(n, density):
    # the frozen cell outputs stop at n=8; past it, the SCCs of the merge
    # 2-cycles must give the union-find field, order included, at every
    # grid value
    P = random_chain(RandomChainSpec(n, density, seed=n))
    X = build_complex(P)
    for gamma in threshold_grid(P):
        assert build_mvf(X, P, gamma) == build_mvf_by_union(X, P, gamma)
