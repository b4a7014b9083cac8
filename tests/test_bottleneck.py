"""Exact bottleneck distance: hand-sized cases, the worked perturbation, metric axioms."""

import itertools
import math
import random

import pytest

from markov_morse import (
    PersistenceDiagram,
    PerturbationSpec,
    RandomChainSpec,
    bottleneck_distance,
    bottleneck_matching,
    build_diagram,
    perturb,
    random_chain,
    run_filtration,
)
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import ThresholdGrid, matrix_distance
from markov_morse.persistence import PersistencePoint

INF = math.inf
K00 = TopologicalIndex(0, 0)
K01 = TopologicalIndex(0, 1)
GRID = ThresholdGrid((0.0,))


def diag(*points):
    return PersistenceDiagram(
        tuple(PersistencePoint(b, d, k) for b, d, k in points), GRID
    )


class TestHandCases:
    def test_empty_diagrams(self):
        assert bottleneck_distance(diag(), diag()) == 0.0

    def test_single_point_against_empty(self):
        # nothing to match: the point pays its way to the diagonal
        assert bottleneck_distance(diag((0.0, 1.0, K00)), diag()) == 0.5

    def test_identical_single_points(self):
        D = diag((0.0, 1.0, K00))
        assert bottleneck_distance(D, D) == 0.0

    def test_death_shift(self):
        d = bottleneck_distance(diag((0.0, 1.0, K00)), diag((0.0, 1.2, K00)))
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_diagonal_beats_far_match(self):
        # matching would cost 1.0; sending both small bars home costs 0.1
        d = bottleneck_distance(diag((0.0, 0.2, K00)), diag((1.0, 1.2, K00)))
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_match_beats_diagonal(self):
        d = bottleneck_distance(diag((0.0, 4.0, K00)), diag((1.0, 3.0, K00)))
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_unequal_counts(self):
        d = bottleneck_distance(
            diag((0.0, 4.0, K00), (0.1, 0.3, K00)), diag((0.0, 4.05, K00))
        )
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_multiplicity(self):
        d = bottleneck_distance(
            diag((0.0, 1.0, K00), (0.0, 1.0, K00)), diag((0.0, 1.0, K00))
        )
        assert d == 0.5

    def test_index_classes_never_mix(self):
        # identical coordinates, different decorations: both go to the diagonal
        d = bottleneck_distance(diag((0.0, 1.0, K00)), diag((0.0, 1.0, K01)))
        assert d == 0.5

    def test_index_classes_independent_maximum(self):
        D1 = diag((0.0, 1.0, K00), (0.0, 2.0, K01))
        D2 = diag((0.0, 1.1, K00), (0.0, 2.4, K01))
        assert bottleneck_distance(D1, D2) == pytest.approx(0.4, abs=1e-15)


class TestInfinitePoints:
    def test_count_mismatch_is_infinite(self):
        assert bottleneck_distance(diag((0.0, INF, K00)), diag()) == INF

    def test_matched_by_birth(self):
        d = bottleneck_distance(diag((0.2, INF, K00)), diag((0.3, INF, K00)))
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_sorted_pairing_is_optimal(self):
        D1 = diag((0.0, INF, K00), (1.0, INF, K00))
        D2 = diag((0.1, INF, K00), (0.9, INF, K00))
        assert bottleneck_distance(D1, D2) == pytest.approx(0.1, abs=1e-15)

    def test_mismatch_in_one_class_only(self):
        D1 = diag((0.0, 1.0, K00), (0.0, INF, K01))
        D2 = diag((0.0, 1.0, K00))
        assert bottleneck_distance(D1, D2) == INF

    def test_finite_and_infinite_decouple(self):
        D1 = diag((0.0, 1.0, K00), (0.5, INF, K00))
        D2 = diag((0.0, 1.3, K00), (0.6, INF, K00))
        assert bottleneck_distance(D1, D2) == pytest.approx(0.3, abs=1e-15)


class TestWorkedPerturbation:
    def test_distance_equals_measured_matrix_distance(self, worked_matrix):
        Q = perturb(worked_matrix, PerturbationSpec(1, 2, 0.01))
        D1 = build_diagram(run_filtration(worked_matrix))
        D2 = build_diagram(run_filtration(Q))
        d_b = bottleneck_distance(D1, D2)
        assert d_b == matrix_distance(worked_matrix, Q).delta_inf
        assert d_b == pytest.approx(0.01, abs=1e-12)

    def test_matching_moves_exactly_one_point(self, worked_matrix):
        Q = perturb(worked_matrix, PerturbationSpec(1, 2, 0.01))
        D1 = build_diagram(run_filtration(worked_matrix))
        D2 = build_diagram(run_filtration(Q))
        result = bottleneck_matching(D1, D2)
        moved = [m for m in result.pairs if m.cost > 0]
        assert len(moved) == 1
        m = moved[0]
        assert m.left.death == 0.17 and m.left.index == K00
        assert m.right.death == pytest.approx(0.18, abs=1e-12)

    def test_matching_covers_all_points(self, worked_matrix):
        Q = perturb(worked_matrix, PerturbationSpec(2, 3, -0.02))
        D1 = build_diagram(run_filtration(worked_matrix))
        D2 = build_diagram(run_filtration(Q))
        result = bottleneck_matching(D1, D2)
        lefts = [m.left for m in result.pairs if m.left is not None]
        rights = [m.right for m in result.pairs if m.right is not None]
        assert sorted(lefts) == sorted(D1.points)
        assert sorted(rights) == sorted(D2.points)
        assert result.distance == max(m.cost for m in result.pairs)


class TestMetricAxioms:
    def random_diagrams(self, count):
        rng = random.Random(314)
        out = []
        while len(out) < count:
            spec = RandomChainSpec(
                n=rng.randint(3, 6), density=rng.uniform(0.4, 0.9), seed=rng.getrandbits(32)
            )
            out.append(build_diagram(run_filtration(random_chain(spec))))
        return out

    def test_identity_symmetry_triangle(self):
        diagrams = self.random_diagrams(9)
        for D in diagrams:
            assert bottleneck_distance(D, D) == 0.0
        for D1, D2, D3 in itertools.combinations(diagrams, 3):
            d12 = bottleneck_distance(D1, D2)
            d21 = bottleneck_distance(D2, D1)
            assert d12 == pytest.approx(d21, abs=1e-12)
            d13 = bottleneck_distance(D1, D3)
            d23 = bottleneck_distance(D2, D3)
            if math.isinf(d13):
                assert math.isinf(d12) or math.isinf(d23)
            elif not (math.isinf(d12) or math.isinf(d23)):
                assert d13 <= d12 + d23 + 1e-12
