"""Exact bottleneck distance: hand-sized cases, the worked perturbation, metric axioms,
equality with the frozen full-dummy-graph route, and scale."""

import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from markov_morse import bottleneck
from markov_morse.bottleneck import _bit_hopcroft_karp, _hopcroft_karp
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import ThresholdGrid, matrix_distance
from markov_morse.persistence import PersistencePoint

from bottleneck_oracle import _feasible as oracle_feasible
from bottleneck_oracle import _hopcroft_karp as oracle_hopcroft_karp
from bottleneck_oracle import oracle_matching

INF = math.inf
K00 = TopologicalIndex(0, 0)
K01 = TopologicalIndex(0, 1)
K11 = TopologicalIndex(1, 1)
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


def count_route(monkeypatch, route, *names):
    """Bind each of names in `bottleneck` to a subclass of route that counts the classes it takes.

    Returns the list of their sizes, len(A) * len(B).
    """
    reached = []

    class Counted(route):
        def __init__(self, A, B):
            reached.append(len(A) * len(B))
            super().__init__(A, B)

    for name in names:
        monkeypatch.setattr(bottleneck, name, Counted)
    return reached


@pytest.fixture(params=["dense", "windowed", "line"])
def route(request, monkeypatch):
    """One route for every class with more than one point a side; returns the sizes of the classes it took.

    dense: the default budget. windowed: the budget 0, one-birth classes
    too. line: the budget 0, so one-birth classes take the line route and
    the others the windowed one.
    """
    if request.param == "dense":
        return count_route(monkeypatch, bottleneck._Dense, "_Dense")
    monkeypatch.setattr(bottleneck, "_DENSE_ENTRIES", 0)
    if request.param == "windowed":
        return count_route(monkeypatch, bottleneck._Class, "_Class", "_Line")
    return count_route(monkeypatch, bottleneck._Line, "_Line")


class TestOverflow:
    """Finite points whose span death - birth overflows: finite distances, and no numpy warning."""

    BIG = (-1e308, 1e308, K01)  # its half-persistence is 1e308, though its span overflows

    def test_lone_point(self, route):
        for D1, D2 in [(diag(self.BIG), diag()), (diag(), diag(self.BIG))]:
            assert assert_same_as_oracle(D1, D2).distance == 1e308

    def test_crowded_class(self, route):
        # the second pair shares the birth -1e308, and its deaths differ by 1e308
        for other in [(0.0, 1.0, K01), (-1e308, 0.0, K01)]:
            D1, D2 = diag(*[self.BIG] * 3), diag(*[other] * 2)
            assert assert_same_as_oracle(D1, D2).distance == 1e308
            assert assert_same_as_oracle(D2, D1).distance == 1e308
        assert route

    def test_huge_coordinates(self, route):
        # coordinates on a grid of 1e307 up to the largest float: spans, entries
        # of D and the radius search's steps all overflow somewhere
        rng = random.Random(308)

        def point(birth=None):
            birth = rng.randint(-17, 16) if birth is None else birth
            return birth * 1e307, rng.randint(birth + 1, 17) * 1e307, K01

        for _ in range(150):
            D1, D2 = (diag(*[point() for _ in range(rng.randint(0, 6))]) for _ in range(2))
            assert math.isfinite(assert_same_as_oracle(D1, D2).distance)
        for _ in range(150):  # one birth on both sides
            birth = rng.randint(-17, 16)
            D1, D2 = (diag(*[point(birth) for _ in range(rng.randint(1, 6))]) for _ in range(2))
            assert math.isfinite(assert_same_as_oracle(D1, D2).distance)
        assert route


class TestSubnormal:
    """Coordinates a few subnormal steps apart: the radius search returns on subnormal radii."""

    A = [(5e-324, 2e-323, K01)]
    B = [(0.0, 1e-323, K01), (5e-324, 1.5e-323, K01), (5e-324, 2e-323, K01), (1e-323, 1.5e-323, K01),
         (1e-323, 2.5e-323, K01)]

    def test_pair(self, route, bounded_search):
        D1, D2 = diag(*self.A), diag(*self.B)
        assert assert_same_as_oracle(D1, D2).distance == 1e-323
        assert assert_same_as_oracle(D2, D1).distance == 1e-323

    def test_one_birth_pair(self, route, bounded_search):
        # the same deaths, all born at 5e-324
        D1, D2 = diag(*self.A), diag(*[(5e-324, death, k) for _, death, k in self.B])
        assert_same_as_oracle(D1, D2)
        assert_same_as_oracle(D2, D1)
        assert route


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


# up to 8 points on a quarter grid, one in six immortal: ties and count mismatches are common
small_diagrams = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.integers(1, 8),
        st.sampled_from([K00, K01]),
        st.integers(0, 5).map(lambda k: k == 0),
    ).map(lambda t: (t[0] / 4, INF if t[3] else (t[0] + t[1]) / 4, t[2])),
    max_size=8,
).map(lambda points: diag(*points))


class TestMetricProperties:
    @settings(deadline=None)
    @given(small_diagrams)
    def test_identity(self, D):
        assert bottleneck_distance(D, D) == 0.0

    @settings(deadline=None)
    @given(small_diagrams, small_diagrams)
    def test_exact_symmetry(self, D1, D2):
        assert bottleneck_distance(D1, D2) == bottleneck_distance(D2, D1)

    @settings(deadline=None)
    @given(small_diagrams, small_diagrams, small_diagrams)
    def test_triangle_inequality(self, D1, D2, D3):
        d12 = bottleneck_distance(D1, D2)
        d23 = bottleneck_distance(D2, D3)
        d13 = bottleneck_distance(D1, D3)
        if math.isinf(d13):
            assert math.isinf(d12) or math.isinf(d23)
        else:
            assert d13 <= d12 + d23 + 1e-12


def tie_heavy_pair(rng: random.Random):
    """Two small diagrams on a coarse grid: ties, repeated points, classes empty on one side."""
    sides = ([], [])
    for k in rng.sample([K00, K01, K11], rng.randint(1, 3)):
        scale = rng.choice([2, 3, 4, 8])
        for side, count in zip(sides, (rng.randint(0, 6), rng.randint(0, 6))):
            for _ in range(count):
                if side and rng.random() < 0.3:
                    side.append(rng.choice(side))
                else:
                    birth = rng.randrange(2 * scale)
                    side.append((birth / scale, (birth + rng.randint(1, 2 * scale)) / scale, k))
        immortal = rng.randint(0, 2)
        for side, count in zip(sides, (immortal, immortal + (rng.random() < 0.1))):
            side.extend((rng.randrange(2 * scale) / scale, INF, k) for _ in range(count))
    return diag(*sides[0]), diag(*sides[1])


def one_birth_pair(rng: random.Random):
    """Two one-class diagrams whose points share one birth, deaths on a coarse grid: ties, repeated points."""
    scale = rng.choice([2, 3, 4, 8])
    birth = rng.randrange(-2 * scale, 2 * scale)
    sides = ([], [])
    for side in sides:
        for _ in range(rng.randint(1, 8)):
            if side and rng.random() < 0.3:
                side.append(rng.choice(side))
            else:
                side.append((birth / scale, (birth + rng.randint(1, 3 * scale)) / scale, K01))
    return diag(*sides[0]), diag(*sides[1])


def synthetic_pair(seed: int, points: int, near: bool, one_birth: bool = False):
    """One-class diagrams: births in [0, 0.5], or all 0.0 with one_birth, exponential lengths of mean 0.08.

    A near pair moves each point of A by up to 0.01 in birth and death and
    redraws about one point in ten; otherwise B is drawn independently.
    With one_birth no birth moves.
    """
    rng = np.random.default_rng(seed)

    def draw(count):
        births = np.zeros(count) if one_birth else rng.uniform(0.0, 0.5, size=count)
        lengths = rng.exponential(0.08, size=count) + 1e-3
        return [(float(b), float(b + w), K01) for b, w in zip(births, lengths)]

    a = draw(points)
    if not near:
        return diag(*a), diag(*draw(points))
    b = []
    for birth, death, k in a:
        if rng.uniform() < 0.1:
            b.extend(draw(1))
        else:
            shift = float(rng.uniform(-0.01, 0.01))
            birth = birth if one_birth else max(0.0, birth + shift)
            death = max(death + float(rng.uniform(-0.01, 0.01)), birth + 1e-4)
            b.append((birth, death, k))
    return diag(*a), diag(*b)


def assert_same_as_oracle(D1, D2):
    result, expected = bottleneck_matching(D1, D2), oracle_matching(D1, D2)
    assert result == expected
    assert repr(result) == repr(expected)  # same types and signs too, not just equal values
    # the distance-only route stops at the same radius
    assert repr(bottleneck_distance(D1, D2)) == repr(result.distance)
    return result


class TestAgainstFrozenOracle:
    def test_tie_heavy_small_pairs(self):
        rng = random.Random(2017)
        finite = one_sided = 0
        for _ in range(1200):
            D1, D2 = tie_heavy_pair(rng)
            result = assert_same_as_oracle(D1, D2)
            finite += not math.isinf(result.distance)
            classes1, classes2 = ({p.index for p in D.points if p.death < INF} for D in (D1, D2))
            one_sided += classes1 != classes2
        # the generator reaches the cases it is meant to cover
        assert finite > 600 and one_sided > 400

    @pytest.mark.parametrize("near", [True, False], ids=["near", "independent"])
    def test_200_point_synthetic_pair(self, near):
        for one_birth in (False, True):
            D1, D2 = synthetic_pair(200, 200, near, one_birth)
            assert_same_as_oracle(D1, D2)

    def test_lopsided_pairs(self):
        # 2 points against 400 and back: one side's slot rows all share one
        # int or sequence, and all but two points go to the diagonal
        for one_birth in (False, True):
            small, _ = synthetic_pair(1, 2, False, one_birth)
            large, _ = synthetic_pair(2, 400, False, one_birth)
            assert_same_as_oracle(small, large)
            assert_same_as_oracle(large, small)

    def test_chain_against_perturbed_chain(self):
        rng = random.Random(41)
        for seed in range(40):
            P = random_chain(RandomChainSpec(n=rng.randint(3, 7), density=0.7, seed=seed))
            i, j = rng.sample(range(P.n), 2)
            room = P.entries[i, i] if rng.random() < 0.5 else -P.entries[i, j]
            Q = perturb(P, PerturbationSpec(i + 1, j + 1, room * rng.uniform(0.05, 1.0)))
            D1 = build_diagram(run_filtration(P))
            D2 = build_diagram(run_filtration(Q))
            assert_same_as_oracle(D1, D2)
            assert_same_as_oracle(D2, D1)

    def test_chain_against_one_edit(self):
        # a pipeline pair: 226 points a side in the (0, 1) class, d_B about 9.3e-4
        P = random_chain(RandomChainSpec(30, 0.7, seed=1))
        D1 = build_diagram(run_filtration(P))
        D2 = build_diagram(run_filtration(perturb(P, PerturbationSpec(1, 5, 0.005))))
        for D in (D1, D2):
            assert sum(p.index == K01 and p.death < INF for p in D.points) == 226
        assert assert_same_as_oracle(D1, D2).distance == pytest.approx(9.34e-4, rel=1e-3)
        assert_same_as_oracle(D2, D1)


class TestAgainstFrozenOracleWindowed(TestAgainstFrozenOracle):
    """The same comparisons with the budget at 0, so that they reach the windowed route.

    Every class with points on both sides and more than one on some side
    takes it, one-birth classes too; at the default budget no class of
    these comparisons does.
    """

    @pytest.fixture(autouse=True)
    def windowed(self, monkeypatch):
        monkeypatch.setattr(bottleneck, "_DENSE_ENTRIES", 0)
        reached = count_route(monkeypatch, bottleneck._Class, "_Class", "_Line")
        yield
        assert reached  # the comparisons did reach the windowed route


class TestAgainstFrozenOracleLine(TestAgainstFrozenOracle):
    """The same comparisons with the budget at 0, so that their one-birth classes reach the line route."""

    @pytest.fixture(autouse=True)
    def line(self, monkeypatch):
        monkeypatch.setattr(bottleneck, "_DENSE_ENTRIES", 0)
        reached = count_route(monkeypatch, bottleneck._Line, "_Line")
        yield
        assert reached  # the comparisons did reach the line route


class TestProbesAgainstOracle:
    """Each route's probe against the oracle's feasibility test, at every candidate radius."""

    def check(self, c, radii, feasible, optimum, r):
        """The probe at r: r when r is feasible, otherwise a candidate b that no radius in [r, b) reaches."""
        b = c.probe(r)
        if feasible[r]:
            assert b == r
            return b
        assert b > r
        assert b in feasible  # a candidate
        assert b <= optimum
        assert not any(feasible[x] for x in radii if r <= x < b)
        return b

    def test_tie_heavy_classes(self):
        # the first half of `test_tie_heavy_small_pairs`' pool, which keeps this test near 2 s
        pool, rng = random.Random(2017), random.Random(1990)
        probed, jumps, skips = 0, Counter(), Counter()
        for _ in range(600):
            groups1, groups2 = map(bottleneck._by_class, tie_heavy_pair(pool))
            for k in groups1.keys() | groups2.keys():
                (A, _), (B, _) = groups1.get(k, ([], [])), groups2.get(k, ([], []))
                if max(len(A), len(B)) < 2:
                    continue
                radii = sorted(
                    {(p.death - p.birth) / 2.0 for p in A + B}
                    | {max(abs(a.birth - b.birth), abs(a.death - b.death)) for a in A for b in B}
                )
                feasible = {r: oracle_feasible(A, B, r) is not None for r in radii}
                optimum = oracle_matching(diag(*A), diag(*B)).distance
                # only the dense route takes a class empty on one side
                routes = [(bottleneck._Dense(A, B), radii)]
                if A and B:
                    # the windowed route in both orders: a probe does not depend on the ones before it
                    routes.append((bottleneck._Class(A, B), radii))
                    routes.append((bottleneck._Class(A, B), rng.sample(radii, len(radii))))
                for c, order in routes:
                    for r in order:
                        b = self.check(c, radii, feasible, optimum, r)
                        jumps[type(c).__name__] += b != r
                        # past the next candidate, where bisection would step
                        skips[type(c).__name__] += b != r and b > radii[radii.index(r) + 1]
                        probed += 1
        assert probed > 15_000 and jumps["_Dense"] > 3_000 and skips["_Dense"] > 500
        assert jumps["_Class"] > 5_000 and skips["_Class"] > 3_000

    def test_one_birth_classes(self):
        rng = random.Random(1967)
        probed = jumps = skips = 0
        for _ in range(800):
            A, B = (list(D.points) for D in one_birth_pair(rng))
            radii = {(p.death - p.birth) / 2.0 for p in A + B} | {abs(a.death - b.death) for a in A for b in B}
            radii = sorted(radii)
            feasible = {r: oracle_feasible(A, B, r) is not None for r in radii}
            optimum = oracle_matching(diag(*A), diag(*B)).distance
            c = bottleneck._Line(A, B)
            for r in rng.sample(radii, len(radii)):
                b = self.check(c, radii, feasible, optimum, r)
                jumps += b != r
                skips += b != r and b > radii[radii.index(r) + 1]
                probed += 1
        assert probed > 7_000 and jumps > 3_500 and skips > 1_200


class TestDenseJumps:
    def test_probe_count_on_near_256_point_pairs(self, monkeypatch, bounded_search):
        # 36 dense probes; the smallest value of each violator took 45, and
        # bisecting the bracket above the lower bound took 112
        classes = count_route(monkeypatch, bottleneck._Dense, "_Dense")
        for seed in range(20):
            bottleneck_distance(*synthetic_pair(seed, 256, near=True))
        assert classes == [256 * 256] * 20
        # each class probes its lower bound first, so a probe more than the classes is a lower bound that failed
        assert len(classes) < bounded_search["_Dense"] <= 40


class TestWindowedJumps:
    """The windowed and line routes climb by Hall-violator jumps, as the dense route does."""

    def test_probe_count_on_near_300_point_pairs(self, monkeypatch, bounded_search):
        # 40 windowed probes; the bracket search took 213
        classes = count_route(monkeypatch, bottleneck._Class, "_Class")
        for seed in range(20):
            bottleneck_distance(*synthetic_pair(seed, 300, near=True))
        assert classes == [300 * 300] * 20
        assert len(classes) < bounded_search["_Class"] <= 45

    def test_probe_count_on_near_300_point_one_birth_pairs(self, monkeypatch, bounded_search):
        # 78 line probes; the bracket search took 341
        classes = count_route(monkeypatch, bottleneck._Line, "_Line")
        for seed in range(20):
            bottleneck_distance(*synthetic_pair(seed, 300, near=True, one_birth=True))
        assert classes == [300 * 300] * 20
        assert len(classes) < bounded_search["_Line"] <= 85

    @pytest.mark.parametrize(
        "route, sizes, one_birth",
        [("_Class", (400, 200), False), ("_Line", (400, 200), True), ("_Dense", (256, 128), False)],
        ids=["windowed", "line", "dense"],
    )
    def test_probe_count_when_points_must_go_to_the_diagonal(self, bounded_search, route, sizes, one_birth):
        # long bars, twice as many in A as in B, all within 0.01 of each
        # other, so half of A's go to the diagonal. Bounds that count a
        # violator's surplus take 2-3 probes; one violator per free point
        # climbed one half-persistence a probe (302 and 309 windowed and
        # line, 129 dense), and the bracket search took 36 and 43
        rng = np.random.default_rng(5)

        def bars(count):
            births = np.zeros(count) if one_birth else rng.uniform(0.0, 0.01, count)
            return diag(*[(b, 10.0 + d, K01) for b, d in zip(births.tolist(), rng.uniform(0.0, 0.01, count).tolist())])

        A, B = map(bars, sizes)
        assert bottleneck_distance(A, B) == pytest.approx(5.0, abs=0.01)
        assert set(bounded_search) == {route}
        assert bounded_search.total() <= 5


def test_bounded_search_counts_a_line_probe_once(bounded_search):
    # `_Line` and `_Class` each define `probe`: one `_radius` on a 300-point
    # one-birth class counts its probes under `_Line` alone, so the cap of
    # 200 is 200 line probes
    A, B = (list(D.points) for D in synthetic_pair(1, 300, near=True, one_birth=True))
    bottleneck._radius(bottleneck._Line(A, B))
    assert set(bounded_search) == {"_Line"} and bounded_search["_Line"] > 1


def random_rows(rng: random.Random, n_left: int, n_right: int) -> list[list[int]]:
    """Each left node's distinct right neighbours, in a random scan order."""
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    return [[v for v in rng.sample(range(n_right), n_right) if rng.random() < density] for _ in range(n_left)]


def split(rng: random.Random, row: list[int]) -> tuple[list[int], ...]:
    """row cut into consecutive sequences, some of them empty."""
    cuts = sorted(rng.randint(0, len(row)) for _ in range(rng.randint(0, 3)))
    return tuple(row[i:j] for i, j in zip([0, *cuts], [*cuts, len(row)]))


def slot_graph(rng: random.Random, na: int, nb: int):
    """The reported matching's graph: A's rows, then one B-slot row per B point sharing near_b and slots.

    Returns the library's rows, the oracle's flat rows and the shared sequences.
    """
    slots = range(nb, nb + na)
    near_b = [j for j in range(nb) if rng.random() < 0.5]
    rows = [sorted(row) for row in random_rows(rng, na, nb)]
    adj = [(row, slots) if rng.random() < 0.5 else (row,) for row in rows]
    adj.extend([(near_b, slots)] * nb)
    return adj, [[v for seq in row for v in seq] for row in adj], (near_b, slots)


def linf_matrix(D1, D2):
    """D between the points of D1 and D2, one row per D1 point, and both sides' half-persistences."""
    a, b = (np.array([(p.birth, p.death) for p in D.points]) for D in (D1, D2))
    D = np.maximum(
        np.abs(np.subtract.outer(a[:, 0], b[:, 0])), np.abs(np.subtract.outer(a[:, 1], b[:, 1]))
    )
    return D, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def optimum_slot_graph(D1, D2):
    """The reported matching's graph of a one-class pair at its optimum, built as `_slot_pairs` builds it.

    Returns the library's rows, the oracle's flat rows and the shared sequences.
    """
    D, half_a, half_b = linf_matrix(D1, D2)
    eps = bottleneck_distance(D1, D2)
    na, nb = D.shape
    slots = range(nb, nb + na)
    near_b = [j for j in range(nb) if half_b[j] <= eps]
    rows = [np.flatnonzero(row).tolist() for row in D <= eps]
    adj = [(row, slots) if h <= eps else (row,) for row, h in zip(rows, half_a)]
    adj.extend([(near_b, slots)] * nb)
    return adj, [[v for seq in row for v in seq] for row in adj], (near_b, slots)


def free_after_greedy(flat, n_right):
    """The left nodes still free after each left node in turn takes the first free node of its row."""
    taken, free = [False] * n_right, 0
    for row in flat:
        v = next((v for v in row if not taken[v]), None)
        if v is None:
            free += 1
        else:
            taken[v] = True
    return free


def assert_matching(adj, match_left):
    """match_left pairs each left node with a neighbour, and no right node twice."""
    taken = [v for v in match_left if v != -1]
    assert len(taken) == len(set(taken))
    assert all(v == -1 or any(v in seq for seq in row) for row, v in zip(adj, match_left))


def as_int(seq) -> int:
    """The right nodes of seq as an int, bit v for node v."""
    return sum(1 << v for v in seq)


def bit_hopcroft_karp(adj, n_right, shared=(), all_layers=True):
    """`_bit_hopcroft_karp` on the list routine's rows: an int per sequence, one int object per shared one.

    Rows that are one tuple in adj, as the slot rows are, stay one tuple.
    """
    ints = {id(seq): as_int(seq) for seq in shared}
    tuples = {id(row): tuple(ints[id(seq)] if id(seq) in ints else as_int(seq) for seq in row) for row in adj}
    match_left, _ = _bit_hopcroft_karp([tuples[id(row)] for row in adj], n_right, all_layers)
    return match_left


class TestHopcroftKarpAgainstOracle:
    """The library's matching routine, from an empty matching, makes the textbook run's match_left."""

    match = staticmethod(_hopcroft_karp)
    order = staticmethod(list)  # the order the routine needs each row's right nodes in: any

    def test_plain_rows(self):
        rng = random.Random(1973)
        for _ in range(300):
            n_left, n_right = rng.randint(0, 25), rng.randint(0, 25)
            rows = [self.order(row) for row in random_rows(rng, n_left, n_right)]
            assert self.match([(row,) for row in rows], n_right) == oracle_hopcroft_karp(rows, n_right)

    def test_rows_with_empty_sequences(self):
        rng = random.Random(1974)
        empty = 0
        for _ in range(300):
            n_left, n_right = rng.randint(0, 25), rng.randint(0, 25)
            rows = [self.order(row) for row in random_rows(rng, n_left, n_right)]
            adj = [split(rng, row) for row in rows]
            empty += sum(not seq for row in adj for seq in row)
            assert self.match(adj, n_right) == oracle_hopcroft_karp(rows, n_right)
        assert empty > 300  # the generator makes the empty sequences it is meant to

    def test_no_edges(self):
        for n_left, n_right in [(0, 0), (0, 3), (4, 0), (5, 5)]:
            adj = [([],), (), ([], [])] * n_left
            expected = oracle_hopcroft_karp([[]] * len(adj), n_right)
            assert self.match(adj, n_right) == expected == [-1] * len(adj)

    def test_slot_form(self):
        rng = random.Random(1975)
        for _ in range(300):
            adj, flat, shared = slot_graph(rng, rng.randint(0, 15), rng.randint(0, 15))
            n_right = len(adj)  # na + nb on either side
            assert self.match(adj, n_right, shared=shared) == oracle_hopcroft_karp(flat, n_right)


class TestBitHopcroftKarpAgainstOracle(TestHopcroftKarpAgainstOracle):
    """The same comparisons on `_bit_hopcroft_karp`, whose int rows scan their right nodes ascending."""

    match = staticmethod(bit_hopcroft_karp)
    order = staticmethod(sorted)

    def test_first_layer_cut_gives_the_list_routines_matching(self):
        # with all_layers off the matching may differ from the textbook run's,
        # but the int routine still makes the list routine's
        rng = random.Random(1976)
        cut = 0
        for _ in range(300):
            n_left, n_right = rng.randint(0, 25), rng.randint(0, 25)
            adj = [split(rng, sorted(row)) for row in random_rows(rng, n_left, n_right)]
            result = _hopcroft_karp(adj, n_right, all_layers=False)
            assert bit_hopcroft_karp(adj, n_right, all_layers=False) == result
            cut += result != _hopcroft_karp(adj, n_right)
        for _ in range(300):
            adj, _, shared = slot_graph(rng, rng.randint(0, 15), rng.randint(0, 15))
            result = _hopcroft_karp(adj, len(adj), shared=shared, all_layers=False)
            assert bit_hopcroft_karp(adj, len(adj), shared=shared, all_layers=False) == result
        assert cut > 0  # the cut does change some matchings

    def test_reached_is_a_hall_violator(self):
        # with a left node left free, the last pass's reached right nodes Z_R and the left nodes
        # Z_L they and the free nodes make: Z_R is all of Z_L's neighbours, and |Z_R| < |Z_L|
        rng = random.Random(1977)
        violators = 0
        for _ in range(300):
            n_left, n_right = rng.randint(0, 25), rng.randint(0, 25)
            rows = [sorted(row) for row in random_rows(rng, n_left, n_right)]
            for all_layers in (True, False):
                match_left, reached = _bit_hopcroft_karp([(as_int(row),) for row in rows], n_right, all_layers)
                if -1 not in match_left:
                    assert reached == 0
                    continue
                z_l = [u for u, v in enumerate(match_left) if v == -1 or reached >> v & 1]
                assert reached == as_int({v for u in z_l for v in rows[u]})
                assert reached.bit_count() < len(z_l)
                violators += 1
        assert violators > 100


class TestHopcroftKarpAtMatchScale:
    """The same routine on the graphs of `match`-sized pairs: 100-200 points a side in one class."""

    PAIRS = [(seed, points, near)
             for seed, points in enumerate((100, 150, 200, 200)) for near in (True, False)]
    match = staticmethod(_hopcroft_karp)

    def test_slot_form_at_the_optimum(self):
        free = []
        for seed, points, near in self.PAIRS:
            adj, flat, shared = optimum_slot_graph(*synthetic_pair(seed, points, near))
            n_right = len(adj)
            free.append(free_after_greedy(flat, n_right))
            assert self.match(adj, n_right, shared=shared) == oracle_hopcroft_karp(flat, n_right)
        # the greedy pass leaves some graphs complete and some with free nodes
        # for the breadth-first phases
        assert 0 in free and max(free) >= 1

    def test_one_sided_checks(self):
        # as `_covers` calls it: each side's far points into the other side,
        # from an empty matching with the first-layer cut, at the optimum and
        # below it
        free = []
        for seed, points, near in self.PAIRS:
            D1, D2 = synthetic_pair(seed, points, near)
            D, half_a, half_b = linf_matrix(D1, D2)
            eps = bottleneck_distance(D1, D2)
            for r in (eps, eps * 0.9, eps * 0.5):
                for within, half in ((D <= r, half_a), ((D <= r).T, half_b)):
                    rows = [np.flatnonzero(row).tolist() for row in within[half > r]]
                    n_right = within.shape[1]
                    free.append(free_after_greedy(rows, n_right))
                    adj = [(row,) for row in rows]
                    result = self.match(adj, n_right, all_layers=False)
                    assert_matching(adj, result)
                    expected = oracle_hopcroft_karp(rows, n_right)
                    assert sum(v != -1 for v in result) == sum(v != -1 for v in expected)
        assert 0 in free and max(free) >= 1


class TestBitHopcroftKarpAtMatchScale(TestHopcroftKarpAtMatchScale):
    """The same graphs, whose rows ascend, on `_bit_hopcroft_karp`: the slot rows share one int each."""

    match = staticmethod(bit_hopcroft_karp)


def traced_peak(f, *args):
    """f(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def staircase_pair(n: int):
    """n + 1 long bars a side whose one optimal matching needs a path through all of them.

    Births sit in a band narrower than the radius and only order the points;
    deaths make the graph at radius 0.5: a_i (i < n) is within it of b_i and
    b_(i+1), and the last point a_n of b_0 alone. The first phase matches
    a_i with b_i for i < n, which leaves a_n one augmenting path of length
    2n + 1.
    """
    a = [(i / (4 * n), 10.5 + i, K01) for i in range(n)] + [(0.25, 9.5, K01)]
    b = [(j / (4 * n), 10.0 + j, K01) for j in range(n + 1)]
    return diag(*a), diag(*b)


def caller_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestScale:
    def test_2000_point_pair(self):
        D1, D2 = synthetic_pair(2000, 2000, near=True)
        result = bottleneck_matching(D1, D2)
        lefts = [m.left for m in result.pairs if m.left is not None]
        rights = [m.right for m in result.pairs if m.right is not None]
        assert sorted(lefts) == sorted(D1.points)  # every point covered exactly once
        assert sorted(rights) == sorted(D2.points)
        assert max(m.cost for m in result.pairs) == result.distance
        assert bottleneck_distance(D2, D1) == result.distance

    def test_memory_follows_the_edges_not_the_square(self):
        # the optimum graph {D <= eps} of this pair is sparse; a dense D of
        # 3000 x 3000 float64 entries alone would take 72 MB
        D1, D2 = synthetic_pair(1, 3000, near=True)
        result, peak = traced_peak(bottleneck_matching, D1, D2)
        assert result.distance == pytest.approx(0.04395, abs=1e-5)
        assert peak < 40 * 2**20

    def test_memory_on_a_dense_optimum_graph(self):
        # a third of all pairs lie within this pair's d_B; the route that held
        # the dense D peaked at 311 MB traced here, this one at 110 MB
        D1, D2 = synthetic_pair(3000, 3000, near=True)
        result, peak = traced_peak(bottleneck_matching, D1, D2)
        assert result.distance == pytest.approx(0.14199, abs=1e-5)
        assert peak < 140 * 2**20

    def test_dense_optimum_graph_under_the_dense_matrix(self):
        D1, D2 = synthetic_pair(3000, 3000, near=True)
        _, peak = traced_peak(bottleneck_distance, D1, D2)
        assert peak < 72 * 2**20

    @pytest.mark.parametrize("args", [(3000, 3000, True), (7, 3000, False)], ids=["near", "independent"])
    def test_windowed_distance_memory_follows_the_far_points(self, args):
        # a probe reads the edges of its far points only; reading every edge
        # within the radius peaked at 92 and 118 MiB traced here
        D1, D2 = synthetic_pair(*args)
        _, peak = traced_peak(bottleneck_distance, D1, D2)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((2000, 2000, True), "7bbcd83b22053894b40b35bfbcfb4df478c4004e609acc7023ae83137ecf61b5"),
            ((1, 3000, True), "f47e4e4cc337e1bd86de25d4d8035211ada3fe82fab4d29997b06cb8b2d44577"),
            ((1, 3000, True, True), "489d066080c0a7d9f237dde8035af118bdc77eeb4592c9a22b6387e3b16280dc"),
            ((2, 3000, False, True), "d47f69db2dfbd4183918794569fea5cbcbc5d3c24a788618fbeed99adb687c08"),
        ],
        ids=["windowed-near-2000", "windowed-near-3000", "line-near-3000", "line-independent-3000"],
    )
    def test_windowed_and_line_digests(self, args, digest):
        # frozen from the bracket search that the jumps replaced
        D1, D2 = synthetic_pair(*args)
        assert hashlib.sha256(repr(bottleneck_matching(D1, D2)).encode()).hexdigest() == digest

    def test_line_distance_memory_follows_the_points(self):
        # 10,000 points a side; listing every entry of D up to the largest
        # radius probed peaked at 957 MiB traced here
        D1, D2 = synthetic_pair(1, 10000, near=True, one_birth=True)
        distance, peak = traced_peak(bottleneck_distance, D1, D2)
        assert distance == pytest.approx(0.03940, abs=1e-5)
        assert peak < 64 * 2**20

    @pytest.mark.slow
    def test_n100_chain_pair_digest(self):
        # frozen from the dense route: a 2,462-point class, d_B about 7.81e-5
        P = random_chain(RandomChainSpec(100, 0.7, seed=1))
        D1 = build_diagram(run_filtration(P))
        D2 = build_diagram(run_filtration(perturb(P, PerturbationSpec(1, 3, 0.005))))
        digest = hashlib.sha256(repr(bottleneck_matching(D1, D2)).encode()).hexdigest()
        assert digest == "1f930631a6256cf78de6be95c1c56b139ae2a2d1a952f296d1b9562046a447e3"

    def test_dense_route_staircase(self, monkeypatch):
        # 256 points a side, exactly the dense budget: the int rows' last
        # phase flips one augmenting path through every point
        n = 255
        D1, D2 = staircase_pair(n)
        reached = count_route(monkeypatch, bottleneck._Dense, "_Dense")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(caller_depth() + 30)
        try:
            result = bottleneck_matching(D1, D2)
        finally:
            sys.setrecursionlimit(limit)
        assert reached == [(n + 1) ** 2] == [bottleneck._DENSE_ENTRIES]
        assert result.distance == 0.5
        # the first phase matched a_i with b_i; the path leaves a_i with b_(i+1) and a_n with b_0
        a, b = D1.points, D2.points
        assert sorted((m.left, m.right) for m in result.pairs) == sorted([*zip(a[:n], b[1:]), (a[n], b[0])])

    def test_recursion_limit_is_irrelevant(self):
        n = 1000
        D1, D2 = staircase_pair(n)
        staircase_graph = [[i, i + 1] for i in range(n)] + [[0]]
        limit = sys.getrecursionlimit()
        # room for the library's call chain and numpy's wrappers; the
        # recursive oracle needs one frame per step of the long path
        sys.setrecursionlimit(caller_depth() + 30)
        try:
            result = bottleneck_matching(D1, D2)
            with pytest.raises(RecursionError):
                oracle_hopcroft_karp(staircase_graph, n + 1)
        finally:
            sys.setrecursionlimit(limit)
        assert result.distance == 0.5
        assert [m.cost for m in result.pairs] == [0.5] * (n + 1)
        assert sorted(m.left for m in result.pairs) == sorted(D1.points)
        assert sorted(m.right for m in result.pairs) == sorted(D2.points)
