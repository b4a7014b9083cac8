"""The event-driven sweep against the full-rebuild oracle, stage by stage.

`run_filtration` applies each threshold's unions once and contracts only
the Morse sets a union joins; `tests/filtration_oracle.py` rebuilds every
stage from scratch. Stages must hold the same Morse sets and indices, the
lineage must be what `containment_map` reads off consecutive oracle stages,
and the diagrams must serialize to the same JSON.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtration_oracle as oracle
import sweep_oracle
from markov_morse import (
    RandomChainSpec,
    TransitionMatrix,
    build_diagram,
    diagram_to_json,
    random_chain,
    run_filtration,
)
from markov_morse import dynamics, homology, persistence
from markov_morse.cells import build_complex
from markov_morse.dynamics import MorseSet, morse_sets
from markov_morse.harness import containment_map
from markov_morse.homology import topological_index
from markov_morse.mvf import build_mvf

from cells_oracle import closure, is_coarsening
from components_oracle import _components, index_by_components
from gf2_oracle import betti_by_rank

SIZES = range(1, 13)
SEEDS = range(15)
DENSITIES = (0.3, 0.5, 0.7, 1.0)


def random_family(n, seed):
    return random_chain(RandomChainSpec(n, DENSITIES[seed % len(DENSITIES)], seed))


def tie_heavy(n, seed):
    """Off-diagonals rounded down to 2 decimals, the diagonal re-balanced."""
    P = random_chain(RandomChainSpec(n, 1.0 if seed % 2 else 0.7, seed))
    rows = np.floor(P.entries * 100) / 100
    np.fill_diagonal(rows, 0.0)
    np.fill_diagonal(rows, 1.0 - rows.sum(axis=1))
    return TransitionMatrix(rows)


def one_way(n, seed):
    """Mass only on and above the diagonal: every edge has a zero reverse entry."""
    P = random_chain(RandomChainSpec(n, DENSITIES[seed % len(DENSITIES)], seed))
    rows = np.triu(P.entries)
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


FAMILIES = {"random": random_family, "tie_heavy": tie_heavy, "one_way": one_way}


def expected_lineage(prev, nxt) -> dict[int, tuple[int, ...]]:
    """Born set -> absorbed previous labels, read off the containment map."""
    parts: dict[int, list[int]] = {}
    for s, t in containment_map(prev, nxt).items():
        parts.setdefault(t, []).append(s)
    return {t: tuple(sorted(p)) for t, p in parts.items() if p != [t]}


def assert_matches_oracle(P):
    F, G = run_filtration(P), oracle.run_filtration(P)
    assert F.grid == G.grid and F.complex == G.complex
    assert len(F.stages) == len(G.stages)
    for k, (mine, theirs) in enumerate(zip(F.stages, G.stages)):
        assert mine.gamma == theirs.gamma
        assert mine.morse_sets == theirs.morse_sets
        assert mine.index_of == theirs.index_of
        assert mine.absorbed == (expected_lineage(G.stages[k - 1], theirs) if k else {})
    assert diagram_to_json(build_diagram(F)) == diagram_to_json(oracle.build_diagram(G))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_equals_full_rebuild(family, n):
    for seed in SEEDS:
        assert_matches_oracle(FAMILIES[family](n, seed))


@pytest.mark.parametrize(
    "rows",
    [np.eye(4), [[1.0]], [[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
    ids=["eye4", "single_state", "one_way_pair", "symmetric_pair"],
)
def test_sweep_equals_full_rebuild_on_edge_cases(rows):
    assert_matches_oracle(TransitionMatrix(rows))


def test_the_families_hold_ties_and_zero_reverse_entries():
    # guards the generators: without ties or zero entries the sweep's
    # grouping and gamma-0 paths would go untested
    tied = tie_heavy(8, 1).entries
    off = tied[~np.eye(8, dtype=bool)]
    positive = off[off > 0]
    assert len(np.unique(positive)) < len(positive)
    upper = one_way(6, 2).entries
    assert np.all(np.tril(upper, -1) == 0) and np.any(np.triu(upper, 1) > 0)


# Small integer weights make ties and zero entries the common case.
weight_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def weighted_chain(weights):
    """The chain with rows proportional to the weights, plus one on the diagonal."""
    rows = np.array(weights, dtype=float)
    np.fill_diagonal(rows, rows.diagonal() + 1.0)
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


@settings(deadline=None, max_examples=150)
@given(weight_rows)
def test_property_sweep_equals_full_rebuild(weights):
    assert_matches_oracle(weighted_chain(weights))


@settings(deadline=None, max_examples=150)
@given(weight_rows)
def test_property_coarsening_and_containment(weights):
    # the fields build_mvf defines at the stage gammas coarsen, Morse sets nest
    # into the next stage's, and every Morse set is a union of multivectors
    P = weighted_chain(weights)
    F = run_filtration(P)
    fields = [build_mvf(F.complex, P, stage.gamma) for stage in F.stages]
    for prev, nxt, fine, coarse in zip(F.stages, F.stages[1:], fields, fields[1:]):
        assert is_coarsening(coarse, fine)
        assert set(containment_map(prev, nxt)) == {m.label for m in prev.morse_sets}
    for stage, fld in zip(F.stages, fields):
        # both partition the cells, so this makes each set a union of multivectors
        for m in stage.morse_sets:
            assert all(v <= m.cells for v in fld if v & m.cells)


@settings(deadline=None, max_examples=150)
@given(weight_rows)
def test_property_morse_set_closures_are_connected(weights):
    # the premise of the library's count formula: on every set the sweep
    # indexes and every set the static `morse_sets` gives at the stage
    # gammas, one component, and the counts agree with components and GF(2)
    P = weighted_chain(weights)
    F = run_filtration(P)
    X = F.complex
    static = []
    for stage in F.stages:
        static.extend(morse_sets(X, P, stage.gamma))
    swept = [m for stage in F.stages for m in stage.morse_sets]
    for m in swept + static:
        assert _components(X, m.cells).components == 1
        gf2 = (betti_by_rank(X, closure(X, m.cells))[1], betti_by_rank(X, m.cells)[1])
        assert topological_index(X, m) == index_by_components(X, m.cells) == gf2


def fold(F, gammas):
    """The Morse sets and their indices at each gamma, folded from the first grid value's sets and the birth log."""
    base = {m.label: m.cells for m in morse_sets(F.complex, F.matrix, F.grid[0])}
    cells, index, k = {}, {}, 0
    for gamma in gammas:
        while k < len(F.births) and F.births[k].gamma <= gamma:
            b = F.births[k]
            cells[b.label] = frozenset().union(*(cells.pop(p) for p in b.parts)) if b.parts else base[b.label]
            for p in b.parts:
                del index[p]
            index[b.label] = b.index
            k += 1
        yield tuple(MorseSet(label, cells[label]) for label in sorted(cells)), dict(index)


@pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
def test_birth_log_folds_to_the_static_route_at_n100(density):
    # the stage checks above stop at n=24; at 16 evenly spaced grid values of
    # one n=100 chain, the sets and indices the log folds to are the static
    # route's
    P = random_chain(RandomChainSpec(100, density, seed=100))
    F = run_filtration(P)
    X, grid = F.complex, F.grid.values
    gammas = [grid[round(j * (len(grid) - 1) / 15)] for j in range(16)]
    for gamma, (sets, index_of) in zip(gammas, fold(F, gammas)):
        assert sets == morse_sets(X, P, gamma), f"gamma={gamma}"
        assert index_of == {m.label: topological_index(X, m) for m in sets}, f"gamma={gamma}"


class TestIncremental:
    def test_index_computed_only_for_born_sets(self):
        # the log holds one birth per set born, in grid order: every base set
        # at the first grid value with no parts, then each set the oracle's
        # consecutive stages show merging, with its parts; each counted index
        # is the one components give on the oracle's set
        for seed in range(4):
            P = random_chain(RandomChainSpec(9, 0.7, seed))
            F, G = run_filtration(P), oracle.run_filtration(P)
            X = F.complex
            born = [(G.grid[0], m.label, ()) for m in G.stages[0].morse_sets]
            for prev, nxt in zip(G.stages, G.stages[1:]):
                born += [(nxt.gamma, t, parts) for t, parts in sorted(expected_lineage(prev, nxt).items())]
            assert sorted((b.gamma, b.label, b.parts) for b in F.births) == born
            assert [b.gamma for b in F.births] == sorted(b.gamma for b in F.births)
            cells = {(stage.gamma, m.label): m.cells for stage in G.stages for m in stage.morse_sets}
            for b in F.births:
                assert b.index == index_by_components(X, cells[b.gamma, b.label])

    def test_timed_path_calls_neither_topological_index_nor_the_replay(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called on the run_filtration + build_diagram path")

        for module in (homology, persistence):  # where the sweep would look it up
            monkeypatch.setattr(module, "topological_index", refuse, raising=False)
        monkeypatch.setattr(persistence, "_replay", refuse)
        # nor does it keep a snapshot of any stage: no MorseSet, no frozenset
        for name in ("MorseSet", "frozenset"):
            monkeypatch.setattr(persistence, name, refuse, raising=False)
        P = random_chain(RandomChainSpec(9, 0.7, 4))
        F = run_filtration(P)
        D = build_diagram(F)
        assert "stages" not in vars(F) and F.matrix is P
        monkeypatch.undo()
        assert len(F.stages) == len(F.grid)
        assert D == oracle.build_diagram(oracle.run_filtration(random_chain(RandomChainSpec(9, 0.7, 4))))

    def test_unchanged_sets_are_shared_with_the_previous_stage(self):
        F = run_filtration(random_chain(RandomChainSpec(9, 0.7, 5)))
        for prev, stage in zip(F.stages, F.stages[1:]):
            before = {m.label: m for m in prev.morse_sets}
            for m in stage.morse_sets:
                if m.label not in stage.absorbed:
                    assert m is before[m.label]
                    assert stage.index_of[m.label] is prev.index_of[m.label]

    def test_equal_indices_share_one_object_within_one_call(self):
        # the index table lives for one run_filtration call: every birth of
        # one sweep with a given index holds the same object, and a second
        # call builds its own
        P = random_chain(RandomChainSpec(9, 0.7, 5))
        F, G = run_filtration(P), run_filtration(P)
        assert len({id(b.index) for b in F.births}) == len({b.index for b in F.births}) > 1
        assert F.births == G.births
        assert all(f.index is not g.index for f, g in zip(F.births, G.births))

    def test_every_born_set_absorbed_at_least_two(self):
        F = run_filtration(random_chain(RandomChainSpec(10, 1.0, 6)))
        for stage in F.stages[1:]:
            assert all(len(parts) >= 2 for parts in stage.absorbed.values())


@pytest.fixture
def contractions(monkeypatch):
    """Each join `run_filtration` makes, as (branch, sets merged, label of the set whose storage is kept).

    The branch is "cone" when `join` searched top's forward cone (it called
    `_cone`) and "one successor" when it merged {top, bottom} at once. The
    sets merged are the live sets whose storage the join removed, plus the
    edge e when it was a lone set, plus the one whose storage it changed:
    the set kept, named by its label before the join.
    """
    log, searched = [], []
    join, cone = persistence._Sweep.join, persistence._Sweep._cone

    def spy_cone(self, top, bottom):
        searched.append(top)
        return cone(self, top, bottom)

    def spy_join(self, v, r):
        before, lone = {x: list(p) for x, p in self.part.items()}, self.anchor[r] < 0
        searched.clear()
        join(self, v, r)
        kept = [x for x, p in self.part.items() if before.get(x) != p]
        assert len(kept) == 1 and kept[0] in before
        merged = len(before.keys() - self.part.keys()) + lone + 1
        vertices = before[kept[0]][0]
        log.append(("cone" if searched else "one successor", merged, (vertices & -vertices).bit_length() - 1))

    monkeypatch.setattr(persistence._Sweep, "_cone", spy_cone)
    monkeypatch.setattr(persistence._Sweep, "join", spy_join)
    return log


class TestJoinBranches:
    """One hand-built chain per branch of `_Sweep.join`; states a, b, c are cells 0, 1, 2 and edges ab, ac, bc 3, 4, 5."""

    def test_lone_edge_into_the_set_of_both_endpoints_has_one_successor(self, contractions):
        # at 0.1, a and b join through c while the edge ab stays alone, its
        # mouth {a, b} inside that one set; at 0.3 a's entry along ab makes
        # ab's set top and the set of a, b, c its only successor
        P = TransitionMatrix([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.1, 0.1, 0.8]])
        assert_matches_oracle(P)
        contractions.clear()
        F = run_filtration(P)
        assert contractions[-1] == ("one successor", 2, 0)  # kept: {a, b, c}
        assert F.births[-1][:3] == (0.3, 0, (0, 3))
        assert F.births[-1].index == (1, 1)

    def test_top_with_two_successors_searches_its_cone(self, contractions):
        # by 0.2 the sets are {a, ab, ac} (mouth b, c), {b, bc} (mouth c) and
        # {c}; at 0.3 c's entry along ac joins top {a, ab, ac} to bottom {c},
        # and the path top -> {b, bc} -> {c} pulls the middle set in too, so
        # merging {top, bottom} alone would be wrong
        P = TransitionMatrix([[0.8, 0.1, 0.1], [0.4, 0.4, 0.2], [0.3, 0.5, 0.2]])
        assert_matches_oracle(P)
        contractions.clear()
        F = run_filtration(P)
        assert contractions[-1] == ("cone", 3, 2)  # one vertex each: the tie goes to bottom, {c}
        assert [b[:3] for b in F.births if b.gamma == 0.3] == [(0.3, 0, (0, 1, 2))]

    def test_three_sets_merge_into_the_heaviest_middle_one(self, contractions):
        # by 0.1 the sets are {a}, {b, c, ac, bc} (mouth a) and the lone edge
        # ab (mouth a, b); at 0.3 a's entry along ab contracts all three, and
        # the storage kept is the middle set's, neither top's nor bottom's
        P = TransitionMatrix([[0.3, 0.3, 0.4], [0.5, 0.4, 0.1], [0.1, 0.1, 0.8]])
        assert_matches_oracle(P)
        contractions.clear()
        F = run_filtration(P)
        assert contractions[-1] == ("cone", 3, 1)  # {b, c, ac, bc}, the part with most vertices
        assert [b[:3] for b in F.births if b.gamma == 0.3] == [(0.3, 0, (0, 1, 3))]


def sweep_pool(seed: int = 1, count: int = 32):
    """The `sweep` benchmark's chains: n=16, density 0.7, item seeds drawn as `benchmark/workloads.py` draws them."""
    seeds = np.random.default_rng([seed, *b"sweep"]).integers(0, 2**31 - 1, size=count)
    return [random_chain(RandomChainSpec(16, 0.7, int(s))) for s in seeds]


def assert_parts_count_as_homology(P):
    # the bit form the sweep starts from holds the sets of the frozen
    # cell-level pass, with the counts `_counts` reads off each set's cells,
    # and the entries it applies are the positive ones
    X = build_complex(P)
    rows = P.entries.tolist()
    root, anchor, part, entries = dynamics._sets(X, rows, 0.0)
    lone = [X.n + r for r, a in enumerate(anchor) if a < 0]
    frozen = sweep_oracle._parts(X, rows, 0.0)
    assert [*part, *lone] == [label for label, *_ in frozen]
    for label, cells, *_ in frozen:
        edges, own, mouth = homology._counts(X, frozenset(cells))
        if label in lone:
            assert cells == [label] and (edges, own, len(mouth)) == (1, 0, 2)
            continue
        bits, count, mouth_bits = part[label]
        vertices = {c for c in cells if c < X.n}
        assert {v for v in range(X.n) if root[v] == label} == vertices == {v for v in range(X.n) if bits >> v & 1}
        assert {X.n + r for r, a in enumerate(anchor) if a >= 0 and root[a] == label} == set(cells) - vertices
        assert (count, bits.bit_count(), {v for v in range(X.n) if mouth_bits >> v & 1}) == (edges, own, mouth)
    directed = [(a, b, r) for r, (i, j) in enumerate(X.edges) for a, b in ((i - 1, j - 1), (j - 1, i - 1))]
    assert sorted(entries) == sorted((rows[a][b], a, r) for a, b, r in directed if rows[a][b] > 0.0)


def test_base_parts_count_as_homology_on_the_sweep_pool():
    for P in sweep_pool():
        assert_parts_count_as_homology(P)


@settings(deadline=None, max_examples=150)
@given(weight_rows)
def test_property_base_parts_count_as_homology(weights):
    assert_parts_count_as_homology(weighted_chain(weights))


def assert_births_equal_frozen(P):
    # the bit-form sweep logs the births of the frozen cell-level sweep, order included
    assert run_filtration(P).births == sweep_oracle.run_filtration(P).births


@pytest.mark.parametrize("seed", [1, 2])
def test_births_equal_frozen_sweep_on_the_sweep_pools(seed):
    for P in sweep_pool(seed):
        assert_births_equal_frozen(P)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_births_equal_frozen_sweep_on_the_families(family):
    for n in SIZES:
        for seed in SEEDS:
            assert_births_equal_frozen(FAMILIES[family](n, seed))


@pytest.mark.parametrize("n", [100, 200])
def test_births_equal_frozen_sweep_at_scale(n):
    for density in (0.3, 0.7, 1.0):
        assert_births_equal_frozen(random_chain(RandomChainSpec(n, density, seed=n)))


@settings(deadline=None, max_examples=300)
@given(weight_rows)
def test_property_births_equal_frozen_sweep(weights):
    assert_births_equal_frozen(weighted_chain(weights))
