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
from markov_morse import (
    RandomChainSpec,
    TransitionMatrix,
    build_diagram,
    diagram_to_json,
    random_chain,
    run_filtration,
)
from markov_morse import homology, persistence
from markov_morse.dynamics import morse_sets
from markov_morse.homology import topological_index
from markov_morse.mvf import build_mvf
from markov_morse.persistence import containment_map

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


class TestIncremental:
    def test_index_computed_only_for_born_sets(self):
        # the births records index exactly the born sets (every base set at
        # the first grid value), and each counted index is the one
        # components give on the replayed set
        for seed in range(4):
            F = run_filtration(random_chain(RandomChainSpec(9, 0.7, seed)))
            X = F.complex
            assert len(F.births) == len(F.stages)
            for k, (births, stage) in enumerate(zip(F.births, F.stages)):
                born = stage.absorbed if k else {m.label: (m.label,) for m in F.base}
                assert births.index_of.keys() == born.keys()
                cells = {m.label: m.cells for m in stage.morse_sets}
                for label, index in births.index_of.items():
                    assert index == index_by_components(X, cells[label])

    def test_timed_path_calls_neither_topological_index_nor_the_replay(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called on the run_filtration + build_diagram path")

        for module in (homology, persistence):  # where the sweep would look it up
            monkeypatch.setattr(module, "topological_index", refuse, raising=False)
        monkeypatch.setattr(persistence, "_replay", refuse)
        F = run_filtration(random_chain(RandomChainSpec(9, 0.7, 4)))
        D = build_diagram(F)
        assert "stages" not in vars(F)
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

    def test_every_born_set_absorbed_at_least_two(self):
        F = run_filtration(random_chain(RandomChainSpec(10, 1.0, 6)))
        for stage in F.stages[1:]:
            assert all(len(parts) >= 2 for parts in stage.absorbed.values())
