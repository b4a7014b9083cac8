"""Acceptance suite: nine end-to-end criteria, one test per criterion.

Each test prints a [criterion N] line with the measured numbers; pytest -v
therefore shows one pass/fail line per criterion. Budgets are wall-clock
upper bounds on the machine the suite ships on, with generous headroom.
"""

import math
import time
from functools import lru_cache

import pytest

from markov_morse import (
    PerturbationSpec,
    RandomChainSpec,
    bottleneck_distance,
    build_diagram,
    build_mvf,
    perturb,
    random_chain,
    run_filtration,
    stability_trials,
    threshold_grid,
    topological_index,
)
from markov_morse.markov import TransitionMatrix, matrix_distance
from markov_morse.persistence import containment_map

from cells_oracle import closure, is_coarsening, mouth
from components_oracle import _components, conley_index_dims, homology_dims, index_by_components, is_critical
from conftest import E, V, WORKED_ROWS
from gf2_oracle import betti_by_rank

INF = math.inf


def worked():
    return TransitionMatrix(WORKED_ROWS)


@lru_cache(maxsize=1)
def random_filtrations():
    """100 random chains with n in 3..8 and their full filtrations.

    Shared by criteria 4, 5 and 9 so they all see the same data; whichever
    test runs first pays the compute cost.
    """
    densities = (0.5, 0.7, 0.9, 1.0)
    out = []
    for seed in range(100):
        spec = RandomChainSpec(3 + seed % 6, densities[seed % 4], seed)
        P = random_chain(spec)
        out.append((P, run_filtration(P)))
    return out


def test_criterion_1_threshold_partitions_of_the_worked_chain():
    P = worked()
    from markov_morse import build_complex

    X = build_complex(P)
    t0 = time.perf_counter()
    parts = {
        g: set(build_mvf(X, P, g))
        for g in (0.0, 0.15, 0.17, 0.2, 0.23)
    }
    elapsed = time.perf_counter() - t0

    assert threshold_grid(P).values == (0.0, 0.15, 0.17, 0.23, 0.33)
    assert parts[0.0] == {
        frozenset({V(1)}), frozenset({V(2)}), frozenset({V(3)}),
        frozenset({E(1, 2)}), frozenset({E(1, 3)}), frozenset({E(2, 3)}),
    }
    assert parts[0.15] == {
        frozenset({V(1)}), frozenset({V(2)}),
        frozenset({V(3), E(1, 3), E(2, 3)}), frozenset({E(1, 2)}),
    }
    assert parts[0.17] == {
        frozenset({V(1), V(2), E(1, 2)}),
        frozenset({V(3), E(1, 3), E(2, 3)}),
    }
    assert parts[0.2] == parts[0.17]  # between grid values nothing moves
    assert parts[0.23] == {frozenset(X.cells())}
    assert elapsed < 0.1
    print(f"\n[criterion 1] PASS — 5 thresholds cell-exact in {elapsed * 1e3:.2f} ms")


def test_criterion_2_morse_sets_and_indices_at_every_stage():
    F = run_filtration(worked())

    def snapshot(stage):
        return {
            (m.label, m.cells, tuple(stage.index_of[m.label]))
            for m in stage.morse_sets
        }

    expected = {
        0.0: {
            (V(1), frozenset({V(1)}), (0, 0)),
            (V(2), frozenset({V(2)}), (0, 0)),
            (V(3), frozenset({V(3)}), (0, 0)),
            (E(1, 2), frozenset({E(1, 2)}), (0, 1)),
            (E(1, 3), frozenset({E(1, 3)}), (0, 1)),
            (E(2, 3), frozenset({E(2, 3)}), (0, 1)),
        },
        0.15: {
            (V(1), frozenset({V(1)}), (0, 0)),
            (V(2), frozenset({V(2)}), (0, 0)),
            (V(3), frozenset({V(3), E(1, 3), E(2, 3)}), (0, 1)),
            (E(1, 2), frozenset({E(1, 2)}), (0, 1)),
        },
        0.17: {
            (V(1), frozenset({V(1), V(2), E(1, 2)}), (0, 0)),
            (V(3), frozenset({V(3), E(1, 3), E(2, 3)}), (0, 1)),
        },
        0.23: {
            (V(1), frozenset({V(1), V(2), V(3), E(1, 2), E(1, 3), E(2, 3)}), (1, 1)),
        },
        0.33: {
            (V(1), frozenset({V(1), V(2), V(3), E(1, 2), E(1, 3), E(2, 3)}), (1, 1)),
        },
    }
    seen = {}
    for stage in F.stages:
        seen[stage.gamma] = snapshot(stage)
    assert seen == expected
    total = sum(len(s) for s in expected.values())
    print(f"\n[criterion 2] PASS — {total} (set, index) pairs match across 5 stages")


def test_criterion_3_the_seven_point_diagram():
    t0 = time.perf_counter()
    D = build_diagram(run_filtration(worked()))
    elapsed = time.perf_counter() - t0

    got = sorted((p.birth, p.death, tuple(p.index)) for p in D.points)
    assert got == sorted(
        [
            (0.0, 0.15, (0, 0)),
            (0.0, 0.17, (0, 0)),
            (0.0, 0.23, (0, 0)),
            (0.0, 0.15, (0, 1)),
            (0.0, 0.17, (0, 1)),
            (0.0, 0.23, (0, 1)),
            (0.23, INF, (1, 1)),
        ]
    )
    assert elapsed < 0.5
    print(f"\n[criterion 3] PASS — 7 points exact in {elapsed * 1e3:.2f} ms")


def test_criterion_4_coarsening_and_containment_on_random_chains():
    t0 = time.perf_counter()
    data = random_filtrations()
    checked_pairs = 0
    for P, F in data:
        fields = [build_mvf(F.complex, P, stage.gamma) for stage in F.stages]
        for prev, nxt, fine, coarse in zip(F.stages, F.stages[1:], fields, fields[1:]):
            assert is_coarsening(coarse, fine)
            cm = containment_map(prev, nxt)  # raises if any set straddles
            assert set(cm) == {m.label for m in prev.morse_sets}
            targets = {m.label for m in nxt.morse_sets}
            assert set(cm.values()) <= targets
            checked_pairs += 1
    elapsed = time.perf_counter() - t0

    assert len(data) == 100
    assert all(3 <= P.n <= 8 for P, _ in data)
    assert elapsed < 30.0
    print(
        f"\n[criterion 4] PASS — 100 chains, {checked_pairs} consecutive-stage"
        f" pairs total in {elapsed:.2f} s"
    )


def test_criterion_5_homology_routes_agree_on_every_closed_set():
    """Three routes on every Morse set: the library's counts, components, GF(2) rank.

    The library reads the index off three counts because a Morse set's
    closure is connected; the component oracle counts components and needs
    no such premise, and GF(2) elimination needs neither.
    """
    stages = [(run_filtration(worked()).complex, run_filtration(worked()).stages)]
    stages += [(F.complex, F.stages) for _, F in random_filtrations()]

    sets = 0
    compared = 0
    mismatches = 0
    for X, stage_list in stages:
        for stage in stage_list:
            for m in stage.morse_sets:
                cl, mo = closure(X, m.cells), mouth(X, m.cells)
                absolute, relative = betti_by_rank(X, cl), betti_by_rank(X, m.cells)
                checks = [
                    (_components(X, m.cells).components, 1),
                    (homology_dims(X, cl), absolute),
                    (homology_dims(X, mo), betti_by_rank(X, mo)),
                    (conley_index_dims(X, m.cells), relative),
                    (tuple(index_by_components(X, m.cells)), (absolute[1], relative[1])),
                    (tuple(topological_index(X, m)), (absolute[1], relative[1])),
                ]
                mismatches += sum(1 for lib, oracle in checks if lib != oracle)
                compared += len(checks)
                sets += 1
    assert mismatches == 0
    assert sets > 1000
    print(
        f"\n[criterion 5] PASS — library counts, component oracle and GF(2) rank"
        f" agree on {sets} Morse sets, each with a connected closure"
        f" ({compared} comparisons), 0 mismatches"
    )


def test_criterion_6_single_perturbation_stability():
    t0 = time.perf_counter()
    reports = [
        stability_trials(RandomChainSpec(n, d, seed=10 * n), 25, delta_cap=0.05)
        for n, d in [(3, 1.0), (3, 0.7), (4, 0.9), (4, 0.6), (5, 0.8), (5, 1.0), (6, 0.7), (6, 0.9)]
    ]
    elapsed = time.perf_counter() - t0

    total = sum(r.trials for r in reports)
    assert total >= 200
    for r in reports:
        assert r.mode == "single"
        assert r.violations == 0
        for rec in r.records:
            assert 0.0 < max(abs(d) for d in rec.deltas) <= 0.05
            assert rec.d_b <= rec.delta_measured

    # the worked instance, down to the last bit
    P = worked()
    Q = perturb(P, PerturbationSpec(1, 2, 0.01))
    dist = matrix_distance(P, Q)
    d_b = bottleneck_distance(
        build_diagram(run_filtration(P)), build_diagram(run_filtration(Q))
    )
    assert d_b == dist.delta_inf  # bit-for-bit, both inherit fl(0.18) - 0.17
    assert d_b == pytest.approx(0.01, abs=1e-12)

    assert elapsed < 60.0
    worst = max(r.worst_ratio for r in reports)
    print(
        f"\n[criterion 6] PASS — {total} single-entry trials, 0 violations,"
        f" worst d_B/delta ratio {worst:.6f}, worked instance d_B == delta_inf,"
        f" {elapsed:.2f} s"
    )


def test_criterion_7_multi_perturbation_stability():
    reports = [
        stability_trials(RandomChainSpec(4, 0.9, seed=71), 60, n_entries=2, delta_cap=0.05),
        stability_trials(RandomChainSpec(5, 0.8, seed=72), 60, n_entries=3, delta_cap=0.05),
    ]
    total = sum(r.trials for r in reports)
    assert total >= 100
    for r in reports:
        assert r.mode == "multi"
        assert r.violations == 0
        for rec in r.records:
            assert len(rec.deltas) == rec.l
            assert all(abs(d) < 0.05 for d in rec.deltas)
            assert rec.d_b < rec.l * 0.05
    print(f"\n[criterion 7] PASS — {total} multi-entry trials (l=2 and l=3), 0 violations")


def test_criterion_8_bottleneck_metric_axioms():
    import random as pyrandom

    # Families of small perturbations of one chain keep distances finite
    # (same immortal classes); cross-family distances are typically infinite,
    # which exercises the mismatch branch of the same axioms.
    families = []
    for fam in range(5):
        P = random_chain(RandomChainSpec(3 + fam % 4, 0.9, 200 + fam))
        diagrams = [build_diagram(run_filtration(P))]
        report = stability_trials(P, 4, seed=fam)
        for rec in report.records:
            Q = perturb(
                P, PerturbationSpec(rec.targets[0][0], rec.targets[0][1], rec.deltas[0])
            )
            diagrams.append(build_diagram(run_filtration(Q)))
        families.append(diagrams)
    pool = [d for diagrams in families for d in diagrams]

    rng = pyrandom.Random(8)
    triples = []
    for k in range(50):
        if k % 2 == 0:  # within one family: finite legs
            fam = families[k % len(families)]
            base = 5 * (k % len(families))
            triples.append(tuple(base + i for i in rng.sample(range(len(fam)), 3)))
        else:  # across the whole pool: usually infinite legs
            triples.append(tuple(rng.sample(range(len(pool)), 3)))

    def close(a, b):
        if math.isinf(a) and math.isinf(b):
            return True
        return abs(a - b) <= 1e-12

    finite = 0
    for ia, ib, ic in triples:
        A, B, C = pool[ia], pool[ib], pool[ic]
        assert bottleneck_distance(A, A) == 0.0
        ab, ba = bottleneck_distance(A, B), bottleneck_distance(B, A)
        assert close(ab, ba)
        bc, ac = bottleneck_distance(B, C), bottleneck_distance(A, C)
        if math.isinf(ab) or math.isinf(bc):
            pass  # right side infinite: triangle holds vacuously
        else:
            assert ac <= ab + bc + 1e-12
            finite += 1
    assert finite >= 10
    print(
        f"\n[criterion 8] PASS — 50 triples: identity exact, symmetry and"
        f" triangle within 1e-12 ({finite} finite triangle checks)"
    )


def test_criterion_9_criticality_semantics_everywhere():
    fields = []
    P = worked()
    from markov_morse import build_complex

    X = build_complex(P)
    for g in (0.0, 0.15, 0.17, 0.2, 0.23):
        fields.append((X, build_mvf(X, P, g)))
    for P, F in random_filtrations():
        for stage in F.stages:
            fields.append((F.complex, build_mvf(F.complex, P, stage.gamma)))

    singletons = arrows = larger = 0
    for X, fld in fields:
        for v in fld:
            dims = conley_index_dims(X, v)
            assert is_critical(X, v) == (sum(dims) > 0)
            if len(v) == 1:
                assert is_critical(X, v)
                singletons += 1
            elif len(v) == 2:
                assert sorted(map(X.is_edge, v)) == [False, True]
                assert dims == (0, 0)
                assert not is_critical(X, v)
                arrows += 1
            else:
                larger += 1
    total = singletons + arrows + larger
    print(
        f"\n[criterion 9] PASS — {total} multivectors: {singletons} critical"
        f" singletons, {arrows} regular two-cell arrows, {larger} larger"
    )
