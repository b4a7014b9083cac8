"""Random chain generation, stability trials, property trials."""

import math
from dataclasses import replace

import numpy as np
import pytest

from markov_morse import (
    PerturbationSpec,
    RandomChainSpec,
    TransitionMatrix,
    bottleneck_distance,
    build_diagram,
    perturb,
    property_trials,
    random_chain,
    run_filtration,
    stability_trials,
    threshold_grid,
)
from markov_morse.harness import MAX_STATES
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import MatrixValidationError, matrix_distance
from markov_morse.persistence import PersistencePoint

from conftest import WORKED_ROWS


class TestRandomChain:
    def test_deterministic_given_seed(self):
        spec = RandomChainSpec(n=6, density=0.5, seed=1234)
        assert random_chain(spec) == random_chain(spec)

    def test_seeds_differ(self):
        a = random_chain(RandomChainSpec(n=6, density=0.5, seed=1))
        b = random_chain(RandomChainSpec(n=6, density=0.5, seed=2))
        assert a != b

    def test_rows_are_stochastic(self):
        for seed in range(10):
            P = random_chain(RandomChainSpec(n=7, density=0.6, seed=seed))
            assert np.all(np.abs(P.entries.sum(axis=1) - 1.0) <= 1e-9)

    def test_single_state(self):
        P = random_chain(RandomChainSpec(n=1, seed=0))
        assert P.entries.tolist() == [[1.0]]

    def test_zero_density_is_diagonal(self):
        P = random_chain(RandomChainSpec(n=5, density=0.0, seed=3))
        assert np.array_equal(P.entries, np.eye(5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomChainSpec(n=0)
        with pytest.raises(ValueError):
            RandomChainSpec(n=3, density=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RandomChainSpec(n=3, seed=-1)

    def test_unbuildable_size_rejected_before_allocation(self):
        # the spec refuses on its own; no weight matrix is ever drawn
        with pytest.raises(ValueError, match=r"n=100000 exceeds 4096 states.*74\.5 GiB"):
            RandomChainSpec(n=100000)
        with pytest.raises(ValueError, match="n=4097"):
            RandomChainSpec(n=MAX_STATES + 1)
        assert RandomChainSpec(n=MAX_STATES).n == MAX_STATES


class TestStabilityTrials:
    def test_single_mode_respects_lemma_bound(self):
        report = stability_trials(RandomChainSpec(n=5, density=0.7, seed=11), 25)
        assert report.mode == "single"
        assert report.trials == 25
        assert report.violations == 0
        assert report.counterexamples == ()
        assert report.worst_ratio <= 1.0
        for rec in report.records:
            assert rec.d_b <= rec.delta_measured
            assert rec.bound == rec.delta_measured
            assert rec.l == 1 and len(rec.targets) == 1

    def test_multi_mode_stays_below_theorem_bound(self):
        report = stability_trials(
            RandomChainSpec(n=5, density=0.7, seed=23), 15, n_entries=3, delta_cap=0.04
        )
        assert report.mode == "multi"
        assert report.violations == 0
        for rec in report.records:
            assert rec.d_b < 3 * 0.04
            assert rec.bound == 3 * 0.04
            assert len(rec.targets) == 3
            assert len(set(rec.targets)) == 3  # distinct entries
            assert all(abs(d) < 0.04 for d in rec.deltas)

    def test_fixed_matrix_source(self, worked_matrix):
        report = stability_trials(worked_matrix, 10, seed=5)
        assert report.violations == 0
        assert all(rec.n == 3 for rec in report.records)

    @pytest.mark.parametrize("n_entries", [1, 2])
    def test_fixed_matrix_diagram_is_built_once(self, monkeypatch, worked_matrix, n_entries):
        # one filtration of the fixed matrix and one per trial; every d_B is
        # the one both diagrams built afresh give
        import markov_morse.harness as harness

        calls = []

        def counting(P):
            calls.append(P)
            return run_filtration(P)

        monkeypatch.setattr(harness, "run_filtration", counting)
        report = stability_trials(worked_matrix, 6, n_entries=n_entries, seed=7)
        monkeypatch.undo()
        assert len(calls) == 6 + 1
        D_P = build_diagram(run_filtration(worked_matrix))
        for rec in report.records:
            Q = worked_matrix
            for (row, col), delta in zip(rec.targets, rec.deltas):
                Q = perturb(Q, PerturbationSpec(row, col, delta))
            assert rec.d_b == bottleneck_distance(D_P, build_diagram(run_filtration(Q)))

    def test_deterministic_reports(self):
        spec = RandomChainSpec(n=4, density=0.8, seed=99)
        assert stability_trials(spec, 8) == stability_trials(spec, 8)

    def test_identity_matrix_has_nothing_to_perturb(self):
        P = TransitionMatrix(np.eye(3))
        with pytest.raises(ValueError, match="does not admit"):
            stability_trials(P, 2, seed=0)

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            stability_trials(RandomChainSpec(n=3, seed=0), 0)

    @pytest.mark.parametrize("delta_cap", [float("nan"), float("inf"), -1.0, 0.0])
    def test_delta_cap_validation(self, worked_matrix, delta_cap):
        with pytest.raises(ValueError, match="delta_cap must be finite and > 0"):
            stability_trials(worked_matrix, 1, delta_cap=delta_cap)

    @pytest.mark.parametrize(
        "source, n_entries, message",
        [
            (RandomChainSpec(n=3, seed=0), 100, "n_entries=100 exceeds the chain's 6"),
            (RandomChainSpec(n=1, seed=0), 1, "n_entries=1 exceeds the chain's 0"),
            (RandomChainSpec(n=2, density=0.0, seed=0), 1, "could not sample feasible perturbations"),
            (TransitionMatrix(WORKED_ROWS), 7, "n_entries=7 exceeds the chain's 6"),
        ],
    )
    def test_impossible_perturbation_request(self, source, n_entries, message):
        with pytest.raises(ValueError, match=message):
            stability_trials(source, 1, n_entries=n_entries)

    def test_negative_seed_rejected(self, worked_matrix):
        with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
            stability_trials(worked_matrix, 1, seed=-2)


class TestExactTies:
    """Collisions are excluded from sampling; the pipeline itself must not care."""

    def test_perturbing_onto_an_existing_grid_value(self, worked_matrix):
        # hand-build the collision: entry (2,3) moved exactly onto 0.15
        rows = worked_matrix.entries.copy()
        rows[1, 1] += rows[1, 2] - 0.15
        rows[1, 2] = 0.15
        Q = TransitionMatrix(rows)
        assert list(threshold_grid(Q)) == [0.0, 0.15, 0.17, 0.33]  # 0.23 gone
        D1 = build_diagram(run_filtration(worked_matrix))
        D2 = build_diagram(run_filtration(Q))
        d = bottleneck_distance(D1, D2)
        assert math.isfinite(d)
        # the tie collapses two stages into one; displacement stays bounded
        # by the moved entry even though the generic lemma hypotheses fail
        assert d <= matrix_distance(worked_matrix, Q).delta_inf + 1e-15

    def test_duplicate_offdiagonal_values_everywhere(self):
        P = TransitionMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        F = run_filtration(P)
        assert [s.gamma for s in F.stages] == [0.0, 0.1]
        D = build_diagram(F)
        assert all(p.death > p.birth for p in D.points)


class TestPropertyTrials:
    def test_clean_run(self):
        report = property_trials(RandomChainSpec(n=5, density=0.7, seed=101), 15)
        assert report.trials == 15
        assert report.violations == 0
        assert report.failures == ()
        assert all(count > 0 for count in report.checks.values())

    @pytest.mark.parametrize("n", [16, 24])
    def test_stage_checks_beyond_n12(self, n):
        # the stage-by-stage oracle comparisons stop at n=12; the harness
        # checks every replayed stage of larger chains against the static route
        report = property_trials(RandomChainSpec(n, 0.7, seed=n), 2)
        assert report.violations == 0
        assert report.checks["static_route"] > 0
        assert report.checks["containment"] > 0

    def test_sparse_chains(self):
        report = property_trials(RandomChainSpec(n=6, density=0.25, seed=55), 10)
        assert report.violations == 0

    def test_report_serializes(self):
        import json
        from dataclasses import asdict

        report = property_trials(RandomChainSpec(n=3, density=0.9, seed=8), 3)
        text = json.dumps(asdict(report))
        assert '"violations": 0' in text

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            property_trials(RandomChainSpec(n=3, seed=0), 0)

    @staticmethod
    def _first_merge(births) -> int:
        """Position in the log of the first birth with parts."""
        return next(k for k, b in enumerate(births) if b.parts)

    def test_wrong_lineage_is_reported(self, monkeypatch):
        # a merge that forgets one absorbed set must not pass; the replayed
        # stages then keep the forgotten set apart, which the static route
        # reports from the tampered stage on
        import markov_morse.harness as harness

        forgot = []

        def forgetful(P):
            F = run_filtration(P)
            births = list(F.births)
            k = self._first_merge(births)
            births[k] = births[k]._replace(parts=births[k].parts[:-1])
            forgot.append((F.grid.values.index(births[k].gamma), births[k].gamma))
            return replace(F, births=tuple(births))

        monkeypatch.setattr(harness, "run_filtration", forgetful)
        report = property_trials(RandomChainSpec(n=5, seed=2), 1)
        stage, gamma = forgot[0]
        assert report.failures[0].endswith(f"differ from the static route at gamma={gamma}")
        assert report.checks["static_route"] == stage

    def test_split_multivector_is_reported(self, monkeypatch):
        # a merge that leaves out a part sharing one of build_mvf's
        # multivectors with the rest cuts that multivector in two; the
        # replayed sets must not pass as the static route's
        import markov_morse.harness as harness
        from markov_morse import build_mvf

        cut = []

        def splitting(P):
            F = run_filtration(P)
            births = list(F.births)
            for k in reversed(range(self._first_merge(births), len(births))):
                b = births[k]
                stage = F.grid.values.index(b.gamma)
                cells = {m.label: m.cells for m in F.stages[stage - 1].morse_sets}
                fld = build_mvf(F.complex, P, b.gamma)
                for p in b.parts:
                    if p != b.label and any(v & cells[p] and v - cells[p] for v in fld):
                        births[k] = b._replace(parts=tuple(q for q in b.parts if q != p))
                        cut.append((stage, b.gamma))
                        return replace(F, births=tuple(births))
            raise AssertionError("no merge to split")

        monkeypatch.setattr(harness, "run_filtration", splitting)
        report = property_trials(RandomChainSpec(n=5, seed=2), 1)
        stage, gamma = cut[0]
        assert report.failures[0].endswith(f"differ from the static route at gamma={gamma}")
        # every stage before the cut passes
        assert report.checks["static_route"] == stage

    def test_stale_index_is_reported(self, monkeypatch):
        # a born set that keeps the index of a set it absorbed must not pass;
        # the replay carries the stale index until the set is absorbed
        import markov_morse.harness as harness

        stale = []

        def stale_index(P):
            F = run_filtration(P)
            births, grid = list(F.births), F.grid.values
            index_of = {}  # label -> index of the live set's latest birth
            for k, b in enumerate(births):
                old = next((index_of[p] for p in b.parts if index_of[p] != b.index), None)
                if old is not None:
                    break
                index_of[b.label] = b.index
            else:
                raise AssertionError("no birth changes an index")
            births[k] = b._replace(index=old)
            # the stale entry lasts until a later birth absorbs the set
            end = next((grid.index(c.gamma) for c in births[k + 1 :] if b.label in c.parts), len(grid))
            stale.append((b.gamma, end - grid.index(b.gamma)))
            return replace(F, births=tuple(births))

        monkeypatch.setattr(harness, "run_filtration", stale_index)
        report = property_trials(RandomChainSpec(n=5, seed=2), 1)
        gamma, lasting = stale[0]
        failures = [f for f in report.failures if "differ from the static route" in f]
        assert len(failures) == lasting and failures[0].endswith(f"at gamma={gamma}")

    @staticmethod
    def _assert_reported_at(monkeypatch, capsys, tamper, fault):
        # a lineage the replay cannot follow is one failure naming the fault
        # at the tampered gamma, not a crash, and the CLI exits 3 for it
        import markov_morse.harness as harness
        from markov_morse.cli import main

        tampered = []

        def tampering(P):
            F = run_filtration(P)
            births = list(F.births)
            k = tamper(F, births)
            tampered.append(births[k].gamma)
            return replace(F, births=tuple(births))

        monkeypatch.setattr(harness, "run_filtration", tampering)
        report = property_trials(RandomChainSpec(n=5, seed=2), 1)
        assert report.violations == 1
        assert f"lineage at gamma={tampered[0]} {fault}" in report.failures[0]
        assert report.checks == {"static_route": 0, "containment": 0, "diagram_shape": 0}
        assert main(["properties", "--random", "5", "--trials", "1", "--seed", "2"]) == 3
        assert f"lineage at gamma={tampered[-1]} {fault}" in capsys.readouterr().out

    def test_absorbing_a_set_not_live_is_reported(self, monkeypatch, capsys):
        def absorb_dead(F, births):
            # a merge at a later grid value lists a set the first merge absorbed
            k = self._first_merge(births)
            dead = next(p for p in births[k].parts if p != births[k].label)
            j = next(j for j in range(k + 1, len(births)) if births[j].gamma > births[k].gamma)
            births[j] = births[j]._replace(parts=(*births[j].parts, dead))
            return j

        self._assert_reported_at(monkeypatch, capsys, absorb_dead, "absorbs sets")

    def test_set_absorbed_twice_is_reported(self, monkeypatch, capsys):
        def absorb_twice(F, births):
            # a merge lists one of its absorbed sets a second time
            k = self._first_merge(births)
            births[k] = births[k]._replace(parts=(*births[k].parts, births[k].parts[0]))
            return k

        self._assert_reported_at(monkeypatch, capsys, absorb_twice, "lists an absorbed set twice")

    def test_born_set_taking_a_live_label_is_reported(self, monkeypatch, capsys):
        def steal_label(F, births):
            # a born set is filed under the label of a set that stays live
            k = self._first_merge(births)
            before = F.stages[F.grid.values.index(births[k].gamma) - 1]
            live = next(m.label for m in before.morse_sets if m.label not in births[k].parts)
            births[k] = births[k]._replace(label=live)
            return k

        self._assert_reported_at(monkeypatch, capsys, steal_label, "labels a born set")

    def test_birth_off_the_grid_is_reported(self, monkeypatch, capsys):
        def off_grid(F, births):
            # the first merge is moved halfway back to the grid value before it
            k = self._first_merge(births)
            j = F.grid.values.index(births[k].gamma)
            births[k] = births[k]._replace(gamma=(F.grid[j - 1] + F.grid[j]) / 2)
            return k

        self._assert_reported_at(monkeypatch, capsys, off_grid, "has a birth off the grid")

    def test_birth_out_of_grid_order_is_reported(self, monkeypatch, capsys):
        def out_of_order(F, births):
            # the last birth is moved back to the grid value of the first merge
            k = self._first_merge(births)
            assert births[-2].gamma > births[k].gamma
            births[-1] = births[-1]._replace(gamma=births[k].gamma)
            return len(births) - 1

        self._assert_reported_at(monkeypatch, capsys, out_of_order, "has a birth out of grid order")

    def test_birth_with_no_parts_past_the_base_is_reported(self, monkeypatch, capsys):
        def no_parts(F, births):
            # the first merge loses all its parts
            k = self._first_merge(births)
            births[k] = births[k]._replace(parts=())
            return k

        self._assert_reported_at(monkeypatch, capsys, no_parts, "has a birth with no parts")

    def test_negative_seed_rejected(self):
        # the spec carries the seed, so it is refused before any trial runs
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            property_trials(RandomChainSpec(n=3, seed=-3), 1)


class TestStabilityAgainstMeasuredDistance:
    def test_bound_uses_measured_displacement_not_nominal(self, worked_matrix):
        # the nominal 0.01 is not exactly representable after the addition;
        # the honest bound compares computed quantities on both sides
        from markov_morse import PerturbationSpec, perturb

        Q = perturb(worked_matrix, PerturbationSpec(1, 2, 0.01))
        d_b = bottleneck_distance(
            build_diagram(run_filtration(worked_matrix)),
            build_diagram(run_filtration(Q)),
        )
        measured = matrix_distance(worked_matrix, Q).delta_inf
        assert d_b <= measured
        assert measured != 0.01  # the ulp gap this design decision exists for


class TestKnownStabilityCounterexample:
    """An n=8 chain on which one compensated edit moves the diagram by more than delta.

    The diagram keeps a track's index at its death: when a Morse set's index
    changes and later changes back, the track dies and the feature is born
    again, and the perturbation shifts that rebirth further than it shifts
    the entry. These tests pin the values so a refactor cannot move them.
    """

    SEED = 1637403276

    def record(self):
        spec = RandomChainSpec(8, 0.7, self.SEED)
        return stability_trials(spec, 1, seed=self.SEED).records[0]

    def test_pinned_violation(self):
        r = self.record()
        assert repr(r.d_b) == "0.017983687388272256"
        assert repr(r.bound) == "0.016519472107721127"
        assert r.violation is True

    @pytest.mark.xfail(
        strict=True,
        reason="index-change death followed by a rebirth of the same index: "
        "the single-entry bound d_B <= delta does not hold for this track rule",
    )
    def test_single_entry_bound(self):
        r = self.record()
        assert r.d_b <= r.bound


class TestShrunkStabilityCounterexample:
    """The smallest pair found by shrinking the n=8 chain above.

    Dropping states and renormalising, moving off-diagonal entries onto the
    diagonal and rounding, for as long as d_B > delta held, reached 4 states
    and 8 nonzero off-diagonal entries, and no single further move keeps the
    violation. The edit p21 += 0.02 turns the (0,1) set through N1-N2 into
    index (0,2) at 0.02; both (0,1) tracks die there, and when N2 joins at
    q21 = 0.023 the feature is born again and lives to 0.2. In P the same
    track lives from 0 to 0.2, so that point moves by 0.023 against an edit
    of 0.02: the excess is p21.
    """

    P = TransitionMatrix(
        [
            [0.98, 0.0, 0.02, 0.0],
            [0.003, 0.297, 0.4, 0.3],
            [0.2, 0.4, 0.4, 0.0],
            [0.2, 0.3, 0.0, 0.5],
        ]
    )

    def distances(self):
        Q = perturb(self.P, PerturbationSpec(2, 1, 0.02))
        D_P, D_Q = build_diagram(run_filtration(self.P)), build_diagram(run_filtration(Q))
        return bottleneck_distance(D_P, D_Q), matrix_distance(self.P, Q).delta_inf, D_Q

    def test_pinned_violation(self):
        d_b, delta, D_Q = self.distances()
        assert repr(d_b) == "0.023"
        assert repr(delta) == "0.020000000000000018"
        assert PersistencePoint(0.023, 0.2, TopologicalIndex(0, 1)) in D_Q.points  # the rebirth

    @pytest.mark.xfail(
        strict=True,
        reason="index-change death followed by a rebirth of the same index: "
        "the single-entry bound d_B <= delta does not hold for this track rule",
    )
    def test_single_entry_bound(self):
        d_b, delta, _ = self.distances()
        assert d_b <= delta


class TestMultiEntryStabilityCounterexample:
    """The first violation of the l-entry bound d_B < l * delta.

    `stability --random 4 --trials 1500 --multi 2 --delta 0.05 --seed 1`
    reports one violation, at trial 1490: two edits, p41 -= 0.0451 and
    p14 -= 0.0391, move the diagram by 0.1379 >= 2 * 0.05. The mechanism is
    the single-entry one. In Q the (1,1) set born at 0.2007 changes index to
    (1,2) at q41 = 0.3219, so its track dies there, and the feature is born
    again as (1,1) when the index changes back at 0.3386. In P the index
    never changes and the immortal (1,1) point is born at 0.2007, so the two
    immortal points sit 0.1379 apart.
    """

    SEED = 4118425092020125719
    EDITS = (PerturbationSpec(4, 1, -0.04509716906647649), PerturbationSpec(1, 4, -0.03908062232822751))

    def diagrams(self):
        P = random_chain(RandomChainSpec(4, 0.7, self.SEED))
        Q = perturb(perturb(P, self.EDITS[0]), self.EDITS[1])
        return build_diagram(run_filtration(P)), build_diagram(run_filtration(Q))

    def test_pinned_violation(self):
        D_P, D_Q = self.diagrams()
        assert repr(bottleneck_distance(D_P, D_Q)) == "0.1378751925770354"
        one_one, one_two = TopologicalIndex(1, 1), TopologicalIndex(1, 2)
        assert [p for p in D_P.points if p.index == one_one] == [
            PersistencePoint(0.20069918988142155, math.inf, one_one)
        ]
        assert [p for p in D_Q.points if p.index in (one_one, one_two)] == [
            PersistencePoint(0.20069918988142155, 0.3219146688844989, one_one),  # index-change death
            PersistencePoint(0.33857438245845695, math.inf, one_one),  # the rebirth
            PersistencePoint(0.3219146688844989, 0.33857438245845695, one_two),
        ]

    @pytest.mark.xfail(
        strict=True,
        reason="index-change death followed by a rebirth of the same index: "
        "the l-entry bound d_B < l * delta does not hold for this track rule",
    )
    def test_multi_entry_bound(self):
        D_P, D_Q = self.diagrams()
        assert bottleneck_distance(D_P, D_Q) < 2 * 0.05
