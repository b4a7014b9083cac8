"""Random chain generation, stability trials, property trials."""

import math

import numpy as np
import pytest

from markov_morse import (
    RandomChainSpec,
    TransitionMatrix,
    bottleneck_distance,
    build_diagram,
    property_trials,
    random_chain,
    run_filtration,
    stability_trials,
    threshold_grid,
)
from markov_morse.markov import MatrixValidationError, matrix_distance

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

    def test_sparse_chains(self):
        report = property_trials(RandomChainSpec(n=6, density=0.25, seed=55), 10)
        assert report.violations == 0

    def test_report_serializes(self):
        import json

        report = property_trials(RandomChainSpec(n=3, density=0.9, seed=8), 3)
        text = json.dumps(report.as_dict())
        assert '"violations": 0' in text

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            property_trials(RandomChainSpec(n=3, seed=0), 0)

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
