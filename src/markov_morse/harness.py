"""Empirical stability and invariant harness over random chains.

Random row-stochastic matrices probe two things: that the sweep's stages
agree with the static route (`morse_sets` and `topological_index` at the
stage's gamma), nest by their lineage and give a well-shaped diagram on
inputs nobody hand-picked, and whether the bottleneck distance between a
chain's diagram and a perturbed chain's diagram stays within the bounds
it is tested against: d_B at most the measured entrywise matrix distance
for a single compensated edit, and strictly below l * delta for l edits
capped by delta. These are checks, not theorems of this pipeline. Both
bounds fail on some small chains: when a Morse set's index changes and
later changes back, the track dies at the first change and the feature is
born again at the second, and an edit that moves the second event moves
the rebirth further than the edit. Trials report such violations with the
matrices that reproduce them.
Every sample is seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bottleneck import bottleneck_distance
from .markov import (
    PerturbationSpec,
    TransitionMatrix,
    matrix_distance,
    perturb,
    serialize_matrix,
)
from .dynamics import morse_sets
from .homology import topological_index
from .persistence import build_diagram, containment_map, run_filtration

# random_chain holds about three n x n float64 arrays at once (weights, mask
# draw, validated copy): some 400 MB at this size, and a chain far beyond
# what the filtration can sweep. Larger n is refused before any allocation.
MAX_STATES = 4096


@dataclass(frozen=True)
class RandomChainSpec:
    """Sampling parameters for one random chain."""

    n: int
    density: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one state")
        if self.n > MAX_STATES:
            gib = 8 * self.n**2 / 2**30
            raise ValueError(
                f"n={self.n} exceeds {MAX_STATES} states: the n x n weight matrix alone needs {gib:.1f} GiB"
            )
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def random_chain(spec: RandomChainSpec) -> TransitionMatrix:
    """Seed-deterministic random chain.

    Each off-diagonal entry receives Uniform(0,1) mass with probability
    `density`; diagonals always receive positive mass; rows are normalized.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    weights = rng.uniform(0.0, 1.0, size=(n, n))
    mask = rng.uniform(0.0, 1.0, size=(n, n)) < spec.density
    np.fill_diagonal(mask, True)
    weights *= mask
    diag = rng.uniform(0.2, 1.0, size=n)
    weights[np.eye(n, dtype=bool)] = diag
    weights /= weights.sum(axis=1, keepdims=True)
    return TransitionMatrix(weights)


def _sample_perturbation(
    P: TransitionMatrix,
    rng: np.random.Generator,
    delta_cap: float,
    strict: bool,
    forbid: frozenset[tuple[int, int]] = frozenset(),
) -> PerturbationSpec | None:
    """One feasible compensated perturbation, or None.

    Keeps the target entry strictly positive (no edge is created or
    destroyed) and avoids exact collisions with other off-diagonal values so
    the generic, tie-free regime is sampled; ties get their own tests.
    """
    n = P.n
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and P.prob(i, j) > 0.0 and (i, j) not in forbid
    ]
    if not candidates:
        return None
    others = {
        float(v) for k, row in enumerate(P.entries) for m, v in enumerate(row) if k != m
    }
    order = rng.permutation(len(candidates))
    high = 0.99 * delta_cap if strict else delta_cap
    for k in order:
        i, j = candidates[int(k)]
        value = P.prob(i, j)
        magnitude = float(rng.uniform(0.01 * delta_cap, high))
        for sign in rng.permutation([1.0, -1.0]):
            delta = float(sign) * magnitude
            new_val = value + delta
            if not 0.0 < new_val <= 1.0:
                continue
            if not 0.0 <= P.prob(i, i) - delta <= 1.0:
                continue
            if new_val in others:
                continue
            return PerturbationSpec(i, j, delta)
    return None


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    n: int
    targets: tuple[tuple[int, int], ...]
    deltas: tuple[float, ...]
    delta_measured: float
    l: int
    bound: float
    d_b: float
    violation: bool

    def as_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "n": self.n,
            "targets": [list(t) for t in self.targets],
            "deltas": list(self.deltas),
            "delta_measured": self.delta_measured,
            "l": self.l,
            "bound": self.bound,
            "d_b": self.d_b,
            "violation": self.violation,
        }


@dataclass(frozen=True)
class StabilityReport:
    mode: str
    trials: int
    violations: int
    worst_ratio: float
    records: tuple[TrialRecord, ...]
    counterexamples: tuple[dict, ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "trials": self.trials,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "records": [r.as_dict() for r in self.records],
            "counterexamples": list(self.counterexamples),
        }


def stability_trials(
    source: TransitionMatrix | RandomChainSpec,
    trials: int,
    *,
    n_entries: int = 1,
    delta_cap: float = 0.05,
    seed: int | None = None,
) -> StabilityReport:
    """Perturb-and-compare trials.

    Single mode (n_entries=1): one compensated off-diagonal edit per trial;
    a violation is d_B strictly above the measured matrix distance. Multi
    mode (n_entries=l>1): l edits each strictly below delta_cap; a violation
    is d_B >= l * delta_cap. A source that cannot supply the edits raises
    ValueError: when n_entries exceeds the n(n-1) off-diagonal entries, when
    a fixed matrix has no feasible edits, and when 50 * trials random chains
    hold fewer than `trials` feasible ones.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    if not (math.isfinite(delta_cap) and delta_cap > 0):
        raise ValueError(f"delta_cap must be finite and > 0, got {delta_cap!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    off_diagonal = source.n * (source.n - 1)
    if n_entries > off_diagonal:
        raise ValueError(f"n_entries={n_entries} exceeds the chain's {off_diagonal} off-diagonal entries")
    fixed = isinstance(source, TransitionMatrix)
    if seed is None:
        seed = 0 if fixed else source.seed
    master = np.random.default_rng(seed)
    mode = "single" if n_entries == 1 else "multi"
    records = []
    counterexamples = []
    worst = 0.0
    violations = 0
    trial = 0
    attempts = 0
    while trial < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise ValueError(f"could not sample feasible perturbations in {50 * trials} attempts")
        trial_seed = int(master.integers(2**63))
        rng = np.random.default_rng(trial_seed)
        if fixed:
            P = source
        else:
            P = random_chain(RandomChainSpec(source.n, source.density, trial_seed))
        Q = P
        specs: list[PerturbationSpec] = []
        forbid: set[tuple[int, int]] = set()
        for _ in range(n_entries):
            s = _sample_perturbation(Q, rng, delta_cap, strict=(mode == "multi"), forbid=frozenset(forbid))
            if s is None:
                break
            Q = perturb(Q, s)
            specs.append(s)
            forbid.add((s.row, s.col))
        if len(specs) < n_entries:
            if fixed:
                raise ValueError("matrix does not admit the requested perturbations")
            continue  # resample a fresh chain
        dist = matrix_distance(P, Q)
        d_b = bottleneck_distance(build_diagram(run_filtration(P)), build_diagram(run_filtration(Q)))
        if mode == "single":
            bound = dist.delta_inf
            violated = d_b > bound
        else:
            bound = n_entries * delta_cap
            violated = d_b >= bound
        worst = max(worst, d_b / bound if bound > 0 else 0.0)
        rec = TrialRecord(
            trial=trial,
            seed=trial_seed,
            n=P.n,
            targets=tuple((s.row, s.col) for s in specs),
            deltas=tuple(s.delta for s in specs),
            delta_measured=dist.delta_inf,
            l=n_entries,
            bound=bound,
            d_b=d_b,
            violation=violated,
        )
        records.append(rec)
        if violated:
            violations += 1
            counterexamples.append(
                {
                    "trial": trial,
                    "matrix": serialize_matrix(P),
                    "perturbed": serialize_matrix(Q),
                }
            )
        trial += 1
    return StabilityReport(mode, trials, violations, worst, tuple(records), tuple(counterexamples))


@dataclass(frozen=True)
class PropertyReport:
    trials: int
    violations: int
    checks: dict[str, int]
    failures: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "checks": dict(self.checks),
            "failures": list(self.failures),
        }


def property_trials(spec: RandomChainSpec, trials: int) -> PropertyReport:
    """Checks of the swept filtration over random chains.

    The stages checked are `F.stages`, replayed from the sweep's births
    records, so a wrong lineage shows as stages that differ from the
    static route. Per chain and stage, `static_route`: the stage's Morse
    sets are those `morse_sets` gives at its gamma, and each carries the index
    `topological_index` gives it. Per pair of stages, `containment`: Morse
    sets nest into exactly one successor, and the stage's lineage lists
    exactly the sets that merged. Per chain, `diagram_shape`: the diagram's
    immortal points equal the final stage's Morse sets and every death
    exceeds its birth.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = np.random.default_rng(spec.seed)
    checks = {"static_route": 0, "containment": 0, "diagram_shape": 0}
    failures = []
    for trial in range(trials):
        trial_seed = int(master.integers(2**63))
        P = random_chain(RandomChainSpec(spec.n, spec.density, trial_seed))
        F = run_filtration(P)
        X = F.complex
        tag = f"trial {trial} (seed {trial_seed})"
        for stage in F.stages:
            sets = morse_sets(X, P, stage.gamma)
            indexed = all(stage.index_of.get(m.label) == topological_index(X, m) for m in sets)
            if stage.morse_sets == sets and indexed:
                checks["static_route"] += 1
            else:
                failures.append(f"{tag}: Morse sets or indices differ from the static route at gamma={stage.gamma}")
        for prev, nxt in zip(F.stages, F.stages[1:]):
            try:
                cmap = containment_map(prev, nxt)
            except RuntimeError as exc:
                failures.append(f"{tag}: {exc}")
                continue
            parts: dict[int, list[int]] = {}
            for s, t in cmap.items():
                parts.setdefault(t, []).append(s)
            if nxt.absorbed == {t: tuple(p) for t, p in parts.items() if p != [t]}:
                checks["containment"] += 1
            else:
                failures.append(f"{tag}: lineage at gamma={nxt.gamma} differs from containment")
        D = build_diagram(F)
        immortal = sum(1 for p in D.points if math.isinf(p.death))
        if immortal == len(F.stages[-1].morse_sets) and all(p.death > p.birth for p in D.points):
            checks["diagram_shape"] += 1
        else:
            failures.append(f"{tag}: diagram shape violation")
    return PropertyReport(trials, len(failures), checks, tuple(failures))
