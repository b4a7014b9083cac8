"""The three benchmark workloads: inputs from a seed, one timed call per item, checks.

Each workload turns a seed into a pool of inputs, calls the public API once
per item, and reduces the output to a small JSON-able summary that is either
compared with a stored reference (for the reference seeds) or checked against
invariants that hold for every input.

- sweep: full filtration plus diagram of one n=16 chain. The filtration
  layers do almost all the work; bottleneck does none.
- match: one bottleneck matching between two synthetic ~200-point diagrams.
  Bottleneck does all the work; the filtration does none.
- stability: one perturb-and-compare trial on an n=8 chain. The same layers
  at small sizes, so per-call overhead matters more than asymptotics.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Seeds with stored reference outputs: the default seed and one held-out seed.
REFERENCE_SEEDS = (1, 2)

# pool: distinct inputs a run cycles through (references cover all of them).
# trace_items: the first inputs of the pool that one traced pass runs.
SIZES = {
    "full": {
        "sweep": {"n": 16, "density": 0.7, "pool": 32, "trace_items": 8},
        "match": {"points": 200, "pool": 32, "trace_items": 12},
        "stability": {"n": 8, "density": 0.7, "pool": 256, "trace_items": 64},
    },
    "tiny": {
        "sweep": {"n": 6, "density": 0.7, "pool": 4, "trace_items": 2},
        "match": {"points": 20, "pool": 4, "trace_items": 2},
        "stability": {"n": 4, "density": 0.7, "pool": 8, "trace_items": 4},
    },
}


def item_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-item seeds; distinct streams per workload so pools never coincide."""
    rng = np.random.default_rng([seed, *workload.encode()])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Sweep:
    name = "sweep"

    def inputs(self, mm, seed: int, size: dict) -> list:
        return [
            mm.random_chain(mm.RandomChainSpec(size["n"], size["density"], s))
            for s in item_seeds(self.name, seed, size["pool"])
        ]

    def call(self, mm, P):
        F = mm.run_filtration(P)
        return F, mm.build_diagram(F)

    def summary(self, mm, out):
        _, D = out
        return hashlib.sha256(mm.diagram_to_json(D).encode()).hexdigest()

    def invariants(self, mm, out) -> list[str]:
        F, D = out
        immortal = sum(1 for p in D.points if math.isinf(p.death))
        final = len(F.stages[-1].morse_sets)
        if immortal != final:
            return [f"{immortal} immortal points but {final} final-stage Morse sets"]
        return []

    def pool_checks(self, mm, inputs) -> dict[int, list[str]]:
        return {}


def _draw_points(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    births = rng.uniform(0.0, 0.5, size=count)
    lengths = rng.exponential(0.08, size=count) + 1e-3
    return [(float(b), float(b + w)) for b, w in zip(births, lengths)]


def _jitter(rng: np.random.Generator, birth: float, death: float) -> tuple[float, float]:
    b = max(0.0, birth + float(rng.uniform(-0.01, 0.01)))
    d = death + float(rng.uniform(-0.01, 0.01))
    return b, max(d, b + 1e-4)


class Match:
    """Synthetic diagram pairs: one dominant finite class plus immortal points.

    Even pool items are near pairs (B is A jittered by up to 0.01 with about
    10% of the finite points redrawn, the perturbation regime); odd items are
    independent pairs. Immortal counts per class agree, so every distance is
    finite.
    """

    name = "match"
    DOMINANT = [0, 1]
    IMMORTAL = {(0, 0): 3, (0, 1): 2, (1, 1): 2}

    def _diagram_json(self, finite, immortal) -> str:
        points = [{"birth": b, "death": d, "index": self.DOMINANT} for b, d in finite]
        points += [{"birth": b, "death": "inf", "index": list(k)} for k, b in immortal]
        return json.dumps({"grid": [0.0, 1.0], "points": points})

    def _immortal(self, rng: np.random.Generator) -> list:
        return [
            (k, float(rng.uniform(0.0, 0.3)))
            for k, count in self.IMMORTAL.items()
            for _ in range(count)
        ]

    def pair_json(self, seed: int, points: int, near: bool) -> tuple[str, str]:
        rng = np.random.default_rng(seed)
        a_fin, a_inf = _draw_points(rng, points), self._immortal(rng)
        if near:
            b_fin = [
                _draw_points(rng, 1)[0] if rng.uniform() < 0.1 else _jitter(rng, b, d)
                for b, d in a_fin
            ]
            b_inf = [(k, max(0.0, b + float(rng.uniform(-0.01, 0.01)))) for k, b in a_inf]
        else:
            b_fin, b_inf = _draw_points(rng, points), self._immortal(rng)
        return self._diagram_json(a_fin, a_inf), self._diagram_json(b_fin, b_inf)

    def inputs(self, mm, seed: int, size: dict) -> list:
        pairs = []
        for k, s in enumerate(item_seeds(self.name, seed, size["pool"])):
            a, b = self.pair_json(s, size["points"], near=(k % 2 == 0))
            pairs.append((mm.diagram_from_json(a), mm.diagram_from_json(b)))
        return pairs

    def call(self, mm, pair):
        return mm.bottleneck_matching(*pair)

    def summary(self, mm, out):
        worst = max((p.cost for p in out.pairs), default=0.0)
        return [repr(out.distance), repr(worst)]

    def invariants(self, mm, out) -> list[str]:
        worst = max((p.cost for p in out.pairs), default=0.0)
        if not math.isfinite(out.distance):
            return [f"distance {out.distance!r} is not finite"]
        if worst != out.distance:
            return [f"largest matched cost {worst!r} differs from distance {out.distance!r}"]
        return []

    def pool_checks(self, mm, inputs) -> dict[int, list[str]]:
        """Symmetry on one near and one independent pair, and d(A, A) == 0.

        Each check costs a full matching, so they run once per run, untimed.
        """
        problems: dict[int, list[str]] = {}
        for k, (A, B) in enumerate(inputs[:2]):
            forward = mm.bottleneck_distance(A, B)
            backward = mm.bottleneck_distance(B, A)
            if forward != backward:
                problems.setdefault(k, []).append(f"asymmetric: {forward!r} vs {backward!r}")
        A = inputs[0][0]
        self_distance = mm.bottleneck_distance(A, A)
        if self_distance != 0.0:
            problems.setdefault(0, []).append(f"d(A, A) = {self_distance!r}")
        return problems


class Stability:
    name = "stability"

    def inputs(self, mm, seed: int, size: dict) -> list:
        return [
            mm.RandomChainSpec(size["n"], size["density"], s)
            for s in item_seeds(self.name, seed, size["pool"])
        ]

    def call(self, mm, spec):
        return mm.stability_trials(spec, 1, seed=spec.seed)

    def summary(self, mm, out):
        return [[repr(r.d_b), repr(r.bound), r.violation] for r in out.records]

    def invariants(self, mm, out) -> list[str]:
        return [
            f"trial {r.trial}: d_B {r.d_b!r} above the measured matrix distance {r.bound!r}"
            for r in out.records
            if r.violation or not r.d_b <= r.bound
        ]

    def pool_checks(self, mm, inputs) -> dict[int, list[str]]:
        return {}


WORKLOADS = {w.name: w for w in (Sweep(), Match(), Stability())}
