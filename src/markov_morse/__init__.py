"""Morse-set persistence for finite Markov chains.

A chain's transition matrix induces a finite topological space (states and
positive-probability transitions) and, at each probability threshold, a
partition of that space into multivectors. Morse sets of the induced coarse
dynamics carry homological decorations; tracking them across the threshold
grid yields an index-decorated persistence diagram, compared by an
index-aware bottleneck distance. The harness tests how far the diagram
moves when matrix entries move; a single edit can move it further than the
edit itself on some chains.

The package exports the pipeline, plus the stages the CLI runs one by one:
`build_complex` and `format_cell` (cells), `build_mvf` (fields),
`morse_sets` and `morse_order` (dynamics) and `topological_index`
(homology). The rest of those layers is imported from their own modules.
"""

from .bottleneck import bottleneck_distance, bottleneck_matching
from .cells import build_complex, format_cell
from .dynamics import morse_order, morse_sets
from .harness import RandomChainSpec, property_trials, random_chain, stability_trials
from .homology import topological_index
from .markov import (
    MatrixError,
    PerturbationSpec,
    TransitionMatrix,
    parse_matrix,
    perturb,
    threshold_grid,
)
from .mvf import build_mvf
from .persistence import (
    PersistenceDiagram,
    build_diagram,
    diagram_from_json,
    diagram_to_json,
    run_filtration,
)
from .svg import render_diagram_svg

__version__ = "0.1.0"

__all__ = [
    "MatrixError",
    "PersistenceDiagram",
    "PerturbationSpec",
    "RandomChainSpec",
    "TransitionMatrix",
    "bottleneck_distance",
    "bottleneck_matching",
    "build_complex",
    "build_diagram",
    "build_mvf",
    "diagram_from_json",
    "diagram_to_json",
    "format_cell",
    "morse_order",
    "morse_sets",
    "parse_matrix",
    "perturb",
    "property_trials",
    "random_chain",
    "render_diagram_svg",
    "run_filtration",
    "stability_trials",
    "threshold_grid",
    "topological_index",
]
