"""Shared fixtures: the 3-state worked chain used across the suite.

Cells are ints numbered per complex; `V(i)` and `E(i, j)` name the worked
chain's cells by state indices (`E` is the oracle's `edge` on
`WORKED_COMPLEX`).
"""

import itertools
from collections import Counter
from functools import partial

import pytest

from cells_oracle import edge
from markov_morse import TransitionMatrix, bottleneck, build_complex

WORKED_ROWS = [
    [0.5, 0.17, 0.33],
    [0.17, 0.6, 0.23],
    [0.15, 0.15, 0.7],
]

WORKED_CSV = """\
# N1,N2,N3
0.5,0.17,0.33
0.17,0.6,0.23
0.15,0.15,0.7
"""

WORKED_COMPLEX = build_complex(TransitionMatrix(WORKED_ROWS))
V, E = WORKED_COMPLEX.vertex, partial(edge, WORKED_COMPLEX)


@pytest.fixture
def worked_matrix():
    return TransitionMatrix(WORKED_ROWS)


@pytest.fixture
def worked_complex(worked_matrix):
    return build_complex(worked_matrix)


@pytest.fixture
def bounded_search(monkeypatch):
    """Fail a bottleneck radius search at its 201st probe, on every route, instead of letting it run on.

    Returns a Counter of the probes by route name; a line probe also counts as a windowed one.
    """
    probes, counts = itertools.count(1), Counter()
    for route in (bottleneck._Dense, bottleneck._Class, bottleneck._Line):

        def probe(self, eps, probe=route.probe, name=route.__name__):
            assert next(probes) <= 200, "the radius search probed 200 radii"
            counts[name] += 1
            return probe(self, eps)

        monkeypatch.setattr(route, "probe", probe)
    return counts
