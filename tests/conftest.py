"""Shared fixtures: the 3-state worked chain used across the suite.

Cells are ints numbered per complex; `V(i)` and `E(i, j)` name the worked
chain's cells by state indices (`E` is the oracle's `edge` on
`WORKED_COMPLEX`).
"""

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

    Returns a Counter of the probes by the route of the class probed: the
    first of the routes in its type's MRO, so a test's subclass counts as
    its route. Each `probe` is wrapped once, on the route that defines it,
    so a route that inherits one would count each probe once.
    """
    counts, routes = Counter(), (bottleneck._Dense, bottleneck._Class, bottleneck._Line)
    for route in routes:
        if "probe" not in route.__dict__:
            continue

        def probe(self, eps, probe=route.probe):
            counts[next(c.__name__ for c in type(self).__mro__ if c in routes)] += 1
            assert counts.total() <= 200, "the radius search probed 200 radii"
            return probe(self, eps)

        monkeypatch.setattr(route, "probe", probe)
    return counts
