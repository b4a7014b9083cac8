"""Shared fixtures: the 3-state worked chain used across the suite.

Cells are ints numbered per complex; `V(i)` and `E(i, j)` name the worked
chain's cells by state indices (`E` is the oracle's `edge` on
`WORKED_COMPLEX`).
"""

from functools import partial

import pytest

from cells_oracle import edge
from markov_morse import TransitionMatrix, build_complex

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
