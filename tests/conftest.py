"""Shared fixtures: the 3-state worked chain used across the suite.

Cells are ints numbered per complex; `WORKED_COMPLEX.vertex` and
`WORKED_COMPLEX.edge` name the worked chain's cells by state indices.
"""

import pytest

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


@pytest.fixture
def worked_matrix():
    return TransitionMatrix(WORKED_ROWS)


@pytest.fixture
def worked_complex(worked_matrix):
    return build_complex(worked_matrix)
