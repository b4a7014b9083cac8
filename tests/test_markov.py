"""Parsing, validation, threshold grids, perturbation, matrix distance."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_morse import PerturbationSpec, TransitionMatrix, parse_matrix, perturb, threshold_grid
from markov_morse.markov import (
    MatrixParseError,
    MatrixValidationError,
    ThresholdGrid,
    matrix_distance,
    serialize_matrix,
)

CSV_3STATE = """\
# N1,N2,N3
0.5,0.17,0.33
0.17,0.6,0.23
0.15,0.15,0.7
"""

JSON_3STATE = (
    '{"states": ["N1", "N2", "N3"],'
    ' "matrix": [[0.5, 0.17, 0.33], [0.17, 0.6, 0.23], [0.15, 0.15, 0.7]]}'
)


@pytest.fixture
def P3():
    return parse_matrix(CSV_3STATE, "csv")


class TestParsing:
    def test_csv_with_header(self, P3):
        assert P3.states == ("N1", "N2", "N3")
        assert P3.prob(1, 2) == 0.17
        assert P3.prob(3, 3) == 0.7

    def test_csv_without_header_defaults_labels(self):
        P = parse_matrix("0.5,0.5\n0.25,0.75\n", "csv")
        assert P.states == ("N1", "N2")

    def test_json_roundtrip_is_bit_exact(self, P3):
        again = parse_matrix(serialize_matrix(P3, "json"), "json")
        assert again == P3

    def test_csv_roundtrip_is_bit_exact(self, P3):
        again = parse_matrix(serialize_matrix(P3, "csv"), "csv")
        assert again == P3

    @pytest.mark.parametrize("label", ["a,b", " a", "a ", "a\nb", "a\rb", "a\u2028b"])
    def test_csv_refuses_a_label_its_header_cannot_carry(self, label):
        # the header is split on commas, stripped and broken by str.splitlines,
        # so these would read back as other labels, or not at all
        P = TransitionMatrix(np.eye(2), (label, "c"))
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize_matrix(P, "csv")
        assert parse_matrix(serialize_matrix(P, "json"), "json") == P

    def test_json_equals_csv(self, P3):
        assert parse_matrix(JSON_3STATE, "json") == P3

    def test_single_state(self):
        P = parse_matrix("1", "csv")
        assert P.n == 1
        assert P.states == ("N1",)

    def test_csv_bad_token_reports_position(self):
        with pytest.raises(MatrixParseError, match="line 2, field 3"):
            parse_matrix("0.5,0.25,0.25\n0.1,0.2,oops\n0.3,0.3,0.4\n", "csv")

    def test_csv_ragged_rows(self):
        with pytest.raises(MatrixParseError, match="line 2"):
            parse_matrix("0.5,0.5\n1.0\n", "csv")

    def test_json_syntax_error_reports_position(self):
        with pytest.raises(MatrixParseError, match="line 1"):
            parse_matrix('{"matrix": [[1.0],]}', "json")

    def test_json_missing_matrix_key(self):
        with pytest.raises(MatrixParseError, match="matrix"):
            parse_matrix('{"states": ["A"]}', "json")

    def test_non_square(self):
        with pytest.raises(MatrixValidationError, match="square"):
            parse_matrix("0.5,0.5\n", "csv")

    def test_row_sum_violation(self):
        with pytest.raises(MatrixValidationError, match="row 2"):
            parse_matrix("0.5,0.5\n0.6,0.6\n", "csv")

    def test_row_sum_tolerance_accepts_tiny_slack(self):
        P = TransitionMatrix([[0.5, 0.5 + 5e-10], [0.25, 0.75]])
        assert P.n == 2

    def test_negative_entry(self):
        with pytest.raises(MatrixValidationError, match="negative"):
            TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_entry_above_one(self):
        with pytest.raises(MatrixValidationError, match="exceeds 1"):
            TransitionMatrix([[1.5, 0.0], [0.5, 0.5]])  # row sum also off, bounds first
            # (bounds are checked before row sums)

    def test_duplicate_labels(self):
        with pytest.raises(MatrixValidationError, match="distinct"):
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5]], ("A", "A"))

    def test_entries_are_read_only(self, P3):
        with pytest.raises(ValueError):
            P3.entries[0, 0] = 0.0


def csv_safe(label: str) -> bool:
    """A label the CSV header reads back unchanged: one line, no comma, nothing to strip."""
    return "," not in label and label == label.strip() and label.splitlines() == [label]


@st.composite
def labelled_chains(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    weights = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    # awkward characters often, so refused labels are a common case
    chars = st.sampled_from("ab #,\t\n\r\x0b\x1c\x85\u2028") | st.characters()
    label = st.text(chars, min_size=1, max_size=4)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n, unique=True))
    return TransitionMatrix(weights / weights.sum(axis=1, keepdims=True), labels)


@settings(deadline=None)
@given(labelled_chains(), st.sampled_from(["json", "csv"]))
def test_property_serialize_parse_round_trip(P, fmt):
    refused = [s for s in P.states if not csv_safe(s)] if fmt == "csv" else []
    if refused:
        with pytest.raises(ValueError, match="does not survive a CSV header"):
            serialize_matrix(P, fmt)
    else:
        assert parse_matrix(serialize_matrix(P, fmt), fmt) == P


class TestThresholdGrid:
    def test_worked_example_grid(self, P3):
        assert list(threshold_grid(P3)) == [0.0, 0.15, 0.17, 0.23, 0.33]

    def test_identity_grid_is_just_zero(self):
        P = TransitionMatrix(np.eye(4))
        assert list(threshold_grid(P)) == [0.0]

    def test_duplicates_collapse(self):
        P = TransitionMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        assert list(threshold_grid(P)) == [0.0, 0.1]

    def test_diagonal_values_ignored(self):
        # diagonal 0.6 must not appear in the grid
        P = TransitionMatrix([[0.6, 0.4], [0.3, 0.7]])
        assert list(threshold_grid(P)) == [0.0, 0.3, 0.4]

    def test_values_are_verbatim_entries(self, P3):
        grid = threshold_grid(P3)
        entries = {float(v) for v in P3.entries.ravel()}
        assert all(v in entries for v in list(grid)[1:])

    def test_grid_type_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ThresholdGrid((0.0, 0.3, 0.2))
        with pytest.raises(ValueError):
            ThresholdGrid((0.1, 0.2))


class TestPerturb:
    def test_compensated_arithmetic(self, P3):
        Q = perturb(P3, PerturbationSpec(1, 2, 0.01))
        assert Q.prob(1, 2) == 0.17 + 0.01
        assert Q.prob(1, 1) == 0.5 - 0.01
        assert Q.prob(1, 3) == 0.33  # untouched
        assert Q.prob(2, 1) == 0.17

    def test_rows_stay_stochastic(self, P3):
        Q = perturb(P3, PerturbationSpec(2, 3, -0.02))
        assert np.all(np.abs(Q.entries.sum(axis=1) - 1.0) <= 1e-9)

    def test_zero_delta_is_identity(self, P3):
        assert perturb(P3, PerturbationSpec(1, 2, 0.0)) == P3

    def test_infeasible_perturbation_rejected(self, P3):
        with pytest.raises(MatrixValidationError):
            perturb(P3, PerturbationSpec(3, 1, 0.9))

    def test_negative_target_rejected(self, P3):
        with pytest.raises(MatrixValidationError, match="out of"):
            perturb(P3, PerturbationSpec(1, 2, -0.5))

    def test_diagonal_target_rejected(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            PerturbationSpec(2, 2, 0.01)

    def test_out_of_range_target(self, P3):
        with pytest.raises(MatrixValidationError, match="outside"):
            perturb(P3, PerturbationSpec(1, 9, 0.01))


class TestMatrixDistance:
    def test_identical(self, P3):
        d = matrix_distance(P3, P3)
        assert d == (0.0, 0, 0)

    def test_single_compensated_perturbation(self, P3):
        Q = perturb(P3, PerturbationSpec(1, 2, 0.01))
        d = matrix_distance(P3, Q)
        # off-diagonal change plus its diagonal compensation
        assert d.l_offdiag == 1
        assert d.l_all == 2
        expected = float(np.abs(P3.entries - Q.entries).max())
        assert d.delta_inf == expected
        assert d.delta_inf == pytest.approx(0.01, abs=1e-15)

    def test_three_entry_perturbation(self, P3):
        Q = P3
        for spec in (
            PerturbationSpec(1, 2, 0.02),
            PerturbationSpec(2, 3, -0.01),
            PerturbationSpec(3, 1, 0.005),
        ):
            Q = perturb(Q, spec)
        d = matrix_distance(P3, Q)
        assert d.l_offdiag == 3
        assert d.l_all == 6
        assert d.delta_inf == float(np.abs(P3.entries - Q.entries).max())
        assert d.delta_inf == pytest.approx(0.02, abs=1e-15)

    def test_symmetry(self, P3):
        Q = perturb(P3, PerturbationSpec(2, 1, 0.03))
        assert matrix_distance(P3, Q) == matrix_distance(Q, P3)

    def test_label_mismatch_rejected(self, P3):
        other = TransitionMatrix(P3.entries, ("A", "B", "C"))
        with pytest.raises(MatrixValidationError):
            matrix_distance(P3, other)
