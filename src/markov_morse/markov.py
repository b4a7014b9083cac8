"""Row-stochastic transition matrices: parsing, validation, thresholds, perturbation.

A chain on states N1..Nn is given by a square matrix P with rows summing to 1
(within ROW_SUM_TOL). Off-diagonal entries drive everything downstream: the
sorted distinct positive values form the threshold grid, and single-entry
perturbations (diagonally compensated to preserve stochasticity) are the
probes used by the stability harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-9


class MatrixError(ValueError):
    """Base class for matrix input problems."""


class MatrixParseError(MatrixError):
    """Malformed CSV/JSON text; the message carries the position."""


class MatrixValidationError(MatrixError):
    """Well-formed input that violates a stochasticity or shape constraint."""


def _clip(value) -> str:
    """repr(value), cut to 40 characters and "..." so an error message stays short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _default_states(n: int) -> tuple[str, ...]:
    return tuple(f"N{i}" for i in range(1, n + 1))


class TransitionMatrix:
    """Validated, immutable row-stochastic matrix with state labels.

    Entries are stored as a read-only float64 array. Indices in the public
    accessors are 1-based, matching the N1..Nn labelling used everywhere else.
    """

    __slots__ = ("states", "entries")

    def __init__(self, entries, states: tuple[str, ...] | None = None):
        try:
            arr = np.array(entries, dtype=float)
        except OverflowError:
            raise MatrixValidationError("matrix has an entry too large for a float") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixValidationError(f"matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 1:
            raise MatrixValidationError("matrix must have at least one state")
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise MatrixValidationError(f"non-finite entry at ({i + 1},{j + 1})")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise MatrixValidationError(f"negative entry {arr[i, j]!r} at ({i + 1},{j + 1})")
        if np.any(arr > 1):
            i, j = np.argwhere(arr > 1)[0]
            raise MatrixValidationError(f"entry {arr[i, j]!r} at ({i + 1},{j + 1}) exceeds 1")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise MatrixValidationError(f"row {i + 1} sums to {sums[i]!r}, expected 1 within {ROW_SUM_TOL}")
        if states is None:
            states = _default_states(n)
        states = tuple(states)
        if len(states) != n:
            raise MatrixValidationError(f"{len(states)} labels for {n} states")
        if any(not isinstance(s, str) or not s for s in states):
            raise MatrixValidationError("state labels must be non-empty strings")
        if len(set(states)) != n:
            raise MatrixValidationError("state labels must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not the slots' setattr
        return type(self), (self.entries, self.states)

    @property
    def n(self) -> int:
        return len(self.states)

    def prob(self, i: int, j: int) -> float:
        """Transition probability from state i to state j (1-based)."""
        return float(self.entries[i - 1, j - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.states == other.states and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.states, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"TransitionMatrix(n={self.n}, states={list(self.states)})"


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing thresholds; always starts at 0.0."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0.0:
            raise ValueError("grid must start at 0.0")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("grid values must be strictly increasing")

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return self.values[k]


@dataclass(frozen=True)
class PerturbationSpec:
    """One off-diagonal edit: entry (row, col) += delta, 1-based indices.

    The diagonal entry (row, row) absorbs -delta so the row stays stochastic.
    """

    row: int
    col: int
    delta: float

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise ValueError("indices are 1-based and must be >= 1")
        if self.row == self.col:
            raise ValueError("perturbation target must be off-diagonal")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")


class MatrixDistance(NamedTuple):
    delta_inf: float
    l_offdiag: int
    l_all: int


def parse_matrix(text: str, fmt: str = "csv") -> TransitionMatrix:
    """Parse CSV or JSON text into a validated TransitionMatrix.

    CSV: one row per line, comma-separated decimals; an optional first line
    starting with '#' carries comma-separated state labels. JSON: an object
    {"states": [...], "matrix": [[...]]} where "states" is optional. Labels
    default to N1..Nn.
    """
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _matrix_from_obj(_decode_json(text))
    raise ValueError(f"unknown format {fmt!r}")


def _parse_csv(text: str) -> TransitionMatrix:
    states = None
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if states is not None or rows:
                raise MatrixParseError(f"line {lineno}: unexpected second header line")
            states = tuple(tok.strip() for tok in line[1:].split(","))
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixParseError(f"line {lineno}: expected {width} fields, got {len(tokens)}")
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise MatrixParseError(f"line {lineno}, field {col}: not a number: {_clip(tok.strip())}") from None
        rows.append(row)
    if not rows:
        raise MatrixParseError("no matrix rows found")
    return TransitionMatrix(rows, states)


def _decode_json(text: str):
    """json.loads, with malformed or too deeply nested text raised as MatrixParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise MatrixParseError("invalid JSON: nested too deeply") from None


def _matrix_from_obj(obj) -> TransitionMatrix:
    """The matrix in a decoded JSON value of the form parse_matrix documents."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise MatrixParseError('expected an object with a "matrix" key')
    matrix = obj["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise MatrixParseError('"matrix" must be a list of rows')
    for i, row in enumerate(matrix, start=1):
        for j, v in enumerate(row, start=1):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise MatrixParseError(f'"matrix" row {i}, field {j}: not a number: {_clip(v)}')
    states = obj.get("states")
    if states is not None:
        if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
            raise MatrixParseError('"states" must be a list of strings')
        states = tuple(states)
    return TransitionMatrix(matrix, states)


def serialize_matrix(P: TransitionMatrix, fmt: str = "json") -> str:
    """Serialize with full precision; parse_matrix(serialize_matrix(P)) == P bit-exactly.

    The CSV header is split on commas, each label is stripped and lines are
    broken by `str.splitlines`, so a label with a comma, a line break or
    surrounding whitespace cannot be written to CSV and raises ValueError.
    """
    if fmt == "json":
        rows = [[float(v) for v in row] for row in P.entries]
        return json.dumps({"states": list(P.states), "matrix": rows})
    if fmt == "csv":
        for s in P.states:
            if "," in s or s != s.strip() or s.splitlines() != [s]:
                raise ValueError(f"state label {s!r} does not survive a CSV header; use JSON")
        header = "# " + ",".join(P.states)
        lines = [",".join(repr(float(v)) for v in row) for row in P.entries]
        return "\n".join([header, *lines]) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def threshold_grid(P: TransitionMatrix) -> ThresholdGrid:
    """0 followed by the sorted distinct positive off-diagonal entries, verbatim."""
    off = P.entries[~np.eye(P.n, dtype=bool)]
    return ThresholdGrid((0.0, *np.unique(off[off > 0.0]).tolist()))


def perturb(P: TransitionMatrix, spec: PerturbationSpec) -> TransitionMatrix:
    """Apply one off-diagonal perturbation, compensated on the diagonal."""
    n = P.n
    if spec.row > n or spec.col > n:
        raise MatrixValidationError(f"target ({spec.row},{spec.col}) outside a {n}-state matrix")
    new = P.entries.copy()
    i, j = spec.row - 1, spec.col - 1
    new[i, j] += spec.delta
    if not 0.0 <= new[i, j] <= 1.0:
        raise MatrixValidationError(
            f"perturbed entry ({spec.row},{spec.col}) = {new[i, j]!r} out of [0, 1]"
        )
    new[i, i] -= spec.delta
    if not 0.0 <= new[i, i] <= 1.0:
        raise MatrixValidationError(
            f"compensation impossible: diagonal ({spec.row},{spec.row}) = {new[i, i]!r} out of [0, 1]"
        )
    return TransitionMatrix(new, P.states)


def matrix_distance(P: TransitionMatrix, Q: TransitionMatrix) -> MatrixDistance:
    """Entrywise max difference plus counts of differing entries.

    delta_inf = max |p_ij - q_ij|; l_offdiag counts differing off-diagonal
    entries, l_all counts all differing entries (exact float inequality).
    """
    if P.states != Q.states:
        raise MatrixValidationError("matrices must share dimension and state labels")
    diff = np.abs(P.entries - Q.entries)
    changed = P.entries != Q.entries
    off = ~np.eye(P.n, dtype=bool)
    return MatrixDistance(
        delta_inf=float(diff.max()),
        l_offdiag=int(np.count_nonzero(changed & off)),
        l_all=int(np.count_nonzero(changed)),
    )
