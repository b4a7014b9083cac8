"""Command-line interface.

Subcommands mirror the pipeline: thresholds, mvf, morse, diagram (optionally
rendered to SVG), bottleneck between two inputs, and the stability/property
harnesses. Structured results go to stdout as JSON; diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 invalid input, 3 a stability
or property violation was detected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .bottleneck import bottleneck_matching
from .cells import build_complex, format_cell
from .dynamics import morse_order, morse_sets
from .harness import RandomChainSpec, property_trials, stability_trials
from .homology import topological_index
from .markov import MatrixError, TransitionMatrix, _decode_json, _matrix_from_obj, parse_matrix, threshold_grid
from .mvf import build_mvf
from .persistence import (
    PersistenceDiagram,
    PersistencePoint,
    _diagram_from_obj,
    build_diagram,
    diagram_to_json,
    run_filtration,
)
from .svg import render_diagram_svg

USAGE_ERROR = 1
INPUT_ERROR = 2
VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read(path: str, *, diagram: bool = False) -> TransitionMatrix | PersistenceDiagram:
    """The matrix in a file, or with `diagram` its diagram or the diagram the file holds; read and parsed once.

    The file is JSON if its name ends in .json or its text starts with "{" or "[", and CSV otherwise.
    """
    text = Path(path).read_text()
    if path.endswith(".json") or text.lstrip().startswith(("{", "[")):
        obj = _decode_json(text)
        if diagram and isinstance(obj, dict) and "points" in obj:
            return _diagram_from_obj(obj)
        P = _matrix_from_obj(obj)
    else:
        P = parse_matrix(text, "csv")
    return build_diagram(run_filtration(P)) if diagram else P


def _parse_random_spec(text: str, seed: int) -> RandomChainSpec:
    """N or N,DENSITY; a malformed or out-of-range field raises ValueError naming --random."""
    fields = text.split(",")
    try:
        if len(fields) > 2:
            raise ValueError(f"expected N or N,DENSITY, got {len(fields)} fields")
        n = int(fields[0])
        density = float(fields[1]) if len(fields) == 2 else 0.7
        spec = RandomChainSpec(n=n, density=density)
    except ValueError as exc:
        raise ValueError(f"--random {text!r}: {exc}") from None
    return replace(spec, seed=seed)


def _occurrence_ids(
    points: tuple[PersistencePoint, ...], prefix: str
) -> dict[PersistencePoint, list[str]]:
    """Point -> its unused ids, lowest last; equal points are separate occurrences."""
    ids: dict[PersistencePoint, list[str]] = {}
    for k in reversed(range(len(points))):
        ids.setdefault(points[k], []).append(f"{prefix}{k}")
    return ids


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


def _cmd_thresholds(args) -> int:
    P = _read(args.matrix)
    _emit({"grid": list(threshold_grid(P))})
    return 0


def _cmd_mvf(args) -> int:
    P = _read(args.matrix)
    X = build_complex(P)
    fld = build_mvf(X, P, args.gamma)
    _emit(
        {
            "gamma": args.gamma,
            "multivectors": [[format_cell(X, c, P.states) for c in sorted(v)] for v in fld],
        }
    )
    return 0


def _cmd_morse(args) -> int:
    P = _read(args.matrix)
    X = build_complex(P)
    sets = morse_sets(X, P, args.gamma)
    _emit(
        {
            "gamma": args.gamma,
            "morse_sets": [
                {
                    "label": format_cell(X, m.label, P.states),
                    "cells": [format_cell(X, c, P.states) for c in sorted(m.cells)],
                    "index": list(topological_index(X, m)),
                }
                for m in sets
            ],
            "order": [
                [format_cell(X, a, P.states), format_cell(X, b, P.states)] for a, b in morse_order(X, sets)
            ],
        }
    )
    return 0


def _cmd_diagram(args) -> int:
    P = _read(args.matrix)
    D = build_diagram(run_filtration(P))
    if args.svg:
        Path(args.svg).write_text(render_diagram_svg(D))
        print(f"wrote {args.svg}", file=sys.stderr)
    print(diagram_to_json(D))
    return 0


def _cmd_bottleneck(args) -> int:
    D1 = _read(args.a, diagram=True)
    D2 = _read(args.b, diagram=True)
    result = bottleneck_matching(D1, D2)
    ids1 = _occurrence_ids(D1.points, "a")
    ids2 = _occurrence_ids(D2.points, "b")

    matching = None
    if not math.isinf(result.distance):
        matching = [
            {
                "pair": [
                    ids1[m.left].pop() if m.left is not None else "diag",
                    ids2[m.right].pop() if m.right is not None else "diag",
                ],
                "a": m.left.as_dict() if m.left is not None else None,
                "b": m.right.as_dict() if m.right is not None else None,
                "cost": m.cost,
            }
            for m in result.pairs
        ]
    _emit(
        {
            "distance": "inf" if math.isinf(result.distance) else result.distance,
            "matching": matching,
        }
    )
    return 0


def _cmd_stability(args) -> int:
    if (args.matrix is None) == (args.random is None):
        print("error: stability needs a matrix file or --random, not both", file=sys.stderr)
        return USAGE_ERROR
    if args.random is not None:
        source = _parse_random_spec(args.random, args.seed)
    else:
        source = _read(args.matrix)
    report = stability_trials(
        source,
        args.trials,
        n_entries=args.multi,
        delta_cap=args.delta,
        seed=args.seed,
    )
    _emit(asdict(report))
    if report.violations:
        print(f"{report.violations} violation(s) detected", file=sys.stderr)
        return VIOLATION
    return 0


def _cmd_properties(args) -> int:
    spec = _parse_random_spec(args.random, args.seed)
    report = property_trials(spec, args.trials)
    _emit(asdict(report))
    if report.violations:
        print(f"{report.violations} violation(s) detected", file=sys.stderr)
        return VIOLATION
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="markov-morse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="print the threshold grid")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("mvf", help="multivector field at a threshold")
    p.add_argument("matrix")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_mvf)

    p = sub.add_parser("morse", help="Morse sets, indices and order at a threshold")
    p.add_argument("matrix")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_morse)

    p = sub.add_parser("diagram", help="decorated persistence diagram")
    p.add_argument("matrix")
    p.add_argument("--svg", help="also render the diagram to this SVG file")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("bottleneck", help="bottleneck distance between two inputs")
    p.add_argument("a", help="matrix or diagram JSON file")
    p.add_argument("b", help="matrix or diagram JSON file")
    p.set_defaults(func=_cmd_bottleneck)

    p = sub.add_parser("stability", help="perturbation stability trials")
    p.add_argument("matrix", nargs="?", help="fixed base matrix (or use --random)")
    p.add_argument("--random", help="random chain spec: N or N,DENSITY")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--multi", type=int, default=1, metavar="L", help="entries perturbed per trial")
    p.add_argument("--delta", type=float, default=0.05, help="perturbation magnitude cap")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("properties", help="structural invariant trials on random chains")
    p.add_argument("--random", required=True, help="random chain spec: N or N,DENSITY")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_properties)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (MatrixError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main(None))


if __name__ == "__main__":
    entrypoint()
