"""Deterministic SVG scatter plot of a decorated persistence diagram.

One marker shape per index class, the birth=death diagonal dashed, immortal
points on a rail above the finite range labelled with the infinity sign.
Pure string construction — no plotting dependency for a single CLI flag.
"""

from __future__ import annotations

import math
from collections import Counter

from .persistence import PersistenceDiagram

_SIZE = 520  # width in px; the height adds the infinity rail
_PALETTE = ["#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#bf8700", "#57606a"]
_SHAPES = ["circle", "square", "diamond", "triangle", "cross", "ring"]


def _marker(shape: str, x: float, y: float, color: str) -> str:
    r = 5.0
    if shape == "circle":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}" fill-opacity="0.75"/>'
    if shape == "square":
        return (
            f'<rect x="{x - r:.2f}" y="{y - r:.2f}" width="{2 * r}" height="{2 * r}" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    if shape == "diamond":
        pts = f"{x:.2f},{y - r:.2f} {x + r:.2f},{y:.2f} {x:.2f},{y + r:.2f} {x - r:.2f},{y:.2f}"
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    if shape == "triangle":
        pts = f"{x:.2f},{y - r:.2f} {x + r:.2f},{y + r:.2f} {x - r:.2f},{y + r:.2f}"
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    if shape == "cross":
        return (
            f'<path d="M {x - r:.2f} {y - r:.2f} L {x + r:.2f} {y + r:.2f} '
            f'M {x - r:.2f} {y + r:.2f} L {x + r:.2f} {y - r:.2f}" '
            f'stroke="{color}" stroke-width="2.5" fill="none"/>'
        )
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="none" stroke="{color}" stroke-width="2.5"/>'


def render_diagram_svg(D: PersistenceDiagram) -> str:
    """Self-contained SVG document for the diagram."""
    size = _SIZE
    margin = 56.0
    plot = size - 2 * margin
    rail_gap = 30.0

    finite_max = max(
        [D.grid[len(D.grid) - 1]]
        + [p.death for p in D.points if not math.isinf(p.death)]
        + [p.birth for p in D.points]
    )
    limit = finite_max * 1.1 if finite_max > 0 else 1.0

    def sx(v: float) -> float:
        return margin + (v / limit) * plot

    def sy(v: float) -> float:
        return margin + plot - (v / limit) * plot

    rail_y = margin - rail_gap / 2.0
    classes = sorted({p.index for p in D.points})
    style = {
        k: (_SHAPES[i % len(_SHAPES)], _PALETTE[i % len(_PALETTE)])
        for i, k in enumerate(classes)
    }

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + rail_gap:.0f}" '
        f'viewBox="0 0 {size} {size + rail_gap:.0f}" font-family="sans-serif" font-size="11">',
        f'<rect width="{size}" height="{size + rail_gap:.0f}" fill="white"/>',
        # axes
        f'<line x1="{margin}" y1="{margin + plot}" x2="{margin + plot}" y2="{margin + plot}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{margin + plot}" stroke="black"/>',
        # diagonal
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(limit):.2f}" y2="{sy(limit):.2f}" '
        f'stroke="#888" stroke-dasharray="5,4"/>',
        # infinity rail
        f'<line x1="{margin}" y1="{rail_y:.2f}" x2="{margin + plot}" y2="{rail_y:.2f}" '
        f'stroke="#888" stroke-dasharray="2,4"/>',
        f'<text x="{margin + plot + 6:.2f}" y="{rail_y + 4:.2f}">&#8734;</text>',
        f'<text x="{margin + plot / 2:.2f}" y="{margin + plot + 38:.2f}" text-anchor="middle">birth</text>',
        f'<text x="16" y="{margin + plot / 2:.2f}" transform="rotate(-90 16 {margin + plot / 2:.2f})" '
        f'text-anchor="middle">death</text>',
    ]
    for v in D.grid:
        out.append(
            f'<line x1="{sx(v):.2f}" y1="{margin + plot}" y2="{margin + plot + 5}" x2="{sx(v):.2f}" stroke="black"/>'
            f'<text x="{sx(v):.2f}" y="{margin + plot + 18:.2f}" text-anchor="middle">{v:g}</text>'
        )
        out.append(
            f'<line x1="{margin - 5}" y1="{sy(v):.2f}" x2="{margin}" y2="{sy(v):.2f}" stroke="black"/>'
            f'<text x="{margin - 8:.2f}" y="{sy(v) + 4:.2f}" text-anchor="end">{v:g}</text>'
        )
    for p, count in Counter(D.points).items():  # first occurrences, in diagram order
        shape, color = style[p.index]
        x = sx(p.birth)
        y = rail_y if math.isinf(p.death) else sy(p.death)
        out.append(_marker(shape, x, y, color))
        if count > 1:
            out.append(f'<text x="{x + 7:.2f}" y="{y - 7:.2f}">&#215;{count}</text>')
    # legend
    for i, k in enumerate(classes):
        shape, color = style[k]
        lx, ly = margin + 12, margin + 14 + 18 * i
        out.append(_marker(shape, lx, ly, color))
        out.append(f'<text x="{lx + 12:.2f}" y="{ly + 4:.2f}">index ({k.h1}, {k.c1})</text>')
    out.append("</svg>")
    return "\n".join(out)
