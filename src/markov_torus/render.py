"""CLI-facing serialization: JSON reports and SVG figures.

Reports carry a top-level ``"schema": 1`` marker, and every exact value is
emitted twice: as field text (``"a/b + c/d*sqrt(D)"``) and as a 12-place
decimal shadow for human use.  Figures draw the window [-1, 2]^2 of the
universal cover: lattice grid, both eigenlines through each unit-square
lattice point, every lattice translate of every cell that meets the window,
and the construction's labelled corner points.  Both emitters are
deterministic -- equal inputs produce byte-identical text.

Corner points are drawn wherever they land.  The translated cases can push
points such as c' outside the unit square, so nothing here assumes
otherwise; the window is wide enough to show every named point for every
sign case.
"""

from __future__ import annotations

import colorsys
import math
from typing import Sequence

from xml.sax.saxutils import escape

from .basis import EigenRect
from .construct import CornerPoint, MarkovConstruction, SignCase
from .exact import QuadReal, cf_expand
from .sft import TransitionGraph
from .torus import EigenData, EigenFrame, Mat2Z
from .walk import refinement_cells_depth

SCHEMA_VERSION = 1

DECIMAL_PLACES = 12


# -- JSON reports --------------------------------------------------------------


def quad_json(x: QuadReal) -> dict:
    """Exact field text plus a fixed-width decimal shadow."""
    return {"exact": x.exact_str(), "decimal": x.decimal(DECIMAL_PLACES)}


def matrix_json(mat: Mat2Z) -> list[list[int]]:
    return [[mat.a, mat.b], [mat.c, mat.d]]


def report_header(matrix: Mat2Z) -> dict:
    """The keys a report on ``matrix`` starts with, in this order."""
    return {"schema": SCHEMA_VERSION, "matrix": matrix_json(matrix)}


def graph_json(graph: TransitionGraph, labels: Sequence[str]) -> dict:
    """Graph as {size, entries (row-major), labels}."""
    labels = list(labels)
    if len(labels) != graph.n:
        raise ValueError("need one label per node")
    return {
        "size": graph.n,
        "entries": [x for row in graph.matrix for x in row],
        "labels": labels,
    }


def corner_json(point: CornerPoint) -> dict:
    return {
        "name": point.name,
        "u": quad_json(point.u),
        "w": quad_json(point.w),
        "x": quad_json(point.x),
        "y": quad_json(point.y),
    }


def analyze_report(matrix: Mat2Z, eig: EigenData) -> dict:
    """Spectral summary of a hyperbolic matrix in report form.

    The sign case is determined by the eigenvalue signs alone (conjugation
    preserves the spectrum), so it can be forecast without running the
    construction.
    """
    cf = cf_expand(eig.slope_lam)
    return {
        **report_header(matrix),
        "hyperbolic": True,
        "determinant": matrix.det(),
        "trace": matrix.trace(),
        "discriminant": eig.disc,
        "lambda": quad_json(eig.lam),
        "mu": quad_json(eig.mu),
        "slope_lambda": quad_json(eig.slope_lam),
        "slope_mu": quad_json(eig.slope_mu),
        "expansive_constant": quad_json(eig.expansive_constant),
        "slope_continued_fraction": {
            "preperiod": list(cf.preperiod),
            "period": list(cf.period),
        },
        "case": SignCase.of(eig.lam, eig.mu).name,
    }


def construction_report(construction: MarkovConstruction) -> dict:
    """The full construction in report form.

    ``build_cross_checks`` is always true here: the builder raises rather
    than returning an object that failed any of its internal checks.
    """
    base = construction.base
    refined = construction.refined
    cells = []
    for label, box in zip(refined.labels, refined.boxes):
        corners = [
            {"x": quad_json(x), "y": quad_json(y)}
            for x, y in box.corners_plane(refined.frame)
        ]
        cells.append({"label": label, "corners": corners})
    return {
        **report_header(construction.original),
        "C": matrix_json(construction.conjugation.conjugator),
        "P": matrix_json(construction.model),
        "epsilon": construction.conjugation.epsilon,
        "case": base.sign_case.name,
        "rho": quad_json(base.rho),
        "corner_points": [corner_json(p) for p in base.corners],
        "cells": cells,
        "graph_2node": graph_json(construction.graph, base.partition.labels),
        "graph_Nstar": graph_json(construction.refined_graph, refined.labels),
        "verifier_results": {
            "build_cross_checks": True,
            # every build checks the refined rows' geometry, then T·S on them
            "refined_geometry_checked": True,
        },
    }


# -- SVG figures ---------------------------------------------------------------

_WINDOW_LO = -1.0
_WINDOW_HI = 2.0
_SCALE = 260.0
_MARGIN = 40.0
_SIZE = 2 * _MARGIN + (_WINDOW_HI - _WINDOW_LO) * _SCALE


def _px(x: float, y: float) -> tuple[float, float]:
    """Plane coordinates to pixel coordinates (y axis flipped)."""
    return (_MARGIN + (x - _WINDOW_LO) * _SCALE,
            _MARGIN + (_WINDOW_HI - y) * _SCALE)


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _fill_color(index: int, count: int) -> str:
    hue = 0.85 * index / max(count, 1)
    r, g, b = colorsys.hls_to_rgb(hue, 0.62, 0.8)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _polygon_points(corners: Sequence[tuple[float, float]],
                    dx: float, dy: float) -> str:
    return " ".join(
        ",".join(_fmt(c) for c in _px(x + dx, y + dy)) for x, y in corners
    )


def _window_translates(corners: Sequence[tuple[float, float]]
                       ) -> list[tuple[int, int]]:
    """Integer shifts that can bring the polygon into the window, with slack;
    shifts that miss produce clipped-away (hence invisible) elements."""
    xs = [x for x, _ in corners]
    ys = [y for _, y in corners]
    eps = 1e-9
    ms = range(math.ceil(_WINDOW_LO - max(xs) - eps),
               math.floor(_WINDOW_HI - min(xs) + eps) + 1)
    ns = range(math.ceil(_WINDOW_LO - max(ys) - eps),
               math.floor(_WINDOW_HI - min(ys) + eps) + 1)
    return [(m, n) for m in ms for n in ns]


def _eigenline(anchor: tuple[float, float], slope: float) -> str:
    ax, ay = anchor
    x0, x1 = _WINDOW_LO - 0.2, _WINDOW_HI + 0.2
    p0 = _px(x0, ay + slope * (x0 - ax))
    p1 = _px(x1, ay + slope * (x1 - ax))
    return (f'x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
            f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}"')


def render_cells_svg(frame: EigenFrame, boxes: Sequence[EigenRect],
                     labels: Sequence[str],
                     corners: Sequence[CornerPoint] = (),
                     heading: str = "") -> str:
    """Universal-cover figure of the given cells: SVG text.

    Geometry is clipped to the window; corner markers and their labels are
    drawn on top, unclipped, so points near the border stay legible.
    """
    if len(boxes) != len(labels):
        raise ValueError("need one label per cell")
    size = _fmt(_SIZE)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f"  <title>{escape(heading)}</title>",
        "  <defs>",
        f'    <clipPath id="window"><rect x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN)}" '
        f'width="{_fmt(_SIZE - 2 * _MARGIN)}" height="{_fmt(_SIZE - 2 * _MARGIN)}"/>'
        "</clipPath>",
        "  </defs>",
        f'  <rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
        '  <g clip-path="url(#window)">',
    ]
    grid_lo, grid_hi = int(_WINDOW_LO), int(_WINDOW_HI)
    for k in range(grid_lo, grid_hi + 1):
        v0, v1 = _px(k, _WINDOW_LO), _px(k, _WINDOW_HI)
        h0, h1 = _px(_WINDOW_LO, k), _px(_WINDOW_HI, k)
        for a, b in ((v0, v1), (h0, h1)):
            lines.append(
                f'    <line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                'stroke="#cccccc" stroke-width="1"/>'
            )
    for index, (box, label) in enumerate(zip(boxes, labels)):
        plane = [
            (float(x), float(y)) for x, y in box.corners_plane(frame)
        ]
        color = _fill_color(index, len(boxes))
        for m, n in _window_translates(plane):
            points = _polygon_points(plane, m, n)
            lines.append(
                f'    <polygon points="{points}" fill="{color}" '
                f'fill-opacity="0.45" stroke="{color}" stroke-width="1">'
                f"<title>{escape(label)} +({m},{n})</title></polygon>"
            )
    square = (_px(0.0, 1.0), _px(1.0, 0.0))
    lines.append(
        f'    <rect x="{_fmt(square[0][0])}" y="{_fmt(square[0][1])}" '
        f'width="{_fmt(square[1][0] - square[0][0])}" '
        f'height="{_fmt(square[1][1] - square[0][1])}" '
        'fill="none" stroke="#555555" stroke-width="1.5"/>'
    )
    slope_lam = float(frame.eig.slope_lam)
    slope_mu = float(frame.eig.slope_mu)
    for anchor in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        lines.append(
            f"    <line {_eigenline(anchor, slope_lam)} "
            'stroke="#aa2222" stroke-width="1.2"/>'
        )
        lines.append(
            f"    <line {_eigenline(anchor, slope_mu)} "
            'stroke="#2244aa" stroke-width="1.2" stroke-dasharray="6,4"/>'
        )
    lines.append("  </g>")
    grouped: dict[tuple[QuadReal, QuadReal], list[str]] = {}
    order: list[tuple[QuadReal, QuadReal]] = []
    for point in corners:
        key = (point.x, point.y)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(point.name)
    for key in order:
        cx, cy = _px(float(key[0]), float(key[1]))
        name = "=".join(grouped[key])
        lines.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="#111111"/>'
        )
        lines.append(
            f'  <text x="{_fmt(cx + 7)}" y="{_fmt(cy - 7)}" '
            'font-family="sans-serif" font-size="14" fill="#111111">'
            f"{escape(name)}</text>"
        )
    if heading:
        lines.append(
            f'  <text x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN - 12)}" '
            'font-family="sans-serif" font-size="15" fill="#333333">'
            f"{escape(heading)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_construction_svg(construction: MarkovConstruction,
                            depth: int = 1) -> str:
    """Figure of the construction's cells at the given refinement depth.

    Depth 0 draws the two base cells, depth 1 the canonical refinement, and
    larger depths the corresponding deeper refinements.
    """
    part = construction.base.partition
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        boxes: Sequence[EigenRect] = part.boxes
        labels: Sequence[str] = part.labels
    elif depth == 1:
        boxes = construction.refined.boxes
        labels = construction.refined.labels
    else:
        cells = refinement_cells_depth(part, depth)
        boxes = tuple(cell.rect for cell in cells)
        labels = tuple(
            ",".join(part.labels[s] for s in cell.symbols) + f"@{cell.offset}"
            for cell in cells
        )
    orig, acting = construction.original, construction.acting
    heading = (
        f"[[{orig.a},{orig.b}],[{orig.c},{orig.d}]] acting as "
        f"[[{acting.a},{acting.b}],[{acting.c},{acting.d}]] on the model "
        f"torus: {len(boxes)} cells at depth {depth}"
    )
    return render_cells_svg(part.frame, boxes, labels,
                            corners=construction.base.corners, heading=heading)
