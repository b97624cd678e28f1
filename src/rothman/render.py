"""SVG rendering of Rothman diagrams.

Emits standalone SVG 1.1 documents with no graphics dependency: the unit
square with the null line, association points, standardized segments and
hulls, confounding rectangles, and measure contours sampled as
polylines. Output is deterministic, so identical specs give byte-identical
documents. Every panel is one fixed CANVAS-pixel square, so its frame
and the x text of the contour samples are built once, at import.

Document y-coordinates grow downward, so the transform inverts y: risk
increases upward as on the printed diagrams.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import ConfoundingRectangle, RiskPoint, StandardizedHull
from .measures import Measure, contour

CANVAS = 600  # pixels a side of every panel
MARGIN = 60
COLUMNS = 2  # panels a row of a grid
X_LABEL = "risk in unexposed"
Y_LABEL = "risk in exposed"
CONTOUR_SAMPLES = 256
POINT_RADIUS = 4.0
NULL_LINE_COLOR = "#999999"
FRAME_COLOR = "#000000"
DASH_PATTERN = "6,4"
FONT = "font-family=\"sans-serif\""

_PLOT = float(CANVAS - 2 * MARGIN)  # pixels a side of the unit square
# the x of every contour sample
_GRID = np.arange(CONTOUR_SAMPLES + 1) / CONTOUR_SAMPLES
# a character outside XML 1.0's Char production
_NOT_XML = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class _Styled:
    """A spec whose ``style`` must be one of its class's ``STYLES``."""

    __slots__ = ()
    STYLES = ("solid", "dashed")

    def __post_init__(self) -> None:
        if self.style not in self.STYLES:
            raise ValidationError(
                f"unknown style {self.style!r}; expected one of {self.STYLES}")


@dataclass(frozen=True, slots=True)
class PointSpec(_Styled):
    STYLES = ("open_circle", "solid_circle")

    point: RiskPoint
    style: str = "solid_circle"
    label: str = ""


@dataclass(frozen=True, slots=True)
class ContourSpec(_Styled):
    measure: Measure
    value: float
    style: str = "solid"
    label: str | None = None

    @property
    def final_label(self) -> str:
        if self.label is not None:
            return self.label
        return f"{self.measure.short_name} {self.value:g}"


@dataclass(frozen=True, slots=True)
class DiagramSpec:
    """One panel: rectangles are drawn dashed, segments and hulls solid."""

    title: str = ""
    points: tuple[PointSpec, ...] = ()
    segments: tuple[tuple[RiskPoint, RiskPoint], ...] = ()
    hulls: tuple[StandardizedHull, ...] = ()
    rectangles: tuple[ConfoundingRectangle, ...] = ()
    contours: tuple[ContourSpec, ...] = ()


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _coords(pts: Iterable[tuple[float, float]]) -> str:
    """The ``points`` text of a polyline or polygon through ``pts``."""
    return " ".join("%.2f,%.2f" % pt for pt in pts)


def _px(x, y):
    """The canvas position of risk point (x, y), for scalars or arrays."""
    return MARGIN + x * _PLOT, MARGIN + (1.0 - y) * _PLOT


def _line(a, b, stroke: str = FRAME_COLOR, width: float = 1.0) -> str:
    return (f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
            f'stroke="{stroke}" stroke-width="{width:g}"/>')


def _polyline(coords: str, width: float = 1.0, dashed: bool = False,
              closed: bool = False) -> str:
    dash = f' stroke-dasharray="{DASH_PATTERN}"' if dashed else ""
    tag = "polygon" if closed else "polyline"
    return (f'<{tag} points="{coords}" fill="none" stroke="{FRAME_COLOR}" '
            f'stroke-width="{width:g}"{dash}/>')


def _text(pos: tuple[float, float], s: str, size: int = 12,
          anchor: str = "start", extra: str = "") -> str:
    if _NOT_XML.search(s):
        raise ValidationError(
            f"text {s!r} holds a character that XML 1.0 does not allow")
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_fmt(pos[0])}" y="{_fmt(pos[1])}" {FONT} '
            f'font-size="{size}" text-anchor="{anchor}"{extra}>'
            f'{s}</text>')


def _frame() -> tuple[str, ...]:
    """The background, square, null line, ticks and axis labels."""
    parts = [f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" '
             f'fill="white"/>',
             _polyline(_coords([_px(0, 0), _px(1, 0), _px(1, 1), _px(0, 1)]),
                       closed=True),
             _line(_px(0, 0), _px(1, 1), NULL_LINE_COLOR)]
    for i in range(11):
        v = i / 10.0
        bx, by = _px(v, 0.0)
        parts.append(_line((bx, by), (bx, by + 5.0)))
        lx, ly = _px(0.0, v)
        parts.append(_line((lx, ly), (lx - 5.0, ly)))
        if i % 2 == 0:
            parts.append(_text((bx, by + 18.0), f"{v:.1f}", anchor="middle"))
            parts.append(_text((lx - 8.0, ly + 4.0), f"{v:.1f}", anchor="end"))
    xl_x, xl_y = _px(0.5, 0.0)
    parts.append(_text((xl_x, xl_y + 36.0), X_LABEL, size=14,
                       anchor="middle"))
    yl_x, yl_y = _px(0.0, 0.5)
    parts.append(_text(
        (yl_x - 36.0, yl_y), Y_LABEL, size=14, anchor="middle",
        extra=f' transform="rotate(-90 {_fmt(yl_x - 36.0)} {_fmt(yl_y)})"'))
    return tuple(parts)


_FRAME = _frame()
# the "x," text of every contour sample
_GRID_TEXT = tuple(["%.2f," % v for v in _px(_GRID, 0.0)[0].tolist()])


def _contour_run(measure: Measure, value: float,
                 ) -> tuple[slice, np.ndarray] | None:
    """The grid slice from the contour's first to its last sample in the
    unit square and its y there, or None below two samples: a contour is
    the graph of a monotone y(x), so it meets the square in one run."""
    y = contour(measure, value, _GRID)
    inside = np.flatnonzero(~np.isnan(y))
    if len(inside) < 2:
        return None
    run = slice(int(inside[0]), int(inside[-1]) + 1)
    return run, y[run]


def _contour_elements(spec: ContourSpec) -> list[str]:
    found = _contour_run(spec.measure, spec.value)
    if found is None:
        return []
    run, y = found
    px, py = _px(_GRID[run], y)
    values = [None] * (2 * len(y))
    values[0::2] = _GRID_TEXT[run]
    values[1::2] = py.tolist()
    coords = " ".join(["%s%.2f"] * len(y)) % tuple(values)
    parts = [_polyline(coords, width=1.2, dashed=spec.style == "dashed")]
    label = spec.final_label
    if label:  # mid-way along the run
        mid = len(y) // 2
        parts.append(_text((px[mid] + 4.0, py[mid] - 4.0), label, size=11))
    return parts


def _body(spec: DiagramSpec) -> list[str]:
    parts = list(_FRAME)
    if spec.title:
        parts.append(_text((CANVAS / 2.0, MARGIN / 2.0), spec.title,
                           size=15, anchor="middle"))
    for contour_spec in spec.contours:
        parts.extend(_contour_elements(contour_spec))
    for rect in spec.rectangles:
        parts.append(_polyline(_coords(_px(x, y) for x, y in rect.corners),
                               width=1.2, dashed=True, closed=True))
    for hull in spec.hulls:
        pts = [_px(p.x, p.y) for p in hull.vertices]
        if len(pts) >= 3:
            parts.append(_polyline(_coords(pts), width=1.5, closed=True))
        elif len(pts) == 2:
            parts.append(_line(pts[0], pts[1], width=1.5))
    for a, b in spec.segments:
        parts.append(_line(_px(a.x, a.y), _px(b.x, b.y), width=1.5))
    for p in spec.points:
        px, py = _px(p.point.x, p.point.y)
        fill = "white" if p.style == "open_circle" else "black"
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                     f'r="{POINT_RADIUS:g}" fill="{fill}" stroke="black" '
                     f'stroke-width="1"/>')
        if p.label:
            parts.append(_text((px + 7.0, py - 7.0), p.label, size=11))
    return parts


def _document(width: int, height: int, parts: Sequence[str]) -> str:
    """An SVG document of the given size holding ``parts``, one a line."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        + "\n".join(parts) + "\n</svg>\n")


def render_diagram(spec: DiagramSpec) -> str:
    """Render one diagram as a standalone SVG document."""
    return _document(CANVAS, CANVAS, _body(spec))


def render_grid(specs: Sequence[DiagramSpec]) -> str:
    """Render diagrams as panels of one SVG document, COLUMNS a row."""
    if not specs:
        raise ValidationError("need at least one panel")
    parts = []
    for i, spec in enumerate(specs):
        parts.append(f'<g transform="translate({i % COLUMNS * CANVAS},'
                     f'{i // COLUMNS * CANVAS})">')
        parts.extend(_body(spec))
        parts.append("</g>")
    rows = (len(specs) + COLUMNS - 1) // COLUMNS
    return _document(CANVAS * min(COLUMNS, len(specs)), CANVAS * rows, parts)
