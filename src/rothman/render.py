"""SVG rendering of Rothman diagrams.

Emits standalone SVG 1.1 documents with no graphics dependency: the unit
square with the null line, association points, standardized segments and
hulls, confounding rectangles, and measure contours sampled as
polylines. Output is deterministic, so identical specs give byte-identical
documents.

Document y-coordinates grow downward, so the transform inverts y: risk
increases upward as on the printed diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import ConfoundingRectangle, RiskPoint, StandardizedHull
from .measures import Measure, contour

POINT_STYLES = ("open_circle", "solid_circle")
LINE_STYLES = ("solid", "dashed")

CONTOUR_SAMPLES = 256
POINT_RADIUS = 4.0
NULL_LINE_COLOR = "#999999"
FRAME_COLOR = "#000000"
DASH_PATTERN = "6,4"
FONT = "font-family=\"sans-serif\""

# the x of every contour sample
_GRID = np.arange(CONTOUR_SAMPLES + 1) / CONTOUR_SAMPLES


class _Styled:
    """A spec whose ``style`` must be one of its class's ``STYLES``."""

    __slots__ = ()
    STYLES = LINE_STYLES

    def __post_init__(self) -> None:
        if self.style not in self.STYLES:
            raise ValidationError(
                f"unknown style {self.style!r}; expected one of {self.STYLES}")


@dataclass(frozen=True, slots=True)
class PointSpec(_Styled):
    STYLES = POINT_STYLES

    point: RiskPoint
    style: str = "solid_circle"
    label: str = ""


@dataclass(frozen=True, slots=True)
class SegmentSpec(_Styled):
    a: RiskPoint
    b: RiskPoint
    style: str = "solid"


@dataclass(frozen=True, slots=True)
class HullSpec(_Styled):
    hull: StandardizedHull
    style: str = "solid"


@dataclass(frozen=True, slots=True)
class RectangleSpec(_Styled):
    rectangle: ConfoundingRectangle
    style: str = "dashed"


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
    title: str = ""
    points: tuple[PointSpec, ...] = ()
    segments: tuple[SegmentSpec, ...] = ()
    hulls: tuple[HullSpec, ...] = ()
    rectangles: tuple[RectangleSpec, ...] = ()
    contours: tuple[ContourSpec, ...] = ()
    width: int = 600
    height: int = 600
    margin: int = 60
    x_label: str = "risk in unexposed"
    y_label: str = "risk in exposed"

    def __post_init__(self) -> None:
        if self.width <= 2 * self.margin or self.height <= 2 * self.margin:
            raise ValidationError("canvas too small for its margins")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _coords(pts: Iterable[tuple[float, float]]) -> str:
    """The ``points`` text of a polyline or polygon through ``pts``."""
    return " ".join("%.2f,%.2f" % pt for pt in pts)


@lru_cache(maxsize=8)
def _grid_text(x0: float, plot_w: float) -> tuple[str, ...]:
    """The "x," text of every contour sample on a canvas at x0, plot_w."""
    return tuple(["%.2f," % v for v in (x0 + _GRID * plot_w).tolist()])


class _Canvas:
    def __init__(self, spec: DiagramSpec) -> None:
        self.spec = spec
        self.x0 = float(spec.margin)
        self.y0 = float(spec.margin)
        self.plot_w = float(spec.width - 2 * spec.margin)
        self.plot_h = float(spec.height - 2 * spec.margin)

    def px(self, x: float, y: float) -> tuple[float, float]:
        return (self.x0 + x * self.plot_w,
                self.y0 + (1.0 - y) * self.plot_h)

    def line(self, a: tuple[float, float], b: tuple[float, float],
             stroke: str, width: float = 1.0, dashed: bool = False) -> str:
        dash = f' stroke-dasharray="{DASH_PATTERN}"' if dashed else ""
        return (f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                f'stroke="{stroke}" stroke-width="{width:g}"{dash}/>')

    def polyline(self, coords: str, stroke: str, width: float = 1.0,
                 dashed: bool = False, closed: bool = False) -> str:
        dash = f' stroke-dasharray="{DASH_PATTERN}"' if dashed else ""
        tag = "polygon" if closed else "polyline"
        return (f'<{tag} points="{coords}" fill="none" stroke="{stroke}" '
                f'stroke-width="{width:g}"{dash}/>')

    def text(self, pos: tuple[float, float], s: str, size: int = 12,
             anchor: str = "start", extra: str = "") -> str:
        s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (f'<text x="{_fmt(pos[0])}" y="{_fmt(pos[1])}" {FONT} '
                f'font-size="{size}" text-anchor="{anchor}"{extra}>'
                f'{s}</text>')


def _axes(c: _Canvas) -> list[str]:
    spec = c.spec
    parts = []
    parts.append(c.polyline(
        _coords([c.px(0, 0), c.px(1, 0), c.px(1, 1), c.px(0, 1)]),
        FRAME_COLOR, closed=True))
    parts.append(c.line(c.px(0, 0), c.px(1, 1), NULL_LINE_COLOR, width=1.0))
    for i in range(11):
        v = i / 10.0
        bx, by = c.px(v, 0.0)
        parts.append(c.line((bx, by), (bx, by + 5.0), FRAME_COLOR))
        lx, ly = c.px(0.0, v)
        parts.append(c.line((lx, ly), (lx - 5.0, ly), FRAME_COLOR))
        if i % 2 == 0:
            parts.append(c.text((bx, by + 18.0), f"{v:.1f}", anchor="middle"))
            parts.append(c.text((lx - 8.0, ly + 4.0), f"{v:.1f}", anchor="end"))
    xl_x, xl_y = c.px(0.5, 0.0)
    parts.append(c.text((xl_x, xl_y + 36.0), spec.x_label, size=14,
                        anchor="middle"))
    yl_x, yl_y = c.px(0.0, 0.5)
    parts.append(c.text(
        (yl_x - 36.0, yl_y), spec.y_label, size=14, anchor="middle",
        extra=f' transform="rotate(-90 {_fmt(yl_x - 36.0)} {_fmt(yl_y)})"'))
    if spec.title:
        parts.append(c.text((spec.width / 2.0, spec.margin / 2.0), spec.title,
                            size=15, anchor="middle"))
    return parts


def _contour_runs(measure: Measure, value: float,
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sampled contour (x, y) split into runs where it stays in the unit
    square, each of at least two points."""
    y = contour(measure, value, _GRID)
    # a run starts where NaN gives way to a number and stops where it resumes
    edges = np.flatnonzero(np.diff(np.isnan(y), prepend=True, append=True))
    return [(_GRID[a:b], y[a:b]) for a, b in zip(edges[0::2], edges[1::2])
            if b - a >= 2]


def _contour_elements(c: _Canvas, spec: ContourSpec) -> list[str]:
    parts = []
    anchor, most = None, 0
    grid_text = _grid_text(c.x0, c.plot_w)
    for x, y in _contour_runs(spec.measure, spec.value):
        px, py = c.px(x, y)
        first = round(x[0] * CONTOUR_SAMPLES)  # exact: x[0] is a grid value
        values = [None] * (2 * len(x))
        values[0::2] = grid_text[first:first + len(x)]
        values[1::2] = py.tolist()
        coords = " ".join(["%s%.2f"] * len(x)) % tuple(values)
        parts.append(c.polyline(coords, FRAME_COLOR, width=1.2,
                                dashed=spec.style == "dashed"))
        if len(x) > most:  # the label sits mid-way along the first longest run
            most, anchor = len(x), (px[len(x) // 2], py[len(x) // 2])
    label = spec.final_label
    if label and anchor is not None:
        parts.append(c.text((anchor[0] + 4.0, anchor[1] - 4.0), label,
                            size=11))
    return parts


def _body(spec: DiagramSpec) -> list[str]:
    c = _Canvas(spec)
    parts = [f'<rect x="0" y="0" width="{spec.width}" '
             f'height="{spec.height}" fill="white"/>']
    parts.extend(_axes(c))
    for contour_spec in spec.contours:
        parts.extend(_contour_elements(c, contour_spec))
    for rect_spec in spec.rectangles:
        r = rect_spec.rectangle
        pts = [c.px(x, y) for x, y in r.corners]
        parts.append(c.polyline(_coords(pts), FRAME_COLOR, width=1.2,
                                dashed=rect_spec.style == "dashed",
                                closed=True))
    for hull_spec in spec.hulls:
        verts = hull_spec.hull.vertices
        pts = [c.px(p.x, p.y) for p in verts]
        if len(pts) >= 3:
            parts.append(c.polyline(_coords(pts), FRAME_COLOR, width=1.5,
                                    dashed=hull_spec.style == "dashed",
                                    closed=True))
        elif len(pts) == 2:
            parts.append(c.line(pts[0], pts[1], FRAME_COLOR, width=1.5,
                                dashed=hull_spec.style == "dashed"))
    for seg in spec.segments:
        parts.append(c.line(c.px(seg.a.x, seg.a.y), c.px(seg.b.x, seg.b.y),
                            FRAME_COLOR, width=1.5,
                            dashed=seg.style == "dashed"))
    for point_spec in spec.points:
        px, py = c.px(point_spec.point.x, point_spec.point.y)
        fill = "white" if point_spec.style == "open_circle" else "black"
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                     f'r="{POINT_RADIUS:g}" fill="{fill}" stroke="black" '
                     f'stroke-width="1"/>')
        if point_spec.label:
            parts.append(c.text((px + 7.0, py - 7.0), point_spec.label,
                                size=11))
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
    return _document(spec.width, spec.height, _body(spec))


def render_grid(specs: Sequence[DiagramSpec], columns: int = 2) -> str:
    """Render diagrams as panels of one SVG document, row-major."""
    if not specs:
        raise ValidationError("need at least one panel")
    if columns < 1:
        raise ValidationError("columns must be positive")
    w, h = specs[0].width, specs[0].height
    if any(s.width != w or s.height != h for s in specs):
        raise ValidationError("all panels must share one canvas size")
    rows = (len(specs) + columns - 1) // columns
    parts = []
    for i, spec in enumerate(specs):
        tx = (i % columns) * w
        ty = (i // columns) * h
        parts.append(f'<g transform="translate({tx},{ty})">')
        parts.extend(_body(spec))
        parts.append("</g>")
    return _document(w * min(columns, len(specs)), h * rows, parts)
