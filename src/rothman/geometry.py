"""Planar geometry of the unit square of risks.

The x-axis carries the risk of the outcome in the unexposed and the y-axis
the risk in the exposed, so every population corresponds to a point in
[0, 1]^2 and standardization is a convex combination of stratum points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .tables import StratifiedCohortTable

PRESETS = ("study_sample", "exposed", "unexposed")

WEIGHT_SUM_TOL = 1e-12
DEFAULT_CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class RiskPoint:
    """A point (risk in unexposed, risk in exposed) with a provenance tag.

    Tags follow the convention ``crude``, ``stratum:<label>``,
    ``standardized:<preset>``, ``causal:<label>``.
    """

    x: float
    y: float
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (0.0 <= self.x <= 1.0) or not (0.0 <= self.y <= 1.0):
            raise ValidationError(
                f"risk point ({self.x}, {self.y}) outside the unit square")

    @property
    def coords(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class StandardPopulation:
    """A stratum distribution: nonnegative weights summing to one.

    Weights may be exact ``Fraction`` values (preset populations derived
    from a table are) or floats; arithmetic preserves whatever is given.
    """

    weights: tuple
    preset: str = "custom"

    def __post_init__(self) -> None:
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise ValidationError("weights must be non-empty")
        if not all(0 <= w < math.inf for w in ws):
            raise ValidationError(
                f"weights must be finite and nonnegative: {ws}")
        if abs(float(sum(ws)) - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}: sum={float(sum(ws))!r}")

    @property
    def k(self) -> int:
        return len(self.weights)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


class Containment(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True, slots=True)
class StandardizedHull:
    """Convex hull of the stratum points, vertices in counterclockwise order.

    Collinear boundary points are not retained as vertices.
    ``vertex_source_indices[i]`` is the index into ``source_points`` of
    ``vertices[i]``.
    """

    vertices: tuple[RiskPoint, ...]
    source_points: tuple[RiskPoint, ...]
    vertex_source_indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ConfoundingRectangle:
    """Smallest axis-parallel rectangle containing the stratum points."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValidationError("degenerate rectangle with inverted bounds")

    @property
    def corners(self) -> tuple[tuple[float, float], ...]:
        return ((self.x_min, self.y_min), (self.x_max, self.y_min),
                (self.x_max, self.y_max), (self.x_min, self.y_max))

    def contains_point(self, p: RiskPoint, tol: float = 0.0) -> bool:
        return (self.x_min - tol <= p.x <= self.x_max + tol
                and self.y_min - tol <= p.y <= self.y_max + tol)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_indices(coords: Sequence[tuple]) -> list[int]:
    """Monotone-chain hull over any exact-comparable coordinates.

    Returns indices into ``coords`` in counterclockwise order, dropping
    collinear boundary points and duplicates. No epsilon is used:
    construction must be exact on rational inputs, so ties are decided by
    the raw comparisons.
    """
    order = sorted(range(len(coords)), key=lambda i: coords[i])
    deduped: list[int] = []
    for i in order:
        if not deduped or coords[i] != coords[deduped[-1]]:
            deduped.append(i)
    if len(deduped) <= 2:
        return deduped

    def chain(idx: list[int]) -> list[int]:
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and _cross(
                    coords[out[-2]], coords[out[-1]], coords[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(deduped)
    upper = chain(deduped[::-1])
    return lower[:-1] + upper[:-1]


def association_points(table: StratifiedCohortTable,
                       ) -> tuple[RiskPoint, tuple[RiskPoint, ...]]:
    """Crude point from the collapsed counts plus one point per stratum."""
    crude_x, crude_y = table.collapse().risks()
    crude = RiskPoint(crude_x, crude_y, tag="crude")
    strata = []
    for label, cell in table.strata:
        if cell.has_zero_margin:
            raise ValidationError(
                f"stratum {label!r} has a zero-total margin; "
                "its association point is undefined")
        x, y = cell.risks()
        strata.append(RiskPoint(x, y, tag=f"stratum:{label}"))
    return crude, tuple(strata)


def standard_population(table: StratifiedCohortTable, preset: str,
                        ) -> StandardPopulation:
    """Preset stratum distributions as exact rational weights.

    study_sample: stratum totals over the grand total; exposed/unexposed:
    the stratum distribution within that exposure group.
    """
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    field = {"study_sample": "total", "exposed": "exposed_total",
             "unexposed": "unexposed_total"}[preset]
    counts = [getattr(cell, field) for cell in table.cells]
    denom = sum(counts)
    if denom == 0:
        raise ValidationError(
            f"preset {preset!r} has zero individuals overall; weights undefined")
    return StandardPopulation(
        weights=tuple(Fraction(c, denom) for c in counts), preset=preset)


def standardize(strata: Sequence[RiskPoint], std: StandardPopulation,
                ) -> RiskPoint:
    """Componentwise convex combination of the stratum points."""
    if len(strata) != std.k:
        raise ValidationError(
            f"{std.k} weights for {len(strata)} stratum points")
    x = math.fsum(float(w) * p.x for w, p in zip(std.weights, strata))
    y = math.fsum(float(w) * p.y for w, p in zip(std.weights, strata))
    x = min(max(x, 0.0), 1.0)
    y = min(max(y, 0.0), 1.0)
    return RiskPoint(x, y, tag=f"standardized:{std.preset}")


def standardized_point(table: StratifiedCohortTable, std: StandardPopulation,
                       ) -> RiskPoint:
    """Standardized association point computed in exact rational arithmetic.

    With a preset standard population this makes the identities exact in
    the emitted doubles: the exposed-standard y-coordinate equals the crude
    y-coordinate bit for bit, and likewise unexposed-standard x.
    """
    if table.k != std.k:
        raise ValidationError(f"{std.k} weights for {table.k} strata")
    x = Fraction(0)
    y = Fraction(0)
    for w, cell in zip(std.weights, table.cells):
        rx, ry = cell.risks_exact()
        wf = w if isinstance(w, Fraction) else Fraction(w)
        x += wf * rx
        y += wf * ry
    return RiskPoint(float(x), float(y), tag=f"standardized:{std.preset}")


def standardized_hull(strata: Sequence[RiskPoint]) -> StandardizedHull:
    """Convex hull of the stratum points (a segment for two strata)."""
    if len(strata) < 1:
        raise ValidationError("need at least one stratum point")
    coords = [p.coords for p in strata]
    idx = convex_hull_indices(coords)
    return StandardizedHull(
        vertices=tuple(strata[i] for i in idx),
        source_points=tuple(strata),
        vertex_source_indices=tuple(idx),
    )


def confounding_rectangle(strata: Sequence[RiskPoint]) -> ConfoundingRectangle:
    """[min x, max x] x [min y, max y] over the stratum points."""
    if len(strata) < 1:
        raise ValidationError("need at least one stratum point")
    xs = [p.x for p in strata]
    ys = [p.y for p in strata]
    return ConfoundingRectangle(min(xs), max(xs), min(ys), max(ys))


def _project(p: tuple[float, float], a: tuple[float, float],
             b: tuple[float, float]) -> tuple[float, float]:
    """(t, distance) of the point a + t(b - a) of segment a->b nearest p."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    len2 = dx * dx + dy * dy
    t = 0.0
    if len2 != 0.0:
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / len2
        t = min(max(t, 0.0), 1.0)
    return t, math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))


def segment_weights(k: int, i0: int, i1: int, t: float) -> StandardPopulation:
    """1 - t on stratum i0 and t on i1 of k; (i, i, 0.0) is a point mass."""
    weights = [0.0] * k
    weights[i0] += 1.0 - t
    weights[i1] += t
    return StandardPopulation(weights=tuple(weights), preset="custom")


def hull_edges(vertices: Sequence) -> list[tuple]:
    """The (start, end) edges of a hull given its vertices in order.

    A polygon closes back to its first vertex; a segment is its one edge
    and a single point the zero-length edge from itself to itself.
    """
    n = len(vertices)
    return list(zip(vertices, vertices[1:] + vertices[:1]))[:n if n > 2 else 1]


def _locate(hull: StandardizedHull, p: RiskPoint, tol: float,
            ) -> tuple[Containment, float, tuple[int, int, float]]:
    """Place ``p`` against the hull in one scan of its edges.

    Returns the containment verdict, the distance to the boundary and the
    nearest boundary point as (i0, i1, t): the point a + t(b - a) of the
    first nearest edge from source point i0 = a to source point i1 = b.
    The least cross product of ``p`` against the counterclockwise edges is
    positive strictly inside the polygon, zero or less on or outside it.
    """
    if not tol >= 0:  # nan too
        raise ValidationError("tolerance must be nonnegative")
    pts = hull.source_points
    dist, side = math.inf, math.inf
    for i0, i1 in hull_edges(hull.vertex_source_indices):
        a, b = pts[i0].coords, pts[i1].coords
        t, d = _project(p.coords, a, b)
        if d < dist:
            dist, nearest = d, (i0, i1, t)
        side = min(side, _cross(a, b, p.coords))
    if dist <= tol:
        return Containment.BOUNDARY, dist, nearest
    if len(hull.vertices) < 3 or side <= 0:
        return Containment.OUTSIDE, dist, nearest
    return Containment.INSIDE, dist, nearest


def boundary_distance(hull: StandardizedHull, p: RiskPoint) -> float:
    """Euclidean distance from ``p`` to the hull boundary (vertices included)."""
    return _locate(hull, p, 0.0)[1]


def contains(hull: StandardizedHull, p: RiskPoint,
             tol: float = DEFAULT_CONTAINMENT_TOL) -> Containment:
    """Classify a point against the hull.

    ``boundary`` means within perpendicular distance ``tol`` of the hull
    boundary; otherwise ``inside``/``outside`` by the orientation of the
    counterclockwise polygon. Degenerate hulls (point, segment) have no
    interior, so everything is boundary or outside.
    """
    return _locate(hull, p, tol)[0]


def weights_for_point(strata: Sequence[RiskPoint], target: RiskPoint,
                      tol: float = DEFAULT_CONTAINMENT_TOL,
                      ) -> StandardPopulation | None:
    """A standard population whose standardized point is ``target``.

    Returns None when the target lies outside the standardized hull. A
    target on the boundary gets the two ends of its nearest hull edge,
    weighted by where it projects onto that edge; for two strata that is
    the unique segment parameter. An interior target gets the fan triangle
    from hull vertex 0 that holds it: of the triangles whose barycentric
    coordinates are finite, the first whose least coordinate is greatest,
    that coordinate, below 0 only by rounding, clamped to 0. Interior
    points of a hull with more than three vertices have infinitely many
    representations, so this is one deterministic choice among them.
    """
    hull = standardized_hull(strata)
    verdict, _, nearest = _locate(hull, target, tol)
    if verdict is Containment.OUTSIDE:
        return None
    if verdict is Containment.BOUNDARY:
        return segment_weights(len(strata), *nearest)
    verts = hull.vertex_source_indices
    v0, best = strata[verts[0]].coords, None
    for j in range(1, len(verts) - 1):
        v1 = strata[verts[j]].coords
        v2 = strata[verts[j + 1]].coords
        det = _cross(v0, v1, v2)
        if det == 0.0:
            continue
        rx, ry = target.x - v0[0], target.y - v0[1]
        b = (rx * (v2[1] - v0[1]) - ry * (v2[0] - v0[0])) / det
        c = (ry * (v1[0] - v0[0]) - rx * (v1[1] - v0[1])) / det
        bary = (1.0 - b - c, b, c)
        if not all(map(math.isfinite, bary)):  # det too small to divide by
            continue
        if best is None or min(bary) > min(best[1]):
            best = (j, bary)
    j, bary = best
    bary = [max(v, 0.0) for v in bary]
    s = sum(bary)
    weights = [0.0] * len(strata)
    for w, vi in zip(bary, (verts[0], verts[j], verts[j + 1])):
        weights[vi] += w / s
    return StandardPopulation(weights=tuple(weights), preset="custom")
