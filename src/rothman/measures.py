"""Measures of association as functions on the unit square of risks.

Each measure assigns an extended-real value to a point (x, y) where x is
the risk in the unexposed and y the risk in the exposed. Level sets of
these functions are the contour curves drawn on a Rothman diagram, and a
measure is collapsible exactly when all of its contours are straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import UndefinedMeasureError, ValidationError
from .geometry import (RiskPoint, StandardPopulation, convex_hull_indices,
                       standardized_hull)

COLLAPSE_TOL = 1e-9
CONTOUR_CLIP_TOL = 1e-12
GRID_POINTS = 256
SEGMENT_T_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class Measure(Enum):
    """The four measures of association supported on the diagram."""

    ODDS_RATIO = "odds_ratio"
    RISK_RATIO = "risk_ratio"
    RISK_DIFFERENCE = "risk_difference"
    HAZARD_RATIO = "hazard_ratio"

    @property
    def short_name(self) -> str:
        return _SHORT[self]

    @property
    def label(self) -> str:
        return self.value.replace("_", " ")

    @property
    def is_ratio(self) -> bool:
        return self is not Measure.RISK_DIFFERENCE

    @property
    def null_value(self) -> float:
        return 0.0 if self is Measure.RISK_DIFFERENCE else 1.0


_SHORT = {
    Measure.ODDS_RATIO: "OR",
    Measure.RISK_RATIO: "RR",
    Measure.RISK_DIFFERENCE: "RD",
    Measure.HAZARD_RATIO: "HR",
}


def _ratio(num: float, den: float) -> float:
    """num/den for nonnegative extended reals, nan at 0/0 and inf/inf."""
    if math.isnan(num) or math.isnan(den):
        return math.nan
    if math.isinf(num) and math.isinf(den):
        return math.nan
    if den == 0.0:
        return math.nan if num == 0.0 else math.inf
    if math.isinf(den):
        return 0.0
    return num / den


def _odds(p: float) -> float:
    return math.inf if p == 1.0 else p / (1.0 - p)


def _cumulative_hazard(p: float) -> float:
    return math.inf if p == 1.0 else -math.log1p(-p)


def measure_value(m: Measure, p: RiskPoint) -> float:
    """Value of the measure at a point; +-inf at limits, nan where undefined."""
    x, y = p.x, p.y
    if m is Measure.RISK_DIFFERENCE:
        return y - x
    if m is Measure.RISK_RATIO:
        return _ratio(y, x)
    if m is Measure.ODDS_RATIO:
        return _ratio(_odds(y), _odds(x))
    return _ratio(_cumulative_hazard(y), _cumulative_hazard(x))


def comparison_value(m: Measure, value: float) -> float:
    """Map a measure value to the scale used for equality comparisons.

    Ratio measures are compared on the log scale so tolerances are
    symmetric around the null; the risk difference is compared as is.
    """
    if not m.is_ratio:
        return value
    if math.isnan(value) or value < 0.0:
        return math.nan
    if value == 0.0:
        return -math.inf
    return math.log(value)


def contour(m: Measure, value: float, x: float) -> float | None:
    """The y in [0, 1] with measure value ``value`` above x, if it exists."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x!r}")
    if math.isnan(value):
        return None
    if m is Measure.RISK_DIFFERENCE:
        y = x + value
    elif m is Measure.RISK_RATIO:
        y = value * x
    elif m is Measure.ODDS_RATIO:
        if value < 0.0:
            return None
        denom = 1.0 - x + value * x
        if denom <= 0.0:
            return 1.0 if math.isinf(value) and x > 0.0 else None
        y = value * x / denom
    else:
        if value < 0.0 or (math.isinf(value) and x == 0.0):
            return None
        if x == 1.0:
            y = 0.0 if value == 0.0 else 1.0
        else:
            y = 1.0 - (1.0 - x) ** value
    if math.isnan(y) or y < -CONTOUR_CLIP_TOL or y > 1.0 + CONTOUR_CLIP_TOL:
        return None
    return min(max(y, 0.0), 1.0)


def is_collapsible(m: Measure) -> bool:
    """True when every contour of the measure is a straight line."""
    return m in (Measure.RISK_RATIO, Measure.RISK_DIFFERENCE)


@dataclass(frozen=True, slots=True)
class EffectModification:
    """Per-stratum measure values and whether they differ beyond tol."""

    measure: Measure
    present: bool
    stratum_values: tuple[float, ...]
    max_difference: float
    tol: float


def effect_modification(m: Measure, strata: Sequence[RiskPoint],
                        tol: float = 1e-6) -> EffectModification:
    """Classify the strata as lying on one contour of ``m`` or on several.

    The difference is taken on the comparison scale (log for ratio
    measures). An undefined stratum value is an error naming the stratum.
    """
    if len(strata) < 2:
        raise ValidationError("effect modification needs at least two strata")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    values = []
    for i, p in enumerate(strata):
        v = measure_value(m, p)
        if math.isnan(v):
            name = p.tag or f"index {i}"
            raise UndefinedMeasureError(
                f"{m.label} is undefined at stratum {name} ({p.x}, {p.y})")
        values.append(v)
    comps = [comparison_value(m, v) for v in values]
    spread = max(comps) - min(comps)
    if math.isnan(spread):
        spread = 0.0
    return EffectModification(measure=m, present=spread > tol,
                              stratum_values=tuple(values),
                              max_difference=spread, tol=tol)


@dataclass(frozen=True, slots=True)
class CollapsibilityReport:
    """Extremes of a measure over the standardized segment or hull.

    ``stratum_value`` is the shared contour value when all stratum points
    lie on one contour of the measure, nan otherwise. ``min_value`` and
    ``max_value`` may be infinite when the domain touches the square's
    boundary; the achieving standard populations are reported alongside.
    """

    measure: Measure
    stratum_values: tuple[float, ...]
    stratum_value: float
    min_value: float
    max_value: float
    argmin_weights: StandardPopulation
    argmax_weights: StandardPopulation
    collapsible_here: bool


def _lerp(a: RiskPoint, b: RiskPoint, t: float) -> RiskPoint:
    if t == 1.0:
        # a + (b - a) can miss b by an ulp, which a measure near the top
        # edge magnifies past the stratum value itself.
        return RiskPoint(b.x, b.y)
    x = min(max(a.x + t * (b.x - a.x), 0.0), 1.0)
    y = min(max(a.y + t * (b.y - a.y), 0.0), 1.0)
    return RiskPoint(x, y)


def _golden_section(f: Callable[[float], float], sign: float) -> float:
    """The t in [0, 1] where sign*f is least, skipping nan values.

    A grid search finds the best grid point; golden section refines it.
    """

    def g(t: float) -> float:
        v = f(t)
        return math.inf if math.isnan(v) else sign * v

    n = GRID_POINTS
    ts = [i / n for i in range(n + 1)]
    gs = [g(t) for t in ts]
    best = min(range(n + 1), key=gs.__getitem__)
    if math.isinf(gs[best]):
        return ts[best]
    a = ts[max(best - 1, 0)]
    b = ts[min(best + 1, n)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > SEGMENT_T_TOL:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    return (a + b) / 2.0


def _agree(m: Measure, u: float, v: float) -> bool:
    """u and v agree within COLLAPSE_TOL on the comparison scale."""
    return u == v or abs(comparison_value(m, u)
                         - comparison_value(m, v)) <= COLLAPSE_TOL


def _point_mass(k: int, i: int) -> StandardPopulation:
    weights = [0.0] * k
    weights[i] = 1.0
    return StandardPopulation(weights=tuple(weights), preset="custom")


def _edge_weights(k: int, i0: int, i1: int, t: float) -> StandardPopulation:
    weights = [0.0] * k
    weights[i0] += 1.0 - t
    weights[i1] += t
    return StandardPopulation(weights=tuple(weights), preset="custom")


def _extreme(m: Measure, strata: Sequence[RiskPoint],
             values: Sequence[float], vertices: Sequence[int],
             edges: Sequence[tuple[int, int]], sign: float,
             ) -> tuple[float, StandardPopulation] | None:
    """(value, weights) where sign*value is least over the standardized
    domain, or None when the measure is undefined all over it.

    RD is linear and RR linear-fractional along a segment, so both are
    monotone along every edge and their extremes sit at vertices. Vertex
    values that agree within COLLAPSE_TOL are ties that go to the first
    vertex, so the choice does not turn on rounding error in values that
    share a contour. For OR and HR, the point a 1-D search finds inside an
    edge replaces the vertex only when it is strictly better.
    """
    k = len(strata)
    best = None
    ends = [values[i] for i in vertices if not math.isnan(values[i])]
    if ends:
        least = min(ends, key=lambda v: sign * v)
        i = next(i for i in vertices if _agree(m, values[i], least))
        best = (values[i], _point_mass(k, i))
    if is_collapsible(m):
        return best
    for i0, i1 in edges:
        a, b = strata[i0], strata[i1]

        def f(t: float) -> float:
            return measure_value(m, _lerp(a, b, t))

        t = _golden_section(f, sign)
        v = f(t)
        if not math.isnan(v) and (best is None or sign * v < sign * best[0]):
            best = (v, _edge_weights(k, i0, i1, t))
    return best


def collapse_analysis(m: Measure, strata: Sequence[RiskPoint],
                      ) -> CollapsibilityReport:
    """Extremes of the measure over all standardized points of the strata.

    For two strata the domain is the standardized segment; for more it is
    the hull, and because every measure is monotone in x and y the
    extremes lie on the hull boundary, so each boundary edge is optimized
    in turn. Weights are reported in the original stratum order.
    """
    k = len(strata)
    if k < 2:
        raise ValidationError("collapsibility analysis needs at least two strata")
    values = tuple(measure_value(m, p) for p in strata)
    comps = [comparison_value(m, v) for v in values]
    finite = [c for c in comps if not math.isnan(c)]
    if finite and max(finite) - min(finite) <= COLLAPSE_TOL and len(finite) == k:
        stratum_value = values[0]
    else:
        stratum_value = math.nan

    if k == 2:
        vertices = [0, 1]
    else:
        vertices = convex_hull_indices([p.coords for p in strata])
    edges = list(zip(vertices, vertices[1:]))
    if len(vertices) > 2:
        edges.append((vertices[-1], vertices[0]))

    low = _extreme(m, strata, values, vertices, edges, 1.0)
    high = _extreme(m, strata, values, vertices, edges, -1.0)
    if low is None or high is None:
        raise UndefinedMeasureError(
            f"{m.label} is undefined over the whole standardized domain")

    spread = comparison_value(m, high[0]) - comparison_value(m, low[0])
    collapsible_here = (not math.isnan(spread)) and spread <= COLLAPSE_TOL
    return CollapsibilityReport(
        measure=m, stratum_values=values, stratum_value=stratum_value,
        min_value=low[0], max_value=high[0],
        argmin_weights=low[1], argmax_weights=high[1],
        collapsible_here=collapsible_here)
