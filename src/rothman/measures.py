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
from typing import Sequence

import numpy as np

from .errors import UndefinedMeasureError, ValidationError
from .geometry import (RiskPoint, StandardPopulation, convex_hull_indices,
                       hull_edges, segment_weights)

COLLAPSE_TOL = 1e-9
CONTOUR_CLIP_TOL = 1e-12
SEGMENT_T_TOL = 1e-10


class Measure(Enum):
    """The four measures of association supported on the diagram."""

    ODDS_RATIO = "odds_ratio"
    RISK_RATIO = "risk_ratio"
    RISK_DIFFERENCE = "risk_difference"
    HAZARD_RATIO = "hazard_ratio"

    @property
    def short_name(self) -> str:
        return _NAMES[self][0]

    @property
    def link(self) -> str:
        """GLM link g: the measure is g(y) - g(x), exponentiated if a ratio."""
        return _NAMES[self][1]

    @property
    def label(self) -> str:
        return self.value.replace("_", " ")

    @property
    def is_ratio(self) -> bool:
        return self.link != "identity"

    @property
    def null_value(self) -> float:
        return 1.0 if self.is_ratio else 0.0


# (short name, GLM link) per measure
_NAMES = {
    Measure.ODDS_RATIO: ("OR", "logit"),
    Measure.RISK_RATIO: ("RR", "log"),
    Measure.RISK_DIFFERENCE: ("RD", "identity"),
    Measure.HAZARD_RATIO: ("HR", "cloglog"),
}


def _ratio(num: float, den: float) -> float:
    """num/den for nonnegative extended reals, nan at 0/0 and inf/inf."""
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


def contour(m: Measure, value: float, x: float | np.ndarray,
            ) -> float | None | np.ndarray:
    """The y in [0, 1] with measure value ``value`` above x, if it exists.

    ``x`` may be a float, giving a float or None, or an array of floats in
    [0, 1], giving an array of the same shape with NaN wherever no such y
    exists. A float is evaluated as a one-point array, so the two forms
    give the same values.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValidationError(f"x must be in [0, 1], got {x!r}")
    if xs.ndim == 0:
        y = contour(m, value, xs.reshape(1))[0]
        return None if math.isnan(y) else float(y)
    if math.isnan(value) or (value < 0.0 and m.is_ratio):
        return np.full_like(xs, math.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        if m is Measure.RISK_DIFFERENCE:
            y = xs + value
        elif m is Measure.RISK_RATIO:
            y = value * xs
        elif m is Measure.ODDS_RATIO:
            y = value * xs / (1.0 - xs + value * xs)
        else:
            # IEEE pow has 0**0 = 1 and 0**v = 0, the HR contour's ends at x = 1
            y = 1.0 - np.power(1.0 - xs, value)
            if math.isinf(value):
                y[xs == 0.0] = math.nan
        y[(y < -CONTOUR_CLIP_TOL) | (y > 1.0 + CONTOUR_CLIP_TOL)] = math.nan
        return np.clip(y, 0.0, 1.0)


def is_collapsible(m: Measure) -> bool:
    """True when every contour is straight, which by the paper's theorem
    holds exactly on the identity and log links: g(y) - g(x) = c is then
    y = x + c or y = e^c x, and on the logit and cloglog links it curves."""
    return m.link in ("identity", "log")


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
    if not tol >= 0:  # nan too
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
    x = min(max(a.x + t * (b.x - a.x), 0.0), 1.0)
    y = min(max(a.y + t * (b.y - a.y), 0.0), 1.0)
    return RiskPoint(x, y)


def _log_slope(m: Measure, p: RiskPoint, dx: float, dy: float) -> float:
    """d/dt log m at p moving along (dx, dy): dy*L'(y) - dx*L'(x) for the
    link L (logit for OR, cloglog for HR); nan at (0,0) and (1,1)."""

    def term(d: float, q: float) -> float:
        if d == 0.0:
            return 0.0
        if q == 0.0 or q == 1.0:
            return math.copysign(math.inf, d)
        if m is Measure.ODDS_RATIO:
            return d / (q * (1.0 - q))
        return -d / ((1.0 - q) * math.log1p(-q))

    return term(dy, p.y) - term(dx, p.x)


def _edge_candidate(m: Measure, a: RiskPoint, b: RiskPoint,
                    ) -> tuple[float, float] | None:
    """(t, value) of the one point of edge a->b that may beat both ends.

    OR and HR contours are strictly convex or concave, so log m has at
    most one stationary point on a segment, found by bisection on the sign
    of its derivative when that differs between the ends. Along an edge
    into the (0,0) or (1,1) corner, where m is undefined, log m is monotone
    and the candidate is the corner with m's limit: OR and HR tend to dy/dx
    at (0,0); at (1,1) OR tends to dx/dy and HR to 1, off the square's
    sides. The diagonal, a corner at each end, gives its midpoint.
    """
    at_corner = [p.coords in ((0.0, 0.0), (1.0, 1.0)) for p in (a, b)]
    if all(at_corner):
        return 0.5, measure_value(m, _lerp(a, b, 0.5))
    if any(at_corner):
        t, corner, other = (0.0, a, b) if at_corner[0] else (1.0, b, a)
        dx, dy = abs(other.x - corner.x), abs(other.y - corner.y)
        if corner.x == 0.0:
            return t, _ratio(dy, dx)
        if m is Measure.HAZARD_RATIO and dx > 0.0 and dy > 0.0:
            return t, 1.0
        return t, _ratio(dx, dy)
    dx, dy = b.x - a.x, b.y - a.y
    s0, s1 = (_log_slope(m, p, dx, dy) for p in (a, b))
    if not s0 * s1 < 0.0:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > SEGMENT_T_TOL:
        t = (lo + hi) / 2.0
        if (_log_slope(m, _lerp(a, b, t), dx, dy) > 0.0) == (s0 > 0.0):
            lo = t
        else:
            hi = t
    t = (lo + hi) / 2.0
    return t, measure_value(m, _lerp(a, b, t))


def _agree(m: Measure, u: float, v: float) -> bool:
    """u and v agree within COLLAPSE_TOL on the comparison scale."""
    return u == v or abs(comparison_value(m, u)
                         - comparison_value(m, v)) <= COLLAPSE_TOL


def _extreme(m: Measure, values: Sequence[float], vertices: Sequence[int],
             candidates: Sequence[tuple[float, StandardPopulation]],
             sign: float) -> tuple[float, StandardPopulation] | None:
    """(value, weights) where sign*value is least over the standardized
    domain, or None when the measure is undefined all over it.

    Vertex values that agree within COLLAPSE_TOL are ties that go to the
    first vertex, so the choice does not turn on rounding error in values
    that share a contour: for two strata the first in stratum order, for
    more the first counterclockwise from the hull vertex of least x (least
    y among those). A candidate inside an edge replaces the vertex only
    when it is strictly better.
    """
    best = None
    ends = [values[i] for i in vertices if not math.isnan(values[i])]
    if ends:
        least = min(ends, key=lambda v: sign * v)
        i = next(i for i in vertices if _agree(m, values[i], least))
        best = (values[i], segment_weights(len(values), i, i, 0.0))
    for v, weights in candidates:
        if not math.isnan(v) and (best is None or sign * v < sign * best[0]):
            best = (v, weights)
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

    # RD is linear and RR linear-fractional along a segment, so both are
    # monotone along every edge; OR and HR may be extreme at the one
    # stationary point inside an edge or at the limit into a corner, a
    # candidate that serves the min and the max.
    candidates = []
    if not is_collapsible(m):
        for i0, i1 in hull_edges(vertices):
            found = _edge_candidate(m, strata[i0], strata[i1])
            if found is not None:
                t, v = found
                candidates.append((v, segment_weights(k, i0, i1, t)))
    low = _extreme(m, values, vertices, candidates, 1.0)
    high = _extreme(m, values, vertices, candidates, -1.0)
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
