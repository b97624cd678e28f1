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


# (short name, GLM link) per measure
_NAMES = {
    Measure.ODDS_RATIO: ("OR", "logit"),
    Measure.RISK_RATIO: ("RR", "log"),
    Measure.RISK_DIFFERENCE: ("RD", "identity"),
    Measure.HAZARD_RATIO: ("HR", "cloglog"),
}


def _ratio(num: float, den: float) -> float:
    """num/den for nonnegative extended reals, nan at 0/0 and inf/inf."""
    try:
        return num / den
    except ZeroDivisionError:
        return math.nan if num == 0.0 else math.inf


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
        return _ratio(_ratio(y, 1.0 - y), _ratio(x, 1.0 - x))
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


def _log_slope(m: Measure, x: float, y: float, dx: float, dy: float) -> tuple:
    """d/dt log m at (x, y) along (dx, dy), dy*L'(y) - dx*L'(x) for the link
    L (logit for OR, cloglog for HR), nan at (0,0) and (1,1), and its
    t-derivative dy^2*L''(y) - dx^2*L''(x), nan on the square's sides.
    Where both of the slope's terms overflow, near a subnormal coordinate,
    the slope is taken 2**64 times smaller, so its sign still shows."""

    def term(d: float, q: float) -> tuple[float, float, float]:
        if d == 0.0:
            return 0.0, 0.0, 0.0
        if q == 0.0 or q == 1.0:
            return math.copysign(math.inf, d), math.nan, 0.0
        if m is Measure.ODDS_RATIO:  # L' = 1/den and L'' = curve*L'^2
            den, curve = q * (1.0 - q), 2.0 * q - 1.0
        else:
            hazard = _cumulative_hazard(q)
            den, curve = (1.0 - q) * hazard, hazard - 1.0
        return d / den, d / den * d / den * curve, den

    (sy, cy, ey), (sx, cx, ex) = term(dy, y), term(dx, x)
    if math.isinf(sy) and math.isinf(sx) and ey and ex:
        return dy / math.ldexp(ey, 64) - dx / math.ldexp(ex, 64), cy - cx
    return sy - sx, cy - cx


def _edge_candidate(m: Measure, a: RiskPoint, b: RiskPoint,
                    ) -> tuple[float, float] | None:
    """(t, value) of the one point of edge a->b that may beat both ends.

    OR and HR contours are strictly convex or concave, so log m has at
    most one stationary point on a segment. Where its derivative's sign
    differs between the ends, Newton steps in that bracket find it (a step
    out of it bisects) and stop at a zero slope or a fixed t. Along an edge
    into the (0,0) or (1,1) corner, where m is undefined, log m is monotone
    and the candidate is the corner with m's limit: OR and HR tend to dy/dx
    at (0,0); at (1,1) OR tends to dx/dy and HR to 1, off the square's
    sides. The diagonal, a corner at each end, gives its midpoint. The
    search runs on the edge's coordinates, clamped to the square.
    """
    (x0, y0), (x1, y1) = a.coords, b.coords
    dx, dy = x1 - x0, y1 - y0

    def at(t: float) -> tuple[float, float]:
        return min(max(x0 + t * dx, 0.0), 1.0), min(max(y0 + t * dy, 0.0), 1.0)

    at_corner = [p in ((0.0, 0.0), (1.0, 1.0)) for p in (a.coords, b.coords)]
    if all(at_corner):
        t = 0.5
    elif any(at_corner):
        t, corner_x = (0.0, x0) if at_corner[0] else (1.0, x1)
        if corner_x == 0.0:
            return t, _ratio(abs(dy), abs(dx))
        if m is Measure.HAZARD_RATIO and dx != 0.0 and dy != 0.0:
            return t, 1.0
        return t, _ratio(abs(dx), abs(dy))
    else:
        s = s0 = _log_slope(m, x0, y0, dx, dy)[0]
        if not s0 * _log_slope(m, x1, y1, dx, dy)[0] < 0.0:
            return None
        lo, hi, t, step = 0.0, 1.0, math.nan, 0.5
        while s and step != t:
            t = step
            s, ds = _log_slope(m, *at(t), dx, dy)
            lo, hi = (t, hi) if (s > 0.0) == (s0 > 0.0) else (lo, t)
            step = t - s / ds if ds and lo < t - s / ds < hi else (lo + hi) / 2
    return t, measure_value(m, RiskPoint(*at(t)))


def _agree(m: Measure, u: float, v: float) -> bool:
    """u and v agree within COLLAPSE_TOL on the comparison scale."""
    return u == v or abs(comparison_value(m, u)
                         - comparison_value(m, v)) <= COLLAPSE_TOL


def _extreme(m: Measure, values: Sequence[float], vertices: Sequence[int],
             candidates: Sequence[tuple[float, tuple[int, int, float]]],
             sign: float) -> tuple[float, tuple[int, int, float]] | None:
    """(value, `segment_weights` arguments) where sign*value is least over
    the standardized domain, or None when the measure is undefined all over it.

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
        best = (values[i], (i, i, 0.0))
    for v, where in candidates:
        if not math.isnan(v) and (best is None or sign * v < sign * best[0]):
            best = (v, where)
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
    shared = (not any(map(math.isnan, values))
              and _agree(m, min(values), max(values)))
    stratum_value = values[0] if shared else math.nan

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
                candidates.append((v, (i0, i1, t)))
    low = _extreme(m, values, vertices, candidates, 1.0)
    high = _extreme(m, values, vertices, candidates, -1.0)
    if low is None or high is None:
        raise UndefinedMeasureError(
            f"{m.label} is undefined over the whole standardized domain")

    return CollapsibilityReport(
        measure=m, stratum_values=values, stratum_value=stratum_value,
        min_value=low[0], max_value=high[0],
        argmin_weights=segment_weights(k, *low[1]),
        argmax_weights=segment_weights(k, *high[1]),
        collapsible_here=_agree(m, low[0], high[0]))
