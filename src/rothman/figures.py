"""The bundled figure gallery.

Each figure is a deterministic function of a stratified table (or of
nothing, for the pure contour gallery), built from the rendering
primitives. Figures 1-3, 6, and 7 default to the two-stratum Whickham
table; figure 4 defaults to the synthetic six-stratum table.
"""

from __future__ import annotations

import math

from . import glm
from .errors import ValidationError
from .geometry import (PRESETS, association_points, confounding_rectangle,
                       standard_population, standardized_hull,
                       standardized_point, standardize)
from .measures import Measure, collapse_analysis, measure_value
from .render import (ContourSpec, DiagramSpec, PointSpec, render_diagram,
                     render_grid)
from .tables import StratifiedCohortTable
from .whickham import six_strata_table, whickham_table

FIGURE_SLUGS = {
    1: "standardized_points",
    2: "confounding_rectangle",
    3: "effect_modification",
    4: "standardized_hull",
    5: "contour_gallery",
    6: "collapsible_risk_difference",
    7: "noncollapsible_odds_ratio",
}

# contour values drawn for a ratio measure (True) and for the difference
_GALLERY_VALUES = {
    True: (0.25, 0.5, 1.0, 2.0, 4.0),
    False: (-0.5, -0.25, 0.0, 0.25, 0.5),
}
# figures 6 and 7: the measure each fits and draws, and its title
_FITTED = {
    6: (Measure.RISK_DIFFERENCE, "Collapsibility of the risk difference"),
    7: (Measure.ODDS_RATIO, "Noncollapsibility of the odds ratio"),
}


def _read(table: StratifiedCohortTable) -> tuple:
    """(crude spec, stratum points, their specs): the table's association
    points, read once."""
    crude, strata = association_points(table)
    specs = tuple(PointSpec(p, style="solid_circle", label=label)
                  for p, label in zip(strata, table.labels))
    return PointSpec(crude, style="open_circle", label="crude"), strata, specs


def _joins(strata) -> tuple:
    """(segments, hulls): what joins the strata, a segment for two and
    their hull otherwise."""
    if len(strata) == 2:
        return ((strata[0], strata[1]),), ()
    return (), (standardized_hull(strata),)


def figure1(table: StratifiedCohortTable) -> str:
    crude, strata, specs = _read(table)
    segments, hulls = _joins(strata)
    standardized = tuple(PointSpec(
        standardized_point(table, standard_population(table, preset)),
        style="open_circle", label=preset.replace("_", " "))
        for preset in PRESETS)
    return render_diagram(DiagramSpec(
        title="Crude, stratum, and standardized points",
        points=(crude, *specs, *standardized), segments=segments,
        hulls=hulls))


def figure2(table: StratifiedCohortTable) -> str:
    crude, strata, specs = _read(table)
    segments, hulls = _joins(strata)
    return render_diagram(DiagramSpec(
        title="Confounding rectangle", points=(crude, *specs),
        segments=segments, hulls=hulls,
        rectangles=(confounding_rectangle(strata),)))


def figure3(table: StratifiedCohortTable) -> str:
    _, strata, specs = _read(table)
    panels = []
    for m in Measure:
        contours = []
        seen: list[float] = []
        for p in strata:
            v = measure_value(m, p)
            if math.isnan(v) or math.isinf(v):
                continue
            if any(abs(v - u) <= 1e-12 for u in seen):
                continue
            seen.append(v)
            contours.append(ContourSpec(m, v, label=f"{m.short_name} {v:.3f}"))
        panels.append(DiagramSpec(title=f"Stratum contours: {m.label}",
                                  points=specs, contours=tuple(contours)))
    return render_grid(panels)


def figure4(table: StratifiedCohortTable) -> str:
    _, strata, specs = _read(table)
    return render_diagram(DiagramSpec(
        title="Standardized hull and confounding rectangle", points=specs,
        hulls=(standardized_hull(strata),),
        rectangles=(confounding_rectangle(strata),)))


def figure5() -> str:
    panels = []
    for m in Measure:
        contours = tuple(ContourSpec(m, v)
                         for v in _GALLERY_VALUES[m.is_ratio])
        panels.append(DiagramSpec(title=f"Contours of the {m.label}",
                                  contours=contours))
    return render_grid(panels)


def _fitted_collapse_figure(table: StratifiedCohortTable, measure: Measure,
                            title: str) -> str:
    fit = glm.fit(glm.ModelSpec(link=measure.link,
                                terms="exposure_plus_stratum", table=table))
    fitted = glm.fitted_stratum_points(fit)
    report = collapse_analysis(measure, fitted)
    common = report.stratum_value
    points = [PointSpec(p, style="solid_circle", label=label)
              for p, label in zip(fitted, table.labels)]
    if measure is not Measure.RISK_DIFFERENCE:
        points.append(PointSpec(
            standardize(fitted, report.argmin_weights), style="open_circle",
            label=f"min {measure.short_name} {report.min_value:.3f}"))
    contours = (ContourSpec(
        measure, common, style="dashed",
        label=f"{measure.short_name} {common:.3f}"),)
    return render_diagram(DiagramSpec(
        title=title, points=tuple(points), contours=contours,
        segments=((fitted[0], fitted[1]),) if len(fitted) == 2 else ()))


def figure_filename(number: int) -> str:
    if number not in FIGURE_SLUGS:
        raise ValidationError(
            f"unknown figure {number!r}; expected 1..{len(FIGURE_SLUGS)}")
    return f"fig{number}_{FIGURE_SLUGS[number]}.svg"


def figure_svg(number: int, table: StratifiedCohortTable | None = None) -> str:
    """Render figure ``number``, using bundled fixtures when no table given."""
    figure_filename(number)  # rejects an unknown figure
    if number == 5:
        return figure5()
    if table is None:
        table = six_strata_table() if number == 4 else whickham_table()
    if number in _FITTED:
        return _fitted_collapse_figure(table, *_FITTED[number])
    return (figure1, figure2, figure3, figure4)[number - 1](table)
