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


def _stratum_point_specs(table: StratifiedCohortTable) -> tuple:
    _, strata = association_points(table)
    return tuple(PointSpec(p, style="solid_circle", label=label)
                 for p, label in zip(strata, table.labels))


def _stratum_edges(table: StratifiedCohortTable) -> tuple[tuple, tuple]:
    """(segments, hulls): a segment for two strata, hull edges otherwise."""
    _, strata = association_points(table)
    if len(strata) == 2:
        return ((strata[0], strata[1]),), ()
    return (), (standardized_hull(strata),)


def figure1(table: StratifiedCohortTable) -> str:
    crude, strata = association_points(table)
    points = [PointSpec(crude, style="open_circle", label="crude")]
    points.extend(_stratum_point_specs(table))
    for preset in PRESETS:
        std = standard_population(table, preset)
        p = standardized_point(table, std)
        points.append(PointSpec(p, style="open_circle",
                                label=preset.replace("_", " ")))
    segments, hulls = _stratum_edges(table)
    return render_diagram(DiagramSpec(
        title="Crude, stratum, and standardized points",
        points=tuple(points), segments=segments, hulls=hulls))


def figure2(table: StratifiedCohortTable) -> str:
    crude, strata = association_points(table)
    points = [PointSpec(crude, style="open_circle", label="crude")]
    points.extend(_stratum_point_specs(table))
    segments, hulls = _stratum_edges(table)
    return render_diagram(DiagramSpec(
        title="Confounding rectangle",
        points=tuple(points), segments=segments, hulls=hulls,
        rectangles=(confounding_rectangle(strata),)))


def figure3(table: StratifiedCohortTable) -> str:
    _, strata = association_points(table)
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
        panels.append(DiagramSpec(
            title=f"Stratum contours: {m.label}",
            points=_stratum_point_specs(table),
            contours=tuple(contours)))
    return render_grid(panels)


def figure4(table: StratifiedCohortTable) -> str:
    _, strata = association_points(table)
    return render_diagram(DiagramSpec(
        title="Standardized hull and confounding rectangle",
        points=_stratum_point_specs(table),
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
    segments = []
    if len(fitted) == 2:
        segments.append((fitted[0], fitted[1]))
    extreme = standardize(fitted, report.argmin_weights)
    if measure is not Measure.RISK_DIFFERENCE:
        points.append(PointSpec(
            extreme, style="open_circle",
            label=f"min {measure.short_name} {report.min_value:.3f}"))
    contours = (ContourSpec(
        measure, common, style="dashed",
        label=f"{measure.short_name} {common:.3f}"),)
    return render_diagram(DiagramSpec(
        title=title, points=tuple(points), segments=tuple(segments),
        contours=contours))


def figure6(table: StratifiedCohortTable) -> str:
    return _fitted_collapse_figure(
        table, Measure.RISK_DIFFERENCE,
        "Collapsibility of the risk difference")


def figure7(table: StratifiedCohortTable) -> str:
    return _fitted_collapse_figure(
        table, Measure.ODDS_RATIO, "Noncollapsibility of the odds ratio")


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
    builders = {1: figure1, 2: figure2, 3: figure3, 4: figure4,
                6: figure6, 7: figure7}
    return builders[number](table)
