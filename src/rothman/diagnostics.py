"""The full analysis pipeline on one stratified table.

Composes the geometric confounding assessment, per-measure GLM estimates
with likelihood-ratio inference, effect-modification classification, and
collapsibility analysis into a single deterministic report with a stable
JSON form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from . import glm
from .errors import GlmError, UndefinedMeasureError, ValidationError
from .geometry import (DEFAULT_CONTAINMENT_TOL, PRESETS, Containment,
                       ConfoundingRectangle, RiskPoint, StandardPopulation,
                       StandardizedHull, association_points,
                       confounding_rectangle, contains, standard_population,
                       standardized_hull, standardized_point)
from .measures import (CollapsibilityReport, EffectModification, Measure,
                       collapse_analysis, effect_modification, is_collapsible)
from .tables import StratifiedCohortTable

OFF_SEGMENT = "off_segment"
ON_SEGMENT = "on_segment"
INDETERMINATE = "indeterminate"

CONFOUNDING_NOTE = (
    "Classification compares observed proportions; sampling variation can "
    "move the crude point on or off the standardized segment or hull, so "
    "this equivalence with confounding is only approximate in practice.")


@dataclass(frozen=True, slots=True)
class MeasureAnalysis:
    """Crude, stratum-specific, and adjusted estimates for one measure.

    An entry with an error keeps the crude and common results computed
    before it."""

    measure: Measure
    link: str
    crude_estimate: float = math.nan
    crude_interval: glm.LrInterval | None = None
    crude_p_value: float = math.nan
    stratum_estimates: tuple[float, ...] = ()
    common_estimate: float = math.nan
    common_interval: glm.LrInterval | None = None
    interaction_p_value: float = math.nan
    modification: EffectModification | None = None
    error: str | None = None


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    """Everything `analyze` knows about one table.

    ``confounding_flag`` is off_segment when the crude point falls outside
    the standardized segment or hull; with more than two strata an
    interior crude point is reported as indeterminate because confounding
    can leave the crude point inside the hull.
    """

    table: StratifiedCohortTable
    crude_point: RiskPoint
    stratum_points: tuple[RiskPoint, ...]
    standardized_points: tuple[tuple[str, RiskPoint], ...]
    hull: StandardizedHull
    rectangle: ConfoundingRectangle
    crude_containment: Containment
    confounding_flag: str
    confounding_note: str
    measures: tuple[MeasureAnalysis, ...]
    collapsibility: tuple[tuple[Measure, CollapsibilityReport | None, str | None], ...]

    def to_json_dict(self) -> dict:
        return _report_json(self)

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


def _error_text(exc: GlmError | UndefinedMeasureError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _raise_error(result: object) -> None:
    if isinstance(result, GlmError):
        raise result


def _measure_fits(table: StratifiedCohortTable, terms: list[str],
                  ) -> list[dict[Measure, glm.GlmFit | GlmError]]:
    """The fits of every measure on ``table`` under each of ``terms``, or
    the errors that stopped them, all from one `glm.fits` call."""
    results = iter(glm.fits([
        glm.ModelSpec(link=m.link, terms=t, table=table)
        for t in terms for m in Measure]))
    return [{m: next(results) for m in Measure} for _ in terms]


def _measure_analysis(measure: Measure, table: StratifiedCohortTable,
                      crude_fit: glm.GlmFit | GlmError,
                      common_fit: glm.GlmFit | GlmError | None,
                      intervals: list[glm.LrInterval | GlmError],
                      stratum_points: tuple[RiskPoint, ...]) -> MeasureAnalysis:
    """The measure's entry from its crude and common fits (the latter None
    on a one-stratum table), the profile intervals of those that succeeded
    (none when the crude fit failed) and each stratum's two cells."""
    link = measure.link
    results: dict = {}  # each group added once all of it is in; kept on error
    try:
        _raise_error(crude_fit)
        crude_estimate = glm.exposure_estimate(crude_fit)
        crude_interval, *common_interval = intervals
        _raise_error(crude_interval)
        results.update(crude_estimate=crude_estimate,
                       crude_interval=crude_interval,
                       crude_p_value=glm.exposure_test(crude_fit).p_value)
        if table.k < 2:  # the crude fit is the common one
            results.update(common_estimate=crude_estimate,
                           common_interval=crude_interval)
        else:
            # A common fit that failed has no interval; its error stands in.
            common_interval, = common_interval or [common_fit]
            _raise_error(common_interval)
            results.update(
                common_estimate=glm.exposure_estimate(common_fit),
                common_interval=common_interval,
                interaction_p_value=glm.interaction_test(common_fit).p_value)
            results["modification"] = effect_modification(
                measure, stratum_points)
        return MeasureAnalysis(
            measure=measure, link=link, **results,
            stratum_estimates=glm._stratum_effects(table, link))
    except (GlmError, UndefinedMeasureError) as exc:
        return MeasureAnalysis(measure=measure, link=link, **results,
                               error=_error_text(exc))


def _collapsibility_entry(measure: Measure,
                          common_fit: glm.GlmFit | GlmError | None,
                          ) -> tuple[Measure, CollapsibilityReport | None, str | None]:
    """Collapsibility along the fitted no-interaction stratum points."""
    if common_fit is None:
        return measure, None, "needs at least two strata"
    if isinstance(common_fit, GlmError):
        return measure, None, _error_text(common_fit)
    try:
        return measure, collapse_analysis(
            measure, glm.fitted_stratum_points(common_fit)), None
    except UndefinedMeasureError as exc:
        return measure, None, _error_text(exc)


def collapsibility_report_json(table: StratifiedCohortTable) -> list[dict]:
    """The collapsibility section of the analysis report, on its own."""
    common_fits, = (_measure_fits(table, ["exposure_plus_stratum"])
                    if table.k >= 2 else [{}])
    return [_collapsibility_json(*_collapsibility_entry(m, common_fits.get(m)))
            for m in Measure]


def analyze(table: StratifiedCohortTable, *,
            level: float = glm.DEFAULT_LEVEL,
            containment_tol: float = DEFAULT_CONTAINMENT_TOL,
            custom_standards: Mapping[str, StandardPopulation] | None = None,
            ) -> AnalysisReport:
    """Run the whole pipeline on one table.

    Per-measure GLM failures are recorded in that measure's entry instead
    of aborting; geometry always succeeds on a valid table.
    """
    crude_point, stratum_points = association_points(table)
    hull = standardized_hull(stratum_points)
    rectangle = confounding_rectangle(stratum_points)
    containment = contains(hull, crude_point, tol=containment_tol)

    if containment is Containment.OUTSIDE:
        flag = OFF_SEGMENT
    elif table.k > 2:
        # An interior or boundary crude point is a standardized point, but
        # with more than two strata that does not rule confounding out.
        flag = INDETERMINATE
    else:
        flag = ON_SEGMENT

    standardized: list[tuple[str, RiskPoint]] = []
    for preset in PRESETS:
        std = standard_population(table, preset)
        standardized.append((preset, standardized_point(table, std)))
    for name, std in (custom_standards or {}).items():
        if std.k != table.k:
            raise ValidationError(
                f"custom standard {name!r} has {std.k} weights for "
                f"{table.k} strata")
        standardized.append((name, standardized_point(table, std)))

    # Each fit serves its estimate, interval and test, and the
    # no-interaction fit the collapsibility entry too; the exposure-only fit
    # pools the strata. A one-stratum table has no other model.
    terms = ["exposure_only"]
    if table.k >= 2:
        terms.append("exposure_plus_stratum")
    crude_fits, *adjusted = _measure_fits(table, terms)
    common_fits, = adjusted or [{}]
    # All these fits' endpoints are one solve, across links; a measure
    # whose crude fit failed has none, and its entry names that error.
    solved = {m: [f for f in (crude_fits[m], common_fits.get(m))
                  if isinstance(f, glm.GlmFit)]
              for m in Measure if isinstance(crude_fits[m], glm.GlmFit)}
    fits = [f for group in solved.values() for f in group]
    results = iter(glm.profile_intervals(fits, level=level))
    measures = tuple(
        _measure_analysis(m, table, crude_fits[m], common_fits.get(m),
                          [next(results) for _ in solved.get(m, [])],
                          stratum_points)
        for m in Measure)
    collapsibility = tuple(_collapsibility_entry(m, common_fits.get(m))
                           for m in Measure)

    return AnalysisReport(
        table=table, crude_point=crude_point, stratum_points=stratum_points,
        standardized_points=tuple(standardized), hull=hull,
        rectangle=rectangle, crude_containment=containment,
        confounding_flag=flag, confounding_note=CONFOUNDING_NOTE,
        measures=measures, collapsibility=collapsibility)


def _sig6(value: float):
    value = full_number(value)
    return value if isinstance(value, str) else float(f"{value:.6g}")


def full_number(value: float):
    """A float as JSON holds it: non-finite values as strings."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def json_text(doc: dict) -> str:
    """The JSON text of a report or CLI output: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def number_pair(d: dict, key: str, value: float) -> None:
    d[key] = _sig6(value)
    d[key + "_full"] = full_number(value)


def number_list_pair(d: dict, key: str, values) -> None:
    d[key] = [_sig6(v) for v in values]
    d[key + "_full"] = [full_number(v) for v in values]


def _numbers(out: dict, record, *fields: str) -> dict:
    """``out`` with the `number_pair` of each named field of ``record``."""
    for field in fields:
        number_pair(out, field, getattr(record, field))
    return out


def point_json(p: RiskPoint) -> dict:
    return _numbers({"tag": p.tag}, p, "x", "y")


def _interval_json(interval: glm.LrInterval) -> dict:
    return _numbers({"level": interval.level}, interval,
                    "estimate", "lower", "upper")


def _measure_json(entry: MeasureAnalysis) -> dict:
    out: dict = {
        "measure": entry.measure.value,
        "short": entry.measure.short_name,
        "link": entry.link,
        "error": entry.error,
    }
    if entry.crude_interval is not None:
        _numbers(out, entry, "crude_estimate", "crude_p_value")
        out["crude_interval"] = _interval_json(entry.crude_interval)
    if entry.common_interval is not None:
        _numbers(out, entry, "common_estimate", "interaction_p_value")
        out["common_interval"] = _interval_json(entry.common_interval)
    if entry.error is not None:
        return out
    number_list_pair(out, "stratum_estimates", entry.stratum_estimates)
    if entry.modification is not None:
        em = _numbers({"present": entry.modification.present,
                       "tol": full_number(entry.modification.tol)},
                      entry.modification, "max_difference")
        number_list_pair(em, "stratum_values", entry.modification.stratum_values)
        out["effect_modification"] = em
    else:
        out["effect_modification"] = None
    return out


def _collapsibility_json(measure: Measure, report: CollapsibilityReport | None,
                         error: str | None) -> dict:
    out: dict = {
        "measure": measure.value,
        "short": measure.short_name,
        "measure_is_collapsible": is_collapsible(measure),
        "error": error,
    }
    if report is None:
        return out
    out["collapsible_here"] = report.collapsible_here
    _numbers(out, report, "stratum_value", "min_value", "max_value")
    number_list_pair(out, "stratum_values", report.stratum_values)
    number_list_pair(out, "argmin_weights", report.argmin_weights.as_floats())
    number_list_pair(out, "argmax_weights", report.argmax_weights.as_floats())
    return out


def _report_json(report: AnalysisReport) -> dict:
    points = {
        "crude": point_json(report.crude_point),
        "strata": [
            {"label": label, **point_json(p)}
            for label, p in zip(report.table.labels, report.stratum_points)
        ],
        "standardized": {
            name: point_json(p) for name, p in report.standardized_points
        },
        "hull_vertices": [point_json(p) for p in report.hull.vertices],
        "rectangle": _numbers({}, report.rectangle,
                              "x_min", "x_max", "y_min", "y_max"),
    }
    return {
        "labels": {
            "exposure": report.table.exposure_label,
            "outcome": report.table.outcome_label,
            "covariate": report.table.covariate_label,
        },
        "points": points,
        "confounding": {
            "flag": report.confounding_flag,
            "crude_containment": report.crude_containment.value,
            "note": report.confounding_note,
        },
        "measures": [_measure_json(entry) for entry in report.measures],
        "collapsibility": [
            _collapsibility_json(m, rep, err)
            for m, rep, err in report.collapsibility
        ],
    }
