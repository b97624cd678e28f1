"""The public API: the names `import rothman` exports.

A public name is removed only together with the README and the tests that
use it, so the frozen list below changes only in such a change.
"""

import rothman

PUBLIC_NAMES = [
    "AnalysisReport", "CohortCell", "CollapsibilityReport",
    "ConfoundingRectangle", "Containment", "ContourSpec", "DiagramSpec",
    "EffectModification", "GlmError", "GlmFit", "HullSpec", "LrInterval",
    "LrTest", "Measure", "MeasureAnalysis", "ModelSpec", "NestingError",
    "NonConvergenceError", "ParseError", "PointSpec", "PopulationSpec",
    "PopulationTruth", "RectangleSpec", "RiskPoint", "RothmanError",
    "SegmentSpec", "StandardPopulation", "StandardizedHull",
    "StratifiedCohortTable", "UndefinedMeasureError", "ValidationError",
    "ZeroMarginError", "analyze", "association_points", "builtin_table",
    "chi_square_cdf", "chi_square_quantile", "chi_square_sf",
    "collapse_analysis", "confounding_rectangle", "contains", "contour",
    "effect_modification", "exposure_estimate", "exposure_test",
    "figure_filename", "figure_svg", "fit", "fitted_stratum_points",
    "interaction_test", "is_collapsible", "measure_value",
    "parse_population_spec", "parse_table", "population_truth",
    "profile_interval", "render_diagram", "render_grid", "sample_table",
    "serialize_table", "six_strata_table", "standard_population",
    "standardize", "standardized_hull", "standardized_point",
    "stratum_exposure_estimates", "weights_for_point",
    "whickham_crude_table", "whickham_table",
]


def test_public_names_are_frozen():
    assert sorted(rothman.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in rothman.__all__:
        assert getattr(rothman, name) is not None, name
