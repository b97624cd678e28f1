"""Geometric analysis of cohort studies on the unit square of risks.

A cohort's observed risks place points on the square whose x-axis is the
risk in the unexposed and whose y-axis is the risk in the exposed. On
that square the package computes standardized points and hulls,
confounding rectangles, measure-of-association contours, binomial GLM
estimates with likelihood-ratio inference, collapsibility analyses,
potential-outcomes simulations, and SVG diagrams.
"""

from .diagnostics import AnalysisReport, MeasureAnalysis, analyze
from .errors import (GlmError, NestingError, NonConvergenceError,
                     ParseError, RothmanError, UndefinedMeasureError,
                     ValidationError, ZeroMarginError)
from .figures import figure_filename, figure_svg
from .geometry import (Containment, ConfoundingRectangle, RiskPoint,
                       StandardPopulation, StandardizedHull,
                       association_points, confounding_rectangle, contains,
                       standard_population, standardize, standardized_hull,
                       standardized_point, weights_for_point)
from .glm import (GlmFit, LrInterval, LrTest, ModelSpec, chi_square_cdf,
                  chi_square_quantile, chi_square_sf, exposure_estimate,
                  exposure_test, fit, fitted_stratum_points,
                  interaction_test, lr_test, profile_interval,
                  stratum_exposure_estimates)
from .measures import (CollapsibilityReport, EffectModification, Measure,
                       collapse_analysis, contour, effect_modification,
                       is_collapsible, measure_value)
from .render import (ContourSpec, DiagramSpec, HullSpec, PointSpec,
                     RectangleSpec, SegmentSpec, render_diagram, render_grid)
from .simulate import (PopulationSpec, PopulationTruth, parse_population_spec,
                       population_truth, sample_table)
from .tables import (CohortCell, StratifiedCohortTable, parse_table,
                     serialize_table)
from .whickham import (builtin_table, six_strata_table, whickham_crude_table,
                       whickham_table)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CohortCell",
    "CollapsibilityReport", "Containment", "ConfoundingRectangle",
    "ContourSpec", "DiagramSpec", "EffectModification", "GlmError", "GlmFit",
    "HullSpec", "LrInterval", "LrTest", "Measure", "MeasureAnalysis",
    "ModelSpec", "NestingError", "NonConvergenceError", "ParseError",
    "PointSpec", "PopulationSpec", "PopulationTruth", "RectangleSpec",
    "RiskPoint", "RothmanError", "SegmentSpec", "StandardPopulation",
    "StandardizedHull", "StratifiedCohortTable", "UndefinedMeasureError",
    "ValidationError", "ZeroMarginError", "analyze", "association_points",
    "builtin_table", "chi_square_cdf", "chi_square_quantile",
    "chi_square_sf", "collapse_analysis", "confounding_rectangle", "contains",
    "contour", "effect_modification", "exposure_estimate", "exposure_test",
    "figure_filename", "figure_svg", "fit", "fitted_stratum_points",
    "interaction_test", "is_collapsible", "lr_test", "measure_value",
    "parse_population_spec", "parse_table", "population_truth",
    "profile_interval", "render_diagram", "render_grid", "sample_table",
    "serialize_table", "six_strata_table", "standard_population",
    "standardize", "standardized_hull", "standardized_point",
    "stratum_exposure_estimates", "weights_for_point",
    "whickham_crude_table", "whickham_table",
]
