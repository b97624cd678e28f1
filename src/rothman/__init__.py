"""Geometric analysis of cohort studies on the unit square of risks.

A cohort's observed risks place points on the square whose x-axis is the
risk in the unexposed and whose y-axis is the risk in the exposed. On
that square the package computes standardized points and hulls,
confounding rectangles, measure-of-association contours, binomial GLM
estimates with likelihood-ratio inference, collapsibility analyses,
potential-outcomes simulations, and SVG diagrams.

`import rothman` loads no submodule: a public name loads its module on
first use (PEP 562). `tables`, `geometry` and `whickham` need no numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, each written once
_MODULES = {
    "diagnostics": ("AnalysisReport", "MeasureAnalysis", "analyze"),
    "errors": ("GlmError", "NestingError", "NonConvergenceError",
               "ParseError", "RothmanError", "UndefinedMeasureError",
               "ValidationError", "ZeroMarginError"),
    "figures": ("figure_filename", "figure_svg"),
    "geometry": ("Containment", "ConfoundingRectangle", "RiskPoint",
                 "StandardPopulation", "StandardizedHull",
                 "association_points", "confounding_rectangle", "contains",
                 "standard_population", "standardize", "standardized_hull",
                 "standardized_point", "weights_for_point"),
    "glm": ("GlmFit", "LrInterval", "LrTest", "ModelSpec", "chi_square_cdf",
            "chi_square_quantile", "chi_square_sf", "exposure_estimate",
            "exposure_test", "fit", "fitted_stratum_points",
            "interaction_test", "profile_interval",
            "stratum_exposure_estimates"),
    "measures": ("CollapsibilityReport", "EffectModification", "Measure",
                 "collapse_analysis", "contour", "effect_modification",
                 "is_collapsible", "measure_value"),
    "render": ("ContourSpec", "DiagramSpec", "PointSpec", "render_diagram",
               "render_grid"),
    "simulate": ("PopulationSpec", "PopulationTruth", "parse_population_spec",
                 "population_truth", "sample_table"),
    "tables": ("CohortCell", "StratifiedCohortTable", "parse_table",
               "serialize_table"),
    "whickham": ("builtin_table", "six_strata_table", "whickham_crude_table",
                 "whickham_table"),
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    # Never cached here, so a patch of the module's binding shows through.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
