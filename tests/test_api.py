"""The public API: the names `import rothman` exports, and the names the
benchmark's tracer wraps.

A public name is removed only together with the README and the tests that
use it, so the frozen list below changes only in such a change.
"""

import ast
import importlib
from pathlib import Path

import rothman

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

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


def _traced_names() -> list[str]:
    """The keys of ``SPANNED`` and the entries of ``COUNTED`` in the
    benchmark's tracer, read from its source without importing it."""
    names = []
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.target if isinstance(node, ast.AnnAssign) \
                else node.targets[0]
            if getattr(target, "id", None) == "SPANNED":
                names += [ast.literal_eval(key) for key in node.value.keys]
            elif getattr(target, "id", None) == "COUNTED":
                names += ast.literal_eval(node.value)
    return names


def test_every_traced_name_resolves():
    # A traced name that no longer resolves turns its per-layer metrics
    # into None, so a refactor that renames one must rename it there too.
    names = _traced_names()
    assert {"glm._irls", "glm.fit", "measures.measure_value"} <= set(names)
    for name in names:
        module, *attributes = name.split(".")
        owner = importlib.import_module(f"rothman.{module}")
        for attribute in attributes:
            owner = getattr(owner, attribute, None)
        assert callable(owner), name
