"""The public API: the names `import rothman` exports and how it loads them
(each on first use, from its module's binding of the moment), the names the
benchmark's tracer wraps, the README's quickstart and list of benchmark
records, and the Python version floor the package declares.

A public name is removed only together with the README and the tests that
use it, so the frozen list below changes only in such a change.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rothman
from rothman import glm

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"

PUBLIC_NAMES = [
    "AnalysisReport", "CohortCell", "CollapsibilityReport",
    "ConfoundingRectangle", "Containment", "ContourSpec", "DiagramSpec",
    "EffectModification", "GlmError", "GlmFit", "LrInterval", "LrTest",
    "Measure", "MeasureAnalysis", "ModelSpec", "NestingError",
    "NonConvergenceError", "ParseError", "PointSpec", "PopulationSpec",
    "PopulationTruth", "RiskPoint", "RothmanError", "StandardPopulation",
    "StandardizedHull", "StratifiedCohortTable", "UndefinedMeasureError",
    "ValidationError", "ZeroMarginError", "analyze", "association_points",
    "builtin_table", "chi_square_cdf", "chi_square_quantile", "chi_square_sf",
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
    # To its defining module's binding, which the package never caches.
    for name in rothman.__all__:
        value = getattr(rothman, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name not in vars(rothman), name


def test_a_public_name_reads_its_module_s_binding_of_the_moment(monkeypatch):
    # The benchmark's tracer patches a function in every rothman namespace
    # that binds it and restores those bindings on exit; a name cached in
    # the package would keep the tracer's wrapper.
    sentinel = object()
    monkeypatch.setattr(glm, "fit", sentinel)
    assert rothman.fit is sentinel
    monkeypatch.undo()
    assert rothman.fit is glm.fit
    assert "fit" not in vars(rothman)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from rothman import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(rothman.__all__)


def test_dir_lists_every_public_name():
    assert set(rothman.__all__) <= set(dir(rothman))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'rothman'.*'nope'"):
        rothman.nope


STANDARDIZE = """
table = rothman.whickham_table()
std = rothman.standard_population(table, "study_sample")
point = rothman.standardized_point(table, std)
result = repr((point, rothman.standardized_hull(
    rothman.association_points(table)[1])))
"""
FRESH_PROCESS = """
import json, sys
import rothman
loaded = sorted(m for m in sys.modules if m.split(".")[0] in
                ("rothman", "numpy"))
""" + STANDARDIZE + """
print(json.dumps([loaded, result, "numpy" in sys.modules]))
"""


def test_import_loads_no_submodule_and_standardization_needs_no_numpy():
    # A fresh interpreter, since this one already holds numpy.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    here = {"rothman": rothman}
    exec(STANDARDIZE, here)
    assert json.loads(out) == [["rothman"], here["result"], False]


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


def test_readme_quickstart_gives_the_numbers_its_comments_state(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    dip = re.search(r"# ([\d.]+) < ([\d.]+)", code).groups()
    interval = re.search(r"# OR ([\d.]+)-([\d.]+)", code).groups()
    assert float(dip[0]) < float(dip[1])
    stated = [float(v) for v in dip + interval]
    got = [namespace["dip"].min_value, namespace["dip"].stratum_value,
           namespace["interval"].lower, namespace["interval"].upper]
    assert got == [pytest.approx(v, abs=5e-5) for v in stated]
    assert capsys.readouterr().out.startswith("{")


def test_readme_names_every_benchmark_record():
    # Each BENCH_<n>.json at the root holds one change's paired benchmark
    # runs; the README's Performance paragraph lists them all.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    records = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert records
    assert [r for r in records if f"`{r}`" not in readme] == []


def test_sources_parse_at_the_declared_python_floor():
    # Only the running interpreter's grammar is exercised by the other
    # tests, so syntax newer than the floor would pass them unnoticed.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    version = (int(floor[1]), int(floor[2]))
    sources = sorted((ROOT / "src" / "rothman").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)
