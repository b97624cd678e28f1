"""Spans around calls into rothman's public functions, recorded from outside.

`Tracer` wraps each traced function once and installs that one wrapper in
every rothman module namespace that binds the function (``measures`` and
``diagnostics`` both bind ``collapse_analysis``; ``diagnostics`` and ``cli``
both bind ``analyze``), so a call is recorded once under the name of the
module that defines it, whichever binding the caller used. Leaving the
``with`` block puts every original binding back.

A span is (name, start, end, parent, op, error, amount): ``parent`` is the
index of the enclosing span or -1, ``op`` the id of the operation that was
running, ``error`` the exception type name or None, and ``amount`` a
per-function quantity (IRLS iterations, rows sampled, SVG bytes).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter
from typing import Callable, NamedTuple

import rothman
from rothman import errors
from rothman.errors import GlmError, NonConvergenceError


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str | None
    amount: float


def _irls_iterations(result, exc) -> float:
    if exc is None:
        return result.iterations
    if isinstance(exc, NonConvergenceError) and exc.trace:
        return len(exc.trace) - 1
    return 0


def _sample_rows(table, exc) -> float:
    return 0 if exc else sum(cell.total for cell in table.cells)


def _text_bytes(text, exc) -> float:
    return 0 if exc else len(text.encode("utf-8"))


# name -> how to get a span's amount from the call's result or the
# exception it raised, or None.
SPANNED: dict[str, Callable | None] = {
    "glm.fit": None,
    "glm.profile_interval": None,
    "glm.exposure_test": None,
    "glm.interaction_test": None,
    "glm.chi_square_quantile": None,
    "glm._irls": _irls_iterations,
    "measures.collapse_analysis": None,
    "measures.effect_modification": None,
    "geometry.standardized_point": None,
    "geometry.standardized_hull": None,
    "geometry.contains": None,
    "simulate.sample_table": _sample_rows,
    "simulate.population_truth": None,
    "figures.figure_svg": None,
    "render.render_diagram": _text_bytes,
    "render.render_grid": _text_bytes,
    "tables.parse_table": None,
    "tables.serialize_table": None,
    "diagnostics.analyze": None,
    "diagnostics.AnalysisReport.to_json": None,
    "cli.run": None,
}
# Called tens of thousands of times per op: counted, not spanned, so the
# trace stays small and the overhead stays low.
COUNTED = ("measures.measure_value",)
# Public glm functions whose escaping GlmError counts as a glm error.
GLM_PUBLIC = ("glm.fit", "glm.profile_interval", "glm.exposure_test",
              "glm.interaction_test", "glm.chi_square_quantile")


def rothman_modules() -> list:
    """The rothman package and every module in it."""
    return [rothman] + [importlib.import_module(f"rothman.{m.name}")
                        for m in pkgutil.iter_modules(rothman.__path__)]


def _lookup(name: str):
    """(owner, attribute) for 'module.function' or 'module.Class.method'."""
    parts = name.split(".")
    owner = importlib.import_module(f"rothman.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.missing: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn, amount: Callable | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op,
                                    type(exc).__name__,
                                    amount(None, exc) if amount else 0)
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = Span(name, start, end, parent, self.op, None,
                                amount(result, None) if amount else 0)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = rothman_modules()
        for name in (*SPANNED, *COUNTED):
            owner, attr = _lookup(name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            if name in COUNTED:
                wrapper = self._count_wrapper(name, fn)
            else:
                wrapper = self._span_wrapper(name, fn, SPANNED[name])
            owners = [owner] + [m for m in modules if m is not owner]
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()


def _covered(spans: list[Span], name: str) -> float:
    """Total duration of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[1]
    return {"ms": "ms", "self_ms": "ms", "rows_per_s": "1/s",
            "svg_bytes": "bytes"}.get(last, "count")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float | None]:
    """Per-op layer metrics from the recorded spans; None marks a missing name."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    calls: dict[str, int] = {}
    amounts: dict[str, float] = {}
    busy: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        amounts[s.name] = amounts.get(s.name, 0.0) + s.amount
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def self_ms(name: str) -> float:
        return sum(s.end - s.start - child_time[i]
                   for i, s in enumerate(spans) if s.name == name) * 1e3 / ops

    def ms(name: str) -> float:
        return _covered(spans, name) * 1e3 / ops

    def per_op(table: dict, name: str) -> float:
        return table.get(name, 0) / ops

    glm_errors = sum(
        1 for s in spans
        if s.name in GLM_PUBLIC and s.error is not None
        and issubclass(getattr(errors, s.error, Exception), GlmError)
        and (s.parent < 0 or not spans[s.parent].name.startswith("glm.")))
    rows = amounts.get("simulate.sample_table", 0.0)
    sample_s = busy.get("simulate.sample_table", 0.0)

    out: dict[str, float | None] = {
        "glm.profile_interval.calls": per_op(calls, "glm.profile_interval"),
        "glm.profile_interval.ms": ms("glm.profile_interval"),
        "glm.fit.calls": per_op(calls, "glm.fit"),
        "glm.fit.ms": ms("glm.fit"),
        "glm.exposure_test.ms": ms("glm.exposure_test"),
        "glm.interaction_test.ms": ms("glm.interaction_test"),
        "glm.chi_square_quantile.calls": per_op(calls, "glm.chi_square_quantile"),
        "glm.chi_square_quantile.ms": ms("glm.chi_square_quantile"),
        "glm.irls_fits": per_op(calls, "glm._irls"),
        "glm.irls_iterations": per_op(amounts, "glm._irls"),
        "glm.errors": glm_errors / ops,
        "measures.collapse_analysis.calls": per_op(calls, "measures.collapse_analysis"),
        "measures.collapse_analysis.ms": ms("measures.collapse_analysis"),
        "measures.measure_value.calls": tracer.counts["measures.measure_value"] / ops,
        "measures.effect_modification.ms": ms("measures.effect_modification"),
        "geometry.standardized_point.ms": ms("geometry.standardized_point"),
        "geometry.standardized_hull.ms": ms("geometry.standardized_hull"),
        "geometry.contains.ms": ms("geometry.contains"),
        "simulate.sample_table.ms": ms("simulate.sample_table"),
        "simulate.sample_table.rows_per_s": rows / sample_s if sample_s else 0.0,
        "simulate.population_truth.ms": ms("simulate.population_truth"),
        "figures.figure_svg.ms": ms("figures.figure_svg"),
        "render.render_diagram.calls": per_op(calls, "render.render_diagram"),
        "render.render_diagram.ms": ms("render.render_diagram"),
        "render.svg_bytes": (amounts.get("render.render_diagram", 0.0)
                             + amounts.get("render.render_grid", 0.0)) / ops,
        "tables.parse_table.ms": ms("tables.parse_table"),
        "tables.serialize_table.ms": ms("tables.serialize_table"),
        "diagnostics.analyze.self_ms": self_ms("diagnostics.analyze"),
        "diagnostics.to_json.ms": ms("diagnostics.AnalysisReport.to_json"),
        "cli.run.self_ms": self_ms("cli.run"),
    }
    # A traced name that no longer exists is reported as missing, never as 0.
    sources = {
        "glm.irls_fits": "glm._irls", "glm.irls_iterations": "glm._irls",
        "diagnostics.to_json.ms": "diagnostics.AnalysisReport.to_json",
        "render.svg_bytes": "render.render_diagram",
        "simulate.sample_table.rows_per_s": "simulate.sample_table",
    }
    for metric in out:
        source = sources.get(metric, metric.rsplit(".", 1)[0])
        if source in tracer.missing:
            out[metric] = None
    if all(name in tracer.missing for name in GLM_PUBLIC):
        out["glm.errors"] = None
    return out
