"""Correctness checks on the outputs of the benchmark's operations.

Each check returns a list of problems; an empty list means the output is
correct. Entries that carry an ``error`` are failures counted by the
workload, not gate problems, and are skipped here. The estimate oracles
are closed forms on the table's own cells, so they stay valid whatever
method the program uses to reach the estimates.

Estimates must match their closed forms within `REL_TOL` relative. The
risk difference p1 - p0 is a cancelling difference that is exactly 0 when
a stratum's two risks are equal, so its error is taken relative to the
larger of its two risks, the operands of the difference; for the ratio
measures the scale is the oracle value itself.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from rothman.diagnostics import analyze
from rothman.figures import figure_svg
from rothman.tables import CohortCell, StratifiedCohortTable
from rothman.whickham import whickham_table

REL_TOL = 1e-8
# `float` also reads the "inf", "-inf" and "nan" strings that the report
# writes for non-finite `*_full` numbers.


def closed_forms(cell: CohortCell) -> dict[str, tuple[float, float]]:
    """(value, error scale) of OR, RR, RD and HR for one 2x2 cell.

    Keyed by the report's short measure names.
    """
    a, n1 = cell.exposed_cases, cell.exposed_total
    c, n0 = cell.unexposed_cases, cell.unexposed_total
    p1, p0 = Fraction(a, n1), Fraction(c, n0)
    odds_ratio = float(Fraction(a * (n0 - c), (n1 - a) * c))
    risk_ratio = float(p1 / p0)
    hazard_ratio = math.log1p(-float(p1)) / math.log1p(-float(p0))
    return {
        "OR": (odds_ratio, odds_ratio),
        "RR": (risk_ratio, risk_ratio),
        "RD": (float(p1 - p0), float(max(p1, p0))),
        "HR": (hazard_ratio, hazard_ratio),
    }


def _close(value: float, oracle: tuple[float, float]) -> bool:
    expected, scale = oracle
    return abs(value - expected) <= REL_TOL * abs(scale)


def check_report(table: StratifiedCohortTable, text: str) -> list[str]:
    """Check one ``analyze(table).to_json()`` output against its table."""
    problems = []
    report = json.loads(text)
    points = report["points"]
    crude = points["crude"]
    cx, cy = float(crude["x_full"]), float(crude["y_full"])
    std = points["standardized"]
    if float(std["exposed"]["y_full"]) != cy:
        problems.append("exposed-standardized y differs from the crude y")
    if float(std["unexposed"]["x_full"]) != cx:
        problems.append("unexposed-standardized x differs from the crude x")
    rect = points["rectangle"]
    if not (float(rect["x_min_full"]) <= cx <= float(rect["x_max_full"])
            and float(rect["y_min_full"]) <= cy <= float(rect["y_max_full"])):
        problems.append("crude point outside the confounding rectangle")

    crude_oracle = closed_forms(table.collapse())
    stratum_oracles = [closed_forms(cell) for cell in table.cells]
    for entry in report["measures"]:
        if entry["error"] is not None:
            continue
        short = entry["short"]
        estimate = float(entry["crude_estimate_full"])
        if not _close(estimate, crude_oracle[short]):
            problems.append(f"{short} crude estimate {estimate!r} != closed "
                            f"form {crude_oracle[short][0]!r}")
        stratum = [float(v) for v in entry["stratum_estimates_full"]]
        if table.k >= 2:
            for i, (value, oracle) in enumerate(zip(stratum, stratum_oracles)):
                if not _close(value, oracle[short]):
                    problems.append(f"{short} stratum {i} estimate {value!r} "
                                    f"!= closed form {oracle[short][0]!r}")
        for key in ("crude_interval", "common_interval"):
            iv = entry[key]
            if iv is None:
                continue
            lower, est, upper = (float(iv[f]) for f in
                                 ("lower_full", "estimate_full", "upper_full"))
            if not lower <= est <= upper:
                problems.append(f"{short} {key} [{lower!r}, {upper!r}] does "
                                f"not hold its estimate {est!r}")
        for key in ("crude_p_value_full", "interaction_p_value_full"):
            if key in entry and not 0.0 <= float(entry[key]) <= 1.0:
                problems.append(f"{short} {key} {entry[key]!r} outside [0, 1]")
    return problems


def check_simulated(text: str, n: int) -> list[str]:
    """A ``simulate`` output's table must hold exactly n individuals."""
    strata = json.loads(text)["table"]["strata"]
    total = sum(s["exposed_total"] + s["unexposed_total"] for s in strata)
    return [] if total == n else [f"simulated table holds {total} people, not {n}"]


def check_svg(text: str) -> list[str]:
    try:
        ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    return []


def check_goldens(root: Path) -> list[str]:
    """Whickham report and figure 1 must equal the committed golden files."""
    golden = root / "tests" / "golden"
    problems = []
    expected = (golden / "analyze_whickham.json").read_text(encoding="utf-8")
    if analyze(whickham_table()).to_json() + "\n" != expected:
        problems.append("analyze(whickham) differs from its golden JSON")
    expected = (golden / "fig1_standardized_points.svg").read_text(
        encoding="utf-8")
    if figure_svg(1) != expected:
        problems.append("figure 1 differs from its golden SVG")
    return problems
