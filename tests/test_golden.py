"""Byte-for-byte regression pins against checked-in golden outputs.

These catch any drift in numeric formatting, JSON key layout, or SVG
element ordering. If an intentional change lands, regenerate the report
goldens, ``analyze_whickham.json``, ``small_tables.json``,
``sampled_k2.sha256`` and ``cli_invocations.sha256``, by running this file:
``PYTHONPATH=src python tests/test_golden.py``, which prints whether each
one's bytes changed, and how many of the small tables' digests did. The
figure golden, ``fig1_standardized_points.svg``, is the text of
``figure_svg(1)``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

from rothman import cli
from rothman.diagnostics import analyze
from rothman.errors import GlmError
from rothman.figures import figure_svg
from rothman.glm import LINKS, ModelSpec, fit, profile_interval
from rothman.simulate import PopulationSpec, sample_table
from rothman.tables import CohortCell, StratifiedCohortTable
from rothman.whickham import whickham_table

GOLDEN = Path(__file__).parent / "golden"
SMALL_TABLES_SEED = 2026
SMALL_TABLES = 24
SAMPLED_K2_SEED = 20261020
SAMPLED_K2_TABLES = 32
CLI_POPULATION_SPEC = json.dumps({
    "stratum_probs": [0.5, 0.5], "exposure_probs": [0.25, 0.75],
    "po_probs": [[0.4, 0.2, 0.1, 0.3], [0.7, 0.1, 0.1, 0.1]]})
CLI_INVOCATIONS = (
    ["--help"], *([command, "--help"] for command in (
        "analyze", "standardize", "collapse", "plot", "simulate")),
    ["--version"],
    *(["analyze", name] for name in ("whickham", "whickham_crude",
                                     "six_strata")),
    ["standardize", "whickham"],
    ["standardize", "six_strata", "--preset", "exposed"],
    ["collapse", "whickham"], ["collapse", "six_strata"],
    *(["plot", "--figure", str(n), "-o", "-"] for n in range(1, 8)),
    ["simulate", "-", "--n", "1000", "--seed", "1"],
    ["analyze", "no_such_table.csv"])


def test_analyze_report_matches_golden():
    expected = (GOLDEN / "analyze_whickham.json").read_text(encoding="utf-8")
    assert analyze(whickham_table()).to_json() + "\n" == expected, (
        "analyze(whickham_table()).to_json() drifted; regenerate "
        "tests/golden/analyze_whickham.json with python tests/test_golden.py "
        "if the change is intentional")


def test_figure1_matches_golden():
    expected = (GOLDEN / "fig1_standardized_points.svg").read_text(
        encoding="utf-8")
    assert figure_svg(1) == expected, (
        "figure_svg(1) drifted; regenerate "
        "tests/golden/fig1_standardized_points.svg if the change is "
        "intentional")


def small_tables() -> list[StratifiedCohortTable]:
    """Seeded tables of 1-4 strata and 1-20 people per exposure group,
    zero cells allowed: fits held on the boundary, estimates and endpoints
    at b's limits, and undefined stratum measures, that larger tables
    rarely reach."""
    rng = random.Random(SMALL_TABLES_SEED)
    tables = []
    for _ in range(SMALL_TABLES):
        strata = []
        for i in range(rng.randint(1, 4)):
            et, ut = rng.randint(1, 20), rng.randint(1, 20)
            strata.append((f"s{i}", CohortCell(
                exposed_cases=rng.randint(0, et), exposed_total=et,
                unexposed_cases=rng.randint(0, ut), unexposed_total=ut)))
        tables.append(StratifiedCohortTable(strata=tuple(strata)))
    return tables


def small_table_digest(table: StratifiedCohortTable) -> str:
    """sha256 of the table's analysis report and, for each link with and
    without strata, its profile interval or the error that stopped it."""
    parts = [analyze(table).to_json()]
    for link in LINKS:
        for terms in ("exposure_only", "exposure_plus_stratum"):
            try:
                parts.append(repr(profile_interval(
                    fit(ModelSpec(link=link, terms=terms, table=table)))))
            except GlmError as exc:
                parts.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def test_small_tables_match_golden():
    expected = json.loads((GOLDEN / "small_tables.json").read_text(
        encoding="utf-8"))
    assert [small_table_digest(t) for t in small_tables()] == expected, (
        "a small table's report or profile interval drifted; regenerate "
        "tests/golden/small_tables.json with python tests/test_golden.py "
        "if the change is intentional")


def sampled_k2_tables() -> list[StratifiedCohortTable]:
    """Seeded two-stratum tables of 2,000 people, every cell mixed: each
    stratum and exposure group has a case and a non-case, as in a
    Whickham-sized study, where every fit is interior."""
    rng = random.Random(SAMPLED_K2_SEED)
    tables = []
    while len(tables) < SAMPLED_K2_TABLES:
        weight = rng.uniform(0.2, 0.8)
        exposure = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        po = []
        for _ in range(2):
            p0 = rng.uniform(0.05, 0.6)
            p1 = p0 * rng.uniform(0.8, min(2.5, 0.95 / p0))
            po.append(((1 - p0) * (1 - p1), (1 - p0) * p1,
                       p0 * (1 - p1), p0 * p1))
        table = sample_table(PopulationSpec(
            stratum_probs=(weight, 1 - weight), exposure_probs=exposure,
            po_probs=tuple(po)), 2_000, rng.randrange(2**63))
        if all(0 < c.exposed_cases < c.exposed_total
               and 0 < c.unexposed_cases < c.unexposed_total
               for c in table.cells):
            tables.append(table)
    return tables


def sampled_k2_digest() -> str:
    """sha256 over the reports of the sampled two-stratum tables, one a
    line."""
    text = "\n".join(analyze(t).to_json() for t in sampled_k2_tables())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_sampled_k2_reports_match_digest():
    expected = (GOLDEN / "sampled_k2.sha256").read_text(encoding="utf-8")
    assert sampled_k2_digest() + "\n" == expected, (
        "a sampled two-stratum report drifted; regenerate "
        "tests/golden/sampled_k2.sha256 with python tests/test_golden.py "
        "if the change is intentional")


def cli_invocations_digest() -> str:
    """sha256 over (argv, status, stdout, stderr) of each of
    `CLI_INVOCATIONS` run in process by `cli.run`, help wrapped at 80
    columns and `simulate` reading `CLI_POPULATION_SPEC` from stdin."""
    records = []
    columns, stdin = os.environ.get("COLUMNS"), sys.stdin
    os.environ["COLUMNS"] = "80"
    try:
        for argv in CLI_INVOCATIONS:
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(CLI_POPULATION_SPEC)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = cli.run(list(argv))
            records.append([argv, status, out.getvalue(), err.getvalue()])
    finally:
        sys.stdin = stdin
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


def test_cli_invocations_match_digest():
    expected = (GOLDEN / "cli_invocations.sha256").read_text(encoding="utf-8")
    assert cli_invocations_digest() + "\n" == expected, (
        "a CLI invocation's status or text drifted; regenerate "
        "tests/golden/cli_invocations.sha256 with python tests/test_golden.py "
        "if the change is intentional")


def regenerate(name: str, text: str) -> str:
    """Write ``text`` to the golden ``name``, print whether its bytes
    changed, and return the text it replaced."""
    path = GOLDEN / name
    old = path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    print(f"{name}: {'unchanged' if text == old else 'changed'}")
    return old


if __name__ == "__main__":
    regenerate("analyze_whickham.json",
               analyze(whickham_table()).to_json() + "\n")
    digests = [small_table_digest(t) for t in small_tables()]
    old = json.loads(regenerate("small_tables.json",
                                json.dumps(digests, indent=1) + "\n"))
    moved = sum(a != b for a, b in itertools.zip_longest(old, digests))
    print(f"  {moved} of {len(digests)} digests changed")
    regenerate("sampled_k2.sha256", sampled_k2_digest() + "\n")
    regenerate("cli_invocations.sha256", cli_invocations_digest() + "\n")
