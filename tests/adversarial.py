"""The adversarial table set: seeded tables of 1-20 strata whose group totals
run log-uniformly from 1 to 1e7 and whose groups have no cases or no
non-cases two times in three, so most fits meet the boundary of the domain.

``python tests/adversarial.py [count] [seed]`` fits the exposure-only and
no-interaction models of the first ``count`` tables (all 300 by default) of
``seed`` (1 by default) under every link, profiles each fit, and prints the
errors by link and text, each error with its table's index, link and terms,
the Newton passes of the free no-interaction fits and the Newton runs
(`glm._newton`) that the survey made, free-fit and endpoint. A range of
seeds, ``python tests/adversarial.py 300 1-7``, prints that for each seed
and then each seed's count of fit and of interval errors, with their total.
Run it with this tree's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import collections
import hashlib
import inspect
import random
import sys

from rothman import glm
from rothman.errors import GlmError
from rothman.glm import LINKS, ModelSpec, fits, profile_intervals
from rothman.tables import CohortCell, StratifiedCohortTable

SEED = 1
TABLES = 300
TERMS = ("exposure_only", "exposure_plus_stratum")


def adversarial_tables(count: int = TABLES, seed: int = SEED,
                       ) -> list[StratifiedCohortTable]:
    """The first ``count`` tables of `random.Random(seed)`: k = 1-20
    strata; in each, for the exposed and then the unexposed group, a total
    of round(10 ** uniform(0, 7)) and no cases, all cases or a uniform
    count of them, each a third of the time."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        strata = []
        for i in range(rng.randint(1, 20)):
            groups = []
            for _ in range(2):
                total = round(10 ** rng.uniform(0, 7))
                cases = (0, total, None)[rng.randint(0, 2)]
                groups += [rng.randint(0, total) if cases is None else cases,
                           total]
            ec, et, uc, ut = groups
            strata.append((f"s{i}", CohortCell(
                exposed_cases=ec, exposed_total=et,
                unexposed_cases=uc, unexposed_total=ut)))
        tables.append(StratifiedCohortTable(strata=tuple(strata)))
    return tables


def tables_digest(tables: list[StratifiedCohortTable]) -> str:
    """sha256 over the tables' counts, one stratum a line."""
    text = "\n".join(
        f"{t}:{cell.exposed_cases},{cell.exposed_total},"
        f"{cell.unexposed_cases},{cell.unexposed_total}"
        for t, table in enumerate(tables) for cell in table.cells)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def survey(tables: list[StratifiedCohortTable]) -> dict:
    """Every fit and interval of the tables: ``fit_errors`` and
    ``interval_errors`` list each `GlmError` as (table index, link, terms,
    text), and ``passes`` lists the Newton passes of each converged free
    no-interaction fit (a closed-form fit takes none)."""
    fit_errors, interval_errors, passes = [], [], []
    for index, table in enumerate(tables):
        specs = [ModelSpec(link, terms, table)
                 for link in LINKS for terms in TERMS]
        done = []
        for spec, result in zip(specs, fits(specs)):
            if isinstance(result, GlmError):
                fit_errors.append((index, spec.link, spec.terms,
                                   str(result)))
                continue
            done.append(result)
            if spec.terms == "exposure_plus_stratum" and result.iterations:
                passes.append(result.iterations)
        for result, interval in zip(done, profile_intervals(done)):
            if isinstance(interval, GlmError):
                interval_errors.append((index, result.spec.link,
                                        result.spec.terms, str(interval)))
    return {"fit_errors": fit_errors, "interval_errors": interval_errors,
            "passes": passes}


def report(count: int, seed: int) -> dict:
    """Print the survey of the first ``count`` tables of ``seed`` and
    return it."""
    tables = adversarial_tables(count, seed)
    runs, newton = collections.Counter(), glm._newton
    signature = inspect.signature(newton)

    def counted(*args, **kwargs):
        cut = signature.bind(*args, **kwargs).arguments.get("cut")
        runs["free-fit" if cut is None else "endpoint"] += 1
        return newton(*args, **kwargs)

    glm._newton = counted
    try:
        result = survey(tables)
    finally:
        glm._newton = newton
    print(f"{len(tables)} tables of seed {seed}, sha256 "
          f"{tables_digest(tables)}")
    for name in ("fit_errors", "interval_errors"):
        errors = result[name]
        print(f"{name}: {len(errors)}")
        counts = collections.Counter((link, text)
                                     for _, link, _, text in errors)
        for (link, text), n in sorted(counts.items()):
            print(f"  {n} x {link}: {text}")
        for index, link, terms, text in errors:
            print(f"  table {index}, {link} {terms}: {text}")
    passes = sorted(result["passes"])
    if passes:
        print(f"free no-interaction fits: {len(passes)}, passes "
              f"{sum(passes)}, median {passes[len(passes) // 2]}, "
              f"p90 {passes[(9 * len(passes)) // 10]}, max {passes[-1]}, "
              f"over 30 {sum(p > 30 for p in passes)}")
    print(f"Newton runs: {runs.total()}, free-fit {runs['free-fit']}, "
          f"endpoint {runs['endpoint']}")
    return result


def main(argv: list[str]) -> None:
    count = int(argv[0]) if argv else TABLES
    first, _, last = (argv[1] if len(argv) > 1 else str(SEED)).partition("-")
    seeds = range(int(first), int(last or first) + 1)
    results = [report(count, seed) for seed in seeds]
    if len(results) > 1:
        for name in ("fit_errors", "interval_errors"):
            each = [len(result[name]) for result in results]
            print(f"{name} by seed: {', '.join(map(str, each))} "
                  f"({sum(each)})")


if __name__ == "__main__":
    main(sys.argv[1:])
