"""Seeded inputs for every benchmark workload.

`make_inputs(seed, workload)` is the only source of inputs: the same seed gives the
same tables and population specs, in the same order, on every machine.
It runs before timing starts, so its own `sample_table` calls are neither
timed nor traced.

Population-spec recipe (one spec per input):
- stratum weights ~ Dirichlet(1, ..., 1) over k strata;
- per stratum, exposure probability ~ U[0.2, 0.8];
- per stratum, unexposed risk p0 ~ U[0.05, 0.6] and exposed risk
  p1 = p0 * r with r ~ U[0.8, min(2.5, 0.95 / p0)], so p1 <= 0.95;
- potential outcomes D0 and D1 independent given the stratum.

Analyze workloads sample a table from each spec and redraw the spec until
every stratum-exposure cell has at least one case and one non-case; on
such tables every measure is defined at every stratum point, so `analyze`
returns a report rather than raising. The cli_mix specs keep every stratum
weight at or above `CLI_MIN_WEIGHT`, so a sample of `CLI_N` people leaves
no stratum-exposure cell empty in practice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from rothman.simulate import parse_population_spec, sample_table
from rothman.tables import StratifiedCohortTable

K2_STRATA, K2_N, K2_COUNT = 2, 2_000, 256
K20_STRATA, K20_N, K20_COUNT = 20, 20_000, 48
CLI_STRATA, CLI_N, CLI_COUNT = 6, 1_000_000, 80
CLI_MIN_WEIGHT = 0.02
FIGURES = tuple(range(1, 8))


@dataclass(frozen=True)
class CliInput:
    """One cli_mix op: a population spec as JSON text and its sample seed."""

    spec_json: str
    sample_seed: int


def population_spec(rng: np.random.Generator, k: int) -> dict:
    """One random population spec, as the dict `parse_population_spec` reads."""
    weights = rng.dirichlet(np.ones(k))
    exposure = rng.uniform(0.2, 0.8, size=k)
    po = []
    for _ in range(k):
        p0 = rng.uniform(0.05, 0.6)
        p1 = p0 * rng.uniform(0.8, min(2.5, 0.95 / p0))
        po.append([(1 - p0) * (1 - p1), (1 - p0) * p1,
                   p0 * (1 - p1), p0 * p1])
    return {"stratum_probs": weights.tolist(),
            "exposure_probs": exposure.tolist(),
            "po_probs": po}


def _all_cells_mixed(table: StratifiedCohortTable) -> bool:
    return all(0 < c.exposed_cases < c.exposed_total
               and 0 < c.unexposed_cases < c.unexposed_total
               for c in table.cells)


def _analyze_tables(rng: np.random.Generator, k: int, n: int, count: int,
                    ) -> tuple[StratifiedCohortTable, ...]:
    tables = []
    while len(tables) < count:
        spec = parse_population_spec(population_spec(rng, k))
        table = sample_table(spec, n, int(rng.integers(2**63)))
        if _all_cells_mixed(table):
            tables.append(table)
    return tuple(tables)


def _cli_inputs(rng: np.random.Generator) -> tuple[CliInput, ...]:
    out = []
    while len(out) < CLI_COUNT:
        spec = population_spec(rng, CLI_STRATA)
        seed = int(rng.integers(2**63))
        if min(spec["stratum_probs"]) >= CLI_MIN_WEIGHT:
            out.append(CliInput(json.dumps(spec), seed))
    return tuple(out)


_BUILDERS = {
    "analyze_k2": lambda rng: _analyze_tables(rng, K2_STRATA, K2_N, K2_COUNT),
    "analyze_k20": lambda rng: _analyze_tables(rng, K20_STRATA, K20_N,
                                               K20_COUNT),
    "cli_mix": _cli_inputs,
}


def make_inputs(seed: int, workload: str) -> tuple:
    """The fixed, ordered input list of ``workload`` for ``seed``.

    Each workload draws from its own stream spawned from the seed, so its
    list does not depend on which other lists are generated.
    """
    streams = dict(zip(_BUILDERS, np.random.SeedSequence(seed).spawn(
        len(_BUILDERS))))
    return _BUILDERS[workload](np.random.Generator(np.random.PCG64(
        streams[workload])))
