"""Bundled cohort fixtures.

The Whickham tables record twenty-year survival by smoking status from
the Whickham survey, crude and stratified into two age bands. The
six-stratum table is synthetic: it is constructed so that the 45-54
point is interior to the standardized hull, every other stratum point is
a hull vertex, and only the top-right corner of the confounding
rectangle coincides with a stratum point.
"""

from __future__ import annotations

from .errors import ValidationError
from .tables import CohortCell, StratifiedCohortTable

_LABELS = {"exposure_label": "smoker", "outcome_label": "death",
           "covariate_label": "age"}


def whickham_crude_table() -> StratifiedCohortTable:
    """All 1,314 women in one stratum: smokers 139/582, nonsmokers 230/732."""
    return StratifiedCohortTable(
        strata=(
            ("all", CohortCell(exposed_cases=139, exposed_total=582,
                               unexposed_cases=230, unexposed_total=732)),
        ),
        **_LABELS)


def whickham_table() -> StratifiedCohortTable:
    """The same cohort split at age 65."""
    return StratifiedCohortTable(
        strata=(
            ("18-64", CohortCell(exposed_cases=97, exposed_total=533,
                                 unexposed_cases=65, unexposed_total=539)),
            ("65+", CohortCell(exposed_cases=42, exposed_total=49,
                               unexposed_cases=165, unexposed_total=193)),
        ),
        **_LABELS)


def six_strata_table() -> StratifiedCohortTable:
    """Synthetic six-age-band cohort for hull and rectangle displays."""
    rows = (
        ("18-24", 6, 120, 6, 200),
        ("25-34", 15, 150, 4, 200),
        ("35-44", 35, 125, 18, 180),
        ("45-54", 49, 140, 33, 150),
        ("55-64", 66, 120, 64, 160),
        ("65+", 44, 50, 170, 200),
    )
    return StratifiedCohortTable(
        strata=tuple((label, CohortCell(*counts)) for label, *counts in rows),
        **_LABELS)


BUILTIN_TABLES = {
    "whickham": whickham_table,
    "whickham_crude": whickham_crude_table,
    "six_strata": six_strata_table,
}


def builtin_table(name: str) -> StratifiedCohortTable:
    """Look up a bundled fixture by name."""
    try:
        factory = BUILTIN_TABLES[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin table {name!r}; available: "
            f"{sorted(BUILTIN_TABLES)}") from None
    return factory()
