"""Stratified 2x2 cohort tables: exact integer counts, parsing, and risks.

Counts stay exact integers end-to-end; proportions are computed in double
precision only at the point of use, so golden-number tests see no
accumulation error.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import ParseError, ValidationError

CSV_HEADER = ("stratum", "exposed_cases", "exposed_total",
              "unexposed_cases", "unexposed_total")


@dataclass(frozen=True, slots=True)
class CohortCell:
    """Cell counts of one binary exposure x binary outcome 2x2 table.

    A zero total on one margin (no exposed or no unexposed individuals) is
    accepted and flagged via ``has_zero_margin``; risk computation and model
    fitting reject such cells explicitly.
    """

    exposed_cases: int
    exposed_total: int
    unexposed_cases: int
    unexposed_total: int

    def __post_init__(self) -> None:
        for name in CSV_HEADER[1:]:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
            if v < 0:
                raise ValidationError(f"{name} must be nonnegative, got {v}")
        if self.exposed_cases > self.exposed_total:
            raise ValidationError(
                f"exposed_cases {self.exposed_cases} exceeds "
                f"exposed_total {self.exposed_total}")
        if self.unexposed_cases > self.unexposed_total:
            raise ValidationError(
                f"unexposed_cases {self.unexposed_cases} exceeds "
                f"unexposed_total {self.unexposed_total}")

    @property
    def has_zero_margin(self) -> bool:
        return self.exposed_total == 0 or self.unexposed_total == 0

    @property
    def total(self) -> int:
        return self.exposed_total + self.unexposed_total

    def risks(self) -> tuple[float, float]:
        """(risk in unexposed, risk in exposed) as correctly rounded doubles."""
        if self.has_zero_margin:
            raise ValidationError("risk undefined for a zero-total margin")
        return (self.unexposed_cases / self.unexposed_total,
                self.exposed_cases / self.exposed_total)

    def __add__(self, other: "CohortCell") -> "CohortCell":
        if not isinstance(other, CohortCell):
            return NotImplemented
        return CohortCell(
            self.exposed_cases + other.exposed_cases,
            self.exposed_total + other.exposed_total,
            self.unexposed_cases + other.unexposed_cases,
            self.unexposed_total + other.unexposed_total,
        )


@dataclass(frozen=True, slots=True)
class StratifiedCohortTable:
    """An ordered sequence of labeled 2x2 cells, one per covariate stratum."""

    strata: tuple[tuple[str, CohortCell], ...]
    exposure_label: str = "exposure"
    outcome_label: str = "outcome"
    covariate_label: str = "stratum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(
            (str(label), cell) for label, cell in self.strata))
        if len(self.strata) < 1:
            raise ValidationError("a table needs at least one stratum")
        labels = [label for label, _ in self.strata]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValidationError(f"duplicate stratum labels: {dupes}")
        for label, cell in self.strata:
            if not isinstance(cell, CohortCell):
                raise ValidationError(f"stratum {label!r} is not a CohortCell")

    @property
    def k(self) -> int:
        return len(self.strata)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.strata)

    @property
    def cells(self) -> tuple[CohortCell, ...]:
        return tuple(cell for _, cell in self.strata)

    def collapse(self) -> CohortCell:
        """Marginal 2x2 cell: elementwise sum over strata."""
        total = self.cells[0]
        for cell in self.cells[1:]:
            total = total + cell
        return total

    def to_csv(self) -> str:
        """CSV text of the strata, refusing each label that ``parse_table``
        would change: it strips whitespace around a label, ends a row at the
        carriage return the writer leaves unquoted, and reads no field past
        ``csv.field_size_limit()``."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for label, c in self.strata:
            if (label != label.strip() or "\r" in label
                    or len(label) > csv.field_size_limit()):
                raise ValidationError(
                    f"stratum label {label!r} cannot be written to CSV, "
                    "which would not read it back; use JSON")
            writer.writerow([label, *(getattr(c, f) for f in CSV_HEADER[1:])])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "labels": {
                "exposure": self.exposure_label,
                "outcome": self.outcome_label,
                "covariate": self.covariate_label,
            },
            "strata": [
                {"label": label, **{f: getattr(c, f) for f in CSV_HEADER[1:]}}
                for label, c in self.strata
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _as_text(source: str | bytes | IO) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _parse_count(raw: str, field: str, line: int) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ParseError(
            f"line {line}: field {field!r} is not an integer: {raw!r}") from None


def parse_table(source: str | bytes | IO, format: str = "csv",
                ) -> StratifiedCohortTable:
    """Parse a stratified table from CSV or JSON text.

    CSV requires the exact header ``stratum,exposed_cases,exposed_total,
    unexposed_cases,unexposed_total``; row order becomes stratum order.
    One leading byte-order mark, which spreadsheets often write, is dropped.
    """
    text = _as_text(source).removeprefix("\ufeff")
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise ParseError(f"unknown format {format!r}; expected 'csv' or 'json'")


def _parse_csv(text: str) -> StratifiedCohortTable:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, r) for r in reader
                if any(f.strip() for f in r)]
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError("empty CSV input")
    header = tuple(h.strip() for h in rows[0][1])
    if header != CSV_HEADER:
        raise ParseError(
            f"line {rows[0][0]}: header must be {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}")
    strata = []
    for i, row in rows[1:]:
        if len(row) != 5:
            raise ParseError(f"line {i}: expected 5 fields, got {len(row)}")
        label = row[0].strip()
        counts = [_parse_count(row[j + 1], CSV_HEADER[j + 1], i)
                  for j in range(4)]
        try:
            cell = CohortCell(*counts)
        except ValidationError as exc:
            raise ValidationError(f"line {i}, stratum {label!r}: {exc}") from None
        strata.append((label, cell))
    return StratifiedCohortTable(strata=tuple(strata))


def _parse_json(text: str) -> StratifiedCohortTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "strata" not in doc:
        raise ParseError("JSON input must be an object with a 'strata' array")
    raw_strata = doc["strata"]
    if not isinstance(raw_strata, list) or not raw_strata:
        raise ParseError("'strata' must be a non-empty array")
    strata = []
    for i, entry in enumerate(raw_strata):
        if not isinstance(entry, dict):
            raise ParseError(f"strata[{i}] must be an object")
        if "label" not in entry:
            raise ParseError(f"strata[{i}] is missing 'label'")
        label = str(entry["label"])
        counts = []
        for field in CSV_HEADER[1:]:
            if field not in entry:
                raise ParseError(f"strata[{i}] ({label!r}) is missing {field!r}")
            v = entry[field]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(
                    f"strata[{i}] ({label!r}): {field!r} must be an integer, "
                    f"got {v!r}")
            counts.append(v)
        try:
            cell = CohortCell(*counts)
        except ValidationError as exc:
            raise ValidationError(f"stratum {label!r}: {exc}") from None
        strata.append((label, cell))
    labels = doc.get("labels", {})
    if not isinstance(labels, dict):
        raise ParseError("'labels' must be an object")
    return StratifiedCohortTable(
        strata=tuple(strata),
        exposure_label=str(labels.get("exposure", "exposure")),
        outcome_label=str(labels.get("outcome", "outcome")),
        covariate_label=str(labels.get("covariate", "stratum")),
    )


def serialize_table(table: StratifiedCohortTable, format: str = "csv") -> str:
    if format == "csv":
        return table.to_csv()
    if format == "json":
        return table.to_json()
    raise ParseError(f"unknown format {format!r}; expected 'csv' or 'json'")
