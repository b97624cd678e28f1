"""Table model, parsing, and serialization."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rothman.errors import ParseError, ValidationError
from rothman.tables import (CohortCell, StratifiedCohortTable, parse_table,
                            serialize_table)

# Observed risks frozen from the cohort counts themselves.
CRUDE_UNEXPOSED = 230 / 732
CRUDE_EXPOSED = 139 / 582


class TestCohortCell:
    def test_risks_of_whickham_crude_cell(self):
        cell = CohortCell(exposed_cases=139, exposed_total=582,
                          unexposed_cases=230, unexposed_total=732)
        x, y = cell.risks()
        assert x == pytest.approx(0.3142, abs=5e-5)
        assert y == pytest.approx(0.2388, abs=5e-5)
        assert (x, y) == (CRUDE_UNEXPOSED, CRUDE_EXPOSED)

    def test_risks_exact_are_fractions(self):
        cell = CohortCell(exposed_cases=1, exposed_total=3,
                          unexposed_cases=1, unexposed_total=7)
        assert cell.risks_exact() == (Fraction(1, 7), Fraction(1, 3))

    def test_cases_cannot_exceed_total(self):
        with pytest.raises(ValidationError):
            CohortCell(exposed_cases=5, exposed_total=4,
                       unexposed_cases=0, unexposed_total=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            CohortCell(exposed_cases=-1, exposed_total=4,
                       unexposed_cases=0, unexposed_total=1)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValidationError):
            CohortCell(exposed_cases=1.5, exposed_total=4,
                       unexposed_cases=0, unexposed_total=1)

    def test_zero_margin_flagged_and_risks_raise(self):
        cell = CohortCell(exposed_cases=0, exposed_total=0,
                          unexposed_cases=1, unexposed_total=2)
        assert cell.has_zero_margin
        with pytest.raises(ValidationError):
            cell.risks()

    def test_addition_adds_counts(self):
        a = CohortCell(exposed_cases=1, exposed_total=2,
                       unexposed_cases=3, unexposed_total=4)
        b = CohortCell(exposed_cases=5, exposed_total=6,
                       unexposed_cases=7, unexposed_total=8)
        assert (a + b) == CohortCell(exposed_cases=6, exposed_total=8,
                                     unexposed_cases=10, unexposed_total=12)


class TestStratifiedCohortTable:
    def test_whickham_collapse_reproduces_crude_counts(self, whickham,
                                                       whickham_crude):
        assert whickham.collapse() == whickham_crude.cells[0]
        whickham.verify_crude(whickham_crude.cells[0])

    def test_verify_crude_rejects_mismatched_counts(self, whickham):
        wrong = CohortCell(exposed_cases=1, exposed_total=2,
                           unexposed_cases=1, unexposed_total=2)
        with pytest.raises(ValidationError, match="stratum sum"):
            whickham.verify_crude(wrong)

    def test_stratum_risks(self, whickham):
        x, y = whickham.cells[0].risks()
        assert x == pytest.approx(0.1206, abs=5e-5)
        assert y == pytest.approx(0.1820, abs=5e-5)
        x, y = whickham.cells[1].risks()
        assert x == pytest.approx(0.8549, abs=5e-5)
        assert y == pytest.approx(0.8571, abs=5e-5)

    def test_duplicate_labels_rejected(self):
        cell = CohortCell(exposed_cases=1, exposed_total=2,
                          unexposed_cases=1, unexposed_total=2)
        with pytest.raises(ValidationError):
            StratifiedCohortTable(strata=(("a", cell), ("a", cell)))

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            StratifiedCohortTable(strata=())

    def test_zero_margin_strata_listed(self, whickham):
        assert whickham.zero_margin_strata == ()
        t = StratifiedCohortTable(strata=(
            ("a", CohortCell(exposed_cases=0, exposed_total=0,
                             unexposed_cases=1, unexposed_total=2)),))
        assert t.zero_margin_strata == ("a",)


class TestCsv:
    def test_round_trip_preserves_strata(self, whickham):
        # CSV carries counts only, so compare strata rather than labels
        text = serialize_table(whickham, format="csv")
        assert parse_table(text, format="csv").strata == whickham.strata

    def test_header_must_match(self):
        with pytest.raises(ParseError, match="header"):
            parse_table("a,b,c\n1,2,3\n", format="csv")

    def test_row_width_error_names_line(self):
        text = ("stratum,exposed_cases,exposed_total,unexposed_cases,"
                "unexposed_total\nx,1,2,3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_table(text, format="csv")

    def test_non_integer_count_names_line(self):
        text = ("stratum,exposed_cases,exposed_total,unexposed_cases,"
                "unexposed_total\nx,1,2,3,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_table(text, format="csv")

    def test_invalid_counts_name_stratum(self):
        text = ("stratum,exposed_cases,exposed_total,unexposed_cases,"
                "unexposed_total\nx,5,2,3,4\n")
        with pytest.raises(ValidationError, match="'x'"):
            parse_table(text, format="csv")

    def test_empty_body_rejected(self):
        text = ("stratum,exposed_cases,exposed_total,unexposed_cases,"
                "unexposed_total\n")
        with pytest.raises((ParseError, ValidationError)):
            parse_table(text, format="csv")


class TestJson:
    def test_round_trip(self, whickham):
        text = serialize_table(whickham, format="json")
        assert parse_table(text, format="json") == whickham

    def test_labels_preserved(self, whickham):
        data = json.loads(serialize_table(whickham, format="json"))
        assert data["labels"] == {"exposure": "smoker", "outcome": "death",
                                  "covariate": "age"}

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_table('{"strata": [{"label": "a"}]}', format="json")

    def test_unknown_format_rejected(self, whickham):
        with pytest.raises(ParseError):
            parse_table("x", format="xml")
        with pytest.raises(ParseError):
            serialize_table(whickham, format="xml")



class TestSources:
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("source", [
        str, str.encode, io.StringIO, lambda text: io.BytesIO(text.encode())],
        ids=["str", "bytes", "text_file", "binary_file"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_source_reads_the_table(self, whickham, fmt, source, bom):
        # spreadsheets often save a UTF-8 byte-order mark first
        text = serialize_table(whickham, format=fmt)
        assert parse_table(source(bom + text), format=fmt) == \
            parse_table(text, format=fmt)


counts = st.integers(min_value=0, max_value=10_000)


@st.composite
def tables(draw, max_strata=5):
    k = draw(st.integers(min_value=1, max_value=max_strata))
    strata = []
    for i in range(k):
        et = draw(counts)
        ut = draw(counts)
        ec = draw(st.integers(min_value=0, max_value=et))
        uc = draw(st.integers(min_value=0, max_value=ut))
        strata.append((f"s{i}", CohortCell(
            exposed_cases=ec, exposed_total=et,
            unexposed_cases=uc, unexposed_total=ut)))
    return StratifiedCohortTable(strata=tuple(strata))


@given(tables())
def test_csv_round_trip_property(table):
    assert parse_table(serialize_table(table, format="csv"),
                       format="csv") == table


@given(tables())
def test_json_round_trip_property(table):
    assert parse_table(serialize_table(table, format="json"),
                       format="json") == table


@given(tables())
def test_collapse_sums_every_count(table):
    total = table.collapse()
    assert total.exposed_cases == sum(c.exposed_cases for c in table.cells)
    assert total.exposed_total == sum(c.exposed_total for c in table.cells)
    assert total.unexposed_cases == sum(c.unexposed_cases for c in table.cells)
    assert total.unexposed_total == sum(c.unexposed_total for c in table.cells)
