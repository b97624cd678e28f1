"""Table model, parsing, and serialization."""

import csv
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from rothman.errors import ParseError, ValidationError, ZeroMarginError
from rothman.glm import ModelSpec, fit
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

    def test_cases_cannot_exceed_total(self):
        with pytest.raises(ValidationError):
            CohortCell(exposed_cases=5, exposed_total=4,
                       unexposed_cases=0, unexposed_total=1)
        with pytest.raises(ValidationError, match="unexposed_cases 5 exceeds"):
            CohortCell(exposed_cases=0, exposed_total=1,
                       unexposed_cases=5, unexposed_total=4)

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
        with pytest.raises(TypeError):
            a + 1


class TestStratifiedCohortTable:
    def test_whickham_collapse_reproduces_crude_counts(self, whickham,
                                                       whickham_crude):
        assert whickham.collapse() == whickham_crude.cells[0]

    def test_collapse_differs_from_mismatched_counts(self, whickham):
        wrong = CohortCell(exposed_cases=1, exposed_total=2,
                           unexposed_cases=1, unexposed_total=2)
        assert whickham.collapse() != wrong

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
        with pytest.raises(ValidationError, match="not a CohortCell"):
            StratifiedCohortTable(strata=(("a", cell), ("b", (1, 2, 1, 2))))

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            StratifiedCohortTable(strata=())

    def test_a_fit_names_the_zero_margin_stratum(self):
        # a table with a zero-total exposure group is accepted, and a fit
        # names the first such stratum
        t = StratifiedCohortTable(strata=(
            ("a", CohortCell(exposed_cases=1, exposed_total=2,
                             unexposed_cases=1, unexposed_total=2)),
            ("b", CohortCell(exposed_cases=0, exposed_total=0,
                             unexposed_cases=1, unexposed_total=2))))
        with pytest.raises(ZeroMarginError, match="stratum 'b'"):
            fit(ModelSpec(link="logit", terms="exposure_only", table=t))


HEADER = ("stratum,exposed_cases,exposed_total,unexposed_cases,"
          "unexposed_total")
# labels that CSV must quote: a comma, and double quotes
QUOTED = StratifiedCohortTable(strata=(
    ("a,b", CohortCell(1, 2, 0, 3)), ('say "hi"', CohortCell(0, 1, 1, 1))))


class TestCsv:
    def test_text_is_pinned(self, whickham):
        assert serialize_table(whickham, format="csv") == (
            HEADER + "\n18-64,97,533,65,539\n65+,42,49,165,193\n")
        assert serialize_table(QUOTED, format="csv") == (
            HEADER + '\n"a,b",1,2,0,3\n"say ""hi""",0,1,1,1\n')

    def test_round_trip_preserves_strata(self, whickham):
        # CSV carries counts only, so compare strata rather than labels
        text = serialize_table(whickham, format="csv")
        assert parse_table(text, format="csv").strata == whickham.strata

    @given(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    @example(["b\rc"])
    @example([" a"])
    def test_every_label_round_trips_or_is_refused(self, labels):
        # the reader strips whitespace around a label and ends a row at the
        # carriage return the writer leaves unquoted, so the writer refuses
        # exactly those labels; every other label reads back unchanged
        table = StratifiedCohortTable(strata=tuple(
            (label, CohortCell(1, 2, 0, 3)) for label in labels))
        refused = any(label != label.strip() or "\r" in label
                      for label in labels)
        try:
            text = serialize_table(table, format="csv")
        except ValidationError as exc:
            assert refused and "cannot be written to CSV" in str(exc)
            return
        assert not refused
        assert parse_table(text, format="csv") == table

    def test_a_label_longer_than_the_field_limit_is_refused(self):
        label = "x" * (csv.field_size_limit() + 1)
        table = StratifiedCohortTable(strata=((label, CohortCell(1, 2, 0, 3)),))
        with pytest.raises(ValidationError, match="cannot be written to CSV"):
            serialize_table(table, format="csv")
        with pytest.raises(ParseError, match="line 2: field larger than"):
            parse_table(HEADER + f"\n{label},1,2,0,3\n", format="csv")

    def test_carriage_returns_end_rows(self):
        # old Mac line ends, and a quoted carriage return kept in its label
        text = HEADER + '\ra,1,2,0,3\r"b\rc",0,1,1,1\r'
        assert parse_table(text, format="csv").labels == ("a", "b\rc")

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

    @pytest.mark.parametrize("text", ["", "\n \n,,\n"], ids=["none", "blank"])
    def test_empty_input_rejected(self, text):
        with pytest.raises(ParseError, match="empty CSV input"):
            parse_table(text, format="csv")

    @pytest.mark.parametrize("text, error, message", [
        (HEADER + "\n\n\nx,1,2,oops,4\n", ParseError,
         "line 4: field 'unexposed_cases' is not an integer"),
        (HEADER + "\n\n\nx,1,2,5,4\n", ValidationError,
         "line 4, stratum 'x': unexposed_cases 5 exceeds"),
        ("\n\na,b,c\n", ParseError, "line 3: header must be"),
    ], ids=["count", "cases_above_total", "header"])
    def test_errors_after_blank_lines_name_the_source_line(self, text, error,
                                                           message):
        # blank lines are skipped, yet each error names the line it is on
        with pytest.raises(error, match=message):
            parse_table(text, format="csv")


class TestJson:
    def test_text_is_pinned(self, whickham):
        assert serialize_table(whickham, format="json") == """{
  "labels": {
    "exposure": "smoker",
    "outcome": "death",
    "covariate": "age"
  },
  "strata": [
    {
      "label": "18-64",
      "exposed_cases": 97,
      "exposed_total": 533,
      "unexposed_cases": 65,
      "unexposed_total": 539
    },
    {
      "label": "65+",
      "exposed_cases": 42,
      "exposed_total": 49,
      "unexposed_cases": 165,
      "unexposed_total": 193
    }
  ]
}
"""
        assert serialize_table(QUOTED, format="json") == r"""{
  "labels": {
    "exposure": "exposure",
    "outcome": "outcome",
    "covariate": "stratum"
  },
  "strata": [
    {
      "label": "a,b",
      "exposed_cases": 1,
      "exposed_total": 2,
      "unexposed_cases": 0,
      "unexposed_total": 3
    },
    {
      "label": "say \"hi\"",
      "exposed_cases": 0,
      "exposed_total": 1,
      "unexposed_cases": 1,
      "unexposed_total": 1
    }
  ]
}
"""

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

    @pytest.mark.parametrize("text, error, message", [
        ("[]", ParseError, "must be an object with a 'strata' array"),
        ('{"labels": {}}', ParseError, "must be an object with a 'strata'"),
        ('{"strata": []}', ParseError, "'strata' must be a non-empty array"),
        ('{"strata": {"a": 1}}', ParseError, "must be a non-empty array"),
        ('{"strata": [1]}', ParseError, r"strata\[0\] must be an object"),
        ('{"strata": [{"exposed_cases": 1}]}', ParseError,
         r"strata\[0\] is missing 'label'"),
        ('{"strata": [{"label": "a", "exposed_cases": 1.0, "exposed_total": 2,'
         ' "unexposed_cases": 1, "unexposed_total": 2}]}', ParseError,
         "'exposed_cases' must be an integer, got 1.0"),
        ('{"strata": [{"label": "a", "exposed_cases": 3, "exposed_total": 2,'
         ' "unexposed_cases": 1, "unexposed_total": 2}]}', ValidationError,
         "stratum 'a': exposed_cases 3 exceeds"),
        ('{"strata": [{"label": "a", "exposed_cases": 1, "exposed_total": 2,'
         ' "unexposed_cases": 1, "unexposed_total": 2}], "labels": []}',
         ParseError, "'labels' must be an object"),
    ], ids=["not_an_object", "no_strata", "empty_strata", "strata_not_a_list",
            "entry_not_an_object", "missing_label", "float_count",
            "cases_above_total", "labels_not_an_object"])
    def test_malformed_json_names_what_is_wrong(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_table(text, format="json")

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
