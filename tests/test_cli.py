"""End-to-end tests of the command-line interface.

Each test drives ``cli.run`` directly and inspects exit status, stdout,
and the single-line JSON error envelope on stderr. File round trips go
through tmp_path.
"""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svg_utils as su
from rothman import __version__, cli, glm
from rothman.diagnostics import analyze, collapsibility_report_json
from rothman.errors import NonConvergenceError, ValidationError
from rothman.figures import figure_svg
from rothman.tables import parse_table, serialize_table
from rothman.whickham import builtin_table, six_strata_table, whickham_table

POPULATION_SPEC = {
    "stratum_probs": [0.5, 0.5],
    "exposure_probs": [0.25, 0.75],
    "po_probs": [[0.4, 0.2, 0.1, 0.3], [0.7, 0.1, 0.1, 0.1]],
}


@pytest.fixture
def run(capsys):
    def invoke(*args):
        code = cli.run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def cli_env(**settings):
    """The environment of a fresh `python -m rothman.cli`, with this tree's
    src first on its path."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, **settings, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def error_payload(err):
    doc = json.loads(err)
    return doc["error"]


class TestTopLevel:
    def test_version_exits_zero(self, run):
        code, out, _ = run("--version")
        assert code == 0
        assert out.strip() == f"rothman {__version__}"

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "analyze" in out
        assert "simulate" in out

    def test_missing_subcommand_is_a_usage_error(self, run):
        code, _, err = run()
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_a_usage_error(self, run):
        code, _, _ = run("frobnicate")
        assert code == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "whickham"], ["plot", "--figure", "5", "-o", "-"],
        ["--version"], ["--help"]])
    def test_a_closed_stdout_ends_with_status_1_and_no_error(self, argv,
                                                             unbuffered):
        # stdout is a pipe whose read end is closed, as when `| head` has
        # read its line: the first write fails with EPIPE when stdout is
        # unbuffered, and the last flush when it is buffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = cli_env(PYTHONUNBUFFERED=unbuffered)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rothman.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestAnalyze:
    def test_defaults_to_builtin_whickham(self, run):
        code, out, err = run("analyze")
        assert code == 0
        assert err == ""
        assert out == analyze(whickham_table()).to_json() + "\n"
        doc = json.loads(out)
        assert set(doc) == {"labels", "points", "confounding", "measures",
                            "collapsibility"}

    def test_builtin_six_strata(self, run):
        code, out, _ = run("analyze", "six_strata")
        assert code == 0
        assert len(json.loads(out)["points"]["strata"]) == 6
        with pytest.raises(ValidationError, match="unknown builtin table 'nope'"):
            builtin_table("nope")

    def test_output_file(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run("analyze", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == analyze(whickham_table()).to_json()

    def test_csv_file_input(self, run, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(serialize_table(whickham_table(), "csv"))
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert json.loads(out)["points"]["crude"]["x"] == 0.314208

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_with_a_byte_order_mark(self, run, tmp_path, fmt):
        path = tmp_path / f"table.{fmt}"
        path.write_text(serialize_table(whickham_table(), fmt),
                        encoding="utf-8")
        plain = run("analyze", str(path))
        path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert run("analyze", str(path)) == plain
        assert plain[0] == 0

    def test_boundary_maximum_is_reported_per_measure(self, run, tmp_path,
                                                      make_table):
        # Under the log link every stratum has a cell with no curvature
        # (4/4 exposed, 30/30 unexposed). The RR entries once carried a
        # no-information error; the fit now holds stratum b's unexposed
        # risk at exactly 1, and every entry has its results.
        table = make_table([("a", 4, 4, 16, 20), ("b", 10, 30, 30, 30)])
        path = tmp_path / "boundary.csv"
        path.write_text(serialize_table(table, "csv"))
        code, out, err = run("analyze", str(path))
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert all(entry["error"] is None
                   for entry in doc["measures"] + doc["collapsibility"])
        rr = [entry for entry in doc["collapsibility"]
              if entry["short"] == "RR"]
        assert rr[0]["stratum_values_full"][1] == pytest.approx(0.411765,
                                                                abs=1e-6)

    def test_an_endpoint_past_a_zero_cell_from_a_csv_file(self, run, tmp_path,
                                                           make_table):
        # The RD upper endpoint lies past the b where stratum a's unexposed
        # risk (0 cases in 1) reaches 0; it once came out as an error.
        table = make_table([("a", 13, 20, 0, 1), ("b", 14, 22, 1, 17)])
        path = tmp_path / "zero.csv"
        path.write_text(serialize_table(table, "csv"))
        code, out, err = run("analyze", str(path))
        assert (code, err) == (0, "")
        rd, = [entry for entry in json.loads(out)["measures"]
               if entry["short"] == "RD"]
        assert rd["common_interval"]["upper_full"] == pytest.approx(
            0.754275, abs=1e-6)

    @pytest.mark.parametrize("command", ["analyze", "collapse"])
    def test_a_stratum_without_cases(self, run, tmp_path, make_table,
                                     command):
        # Stratum s0 has no cases (0/5 vs 0/5): RR, OR and HR are undefined
        # there, which is an entry's error, not the command's.
        table = make_table([("s0", 0, 5, 0, 5), ("s1", 3, 10, 2, 10)])
        path = tmp_path / "no_cases.csv"
        path.write_text(serialize_table(table, "csv"))
        code, out, err = run(command, str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        rr, = [entry for entry in doc["collapsibility"]
               if entry["short"] == "RR"]
        assert rr["error"] is None
        assert rr["stratum_values_full"][0] == "nan"
        if command == "analyze":
            rr, = [entry for entry in doc["measures"]
                   if entry["short"] == "RR"]
            assert rr["error"].startswith("UndefinedMeasureError")

    def test_json_extension_inferred(self, run, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(serialize_table(whickham_table(), "json"))
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert json.loads(out) == analyze(whickham_table()).to_json_dict()

    def test_format_flag_overrides_extension(self, run, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(serialize_table(whickham_table(), "csv"))
        code, _, err = run("analyze", str(path))
        assert code == 1
        assert error_payload(err)["code"] == "validation"
        code, out, _ = run("analyze", str(path), "--format", "csv")
        assert code == 0
        assert json.loads(out)["points"]["crude"]["x"] == 0.314208

    def test_stdin_table(self, run, monkeypatch):
        text = serialize_table(whickham_table(), "csv")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run("analyze", "-")
        assert code == 0
        assert json.loads(out)["points"]["crude"]["y"] == 0.238832

    def test_missing_file_reports_io_error(self, run, tmp_path):
        code, _, err = run("analyze", str(tmp_path / "nope.csv"))
        assert code == 1
        payload = error_payload(err)
        assert payload["code"] == "io"
        assert payload["type"] == "FileNotFoundError"

    def test_malformed_table_reports_validation_error(self, run, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,table\n")
        code, _, err = run("analyze", str(path))
        assert code == 1
        payload = error_payload(err)
        assert payload["code"] == "validation"
        assert payload["type"] == "ParseError"
        assert payload["message"]
        assert "trace" not in payload

    def test_custom_weights_add_a_standardized_point(self, run):
        code, out, _ = run("analyze", "--weights", "0.5,0.5")
        assert code == 0
        std = json.loads(out)["points"]["standardized"]
        assert set(std) == {"study_sample", "exposed", "unexposed", "custom"}
        assert std["custom"]["x"] == 0.487758
        assert std["custom"]["y"] == 0.519566

    def test_weights_length_mismatch(self, run):
        code, _, err = run("analyze", "--weights", "0.2,0.3,0.5")
        assert code == 1
        assert "3 entries for 2 strata" in error_payload(err)["message"]

    def test_non_numeric_weights(self, run):
        code, _, err = run("analyze", "--weights", "a,b")
        assert code == 1
        assert error_payload(err)["code"] == "validation"

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_rejected(self, run, tol):
        code, _, err = run("analyze", "--tol", tol)
        assert code == 1
        payload = error_payload(err)
        assert payload["type"] == "ValidationError"
        assert "tolerance" in payload["message"]

    def test_nan_weights_rejected(self, run):
        code, _, err = run("analyze", "--weights", "nan,0.5")
        assert code == 1
        payload = error_payload(err)
        assert payload["type"] == "ValidationError"
        assert "finite" in payload["message"]

    def test_level_changes_intervals(self, run):
        _, narrow, _ = run("analyze", "--level", "0.5")
        _, wide, _ = run("analyze", "--level", "0.99")
        lo_narrow = json.loads(narrow)["measures"][0]["crude_interval"]
        lo_wide = json.loads(wide)["measures"][0]["crude_interval"]
        assert lo_narrow["level"] == 0.5
        assert lo_wide["level"] == 0.99
        assert lo_wide["lower"] < lo_narrow["lower"]
        assert lo_wide["upper"] > lo_narrow["upper"]


class TestStandardize:
    def test_default_emits_all_three_presets(self, run):
        code, out, _ = run("standardize")
        assert code == 0
        entries = json.loads(out)["standardized"]
        assert [e["name"] for e in entries] == ["study_sample", "exposed",
                                                "unexposed"]
        by_name = {e["name"]: e for e in entries}
        assert by_name["study_sample"]["x"] == 0.255835
        assert by_name["study_sample"]["y"] == 0.306332
        assert by_name["exposed"]["x"] == 0.182419
        assert by_name["exposed"]["y_full"] == 0.23883161512027493
        assert by_name["unexposed"]["x_full"] == 0.31420765027322406
        assert by_name["unexposed"]["y"] == 0.360001

    def test_single_preset(self, run):
        code, out, _ = run("standardize", "--preset", "exposed")
        assert code == 0
        entries = json.loads(out)["standardized"]
        assert len(entries) == 1
        assert entries[0]["name"] == "exposed"
        assert entries[0]["weights"] == pytest.approx([533 / 582, 49 / 582])

    def test_repeated_presets_keep_order(self, run):
        code, out, _ = run("standardize", "--preset", "unexposed",
                           "--preset", "study_sample")
        assert code == 0
        entries = json.loads(out)["standardized"]
        assert [e["name"] for e in entries] == ["unexposed", "study_sample"]

    def test_weights_alone_emit_only_custom(self, run):
        code, out, _ = run("standardize", "--weights", "0.25,0.75")
        assert code == 0
        entries = json.loads(out)["standardized"]
        assert [e["name"] for e in entries] == ["custom"]
        assert entries[0]["weights"] == [0.25, 0.75]

    def test_preset_and_weights_combine(self, run):
        code, out, _ = run("standardize", "--preset", "exposed",
                           "--weights", "0.5,0.5")
        assert code == 0
        names = [e["name"] for e in json.loads(out)["standardized"]]
        assert names == ["exposed", "custom"]

    def test_non_finite_weights_rejected(self, run):
        for raw in ("nan,0.5", "0.5,nan", "inf,0.5"):
            code, _, err = run("standardize", "--weights", raw)
            assert code == 1
            payload = error_payload(err)
            assert payload["type"] == "ValidationError"
            assert "finite" in payload["message"]

    def test_unknown_preset_rejected(self, run):
        code, _, err = run("standardize", "--preset", "bogus")
        assert code == 1
        assert "invalid choice" in err


class TestCollapse:
    def test_matches_library_report(self, run):
        code, out, _ = run("collapse")
        assert code == 0
        assert json.loads(out) == {
            "collapsibility": collapsibility_report_json(whickham_table())}

    def test_output_file(self, run, tmp_path):
        target = tmp_path / "collapse.json"
        code, out, _ = run("collapse", "six_strata", "-o", str(target))
        assert code == 0
        assert out == ""
        json.loads(target.read_text())


class TestPlot:
    def test_default_filename_in_cwd(self, run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("plot", "--figure", "1")
        assert code == 0
        assert out == "fig1_standardized_points.svg\n"
        written = (tmp_path / "fig1_standardized_points.svg").read_text()
        assert written == figure_svg(1)

    def test_explicit_output_path(self, run, tmp_path):
        target = tmp_path / "diagram.svg"
        code, out, _ = run("plot", "--figure", "2", "-o", str(target))
        assert code == 0
        assert out == f"{target}\n"
        assert target.read_text() == figure_svg(2)

    def test_dash_output_writes_the_svg_to_stdout(self, run, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("plot", "--figure", "1", "-o", "-")
        assert code == 0
        assert out.startswith("<?xml")
        assert out == figure_svg(1)
        assert not (tmp_path / "-").exists()

    def test_figure4_defaults_to_six_strata_fixture(self, run, tmp_path):
        target = tmp_path / "hull.svg"
        code, _, _ = run("plot", "--figure", "4", "-o", str(target))
        assert code == 0
        assert target.read_text() == figure_svg(4, six_strata_table())

    def test_table_argument_feeds_the_figure(self, run, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(serialize_table(six_strata_table(), "csv"))
        target = tmp_path / "out.svg"
        code, _, _ = run("plot", str(path), "--figure", "1",
                         "-o", str(target))
        assert code == 0
        expected = figure_svg(1, parse_table(path.read_text(), format="csv"))
        assert target.read_text() == expected
        assert len(su.circles(su.parse_svg(expected))) == 10

    def test_figure_flag_is_required(self, run):
        code, _, err = run("plot")
        assert code == 1
        assert "--figure" in err

    def test_unknown_figure_number(self, run):
        code, _, err = run("plot", "--figure", "9")
        assert code == 1
        assert "invalid choice" in err

    def test_nonconvergent_fit_exits_two(self, run, tmp_path, monkeypatch,
                                          zero_exposed_cases_table):
        # figure 6's RD fit takes 6 iterations, 3 past the cap set here
        monkeypatch.setattr(glm, "MAX_ITERATIONS", 3)
        path = tmp_path / "boundary.csv"
        path.write_text(serialize_table(zero_exposed_cases_table, "csv"))
        code, _, err = run("plot", str(path), "--figure", "6",
                           "-o", str(tmp_path / "fig.svg"))
        assert code == 2
        payload = error_payload(err)
        assert payload["code"] == "numerical"
        assert payload["type"] == "NonConvergenceError"
        # figure 6 fits the risk difference's no-interaction model
        with pytest.raises(NonConvergenceError) as failed:
            glm.fit(glm.ModelSpec(link="identity",
                                  terms="exposure_plus_stratum",
                                  table=zero_exposed_cases_table))
        assert payload["message"] == str(failed.value)
        assert failed.value.trace
        assert payload["trace"] == [
            v if math.isfinite(v) else str(v) for v in failed.value.trace]

    def test_an_undefined_measure_exits_one(self, run, tmp_path, make_table):
        # Neither stratum has cases, so the fitted points sit at (0, 0),
        # where the odds ratio of figure 7 is 0/0 over the whole domain.
        path = tmp_path / "no_cases.csv"
        path.write_text(serialize_table(make_table(
            [("s0", 0, 5, 0, 7), ("s1", 0, 4, 0, 9)]), "csv"))
        target = tmp_path / "fig.svg"
        code, out, err = run("plot", str(path), "--figure", "7",
                             "-o", str(target))
        assert (code, out) == (1, "")
        assert error_payload(err) == {
            "code": "validation", "type": "UndefinedMeasureError",
            "message": "odds ratio is undefined over the whole standardized "
                       "domain"}
        assert not target.exists()

    @pytest.mark.parametrize("name, label", [
        ("table.csv", "a\x0bb"), ("table.csv", "a\x00b"),
        ("table.json", "a\ud800b")], ids=["vt-csv", "nul-csv", "lone-json"])
    def test_a_label_xml_cannot_hold_exits_one(self, run, tmp_path, make_table,
                                               name, label):
        table = make_table([(label, 97, 533, 65, 539),
                            ("65+", 42, 49, 165, 193)])
        path = tmp_path / name
        path.write_text(serialize_table(table, name.split(".")[1]),
                        encoding="utf-8")
        target = tmp_path / "out.svg"
        code, out, err = run("plot", str(path), "--figure", "1",
                             "-o", str(target))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert error_payload(err) == {
            "code": "validation", "type": "ValidationError",
            "message": f"text {label!r} holds a character that XML 1.0 does "
                       f"not allow"}
        assert not target.exists()

    def test_a_label_with_markup_characters_renders(self, run, tmp_path,
                                                    make_table):
        path = tmp_path / "table.csv"
        path.write_text(serialize_table(make_table(
            [("a&<>b", 97, 533, 65, 539), ("65+", 42, 49, 165, 193)]), "csv"))
        target = tmp_path / "out.svg"
        code, _, _ = run("plot", str(path), "--figure", "1", "-o", str(target))
        assert code == 0
        assert "a&<>b" in su.texts(su.parse_svg(target.read_text()))

    def test_unwritable_output_reports_io_error(self, run, tmp_path):
        target = tmp_path / "missing_dir" / "fig.svg"
        code, _, err = run("plot", "--figure", "1", "-o", str(target))
        assert code == 1
        assert error_payload(err)["code"] == "io"


class TestSimulate:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "population.json"
        path.write_text(json.dumps(POPULATION_SPEC))
        return str(path)

    def test_golden_sample(self, run, spec_path):
        code, out, _ = run("simulate", spec_path, "--n", "400",
                           "--seed", "20260815")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 400
        assert doc["seed"] == 20260815
        assert doc["spec"] == POPULATION_SPEC
        strata = doc["table"]["strata"]
        assert [s["label"] for s in strata] == ["s1", "s2"]
        assert strata[0] == {"label": "s1", "exposed_cases": 26,
                             "exposed_total": 45, "unexposed_cases": 66,
                             "unexposed_total": 142}
        assert strata[1]["exposed_total"] == 161
        assert strata[1]["unexposed_cases"] == 20

    def test_truth_section(self, run, spec_path):
        _, out, _ = run("simulate", spec_path, "--n", "10")
        truth = json.loads(out)["truth"]
        assert truth["confounded"] is True
        assert truth["crude_point"]["x"] == 0.35
        assert truth["crude_point"]["y"] == 0.275
        assert truth["marginal_causal_point"]["x"] == 0.3
        assert truth["marginal_causal_point"]["y"] == 0.35
        assert [p["x"] for p in truth["causal_points"]] == [0.4, 0.2]

    def test_same_seed_reproduces_output(self, run, spec_path):
        _, first, _ = run("simulate", spec_path, "--n", "100", "--seed", "7")
        _, second, _ = run("simulate", spec_path, "--n", "100", "--seed", "7")
        assert first == second

    def test_different_seeds_differ(self, run, spec_path):
        _, first, _ = run("simulate", spec_path, "--n", "500", "--seed", "1")
        _, second, _ = run("simulate", spec_path, "--n", "500", "--seed", "2")
        assert json.loads(first)["table"] != json.loads(second)["table"]

    def test_spec_from_stdin(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            POPULATION_SPEC)))
        code, out, _ = run("simulate", "-", "--n", "50", "--seed", "3")
        assert code == 0
        assert json.loads(out)["n"] == 50

    def test_nonpositive_n_rejected(self, run, spec_path):
        code, _, err = run("simulate", spec_path, "--n", "0")
        assert code == 1
        assert "--n must be positive" in error_payload(err)["message"]

    def test_negative_seed_rejected(self, run, spec_path):
        code, out, err = run("simulate", spec_path, "--n", "10",
                             "--seed", "-1")
        assert code == 1
        assert out == ""
        payload = error_payload(err)
        assert payload["type"] == "ValidationError"
        assert "seed" in payload["message"]

    @pytest.mark.parametrize("field", ["stratum_probs", "exposure_probs",
                                       "po_probs"])
    def test_nan_probability_rejected(self, run, tmp_path, field):
        spec = json.loads(json.dumps(POPULATION_SPEC))
        if field == "po_probs":
            spec[field][1][0] = float("nan")
        else:
            spec[field][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))  # written as the token NaN
        code, out, err = run("simulate", str(path), "--n", "10")
        assert code == 1
        assert out == ""
        payload = error_payload(err)
        assert payload["type"] == "ValidationError"
        assert "must lie in [0, 1]" in payload["message"]

    def test_boolean_probability_rejected(self, run, tmp_path):
        spec = json.loads(json.dumps(POPULATION_SPEC))
        spec["po_probs"][0] = [True, False, False, False]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(spec))  # written as true and false
        code, out, err = run("simulate", str(path), "--n", "10")
        assert code == 1
        assert out == ""
        payload = error_payload(err)
        assert payload["type"] == "ValidationError"
        assert "must lie in [0, 1]" in payload["message"]

    def test_zero_probability_cell_fails_before_sampling(self, run, tmp_path,
                                                         monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sample_table was called")

        monkeypatch.setattr(cli, "sample_table", no_sampling)
        spec = dict(POPULATION_SPEC, exposure_probs=[1.0, 0.5])
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(spec))
        code, out, err = run("simulate", str(path), "--n", "1000000")
        assert code == 1
        assert out == ""
        assert "has probability zero" in error_payload(err)["message"]

    def test_n_flag_is_required(self, run, spec_path):
        code, _, err = run("simulate", spec_path)
        assert code == 1
        assert "--n" in err

    def test_invalid_spec_json(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run("simulate", str(path), "--n", "10")
        assert code == 1
        assert error_payload(err)["type"] == "ParseError"

    def test_missing_spec_key(self, run, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"stratum_probs": [1.0]}))
        code, _, err = run("simulate", str(path), "--n", "10")
        assert code == 1
        message = error_payload(err)["message"]
        assert "exposure_probs" in message
        assert "po_probs" in message


class TestParserReuse:
    """`run` builds its parser once; no call may leave state behind in it."""

    def test_preset_does_not_stick(self, run):
        code, out, _ = run("standardize", "whickham", "--preset", "exposed")
        assert code == 0
        assert len(json.loads(out)["standardized"]) == 1
        code, out, _ = run("standardize", "whickham")
        assert code == 0
        assert [e["name"] for e in json.loads(out)["standardized"]] == \
            ["study_sample", "exposed", "unexposed"]

    def test_calls_after_errors_match_a_fresh_process(self, run, tmp_path,
                                                      monkeypatch):
        # argparse wraps usage text to COLUMNS, so both sides get one width
        monkeypatch.setenv("COLUMNS", "80")
        env = cli_env()
        svg = tmp_path / "fig5.svg"
        for argv in (["plot", "--figure", "9"], ["--version"],
                     ["plot", "--figure", "5", "-o", str(svg)]):
            shared = run(*argv)
            shared_svg = svg.read_bytes() if svg.exists() else None
            fresh = subprocess.run(
                [sys.executable, "-m", "rothman.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert shared == (fresh.returncode, fresh.stdout, fresh.stderr)
            if shared_svg is not None:
                assert svg.read_bytes() == shared_svg
        assert shared_svg is not None
