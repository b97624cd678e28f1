"""End-to-end analysis reports: flags, estimates, JSON stability."""

import json
import math

import pytest

from rothman import glm
from rothman.diagnostics import (CONFOUNDING_NOTE, INDETERMINATE, OFF_SEGMENT,
                                 ON_SEGMENT, AnalysisReport, analyze,
                                 collapsibility_report_json)
from rothman.errors import ValidationError
from rothman.geometry import Containment, StandardPopulation
from rothman.measures import Measure

# Frozen adjusted estimates per measure (see the model-fitting tests for
# the full set of pinned inference numbers these agree with).
CRUDE_ESTIMATES = (0.684837, 0.760108, -0.075376, 0.723528)
COMMON_ESTIMATES = (1.537226, 1.061626, 0.052320, 1.316260)
INTERACTION_P = (0.353124, 0.009901, 0.299956, 0.085822)


@pytest.fixture(scope="module")
def whickham_report(whickham):
    return analyze(whickham)


class TestAnalyzeWhickham:
    def test_report_type(self, whickham_report):
        assert isinstance(whickham_report, AnalysisReport)

    def test_confounding_flag(self, whickham_report):
        assert whickham_report.confounding_flag == OFF_SEGMENT
        assert whickham_report.crude_containment is Containment.OUTSIDE
        assert whickham_report.confounding_note == CONFOUNDING_NOTE

    def test_points(self, whickham_report):
        assert whickham_report.crude_point.coords == pytest.approx(
            (0.314208, 0.238832), abs=5e-7)
        assert [p.tag for p in whickham_report.stratum_points] == \
            ["stratum:18-64", "stratum:65+"]

    def test_standardized_points(self, whickham_report):
        named = dict(whickham_report.standardized_points)
        assert set(named) == {"study_sample", "exposed", "unexposed"}
        assert named["study_sample"].coords == pytest.approx(
            (0.255835, 0.306332), abs=5e-7)
        assert named["exposed"].y == whickham_report.crude_point.y
        assert named["unexposed"].x == whickham_report.crude_point.x

    def test_measure_entries_in_enum_order(self, whickham_report):
        entries = whickham_report.measures
        assert [e.measure for e in entries] == list(Measure)
        assert [e.link for e in entries] == ["logit", "log", "identity",
                                             "cloglog"]
        for e, crude, common, ip in zip(entries, CRUDE_ESTIMATES,
                                        COMMON_ESTIMATES, INTERACTION_P):
            assert e.error is None
            assert e.crude_estimate == pytest.approx(crude, abs=1e-6)
            assert e.common_estimate == pytest.approx(common, abs=1e-6)
            assert e.interaction_p_value == pytest.approx(ip, abs=1e-6)
            assert e.crude_interval.lower < crude < e.crude_interval.upper
            assert e.modification is not None
            assert e.modification.present

    def test_collapsibility_entries(self, whickham_report):
        by_measure = {m: (rep, err)
                      for m, rep, err in whickham_report.collapsibility}
        orr, _ = by_measure[Measure.ODDS_RATIO]
        assert not orr.collapsible_here
        assert orr.min_value == pytest.approx(1.228750, abs=1e-6)
        assert orr.max_value == pytest.approx(1.537226, abs=1e-6)
        hr, _ = by_measure[Measure.HAZARD_RATIO]
        assert not hr.collapsible_here
        assert hr.min_value == pytest.approx(1.168106, abs=1e-6)
        for m in (Measure.RISK_RATIO, Measure.RISK_DIFFERENCE):
            rep, err = by_measure[m]
            assert err is None
            assert rep.collapsible_here
            assert rep.max_value - rep.min_value <= 1e-9

    def test_interval_level_propagates(self, whickham):
        report = analyze(whickham, level=0.9)
        for e in report.measures:
            assert e.crude_interval.level == 0.9
            assert e.common_interval.level == 0.9

    def test_large_cohort_analyses_without_errors(self, whickham,
                                                  scale_table):
        # Whickham with every count times 1000: the fits' stopping rule
        # scales with the counts, so no measure fails to converge.
        report = analyze(scale_table(whickham, 1000))
        assert [e.error for e in report.measures] == [None] * 4
        assert [err for _, _, err in report.collapsibility] == [None] * 4


class TestAnalyzeFlags:
    def test_identical_strata_on_segment(self, identical_strata_table):
        report = analyze(identical_strata_table)
        assert report.confounding_flag == ON_SEGMENT
        assert report.crude_containment is Containment.BOUNDARY

    def test_interior_crude_with_three_strata_indeterminate(
            self, interior_crude_k3_table):
        report = analyze(interior_crude_k3_table)
        assert report.confounding_flag == INDETERMINATE
        assert report.crude_containment is Containment.INSIDE

    def test_confounded_without_modification(self, independence_tables):
        report = analyze(independence_tables[(True, False)])
        assert report.confounding_flag == OFF_SEGMENT
        rd = report.measures[2]
        assert rd.measure is Measure.RISK_DIFFERENCE
        assert not rd.modification.present

    def test_modification_without_confounding(self, independence_tables):
        report = analyze(independence_tables[(False, True)])
        assert report.confounding_flag == ON_SEGMENT
        rd = report.measures[2]
        assert rd.modification.present

    def test_modification_tolerance_forwarded(self, whickham):
        report = analyze(whickham, em_tol=10.0)
        for e in report.measures:
            assert not e.modification.present


class TestDegradedTables:
    def test_boundary_data_degrades_measures_not_geometry(
            self, zero_exposed_cases_table):
        report = analyze(zero_exposed_cases_table)
        assert report.confounding_flag == ON_SEGMENT
        for e in report.measures:
            assert e.error is not None
            assert e.error.startswith("NonConvergenceError")
            assert math.isnan(e.crude_estimate)
        by_measure = {m: (rep, err) for m, rep, err in report.collapsibility}
        assert by_measure[Measure.RISK_DIFFERENCE][0] is None
        assert by_measure[Measure.RISK_DIFFERENCE][1].startswith(
            "NonConvergenceError")
        for m in (Measure.ODDS_RATIO, Measure.RISK_RATIO,
                  Measure.HAZARD_RATIO):
            assert by_measure[m][0] is not None

    def test_single_stratum_report(self, whickham_crude):
        report = analyze(whickham_crude)
        assert report.confounding_flag == ON_SEGMENT
        for e in report.measures:
            assert e.error is None
            assert e.common_estimate == e.crude_estimate
            assert e.stratum_estimates == (e.crude_estimate,)
            assert e.modification is None
        for _, rep, err in report.collapsibility:
            assert rep is None
            assert err == "needs at least two strata"


class TestCustomStandards:
    def test_custom_standard_adds_a_point(self, whickham):
        std = StandardPopulation(weights=(0.5, 0.5))
        report = analyze(whickham, custom_standards={"even": std})
        named = dict(report.standardized_points)
        assert "even" in named
        lo = report.stratum_points[0]
        hi = report.stratum_points[1]
        assert named["even"].x == pytest.approx((lo.x + hi.x) / 2, abs=1e-12)

    def test_wrong_weight_count_rejected(self, whickham):
        std = StandardPopulation(weights=(1.0,))
        with pytest.raises(ValidationError, match="'bad'"):
            analyze(whickham, custom_standards={"bad": std})


class TestJsonReport:
    def test_round_trips_through_json(self, whickham_report):
        doc = json.loads(whickham_report.to_json())
        assert doc == whickham_report.to_json_dict()

    def test_top_level_shape(self, whickham_report):
        doc = whickham_report.to_json_dict()
        assert set(doc) == {"labels", "points", "confounding", "measures",
                            "collapsibility"}
        assert doc["labels"] == {"exposure": "smoker", "outcome": "death",
                                 "covariate": "age"}
        assert doc["confounding"]["flag"] == "off_segment"
        assert doc["confounding"]["crude_containment"] == "outside"
        assert doc["confounding"]["note"] == CONFOUNDING_NOTE

    def test_numbers_carry_six_digit_and_full_forms(self, whickham_report):
        doc = whickham_report.to_json_dict()
        crude = doc["points"]["crude"]
        assert crude["x"] == 0.314208
        assert crude["x_full"] == 0.31420765027322406
        assert crude["tag"] == "crude"
        est = doc["measures"][0]
        assert est["crude_estimate"] == 0.684837
        assert abs(est["crude_estimate_full"] - 0.684837) < 1e-6

    def test_points_section(self, whickham_report):
        pts = whickham_report.to_json_dict()["points"]
        assert [s["label"] for s in pts["strata"]] == ["18-64", "65+"]
        assert set(pts["standardized"]) == {"study_sample", "exposed",
                                            "unexposed"}
        assert len(pts["hull_vertices"]) == 2
        assert pts["rectangle"]["x_min"] == 0.120594

    def test_nan_serialized_as_string(self, whickham_crude):
        # a single-stratum table has no interaction test, so its p-value
        # is nan and must survive strict JSON
        doc = analyze(whickham_crude).to_json_dict()
        entry = doc["measures"][0]
        assert entry["interaction_p_value"] == "nan"
        assert entry["interaction_p_value_full"] == "nan"
        json.loads(analyze(whickham_crude).to_json())

    def test_json_is_deterministic(self, whickham):
        assert analyze(whickham).to_json() == analyze(whickham).to_json()

    def test_collapsibility_section_matches_standalone_helper(
            self, whickham, whickham_report):
        assert whickham_report.to_json_dict()["collapsibility"] == \
            collapsibility_report_json(whickham)

    def test_measure_error_entries_are_compact(self,
                                               zero_exposed_cases_table):
        doc = analyze(zero_exposed_cases_table).to_json_dict()
        entry = doc["measures"][0]
        assert entry["error"].startswith("NonConvergenceError")
        assert "crude_estimate" not in entry


def test_whickham_analysis_irls_fit_count(monkeypatch, whickham):
    # Work-count gate on one analyze(whickham): the seed made 502 IRLS
    # fits in 2,849 iterations. These bounds may only go down.
    calls = []
    iterations = []
    real = glm._irls

    def counting(*args, **kwargs):
        calls.append(1)
        state = real(*args, **kwargs)
        iterations.append(state.iterations)
        return state

    monkeypatch.setattr(glm, "_irls", counting)
    analyze(whickham)
    assert len(calls) <= 76
    assert sum(iterations) <= 300
