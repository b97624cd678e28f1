"""End-to-end analysis reports: flags, estimates, JSON stability."""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
import test_golden
from rothman import glm
from rothman.diagnostics import (CONFOUNDING_NOTE, INDETERMINATE, OFF_SEGMENT,
                                 ON_SEGMENT, AnalysisReport, analyze,
                                 collapsibility_report_json, full_number)
from rothman.errors import NonConvergenceError, ValidationError
from rothman.geometry import Containment, StandardPopulation
from rothman.measures import Measure
from rothman.tables import CohortCell, StratifiedCohortTable

# Frozen adjusted estimates per measure (see the model-fitting tests for
# the full set of pinned inference numbers these agree with).
CRUDE_ESTIMATES = (0.684837, 0.760108, -0.075376, 0.723528)
COMMON_ESTIMATES = (1.537226, 1.061626, 0.052320, 1.316260)
INTERACTION_P = (0.353124, 0.009901, 0.299956, 0.085822)
# OR, RR, RD, HR of 30/300 exposed vs 90/300 unexposed, in closed form
CRUDE_ZERO_EXPOSED_CASES = ((1 / 9) / (3 / 7), 1 / 3, 0.1 - 0.3,
                            math.log(0.9) / math.log(0.7))


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


class TestDegradedTables:
    def test_a_boundary_table_gets_crude_and_stratified_results(self):
        # Every stratified fit meets the 4/4 and 30/30 cells, on the
        # boundary; the crude table, 14/34 vs 46/50, has none. The RR and
        # RD no-interaction fits once failed there, and their entries
        # carried only the crude results; a bound now holds those cells.
        table = StratifiedCohortTable(strata=(
            ("a", CohortCell(exposed_cases=4, exposed_total=4,
                             unexposed_cases=16, unexposed_total=20)),
            ("b", CohortCell(exposed_cases=10, exposed_total=30,
                             unexposed_cases=30, unexposed_total=30))))
        report = analyze(table)
        closed_form = {Measure.ODDS_RATIO: (14 / 20) / (46 / 4),
                       Measure.RISK_RATIO: (14 / 34) / (46 / 50),
                       Measure.RISK_DIFFERENCE: 14 / 34 - 46 / 50,
                       Measure.HAZARD_RATIO:
                           math.log(20 / 34) / math.log(4 / 50)}
        for e, entry in zip(report.measures, report.to_json_dict()["measures"]):
            assert e.error is None
            assert e.crude_estimate == pytest.approx(closed_form[e.measure],
                                                     rel=1e-12)
            expected = oracles.profile_interval(table, e.link, "exposure_only")
            got = (e.crude_interval.estimate, e.crude_interval.lower,
                   e.crude_interval.upper)
            for value, oracle in zip(got, expected):
                assert value == pytest.approx(float(oracle), rel=1e-12)
            assert 0.0 < e.crude_p_value < 1e-6
            assert entry["crude_estimate_full"] == e.crude_estimate
            assert entry["crude_interval"]["lower_full"] == \
                e.crude_interval.lower
            assert entry["crude_p_value_full"] == e.crude_p_value
            assert len(e.stratum_estimates) == 2
            assert "common_estimate" in entry

    def test_a_zero_cell_stratum_keeps_every_result(self, whickham):
        # Exposed 1/3 vs unexposed 0/5 once had no saturated fit under any
        # link, and each entry kept only the crude and common results. The
        # saturated fit is now the observed risks: the stratum's effect is
        # 1/3 on the RD and infinite on the ratios.
        sparse = CohortCell(exposed_cases=1, exposed_total=3,
                            unexposed_cases=0, unexposed_total=5)
        table = StratifiedCohortTable(strata=whickham.strata
                                      + (("sparse", sparse),))
        report = analyze(table)
        for e, entry in zip(report.measures, report.to_json_dict()["measures"]):
            assert e.error is None
            assert e.stratum_estimates[2] == (
                math.inf if e.measure.is_ratio else 1 / 3)
            fit = glm.fit(glm.ModelSpec(link=e.link,
                                        terms="exposure_plus_stratum",
                                        table=table))
            assert e.common_estimate == glm.exposure_estimate(fit)
            assert e.common_interval == glm.profile_interval(fit)
            assert e.interaction_p_value == glm.interaction_test(fit).p_value
            assert entry["common_estimate_full"] == e.common_estimate
            assert entry["common_interval"]["upper_full"] == \
                e.common_interval.upper
            assert entry["interaction_p_value_full"] == e.interaction_p_value
        odds_ratio, risk_difference = report.measures[0], report.measures[2]
        assert (odds_ratio.common_estimate, odds_ratio.common_interval.lower,
                odds_ratio.common_interval.upper) == pytest.approx(
                    (1.55924, 1.13518, 2.15456), rel=1e-5)
        assert (risk_difference.common_estimate,
                risk_difference.common_interval.lower,
                risk_difference.common_interval.upper) == pytest.approx(
                    (0.0544315, 0.0154628, 0.0929423), rel=1e-5)

    def test_boundary_data_gets_every_measure(self, zero_exposed_cases_table):
        # Stratum a's exposed cell has no cases in 200. Every entry once
        # carried an error and the RD had no collapsibility report; now each
        # has its results, stratum a's effect 0 on the ratios and -0.25 on
        # the RD.
        report = analyze(zero_exposed_cases_table)
        assert report.confounding_flag == ON_SEGMENT
        crude = dict(zip(Measure, CRUDE_ZERO_EXPOSED_CASES))
        for e in report.measures:
            assert e.error is None
            # the crude table (30/300 vs 90/300) has no boundary cell
            assert e.crude_estimate == pytest.approx(crude[e.measure],
                                                     rel=1e-12)
            assert e.stratum_estimates[0] == (
                0.0 if e.measure.is_ratio else -0.25)
        for _, rep, err in report.collapsibility:
            assert rep is not None and err is None

    def test_an_undefined_stratum_measure_is_its_entry_s_error(
            self, make_table):
        # Stratum s0 has no cases: its risks are (0, 0), where RR, OR and
        # HR are undefined (0/0). Effect modification raised that out of
        # analyze; now it is the entry's error, after its crude and common
        # results, and the RD, defined everywhere, keeps every result.
        table = make_table([("s0", 0, 5, 0, 5), ("s1", 3, 10, 2, 10)])
        report = analyze(table)
        for e in report.measures:
            assert e.crude_interval is not None
            assert e.common_interval is not None
            if e.measure.is_ratio:
                assert e.error == (
                    f"UndefinedMeasureError: {e.measure.label} is undefined "
                    "at stratum stratum:s0 (0.0, 0.0)")
                assert e.stratum_estimates == ()
            else:
                assert e.error is None
                assert e.stratum_estimates == (0.0, 0.1)
        assert all(err is None for _, _, err in report.collapsibility)

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

    def test_a_measure_undefined_on_every_fitted_point_has_no_report(
            self, make_table):
        # Neither stratum has cases, so every fitted risk is 0 and the
        # standardized domain is the one point (0, 0), where OR, RR and HR
        # are 0/0. Their collapsibility entries carry that error; the RD,
        # 0 there, gets its report.
        table = make_table([("s0", 0, 5, 0, 7), ("s1", 0, 4, 0, 9)])
        for m, rep, err in analyze(table).collapsibility:
            if m.is_ratio:
                assert rep is None
                assert err == (f"UndefinedMeasureError: {m.label} is "
                               "undefined over the whole standardized "
                               "domain")
            else:
                assert err is None
                assert rep.min_value == rep.max_value == 0.0
                assert rep.collapsible_here

    @pytest.mark.parametrize("cases", [(97, 65), (0, 0)])
    def test_a_bad_level_is_rejected_whatever_the_fits_do(self, make_table,
                                                          cases):
        # also on a table without cases, whose every fit fails
        exposed, unexposed = cases
        table = make_table([("a", exposed, 533, unexposed, 539),
                            ("b", 0, 49, 0, 193)])
        with pytest.raises(ValidationError, match="level"):
            analyze(table, level=2.0)


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
        assert [full_number(v) for v in (math.inf, -math.inf, 0.5)] == [
            "inf", "-inf", 0.5]

    def test_json_is_deterministic(self, whickham):
        assert analyze(whickham).to_json() == analyze(whickham).to_json()

    def test_collapsibility_section_matches_standalone_helper(
            self, whickham, whickham_report):
        assert whickham_report.to_json_dict()["collapsibility"] == \
            collapsibility_report_json(whickham)

    def test_measure_error_entries_are_compact(self, make_table):
        # the OR is undefined at stratum s0, which has no cases
        table = make_table([("s0", 0, 5, 0, 5), ("s1", 3, 10, 2, 10)])
        doc = analyze(table).to_json_dict()
        entry = doc["measures"][0]
        assert entry["error"].startswith("UndefinedMeasureError")
        # the crude and common results were computed; nothing after them was
        assert {"crude_estimate", "crude_interval", "crude_p_value",
                "common_estimate", "common_interval",
                "interaction_p_value"} <= set(entry)
        assert not {"stratum_estimates", "effect_modification"} & set(entry)


CRUDE_KEYS = {"crude_estimate", "crude_interval", "crude_p_value"}
COMMON_KEYS = {"common_estimate", "common_interval", "interaction_p_value"}


@pytest.mark.parametrize("forced", ["crude_interval", "common_fit",
                                    "common_interval"])
def test_an_entry_reports_crude_then_common_errors(
        irls_recorder, monkeypatch, whickham, forced):
    # One forced failure among a measure's crude and common results, on
    # Whickham. The entry names the first error of the crude results and
    # then of the common results, and keeps the results that were all in
    # before it. A failed endpoint problem gives its side's error text.
    def fits(specs):
        return [NonConvergenceError(f"forced {spec.terms} failure")
                if forced == "common_fit"
                and spec.terms == "exposure_plus_stratum" else result
                for spec, result in zip(specs, real_fits(specs))]

    real_fits = glm.fits
    monkeypatch.setattr(glm, "fits", fits)
    if forced != "common_fit":
        # the lower endpoint of the crude (problem 0) or common (2) fit
        failed = 0 if forced == "crude_interval" else 2
        irls_recorder.rewrite = lambda run: dataclasses.replace(
            run, b=np.where(np.arange(run.b.size) == failed, np.nan, run.b))
    entry = analyze(whickham).to_json_dict()["measures"][0]
    endpoint_error = (f"NonConvergenceError: no lower profile endpoint in "
                      f"{glm.PROFILE_MAX_STEPS} steps under the logit link")
    if forced == "crude_interval":
        assert entry["error"] == endpoint_error
        kept = set()
    else:
        kept = CRUDE_KEYS
        if forced == "common_fit":
            assert entry["error"] == (
                "NonConvergenceError: forced exposure_plus_stratum failure")
        else:
            assert entry["error"] == endpoint_error
    assert set(entry) & (CRUDE_KEYS | COMMON_KEYS) == kept
    assert not {"stratum_estimates", "effect_modification"} & set(entry)


@pytest.mark.parametrize("name", ["whickham", "six_strata"])
def test_analyze_fits_only_the_crude_and_common_models(monkeypatch, request,
                                                      name):
    # Each stratum's effect is read off its two cells, so no saturated
    # model is fitted: one glm.fits call holds the four measures'
    # exposure-only and no-interaction models, and nothing else.
    calls = []

    def fits(specs):
        calls.append([(spec.link, spec.terms) for spec in specs])
        return real_fits(specs)

    real_fits = glm.fits
    monkeypatch.setattr(glm, "fits", fits)
    report = analyze(request.getfixturevalue(name))
    assert calls == [[(m.link, terms) for terms in ("exposure_only",
                                                    "exposure_plus_stratum")
                      for m in Measure]]
    assert [e.error for e in report.measures] == [None] * 4


def _assert_analysis_work(recorder, table, passes):
    # One grouped run of the four free fits, then one holding the crude and
    # common endpoints of all four measures. These bounds may only go down.
    analyze(table)
    assert [call.joint for call in recorder.calls] == [False, True]
    assert not any(any(call.failed) for call in recorder.calls)
    assert sum(call.iterations for call in recorder.calls) <= passes


def test_whickham_analysis_irls_fit_count(irls_recorder, whickham):
    # Work-count gate on one analyze(whickham): the seed made 502 IRLS
    # fits in 2,849 iterations, bracketed profile endpoints 54 in 186, one
    # joint (alpha, b) solve an endpoint 20 in 86, one grouped run a
    # measure 8 in 37, four free fits and one grouped endpoint run 5 in 25.
    # One grouped free-fit run takes the passes of its slowest link: the
    # four links' fits take 4/7/5/4 iterations alone.
    _assert_analysis_work(irls_recorder, whickham, 12)


def test_six_strata_analysis_irls_fit_count(irls_recorder, six_strata):
    # One joint solve an endpoint made 20 runs in 93 iterations, one
    # grouped run a measure 8 in 44, four free fits and one grouped
    # endpoint run 5 in 32; the free fits take 5/10/7/5 iterations alone.
    _assert_analysis_work(irls_recorder, six_strata, 15)


def test_boundary_fits_finish_within_the_work_bound(irls_recorder,
                                                    make_table):
    # Work gate on tables with zero cells: the log fit of 2/2 vs 2/6 and
    # 2/4 vs 5/11 once crept toward its boundary maximum for all 100
    # iterations, and the free-fit runs of analyze on the golden small
    # tables took up to 38 passes. A bound now holds each zero cell on its
    # boundary. These bounds may only go down.
    table = make_table([("a", 2, 2, 2, 6), ("b", 2, 4, 5, 11)])
    glm.fit(glm.ModelSpec(link="log", terms="exposure_plus_stratum",
                          table=table))
    run, = irls_recorder.calls
    assert run.iterations <= 5
    irls_recorder.calls.clear()
    for small in test_golden.small_tables():
        analyze(small)
    free = [call for call in irls_recorder.calls if not call.joint]
    assert free and not any(any(call.failed) for call in free)
    assert max(call.iterations for call in free) <= 10
