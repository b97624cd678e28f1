"""Measure values, contours, effect modification, collapsibility extremes.

The segment-extremes oracle is a dense grid scan written independently of
the stationary-point search it validates: any value the search reports is
an achieved value of the measure, so it can only fail to be extreme by
missing a better point, which the grid detects. Where the extreme is a
stationary point inside a segment, its position is checked against a
50-digit root found with the decimal module.
"""

import math
import random
from decimal import Decimal
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from rothman import measures
from rothman.diagnostics import analyze
from rothman.errors import UndefinedMeasureError, ValidationError
from rothman.geometry import (RiskPoint, association_points, standardize)
from rothman.measures import (CollapsibilityReport, Measure, collapse_analysis,
                              comparison_value, contour, effect_modification,
                              is_collapsible, measure_value)

ALL_MEASURES = tuple(Measure)
CURVED_MEASURES = (Measure.ODDS_RATIO, Measure.HAZARD_RATIO)

# Frozen crude and stratum measure values for the smoking cohort.
CRUDE_VALUES = {
    Measure.ODDS_RATIO: 0.6848,
    Measure.RISK_RATIO: 0.7601,
    Measure.RISK_DIFFERENCE: -0.0754,
    Measure.HAZARD_RATIO: 0.7235,
}
STRATUM_VALUES = {
    Measure.ODDS_RATIO: (1.6224, 1.0182),
    Measure.RISK_RATIO: (1.5091, 1.0026),
    Measure.RISK_DIFFERENCE: (0.0614, 0.0022),
    Measure.HAZARD_RATIO: (1.5632, 1.0080),
}

# Frozen fitted risk pairs of the shared-odds-ratio model and the extremes
# of the odds ratio over their standardized segment. Both endpoints sit on
# the contour OR = 1.5372 yet mixtures dip below it.
SHARED_OR_POINTS = ((0.12392936535820742, 0.17861551983475824),
                    (0.8456065910462496, 0.8938352638382419))
SHARED_OR_VALUE = 1.5372255590821482
SHARED_OR_MIN = 1.2287501055365777
SHARED_OR_ARGMIN = (0.4842980604478264, 0.5157019395521736)


def grid_values(m, x, y):
    """`measure_value` over arrays of points, by the same formulas (numpy's
    log1p may differ from math's in the last bit): the ratios of
    nonnegative extended reals give nan at 0/0 and inf/inf and inf at 1/0,
    and odds and cumulative hazards are inf at a risk of 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if m is Measure.RISK_DIFFERENCE:
            return y - x
        if m is Measure.RISK_RATIO:
            return y / x
        if m is Measure.ODDS_RATIO:
            return (y / (1.0 - y)) / (x / (1.0 - x))
        return -np.log1p(-y) / -np.log1p(-x)


def grid_extremes(m, a, b, n=20000):
    """Brute-force (min, max) of the measure over the segment a..b."""
    t = np.arange(n + 1) / n
    x, y = a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)
    # b itself at t = 1: a + 1*(b - a) can land ulps past b
    x[-1], y[-1] = b.x, b.y
    values = grid_values(m, x, y)
    # the formulas stand in for measure_value, so check them on a subsample
    some = [*range(0, n, 997), n]
    np.testing.assert_allclose(
        values[some], [measure_value(m, RiskPoint(x[i], y[i])) for i in some],
        rtol=1e-14, atol=0.0)
    values = values[~np.isnan(values)]
    if not values.size:
        return math.inf, -math.inf
    return float(values.min()), float(values.max())


class TestMeasureEnum:
    def test_short_names(self):
        assert [m.short_name for m in ALL_MEASURES] == ["OR", "RR", "RD", "HR"]

    def test_labels(self):
        assert Measure.ODDS_RATIO.label == "odds ratio"
        assert Measure.RISK_DIFFERENCE.label == "risk difference"

    def test_null_values(self):
        # equal risks read 0 on the difference scale and 1 on the ratios
        diagonal = RiskPoint(0.3, 0.3)
        assert measure_value(Measure.RISK_DIFFERENCE, diagonal) == 0.0
        for m in (Measure.ODDS_RATIO, Measure.RISK_RATIO, Measure.HAZARD_RATIO):
            assert measure_value(m, diagonal) == 1.0

    def test_ratio_flags(self):
        assert not Measure.RISK_DIFFERENCE.is_ratio
        assert Measure.ODDS_RATIO.is_ratio


class TestMeasureValue:
    @pytest.mark.parametrize("m", ALL_MEASURES)
    def test_whickham_crude(self, whickham, m):
        crude, _ = association_points(whickham)
        assert measure_value(m, crude) == pytest.approx(
            CRUDE_VALUES[m], abs=5e-5)

    @pytest.mark.parametrize("m", ALL_MEASURES)
    def test_whickham_strata(self, whickham, m):
        _, strata = association_points(whickham)
        for p, expected in zip(strata, STRATUM_VALUES[m]):
            assert measure_value(m, p) == pytest.approx(expected, abs=5e-5)

    def test_exact_spot_values(self):
        p = RiskPoint(0.2, 0.4)
        assert measure_value(Measure.RISK_DIFFERENCE, p) == pytest.approx(0.2)
        assert measure_value(Measure.RISK_RATIO, p) == pytest.approx(2.0)
        # odds 2/3 over odds 1/4
        assert measure_value(Measure.ODDS_RATIO, p) == pytest.approx(8 / 3)
        assert measure_value(Measure.HAZARD_RATIO, p) == pytest.approx(
            math.log(0.6) / math.log(0.8))

    def test_undefined_corners(self):
        origin = RiskPoint(0.0, 0.0)
        one = RiskPoint(1.0, 1.0)
        for m in (Measure.ODDS_RATIO, Measure.RISK_RATIO, Measure.HAZARD_RATIO):
            assert math.isnan(measure_value(m, origin))
            assert not math.isnan(measure_value(m, RiskPoint(0.5, 0.5)))
        assert math.isnan(measure_value(Measure.ODDS_RATIO, one))
        assert math.isnan(measure_value(Measure.HAZARD_RATIO, one))
        assert measure_value(Measure.RISK_RATIO, one) == pytest.approx(1.0)
        assert measure_value(Measure.RISK_DIFFERENCE, origin) == 0.0

    def test_infinite_limits(self):
        assert measure_value(Measure.RISK_RATIO, RiskPoint(0.0, 0.5)) == math.inf
        assert measure_value(Measure.RISK_RATIO, RiskPoint(0.5, 0.0)) == 0.0
        assert measure_value(Measure.ODDS_RATIO, RiskPoint(0.5, 1.0)) == math.inf
        assert measure_value(Measure.ODDS_RATIO, RiskPoint(1.0, 0.5)) == 0.0
        assert measure_value(Measure.HAZARD_RATIO, RiskPoint(0.0, 0.5)) == math.inf
        assert measure_value(Measure.RISK_DIFFERENCE, RiskPoint(0.0, 1.0)) == 1.0


class TestComparisonValue:
    def test_risk_difference_is_identity(self):
        assert comparison_value(Measure.RISK_DIFFERENCE, -0.3) == -0.3

    def test_ratios_use_log_scale(self):
        assert comparison_value(Measure.RISK_RATIO, 2.0) == pytest.approx(
            math.log(2.0))
        assert comparison_value(Measure.ODDS_RATIO, 1.0) == 0.0
        assert comparison_value(Measure.HAZARD_RATIO, 0.0) == -math.inf
        assert comparison_value(Measure.RISK_RATIO, math.inf) == math.inf

    def test_nan_propagates(self):
        assert math.isnan(comparison_value(Measure.ODDS_RATIO, math.nan))


class TestContour:
    def test_algebraic_spot_values(self):
        assert contour(Measure.ODDS_RATIO, 2.0, 0.3) == pytest.approx(6 / 13)
        assert contour(Measure.RISK_RATIO, 0.5, 0.4) == pytest.approx(0.2)
        assert contour(Measure.RISK_DIFFERENCE, 0.25, 0.5) == pytest.approx(0.75)
        assert contour(Measure.HAZARD_RATIO, 2.0, 0.19) == pytest.approx(
            1.0 - 0.81 ** 2)

    @pytest.mark.parametrize("m", ALL_MEASURES)
    def test_null_contour_is_the_diagonal(self, m):
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert contour(m, float(m.is_ratio), x) == pytest.approx(
                x, abs=1e-15)

    def test_out_of_square_returns_none(self):
        assert contour(Measure.RISK_DIFFERENCE, 0.5, 0.8) is None
        assert contour(Measure.RISK_DIFFERENCE, -0.3, 0.1) is None
        assert contour(Measure.RISK_RATIO, 2.0, 0.7) is None
        assert contour(Measure.ODDS_RATIO, -1.0, 0.5) is None
        assert contour(Measure.HAZARD_RATIO, -1.0, 0.5) is None

    def test_nan_value_returns_none(self):
        for m in ALL_MEASURES:
            assert contour(m, math.nan, 0.5) is None

    def test_x_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            contour(Measure.RISK_RATIO, 1.0, 1.5)

    def test_zero_valued_contours(self):
        assert contour(Measure.ODDS_RATIO, 0.0, 0.3) == 0.0
        assert contour(Measure.RISK_RATIO, 0.0, 0.3) == 0.0
        assert contour(Measure.HAZARD_RATIO, 0.0, 0.3) == 0.0

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200)
    def test_contour_inverts_measure_value(self, x, y):
        p = RiskPoint(x, y)
        for m in ALL_MEASURES:
            v = measure_value(m, p)
            recovered = contour(m, v, x)
            assert recovered is not None
            assert recovered == pytest.approx(y, abs=1e-9)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(-0.5)
    @example(1.0 - 1e-12)
    @example(1.0 + 1e-12)
    @settings(max_examples=300, deadline=None)
    def test_a_sampled_contour_is_one_run(self, value):
        # Each contour is the graph of a monotone y(x), so it meets the
        # unit square in one run of x: the renderer draws it as one
        # polyline, from its first sample in the square to its last.
        for m in ALL_MEASURES:
            inside = np.flatnonzero(
                ~np.isnan(contour(m, value, np.arange(257) / 256)))
            assert len(inside) == 0 or \
                inside[-1] - inside[0] + 1 == len(inside), (m, value)


class TestCollapsibleFlag:
    def test_straight_contour_measures(self):
        assert is_collapsible(Measure.RISK_RATIO)
        assert is_collapsible(Measure.RISK_DIFFERENCE)
        assert not is_collapsible(Measure.ODDS_RATIO)
        assert not is_collapsible(Measure.HAZARD_RATIO)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_collapsible_measures_constant_on_contour_chords(self, x1, x2, v,
                                                             t):
        # any convex combination of two contour points stays on the contour
        for m in (Measure.RISK_RATIO, Measure.RISK_DIFFERENCE):
            value = v if m.is_ratio else v - 0.5
            y1 = contour(m, value, x1)
            y2 = contour(m, value, x2)
            if y1 is None or y2 is None:
                continue
            mid = RiskPoint(x1 + t * (x2 - x1), y1 + t * (y2 - y1))
            got = measure_value(m, mid)
            if math.isnan(got):
                continue
            assert got == pytest.approx(value, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("m", ALL_MEASURES)
    @pytest.mark.parametrize("ratio, difference", [
        (0.2, -0.5), (0.5, -0.2), (2.0, 0.2), (5.0, 0.5)])
    def test_contours_are_straight_exactly_for_collapsible_measures(
            self, m, ratio, difference):
        # The theorem on the drawn curves: sample one non-null contour at
        # 257 x and measure its largest distance from its own chord.
        value = ratio if m.is_ratio else difference
        xs = np.linspace(0.0, 1.0, 257)
        ys = contour(m, value, xs)
        pts = np.column_stack([xs, ys])[~np.isnan(ys)]
        assert len(pts) >= 50
        (ax, ay), (bx, by) = pts[0], pts[-1]
        cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        deviation = np.max(np.abs(cross)) / math.hypot(bx - ax, by - ay)
        assert (deviation <= 1e-12) == is_collapsible(m)
        if not is_collapsible(m):
            assert deviation > 1e-3

    def test_links_match_the_analysis_entries(self, whickham):
        links = [m.link for m in Measure]
        assert links == ["logit", "log", "identity", "cloglog"]
        doc = analyze(whickham).to_json_dict()
        assert [entry["link"] for entry in doc["measures"]] == links


class TestEffectModification:
    @pytest.mark.parametrize("m", ALL_MEASURES)
    def test_whickham_modification_present(self, whickham, m):
        _, strata = association_points(whickham)
        em = effect_modification(m, strata)
        assert em.present
        assert em.stratum_values == pytest.approx(STRATUM_VALUES[m], abs=5e-5)

    def test_whickham_risk_difference_spread(self, whickham):
        _, strata = association_points(whickham)
        em = effect_modification(Measure.RISK_DIFFERENCE, strata)
        assert em.max_difference == pytest.approx(0.05917447, abs=1e-8)

    def test_identical_strata_show_no_modification(self, identical_strata_table):
        _, strata = association_points(identical_strata_table)
        for m in ALL_MEASURES:
            em = effect_modification(m, strata)
            assert not em.present
            assert em.max_difference == 0.0

    def test_infinite_ratios_have_no_spread(self):
        # inf - inf is nan, which is no evidence of modification
        strata = [RiskPoint(0.0, 0.3), RiskPoint(0.0, 0.6)]
        em = effect_modification(Measure.RISK_RATIO, strata)
        assert not em.present
        assert em.max_difference == 0.0

    def test_large_tolerance_suppresses_modification(self, whickham):
        _, strata = association_points(whickham)
        em = effect_modification(Measure.RISK_DIFFERENCE, strata, tol=1.0)
        assert not em.present
        assert em.tol == 1.0

    def test_undefined_value_names_the_stratum(self):
        strata = [RiskPoint(0.0, 0.0, tag="stratum:z"), RiskPoint(0.2, 0.3)]
        with pytest.raises(UndefinedMeasureError, match="stratum:z"):
            effect_modification(Measure.RISK_RATIO, strata)

    def test_needs_two_strata(self):
        with pytest.raises(ValidationError):
            effect_modification(Measure.RISK_RATIO, [RiskPoint(0.1, 0.2)])

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, whickham, tol):
        # a nan tol once never flagged modification
        _, strata = association_points(whickham)
        with pytest.raises(ValidationError):
            effect_modification(Measure.RISK_RATIO, strata, tol=tol)


class TestCollapseAnalysis:
    def test_whickham_extremes_sit_at_the_stratum_points(self, whickham):
        # measure values are monotone along this particular segment
        _, strata = association_points(whickham)
        for m in ALL_MEASURES:
            r = collapse_analysis(m, strata)
            young, old = STRATUM_VALUES[m]
            assert r.min_value == pytest.approx(old, abs=5e-5)
            assert r.max_value == pytest.approx(young, abs=5e-5)
            assert r.argmin_weights.as_floats() == pytest.approx((0.0, 1.0),
                                                                 abs=1e-9)
            assert r.argmax_weights.as_floats() == pytest.approx((1.0, 0.0),
                                                                 abs=1e-9)
            assert math.isnan(r.stratum_value)
            assert not r.collapsible_here

    def test_shared_odds_ratio_contour_dips_in_the_interior(self):
        pts = [RiskPoint(x, y) for x, y in SHARED_OR_POINTS]
        r = collapse_analysis(Measure.ODDS_RATIO, pts)
        assert r.stratum_value == pytest.approx(SHARED_OR_VALUE, abs=1e-12)
        assert r.max_value == pytest.approx(SHARED_OR_VALUE, abs=1e-12)
        assert r.min_value == pytest.approx(SHARED_OR_MIN, abs=1e-9)
        assert r.argmin_weights.as_floats() == pytest.approx(
            SHARED_OR_ARGMIN, abs=1e-6)
        assert not r.collapsible_here

    def test_weights_are_built_for_the_two_extremes_only(self, monkeypatch):
        # Five points on one OR contour: every edge of their hull dips
        # below it inside, so there are five edge candidates, but only the
        # reported extremes get a standard population.
        built = []

        def weights(*args):
            built.append(real_weights(*args))
            return built[-1]

        real_weights = measures.segment_weights
        monkeypatch.setattr(measures, "segment_weights", weights)
        xs = (0.1, 0.3, 0.5, 0.7, 0.9)
        pts = [RiskPoint(x, contour(Measure.ODDS_RATIO, 2.0, x)) for x in xs]
        r = collapse_analysis(Measure.ODDS_RATIO, pts)
        assert built == [r.argmin_weights, r.argmax_weights]
        assert r.min_value < 2.0 - 1e-3
        assert r.max_value == pytest.approx(2.0, rel=1e-12)

    def test_shared_or_min_beats_the_grid(self):
        a, b = (RiskPoint(x, y) for x, y in SHARED_OR_POINTS)
        r = collapse_analysis(Measure.ODDS_RATIO, [a, b])
        lo, hi = grid_extremes(Measure.ODDS_RATIO, a, b)
        assert r.min_value <= lo + 1e-12
        assert r.max_value >= hi - 1e-12

    def test_risk_ratio_contour_points_collapse_exactly(self):
        pts = [RiskPoint(0.05, 0.1), RiskPoint(0.1, 0.2), RiskPoint(0.3, 0.6)]
        r = collapse_analysis(Measure.RISK_RATIO, pts)
        assert r.stratum_value == pytest.approx(2.0, abs=1e-12)
        assert r.min_value == pytest.approx(2.0, abs=1e-9)
        assert r.max_value == pytest.approx(2.0, abs=1e-9)
        assert r.collapsible_here

    def test_risk_difference_contour_points_collapse_exactly(self):
        pts = [RiskPoint(0.1, 0.3), RiskPoint(0.5, 0.7)]
        r = collapse_analysis(Measure.RISK_DIFFERENCE, pts)
        assert r.stratum_value == pytest.approx(0.2, abs=1e-12)
        assert r.max_value - r.min_value <= 1e-9
        assert r.collapsible_here

    def test_three_strata_hull_extremes_beat_interior_sampling(self):
        pts = [RiskPoint(0.1, 0.3), RiskPoint(0.5, 0.2), RiskPoint(0.7, 0.8)]
        for m in ALL_MEASURES:
            r = collapse_analysis(m, pts)
            lo = math.inf
            hi = -math.inf
            n = 60
            for i, j in product(range(n + 1), repeat=2):
                if i + j > n:
                    continue
                w = (i / n, j / n, (n - i - j) / n)
                p = standardize(pts, _std(w))
                v = measure_value(m, p)
                if math.isnan(v):
                    continue
                lo = min(lo, v)
                hi = max(hi, v)
            assert r.min_value <= lo + 1e-12
            assert r.max_value >= hi - 1e-12

    @pytest.mark.parametrize("m", CURVED_MEASURES)
    def test_a_contour_shared_at_infinity_is_collapsible_here(self, m):
        # every standardized point of (0.2, 1) and (0.5, 1) has y = 1, so
        # OR and HR are inf all along the segment; inf - inf once made the
        # stratum value nan and the verdict false
        r = collapse_analysis(m, [RiskPoint(0.2, 1.0), RiskPoint(0.5, 1.0)])
        assert r.stratum_value == r.min_value == r.max_value == math.inf
        assert r.collapsible_here

    @pytest.mark.parametrize("m", [Measure.ODDS_RATIO, Measure.RISK_RATIO,
                                   Measure.HAZARD_RATIO])
    def test_a_contour_shared_at_zero_is_collapsible_here(self, m):
        r = collapse_analysis(m, [RiskPoint(0.2, 0.0), RiskPoint(0.5, 0.0)])
        assert r.stratum_value == r.min_value == r.max_value == 0.0
        assert r.collapsible_here

    def test_analysis_entries_agree_on_a_contour_shared_at_infinity(
            self, make_table):
        # 5/5 and 7/7 exposed: the fitted OR and HR points are the observed
        # ones, (0.2, 1) and (0.5, 1), on the inf contour
        doc = analyze(make_table([("a", 5, 5, 2, 10),
                                  ("b", 7, 7, 5, 10)])).to_json_dict()
        for entry, collapse in zip(doc["measures"], doc["collapsibility"]):
            if entry["short"] in ("OR", "HR"):
                em = entry["effect_modification"]
                assert not em["present"]
                assert em["stratum_values"] == collapse["stratum_values"] \
                    == ["inf", "inf"]
                assert collapse["stratum_value"] == "inf"
                assert collapse["collapsible_here"]

    def test_needs_two_strata(self):
        with pytest.raises(ValidationError):
            collapse_analysis(Measure.ODDS_RATIO, [RiskPoint(0.1, 0.2)])

    def test_everywhere_undefined_measure_raises(self):
        pts = [RiskPoint(0.0, 0.0), RiskPoint(0.0, 0.0)]
        with pytest.raises(UndefinedMeasureError):
            collapse_analysis(Measure.RISK_RATIO, pts)

    def test_report_type(self, whickham):
        _, strata = association_points(whickham)
        assert isinstance(collapse_analysis(Measure.ODDS_RATIO, strata),
                          CollapsibilityReport)


def _std(weights):
    from rothman.geometry import StandardPopulation
    return StandardPopulation(weights=weights)


interior = st.floats(min_value=0.02, max_value=0.98)


@given(interior, interior, interior, interior)
@example(ax=0.29162402352255035, ay=0.4579777286985874,
         bx=0.15014813631752974, by=0.9799999999999999)  # endpoint ulp
@settings(max_examples=60)
def test_segment_extremes_match_grid_oracle(ax, ay, bx, by):
    a = RiskPoint(ax, ay)
    b = RiskPoint(bx, by)
    for m in ALL_MEASURES:
        r = collapse_analysis(m, [a, b])
        lo, hi = grid_extremes(m, a, b, n=4000)
        # reported extremes are achieved values, so they can only improve
        # on the grid, never fall inside it
        assert r.min_value <= lo + 1e-12
        assert r.max_value >= hi - 1e-12
        assert r.min_value <= min(r.stratum_values) + 1e-12
        assert r.max_value >= max(r.stratum_values) - 1e-12
        got_min = measure_value(m, standardize([a, b], r.argmin_weights))
        got_max = measure_value(m, standardize([a, b], r.argmax_weights))
        assert got_min == pytest.approx(r.min_value, rel=1e-12, abs=1e-12)
        assert got_max == pytest.approx(r.max_value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", CURVED_MEASURES)
def test_interior_extreme_sits_at_the_decimal_root(m):
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        a, b = (RiskPoint(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
                for _ in range(2))
        root = oracles.decimal_stationary_root(m, a, b)
        if root is None:
            continue
        t, rising_at_a = root
        r = collapse_analysis(m, [a, b])
        # rising then falling is an interior maximum, else a minimum
        weights = r.argmax_weights if rising_at_a else r.argmin_weights
        assert abs(Decimal(weights.as_floats()[1]) - t) <= Decimal("1e-14"), (
            m, a, b)
        checked += 1


# strictly inside the square: a third of the draws within 1e-9 of 0, where
# subnormals overflow both of an end's slope terms, and a third within 1e-9
# of 1
inside = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=1e-9, exclude_min=True),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0, exclude_max=True))


@given(inside, inside, inside, inside)
@example(ax=0.9999999999954464, ay=2.1759308970177216e-10,
         bx=0.999999999999, by=1.4442986746136614e-07)  # coarse in t
@example(ax=5e-324, ay=1e-323, bx=0.5, by=0.75)  # OR's slope at a: inf - inf
@settings(max_examples=150, deadline=None)
def test_every_interior_candidate_sits_at_the_decimal_root(ax, ay, bx, by):
    # the candidate's t is the decimal root's to 1e-14 plus the spread that
    # rounding allows, which is wide on an edge whose floats are coarse in
    # t; where one of them finds no sign change, the other's t is an end's
    a, b = RiskPoint(ax, ay), RiskPoint(bx, by)
    for m in CURVED_MEASURES:
        root = oracles.decimal_stationary_root(m, a, b)
        found = measures._edge_candidate(m, a, b)
        if root is None and found is None:
            continue
        t = root[0] if root else Decimal(found[0])
        got = Decimal(found[0]) if root and found else Decimal(round(t))
        bound = Decimal("1e-14") + oracles.stationary_root_spread(m, a, b, t)
        assert abs(got - t) <= bound, (m, a, b)


def test_an_end_with_subnormal_coordinates_keeps_its_edge_candidate():
    # At a = (5e-324, 1e-323) both terms of the odds ratio's end slope
    # overflow; their difference once read nan, so the edge gave no
    # candidate and the minimum read a's 2.0, where inside the edge the
    # odds ratio falls to ~1.5.
    a, b = RiskPoint(5e-324, 1e-323), RiskPoint(0.5, 0.75)
    t, _ = oracles.decimal_stationary_root(Measure.ODDS_RATIO, a, b)
    x, y = ((1 - t) * Decimal(u) + t * Decimal(v)
            for u, v in ((a.x, b.x), (a.y, b.y)))
    r = collapse_analysis(Measure.ODDS_RATIO, [a, b])
    assert r.min_value == pytest.approx(float(y * (1 - x) / (x * (1 - y))),
                                        rel=1e-12)


CORNER_SEGMENTS = (
    ((0.0, 0.0), (0.5, 0.2)),
    ((0.0, 0.0), (0.3, 0.9)),
    ((0.943568065208288, 0.6232748664646758), (1.0, 1.0)),
    ((1.0, 1.0), (0.1554584946696973, 0.32371741750073046)),
    # off the corners, on a side of the square, where the slope is infinite
    ((0.0, 0.4), (0.5, 0.9)),
    ((0.3, 1.0), (0.8, 0.6)),
)


@pytest.mark.parametrize("ends", CORNER_SEGMENTS)
@pytest.mark.parametrize("m", CURVED_MEASURES)
def test_corner_segment_extremes_beat_the_grid(m, ends):
    # the slope is undefined at the corner, where the extreme is a limit
    a, b = (RiskPoint(x, y) for x, y in ends)
    r = collapse_analysis(m, [a, b])
    lo, hi = grid_extremes(m, a, b)
    assert r.min_value <= lo + 1e-12
    assert r.max_value >= hi - 1e-12


@pytest.mark.parametrize("m", CURVED_MEASURES)
def test_diagonal_hull_edge_reaches_the_null(m):
    # both ends of the (0,0)-(1,1) edge are corners; m is 1 all along it
    pts = [RiskPoint(0.0, 0.0), RiskPoint(1.0, 1.0), RiskPoint(0.2, 0.7)]
    r = collapse_analysis(m, pts)
    assert r.min_value == 1.0
    assert measure_value(m, standardize(pts, r.argmin_weights)) == 1.0


def test_corner_limits_are_closed_form():
    # OR and HR are undefined at (1,1); along an edge into it OR tends to
    # dx/dy and HR to 1, limits that a point formed a ulp of 1 away from
    # the corner reaches only to ~1e-6, or for HR not at all.
    pts = [RiskPoint(0.00034028, 0.99960994), RiskPoint(0.07138254, 0.99960041),
           RiskPoint(1.0, 1.0)]
    odds = collapse_analysis(Measure.ODDS_RATIO, pts)
    assert odds.min_value == pytest.approx(
        (1.0 - 0.07138254) / (1.0 - 0.99960041), rel=1e-12)
    hazard = collapse_analysis(Measure.HAZARD_RATIO, pts)
    assert hazard.min_value == 1.0
    for r in (odds, hazard):
        assert r.argmin_weights.as_floats() == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("m", CURVED_MEASURES)
def test_origin_corner_limit_is_the_edge_slope(m):
    # near (0,0) both OR and HR behave as y/x, so the limit along an edge
    # from the origin is its slope dy/dx, here above the value at (0.4, 0.1)
    pts = [RiskPoint(0.0, 0.0), RiskPoint(0.4, 0.1)]
    r = collapse_analysis(m, pts)
    assert r.max_value == pytest.approx(0.25, rel=1e-15)
    assert r.argmax_weights.as_floats() == (1.0, 0.0)
