"""Risk-square geometry: hulls, rectangles, standardization, containment.

The convex-hull oracle below checks the defining property directly in exact
rational arithmetic, so the hypothesis sweep is independent of the monotone
chain implementation it exercises.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import adversarial
from rothman.errors import ValidationError
from rothman.geometry import (PRESETS, Containment, ConfoundingRectangle,
                              RiskPoint, StandardPopulation, _locate,
                              association_points, confounding_rectangle,
                              contains, convex_hull_indices,
                              standard_population, standardize,
                              standardized_hull, standardized_point,
                              weights_for_point)
from rothman.tables import CohortCell, StratifiedCohortTable

# Frozen association points for the two-stratum smoking cohort.
CRUDE = (0.31420765027322406, 0.23883161512027493)
STRATUM_YOUNG = (0.12059369202226346, 0.18198874296435272)
STRATUM_OLD = (0.8549222797927462, 0.8571428571428571)

# Frozen standardized points, one per preset weighting (exact rationals
# evaluated once and pinned; see the oracle test that re-derives them).
STD_STUDY = (0.2558353345188059, 0.30633219473847606)
STD_EXPOSED = (0.1824186074874759, 0.23883161512027493)
STD_UNEXPOSED = (0.31420765027322406, 0.3600006883693409)


def exact_cross(o, a, b):
    ox, oy = Fraction(o[0]), Fraction(o[1])
    return ((Fraction(a[0]) - ox) * (Fraction(b[1]) - oy)
            - (Fraction(a[1]) - oy) * (Fraction(b[0]) - ox))


def oracle_hull_ok(coords, idx):
    """Exact check that idx describes the hull of coords.

    Conditions: vertices distinct and taken from the input; traversal is
    counterclockwise and strictly convex (no retained collinear point);
    every input point lies on or left of every directed edge.
    """
    verts = [coords[i] for i in idx]
    if len(set(verts)) != len(verts):
        return False
    n = len(verts)
    if n == 0:
        return len(coords) == 0
    if n == 1:
        return all(c == verts[0] for c in coords)
    if n == 2:
        a, b = verts
        if a == b:
            return False
        for c in coords:
            if exact_cross(a, b, c) != 0:
                return False
            t_num = ((Fraction(c[0]) - Fraction(a[0]))
                     * (Fraction(b[0]) - Fraction(a[0]))
                     + (Fraction(c[1]) - Fraction(a[1]))
                     * (Fraction(b[1]) - Fraction(a[1])))
            t_den = ((Fraction(b[0]) - Fraction(a[0])) ** 2
                     + (Fraction(b[1]) - Fraction(a[1])) ** 2)
            if not (0 <= t_num <= t_den):
                return False
        return True
    for i in range(n):
        if exact_cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) <= 0:
            return False
    for c in coords:
        for i in range(n):
            if exact_cross(verts[i], verts[(i + 1) % n], c) < 0:
                return False
    return True


class TestRiskPoint:
    def test_coerces_to_float_and_exposes_coords(self):
        p = RiskPoint(Fraction(1, 4), Fraction(1, 2), tag="crude")
        assert p.coords == (0.25, 0.5)
        assert isinstance(p.x, float)
        assert p.tag == "crude"

    def test_rejects_points_outside_unit_square(self):
        with pytest.raises(ValidationError):
            RiskPoint(-0.01, 0.5)
        with pytest.raises(ValidationError):
            RiskPoint(0.5, 1.01)

    def test_corners_allowed(self):
        assert RiskPoint(0.0, 0.0).coords == (0.0, 0.0)
        assert RiskPoint(1.0, 1.0).coords == (1.0, 1.0)


class TestStandardPopulation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            StandardPopulation(weights=(0.5, 0.6))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            StandardPopulation(weights=(1.5, -0.5))

    def test_non_finite_weights_rejected(self):
        # NaN fails every comparison, so a NaN sum once passed the check
        for weights in [(math.nan, 0.5), (math.nan,), (0.5, math.nan, 0.5),
                        (math.inf, 0.5), (1.0, -math.inf)]:
            with pytest.raises(ValidationError, match="finite"):
                StandardPopulation(weights=weights)

    def test_a_bool_or_a_non_number_is_no_weight(self):
        # (True, False) was once a point mass, and a string raised a bare
        # TypeError
        for weights in [(True, False), (0.0, True), ("a",), ("1",), (None,),
                        (1j,), ([1.0],), (np.True_,)]:
            with pytest.raises(ValidationError, match="must lie in"):
                StandardPopulation(weights=weights)

    def test_every_kind_of_real_weight_is_taken(self):
        for weights in [(Fraction(1, 4), 0.75), (1, 0), (np.int64(0), 1),
                        (np.float64(0.5), np.float32(0.5)),
                        (Decimal("0.1"), Decimal("0.9"))]:
            assert StandardPopulation(weights=weights).weights == weights

    def test_exact_fraction_weights_kept(self):
        std = StandardPopulation(weights=(Fraction(1, 3), Fraction(2, 3)))
        assert std.weights == (Fraction(1, 3), Fraction(2, 3))
        assert std.as_floats() == pytest.approx((1 / 3, 2 / 3))
        assert std.k == 2


class TestAssociationPoints:
    def test_whickham_points(self, whickham):
        crude, strata = association_points(whickham)
        assert crude.coords == CRUDE
        assert crude.tag == "crude"
        assert strata[0].coords == STRATUM_YOUNG
        assert strata[1].coords == STRATUM_OLD
        assert strata[0].tag == "stratum:18-64"
        assert strata[1].tag == "stratum:65+"

    def test_zero_margin_stratum_rejected(self, make_table):
        table = make_table([("a", 0, 0, 1, 2), ("b", 1, 2, 1, 2)])
        with pytest.raises(ValidationError, match="'a'"):
            association_points(table)


class TestStandardPopulationPresets:
    def test_study_sample_weights_exact(self, whickham):
        std = standard_population(whickham, "study_sample")
        assert std.weights == (Fraction(1072, 1314), Fraction(242, 1314))
        assert std.preset == "study_sample"

    def test_exposed_and_unexposed_weights_exact(self, whickham):
        assert standard_population(whickham, "exposed").weights == \
            (Fraction(533, 582), Fraction(49, 582))
        assert standard_population(whickham, "unexposed").weights == \
            (Fraction(539, 732), Fraction(193, 732))

    def test_unknown_preset_rejected(self, whickham):
        with pytest.raises(ValidationError):
            standard_population(whickham, "bogus")

    def test_empty_exposure_group_rejected(self, make_table):
        table = make_table([("a", 0, 0, 1, 2), ("b", 0, 0, 1, 2)])
        with pytest.raises(ValidationError):
            standard_population(table, "exposed")


class TestStandardizedPoint:
    def test_oracle_rederives_frozen_study_sample_point(self):
        # independent exact-arithmetic derivation of the pinned literals
        w1, w2 = Fraction(1072, 1314), Fraction(242, 1314)
        x = w1 * Fraction(65, 539) + w2 * Fraction(165, 193)
        y = w1 * Fraction(97, 533) + w2 * Fraction(42, 49)
        assert (float(x), float(y)) == STD_STUDY

    def test_study_sample_point(self, whickham):
        std = standard_population(whickham, "study_sample")
        p = standardized_point(whickham, std)
        assert p.coords == STD_STUDY
        assert p.tag == "standardized:study_sample"

    def test_exposed_standard_y_equals_crude_y_bit_exact(self, whickham):
        p = standardized_point(whickham, standard_population(whickham, "exposed"))
        assert p.coords == STD_EXPOSED
        assert p.y == CRUDE[1]

    def test_unexposed_standard_x_equals_crude_x_bit_exact(self, whickham):
        p = standardized_point(
            whickham, standard_population(whickham, "unexposed"))
        assert p.coords == STD_UNEXPOSED
        assert p.x == CRUDE[0]

    def test_float_standardize_agrees_with_exact_path(self, whickham):
        _, strata = association_points(whickham)
        for preset in ("study_sample", "exposed", "unexposed"):
            std = standard_population(whickham, preset)
            exact = standardized_point(whickham, std)
            approx = standardize(strata, std)
            assert approx.x == pytest.approx(exact.x, abs=1e-12)
            assert approx.y == pytest.approx(exact.y, abs=1e-12)

    def test_weight_count_must_match(self, whickham):
        for std in (StandardPopulation(weights=(1.0,)),
                    StandardPopulation(weights=(0.25, 0.25, 0.5))):
            with pytest.raises(ValidationError, match="weights for 2 strata"):
                standardized_point(whickham, std)
            with pytest.raises(ValidationError):
                standardize(association_points(whickham)[1], std)

    @pytest.mark.parametrize("row", [("b", 0, 0, 1, 2), ("b", 1, 2, 0, 0)])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (1, 0)])
    def test_a_zero_total_group_has_no_risk(self, make_table, row, weights):
        # a ValidationError, not the ZeroDivisionError of a zero denominator,
        # whatever the group's weight
        table = make_table([("a", 1, 2, 1, 3), row])
        with pytest.raises(ValidationError, match="zero-total margin"):
            standardized_point(table, StandardPopulation(weights=weights))

    def test_a_point_mass_gives_the_stratum_risks_exactly(self, make_table):
        table = make_table([("a", 1, 3, 1, 7), ("b", 2, 3, 4, 7)])
        p = standardized_point(table, StandardPopulation(weights=(1, 0)))
        assert p.coords == (1 / 7, 1 / 3)


class TestHull:
    def test_two_strata_give_a_segment(self, whickham):
        _, strata = association_points(whickham)
        hull = standardized_hull(strata)
        assert len(hull.vertices) == 2
        assert hull.vertex_source_indices in ((0, 1), (1, 0))
        assert hull.source_points == strata

    def test_six_strata_hull_has_five_vertices(self, six_strata):
        _, strata = association_points(six_strata)
        hull = standardized_hull(strata)
        assert len(hull.vertices) == 5
        interior = set(range(6)) - set(hull.vertex_source_indices)
        assert {strata[i].tag for i in interior} == {"stratum:45-54"}

    def test_duplicate_points_collapse_to_one_vertex(self):
        pts = [RiskPoint(0.2, 0.3), RiskPoint(0.2, 0.3), RiskPoint(0.2, 0.3)]
        hull = standardized_hull(pts)
        assert len(hull.vertices) == 1

    def test_collinear_midpoint_dropped(self):
        pts = [RiskPoint(0.1, 0.1), RiskPoint(0.5, 0.5), RiskPoint(0.9, 0.9)]
        hull = standardized_hull(pts)
        assert sorted(hull.vertex_source_indices) == [0, 2]

    def test_square_is_counterclockwise(self):
        pts = [RiskPoint(0.1, 0.1), RiskPoint(0.9, 0.1),
               RiskPoint(0.9, 0.9), RiskPoint(0.1, 0.9)]
        hull = standardized_hull(pts)
        verts = [v.coords for v in hull.vertices]
        area2 = sum(verts[i][0] * verts[(i + 1) % 4][1]
                    - verts[(i + 1) % 4][0] * verts[i][1] for i in range(4))
        assert area2 > 0


class TestConfoundingRectangle:
    def test_whickham_bounds(self, whickham):
        _, strata = association_points(whickham)
        rect = confounding_rectangle(strata)
        assert rect.x_min == STRATUM_YOUNG[0]
        assert rect.x_max == STRATUM_OLD[0]
        assert rect.y_min == STRATUM_YOUNG[1]
        assert rect.y_max == STRATUM_OLD[1]

    def test_corner_order(self):
        rect = ConfoundingRectangle(0.1, 0.4, 0.2, 0.8)
        assert rect.corners == ((0.1, 0.2), (0.4, 0.2), (0.4, 0.8), (0.1, 0.8))

    def test_the_rectangle_is_the_least_holding_its_points(self):
        points = [RiskPoint(0.2, 0.5), RiskPoint(0.1, 0.8),
                  RiskPoint(0.4, 0.2)]
        rect = confounding_rectangle(points)
        assert rect.corners == ((0.1, 0.2), (0.4, 0.2), (0.4, 0.8), (0.1, 0.8))
        for p in points:
            assert rect.x_min <= p.x <= rect.x_max
            assert rect.y_min <= p.y <= rect.y_max

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            ConfoundingRectangle(0.4, 0.1, 0.2, 0.8)


def _boundary_distance(hull, p):
    """Euclidean distance from ``p`` to the hull boundary, vertices
    included."""
    return _locate(hull, p, 0.0)[1]


class TestContainment:
    def test_crude_point_off_the_whickham_segment(self, whickham):
        crude, strata = association_points(whickham)
        hull = standardized_hull(strata)
        assert contains(hull, crude) is Containment.OUTSIDE
        assert _boundary_distance(hull, crude) > 0.05
        assert contains(hull, crude, tol=0.05) is Containment.OUTSIDE

    def test_standardized_points_on_the_segment(self, whickham):
        _, strata = association_points(whickham)
        hull = standardizable = standardized_hull(strata)
        for preset in ("study_sample", "exposed", "unexposed"):
            p = standardized_point(whickham, standard_population(whickham, preset))
            assert contains(hull, p) is Containment.BOUNDARY
            assert contains(standardizable, p,
                            tol=1e-12) is not Containment.OUTSIDE

    def test_identical_strata_collapse_to_point_hull(self, identical_strata_table):
        crude, strata = association_points(identical_strata_table)
        hull = standardized_hull(strata)
        assert len(hull.vertices) == 1
        assert _boundary_distance(hull, crude) == 0.0
        assert contains(hull, crude) is Containment.BOUNDARY

    def test_interior_crude_point_with_three_strata(self, interior_crude_k3_table):
        crude, strata = association_points(interior_crude_k3_table)
        hull = standardized_hull(strata)
        assert contains(hull, crude) is Containment.INSIDE
        assert contains(hull, crude, tol=0.0) is Containment.INSIDE
        assert _boundary_distance(hull, crude) > 0

    def test_vertex_is_boundary(self, six_strata):
        _, strata = association_points(six_strata)
        hull = standardized_hull(strata)
        assert contains(hull, hull.vertices[0]) is Containment.BOUNDARY

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, whickham, tol):
        # a nan tol once classified a hull vertex as outside
        _, strata = association_points(whickham)
        hull = standardized_hull(strata)
        with pytest.raises(ValidationError):
            contains(hull, hull.vertices[0], tol=tol)


class TestWeightsForPoint:
    def test_segment_weights_recover_standardized_point(self, whickham):
        _, strata = association_points(whickham)
        for preset in ("study_sample", "exposed", "unexposed"):
            target = standardized_point(
                whickham, standard_population(whickham, preset))
            std = weights_for_point(strata, target)
            assert std is not None
            expected = standard_population(whickham, preset)
            for w, e in zip(std.weights, expected.weights):
                assert w == pytest.approx(float(e), abs=1e-9)

    def test_outside_point_returns_none(self, whickham):
        crude, strata = association_points(whickham)
        assert weights_for_point(strata, crude) is None
        # and for k > 2, 1e-6 right of the square of strata
        assert _weights(self.SQUARE, (0.5 + 1e-6, 0.3)) is None

    def test_interior_point_with_three_strata(self, interior_crude_k3_table):
        crude, strata = association_points(interior_crude_k3_table)
        std = weights_for_point(strata, crude)
        assert std is not None
        rebuilt = standardize(strata, std)
        assert rebuilt.x == pytest.approx(crude.x, abs=1e-9)
        assert rebuilt.y == pytest.approx(crude.y, abs=1e-9)

    def test_six_strata_vertex_recovered(self, six_strata):
        _, strata = association_points(six_strata)
        std = weights_for_point(strata, strata[0])
        assert std is not None
        rebuilt = standardize(strata, std)
        assert rebuilt.x == pytest.approx(strata[0].x, abs=1e-9)
        assert rebuilt.y == pytest.approx(strata[0].y, abs=1e-9)

    @pytest.mark.parametrize("strata", [[(0.1, 0.2), (0.3, 0.4)],
                                        [(0.1, 0.2), (0.3, 0.4), (0.5, 0.1)]])
    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, strata, tol):
        # on two strata a nan tol once gave weights (0, 1) for a point far
        # off the segment, and a negative one None
        with pytest.raises(ValidationError):
            _weights(strata, (0.9, 0.9), tol=tol)

    SQUARE = [(0.1, 0.1), (0.5, 0.1), (0.5, 0.5), (0.1, 0.5)]

    @pytest.mark.parametrize("target", [(0.2, 0.4), (0.3, 0.3 + 1e-10)])
    def test_point_in_a_later_fan_triangle(self, target):
        # the fan from (0.1, 0.1) splits the square along its diagonal, and
        # both targets lie in the second triangle; the one 1e-10 from the
        # diagonal once got the first triangle's clamped weights, which
        # rebuilt it 7e-11 away
        strata = [RiskPoint(*p) for p in self.SQUARE]
        std = weights_for_point(strata, RiskPoint(*target), tol=0.0)
        assert std.weights[1] == 0.0
        rebuilt = standardize(strata, std)
        assert rebuilt.coords == pytest.approx(target, abs=1e-16)

    def test_boundary_point_missed_by_the_fan_projects_onto_an_edge(self):
        # 1e-7 right of the right edge: within tol of the hull, outside
        # both fan triangles, so it goes to the nearest edge's midpoint
        assert _weights(self.SQUARE, (0.5 + 1e-7, 0.3), tol=1e-6) == (
            pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-15))


def _weights(strata, target, **kwargs):
    std = weights_for_point([RiskPoint(*p) for p in strata], RiskPoint(*target),
                            **kwargs)
    return None if std is None else std.weights


class TestDegenerateHulls:
    """Exact weights and distances where the hull is a point or a segment.

    The values were frozen when each of these cases had its own code path,
    so they pin that the shared segment projection changed no bit. The
    coordinates are dyadic, so the collinear sets are exactly collinear.
    """

    def test_one_stratum(self):
        assert _weights([(0.3, 0.6)], (0.3, 0.6)) == (1.0,)
        assert _weights([(0.3, 0.6)], (0.3, 0.6 + 5e-10)) == (1.0,)
        assert _weights([(0.3, 0.6)], (0.31, 0.6)) is None

    def test_identical_points_are_a_one_vertex_hull(self):
        strata = [(0.2, 0.4)] * 3
        assert _weights(strata, (0.2, 0.4)) == (1.0, 0.0, 0.0)
        assert _weights(strata, (0.2, 0.41)) is None

    def test_three_collinear_points(self):
        strata = [(0.125, 0.25), (0.625, 0.75), (0.375, 0.5)]
        assert _weights(strata, (0.2, 0.325)) == (0.85, 0.15000000000000002, 0.0)
        assert _weights(strata, (0.4, 0.525)) == (0.44999999999999996, 0.55, 0.0)
        assert _weights(strata, (0.375, 0.5)) == (0.5, 0.5, 0.0)
        assert _weights(strata, (0.4, 0.6)) is None
        assert _weights(strata, (0.7, 0.825)) is None

    def test_four_collinear_points(self):
        # The hull runs from stratum 1 to stratum 0, its sorted order.
        strata = [(0.75, 0.125), (0.125, 0.4375), (0.5, 0.25), (0.25, 0.375)]
        assert _weights(strata, (0.3, 0.35)) == (0.28, 0.72, 0.0, 0.0)
        assert _weights(strata, (0.6, 0.2)) == (0.76, 0.24, 0.0, 0.0)
        assert _weights(strata, (0.4, 0.3)) == (0.44, 0.56, 0.0, 0.0)
        assert _weights(strata, (0.125, 0.4375)) == (0.0, 1.0, 0.0, 0.0)
        assert _weights(strata, (0.4, 0.35)) is None

    def test_boundary_distance_to_a_one_vertex_hull(self):
        hull = standardized_hull([RiskPoint(0.2, 0.4)] * 3)
        assert _boundary_distance(hull, RiskPoint(0.5, 0.8)) == 0.5
        assert _boundary_distance(hull, RiskPoint(0.2, 0.4)) == 0.0
        assert _boundary_distance(hull, RiskPoint(0.1, 0.7)) == 0.3162277660168379


rational =st.fractions(min_value=0, max_value=1, max_denominator=50)


@given(st.lists(st.tuples(rational, rational), min_size=1, max_size=12))
@settings(max_examples=300)
def test_hull_matches_exact_oracle(coords):
    idx = convex_hull_indices(coords)
    assert oracle_hull_ok(coords, idx)


@given(st.lists(st.tuples(rational, rational), min_size=1, max_size=8),
       st.data())
@settings(max_examples=200)
def test_standardized_point_always_in_hull(coords, data):
    strata = [RiskPoint(x, y) for x, y in coords]
    raw = data.draw(st.lists(
        st.integers(min_value=0, max_value=20),
        min_size=len(strata), max_size=len(strata)).filter(lambda w: sum(w) > 0))
    total = sum(raw)
    std = StandardPopulation(
        weights=tuple(Fraction(w, total) for w in raw))
    p = standardize(strata, std)
    hull = standardized_hull(strata)
    assert contains(hull, p, tol=1e-9) is not Containment.OUTSIDE
    rect = confounding_rectangle(strata)
    assert rect.x_min - 1e-9 <= p.x <= rect.x_max + 1e-9
    assert rect.y_min - 1e-9 <= p.y <= rect.y_max + 1e-9


@given(rational, rational, rational, rational,
       st.fractions(min_value=0, max_value=1, max_denominator=64))
@settings(max_examples=200)
def test_two_point_weight_recovery(ax, ay, bx, by, t):
    strata = [RiskPoint(ax, ay), RiskPoint(bx, by)]
    target = standardize(
        strata, StandardPopulation(weights=(1 - t, t)))
    std = weights_for_point(strata, target)
    assert std is not None
    rebuilt = standardize(strata, std)
    assert math.hypot(rebuilt.x - target.x, rebuilt.y - target.y) <= 1e-9


unit = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=6),
       st.integers(0, 5), st.integers(0, 5), unit,
       st.sampled_from([0.0, 1e-12, -1e-9, 1e-7, 0.1]),
       st.sampled_from([0.0, 1e-9, 1e-6]))
# the first fan triangle's det is 5e-324, so its barycentric coordinates
# are nan and +-inf; the INSIDE target gets 0.5 on (0, 5e-324) and (1, 1)
@example(coords=[(0.5, 0.5), (0.0, 1.0), (0.0, 5e-324), (1.0, 0.0),
                 (1.0, 1.0), (0.5, 0.0)], i=0, j=0, t=0.0, nudge=0.0, tol=0.0)
@settings(max_examples=300)
def test_weights_exist_exactly_where_the_target_is_not_outside(
        coords, i, j, t, nudge, tol):
    # targets off, on and near the segments between stratum points reach
    # the outside, boundary and inside verdicts alike
    strata = [RiskPoint(x, y) for x, y in coords]
    a, b = strata[i % len(strata)], strata[j % len(strata)]
    x = a.x + t * (b.x - a.x) + nudge
    y = a.y + t * (b.y - a.y) - nudge
    target = RiskPoint(min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))
    std = weights_for_point(strata, target, tol=tol)
    verdict = contains(standardized_hull(strata), target, tol=tol)
    assert (std is None) == (verdict is Containment.OUTSIDE)
    if std is not None:
        # rounding in a thin fan triangle's barycentric coordinates: 60,000
        # seeded targets (k 1-8, convex combinations and points on chords)
        # rebuilt within 4.7e-14, and 20,000 of these examples within 9e-15
        rebuilt = standardize(strata, std)
        assert math.hypot(rebuilt.x - target.x, rebuilt.y - target.y) <= \
            tol + 1e-13


def fraction_point(table, weights):
    """The standardized point by Fraction arithmetic, each coordinate
    rounded once."""
    x = sum(Fraction(w) * Fraction(c.unexposed_cases, c.unexposed_total)
            for w, c in zip(weights, table.cells))
    y = sum(Fraction(w) * Fraction(c.exposed_cases, c.exposed_total)
            for w, c in zip(weights, table.cells))
    return float(x), float(y)


@st.composite
def group(draw):
    total = draw(st.integers(1, 10**7))
    return draw(st.sampled_from([0, total]) | st.integers(0, total)), total


@st.composite
def exact_tables(draw):
    k = draw(st.integers(1, 50))
    return StratifiedCohortTable(strata=tuple(
        (f"s{i}", CohortCell(*draw(group()), *draw(group())))
        for i in range(k)))


@st.composite
def standards(draw, k):
    """A preset name, or custom weights of one kind: Fractions, floats,
    numpy float64s or Decimals over drawn integers, or an int point mass."""
    kind = draw(st.sampled_from(
        [*PRESETS, Fraction, float, np.float64, Decimal, int]))
    if kind in PRESETS:
        return kind
    if kind is int:
        mass = draw(st.integers(0, k - 1))
        return tuple(int(i == mass) for i in range(k))
    raw = draw(st.lists(st.integers(0, 10**9), min_size=k, max_size=k)
               .filter(any))
    exact = [Fraction(w, sum(raw)) for w in raw]
    if kind is Decimal:
        return tuple(Decimal(w.numerator) / Decimal(w.denominator)
                     for w in exact)
    return tuple(kind(w) for w in exact)


@given(exact_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_standardized_point_is_the_fraction_sum_rounded_once(table, data):
    standard = data.draw(standards(table.k))
    std = (standard_population(table, standard) if standard in PRESETS
           else StandardPopulation(weights=standard))
    assert standardized_point(table, std).coords == \
        fraction_point(table, std.weights)


def test_the_adversarial_presets_are_the_fraction_sums_rounded_once():
    for table in adversarial.adversarial_tables():
        for preset in PRESETS:
            std = standard_population(table, preset)
            assert standardized_point(table, std).coords == \
                fraction_point(table, std.weights), (table, preset)
