"""Tests for the SVG renderer and the bundled figure gallery.

The oracle here is coordinate inversion: every document is parsed with
ElementTree and pixel positions are mapped back to unit-square data
coordinates, so placement is checked against the geometry the renderer
claims to draw rather than against opaque snapshot strings. Pixel output
is rounded to 0.01px on a 480px plot area, so an inverted coordinate
carries at most ~1.05e-5 of rounding error.
"""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svg_utils as su
from rothman import glm, render
from rothman.errors import ValidationError
from rothman.figures import FIGURE_SLUGS, figure1, figure_filename, figure_svg
from rothman.geometry import (RiskPoint, association_points,
                              confounding_rectangle, standardize,
                              standardized_hull)
from rothman.measures import Measure, collapse_analysis, contour
from rothman.render import (CONTOUR_SAMPLES, ContourSpec, DiagramSpec,
                            PointSpec, render_diagram, render_grid)
from rothman.simulate import PopulationSpec, sample_table

INVERT_TOL = 2e-5

# a bare diagram draws the null line plus 11 ticks per axis
BARE_LINES = 23

# SHA-256 of each figure on its bundled fixture: every byte is pinned
FIGURE_DIGESTS = {
    1: "c8f9fd2270703b9109220f4430cd06c6526c307b8ab9035fd76c60412df02140",
    2: "29d482896d2258480b80a37e73005f65b2fdcaef30cfb9b0355488c3db62abcf",
    3: "79da38ea89e702664aef1b511ea2f2eb5e317166c49aa8760c954decbc63374c",
    4: "2eb9a04d472c1a7c7e3429d0f1a240cf731fcb3c30914bc98d0a476903cd6a88",
    5: "7c73a3e1c4c17f004ad13cb1f739e973323418c6022a3da2cb73ae3ca8e3dc79",
    6: "4c1fd3ee96f1dab37c3978947be1f7579074718c7f271ba36658709d5a685be3",
    7: "104f6595bb00986b49a3cef88c2201c5081c09bcf7e7d79913f70dfb112006f5",
}

# A population whose seeded sample gives figure 3 six contours a panel
SAMPLED_SIX = PopulationSpec(
    stratum_probs=(0.1, 0.15, 0.2, 0.25, 0.2, 0.1),
    exposure_probs=(0.2, 0.35, 0.5, 0.65, 0.4, 0.75),
    po_probs=((0.6, 0.2, 0.1, 0.1), (0.5, 0.25, 0.1, 0.15),
              (0.7, 0.1, 0.15, 0.05), (0.4, 0.3, 0.1, 0.2),
              (0.55, 0.15, 0.2, 0.1), (0.3, 0.3, 0.2, 0.2)))
# s0 has no unexposed case, so its OR, RR and HR are infinite and figure 3
# skips them
ZERO_CELL_ROWS = [("s0", 2, 6, 0, 8), ("s1", 3, 10, 2, 9), ("s2", 5, 8, 3, 7)]

# SHA-256 of each figure on those two tables
MORE_DIGESTS = {
    "sampled_six": {
        1: "6dfe797e4d1b37b156803b7092f4fd667c254353043c8d0ab94d23560846f474",
        2: "743a05db75ec64ed3dae8fbb5d382b4a8e031111f3dc5d80982f39fa2bbee0ff",
        3: "be12e4951b3ace4a95883e4c74c2df0e8f4216e467711c5b90c94a184b92ecaa",
        4: "b71428bff256d1688a74fe874dc16deb14f51deacff5538f281f303059e4def6",
        5: "7c73a3e1c4c17f004ad13cb1f739e973323418c6022a3da2cb73ae3ca8e3dc79",
        6: "29bbab5b5a101edaf5e9f2e6707bc8e5529b62dc963f5665dee492fd2dd51a4f",
        7: "d818d41dc194d4b1046e1e6a6df9c2228b6cfde4873bd80a4d29204714d61f6d",
    },
    "zero_cell": {
        1: "d5355fe64421ee012a20d6498c3ab75b3e57fdc78a2d11a8642ea7870c72aa07",
        2: "61e9ebf1ed7d2901efe8fe6213d36d97c2bffe2a8025f05f409fd37369de7f5f",
        3: "d7009025de8283b7d25cfe223d808a4b1846ff1ed253e8e14975de940db4d508",
        4: "045ff71026fff5b16a15299cac8391a8186e90eefbd21f96ec3a67a7ef28f565",
        5: "7c73a3e1c4c17f004ad13cb1f739e973323418c6022a3da2cb73ae3ca8e3dc79",
        6: "938383ac225e9079d943934b324ea810911f29eb7673b8c2f08e89d1d47d0ec5",
        7: "072b50b47cf4eff4cfd84a4bcb4a84f51c37ed4901e6e14df16eebbc3dbd080b",
    },
}


@pytest.fixture(scope="module")
def pinned_tables(make_table):
    return {"sampled_six": sample_table(SAMPLED_SIX, 20_000, seed=20261020),
            "zero_cell": make_table(ZERO_CELL_ROWS)}


def diagram(**kwargs):
    return su.parse_svg(render_diagram(DiagramSpec(**kwargs)))


def point_spec(x, y, **kwargs):
    return PointSpec(RiskPoint(x, y), **kwargs)


def circle_data_coords(root):
    return [su.to_data(cx, cy) for cx, cy, _ in su.circles(root)]


def assert_close_pairs(got, expected, tol=INVERT_TOL):
    assert len(got) == len(expected)
    unmatched = list(expected)
    for gx, gy in got:
        hit = min(unmatched,
                  key=lambda p: math.hypot(p[0] - gx, p[1] - gy))
        assert math.hypot(hit[0] - gx, hit[1] - gy) <= tol
        unmatched.remove(hit)


class TestDocument:
    def test_empty_diagram_is_well_formed(self):
        root = diagram()
        assert root.get("width") == "600"
        assert root.get("height") == "600"
        assert root.get("viewBox") == "0 0 600 600"

    def test_white_background_rect(self):
        text = render_diagram(DiagramSpec())
        assert '<rect x="0" y="0" width="600" height="600" fill="white"/>' in text

    def test_frame_polygon_traces_unit_square(self):
        polys = su.polygons(diagram())
        assert len(polys) == 1
        coords, el = polys[0]
        assert coords == [(60.0, 540.0), (540.0, 540.0),
                          (540.0, 60.0), (60.0, 60.0)]
        assert el.get("fill") == "none"

    def test_null_line_runs_corner_to_corner_in_gray(self):
        gray = [(coords, el) for coords, el in su.lines(diagram())
                if el.get("stroke") == "#999999"]
        assert len(gray) == 1
        assert gray[0][0] == ((60.0, 540.0), (540.0, 60.0))

    def test_tick_count(self):
        assert len(su.lines(diagram())) == BARE_LINES

    def test_tick_labels_on_both_axes(self):
        labels = [t for t in su.texts(diagram())
                  if t in {"0.0", "0.2", "0.4", "0.6", "0.8", "1.0"}]
        assert len(labels) == 12
        for v in ("0.0", "0.2", "0.4", "0.6", "0.8", "1.0"):
            assert labels.count(v) == 2

    def test_default_axis_labels(self):
        texts = su.texts(diagram())
        assert "risk in unexposed" in texts
        assert "risk in exposed" in texts

    def test_y_label_is_rotated(self):
        el = next(el for el, _, _ in su._walk(diagram(), 0, 0)
                  if el.text == "risk in exposed")
        assert "rotate(-90" in el.get("transform")

    def test_title_only_when_set(self):
        assert "Example title" in su.texts(diagram(title="Example title"))
        assert len(su.texts(diagram())) == 14  # 12 tick labels + 2 axis labels

    def test_output_is_deterministic(self):
        spec = DiagramSpec(points=(point_spec(0.3, 0.7, label="p"),),
                           contours=(ContourSpec(Measure.ODDS_RATIO, 2.0),))
        assert render_diagram(spec) == render_diagram(spec)


class TestPoints:
    @pytest.mark.parametrize("x,y", [
        (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
        (0.5, 0.5), (0.31420765027322406, 0.23883161512027493),
    ])
    def test_circle_position_inverts_to_data_coords(self, x, y):
        root = diagram(points=(point_spec(x, y),))
        (cx, cy, _), = su.circles(root)
        gx, gy = su.to_data(cx, cy)
        assert abs(gx - x) <= INVERT_TOL
        assert abs(gy - y) <= INVERT_TOL

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
    def test_circle_inversion_round_trips(self, x, y):
        root = diagram(points=(point_spec(x, y),))
        (cx, cy, _), = su.circles(root)
        gx, gy = su.to_data(cx, cy)
        assert math.hypot(gx - x, gy - y) <= INVERT_TOL

    def test_open_and_solid_fills(self):
        root = diagram(points=(point_spec(0.2, 0.4, style="open_circle"),
                               point_spec(0.6, 0.8, style="solid_circle")))
        fills = [fill for _, _, fill in su.circles(root)]
        assert fills == ["white", "black"]

    def test_circle_radius_and_stroke(self):
        text = render_diagram(DiagramSpec(points=(point_spec(0.5, 0.5),)))
        assert 'r="4" fill="black" stroke="black"' in text

    def test_point_label_escapes_markup(self):
        label = 'p<q & "r"'
        root = diagram(points=(point_spec(0.5, 0.5, label=label),))
        assert label in su.texts(root)
        # &, < and > become entities; quotes in character data stay as is
        text = render_diagram(DiagramSpec(
            points=(point_spec(0.5, 0.5, label=label),)))
        assert '>p&lt;q &amp; "r"</text>' in text

    def test_point_label_sits_beside_circle(self):
        root = diagram(points=(point_spec(0.5, 0.5, label="here"),))
        (cx, cy, _), = su.circles(root)
        el = next(el for el, _, _ in su._walk(root, 0, 0)
                  if el.text == "here")
        assert float(el.get("x")) == pytest.approx(cx + 7.0)
        assert float(el.get("y")) == pytest.approx(cy - 7.0)

    @pytest.mark.parametrize("label", [
        "a\x0bb", "a\x00b", "a\ud800b", "\ufffe", "\x1f"])
    def test_a_label_xml_cannot_hold_is_rejected(self, label):
        spec = DiagramSpec(points=(point_spec(0.5, 0.5, label=label),))
        with pytest.raises(ValidationError) as info:
            render_diagram(spec)
        assert str(info.value) == (
            f"text {label!r} holds a character that XML 1.0 does not allow")

    def test_titles_and_contour_labels_are_checked_too(self):
        for spec in (DiagramSpec(title="t\x01"),
                     DiagramSpec(contours=(ContourSpec(
                         Measure.ODDS_RATIO, 2.0, label="\udfff"),))):
            with pytest.raises(ValidationError, match="XML 1.0"):
                render_diagram(spec)

    def test_tabs_newlines_and_astral_characters_render(self):
        label = "a\tb\nc \U0001f600 \u00e9 \ud7ff\ue000\ufffd"
        assert label in su.texts(diagram(points=(point_spec(0.5, 0.5,
                                                            label=label),)))

    def test_unknown_point_style_rejected(self):
        with pytest.raises(ValidationError, match="unknown style"):
            point_spec(0.5, 0.5, style="dotted")


class TestSegmentsHullsRectangles:
    def test_segment_endpoints_invert(self):
        a, b = RiskPoint(0.1, 0.2), RiskPoint(0.9, 0.6)
        root = diagram(segments=((a, b),))
        extra = [item for item in su.lines(root)
                 if item[1].get("stroke-width") == "1.5"]
        assert len(extra) == 1
        (p0, p1), el = extra[0]
        assert el.get("stroke-dasharray") is None
        assert_close_pairs([su.to_data(*p0), su.to_data(*p1)],
                           [(0.1, 0.2), (0.9, 0.6)])

    def test_segments_and_hulls_solid_and_rectangles_dashed(self,
                                                            six_strata):
        _, strata = association_points(six_strata)
        root = diagram(segments=((RiskPoint(0.1, 0.2), RiskPoint(0.9, 0.6)),),
                       hulls=(standardized_hull(strata),),
                       rectangles=(confounding_rectangle(strata),))
        drawn = [(el.get("stroke-width"), el.get("stroke-dasharray"))
                 for _, el in su.polygons(root) + su.lines(root)
                 if el.get("stroke-width") != "1"]
        # the rectangle, the hull, then the segment
        assert drawn == [("1.2", "6,4"), ("1.5", None), ("1.5", None)]

    def test_hull_with_three_plus_vertices_is_polygon(self, six_strata):
        _, strata = association_points(six_strata)
        hull = standardized_hull(strata)
        root = diagram(hulls=(hull,))
        hull_polys = [(coords, el) for coords, el in su.polygons(root)
                      if el.get("stroke-width") == "1.5"]
        assert len(hull_polys) == 1
        coords, _ = hull_polys[0]
        assert len(coords) == len(hull.vertices) == 5
        assert_close_pairs([su.to_data(x, y) for x, y in coords],
                           [(v.x, v.y) for v in hull.vertices])

    def test_two_vertex_hull_is_a_line(self, whickham):
        _, strata = association_points(whickham)
        root = diagram(hulls=(standardized_hull(strata),))
        assert len(su.polygons(root)) == 1  # only the frame
        assert len(su.lines(root)) == BARE_LINES + 1

    def test_single_vertex_hull_draws_nothing(self):
        hull = standardized_hull([RiskPoint(0.4, 0.6)])
        root = diagram(hulls=(hull,))
        assert len(su.polygons(root)) == 1
        assert len(su.lines(root)) == BARE_LINES

    def test_rectangle_renders_as_dashed_polygon(self, whickham):
        _, strata = association_points(whickham)
        rect = confounding_rectangle(strata)
        root = diagram(rectangles=(rect,))
        coords, el = su.polygons(root)[1]
        assert el.get("stroke-dasharray") == "6,4"
        assert_close_pairs([su.to_data(x, y) for x, y in coords],
                           list(rect.corners))


class TestContours:
    def test_null_odds_ratio_contour_is_the_diagonal(self):
        root = diagram(contours=(ContourSpec(Measure.ODDS_RATIO, 1.0),))
        (coords, _), = su.polylines(root)
        assert len(coords) == 257
        for px, py in coords:
            x, y = su.to_data(px, py)
            assert abs(y - x) <= INVERT_TOL

    def test_risk_difference_contour_clips_at_top_edge(self):
        root = diagram(contours=(ContourSpec(Measure.RISK_DIFFERENCE, 0.25),))
        (coords, _), = su.polylines(root)
        # y = x + 0.25 leaves the square at x = 0.75, a sample point
        assert len(coords) == 193
        assert_close_pairs([su.to_data(*coords[0]), su.to_data(*coords[-1])],
                           [(0.0, 0.25), (0.75, 1.0)])

    def test_risk_ratio_contour_clips_at_top_edge(self):
        root = diagram(contours=(ContourSpec(Measure.RISK_RATIO, 4.0),))
        (coords, _), = su.polylines(root)
        assert len(coords) == 65
        x_last, y_last = su.to_data(*coords[-1])
        assert abs(x_last - 0.25) <= INVERT_TOL
        assert abs(y_last - 1.0) <= INVERT_TOL

    @pytest.mark.parametrize("measure,value", [
        (Measure.ODDS_RATIO, 2.0),
        (Measure.RISK_RATIO, 0.5),
        (Measure.RISK_DIFFERENCE, -0.3),
        (Measure.HAZARD_RATIO, 3.0),
    ])
    def test_sampled_points_satisfy_the_contour_equation(self, measure, value):
        root = diagram(contours=(ContourSpec(measure, value),))
        (coords, _), = su.polylines(root)
        assert len(coords) >= 2
        for px, py in coords:
            x, y = su.to_data(px, py)
            expected = contour(measure, value, min(max(x, 0.0), 1.0))
            assert expected is not None
            # inverted x also carries rounding error, amplified by slope
            assert abs(y - expected) <= 2e-4

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                       -0.5, 0.2567, 0.5, 2.0])
    @pytest.mark.parametrize("measure", list(Measure))
    def test_scalar_contour_matches_the_grid_evaluation(self, measure, value):
        x = np.arange(CONTOUR_SAMPLES + 1) / CONTOUR_SAMPLES
        ys = contour(measure, value, x)
        assert ys.shape == x.shape
        if value < 0 and measure is not Measure.RISK_DIFFERENCE:
            # no point has a negative ratio measure, not even at x = 0
            assert np.isnan(ys).all()
        for xi, yi in zip(x.tolist(), ys.tolist()):
            assert contour(measure, value, xi) == (
                None if math.isnan(yi) else yi), xi

    def test_default_label_uses_short_name(self):
        root = diagram(contours=(ContourSpec(Measure.ODDS_RATIO, 2.0),))
        assert "OR 2" in su.texts(root)

    def test_custom_label_overrides_default(self):
        root = diagram(contours=(ContourSpec(Measure.ODDS_RATIO, 2.0,
                                             label="twice the odds"),))
        texts = su.texts(root)
        assert "twice the odds" in texts
        assert "OR 2" not in texts

    def test_label_anchored_at_run_midpoint(self):
        root = diagram(contours=(ContourSpec(Measure.RISK_DIFFERENCE, 0.25),))
        el = next(el for el, _, _ in su._walk(root, 0, 0)
                  if el.text == "RD 0.25")
        # 193 samples: midpoint index 96 is x = 96/256
        x, y = su.to_data(float(el.get("x")) - 4.0, float(el.get("y")) + 4.0)
        assert abs(x - 96 / 256) <= INVERT_TOL
        assert abs(y - (96 / 256 + 0.25)) <= INVERT_TOL

    def test_undefined_value_draws_no_polyline(self):
        root = diagram(contours=(ContourSpec(Measure.ODDS_RATIO,
                                             float("nan")),))
        assert su.polylines(root) == []

    def test_dashed_contour_style(self):
        root = diagram(contours=(ContourSpec(Measure.ODDS_RATIO, 2.0,
                                             style="dashed"),))
        (_, el), = su.polylines(root)
        assert el.get("stroke-dasharray") == "6,4"

    def test_grid_text_rounds_a_tie_as_the_pairwise_format_does(self):
        # 60 + 480 / 256 = 61.875 exactly, and "%.2f" rounds it to even
        assert render._GRID_TEXT[1] == "61.88,"

    @settings(max_examples=60, deadline=None)
    @given(measure=st.sampled_from(list(Measure)),
           value=st.floats(-1.0, 20.0))
    def test_run_text_matches_the_pairwise_format(self, measure, value):
        got = [re.search(r'points="([^"]*)"', el).group(1)
               for el in render._contour_elements(ContourSpec(measure, value))
               if el.startswith("<polyline")]
        found = render._contour_run(measure, value)
        expected = []
        if found is not None:
            px, py = render._px(render._GRID[found[0]], found[1])
            expected.append(" ".join(
                "%.2f,%.2f" % p for p in zip(px.tolist(), py.tolist())))
        assert got == expected


class TestGrid:
    def test_four_panels_tile_two_by_two(self):
        spec = DiagramSpec()
        text = render_grid([spec] * 4)
        root = su.parse_svg(text)
        assert root.get("width") == "1200"
        assert root.get("height") == "1200"
        for offset in ("(0,0)", "(600,0)", "(0,600)", "(600,600)"):
            assert f'<g transform="translate{offset}">' in text

    def test_three_panels_leave_last_cell_empty(self):
        text = render_grid([DiagramSpec()] * 3)
        root = su.parse_svg(text)
        assert root.get("width") == "1200"
        assert root.get("height") == "1200"
        assert "translate(600,600)" not in text

    def test_single_panel_grid_is_panel_sized(self):
        root = su.parse_svg(render_grid([DiagramSpec()]))
        assert root.get("width") == "600"
        assert root.get("height") == "600"

    def test_circles_land_in_their_panels(self):
        panels = [DiagramSpec(points=(point_spec(0.25, 0.75),)),
                  DiagramSpec(points=(point_spec(0.5, 0.5),)),
                  DiagramSpec(points=(point_spec(0.9, 0.1),))]
        root = su.parse_svg(render_grid(panels))
        circles = su.circles(root)
        assert [(int(cx // 600), int(cy // 600)) for cx, cy, _ in circles] \
            == [(0, 0), (1, 0), (0, 1)]
        assert_close_pairs([su.to_data(cx, cy) for cx, cy, _ in circles],
                           [(0.25, 0.75), (0.5, 0.5), (0.9, 0.1)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="at least one panel"):
            render_grid([])


class TestSpecValidation:
    @pytest.mark.parametrize("spec, args, style, allowed, fields", [
        (PointSpec, (RiskPoint(0.5, 0.5),), "hollow",
         "('open_circle', 'solid_circle')", ("point", "style", "label")),
        (ContourSpec, (Measure.ODDS_RATIO, 2.0), "wavy",
         "('solid', 'dashed')", ("measure", "value", "style", "label")),
    ], ids=["point", "contour"])
    def test_unknown_line_styles_rejected(self, spec, args, style, allowed,
                                          fields):
        with pytest.raises(ValidationError) as info:
            spec(*args, style=style)
        assert str(info.value) == (
            f"unknown style '{style}'; expected one of {allowed}")
        # the allowed styles belong to the class, not to each spec
        assert tuple(f.name for f in dataclasses.fields(spec)) == fields


class TestFigureGallery:
    def test_figure_filenames(self):
        assert figure_filename(1) == "fig1_standardized_points.svg"
        assert figure_filename(2) == "fig2_confounding_rectangle.svg"
        assert figure_filename(3) == "fig3_effect_modification.svg"
        assert figure_filename(4) == "fig4_standardized_hull.svg"
        assert figure_filename(5) == "fig5_contour_gallery.svg"
        assert figure_filename(6) == "fig6_collapsible_risk_difference.svg"
        assert figure_filename(7) == "fig7_noncollapsible_odds_ratio.svg"

    @pytest.mark.parametrize("number", [0, 8, -1])
    def test_unknown_figure_numbers_rejected(self, number):
        with pytest.raises(ValidationError, match="unknown figure"):
            figure_filename(number)
        with pytest.raises(ValidationError, match="unknown figure"):
            figure_svg(number)

    @pytest.mark.parametrize("number", sorted(FIGURE_SLUGS))
    def test_every_figure_parses(self, number):
        su.parse_svg(figure_svg(number))

    @pytest.mark.parametrize("number", sorted(FIGURE_SLUGS))
    def test_figure_bytes_are_pinned(self, number):
        digest = hashlib.sha256(figure_svg(number).encode("utf-8"))
        assert digest.hexdigest() == FIGURE_DIGESTS[number]

    @pytest.mark.parametrize("number", sorted(FIGURE_SLUGS))
    @pytest.mark.parametrize("name", sorted(MORE_DIGESTS))
    def test_figure_bytes_are_pinned_on_more_tables(self, pinned_tables,
                                                    name, number):
        text = figure_svg(number, pinned_tables[name])
        su.parse_svg(text)
        digest = hashlib.sha256(text.encode("utf-8"))
        assert digest.hexdigest() == MORE_DIGESTS[name][number]

    def test_figure3_contours_on_more_tables(self, pinned_tables):
        # six strata give six contours a panel; the zero cell's stratum
        # adds only its risk difference
        for name, count in (("sampled_six", 24), ("zero_cell", 9)):
            root = su.parse_svg(figure_svg(3, pinned_tables[name]))
            assert len(su.polylines(root)) == count, name

    def test_figures_are_deterministic(self):
        assert figure_svg(1) == figure_svg(1)
        assert figure_svg(5) == figure_svg(5)

    def test_figure1_points(self):
        root = su.parse_svg(figure_svg(1))
        circles = su.circles(root)
        assert len(circles) == 6
        assert [f for _, _, f in circles].count("white") == 4
        assert_close_pairs(
            [su.to_data(cx, cy) for cx, cy, _ in circles],
            [(0.31420765027322406, 0.23883161512027493),
             (0.12059369202226346, 0.18198874296435272),
             (0.8549222797927462, 0.8571428571428571),
             (0.2558353345188059, 0.30633219473847606),
             (0.1824186074874759, 0.23883161512027493),
             (0.31420765027322406, 0.3600006883693409)])
        texts = su.texts(root)
        for label in ("crude", "18-64", "65+", "study sample", "exposed",
                      "unexposed"):
            assert label in texts

    def test_figure2_rectangle(self, whickham):
        root = su.parse_svg(figure_svg(2))
        assert len(su.circles(root)) == 3
        _, strata = association_points(whickham)
        rect = confounding_rectangle(strata)
        dashed = [(coords, el) for coords, el in su.polygons(root)
                  if el.get("stroke-dasharray") == "6,4"]
        assert len(dashed) == 1
        assert_close_pairs([su.to_data(x, y) for x, y in dashed[0][0]],
                           list(rect.corners))

    def test_figure3_grid_of_stratum_contours(self):
        root = su.parse_svg(figure_svg(3))
        assert root.get("width") == "1200"
        assert root.get("height") == "1200"
        assert len(su.circles(root)) == 8
        assert len(su.polylines(root)) == 8  # two stratum contours per panel
        texts = su.texts(root)
        for m in Measure:
            assert f"Stratum contours: {m.label}" in texts
        assert "OR 1.622" in texts
        assert "OR 1.018" in texts
        assert "RD 0.061" in texts

    def test_figure3_skips_repeated_and_undefined_values(self, make_table):
        # Strata at (0, 0) and (0.3, 0.3): both have RD 0, drawn once, and
        # the ratios are undefined (0/0) at the first, so each panel gets
        # the one contour of the second stratum.
        table = make_table([("s0", 0, 5, 0, 7), ("s1", 3, 10, 3, 10)])
        root = su.parse_svg(figure_svg(3, table))
        assert len(su.polylines(root)) == 4
        texts = su.texts(root)
        for label in ("OR 1.000", "RR 1.000", "RD 0.000", "HR 1.000"):
            assert texts.count(label) == 1

    def test_figure4_hull_and_rectangle(self, six_strata):
        root = su.parse_svg(figure_svg(4))
        circles = su.circles(root)
        assert len(circles) == 6
        assert all(fill == "black" for _, _, fill in circles)
        _, strata = association_points(six_strata)
        hull = standardized_hull(strata)
        hull_polys = [coords for coords, el in su.polygons(root)
                      if el.get("stroke-width") == "1.5"]
        assert len(hull_polys) == 1
        assert_close_pairs([su.to_data(x, y) for x, y in hull_polys[0]],
                           [(v.x, v.y) for v in hull.vertices])
        assert any(el.get("stroke-dasharray") == "6,4"
                   for _, el in su.polygons(root))

    def test_figure5_contour_gallery(self):
        root = su.parse_svg(figure_svg(5))
        assert su.circles(root) == []
        assert len(su.polylines(root)) == 20  # five values per measure
        texts = su.texts(root)
        for m in Measure:
            assert f"Contours of the {m.label}" in texts
        for label in ("OR 0.25", "OR 4", "RD -0.5", "RD 0", "RR 2", "HR 0.5"):
            assert label in texts

    def test_figure6_collapsible_risk_difference(self):
        root = su.parse_svg(figure_svg(6))
        circles = su.circles(root)
        assert len(circles) == 2  # no extreme marker: RD is collapsible
        assert all(fill == "black" for _, _, fill in circles)
        (_, el), = su.polylines(root)
        assert el.get("stroke-dasharray") == "6,4"
        texts = su.texts(root)
        assert "RD 0.052" in texts
        assert not any(t.startswith("min ") for t in texts)

    def test_figure7_noncollapsible_odds_ratio(self, whickham):
        root = su.parse_svg(figure_svg(7))
        circles = su.circles(root)
        assert len(circles) == 3
        open_circles = [(cx, cy) for cx, cy, fill in circles
                        if fill == "white"]
        assert len(open_circles) == 1
        texts = su.texts(root)
        assert "OR 1.537" in texts
        assert "min OR 1.229" in texts
        # the open marker sits where the standardized odds ratio dips lowest
        fit = glm.fit(glm.ModelSpec(link="logit",
                                    terms="exposure_plus_stratum",
                                    table=whickham))
        fitted = glm.fitted_stratum_points(fit)
        report = collapse_analysis(Measure.ODDS_RATIO, fitted)
        extreme = standardize(fitted, report.argmin_weights)
        x, y = su.to_data(*open_circles[0])
        assert math.hypot(x - extreme.x, y - extreme.y) <= INVERT_TOL

    def test_figure_svg_accepts_custom_table(self, six_strata):
        root = su.parse_svg(figure_svg(1, six_strata))
        # crude + six strata + three standardized points, hull not segment
        assert len(su.circles(root)) == 10
        assert len(su.polygons(root)) == 2
        assert figure_svg(1, six_strata) == figure1(six_strata)


def _loaded_by_import(modules):
    """Those of ``modules`` that a fresh ``import rothman`` loads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import rothman, sys; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return done.stdout.strip()


def test_import_pulls_in_no_network_modules():
    # The runtime needs numpy only, so importing it loads no web or mail stack.
    assert _loaded_by_import(("urllib.request", "http.client", "ssl", "email",
                              "xml.sax.saxutils")) == "[]"


def test_import_pulls_in_no_thread_pool_or_logging():
    # Only sampling needs the thread pool, whose import loads `logging`.
    assert _loaded_by_import(("concurrent.futures", "logging")) == "[]"
