"""Potential-outcomes populations: exact truth, confounding, sampling.

The membership oracle checks hull containment by Caratheodory's theorem:
a point lies in the convex hull of a finite set exactly when it lies in
some triangle, segment, or single point drawn from the set. Everything is
exact rational arithmetic, so the confounding fuzz below has no tolerance
knobs at all.
"""

import concurrent.futures
import json
import math
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rothman import simulate
from rothman.errors import ParseError, ValidationError
from rothman.simulate import (PopulationSpec, PopulationTruth,
                              parse_population_spec, population_truth,
                              sample_table)

F = Fraction


# ----------------------------------------------------------------- oracle

def _cross(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def on_segment_exact(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    dot = ((p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1]))
    len2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    if len2 == 0:
        return p == a
    return 0 <= dot <= len2


def in_triangle_exact(p, a, b, c):
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def in_hull_exact(p, points):
    """Exact membership of p in conv(points) for small point sets."""
    pts = [tuple(F(v) for v in q) for q in points]
    p = tuple(F(v) for v in p)
    if any(p == q for q in pts):
        return True
    if any(on_segment_exact(p, a, b) for a, b in combinations(pts, 2)):
        return True
    return any(in_triangle_exact(p, a, b, c)
               for a, b, c in combinations(pts, 3))


def test_oracle_sanity():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert in_hull_exact((F(1, 2), F(1, 2)), square)
    assert in_hull_exact((0, 0), square)
    assert in_hull_exact((F(1, 2), 0), square)
    assert not in_hull_exact((F(3, 2), F(1, 2)), square)
    seg = [(0, 0), (F(1, 2), F(1, 2))]
    assert in_hull_exact((F(1, 4), F(1, 4)), seg)
    assert not in_hull_exact((F(1, 4), F(1, 3)), seg)
    assert in_hull_exact((F(1, 7), F(2, 7)), [(F(1, 7), F(2, 7))])


# ------------------------------------------------------------- population

EXAMPLE = dict(
    stratum_probs=(F(1, 2), F(1, 2)),
    exposure_probs=(F(1, 4), F(3, 4)),
    po_probs=((F(2, 5), F(1, 5), F(1, 10), F(3, 10)),
              (F(7, 10), F(1, 10), F(1, 10), F(1, 10))))


class TestPopulationSpec:
    def test_causal_risks_from_joint_distribution(self):
        spec = PopulationSpec(**EXAMPLE)
        assert spec.causal_risks_exact() == (
            (F(2, 5), F(1, 2)), (F(1, 5), F(1, 5)))
        assert spec.k == 2

    def test_float_probabilities_accepted(self):
        spec = PopulationSpec(stratum_probs=(0.5, 0.5),
                              exposure_probs=(0.25, 0.75),
                              po_probs=((0.4, 0.2, 0.1, 0.3),
                                        (0.7, 0.1, 0.1, 0.1)))
        (x0, y0), _ = spec.causal_risks_exact()
        assert float(x0) == pytest.approx(0.4)
        assert float(y0) == pytest.approx(0.5)

    def test_stratum_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PopulationSpec(stratum_probs=(0.5, 0.6),
                           exposure_probs=(0.5, 0.5),
                           po_probs=((1, 0, 0, 0), (1, 0, 0, 0)))

    def test_po_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PopulationSpec(stratum_probs=(1.0,), exposure_probs=(0.5,),
                           po_probs=((0.5, 0.5, 0.5, 0.5),))

    def test_po_rows_must_have_four_entries(self):
        with pytest.raises(ValidationError):
            PopulationSpec(stratum_probs=(1.0,), exposure_probs=(0.5,),
                           po_probs=((0.5, 0.5),))

    def test_lengths_must_agree(self):
        with pytest.raises(ValidationError):
            PopulationSpec(stratum_probs=(0.5, 0.5), exposure_probs=(0.5,),
                           po_probs=((1, 0, 0, 0), (1, 0, 0, 0)))
        with pytest.raises(ValidationError, match="at least one stratum"):
            PopulationSpec(stratum_probs=(), exposure_probs=(), po_probs=())

    def test_exposure_probs_in_unit_interval(self):
        with pytest.raises(ValidationError):
            PopulationSpec(stratum_probs=(1.0,), exposure_probs=(1.5,),
                           po_probs=((1, 0, 0, 0),))

    @pytest.mark.parametrize("field", ["stratum_probs", "exposure_probs",
                                       "po_probs"])
    def test_non_finite_probabilities_rejected(self, field):
        # NaN fails every comparison, so it once passed the range checks
        for bad in (math.nan, math.inf, -math.inf):
            fields = dict(stratum_probs=(0.5, 0.5), exposure_probs=(0.5, 0.5),
                          po_probs=((1, 0, 0, 0), (0.25, 0.25, 0.25, 0.25)))
            if field == "po_probs":
                fields[field] = ((1, 0, 0, 0), (bad, 0.5, 0.25, 0.25))
            else:
                fields[field] = (bad, 0.5)
            with pytest.raises(ValidationError, match="must lie in"):
                PopulationSpec(**fields)


class TestPopulationTruth:
    def test_hand_computed_example(self):
        truth = population_truth(PopulationSpec(**EXAMPLE))
        assert truth.stratum_exact == ((F(2, 5), F(1, 2)), (F(1, 5), F(1, 5)))
        assert truth.marginal_exact == (F(3, 10), F(7, 20))
        assert truth.crude_exact == (F(7, 20), F(11, 40))
        assert truth.confounded
        assert truth.crude_point.coords == (0.35, 0.275)
        assert truth.marginal_causal_point.coords == (0.3, 0.35)
        assert [p.coords for p in truth.causal_points] == [(0.4, 0.5),
                                                           (0.2, 0.2)]
        assert [p.tag for p in truth.association_points] == ["stratum:0",
                                                             "stratum:1"]

    def test_association_points_equal_causal_points(self):
        # exposure is randomized within stratum, so the two coincide
        truth = population_truth(PopulationSpec(**EXAMPLE))
        for a, c in zip(truth.association_points, truth.causal_points):
            assert a.coords == c.coords

    def test_equal_exposure_probs_not_confounded(self):
        spec = PopulationSpec(
            stratum_probs=(F(1, 2), F(1, 2)),
            exposure_probs=(F(1, 3), F(1, 3)),
            po_probs=EXAMPLE["po_probs"])
        truth = population_truth(spec)
        assert not truth.confounded
        assert in_hull_exact(truth.crude_exact,
                             [tuple(r) for r in truth.stratum_exact])
        assert truth.crude_exact == truth.marginal_exact

    def test_identical_stratum_points_not_confounded(self):
        spec = PopulationSpec(
            stratum_probs=(F(1, 2), F(1, 2)),
            exposure_probs=(F(1, 4), F(3, 4)),
            po_probs=((F(2, 5), F(1, 5), F(1, 10), F(3, 10)),
                      (F(2, 5), F(1, 5), F(1, 10), F(3, 10))))
        truth = population_truth(spec)
        assert not truth.confounded
        assert truth.crude_exact == (F(2, 5), F(1, 2))

    def test_confounded_crude_point_leaves_the_hull(self):
        truth = population_truth(PopulationSpec(**EXAMPLE))
        assert not in_hull_exact(truth.crude_exact,
                                 [tuple(r) for r in truth.stratum_exact])

    def test_shared_coordinate_keeps_crude_on_the_segment(self):
        # both strata share Pr(D0=1) = 2/5: the segment is vertical and
        # the crude point stays on it despite genuine confounding
        spec = PopulationSpec(
            stratum_probs=(F(1, 2), F(1, 2)),
            exposure_probs=(F(1, 4), F(3, 4)),
            po_probs=((F(2, 5), F(1, 5), F(1, 10), F(3, 10)),
                      (F(1, 2), F(1, 10), F(3, 10), F(1, 10))))
        truth = population_truth(spec)
        assert truth.confounded
        assert truth.stratum_exact[0][0] == truth.stratum_exact[1][0]
        assert in_hull_exact(truth.crude_exact,
                             [tuple(r) for r in truth.stratum_exact])

    def test_zero_probability_cells_rejected(self):
        with pytest.raises(ValidationError, match="stratum 0"):
            population_truth(PopulationSpec(
                stratum_probs=(0.0, 1.0), exposure_probs=(0.5, 0.5),
                po_probs=((1, 0, 0, 0), (1, 0, 0, 0))))
        with pytest.raises(ValidationError, match="exposed"):
            population_truth(PopulationSpec(
                stratum_probs=(1.0,), exposure_probs=(0.0,),
                po_probs=((1, 0, 0, 0),)))
        with pytest.raises(ValidationError, match="unexposed"):
            population_truth(PopulationSpec(
                stratum_probs=(1.0,), exposure_probs=(1.0,),
                po_probs=((1, 0, 0, 0),)))

    def test_result_type(self):
        assert isinstance(population_truth(PopulationSpec(**EXAMPLE)),
                          PopulationTruth)


prob = st.fractions(min_value=0, max_value=1, max_denominator=20)
open_prob = st.fractions(
    min_value=0, max_value=1, max_denominator=20).filter(lambda v: 0 < v < 1)


@st.composite
def population_specs(draw, min_k=2, max_k=2):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    raw_w = draw(st.lists(st.integers(min_value=1, max_value=9),
                          min_size=k, max_size=k))
    total = sum(raw_w)
    weights = tuple(F(w, total) for w in raw_w)
    exposure = tuple(draw(open_prob) for _ in range(k))
    rows = []
    for _ in range(k):
        raw = draw(st.lists(st.integers(min_value=0, max_value=8),
                            min_size=4, max_size=4).filter(
                                lambda r: sum(r) > 0))
        s = sum(raw)
        rows.append(tuple(F(v, s) for v in raw))
    return PopulationSpec(stratum_probs=weights, exposure_probs=exposure,
                          po_probs=tuple(rows))


@given(population_specs())
@settings(max_examples=300)
def test_two_stratum_confounding_is_exactly_hull_departure(spec):
    truth = population_truth(spec)
    pts = [tuple(r) for r in truth.stratum_exact]
    member = in_hull_exact(truth.crude_exact, pts)
    if not truth.confounded:
        assert member
    else:
        (x0, y0), (x1, y1) = pts
        if x0 != x1 and y0 != y1:
            assert not member
        # a shared coordinate is the known degenerate direction: the
        # crude point cannot leave a segment parallel to the axis the
        # distortion acts along, so membership may go either way


@given(population_specs(min_k=3, max_k=6))
@settings(max_examples=150)
def test_many_stratum_hull_departure_implies_confounding(spec):
    truth = population_truth(spec)
    pts = [tuple(r) for r in truth.stratum_exact]
    if not in_hull_exact(truth.crude_exact, pts):
        assert truth.confounded


@given(population_specs(min_k=2, max_k=4))
@settings(max_examples=150)
def test_marginal_causal_point_always_in_hull(spec):
    truth = population_truth(spec)
    assert in_hull_exact(truth.marginal_exact,
                         [tuple(r) for r in truth.stratum_exact])


# --------------------------------------------------------------- sampling

class TestSampleTable:
    def test_frozen_golden_sample(self):
        table = sample_table(PopulationSpec(**EXAMPLE), 400, seed=20260815)
        cells = [(label, c.exposed_cases, c.exposed_total,
                  c.unexposed_cases, c.unexposed_total)
                 for label, c in table.strata]
        assert cells == [("s1", 26, 45, 66, 142), ("s2", 44, 161, 20, 52)]

    def test_frozen_sample_at_benchmark_scale(self):
        # n = 1e6 over six strata, the CLI benchmark's size, with one zero
        # probability; the counts agree with reference_sample below
        spec = PopulationSpec(
            stratum_probs=(0.1, 0.25, 0.05, 0.2, 0.3, 0.1),
            exposure_probs=(0.3, 0.5, 0.7, 0.25, 0.6, 0.45),
            po_probs=((0.5, 0.2, 0.1, 0.2), (0.3, 0.3, 0.15, 0.25),
                      (0.6, 0.25, 0.05, 0.1), (0.2, 0.4, 0.1, 0.3),
                      (0.45, 0.15, 0.25, 0.15), (0.0, 0.5, 0.2, 0.3)))
        table = sample_table(spec, 1_000_000, seed=20261018)
        cells = [(label, c.exposed_cases, c.exposed_total,
                  c.unexposed_cases, c.unexposed_total)
                 for label, c in table.strata]
        assert cells == [("s1", 12084, 30155, 21075, 70294),
                         ("s2", 68583, 124624, 49673, 124835),
                         ("s3", 12303, 35591, 2219, 14989),
                         ("s4", 35080, 50278, 59941, 150829),
                         ("s5", 54087, 179538, 47659, 119447),
                         ("s6", 35901, 45034, 27127, 54386)]

    def test_same_seed_reproduces_the_table(self):
        spec = PopulationSpec(**EXAMPLE)
        assert sample_table(spec, 1000, seed=3) == \
            sample_table(spec, 1000, seed=3)

    def test_different_seeds_differ(self):
        spec = PopulationSpec(**EXAMPLE)
        assert sample_table(spec, 1000, seed=3) != \
            sample_table(spec, 1000, seed=4)

    def test_counts_partition_the_sample(self):
        spec = PopulationSpec(**EXAMPLE)
        table = sample_table(spec, 5000, seed=11)
        assert sum(c.total for c in table.cells) == 5000
        assert table.labels == ("s1", "s2")

    def test_large_sample_concentrates_on_the_truth(self):
        spec = PopulationSpec(**EXAMPLE)
        truth = population_truth(spec)
        table = sample_table(spec, 200_000, seed=7)
        for cell, pt in zip(table.cells, truth.association_points):
            x, y = cell.risks()
            assert x == pytest.approx(pt.x, abs=0.01)
            assert y == pytest.approx(pt.y, abs=0.01)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            sample_table(PopulationSpec(**EXAMPLE), 0, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            sample_table(PopulationSpec(**EXAMPLE), 10, seed=-1)


def _pick(probs, u):
    """Index of the first category whose running float total exceeds u.

    The last category takes whatever rounding leaves of the total.
    """
    total = 0.0
    for i, p in enumerate(probs[:-1]):
        total += float(p)
        if u < total:
            return i
    return len(probs) - 1


def reference_sample(spec, n, seed):
    """sample_table person by person, from the same three draws."""
    rng = np.random.Generator(np.random.Philox(seed))
    u_stratum = rng.random(n).tolist()
    u_exposure = rng.random(n).tolist()
    u_outcome = rng.random(n).tolist()
    counts = [[0, 0, 0, 0] for _ in range(spec.k)]
    for uc, ux, ud in zip(u_stratum, u_exposure, u_outcome):
        c = _pick(spec.stratum_probs, uc)
        x = ux < float(spec.exposure_probs[c])
        d0, d1 = divmod(_pick(spec.po_probs[c], ud), 2)
        d = d1 if x else d0  # consistency: D = D_X
        counts[c][2 * x + d] += 1
    return [(f"s{c + 1}", e1, e0 + e1, u1, u0 + u1)
            for c, (u0, u1, e0, e1) in enumerate(counts)]


def whole_array_sample(spec, n, seed):
    """sample_table over whole n-long arrays, from the same three draws.

    The sampler as it was before it counted in chunks: one searchsorted
    over all stratum draws, then one bincount of the cell keys.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    k = spec.k
    stratum_cum = np.cumsum([float(w) for w in spec.stratum_probs])
    stratum_cum[-1] = 1.0
    c = np.searchsorted(stratum_cum, rng.random(n), side="right")
    exposure = np.array([float(e) for e in spec.exposure_probs])
    key = 4 * c + 2 * (rng.random(n) < exposure[c])
    cum = np.cumsum([[float(v) for v in row] for row in spec.po_probs],
                    axis=1)
    lo, hi, top = np.full((3, 4 * k), 2.0)
    lo[0::4] = cum[:, 1]
    lo[2::4], hi[2::4], top[2::4] = cum[:, :3].T
    u = rng.random(n)
    d = (u >= lo[key]) & (u < hi[key]) | (u >= top[key])
    cells = np.bincount(key + d, minlength=4 * k).reshape(k, 4)
    return [(f"s{c + 1}", e1, e0 + e1, u1, u0 + u1)
            for c, (u0, u1, e0, e1) in enumerate(cells.tolist())]


def _boundary_spec(k):
    """k strata, a fifth of them empty, with sure and impossible exposure
    and zero outcome probabilities; exact rationals unless k = 6."""
    rng = np.random.default_rng(k)
    weights = rng.integers(1, 10, size=k) * (np.arange(k) % 5 != 1)
    exact = k != 6

    def distribution(raw):
        raw = [int(v) for v in raw]
        return tuple(F(v, sum(raw)) if exact else v / sum(raw) for v in raw)

    exposure = [F(int(v), 7) for v in rng.integers(0, 8, size=k)]
    return PopulationSpec(
        stratum_probs=distribution(weights),
        exposure_probs=tuple(e if exact else float(e) for e in exposure),
        po_probs=tuple(distribution(rng.integers(0, 5, size=4)
                                    + np.eye(4, dtype=int)[i % 4])
                       for i in range(k)))


CHUNK = 2**16


class TestChunkedSampling:
    """sample_table counts in chunks of 2**16 people, one range of chunks
    per core; every split gives the whole-array table."""

    @pytest.mark.parametrize("k", [1, 6, 200])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 3, 1_000_000])
    def test_every_split_matches_the_whole_array_sampler(self, monkeypatch,
                                                         n, k):
        spec = _boundary_spec(k)
        for seed in (0, 2**64 - 1, 12345 + n):
            expected = whole_array_sample(spec, n, seed)
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "_WORKERS", workers)
                table = sample_table(spec, n, seed)
                assert [(label, c.exposed_cases, c.exposed_total,
                         c.unexposed_cases, c.unexposed_total)
                        for label, c in table.strata] == expected, \
                    (seed, workers)

    def test_whole_array_sampler_matches_the_per_person_reference(self):
        spec = _boundary_spec(6)
        assert whole_array_sample(spec, 3000, 9) == \
            reference_sample(spec, 3000, 9)

    @pytest.mark.parametrize("n,ranges", [(1, 1), (CHUNK, 1),
                                          (CHUNK + 1, 2), (3 * CHUNK, 3),
                                          (5 * CHUNK, 3)])
    def test_one_pool_worker_and_task_per_range(self, monkeypatch, n,
                                                ranges):
        pools = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.workers, self.tasks = max_workers, []
                pools.append(self)

            def submit(self, fn, *args):
                self.tasks.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(simulate, "_WORKERS", 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        sample_table(PopulationSpec(**EXAMPLE), n, seed=1)
        pool, = pools
        assert pool.workers == ranges == len(pool.tasks)
        # the tasks are nonempty ranges that tile the people in order
        firsts, lasts = zip(*pool.tasks)
        assert firsts == (0, *lasts[:-1]) and lasts[-1] == n
        assert all(a < b for a, b in pool.tasks)

    def test_a_worker_error_is_raised_in_the_caller(self, monkeypatch):
        stream = simulate._stream

        def failing(seed, start):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return stream(seed, start)

        monkeypatch.setattr(simulate, "_WORKERS", 2)
        monkeypatch.setattr(simulate, "_stream", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            sample_table(PopulationSpec(**EXAMPLE), 2 * CHUNK, seed=1)


@st.composite
def sampling_specs(draw):
    """Specs with zero probabilities, sure or impossible exposure, and
    either exact or float entries."""
    k = draw(st.integers(min_value=1, max_value=4))
    exact = draw(st.booleans())

    def distribution(size):
        raw = draw(st.lists(st.integers(min_value=0, max_value=9),
                            min_size=size, max_size=size).filter(any))
        return tuple(F(v, sum(raw)) if exact else v / sum(raw) for v in raw)

    exposure = [draw(st.one_of(st.sampled_from([0, 1]), prob))
                for _ in range(k)]
    return PopulationSpec(
        stratum_probs=distribution(k),
        exposure_probs=tuple(e if exact else float(e) for e in exposure),
        po_probs=tuple(distribution(4) for _ in range(k)))


@given(sampling_specs(), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_sample_table_matches_per_person_reference(spec, n, seed):
    table = sample_table(spec, n, seed)
    assert [(label, c.exposed_cases, c.exposed_total, c.unexposed_cases,
             c.unexposed_total) for label, c in table.strata] == \
        reference_sample(spec, n, seed)


class TestParsePopulationSpec:
    def test_round_trip_through_json(self):
        spec = PopulationSpec(**EXAMPLE)
        parsed = parse_population_spec(json.dumps(spec.to_json_dict()))
        truth = population_truth(parsed)
        # floats in transit: compare at double precision
        assert truth.crude_point.coords == pytest.approx((0.35, 0.275),
                                                         abs=1e-12)
        assert truth.confounded

    def test_accepts_a_dict(self):
        spec = parse_population_spec(PopulationSpec(**EXAMPLE).to_json_dict())
        assert spec.k == 2

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="po_probs"):
            parse_population_spec('{"stratum_probs": [1.0], '
                                  '"exposure_probs": [0.5]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            parse_population_spec("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_population_spec("[1, 2]")
        with pytest.raises(ParseError, match="malformed population spec"):
            parse_population_spec('{"stratum_probs": [1.0], '
                                  '"exposure_probs": [0.5], "po_probs": [1]}')
