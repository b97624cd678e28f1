"""Potential-outcomes populations: exact truth and finite sampling.

A population is described by the stratum distribution, the exposure
probability within each stratum, and the joint distribution of the two
potential outcomes (D0, D1) within each stratum. Exposure is assigned
independently of the potential outcomes given the stratum, so stratum
association points equal stratum causal points exactly; only the crude
point can be distorted, which is what makes the module useful as ground
truth for confounding checks.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import (RiskPoint, _check_distribution, _check_unit_interval,
                       _ratio)
from .tables import CohortCell, StratifiedCohortTable

# people counted at a time: a range's word row and two int64 rows, 0.75
# MiB, stay in L2, and two ranges trade the interpreter lock less often
_CHUNK = 1 << 15
# the cores this process may run on, where the platform tells
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """A stratified population over (C, X, D0, D1).

    ``po_probs[c]`` is the joint distribution (p00, p01, p10, p11) of
    (D0, D1) given C = c, in the order Pr(D0=a, D1=b) for (a, b) =
    (0,0), (0,1), (1,0), (1,1). A probability is any number in [0, 1] but
    a bool, as a `StandardPopulation` weight is, taken at its exact value.
    """

    stratum_probs: tuple
    exposure_probs: tuple
    po_probs: tuple

    def __post_init__(self) -> None:
        sp = tuple(self.stratum_probs)
        ep = tuple(self.exposure_probs)
        po = tuple(tuple(row) for row in self.po_probs)
        object.__setattr__(self, "stratum_probs", sp)
        object.__setattr__(self, "exposure_probs", ep)
        object.__setattr__(self, "po_probs", po)
        if len(sp) < 1:
            raise ValidationError("population needs at least one stratum")
        if len(ep) != len(sp) or len(po) != len(sp):
            raise ValidationError(
                "stratum_probs, exposure_probs, and po_probs must have "
                f"equal length: {len(sp)}, {len(ep)}, {len(po)}")
        _check_distribution(sp, "stratum probabilities")
        _check_unit_interval(ep, "exposure probabilities")
        for c, row in enumerate(po):
            if len(row) != 4:
                raise ValidationError(
                    f"po_probs[{c}] must have four entries, got {len(row)}")
            _check_distribution(row, f"po_probs[{c}]")

    @property
    def k(self) -> int:
        return len(self.stratum_probs)

    def causal_risks_exact(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per stratum (Pr(D0=1 | c), Pr(D1=1 | c)) as exact rationals."""
        out = []
        for row in self.po_probs:
            p00, p01, p10, p11 = (Fraction(*_ratio(v)) for v in row)
            out.append((p10 + p11, p01 + p11))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "stratum_probs": [float(v) for v in self.stratum_probs],
            "exposure_probs": [float(v) for v in self.exposure_probs],
            "po_probs": [[float(v) for v in row] for row in self.po_probs],
        }


@dataclass(frozen=True, slots=True)
class PopulationTruth:
    """Exact expectations implied by a PopulationSpec.

    Causal points use counterfactual risks; association points use
    conditional risks among the exposed and unexposed. The ``*_exact``
    fields carry the same quantities as rationals for exact geometry.
    """

    causal_points: tuple[RiskPoint, ...]
    marginal_causal_point: RiskPoint
    association_points: tuple[RiskPoint, ...]
    crude_point: RiskPoint
    confounded: bool
    stratum_exact: tuple[tuple[Fraction, Fraction], ...]
    marginal_exact: tuple[Fraction, Fraction]
    crude_exact: tuple[Fraction, Fraction]


def population_truth(spec: PopulationSpec) -> PopulationTruth:
    """Exact causal and association points for the population.

    Requires every (stratum, exposure) margin to have positive
    probability, otherwise the corresponding conditional risk is
    undefined.
    """
    weights = [Fraction(*_ratio(w)) for w in spec.stratum_probs]
    exposure = [Fraction(*_ratio(e)) for e in spec.exposure_probs]
    risks = spec.causal_risks_exact()

    for c, (w, e) in enumerate(zip(weights, exposure)):
        if w == 0:
            raise ValidationError(f"stratum {c} has probability zero")
        if e == 0:
            raise ValidationError(f"cell (stratum {c}, exposed) has probability zero")
        if e == 1:
            raise ValidationError(f"cell (stratum {c}, unexposed) has probability zero")

    marginal_x = sum(w * x for w, (x, _) in zip(weights, risks))
    marginal_y = sum(w * y for w, (_, y) in zip(weights, risks))

    unexposed_mass = sum(w * (1 - e) for w, e in zip(weights, exposure))
    exposed_mass = sum(w * e for w, e in zip(weights, exposure))
    crude_x = sum(w * (1 - e) * x
                  for w, e, (x, _) in zip(weights, exposure, risks)) / unexposed_mass
    crude_y = sum(w * e * y
                  for w, e, (_, y) in zip(weights, exposure, risks)) / exposed_mass

    exposure_varies = any(e != exposure[0] for e in exposure[1:])
    points_differ = any(r != risks[0] for r in risks[1:])
    confounded = exposure_varies and points_differ

    causal_points = tuple(
        RiskPoint(float(x), float(y), tag=f"causal:{c}")
        for c, (x, y) in enumerate(risks))
    association_points = tuple(
        RiskPoint(float(x), float(y), tag=f"stratum:{c}")
        for c, (x, y) in enumerate(risks))
    return PopulationTruth(
        causal_points=causal_points,
        marginal_causal_point=RiskPoint(float(marginal_x), float(marginal_y),
                                        tag="causal:marginal"),
        association_points=association_points,
        crude_point=RiskPoint(float(crude_x), float(crude_y), tag="crude"),
        confounded=confounded,
        stratum_exact=risks,
        marginal_exact=(marginal_x, marginal_y),
        crude_exact=(crude_x, crude_y),
    )


def _numerators(probs) -> np.ndarray:
    """The least v with v / 2**53 >= p for each p, capped at 2**53: a raw
    Philox word w is the draw u = (w >> 11) / 2**53, so u >= p exactly when
    w >> 11 reaches it, and the cap, which no w >> 11 reaches, is never."""
    scaled = np.ldexp(np.asarray(probs, dtype=float), 53)
    return np.minimum(np.ceil(scaled), 2.0**53).astype(np.int64)


def _stream(seed: int, start: int) -> np.random.Philox:
    """Philox(seed) from its word ``start`` on; a counter step is 4 words."""
    stream = np.random.Philox(seed, counter=start // 4)
    stream.random_raw(start % 4, output=False)
    return stream


def sample_table(spec: PopulationSpec, n: int, seed: int,
                 ) -> StratifiedCohortTable:
    """Sample n individuals (C, X, D) with D set by consistency.

    Person i's stratum C, exposure X and joint potential outcome (D0, D1)
    come from draws i, n + i and 2n + i of one Philox stream, and the
    observed outcome is D = D_X, so output is reproducible for a given
    nonnegative seed across runs and platforms. Each draw u = v / 2**53,
    as ``Generator.random`` makes it, is read as the numerator v = w >> 11
    of a raw word w, and u >= p as v >= ``_numerators([p])``. Philox is
    counter-based, so any range of people can start its streams where it
    begins: the calling thread counts the first of one range per core (no
    more ranges than chunks of ``_CHUNK``) and a thread each the others,
    and the counts add up to one table for any split. A range allocates two
    int64 rows of ``_CHUNK`` once and holds one word row at a time: 0.88 MiB
    of tracemalloc peak for n = 10**6 over two strata, 1.71 MiB on two ranges.

    A guide table (Chen & Asau 1974) on the stratum word's top bits holds
    the key of each bucket's one stratum C, or -1 where a running total
    splits the bucket and its people search the totals. X = 1 where
    v - e < 0 for e the exposure's numerator, and the sign bits of v - e
    add X to the key. With cum the running totals of the stratum's (p00,
    p01, p10, p11), (D0, D1) is the first category whose total exceeds u,
    so D0 = 1 when u >= cum[1] and D1 = 1 when cum[0] <= u < cum[1] or
    u >= cum[2]. So D_X is fixed in each bucket of the outcome word's top
    bits but the at most three a key that hold a threshold: a ``bincount``
    of key + bucket counts the people, those in those buckets are compared
    one by one, and the counts fold to the cells, the same tables bit for
    bit as comparing float draws. Strata are labeled s1..sk in spec order;
    strata with no sampled individuals keep empty cells.
    """
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n!r}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed!r}")
    k = spec.k
    # 2**bits outcome buckets of 2**span numerators a key, fewer for many
    # strata: a histogram's bins stay below 2**14 up to 2,047 strata. A bin
    # is the key, C << shift plus (2 << bits) - 1 if X = 1, plus a bucket.
    bits = min(8, max(1, 12 - k.bit_length()))
    shift, span, bins = bits + 2, 53 - bits, k << (bits + 2)

    totals = _numerators(np.cumsum(np.asarray(spec.stratum_probs, float)))
    totals[-1] = 1 << 53  # never passed, so every index is a stratum
    g = min(16, max(10, (64 * k).bit_length()))  # 2**g guide buckets
    edges = np.arange((1 << g) + 1, dtype=np.int64) << (53 - g)
    lowest = np.searchsorted(totals, edges[:-1], side="right")
    guide = np.where(totals[lowest] < edges[1:], -1, lowest << shift)

    # D = 1 where lo <= v < hi or v >= top, by stratum and X
    cum = _numerators(np.cumsum(np.asarray(spec.po_probs, float), axis=1))
    limits = np.full((3, k, 2), 1 << 53)  # 2**53: never
    limits[0, :, 0] = cum[:, 1]
    limits[:, :, 1] = cum[:, :3].T
    rows = (np.arange(k)[:, None] << shift) + [0, (2 << bits) - 1]
    exposure = np.zeros(bins, dtype=np.int64)  # by key
    exposure[rows[:, 0]] = _numerators(spec.exposure_probs)
    # D at each bucket's start, but exact where a threshold is inside it
    lo, hi, top = limits[..., None]
    starts = np.arange(1 << bits) << span
    all_cases = (starts >= lo) & (starts < hi) | (starts >= top)
    j, c, x = np.nonzero(limits & ((1 << span) - 1))
    all_cases[c, x, limits[j, c, x] >> span] = False
    exact = np.isin(np.arange(bins), rows[c, x] + (limits[j, c, x] >> span))

    def count(a: int, b: int) -> np.ndarray:
        streams = [_stream(seed, start) for start in (a, n + a, 2 * n + a)]
        counts = np.zeros((2, bins), dtype=np.intp)  # people; exact cases
        keys, temps = np.empty((2, min(_CHUNK, b - a)), dtype=np.int64)
        for chunk in range(a, b, _CHUNK):
            size = min(_CHUNK, b - chunk)
            key, t = keys[:size], temps[:size]
            w = streams[0].random_raw(size)
            np.right_shift(w, 64 - g, out=key.view(np.uint64))
            # every index is in range by construction, so "clip" never
            # clips; it skips "raise"'s bounds pass and its buffered copy
            np.take(guide, key, out=key, mode="clip")
            i = np.flatnonzero(key < 0)
            key[i] = np.searchsorted(totals, (w[i] >> 11).view(np.int64),
                                     side="right") << shift
            del w  # random_raw has no out=: hold one word row at a time
            w = streams[1].random_raw(size)
            w >>= 11
            np.subtract(w.view(np.int64), np.take(exposure, key, out=t,
                                                  mode="clip"), out=t)
            # |v - e| < 2**53, so a negative v - e's top 11 bits are ones
            # and its top bits + 1 read X's part, (2 << bits) - 1
            key += np.right_shift(t.view(np.uint64), 63 - bits,
                                  out=t.view(np.uint64)).view(np.int64)
            del w
            w = streams[2].random_raw(size)
            np.right_shift(w, 64 - bits, out=t.view(np.uint64))
            t += key
            counts[0] += np.bincount(t, minlength=bins)
            i = np.flatnonzero(np.take(exact, t, mode="clip"))
            v, keyed = (w[i] >> 11).view(np.int64), key[i]
            lo, hi, top = limits[:, keyed >> shift, keyed >> bits & 1]
            np.add.at(counts[1], keyed[(v >= lo) & (v < hi) | (v >= top)], 1)
            del w
        return counts

    chunks = -(-n // _CHUNK)
    workers = min(_WORKERS, chunks)
    ends = [min(n, w * chunks // workers * _CHUNK) for w in range(workers + 1)]
    counts = [None] * workers

    def run(w: int) -> None:
        try:
            counts[w] = count(ends[w], ends[w + 1])
        except BaseException as exc:  # raised in the caller below
            counts[w] = exc

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for result in counts:
        if isinstance(result, BaseException):
            raise result
    people, cases = sum(counts)
    binned = people[rows[..., None] + np.arange(1 << bits)]
    cases = ((binned * all_cases).sum(-1) + cases[rows]).tolist()
    return StratifiedCohortTable(strata=tuple(
        (f"s{i + 1}", CohortCell(exposed_cases=e1, exposed_total=e,
                                 unexposed_cases=u1, unexposed_total=u))
        for i, ((u, e), (u1, e1)) in enumerate(zip(binned.sum(-1).tolist(),
                                                   cases))))


def parse_population_spec(source: str | dict) -> PopulationSpec:
    """Read a PopulationSpec from its JSON text or an equivalent dict."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid population JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ParseError("population spec must be a JSON object")
    missing = {"stratum_probs", "exposure_probs", "po_probs"} - set(data)
    if missing:
        raise ParseError(f"population spec missing keys: {sorted(missing)}")
    try:
        return PopulationSpec(
            stratum_probs=tuple(data["stratum_probs"]),
            exposure_probs=tuple(data["exposure_probs"]),
            po_probs=tuple(tuple(row) for row in data["po_probs"]),
        )
    except TypeError as exc:
        raise ParseError(f"malformed population spec: {exc}") from exc
