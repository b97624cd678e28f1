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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational, Real
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import RiskPoint
from .tables import CohortCell, StratifiedCohortTable

DIST_SUM_TOL = 1e-12
# people counted at a time: a worker's buffers, ~0.66 MiB, stay in L2
_CHUNK = 1 << 14
# the cores this process may run on, where the platform tells
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _exact(value) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    return Fraction(float(value))


def _check_unit_interval(values: Sequence, what: str) -> None:
    # a bool is no probability, though Python counts it a number; phrased
    # so that NaN, which fails every comparison, is rejected too
    if not all(isinstance(v, Real) and not isinstance(v, bool)
               and 0 <= v <= 1 for v in values):
        raise ValidationError(f"{what} must lie in [0, 1]: {values!r}")


def _check_distribution(values: Sequence, what: str) -> None:
    _check_unit_interval(values, what)
    if abs(float(sum(values)) - 1.0) > DIST_SUM_TOL:
        raise ValidationError(
            f"{what} must sum to 1 within {DIST_SUM_TOL}: sum="
            f"{float(sum(values))!r}")


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """A stratified population over (C, X, D0, D1).

    ``po_probs[c]`` is the joint distribution (p00, p01, p10, p11) of
    (D0, D1) given C = c, in the order Pr(D0=a, D1=b) for (a, b) =
    (0,0), (0,1), (1,0), (1,1). Probabilities may be floats or exact
    rationals; exact arithmetic converts floats losslessly.
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
            p00, p01, p10, p11 = (_exact(v) for v in row)
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
    weights = [_exact(w) for w in spec.stratum_probs]
    exposure = [_exact(e) for e in spec.exposure_probs]
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


def _stream(seed: int, start: int) -> np.random.Generator:
    """Philox(seed) from its draw ``start`` on; a counter step is 4 draws."""
    stream = np.random.Generator(np.random.Philox(seed, counter=start // 4))
    stream.random(start % 4)
    return stream


def sample_table(spec: PopulationSpec, n: int, seed: int,
                 ) -> StratifiedCohortTable:
    """Sample n individuals (C, X, D) with D set by consistency.

    Person i's stratum C, exposure X and joint potential outcome (D0, D1)
    come from draws i, n + i and 2n + i of one Philox stream, and the
    observed outcome is D = D_X, so output is reproducible for a given
    nonnegative seed across runs and platforms. Philox is counter-based,
    so any range of people can start its three streams where it begins:
    the people are split into one range per core (no more ranges than
    chunks of ``_CHUNK``), a thread pool counts each range chunk by chunk,
    and the sum of the counts is one table for any split. Each worker
    allocates its buffers once, three draw rows, a float, an intp and two
    bool rows of ``_CHUNK`` (~0.66 MiB), and counts every chunk of its
    range in them: tracemalloc reads a 0.74 MiB peak for n = 10**6 on one
    worker and 1.41 MiB on two.

    C, the first stratum whose running total exceeds its draw u, steps up
    from a guide table's lowest stratum for bucket floor(u m) (Chen & Asau
    1974). Each person gets one cell key 4C + 2X. With cum the running
    totals of the stratum's (p00, p01, p10, p11) and u the outcome draw,
    (D0, D1) is the first category whose total exceeds u, so D0 = 1 when
    u >= cum[1] and D1 = 1 when cum[0] <= u < cum[1] or u >= cum[2]. D_X
    comes from comparing u with these thresholds, looked up by key, and one
    bincount of key + D counts the cells: the same tables bit for bit as
    counting the category itself. Strata are labeled s1..sk in spec order;
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

    stratum_cum = np.cumsum([float(w) for w in spec.stratum_probs])
    # u < 1 lies below the last entry, so every index is a stratum
    stratum_cum[-1] = 1.0
    # m is a power of two, so floor(u m) / m <= u exactly
    m = max(1024, 1 << (4 * k - 1).bit_length())
    guide = np.searchsorted(stratum_cum, np.arange(m) / m, side="right")

    exposure = np.array([float(e) for e in spec.exposure_probs])
    # D = 1 where lo <= u < hi or u >= top, thresholds indexed by key; u
    # never reaches 2. The rounded total cum[3] is left out, so u < 1 past
    # cum[2] always lands in (1, 1).
    cum = np.cumsum([[float(v) for v in row] for row in spec.po_probs],
                    axis=1)
    lo, hi, top = np.full((3, 4 * k), 2.0)
    lo[0::4] = cum[:, 1]
    lo[2::4], hi[2::4], top[2::4] = cum[:, :3].T

    def count(a: int, b: int) -> np.ndarray:
        streams = [_stream(seed, start) for start in (a, n + a, 2 * n + a)]
        cells = np.zeros(4 * k, dtype=np.intp)
        size = min(_CHUNK, b - a)
        draws = np.empty((3, size))
        # a float, an intp (C, then the key) and two bool rows
        rows = (np.empty(size), np.empty(size, dtype=np.intp),
                *np.empty((2, size), dtype=bool))
        for first in range(a, b, _CHUNK):
            size = min(_CHUNK, b - first)
            uc, ux, u = (s.random(out=row[:size])
                         for s, row in zip(streams, draws))
            f, c, t, v = (row[:size] for row in rows)
            # every index is in range by construction (floor(u m) < m, C < k,
            # key < 4k), so "clip" never clips; it skips "raise"'s bounds
            # pass and its buffered copy of the output, and take reads each
            # index before it writes that place, so C can overwrite its index
            np.copyto(c, np.multiply(uc, m, out=f), casting="unsafe")
            np.take(guide, c, out=c, mode="clip")
            i = np.flatnonzero(np.greater_equal(
                uc, np.take(stratum_cum, c, out=f, mode="clip"), out=t))
            while i.size:  # step only the people who still advance
                c[i] += 1
                i = i[uc[i] >= stratum_cum[c[i]]]
            np.less(ux, np.take(exposure, c, out=f, mode="clip"), out=t)
            c <<= 1  # the key 4C + 2X, built in place of C
            c += t
            c <<= 1
            np.greater_equal(u, np.take(lo, c, out=f, mode="clip"), out=t)
            t &= np.less(u, np.take(hi, c, out=f, mode="clip"), out=v)
            t |= np.greater_equal(u, np.take(top, c, out=f, mode="clip"),
                                  out=v)
            c += t
            cells += np.bincount(c, minlength=4 * k)
        return cells

    # imported here: it loads `logging`, which `import rothman` need not
    from concurrent.futures import ThreadPoolExecutor

    chunks = -(-n // _CHUNK)
    workers = min(_WORKERS, chunks)
    ends = [min(n, w * chunks // workers * _CHUNK) for w in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        cells = sum(pool.map(count, ends[:-1], ends[1:])).reshape(k, 4)
    return StratifiedCohortTable(strata=tuple(
        (f"s{i + 1}", CohortCell(exposed_cases=e1, exposed_total=e0 + e1,
                                 unexposed_cases=u1,
                                 unexposed_total=u0 + u1))
        for i, (u0, u1, e0, e1) in enumerate(cells.tolist())))


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
