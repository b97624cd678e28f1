"""Binomial generalized linear models on the stratified cohort design.

Exposure/stratum/interaction models under the logit, log, identity and
complementary log-log links, with coefficients in reference-cell coding (first
stratum, unexposed group), so the exposure coefficient b is the adjusted
measure of association on the link scale. The saturated and exposure-only
models are fitted in closed form by the observed cell and pooled exposure-group
proportions, 0 and 1 included, each read onto the link scale from its cases and
non-cases with no rounded proportion formed (`_Link.to_eta`). The
no-interaction model is fitted on its cell parameters, stratum i's cells having
eta = alpha_i and alpha_i + b: its
log-likelihood is concave in eta under all four links and its information
diagonal but for b, so one Newton core (`_newton`) takes steps on b and the
alphas solved in O(k), for free fits and profile-interval endpoints alike: the
two differ only in b's equation (score 0, or drop on the cut), the step-halving
test and the stop rule. Both start strictly inside the exact domain
(`_Stack.start`), keep only the trials they accept and run at most
`MAX_ITERATIONS` passes, and a problem that fails gets its own
`NonConvergenceError`, with the trace of its deviance (a fit's) or drop (an
endpoint's). A cell with no cases (non-cases) may have its maximum
at a risk of exactly 0 (1), on the boundary of the domain, where one hold rule
(`_Stack.hold`) keeps it. With no finite Newton b, b moves `MAX_ETA_STEP`. A
step that would carry such a cell across its bound, or b across a kink, stops
there; only a fit's b stays on a kink. A fit stops when the Newton decrement
falls to a fixed multiple of the total count, so scaling every count changes
neither fit nor iterations. A run solves many problems, each with its own link,
steps and sums: `fits` fits several models of any links and tables in one run
(`_irls`), and `analyze` the crude and no-interaction models of the four
measures, each stratum's effect read off its two cells (`_stratum_effects`);
`profile_intervals` solves both endpoints of several fits in one run, and
`analyze` those of all four measures' crude and common fits. Each run takes the
one `_Stack` of its problems' rows that its caller built, and grouping changes
no problem's bits; the fit records and the endpoints' starts are read off that
stack too. Likelihood-ratio tests and profile intervals reuse a finished fit,
the intervals starting from its own alphas (`GlmFit.alphas`), so reference
coding is an output format only, and each table's arrays are built once
(`_cells`). What no link changes is shared: the fits of one table and terms
share their names, and the closed-form ones their fitted cells, so the
exposure-only fits of all links have one likelihood and `analyze` one crude
exposure test. The chi-square functions are computed here, the upper tail as a
finite sum, so there is no stats dependency.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (GlmError, NestingError, NonConvergenceError,
                     ValidationError, ZeroMarginError)
from .geometry import RiskPoint
from .tables import StratifiedCohortTable

LINKS = ("logit", "log", "identity", "cloglog")
TERMS = ("exposure_only", "exposure_plus_stratum", "saturated_with_interaction")

MAX_ITERATIONS = 100
MAX_HALVINGS = 32
MAX_ETA_STEP = 4.0
START_MARGIN = 0.01
DECREMENT_TOL = 1e-21
DEVIANCE_ROUNDING = 1e-14
PROFILE_BETA_TOL = 1e-9
PROFILE_STALL_STEPS = 8
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True, slots=True)
class _Link:
    """``to_eta(s, f)`` gives the link-scale value of the risk s / (s + f)
    from the cases s and non-cases f, with no rounded risk formed, whose
    error 1 - mu would magnify near 1: logit log(s / f), cloglog
    log(log1p(s / f)). ``cells(eta, s, f)`` gives log(mu), log(1 - mu), and
    the first and negated second eta-derivatives of s*log(mu) +
    f*log(1 - mu) per cell, the logs straight from eta, so a risk too close
    to 1 to be stored apart from it keeps its log-likelihood (cloglog:
    log(1 - mu) = -exp(eta))."""

    name: str
    to_eta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cells: Callable[..., tuple[np.ndarray, ...]]


def _logit_cells(eta, s, f):
    log_mu, log_nu = -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)
    mu = np.exp(log_mu)
    return log_mu, log_nu, s - (s + f) * mu, (s + f) * mu * np.exp(log_nu)


def _log_cells(eta, s, f):
    nu = -np.expm1(eta)
    odds = np.exp(eta) / nu
    return eta, np.log(nu), s - f * odds, f * odds / nu


def _identity_cells(eta, s, f):
    nu = 1.0 - eta
    return (np.log(eta), np.log1p(-eta), s / eta - f / nu,
            s / (eta * eta) + f / (nu * nu))


def _cloglog_cells(eta, s, f):
    t = np.exp(eta)
    log_mu = np.log(-np.expm1(-t))
    r = np.exp(-t - log_mu)  # (1 - mu) / mu
    return (log_mu, -t, t * (s * r - f),
            t * (f + s * r * (t * (1.0 + r) - 1.0)))


_LINKS = {
    "logit": _Link("logit", lambda s, f: np.log(s / f), _logit_cells),
    "log": _Link("log", lambda s, f: np.log(s / (s + f)), _log_cells),
    "identity": _Link("identity", lambda s, f: s / (s + f), _identity_cells),
    "cloglog": _Link("cloglog", lambda s, f: np.log(np.log1p(s / f)),
                     _cloglog_cells),
}


with np.errstate(divide="ignore"):  # each link's bounds of risks 0 and 1
    _BOUNDS = {name: link.to_eta(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
               for name, link in _LINKS.items()}


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """A binomial GLM: link, terms, and the table providing the cells."""

    link: str
    terms: str
    table: StratifiedCohortTable

    def __post_init__(self) -> None:
        if self.link not in LINKS:
            raise ValidationError(f"unknown link {self.link!r}; expected one of {LINKS}")
        if self.terms not in TERMS:
            raise ValidationError(f"unknown terms {self.terms!r}; expected one of {TERMS}")
        if self.terms == "saturated_with_interaction" and self.table.k < 2:
            raise ValidationError(
                "saturated_with_interaction needs at least two strata")


@dataclass(frozen=True, slots=True)
class GlmFit:
    """A converged maximum-likelihood fit.

    ``fitted_risks`` holds one (risk in unexposed, risk in exposed) pair
    per stratum in table order. A risk of exactly 0 or 1 is a maximum on
    the boundary, in a cell with no cases or no non-cases, and then an
    exposure coefficient may be infinite, or nan where the measure is
    (0/0). ``iterations`` is 0 for the closed-form fits (`_observed_fit`).
    ``alphas``, left out of the repr, == and hash, holds the alpha of each
    stratum that b carries (`_carrier`), infinite ones included: a free
    fit's from its Newton run, a closed-form fit's observed one.
    """

    spec: ModelSpec
    coefficients: tuple[float, ...]
    coefficient_names: tuple[str, ...]
    log_likelihood: float
    deviance: float
    fitted_risks: tuple[tuple[float, float], ...]
    iterations: int
    alphas: tuple[float, ...] = field(repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class LrInterval:
    """Profile-likelihood interval on the measure's natural scale."""

    estimate: float
    lower: float
    upper: float
    level: float = DEFAULT_LEVEL


@dataclass(frozen=True, slots=True)
class LrTest:
    """A likelihood-ratio test of nested fits."""

    statistic: float
    df: int
    p_value: float


@functools.lru_cache(maxsize=32)
def _cells(table: StratifiedCohortTable) -> tuple[np.ndarray, ...]:
    """Cases, totals and log C(totals, cases) as read-only (k, 2) arrays,
    columns (unexposed, exposed), built once per table. A stratum with a
    zero-total group, or with a count whose log-factorial overflows a
    float (one above about 2.56e305), is refused."""
    for label, c in table.strata:
        try:  # the cases are at most their totals
            math.lgamma(max(c.exposed_total, c.unexposed_total) + 1.0)
        except OverflowError:
            raise ValidationError(f"stratum {label!r} has a count whose "
                                  "log-factorial overflows a float") from None
        if c.has_zero_margin:
            raise ZeroMarginError(f"stratum {label!r} has a zero-total "
                                  "exposure group; its risk is not estimable")
    counts = np.array([(c.unexposed_cases, c.exposed_cases, c.unexposed_total,
                        c.exposed_total) for c in table.cells], dtype=float)
    s, n = counts[:, :2], counts[:, 2:]
    log_choose = np.reshape([
        math.lgamma(m + 1.0) - math.lgamma(c + 1.0) - math.lgamma(m - c + 1.0)
        for c, m in zip(s.ravel().tolist(), n.ravel().tolist())], s.shape)
    for a in (s, n, log_choose):
        a.flags.writeable = False
    return s, n, log_choose


def _log_observed(s: np.ndarray, n: np.ndarray) -> tuple:
    """log(s/n) and log(f/n), -inf where the count is 0."""
    f = n - s
    return (np.log(s / n, out=np.full_like(s, -np.inf), where=s > 0.0),
            np.log(f / n, out=np.full_like(f, -np.inf), where=f > 0.0))


def _part(c: np.ndarray, ref: np.ndarray | float, log: np.ndarray,
          ) -> np.ndarray:
    """c (ref - log) per cell: 0 where the count c is 0 and log is a number,
    as 0 log 0 = 0, and nan where log is (the cell left its domain)."""
    if c.all():
        return c * (ref - log)
    with np.errstate(invalid="ignore"):
        return np.where((c > 0.0) | np.isnan(log), c * (ref - log), 0.0)


def _deviance(s: np.ndarray, n: np.ndarray, log_mu: np.ndarray,
              log_nu: np.ndarray) -> float:
    """Twice the log-likelihood gap to the observed proportions."""
    log_p, log_q = _log_observed(s, n)
    return 2.0 * float((_part(s, log_p, log_mu)
                        + _part(n - s, log_q, log_nu)).sum())


def _edges(b: float | np.ndarray, lo: float | np.ndarray,
           hi: float | np.ndarray) -> tuple:
    """The least and greatest alpha keeping the risks at alpha and alpha + b
    between the link-scale bounds lo and hi."""
    return np.maximum(lo, lo - b), np.minimum(hi, hi - b)


class _Stack:
    """Problems, each (cases, totals, link) with (rows, 2) arrays, stacked
    row-wise: problem j on the rows from ``starts[j]`` to ``ends[j]``. Each
    row has an ``owner`` and the link-scale bounds ``lo``, ``hi`` of risks 0
    and 1. ``zero`` marks the rows with a count of 0, the only ones a bound
    can hold, None if there are none, and ``kinks`` the problems with a row
    whose cells all lack cases (or non-cases) at a finite bound, whose
    profile has a kink at b = 0."""

    def __init__(self, problems: Sequence[tuple]) -> None:
        s, n, self.links = zip(*problems)
        sizes, size = [len(rows) for rows in s], len(s)
        self.ends = ends = np.cumsum(sizes)
        self.starts = starts = ends - sizes
        self.s, self.n = s, n = np.concatenate(s), np.concatenate(n)
        self.f = f = n - s
        self.owner = np.repeat(np.arange(size), sizes)
        self.lo, self.hi = np.array(
            [_BOUNDS[link.name] for link in self.links]).T[:, self.owner]
        self.segments, j = [], 0  # one (link, rows, s, f) per run of one link
        for link, group in itertools.groupby(self.links):
            first, j = j, j + len(list(group))
            r = slice(starts[first], ends[j - 1])
            self.segments.append((link, r, s[r], f[r]))
        zero = (s == 0.0) | (f == 0.0)
        self.zero = self.kinks = None
        if zero.any():  # only a row with a count of 0 can be on an edge
            self.zero = zero.any(axis=1)
            edge = ((s == 0.0).all(axis=1) & np.isfinite(self.lo)
                    | (f == 0.0).all(axis=1) & np.isfinite(self.hi))
            self.kinks = (np.logical_or.reduceat(edge, starts) if edge.any()
                          else None)
        # np.add.reduceat adds a segment's first entry to the pairwise sum
        # of the rest; a zero ahead of each segment makes it np.sum's sum
        self._led = {w: (np.arange(w * len(s)) + np.repeat(self.owner, w) + 1,
                         w * starts + np.arange(size),
                         np.zeros(w * len(s) + size)) for w in (1, 2)}

    def start(self, alpha: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        """``alpha`` with each entry not strictly inside its domain at this
        b (`_edges`) moved `START_MARGIN` of the domain's width inside, the
        width capped at `MAX_ETA_STEP` (the log link's domain has no lower
        end), and each row whose cells all lack cases (non-cases) onto its
        lower (upper) edge, where its alpha score points out whatever b
        is."""
        lo, hi = _edges(b_rows, self.lo, self.hi)
        margin = START_MARGIN * np.minimum(hi - lo, MAX_ETA_STEP)
        alpha = np.where((alpha > lo) & (alpha < hi), alpha,
                         np.clip(alpha, lo + margin, hi - margin))
        if self.zero is not None:
            alpha = np.where((self.s == 0.0).all(axis=1), lo, np.where(
                (self.f == 0.0).all(axis=1), hi, alpha))
        return alpha

    def cells(self, alpha: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        """log(mu), log(1 - mu), g and h of every row under its problem's
        link, stacked, shape (4, rows, 2), each row's cells at alpha and
        alpha + b."""
        eta, out = np.empty((len(alpha), 2)), np.empty((4, len(alpha), 2))
        eta[:, 0] = alpha
        np.add(alpha, b_rows, out=eta[:, 1])
        for link, r, s_r, f_r in self.segments:
            out[:, r] = link.cells(eta[r], s_r, f_r)
        return out

    def hold(self, alpha: np.ndarray, b_rows: np.ndarray, g: np.ndarray,
             h: np.ndarray) -> tuple:
        """The terms of the O(k) solve under the hold rule: each row's alpha
        score, curvature sum d, g and h, then None, or the held rows, those
        of them at an upper edge, their information and score on b and the
        problems whose b stays.

        A row on an edge (`_edges`) whose cells there all lack cases (at a
        risk of 0) or non-cases (at 1) has them pinned: their
        log-likelihood terms are exactly their limit, 0, their scores the
        limit -f or s, and their curvature is left out. The row is held while
        its alpha score points out of the domain: alpha then moves with b
        only as the edge does (alpha_i = bound - b where it pins the exposed
        cell), so the row enters the solve through its other cell alone,
        its alpha score, exposed score and curvature and d reading 0, that
        cell's b score, -d alpha / d b and 1. A row pinned in both cells at a
        finite bound, so at b = 0, has a kink: its b score is -g0 as b rises
        and g1 as b falls (at a risk of 0, g1 and -g0), and b stays where
        those bracket the other rows' score. `project` keeps held rows on
        their edges.
        """
        g_alpha, d = g.sum(axis=1), h.sum(axis=1)
        if self.zero is None:
            return g_alpha, d, g, h, None
        lo, hi = _edges(b_rows, self.lo, self.hi)
        # the cells the upper edge pins, both at b = 0 or an infinite bound,
        # and those the lower one pins
        ahead = np.stack([b_rows <= 0.0, b_rows >= 0.0], axis=1)
        on_hi = ahead | np.isinf(self.hi)[:, None]
        on_lo = ahead[:, ::-1] | np.isinf(self.lo)[:, None]
        up = on_hi & ((alpha == hi)
                      & ~(on_hi & (self.f > 0.0)).any(axis=1))[:, None]
        pinned = up | on_lo & (
            (alpha == lo) & ~(on_lo & (self.s > 0.0)).any(axis=1))[:, None]
        g = np.where(pinned, np.where(up, self.s, -self.f), g)
        h = np.where(pinned, 0.0, h)
        g_alpha, d, up = g.sum(axis=1), h.sum(axis=1), up.any(axis=1)
        held = pinned.any(axis=1) & np.where(up, g_alpha >= 0.0,
                                             g_alpha <= 0.0)
        if not held.any():
            return g_alpha, d, g, h, None
        score = (np.where(pinned[:, 1], 0.0, g[:, 1])
                 - np.where(pinned[:, 0], 0.0, g[:, 0]))
        kink, stay = pinned.all(axis=1) & np.isfinite(
            np.where(up, hi, lo)), None
        if kink.any():
            rise = np.where(up, -g[:, 0], g[:, 1])
            fall = np.where(up, g[:, 1], -g[:, 0])
            others = self.sums(np.where(kink, 0.0, np.where(
                held, score, (g[:, 1] * h[:, 0] - h[:, 1] * g[:, 0]) / d)))
            climb, sink = (others + self.sums(np.where(kink, x, 0.0))
                           for x in (rise, fall))
            climb, sink = climb > 0.0, sink < 0.0
            score = np.where(kink, np.where(climb[self.owner], rise, np.where(
                sink[self.owner], fall, 0.0)), score)
            stay = ~climb & ~sink & np.logical_or.reduceat(kink, self.starts)
        terms = (held, up, d, score, stay)
        g[:, 1] = np.where(held, score, g[:, 1])
        h[:, 1] = np.where(held, pinned[:, 1] & ~pinned[:, 0], h[:, 1])
        return (np.where(held, 0.0, g_alpha), np.where(held, 1.0, d), g, h,
                terms)

    def project(self, alpha: np.ndarray, b_rows: np.ndarray,
                held: tuple | None) -> np.ndarray:
        """``alpha`` with each row with a count of 0 kept between its edges
        at these b (`_edges`), and each row ``held`` (`hold`'s held rows,
        then those of them at an upper edge) on its edge."""
        if self.zero is None:
            return alpha
        lo, hi = _edges(b_rows, self.lo, self.hi)
        alpha = np.where(self.zero, np.clip(alpha, lo, hi), alpha)
        return alpha if held is None else np.where(
            held[0], np.where(held[1], hi, lo), alpha)

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Each problem's sum of ``x`` (one value a row, or a (rows, 2)
        array), added in the order np.sum adds its rows alone."""
        at, heads, led = self._led[x.size // len(self.owner)]
        led[at] = x.ravel()  # the zeros ahead of the segments stay
        return np.add.reduceat(led, heads)

    def drops(self, ref: tuple, log_mu: np.ndarray, log_nu: np.ndarray,
              *_) -> np.ndarray:
        """Each problem's deviance from the cells whose logs are ``ref``,
        summed as `_deviance` sums it: nan where a cell leaves its domain,
        inf where a count meets a risk that rules it out."""
        return 2.0 * self.sums(_part(self.s, ref[0], log_mu)
                               + _part(self.f, ref[1], log_nu))


@dataclass(frozen=True, slots=True)
class _Run:
    """What one `_newton` run leaves: every problem's last accepted
    iterate, and each failed one's error."""

    alpha: np.ndarray  # each row's alpha
    b: np.ndarray  # each problem's b
    log_mu: np.ndarray  # each row's log(mu) and log(1 - mu) at the end
    log_nu: np.ndarray
    deviance: np.ndarray  # each problem's deviance from ``ref``
    steps: np.ndarray  # each problem's passes until done, 0 if never
    errors: list  # each problem's NonConvergenceError, None if it converged
    iterations: int  # Newton passes over the group


def _irls(stack: _Stack) -> _Run:
    """Fit the no-interaction model of each problem of ``stack`` in one
    `_newton` run, from the smoothed counts s + 0.5, f + 0.5 on the link
    scale, b the mean of the strata's effects there."""
    eta0 = np.concatenate([link.to_eta(s_r + 0.5, f_r + 0.5)
                           for link, _, s_r, f_r in stack.segments])
    b = stack.sums(eta0[:, 1] - eta0[:, 0]) / (stack.ends - stack.starts)
    return _newton(stack, b, (eta0[:, 0] + eta0[:, 1] - b[stack.owner]) / 2.0,
                   _log_observed(stack.s, stack.n))


def _newton(stack: _Stack, b: np.ndarray, alpha: np.ndarray, ref: tuple,
            b_hat: np.ndarray | None = None, cut: float | None = None,
            ) -> _Run:
    """One run of Newton-Raphson over the problems of ``stack``: free fits
    of the no-interaction model, or, given a ``cut``, profile-interval
    endpoints.

    Problem j starts at ``b[j]`` with alphas ``alpha`` (`_Stack.start`), its
    deviance taken from the cells whose logs are ``ref``: the observed
    proportions of a fit, the estimate ``b_hat[j]``'s cells of an endpoint.
    Each step on b and the alphas solves the alphas' score equations and one in
    b (Venzon and Moolgavkar, 1988) in O(k), under the hold rule of
    `_Stack.hold`: a fit's b score is 0, b eliminated through the Schur
    complement, and an endpoint's drop is ``cut``. With no finite b, b moves
    `MAX_ETA_STEP` up a fit's slope or out from an endpoint's estimate. The
    step is cut so that no eta moves by more than `MAX_ETA_STEP`, and it stops
    on the first finite bound that a cell with no cases (non-cases) of an
    unheld row would cross down (up), or on a kink that b would cross
    (`_Stack.kinks`); its rows with a count of 0 are kept in their domain, the
    held ones on their edges (`_Stack.project`), and it is halved, at most
    `MAX_HALVINGS` times, while a fit's raises the deviance by more than
    `DEVIANCE_ROUNDING` times the total count, its rounding error, or an
    endpoint's leaves the drop not finite. Each cell is computed by its
    problem's link and every sum covers one problem's rows, so no problem's
    bits depend on its group.

    Only a fit's b stays on a kink (`_Stack.hold`), and a fit stops after the
    step whose Newton decrement delta'g is at most `DECREMENT_TOL` times the
    total count.

    An endpoint measures b by its distance from the estimate, or from its start
    where the estimate is infinite. Its inner end is the last iterate whose
    drop is below the cut, as the profile drop there is no larger (none yet at
    an infinite estimate). A Newton b that is not finite above the cut, one
    back inside the inner end, or one after `PROFILE_STALL_STEPS` steps in a
    row that bring the drop no closer to the cut, is replaced by the same b,
    for a step of the alphas alone. It is done after a Newton step whose b part
    is at most `PROFILE_BETA_TOL`.

    Each problem keeps only the trials it accepts. One whose halvings run
    out, or that runs `MAX_ITERATIONS` passes, fails: it keeps its last
    accepted iterate and gets its own `NonConvergenceError` in ``errors``,
    naming its link (and an endpoint's side), with the trace of its
    deviance (a fit's) or drop (an endpoint's) at its start and after each
    pass it completed.
    """
    owner, starts, links, size = stack.owner, stack.starts, stack.links, b.size
    fit = cut is None
    active, steps, iterations = np.ones(size, bool), np.zeros(size, int), 0
    errors: list = [None] * size

    def fail(failed: np.ndarray, text: str) -> None:
        for j in np.flatnonzero(failed).tolist() if failed.any() else ():
            of = "" if fit else " of the {} profile endpoint".format(
                "upper" if side[j] > 0 else "lower")
            errors[j] = NonConvergenceError(
                text.format(iterations=iterations, link=links[j].name, of=of),
                trace=[float(d[j]) for d in history])

    with np.errstate(all="ignore"):
        alpha = stack.start(alpha, b[owner])
        cells = stack.cells(alpha, b[owner])
        dev = stack.drops(ref, *cells)
        history = [dev]  # each pass's deviances, or an endpoint's drops
        if fit:
            total = stack.sums(stack.n)
            slack, tol = DEVIANCE_ROUNDING * total, DECREMENT_TOL * total
        else:
            side = np.sign(b - b_hat)
            origin = np.where(np.isfinite(b_hat), b_hat, b)
            inner, closest = side * (b_hat - origin), np.abs(dev - cut)
            stalled = 0
        while active.any():
            iterations += 1
            g_alpha, d, g, h, held = stack.hold(alpha, b[owner], *cells[2:])
            g_b = stack.sums(g[:, 1])
            if fit:
                information = h[:, 0] * h[:, 1] / d
                cross = (g[:, 1] * h[:, 0] - h[:, 1] * g[:, 0]) / d
                stay = None
                if held is not None:  # each held row's information, b score
                    kept, _, curvature, score, stay = held
                    information = np.where(kept, curvature, information)
                    cross = np.where(kept, score, cross)
                information, cross = stack.sums(information), stack.sums(cross)
                delta_b = cross / information
            else:
                ratio = g_alpha / d
                delta_b = (((dev - cut) / 2.0 - stack.sums(ratio * g_alpha))
                           / (g_b - stack.sums(ratio * h[:, 1])))
            # no finite Newton b, the profile linear in b to rounding: a step
            # up a fit's slope, or out from an endpoint's estimate
            flat = ~np.isfinite(delta_b)
            if flat.any():
                delta_b = np.where(flat, MAX_ETA_STEP * (
                    np.sign(cross) if fit else side), delta_b)
            if not fit:
                away = side * (b - origin)
                inner = np.where(dev < cut, away, inner)
                stay = ~(inner <= away + side * delta_b) | flat & ~(
                    dev < cut) | (stalled >= PROFILE_STALL_STEPS)
            if stay is not None:  # b stays, for a step of the alphas alone
                delta_b = np.where(stay, 0.0, delta_b)
            delta_rows = delta_b[owner]
            delta = (g_alpha - h[:, 1] * delta_rows) / d
            # a cell deep in a logit tail has almost no curvature, and the
            # uncut Newton step there can be 1e13 long
            reach = np.maximum.reduceat(np.maximum(
                np.abs(delta), np.abs(delta + delta_rows)), starts)
            step = np.where(active, np.where(
                reach > MAX_ETA_STEP, MAX_ETA_STEP / reach, 1.0), 0.0)
            if stack.zero is not None:
                # a step stops a hair past the first bound that a cell with
                # no cases (non-cases), of a row not held, would cross down
                # (up), and `project` puts the row on its edge
                eta = np.stack([alpha, alpha + b[owner]], axis=1)
                move = np.stack([delta, delta + delta_rows], axis=1)
                lo, hi = stack.lo[:, None], stack.hi[:, None]
                free = stack.zero if held is None else stack.zero & ~held[0]
                crossing = free[:, None] & np.where(
                    move > 0.0, (stack.f == 0.0) & (eta < hi),
                    (move < 0.0) & (stack.s == 0.0) & (lo < eta))
                least = np.minimum.reduceat(np.where(crossing, (np.where(
                    move > 0.0, hi, lo) - eta) / move, math.inf).min(axis=1),
                    starts)
                step = np.minimum(step, least * (1.0 + 1e-9))
            if stack.kinks is not None:  # a step across a kink stops on it
                full = np.where(stack.kinks & (b * (b + step * delta_b) < 0.0),
                                -b / delta_b, math.nan)
                step = np.where(np.isnan(full), step, full)
            pending = active
            for _ in range(MAX_HALVINGS + 1):
                b_try = np.where(active, b + step * delta_b, b)
                if stack.kinks is not None:  # on it exactly, or short of it
                    b_try = np.where(np.isnan(full), b_try,
                                     b * (1.0 - step / full))
                alpha_try = stack.project(alpha + step[owner] * delta,
                                          b_try[owner], held)
                trial = stack.cells(alpha_try, b_try[owner])
                dev_try = stack.drops(ref, *trial)
                pending = pending & ~(dev_try <= dev + slack if fit
                                      else np.isfinite(dev_try))
                if not pending.any():
                    break
                step = np.where(pending, step / 2.0, step)
            taken = active & ~pending
            if taken.all():
                alpha, b, dev, cells = alpha_try, b_try, dev_try, trial
            else:  # only the trials accepted
                rows = taken[owner]
                alpha, cells = np.where(rows, alpha_try, alpha), np.where(
                    rows[:, None], trial, cells)
                b, dev = (np.where(taken, b_try, b),
                          np.where(taken, dev_try, dev))
            # one whose halvings ran out has failed
            fail(pending, "step halving exhausted after {iterations} "
                 "iterations{of} under the {link} link")
            history.append(dev)
            if fit:
                done = taken & (stack.sums(delta * g_alpha) + delta_b * g_b
                                <= tol)
            else:
                gap = np.abs(dev - cut)
                stalled = np.where((gap < closest) | stay, 0, stalled + 1)
                closest = np.where(stay, gap, np.minimum(gap, closest))
                done = taken & ~stay & (np.abs(delta_b) <= PROFILE_BETA_TOL)
            lost = taken & ~done & (iterations >= MAX_ITERATIONS)
            fail(lost, f"no convergence in {MAX_ITERATIONS} iterations"
                 "{of} under the {link} link")
            steps[done] = iterations
            active = taken & ~done & ~lost
    return _Run(alpha=alpha, b=b, log_mu=cells[0], log_nu=cells[1],
                deviance=dev, steps=steps, errors=errors,
                iterations=iterations)


def _observed(s: np.ndarray, n: np.ndarray, link: _Link) -> tuple:
    """The observed risks on the link scale and each stratum's effect,
    infinite or nan where risks of 0 or 1 make them so."""
    eta = link.to_eta(s, n - s)
    if link.name == "identity":
        # p1 - p0 from the counts, rounded once (the products are exact
        # below 2**53), not the difference of two rounded proportions
        return eta, ((s[:, 1] * n[:, 0] - s[:, 0] * n[:, 1])
                     / (n[:, 0] * n[:, 1]))
    return eta, eta[:, 1] - eta[:, 0]


def _observed_fit(terms: str, s: np.ndarray, n: np.ndarray, link: _Link,
                  ) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """Coefficients and alphas (`GlmFit.alphas`) of a closed-form fit of
    the cells ``s``, ``n`` (pooled for the exposure-only model), or None.

    Every saturated cell and exposure-only group has a free risk, fitted by
    its observed (pooled) proportion, 0 and 1 included, and the
    coefficients are read off its link-scale value. An effect is finite on
    the identity link; on the others it is infinite where one risk of a
    stratum sits on a bound of the link and the other does not, and nan
    where both share one. The no-interaction model has the same fit when a
    risk of 0 or 1 is observed (`fits` asks only then) and the strata's
    effects agree, nan ones aside: b is then their value, or nan if all
    are nan. Any other no-interaction fit is left to `_irls` (None).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        eta, effect = _observed(s, n, link)
        if terms == "exposure_plus_stratum":
            common = set(effect[~np.isnan(effect)].tolist()) or {math.nan}
            if len(common) > 1:
                return None
            coefficients = (eta[0, 0], *common, *(eta[1:, 0] - eta[0, 0]))
            alphas = eta[:, 0]
        else:
            coefficients, alphas = (eta[0, 0], effect[0]), eta[:1, 0]
        if terms == "saturated_with_interaction":
            coefficients += (*(eta[1:, 0] - eta[0, 0]),
                             *(effect[1:] - effect[0]))
    return tuple(float(c) for c in coefficients), tuple(alphas.tolist())


def _log_likelihoods(s: np.ndarray, n: np.ndarray, log_choose: np.ndarray,
                     log_mu: np.ndarray, log_nu: np.ndarray) -> np.ndarray:
    """Each cell's log-likelihood at the fitted logs, 0 log 0 = 0."""
    return log_choose - _part(s, 0.0, log_mu) - _part(n - s, 0.0, log_nu)


def fits(specs: Sequence[ModelSpec]) -> list[GlmFit | GlmError]:
    """Maximum-likelihood fits of several models, each the fit or the
    `GlmError` that stopped it. The closed-form fits (`_observed_fit`)
    come from the observed proportions, and all other no-interaction models
    are fitted in one free-fit run of the Newton core that also solves
    profile endpoints (`_irls`, `_newton`), reported in reference coding:
    intercept = alpha_1 and stratum:i = alpha_i - alpha_1. The fits of one
    table and terms share their coefficient names, and the closed-form ones
    their fitted cells, log-likelihood and deviance, which no link changes.
    A table with a count whose log-factorial overflows a float (`_cells`)
    raises a `ValidationError` naming its stratum, before any fit."""
    results: list = [None] * len(specs)
    groups: dict = {}  # the result indices of each table and terms
    for i, spec in enumerate(specs):
        groups.setdefault((spec.table, spec.terms), []).append(i)
    free = []  # (result index, names, problem, log C) of each free fit
    for (table, terms), members in groups.items():
        try:
            s, n, log_choose = _cells(table)
        except GlmError as exc:
            for i in members:
                results[i] = exc
            continue
        labels = table.labels[1:]
        names = ("intercept", "exposure",
                 *(f"stratum:{lbl}" for lbl in labels
                   if terms != "exposure_only"),
                 *(f"exposure:stratum:{lbl}" for lbl in labels
                   if terms == "saturated_with_interaction"))
        cells = (s, n) if terms != "exposure_only" else [
            np.broadcast_to(a.sum(axis=0), a.shape) for a in (s, n)]
        mixed = (terms == "exposure_plus_stratum"
                 and ((0.0 < s) & (s < n)).all())
        shared = None  # the closed-form fits' log-likelihood, deviance, risks
        for i in members:
            observed = None if mixed else _observed_fit(
                terms, *cells, _LINKS[specs[i].link])
            if observed is None:
                free.append((i, names, (s, n, _LINKS[specs[i].link]),
                             log_choose))
                continue
            if shared is None:
                logs = _log_observed(*cells)
                # a fit of the observed risks has deviance 0
                shared = (float(np.sum(_log_likelihoods(s, n, log_choose,
                                                        *logs))),
                          _deviance(s, n, *logs)
                          if terms == "exposure_only" else 0.0,
                          tuple(map(tuple, np.exp(logs[0]).tolist())))
            coefficients, alphas = observed
            results[i] = GlmFit(specs[i], coefficients, names, *shared, 0,
                                alphas)
    if free:
        free.sort(key=lambda problem: problem[0])
        indices, names, problems, log_choose = zip(*free)
        stack = _Stack(problems)
        run = _irls(stack)
        # every free fit's record from the run's stacked rows at once
        log_likelihoods = stack.sums(_log_likelihoods(
            stack.s, stack.n, np.concatenate(log_choose), run.log_mu,
            run.log_nu))
        alphas, risks = run.alpha.tolist(), np.exp(run.log_mu).tolist()
        for j, i in enumerate(indices):
            rows = slice(stack.starts[j], stack.ends[j])
            alpha = tuple(alphas[rows])
            results[i] = run.errors[j] or GlmFit(
                specs[i], (alpha[0], float(run.b[j]),
                           *(a - alpha[0] for a in alpha[1:])),
                names[j], float(log_likelihoods[j]), float(run.deviance[j]),
                tuple(map(tuple, risks[rows])), int(run.steps[j]), alpha)
    return results


def fit(spec: ModelSpec) -> GlmFit:
    """Maximum-likelihood fit of the model: the one-spec case of `fits`,
    whose error it raises."""
    result, = fits([spec])
    if isinstance(result, GlmError):
        raise result
    return result


def natural_scale(link: str, value: float) -> float:
    """Map a link-scale coefficient to the measure's reporting scale."""
    if link not in LINKS:
        raise ValidationError(f"unknown link {link!r}")
    if link != "identity" and not math.isnan(value):
        return math.exp(value)
    return value


def exposure_estimate(fit_result: GlmFit) -> float:
    """The exposure effect on the natural scale (exponentiated for ratios)."""
    return natural_scale(fit_result.spec.link, fit_result.coefficients[1])


def _stratum_effects(table: StratifiedCohortTable, link: str,
                     ) -> tuple[float, ...]:
    """Each stratum's exposure effect on the natural scale, read off its two
    cells (`_observed`): the saturated model's, with no fit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        _, effects = _observed(*_cells(table)[:2], _LINKS[link])
    return tuple(natural_scale(link, e) for e in effects.tolist())


def stratum_exposure_estimates(fit_result: GlmFit) -> tuple[float, ...]:
    """Per-stratum exposure effect on the natural scale: the saturated
    model's own, the common one repeated under the other term structures."""
    spec = fit_result.spec
    if spec.terms != "saturated_with_interaction":
        return (exposure_estimate(fit_result),) * spec.table.k
    return _stratum_effects(spec.table, spec.link)


def fitted_stratum_points(fit_result: GlmFit) -> tuple[RiskPoint, ...]:
    """Fitted (unexposed, exposed) risks per stratum as diagram points."""
    labels = fit_result.spec.table.labels
    return tuple(RiskPoint(x, y, tag=f"fitted:{label}")
                 for (x, y), label in zip(fit_result.fitted_risks, labels))


def _lr(stat: float, df: int) -> LrTest:
    """The likelihood-ratio test of a statistic on df degrees of freedom."""
    if stat < -1e-8:
        raise NestingError(
            f"likelihood ratio statistic {stat} is negative; the null "
            "model is not nested in the alternative")
    stat = max(stat, 0.0)
    return LrTest(statistic=stat, df=df, p_value=chi_square_sf(stat, df))


def _carrier(fit_result: GlmFit) -> tuple[np.ndarray, np.ndarray, float]:
    """Cases, totals and deviance of the cells that the exposure
    coefficient b alone carries, as strata of a no-interaction model: the
    collapsed cells of the exposure-only model, all strata of the
    no-interaction model, and the reference stratum of the saturated model
    (its other strata keep their observed risks whatever b is)."""
    spec = fit_result.spec
    s, n, _ = _cells(spec.table)
    if spec.terms == "exposure_plus_stratum":
        return s, n, fit_result.deviance
    if spec.terms == "exposure_only":
        s, n = s.sum(axis=0, keepdims=True), n.sum(axis=0, keepdims=True)
    return s[:1], n[:1], 0.0


def exposure_test(fit_result: GlmFit) -> LrTest:
    """Likelihood-ratio test of a zero exposure coefficient (df = 1).

    With the exposure coefficient at zero, the two cells of every stratum
    that it carries (`_carrier`) share one risk, and the null fit is their
    pooled proportion.
    """
    s, n, deviance = _carrier(fit_result)
    pooled = _log_observed(s.sum(axis=1, keepdims=True),
                           n.sum(axis=1, keepdims=True))
    return _lr(_deviance(s, n, *pooled) - deviance, 1)


def interaction_test(no_interaction_fit: GlmFit) -> LrTest:
    """Likelihood-ratio test of the exposure-stratum interaction terms.

    The saturated alternative reproduces every cell, so the statistic is
    the no-interaction fit's deviance, on k - 1 degrees of freedom.
    """
    spec = no_interaction_fit.spec
    if spec.terms != "exposure_plus_stratum":
        raise ValidationError(
            "interaction test needs the exposure_plus_stratum fit, got "
            f"{spec.terms!r}")
    if spec.table.k < 2:
        raise ValidationError("interaction test needs at least two strata")
    return _lr(no_interaction_fit.deviance, spec.table.k - 1)


def profile_intervals(fits: Sequence[GlmFit], level: float = DEFAULT_LEVEL,
                      ) -> list[LrInterval | GlmError]:
    """Profile-likelihood intervals for the exposure effects of fits, of one
    link or several, each the interval or the `GlmError` that stopped it.

    The profile runs over the cells that b carries (`_carrier`). Each
    endpoint is the b where the profile drop, the likelihood-ratio
    statistic taken as one sum of per-cell differences from the fitted
    cells, reaches the chi-square(1) quantile (Venzon and Moolgavkar,
    1988). The drop rises to infinity toward every limit of b (+-1 on the
    identity link, +-inf on the others) but one the estimate sits at, whose
    endpoint is that limit; a nan estimate (0/0) has both. All the other
    endpoints, whatever their links, are the problems of one `_Stack`, on
    which their starts are computed, and of one endpoint run of the fits'
    Newton core (`_newton`), which solves each for b and the alphas
    together and differs from a fit only in b's equation, halving test and
    stop rule. A finite estimate's endpoints start from its fit's own
    alphas (`GlmFit.alphas`), so the fit is reused, one Wald half-width out
    (from the Schur complement of the observed information, held rows left
    out), at most `MAX_ETA_STEP` or half way to a nearer limit, the alphas
    moved to first order along their profile.
    An infinite estimate's fit is the observed risks; its endpoint starts
    at the smoothed counts' b, as a fit does (`_irls`), each stratum
    keeping its risk off the bound. A fit whose endpoint fails gets that
    endpoint's `NonConvergenceError` as the run left it, the lower one's
    if both fail.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level!r}")
    if not fits:
        return []
    cut = chi_square_quantile(level, 1)
    carried = [_carrier(fit_result)[:2] for fit_result in fits]
    links = [_LINKS[fit_result.spec.link] for fit_result in fits]
    b_hat = np.array([fit_result.coefficients[1] for fit_result in fits])
    limits = np.array([1.0 if link.name == "identity" else math.inf
                       for link in links])
    sides = np.array([[-1.0], [1.0]])  # lower, upper
    inside = sides * b_hat < limits
    ends = sides * limits  # each fit's lower and upper endpoints
    errors: list = [None] * len(fits)  # the first failed endpoint's error
    if inside.any():
        # one problem for each endpoint not at a limit, by fit, then side
        fit_of, side_of = (x.tolist() for x in np.nonzero(inside.T))
        problems = [(*carried[j], links[j]) for j in fit_of]
        stack = _Stack(problems)
        owner, side = stack.owner, sides[side_of, 0]
        alpha_hat = np.concatenate([fits[j].alphas for j in fit_of])
        b_hat, limits = b_hat[fit_of], limits[fit_of]
        with np.errstate(all="ignore"):
            log_mu, log_nu, _, h = stack.cells(alpha_hat, b_hat[owner])
            # a held row, its curvature nan at its bound, is left out
            information, alpha_slope = (
                np.where(np.isnan(x), 0.0, x) for x in (
                    h[:, 0] * h[:, 1] / (h[:, 0] + h[:, 1]),
                    h[:, 1] / h.sum(axis=1)))
            information = stack.sums(information)
            first = np.where((0.0 < information) & (information < math.inf),
                             np.minimum(np.sqrt(cut / information),
                                        MAX_ETA_STEP), 0.5)
            w = side * np.where(side * b_hat + first < limits, first,
                                (limits - side * b_hat) / 2.0)
            b, start = b_hat + w, alpha_hat - w[owner] * alpha_slope
            for p in np.flatnonzero(~np.isfinite(b_hat)).tolist():
                (s_p, n_p, link), r = problems[p], owner == p
                (log_mu[r], log_nu[r]), (eta, _) = (
                    _log_observed(s_p, n_p), _observed(s_p, n_p, link))
                smooth = link.to_eta(s_p + 0.5, n_p - s_p + 0.5)
                b[p] = b0 = float(np.mean(smooth[:, 1] - smooth[:, 0]))
                start[r] = np.where(np.isfinite(eta[:, 0]), eta[:, 0],
                                    np.where(np.isfinite(eta[:, 1]),
                                             eta[:, 1] - b0, -b0 / 2.0))
        run = _newton(stack, b, start, (log_mu, log_nu), b_hat, cut)
        ends.T[inside.T] = run.b
        for j, error in zip(fit_of, run.errors):  # the lower one first
            errors[j] = errors[j] or error
    return [error or LrInterval(
        estimate=exposure_estimate(fit_result),
        lower=natural_scale(fit_result.spec.link, lower),
        upper=natural_scale(fit_result.spec.link, upper), level=level)
        for fit_result, error, (lower, upper) in zip(fits, errors,
                                                     ends.T.tolist())]


def profile_interval(fit_result: GlmFit, level: float = DEFAULT_LEVEL,
                     ) -> LrInterval:
    """Profile-likelihood interval for the exposure effect of a fit: the
    one-fit case of `profile_intervals`, whose error it raises."""
    interval, = profile_intervals([fit_result], level)
    if isinstance(interval, GlmError):
        raise interval
    return interval


def _regularized_gamma(x: float, df: int) -> tuple[float, float]:
    """Lower and upper regularized gamma P, Q of a = df/2 at t = x/2.

    Each branch computes the smaller-error one directly: below t = a + 1 the
    series gives P; above it Q is a finite sum for a whole or half-integer
    a (Abramowitz and Stegun 1964, 26.4.4-26.4.5),
    e^-t sum t^i / Gamma(i + 1) over i = a - 1, a - 2, ... >= 0, plus
    erfc(sqrt(t)) for an odd df, so Q keeps its relative accuracy far into
    the upper tail. x is refused unless it is a number >= 0.
    """
    if df < 1 or int(df) != df:
        raise ValidationError(f"df must be a positive integer, got {df!r}")
    if not x >= 0:
        raise ValidationError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    a = df / 2.0
    t = x / 2.0
    log_scale = a * math.log(t) - t - math.lgamma(a)
    if t < a + 1.0:
        # Series for the lower regularized gamma.
        term = 1.0 / a
        total = term
        k = a
        while True:
            k += 1.0
            term *= t / k
            total += term
            if term < total * 1e-17:
                break
        p = min(1.0, total * math.exp(log_scale))
        return p, 1.0 - p
    # the terms from i = a - 1 down, each the last times i / t
    term, q, i = math.exp(log_scale) / t, 0.0, a - 1.0
    while i >= 0.0:
        q += term
        term *= i / t
        i -= 1.0
    if df % 2:
        q += math.erfc(math.sqrt(t))
    return 1.0 - q, q


def chi_square_cdf(x: float, df: int) -> float:
    """Chi-square distribution function via the regularized lower gamma."""
    return _regularized_gamma(x, df)[0]


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function 1 - cdf, via the upper regularized gamma.

    Computed directly, so upper-tail p-values keep their relative accuracy
    instead of underflowing to 0 through the subtraction.
    """
    return _regularized_gamma(x, df)[1]


@functools.lru_cache(maxsize=128)
def chi_square_quantile(p: float, df: int) -> float:
    """Inverse of chi_square_cdf in p, by bisection; results are cached.
    Above p = 0.5 it bisects on the upper tail Q against 1 - p, exact there:
    Q keeps its relative accuracy where P rounds in steps of 2**-53."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"p must be in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0

    def below(x: float) -> bool:  # x is below the quantile
        lower, upper = _regularized_gamma(x, df)
        return lower < p if p <= 0.5 else upper > 1.0 - p

    hi = 1.0
    while below(hi):
        hi *= 2.0
        if hi > 1e12:
            raise GlmError(f"quantile search overflow for p={p}, df={df}")
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
