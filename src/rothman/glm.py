"""Binomial generalized linear models on the stratified cohort design.

Exposure/stratum/interaction models under the logit, log, identity and
complementary log-log links, with coefficients in reference-cell coding
(first stratum, unexposed group), so the exposure coefficient b is the
adjusted measure of association on the link scale. The saturated and
exposure-only models are fitted in closed form by the observed cell and
pooled exposure-group proportions. The no-interaction model is fitted on
its cell parameters, stratum i's cells having eta = alpha_i and
alpha_i + b: its log-likelihood is concave in eta under all four links and
its information diagonal but for b, so `_irls` takes Newton steps solved
in O(k). It stops when the Newton decrement falls to a fixed multiple of
the total count, so scaling every count changes neither fit nor
iterations. `_irls` fits many such models in one run, each with its own
link, steps and sums, so `fits` fits several models of any links and
tables at once, and `analyze` every model of the four measures.
`_joint_endpoints` steps b and the alphas together to solve for
profile-interval endpoints, each kept in a bracket of its own, many
problems in one run: `profile_intervals` solves both endpoints of several
fits of any links at once, and `analyze` those of all four measures'
crude and common fits. Both runs stack their problems' rows (`_Stack`),
and grouping changes no problem's bits.
Likelihood-ratio tests and profile intervals reuse a finished fit, and
each table's arrays are built once (`_cells`). The chi-square functions
are computed here, so there is no stats dependency.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (GlmError, NestingError, NonConvergenceError,
                     ValidationError, ZeroMarginError)
from .geometry import RiskPoint
from .tables import StratifiedCohortTable

LINKS = ("logit", "log", "identity", "cloglog")
TERMS = ("exposure_only", "exposure_plus_stratum", "saturated_with_interaction")

MU_EPS = 1e-10
MAX_ITERATIONS = 100
MAX_HALVINGS = 32
MAX_ETA_STEP = 4.0
START_MARGIN = 0.01
DECREMENT_TOL = 1e-21
DEVIANCE_ROUNDING = 1e-14
PROFILE_BETA_TOL = 1e-9
PROFILE_MAX_STEPS = 64
PROFILE_STALL_STEPS = 8
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True, slots=True)
class _Link:
    """``cells(eta, s, f)`` gives log(mu), log(1 - mu), and the first and
    negated second eta-derivatives of s*log(mu) + f*log(1 - mu) per cell,
    the logs straight from eta, so a risk too close to 1 to be stored apart
    from it keeps its log-likelihood (cloglog: log(1 - mu) = -exp(eta))."""

    name: str
    to_eta: Callable[[np.ndarray], np.ndarray]
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
    "logit": _Link("logit", lambda mu: np.log(mu / (1.0 - mu)), _logit_cells),
    "log": _Link("log", np.log, _log_cells),
    "identity": _Link("identity", lambda mu: np.asarray(mu, dtype=float),
                      _identity_cells),
    "cloglog": _Link("cloglog", lambda mu: np.log(-np.log1p(-mu)),
                     _cloglog_cells),
}


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
    per stratum in table order; all fitted risks are strictly inside (0, 1).
    ``iterations`` is 0 for the closed-form (saturated and exposure-only)
    fits.
    """

    spec: ModelSpec
    coefficients: tuple[float, ...]
    coefficient_names: tuple[str, ...]
    log_likelihood: float
    deviance: float
    fitted_risks: tuple[tuple[float, float], ...]
    iterations: int


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
    columns (unexposed, exposed), built once per table."""
    counts = np.array([(c.unexposed_cases, c.exposed_cases, c.unexposed_total,
                        c.exposed_total) for c in table.cells], dtype=float)
    s, n = counts[:, :2], counts[:, 2:]
    empty = np.nonzero((n == 0.0).any(axis=1))[0]
    if empty.size:
        raise ZeroMarginError(
            f"stratum {table.labels[empty[0]]!r} has a zero-total exposure "
            "group; its risk is not estimable")
    log_choose = np.reshape([
        math.lgamma(m + 1.0) - math.lgamma(c + 1.0) - math.lgamma(m - c + 1.0)
        for c, m in zip(s.ravel().tolist(), n.ravel().tolist())], s.shape)
    for a in (s, n, log_choose):
        a.flags.writeable = False
    return s, n, log_choose


def _log_observed(s: np.ndarray, n: np.ndarray) -> tuple:
    """log(s/n) and log(f/n), 0 where the count is 0 (0 log 0 = 0)."""
    f = n - s
    return (np.log(s / n, out=np.zeros_like(s), where=s > 0.0),
            np.log(f / n, out=np.zeros_like(f), where=f > 0.0))


def _deviance(s: np.ndarray, n: np.ndarray, log_mu: np.ndarray,
              log_nu: np.ndarray) -> float:
    """Twice the log-likelihood gap to the observed proportions."""
    log_p, log_q = _log_observed(s, n)
    return 2.0 * float((s * (log_p - log_mu)
                        + (n - s) * (log_q - log_nu)).sum())


def _eta(alpha: np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """Each stratum's cells, alpha and alpha + b (one b, or one a row)."""
    eta = np.empty((alpha.size, 2))
    eta[:, 0] = alpha
    np.add(alpha, b, out=eta[:, 1])
    return eta


def _exposure_information(h: np.ndarray) -> float:
    """Schur complement A_bb - sum A_ib^2 / A_ii, cell curvatures h."""
    return float((h[:, 0] * h[:, 1] / (h[:, 0] + h[:, 1])).sum())


def _edges(b: float | np.ndarray, lo: float | np.ndarray,
           hi: float | np.ndarray) -> tuple:
    """The least and greatest alpha keeping the risks at alpha and alpha + b
    between the link-scale bounds lo and hi."""
    return np.maximum(lo, lo - b), np.minimum(hi, hi - b)


def _inside(alpha: np.ndarray, b: float | np.ndarray, lo: float | np.ndarray,
            hi: float | np.ndarray) -> np.ndarray:
    """``alpha`` with each entry putting a risk outside (lo, hi) at this b
    moved `START_MARGIN` of the feasible width inside."""
    lo, hi = _edges(b, lo, hi)
    margin = START_MARGIN * (hi - lo)
    return np.where((alpha > lo) & (alpha < hi), alpha,
                    np.clip(alpha, lo + margin, hi - margin))


class _Stack:
    """Problems stacked row-wise, problem j on the rows from ``starts[j]``
    to the next under link ``links[j]``. Each row has an ``owner``,
    link-scale bounds ``lo``, ``hi`` and ``floors`` of log(mu) and
    log(1 - mu): `MU_EPS` from a risk of 0 with no cases or 1 with no
    non-cases."""

    def __init__(self, s: np.ndarray, f: np.ndarray, links: Sequence[_Link],
                 starts: np.ndarray) -> None:
        ends = [*starts[1:].tolist(), len(s)]
        self.s, self.f, self.starts, size = s, f, starts, len(starts)
        self.owner = np.repeat(np.arange(size), np.subtract(ends, starts))
        self.floors = [np.where(c > 0.0, -np.inf, math.log(MU_EPS))
                       for c in (s, f)]
        self.lo, self.hi = np.empty((2, len(s)))
        self.segments, j = [], 0  # one (link, rows, s, f) per run of one link
        for link, group in itertools.groupby(links):
            first, j = j, j + len(list(group))
            r = slice(starts[first], ends[j - 1])
            self.segments.append((link, r, s[r], f[r]))
            self.lo[r], self.hi[r] = link.to_eta(
                np.array([MU_EPS, 1.0 - MU_EPS]))
        # np.add.reduceat adds a segment's first entry to the pairwise sum
        # of the rest; a zero ahead of each segment makes it np.sum's sum
        self._led = {w: (np.arange(w * len(s)) + np.repeat(self.owner, w) + 1,
                         w * starts + np.arange(size),
                         np.zeros(w * len(s) + size)) for w in (1, 2)}

    def cells(self, alpha: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        """log(mu), log(1 - mu), g and h of every row under its problem's
        link, stacked, shape (4, rows, 2)."""
        eta, out = _eta(alpha, b_rows), np.empty((4, len(alpha), 2))
        for link, r, s_r, f_r in self.segments:
            out[:, r] = link.cells(eta[r], s_r, f_r)
        return out

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Each problem's sum of ``x`` (one value a row, or a (rows, 2)
        array), added in the order np.sum adds its rows alone."""
        at, heads, led = self._led[x.size // len(self.owner)]
        led[at] = x.ravel()  # the zeros ahead of the segments stay
        return np.add.reduceat(led, heads)

    def drops(self, ref: tuple, log_mu: np.ndarray, log_nu: np.ndarray,
              *_) -> np.ndarray:
        """Each problem's deviance from the cells whose logs are ``ref``,
        summed as `_deviance` sums it; nan, failing every comparison, where
        a cell leaves the domain."""
        s, f, (floor_mu, floor_nu) = self.s, self.f, self.floors
        inside = ((log_mu > floor_mu) & (log_nu > floor_nu)).all(axis=1)
        return np.where(np.logical_and.reduceat(inside, self.starts),
                        2.0 * self.sums(s * (ref[0] - log_mu)
                                        + f * (ref[1] - log_nu)), math.nan)


@dataclass(frozen=True, slots=True)
class _FitRun:
    alpha: np.ndarray  # each row's alpha
    b: np.ndarray  # each problem's exposure coefficient
    log_mu: np.ndarray  # each row's fitted log(mu) and log(1 - mu)
    log_nu: np.ndarray
    deviance: np.ndarray
    steps: np.ndarray  # each problem's iterations
    errors: list  # each problem's NonConvergenceError, None if it converged
    iterations: int  # Newton passes over the group


@dataclass(frozen=True, slots=True)
class _JointRun:
    b: np.ndarray  # each problem's endpoint, nan where its solve failed
    beyond: np.ndarray  # its inner end where it closed on an unfittable b
    iterations: int  # Newton passes over the group


def _irls(s: np.ndarray, n: np.ndarray, links: Sequence[_Link],
          starts: np.ndarray) -> _FitRun:
    """Fit the no-interaction model of several problems (see `_Stack`) in
    one run of Newton-Raphson with step halving.

    ``s`` and ``n`` are (rows, 2) arrays of cases and totals, columns
    (unexposed, exposed). Each fit starts from the smoothed proportions
    (s + 0.5) / (n + 1) on the link scale, moved inside the domain. Each
    step solves A delta = g (A the observed information, g the score) in
    O(k), eliminating b through the Schur complement. It is cut so that no
    eta moves by more than `MAX_ETA_STEP`, then halved while it leaves the
    domain or raises the deviance by more than `DEVIANCE_ROUNDING` times
    the total count, its rounding error. A fit stops after the step whose
    Newton decrement delta'g is at most `DECREMENT_TOL` times the total
    count. Each problem has its own steps, stop and sums, so no problem's
    bits depend on its group; one that fails gets its own error, with its
    deviance trace, in ``errors``.
    """
    f = n - s
    stack = _Stack(s, f, links, starts)
    owner, size, total = stack.owner, len(starts), stack.sums(n)
    observed = _log_observed(s, n)
    mu0 = (s + 0.5) / (n + 1.0)
    eta0 = np.concatenate([link.to_eta(mu0[r])
                           for link, r, *_ in stack.segments])
    b = stack.sums(eta0[:, 1] - eta0[:, 0]) / np.diff([*starts, len(s)])
    alpha = _inside((eta0[:, 0] + eta0[:, 1] - b[owner]) / 2.0, b[owner],
                    stack.lo, stack.hi)
    with np.errstate(all="ignore"):
        cells = stack.cells(alpha, b[owner])
        dev = stack.drops(observed, *cells)
    history, errors = [dev], [None] * size
    active, steps, iterations = np.ones(size, bool), np.zeros(size, int), 0
    slack, tol = DEVIANCE_ROUNDING * total, DECREMENT_TOL * total

    def fail(failed: np.ndarray, text: str) -> None:
        for j in np.flatnonzero(failed).tolist() if failed.any() else ():
            errors[j] = NonConvergenceError(
                text.format(iterations=iterations, link=links[j].name),
                trace=[float(d[j]) for d in history])

    while active.any():
        iterations += 1
        _, _, g, h = cells
        with np.errstate(all="ignore"):
            g_alpha, d = g.sum(axis=1), h.sum(axis=1)
            information = stack.sums(h[:, 0] * h[:, 1] / (h[:, 0] + h[:, 1]))
            blind = active & (information == 0.0)
            fail(blind, "no information on the exposure coefficient: every "
                 "stratum has a cell with zero curvature, so the maximum "
                 "lies on the boundary under the {link} link")
            g_b = stack.sums(g[:, 1])
            cross = (g[:, 1] * h[:, 0] - h[:, 1] * g[:, 0]) / d
            delta_b = stack.sums(cross) / information
            delta_rows = delta_b[owner]
            delta = (g_alpha - h[:, 1] * delta_rows) / d
            decrement = stack.sums(delta * g_alpha) + delta_b * g_b
            # a cell deep in a logit tail has almost no curvature, and
            # the uncut Newton step there can be 1e13 long
            reach = np.maximum.reduceat(np.maximum(
                np.abs(delta), np.abs(delta + delta_rows)), starts)
            step = np.where(reach > MAX_ETA_STEP, MAX_ETA_STEP / reach, 1.0)
            pending = moving = active & ~blind
            ceiling = dev + slack
            for _ in range(MAX_HALVINGS + 1):
                alpha_try = alpha + step[owner] * delta
                b_try = b + step * delta_b
                trial = stack.cells(alpha_try, b_try[owner])
                dev_try = stack.drops(observed, *trial)
                pending = pending & ~(dev_try <= ceiling)
                if not pending.any():
                    break
                step = np.where(pending, step / 2.0, step)
        fail(pending, "step halving exhausted after {iterations} iterations "
             "under the {link} link")
        taken = moving & ~pending
        rows = taken[owner]
        alpha, cells = np.where(rows, alpha_try, alpha), np.where(
            rows[:, None], trial, cells)
        b, dev = np.where(taken, b_try, b), np.where(taken, dev_try, dev)
        history.append(dev)
        done = taken & (decrement <= tol)
        steps[done] = iterations
        active = taken & ~done
        if iterations == MAX_ITERATIONS:
            fail(active, f"no convergence in {MAX_ITERATIONS} iterations "
                 "under the {link} link")
            break
    return _FitRun(alpha=alpha, b=b, log_mu=cells[0], log_nu=cells[1],
                   deviance=dev, steps=steps, errors=errors,
                   iterations=iterations)


def _joint_endpoints(s: np.ndarray, n: np.ndarray, links: Sequence[_Link],
                     b: np.ndarray, start: np.ndarray, b_hat: np.ndarray,
                     hat: tuple, cut: float, starts: np.ndarray,
                     ) -> _JointRun:
    """Profile-interval endpoints of several problems in one Newton run.

    Problem j starts at ``b[j]`` on one side of its estimate ``b_hat[j]``,
    on the rows from ``starts[j]`` to the next, under link ``links[j]``,
    with alphas ``start``; ``hat`` holds log(mu) and log(1 - mu) of the
    estimate's cells. Its b and alphas move together toward the point where
    every alpha score is 0 and its drop equals ``cut`` (Venzon and
    Moolgavkar, 1988). Each cell is computed by its problem's link and
    every sum covers one problem's rows, so no problem's bits depend on its
    group.

    Each problem brackets its endpoint by distance from the estimate. The
    inner end is the last iterate whose drop is below the cut, as the
    profile drop there is no larger. The outer end is the nearest b found
    unfittable: a start or a bisected b with no feasible alphas, or, in a
    problem with a zero cell, a b where a stratum's maximum lies on the
    `MU_EPS` edge of its domain (tested at the start and at each b aimed
    at, which is then not taken). A step is cut to `MAX_ETA_STEP` and
    halved only to stay in the domain. A Newton b outside the bracket, or
    one after `PROFILE_STALL_STEPS` steps in a row that bring the drop no
    closer to the cut, is replaced: from an unfittable b, or from inside
    once there is an outer end, by the bracket's midpoint, the alphas moved
    inside the domain there; else by the same b, for a step of the alphas
    alone. A problem is done after a Newton step whose b part is at most
    `PROFILE_BETA_TOL`. It fails, its b nan, when its bracket closes
    (``beyond`` then holds the inner end's b) or after `PROFILE_MAX_STEPS`
    steps.
    """
    stack = _Stack(s, n - s, links, starts)
    owner, lo, hi = stack.owner, stack.lo, stack.hi
    side = np.sign(b - b_hat)

    def by_problem(x: np.ndarray) -> np.ndarray:
        return np.bincount(owner, x, minlength=b.size)

    def unfittable(b: np.ndarray) -> np.ndarray:
        # some stratum's alpha score at an edge points out of its domain,
        # which needs a zero cell (a finite floor)
        if not zero.any():
            return zero
        g_lo, g_hi = (stack.cells(edge, b[owner])[2].sum(axis=1)
                      for edge in _edges(b[owner], lo, hi))
        return zero & np.logical_or.reduceat((g_lo <= 0.0) | (g_hi >= 0.0),
                                             starts)

    zero = np.logical_or.reduceat(
        np.isfinite(stack.floors).any(axis=(0, 2)), starts)
    with np.errstate(all="ignore"):
        alpha = _inside(start, b[owner], lo, hi)
        cells = stack.cells(alpha, b[owner])
        dev = stack.drops(hat, *cells)
        inner, outer = np.zeros(b.size), np.where(
            np.isnan(dev) | unfittable(b), side * (b - b_hat), math.inf)
        active, beyond = np.ones(b.size, bool), np.full(b.size, math.nan)
        closest, stalled, iterations = np.abs(dev - cut), 0, 0
        while active.any():
            iterations += 1
            _, _, g, h = cells
            g_alpha, d = g[:, 0] + g[:, 1], h[:, 0] + h[:, 1]
            ratio = g_alpha / d
            # each problem's Newton step on (alphas, b), one O(k) solve
            delta_b = (((dev - cut) / 2.0 - by_problem(ratio * g_alpha))
                       / (by_problem(g[:, 1]) - by_problem(ratio * h[:, 1])))
            away = side * (b - b_hat)
            fitted = away < outer
            inner = np.where((dev < cut) & fitted, away, inner)
            newton = away + side * delta_b
            bisect = ~((inner <= newton) & (newton <= outer) & fitted) | (
                stalled >= PROFILE_STALL_STEPS)
            # the bracket's own bookkeeping runs only on the passes that
            # need it: no problem bisects, is refused or closes on most
            jump = np.zeros(b.size, bool)
            if bisect.any():
                jump = bisect & (~fitted | (dev < cut) & (outer < math.inf))
                delta_b = np.where(bisect, np.where(
                    jump, side * ((inner + outer) / 2.0 - away), 0.0), delta_b)
            aim, delta_rows = b + delta_b, delta_b[owner]
            delta = (g_alpha - h[:, 1] * delta_rows) / d
            if jump.any():  # the alphas move inside the domain at the aim
                delta = np.where(jump[owner], _inside(
                    alpha, aim[owner], lo, hi) - alpha, delta)
            refused = active & unfittable(aim)  # step 0; aim is the outer end
            if refused.any():
                outer = np.where(refused, side * (aim - b_hat), outer)
            reach = np.maximum.reduceat(np.maximum(
                np.abs(delta), np.abs(delta + delta_rows)), starts)
            moving = active & np.isfinite(reach)
            # a problem not moving, or refused, has step 0 and keeps its b
            step = np.where(moving & ~refused, np.where(
                reach > MAX_ETA_STEP, MAX_ETA_STEP / reach, 1.0), 0.0)
            pending = moving.copy()
            for _ in range(MAX_HALVINGS + 1):
                alpha_try = alpha + step[owner] * delta
                b_try = np.where(moving, b + step * delta_b, b)
                trial = stack.cells(alpha_try, b_try[owner])
                dev_try = stack.drops(hat, *trial)
                pending &= np.isnan(dev_try)
                if not pending.any():
                    break
                step = np.where(pending, step / 2.0, step)
            # a bisected b left at every halving has no feasible alphas
            if (pending & jump).any():
                outer = np.where(pending & jump, side * (aim - b_hat), outer)
            alpha, b, dev, cells = alpha_try, b_try, dev_try, trial
            gap = np.abs(dev - cut)
            stalled = np.where((gap < closest) | bisect, 0, stalled + 1)
            closest = np.where(bisect, gap, np.minimum(gap, closest))
            done = moving & ~pending & ~bisect & (
                np.abs(delta_b) <= PROFILE_BETA_TOL)
            lost = active & ~done & (iterations >= PROFILE_MAX_STEPS)
            if (outer < math.inf).any():  # a bracket may have closed
                closed = active & ~done & (outer - inner <= PROFILE_BETA_TOL)
                beyond = np.where(closed, b_hat + side * inner, beyond)
                lost |= closed
            b = np.where(lost, math.nan, b)
            active &= ~done & ~lost
    return _JointRun(b=b, beyond=beyond, iterations=iterations)


def _observed_fit(spec: ModelSpec, s: np.ndarray, n: np.ndarray, link: _Link,
                  ) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """Coefficients, log(mu) and log(1 - mu) of a closed-form fit: every
    saturated cell and exposure-only group has a free risk, fitted by its
    observed (pooled) proportion, and the coefficients are read off its
    link-scale value."""
    if spec.terms == "exposure_only":
        s, n = (np.broadcast_to(a.sum(axis=0), a.shape) for a in (s, n))
    edge = ((s == 0.0) | (s == n)).ravel()
    if edge.any():
        raise NonConvergenceError(
            f"observed risks of 0 or 1 at rows {np.nonzero(edge)[0].tolist()} "
            "put the maximum-likelihood fit on the boundary under the "
            f"{link.name} link", trace=[])
    eta = link.to_eta(s / n)
    if link.name == "identity":
        # p1 - p0 from the counts, rounded once (the products are exact
        # below 2**53), not the difference of two rounded proportions
        effect = ((s[:, 1] * n[:, 0] - s[:, 0] * n[:, 1])
                  / (n[:, 0] * n[:, 1]))
    else:
        effect = eta[:, 1] - eta[:, 0]
    coefficients = (eta[0, 0], effect[0])
    if spec.terms == "saturated_with_interaction":
        coefficients += (*(eta[1:, 0] - eta[0, 0]), *(effect[1:] - effect[0]))
    return (coefficients, *_log_observed(s, n))


def _glm_fit(spec: ModelSpec, coefficients: tuple, log_mu: np.ndarray,
             log_nu: np.ndarray, deviance: float, iterations: int) -> GlmFit:
    """The fit of ``spec`` from its coefficients and fitted cells' logs."""
    s, n, log_choose = _cells(spec.table)
    labels = spec.table.labels[1:]
    names = ("intercept", "exposure",
             *(f"stratum:{lbl}" for lbl in labels
               if spec.terms != "exposure_only"),
             *(f"exposure:stratum:{lbl}" for lbl in labels
               if spec.terms == "saturated_with_interaction"))
    return GlmFit(spec=spec,
                  coefficients=tuple(float(c) for c in coefficients),
                  coefficient_names=names,
                  log_likelihood=float(np.sum(
                      log_choose + s * log_mu + (n - s) * log_nu)),
                  deviance=deviance,
                  fitted_risks=tuple((float(x), float(y))
                                     for x, y in np.exp(log_mu)),
                  iterations=iterations)


def fits(specs: Sequence[ModelSpec]) -> list[GlmFit | GlmError]:
    """Maximum-likelihood fits of several models, each the fit or the
    `GlmError` that stopped it. The saturated and exposure-only models are
    fitted in closed form, and all no-interaction models in one `_irls`
    run, reported in reference coding: intercept = alpha_1 and stratum:i =
    alpha_i - alpha_1."""
    results: list = [None] * len(specs)
    free = []  # (result index, spec, cases, totals) of each free fit
    for i, spec in enumerate(specs):
        try:
            s, n, _ = _cells(spec.table)
            if spec.terms == "exposure_plus_stratum":
                free.append((i, spec, s, n))
                continue
            coefficients, *logs = _observed_fit(spec, s, n, _LINKS[spec.link])
        except GlmError as exc:
            results[i] = exc
            continue
        # the saturated fit is the observed risks: its deviance is 0
        deviance = (_deviance(s, n, *logs) if spec.terms == "exposure_only"
                    else 0.0)
        results[i] = _glm_fit(spec, coefficients, *logs, deviance, 0)
    if free:
        indices, free_specs, s, n = zip(*free)
        starts = np.cumsum([0, *map(len, s[:-1])])
        run = _irls(np.concatenate(s), np.concatenate(n),
                    [_LINKS[spec.link] for spec in free_specs], starts)
        for j, (i, spec) in enumerate(zip(indices, free_specs)):
            rows = slice(starts[j], starts[j] + len(s[j]))
            alpha = run.alpha[rows]
            results[i] = run.errors[j] or _glm_fit(
                spec, (alpha[0], run.b[j], *(alpha[1:] - alpha[0])),
                run.log_mu[rows], run.log_nu[rows], float(run.deviance[j]),
                int(run.steps[j]))
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
    if link != "identity":
        return math.exp(value)
    return value


def exposure_estimate(fit_result: GlmFit) -> float:
    """The exposure effect on the natural scale (exponentiated for ratios)."""
    return natural_scale(fit_result.spec.link, fit_result.coefficients[1])


def stratum_exposure_estimates(fit_result: GlmFit) -> tuple[float, ...]:
    """Per-stratum exposure effect on the natural scale.

    Only the saturated model has stratum-specific effects; the other term
    structures repeat the common effect.
    """
    spec = fit_result.spec
    k = spec.table.k
    beta_x = fit_result.coefficients[1]
    if spec.terms != "saturated_with_interaction":
        return tuple(natural_scale(spec.link, beta_x) for _ in range(k))
    interactions = fit_result.coefficients[2 + (k - 1):]
    effects = [beta_x] + [beta_x + g for g in interactions]
    return tuple(natural_scale(spec.link, e) for e in effects)


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


def _carrier(fit_result: GlmFit) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, float]:
    """Cases, totals, fitted alphas and deviance of the cells that the
    exposure coefficient b alone carries, as strata of a no-interaction
    model: the collapsed cells of the exposure-only model, all strata of
    the no-interaction model, and the reference stratum of the saturated
    model (its other strata keep their observed risks whatever b is)."""
    spec = fit_result.spec
    s, n, _ = _cells(spec.table)
    c = fit_result.coefficients
    if spec.terms == "exposure_plus_stratum":
        return s, n, c[0] + np.array((0.0, *c[2:])), fit_result.deviance
    if spec.terms == "exposure_only":
        s, n = s.sum(axis=0, keepdims=True), n.sum(axis=0, keepdims=True)
    return s[:1], n[:1], np.array(c[:1]), 0.0


def exposure_test(fit_result: GlmFit) -> LrTest:
    """Likelihood-ratio test of a zero exposure coefficient (df = 1).

    With the exposure coefficient at zero, the two cells of every stratum
    that it carries (`_carrier`) share one risk, and the null fit is their
    pooled proportion.
    """
    s, n, _, deviance = _carrier(fit_result)
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
    1988). All the endpoints, whatever their links, are one
    `_joint_endpoints` run, which solves each for b and the alphas
    together, started one Wald half-width out (the standard error from the
    Schur complement of the observed information) with the alphas moved to
    first order along their profile.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level!r}")
    if not fits:
        return []
    cut = chi_square_quantile(level, 1)
    rows, b_start, b_hats, links = [], [], [], []
    for fit_result in fits:
        link = _LINKS[fit_result.spec.link]
        s, n, alpha_hat, _ = _carrier(fit_result)
        b_hat = fit_result.coefficients[1]
        *hat, _, h = link.cells(_eta(alpha_hat, b_hat), s, n - s)
        information = _exposure_information(h)
        first = (math.sqrt(cut / information)
                 if 0.0 < information < math.inf else 0.5)
        with np.errstate(all="ignore"):
            alpha_slope = h[:, 1] / h.sum(axis=1)
        for side in (-1.0, 1.0):  # the lower, then the upper endpoint
            rows.append((s, n, *hat, alpha_hat - side * first * alpha_slope))
            b_start.append(b_hat + side * first)
            b_hats.append(b_hat)
            links.append(link)
    s, n, log_mu_hat, log_nu_hat, start = map(np.concatenate, zip(*rows))
    starts = np.cumsum([0] + [len(r[0]) for r in rows[:-1]])
    run = _joint_endpoints(s, n, links, np.array(b_start), start,
                           np.array(b_hats), (log_mu_hat, log_nu_hat), cut,
                           starts)

    intervals = []
    for j, fit_result in enumerate(fits):
        link, ends = fit_result.spec.link, run.b[2 * j:2 * j + 2].tolist()
        failed = [(name, last) for name, b, last in zip(
            ("lower", "upper"), ends, run.beyond[2 * j:2 * j + 2].tolist())
            if math.isnan(b)]
        if failed:
            name, last = failed[0]
            intervals.append(NonConvergenceError(
                f"no {name} profile endpoint in {PROFILE_MAX_STEPS} steps "
                f"under the {link} link" if math.isnan(last) else
                f"the {name} profile endpoint lies beyond the last exposure "
                f"coefficient that could be fitted, b = {last!r}, under the "
                f"{link} link", trace=[]))
        else:
            intervals.append(LrInterval(
                estimate=exposure_estimate(fit_result),
                lower=natural_scale(link, ends[0]),
                upper=natural_scale(link, ends[1]), level=level))
    return intervals


def profile_interval(fit_result: GlmFit, level: float = DEFAULT_LEVEL,
                     ) -> LrInterval:
    """Profile-likelihood interval for the exposure effect of a fit: the
    one-fit case of `profile_intervals`, whose error it raises."""
    interval, = profile_intervals([fit_result], level)
    if isinstance(interval, GlmError):
        raise interval
    return interval


def _regularized_gamma(x: float, df: int) -> tuple[float, float]:
    """Lower and upper regularized gamma P, Q of df/2 at x/2.

    Each branch computes the smaller-error one directly: the series gives
    P, the continued fraction gives Q, so Q keeps its relative accuracy
    far into the upper tail.
    """
    if df < 1 or int(df) != df:
        raise ValidationError(f"df must be a positive integer, got {df!r}")
    if x < 0:
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
    # Lentz continued fraction for the upper regularized gamma.
    tiny = 1e-300
    b = t + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = min(1.0, math.exp(log_scale) * h)
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
    """Inverse of chi_square_cdf in p, by bisection; results are cached."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"p must be in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    hi = 1.0
    while chi_square_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:
            raise GlmError(f"quantile search overflow for p={p}, df={df}")
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if chi_square_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
