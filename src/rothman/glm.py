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
iterations. With b held fixed it makes each profile-likelihood
evaluation: likelihood-ratio tests and profile intervals reuse a finished
fit, endpoints found by a safeguarded secant iteration on the signed root
of the statistic. The chi-square functions are computed here, so there is
no stats dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

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
PROFILE_ROOT_TOL = 1e-12
PROFILE_MAX_STEPS = 64
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
    is_ratio_scale: bool = True


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
                      _identity_cells, is_ratio_scale=False),
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


def _cells(table: StratifiedCohortTable) -> tuple[np.ndarray, np.ndarray]:
    """Cases and totals as (k, 2) arrays, columns (unexposed, exposed)."""
    counts = np.array([(c.unexposed_cases, c.exposed_cases, c.unexposed_total,
                        c.exposed_total) for c in table.cells], dtype=float)
    s, n = counts[:, :2], counts[:, 2:]
    empty = np.nonzero((n == 0.0).any(axis=1))[0]
    if empty.size:
        raise ZeroMarginError(
            f"stratum {table.labels[empty[0]]!r} has a zero-total exposure "
            "group; its risk is not estimable")
    return s, n


_LGAMMA = np.vectorize(math.lgamma, otypes=[float])


def _log_likelihood(s: np.ndarray, n: np.ndarray, log_mu: np.ndarray,
                    log_nu: np.ndarray) -> float:
    f = n - s
    return float(np.sum(_LGAMMA(n + 1.0) - _LGAMMA(s + 1.0) - _LGAMMA(f + 1.0)
                        + s * log_mu + f * log_nu))


def _log_observed(s: np.ndarray, n: np.ndarray) -> tuple:
    """log(s/n) and log(f/n), 0 where the count is 0 (0 log 0 = 0)."""
    f = n - s
    return (np.log(s / n, out=np.zeros_like(s), where=s > 0.0),
            np.log(f / n, out=np.zeros_like(f), where=f > 0.0))


def _deviance(s: np.ndarray, n: np.ndarray, log_mu: np.ndarray,
              log_nu: np.ndarray, observed: tuple | None = None) -> float:
    """Twice the log-likelihood gap to the observed proportions, whose logs
    (`_log_observed`) may be passed in as ``observed``."""
    log_p, log_q = observed or _log_observed(s, n)
    return 2.0 * float((s * (log_p - log_mu)
                        + (n - s) * (log_q - log_nu)).sum())


def _eta(alpha: np.ndarray, b: float) -> np.ndarray:
    return np.add.outer(alpha, (0.0, b))


def _exposure_information(h: np.ndarray) -> float:
    """Schur complement A_bb - sum A_ib^2 / A_ii, cell curvatures h."""
    return float((h[:, 0] * h[:, 1] / (h[:, 0] + h[:, 1])).sum())


def _inside(alpha: np.ndarray, b: float, link: _Link) -> np.ndarray:
    """``alpha`` with each entry putting a risk outside (MU_EPS, 1 - MU_EPS)
    at this b moved `START_MARGIN` of the feasible width inside."""
    lo, hi = link.to_eta(np.array([MU_EPS, 1.0 - MU_EPS]))
    lo, hi = max(lo, lo - b), min(hi, hi - b)
    margin = START_MARGIN * (hi - lo)
    return np.where((alpha > lo) & (alpha < hi), alpha,
                    np.clip(alpha, lo + margin, hi - margin))


@dataclass(slots=True)
class _FitState:
    alpha: np.ndarray
    b: float
    log_mu: np.ndarray
    log_nu: np.ndarray
    deviance: float
    iterations: int


def _irls(s: np.ndarray, n: np.ndarray, link: _Link, *,
          b: float | None = None, start: np.ndarray | None = None,
          ) -> _FitState:
    """Fit the no-interaction model by Newton-Raphson with step halving.

    ``s`` and ``n`` are (k, 2) arrays of cases and totals, columns
    (unexposed, exposed). With ``b`` None the fit estimates b and the
    alphas; with b given, the alphas alone (a profile-likelihood
    evaluation). The alphas start at ``start``, else from the smoothed
    proportions (s + 0.5) / (n + 1) on the link scale, which also start a
    free b; a start outside the link's domain is moved inside it.

    Newton-Raphson for a GLM is IRLS with observed-information weights.
    Each step solves A delta = g (A the observed information, g the score)
    in O(k), eliminating b through the Schur complement. It is cut so that
    no eta moves by more than `MAX_ETA_STEP`, then halved while it leaves
    the domain or raises the deviance by more than `DEVIANCE_ROUNDING`
    times the total count, the deviance's rounding error. The loop stops
    after the step whose Newton decrement delta'g, the deviance left to
    gain, is at most `DECREMENT_TOL` times the total count.
    """
    f = n - s
    total = float(n.sum())
    free = b is None
    if free or start is None:
        eta0 = link.to_eta((s + 0.5) / (n + 1.0))
        if free:
            b = float(np.mean(eta0[:, 1] - eta0[:, 0]))
        start = (eta0[:, 0] + eta0[:, 1] - b) / 2.0
    # the domain: risks in (0, 1), and MU_EPS from an end where a cell's
    # likelihood stays finite (0 with no cases, 1 with no non-cases)
    floor_mu, floor_nu = (np.where(c > 0.0, -np.inf, math.log(MU_EPS))
                          for c in (s, f))
    observed = _log_observed(s, n)

    def deviance(log_mu: np.ndarray, log_nu: np.ndarray, *_) -> float:
        if (log_mu > floor_mu).all() and (log_nu > floor_nu).all():
            return _deviance(s, n, log_mu, log_nu, observed)
        return math.nan  # outside the domain; fails every comparison

    alpha = _inside(start, b, link)  # infeasible when no alpha fits this b
    with np.errstate(all="ignore"):
        cells = link.cells(_eta(alpha, b), s, f)
    dev = deviance(*cells)
    if math.isnan(dev):
        raise NonConvergenceError(
            f"no feasible starting point under the {link.name} link",
            trace=[])
    trace = [dev]

    for iterations in range(1, MAX_ITERATIONS + 1):
        _, _, g, h = cells
        with np.errstate(all="ignore"):
            g_alpha, d = g.sum(axis=1), h.sum(axis=1)
            g_b = delta_b = 0.0
            if free:
                g_b = float(g[:, 1].sum())
                cross = (g[:, 1] * h[:, 0] - h[:, 1] * g[:, 0]) / d
                delta_b = float(cross.sum()) / _exposure_information(h)
            delta = (g_alpha - h[:, 1] * delta_b) / d
            decrement = float(delta @ g_alpha) + delta_b * g_b
            # a cell deep in a logit tail has almost no curvature, and
            # the uncut Newton step there can be 1e13 long
            reach = float(np.abs(_eta(delta, delta_b)).max())
            step = MAX_ETA_STEP / reach if reach > MAX_ETA_STEP else 1.0
            for _ in range(MAX_HALVINGS + 1):
                alpha_try, b_try = alpha + step * delta, b + step * delta_b
                trial = link.cells(_eta(alpha_try, b_try), s, f)
                dev_try = deviance(*trial)
                if dev_try <= dev + DEVIANCE_ROUNDING * total:
                    break
                step /= 2.0
            else:
                raise NonConvergenceError(
                    f"step halving exhausted after {iterations} iterations "
                    f"under the {link.name} link", trace=trace)
        alpha, b, dev, cells = alpha_try, b_try, dev_try, trial
        trace.append(dev)
        if decrement <= DECREMENT_TOL * total:
            break
    else:
        raise NonConvergenceError(
            f"no convergence in {MAX_ITERATIONS} iterations under the "
            f"{link.name} link", trace=trace)
    return _FitState(alpha=alpha, b=float(b), log_mu=cells[0],
                     log_nu=cells[1], deviance=dev, iterations=iterations)


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
    effect = eta[:, 1] - eta[:, 0]
    coefficients = (eta[0, 0], effect[0])
    if spec.terms == "saturated_with_interaction":
        coefficients += (*(eta[1:, 0] - eta[0, 0]), *(effect[1:] - effect[0]))
    return (coefficients, *_log_observed(s, n))


def fit(spec: ModelSpec) -> GlmFit:
    """Maximum-likelihood fit of the model.

    The saturated and exposure-only models are fitted in closed form; the
    no-interaction model by `_irls`, reported in reference coding:
    intercept = alpha_1 and stratum:i = alpha_i - alpha_1.
    """
    s, n = _cells(spec.table)
    link = _LINKS[spec.link]
    if spec.terms == "exposure_plus_stratum":
        state = _irls(s, n, link)
        coefficients = (state.alpha[0], state.b,
                        *(state.alpha[1:] - state.alpha[0]))
        log_mu, log_nu = state.log_mu, state.log_nu
        iterations = state.iterations
    else:
        coefficients, log_mu, log_nu = _observed_fit(spec, s, n, link)
        iterations = 0
    labels = spec.table.labels[1:]
    names = ("intercept", "exposure",
             *(f"stratum:{lbl}" for lbl in labels
               if spec.terms != "exposure_only"),
             *(f"exposure:stratum:{lbl}" for lbl in labels
               if spec.terms == "saturated_with_interaction"))
    return GlmFit(spec=spec,
                  coefficients=tuple(float(c) for c in coefficients),
                  coefficient_names=names,
                  log_likelihood=_log_likelihood(s, n, log_mu, log_nu),
                  deviance=_deviance(s, n, log_mu, log_nu),
                  fitted_risks=tuple((float(x), float(y))
                                     for x, y in np.exp(log_mu)),
                  iterations=iterations)


def natural_scale(link: str, value: float) -> float:
    """Map a link-scale coefficient to the measure's reporting scale."""
    if link not in LINKS:
        raise ValidationError(f"unknown link {link!r}")
    if _LINKS[link].is_ratio_scale:
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
    if df < 1:
        raise ValidationError("df must be a positive integer")
    if stat < -1e-8:
        raise NestingError(
            f"likelihood ratio statistic {stat} is negative; the null "
            "model is not nested in the alternative")
    stat = max(stat, 0.0)
    return LrTest(statistic=stat, df=df, p_value=chi_square_sf(stat, df))


def lr_test(null_fit: GlmFit, alt_fit: GlmFit, df: int) -> float:
    """p-value of the likelihood-ratio test for nested fits."""
    return _lr(2.0 * (alt_fit.log_likelihood - null_fit.log_likelihood),
               df).p_value


def _carrier(fit_result: GlmFit) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, float]:
    """Cases, totals, fitted alphas and deviance of the cells that the
    exposure coefficient b alone carries, as strata of a no-interaction
    model: the collapsed cells of the exposure-only model, all strata of
    the no-interaction model, and the reference stratum of the saturated
    model (its other strata keep their observed risks whatever b is)."""
    spec = fit_result.spec
    s, n = _cells(spec.table)
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


def _endpoint_distance(gap: Callable[[float], float], gap_at_zero: float,
                       first: float) -> float:
    """Distance from the estimate where the increasing ``gap`` crosses 0.

    ``gap_at_zero`` < 0 is its value at the estimate. Starting at
    ``first``, secant steps extrapolate outward, at most doubling the
    distance each time, until the crossing is bracketed; the Illinois
    variant of regula falsi then closes the bracket, bisecting while the
    outer value is infinite. Returns inf when no crossing is found.
    """
    inner, g_inner = 0.0, gap_at_zero
    d = first
    for _ in range(PROFILE_MAX_STEPS):
        g = gap(d)
        if abs(g) <= PROFILE_ROOT_TOL:
            return d
        if g > 0.0:
            break
        step = 2.0 * d
        if g > g_inner:
            step = min(step, d - g * (d - inner) / (g - g_inner))
        inner, g_inner, d = d, g, step
    else:
        return math.inf

    outer, g_outer = d, g
    moved = None  # the end the previous step replaced
    for _ in range(PROFILE_MAX_STEPS):
        if outer - inner <= PROFILE_BETA_TOL:
            break
        if math.isinf(g_outer):
            d = (inner + outer) / 2.0
        else:
            d = outer - g_outer * (outer - inner) / (g_outer - g_inner)
        g = gap(d)
        if abs(g) <= PROFILE_ROOT_TOL:
            return d
        if g < 0.0:
            inner, g_inner = d, g
            if moved == "inner":
                g_outer /= 2.0
            moved = "inner"
        else:
            outer, g_outer = d, g
            if moved == "outer":
                g_inner /= 2.0
            moved = "outer"
    return (inner + outer) / 2.0


def profile_interval(fit_result: GlmFit, level: float = DEFAULT_LEVEL,
                     ) -> LrInterval:
    """Profile-likelihood interval for the exposure effect of a fit.

    The profile runs over the cells that b carries (`_carrier`), whose
    alphas `_irls` fits with b held fixed. Each endpoint is the b where the
    signed root of the likelihood-ratio statistic reaches plus or minus
    the root of the chi-square(1) quantile (Venzon and Moolgavkar, 1988),
    found by safeguarded secant steps (`_endpoint_distance`) from one Wald
    half-width out, the standard error from the Schur complement of the
    observed information. The search stops when the root statistic is
    within `PROFILE_ROOT_TOL` of its target or the bracket is narrower
    than `PROFILE_BETA_TOL`. Each constrained fit is warm-started from the
    previous one's alphas, the first from the fit's. A constrained fit that
    fails counts as beyond the target; an endpoint that never brackets is
    unbounded (0 or inf on a ratio scale).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level!r}")
    spec = fit_result.spec
    link = _LINKS[spec.link]
    s, n, alpha_hat, deviance_hat = _carrier(fit_result)
    b_hat = fit_result.coefficients[1]
    root_target = math.sqrt(chi_square_quantile(level, 1))
    _, _, _, h = link.cells(_eta(alpha_hat, b_hat), s, n - s)
    information = _exposure_information(h)
    first = (root_target / math.sqrt(information)
             if 0.0 < information < math.inf else 0.5)

    endpoints = []
    for side in (-1.0, 1.0):
        warm = alpha_hat

        def gap(distance: float) -> float:
            nonlocal warm
            try:
                state = _irls(s, n, link, b=b_hat + side * distance,
                              start=warm)
            except GlmError:
                return math.inf
            warm = state.alpha
            drop = max(state.deviance - deviance_hat, 0.0)
            return math.sqrt(drop) - root_target

        endpoints.append(
            b_hat + side * _endpoint_distance(gap, -root_target, first))

    lower, upper = endpoints
    return LrInterval(estimate=natural_scale(spec.link, b_hat),
                      lower=natural_scale(spec.link, lower),
                      upper=natural_scale(spec.link, upper),
                      level=level)


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
