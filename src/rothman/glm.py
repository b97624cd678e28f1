"""Binomial generalized linear models on the stratified cohort design.

Fits exposure/stratum/interaction models under the logit, log, identity,
and complementary log-log links. The saturated and the exposure-only
models have closed-form maximum-likelihood fits: their fitted risks are the
observed cell proportions and the exposure-group pooled proportions. The
no-interaction model is fitted by iteratively reweighted least squares
with step halving. IRLS has one stopping rule: the Newton decrement of its
step, the deviance still to gain, falls to a fixed multiple of the table's
total count. It has no absolute tolerance, so a table with every count
multiplied by a constant gets the same fit in the same iterations.

Likelihood-ratio tests and profile-likelihood intervals take a finished
fit and reuse it instead of refitting. Interval endpoints are found by a
safeguarded secant (Illinois) iteration on the signed root of the
likelihood-ratio statistic, each constrained fit warm-started from the one
before. The chi-square distribution, survival and quantile functions they
need are computed here, so there is no stats dependency.

The design uses reference-cell coding with the first stratum and the
unexposed group as references, so the exposure coefficient is directly
the adjusted measure of association on the link scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BoundaryFitError, GlmError, NestingError,
                     NonConvergenceError, ValidationError, ZeroMarginError)
from .geometry import RiskPoint
from .tables import StratifiedCohortTable

LINKS = ("logit", "log", "identity", "cloglog")
TERMS = ("exposure_only", "exposure_plus_stratum", "saturated_with_interaction")

MU_EPS = 1e-10
MAX_ITERATIONS = 100
MAX_HALVINGS = 32
DECREMENT_TOL = 1e-21
DEVIANCE_ROUNDING = 1e-14
PROFILE_BETA_TOL = 1e-9
PROFILE_ROOT_TOL = 1e-10
PROFILE_MAX_STEPS = 64
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True, slots=True)
class _Link:
    name: str
    to_eta: Callable[[np.ndarray], np.ndarray]
    to_mu: Callable[[np.ndarray], np.ndarray]
    dmu_deta: Callable[[np.ndarray], np.ndarray]
    is_ratio_scale: bool


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_LINKS = {
    "logit": _Link(
        "logit",
        to_eta=lambda mu: np.log(mu / (1.0 - mu)),
        to_mu=_expit,
        dmu_deta=lambda eta: (lambda m: m * (1.0 - m))(_expit(eta)),
        is_ratio_scale=True),
    "log": _Link(
        "log",
        to_eta=np.log,
        to_mu=np.exp,
        dmu_deta=np.exp,
        is_ratio_scale=True),
    "identity": _Link(
        "identity",
        to_eta=lambda mu: np.asarray(mu, dtype=float),
        to_mu=lambda eta: np.asarray(eta, dtype=float),
        dmu_deta=lambda eta: np.ones_like(eta),
        is_ratio_scale=False),
    "cloglog": _Link(
        "cloglog",
        to_eta=lambda mu: np.log(-np.log1p(-mu)),
        to_mu=lambda eta: -np.expm1(-np.exp(eta)),
        dmu_deta=lambda eta: np.exp(eta - np.exp(eta)),
        is_ratio_scale=True),
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


def _design(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      tuple[str, ...]]:
    """Design matrix plus per-row cases/totals, rows (stratum, unexp/exp)."""
    table = spec.table
    k = table.k
    s = np.empty(2 * k)
    n = np.empty(2 * k)
    for i, (label, cell) in enumerate(table.strata):
        if cell.unexposed_total == 0 or cell.exposed_total == 0:
            raise ZeroMarginError(
                f"stratum {label!r} has a zero-total exposure group; "
                "its risk is not estimable")
        s[2 * i] = cell.unexposed_cases
        n[2 * i] = cell.unexposed_total
        s[2 * i + 1] = cell.exposed_cases
        n[2 * i + 1] = cell.exposed_total

    names = ["intercept", "exposure"]
    with_stratum = spec.terms != "exposure_only"
    with_interaction = spec.terms == "saturated_with_interaction"
    if with_stratum:
        names.extend(f"stratum:{lbl}" for lbl in table.labels[1:])
    if with_interaction:
        names.extend(f"exposure:stratum:{lbl}" for lbl in table.labels[1:])

    X = np.zeros((2 * k, len(names)))
    X[:, 0] = 1.0
    X[1::2, 1] = 1.0
    for i in range(1, k):
        if with_stratum:
            X[2 * i, 2 + i - 1] = 1.0
            X[2 * i + 1, 2 + i - 1] = 1.0
        if with_interaction:
            X[2 * i + 1, 2 + (k - 1) + i - 1] = 1.0
    return X, s, n, tuple(names)


def _mu_ok(mu: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(mu)) and np.all(mu > MU_EPS)
                and np.all(mu < 1.0 - MU_EPS))


def _log_likelihood(s: np.ndarray, n: np.ndarray, mu: np.ndarray) -> float:
    total = 0.0
    for si, ni, mi in zip(s, n, mu):
        total += (math.lgamma(ni + 1.0) - math.lgamma(si + 1.0)
                  - math.lgamma(ni - si + 1.0)
                  + si * math.log(mi) + (ni - si) * math.log1p(-mi))
    return total


def _deviance(s: np.ndarray, n: np.ndarray, mu: np.ndarray) -> float:
    total = 0.0
    for si, ni, mi in zip(s, n, mu):
        if si > 0.0:
            total += si * math.log(si / (ni * mi))
        if ni - si > 0.0:
            total += (ni - si) * math.log((ni - si) / (ni * (1.0 - mi)))
    return 2.0 * total


@dataclass(slots=True)
class _FitState:
    beta: np.ndarray
    mu: np.ndarray
    deviance: float
    iterations: int


def _start(X: np.ndarray, s: np.ndarray, n: np.ndarray, link: _Link,
           offset: np.ndarray, warm: np.ndarray | None) -> np.ndarray:
    """Initial coefficients giving risks strictly inside (0, 1).

    ``warm`` is used when it is feasible; otherwise the start comes from
    empirically smoothed cell proportions, then from the overall risk.
    """
    def feasible(beta: np.ndarray) -> bool:
        with np.errstate(all="ignore"):
            return _mu_ok(link.to_mu(X @ beta + offset))

    if warm is not None and feasible(warm):
        return warm
    mu0 = (s + 0.5) / (n + 1.0)
    eta0 = link.to_eta(mu0)
    beta, *_ = np.linalg.lstsq(X, eta0 - offset, rcond=None)
    if feasible(beta):
        return beta
    beta = np.zeros(X.shape[1])
    overall = (float(s.sum()) + 0.5) / (float(n.sum()) + 1.0)
    beta[0] = float(link.to_eta(np.array([overall]))[0])
    if not feasible(beta):
        raise NonConvergenceError(
            f"no feasible starting point under the {link.name} link", trace=[])
    return beta


def _irls(X: np.ndarray, s: np.ndarray, n: np.ndarray, link: _Link,
          offset: np.ndarray | None = None, *,
          start: np.ndarray | None = None) -> _FitState:
    """IRLS with step halving; ``start`` warm-starts it when feasible.

    Each iteration solves A delta = g for the Fisher-scoring step, with
    A = X'WX the expected information and g the score. The step is halved
    while it leaves the link's domain or raises the deviance by more than
    `DEVIANCE_ROUNDING` times the total count, the size of the deviance's
    own rounding error. The loop stops after the step whose Newton
    decrement delta'A delta, an estimate of the deviance left to gain, is
    at most `DECREMENT_TOL` times the total count. Both scales grow with
    the counts, so a table with every count multiplied by a constant gets
    the same fit in the same iterations.
    """
    if offset is None:
        offset = np.zeros(len(s))
    p_obs = s / n
    total = float(n.sum())
    beta = _start(X, s, n, link, offset, start)
    eta = X @ beta + offset
    mu = link.to_mu(eta)
    dev = _deviance(s, n, mu)
    trace = [dev]

    for iterations in range(1, MAX_ITERATIONS + 1):
        dinv = link.dmu_deta(eta)
        w = n * dinv * dinv / (mu * (1.0 - mu))
        a = X.T @ (X * w[:, None])
        try:
            delta = np.linalg.solve(a, X.T @ (w * (p_obs - mu) / dinv))
        except np.linalg.LinAlgError as exc:
            raise GlmError(f"singular weighted design matrix: {exc}") from exc

        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            beta_try = beta + step * delta
            with np.errstate(all="ignore"):
                eta_try = X @ beta_try + offset
                mu_try = link.to_mu(eta_try)
            if _mu_ok(mu_try):
                dev_try = _deviance(s, n, mu_try)
                if dev_try <= dev + DEVIANCE_ROUNDING * total:
                    break
            step /= 2.0
        else:
            raise NonConvergenceError(
                f"step halving exhausted after {iterations} iterations "
                f"under the {link.name} link", trace=trace)
        beta, eta, mu, dev = beta_try, eta_try, mu_try, dev_try
        trace.append(dev)
        if float(delta @ a @ delta) <= DECREMENT_TOL * total:
            break
    else:
        raise NonConvergenceError(
            f"no convergence in {MAX_ITERATIONS} iterations under the "
            f"{link.name} link", trace=trace)

    if np.any(mu <= 5.0 * MU_EPS) or np.any(mu >= 1.0 - 5.0 * MU_EPS):
        pinned = [int(i) for i in np.nonzero(
            (mu <= 5.0 * MU_EPS) | (mu >= 1.0 - 5.0 * MU_EPS))[0]]
        raise BoundaryFitError(
            f"fitted risks pinned to the boundary at rows {pinned} under "
            f"the {link.name} link")
    return _FitState(beta=beta, mu=mu, deviance=dev, iterations=iterations)


def _pooled(s: np.ndarray, n: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per-row risk pooled over the rows sharing each row's group id."""
    return (np.bincount(groups, weights=s)
            / np.bincount(groups, weights=n))[groups]


def _closed_form(X: np.ndarray, s: np.ndarray, n: np.ndarray, link: _Link,
                 groups: np.ndarray) -> _FitState:
    """The fit of a model whose rows in one group share a free risk.

    Its maximum-likelihood risks are the pooled proportions, whatever the
    link; the coefficients solve the (consistent) linear system on the
    link scale.
    """
    mu = _pooled(s, n, groups)
    if not _mu_ok(mu):
        rows = [int(i) for i in np.nonzero((mu <= MU_EPS)
                                           | (mu >= 1.0 - MU_EPS))[0]]
        raise NonConvergenceError(
            f"observed risks of 0 or 1 at rows {rows} put the maximum-"
            f"likelihood fit on the boundary under the {link.name} link",
            trace=[])
    beta, *_ = np.linalg.lstsq(X, link.to_eta(mu), rcond=None)
    return _FitState(beta=beta, mu=mu, deviance=_deviance(s, n, mu),
                     iterations=0)


def fit(spec: ModelSpec) -> GlmFit:
    """Maximum-likelihood fit of the model.

    The saturated and exposure-only models are fitted in closed form; the
    no-interaction model by IRLS with step halving.
    """
    X, s, n, names = _design(spec)
    link = _LINKS[spec.link]
    rows = np.arange(len(s))
    if spec.terms == "saturated_with_interaction":
        state = _closed_form(X, s, n, link, rows)
    elif spec.terms == "exposure_only":
        state = _closed_form(X, s, n, link, rows % 2)
    else:
        state = _irls(X, s, n, link)
    k = spec.table.k
    fitted = tuple((float(state.mu[2 * i]), float(state.mu[2 * i + 1]))
                   for i in range(k))
    return GlmFit(spec=spec,
                  coefficients=tuple(float(c) for c in state.beta),
                  coefficient_names=names,
                  log_likelihood=_log_likelihood(s, n, state.mu),
                  deviance=state.deviance,
                  fitted_risks=fitted,
                  iterations=state.iterations)


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


def exposure_test(fit_result: GlmFit) -> LrTest:
    """Likelihood-ratio test of a zero exposure coefficient (df = 1).

    With the exposure coefficient at zero, the two rows of every stratum
    whose exposure effect it alone carries (all strata, or the reference
    stratum of the saturated model) share one risk, and the null fit is
    their pooled proportion.
    """
    spec = fit_result.spec
    _, s, n, _ = _design(spec)
    rows = np.arange(len(s))
    if spec.terms == "exposure_only":
        groups = np.zeros_like(rows)
    elif spec.terms == "exposure_plus_stratum":
        groups = rows // 2
    else:
        groups = np.maximum(rows - 1, 0)
    null_deviance = _deviance(s, n, _pooled(s, n, groups))
    return _lr(null_deviance - fit_result.deviance, 1)


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

    Each endpoint is the exposure coefficient at which the signed root of
    the likelihood-ratio statistic, sign(b - b_hat) * sqrt(drop(b)),
    reaches plus or minus the root of the chi-square(1) quantile, the
    equation Venzon and Moolgavkar (1988) solve. On each side the search
    starts one Wald half-width from the estimate and solves the equation
    by safeguarded secant steps (see `_endpoint_distance`), stopping when
    the root statistic is within `PROFILE_ROOT_TOL` of its target or the
    bracket is narrower than `PROFILE_BETA_TOL`. Each constrained fit is
    warm-started from the nuisance coefficients of the previous one, the
    first on each side from those of ``fit_result``. A
    constrained fit that fails counts as beyond the target; an endpoint
    that never brackets is reported as unbounded (0 or inf on a ratio
    scale).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level!r}")
    spec = fit_result.spec
    X, s, n, _ = _design(spec)
    link = _LINKS[spec.link]
    beta = np.array(fit_result.coefficients)
    beta_hat = float(beta[1])
    root_target = math.sqrt(chi_square_quantile(level, 1))
    exposure = X[:, 1]
    nuisance_design = np.delete(X, 1, axis=1)

    eta = X @ beta
    mu = link.to_mu(eta)
    dinv = link.dmu_deta(eta)
    w = n * dinv * dinv / (mu * (1.0 - mu))
    a = X.T @ (X * w[:, None])
    try:
        se = float(math.sqrt(np.linalg.inv(a)[1, 1]))
    except (np.linalg.LinAlgError, ValueError):
        se = math.nan
    first = se * root_target if math.isfinite(se) and se > 0 else 0.5

    endpoints = []
    for side in (-1.0, 1.0):
        warm = np.delete(beta, 1)

        def gap(distance: float) -> float:
            nonlocal warm
            try:
                state = _irls(nuisance_design, s, n, link,
                              offset=(beta_hat + side * distance) * exposure,
                              start=warm)
            except GlmError:
                return math.inf
            warm = state.beta
            drop = max(state.deviance - fit_result.deviance, 0.0)
            return math.sqrt(drop) - root_target

        endpoints.append(
            beta_hat + side * _endpoint_distance(gap, -root_target, first))

    lower, upper = endpoints
    return LrInterval(estimate=natural_scale(spec.link, beta_hat),
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
