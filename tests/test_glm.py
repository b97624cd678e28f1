"""Binomial GLM fitting, likelihood-ratio inference, chi-square support.

Two oracles live at the top of this file, written before anything that
consumes them. The chi-square oracle integrates the density by adaptive
Simpson quadrature after the substitution t = u**2, which removes the
integrable singularity at zero for one degree of freedom. The likelihood
oracle rebuilds the design from scratch and maximizes the binomial
log-likelihood with scipy, so agreement is evidence about the model, not
about two copies of the same code.
"""

import dataclasses
import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import adversarial
import oracles
import test_golden

from rothman.errors import (GlmError, NestingError, NonConvergenceError,
                            ValidationError, ZeroMarginError)
from rothman import glm
from rothman.diagnostics import analyze
from rothman.glm import (LrInterval, LrTest, ModelSpec, _lr, chi_square_cdf,
                         chi_square_quantile, chi_square_sf, exposure_estimate,
                         exposure_test, fit, fitted_stratum_points,
                         interaction_test, natural_scale, profile_interval,
                         stratum_exposure_estimates)
from rothman.tables import CohortCell, StratifiedCohortTable
from rothman.whickham import six_strata_table, whickham_table

LINKS = ("logit", "log", "identity", "cloglog")

# Frozen exposure-effect estimates, profile intervals, and test p-values.
CRUDE = {
    "logit": (0.684837, 0.534568, 0.875088),
    "log": (0.760108, 0.633025, 0.908325),
    "identity": (-0.075376, -0.123380, -0.026821),
    "cloglog": (0.723528, 0.584460, 0.892452),
}
CRUDE_P = 0.002420
COMMON = {
    "logit": (1.537226, 1.118522, 2.125181),
    "log": (1.061626, 0.951923, 1.166316),
    "identity": (0.052320, 0.013255, 0.090894),
    "cloglog": (1.316260, 1.033750, 1.676117),
}
COMMON_P = {"logit": 0.007901, "log": 0.260631, "identity": 0.008896,
            "cloglog": 0.025836}
INTERACTION_P = {"logit": 0.353124, "log": 0.009901, "identity": 0.299956,
                 "cloglog": 0.085822}
STRATUM_EFFECTS = {
    "logit": (1.622371, 1.018182),
    "log": (1.509107, 1.002597),
    "identity": (0.061395, 0.002221),
    "cloglog": (1.563162, 1.007990),
}

CHI2_95_1 = 3.8414588206941245


# ---------------------------------------------------------------- oracles

def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2.0
    lm = (a + m) / 2.0
    rm = (m + b) / 2.0
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f, a, b, tol=1e-13):
    fa, fb = f(a), f(b)
    m = (a + b) / 2.0
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, b, fa, fm, fb, whole, tol, 60)


def oracle_chi2_cdf(x, df):
    """P(chi2_df <= x) by quadrature of the density with t = u**2."""
    if x <= 0.0:
        return 0.0
    norm = 2.0 / (2.0 ** (df / 2.0) * math.exp(math.lgamma(df / 2.0)))

    def integrand(u):
        return norm * u ** (df - 1) * math.exp(-u * u / 2.0)

    return min(adaptive_simpson(integrand, 0.0, math.sqrt(x)), 1.0)


def oracle_design(table, terms):
    """Reference-cell design rebuilt independently of the package."""
    k = table.k
    cols = {"exposure_only": 2,
            "exposure_plus_stratum": 1 + k,
            "saturated_with_interaction": 2 * k}[terms]
    X = np.zeros((2 * k, cols))
    s = np.zeros(2 * k)
    n = np.zeros(2 * k)
    for i, cell in enumerate(table.cells):
        s[2 * i], n[2 * i] = cell.unexposed_cases, cell.unexposed_total
        s[2 * i + 1], n[2 * i + 1] = cell.exposed_cases, cell.exposed_total
    X[:, 0] = 1.0
    X[1::2, 1] = 1.0
    if terms != "exposure_only":
        for i in range(1, k):
            X[2 * i:2 * i + 2, 1 + i] = 1.0
    if terms == "saturated_with_interaction":
        for i in range(1, k):
            X[2 * i + 1, k + i] = 1.0
    return X, s, n


def oracle_inverse_link(link, eta):
    if link == "logit":
        return scipy.special.expit(eta)
    if link == "log":
        return np.exp(eta)
    if link == "identity":
        return eta
    return -np.expm1(-np.exp(eta))


def oracle_log_likelihood(table, terms, link, beta):
    X, s, n = oracle_design(table, terms)
    mu = oracle_inverse_link(link, X @ np.asarray(beta, dtype=float))
    if np.any(mu <= 0.0) or np.any(mu >= 1.0):
        return -np.inf
    ll = 0.0
    for si, ni, mi in zip(s, n, mu):
        ll += (math.lgamma(ni + 1) - math.lgamma(si + 1)
               - math.lgamma(ni - si + 1)
               + si * math.log(mi) + (ni - si) * math.log1p(-mi))
    return ll


def oracle_ml(table, terms, link, start):
    """Direct numerical maximization with scipy; returns (beta, loglik)."""
    res = scipy.optimize.minimize(
        lambda b: -oracle_log_likelihood(table, terms, link, b),
        x0=np.asarray(start, dtype=float), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 50_000,
                 "maxfev": 50_000})
    return res.x, -res.fun


def oracle_profile_log_likelihood(table, terms, link, beta_x, start):
    """Max log-likelihood with the exposure coefficient pinned."""
    start = [v for j, v in enumerate(start) if j != 1]

    def insert(rest):
        rest = list(rest)
        return rest[:1] + [beta_x] + rest[1:]

    res = scipy.optimize.minimize(
        lambda b: -oracle_log_likelihood(table, terms, link, insert(b)),
        x0=np.asarray(start, dtype=float), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 50_000,
                 "maxfev": 50_000})
    return -res.fun


# ----------------------------------------------------- chi-square support

class TestChiSquare:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10])
    def test_cdf_matches_quadrature_oracle(self, df):
        for x in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 3.84, 5.0, 10.0, 25.0,
                  50.0):
            assert chi_square_cdf(x, df) == pytest.approx(
                oracle_chi2_cdf(x, df), abs=1e-12)

    def test_cdf_endpoints(self):
        assert chi_square_cdf(0.0, 1) == 0.0
        assert chi_square_cdf(math.inf, 3) == 1.0

    def test_df2_closed_form(self):
        for x in (0.1, 1.0, 4.0, 9.0):
            assert chi_square_cdf(x, 2) == pytest.approx(
                1.0 - math.exp(-x / 2.0), abs=1e-14)

    def test_frozen_95_percent_quantile(self):
        assert chi_square_quantile(0.95, 1) == pytest.approx(
            CHI2_95_1, abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 4])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.9, 0.99])
    def test_quantile_round_trip(self, p, df):
        assert chi_square_cdf(chi_square_quantile(p, df), df) == \
            pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 3])
    @pytest.mark.parametrize("x", [0.5, 3.84, 25.0, 100.0, 700.0])
    def test_sf_keeps_relative_accuracy_in_the_upper_tail(self, x, df):
        # 1 - cdf would return exactly 0.0 from x = 100, df = 1 onward
        expected = scipy.stats.chi2.sf(x, df)
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            chi_square_cdf(-1.0, 1)
        for tail in (chi_square_cdf, chi_square_sf):
            with pytest.raises(ValidationError):  # min(1.0, nan) was 1.0
                tail(math.nan, 1)
        with pytest.raises(ValidationError):
            chi_square_cdf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_quantile(1.5, 1)
        assert chi_square_quantile(0.0, 1) == 0.0


# ----------------------------------------------------------- model fitting

class TestModelSpec:
    def test_unknown_link_rejected(self, whickham):
        with pytest.raises(ValidationError):
            ModelSpec(link="probit", terms="exposure_only", table=whickham)

    def test_unknown_terms_rejected(self, whickham):
        with pytest.raises(ValidationError):
            ModelSpec(link="logit", terms="everything", table=whickham)

    def test_interaction_needs_two_strata(self, whickham_crude):
        with pytest.raises(ValidationError):
            ModelSpec(link="logit", terms="saturated_with_interaction",
                      table=whickham_crude)


class TestFit:
    @pytest.mark.parametrize("link", LINKS)
    def test_saturated_fit_reproduces_observed_risks(self, whickham, link):
        f = fit(ModelSpec(link=link, terms="saturated_with_interaction",
                          table=whickham))
        for (fx, fy), cell in zip(f.fitted_risks, whickham.cells):
            ox, oy = cell.risks()
            assert fx == pytest.approx(ox, abs=1e-10)
            assert fy == pytest.approx(oy, abs=1e-10)
        assert f.deviance == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("terms", ["exposure_only",
                                       "exposure_plus_stratum"])
    def test_fit_matches_scipy_maximum(self, whickham, link, terms):
        f = fit(ModelSpec(link=link, terms=terms, table=whickham))
        beta, ll = oracle_ml(whickham, terms, link, f.coefficients)
        # scipy starts at the reported solution: it must not move away
        assert ll <= f.log_likelihood + 1e-9
        assert f.log_likelihood == pytest.approx(ll, abs=1e-7)
        assert np.allclose(f.coefficients, beta, atol=1e-5)

    @pytest.mark.parametrize("link", LINKS)
    def test_fit_beats_neutral_start_oracle(self, whickham, link):
        terms = "exposure_plus_stratum"
        f = fit(ModelSpec(link=link, terms=terms, table=whickham))
        start = list(f.coefficients)
        start = [v * 0.5 - 0.01 for v in start]
        if link == "identity":
            start = [0.3, 0.0, 0.1]
        _, ll = oracle_ml(whickham, terms, link, start)
        assert f.log_likelihood >= ll - 1e-7

    @pytest.mark.parametrize("link", LINKS)
    def test_finite_difference_score_vanishes_at_optimum(self, whickham,
                                                         link):
        terms = "exposure_plus_stratum"
        f = fit(ModelSpec(link=link, terms=terms, table=whickham))
        beta = np.asarray(f.coefficients)
        # h balances O(h^2) truncation against eps/h rounding; the identity
        # link's third derivatives are ~1e5 so larger steps leak truncation
        h = 1e-6
        for j in range(len(beta)):
            hi = beta.copy()
            lo = beta.copy()
            hi[j] += h
            lo[j] -= h
            score_j = (oracle_log_likelihood(whickham, terms, link, hi)
                       - oracle_log_likelihood(whickham, terms, link, lo)
                       ) / (2.0 * h)
            assert abs(score_j) < 1e-6

    def test_closed_form_fits_take_no_iterations(self, whickham):
        for link in LINKS:
            sat = fit(ModelSpec(link=link,
                                terms="saturated_with_interaction",
                                table=whickham))
            crude = fit(ModelSpec(link=link, terms="exposure_only",
                                  table=whickham))
            assert sat.iterations == crude.iterations == 0
            pooled = whickham.collapse().risks()
            for risks in crude.fitted_risks:
                assert risks == pytest.approx(pooled, abs=1e-15)

    def test_fitted_risks_strictly_interior(self, whickham):
        for link in LINKS:
            f = fit(ModelSpec(link=link, terms="exposure_plus_stratum",
                              table=whickham))
            for fx, fy in f.fitted_risks:
                assert 0.0 < fx < 1.0
                assert 0.0 < fy < 1.0

    def test_coefficient_names(self, whickham):
        f = fit(ModelSpec(link="logit", terms="saturated_with_interaction",
                          table=whickham))
        assert f.coefficient_names == ("intercept", "exposure",
                                       "stratum:65+",
                                       "exposure:stratum:65+")
        f = fit(ModelSpec(link="logit", terms="exposure_only",
                          table=whickham))
        assert f.coefficient_names == ("intercept", "exposure")

    def test_log_likelihood_increases_with_nesting(self, whickham):
        for link in LINKS:
            lls = [fit(ModelSpec(link=link, terms=t, table=whickham)
                       ).log_likelihood
                   for t in ("exposure_only", "exposure_plus_stratum",
                             "saturated_with_interaction")]
            assert lls[0] <= lls[1] + 1e-10
            assert lls[1] <= lls[2] + 1e-10

    def test_deviance_is_twice_the_gap_to_saturated(self, whickham):
        sat = fit(ModelSpec(link="logit",
                            terms="saturated_with_interaction",
                            table=whickham))
        common = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                               table=whickham))
        assert common.deviance == pytest.approx(
            2.0 * (sat.log_likelihood - common.log_likelihood), abs=1e-8)

    def test_zero_margin_stratum_raises_naming_it(self, make_table):
        t = make_table([("empty", 0, 0, 10, 50), ("b", 5, 50, 10, 50)])
        with pytest.raises(ZeroMarginError, match="'empty'"):
            fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                          table=t))

    def test_boundary_data_fits_on_the_boundary(
            self, zero_exposed_cases_table):
        # Stratum a's exposed cell has no cases in 200: the saturated fit
        # keeps its observed risk of 0, and the identity no-interaction fit
        # holds it there, as the bounded oracle's maximum does.
        t = zero_exposed_cases_table
        for link in LINKS:
            sat = fit(ModelSpec(link=link,
                                terms="saturated_with_interaction", table=t))
            assert sat.fitted_risks[0][1] == 0.0
        f = fit(ModelSpec(link="identity", terms="exposure_plus_stratum",
                          table=t))
        assert f.fitted_risks[0][1] == 0.0
        assert oracle_fit_kernel(f) == pytest.approx(
            oracle_bounded_maximum(t, "identity", f.coefficients[1]),
            rel=1e-12)

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("c", [100, 1000, 10000])
    def test_fit_does_not_depend_on_the_cohort_size(
            self, whickham, zero_exposed_cases_table, scale_table, c, link):
        # The same risks from c times as many people give the same MLE,
        # reached in as many iterations, a boundary MLE too.
        for table, links in ((whickham, [link]),
                             (zero_exposed_cases_table, ["identity"])):
            for link in links:
                base, big = (fit(ModelSpec(
                    link=link, terms="exposure_plus_stratum", table=t))
                    for t in (table, scale_table(table, c)))
                assert big.coefficients == pytest.approx(base.coefficients,
                                                         rel=1e-9)
                assert big.iterations == base.iterations

    def test_boundary_data_still_fits_off_boundary_models(
            self, zero_exposed_cases_table):
        for link in ("logit", "log", "cloglog"):
            fit(ModelSpec(link=link, terms="exposure_plus_stratum",
                          table=zero_exposed_cases_table))

    @pytest.mark.parametrize("link", LINKS)
    def test_interior_fit_with_risks_near_zero(self, make_table, link):
        # Fitted risks of 3e-10 to 6e-10 are an interior maximum, not a
        # boundary one: the fit returns them.
        n = 4_000_000_000
        table = make_table([("a", 1, n, 2, n), ("b", 3, n, 1, n)])
        f = fit(ModelSpec(link=link, terms="exposure_plus_stratum",
                          table=table))
        for risks in f.fitted_risks:
            assert all(2e-10 < r < 7e-10 for r in risks)
        _, ll = oracle_ml(table, "exposure_plus_stratum", link,
                          f.coefficients)
        assert ll <= f.log_likelihood + 1e-9

    def test_identity_fit_that_fisher_scoring_could_not_finish(
            self, make_table):
        # Fisher scoring crept toward this interior maximum at a linear rate
        # near 1 and raised NonConvergenceError after 100 iterations.
        table = make_table([("s1", 13, 187, 60, 598),
                            ("s2", 288, 834, 281, 381)])
        terms = "exposure_plus_stratum"
        for link in LINKS:
            f = fit(ModelSpec(link=link, terms=terms, table=table))
            beta = np.asarray(f.coefficients)
            h = 1e-6
            for j in range(len(beta)):
                step = np.zeros_like(beta)
                step[j] = h
                score_j = (oracle_log_likelihood(table, terms, link, beta + step)
                           - oracle_log_likelihood(table, terms, link,
                                                   beta - step)) / (2.0 * h)
                assert abs(score_j) < 1e-6, (link, j)
            if link == "identity":
                assert exposure_estimate(f) == pytest.approx(-0.134265,
                                                             abs=1e-6)
        doc = analyze(table).to_json_dict()
        assert all(entry["error"] is None
                   for entry in doc["measures"] + doc["collapsibility"])

    def test_zero_exposure_information_is_a_boundary_maximum(
            self, make_table):
        # Under the log link a cell with no non-cases has no curvature, and
        # each stratum has one (4/4 exposed, 30/30 unexposed), so inside
        # the domain the exposure coefficient carries no information.
        # Dividing by it once escaped as ZeroDivisionError, and the run then
        # raised instead. The step up the profile's slope reaches the bound
        # that holds stratum b's unexposed risk at 1, and the fit is the
        # bounded oracle's maximum.
        table = make_table([("a", 4, 4, 16, 20), ("b", 10, 30, 30, 30)])
        f = fit(ModelSpec(link="log", terms="exposure_plus_stratum",
                          table=table))
        assert f.fitted_risks[1][0] == 1.0
        assert oracle_fit_kernel(f) == pytest.approx(
            oracle_bounded_maximum(table, "log", f.coefficients[1]),
            rel=1e-12)

    def test_the_log_fit_reaches_a_boundary_maximum_exactly(
            self, make_table):
        # The exposed cell 2/2 of stratum a pulls its fitted risk to 1: the
        # maximum lies on the boundary (alpha_a = -log 2, b = log 2). The
        # run once crept toward it until the iteration cap stopped it; the
        # bound now holds the cell there.
        table = make_table([("a", 2, 2, 2, 6), ("b", 2, 4, 5, 11)])
        f = fit(ModelSpec(link="log", terms="exposure_plus_stratum",
                          table=table))
        assert f.coefficients[1] == pytest.approx(math.log(2.0), abs=1e-9)
        assert f.fitted_risks[0][1] == 1.0

    def test_a_step_that_would_cross_a_bound_stops_on_it(self, make_table):
        # `project` clipped the zero-count row at its bound while b took its
        # full share of the step, so the deviance rose and the halved steps
        # crept toward the bound until halving ran out after 17 iterations.
        # The step now stops at the bound, and the fit is the bounded
        # oracle's maximum.
        table = make_table([("a", 0, 1, 0, 1), ("b", 0, 12, 2, 242)])
        f = fit(ModelSpec(link="identity", terms="exposure_plus_stratum",
                          table=table))
        assert oracle_fit_kernel(f) == pytest.approx(
            oracle_bounded_maximum(table, "identity", f.coefficients[1]),
            rel=1e-9)


class TestEstimates:
    @pytest.mark.parametrize("link", LINKS)
    def test_crude_estimate_and_interval(self, whickham_crude, link):
        spec = ModelSpec(link=link, terms="exposure_only",
                         table=whickham_crude)
        iv = profile_interval(fit(spec))
        est, lo, hi = CRUDE[link]
        assert iv.estimate == pytest.approx(est, abs=1e-6)
        assert iv.lower == pytest.approx(lo, abs=1e-6)
        assert iv.upper == pytest.approx(hi, abs=1e-6)
        assert exposure_estimate(fit(spec)) == pytest.approx(est, abs=1e-6)

    @pytest.mark.parametrize("link", LINKS)
    def test_common_effect_estimate_and_interval(self, whickham, link):
        spec = ModelSpec(link=link, terms="exposure_plus_stratum",
                         table=whickham)
        iv = profile_interval(fit(spec))
        est, lo, hi = COMMON[link]
        assert iv.estimate == pytest.approx(est, abs=1e-6)
        assert iv.lower == pytest.approx(lo, abs=1e-6)
        assert iv.upper == pytest.approx(hi, abs=1e-6)

    @pytest.mark.parametrize("link", LINKS)
    def test_stratum_specific_estimates(self, whickham, link):
        f = fit(ModelSpec(link=link, terms="saturated_with_interaction",
                          table=whickham))
        assert stratum_exposure_estimates(f) == pytest.approx(
            STRATUM_EFFECTS[link], abs=1e-6)

    def test_risk_difference_stratum_estimates_round_once(self, whickham):
        # p1 - p0 of two rounded proportions lost digits to cancellation:
        # the 65+ stratum's 0.00222 was 3.9e-14 relative off. Rebuilt from
        # the reference-coded coefficients it was still an ulp off,
        # 0.002220577350111032; read off its two cells it is exact.
        for table in (whickham, *(t for t in test_golden.small_tables()
                                  if t.k >= 2)):
            f = fit(ModelSpec(link="identity",
                              terms="saturated_with_interaction", table=table))
            for estimate, c in zip(stratum_exposure_estimates(f), table.cells):
                assert estimate == float(
                    Fraction(c.exposed_cases, c.exposed_total)
                    - Fraction(c.unexposed_cases, c.unexposed_total))

    def test_non_saturated_models_repeat_the_common_effect(self, whickham):
        f = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                          table=whickham))
        effects = stratum_exposure_estimates(f)
        assert len(effects) == 2
        assert effects[0] == effects[1] == exposure_estimate(f)

    def test_crude_lr_p_value_is_link_invariant(self, whickham_crude):
        # both crude models reparametrize the same two risks, so the
        # likelihood-ratio statistic cannot depend on the link
        ps = [exposure_test(fit(ModelSpec(link=link, terms="exposure_only",
                                          table=whickham_crude))).p_value
              for link in LINKS]
        for p in ps:
            assert p == pytest.approx(CRUDE_P, abs=1e-6)
            assert p == pytest.approx(ps[0], abs=1e-10)

    @pytest.mark.parametrize("link", LINKS)
    def test_common_effect_p_values(self, whickham, link):
        te = exposure_test(fit(ModelSpec(link=link,
                                         terms="exposure_plus_stratum",
                                         table=whickham)))
        assert te.p_value == pytest.approx(COMMON_P[link], abs=1e-6)
        assert te.df == 1

    @pytest.mark.parametrize("link", LINKS)
    def test_interaction_p_values(self, whickham, link):
        te = interaction_test(fit(ModelSpec(
            link=link, terms="exposure_plus_stratum", table=whickham)))
        assert te.p_value == pytest.approx(INTERACTION_P[link], abs=1e-6)
        assert te.df == 1

    def test_interaction_df_grows_with_strata(self, six_strata):
        te = interaction_test(fit(ModelSpec(
            link="logit", terms="exposure_plus_stratum", table=six_strata)))
        assert te.df == 5
        assert 0.0 <= te.p_value <= 1.0

    def test_natural_scale(self):
        assert natural_scale("logit", 0.0) == 1.0
        assert natural_scale("log", math.log(2.0)) == pytest.approx(2.0)
        assert natural_scale("cloglog", 1.0) == pytest.approx(math.e)
        assert natural_scale("identity", -0.25) == -0.25
        with pytest.raises(ValidationError):
            natural_scale("probit", 0.0)

    def test_fitted_stratum_points_tags(self, whickham):
        f = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                          table=whickham))
        pts = fitted_stratum_points(f)
        assert [p.tag for p in pts] == ["fitted:18-64", "fitted:65+"]
        assert [(p.x, p.y) for p in pts] == list(f.fitted_risks)


class TestLikelihoodRatioMachinery:
    def test_lr_test_between_fits(self, whickham):
        # the statistic between nested fits, twice their log-likelihood
        # gap, is the interaction test's: the no-interaction deviance
        null = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                             table=whickham))
        alt = fit(ModelSpec(link="logit",
                            terms="saturated_with_interaction",
                            table=whickham))
        test = _lr(2.0 * (alt.log_likelihood - null.log_likelihood), df=1)
        assert test.p_value == pytest.approx(INTERACTION_P["logit"],
                                             abs=1e-6)
        assert test.p_value == pytest.approx(
            interaction_test(null).p_value, abs=1e-9)

    def test_swapped_nesting_raises(self, whickham):
        null = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                             table=whickham))
        alt = fit(ModelSpec(link="logit",
                            terms="saturated_with_interaction",
                            table=whickham))
        with pytest.raises(NestingError):
            _lr(2.0 * (null.log_likelihood - alt.log_likelihood), df=1)

    def test_df_validation(self):
        with pytest.raises(ValidationError):
            _lr(0.0, df=0)

    def test_the_exposure_test_makes_no_fit(self, irls_recorder, make_table):
        # The logit no-interaction fit of this table is closed form, its
        # reference stratum held at a risk of 0, so reference coding loses
        # its alphas. Neither the test nor the profile refits: the profile
        # starts from the fit's own alphas, and its endpoint run is the only
        # Newton run. b is log(3/7) - log(1/8), 1.07 ulps from ln(24/7) =
        # 1.2321436812926323145...
        table = make_table([("a", 0, 5, 0, 7), ("b", 3, 10, 1, 9)])
        f = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                          table=table))
        assert f.coefficients == (-math.inf, 1.232143681292632, math.inf)
        assert f.iterations == 0
        assert exposure_test(f).statistic == 1.0605565200268647
        assert irls_recorder.calls == []
        iv = profile_interval(f)
        assert (iv.lower, iv.upper) == (0.3454008621516956, 78.55921648587932)
        assert [call.joint for call in irls_recorder.calls] == [True]

    def test_result_types(self, whickham):
        spec = ModelSpec(link="logit", terms="exposure_plus_stratum",
                         table=whickham)
        assert isinstance(exposure_test(fit(spec)), LrTest)
        assert isinstance(profile_interval(fit(spec)), LrInterval)

    def test_level_validation(self, whickham):
        spec = ModelSpec(link="logit", terms="exposure_only", table=whickham)
        with pytest.raises(ValidationError):
            profile_interval(fit(spec), level=1.0)

    @pytest.mark.parametrize("terms", ["exposure_only",
                                       "exposure_plus_stratum"])
    def test_interval_endpoints_sit_on_the_chi_square_cut(self, whickham,
                                                          terms):
        # defining property: the profile drop at either endpoint equals
        # the 95 percent chi-square(1) quantile
        spec = ModelSpec(link="logit", terms=terms, table=whickham)
        f = fit(spec)
        iv = profile_interval(f)
        for endpoint in (iv.lower, iv.upper):
            beta = math.log(endpoint)
            ll = oracle_profile_log_likelihood(whickham, terms, "logit",
                                               beta, f.coefficients)
            drop = 2.0 * (f.log_likelihood - ll)
            assert drop == pytest.approx(CHI2_95_1, abs=1e-5)

    def test_interaction_test_needs_the_no_interaction_fit(self, whickham,
                                                           whickham_crude):
        sat = fit(ModelSpec(link="logit", terms="saturated_with_interaction",
                            table=whickham))
        with pytest.raises(ValidationError):
            interaction_test(sat)
        one = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                            table=whickham_crude))
        with pytest.raises(ValidationError, match="at least two strata"):
            interaction_test(one)

    def test_warm_start_keeps_log_link_endpoints_off_the_estimate(
            self, make_table):
        # Cold-started constrained fits left the log link's domain near
        # this estimate, and the errors read as "beyond the target" shrank
        # the interval to [2.226371, 2.226371].
        table = make_table([("s1", 135, 153, 22, 37),
                            ("s2", 973, 1200, 214, 610)])
        f = fit(ModelSpec(link="log", terms="exposure_plus_stratum",
                          table=table))
        iv = profile_interval(f)
        assert iv.lower < iv.estimate < iv.upper
        for endpoint in (iv.lower, iv.upper):
            ll = oracle_profile_log_likelihood(
                table, "exposure_plus_stratum", "log", math.log(endpoint),
                f.coefficients)
            drop = 2.0 * (f.log_likelihood - ll)
            assert drop == pytest.approx(CHI2_95_1, abs=1e-5)

    def test_profile_limits_far_from_the_estimate_cross_the_cut(
            self, make_table):
        # Every cell has cases and non-cases, so the profile drop rises to
        # the cut before b leaves the domain. Constrained fits that failed
        # on the way there once ended the search early, at RR 1.92871 and
        # RD 0.47644, where the drop is only 0.22 and 0.95.
        table = make_table([("s1", 48, 50, 30, 50), ("s2", 45, 50, 20, 50)])
        terms = "exposure_plus_stratum"
        for link, upper in (("log", 2.29176), ("identity", 0.530571)):
            f = fit(ModelSpec(link=link, terms=terms, table=table))
            iv = profile_interval(f)
            assert iv.upper == pytest.approx(upper, rel=5e-6)
            for endpoint in (iv.lower, iv.upper):
                b = math.log(endpoint) if link == "log" else endpoint
                if link == "log":
                    alpha = -max(b, 0.0) - 0.2
                else:
                    alpha = (max(0.0, -b) + min(1.0, 1.0 - b)) / 2.0
                ll = oracle_profile_log_likelihood(table, terms, link, b,
                                                   [alpha, b, 0.0])
                drop = 2.0 * (f.log_likelihood - ll)
                assert drop == pytest.approx(CHI2_95_1, abs=1e-5)

    def test_an_endpoint_past_a_zero_cell_s_bound_is_found(
            self, irls_recorder, make_table):
        # From b = 0.6385 up, stratum a's unexposed risk (0 cases in 1) has
        # its maximum at 0, while the drop there is only 0.178. The search
        # once closed on that b and reported RD upper 0.638459, then raised
        # that the endpoint lay beyond it; the bound now holds the risk at
        # 0, and the one joint run finds the crossing, 0.754275.
        table = make_table([("a", 13, 20, 0, 1), ("b", 14, 22, 1, 17)])
        terms, link = "exposure_plus_stratum", "identity"
        f = fit(ModelSpec(link=link, terms=terms, table=table))
        iv = profile_interval(f)
        assert iv.upper == pytest.approx(0.754275, abs=1e-6)
        run, = irls_recorder.joint_calls
        assert run.failed == [False, False]
        top = oracle_profile(table, terms, link, f.coefficients[1])
        drop = 2.0 * (top - oracle_profile(table, terms, link, iv.upper))
        assert drop == pytest.approx(CHI2_95_1, abs=1e-6)

    def test_an_endpoint_past_a_full_cell_s_bound_is_found(self, make_table):
        # From b = (sqrt(13) - 5) / 2 = -0.69722 down, stratum a's unexposed
        # risk (3 cases in 3) has its profile maximum at 1. A bisected b
        # there once closed the bracket, and the run raised; the bound now
        # holds the risk at 1, and the crossing is found near b = -0.8817.
        table = make_table([("a", 3, 12, 3, 3), ("b", 1, 2, 8, 9)])
        terms, link = "exposure_plus_stratum", "identity"
        f = fit(ModelSpec(link=link, terms=terms, table=table))
        lower = profile_interval(f).lower
        assert lower == pytest.approx(-0.8817, abs=1e-4)
        top = oracle_profile(table, terms, link, f.coefficients[1])
        drop = 2.0 * (top - oracle_profile(table, terms, link, lower))
        assert drop == pytest.approx(CHI2_95_1, abs=1e-6)

    def test_a_flat_profile_steps_out_to_the_endpoint(self, irls_recorder,
                                                      make_table):
        # Exposed 0/324 vs unexposed 44/44: the HR estimate is 0 (b = -inf).
        # In one of the upper endpoint's Newton passes the profile is flat
        # to rounding, its Newton b not finite, and b steps MAX_ETA_STEP
        # further out below the cut; the run still lands on the cut.
        table = make_table([("a", 0, 324, 44, 44)])
        terms, link = "exposure_only", "cloglog"
        f = fit(ModelSpec(link=link, terms=terms, table=table))
        iv = profile_interval(f)
        # the lower endpoint is the estimate's; only the upper is solved
        run, = irls_recorder.joint_calls
        assert run.failed == [False]
        assert run.iterations < glm.PROFILE_MAX_STEPS
        assert iv.estimate == iv.lower == 0.0
        assert iv.upper == pytest.approx(0.0010027053995724934, rel=1e-9)
        drop = 2.0 * (oracle_fit_kernel(f) - oracle_profile(
            table, terms, link, math.log(iv.upper)))
        assert drop == pytest.approx(CHI2_95_1, abs=1e-9)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("terms", ["exposure_only",
                                       "exposure_plus_stratum"])
    @pytest.mark.parametrize("link", LINKS)
    def test_a_failed_joint_solve_raises_its_side_s_error(
            self, irls_recorder, whickham, link, terms, side):
        # Each endpoint is a problem of one joint (alpha, b) run. One that
        # fails raises the step-cap text; no other solver runs.
        f = fit(ModelSpec(link=link, terms=terms, table=whickham))
        irls_recorder.calls.clear()
        failed = np.arange(2) == ("lower", "upper").index(side)
        irls_recorder.rewrite = lambda run: dataclasses.replace(
            run, b=np.where(failed, np.nan, run.b))
        with pytest.raises(NonConvergenceError, match=(
                f"^no {side} profile endpoint in {glm.PROFILE_MAX_STEPS} "
                f"steps under the {link} link$")):
            profile_interval(f)
        assert [call.joint for call in irls_recorder.calls] == [True]

    def test_wider_level_widens_the_interval(self, whickham):
        spec = ModelSpec(link="logit", terms="exposure_plus_stratum",
                         table=whickham)
        f = fit(spec)
        iv95 = profile_interval(f, level=0.95)
        iv99 = profile_interval(f, level=0.99)
        assert iv99.lower < iv95.lower
        assert iv99.upper > iv95.upper
        assert iv99.estimate == iv95.estimate

    def test_a_cycling_joint_solve_bisects_within_the_cap(
            self, irls_recorder, make_table):
        # From its Wald start the lower joint solve's drop swings between
        # ~17 and ~42 (cut 3.84) and never settles; it once held its run for
        # all 100 iterations before it raised, then was handed on after
        # PROFILE_STALL_STEPS passes to a second solver. The stall now takes
        # the bisected b, and the same run finds the endpoint.
        table = make_table([("a", 2, 3, 1, 5)])
        f = fit(ModelSpec(link="log", terms="exposure_only", table=table))
        assert profile_interval(f).lower == pytest.approx(0.5201260467561138,
                                                          rel=1e-12)
        run, = irls_recorder.calls
        assert run.joint and run.failed == [False, False]
        assert run.iterations < glm.PROFILE_MAX_STEPS

    @pytest.mark.parametrize("forced", range(4))
    @pytest.mark.parametrize("link", LINKS)
    def test_a_failed_problem_leaves_its_group_alone(
            self, irls_recorder, whickham, whickham_crude, link, forced):
        # A grouped run of the crude and the common fit's four endpoints in
        # which one problem fails: the fit it belongs to gets that side's
        # error, and the other fit keeps its bits.
        fits = [fit(ModelSpec(link=link, terms=terms, table=table))
                for terms, table in (("exposure_only", whickham_crude),
                                     ("exposure_plus_stratum", whickham))]
        grouped = glm.profile_intervals(fits)
        irls_recorder.calls.clear()
        irls_recorder.rewrite = lambda run: dataclasses.replace(
            run, b=np.where(np.arange(run.b.size) == forced, np.nan, run.b))
        again = glm.profile_intervals(fits)
        owner, side = forced // 2, ("lower", "upper")[forced % 2]
        assert again[1 - owner] == grouped[1 - owner]
        assert isinstance(again[owner], NonConvergenceError)
        assert str(again[owner]).startswith(f"no {side} profile endpoint")
        joint, = irls_recorder.calls
        assert joint.joint and joint.failed == [i == forced for i in range(4)]


positive_cells = st.integers(min_value=1, max_value=400)


@st.composite
def interior_tables(draw, max_strata=3):
    k = draw(st.integers(min_value=2, max_value=max_strata))
    strata = []
    for i in range(k):
        et = draw(st.integers(min_value=2, max_value=500))
        ut = draw(st.integers(min_value=2, max_value=500))
        ec = draw(st.integers(min_value=1, max_value=et - 1))
        uc = draw(st.integers(min_value=1, max_value=ut - 1))
        strata.append((f"s{i}", CohortCell(
            exposed_cases=ec, exposed_total=et,
            unexposed_cases=uc, unexposed_total=ut)))
    return StratifiedCohortTable(strata=tuple(strata))


@given(interior_tables())
@settings(max_examples=40, deadline=None)
def test_logit_fit_properties_on_interior_tables(table):
    sat = fit(ModelSpec(link="logit", terms="saturated_with_interaction",
                        table=table))
    assert sat.deviance == pytest.approx(0.0, abs=1e-8)
    for (fx, fy), cell in zip(sat.fitted_risks, table.cells):
        ox, oy = cell.risks()
        assert fx == pytest.approx(ox, abs=1e-8)
        assert fy == pytest.approx(oy, abs=1e-8)
    common = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                           table=table))
    crude = fit(ModelSpec(link="logit", terms="exposure_only", table=table))
    assert crude.log_likelihood <= common.log_likelihood + 1e-9
    assert common.log_likelihood <= sat.log_likelihood + 1e-9
    assert common.deviance >= -1e-12
    te = interaction_test(common)
    assert 0.0 <= te.p_value <= 1.0
    assert te.df == table.k - 1


@st.composite
def mixed_cell_tables(draw):
    """k = 2-6 strata, totals up to 1e6, cases and non-cases in each cell."""
    strata = []
    for i in range(draw(st.integers(min_value=2, max_value=6))):
        totals = [draw(st.integers(min_value=2, max_value=1_000_000))
                  for _ in range(2)]
        cases = [draw(st.integers(min_value=1, max_value=t - 1))
                 for t in totals]
        strata.append((f"s{i}", CohortCell(
            exposed_cases=cases[0], exposed_total=totals[0],
            unexposed_cases=cases[1], unexposed_total=totals[1])))
    return StratifiedCohortTable(strata=tuple(strata))


def oracle_kernel(table, link, beta):
    """The no-interaction log-likelihood less its constant, sum of
    s*log(mu) + f*log(1 - mu), with both logs taken from eta without
    forming 1 - mu, so risks within 1e-10 of 0 or 1 keep their accuracy;
    -inf outside the link's domain."""
    X, s, n = oracle_design(table, "exposure_plus_stratum")
    eta = X @ np.asarray(beta, dtype=float)
    if link == "log" and np.any(eta >= 0.0):
        return -np.inf
    if link == "identity" and (np.any(eta <= 0.0) or np.any(eta >= 1.0)):
        return -np.inf
    with np.errstate(all="ignore"):
        if link == "logit":
            log_mu, log_nu = -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)
        elif link == "log":
            log_mu, log_nu = eta, np.log(-np.expm1(eta))
        elif link == "identity":
            log_mu, log_nu = np.log(eta), np.log1p(-eta)
        else:
            t = np.exp(eta)
            log_mu, log_nu = np.log(-np.expm1(-t)), -t
        ll = float(np.sum(s * log_mu + (n - s) * log_nu))
    return ll if math.isfinite(ll) else -np.inf


@given(mixed_cell_tables())
@settings(max_examples=50, deadline=None)
def test_no_interaction_fit_is_the_maximum_on_mixed_tables(table):
    # With cases and non-cases in every cell the maximum is interior under
    # every link, so every fit succeeds, and a quasi-Newton search started
    # from it, within a box of +-1 around each coefficient, finds no
    # log-likelihood higher by more than 1e-9 relative.
    for link in LINKS:
        f = fit(ModelSpec(link=link, terms="exposure_plus_stratum",
                          table=table))
        beta = np.asarray(f.coefficients)
        at_fit = oracle_kernel(table, link, beta)

        def objective(b):
            ll = oracle_kernel(table, link, b)
            return -ll if math.isfinite(ll) else 1e20

        res = scipy.optimize.minimize(
            objective, beta, method="L-BFGS-B",
            bounds=[(v - 1.0, v + 1.0) for v in beta])
        assert -res.fun - at_fit <= 1e-9 * abs(f.log_likelihood), link


def oracle_profile(table, terms, link, b):
    """The profile log-likelihood kernel at b: each stratum's alpha (the
    collapsed table's for ``exposure_only``) maximized by scipy's bounded
    scalar search over the alphas keeping both risks in (0, 1)."""
    cells = [(c.unexposed_cases, c.unexposed_total, c.exposed_cases,
              c.exposed_total) for c in table.cells]
    if terms == "exposure_only":
        cells = [tuple(map(sum, zip(*cells)))]
    bounds = {"log": (-40.0, min(0.0, -b)),
              "identity": (max(0.0, -b), min(1.0, 1.0 - b))
              }.get(link, (-40.0, 40.0))
    total = 0.0
    for s0, n0, s1, n1 in cells:
        s, n = np.array([s0, s1], float), np.array([n0, n1], float)

        def negative(alpha):
            eta = np.array([alpha, alpha + b])
            with np.errstate(all="ignore"):
                if link == "logit":
                    log_mu, log_nu = (-np.logaddexp(0.0, -eta),
                                      -np.logaddexp(0.0, eta))
                elif link == "log":
                    log_mu, log_nu = eta, np.log(-np.expm1(eta))
                elif link == "identity":
                    log_mu, log_nu = np.log(eta), np.log1p(-eta)
                else:
                    t = np.exp(eta)
                    log_mu, log_nu = np.log(-np.expm1(-t)), -t
            f = n - s
            ll = (np.where(s > 0, s * log_mu, 0.0)
                  + np.where(f > 0, f * log_nu, 0.0)).sum()
            return -ll if np.isfinite(ll) else np.inf

        res = scipy.optimize.minimize_scalar(
            negative, bounds=bounds, method="bounded",
            options={"xatol": 1e-12})
        total -= res.fun
    return total


def _table(rows):
    return StratifiedCohortTable(strata=tuple(
        (label, CohortCell(exposed_cases=ec, exposed_total=et,
                           unexposed_cases=uc, unexposed_total=ut))
        for label, ec, et, uc, ut in rows))


def _oracle_cells(link, eta, s, n):
    """Each stratum's s log(mu) + f log(1 - mu) at cells eta, 0 log 0 = 0,
    -inf outside the link's domain."""
    with np.errstate(all="ignore"):
        if link == "logit":
            log_mu, log_nu = -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)
        elif link == "log":
            log_mu, log_nu = eta, np.log(-np.expm1(eta))
        elif link == "identity":
            log_mu, log_nu = np.log(eta), np.log1p(-eta)
        else:
            t = np.exp(eta)
            log_mu, log_nu = np.log(-np.expm1(-t)), -t
        f = n - s
        ll = (np.where(s > 0, s * log_mu, 0.0)
              + np.where(f > 0, f * log_nu, 0.0)).sum(axis=-1)
    return np.where(np.isnan(ll), -np.inf, ll)


def _oracle_width(link):
    return 1.0 if link == "identity" else 40.0


def oracle_bounded_profile(table, link, b, terms="exposure_plus_stratum"):
    """The no-interaction profile log-likelihood kernel at b (the collapsed
    table's for ``exposure_only``), zero cells allowed: each stratum's
    alpha maximizes its concave kernel by a golden-section search over the
    alphas keeping both risks in [0, 1], both ends included, within
    40 + |b| of 0 on a link with no bound there."""
    cells = np.array([(c.unexposed_cases, c.exposed_cases, c.unexposed_total,
                       c.exposed_total) for c in table.cells], dtype=float)
    if terms == "exposure_only":
        cells = cells.sum(axis=0, keepdims=True)
    s, n = cells[:, :2], cells[:, 2:]
    free = _oracle_width(link) + abs(b)
    lo, hi = {"log": (-free, min(0.0, -b)),
              "identity": (max(0.0, -b), min(1.0, 1.0 - b))}.get(
                  link, (-free, free))
    lo, hi = np.full(len(s), lo), np.full(len(s), hi)

    def kernel(alpha):
        return _oracle_cells(link, np.stack([alpha, alpha + b], axis=1), s, n)

    ends = np.maximum(kernel(lo), kernel(hi))
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = kernel(x1), kernel(x2)
    for _ in range(80):  # the maximum is in [lo, x2] where f1 >= f2
        left = f1 >= f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - ratio * (hi - lo), lo + ratio * (hi - lo))
        fx = kernel(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    return float(np.maximum(ends, np.maximum(f1, f2)).sum())


def oracle_bounded_maximum(table, link, b_start, terms="exposure_plus_stratum"):
    """The maximum of `oracle_bounded_profile` by scipy's L-BFGS-B over b
    in [-1, 1] on the identity link and [-40, 40] on the others, started at
    ``b_start`` (clipped, 0 if nan), or at either end. The profile is
    concave, so a start at a b that is not its maximum finds a higher one."""
    width = _oracle_width(link)
    b_start = 0.0 if math.isnan(b_start) else min(max(b_start, -width), width)
    res = scipy.optimize.minimize(
        lambda x: -oracle_bounded_profile(table, link, float(x[0]), terms),
        [b_start], method="L-BFGS-B", bounds=[(-width, width)])
    return max(-float(res.fun), *(
        oracle_bounded_profile(table, link, side * width, terms)
        for side in (-1.0, 1.0)))


def oracle_fit_kernel(f):
    """A fit's log-likelihood less its constant, the lgamma terms."""
    return f.log_likelihood - sum(
        math.lgamma(m + 1.0) - math.lgamma(c + 1.0) - math.lgamma(m - c + 1.0)
        for cell in f.spec.table.cells
        for c, m in ((cell.unexposed_cases, cell.unexposed_total),
                     (cell.exposed_cases, cell.exposed_total)))


@st.composite
def small_tables(draw):
    """k = 1-4 strata, group totals 1-40, zero cells allowed."""
    strata = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        totals = [draw(st.integers(min_value=1, max_value=40))
                  for _ in range(2)]
        cases = [draw(st.integers(min_value=0, max_value=t)) for t in totals]
        strata.append((f"s{i}", cases[0], totals[0], cases[1], totals[1]))
    return _table(strata)


# Tables whose grouped endpoint run once failed on a side and handed it to
# a second, bracketed solver (rows (ec, et, uc, ut)), with the endpoints it
# found: identity crude, no feasible start; identity crude and log common,
# landing on the far side of the estimate; identity crude, log common and
# log crude, stalling.
HANDED_OFF = [
    ("identity", "exposure_only", [(1, 16, 37, 39)],
     (-0.973137510981562, -0.6884624723589727)),
    ("identity", "exposure_only", [(14, 33, 3, 5)],
     (-0.5519008466415138, 0.26749413931164767)),
    ("log", "exposure_plus_stratum", [(4, 23, 7, 27), (1, 2, 12, 20),
                                      (4, 6, 19, 27)],
     (0.4389952221222581, 1.3407860465772115)),
    ("identity", "exposure_only", [(1, 2, 4, 9)],
     (-0.5629403376263944, 0.6605222465011632)),
    ("log", "exposure_plus_stratum", [(3, 4, 4, 8), (5, 37, 2, 3),
                                      (20, 22, 33, 34)],
     (0.7661067122796327, 1.0702102447528745)),
    ("log", "exposure_only", [(2, 3, 1, 5)], (0.5201260467561138, None)),
]


def _rows_table(rows):
    return _table([(f"s{i}", *row) for i, row in enumerate(rows)])


@pytest.mark.parametrize("link, terms, rows, expected", HANDED_OFF)
def test_one_run_finds_the_endpoints_once_handed_off(irls_recorder, link,
                                                    terms, rows, expected):
    # One grouped run, no failed problem and no fit beyond the free one:
    # every endpoint comes from the bracketed joint solve, equals the one
    # the second solver found, and has an independently profiled drop on
    # the cut.
    table = _rows_table(rows)
    f = fit(ModelSpec(link=link, terms=terms, table=table))
    iv = profile_interval(f)
    joint, = irls_recorder.joint_calls
    assert joint.failed == [False, False]
    assert len(irls_recorder.calls) == 1 + (terms == "exposure_plus_stratum")
    top = oracle_profile(table, terms, link, f.coefficients[1])
    for endpoint, parent in zip((iv.lower, iv.upper), expected):
        b = endpoint if link == "identity" else math.log(endpoint)
        if parent is not None:
            assert endpoint == pytest.approx(parent, rel=1e-12)
        drop = 2.0 * (top - oracle_profile(table, terms, link, b))
        assert drop == pytest.approx(CHI2_95_1, abs=1e-6)


@given(small_tables())
@example(_table([("a", 13, 20, 0, 1), ("b", 14, 22, 1, 17)]))
@example(_table([("a", 4, 4, 16, 20), ("b", 10, 30, 30, 30)]))
@example(_rows_table(HANDED_OFF[0][2]))
@example(_rows_table(HANDED_OFF[1][2]))
@example(_rows_table(HANDED_OFF[2][2]))
@example(_rows_table(HANDED_OFF[3][2]))
@example(_rows_table(HANDED_OFF[4][2]))
@example(_rows_table(HANDED_OFF[5][2]))
@settings(max_examples=60, deadline=None)
def test_profile_endpoints_sit_on_the_cut_or_at_b_s_limit(table):
    # Every fit and interval succeeds. Each endpoint has an independently
    # profiled drop on the chi-square cut, or is b's limit (+-1 on the
    # identity link, 0 or inf on the natural scale of the others) with a
    # drop there no larger than the cut: the limit the estimate sits at,
    # or either one where the estimate is nan (0/0) and the profile flat.
    # An endpoint is never a b where a profile fit gave up. The drops are
    # from the fit, which test_every_fit_is_the_bounded_maximum checks.
    for link in LINKS:
        width = _oracle_width(link)
        for terms in ("exposure_only", "exposure_plus_stratum"):
            f = fit(ModelSpec(link=link, terms=terms, table=table))
            b_hat, top = f.coefficients[1], oracle_fit_kernel(f)
            iv = profile_interval(f)
            assert math.isnan(b_hat) or iv.lower <= iv.estimate <= iv.upper
            for endpoint in (iv.lower, iv.upper):
                b = endpoint if link == "identity" else (
                    math.log(endpoint) if endpoint > 0.0 else -math.inf)
                if abs(b) < width:
                    drop = 2.0 * (top - oracle_bounded_profile(
                        table, link, b, terms))
                    assert drop == pytest.approx(CHI2_95_1, abs=1e-6), (
                        link, terms, endpoint)
                    continue
                assert b == b_hat or math.isnan(b_hat), (link, terms)
                drop = 2.0 * (top - oracle_bounded_profile(
                    table, link, math.copysign(width, b), terms))
                assert drop <= CHI2_95_1, (link, terms, endpoint)


# Strata as (exposed cases, exposed total, unexposed cases, unexposed
# total) whose no-interaction fit or its interval once failed to converge.
# The log link's upper endpoint ran out of steps on three. On the first,
# drawn by test_profile_endpoints_sit_on_the_cut_or_at_b_s_limit, it is
# found since an endpoint's step, like a fit's, stops on a bound or a kink
# it would cross. The other two stay strict xfails: from a drop far above
# the cut, each pass moves b by MAX_ETA_STEP. The fit's step halving ran
# out, after 10 to 17 iterations, on the other five, which the unseeded
# properties drew; a step that would cross a bound now stops on it, and
# they fit. The same property drew two more whose endpoint runs out of
# steps, strict xfails too: the log lower endpoint of one and the identity
# upper endpoint of the other.
_ENDPOINT_OUT_OF_STEPS = pytest.mark.xfail(
    strict=True, raises=NonConvergenceError,
    reason="the endpoint runs do not converge on these tables")


@pytest.mark.parametrize("link, strata", [
    ("log", [(2, 13, 14, 14), (8, 9, 19, 24), (0, 1, 0, 3)]),
    pytest.param("log", [(0, 1, 0, 1), (536236, 2478433, 1, 1)],
                 marks=_ENDPOINT_OUT_OF_STEPS),
    ("identity", [(4, 191, 0, 3), (0, 1, 0, 1)]),
    ("identity", [(2199, 2399, 0, 1), (121, 121, 0, 17)]),
    ("log", [(473, 473, 240, 16798), (0, 168, 1653, 1653),
             (0, 1799782, 72623, 72623), (108725, 108725, 3, 3585657),
             (589, 589, 1420, 3506947), (0, 61337, 58565, 58565),
             (547, 547, 0, 156714), (720, 720, 0, 432),
             (8561430, 8561430, 273, 885), (164, 58351, 10000000, 10000000),
             (0, 9837, 13112, 29137), (166, 208, 0, 3859),
             (0, 1, 0, 142547)]),
    ("identity", [(0, 1, 0, 1), (9999400, 9999997, 2, 2)]),
    pytest.param("log", [(0, 1, 0, 1), (9999400, 9999997, 2, 2)],
                 marks=_ENDPOINT_OUT_OF_STEPS),
    ("log", [(0, 1, 0, 52), (49149, 49149, 0, 9999996), (0, 1, 53232, 53232),
             (0, 235544, 0, 1), (1, 1, 0, 1), (0, 1, 4796, 15844),
             (0, 48522, 0, 47281)]),
    pytest.param("log", [(5, 31, 1, 2), (12, 12, 0, 9)],
                 marks=_ENDPOINT_OUT_OF_STEPS),
    pytest.param("identity", [(3, 28, 2, 8), (0, 1, 0, 1), (0, 21, 0, 5)],
                 marks=_ENDPOINT_OUT_OF_STEPS),
], ids=["log-endpoint", "log-endpoint-large-counts", "identity-fit",
        "identity-fit-drawn", "log-fit-13-strata", "identity-fit-near-one",
        "log-endpoint-near-one", "log-fit-7-strata", "log-endpoint-drawn",
        "identity-endpoint-drawn"])
def test_a_no_interaction_fit_and_its_interval_succeed(link, strata):
    table = _table([(f"s{i}", *row) for i, row in enumerate(strata)])
    f = fit(ModelSpec(link=link, terms="exposure_plus_stratum", table=table))
    iv = profile_interval(f)
    assert iv.lower <= iv.estimate <= iv.upper


@st.composite
def zero_cell_tables(draw):
    """k = 1-20 strata, group totals up to 1e7, and cells with no cases or
    no non-cases drawn as often as any other count."""
    strata = []
    for i in range(draw(st.integers(min_value=1, max_value=20))):
        totals = [draw(st.integers(min_value=1, max_value=10_000_000))
                  for _ in range(2)]
        cases = [draw(st.one_of(st.just(0), st.just(t),
                                st.integers(min_value=0, max_value=t)))
                 for t in totals]
        strata.append((f"s{i}", cases[0], totals[0], cases[1], totals[1]))
    return _table(strata)


@given(zero_cell_tables())
@example(_table([("a", 2, 2, 2, 6), ("b", 2, 4, 5, 11)]))
@example(_table([("a", 4, 4, 16, 20), ("b", 10, 30, 30, 30)]))
@settings(max_examples=15, deadline=None)
def test_every_fit_is_the_bounded_maximum(table):
    # Zero cells put many maxima on the boundary of the domain, some of
    # them at an infinite b. Every exposure-only and no-interaction fit
    # succeeds (one that raises, as a bare NonConvergenceError once did,
    # fails the test), and none has a log-likelihood below the bounded
    # oracle's maximum by more than 1e-9 relative.
    for link in LINKS:
        for terms in ("exposure_only", "exposure_plus_stratum"):
            f = fit(ModelSpec(link=link, terms=terms, table=table))
            top = oracle_bounded_maximum(table, link, f.coefficients[1],
                                         terms)
            assert oracle_fit_kernel(f) >= top - 1e-9 * max(1.0, abs(top)), (
                link, terms)


# The first tables of the adversarial set (tests/adversarial.py), as many
# as its script fits and profiles in a few seconds, and the most errors
# they may give: one upper endpoint that runs out of steps, table 148's
# (cloglog).
ADVERSARIAL_PREFIX = 150
ADVERSARIAL_DIGEST = (
    "d966f8b57388dc6c9fad52a05d95b009b1f868e3a82bd561bef618c8a8c8b496")


def test_the_adversarial_set_gives_no_more_errors():
    tables = adversarial.adversarial_tables()
    assert adversarial.tables_digest(tables) == ADVERSARIAL_DIGEST
    result = adversarial.survey(tables[:ADVERSARIAL_PREFIX])
    assert not result["fit_errors"]
    assert len(result["interval_errors"]) <= 1, result["interval_errors"]


def _interval_or_error(f):
    try:
        return profile_interval(f)
    except GlmError as exc:
        return type(exc), str(exc)


def _results(intervals):
    return [iv if isinstance(iv, LrInterval) else (type(iv), str(iv))
            for iv in intervals]


def _assert_grouping_changes_no_bit(table, others):
    # One run holds both endpoints of the table's exposure-only and
    # no-interaction fits under every link, and of ``others`` (fits of
    # other tables).
    fits = []
    for link in LINKS:
        for terms in ("exposure_only", "exposure_plus_stratum"):
            try:
                fits.append(fit(ModelSpec(link=link, terms=terms,
                                          table=table)))
            except GlmError:
                pass
    fits += others
    assert _results(glm.profile_intervals(fits)) == \
        [_interval_or_error(f) for f in fits]


def _crude_and_common(table):
    return [fit(ModelSpec(link=link, terms=terms, table=table))
            for link in LINKS
            for terms in ("exposure_only", "exposure_plus_stratum")]


@pytest.mark.parametrize("name", ["whickham", "six_strata"])
def test_grouped_endpoints_equal_each_fit_alone(request, name):
    table = request.getfixturevalue(name)
    _assert_grouping_changes_no_bit(table, [])


@given(small_tables())
@example(_table([("a", 13, 20, 0, 1), ("b", 14, 22, 1, 17)]))
@example(_table([("a", 4, 4, 16, 20), ("b", 10, 30, 30, 30)]))
@example(_table([("a", 2, 3, 1, 5)]))
@settings(max_examples=60, deadline=None)
def test_grouped_endpoints_equal_each_fit_alone_on_small_tables(table):
    # Grouped with the Whickham fits, whose carriers have other sizes.
    _assert_grouping_changes_no_bit(table,
                                    _crude_and_common(whickham_table()))


def test_a_mixed_link_group_gives_each_fit_its_own_result(irls_recorder,
                                                          whickham):
    # Whickham's crude fits by link, then its common fits, so no two
    # neighbours share a link, with an identity fit among them whose upper
    # endpoint lies past a bound that holds a zero cell: one run gives
    # every fit the interval that it gets alone.
    held = fit(ModelSpec(link="identity", terms="exposure_plus_stratum",
                         table=_table([("a", 13, 20, 0, 1),
                                       ("b", 14, 22, 1, 17)])))
    fits = _crude_and_common(whickham)
    fits = [*fits[::2], held, *fits[1::2]]
    grouped = _results(glm.profile_intervals(fits))
    run, = irls_recorder.joint_calls
    assert len(run.failed) == 2 * len(fits)
    assert grouped == [_interval_or_error(f) for f in fits]
    assert grouped[4].upper == pytest.approx(0.754275, abs=1e-6)


def test_one_batch_of_every_kind_of_start_equals_each_fit_alone(
        irls_recorder, whickham):
    # Whickham's crude and common fits under all four links, with an
    # infinite estimate (no exposed cases), an identity estimate within a
    # Wald half-width of 1 and a fit whose reference coding loses an alpha
    # (a stratum with no cases), all in one batch: every result has the
    # bits of its own profile_interval call.
    infinite = fit(ModelSpec(link="log", terms="exposure_only", table=_table(
        [("a", 0, 20, 5, 20), ("b", 0, 30, 4, 25)])))
    near_one = fit(ModelSpec(link="identity", terms="exposure_only",
                             table=_table([("a", 19, 20, 1, 20)])))
    lost = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                         table=_table([("a", 5, 20, 3, 20),
                                       ("b", 0, 10, 0, 10)])))
    assert infinite.coefficients[1] == -math.inf
    wald = 1.96 * math.sqrt(2 * 0.95 * 0.05 / 20)
    assert near_one.coefficients[1] == 0.9 and 0.9 + wald > 1.0
    assert math.isfinite(lost.coefficients[1])
    assert lost.coefficients[2] == -math.inf
    fits = [*_crude_and_common(whickham), infinite, near_one, lost]
    irls_recorder.calls.clear()
    grouped = glm.profile_intervals(fits)
    # one run of every endpoint, the lost alpha read off its fit
    assert [call.joint for call in irls_recorder.calls] == [True]
    assert all(isinstance(iv, LrInterval) for iv in grouped)
    assert [repr(iv) for iv in grouped] == \
        [repr(profile_interval(f)) for f in fits]


def _specs(table):
    return [ModelSpec(link=link, terms=terms, table=table)
            for link in LINKS for terms in glm.TERMS
            if table.k >= 2 or terms != "saturated_with_interaction"]


def _fit_bits(result):
    # repr holds every float's bits, and nan in a trace compares equal; the
    # alphas, which repr leaves out, show that no fit's depend on its group
    if isinstance(result, GlmError):
        return type(result), str(result), repr(getattr(result, "trace", None))
    return repr(result), repr(result.alphas)


def _assert_fits_group_changes_no_bit(specs):
    # one fits call gives each spec the fit, or the error and its trace,
    # that it gets alone
    assert [_fit_bits(r) for r in glm.fits(specs)] == \
        [_fit_bits(glm.fits([spec])[0]) for spec in specs]


@st.composite
def large_count_tables(draw):
    """k = 1-12 strata, group totals up to 1e7, zero cells allowed."""
    strata = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        totals = [draw(st.integers(min_value=1, max_value=10_000_000))
                  for _ in range(2)]
        cases = [draw(st.integers(min_value=0, max_value=t)) for t in totals]
        strata.append((f"s{i}", cases[0], totals[0], cases[1], totals[1]))
    return _table(strata)


@pytest.mark.parametrize("name", ["whickham", "six_strata"])
def test_grouped_fits_equal_each_fit_alone(irls_recorder, request, name):
    specs = _specs(request.getfixturevalue(name))
    _assert_fits_group_changes_no_bit(specs)
    grouped = irls_recorder.calls[0]
    assert grouped.failed == [False] * 4


@given(small_tables(), large_count_tables())
@settings(max_examples=40, deadline=None)
def test_grouped_fits_equal_each_fit_alone_on_small_and_large_tables(
        small, large):
    # Interleaved with Whickham's and six_strata's, so neighbouring free
    # fits differ in link and in size.
    tables = [small, whickham_table(), large, six_strata_table()]
    _assert_fits_group_changes_no_bit(
        [spec for group in itertools.zip_longest(*map(_specs, tables))
         for spec in group if spec is not None])


def test_a_failed_fit_leaves_its_group_alone(irls_recorder, monkeypatch,
                                             whickham,
                                             zero_exposed_cases_table):
    # With the iteration cap at 7, the zero cell's log fit (8 iterations)
    # runs out of iterations in the group too, with its own trace, and
    # every other fit, of at most 7, keeps its bits.
    monkeypatch.setattr(glm, "MAX_ITERATIONS", 7)
    specs = [spec for pair in zip(_specs(zero_exposed_cases_table),
                                  _specs(whickham)) for spec in pair]
    _assert_fits_group_changes_no_bit(specs)
    grouped = irls_recorder.calls[0]  # the group's, before each alone
    assert grouped.failed == [False, False, True] + [False] * 5
    failed = glm.fits(specs)[8]
    assert isinstance(failed, NonConvergenceError)
    assert str(failed) == "no convergence in 7 iterations under the log link"
    assert len(failed.trace) == 8


def test_no_fits_give_no_intervals():
    # one result per fit; no fits once raised IndexError
    assert glm.profile_intervals([]) == []


def test_table_arrays_are_built_once_read_only_and_bounded(whickham):
    s, n, log_choose = glm._cells(whickham)
    assert glm._cells(whickham)[0] is s
    for a in (s, n, log_choose):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert glm._cells.cache_info().maxsize is not None


def test_fits_keep_their_bits_across_memoized_tables(whickham, six_strata):
    def fits(table):
        return [fit(ModelSpec(link=link, terms=terms, table=table))
                for link in LINKS for terms in glm.TERMS]

    glm._cells.cache_clear()
    first = fits(whickham)
    fits(six_strata)
    assert fits(whickham) == first


def test_a_run_rebinds_no_attribute_of_its_stack(make_table):
    # The log fit of these strata holds stratum a's exposed risk at 1, so
    # its run has held rows; they travel through the run, and the stack
    # stays a fixed description of its problems.
    s, n, _ = glm._cells(make_table([("a", 2, 2, 2, 6), ("b", 2, 4, 5, 11)]))
    stack = glm._Stack([(s, n, glm._LINKS["log"])])
    before = dict(vars(stack))
    run = glm._irls(stack)
    assert run.log_mu[0, 1] == 0.0 and not any(run.errors)
    after = vars(stack)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_a_zero_margin_raises_on_every_call(make_table):
    # the error is not memoized, so no later call returns arrays for it
    table = make_table([("empty", 0, 0, 10, 50), ("b", 5, 50, 10, 50)])
    for _ in range(2):
        with pytest.raises(ZeroMarginError, match="'empty'"):
            glm._cells(table)


def _reference_likelihood(fit_result):
    """Log-likelihood and deviance as three lgamma calls and a second
    `_log_observed` gave them, from the fitted logs, 0 log 0 = 0."""
    spec = fit_result.spec
    s, n, _ = glm._cells(spec.table)
    if fit_result.iterations:  # a free fit: its own run's logs
        run = glm._irls(glm._Stack([(s, n, glm._LINKS[spec.link])]))
        log_mu, log_nu = run.log_mu, run.log_nu
    else:  # a closed-form fit: the observed, or pooled, proportions
        log_mu, log_nu = glm._log_observed(*(
            (s, n) if spec.terms != "exposure_only" else
            [np.broadcast_to(a.sum(axis=0), a.shape) for a in (s, n)]))
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    f = n - s
    with np.errstate(invalid="ignore"):  # 0 * -inf
        log_likelihood = float(np.sum(
            lgamma(n + 1.0) - lgamma(s + 1.0) - lgamma(f + 1.0)
            + np.where(s > 0.0, s * log_mu, 0.0)
            + np.where(f > 0.0, f * log_nu, 0.0)))
    return log_likelihood, glm._deviance(s, n, log_mu, log_nu)


def _assert_fit_likelihoods_keep_their_bits(table):
    for link in LINKS:
        for terms in glm.TERMS:
            try:
                spec = ModelSpec(link=link, terms=terms, table=table)
                f = fit(spec)
            except (GlmError, ValidationError):
                continue
            assert (f.log_likelihood, f.deviance) == \
                _reference_likelihood(f), (link, terms)


@pytest.mark.parametrize("name", ["whickham", "whickham_crude", "six_strata"])
def test_fit_likelihoods_keep_their_bits(request, name):
    _assert_fit_likelihoods_keep_their_bits(request.getfixturevalue(name))


@given(small_tables())
@settings(max_examples=40, deadline=None)
def test_fit_likelihoods_keep_their_bits_on_small_tables(table):
    _assert_fit_likelihoods_keep_their_bits(table)


GOLDEN_REPORT = Path(__file__).parent / "golden" / "analyze_whickham.json"
# The profile drop is one sum of per-cell log-likelihood differences, whose
# logs are each rounded, so endpoints carry noise of order 1e-15 relative,
# larger on an identity endpoint near 0: the golden's worst endpoint (RD
# lower, 0.0133) is 1.22e-14 off the 50-digit oracle, and six_strata's
# (crude RD lower, -0.00845) 4.28e-14. Before the drop was one sum they were
# 2.10e-14 and 1.02e-13 (a secant search's 4.46e-14 and more). These bounds
# may only tighten.
ENDPOINT_REL_BOUND = Decimal("1.3e-14")
SIX_STRATA_REL_BOUND = Decimal("4.3e-14")
ESTIMATE_REL_BOUND = Decimal("5e-16")


def test_golden_intervals_match_the_decimal_oracle(whickham):
    doc = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    for entry in doc["measures"]:
        for key, terms in (("crude_interval", "exposure_only"),
                           ("common_interval", "exposure_plus_stratum")):
            interval = entry[key]
            expected = oracles.profile_interval(whickham, entry["link"],
                                                terms, interval["level"])
            for field, value in zip(("estimate", "lower", "upper"),
                                    expected):
                error = abs(Decimal(interval[field + "_full"]) - value)
                bound = (ESTIMATE_REL_BOUND if field == "estimate"
                         else ENDPOINT_REL_BOUND)
                assert error <= bound * abs(value), (entry["link"], key,
                                                     field, error / value)


@pytest.mark.parametrize("terms", ["exposure_only", "exposure_plus_stratum"])
@pytest.mark.parametrize("link", LINKS)
def test_six_strata_intervals_match_the_decimal_oracle(six_strata, link,
                                                       terms):
    iv = profile_interval(fit(ModelSpec(link=link, terms=terms,
                                        table=six_strata)))
    expected = oracles.profile_interval(six_strata, link, terms)
    for value, exact, bound in zip(
            (iv.estimate, iv.lower, iv.upper), expected,
            (ESTIMATE_REL_BOUND, SIX_STRATA_REL_BOUND, SIX_STRATA_REL_BOUND)):
        error = abs(Decimal(value) - exact)
        assert error <= bound * abs(exact), error / exact


def test_small_table_endpoints_match_the_decimal_oracle():
    # Every endpoint of tests/golden/small_tables.json short of b's limits,
    # so each regeneration of that file is gated on all of them: the worst,
    # 1.22e-14, is table 3's identity common lower endpoint. Zero counts put
    # strata of these tables on an edge of their domain, which
    # `oracles.endpoint_error` and `oracles.estimate_error` handle; the one
    # estimate checked is table 18's log common one, which once moved.
    tables = test_golden.small_tables()
    errors = {}
    for index, table in enumerate(tables):
        for link in LINKS:
            limits = (-1.0, 1.0) if link == "identity" else (0.0, math.inf)
            for terms in ("exposure_only", "exposure_plus_stratum"):
                iv = profile_interval(fit(ModelSpec(link=link, terms=terms,
                                                    table=table)))
                for name in ("lower", "upper"):
                    if getattr(iv, name) not in limits:
                        errors[index, link, terms, name] = (
                            oracles.endpoint_error(table, link, terms,
                                                   iv.estimate,
                                                   getattr(iv, name)))
    assert len(errors) == 368
    worst = max(errors, key=errors.get)
    assert errors[worst] <= ENDPOINT_REL_BOUND, (worst, errors[worst])
    iv = profile_interval(fit(ModelSpec(
        link="log", terms="exposure_plus_stratum", table=tables[18])))
    assert oracles.estimate_error(tables[18], "log", "exposure_plus_stratum",
                                  iv.estimate) <= ESTIMATE_REL_BOUND


# Each stratum's odds and hazard ratios are read off its two cells'
# link-scale values, exp(g(y) - g(x)), g taken straight from the counts
# (log(s / f), log(log1p(s / f))). The worst relative errors, on the tables
# below, are 1.09e-15 (OR, the last table's, 6.3 ulps: exp(b) at b = -8.76
# carries b's own rounding) and 3.5e-16 (HR); from rounded proportions they
# were 7.9e-13 and 8.0e-14, both on the last table. This bound may only
# tighten.
STRATUM_RATIO_REL_BOUND = Decimal("1.1e-15")


def test_odds_and_hazard_ratio_stratum_estimates_match_the_exact_ratio(
        whickham, six_strata):
    tables = [whickham, six_strata, *test_golden.small_tables(),
              *test_golden.sampled_k2_tables(),
              _table([("s0", 3224264, 4349975, 1188064, 1188129)])]
    for table in tables:
        for link, exact_ratio in (("logit", oracles.odds_ratio),
                                  ("cloglog", oracles.hazard_ratio)):
            for estimate, c in zip(glm._stratum_effects(table, link),
                                   table.cells):
                exact = exact_ratio(c.unexposed_cases, c.unexposed_total,
                                    c.exposed_cases, c.exposed_total)
                if exact is None:  # infinite, or nan (0/0)
                    assert not math.isfinite(estimate), (link, c)
                    continue
                if isinstance(exact, Fraction):
                    exact = Decimal(exact.numerator) / exact.denominator
                error = abs(Decimal(estimate) - exact)
                assert error <= STRATUM_RATIO_REL_BOUND * exact, (
                    link, c, error / exact)
