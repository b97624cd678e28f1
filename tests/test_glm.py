"""Binomial GLM fitting, likelihood-ratio inference, chi-square support.

Two oracles live at the top of this file, written before anything that
consumes them. The chi-square oracle integrates the density by adaptive
Simpson quadrature after the substitution t = u**2, which removes the
integrable singularity at zero for one degree of freedom. The likelihood
oracle rebuilds the design from scratch and maximizes the binomial
log-likelihood with scipy, so agreement is evidence about the model, not
about two copies of the same code.
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from rothman.errors import (GlmError, NestingError, NonConvergenceError,
                            ValidationError, ZeroMarginError)
from rothman.diagnostics import analyze
from rothman.glm import (LrInterval, LrTest, ModelSpec, chi_square_cdf,
                         chi_square_quantile, chi_square_sf, exposure_estimate,
                         exposure_test, fit, fitted_stratum_points,
                         interaction_test, lr_test, natural_scale,
                         profile_interval, stratum_exposure_estimates)
from rothman.tables import CohortCell, StratifiedCohortTable

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
        with pytest.raises(ValidationError):
            chi_square_cdf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_quantile(1.5, 1)


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

    def test_boundary_data_fails_loudly(self, zero_exposed_cases_table):
        t = zero_exposed_cases_table
        for link in LINKS:
            with pytest.raises(GlmError):
                fit(ModelSpec(link=link,
                              terms="saturated_with_interaction", table=t))
        with pytest.raises(NonConvergenceError) as exc:
            fit(ModelSpec(link="identity", terms="exposure_plus_stratum",
                          table=t))
        assert exc.value.trace

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("c", [100, 1000, 10000])
    def test_fit_does_not_depend_on_the_cohort_size(
            self, whickham, zero_exposed_cases_table, scale_table, c, link):
        # The same risks from c times as many people give the same MLE,
        # reached in as many iterations; a boundary MLE still fails.
        base, big = (fit(ModelSpec(link=link, terms="exposure_plus_stratum",
                                   table=t))
                     for t in (whickham, scale_table(whickham, c)))
        assert big.coefficients == pytest.approx(base.coefficients,
                                                 rel=1e-9)
        assert big.iterations == base.iterations
        with pytest.raises(NonConvergenceError) as exc:
            fit(ModelSpec(link="identity", terms="exposure_plus_stratum",
                          table=scale_table(zero_exposed_cases_table, c)))
        assert exc.value.trace

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
        null = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                             table=whickham))
        alt = fit(ModelSpec(link="logit",
                            terms="saturated_with_interaction",
                            table=whickham))
        p = lr_test(null, alt, df=1)
        assert p == pytest.approx(INTERACTION_P["logit"], abs=1e-6)

    def test_swapped_nesting_raises(self, whickham):
        null = fit(ModelSpec(link="logit", terms="exposure_plus_stratum",
                             table=whickham))
        alt = fit(ModelSpec(link="logit",
                            terms="saturated_with_interaction",
                            table=whickham))
        with pytest.raises(NestingError):
            lr_test(alt, null, df=1)

    def test_df_validation(self, whickham):
        f = fit(ModelSpec(link="logit", terms="exposure_only",
                          table=whickham))
        with pytest.raises(ValidationError):
            lr_test(f, f, df=0)

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

    def test_interaction_test_needs_the_no_interaction_fit(self, whickham):
        sat = fit(ModelSpec(link="logit", terms="saturated_with_interaction",
                            table=whickham))
        with pytest.raises(ValidationError):
            interaction_test(sat)

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

    def test_wider_level_widens_the_interval(self, whickham):
        spec = ModelSpec(link="logit", terms="exposure_plus_stratum",
                         table=whickham)
        f = fit(spec)
        iv95 = profile_interval(f, level=0.95)
        iv99 = profile_interval(f, level=0.99)
        assert iv99.lower < iv95.lower
        assert iv99.upper > iv95.upper
        assert iv99.estimate == iv95.estimate


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
