"""Cumulants, generating functions, and asymptotics."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from negocc import (
    INFINITE,
    DegenerateMomentsError,
    DomainError,
    OccupancyParams,
    SingularityError,
    asymptotic_cgf,
    asymptotic_moments,
    cumulant,
    cumulant_set,
    generating_function,
    harmonic_power_sum,
    kurtosis,
    mean_variance,
    moment_summary,
    pmf_vector,
    skewness,
    total_hitting_moments,
)
from negocc.oracles import cgf_maclaurin


class TestCumulants:
    def test_small_mean_variance(self):
        params = OccupancyParams(3, 2, 1.0)
        assert cumulant(params, 1) == pytest.approx(0.5, rel=1e-14)
        assert cumulant(params, 2) == pytest.approx(0.75, rel=1e-14)

    def test_third_and_fourth_match_harmonic_combinations(self):
        # kappa_3 = 2h3 - 3h2 + h1, kappa_4 = 6h4 - 12h3 + 7h2 - h1
        for (m, k, theta) in [(3, 2, 1.0), (10, 7, 0.6), (INFINITE, 4, 0.3)]:
            params = OccupancyParams(m, k, theta)
            h = [harmonic_power_sum(m, k, theta, i) for i in (1, 2, 3, 4)]
            np.testing.assert_allclose(
                cumulant(params, 3), 2 * h[2] - 3 * h[1] + h[0], rtol=1e-12
            )
            np.testing.assert_allclose(
                cumulant(params, 4),
                6 * h[3] - 12 * h[2] + 7 * h[1] - h[0],
                rtol=1e-12,
            )

    def test_frozen_third_fourth(self):
        params = OccupancyParams(3, 2, 1.0)
        assert cumulant(params, 3) == pytest.approx(1.5, rel=1e-13)
        assert cumulant(params, 4) == pytest.approx(4.125, rel=1e-13)

    def test_negative_binomial_limit_mean(self):
        assert cumulant(OccupancyParams(INFINITE, 2, 0.5), 1) == pytest.approx(2.0)

    def test_cumulant_set(self):
        params = OccupancyParams(5, 3, 0.8)
        cs = cumulant_set(params, 4)
        assert cs == tuple(cumulant(params, r) for r in (1, 2, 3, 4))

    def test_against_maclaurin_derivatives(self):
        # O(h^4) central stencils at the stated step 1e-3
        h = 1e-3
        for (m, k, theta) in [(3, 2, 1.0), (10, 4, 0.6), (INFINITE, 5, 0.5)]:
            params = OccupancyParams(m, k, theta)
            K = {j: cgf_maclaurin(params, j * h, 80) for j in range(-3, 4)}
            d1 = (-K[2] + 8 * K[1] - 8 * K[-1] + K[-2]) / (12 * h)
            d2 = (-K[2] + 16 * K[1] - 30 * K[0] + 16 * K[-1] - K[-2]) / (12 * h**2)
            d3 = (-K[3] + 8 * K[2] - 13 * K[1] + 13 * K[-1] - 8 * K[-2] + K[-3]) / (
                8 * h**3
            )
            d4 = (
                -K[3] + 12 * K[2] - 39 * K[1] + 56 * K[0] - 39 * K[-1] + 12 * K[-2]
                - K[-3]
            ) / (6 * h**4)
            for r, approx in enumerate((d1, d2, d3, d4), start=1):
                np.testing.assert_allclose(approx, cumulant(params, r), rtol=1e-5)


class TestMomentSummary:
    def test_small_instance(self):
        summary = moment_summary(OccupancyParams(3, 2, 1.0))
        assert summary.mean == pytest.approx(0.5)
        assert summary.variance == pytest.approx(0.75)
        assert not summary.is_degenerate

    def test_negative_binomial_moments(self):
        # k(1-theta)/theta, k(1-theta)/theta^2, and the matching shape values
        summary = moment_summary(OccupancyParams(INFINITE, 2, 0.5))
        assert summary.mean == pytest.approx(2.0)
        assert summary.variance == pytest.approx(4.0)
        assert summary.skewness == pytest.approx((2 - 0.5) / math.sqrt(2 * 0.5))
        assert summary.kurtosis == pytest.approx(3 + (6 + 0.5**2 / 0.5) / 2)

    def test_one_pass_over_four_power_sums(self, monkeypatch):
        import negocc.moments

        orders = []

        def counted(m, k, theta, order):
            orders.append(order)
            return harmonic_power_sum(m, k, theta, order)

        monkeypatch.setattr(negocc.moments, "harmonic_power_sum", counted)
        moment_summary(OccupancyParams(30, 14, 0.6))
        assert orders == [1, 2, 3, 4]

    def test_fields_derive_from_cumulant_set(self):
        for (m, k, theta) in [(3, 2, 1.0), (30, 14, 0.6), (200, 200, 0.35),
                              (INFINITE, 4, 0.3), (1, 1, 1.0), (INFINITE, 1, 1.0)]:
            params = OccupancyParams(m, k, theta)
            k1, k2, k3, k4 = cumulant_set(params, 4)
            summary = moment_summary(params)
            assert (summary.mean, summary.variance) == (k1, max(k2, 0.0))
            assert (summary.mean, summary.variance) == mean_variance(params)
            if summary.is_degenerate:
                continue
            assert summary.skewness == k3 / k2**1.5 == skewness(params)
            assert summary.kurtosis == 3.0 + k4 / k2**2 == kurtosis(params)

    def test_point_mass(self):
        summary = moment_summary(OccupancyParams(1, 1, 1.0))
        assert summary.mean == 0.0 and summary.variance == 0.0
        assert summary.is_degenerate
        assert summary.skewness is None and summary.kurtosis is None

    def test_degenerate_accessors_raise(self):
        # every theta = 1, k = 1 family member is a point mass
        for m in (1, 5, INFINITE):
            with pytest.raises(DegenerateMomentsError):
                skewness(OccupancyParams(m, 1, 1.0))
            with pytest.raises(DegenerateMomentsError):
                kurtosis(OccupancyParams(m, 1, 1.0))

    def test_variance_positive_otherwise(self):
        for params in (
            OccupancyParams(2, 2, 1.0),
            OccupancyParams(5, 1, 0.99),
            OccupancyParams(INFINITE, 1, 0.5),
        ):
            assert mean_variance(params)[1] > 0.0

    def test_consistent_with_pmf_weighted_sums(self):
        # deep cutoff (25 sd) so the truncated sums resolve the analytic
        # values to full precision; the acceptance suite separately pins
        # the 10-sd cutoff at its grid
        for (m, k, theta) in [(6, 3, 0.7), (12, 12, 1.0), (20, 5, 0.4)]:
            params = OccupancyParams(m, k, theta)
            mean, var = mean_variance(params)
            t_cut = math.ceil(mean + 25.0 * math.sqrt(var)) + 40
            probs = pmf_vector(params, t_cut)
            ts = np.arange(t_cut + 1)
            emp_mean = float(probs @ ts)
            emp_var = float(probs @ (ts - emp_mean) ** 2)
            emp_skew = float(probs @ (ts - emp_mean) ** 3) / emp_var**1.5
            np.testing.assert_allclose(emp_mean, mean, rtol=1e-9)
            np.testing.assert_allclose(emp_var, var, rtol=1e-9)
            np.testing.assert_allclose(emp_skew, skewness(params), rtol=1e-8)


class TestTotalHittingMoments:
    def test_examples(self):
        assert total_hitting_moments(OccupancyParams(3, 2, 1.0)) == pytest.approx(
            (2.5, 0.75)
        )
        assert total_hitting_moments(OccupancyParams(2, 2, 1.0)) == pytest.approx(
            (3.0, 2.0)
        )
        assert total_hitting_moments(OccupancyParams(1, 1, 1.0)) == pytest.approx(
            (1.0, 0.0)
        )

    def test_classical_coupon_values(self):
        # the classical collector is the diagonal k = m at theta = 1
        for m, expected in [(1, (1.0, 0.0)), (2, (3.0, 2.0)), (3, (5.5, 6.75))]:
            got = total_hitting_moments(OccupancyParams(m, m, 1.0))
            assert got == pytest.approx(expected)

    def test_classical_is_diagonal_theta_one(self):
        # (m*H_m, m^2*H_m^(2) - m*H_m), with H_m^(r) in exact arithmetic
        m = 7
        h1, h2 = (sum(Fraction(1, l) ** r for l in range(1, m + 1)) for r in (1, 2))
        expected = (float(m * h1), float(m * m * h2 - m * h1))
        got = total_hitting_moments(OccupancyParams(m, m, 1.0))
        assert got == pytest.approx(expected, rel=1e-15)


class TestGeneratingFunctions:
    def test_pgf_at_one_is_total_mass(self):
        for (m, k, theta) in [(3, 2, 1.0), (9, 9, 0.6), (40, 11, 0.25), (INFINITE, 4, 0.7)]:
            value = generating_function(OccupancyParams(m, k, theta), "pgf", 1.0)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_pgf_at_zero_is_mass_at_zero(self):
        params = OccupancyParams(3, 2, 1.0)
        assert generating_function(params, "pgf", 0.0) == pytest.approx(
            2.0 / 3.0, rel=1e-13
        )

    def test_pgf_matches_pmf_series(self):
        params = OccupancyParams(6, 4, 0.7)
        z = 0.8
        probs = pmf_vector(params, 300)
        series = float(probs @ z ** np.arange(301))
        assert generating_function(params, "pgf", z) == pytest.approx(series, rel=1e-10)

    def test_large_space_approaches_negative_binomial(self):
        got = generating_function(OccupancyParams(10**6, 1, 0.5), "pgf", 0.5)
        ref = generating_function(OccupancyParams(INFINITE, 1, 0.5), "pgf", 0.5)
        assert ref == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert got == pytest.approx(ref, rel=1e-5)

    def test_cgf_is_log_mgf(self):
        for params in (OccupancyParams(7, 4, 0.8), OccupancyParams(INFINITE, 3, 0.6)):
            for s in (-0.5, 0.0, 0.05):
                lhs = generating_function(params, "cgf", s)
                rhs = math.log(generating_function(params, "mgf", s))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_cf_at_zero_and_modulus(self):
        params = OccupancyParams(5, 3, 0.9)
        assert generating_function(params, "cf", 0.0) == pytest.approx(1.0 + 0.0j)
        value = generating_function(params, "cf", 0.2)
        assert isinstance(value, complex)
        assert abs(value) <= 1.0 + 1e-12

    def test_cf_matches_pmf_series(self):
        params = OccupancyParams(5, 3, 0.9)
        s = 0.15
        probs = pmf_vector(params, 200)
        series = complex(np.sum(probs * np.exp(1j * s * np.arange(201))))
        got = generating_function(params, "cf", s)
        assert cmath.isclose(got, series, rel_tol=1e-10)

    def test_cf_exists_beyond_the_pgf_log_radius(self):
        # log radius of (5, 3, 0.9) is log(5 / 2.3) < 1; the CF is defined
        # for every real s
        params = OccupancyParams(5, 3, 0.9)
        s = 3.0
        probs = pmf_vector(params, 200)
        series = complex(np.sum(probs * np.exp(1j * s * np.arange(201))))
        got = generating_function(params, "cf", s)
        assert abs(got - series) <= 1e-10
        inf_params = OccupancyParams(INFINITE, 3, 0.4)
        got = generating_function(inf_params, "cf", -7.5)
        assert got == pytest.approx((0.4 / (1 - 0.6 * cmath.exp(-7.5j))) ** 3, rel=1e-14)

    def test_log_sum_spans_several_chunks(self):
        # k = 150,000 terms: three numpy chunks, against a compensated
        # sum of the same logs and the cgf/cf products they form
        m, k, theta = 200_000, 150_000, 0.7
        params = OccupancyParams(m, k, theta)
        for kind, s in (("cgf", -0.3), ("cgf", 0.1), ("cf", 0.4)):
            arg = cmath.exp(1j * s) if kind == "cf" else math.exp(s)
            log = cmath.log if kind == "cf" else math.log
            terms = [log(l / (m - (m - l * theta) * arg))
                     for l in range(m - k + 1, m + 1)]
            ref = k * math.log(theta) + math.fsum(t.real for t in terms)
            got = generating_function(params, kind, s)
            if kind == "cf":
                imag = math.fsum(t.imag for t in terms)
                assert cmath.isclose(got, cmath.exp(complex(ref, imag)), rel_tol=1e-12)
            else:
                assert got == pytest.approx(ref, rel=1e-13)

    def test_domain_error_names_bound(self):
        params = OccupancyParams(3, 2, 1.0)  # pgf bound m/(m-(m-k+1)theta) = 3
        with pytest.raises(DomainError, match="bound"):
            generating_function(params, "pgf", 3.0)
        with pytest.raises(DomainError):
            generating_function(params, "pgf", -3.0)
        with pytest.raises(DomainError):
            generating_function(params, "mgf", math.log(3.0))
        # strictly inside works
        assert generating_function(params, "pgf", 2.9) > 0

    def test_non_finite_arg_names_arg(self):
        params = OccupancyParams(9, 4, 0.7)
        for kind in ("pgf", "mgf", "cgf", "cf"):
            for arg in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="^arg must be finite$"):
                    generating_function(params, kind, arg)

    def test_point_mass_exp_overflow_names_argument(self):
        # the bound of a point mass is infinite; its cgf is 0 up to exp overflow
        for params in (OccupancyParams(9, 1, 1.0), OccupancyParams(INFINITE, 3, 1.0)):
            assert generating_function(params, "cgf", 709.0) == 0.0
            for kind, s in (("mgf", 800.0), ("cgf", 710.0)):
                with pytest.raises(DomainError, match=f"^{kind} argument is too large"):
                    generating_function(params, kind, s)

    def test_value_overflow_names_cause(self):
        # the mgf/pgf value passes the double range inside the domain, where
        # the cgf, its log, is still finite
        for m in (100000, INFINITE):
            params = OccupancyParams(m, 300, 0.5)
            assert math.isfinite(generating_function(params, "cgf", 0.69))
            with pytest.raises(DomainError, match="^mgf value overflows a double; "
                                                  "--kind cgf gives its log$"):
                generating_function(params, "mgf", 0.69)
        with pytest.raises(DomainError, match="^pgf value overflows a double"):
            generating_function(OccupancyParams(INFINITE, 300, 0.5), "pgf", 1.99)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            generating_function(OccupancyParams(3, 2, 1.0), "laplace", 1.0)


class TestCgfMaclaurin:
    def test_zero_is_zero(self):
        for params in (OccupancyParams(8, 3, 0.6), OccupancyParams(INFINITE, 2, 0.4)):
            assert cgf_maclaurin(params, 0.0, 30) == 0.0

    def test_matches_product_form(self):
        params = OccupancyParams(3, 2, 1.0)
        got = cgf_maclaurin(params, 0.01, 50)
        ref = generating_function(params, "cgf", 0.01)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_infinite_space_matches_closed_form(self):
        params = OccupancyParams(INFINITE, 2, 0.5)
        s = 0.05
        got = cgf_maclaurin(params, s, 50)
        ref = 2 * math.log(0.5 / (1 - 0.5 * math.exp(s)))
        assert got == pytest.approx(ref, abs=1e-12)

    def test_radius_enforced(self):
        params = OccupancyParams(4, 3, 1.0)  # radius |1 - e^-s| < 1/2
        with pytest.raises(DomainError):
            cgf_maclaurin(params, 1.0, 30)


class TestAsymptoticCgf:
    def test_zero_at_zero(self):
        for (lam, theta) in [(0.5, 1.0), (0.5, 0.6), (0.2, 0.9)]:
            assert abs(asymptotic_cgf(2000, lam, theta, 0.0)) <= 1e-12

    def test_classical_reduction_consistency(self):
        # the general three-term form collapses to the two-term form at
        # theta = 1; evaluate both through the public entry point
        for s in (-0.3, 0.1, 0.5):
            two_term = asymptotic_cgf(100, 0.4, 1.0, s)
            es = math.exp(s)
            general = 100 * (
                0.4 * math.log(1.0)
                - 0.6 * math.log(0.6)
                - ((1.0 - 0.0 * es) / es) * math.log(abs(1.0 - 0.0 * es))
                + ((1.0 - 0.4 * es) / es) * math.log(abs(1.0 - 0.4 * es))
            )
            assert two_term == pytest.approx(general, rel=1e-12)

    def test_slope_matches_asymptotic_mean(self):
        h = 1e-3
        for (m, lam, theta) in [(2000, 0.5, 1.0), (1500, 0.3, 0.7)]:
            slope = (
                asymptotic_cgf(m, lam, theta, h) - asymptotic_cgf(m, lam, theta, -h)
            ) / (2 * h)
            mu = asymptotic_moments(m, int(m * lam), theta).mu_star
            assert slope == pytest.approx(mu, rel=1e-3)

    def test_singularity(self):
        lam = 0.5
        with pytest.raises(SingularityError):
            asymptotic_cgf(100, lam, 1.0, -math.log(lam))

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_cgf(100, 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            asymptotic_cgf(100, 1.0, 1.0, 0.1)


class TestAsymptoticMoments:
    def test_frozen_closed_forms(self):
        am = asymptotic_moments(100, 50, 1.0)
        assert am.mu_star == pytest.approx(19.314718055994533, rel=1e-14)
        assert am.sigma2_star == pytest.approx(30.685281944005467, rel=1e-14)
        assert am.kappa3_star == pytest.approx(69.31471805599453, rel=1e-13)
        assert am.kappa4_star == pytest.approx(230.68528194400548, rel=1e-13)

        am = asymptotic_moments(1000, 500, 0.6)
        assert am.mu_star == pytest.approx(655.2453009332422, rel=1e-13)
        assert am.sigma2_star == pytest.approx(1622.5324768445357, rel=1e-13)
        assert am.kappa3_star == pytest.approx(6710.800856488799, rel=1e-13)
        assert am.kappa4_star == pytest.approx(42980.55716820257, rel=1e-13)

    def test_derivatives_of_limiting_cgf(self):
        # high-order central stencils; h large enough that fourth-order
        # rounding noise stays below the truncation-tolerance target
        h = 0.02
        for (lam, theta) in [(0.5, 1.0), (0.5, 0.6), (0.3, 0.8), (0.7, 1.0)]:
            K = {j: asymptotic_cgf(1, lam, theta, j * h) for j in range(-3, 4)}
            d1 = (-K[2] + 8 * K[1] - 8 * K[-1] + K[-2]) / (12 * h)
            d2 = (-K[2] + 16 * K[1] - 30 * K[0] + 16 * K[-1] - K[-2]) / (12 * h**2)
            d3 = (-K[3] + 8 * K[2] - 13 * K[1] + 13 * K[-1] - 8 * K[-2] + K[-3]) / (
                8 * h**3
            )
            d4 = (
                -K[3] + 12 * K[2] - 39 * K[1] + 56 * K[0] - 39 * K[-1] + 12 * K[-2]
                - K[-3]
            ) / (6 * h**4)
            m = 100000
            am = asymptotic_moments(m, int(m * lam), theta)
            refs = (am.mu_star / m, am.sigma2_star / m, am.kappa3_star / m,
                    am.kappa4_star / m)
            for approx, ref in zip((d1, d2, d3, d4), refs):
                np.testing.assert_allclose(approx, ref, rtol=1e-3)

    def test_fixed_k_limit_is_negative_binomial_mean(self):
        # m -> infinity at fixed k: mu* -> k(1-theta)/theta
        k, theta = 5, 0.6
        got = asymptotic_moments(10**6, k, theta).mu_star
        assert got == pytest.approx(k * (1 - theta) / theta, rel=1e-5)

    def test_scaling_linear_in_m(self):
        lam, theta = 0.5, 0.8
        a = asymptotic_moments(400, 200, theta)
        b = asymptotic_moments(800, 400, theta)
        for field in ("mu_star", "sigma2_star", "kappa3_star", "kappa4_star"):
            assert getattr(b, field) == pytest.approx(2 * getattr(a, field), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.6, 1.0])
    def test_exact_cumulants_converge(self, theta):
        # |kappa_r/m - kappa_r*/m| decreasing along doubling m at fixed
        # occupancy fraction
        for r in (1, 2, 3, 4):
            gaps = []
            for m in (200, 500, 1000, 2000):
                params = OccupancyParams(m, m // 2, theta)
                exact = cumulant(params, r)
                star = getattr(
                    asymptotic_moments(m, m // 2, theta),
                    ("mu_star", "sigma2_star", "kappa3_star", "kappa4_star")[r - 1],
                )
                gaps.append(abs(exact - star) / m)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_diagonal_rejected(self):
        with pytest.raises(SingularityError):
            asymptotic_moments(10, 10, 1.0)
